"""Host fingerprint recorded with every result.

Results from different hosts must never be compared silently, so each run
records cores, Python, numpy and its BLAS, plus the time of a pinned numpy
matmul kernel.  The kernel (256x256 float64, fixed input) is a
calibration: latencies can be normalised by it when hosts differ.
"""

from __future__ import annotations

import os
import platform
import statistics
import struct
import time

import numpy as np

CALIBRATION_N = 256
CALIBRATION_REPEATS = 31


#: ``speed_probe()`` seconds on the 2-vCPU reference host in its fast phase.
PROBE_REFERENCE_S = 100e-6
_ROW = struct.Struct("<q28dq")
_ROWS = _ROW.pack(1, *([0.25] * 28), 0) * 32
_WEIGHTS = np.random.default_rng(2).standard_normal((28, 64))


def speed_probe() -> float:
    """CPU seconds one fixed slice of the measured work takes right now.

    The slice mirrors a PREDICT statement in miniature (decode 32 rows
    with ``struct``, gather them into a feature matrix, one small matmul)
    and takes about 0.1 ms.  Run between closed-loop operations, it
    tracks the host's current speed: the 2-vCPU hosts this benchmark runs
    on have phases lasting seconds to minutes in which all code runs up to
    twice as slowly, CPU time included, and per vCPU.  It counts the
    calling thread's CPU time, not wall time, so threads of the program
    that hold the GIL or the vCPU while it runs delay it without making
    it read slower.
    """
    start = time.thread_time()
    rows = [_ROW.unpack_from(_ROWS, i * _ROW.size) for i in range(32)]
    scores = np.array([row[1:29] for row in rows]) @ _WEIGHTS
    int(np.argmax(scores[0]))
    return time.thread_time() - start


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return {"name": "unknown"}
    deps = config.get("Build Dependencies", {}) if isinstance(config, dict) else {}
    blas = deps.get("blas", {})
    return {
        key: blas[key]
        for key in ("name", "version", "openblas configuration")
        if key in blas
    } or {"name": "unknown"}


def calibration_ms() -> float:
    """Median wall time of one pinned 256x256 float64 matmul."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((CALIBRATION_N, CALIBRATION_N))
    b = rng.standard_normal((CALIBRATION_N, CALIBRATION_N))
    a @ b  # first call pays BLAS thread start-up
    times = []
    for __ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def fingerprint() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": _blas(),
        "calibration_matmul_ms": calibration_ms(),
    }
