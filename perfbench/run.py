"""Seeded benchmark of repro: end-to-end metrics, or per-layer with --trace 1.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sql-predict --seed 1 --seconds 25 --trace 0

The program under test is imported from ``src/`` of the same checkout.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  The full report (host fingerprint,
every metric with its unit and sample count, raw figures) and,
with ``--trace 1``, every recorded span are written under
``perfbench/out/``.

With ``--trace 0`` no wrapper is installed.  With ``--trace 1`` the run
measures half its time untraced and half traced, each on a fresh set-up,
and reports per-layer metrics from the traced half plus the tracing
overhead (traced / untraced ``predict_p50_ms``).

Every Database, server and cluster pool is closed in ``finally``.  A hard
timeout stops a stuck workload; afterwards any child process,
non-daemon thread, new ``/dev/shm`` segment or temporary directory that
remains is killed or removed and reported, and the run counts as not
correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
SETUP_PROBES = 9
#: Seconds after which a workload is stopped and the run fails.
HARD_TIMEOUT_S = 150
#: Share of a one-vCPU workload's run measured again on every vCPU, after
#: the gated phase; reported, not gated.
UNPINNED_SHARE = 0.15
SHM_DIR = "/dev/shm"

END_TO_END = {
    "setup_s": "s",
    "predict_p50_ms": "ms",
    "predict_p90_ms": "ms",
    "rows_scored_per_s": "rows/s",
    "peak_rss_mb": "MiB",
}


class Interrupted(BaseException):
    """Raised in the main thread by the timeout alarm or SIGTERM/SIGINT."""


_MAIN_PID = os.getpid()


def _interrupt(signum, frame):
    if os.getpid() != _MAIN_PID:
        # A forked worker inherited this handler: die the default way and
        # leave the clean-up to the benchmark process.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    raise Interrupted(signal.Signals(signum).name)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def list_shm() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def set_cpus(cpus: set[int]) -> None:
    """Run every thread of this process, and any it starts, on ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cpus)


def reap(shm_before: set[str], tmp_root: str) -> list[str]:
    """Kill and remove whatever the run left behind; report each leak."""
    leaks = []
    for child in multiprocessing.active_children():
        leaks.append(f"child process {child.pid} ({child.name})")
        child.kill()
        child.join(5.0)
    for thread in threading.enumerate():
        if thread is threading.main_thread() or thread.daemon:
            continue
        thread.join(5.0)
        if thread.is_alive():
            leaks.append(f"non-daemon thread {thread.name}")
    for name in sorted(list_shm() - shm_before):
        leaks.append(f"shared-memory segment {name}")
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    if os.path.isdir(tmp_root):
        for entry in sorted(os.listdir(tmp_root)):
            leaks.append(f"temporary directory {entry}")
        shutil.rmtree(tmp_root, ignore_errors=True)
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # waits for the tracker process to exit
    return leaks


class Context:
    def __init__(self, seed: int, seconds: float, tmp_root: str):
        self.seed = seed
        self.seconds = seconds
        self.tmp_root = tmp_root


def timed_setups(workload, ctx, count: int):
    """Set the workload up ``count`` times; keep the last, close the rest.

    Each set-up time is rescaled to the reference host speed by the median
    of a few ``speed_probe()`` runs right after it.  The closed set-ups
    leave large reference cycles behind (telemetry rings, catalogs); they
    are collected here so that collecting the benchmark's own garbage does
    not land in the measured phase.
    """
    import bench_host

    times = []
    state = None
    for i in range(count):
        gc.collect()
        start = time.perf_counter()
        built = workload.setup(ctx)
        elapsed = time.perf_counter() - start
        probe = statistics.median(bench_host.speed_probe() for __ in range(SETUP_PROBES))
        times.append(elapsed * bench_host.PROBE_REFERENCE_S / probe)
        if i < count - 1:
            workload.teardown(built)
        else:
            state = built
    gc.collect()
    return statistics.median(times), times, state


def import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_program()

    import bench_host
    import bench_layers
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(bench_workloads.WORKLOADS)}"
        )
    OUT.mkdir(exist_ok=True)
    shm_before = list_shm()
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    ctx = Context(args.seed, args.seconds, tmp_root)
    workload = bench_workloads.WORKLOADS[args.workload](args.seed)
    all_cpus = None
    if workload.ONE_CPU and hasattr(os, "sched_getaffinity"):
        all_cpus = os.sched_getaffinity(0)
        set_cpus({min(all_cpus)})
    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _interrupt)
    report = None
    try:
        signal.alarm(HARD_TIMEOUT_S)
        try:
            if args.trace:
                report = bench_layers.traced_run(workload, ctx, OUT)
            else:
                report = end_to_end_run(workload, ctx, all_cpus)
        finally:
            signal.alarm(0)
    except (Interrupted, Exception) as exc:
        leaks = reap(shm_before, tmp_root)
        print(f"error: {args.workload} did not finish: {exc!r}", file=sys.stderr)
        for leak in leaks:
            print(f"error: left behind and removed: {leak}", file=sys.stderr)
        return 1
    leaks = reap(shm_before, tmp_root)
    report["leaks"] = leaks
    report["correct"] = report["correct"] and not leaks
    report["host"] = bench_host.fingerprint()
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["seconds"] = args.seconds
    report["trace"] = args.trace
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, default=str))
    print_report(report, path)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


def end_to_end_run(workload, ctx, all_cpus) -> dict:
    """Measure the end-to-end metrics; ``all_cpus`` is the process's
    affinity before a one-vCPU workload was pinned (else None)."""
    import numpy as np

    import bench_workloads as bw

    setup_s, setup_times, state = timed_setups(workload, ctx, SETUPS)
    extra: dict = {"setup_times_s": setup_times}
    try:
        if workload.name == "sql-predict":
            reads = bw.OpLog()
            wall = workload.run(state, ctx.seconds, reads)
            attempted, failed = reads.attempted, reads.failed
            rows_per_s = reads.rows / float(np.sum(reads.scaled()))
            extra["raw_rows_per_wall_s"] = reads.rows / wall
        elif workload.name == "ingest-spill":
            reads, inserts = bw.OpLog(), bw.OpLog()
            wall = workload.run(state, ctx.seconds, reads, inserts)
            count_ok = workload.count_matches(state)
            attempted = reads.attempted + inserts.attempted + 1
            failed = reads.failed + inserts.failed + (0 if count_ok else 1)
            rows_per_s = reads.rows / float(np.sum(reads.scaled()) + np.sum(inserts.scaled()))
            extra["raw_rows_per_wall_s"] = reads.rows / wall
            extra.update(
                insert_p50_ms=bw.quantile_ms(inserts.scaled(), 50),
                insert_p99_ms=bw.quantile_ms(inserts.scaled(), 99),
                raw_insert_p50_ms=bw.quantile_ms(inserts.latencies, 50),
                insert_samples=len(inserts.latencies),
                insert_p99_samples_beyond=bw.tail_beyond(len(inserts.latencies), 99),
                ingest_count_ok=count_ok,
                working_set_pages=state["working_set_pages"],
                pool_pages=state["pool_pages"],
            )
        else:
            gated_s = ctx.seconds * (1 - UNPINNED_SHARE) if all_cpus else ctx.seconds
            reads = workload.saturate(state, gated_s, salt=3)
            attempted, failed = reads.attempted, reads.failed
            rows_per_s = reads.rows / reads.scaled_window_seconds()
            extra["raw_rows_per_wall_s"] = reads.rows / sum(reads.window_seconds)
            if all_cpus:
                set_cpus(all_cpus)
                spread = workload.saturate(state, ctx.seconds - gated_s, salt=4)
                attempted += spread.attempted
                failed += spread.failed
                extra["unpinned"] = {
                    "cpus": len(all_cpus),
                    "seconds": ctx.seconds - gated_s,
                    "requests": len(spread.latencies),
                    "raw_predict_p50_ms": bw.quantile_ms(spread.latencies, 50),
                    "raw_predict_p90_ms": bw.quantile_ms(spread.latencies, 90),
                    "raw_rows_per_wall_s": spread.rows / sum(spread.window_seconds),
                }
    finally:
        workload.teardown(state)
    lat = reads.latencies
    extra["windows"] = len(reads.probes)
    extra["host_slowdown_median"] = reads.slowdown()
    metrics = {
        "setup_s": setup_s,
        "predict_p50_ms": reads.window_quantile_ms(50),
        "predict_p90_ms": reads.window_quantile_ms(90),
        "rows_scored_per_s": rows_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra["predict_p99_ms"] = bw.quantile_ms(reads.scaled(), 99)
    extra["predict_p99_samples_beyond"] = bw.tail_beyond(len(lat), 99)
    extra["raw_predict_p50_ms"] = bw.quantile_ms(lat, 50)
    extra["raw_predict_p90_ms"] = bw.quantile_ms(lat, 90)
    extra["raw_predict_p99_ms"] = bw.quantile_ms(lat, 99)
    samples = {
        "setup_s": SETUPS,
        "predict_p50_ms": len(lat),
        "predict_p90_ms": len(lat),
        "rows_scored_per_s": len(lat),
        "peak_rss_mb": 1,
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
        "samples": samples,
        "extra": extra,
    }


def print_report(report: dict, path: Path) -> None:
    host = report["host"]
    print(
        f"# {report['workload']} seed={report['seed']} seconds={report['seconds']} "
        f"trace={report['trace']}  host: {host['cores']} cores "
        f"({host['usable_cores']} usable), Python {host['python']}, numpy "
        f"{host['numpy']}, BLAS {host['blas'].get('name')}, calibration "
        f"matmul {host['calibration_matmul_ms']:.4f} ms"
    )
    samples = report.get("samples", {})
    for name, metric in report["metrics"].items():
        n = samples.get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}{count}")
    extra = report.get("extra", {})
    for key, value in extra.items():
        print(f"{key}: {value}")
    print(
        f"error_rate: {report['failed']} failed / {report['attempted']} attempted; "
        f"correct={report['correct']}"
    )
    for leak in report["leaks"]:
        print(f"leak (removed): {leak}")
    print(f"full report: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
