"""The benchmark workloads, driven through repro's public API.

Every input is generated from the run's seed; the program sees only the
generated rows, SQL texts and feature batches.  Every answer is checked
against reference labels computed once at set-up with
``Database.predict_labels`` on the same feature rows.

* ``sql-predict``  closed loop, 1 client: ``SELECT id, PREDICT(fraud, ...)
  FROM tx WHERE f1 > ?`` over 256 in-memory rows that fit the buffer pool.
  The literal comes from a seeded set of 16 values, the quantiles of
  ``f1`` that select 1/32, 3/32, ..., 31/32 of the rows (so every seed
  costs the same and the tail percentiles fall inside one selectivity
  class, not between two), so query texts repeat
  the way dashboard traffic does.  Parse, plan, heap scan/decode, the
  row-to-feature gather and materialisation dominate it; it never touches
  the server, the cluster or a disk.
* ``serve-closed`` 1-8 row requests through ``ModelServer.submit`` (thread
  mode, default micro-batching, one vCPU) from one thread that keeps 4
  outstanding.  Admission, batching, predict routing and the UDF-centric
  engine do the work; SQL and storage do none.
* ``ingest-spill`` closed loop, 1 client, file-backed database in a
  temporary directory.  A buffer pool of 5 pages of 4 KiB is at most a
  quarter of the read table plus the relation-centric weight blocks
  (checked at set-up).  Each iteration runs one 16-row SQL ``INSERT`` and
  one PREDICT over a separate 128-row table; the optimizer threshold is
  lowered so fraud-FC runs a relation-centric stage (checked on every
  read).
* ``cluster-closed`` the ``serve-closed`` loop against ``cluster_workers=2``
  with ``memory_threshold_bytes=1`` (relation-centric, GIL-bound), 4-16
  row requests, 2 outstanding.  The only workload that crosses the
  process boundary.

Load comes from this process only, from one thread.  Open-loop forms of
the two serving workloads (seeded Poisson arrivals, a ladder of rates,
``max_rate_rps``) are not part of this benchmark: on a 2-vCPU virtual
machine their latencies spread from run to run by more than the widest
allowed bound.
"""

from __future__ import annotations

import collections
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Database, ReproError
from repro.data import fraud_transactions
from repro.models import fraud_fc_256

from bench_host import PROBE_REFERENCE_S, speed_probe

FEATURES = [f"f{i}" for i in range(28)]
FEATURE_LIST = ", ".join(FEATURES)
TABLE_COLUMNS = "id INT, " + ", ".join(f"{f} DOUBLE" for f in FEATURES) + ", label INT"
MODEL = "fraud"

#: The 2-vCPU hosts this benchmark runs on have phases lasting seconds to
#: minutes in which every instruction takes up to twice as long (CPU time
#: doubles too; little steal time is reported), so a raw whole-run median
#: mostly measures how much of the run fell into such a phase.  Every
#: closed-loop latency is therefore rescaled to a reference host speed by
#: the ``speed_probe()`` CPU times taken in its window of WINDOW_S seconds:
#: after every statement in the SQL loops, and SERVED_PROBES times between
#: windows, while the server is idle, in the served loops.
WINDOW_S = 1.0
SERVED_PROBES = 25
MIN_WINDOW_SAMPLES = 10


class SetupError(RuntimeError):
    """The workload's own preconditions do not hold (a benchmark bug)."""


def quantile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q) * 1e3)


def tail_beyond(n: int, q: float) -> int:
    """Samples strictly beyond the q-th percentile of n samples."""
    return n - int(np.ceil(n * q / 100.0))


@dataclass
class OpLog:
    """Outcomes of one measured phase of a closed loop.

    Each success belongs to a window of the phase; the ``speed_probe()``
    times taken in that window say how fast the host was in it.
    """

    latencies: list = field(default_factory=list)  # seconds, successes only
    windows: list = field(default_factory=list)  # window index, successes only
    probes: dict = field(default_factory=lambda: collections.defaultdict(list))
    window_seconds: list = field(default_factory=list)  # served loops: wall time
    queue_seconds: list = field(default_factory=list)  # served requests only
    execute_seconds: list = field(default_factory=list)  # served requests only
    durations: list = field(default_factory=list)  # seconds, every operation
    attempted: int = 0
    failed: int = 0
    rows: int = 0

    def record(self, window: int, seconds: float, ok: bool, rows: int = 0) -> None:
        self.attempted += 1
        self.durations.append(seconds)
        if ok:
            self.latencies.append(seconds)
            self.windows.append(window)
            self.rows += rows
        else:
            self.failed += 1

    def probe(self, window: int, count: int = 1) -> None:
        self.probes[window].extend(speed_probe() for __ in range(count))

    def _factor(self) -> dict:
        """Per window: PROBE_REFERENCE_S over its median probe time."""
        return {w: PROBE_REFERENCE_S / np.median(p) for w, p in self.probes.items()}

    def scaled(self) -> np.ndarray:
        """Latencies at the reference host speed."""
        factor = self._factor()
        return np.asarray(self.latencies) * np.array([factor[w] for w in self.windows])

    def window_quantile_ms(self, q: float) -> float:
        """Median over the windows of each window's q-th percentile latency,
        at the reference host speed.

        Within a run the serving path and the host switch between modes
        (batching windows, slow phases) for seconds at a time; a percentile
        of the whole run moves with the share of windows each mode got,
        while the median window does not.  Windows with fewer than
        MIN_WINDOW_SAMPLES successes (the last, cut-short one) are left out
        unless no window has that many.
        """
        factor = self._factor()
        latencies, windows = np.asarray(self.latencies), np.asarray(self.windows)
        per_window = [
            (w, latencies[windows == w]) for w in np.unique(windows)
        ]
        full = [(w, v) for w, v in per_window if len(v) >= MIN_WINDOW_SAMPLES]
        return float(np.median([
            np.percentile(v, q) * factor[w] for w, v in (full or per_window)
        ]) * 1e3)

    def scaled_window_seconds(self) -> float:
        """Served loops: the phase's wall time at the reference host speed."""
        factor = self._factor()
        return float(sum(s * factor[w] for w, s in enumerate(self.window_seconds)))

    def slowdown(self) -> float:
        """Median over the windows of the host's slowdown."""
        return float(np.median([np.median(p) for p in self.probes.values()])
                     / PROBE_REFERENCE_S)


# -- closed-loop SQL workloads -------------------------------------------------


class SqlPredict:
    name = "sql-predict"
    kind = "closed"
    ONE_CPU = False
    ROWS = 256
    LITERALS = 16

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.features, __, self.rows = fraud_transactions(self.ROWS, seed=seed)
        f1 = self.features[:, 1]
        selectivity = (np.arange(self.LITERALS) + 0.5) / self.LITERALS
        literals = [f"{v:.4f}" for v in np.quantile(f1, 1.0 - selectivity)]
        self.texts = [
            f"SELECT id, PREDICT({MODEL}, {FEATURE_LIST}) FROM tx WHERE f1 > {lit}"
            for lit in literals
        ]
        self.expected_ids = [np.flatnonzero(f1 > float(lit)) for lit in literals]
        self.sequence = rng.integers(0, self.LITERALS, size=1 << 16)

    def setup(self, ctx):
        db = Database()
        try:
            db.execute(f"CREATE TABLE tx ({TABLE_COLUMNS})")
            db.load_rows("tx", self.rows)
            db.register_model(fraud_fc_256(), name=MODEL)
            state = {"db": db, "ref": db.predict_labels(MODEL, self.features)}
            for k in range(self.LITERALS):
                if not self._check(state, k, db.execute(self.texts[k])):
                    raise SetupError(f"wrong answer for {self.texts[k]!r} at set-up")
            return state
        except BaseException:
            db.close()
            raise

    def teardown(self, state) -> None:
        state["db"].close()

    def _check(self, state, k: int, cursor) -> bool:
        ids = np.fromiter((row[0] for row in cursor.rows), dtype=np.int64)
        labels = np.fromiter((row[1] for row in cursor.rows), dtype=np.int64)
        expected = self.expected_ids[k]
        return np.array_equal(ids, expected) and np.array_equal(
            labels, state["ref"][expected]
        )

    def run(self, state, seconds: float, log: OpLog, on_cursor=None) -> float:
        db = state["db"]
        texts, sequence = self.texts, self.sequence
        i = 0
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            k = int(sequence[i % len(sequence)])
            i += 1
            t0 = time.perf_counter()
            window = int((t0 - start) // WINDOW_S)
            try:
                cursor = db.execute(texts[k])
            except ReproError:
                log.record(window, time.perf_counter() - t0, False)
                continue
            elapsed = time.perf_counter() - t0
            log.record(window, elapsed, self._check(state, k, cursor), len(cursor.rows))
            log.probe(window)
            if on_cursor is not None:
                on_cursor(cursor)
        return time.perf_counter() - start


class IngestSpill:
    name = "ingest-spill"
    kind = "closed"
    ONE_CPU = False
    READ_ROWS = 128
    INSERT_ROWS = 16
    INSERT_POOL = 4096
    PAGE_SIZE = 4096
    POOL_PAGES = 5
    THRESHOLD_BYTES = 64 * 1024
    SPILL_FACTOR = 4

    def __init__(self, seed: int):
        self.features, __, self.rows = fraud_transactions(self.READ_ROWS, seed=seed)
        __, __, self.insert_rows = fraud_transactions(self.INSERT_POOL, seed=seed + 1)
        self.read_sql = f"SELECT id, PREDICT({MODEL}, {FEATURE_LIST}) FROM tx"

    def _insert_sql(self, state) -> tuple[str, int]:
        first = state["inserted"]
        lo = first % (self.INSERT_POOL - self.INSERT_ROWS)
        values = ", ".join(
            "(" + ", ".join(repr(v) for v in (first + j, *row[1:])) + ")"
            for j, row in enumerate(self.insert_rows[lo:lo + self.INSERT_ROWS])
        )
        return f"INSERT INTO ingest VALUES {values}", self.INSERT_ROWS

    def setup(self, ctx):
        tmp = tempfile.mkdtemp(prefix="ingest-", dir=ctx.tmp_root)
        db = None
        try:
            db = Database(
                path=f"{tmp}/db",
                page_size=self.PAGE_SIZE,
                buffer_pool_bytes=self.POOL_PAGES * self.PAGE_SIZE,
                memory_threshold_bytes=self.THRESHOLD_BYTES,
            )
            db.execute(f"CREATE TABLE tx ({TABLE_COLUMNS})")
            db.execute(f"CREATE TABLE ingest ({TABLE_COLUMNS})")
            db.load_rows("tx", self.rows)
            db.register_model(fraud_fc_256(), name=MODEL)
            state = {
                "db": db, "tmp": tmp, "inserted": 0,
                "ref": db.predict_labels(MODEL, self.features),
            }
            if not self._check_read(state, db.execute(self.read_sql)):
                raise SetupError("wrong answer for the read PREDICT at set-up")
            pool = db.buffer_pool
            # Every page but the (still empty) ingest table's first one
            # belongs to the read table or the relation-centric blocks.
            working_set = pool.disk.num_pages - 1
            if working_set < self.SPILL_FACTOR * pool.capacity:
                raise SetupError(
                    f"read table + weight blocks span {working_set} pages, "
                    f"less than {self.SPILL_FACTOR}x the {pool.capacity}-page pool"
                )
            state["working_set_pages"] = working_set
            state["pool_pages"] = pool.capacity
            sql, n = self._insert_sql(state)
            db.execute(sql)
            state["inserted"] += n
            return state
        except BaseException:
            if db is not None:
                db.close()
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    def teardown(self, state) -> None:
        try:
            state["db"].close()
        finally:
            shutil.rmtree(state["tmp"], ignore_errors=True)

    def _check_read(self, state, cursor) -> bool:
        stats = cursor.stats
        if stats is not None and "relation-centric" not in stats.representations:
            return False
        ids = np.fromiter((row[0] for row in cursor.rows), dtype=np.int64)
        labels = np.fromiter((row[1] for row in cursor.rows), dtype=np.int64)
        return np.array_equal(ids, np.arange(self.READ_ROWS)) and np.array_equal(
            labels, state["ref"]
        )

    def run(self, state, seconds, reads: OpLog, inserts: OpLog, on_cursor=None) -> float:
        db = state["db"]
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            sql, n = self._insert_sql(state)
            t0 = time.perf_counter()
            window = int((t0 - start) // WINDOW_S)
            try:
                db.execute(sql)
                ok = True
            except ReproError:
                ok = False
            inserts.record(window, time.perf_counter() - t0, ok, n)
            inserts.probe(window)
            if ok:
                state["inserted"] += n
            t0 = time.perf_counter()
            try:
                cursor = db.execute(self.read_sql)
            except ReproError:
                reads.record(window, time.perf_counter() - t0, False)
                continue
            elapsed = time.perf_counter() - t0
            reads.record(window, elapsed, self._check_read(state, cursor), len(cursor.rows))
            reads.probe(window)
            if on_cursor is not None:
                on_cursor(cursor)
        return time.perf_counter() - start

    def count_matches(self, state) -> bool:
        """The ingest table holds exactly the rows acknowledged so far."""
        rows = state["db"].execute("SELECT COUNT(*) FROM ingest").rows
        return rows == [(state["inserted"],)]


# -- served workloads ----------------------------------------------------------


class Served:
    """Requests through ``Database.serve``, driven as a closed loop.

    One thread keeps CLOSED_DEPTH requests outstanding: batching still
    coalesces them, but the load never outruns the server, so latencies
    follow the serving path rather than a queue that a slow phase of the
    host built up.
    """

    kind = "served"
    #: Requests kept outstanding.  Enough for batches to coalesce; few
    #: enough that the young-generation collections (10-15 ms each, about
    #: one per 1600 requests) delay well under 1 % of requests.
    CLOSED_DEPTH = 4
    POOL_ROWS = 4096
    REQUEST_TIMEOUT_S = 30.0
    WARM_REQUESTS = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.features, __, __ = fraud_transactions(self.POOL_ROWS, seed=seed)

    def _database(self) -> Database:
        raise NotImplementedError

    def setup(self, ctx):
        db = self._database()
        try:
            db.register_model(fraud_fc_256(), name=MODEL)
            state = {"db": db, "ref": db.predict_labels(MODEL, self.features)}
            state["server"] = db.serve(cluster_workers=self.CLUSTER_WORKERS)
            self.warm_up(state)
            return state
        except BaseException:
            db.close(drain_timeout_s=5.0)
            raise

    def teardown(self, state) -> None:
        state["db"].close(drain_timeout_s=5.0)

    def warm_up(self, state) -> None:
        """Burst WARM_REQUESTS requests (below the queue capacity) and check
        them, so lazy loading and the admission estimator are settled."""
        server, ref = state["server"], state["ref"]
        step = self.MAX_ROWS
        futures = [
            (lo, server.submit(MODEL, self.features[lo:lo + step]))
            for lo in range(0, self.WARM_REQUESTS * step, step)
        ]
        for lo, future in futures:
            labels = future.result(timeout=self.REQUEST_TIMEOUT_S)
            if not np.array_equal(labels, ref[lo:lo + step]):
                raise SetupError("wrong answer for a warm-up request")

    def saturate(self, state, seconds: float, salt: int) -> OpLog:
        """Keep CLOSED_DEPTH requests outstanding for ``seconds``, from the
        calling thread alone, and check every answer.

        The loop runs in windows of WINDOW_S seconds.  At the end of each
        it lets the outstanding requests finish and times ``speed_probe()``
        while the server is idle, so the window can be rescaled to the
        reference host speed.
        """
        server, ref, features = state["server"], state["ref"], self.features
        depth = self.CLOSED_DEPTH
        rng = np.random.default_rng([self.seed, 9, salt])
        log = OpLog()
        outstanding = collections.deque()
        end = time.perf_counter() + seconds
        window, window_start = 0, time.perf_counter()
        while True:
            now = time.perf_counter()
            sending = now < end and now < window_start + WINDOW_S
            while sending and len(outstanding) < depth:
                lo = int(rng.integers(0, self.POOL_ROWS - self.MAX_ROWS))
                n = int(rng.integers(self.MIN_ROWS, self.MAX_ROWS + 1))
                sent_at = time.perf_counter()
                try:
                    future = server.submit(MODEL, features[lo:lo + n])
                except ReproError:
                    log.record(window, time.perf_counter() - sent_at, False)
                    break
                outstanding.append((sent_at, lo, n, future))
            if not outstanding:
                log.window_seconds.append(now - window_start)
                log.probe(window, SERVED_PROBES)
                if now >= end:
                    return log
                window, window_start = window + 1, time.perf_counter()
                continue
            sent_at, lo, n, future = outstanding.popleft()
            try:
                labels = future.result(timeout=self.REQUEST_TIMEOUT_S)
                ok = np.array_equal(labels, ref[lo:lo + n])
            except (ReproError, TimeoutError):
                ok = False
            log.record(window, time.perf_counter() - sent_at, ok, n)
            if ok:
                log.queue_seconds.append(future.queue_seconds)
                log.execute_seconds.append(future.execute_seconds)


class ServeClosed(Served):
    name = "serve-closed"
    # The server runs on one vCPU: on a 2-vCPU virtual machine, threads
    # that hand the GIL to each other across the two vCPUs run up to 3x
    # slower whenever the host is busy, so throughput measured the host.
    # Every result also records a phase on all vCPUs (UNPINNED_SHARE in
    # run.py), ungated.
    ONE_CPU = True
    MIN_ROWS, MAX_ROWS = 1, 8
    CLUSTER_WORKERS = 0

    def _database(self) -> Database:
        return Database()


class ClusterClosed(Served):
    """The same loop against a 2-process cluster pool, on a
    relation-centric (GIL-bound) plan."""

    name = "cluster-closed"
    ONE_CPU = False  # the worker processes need both vCPUs
    MIN_ROWS, MAX_ROWS = 4, 16
    CLUSTER_WORKERS = 2
    # Two worker processes and this one share two vCPUs: with more requests
    # outstanding all three compete for them, and the tail follows the
    # host's scheduling rather than the pool.
    CLOSED_DEPTH = 2

    def _database(self) -> Database:
        return Database(memory_threshold_bytes=1)


WORKLOADS = {
    w.name: w
    for w in (SqlPredict, ServeClosed, IngestSpill, ClusterClosed)
}
