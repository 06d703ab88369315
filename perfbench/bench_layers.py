"""The traced run: per-layer metrics from spans, counters and futures.

Per-layer times and counts are means per operation of the traced phase
(an operation is one SQL statement, or one served request), so they
compare across runs of different lengths; ``harness.ops_traced`` is their
base.  Failure counters (``server.rejected``, ``server.shed``,
``cluster.*``) are totals.  A layer a workload does not exercise reads 0;
on the cluster workload the engines run in the worker processes, which
are not traced, so ``cluster.predict_ms`` covers them.

Metrics named ``*_self_ms`` are self times; the other times are a span's
whole busy time, children included (``engines.execute_ms`` includes the
per-engine stages, ``storage.insert_ms`` and ``engines.relation_ms`` the
device writes and reads beneath them).

Accounting check (SQL loops only; absent on the served ones, where
requests overlap): ``Database.execute``'s own self time is the catch-all
for whatever no narrower wrapper claims (locks, statistics snapshots,
``QueryStats``).  The self times of every other layer must cover the
harness-timed statements to within ACCOUNTING_TOLERANCE, so the catch-all
stays below that share; otherwise the run is not correct.  The report
lists each layer's self time.

Which end-to-end metric each layer metric should move:

* ``sql.parse_ms``, ``sql.plan_ms``, ``relational.*``, ``storage.scan_self_ms``,
  ``storage.rows_decoded``, ``session.execute_self_ms``,
  ``telemetry.workload_record_ms`` -> ``predict_p50_ms`` on sql-predict
  (parse also the INSERT latency on ingest-spill; ~0 on serve-closed).
* ``storage.insert_ms``, ``relational.coerce_ms`` -> INSERT latency on ingest-spill.
* ``storage.pool_*``, ``storage.disk_*`` -> ``predict_p90_ms`` (and the
  reported p99s) on ingest-spill; hit ratio 1.0 and no disk reads on sql-predict.
* ``core.inference_plan_ms``, ``session.predict_route_self_ms``,
  ``engines.udf_ms`` -> ``predict_p50_ms`` on serve-closed.
* ``engines.relation_ms``, ``engines.relation_stage_runs``,
  ``engines.peak_bytes`` -> ``predict_p50_ms`` / ``peak_rss_mb`` on
  ingest-spill.
* ``server.*`` -> ``predict_p90_ms`` and ``rows_scored_per_s`` on
  serve-closed; ``cluster.*`` -> the same on cluster-closed.
"""

from __future__ import annotations

import collections
import gc

import numpy as np

import bench_trace
from bench_workloads import OpLog, quantile_ms

#: Largest share of the harness-timed statement time that the layers'
#: self times may leave to the catch-all.
ACCOUNTING_TOLERANCE = 0.05
#: The span whose self time no narrower layer claims.
CATCH_ALL = "session.execute"

PER_LAYER = {
    "sql.parse_ms": "ms",
    "sql.plan_ms": "ms",
    "relational.filter_self_ms": "ms",
    "relational.map_rows_self_ms": "ms",
    "relational.coerce_ms": "ms",
    "storage.scan_self_ms": "ms",
    "storage.rows_decoded": "count",
    "storage.insert_ms": "ms",
    "storage.pool_hit_ratio": "ratio",
    "storage.pool_accesses": "count",
    "storage.pool_evictions": "count",
    "storage.disk_reads": "count",
    "storage.disk_writes": "count",
    "storage.disk_read_ms": "ms",
    "storage.disk_write_ms": "ms",
    "core.inference_plan_ms": "ms",
    "engines.execute_ms": "ms",
    "engines.udf_ms": "ms",
    "engines.relation_ms": "ms",
    "engines.dl_ms": "ms",
    "engines.udf_stage_runs": "count",
    "engines.relation_stage_runs": "count",
    "engines.peak_bytes": "bytes",
    "session.predict_route_self_ms": "ms",
    "session.execute_self_ms": "ms",
    "telemetry.workload_record_ms": "ms",
    "server.submit_ms": "ms",
    "server.queue_wait_p50_ms": "ms",
    "server.queue_wait_p99_ms": "ms",
    "server.batch_execute_ms": "ms",
    "server.mean_batch_rows": "rows",
    "server.rejected": "count",
    "server.shed": "count",
    "cluster.predict_ms": "ms",
    "cluster.shm_fallbacks": "count",
    "cluster.reroutes": "count",
    "harness.trace_overhead_ratio": "ratio",
    "harness.ops_traced": "count",
    "harness.engine_share": "ratio",
}


def _stat_rows(rows) -> dict:
    return {name: value for name, value in rows}


class Phase:
    """What one workload phase produced, for either run."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.durations: list[float] = []  # SQL loops: harness-timed statements
        self.latencies: list[float] = []
        self.reads = None  # closed and served loops: the predict operations' OpLog
        self.queue_seconds: list[float] = []  # served requests
        self.execute_seconds: list[float] = []
        self.peak_bytes = 0

    def p50_ms(self) -> float:
        """``predict_p50_ms`` as the end-to-end run computes it."""
        return self.reads.window_quantile_ms(50)

    def on_cursor(self, cursor) -> None:
        stats = cursor.stats
        if stats is not None:
            for audit in stats.stage_audits:
                self.peak_bytes = max(self.peak_bytes, audit.actual_peak_bytes)


def run_phase(workload, state, seconds: float, salt: int) -> Phase:
    phase = Phase()
    if workload.kind == "served":
        log = workload.saturate(state, seconds, salt=salt)
        phase.ops, phase.failed = log.attempted, log.failed
        phase.latencies, phase.reads = log.latencies, log
        phase.queue_seconds, phase.execute_seconds = log.queue_seconds, log.execute_seconds
        return phase
    if workload.name == "ingest-spill":
        reads, inserts = OpLog(), OpLog()
        workload.run(state, seconds, reads, inserts, on_cursor=phase.on_cursor)
        logs = (reads, inserts)
    else:
        reads = OpLog()
        workload.run(state, seconds, reads, on_cursor=phase.on_cursor)
        logs = (reads,)
    phase.ops = sum(log.attempted for log in logs)
    phase.failed = sum(log.failed for log in logs)
    phase.durations = [d for log in logs for d in log.durations]
    phase.latencies = reads.latencies
    phase.reads = reads
    return phase


def traced_run(workload, ctx, out_dir) -> dict:
    half = ctx.seconds / 2
    state = workload.setup(ctx)
    gc.collect()
    try:
        plain = run_phase(workload, state, half, salt=11)
    finally:
        workload.teardown(state)

    tracer = bench_trace.Tracer()
    bench_trace.install(tracer)
    try:
        gc.collect()
        state = workload.setup(ctx)
        gc.collect()
        try:
            db = state["db"]
            server = state.get("server")
            pool_before = _pool_counts(db)
            server_before = _stat_rows(server.stats_rows()) if server else {}
            cluster = server.cluster if server is not None else None
            cluster_before = _stat_rows(cluster.stats_rows()) if cluster else {}
            audit = db.telemetry.audit
            audit_marker = audit.marker()
            with tracer._lock:
                tracer.spans.clear()
                tracer.dropped = 0
            traced = run_phase(workload, state, half, salt=12)
            tracer.restore()  # the statistics queries below are not traced
            pool_after = _pool_counts(db)
            server_after = _stat_rows(server.stats_rows()) if server else {}
            cluster_after = _stat_rows(cluster.stats_rows()) if cluster else {}
            if workload.kind != "closed":
                traced.peak_bytes = max(
                    (a.actual_peak_bytes for a in audit.records_since(audit_marker)),
                    default=0,
                )
        finally:
            workload.teardown(state)
    finally:
        tracer.restore()

    spans_path = out_dir / f"spans-{workload.name}-seed{ctx.seed}.json"
    tracer.write(str(spans_path))
    metrics, checks = layer_metrics(
        workload, tracer, plain, traced,
        pool_before, pool_after, server_before, server_after,
        cluster_before, cluster_after,
    )
    failed = plain.failed + traced.failed
    attempted = plain.ops + traced.ops
    correct = failed == 0 and checks["accounting_ok"]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()
        },
        "samples": {"harness.ops_traced": traced.ops},
        "extra": dict(checks, spans_file=str(spans_path.name), spans_dropped=tracer.dropped),
    }


def _pool_counts(db) -> tuple[int, int, int]:
    stats = db.buffer_pool.stats
    return stats.hits, stats.misses, stats.evictions


def layer_metrics(workload, tracer, plain, traced, pool_before, pool_after,
                  server_before, server_after, cluster_before, cluster_after):
    busy = collections.Counter()
    self_time = collections.Counter()
    calls = collections.Counter()
    items = collections.Counter()
    negative = 0
    for span in tracer.spans:
        busy[span.name] += span.busy
        self_time[span.name] += span.self_time
        calls[span.name] += 1
        items[span.name] += span.items
        if span.self_time < -1e-6:
            negative += 1
    ops = max(traced.ops, 1)

    def per_op_ms(total_seconds: float) -> float:
        return total_seconds * 1e3 / ops

    hits = pool_after[0] - pool_before[0]
    misses = pool_after[1] - pool_before[1]
    accesses = hits + misses
    queue, execute = traced.queue_seconds, traced.execute_seconds

    def delta(before, after, key):
        return float(after.get(key, 0)) - float(before.get(key, 0))

    batches = delta(server_before, server_after, "server.model.fraud.batches")
    batch_rows = delta(server_before, server_after, "server.model.fraud.rows_dispatched")

    plain_p50 = plain.p50_ms()
    traced_p50 = traced.p50_ms()
    accounting = {}
    if traced.durations:
        measured = sum(traced.durations)
        attributed = sum(t for name, t in self_time.items() if name != CATCH_ALL)
        accounting = {
            "statement_ms_per_op": per_op_ms(measured),
            "attributed_ms_per_op": per_op_ms(attributed),
            "catch_all_self_share": self_time[CATCH_ALL] / measured,
            "unattributed_share": 1.0 - attributed / measured,
        }
        engine_share = busy["engines.execute"] / measured
    else:
        # Served requests overlap, so their spans cover no single interval.
        waited = sum(traced.latencies)
        engine_share = busy["engines.execute"] / waited if waited else 0.0
    metrics = {
        "sql.parse_ms": per_op_ms(busy["sql.parse"]),
        "sql.plan_ms": per_op_ms(busy["sql.plan"]),
        "relational.filter_self_ms": per_op_ms(self_time["relational.filter"]),
        "relational.map_rows_self_ms": per_op_ms(self_time["relational.map_rows"]),
        "relational.coerce_ms": per_op_ms(busy["relational.coerce"]),
        "storage.scan_self_ms": per_op_ms(self_time["storage.scan"]),
        "storage.rows_decoded": items["storage.scan"] / ops,
        "storage.insert_ms": per_op_ms(busy["storage.insert"]),
        "storage.pool_hit_ratio": hits / accesses if accesses else 1.0,
        "storage.pool_accesses": accesses / ops,
        "storage.pool_evictions": (pool_after[2] - pool_before[2]) / ops,
        "storage.disk_reads": calls["storage.disk_read"] / ops,
        "storage.disk_writes": calls["storage.disk_write"] / ops,
        "storage.disk_read_ms": per_op_ms(busy["storage.disk_read"]),
        "storage.disk_write_ms": per_op_ms(busy["storage.disk_write"]),
        "core.inference_plan_ms": per_op_ms(busy["core.inference_plan"]),
        "engines.execute_ms": per_op_ms(busy["engines.execute"]),
        "engines.udf_ms": per_op_ms(busy["engines.udf"]),
        "engines.relation_ms": per_op_ms(busy["engines.relation"]),
        "engines.dl_ms": per_op_ms(busy["engines.dl"]),
        "engines.udf_stage_runs": calls["engines.udf"] / ops,
        "engines.relation_stage_runs": calls["engines.relation"] / ops,
        "engines.peak_bytes": traced.peak_bytes,
        "session.predict_route_self_ms": per_op_ms(
            self_time["session.predict_labels"] + self_time["session.predict"]
        ),
        "session.execute_self_ms": per_op_ms(self_time["session.execute"]),
        "telemetry.workload_record_ms": per_op_ms(busy["telemetry.workload_record"]),
        "server.submit_ms": per_op_ms(busy["server.submit"]),
        "server.queue_wait_p50_ms": quantile_ms(queue, 50) if queue else 0.0,
        "server.queue_wait_p99_ms": quantile_ms(queue, 99) if queue else 0.0,
        "server.batch_execute_ms": float(np.mean(execute)) * 1e3 if execute else 0.0,
        "server.mean_batch_rows": batch_rows / batches if batches else 0.0,
        "server.rejected": delta(server_before, server_after, "server.requests.rejected"),
        "server.shed": delta(server_before, server_after, "server.requests.shed")
        + delta(server_before, server_after, "server.requests.expired"),
        "cluster.predict_ms": per_op_ms(busy["cluster.predict"]),
        "cluster.shm_fallbacks": delta(cluster_before, cluster_after, "cluster.shm_fallbacks"),
        "cluster.reroutes": delta(cluster_before, cluster_after, "cluster.reroutes"),
        "harness.trace_overhead_ratio": traced_p50 / plain_p50 if plain_p50 else 0.0,
        "harness.ops_traced": traced.ops,
        "harness.engine_share": engine_share,
    }
    accounting_ok = negative == 0 and (
        not accounting
        or abs(accounting["unattributed_share"]) <= ACCOUNTING_TOLERANCE
    )
    checks = {
        "accounting_ok": accounting_ok,
        "negative_self_spans": negative,
        **({"accounting": accounting} if accounting else {}),
        "untraced_predict_p50_ms": plain_p50,
        "traced_predict_p50_ms": traced_p50,
        "self_time_by_layer_ms_per_op": {
            name: self_time[name] * 1e3 / ops for name in sorted(self_time)
        },
    }
    return metrics, checks
