"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of ``repro`` at run time (class
attributes and one module global); nothing under ``src/`` is edited.  Each
span records its name, start, end, parent span and operation id; a span
opened on a thread with no open span starts a new operation.  Spans are
kept in memory and written out once, at the end of the run.  A process
forked while the wrappers are installed (a cluster worker) puts the
originals back at once, so only the benchmark process is traced.

Self time is a span's busy time minus the busy time of its children.
Functions are busy from call to return.  Generators (operator ``rows()``,
``HeapFile.scan``) are busy only while producing an item, so a consumer
and its producer never count the same interval twice; one span covers
the whole iteration and its busy time is the sum of those intervals.

Engine entry points are *opaque*: the relational and heap calls the
relation-centric engine makes internally fold into the engine's self time
instead of the SQL layers' (only device reads and writes are still
recorded beneath an engine), so a layer's metric means the same thing on
every workload.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: Upper bound on spans kept in memory; later spans are counted, not kept.
MAX_SPANS = 400_000

#: Tracers whose wrappers are installed.  A process forked meanwhile (a
#: cluster worker) puts the originals back before it runs anything else,
#: so only the benchmark process is traced.
_INSTALLED: list = []


def _restore_in_child() -> None:
    while _INSTALLED:
        _INSTALLED.pop().restore()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_restore_in_child)


class Span:
    __slots__ = (
        "span_id", "parent_id", "op_id", "name", "thread", "start", "end",
        "busy", "child", "parent", "items",
    )

    def __init__(self, span_id, parent, op_id, name, thread, start):
        self.span_id = span_id
        self.parent = parent
        self.parent_id = parent.span_id if parent is not None else 0
        self.op_id = op_id
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.items = 0

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Tracer:
    """Installs span wrappers, records spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.dropped = 0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
            self._local.opaque = 0
        return frames

    def _open(self, name: str) -> Span:
        frames = self._frames()
        parent = frames[-1] if frames else None
        op_id = parent.op_id if parent is not None else next(self._ops)
        span = Span(
            next(self._ids), parent, op_id, name,
            threading.get_ident(), time.perf_counter(),
        )
        with self._lock:
            if len(self.spans) < MAX_SPANS:
                self.spans.append(span)
            else:
                self.dropped += 1
        return span

    def _enter(self, span: Span) -> float:
        self._frames().append(span)
        return time.perf_counter()

    def _exit(self, span: Span, began: float) -> None:
        now = time.perf_counter()
        frames = self._local.frames
        frames.pop()
        elapsed = now - began
        span.busy += elapsed
        span.end = now
        if frames:
            frames[-1].child += elapsed

    def _skip(self, device: bool) -> bool:
        self._frames()
        return self._local.opaque > 0 and not device

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, owner, attr: str, name: str, *, opaque=False, device=False):
        """Record one span per call of ``owner.attr``."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._skip(device):
                return original(*args, **kwargs)
            span = tracer._open(name)
            began = tracer._enter(span)
            if opaque:
                tracer._local.opaque += 1
            try:
                return original(*args, **kwargs)
            finally:
                if opaque:
                    tracer._local.opaque -= 1
                tracer._exit(span, began)

        self._patch(owner, attr, original, traced)

    def wrap_iter(self, owner, attr: str, name: str):
        """Record one span per iteration of the generator ``owner.attr``."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._skip(False):
                return original(*args, **kwargs)
            return tracer._iterate(name, original(*args, **kwargs))

        self._patch(owner, attr, original, traced)

    def _iterate(self, name: str, iterator):
        span = None
        while True:
            if span is None:
                span = self._open(name)
            began = self._enter(span)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(span, began)
            span.items += 1
            yield item

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back (reverse order of wrapping)."""
        if self in _INSTALLED:
            _INSTALLED.remove(self)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write every kept span as JSON; returns the number written."""
        with self._lock:
            spans = list(self.spans)
            dropped = self.dropped
        records = [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "op": s.op_id,
                "name": s.name,
                "thread": s.thread,
                "start_us": round(s.start * 1e6, 3),
                "end_us": round(s.end * 1e6, 3),
                "busy_us": round(s.busy * 1e6, 3),
                "self_us": round(s.self_time * 1e6, 3),
                "items": s.items,
            }
            for s in spans
        ]
        with open(path, "w") as fh:
            json.dump({"dropped": dropped, "spans": records}, fh)
        return len(records)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.session
    from repro import Database
    from repro.cluster import ClusterPool
    from repro.engines.dl_centric import DlCentricEngine
    from repro.engines.hybrid import HybridExecutor
    from repro.engines.relation_centric import RelationCentricEngine
    from repro.engines.udf_centric import UdfCentricEngine
    from repro.relational.operators.filter import Filter
    from repro.relational.operators.map_rows import MapRows
    from repro.relational.schema import Schema
    from repro.server import ModelServer
    from repro.sql.planner import Planner
    from repro.storage.disk import FileDiskManager, InMemoryDiskManager
    from repro.storage.heap import HeapFile
    from repro.telemetry.workload import WorkloadStore

    _INSTALLED.append(tracer)
    call = tracer.wrap_call
    call(Database, "execute", "session.execute")
    # Database.execute resolves ``parse`` through its module global.
    call(repro.session, "parse", "sql.parse")
    call(Planner, "plan_select", "sql.plan")
    tracer.wrap_iter(Filter, "rows", "relational.filter")
    tracer.wrap_iter(MapRows, "rows", "relational.map_rows")
    call(Schema, "coerce_row", "relational.coerce")
    tracer.wrap_iter(HeapFile, "scan", "storage.scan")
    call(HeapFile, "insert", "storage.insert")
    for disk in (FileDiskManager, InMemoryDiskManager):
        call(disk, "read_page", "storage.disk_read", device=True)
        call(disk, "write_page", "storage.disk_write", device=True)
    call(Database, "inference_plan", "core.inference_plan")
    call(Database, "predict_labels", "session.predict_labels")
    # The planner's PREDICT calls the routing beneath predict_labels
    # through a method it binds when the Database is built; wrapping it
    # here (before any set-up) puts SQL routing under the same name.
    call(Database, "_predict_labels", "session.predict_labels")
    call(Database, "predict", "session.predict")
    call(HybridExecutor, "execute", "engines.execute")
    call(UdfCentricEngine, "run_layers", "engines.udf", opaque=True)
    call(RelationCentricEngine, "run_vector_stage", "engines.relation", opaque=True)
    call(RelationCentricEngine, "run_conv_stage", "engines.relation", opaque=True)
    call(DlCentricEngine, "run_on_array", "engines.dl", opaque=True)
    call(WorkloadStore, "record", "telemetry.workload_record")
    call(ModelServer, "submit", "server.submit")
    call(ClusterPool, "predict", "cluster.predict")
