"""Spans around calls into each layer's public functions, for the traced run.

The program is not changed: :func:`install` wraps each layer's public
functions in place, in whichever process calls it.  The benchmark's
own process calls it directly; every process a workload starts (the
fleet's gateway and router, its replica, the batch job) calls it from ``sitecustomize`` when
the traced run puts ``perfbench/tracehook`` on ``PYTHONPATH``.

A span is ``(name, start, end, span id, parent id, request id)`` plus a few
counts.  Spans stay in memory and are written to ``$PERFBENCH_TRACE_DIR``
as one JSON-lines file per process when it ends.  :func:`layer_metrics`
turns the spans of a run into the per-layer metrics: self time is a span's
duration minus the time its child spans cover.  Every clock is
``CLOCK_MONOTONIC`` (``time.perf_counter`` on Linux), so spans from
different processes share one time line.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Span:
    __slots__ = ("name", "start", "end", "span_id", "parent", "request", "attrs")

    def __init__(self, name, start, span_id, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.span_id = span_id
        self.parent = parent
        self.request = request
        self.attrs = {}


class Tracer:
    """Per-process span store (appends are atomic under the GIL)."""

    def __init__(self, role: str = "server"):
        self.role = role
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)

    def reset(self, role: str | None = None) -> None:
        self.spans = []
        if role is not None:
            self.role = role

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = self.current.get()
        span_id = next(self._ids)
        span = Span(name, time.perf_counter(), span_id,
                    parent.span_id if parent else 0,
                    parent.request if parent else span_id)
        return span, self.current.set(span)

    def close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self.current.reset(token)
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        span = Span(name, start, next(self._ids), 0, 0)
        span.end = end
        span.attrs.update(attrs)
        self.spans.append(span)

    def count(self, key: str) -> None:
        """Add one to a count on the innermost open span."""
        span = self.current.get()
        if span is not None:
            span.attrs[key] = span.attrs.get(key, 0) + 1

    def rows(self) -> list[dict]:
        pid = os.getpid()
        return [{"pid": pid, "role": self.role, "name": s.name, "start": s.start,
                 "end": s.end, "id": s.span_id, "parent": s.parent,
                 "request": s.request, "attrs": s.attrs} for s in self.spans]

    def dump(self, directory: str | Path) -> None:
        path = Path(directory) / f"spans-{os.getpid()}.jsonl"
        with path.open("w") as handle:
            for row in self.rows():
                handle.write(json.dumps(row) + "\n")


TRACER = Tracer()


# --------------------------------------------------------------------------- #
# wrappers
# --------------------------------------------------------------------------- #
def _wrap_sync(owner, attr: str, name: str, after=None, when=None) -> None:
    raw = owner.__dict__[attr]
    binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    original = raw.__func__ if binder else raw

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if when is not None and not when(args, kwargs):
            return original(*args, **kwargs)
        span, token = TRACER.open(name)
        try:
            result = original(*args, **kwargs)
            if after is not None:
                after(span.attrs, args, kwargs, result)
            return result
        finally:
            TRACER.close(span, token)

    setattr(owner, attr, binder(wrapper) if binder else wrapper)


def _wrap_counter(owner, attr: str, key: str, outcome=None) -> None:
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        TRACER.count(key if outcome is None else f"{key}_{outcome(result)}")
        return result

    setattr(owner, attr, wrapper)


class _ActiveTime:
    """Drive a coroutine and record only the time spent running its steps.

    Waiting for the peer (an idle keep-alive connection, a socket drain) is
    left out, so the span measures the layer's own work.
    """

    def __init__(self, name: str, coro, keep):
        self.name, self.coro, self.keep = name, coro, keep

    def __await__(self):
        value, error, active, first = None, None, 0.0, time.perf_counter()
        while True:
            step = time.perf_counter()
            try:
                yielded = (self.coro.throw(error) if error is not None
                           else self.coro.send(value))
            except StopIteration as stop:
                end = time.perf_counter()
                if self.keep(stop.value):
                    TRACER.record(self.name, first, end, active=active + end - step)
                return stop.value
            active += time.perf_counter() - step
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


def _wrap_async_active(owner, attr: str, name: str, keep=lambda result: True) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        return await _ActiveTime(name, original(*args, **kwargs), keep)

    setattr(owner, attr, wrapper)


def _wrap_queue_take(queue_cls) -> None:
    original = queue_cls.take

    @functools.wraps(original)
    async def take(self, *args, **kwargs):
        batch = await original(self, *args, **kwargs)
        now = time.monotonic()
        for pending in batch:
            TRACER.record("gateway.queue_wait", pending.enqueued_at, now)
        return batch

    queue_cls.take = take


# --------------------------------------------------------------------------- #
# the hooks: one per layer boundary named in the README
# --------------------------------------------------------------------------- #
def _tables(attrs, args, kwargs, result):
    attrs["tables"] = len(result)


def _link_counts(attrs, args, kwargs, result):
    attrs["mentions"] = len(result)
    attrs["linked"] = sum(1 for links in result if links)


def _predict_counts(attrs, args, kwargs, result):
    stats = args[0].last_bucket_stats or {}
    attrs["tables"] = len(result)
    attrs["batches"] = int(stats.get("n_batches", 0))
    attrs["useful_tokens"] = int(stats.get("useful_tokens", 0))
    attrs["padded_tokens"] = int(stats.get("padded_tokens", 0))


def _batch_tables(attrs, args, kwargs, result):
    attrs["tables"] = len(args[1])


def _wire_tables(attrs, args, kwargs, result):
    payload = args[2] if len(args) > 2 else kwargs.get("payload")
    attrs["tables"] = len(payload["tables"])


def _is_annotate(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs.get("op")) == "annotate_batch"


def install(role: str = "server") -> Tracer:
    """Wrap every layer boundary in this process; returns the tracer."""
    from repro.core.annotator import KGLinkAnnotator
    from repro.core.pipeline import KGCandidateExtractor
    from repro.core.trainer import KGLinkTrainer
    from repro.fleet.cache import SharedResultsCache
    from repro.fleet.router import FleetRouter
    from repro.fleet.wire import ReplicaClient
    from repro.gateway import app
    from repro.gateway.admission import AdmissionQueue
    from repro.kg.linker import EntityLinker
    from repro.nn.optim import AdamW
    from repro.plm.pretrain import MLMPretrainer
    from repro.serve import replica
    from repro.serve.service import AnnotationService
    from repro.text.tokenizer import WordPieceTokenizer

    TRACER.reset(role)
    # repro.serve
    _wrap_sync(AnnotationService, "load", "serve.load")
    _wrap_sync(AnnotationService, "annotate_batch", "serve.annotate_batch", _tables)
    # Part 1
    _wrap_sync(KGCandidateExtractor, "process_table", "part1.process_table")
    _wrap_sync(KGCandidateExtractor, "link_table", "part1.link_table")
    _wrap_sync(KGCandidateExtractor, "apply_overlap_filter", "part1.overlap_filter")
    _wrap_sync(KGCandidateExtractor, "row_linking_scores", "part1.select_rows")
    _wrap_sync(KGCandidateExtractor, "select_rows", "part1.select_rows")
    _wrap_sync(KGLinkTrainer, "prepare_example", "part1.serialize")
    _wrap_counter(WordPieceTokenizer, "tokenize", "tokenize_calls")
    # repro.kg
    _wrap_sync(EntityLinker, "link_batch", "kg.link_batch", _link_counts)
    # Part 2
    _wrap_sync(KGLinkTrainer, "predict", "plm.predict", _predict_counts)
    # training
    _wrap_sync(KGLinkAnnotator, "fit", "train.fit")
    _wrap_sync(KGLinkTrainer, "train", "train.train")
    _wrap_sync(MLMPretrainer, "pretrain", "train.pretrain")
    _wrap_counter(AdamW, "step", "optimizer_steps")
    # repro.gateway
    _wrap_async_active(app, "read_request", "gateway.read_request",
                       keep=lambda request: request is not None)
    _wrap_async_active(app, "write_response", "gateway.write_response")
    _wrap_queue_take(AdmissionQueue)
    _wrap_sync(app.Gateway, "_annotate_blocking", "gateway.batch", _batch_tables)
    # repro.fleet
    _wrap_sync(FleetRouter, "annotate_batch", "fleet.annotate_batch")
    _wrap_counter(SharedResultsCache, "begin", "results_cache",
                  outcome=lambda result: result[0])
    _wrap_sync(ReplicaClient, "request", "fleet.wire", _wire_tables, when=_is_annotate)
    _wrap_replica(replica)
    return TRACER


def _wrap_replica(replica_module) -> None:
    """Replicas are forked and leave through ``os._exit``: dump on the way out."""
    original = replica_module.run_replica

    @functools.wraps(original)
    def run_replica(*args, **kwargs):
        TRACER.reset("replica")
        try:
            return original(*args, **kwargs)
        finally:
            directory = os.environ.get(TRACE_DIR_ENV)
            if directory:
                TRACER.dump(directory)

    replica_module.run_replica = run_replica


def install_from_environment() -> None:
    """``sitecustomize`` entry: trace this process when the traced run asks."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return
    install()
    os.register_at_fork(after_in_child=TRACER.reset)
    atexit.register(TRACER.dump, directory)


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
#: Names of the per-layer metrics, with their units, in report order.
PER_LAYER_UNITS = {
    "gateway.parse_ms": "ms",
    "gateway.queue_wait_ms": "ms",
    "gateway.batch_tables": "tables",
    "gateway.write_ms": "ms",
    "fleet.results_cache_hit_ratio": "ratio",
    "fleet.wire_ms": "ms",
    "fleet.dispatch_tables": "tables",
    "serve.load_s": "s",
    "serve.part1_cache_hit_ratio": "ratio",
    "serve.prepare_ms_per_table": "ms",
    "serve.predict_ms_per_table": "ms",
    "serve.bucket_fill": "ratio",
    "part1.link_ms": "ms",
    "part1.overlap_filter_ms": "ms",
    "part1.select_rows_ms": "ms",
    "part1.types_features_ms": "ms",
    "part1.serialize_ms": "ms",
    "part1.tokenize_calls": "count",
    "kg.search_ms_per_mention": "ms",
    "kg.mentions_per_table": "count",
    "kg.linked_ratio": "ratio",
    "plm.predict_ms_per_batch": "ms",
    "plm.padded_tokens_per_table": "tokens",
    "train.step_ms": "ms",
    "train.part1_s": "s",
    "train.pretrain_s": "s",
}

#: Spans that start a unit of serving work in their process.
SERVING_ROOTS = ("serve.annotate_batch", "gateway.batch")


def load_rows(directory: str | Path) -> list[dict]:
    rows: list[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open() as handle:
            rows.extend(json.loads(line) for line in handle if line.strip())
    return rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rows: list[dict], windows: list[tuple[float, float]]
                  ) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from span rows; serving spans count inside ``windows``.

    Returns ``(metrics, info)``: ``metrics`` maps every name of
    :data:`PER_LAYER_UNITS` to a number (0 where the workload does not run
    the layer); ``info`` holds the attribution check of the serving calls.
    """
    def in_window(start: float) -> bool:
        return any(lo <= start <= hi for lo, hi in windows)

    by_key = {(row["pid"], row["id"]): row for row in rows}
    children: dict[tuple, list[dict]] = defaultdict(list)
    for row in rows:
        if row["parent"]:
            children[(row["pid"], row["parent"])].append(row)

    def root_of(row: dict) -> dict:
        while row["parent"]:
            row = by_key[(row["pid"], row["parent"])]
        return row

    def duration(row: dict) -> float:
        return row["end"] - row["start"]

    def self_time(row: dict) -> float:
        return duration(row) - sum(duration(c) for c in children[(row["pid"], row["id"])])

    serving: dict[str, list[dict]] = defaultdict(list)
    training: dict[str, list[dict]] = defaultdict(list)
    other: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        root = root_of(row)
        if root["name"] in SERVING_ROOTS:
            if in_window(root["start"]):
                serving[row["name"]].append(row)
        elif root["name"] == "train.fit":
            training[row["name"]].append(row)
        elif row["name"] in ("gateway.read_request", "gateway.write_response",
                             "gateway.queue_wait"):
            if in_window(row["start"]):
                other[row["name"]].append(row)
        else:
            other[row["name"]].append(row)

    def total(spans, how=duration) -> float:
        return sum(how(span) for span in spans)

    def attr(spans, key) -> int:
        return sum(span["attrs"].get(key, 0) for span in spans)

    def per(spans, denominator, scale=1e3, how=self_time) -> float:
        return _ratio(total(spans, how) * scale, denominator)

    served_tables = attr(serving["serve.annotate_batch"], "tables")
    prepared = len(serving["part1.process_table"])
    mentions = attr(serving["kg.link_batch"], "mentions")
    predicts = serving["plm.predict"]
    reads, writes = other["gateway.read_request"], other["gateway.write_response"]
    waits = other["gateway.queue_wait"]
    batches = serving["gateway.batch"]
    wires = serving["fleet.wire"]
    replica_annotate = sum(duration(row) for row in serving["serve.annotate_batch"]
                           if row["role"] == "replica")
    cache_hits = attr(serving["fleet.annotate_batch"], "results_cache_hit")
    cache_lookups = cache_hits + attr(serving["fleet.annotate_batch"], "results_cache_lead") \
        + attr(serving["fleet.annotate_batch"], "results_cache_join")
    train_predict = total(training["plm.predict"])
    steps = attr(training["train.train"], "optimizer_steps")
    loads = other["serve.load"]
    fits = len(training["train.fit"])

    metrics = {
        "gateway.parse_ms": _ratio(sum(r["attrs"]["active"] for r in reads) * 1e3, len(reads)),
        "gateway.queue_wait_ms": per(waits, len(waits), how=duration),
        "gateway.batch_tables": _ratio(attr(batches, "tables"), len(batches)),
        "gateway.write_ms": _ratio(sum(r["attrs"]["active"] for r in writes) * 1e3, len(writes)),
        "fleet.results_cache_hit_ratio": _ratio(cache_hits, cache_lookups),
        "fleet.wire_ms": _ratio((total(wires) - replica_annotate) * 1e3, len(wires)),
        "fleet.dispatch_tables": _ratio(attr(wires, "tables"), len(wires)),
        "serve.load_s": _ratio(total(loads), len(loads)),
        "serve.part1_cache_hit_ratio": 1.0 - _ratio(prepared, served_tables)
        if served_tables else 0.0,
        "serve.prepare_ms_per_table": per(
            serving["part1.process_table"] + serving["part1.serialize"],
            served_tables, how=duration),
        "serve.predict_ms_per_table": per(predicts, served_tables, how=duration),
        "serve.bucket_fill": _ratio(attr(predicts, "useful_tokens"),
                                    attr(predicts, "padded_tokens")),
        "part1.link_ms": per(serving["part1.link_table"], prepared),
        "part1.overlap_filter_ms": per(serving["part1.overlap_filter"], prepared),
        "part1.select_rows_ms": per(serving["part1.select_rows"], prepared),
        "part1.types_features_ms": per(serving["part1.process_table"], prepared),
        "part1.serialize_ms": per(serving["part1.serialize"], prepared),
        "part1.tokenize_calls": _ratio(attr(serving["part1.serialize"], "tokenize_calls"),
                                       prepared),
        "kg.search_ms_per_mention": per(serving["kg.link_batch"], mentions),
        "kg.mentions_per_table": _ratio(mentions, prepared),
        "kg.linked_ratio": _ratio(attr(serving["kg.link_batch"], "linked"), mentions),
        "plm.predict_ms_per_batch": per(predicts, attr(predicts, "batches"), how=duration),
        "plm.padded_tokens_per_table": _ratio(attr(predicts, "padded_tokens"),
                                              attr(predicts, "tables")),
        "train.step_ms": _ratio((total(training["train.train"]) - train_predict) * 1e3, steps),
        "train.part1_s": _ratio(total(training["part1.process_table"]), fits),
        "train.pretrain_s": _ratio(total(training["train.pretrain"]), fits),
    }
    roots = [row for row in serving["serve.annotate_batch"] if not row["parent"]]
    covered = sum(duration(row) - self_time(row) for row in roots)
    info = {
        "serving_calls": len(roots),
        "mean_call_ms": _ratio(total(roots) * 1e3, len(roots)),
        "attributed_share": _ratio(covered, total(roots)),
    }
    return metrics, info
