"""Benchmark-side tracing: spans around each layer's public entry points.

``SpanRecorder.install`` wraps each entry point where its caller looks it
up (module attribute or class attribute), because the program imports
functions by name.  A span records its id, its parent's id, its thread
and its start and end; a layer's self time is its span's duration minus
the time its child spans cover.  Time inside the measured windows that
no span covers is reported as ``other``.  Counts come from the program's
own ``obs`` registry (and ``perf.PERF`` for the store's byte counts).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (owner module path, attribute path, layer name).  The owner is where
#: the caller looks the name up.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.baselines.jellyfish", "create_base_model", "tinylm.pretrain"),
    ("repro.data.generators.upstream", "generate_all", "data.generate"),
    ("repro.baselines.jellyfish", "upstream_sft", "jellyfish.upstream_sft"),
    ("repro.baselines.jellyfish", "extract_knowledge_patches", "skc.extract_patches"),
    ("repro.eval.harness", "load_splits", "data.load_splits"),
    ("repro.core.knowtrans", "KnowTrans.fit", "knowtrans.fit"),
    ("repro.core.knowtrans", "few_shot_finetune", "skc.finetune"),
    ("repro.core.knowtrans", "KnowTrans.cross_fit_scorer", "akb.cross_fit"),
    ("repro.core.knowtrans", "search_knowledge", "akb.search"),
    ("repro.knowledge.kb", "KnowledgeBase.retrieve", "kb.retrieve"),
    ("repro.knowledge.kb", "KnowledgeBase.promote", "kb.promote"),
    ("repro.data.profiling", "profile_dataset", "data.profile"),
    ("repro.runtime", "WorkerPool.map", "runtime.map"),
    ("repro.store", "ArtifactStore.get", "store.get"),
    ("repro.store", "ArtifactStore.put", "store.put"),
    ("repro.eval.harness", "evaluate_method", "harness.evaluate"),
    ("repro.tinylm.model", "ScoringLM.predict_batch", "model.predict_batch"),
    ("repro.tinylm.trainer", "Trainer.fit", "trainer.fit"),
    ("repro.tinylm.trainer", "Trainer.fit_incremental", "serve.stream_update"),
    ("repro.serve", "TenantRegistry.ensure_attached", "serve.ensure_attached"),
)

LAYER_NAMES = tuple(name for __, __, name in ENTRY_POINTS)

#: serve-mixed load phases, one per fixed arrival rate.
PHASES = 3

#: Every per-layer metric as (name, unit, better), in BENCHMARK.json order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    tuple((f"{name}.s", "s", "lower") for name in LAYER_NAMES)
    + (
        ("other.s", "s", "lower"),
        ("wall.s", "s", "lower"),
        ("trace.coverage_setup", "ratio", "higher"),
        ("trace.coverage_measure", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trainer.fit.calls", "count", "lower"),
        ("trainer.steps", "count", "lower"),
        ("skc.patches", "count", "lower"),
        ("akb.rounds", "count", "lower"),
        ("akb.retrieved", "count", "higher"),
        ("kb.retrieve.calls", "count", "lower"),
        ("kb.hit_ratio", "ratio", "higher"),
        ("kb.promote.calls", "count", "lower"),
        ("store.get.calls", "count", "lower"),
        ("store.hit_ratio", "ratio", "higher"),
        ("store.bytes_read", "bytes", "lower"),
        ("store.bytes_written", "bytes", "lower"),
        ("model.predict_batch.calls", "count", "lower"),
        ("model.examples", "count", "lower"),
        ("serve.queue_wait_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p95", "ms", "lower"),
        ("serve.batch_size", "count", "higher"),
        ("serve.swap_ratio", "ratio", "lower"),
        ("serve.generator_lag_ms", "ms", "lower"),
    )
    + tuple(
        (f"serve.phase{i}.{what}", "count", better)
        for i in range(1, PHASES + 1)
        for what, better in (("sent", "higher"), ("succeeded", "higher"), ("failed", "lower"))
    )
)

#: Layers whose return values the rollup reads.
_KEEP_RESULTS = frozenset({"skc.extract_patches", "akb.search"})


def _resolve(module_path: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class SpanRecorder:
    """In-memory spans with parent ids, recorded only inside windows."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.windows: List[Tuple[str, float, float]] = []
        self.results: Dict[str, list] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        self._open_window: Optional[Tuple[str, float]] = None

    # -- wrapping -------------------------------------------------------
    def install(self) -> "SpanRecorder":
        for module_path, attr_path, name in ENTRY_POINTS:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            if recorder._open_window is None:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end,
                         "thread": threading.get_ident()}
                    )
            if name in _KEEP_RESULTS:
                recorder.results[name].append(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- windows --------------------------------------------------------
    def open(self, label: str) -> None:
        self._open_window = (label, time.perf_counter())

    def close(self) -> None:
        label, start = self._open_window
        self._open_window = None
        self.windows.append((label, start, time.perf_counter()))

    # -- rollup ---------------------------------------------------------
    def self_times(self, label: Optional[str] = None) -> Dict[str, float]:
        """Self seconds per layer, over all windows or one label's."""
        windows = [w for w in self.windows if label is None or w[0] == label]
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if not any(lo <= span["start"] <= hi for __, lo, hi in windows):
                continue
            own = span["end"] - span["start"] - child_time[span["id"]]
            totals[span["name"]] += max(own, 0.0)
        return dict(totals)

    def wall(self, label: Optional[str] = None) -> float:
        return sum(
            hi - lo for name, lo, hi in self.windows
            if label is None or name == label
        )

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)


def obs_counter(tracer, name: str) -> int:
    """Sum of one obs counter over all its attribute keys."""
    return sum(v for (n, __), v in tracer.counters.items() if n == name)


def reset_perf_counters() -> None:
    try:
        from repro.perf import PERF
    except ImportError:
        return
    PERF.reset()


def perf_counter_value(name: str) -> int:
    try:
        from repro.perf import PERF
    except ImportError:
        return 0
    return int(PERF.counter(name))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, tracer, setup_label: str = "setup",
                  measure_label: str = "measure") -> Dict[str, float]:
    """The per-layer metrics shared by every workload."""
    selfs = recorder.self_times()
    wall = recorder.wall()
    covered = sum(selfs.values())
    values: Dict[str, float] = {f"{name}.s": selfs.get(name, 0.0) for name in LAYER_NAMES}
    values["other.s"] = wall - covered
    values["wall.s"] = wall
    for label, key in ((setup_label, "trace.coverage_setup"),
                       (measure_label, "trace.coverage_measure")):
        values[key] = ratio(sum(recorder.self_times(label).values()), recorder.wall(label))
    values["trainer.fit.calls"] = recorder.calls("trainer.fit")
    values["trainer.steps"] = obs_counter(tracer, "trainer.steps")
    values["skc.patches"] = sum(len(r) for r in recorder.results.get("skc.extract_patches", []))
    searches = recorder.results.get("akb.search", [])
    values["akb.rounds"] = sum(r.iterations_run for r in searches)
    values["akb.retrieved"] = sum(r.retrieved for r in searches)
    values["kb.retrieve.calls"] = recorder.calls("kb.retrieve")
    hits, misses = obs_counter(tracer, "kb.hit"), obs_counter(tracer, "kb.miss")
    values["kb.hit_ratio"] = ratio(hits, hits + misses)
    values["kb.promote.calls"] = recorder.calls("kb.promote")
    values["store.get.calls"] = recorder.calls("store.get")
    hits, misses = obs_counter(tracer, "store.hit"), obs_counter(tracer, "store.miss")
    values["store.hit_ratio"] = ratio(hits, hits + misses)
    values["store.bytes_read"] = perf_counter_value("store.bytes_read")
    values["store.bytes_written"] = perf_counter_value("store.bytes_written")
    values["model.predict_batch.calls"] = recorder.calls("model.predict_batch")
    values["model.examples"] = obs_counter(tracer, "model.examples")
    return values
