"""In-memory span tracing around each layer's public calls.

The benchmark never edits the program: a :class:`Tracer` replaces a fixed
set of public functions and methods (the :data:`LAYER_CALLS` table) with
timing wrappers for the duration of a traced run, then puts the originals
back. Each wrapped call records one span ``(id, parent, name, start,
end)``; the parent is the innermost traced call still on the stack, so a
span's self time is its duration minus the durations of its children.

A layer's counts come from the program's own counters where it keeps
them (``RpcChannel.stats``, ``ControlPlaneRuntime.counters``,
``MemoizingScheduler`` cache size) and from the number of spans
otherwise. :func:`layer_metrics` turns the spans of one traced window
into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path, observer). The observer, when
#: given, sees each call's result after it returns and records the
#: per-call count the metrics need: ``size`` notes ``len(result)``,
#: ``vector`` whether the kernel returned a ``VectorAllocation``. A plain
#: function is also patched where its callers bound it by name.
LAYER_CALLS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("engine.run", "repro.simulator.engine", "Engine.run", None),
    ("network.inject", "repro.simulator.network", "NetworkModel.inject", None),
    ("network.advance", "repro.simulator.network", "NetworkModel.advance", "size"),
    ("network.set_rates", "repro.simulator.network", "NetworkModel.set_rates", None),
    (
        "network.earliest_finish",
        "repro.simulator.network",
        "NetworkModel.earliest_finish_interval",
        None,
    ),
    ("routing.path", "repro.topology.routing", "ShortestPathRouter.path", None),
    ("events.pop_batch", "repro.simulator.events", "EventQueue.pop_batch", "size"),
    (
        "scheduling.allocate",
        "repro.scheduling.fairshare",
        "FairSharingScheduler.allocate",
        "size",
    ),
    (
        "scheduling.allocate",
        "repro.scheduling.echelon_madd",
        "EchelonMaddScheduler.allocate",
        "size",
    ),
    ("cache.allocate", "repro.scheduling.cache", "MemoizingScheduler.allocate", None),
    ("coordinator.allocate", "repro.system.coordinator", "Coordinator.allocate", None),
    (
        "runtime.allocate",
        "repro.system.runtime.runtime",
        "ControlPlaneScheduler.allocate",
        None,
    ),
    ("rpc.transmit", "repro.system.runtime.rpc", "RpcChannel.transmit", None),
    ("allocation.max_min_fair", "repro.simulator.allocation", "max_min_fair", "vector"),
    (
        "allocation.greedy_fill",
        "repro.simulator.allocation",
        "greedy_priority_fill",
        None,
    ),
    ("state.snapshot", "repro.simulator.state", "capture", None),
    ("state.fork", "repro.simulator.state", "materialize", None),
    ("whatif.query", "repro.whatif.service", "WhatIfService.run_query", None),
    ("whatif.fork_at", "repro.whatif.service", "WhatIfService.fork_at", None),
    ("workloads.build", "repro.whatif.workload", "build_paradigm_job", None),
)

#: Modules whose code calls the plain functions above through a name
#: bound at import time; the workloads reach the functions only there.
_FUNCTION_IMPORTERS = {
    "max_min_fair": ("repro.scheduling.fairshare",),
    "greedy_priority_fill": ("repro.scheduling.echelon_madd",),
}


#: Per-layer metrics read from the program's own counters by the caller
#: of :func:`layer_metrics`; a workload that lacks the layer reports 0.
COUNTER_METRICS = (
    "cache.entries",
    "whatif.handles",
    "runtime.stale_ratio",
    "runtime.degraded_rounds",
    "runtime.checkpoints",
    "runtime.failovers",
    "runtime.heartbeats_lost",
    "rpc.sent",
    "rpc.delivered_ratio",
    "trace.overhead_ratio",
)


class Tracer:
    """Records spans while installed; restores every patched callable."""

    def __init__(self) -> None:
        #: Spans of the current request: (id, parent id, name, start,
        #: end), parent -1 for a root span.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: The first folded request's spans, kept for the span dump.
        self.kept: List[Tuple[int, int, str, float, float]] = []
        #: Folded totals: span name -> [calls, inclusive s, self s], and
        #: (name, parent name) -> [calls, inclusive s].
        self.by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.by_pair: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        #: name -> [calls, summed observation] for the observers.
        self.observed: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self._next_id = 0
        self._current = -1
        self._patched: List[Tuple[object, str, object]] = []
        self._vector_type = None

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        from repro.simulator.vector import VectorAllocation

        self._vector_type = VectorAllocation
        for name, module_name, attr_path, observer in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, name, observer)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, observer)
            self._set(module, attr, wrapper)
            for importer in _FUNCTION_IMPORTERS.get(attr, ()):
                other = importlib.import_module(importer)
                if getattr(other, attr, None) is original:
                    self._set(other, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, name: str, observer) -> None:
        original = owner.__dict__[attr]
        self._set(owner, attr, self._wrap(original, name, observer))

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, name: str, observer: Optional[str]) -> Callable:
        tracer = self
        spans = self.spans
        clock = time.perf_counter
        observe = getattr(self, f"_observe_{observer}") if observer else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = tracer._current
            tracer._current = span_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._current = parent
                spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(name, result)
            return result

        return traced

    # -- per-call observations ------------------------------------------

    def _note(self, name: str, value: float) -> None:
        entry = self.observed[name]
        entry[0] += 1
        entry[1] += value

    def _observe_size(self, name, result) -> None:
        self._note(name, len(result))

    def _observe_vector(self, name, result) -> None:
        self._note(name, 1.0 if isinstance(result, self._vector_type) else 0.0)

    def fold(self) -> None:
        """Add the current request's spans to the totals and drop them.

        Self time is a span's duration minus its children's durations;
        spans of one thread nest strictly, so children never overlap.
        """
        spans = self.spans
        names = {}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end in spans:
            names[span_id] = name
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, parent, name, start, end in spans:
            duration = end - start
            entry = self.by_name[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_time.get(span_id, 0.0)
            pair = self.by_pair[(name, names.get(parent, ""))]
            pair[0] += 1
            pair[1] += duration
        if not self.kept:
            self.kept = list(spans)
        spans.clear()


def layer_metrics(
    tracer: Tracer,
    requests: int,
    counters: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one folded traced window, per request.

    Times and call counts are divided by ``requests`` (simulations or
    what-if queries) so windows of different length compare; ratios are
    taken over the whole window. ``counters`` carries the values read
    from the program's own counters.
    """
    per = 1.0 / max(1, requests)

    def folded(name: str) -> List[float]:
        return tracer.by_name.get(name, [0, 0.0, 0.0])

    def calls(name: str) -> float:
        return folded(name)[0] * per

    def total(name: str) -> float:
        return folded(name)[1] * per

    def self_time(name: str) -> float:
        return folded(name)[2] * per

    def mean_observed(name: str) -> float:
        count, summed = tracer.observed.get(name, (0, 0.0))
        return summed / count if count else 0.0

    memo_calls = folded("cache.allocate")[0]
    memo_misses = tracer.by_pair.get(("scheduling.allocate", "cache.allocate"), [0])[0]
    tail_s = tracer.by_pair.get(("engine.run", "whatif.query"), [0, 0.0])[1]
    metrics = {
        "scheduling.allocate_calls": calls("scheduling.allocate"),
        "scheduling.allocate_s": total("scheduling.allocate"),
        "scheduling.flows_per_call": mean_observed("scheduling.allocate"),
        "allocation.greedy_fill_calls": calls("allocation.greedy_fill"),
        "allocation.greedy_fill_s": total("allocation.greedy_fill"),
        "allocation.max_min_fair_calls": calls("allocation.max_min_fair"),
        "allocation.max_min_fair_s": total("allocation.max_min_fair"),
        "allocation.vector_share": mean_observed("allocation.max_min_fair"),
        "network.inject_s": total("network.inject"),
        "network.advance_calls": calls("network.advance"),
        "network.advance_s": total("network.advance"),
        "network.finished_per_advance": mean_observed("network.advance"),
        "network.set_rates_s": total("network.set_rates"),
        "network.earliest_finish_s": total("network.earliest_finish"),
        "routing.path_calls": calls("routing.path"),
        "routing.path_s": total("routing.path"),
        "events.pop_batch_calls": calls("events.pop_batch"),
        "events.per_batch": mean_observed("events.pop_batch"),
        # One earliest-finish probe per pass of the engine's main loop.
        "engine.rounds": calls("network.earliest_finish"),
        "engine.self_s": self_time("engine.run"),
        "cache.hit_rate": (
            (memo_calls - memo_misses) / memo_calls if memo_calls else 0.0
        ),
        "cache.overhead_s": self_time("cache.allocate"),
        "state.snapshot_s": total("state.snapshot"),
        "state.fork_s": total("state.fork"),
        "whatif.fork_at_s": total("whatif.fork_at"),
        "whatif.tail_run_s": tail_s * per,
        "coordinator.allocate_s": total("coordinator.allocate"),
        "runtime.allocate_s": total("runtime.allocate"),
        "rpc.transmit_s": total("rpc.transmit"),
        "workloads.build_s": total("workloads.build"),
    }
    for name in COUNTER_METRICS:
        metrics[name] = float(counters.get(name, 0.0))
    return metrics
