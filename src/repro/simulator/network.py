"""The fluid-flow network model.

Active flows drain at scheduler-chosen rates between events. The model owns
per-flow :class:`~repro.core.flow.FlowState`, the pinned path of each flow,
and byte accounting; it validates that the scheduler's allocation respects
link capacities before accepting it.

The model is deliberately ignorant of *why* flows exist (jobs, EchelonFlows,
collectives) -- it exposes exactly what the paper's coordinator would see:
flow sizes, endpoints, paths, remaining bytes, and ideal finish times.

Incremental core
----------------

The hot path is O(changed flows) per event, not O(active flows):

* **Lazy drain.** Each flow carries a sync anchor (the last time its
  ``remaining`` was materialized). Advancing time only touches flows that
  finish now; everyone else drains implicitly along ``remaining - rate *
  elapsed`` and is materialized on demand (scheduler reads, rate changes,
  direct state access). The arithmetic is identical whichever mode finds
  the flows to touch, so the scan-based reference mode reproduces the
  incremental mode's traces bit for bit.
* **Finish-time heap.** Projected finish times are pushed into a lazily
  invalidated min-heap whenever a rate changes. ``earliest_finish_interval``
  and ``advance`` pop candidates instead of scanning; keys conservatively
  lower-bound the true finish (they are the epsilon-threshold crossing),
  and every candidate is re-checked with the exact per-flow arithmetic, so
  the heap only ever narrows *where* to look, never *what* is computed.
* **Residual accounting.** A :class:`~repro.simulator.allocation.LinkAccounting`
  tracks per-link load deltas as rates change, so the ``set_rates``
  feasibility gate inspects only the links whose load moved, lenient-mode
  scaling relaxes without rebuilding usage maps, and ``link_usage`` (the
  observer's sampling hook) is a read of maintained state.
* **Dirty-set rates.** ``set_rates`` applies only rates that actually
  changed; unchanged flows keep their anchors, heap entries, and link
  contributions untouched.

Constructing the model with ``allocation="reference"`` keeps the exact
same drain/retire/allocation semantics but finds work by full scans -- the
pre-refactor cost model. It exists for the equivalence tests and the
``bench_scale`` speedup report.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.flow import Flow, FlowState
from ..core.units import EPS
from ..topology.graph import Link, Topology
from .allocation import DemandSet, FlowDemand, LinkAccounting, feasible
from .vector import VECTOR_AUTO_THRESHOLD, VectorAllocation

#: The legal values of the single ``allocation`` option (see
#: :class:`NetworkModel`).
ALLOCATION_MODES = ("auto", "reference", "incremental", "vector")

#: Relative slack used when popping heap candidates. Heap keys are float
#: projections of per-flow finish times; the slack absorbs rounding drift
#: between a key computed at anchor time and the exact per-flow arithmetic
#: re-evaluated now. Extra candidates cost a re-check and a re-push, never
#: a wrong answer.
_HEAP_SLACK = 1e-9

#: Rebuild the finish heap once stale (lazily invalidated) entries dominate.
_HEAP_COMPACT_FACTOR = 4
_HEAP_COMPACT_MIN = 64


class CapacityViolation(Exception):
    """The scheduler proposed rates exceeding a link capacity."""


#: Process-global source of capacity-mutation tokens. Each runtime
#: capacity change appends one globally-unique token to the mutating
#: model's ``capacity_lineage``, so two models that diverged from a
#: common snapshot (a fork and its parent) can never reach the same
#: lineage by mutating different links the same *number* of times --
#: the staleness hazard a bare epoch counter has. Tokens feed cache
#: keys only (MemoizingScheduler fingerprints), never results, so their
#: process-global order does not perturb determinism.
_capacity_token_counter = itertools.count(1)


class NetworkModel:
    """Tracks active flows and enforces link-capacity-respecting rates."""

    def __init__(
        self,
        topology: Topology,
        router,
        strict: bool = True,
        allocation: str = "auto",
    ) -> None:
        if allocation not in ALLOCATION_MODES:
            raise ValueError(
                f"allocation must be one of {ALLOCATION_MODES}, got {allocation!r}"
            )
        self.topology = topology
        self.router = router
        self.strict = strict
        #: Allocation mode -- a cost model only; every mode produces the
        #: same traces bit for bit. ``"reference"`` finds work by full
        #: scans with the scalar kernel; ``"incremental"`` runs the
        #: O(changed flows) data paths with the scalar kernel;
        #: ``"vector"`` adds the numpy dense max-min kernel and bulk rate
        #: application; ``"auto"`` is incremental and switches the kernel
        #: to vector at :data:`~repro.simulator.vector.VECTOR_AUTO_THRESHOLD`
        #: active flows. The kernel choice travels on the
        #: :class:`DemandSet` this model hands to schedulers.
        self.allocation = allocation
        #: Resolved once so the hot paths test a bool, never a string.
        self._scan = allocation == "reference"
        self._vector = allocation == "vector"
        self._vector_auto = allocation == "auto"
        self._active: Dict[int, FlowState] = {}
        self._paths: Dict[int, Tuple[Link, ...]] = {}
        self._completed: Dict[int, FlowState] = {}
        #: Total bytes delivered, for conservation checks.
        self.bytes_delivered = 0.0
        #: Optional observer (repro.obs Instrumentation): notified with
        #: (now, dt, {Link: aggregate rate}) on every nonzero advance.
        #: ``None`` keeps the fluid loop free of accounting overhead.
        self.observer = None
        #: Bumped on every runtime capacity mutation; consumers that cache
        #: anything derived from capacities (e.g. MemoizingScheduler
        #: fingerprints) fold this in to invalidate across faults.
        self.capacity_epoch = 0
        #: Tuple of globally-unique tokens, one appended per capacity
        #: mutation. Inherited by forks, so a fork and its parent share a
        #: lineage prefix exactly as long as they share capacity history;
        #: see :data:`_capacity_token_counter`.
        self.capacity_lineage: Tuple[int, ...] = ()

        # -- incremental state ------------------------------------------
        #: The model's own clock: the latest time seen by inject/advance.
        self._now = 0.0
        #: flow id -> time its ``remaining`` was last materialized.
        self._anchor: Dict[int, float] = {}
        #: Latest time every active flow is known to be materialized at;
        #: lets back-to-back scheduler reads in one round skip the scan.
        self._synced_at = float("-inf")
        #: Active flow ids in ascending order (the canonical iteration
        #: order everywhere a scan used to call ``sorted``).
        self._order: List[int] = []
        #: flow id -> unit-weight FlowDemand built once at inject time.
        self._demands: Dict[int, FlowDemand] = {}
        #: Structural revision of the active flow set: bumped on every
        #: inject/retire/reroute. Keys the cached :class:`DemandSet` (and
        #: through it the vector kernel's dense incidence interning).
        self._demands_rev = 0
        self._demands_cache: Optional[Tuple[int, DemandSet]] = None
        #: Always-current per-link load/membership bookkeeping.
        self.accounting = LinkAccounting()
        #: Min-heap of (finish key, flow id, token); stale entries carry
        #: an outdated token and are dropped when popped.
        self._finish_heap: List[Tuple[float, int, int]] = []
        self._heap_token: Dict[int, int] = {}
        #: EchelonFlow buckets: group id -> (sorted fid list, state list).
        self._group_fids: Dict[Optional[str], List[int]] = {}
        self._group_states: Dict[Optional[str], List[FlowState]] = {}
        #: Link-column interning for array schedulers (see
        #: :meth:`link_columns`): link key -> dense column in first-touch
        #: order, the inverse list, and each flow's path as a column
        #: tuple, filled on first use so runs that never ask pay nothing.
        self._column_of: Dict[Tuple[str, str], int] = {}
        self._column_keys: List[Tuple[str, str]] = []
        self._flow_columns: Dict[int, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # snapshot/fork support
    # ------------------------------------------------------------------

    def fork(self) -> "NetworkModel":
        """A fully independent copy of the model's run state.

        Copy-on-write at the object level: immutable heavy objects --
        :class:`~repro.core.flow.Flow` descriptions, retired
        :class:`~repro.core.flow.FlowState` (never mutated after
        ``_retire``), frozen demands' link tuples -- are shared by
        reference; everything mutable is copied. The topology is cloned
        (fresh :class:`Link` objects, since fault injection mutates
        ``Link.capacity`` in place) and every link reference -- pinned
        paths, demands, residual accounting, the router's caches -- is
        translated onto the clone.

        Exactness rules that make forked-and-resumed runs bit-identical
        to uninterrupted ones:

        * lazily-drained flows are *not* materialized: raw ``remaining``
          and drain anchors are copied as-is, so later materialization
          performs the identical float arithmetic;
        * the finish heap, its tokens, and the residual accounting's
          float accumulators are copied verbatim, never recomputed;
        * active :class:`FlowState` objects are duplicated field-for-field
          (the parent keeps mutating its own), and the group buckets are
          rebuilt to point at the duplicates.

        The observer is *not* carried over: instrumentation either
        detaches or is re-attached explicitly by the engine fork.
        """
        topology = self.topology.clone()
        if hasattr(self.router, "fork"):
            router = self.router.fork(topology)
        else:
            # Custom router: deepcopy with the topology identity pre-seeded
            # so its internal link references land on the clone's objects.
            import copy

            memo: Dict[int, object] = {id(self.topology): topology}
            for key, link in self.topology._links.items():
                memo[id(link)] = topology.link(*key)
            router = copy.deepcopy(self.router, memo)

        twin = NetworkModel(
            topology,
            router,
            strict=self.strict,
            allocation=self.allocation,
        )
        twin.capacity_epoch = self.capacity_epoch
        twin.capacity_lineage = self.capacity_lineage
        twin.bytes_delivered = self.bytes_delivered
        twin._now = self._now
        twin._synced_at = self._synced_at
        twin._order = list(self._order)
        twin._anchor = dict(self._anchor)
        #: Retired states are immutable from retirement on; share them.
        twin._completed = dict(self._completed)
        twin._active = {
            fid: FlowState(
                flow=state.flow,
                start_time=state.start_time,
                remaining=state.remaining,
                rate=state.rate,
                finish_time=state.finish_time,
                ideal_finish_time=state.ideal_finish_time,
            )
            for fid, state in self._active.items()
        }
        translate = topology.link
        twin._paths = {
            fid: tuple(translate(link.src, link.dst) for link in path)
            for fid, path in self._paths.items()
        }
        twin._demands = {
            fid: FlowDemand(flow_id=fid, path=twin._paths[fid])
            for fid in self._demands
        }
        link_map = {key: translate(*key) for key in self.accounting.links}
        twin.accounting = self.accounting.clone(link_map)
        twin._finish_heap = list(self._finish_heap)
        twin._heap_token = dict(self._heap_token)
        twin._group_fids = {
            gid: list(fids) for gid, fids in self._group_fids.items()
        }
        twin._group_states = {
            gid: [twin._active[fid] for fid in fids]
            for gid, fids in self._group_fids.items()
        }
        twin._column_of = dict(self._column_of)
        twin._column_keys = list(self._column_keys)
        twin._flow_columns = dict(self._flow_columns)
        return twin

    # ------------------------------------------------------------------
    # flow lifecycle
    # ------------------------------------------------------------------

    def inject(
        self, flow: Flow, now: float, path: Optional[Tuple[Link, ...]] = None
    ) -> FlowState:
        """Admit a flow at time ``now``; its path is pinned immediately.

        ``path`` overrides route computation -- the differential twin oracle
        uses it to replay a run with the primary's pinned (possibly
        fault-rerouted) paths rather than re-deriving routes.
        """
        flow_id = flow.flow_id
        if flow_id in self._active or flow_id in self._completed:
            raise ValueError(f"flow {flow_id} already injected")
        if path is None:
            path = self.router.path(flow.src, flow.dst, flow_id)
        state = FlowState(flow=flow, start_time=now, remaining=flow.size)
        self._active[flow_id] = state
        self._demands_rev += 1
        self._paths[flow_id] = path
        self._demands[flow_id] = FlowDemand(flow_id=flow_id, path=path)
        self._anchor[flow_id] = now
        if now > self._now:
            self._now = now
        insort(self._order, flow_id)
        self.accounting.watch(flow_id, path)
        self._bucket_add(flow.group_id, flow_id, state)
        if self.observer is not None:
            self.observer.on_flow_admitted(flow, path, now)
        return state

    def _retire(self, state: FlowState, finish_time: float) -> None:
        """Move a drained flow from the active set to the completed set."""
        flow_id = state.flow.flow_id
        old_rate = state.rate
        state.finish_time = finish_time
        state.rate = 0.0
        self.accounting.unwatch(flow_id, self._paths[flow_id], old_rate)
        self._heap_token[flow_id] = self._heap_token.get(flow_id, 0) + 1
        self._demands_rev += 1
        del self._active[flow_id]
        del self._anchor[flow_id]
        index = bisect_left(self._order, flow_id)
        del self._order[index]
        self._bucket_remove(state.flow.group_id, flow_id)
        self._flow_columns.pop(flow_id, None)
        self._completed[flow_id] = state

    # -- group buckets --------------------------------------------------

    def _bucket_add(
        self, group_id: Optional[str], flow_id: int, state: FlowState
    ) -> None:
        fids = self._group_fids.setdefault(group_id, [])
        states = self._group_states.setdefault(group_id, [])
        index = bisect_left(fids, flow_id)
        fids.insert(index, flow_id)
        states.insert(index, state)

    def _bucket_remove(self, group_id: Optional[str], flow_id: int) -> None:
        fids = self._group_fids[group_id]
        index = bisect_left(fids, flow_id)
        del fids[index]
        del self._group_states[group_id][index]
        if not fids:
            del self._group_fids[group_id]
            del self._group_states[group_id]

    def group_buckets(self) -> List[Tuple[Optional[str], List[FlowState]]]:
        """Active flows bucketed by group id, each bucket fid-sorted.

        Buckets are the engine-maintained lists themselves (do not mutate);
        they are returned sorted by group id with the ungrouped (``None``)
        bucket last, the order every group-aware scheduler normalizes to.
        """
        self.sync_active()
        return [
            (group_id, self._group_states[group_id])
            for group_id in sorted(
                self._group_fids, key=lambda g: (g is None, g or "")
            )
        ]

    # -- lazy drain -----------------------------------------------------

    def _sync_flow(self, flow_id: int, t: float) -> None:
        """Materialize a flow's ``remaining`` at time ``t``."""
        anchor = self._anchor[flow_id]
        if t <= anchor:
            return
        state = self._active[flow_id]
        rate = state.rate
        if rate > 0.0:
            before = state.remaining
            after = before - rate * (t - anchor)
            if after < 0.0:
                after = 0.0
            state.remaining = after
            self.bytes_delivered += before - after
        self._anchor[flow_id] = t

    def sync_active(self, t: Optional[float] = None) -> None:
        """Materialize every active flow's ``remaining`` (scheduler reads)."""
        if t is None:
            t = self._now
        elif t > self._now:
            self._now = t
        if t <= self._synced_at:
            # Every anchor is already at or past t: nothing would drain.
            return
        for flow_id in self._order:
            self._sync_flow(flow_id, t)
        self._synced_at = t

    def _projected_remaining(self, state: FlowState, anchor: float, t: float) -> float:
        """``remaining`` the flow would have at ``t`` -- no mutation."""
        rate = state.rate
        if rate <= 0.0 or t <= anchor:
            return state.remaining
        after = state.remaining - rate * (t - anchor)
        return after if after > 0.0 else 0.0

    def _finish_threshold(self, flow: Flow) -> float:
        return flow.finish_epsilon

    def _time_to_finish(self, state: FlowState, anchor: float) -> float:
        """Interval until the flow drains to zero at its current rate."""
        remaining = self._projected_remaining(state, anchor, self._now)
        if remaining <= self._finish_threshold(state.flow):
            return 0.0
        if state.rate <= EPS:
            return float("inf")
        return remaining / state.rate

    # -- finish heap ----------------------------------------------------

    def _push_finish(self, flow_id: int, state: FlowState) -> None:
        """(Re)key a flow's heap entry after a rate change."""
        token = self._heap_token.get(flow_id, 0) + 1
        self._heap_token[flow_id] = token
        anchor = self._anchor[flow_id]
        slack = state.remaining - self._finish_threshold(state.flow)
        if state.rate > EPS:
            key = anchor + slack / state.rate
        elif slack <= 0.0:
            # Zero-rate but already drained below threshold (e.g. paused
            # right at the finish line): retire-able immediately.
            key = anchor
        else:
            return
        heapq.heappush(self._finish_heap, (key, flow_id, token))
        if len(self._finish_heap) > max(
            _HEAP_COMPACT_MIN, _HEAP_COMPACT_FACTOR * len(self._active)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        tokens = self._heap_token
        active = self._active
        self._finish_heap = [
            entry
            for entry in self._finish_heap
            if entry[1] in active and tokens.get(entry[1]) == entry[2]
        ]
        heapq.heapify(self._finish_heap)

    def _pop_candidates(self, horizon: float) -> List[Tuple[float, int, int]]:
        """Pop live heap entries keyed at or before ``horizon`` (+slack)."""
        heap = self._finish_heap
        tokens = self._heap_token
        active = self._active
        bound = horizon + _HEAP_SLACK * max(1.0, abs(horizon))
        candidates: List[Tuple[float, int, int]] = []
        while heap:
            key, flow_id, token = heap[0]
            if flow_id not in active or tokens.get(flow_id) != token:
                heapq.heappop(heap)
                continue
            if key > bound:
                break
            candidates.append(heapq.heappop(heap))
        return candidates

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------

    def active_states(self) -> List[FlowState]:
        """Unfinished flows, sorted by flow id for determinism."""
        self.sync_active()
        active = self._active
        return [active[fid] for fid in self._order]

    def iter_active(self) -> Iterator[FlowState]:
        """Iterate active states (fid order) without materializing drains.

        For metadata-only consumers (group ids, deadlines); anyone reading
        ``remaining`` should go through :meth:`active_states` or
        :meth:`state` so lazily-drained bytes are materialized first.
        """
        active = self._active
        return (active[fid] for fid in self._order)

    def state(self, flow_id: int) -> FlowState:
        if flow_id in self._active:
            self._sync_flow(flow_id, self._now)
            return self._active[flow_id]
        return self._completed[flow_id]

    def path(self, flow_id: int) -> Tuple[Link, ...]:
        return self._paths[flow_id]

    def link_columns(self, flow_ids: Sequence[int]) -> List[Tuple[int, ...]]:
        """Each flow's path as dense link columns, interned on first use.

        Columns number link keys in first-touch order and never change
        meaning, so a flow's column tuple stays valid until it is
        rerouted or retired (both drop it); :meth:`column_keys` maps a
        column back to its link key. Array schedulers index per-link
        arrays with these instead of hashing link keys per flow.
        """
        cached = self._flow_columns
        columns = list(map(cached.get, flow_ids))
        if None in columns:
            column_of = self._column_of
            keys = self._column_keys
            for i, fid in enumerate(flow_ids):
                if columns[i] is not None:
                    continue
                path_columns = []
                for link in self._paths[fid]:
                    key = link.key
                    column = column_of.get(key)
                    if column is None:
                        column = column_of[key] = len(keys)
                        keys.append(key)
                    path_columns.append(column)
                columns[i] = cached[fid] = tuple(path_columns)
        return columns

    def column_keys(self) -> List[Tuple[str, str]]:
        """Link key of every interned column, by column (read-only)."""
        return self._column_keys

    def demand(self, flow_id: int, weight: float = 1.0) -> FlowDemand:
        if weight == 1.0:
            return self._demands[flow_id]
        return FlowDemand(flow_id=flow_id, path=self._paths[flow_id], weight=weight)

    def vector_active(self) -> bool:
        """Does the current kernel decision land on the vector path?

        The :class:`DemandSet` kernel hint is stamped from this; schedulers
        that only need the decision read it here instead of building the
        demand set.
        """
        return self._vector or (
            self._vector_auto and len(self._active) >= VECTOR_AUTO_THRESHOLD
        )

    def demands(self) -> DemandSet:
        """Unit-weight demands of every active flow, fid-ascending.

        Returns a :class:`DemandSet` cached per structural revision, so
        back-to-back scheduler reads within a round reuse both the list
        and -- in vector mode -- the dense incidence interning built on
        first kernel dispatch. The kernel hint is stamped at build time
        from :attr:`allocation` (and, in ``auto`` mode, the active flow
        count, which only changes when the revision does).
        """
        rev = self._demands_rev
        cache = self._demands_cache
        if cache is not None and cache[0] == rev:
            return cache[1]
        demands = self._demands
        demand_set = DemandSet(
            (demands[fid] for fid in self._order),
            use_vector=self.vector_active(),
        )
        self._demands_cache = (rev, demand_set)
        return demand_set

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def completed_states(self) -> List[FlowState]:
        return [self._completed[fid] for fid in sorted(self._completed)]

    # ------------------------------------------------------------------
    # rates and time
    # ------------------------------------------------------------------

    def set_rates(self, rates: Mapping[int, float]) -> None:
        """Apply a rate allocation; unlisted active flows idle at rate 0.

        Only flows whose rate actually changes are touched: each is
        drained to the present at its old rate, re-keyed in the finish
        heap, and has its per-link contributions shifted. In ``strict``
        mode an infeasible allocation raises :class:`CapacityViolation`;
        otherwise rates are scaled down on each oversubscribed link
        (modelling switch fair-queueing backpressure).

        When the allocation arrives as a
        :class:`~repro.simulator.vector.VectorAllocation` still aligned
        to this model's live flow set, the whole application -- change
        detection, the delta feasibility gate, residual accounting, and
        the finish-heap rebuild -- runs through the array bulk path
        (:meth:`_set_rates_bulk`); the per-flow state mutations it
        performs are identical to this scalar path's.
        """
        if not self._scan and self._set_rates_bulk(rates):
            return
        changed: List[Tuple[int, FlowState, float]] = []
        for flow_id, state in self._active.items():
            rate = rates.get(flow_id, 0.0)
            if rate < 0:
                raise ValueError(f"negative rate for flow {flow_id}: {rate}")
            if rate != state.rate:
                changed.append((flow_id, state, rate))

        if not self._scan:
            ok = self._feasible_changed(changed)
        else:
            clean = {fid: rates.get(fid, 0.0) for fid in self._active}
            ok = feasible(self.demands(), clean, tolerance=1e-6)
        if not ok:
            if self.strict:
                raise CapacityViolation(
                    "scheduler allocation violates link capacities"
                )
            clean = {fid: rates.get(fid, 0.0) for fid in self._active}
            clean = self._scale_to_capacity(clean)
            changed = [
                (fid, state, clean[fid])
                for fid, state in self._active.items()
                if clean[fid] != state.rate
            ]

        apply_delta = self.accounting.apply
        for flow_id, state, rate in changed:
            self._sync_flow(flow_id, self._now)
            old = state.rate
            state.rate = rate
            apply_delta(self._paths[flow_id], old, rate)
            self._push_finish(flow_id, state)
        if self.observer is not None and changed:
            self.observer.on_rates_applied(self._now, changed)

    def _set_rates_bulk(self, rates) -> bool:
        """Array fast path of :meth:`set_rates`; ``False`` = fall back.

        Handles allocations arriving as a
        :class:`~repro.simulator.vector.VectorAllocation` whose dense
        incidence is still the one cached for the current structural
        revision -- which guarantees row ``i`` is the ``i``-th active
        flow in fid order. Change detection, the delta feasibility gate,
        and the per-link residual-accounting aggregates become array
        reductions; the remaining python loop touches only changed flows
        and performs the same per-flow mutations as the scalar path
        (sync, rate store as a python float, heap token bump). Heap
        entries are batch-appended and re-heapified once -- heap pops
        follow the total (key, fid, token) order, so internal layout
        differences never change what is popped.

        Infeasible allocations raise in strict mode exactly like the
        scalar path; in lenient mode the method backs off (returns
        ``False``) so the scalar rescale handles them.
        """
        if not isinstance(rates, VectorAllocation):
            return False
        cache = self._demands_cache
        if (
            cache is None
            or cache[0] != self._demands_rev
            or rates.incidence is not cache[1]._incidence
        ):
            return False
        inc = rates.incidence
        order = self._order
        new = rates.array
        if inc.n_flows != len(order):
            return False
        if (new < 0.0).any():
            row = int(np.nonzero(new < 0.0)[0][0])
            raise ValueError(
                f"negative rate for flow {int(inc.fids[row])}: {new[row]!r}"
            )
        active = self._active
        states = [active[fid] for fid in order]
        old = np.fromiter(
            (state.rate for state in states), dtype=np.float64, count=len(states)
        )
        changed_mask = new != old
        if not changed_mask.any():
            return True
        delta = new - old
        links = inc.links
        link_delta = np.bincount(
            inc.cols, weights=delta[inc.rows], minlength=inc.n_links
        )
        moved = link_delta != 0.0
        if moved.any():
            loads = self.accounting.loads
            capacities = self.accounting.capacities
            moved_idx = np.nonzero(moved)[0].tolist()
            load_arr = np.fromiter(
                (loads[links[j].key] for j in moved_idx),
                dtype=np.float64,
                count=len(moved_idx),
            )
            cap_arr = np.fromiter(
                (capacities[links[j].key] for j in moved_idx),
                dtype=np.float64,
                count=len(moved_idx),
            )
            tol = 1e-6
            if (
                (load_arr + link_delta[moved]) > cap_arr * (1.0 + tol) + tol
            ).any():
                if self.strict:
                    raise CapacityViolation(
                        "scheduler allocation violates link capacities"
                    )
                return False

        now = self._now
        need_sync = self._synced_at < now
        tokens = self._heap_token
        anchors = self._anchor
        observer = self.observer
        changed_records: Optional[List[Tuple[int, FlowState, float]]] = (
            [] if observer is not None else None
        )
        new_list = new.tolist()
        entries: List[Tuple[float, int, int]] = []
        for i in np.nonzero(changed_mask)[0].tolist():
            fid = order[i]
            state = states[i]
            if need_sync:
                self._sync_flow(fid, now)
            rate = new_list[i]
            state.rate = rate
            token = tokens.get(fid, 0) + 1
            tokens[fid] = token
            slack = state.remaining - state.flow.finish_epsilon
            if rate > EPS:
                entries.append((anchors[fid] + slack / rate, fid, token))
            elif slack <= 0.0:
                entries.append((anchors[fid], fid, token))
            if changed_records is not None:
                changed_records.append((fid, state, rate))
        heap = self._finish_heap
        heap.extend(entries)
        heapq.heapify(heap)
        if len(heap) > max(
            _HEAP_COMPACT_MIN, _HEAP_COMPACT_FACTOR * len(active)
        ):
            self._compact_heap()

        step = (new > 0.0).astype(np.float64) - (old > 0.0).astype(np.float64)
        nz_delta = np.bincount(
            inc.cols, weights=step[inc.rows], minlength=inc.n_links
        )
        link_delta_list = link_delta.tolist()
        nz_list = nz_delta.tolist()
        link_deltas: Dict[Tuple[str, str], float] = {}
        nz_steps: Dict[Tuple[str, str], int] = {}
        for j, link in enumerate(links):
            moved_load = link_delta_list[j]
            if moved_load != 0.0:
                link_deltas[link.key] = moved_load
            moved_count = nz_list[j]
            if moved_count:
                nz_steps[link.key] = int(moved_count)
        self.accounting.apply_bulk(link_deltas, nz_steps)
        if changed_records:
            observer.on_rates_applied(now, changed_records)
        return True

    def _feasible_changed(
        self, changed: Sequence[Tuple[int, FlowState, float]]
    ) -> bool:
        """Delta feasibility: examine only links whose load would move."""
        if not changed:
            return True
        deltas: Dict[Tuple[str, str], float] = {}
        for flow_id, state, rate in changed:
            delta = rate - state.rate
            for link in self._paths[flow_id]:
                key = link.key
                deltas[key] = deltas.get(key, 0.0) + delta
        return self.accounting.feasible_with_deltas(deltas, tolerance=1e-6)

    def validate_rates(self, rates: Mapping[int, float]) -> bool:
        """Would :meth:`set_rates` accept this allocation? No mutation.

        Used by :class:`repro.faults.ResilientScheduler` to pre-screen an
        inner scheduler's allocation before the engine commits it. Same
        delta-based cost profile as the ``set_rates`` gate.
        """
        changed: List[Tuple[int, FlowState, float]] = []
        for flow_id, state in self._active.items():
            rate = rates.get(flow_id, 0.0)
            if rate < 0:
                return False
            if rate != state.rate:
                changed.append((flow_id, state, rate))
        if not self._scan:
            return self._feasible_changed(changed)
        clean = {fid: rates.get(fid, 0.0) for fid in self._active}
        return feasible(self.demands(), clean, tolerance=1e-6)

    def _scale_to_capacity(self, rates: Dict[int, float]) -> Dict[int, float]:
        """Scale rates down uniformly per saturated link until feasible.

        The usage map is built once and relaxed in place; each pass finds
        the worst link by scanning links (not flows x path) and rescales
        only the flows crossing it, courtesy of the accounting's
        flows-per-link index. Per-pass usage corrections are accumulated
        per link in (flow, path position) order and applied once -- the
        same pinned reduction order as the max-min kernels, so a vector
        replay of the relaxation agrees float for float. The worst-link
        loop itself stays scalar: each pass depends on the previous
        one's rescale, an inherently sequential recurrence.
        """
        scaled = dict(rates)
        capacities = self.accounting.capacities
        flows_on = self.accounting.flows_on
        usage: Dict[Tuple[str, str], float] = {}
        for flow_id, rate in scaled.items():
            for link in self._paths[flow_id]:
                key = link.key
                usage[key] = usage.get(key, 0.0) + rate
        for _ in range(len(self._active) + 1):
            worst_ratio = 1.0
            worst_key: Optional[Tuple[str, str]] = None
            for key in sorted(usage):
                used = usage[key]
                capacity = capacities[key]
                if used > capacity * (1 + 1e-9):
                    ratio = capacity / used
                    if ratio < worst_ratio:
                        worst_ratio, worst_key = ratio, key
            if worst_key is None:
                return scaled
            corrections: Dict[Tuple[str, str], float] = {}
            for flow_id in sorted(flows_on[worst_key]):
                old = scaled[flow_id]
                new = old * worst_ratio
                scaled[flow_id] = new
                for link in self._paths[flow_id]:
                    key = link.key
                    corrections[key] = corrections.get(key, 0.0) + (new - old)
            for key, correction in corrections.items():
                usage[key] += correction
        return scaled

    # ------------------------------------------------------------------
    # runtime faults: capacity mutation and rerouting
    # ------------------------------------------------------------------

    def set_link_capacity(self, key: Tuple[str, str], capacity: float) -> float:
        """Mutate one link's capacity mid-run (fault injection / repair).

        Returns the previous capacity. Cost is O(flows crossing the link):
        the topology link object is mutated in place (every dynamic
        ``link.capacity`` read tracks it), the residual accounting's cached
        capacity is refreshed, and -- on a shrink below the link's current
        load -- the in-flight flows crossing it are scaled down
        proportionally (to zero when the link is downed) so the standing
        allocation stays feasible. That invariant is what lets the
        ``set_rates`` delta-feasibility gate keep trusting untouched links.
        The caller (fault injector / engine) is responsible for triggering
        a reschedule so the scheduler can react.
        """
        src, dst = key
        link = self.topology.link(src, dst)
        previous = link.capacity
        self.topology.set_link_capacity(src, dst, capacity)
        self.capacity_epoch += 1
        self.capacity_lineage = self.capacity_lineage + (
            next(_capacity_token_counter),
        )
        if key in self.accounting.capacities:
            self.accounting.capacities[key] = capacity
        load = self.accounting.loads.get(key, 0.0)
        if load > capacity * (1.0 + 1e-9) + 1e-12:
            ratio = 0.0 if capacity <= 0.0 else capacity / load
            changed: List[Tuple[int, FlowState, float]] = []
            for flow_id in sorted(self.accounting.flows_on.get(key, ())):
                state = self._active[flow_id]
                if state.rate <= 0.0:
                    continue
                self._sync_flow(flow_id, self._now)
                old = state.rate
                new = old * ratio
                state.rate = new
                self.accounting.apply(self._paths[flow_id], old, new)
                self._push_finish(flow_id, state)
                changed.append((flow_id, state, new))
            if self.observer is not None and changed:
                self.observer.on_rates_applied(self._now, changed)
        return previous

    def reroute_flows(self, keys) -> Tuple[List[int], List[int]]:
        """Migrate active flows crossing any link in ``keys`` to new paths.

        The router (whose blocked-link set the fault injector maintains)
        recomputes each affected flow's path; remaining bytes are preserved
        and the flow restarts at rate 0 on the new path, to be re-allocated
        by the fault-caused reschedule. Flows with no alternative route are
        left stranded on their old path (stalled until a restore). Returns
        ``(migrated, stranded)`` flow-id lists.
        """
        keyset = {tuple(k) for k in keys}
        affected = sorted(
            {
                fid
                for key in keyset
                for fid in self.accounting.flows_on.get(key, ())
            }
        )
        migrated: List[int] = []
        stranded: List[int] = []
        from ..topology.routing import RoutingError

        for flow_id in affected:
            state = self._active[flow_id]
            flow = state.flow
            old_path = self._paths[flow_id]
            try:
                new_path = self.router.path(flow.src, flow.dst, flow_id)
            except RoutingError:
                stranded.append(flow_id)
                continue
            if new_path == old_path:
                stranded.append(flow_id)
                continue
            self._sync_flow(flow_id, self._now)
            old_rate = state.rate
            self.accounting.unwatch(flow_id, old_path, old_rate)
            state.rate = 0.0
            self._paths[flow_id] = new_path
            self._flow_columns.pop(flow_id, None)
            self._demands[flow_id] = FlowDemand(flow_id=flow_id, path=new_path)
            self._demands_rev += 1
            self.accounting.watch(flow_id, new_path)
            self._push_finish(flow_id, state)
            migrated.append(flow_id)
            if self.observer is not None:
                notify = getattr(self.observer, "on_flow_rerouted", None)
                if notify is not None:
                    notify(flow_id, old_path, new_path, self._now)
        return migrated, stranded

    def verify_accounting(self, tolerance: float = 1e-6) -> List[Dict]:
        """Audit the residual accounting against a from-scratch recompute.

        Rebuilds per-link loads, nonzero-rate counts, and membership sets
        by walking every active flow's path, then diffs them against the
        incrementally-maintained :class:`LinkAccounting`. Loads are float
        accumulators, so they are compared with ``tolerance`` scaled by
        capacity; memberships and counts are exact. Returns one problem
        record per drifted link (empty = clean); the ``repro.check``
        sanitizer turns these into violations.
        """
        expected_loads: Dict[Tuple[str, str], float] = {}
        expected_nonzero: Dict[Tuple[str, str], int] = {}
        expected_flows: Dict[Tuple[str, str], set] = {}
        for flow_id in self._order:
            rate = self._active[flow_id].rate
            for link in self._paths[flow_id]:
                key = link.key
                expected_loads[key] = expected_loads.get(key, 0.0) + rate
                expected_flows.setdefault(key, set()).add(flow_id)
                if rate > 0.0:
                    expected_nonzero[key] = expected_nonzero.get(key, 0) + 1
        problems: List[Dict] = []
        for key in sorted(self.accounting.loads):
            capacity = self.accounting.capacities[key]
            allowance = tolerance * max(1.0, capacity)
            have_load = self.accounting.loads[key]
            want_load = expected_loads.get(key, 0.0)
            if abs(have_load - want_load) > allowance:
                problems.append(
                    {
                        "link": key,
                        "kind": "load",
                        "accounted": have_load,
                        "recomputed": want_load,
                    }
                )
            have_members = self.accounting.flows_on[key]
            want_members = expected_flows.get(key, set())
            if have_members != want_members:
                problems.append(
                    {
                        "link": key,
                        "kind": "membership",
                        "accounted": sorted(have_members),
                        "recomputed": sorted(want_members),
                    }
                )
            have_count = self.accounting.nonzero[key]
            want_count = expected_nonzero.get(key, 0)
            if have_count != want_count:
                problems.append(
                    {
                        "link": key,
                        "kind": "nonzero_count",
                        "accounted": have_count,
                        "recomputed": want_count,
                    }
                )
        return problems

    def link_capacities(self) -> Dict[Tuple[str, str], float]:
        """Capacity per link key, for every link any flow has crossed.

        Maintained by the residual accounting (a superset of the links
        under the currently-active flows), so schedulers seeding their
        capacity maps no longer walk every active path. Treat as
        read-only: copy before mutating into a residual map.
        """
        return self.accounting.capacities

    def link_usage(self) -> Dict[Link, float]:
        """Aggregate allocated rate per link across the active flows.

        Only links carrying at least one nonzero-rate flow appear; the
        engine's observer turns this into the utilization timeline. Reads
        the maintained residual accounting -- O(links), not O(flows).
        """
        return self.accounting.usage()

    def earliest_finish_interval(self) -> float:
        """Time until the first active flow completes at current rates."""
        active = self._active
        anchors = self._anchor
        if self._scan:
            horizon = float("inf")
            for flow_id in self._order:
                interval = self._time_to_finish(active[flow_id], anchors[flow_id])
                if interval < horizon:
                    horizon = interval
            return horizon

        heap = self._finish_heap
        tokens = self._heap_token
        best = float("inf")
        popped: List[Tuple[float, int, int]] = []
        while heap:
            key, flow_id, token = heap[0]
            if flow_id not in active or tokens.get(flow_id) != token:
                heapq.heappop(heap)
                continue
            if key > self._now + best + _HEAP_SLACK * max(
                1.0, abs(self._now) + (best if best != float("inf") else 0.0)
            ):
                break
            popped.append(heapq.heappop(heap))
            interval = self._time_to_finish(active[flow_id], anchors[flow_id])
            if interval < best:
                best = interval
        for entry in popped:
            heapq.heappush(heap, entry)
        return best

    def advance(self, dt: float, now: float) -> List[FlowState]:
        """Advance time by ``dt`` and retire flows that finish by then.

        Returns the newly-finished flow states (sorted by flow id); their
        ``finish_time`` is stamped ``now + dt``. Unfinished flows are not
        touched -- they drain lazily and materialize on the next read.
        """
        if dt < -EPS:
            raise ValueError(f"cannot advance time by {dt}")
        dt = max(0.0, dt)
        if self.observer is not None and dt > 0.0 and self._active:
            self.observer.on_network_advance(now, dt, self.link_usage())
        finish_time = now + dt
        if finish_time < self._now:
            finish_time = self._now
        finished: List[FlowState] = []
        active = self._active
        anchors = self._anchor

        if not self._scan:
            repush: List[Tuple[float, int, int]] = []
            for entry in self._pop_candidates(finish_time):
                flow_id = entry[1]
                state = active[flow_id]
                remaining = self._projected_remaining(
                    state, anchors[flow_id], finish_time
                )
                if remaining <= self._finish_threshold(state.flow):
                    finished.append(state)
                else:
                    repush.append(entry)
            for entry in repush:
                heapq.heappush(self._finish_heap, entry)
        else:
            for flow_id in self._order:
                state = active[flow_id]
                remaining = self._projected_remaining(
                    state, anchors[flow_id], finish_time
                )
                if remaining <= self._finish_threshold(state.flow):
                    finished.append(state)

        self._now = finish_time
        finished.sort(key=lambda s: s.flow.flow_id)
        for state in finished:
            self._sync_flow(state.flow.flow_id, finish_time)
            self._retire(state, finish_time)
        return finished

    # ------------------------------------------------------------------
    # port capacities (big-switch view for Varys/MADD)
    # ------------------------------------------------------------------

    def egress_capacities(self) -> Dict[str, float]:
        return {h: self.topology.host_egress_capacity(h) for h in self.topology.hosts}

    def ingress_capacities(self) -> Dict[str, float]:
        return {h: self.topology.host_ingress_capacity(h) for h in self.topology.hosts}
