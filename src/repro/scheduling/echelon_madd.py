"""EchelonFlow scheduling: MADD adapted to arrangement-derived deadlines.

Property 4 of the paper states that Coflow algorithms adapt to EchelonFlow
"with a different metric for evaluating flows": intra-EchelonFlow we pace
against the *latest flow with the largest tardiness* instead of the longest
completion time; inter-EchelonFlow we rank groups by their tardiness instead
of their CCT. This module is that adaptation, concretely:

**Intra-EchelonFlow.** Flows sharing one arrangement index form a stage
(a Coflow inside the EchelonFlow -- e.g. one all-gather in FSDP) and share
an ideal finish time ``d_g``. Stages are served in ideal-finish order
(earliest deadline first; offsets are non-decreasing so this is also index
order). Each stage is paced MADD-style to finish at

    ``T_g = max(d_g, now + Gamma_g)``

where ``Gamma_g`` is the stage's bottleneck duration on the capacity left by
earlier stages. A stage behind the formation (``d_g`` unreachable or past)
therefore runs flat-out to catch up -- the recalibration of Fig. 6b -- while
a stage ahead of the formation is paced to land exactly on its ideal finish
time, leaving bandwidth for everyone else (the "minimum allocation" idea of
MADD). For an Eq.-5 arrangement (single stage) this degenerates to *exactly*
Varys' MADD, which is Property 2 in executable form.

**Inter-EchelonFlow.** The default policy is two-level. Across tenants,
jobs rank ascending by their least weighted projected tardiness -- the
cross-tenant analog of Varys' SEBF with Smith's-rule weighting, which
minimizes the Eq.-4 sum and keeps small tenants from convoying behind a
structurally-late bulk job; registered tenants always outrank
unregistered best-effort traffic. Within a job, EchelonFlows rank by
*current* tardiness ``now - d_earliest``, most tardy first: the
EchelonFlow furthest behind its formation catches up first, which is
group-level earliest-deadline-first -- simultaneously the literal reading
of the paper's "rank EchelonFlows by each EchelonFlow's tardiness" and a
classically sound deadline policy that ages naturally and never mistakes
a *large* group (big ``Gamma``) for a *late* one. Five alternative
orderings are provided for ablation E12/E23.

**Work conservation.** A final backfill pass hands leftover capacity to
flows in schedule order, so pacing never idles a link that has demand.

**Array path.** When the network's kernel decision lands on the vector
path, :meth:`EchelonMaddScheduler.allocate` runs the same algorithm over
a stage table (:class:`_StageTable`): one ``bincount`` gives every
stage's link load, and the residual pass and backfill skip stages and
flows already blocked by a saturated link. The rates are bit-identical
to the scalar path's; see docs/performance.md ("Array MADD").
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.flow import FlowState
from ..core.units import EPS
from ..simulator.allocation import greedy_priority_fill
from ..simulator.network import NetworkModel
from .base import Scheduler, SchedulerView, register_scheduler
from .coflow_madd import consume_rates, link_load, load_gamma, paced_rates

#: Inter-EchelonFlow ordering policies (ablation E12).
ORDERINGS = ("tardiness", "projected", "hybrid", "tardiness-asc", "sebf", "fifo")

#: Deadline anchors (ablation E14).
ANCHORS = ("arrangement", "flow_start")


class _Stage:
    """Flows of one EchelonFlow sharing one arrangement index; their link
    load is computed once, on first use, and gives ``Gamma`` on any
    capacity map (the array path reads its own stage table instead)."""

    __slots__ = ("deadline", "states", "_network", "_load")

    def __init__(
        self, deadline: float, states: List[FlowState], network: NetworkModel
    ) -> None:
        self.deadline = deadline
        self.states = states
        self._network = network
        self._load: Optional[Dict[Tuple[str, str], float]] = None

    @property
    def load(self) -> Dict[Tuple[str, str], float]:
        if self._load is None:
            self._load = link_load(self.states, self._network)
        return self._load


class _Group:
    """One EchelonFlow's active stages, in deadline order."""

    def __init__(
        self,
        group_id: str,
        stages: List[_Stage],
        job_id: Optional[str] = None,
        weight: float = 1.0,
        registered: bool = True,
    ) -> None:
        self.group_id = group_id
        self.stages = sorted(stages, key=lambda s: s.deadline)
        self.job_id = job_id
        self.weight = weight
        #: Whether an EchelonFlow was reported for this traffic (Fig. 7's
        #: agent registration); unregistered flows are best-effort.
        self.registered = registered

    def projected_tardiness(self, now: float, available) -> float:
        """``max_g (now + Gamma_g - d_g)``: lateness if served alone now."""
        worst = float("-inf")
        for stage in self.stages:
            gamma = load_gamma(stage.load, available)
            if gamma == float("inf"):
                return float("inf")
            worst = max(worst, now + gamma - stage.deadline)
        return worst

    def current_tardiness(self, now: float) -> float:
        """``now - d_earliest``: how far behind the formation the group's
        most imminent stage already is. Positive lateness is amplified by
        the EchelonFlow's weight (the Eq.-4 weighted-sum variant);
        negative slack is left unweighted so early groups compare by pure
        deadline (EDF)."""
        lateness = now - min(stage.deadline for stage in self.stages)
        if lateness > 0:
            lateness *= self.weight
        return lateness


@register_scheduler
class EchelonMaddScheduler(Scheduler):
    """The EchelonFlow coordinator algorithm (adapted MADD, Property 4).

    Parameters
    ----------
    ordering:
        Inter-EchelonFlow ranking policy, all ranking "by each
        EchelonFlow's tardiness" as the paper prescribes, differing in
        direction and tenant awareness (ablation E12):

        * ``"hybrid"`` (default) -- two-level. Registered tenants outrank
          unregistered best-effort traffic; jobs rank ascending by their
          least weighted projected tardiness (the cross-tenant SEBF/SJF
          analog: minimizes the Eq.-4 sum and mean JCT, and keeps small
          tenants from convoying behind a structurally-late bulk job --
          Jain 0.93 vs 0.52 in E23); within a job, the most *currently*
          tardy EchelonFlow first (group-level EDF), which preserves the
          formation that gates the job's computation. Wins or ties every
          experiment in the battery.
        * ``"tardiness"`` -- globally most *currently* tardy first
          (``now - d_earliest``, weight-amplified when late). Group-level
          EDF: starvation-free across arbitrary traffic, maximally
          protective of the most-behind tenant, but convoys small tenants
          behind a structurally-late bulk job (E23).
        * ``"projected"`` -- most *projected* tardy first
          (``now + Gamma - d``): the naive transliteration; its Gamma
          term lets freshly-started bulk coflows outrank time-critical
          staggered flows (see E12b and the 3D hybrid workload).
        * ``"tardiness-asc"`` -- least projected tardiness first, flat
          (no job level, no registration tiering).
        * ``"sebf"`` -- ignore deadlines, rank by bottleneck duration.
        * ``"fifo"`` -- rank by group id.
    backfill:
        Work-conserving leftover pass (default on).
    anchor:
        ``"arrangement"`` anchors deadlines on arrangement ideal finish
        times (Eq. 1); ``"flow_start"`` anchors each flow on its own start
        time, which turns the objective into classic completion time and
        loses the recovery property (ablation E14).
    """

    name = "echelon"

    def __init__(
        self,
        ordering: str = "hybrid",
        backfill: bool = True,
        anchor: str = "arrangement",
    ) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {ordering!r}; options: {ORDERINGS}")
        if anchor not in ANCHORS:
            raise ValueError(f"unknown anchor {anchor!r}; options: {ANCHORS}")
        self.ordering = ordering
        self.backfill = backfill
        self.anchor = anchor
        # Adapted MADD paces stages to their deadlines (idling capacity
        # on purpose); work conservation comes from the backfill pass.
        self.work_conserving = backfill

    # ------------------------------------------------------------------

    def _deadlines(
        self,
        view: SchedulerView,
        group_id: Optional[str],
        states: List[FlowState],
    ) -> List[float]:
        """Each flow's deadline under the anchor, for one group bucket."""
        if self.anchor == "flow_start":
            return [state.start_time for state in states]
        ideals = view.ideal_finish_times(group_id, states)
        if None not in ideals:
            return ideals
        # Ungrouped (or not-yet-referenced) flows: finish-ASAP semantics.
        return [
            state.start_time if ideal is None else ideal
            for state, ideal in zip(states, ideals)
        ]

    def _build_groups(self, view: SchedulerView) -> List[_Group]:
        groups: List[_Group] = []
        # The network's incremental buckets, already sorted by group id
        # with ungrouped flows last -- the order this loop used to create
        # by sorting a per-call states_by_group() rebuild.
        for group_id, states in view.groups():
            deadlines = self._deadlines(view, group_id, states)
            if group_id is None:
                # Every ungrouped flow is its own singleton group.
                for state, deadline in zip(states, deadlines):
                    groups.append(
                        _Group(
                            f"_flow{state.flow.flow_id}",
                            [_Stage(deadline, [state], view.network)],
                            job_id=state.flow.job_id,
                            registered=False,
                        )
                    )
                continue
            if len(set(deadlines)) == 1:
                # One shared deadline (every Coflow-shaped bucket): one
                # stage over the (read-only) bucket itself.
                stages = [_Stage(deadlines[0], states, view.network)]
            else:
                by_deadline: Dict[float, List[FlowState]] = {}
                for state, deadline in zip(states, deadlines):
                    by_deadline.setdefault(deadline, []).append(state)
                stages = [
                    _Stage(d, members, view.network)
                    for d, members in by_deadline.items()
                ]
            echelonflow = view.echelonflows.get(group_id)
            job_id = echelonflow.job_id if echelonflow is not None else None
            weight = echelonflow.weight if echelonflow is not None else 1.0
            if job_id is None:
                job_id = states[0].flow.job_id
            groups.append(_Group(group_id, stages, job_id=job_id, weight=weight))
        return groups

    @staticmethod
    def _weighted(group: _Group, tau: float) -> float:
        """Scale a tardiness key by the EchelonFlow's weight (Eq. 4's
        weighted-sum variant) for *descending* (most-urgent-first) sorts:
        a weight-w group that is t behind counts as w*t of objective, so
        it sorts as if w times more urgent."""
        if tau == float("inf") or tau == float("-inf"):
            return tau
        return group.weight * tau

    @staticmethod
    def _weighted_ascending(group: _Group, tau: float) -> float:
        """Weight adjustment for *ascending* (smallest-key-first) sorts --
        Smith's rule: a heavier group must sort earlier, so positive
        lateness divides by the weight and negative slack multiplies."""
        if tau == float("inf") or tau == float("-inf"):
            return tau
        if tau >= 0:
            return tau / group.weight
        return tau * group.weight

    def _order_groups(
        self,
        groups: List[_Group],
        now: float,
        network: NetworkModel,
        full_caps: Dict[Tuple[str, str], float],
    ) -> List[_Group]:
        """Rank groups with ``Gamma`` from each stage's link load."""
        return self._rank_groups(
            groups,
            now,
            lambda: [g.projected_tardiness(now, full_caps) for g in groups],
            lambda: [
                load_gamma(
                    link_load(
                        [s for stage in g.stages for s in stage.states], network
                    ),
                    full_caps,
                )
                for g in groups
            ],
        )

    def _rank_groups(
        self,
        groups: List[_Group],
        now: float,
        projected: Callable[[], List[float]],
        bottleneck: Callable[[], List[float]],
    ) -> List[_Group]:
        """Rank groups by the configured ordering.

        ``projected()`` gives each group's projected tardiness and
        ``bottleneck()`` its whole-group ``Gamma`` (``sebf``), both on
        full capacities and aligned with ``groups``; each is evaluated
        only by the orderings that read it.
        """
        if self.ordering == "fifo":
            return groups
        if self.ordering == "tardiness":
            # Most currently-tardy first (weight-amplified lateness); ties
            # broken toward heavier groups, then by id for determinism.
            keyed_current = [
                (-g.current_tardiness(now), -g.weight, g.group_id, g)
                for g in groups
            ]
            keyed_current.sort(key=lambda item: item[:3])
            return [g for *_key, g in keyed_current]
        if self.ordering == "hybrid":
            # Two-level: jobs ranked ascending by their *projected* lateness
            # (the Varys-SEBF analog across tenants: nearly-on-time jobs
            # first, which both minimizes the Eq.-4 sum and keeps small
            # tenants from convoying behind a structurally-late bulk job --
            # measured as Jain 0.93 vs 0.52 in E23); within a job, the most
            # *currently* tardy EchelonFlow first (group-level EDF), which
            # preserves the formation that gates the job's computation.
            tau = {
                g.group_id: self._weighted_ascending(g, value)
                for g, value in zip(groups, projected())
            }
            job_key: Dict[Optional[str], float] = {}
            for g in groups:
                value = tau[g.group_id]
                if value == float("inf"):
                    continue  # blocked groups don't define a job's urgency
                current = job_key.get(g.job_id, float("inf"))
                job_key[g.job_id] = min(current, value)
            keyed = [
                (
                    # Registered tenants (those whose frameworks reported
                    # EchelonFlows through the agent) outrank best-effort
                    # unregistered traffic -- the coordinator protects what
                    # it was asked to schedule.
                    0 if g.registered else 1,
                    job_key.get(g.job_id, float("inf")),
                    g.job_id or "",
                    # Most currently-behind first within the job.
                    -g.current_tardiness(now),
                    g.group_id,
                    g,
                )
                for g in groups
            ]
            keyed.sort(key=lambda item: item[:5])
            return [g for *_key, g in keyed]
        if self.ordering == "sebf":
            keyed = [
                (value, g.group_id, g) for g, value in zip(groups, bottleneck())
            ]
        else:
            keyed = [
                (self._weighted(g, value), g.group_id, g)
                for g, value in zip(groups, projected())
            ]
            if self.ordering == "projected":
                # Most projected-behind first; +inf (blocked) groups sort
                # last either way since negation keeps them extreme.
                keyed = [(-value, gid, g) for value, gid, g in keyed]
        keyed.sort(key=lambda item: (item[0], item[1]))
        return [g for _value, _gid, g in keyed]

    # ------------------------------------------------------------------

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        if view.flow_demands().use_vector:
            return self._allocate_array(view)
        return self._allocate_scalar(view)

    def _allocate_scalar(self, view: SchedulerView) -> Dict[int, float]:
        """The reference path: per-stage dict loads, per-flow backfill."""
        network = view.network
        now = view.now
        # Maintained by the network's residual accounting; a (harmless)
        # superset of the links under the currently-active flows.
        full_caps: Dict[Tuple[str, str], float] = network.link_capacities()

        groups = self._build_groups(view)
        ordered = self._order_groups(groups, now, network, full_caps)

        rates: Dict[int, float] = {}
        residual = dict(full_caps)
        schedule_order: List[FlowState] = []
        for group in ordered:
            for stage in group.stages:
                gamma = load_gamma(stage.load, residual)
                schedule_order.extend(
                    sorted(stage.states, key=lambda s: s.flow.flow_id)
                )
                # Pace the stage to land on max(deadline, earliest feasible);
                # a blocked stage (infinite Gamma) gets zero rates.
                horizon = max(stage.deadline, now + gamma) - now
                stage_rates = paced_rates(stage.states, horizon)
                rates.update(stage_rates)
                if gamma != float("inf"):
                    consume_rates(stage_rates, network, residual)

        if self.backfill:
            demands = [view.demand_of(state) for state in schedule_order]
            rates = greedy_priority_fill(demands, available=residual, base_rates=rates)
        return rates

    # ------------------------------------------------------------------
    # array path
    # ------------------------------------------------------------------

    def _allocate_array(self, view: SchedulerView) -> Dict[int, float]:
        """:meth:`allocate` over a stage table: the same rates, bit for bit.

        Taken when the network's kernel decision lands on the vector
        path (``allocation="vector"``, or ``"auto"`` at
        :data:`~repro.simulator.vector.VECTOR_AUTO_THRESHOLD` active
        flows). Groups and stages are built exactly as the scalar path
        builds them; :class:`_StageTable` then gives every stage's
        ``Gamma`` on full capacities at once and runs the residual pass
        and the backfill with exact skips of blocked stages and flows.
        """
        groups = self._build_groups(view)
        table = _StageTable(groups, view.network)
        ordered = self._rank_groups(
            groups, view.now, lambda: table.projected(view.now), table.bottleneck
        )
        schedule, order = table.schedule(ordered)
        # Every scheduled flow gets a key (zero until paced), inserted in
        # schedule order exactly as the scalar path's updates insert them.
        rates: Dict[int, float] = dict.fromkeys(
            np.array(table.fids, dtype=np.int64)[order].tolist(), 0.0
        )
        residual = table.pace(schedule, view.now, rates)
        if self.backfill:
            table.backfill(order, residual, rates, view)
        return rates


class _StageTable:
    """Every stage of one :meth:`EchelonMaddScheduler.allocate` call as
    flat arrays (the array path).

    Stages are laid out group by group (build order), each group's
    stages in deadline order, flows in bucket/fid order, then path
    positions. ``entry_*`` arrays hold one entry per (flow, path
    position); ``pair_*`` arrays one per distinct (stage, link column),
    sorted by stage then column. Links are the network's interned
    columns (:meth:`~repro.simulator.network.NetworkModel.link_columns`).

    Links only ever lose residual within one call, so a stage or flow
    that crosses a link at or below ``EPS`` stays blocked; both passes
    skip those exactly, because the scalar path gives them nothing.
    """

    def __init__(self, groups: List[_Group], network: NetworkModel) -> None:
        stage_states: List[List[FlowState]] = []
        deadlines: List[float] = []
        index_of: Dict[int, int] = {}
        group_first: List[int] = []
        for i, group in enumerate(groups):
            index_of[id(group)] = i
            group_first.append(len(stage_states))
            for stage in group.stages:
                stage_states.append(stage.states)
                deadlines.append(stage.deadline)
        self.n_groups = len(groups)
        self.index_of = index_of
        self.group_first = group_first
        self.deadlines = deadlines
        self.n_stages = n_stages = len(stage_states)
        self.states = states = list(chain.from_iterable(stage_states))
        self.n_flows = n_flows = len(states)
        self.fids = [state.flow.flow_id for state in states]
        self.flow_cols = flow_cols = network.link_columns(self.fids)
        path_len = np.fromiter(map(len, flow_cols), dtype=np.intp, count=n_flows)
        self.entry_col = np.fromiter(
            chain.from_iterable(flow_cols), dtype=np.intp, count=int(path_len.sum())
        )
        self.entry_flow = np.repeat(np.arange(n_flows), path_len)
        self.entry_load = np.array([state.remaining for state in states])[
            self.entry_flow
        ]
        self.stage_size = np.fromiter(
            map(len, stage_states), dtype=np.intp, count=n_stages
        )
        self.flow_first = np.zeros(n_stages + 1, dtype=np.intp)
        np.cumsum(self.stage_size, out=self.flow_first[1:])
        keys = network.column_keys()
        self.n_cols = len(keys)
        capacities = network.link_capacities()
        self.full = np.fromiter(
            (capacities[key] for key in keys), dtype=np.float64, count=self.n_cols
        )
        flow_stage = np.repeat(np.arange(n_stages), self.stage_size)
        self.pair_stage, self.pair_col, self.pair_load = _row_loads(
            flow_stage[self.entry_flow], self.entry_col, self.entry_load, self.n_cols
        )
        self.stage_pairs = np.searchsorted(self.pair_stage, np.arange(n_stages + 1))

    def projected(self, now: float) -> List[float]:
        """Each group's projected tardiness on full capacities:
        ``max over stages of (now + Gamma) - deadline``."""
        gamma = _row_gamma(
            self.pair_col, self.pair_load, self.full, self.stage_pairs[:-1]
        )
        lateness = (now + gamma) - np.array(self.deadlines)
        return np.maximum.reduceat(lateness, self.group_first).tolist()

    def bottleneck(self) -> List[float]:
        """Each group's ``Gamma`` over all its flows on full capacities,
        summed in the scalar group's stage-then-fid order (``sebf``)."""
        group_size = np.add.reduceat(self.stage_size, self.group_first)
        flow_group = np.repeat(np.arange(self.n_groups), group_size)
        rows, cols, loads = _row_loads(
            flow_group[self.entry_flow], self.entry_col, self.entry_load, self.n_cols
        )
        first = np.searchsorted(rows, np.arange(self.n_groups))
        return _row_gamma(cols, loads, self.full, first).tolist()

    def schedule(self, ordered: List[_Group]) -> Tuple[List[int], np.ndarray]:
        """Stages in schedule order, and schedule position -> table flow."""
        bounds = self.group_first + [self.n_stages]
        stages: List[int] = []
        for group in ordered:
            index = self.index_of[id(group)]
            stages.extend(range(bounds[index], bounds[index + 1]))
        # Each scheduled stage's flows are contiguous in the table.
        scheduled = np.array(stages, dtype=np.intp)
        sizes = self.stage_size[scheduled]
        ends = np.cumsum(sizes)
        order = np.arange(self.n_flows) + np.repeat(
            self.flow_first[scheduled] - (ends - sizes), sizes
        )
        return stages, order

    def pace(
        self, schedule: List[int], now: float, rates: Dict[int, float]
    ) -> List[float]:
        """The residual pass: pace each unblocked stage to
        ``max(deadline, now + Gamma)`` and consume its rates, with the
        scalar arithmetic; returns the per-column residuals."""
        residual = self.full.tolist()
        saturated = (self.full <= EPS).tolist()
        pair_stage, pair_col = self.pair_stage, self.pair_col
        by_col = np.argsort(pair_col, kind="stable")
        col_stages = pair_stage[by_col]
        col_bounds = np.searchsorted(
            pair_col[by_col], np.arange(self.n_cols + 1)
        ).tolist()
        blocked_stages = np.zeros(self.n_stages, dtype=bool)
        blocked_stages[pair_stage[self.full[pair_col] <= EPS]] = True
        blocked = blocked_stages.tolist()
        stage_pairs = self.stage_pairs.tolist()
        flow_first = self.flow_first.tolist()
        pair_cols = pair_col.tolist()
        pair_loads = self.pair_load.tolist()
        states, fids, flow_cols = self.states, self.fids, self.flow_cols
        for stage in schedule:
            if blocked[stage]:
                continue  # infinite Gamma: zero rates, nothing consumed
            lo, hi = stage_pairs[stage], stage_pairs[stage + 1]
            gamma = 0.0
            for j in range(lo, hi):
                ratio = pair_loads[j] / residual[pair_cols[j]]
                if ratio > gamma:
                    gamma = ratio
            horizon = max(self.deadlines[stage], now + gamma) - now
            if horizon == math.inf or horizon <= EPS:
                continue  # zero rates (paced_rates), nothing consumed
            for i in range(flow_first[stage], flow_first[stage + 1]):
                rate = states[i].remaining / horizon
                rates[fids[i]] = rate
                for col in flow_cols[i]:
                    left = residual[col] - rate
                    residual[col] = left if left > 0.0 else 0.0
            for col in pair_cols[lo:hi]:
                if not saturated[col] and residual[col] <= EPS:
                    saturated[col] = True
                    crossing = col_stages[col_bounds[col] : col_bounds[col + 1]]
                    for other in crossing.tolist():
                        blocked[other] = True
        return residual

    def backfill(
        self,
        order: np.ndarray,
        residual: List[float],
        rates: Dict[int, float],
        view: SchedulerView,
    ) -> None:
        """:func:`greedy_priority_fill` in schedule order, in place.

        A flow crossing a link at or below ``EPS`` would get a grant at
        most ``EPS`` -- a no-op, since it already holds a base rate -- so
        the pass jumps to the next unblocked flow. Without caps every
        positive grant drives a link to 0, so it takes at most one step
        per link.
        """
        position = np.empty(self.n_flows, dtype=np.intp)
        position[order] = np.arange(self.n_flows)
        entry_col = self.entry_col
        entry_pos = position[self.entry_flow]
        by_col = np.argsort(entry_col, kind="stable")
        col_flows = entry_pos[by_col]
        col_bounds = np.searchsorted(
            entry_col[by_col], np.arange(self.n_cols + 1)
        ).tolist()
        blocked = np.zeros(self.n_flows, dtype=bool)
        blocked[entry_pos[np.array(residual)[entry_col] <= EPS]] = True
        order = order.tolist()
        states, fids, flow_cols = self.states, self.fids, self.flow_cols
        at = 0
        while at < self.n_flows:
            rest = blocked[at:]
            skip = int(rest.argmin())
            if rest[skip]:
                break  # every remaining flow crosses a saturated link
            at += skip
            i = order[at]
            at += 1
            fid = fids[i]
            cols = flow_cols[i]
            grant = max(0.0, min(residual[col] for col in cols))
            cap = view.demand_of(states[i]).cap
            if cap is not None:
                grant = min(grant, max(0.0, cap - rates[fid]))
            if grant <= EPS:
                continue
            rates[fid] += grant
            for col in cols:
                residual[col] -= grant
                if residual[col] <= EPS:
                    blocked[col_flows[col_bounds[col] : col_bounds[col + 1]]] = True


def _row_loads(
    entry_row: np.ndarray, entry_col: np.ndarray, entry_load: np.ndarray, n_cols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-(row, column) load sums as sorted ``(rows, cols, loads)``.

    ``bincount`` adds each bin's weights sequentially in entry order, so
    a row whose entries come in :func:`link_load` order gets that
    function's sums bit for bit.
    """
    pairs, inverse = np.unique(entry_row * n_cols + entry_col, return_inverse=True)
    rows = pairs // n_cols
    return rows, pairs - rows * n_cols, np.bincount(inverse, weights=entry_load)


def _row_gamma(
    cols: np.ndarray, loads: np.ndarray, capacity: np.ndarray, first: np.ndarray
) -> np.ndarray:
    """:func:`load_gamma` of every row: ``max load / capacity`` over the
    row's pairs (rows start at ``first``), ``inf`` where a crossed link
    has capacity at most ``EPS``."""
    caps = capacity[cols]
    ratio = np.full(len(loads), np.inf)
    # Gradual underflow (a subnormal load) is exact IEEE behaviour that
    # python floats never report either; only the masked divide is live.
    with np.errstate(under="ignore"):
        np.divide(loads, caps, out=ratio, where=caps > EPS)
    return np.maximum.reduceat(ratio, first)
