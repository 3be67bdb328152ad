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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.flow import FlowState
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
    load is computed once and gives ``Gamma`` on any capacity map."""

    def __init__(
        self, deadline: float, states: List[FlowState], network: NetworkModel
    ) -> None:
        self.deadline = deadline
        self.states = states
        self.load = link_load(states, network)


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

    def _deadline_of(self, view: SchedulerView, state: FlowState) -> float:
        if self.anchor == "flow_start":
            return state.start_time
        ideal = view.ideal_finish_time(state)
        if ideal is None:
            # Ungrouped (or not-yet-referenced) flows: finish-ASAP semantics.
            return state.start_time
        return ideal

    def _build_groups(self, view: SchedulerView) -> List[_Group]:
        groups: List[_Group] = []
        # The network's incremental buckets, already sorted by group id
        # with ungrouped flows last -- the order this loop used to create
        # by sorting a per-call states_by_group() rebuild.
        for group_id, states in view.groups():
            if group_id is None:
                # Every ungrouped flow is its own singleton group.
                for state in states:
                    deadline = self._deadline_of(view, state)
                    groups.append(
                        _Group(
                            f"_flow{state.flow.flow_id}",
                            [_Stage(deadline, [state], view.network)],
                            job_id=state.flow.job_id,
                            registered=False,
                        )
                    )
                continue
            by_deadline: Dict[float, List[FlowState]] = {}
            for state in states:
                deadline = self._deadline_of(view, state)
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
                g.group_id: self._weighted_ascending(
                    g, g.projected_tardiness(now, full_caps)
                )
                for g in groups
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
                (
                    load_gamma(
                        link_load(
                            [s for stage in g.stages for s in stage.states],
                            network,
                        ),
                        full_caps,
                    ),
                    g.group_id,
                    g,
                )
                for g in groups
            ]
        else:
            keyed = [
                (
                    self._weighted(g, g.projected_tardiness(now, full_caps)),
                    g.group_id,
                    g,
                )
                for g in groups
            ]
            if self.ordering == "projected":
                # Most projected-behind first; +inf (blocked) groups sort
                # last either way since negation keeps them extreme.
                keyed = [(-value, gid, g) for value, gid, g in keyed]
        keyed.sort(key=lambda item: (item[0], item[1]))
        return [g for _value, _gid, g in keyed]

    # ------------------------------------------------------------------

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
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
