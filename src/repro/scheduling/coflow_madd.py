"""Coflow scheduling: Varys' SEBF + MADD, generalized to arbitrary paths.

This is the Fig. 2b comparison point and the algorithmic substrate that
Property 4 adapts. Two pieces:

* **MADD** (Minimum Allocation for Desired Duration): give every flow of a
  coflow the smallest rate finishing it exactly at the coflow's bottleneck
  completion time ``Gamma``, so all flows finish together (the Coflow
  philosophy the paper argues against for PP/FSDP).
* **SEBF** (Smallest Effective Bottleneck First): order coflows by their
  remaining ``Gamma``; earlier coflows allocate on fresher capacity.

On a big switch ``Gamma`` is the classic port-load bound; on general
topologies we use the equivalent per-link form
``Gamma = max_link sum(remaining bytes crossing link) / capacity``.

A final work-conserving backfill hands leftover capacity to flows in SEBF
order so no link idles while a flow wants it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.flow import FlowState
from ..core.units import EPS
from ..simulator.allocation import greedy_priority_fill
from ..simulator.network import NetworkModel
from .base import Scheduler, SchedulerView, register_scheduler


def link_load(
    states: List[FlowState], network: NetworkModel
) -> Dict[Tuple[str, str], float]:
    """Remaining bytes crossing each link, summed over ``states`` in order."""
    load: Dict[Tuple[str, str], float] = {}
    for state in states:
        remaining = state.remaining
        for link in network.path(state.flow.flow_id):
            key = link.key
            load[key] = load.get(key, 0.0) + remaining
    return load


def load_gamma(
    load: Dict[Tuple[str, str], float],
    available: Dict[Tuple[str, str], float],
) -> float:
    """Bottleneck completion time of a link load on (residual) capacities.

    ``inf`` when some needed link has no residual capacity at all.
    """
    gamma = 0.0
    for key, total in load.items():
        capacity = available.get(key)
        if capacity is None:
            continue
        if capacity <= EPS:
            return float("inf")
        ratio = total / capacity
        if ratio > gamma:
            gamma = ratio
    return gamma


def madd_rates(
    states: List[FlowState],
    network: NetworkModel,
    available: Dict[Tuple[str, str], float],
) -> Dict[int, float]:
    """Minimum allocation finishing every flow at the coflow's ``Gamma``."""
    return paced_rates(states, load_gamma(link_load(states, network), available))


def paced_rates(states: List[FlowState], duration: float) -> Dict[int, float]:
    """Each flow's remaining bytes over ``duration`` (0 if inf or ~0)."""
    if duration == float("inf") or duration <= EPS:
        return {state.flow.flow_id: 0.0 for state in states}
    return {state.flow.flow_id: state.remaining / duration for state in states}


def consume_rates(
    rates: Dict[int, float],
    network: NetworkModel,
    available: Dict[Tuple[str, str], float],
) -> None:
    """Deduct each rate along its flow's path from ``available``, floor 0."""
    for flow_id, rate in rates.items():
        for link in network.path(flow_id):
            key = link.key
            if key in available:
                left = available[key] - rate
                available[key] = left if left > 0.0 else 0.0


@register_scheduler
class CoflowMaddScheduler(Scheduler):
    """Varys: SEBF inter-coflow ordering + MADD intra-coflow allocation.

    Ungrouped flows are treated as singleton coflows. ``backfill`` toggles
    the work-conserving pass (on by default, as in Varys).
    """

    name = "coflow"

    def __init__(self, backfill: bool = True) -> None:
        self.backfill = backfill
        # MADD pacing alone deliberately idles capacity; only the
        # backfill pass makes the allocation work-conserving.
        self.work_conserving = backfill

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        network = view.network
        coflows: List[Tuple[str, List[FlowState]]] = []
        # Incremental group buckets; the SEBF sort below fully determines
        # the final order, so bucket enumeration order is irrelevant.
        for group_id, states in view.groups():
            if group_id is None:
                for state in states:  # singleton pseudo-coflows
                    coflows.append((f"_flow{state.flow.flow_id}", [state]))
            else:
                coflows.append((group_id, states))

        # Maintained by the network's residual accounting; a (harmless)
        # superset of the links under the currently-active flows.
        available = network.link_capacities()
        # SEBF: smallest remaining bottleneck first, on *full* capacities.
        keyed = []
        for group_id, states in coflows:
            load = link_load(states, network)
            keyed.append((load_gamma(load, available), group_id, states, load))
        keyed.sort(key=lambda item: (item[0], item[1]))

        rates: Dict[int, float] = {}
        residual = dict(available)
        ordered_states: List[FlowState] = []
        for _gamma, _group_id, states, load in keyed:
            group_rates = paced_rates(states, load_gamma(load, residual))
            consume_rates(group_rates, network, residual)
            rates.update(group_rates)
            ordered_states.extend(
                sorted(states, key=lambda s: (s.remaining, s.flow.flow_id))
            )

        if self.backfill:
            demands = [view.demand_of(state) for state in ordered_states]
            rates = greedy_priority_fill(demands, available=residual, base_rates=rates)
        return rates
