"""The EchelonFlow network abstraction (Definition 3.1).

An EchelonFlow ``H = {f_0, f_1, ..., f_{|H|-1}}`` is a set of flows with
*related ideal finish times*; the relation is an arrangement function of the
reference time ``r``, where ``r`` is the start time of the head flow ``f_0``
and ``d_0 = r = s_0``.

Flows are indexed by their ``index_in_group``; several flows may share an
index, in which case they form a Coflow *inside* the EchelonFlow and share a
single ideal finish time (this is exactly FSDP's "staggered Coflow finish
time" arrangement, Fig. 3 / Eq. 7).

Recalibration (Fig. 6b): ideal finish times are derived from the reference
time, *not* from each flow's own start time. A flow that starts late -- e.g.
because the previous flow was delayed -- keeps the ideal finish time that the
arrangement dictates, which may be earlier than its start; its only way to a
low tardiness is to transmit faster and catch up with the formation. This is
the property that distinguishes tardiness from flow completion time.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .arrangement import ArrangementFunction, CoflowArrangement
from .flow import Flow
from .units import EPS


class EchelonFlow:
    """A group of flows whose ideal finish times follow one arrangement.

    Parameters
    ----------
    ef_id:
        Unique identifier; flows reference it via ``Flow.group_id``.
    arrangement:
        The arrangement function ``g(D, r)``.
    flows:
        Member flows, each carrying ``index_in_group``; may be provided
        incrementally with :meth:`add_flow` instead.
    job_id:
        The owning training job, for multi-job objectives (Eq. 4).
    weight:
        Weight of this EchelonFlow in the weighted-sum objective; the paper
        notes the objective "can be easily adjusted to the weighted sum".
    """

    def __init__(
        self,
        ef_id: str,
        arrangement: ArrangementFunction,
        flows: Iterable[Flow] = (),
        job_id: Optional[str] = None,
        weight: float = 1.0,
    ) -> None:
        if not 0.0 < weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {weight!r}")
        self.ef_id = ef_id
        self.arrangement = arrangement
        self.job_id = job_id
        self.weight = weight
        self.reference_time: Optional[float] = None
        self._flows: List[Flow] = []
        self._indices_seen: set = set()
        for flow in flows:
            self.add_flow(flow)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def add_flow(self, flow: Flow) -> None:
        """Register a member flow; its ``group_id`` must match ``ef_id``."""
        if flow.group_id is not None and flow.group_id != self.ef_id:
            raise ValueError(
                f"flow {flow.flow_id} belongs to group {flow.group_id!r}, "
                f"not {self.ef_id!r}"
            )
        if flow.index_in_group < 0:
            raise ValueError(
                f"flow {flow.flow_id} has negative index {flow.index_in_group}"
            )
        self._flows.append(flow)
        self._indices_seen.add(flow.index_in_group)

    @property
    def flows(self) -> Sequence[Flow]:
        return tuple(self._flows)

    def fork(self) -> "EchelonFlow":
        """An independent copy for a forked engine.

        Member :class:`Flow` objects and the arrangement are immutable
        and shared; the mutable pieces (the pinned reference time and
        the membership containers) are copied so the fork's run can pin
        or extend its copy without perturbing the parent's.
        """
        twin = EchelonFlow.__new__(EchelonFlow)
        twin.ef_id = self.ef_id
        twin.arrangement = self.arrangement
        twin.job_id = self.job_id
        twin.weight = self.weight
        twin.reference_time = self.reference_time
        twin._flows = list(self._flows)
        twin._indices_seen = set(self._indices_seen)
        return twin

    def __len__(self) -> int:
        return len(self._flows)

    @property
    def cardinality(self) -> int:
        """``|H|``: the number of member flows."""
        return len(self._flows)

    @property
    def index_count(self) -> int:
        """Number of distinct arrangement indices (Coflow stages) used."""
        return (max(self._indices_seen) + 1) if self._indices_seen else 0

    def is_coflow(self) -> bool:
        """Property 2: is this EchelonFlow expressible as a plain Coflow?"""
        return self.arrangement.is_coflow(self.index_count)

    # ------------------------------------------------------------------
    # reference time and ideal finish times
    # ------------------------------------------------------------------

    def set_reference_time(self, reference_time: float) -> None:
        """Pin the reference time ``r`` (the head flow's start time).

        A DDLT job "recalibrates the computation arrangement whenever a new
        EchelonFlow is generated" -- each per-iteration EchelonFlow instance
        gets its own reference, so re-pinning an already-set reference is an
        error; build a new EchelonFlow for the next iteration instead.
        """
        if self.reference_time is not None:
            raise RuntimeError(
                f"EchelonFlow {self.ef_id} already has reference time "
                f"{self.reference_time}"
            )
        self.reference_time = reference_time

    def observe_flow_start(self, flow: Flow, start_time: float) -> None:
        """Notify that a member flow started; pins ``r`` on the head flow.

        The head flow is the one with arrangement index 0; by Def. 3.1 it is
        also the flow that starts first.
        """
        if self.reference_time is None and flow.index_in_group == 0:
            self.set_reference_time(start_time)

    def ideal_finish_time(self, index: int) -> float:
        """``d_index`` for the current reference time."""
        if self.reference_time is None:
            raise RuntimeError(
                f"EchelonFlow {self.ef_id} has no reference time yet; the "
                f"head flow has not started"
            )
        return self.reference_time + self.arrangement.offset(index)

    def ideal_finish_time_of(self, flow: Flow) -> float:
        """``d_j`` of a member flow."""
        return self.ideal_finish_time(flow.index_in_group)

    def ideal_finish_times(self) -> Dict[int, float]:
        """Map flow_id -> ideal finish time for every member flow."""
        return {
            flow.flow_id: self.ideal_finish_time_of(flow) for flow in self._flows
        }

    # ------------------------------------------------------------------
    # tardiness (Def. 3.3 / Eq. 2)
    # ------------------------------------------------------------------

    def tardiness(self, actual_finish_times: Dict[int, float]) -> float:
        """EchelonFlow tardiness: ``max_j (e_j - d_j)`` over member flows.

        ``actual_finish_times`` maps ``flow_id`` to the actual finish time
        ``e_j``; every member flow must be present.
        """
        if not self._flows:
            raise ValueError(f"EchelonFlow {self.ef_id} has no flows")
        worst = float("-inf")
        for flow in self._flows:
            if flow.flow_id not in actual_finish_times:
                raise KeyError(
                    f"missing actual finish time for flow {flow.flow_id} "
                    f"of EchelonFlow {self.ef_id}"
                )
            tardiness = actual_finish_times[flow.flow_id] - self.ideal_finish_time_of(
                flow
            )
            worst = max(worst, tardiness)
        return worst

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "Coflow" if self.is_coflow() else "Echelon"
        return (
            f"EchelonFlow<{self.ef_id} |H|={self.cardinality} {kind} "
            f"r={self.reference_time}>"
        )


def make_coflow(
    ef_id: str,
    flows: Iterable[Flow],
    job_id: Optional[str] = None,
    weight: float = 1.0,
) -> EchelonFlow:
    """Build the Eq.-5 special case: a Coflow as an EchelonFlow.

    All member flows are placed at arrangement index 0 so they share the
    reference time as their common ideal finish time; minimizing the maximum
    tardiness then minimizes Coflow completion time (Property 2).
    """
    coflow = EchelonFlow(ef_id, CoflowArrangement(), job_id=job_id, weight=weight)
    for flow in flows:
        if flow.index_in_group != 0:
            flow = Flow(
                src=flow.src,
                dst=flow.dst,
                size=flow.size,
                group_id=ef_id,
                index_in_group=0,
                job_id=flow.job_id,
                tag=flow.tag,
            )
        coflow.add_flow(flow)
    return coflow


def total_tardiness(
    echelonflows: Iterable[EchelonFlow],
    actual_finish_times: Dict[int, float],
    weighted: bool = False,
) -> float:
    """The multi-EchelonFlow objective (Eq. 4): sum of per-EF tardiness.

    With ``weighted=True``, each EchelonFlow's tardiness is scaled by its
    weight as the paper's closing note on Eq. 4 suggests.
    """
    total = 0.0
    for echelonflow in echelonflows:
        value = echelonflow.tardiness(actual_finish_times)
        total += echelonflow.weight * value if weighted else value
    return total
