"""Wire records exchanged between frameworks, agents, and the coordinator.

Fig. 7: for each EchelonFlow, the framework reports "the arrangement
function and per-flow information (the size, source, and destination) to
the agent via a library of EchelonFlow APIs"; the agent forwards
EchelonFlow requests to the coordinator, which answers with bandwidth
allocations. These dataclasses are those messages, kept serializable
(plain data, no object references) as a real RPC layer would require.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.echelonflow import EchelonFlow


class ArrangementKind(enum.Enum):
    """Wire encoding of the arrangement function families of Section 4."""

    COFLOW = "coflow"  # Eq. 5
    STAGGERED = "staggered"  # Eq. 6
    PHASED = "phased"  # Eq. 7
    TABLED = "tabled"  # profiled general shape


@dataclass(frozen=True)
class ArrangementDescriptor:
    """A serializable arrangement function."""

    kind: ArrangementKind
    #: STAGGERED: [T]; PHASED: [layers, T_fwd, T_bwd]; TABLED: offsets.
    parameters: Tuple[float, ...] = ()

    def build(self):
        """Materialize the core arrangement object."""
        from ..core.arrangement import (
            CoflowArrangement,
            PhasedArrangement,
            StaggeredArrangement,
            TabledArrangement,
        )

        if self.kind is ArrangementKind.COFLOW:
            return CoflowArrangement()
        if self.kind is ArrangementKind.STAGGERED:
            (distance,) = self.parameters
            return StaggeredArrangement(distance=distance)
        if self.kind is ArrangementKind.PHASED:
            layers, t_fwd, t_bwd = self.parameters
            return PhasedArrangement(
                layers=int(layers), forward_distance=t_fwd, backward_distance=t_bwd
            )
        return TabledArrangement(self.parameters)

    @classmethod
    def from_arrangement(cls, arrangement, count: int) -> "ArrangementDescriptor":
        """Encode a core arrangement object for the wire."""
        from ..core.arrangement import (
            CoflowArrangement,
            PhasedArrangement,
            StaggeredArrangement,
        )

        if isinstance(arrangement, CoflowArrangement):
            return cls(ArrangementKind.COFLOW)
        if isinstance(arrangement, StaggeredArrangement):
            return cls(ArrangementKind.STAGGERED, (arrangement.distance,))
        if isinstance(arrangement, PhasedArrangement):
            return cls(
                ArrangementKind.PHASED,
                (
                    float(arrangement.layers),
                    arrangement.forward_distance,
                    arrangement.backward_distance,
                ),
            )
        offsets = tuple(arrangement.offset(j) for j in range(count))
        return cls(ArrangementKind.TABLED, offsets)


@dataclass(frozen=True)
class FlowInfo:
    """Per-flow information the framework reports: size, src, dst."""

    flow_id: int
    src: str
    dst: str
    size: float
    index_in_group: int


@dataclass(frozen=True)
class EchelonFlowRequest:
    """Agent -> Coordinator: please schedule this EchelonFlow."""

    ef_id: str
    job_id: str
    framework: str
    arrangement: ArrangementDescriptor
    flows: Tuple[FlowInfo, ...]
    weight: float = 1.0

    @classmethod
    def describe(
        cls, echelonflow: EchelonFlow, framework: str
    ) -> "EchelonFlowRequest":
        """Encode a framework's EchelonFlow for the wire."""
        return cls(
            ef_id=echelonflow.ef_id,
            job_id=echelonflow.job_id or framework,
            framework=framework,
            arrangement=ArrangementDescriptor.from_arrangement(
                echelonflow.arrangement, echelonflow.index_count
            ),
            flows=tuple(
                FlowInfo(
                    flow_id=flow.flow_id,
                    src=flow.src,
                    dst=flow.dst,
                    size=flow.size,
                    index_in_group=flow.index_in_group,
                )
                for flow in echelonflow.flows
            ),
            weight=echelonflow.weight,
        )

    def build(self) -> EchelonFlow:
        """The coordinator-side EchelonFlow: no members, reference unpinned."""
        return EchelonFlow(
            self.ef_id,
            self.arrangement.build(),
            job_id=self.job_id,
            weight=self.weight,
        )


@dataclass(frozen=True)
class BandwidthAllocation:
    """Coordinator -> Agent: rates to enforce, by flow id."""

    issued_at: float
    rates: Dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class QueueAssignment:
    """Agent -> backend: which priority queue each flow's data enters."""

    flow_id: int
    host: str
    queue: int
    weight: float
