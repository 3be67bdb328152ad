"""Arrangement functions: the "shape + distance" of an echelon formation.

The paper (Section 3.1, Fig. 6) describes an EchelonFlow's computation
arrangement with an *arrangement function* ``g(D, r)`` that derives the ideal
finish time ``d_j`` of every flow ``f_j`` from the reference time ``r`` (the
start time of the head flow). We represent arrangement functions as offset
generators: ``d_j = r + offset(j)``, which covers every case study in the
paper:

* Eq. 5  (Coflow-compliant paradigms): ``offset(j) = 0``
* Eq. 6  (pipeline parallelism):       ``offset(j) = j * T``
* Eq. 7  (FSDP, per-Coflow):           forward ramp by ``T_fwd`` then
  backward ramp by ``T_bwd``
* arbitrary profiled shapes:           explicit offset tables

Offsets must be non-decreasing in ``j`` because flows in an EchelonFlow are
ordered by start time (Def. 3.1) and a later flow can never be *required* to
finish before an earlier one under a valid computation arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from .units import EPS


class ArrangementFunction:
    """Maps a flow index to its ideal-finish-time offset from the reference.

    Subclasses implement :meth:`offset`. The base class provides vectorised
    helpers and validation.
    """

    def offset(self, index: int) -> float:
        """Offset of flow ``index``'s ideal finish time from the reference."""
        raise NotImplementedError

    def ideal_finish_times(self, reference_time: float, count: int) -> List[float]:
        """Ideal finish times ``D = {d_0 .. d_{count-1}}`` for a reference.

        ``d_0 = r`` always holds for arrangement functions with
        ``offset(0) == 0``, which is every arrangement in the paper; custom
        arrangements may shift the head flow too.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [reference_time + self.offset(j) for j in range(count)]

    def validate(self, count: int) -> None:
        """Check monotonicity of offsets over the first ``count`` indices."""
        previous = None
        for j in range(count):
            value = self.offset(j)
            if previous is not None and value < previous - EPS:
                raise ValueError(
                    f"arrangement offsets must be non-decreasing; "
                    f"offset({j}) = {value} < offset({j - 1}) = {previous}"
                )
            previous = value

    def is_coflow(self, count: int) -> bool:
        """True when all ``count`` offsets coincide (Eq. 5 / Property 2)."""
        if count <= 1:
            return True
        head = self.offset(0)
        return all(abs(self.offset(j) - head) <= EPS for j in range(1, count))


@dataclass(frozen=True)
class CoflowArrangement(ArrangementFunction):
    """Eq. 5: every flow shares the reference as its ideal finish time.

    This is the arrangement of DP-AllReduce, DP-PS, and TP (Table 1), and is
    exactly the Coflow abstraction: minimizing the maximum tardiness of an
    EchelonFlow with this arrangement minimizes the Coflow completion time
    (Property 2).
    """

    def offset(self, index: int) -> float:
        if index < 0:
            raise IndexError(f"negative flow index {index}")
        return 0.0


@dataclass(frozen=True)
class StaggeredArrangement(ArrangementFunction):
    """Eq. 6: ideal finish times staggered by a constant distance ``T``.

    ``T`` is the per-micro-batch computation time obtained from profiling;
    this is the arrangement of GPipe-style pipeline parallelism, where the
    consumer worker computes micro-batch ``j`` for time ``T`` immediately
    after flow ``f_j`` lands.
    """

    distance: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.distance < math.inf:
            raise ValueError(
                f"stagger distance must be finite and >= 0, got {self.distance!r}"
            )

    def offset(self, index: int) -> float:
        if index < 0:
            raise IndexError(f"negative flow index {index}")
        return index * self.distance


@dataclass(frozen=True)
class PhasedArrangement(ArrangementFunction):
    """Eq. 7: FSDP's two-phase ramp over per-layer Coflows.

    For an ``n``-layer network, Coflows ``C_0 .. C_{n-1}`` belong to the
    forward phase and are spaced by ``T_fwd``; Coflows ``C_n .. C_{2n-1}``
    belong to the backward phase and are spaced by ``T_bwd``. The offset of
    Coflow ``i`` is therefore a piecewise-linear ramp. Indices here address
    *Coflows*; expanding member flows to a common per-Coflow ideal finish
    time is the job of :class:`~repro.core.echelonflow.EchelonFlow` with a
    ``coflow_of`` grouping.
    """

    layers: int
    forward_distance: float
    backward_distance: float

    def __post_init__(self) -> None:
        if self.layers <= 0:
            raise ValueError(f"layers must be positive, got {self.layers}")
        for name in ("forward_distance", "backward_distance"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(
                    f"phase distances must be finite and non-negative; "
                    f"{name} = {value!r}"
                )

    def offset(self, index: int) -> float:
        if index < 0:
            raise IndexError(f"negative flow index {index}")
        if index > 2 * self.layers - 1:
            raise IndexError(
                f"FSDP arrangement over {self.layers} layers has "
                f"{2 * self.layers} Coflows; index {index} is out of range"
            )
        forward_steps = min(index, self.layers - 1)
        backward_steps = max(0, index - (self.layers - 1))
        return (
            forward_steps * self.forward_distance
            + backward_steps * self.backward_distance
        )


@dataclass(frozen=True)
class TabledArrangement(ArrangementFunction):
    """Arbitrary profiled offsets, e.g. for 1F1B pipeline schedules.

    The paper notes that PP variants reorder computations but "relations
    between the data flows can also be expressed as an arrangement function,
    albeit more complicated than Eq. 6" -- this class is that escape hatch.
    """

    offsets: Sequence[float]

    def __post_init__(self) -> None:
        offsets = tuple(float(x) for x in self.offsets)
        object.__setattr__(self, "offsets", offsets)
        for j, value in enumerate(offsets):
            if not math.isfinite(value):
                raise ValueError(f"offsets must be finite; offsets[{j}] = {value!r}")
        for j in range(1, len(offsets)):
            if offsets[j] < offsets[j - 1] - EPS:
                raise ValueError(
                    f"offsets must be non-decreasing; "
                    f"offsets[{j}] = {offsets[j]} < offsets[{j - 1}] = {offsets[j - 1]}"
                )

    def offset(self, index: int) -> float:
        if index < 0:
            raise IndexError(f"negative flow index {index}")
        if index >= len(self.offsets):
            raise IndexError(
                f"arrangement table has {len(self.offsets)} entries; "
                f"index {index} is out of range"
            )
        return self.offsets[index]


def arrangement_from_compute_durations(durations: Sequence[float]) -> TabledArrangement:
    """Build an arrangement from profiled per-unit computation durations.

    Flow ``f_j`` feeds the computation unit that runs immediately after unit
    ``j-1``; its ideal finish time therefore trails the head flow by the sum
    of the first ``j`` computation durations (the "distances" of Fig. 6a).
    """
    for duration in durations:
        if not math.isfinite(duration):
            raise ValueError(f"computation durations must be finite, got {duration!r}")
    offsets = [0.0]
    total = 0.0
    for duration in durations[:-1] if durations else []:
        if duration < 0:
            raise ValueError(f"computation durations must be >= 0, got {duration}")
        total += duration
        offsets.append(total)
    return TabledArrangement(tuple(offsets))
