"""Flows: the unit of network scheduling.

A :class:`Flow` is a point-to-point data transfer between two hosts. It is
deliberately minimal -- source, destination, size -- plus bookkeeping for the
EchelonFlow it belongs to (``group_id`` and ``index_in_group``) so that
schedulers can recover the application-level semantics the paper's Agent
conveys (size, src, dst, and EchelonFlow membership; see Fig. 7).

Runtime transfer state (remaining bytes, current rate, actual start/finish
times) lives in :class:`FlowState`, owned by the network model, so that a
single :class:`Flow` description can be replayed under many schedulers.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .units import EPS


class FlowIdAllocator:
    """An explicit, scope-able flow-id sequence.

    Flow ids seed deterministic per-flow decisions (ECMP path hashing),
    so an experiment's outcome depends on the id sequence its flows drew
    from. Instead of one process-global counter, each experiment (and
    each forked :class:`~repro.simulator.engine.Engine`) owns an
    allocator: builds wrapped in :func:`use_flow_id_allocator` get ids
    starting from the allocator's position regardless of how many flows
    the process created before them -- order-independence by
    construction rather than by remembering to reset a global.

    The allocator is trivially snapshottable (one integer), which is
    what lets a forked engine hand out fresh non-colliding ids to
    what-if jobs while the parent keeps allocating from its own line.
    """

    __slots__ = ("next_id",)

    def __init__(self, next_id: int = 0) -> None:
        if next_id < 0:
            raise ValueError(f"next_id must be >= 0, got {next_id}")
        self.next_id = next_id

    def allocate(self) -> int:
        value = self.next_id
        self.next_id += 1
        return value

    def clone(self) -> "FlowIdAllocator":
        return FlowIdAllocator(self.next_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowIdAllocator<next={self.next_id}>"


#: The ambient allocator used by ``Flow()`` construction when no scope is
#: active. Module-level so legacy callers keep working unchanged.
_current_allocator = FlowIdAllocator()


def current_flow_id_allocator() -> FlowIdAllocator:
    """The allocator ``Flow()`` construction is currently drawing from."""
    return _current_allocator


@contextmanager
def use_flow_id_allocator(allocator: FlowIdAllocator) -> Iterator[FlowIdAllocator]:
    """Scope ``Flow()`` id allocation to ``allocator`` within the block."""
    global _current_allocator
    previous = _current_allocator
    _current_allocator = allocator
    try:
        yield allocator
    finally:
        _current_allocator = previous


def _next_flow_id() -> int:
    return _current_allocator.allocate()


@dataclass(frozen=True)
class Flow:
    """An immutable description of a point-to-point transfer.

    Parameters
    ----------
    src, dst:
        Host names in the topology. Must differ: a zero-hop "transfer"
        carries no network traffic and is modelled as a compute dependency
        instead.
    size:
        Payload in bytes; must be positive.
    group_id:
        Identifier of the EchelonFlow (or Coflow) this flow belongs to, or
        ``None`` for an ungrouped flow.
    index_in_group:
        Position ``j`` of this flow within its EchelonFlow; determines its
        ideal finish time ``d_j`` through the arrangement function.
    job_id:
        Identifier of the training job that emitted the flow (multi-tenant
        scheduling and reporting).
    tag:
        Free-form label for tracing ("fwd act mb=2 s0->s1", ...).
    """

    src: str
    dst: str
    size: float
    flow_id: int = field(default_factory=_next_flow_id)
    group_id: Optional[str] = None
    index_in_group: int = 0
    job_id: Optional[str] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.size < math.inf:
            raise ValueError(
                f"flow size must be positive and finite, got {self.size!r}"
            )
        if self.src == self.dst:
            raise ValueError(
                f"flow endpoints must differ, got src == dst == {self.src!r}"
            )

    @property
    def finish_epsilon(self) -> float:
        """Remaining-bytes threshold below which the flow counts as done.

        Relative tolerance: draining a multi-gigabyte flow at line rate
        accumulates float error well above any fixed absolute epsilon.
        The single definition is shared by :attr:`FlowState.finished` and
        the network model's finish-time index, so "who finishes when" can
        never disagree between the two.
        """
        return max(EPS, 1e-9 * self.size)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        group = f" [{self.group_id}#{self.index_in_group}]" if self.group_id else ""
        return f"Flow<{self.flow_id} {self.src}->{self.dst} {self.size:g}B{group}>"


@dataclass
class FlowState:
    """Mutable transfer state of one flow inside the network model."""

    flow: Flow
    start_time: float
    remaining: float
    rate: float = 0.0
    finish_time: Optional[float] = None
    #: Ideal finish time ``d_j`` assigned by the EchelonFlow machinery;
    #: ``None`` until the flow's group has a reference time.
    ideal_finish_time: Optional[float] = None

    @property
    def finished(self) -> bool:
        return self.remaining <= self.flow.finish_epsilon

    @property
    def transferred(self) -> float:
        return self.flow.size - self.remaining

    def advance(self, dt: float) -> None:
        """Drain ``rate * dt`` bytes. Clamps at zero remaining."""
        if dt < -EPS:
            raise ValueError(f"cannot advance by negative time {dt!r}")
        self.remaining = max(0.0, self.remaining - self.rate * dt)

    def time_to_finish(self) -> float:
        """Time until completion at the current rate (``inf`` if idle)."""
        if self.finished:
            return 0.0
        if self.rate <= EPS:
            return float("inf")
        return self.remaining / self.rate

    def tardiness_at(self, finish_time: float) -> float:
        """Flow tardiness (Def. 3.2, Eq. 1) for a given actual finish time.

        Tardiness may be negative when the flow beats its ideal finish time;
        the paper's objective only ever *minimizes the maximum*, so negative
        values are informative rather than rewarded.
        """
        if self.ideal_finish_time is None:
            raise ValueError(
                f"flow {self.flow.flow_id} has no ideal finish time assigned"
            )
        return finish_time - self.ideal_finish_time
