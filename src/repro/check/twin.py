"""The differential twin oracle: shadow-execute the reference allocator.

The incremental core keeps a retained full-scan reference mode
(``allocation="reference"``) proven bit-identical by offline equivalence
tests. The twin oracle turns that proof into an always-on detector: on a
sampled fraction of scheduler invocations it reconstructs the *reference*
network from the primary's materialized state, replays the (deep-copied)
scheduler against it, and demands rate-for-rate agreement with the
allocation the incremental path just produced.

Reconstruction, not mirroring: the twin network is built fresh per sampled
invocation from ``active_states()`` -- flows re-injected at their original
start times through the shared deterministic router (identical paths),
with ``remaining`` and ``ideal_finish_time`` copied from the primary's
synced states. That makes the oracle stateless between samples (nothing to
drift) and means a divergence can only come from the incremental machinery
feeding the scheduler stale state: exactly the bug class it hunts.

The scheduler is deep-copied so stateful wrappers (the memoizing cache,
profiling counters, coordinator logs) are not perturbed by the shadow
invocation; deterministic schedulers replay identically from equal state.

The twin's reconstruction also doubles as a *kernel* differential: by
default (``twin_kernel="scalar"``) it is rebuilt with
``allocation="reference"`` -- full scans and the scalar waterfilling
kernel -- regardless of the primary's allocation mode, so an engine
running the vectorized kernel (``allocation="vector"`` or auto-selected
at scale) gets a scalar-vs-vector cross-check on every sampled
invocation -- the two implementations must agree bit for bit under
``twin_tol=0``. Setting ``twin_kernel=vector`` flips the direction: the
twin is rebuilt with ``allocation="vector"`` and checked against a
scalar primary. The twin only injects, syncs and reads, and a freshly
rebuilt twin starts from zero link loads, so its mode changes which
kernel runs and nothing else.
"""

from __future__ import annotations

import copy
from typing import Dict, List

from ..scheduling.base import SchedulerView
from ..simulator.network import NetworkModel
from .config import CheckConfig
from .violations import Violation


class TwinOracle:
    """Compares incremental allocations against a reconstructed reference."""

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        #: Sampled invocations actually compared.
        self.comparisons = 0
        #: Sampled invocations skipped because the scheduler resisted
        #: deep-copying (exotic user schedulers holding live handles).
        self.skipped = 0

    def compare(self, engine, view: SchedulerView, rates: Dict[int, float]) -> List[Violation]:
        """Shadow-execute one invocation; returns twin-divergence violations."""
        try:
            scheduler = copy.deepcopy(engine.scheduler)
        except Exception as exc:  # pragma: no cover - exotic schedulers only
            self.skipped += 1
            return [
                Violation(
                    invariant="twin",
                    time=view.now,
                    message=(
                        "twin oracle could not deep-copy the scheduler; "
                        "sampled invocation skipped"
                    ),
                    details={"error": repr(exc)},
                )
            ]
        self.comparisons += 1
        reference = self._reconstruct(engine.network, view.now)
        twin_view = SchedulerView(
            now=view.now,
            network=reference,
            echelonflows=engine.echelonflows,
            trigger_cause=view.trigger_cause,
        )
        expected = scheduler.allocate(twin_view)
        return self._diff(view.now, rates, expected, engine.network)

    # ------------------------------------------------------------------

    def _reconstruct(self, network: NetworkModel, now: float) -> NetworkModel:
        """Build a reference-mode network holding the primary's flows.

        Each flow is re-injected with the primary's *pinned* path (not a
        freshly-routed one): under fault injection, routes may have been
        recomputed around blocked links since the flow was admitted, and a
        flow migrated by :meth:`NetworkModel.reroute_flows` must be
        replayed on the path it actually occupies. ``remaining`` and the
        cached ideal finish time are copied from the primary's synced
        states, so the twin sees the same bytes without replaying the
        drain history.
        """
        network.sync_active()
        reference = NetworkModel(
            network.topology,
            network.router,
            strict=False,
            allocation=(
                "vector" if self.config.twin_kernel == "vector" else "reference"
            ),
        )
        for state in network.active_states():
            flow_id = state.flow.flow_id
            twin_state = reference.inject(
                state.flow, state.start_time, path=network.path(flow_id)
            )
            twin_state.remaining = state.remaining
            twin_state.ideal_finish_time = state.ideal_finish_time
        reference.sync_active(now)
        return reference

    def _diff(
        self,
        now: float,
        actual: Dict[int, float],
        expected: Dict[int, float],
        network: NetworkModel,
    ) -> List[Violation]:
        """Rate-for-rate comparison over the active flows.

        Keys are compared through the engine's own semantics: a flow
        absent from an allocation idles at rate 0, so only active flows
        participate and a missing key equals an explicit zero.
        """
        tolerance = self.config.twin_tolerance
        violations: List[Violation] = []
        for state in network.active_states():
            flow_id = state.flow.flow_id
            got = actual.get(flow_id, 0.0)
            want = expected.get(flow_id, 0.0)
            if got == want:
                continue
            scale = max(abs(got), abs(want), 1e-12)
            if tolerance > 0.0 and abs(got - want) <= tolerance * scale:
                continue
            violations.append(
                Violation(
                    invariant="twin",
                    time=now,
                    message=(
                        f"incremental allocation diverges from the "
                        f"reference replay for flow {flow_id}"
                    ),
                    details={
                        "flow": flow_id,
                        "incremental_rate": got,
                        "reference_rate": want,
                        "relative_error": abs(got - want) / scale,
                    },
                )
            )
        return violations
