"""Dense-array (numpy) kernels for the allocation hot path.

The scalar progressive-filling kernel in :mod:`repro.simulator.allocation`
costs O(flows x path length) python bytecode per water-filling round. At
100k+ concurrent flows that loop *is* the simulation. This module interns
flow ids and links into dense index arrays -- flow -> row, link -> column,
with the (flow, link) incidence stored as parallel ``rows``/``cols``
arrays in CSR-entry order -- and re-expresses every round as a handful of
numpy array operations with a saturation loop over links.

Bit-identity contract
---------------------

The vector kernel is *proven bit-identical* to the scalar one (see
``tests/test_check_allocation_properties.py``), not merely close. The
scalar and vector paths are written against one shared reduction order:

* Per-link weight sums and per-link consumption are accumulated in
  **incidence-entry order** -- demands in first-occurrence order, path
  positions within a demand in path order. ``np.bincount`` accumulates
  its weights sequentially in exactly that entry order (a plain C loop,
  no pairwise splitting), and the scalar kernel accumulates its dicts in
  the same (flow, path position) order, so the partial sums agree float
  for float.
* Frozen flows participate in the vector sums with weight exactly
  ``0.0``. Adding ``+0.0`` terms to a partial sum of non-negative values
  is an exact no-op in IEEE arithmetic, so skipping frozen flows (scalar)
  and zero-weighting them (vector) produce the same bits.
* The water-level rise is a ``min`` over per-link quotients and per-flow
  cap headrooms; ``min`` is order-independent for non-NaN floats, and
  both kernels form the identical quotients from identical operands.
* Residual capacities are decremented once per round by the round's
  per-link consumption sum, then clamped at zero -- the scalar kernel is
  structured the same way (one subtraction per link per round), so the
  float association matches by construction.

The scalar kernels remain the single source of semantics.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.units import EPS

#: Active-flow count at which ``allocation="auto"`` engines switch to the
#: array paths: the max-min kernel and echelon MADD's warm stage table.
#: Below it the array builds and interning outweigh the loop savings;
#: above it the scalar per-flow loops dominate the run. Warm whole-run
#: timings put both crossovers below 256 flows (docs/performance.md,
#: "Mode selection"). The paths are bit-identical, so the threshold only
#: affects speed, never results.
VECTOR_AUTO_THRESHOLD = 256


class DenseIncidence:
    """Flow/link interning of one demand set into dense index arrays.

    Rows are demands in first-occurrence order (duplicate flow ids keep
    the first row, last demand's content -- mirroring the scalar kernel's
    ``{d.flow_id: d for d in demands}`` dedupe). Columns are links in
    first-touch order. The (flow, link) incidence is two parallel int
    arrays ``rows``/``cols`` whose entry order -- demand order, then path
    position -- is the canonical reduction order both kernels share.

    ``Link`` objects are held by reference and their capacities re-read
    per kernel call, so runtime capacity mutation (fault injection) never
    stales an incidence; only structural changes (inject/retire/reroute)
    require a rebuild, which the network's revision-keyed cache handles.
    """

    __slots__ = (
        "demands",
        "fids",
        "row_of",
        "links",
        "col_of",
        "rows",
        "cols",
        "weights",
        "caps",
        "capped_rows",
        "n_flows",
        "n_links",
    )

    def __init__(self, demands: Sequence) -> None:
        deduped: List = list(demands)
        row_of: Dict[int, int] = {
            demand.flow_id: row for row, demand in enumerate(deduped)
        }
        if len(row_of) != len(deduped):
            # Rare duplicate-fid path (ad-hoc demand lists only; network
            # demand sets are keyed by live flow): first row, last content.
            row_of = {}
            merged: List = []
            for demand in deduped:
                row = row_of.get(demand.flow_id)
                if row is None:
                    row_of[demand.flow_id] = len(merged)
                    merged.append(demand)
                else:
                    merged[row] = demand
            deduped = merged
        self.demands = deduped
        self.row_of = row_of
        self.n_flows = len(deduped)

        links: List = []
        col_of: Dict[Tuple[str, str], int] = {}
        rows: List[int] = []
        cols: List[int] = []
        intern_col = col_of.setdefault
        for row, demand in enumerate(deduped):
            path = demand.path
            rows.extend([row] * len(path))
            for link in path:
                col = intern_col(link.key, len(links))
                if col == len(links):
                    links.append(link)
                cols.append(col)
        self.links = links
        self.col_of = col_of
        self.n_links = len(links)

        self.fids = np.array([d.flow_id for d in deduped], dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.weights = np.array([d.weight for d in deduped], dtype=np.float64)
        self.caps = np.array(
            [float("inf") if d.cap is None else d.cap for d in deduped],
            dtype=np.float64,
        )
        self.capped_rows = np.nonzero(np.isfinite(self.caps))[0]

    def link_capacities_array(
        self, available: Optional[Mapping[Tuple[str, str], float]] = None
    ) -> "np.ndarray":
        """Per-column capacities, re-read live from the Link objects.

        ``available`` overrides individual links (the scalar kernel's
        ``available`` mapping); links absent from it fall back to their
        current capacity, exactly like the scalar setdefault pass.
        """
        caps = np.fromiter(
            (link.capacity for link in self.links),
            dtype=np.float64,
            count=self.n_links,
        )
        if available:
            for key, value in available.items():
                col = self.col_of.get(key)
                if col is not None:
                    caps[col] = value
        return caps


class VectorAllocation(MappingABC):
    """A rate allocation backed by a dense array, aligned to an incidence.

    Quacks like the ``Dict[int, float]`` every scalar consumer expects
    (``get``/``items``/iteration yield python floats), while the network's
    bulk ``set_rates`` path grabs the raw array without any per-flow dict
    traffic when the incidence still matches its live flow set.
    """

    __slots__ = ("incidence", "array", "_floats")

    def __init__(self, incidence: DenseIncidence, array) -> None:
        self.incidence = incidence
        self.array = array
        #: Lazily materialized python-float view (tolist is exact).
        self._floats: Optional[List[float]] = None

    def _values(self) -> List[float]:
        if self._floats is None:
            self._floats = self.array.tolist()
        return self._floats

    def __getitem__(self, flow_id: int) -> float:
        return self._values()[self.incidence.row_of[flow_id]]

    def get(self, flow_id: int, default: float = None) -> float:
        row = self.incidence.row_of.get(flow_id)
        if row is None:
            return default
        return self._values()[row]

    def __iter__(self) -> Iterator[int]:
        return iter(self.incidence.row_of)

    def __len__(self) -> int:
        return self.incidence.n_flows

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self.incidence.row_of

    def items(self):
        return zip(self.incidence.fids.tolist(), self._values())

    def keys(self):
        return self.incidence.row_of.keys()

    def values(self):
        return self._values()

    def copy(self) -> Dict[int, float]:
        """A plain-dict copy (python floats throughout)."""
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorAllocation({self.incidence.n_flows} flows)"


def max_min_fair_vector(
    incidence: DenseIncidence,
    available: Optional[Mapping[Tuple[str, str], float]] = None,
) -> VectorAllocation:
    """Weighted max-min fair rates, vectorized; bit-identical to scalar.

    The saturation loop runs over *links*: each round computes the
    water-level rise from per-link residuals and weight sums (one
    ``bincount`` each), applies it to every unfrozen flow at once, and
    freezes the flows that hit a saturated link or their cap. The
    reduction order matches the scalar kernel's exactly (module
    docstring), so the returned rates agree bit for bit.
    """
    n = incidence.n_flows
    rows = incidence.rows
    cols = incidence.cols
    n_links = incidence.n_links

    remaining = incidence.link_capacities_array(available)
    rates = np.zeros(n, dtype=np.float64)
    weights = incidence.weights
    #: Live weights: zeroed as flows freeze. The zero entries keep the
    #: bincount sums bit-identical to the scalar kernel's skip-the-frozen
    #: accumulation (exact +0.0 terms).
    live = weights.copy()
    active = np.ones(n, dtype=bool)
    caps = incidence.caps
    capped_rows = incidence.capped_rows

    while active.any():
        entry_w = live[rows]
        link_weight = np.bincount(cols, weights=entry_w, minlength=n_links)
        constrained = link_weight > 0.0
        rise = float("inf")
        if constrained.any():
            rise = float(
                np.min(remaining[constrained] / link_weight[constrained])
            )
        act_capped = capped_rows[active[capped_rows]]
        if act_capped.size:
            heads = (caps[act_capped] - rates[act_capped]) / weights[act_capped]
            rise = min(rise, float(np.min(heads)))
        if rise == float("inf"):
            raise RuntimeError("unbounded max-min allocation (no constraints)")
        rise = max(0.0, rise)

        rates = rates + rise * live
        consumed = np.bincount(cols, weights=rise * entry_w, minlength=n_links)
        residual = remaining - consumed
        remaining = np.where(residual > 0.0, residual, 0.0)

        link_full = remaining <= EPS
        full_entries = link_full[cols]
        on_full = np.zeros(n, dtype=bool)
        if full_entries.any():
            on_full = np.bincount(rows[full_entries], minlength=n) > 0
        at_cap = np.zeros(n, dtype=bool)
        if act_capped.size:
            at_cap[act_capped] = rates[act_capped] >= caps[act_capped] - EPS
        newly = active & (on_full | at_cap)
        if not newly.any():
            # Numerical corner: force-freeze the lowest active flow id,
            # matching the scalar kernel's ``min(active)``.
            act_idx = np.nonzero(active)[0]
            newly = np.zeros(n, dtype=bool)
            newly[act_idx[np.argmin(incidence.fids[act_idx])]] = True
        active &= ~newly
        live[newly] = 0.0

    return VectorAllocation(incidence, rates)


def feasible_vector(
    incidence: DenseIncidence,
    rates: Mapping[int, float],
    tolerance: float = 1e-6,
) -> bool:
    """Array form of :func:`repro.simulator.allocation.feasible`.

    Feasibility is a tolerance-gated boolean, so summation association is
    immaterial here (unlike the max-min kernel); the semantics -- missing
    flows idle at 0, per-flow caps, per-link capacity with relative plus
    absolute slack -- match the scalar check exactly.
    """
    if isinstance(rates, VectorAllocation) and rates.incidence is incidence:
        arr = rates.array
    else:
        arr = np.fromiter(
            (rates.get(d.flow_id, 0.0) for d in incidence.demands),
            dtype=np.float64,
            count=incidence.n_flows,
        )
    if (arr < -tolerance).any():
        return False
    capped = incidence.capped_rows
    if capped.size and (arr[capped] > incidence.caps[capped] + tolerance).any():
        return False
    usage = np.bincount(
        incidence.cols, weights=arr[incidence.rows], minlength=incidence.n_links
    )
    caps = incidence.link_capacities_array()
    return not (usage > caps * (1.0 + tolerance) + tolerance).any()
