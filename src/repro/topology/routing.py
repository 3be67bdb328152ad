"""Routing: turn (src, dst) host pairs into link paths.

Flow scheduling allocates rates on links along a fixed path, so routes are
computed once per topology and cached: one BFS per source builds a
shortest-path DAG, and each (src, dst) pair then enumerates its paths over
only the destination's ancestors in that DAG. Two policies:

* :class:`ShortestPathRouter` -- deterministic shortest path (ties broken by
  node name for reproducibility).
* :class:`EcmpRouter` -- equal-cost multi-path; picks among shortest paths by
  a stable hash of the flow id, approximating per-flow ECMP spraying.

Both return paths as tuples of :class:`~repro.topology.graph.Link`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .graph import Link, Topology


class RoutingError(Exception):
    """Raised when no path exists between requested endpoints."""


#: A shortest-path DAG rooted at one source: hop distance and the
#: predecessor list of every node the source reaches.
_Dag = Tuple[Dict[str, int], Dict[str, List[str]]]


def _shortest_path_dag(
    topo: Topology, src: str, blocked: FrozenSet[Tuple[str, str]]
) -> _Dag:
    """One full BFS from ``src``; links keyed in ``blocked`` are absent."""
    dist: Dict[str, int] = {src: 0}
    preds: Dict[str, List[str]] = {src: []}
    frontier = [src]
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            level = dist[node] + 1
            for link in topo.out_links(node):
                if blocked and link.key in blocked:
                    continue
                nxt = link.dst
                seen = dist.get(nxt)
                if seen is None:
                    dist[nxt] = level
                    preds[nxt] = [node]
                    next_frontier.append(nxt)
                elif seen == level:
                    preds[nxt].append(node)
        frontier = next_frontier
    return dist, preds


def _enumerate_paths(
    topo: Topology, dag: _Dag, src: str, dst: str, limit: int
) -> List[Tuple[Link, ...]]:
    """The ``limit`` shortest paths src -> dst that come first in
    lexicographic order of their node names, as link tuples.

    Walks only the subgraph of ``dst``'s ancestors in the DAG, so every
    branch taken ends at ``dst``; successors are visited in name order,
    which keeps tie-breaking deterministic.
    """
    dist, preds = dag
    if dst not in dist:
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    link = topo.link
    # A lone chain of predecessors back to src is the only shortest path.
    chain: List[Link] = []
    node = dst
    while node != src:
        nodes = preds[node]
        if len(nodes) != 1:
            break
        pred = nodes[0]
        chain.append(link(pred, node))
        node = pred
    else:
        chain.reverse()
        return [tuple(chain)]
    # Successors toward dst of every ancestor of dst.
    succ: Dict[str, List[str]] = {}
    stack = [dst]
    while stack:
        node = stack.pop()
        for pred in preds[node]:
            nexts = succ.get(pred)
            if nexts is None:
                succ[pred] = [node]
                stack.append(pred)
            else:
                nexts.append(node)
    for nexts in succ.values():
        nexts.sort()
    paths: List[Tuple[Link, ...]] = []
    path: List[Link] = []

    def extend(node: str) -> None:
        if len(paths) >= limit:
            return
        if node == dst:
            paths.append(tuple(path))
            return
        for nxt in succ[node]:
            path.append(link(node, nxt))
            extend(nxt)
            path.pop()

    extend(src)
    return paths


def _translate_path(
    topo: Topology, path: Sequence[Link]
) -> Tuple[Link, ...]:
    """Re-key a link path onto another topology's link objects."""
    return tuple(topo.link(link.src, link.dst) for link in path)


class _CachedRouter:
    """Shared route caching and blocked-link bookkeeping for the routers.

    Each router caches resolved routes per (src, dst) pair and one
    shortest-path DAG per source (:func:`_shortest_path_dag`), so a
    source's BFS runs once and every pair from it costs only a walk over
    the destination's ancestors.

    Blocking a link excludes it from every subsequently computed path (downed
    links during fault injection); already-admitted flows keep their pinned
    paths until explicitly migrated. Both operations clear every cache.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cache: Dict[Tuple[str, str], object] = {}
        #: source -> shortest-path DAG avoiding the blocked links, and
        #: source -> DAG of the full graph (the degraded fallback).
        self._dags: Dict[str, _Dag] = {}
        self._open_dags: Dict[str, _Dag] = {}
        self._blocked: Set[Tuple[str, str]] = set()

    def _fork_state(self, twin: "_CachedRouter") -> None:
        """Carry the blocked set and the DAG caches (node names only, valid
        on any clone) over to a router built on a cloned topology."""
        twin._blocked = set(self._blocked)
        twin._dags = dict(self._dags)
        twin._open_dags = dict(self._open_dags)

    def _routes(self, src: str, dst: str, limit: int) -> List[Tuple[Link, ...]]:
        """Prefer paths that avoid blocked links; fall back to ignoring them.

        When an outage disconnects a host pair entirely (single-path fabrics,
        or every equal-cost path down), flows admitted during the outage still
        need a pinned route: they take the downed path and stall at zero
        capacity until the link restores -- the same stranded semantics
        in-flight flows get -- rather than failing admission.
        """
        topo = self.topology
        dag = self._dags.get(src)
        if dag is None:
            dag = _shortest_path_dag(topo, src, frozenset(self._blocked))
            self._dags[src] = dag
        try:
            return _enumerate_paths(topo, dag, src, dst, limit)
        except RoutingError:
            if not self._blocked:
                raise
        dag = self._open_dags.get(src)
        if dag is None:
            dag = self._open_dags[src] = _shortest_path_dag(topo, src, frozenset())
        return _enumerate_paths(topo, dag, src, dst, limit)

    def _invalidate(self) -> None:
        self._cache.clear()
        self._dags.clear()
        self._open_dags.clear()

    def block_links(self, keys) -> None:
        changed = False
        for key in keys:
            key = tuple(key)
            if key not in self._blocked:
                self._blocked.add(key)
                changed = True
        if changed:
            self._invalidate()

    def unblock_links(self, keys) -> None:
        changed = False
        for key in keys:
            key = tuple(key)
            if key in self._blocked:
                self._blocked.discard(key)
                changed = True
        if changed:
            self._invalidate()

    @property
    def blocked_links(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(self._blocked)


class ShortestPathRouter(_CachedRouter):
    """Deterministic single shortest path per host pair, cached."""

    def fork(self, topology: Topology) -> "ShortestPathRouter":
        """An equivalent router over a cloned topology.

        The blocked-link set and DAG cache carry over (keys are node
        names, valid on any clone); the path cache is translated
        link-by-link so the fork serves identical routes without
        recomputation.
        """
        twin = ShortestPathRouter(topology)
        self._fork_state(twin)
        twin._cache = {
            pair: _translate_path(topology, path)
            for pair, path in self._cache.items()
        }
        return twin

    def path(self, src: str, dst: str, flow_id: Optional[int] = None) -> Tuple[Link, ...]:
        key = (src, dst)
        path = self._cache.get(key)
        if path is None:
            self.topology.validate_endpoints(src, dst)
            path = self._cache[key] = self._routes(src, dst, 1)[0]
        return path


class EcmpRouter(_CachedRouter):
    """Flow-hashed equal-cost multi-path routing.

    All shortest paths between a host pair are enumerated once; a given flow
    always hashes to the same path, matching switch ECMP behaviour where a
    flow's five-tuple pins its path for its lifetime.
    """

    def __init__(self, topology: Topology, fanout_limit: int = 16) -> None:
        super().__init__(topology)
        self.fanout_limit = fanout_limit

    def fork(self, topology: Topology) -> "EcmpRouter":
        """An equivalent router over a cloned topology (see
        :meth:`ShortestPathRouter.fork`); candidate lists keep their
        order so flow-id hashing picks the same path on the fork."""
        twin = EcmpRouter(topology, fanout_limit=self.fanout_limit)
        self._fork_state(twin)
        twin._cache = {
            pair: [_translate_path(topology, path) for path in paths]
            for pair, paths in self._cache.items()
        }
        return twin

    def paths(self, src: str, dst: str) -> List[Tuple[Link, ...]]:
        key = (src, dst)
        if key not in self._cache:
            self.topology.validate_endpoints(src, dst)
            self._cache[key] = self._routes(src, dst, self.fanout_limit)
        return self._cache[key]

    def path(self, src: str, dst: str, flow_id: Optional[int] = None) -> Tuple[Link, ...]:
        candidates = self.paths(src, dst)
        if flow_id is None:
            return candidates[0]
        # A deterministic small-prime hash keeps runs reproducible across
        # processes (unlike built-in hash() with randomized seeds for str).
        index = (flow_id * 2654435761) % len(candidates)
        return candidates[index]


def widest_bottleneck(path: Sequence[Link]) -> float:
    """The minimum capacity along a path: a single flow's max rate."""
    if not path:
        raise ValueError("empty path has no bottleneck")
    return min(link.capacity for link in path)
