"""Weighted bipartite matching engines on multigraphs.

Two entry points, both exact:

- `min_cost_max_cardinality_matching`: a maximum-cardinality matching of
  minimum total weight.
- `min_weight_perfect_b_matching`: every vertex v matched with exactly b(v)
  incident edge units (parallel edges may be used up to their multiplicity),
  minimising total weight, or None when infeasible.

Both reduce to min-cost flow, solved by the primal-dual method: a
Dijkstra search over reduced costs reprices the nodes once per distinct
shortest-path length, then a blocking flow on the tight arcs routes every
shortest path of that length.  Weights must be nonnegative; costs and
potentials stay exact Python ints, so weights of any size are exact.  Arcs
are scanned in the input order of vertices and edges, so equal inputs give
equal results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ShapeError

__all__ = [
    "Edge",
    "BipartiteMultigraph",
    "MatchingResult",
    "min_cost_max_cardinality_matching",
    "min_weight_perfect_b_matching",
]


@dataclass(frozen=True)
class Edge:
    """An undirected weighted edge with a usage multiplicity."""

    left: str
    right: str
    weight: int
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.weight, int) or self.weight < 0:
            raise ShapeError(f"edge weight must be a nonnegative int, got {self.weight!r}")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise ShapeError(
                f"edge multiplicity must be an int >= 1, got {self.multiplicity!r}"
            )


@dataclass(frozen=True)
class BipartiteMultigraph:
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(
        self, left: Iterable[str], right: Iterable[str], edges: Iterable[Edge] = ()
    ) -> None:
        object.__setattr__(self, "left", tuple(left))
        object.__setattr__(self, "right", tuple(right))
        object.__setattr__(self, "edges", tuple(edges))
        if len(set(self.left)) != len(self.left) or len(set(self.right)) != len(self.right):
            raise ShapeError("vertex ids repeat within a side")
        if set(self.left) & set(self.right):
            raise ShapeError("left and right vertex ids must be disjoint")
        lset, rset = set(self.left), set(self.right)
        for e in self.edges:
            if e.left not in lset or e.right not in rset:
                raise ShapeError(f"edge {e.left}--{e.right} has an unknown endpoint")


@dataclass(frozen=True)
class MatchingResult:
    """Chosen edges with how many units of each were used."""

    chosen: tuple[tuple[Edge, int], ...]
    cardinality: int
    weight: int


class _MinCostFlow:
    """Primal-dual min-cost flow (Ahuja, Magnanti and Orlin, *Network
    Flows*, 1993, §9.8) on arcs of nonnegative cost.

    `potential` is kept after `run`: every arc with residual capacity has
    a reduced cost cost + potential[tail] - potential[head] >= 0, which
    certifies that the flow is the cheapest of its value.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.potential = [0] * n

    def add_arc(self, u: int, v: int, cap: int, cost: int) -> int:
        arc = len(self.to)
        self.head[u].append(arc)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(arc + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return arc

    def run(self, s: int, t: int, want: int | None = None) -> int:
        """Push flow from s to t, cheapest paths first, one reprice per
        path length.  Stops at max flow, or once `want` units are routed.
        Returns the flow."""
        if want is None:
            want = sum(self.cap[arc] for arc in self.head[s])
        flow = 0
        while flow < want and self._reprice(s, t):
            flow += self._block(s, t, want - flow)
        return flow

    def _reprice(self, s: int, t: int) -> bool:
        """Dijkstra on reduced costs, stopped once t is settled; each
        potential then rises by min(dist(v), dist(t)), which keeps every
        residual arc's reduced cost >= 0 and makes the shortest s-t paths
        tight.  False, with the potentials unchanged, if t is unreachable."""
        head, to, cap, cost, pot = self.head, self.to, self.cap, self.cost, self.potential
        dist: list[int | None] = [None] * self.n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == t:
                break
            if d > dist[u]:
                continue
            base = d + pot[u]
            for arc in head[u]:
                if cap[arc] > 0:
                    v = to[arc]
                    nd = base + cost[arc] - pot[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
        else:
            return False
        for v, dv in enumerate(dist):
            pot[v] += d if dv is None or dv > d else dv
        return True

    def _block(self, s: int, t: int, room: int) -> int:
        """Dinic on the tight arcs (capacity left, reduced cost 0): a BFS
        level graph, then depth-first augmentations along current-arc
        pointers, until t leaves the tight subgraph or `room` units are
        pushed.  Returns the units pushed."""
        head, to, cap, cost, pot = self.head, self.to, self.cap, self.cost, self.potential
        pushed = 0
        while pushed < room:
            level = [-1] * self.n
            level[s] = 0
            forward: list[Sequence[int]] = [()] * self.n
            queue = [s]
            for u in queue:  # every tight arc one level up, in head order
                if level[u] == level[t]:
                    break  # no shortest path runs past t's level
                up, pu, ups = level[u] + 1, pot[u], []
                forward[u] = ups
                for arc in head[u]:
                    if cap[arc] > 0 and cost[arc] + pu == pot[to[arc]]:
                        v = to[arc]
                        if level[v] < 0:
                            level[v] = up
                            queue.append(v)
                        if level[v] == up:
                            ups.append(arc)
            if level[t] < 0:
                break
            nxt = [0] * self.n
            path: list[int] = []
            u = s
            while pushed < room:
                if u == t:
                    push = min(room - pushed, min(cap[arc] for arc in path))
                    for arc in path:
                        cap[arc] -= push
                        cap[arc ^ 1] += push
                    pushed += push
                    path.clear()
                    u = s
                    continue
                arcs, i = forward[u], nxt[u]
                while i < len(arcs) and not cap[arcs[i]]:
                    i += 1
                nxt[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif u == s:
                    break
                else:
                    u = to[path.pop() ^ 1]
                    nxt[u] += 1
        return pushed

    def arc_flow(self, arc: int) -> int:
        return self.cap[arc ^ 1]


def _index_graph(g: BipartiteMultigraph) -> tuple[dict[str, int], dict[str, int], int]:
    left_ix = {name: 2 + i for i, name in enumerate(g.left)}
    right_ix = {name: 2 + len(g.left) + i for i, name in enumerate(g.right)}
    return left_ix, right_ix, 2 + len(g.left) + len(g.right)


def _collect(g: BipartiteMultigraph, net: _MinCostFlow, arc_of: list[int]) -> MatchingResult:
    chosen = []
    cardinality = 0
    weight = 0
    for e, arc in zip(g.edges, arc_of):
        used = net.arc_flow(arc)
        if used > 0:
            chosen.append((e, used))
            cardinality += used
            weight += used * e.weight
    return MatchingResult(tuple(chosen), cardinality, weight)


def min_cost_max_cardinality_matching(g: BipartiteMultigraph) -> MatchingResult:
    """A maximum-cardinality matching of minimum total weight.

    Multiplicities are honoured (an edge may be picked several times) but
    each vertex is still matched at most once overall, so multiplicities
    beyond 1 only matter through `min_weight_perfect_b_matching`; they are
    capped here by the endpoint capacities.
    """
    left_ix, right_ix, n = _index_graph(g)
    net = _MinCostFlow(n)
    for name, ix in left_ix.items():
        net.add_arc(0, ix, 1, 0)
    arc_of = []
    for e in g.edges:
        arc_of.append(net.add_arc(left_ix[e.left], right_ix[e.right], e.multiplicity, e.weight))
    for name, ix in right_ix.items():
        net.add_arc(ix, 1, 1, 0)
    net.run(0, 1)
    return _collect(g, net, arc_of)


def min_weight_perfect_b_matching(
    g: BipartiteMultigraph, b: Mapping[str, int], cap: int
) -> MatchingResult | None:
    """Minimum-weight b-matching saturating every degree target, or None.

    Every vertex v must be incident to exactly b(v) chosen edge units; the
    result is None when no such matching exists or the cheapest one weighs
    more than `cap`.

    Raises:
        ShapeError: `b` names an unknown vertex, misses one, or has a
            negative target; or `cap` is not a nonnegative int.
    """
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise ShapeError(f"cap must be a nonnegative int, got {cap!r}")
    vertices = set(g.left) | set(g.right)
    for name in b:
        if name not in vertices:
            raise ShapeError(f"degree constraint names unknown vertex {name!r}")
    for name in vertices:
        if name not in b:
            raise ShapeError(f"degree constraint missing for vertex {name!r}")
        if not isinstance(b[name], int) or b[name] < 0:
            raise ShapeError(f"degree target for {name!r} must be a nonnegative int")

    need_left = sum(b[name] for name in g.left)
    need_right = sum(b[name] for name in g.right)
    if need_left != need_right:
        return None

    left_ix, right_ix, n = _index_graph(g)
    net = _MinCostFlow(n)
    for name, ix in left_ix.items():
        net.add_arc(0, ix, b[name], 0)
    arc_of = []
    for e in g.edges:
        arc_of.append(net.add_arc(left_ix[e.left], right_ix[e.right], e.multiplicity, e.weight))
    for name, ix in right_ix.items():
        net.add_arc(ix, 1, b[name], 0)
    if net.run(0, 1, want=need_left) < need_left:
        return None
    result = _collect(g, net, arc_of)
    if result.weight > cap:
        return None
    return result
