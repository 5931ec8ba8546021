"""Weighted bipartite matching engines on multigraphs.

Vertices are positions: the left side is 0, 1, ... and so is the right
side.  An edge is a `(left, right, weight, multiplicity)` tuple, and a
result reports `used`, the units taken of each edge, in input order.  Two
entry points, both exact:

- `min_cost_max_cardinality_matching`: a maximum-cardinality matching of
  minimum total weight.
- `min_weight_perfect_b_matching`: every vertex v matched with exactly b(v)
  incident edge units (parallel edges may be used up to their multiplicity),
  minimising total weight, or None when infeasible.

Both build one min-cost flow network and solve it by the primal-dual
method: a Dijkstra search over reduced costs reprices the nodes once per
distinct shortest-path length, then a blocking flow on the tight arcs
routes every shortest path of that length.  Weights must be nonnegative;
costs and potentials stay exact Python ints, so weights of any size are
exact.  Arcs are scanned in the input order of vertices and edges, so equal
inputs give equal results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .errors import ShapeError, is_int

__all__ = [
    "MatchingResult",
    "min_cost_max_cardinality_matching",
    "min_weight_perfect_b_matching",
]


@dataclass(frozen=True)
class MatchingResult:
    """The units used of each edge, in input order, with their total count
    and total weight."""

    used: tuple[int, ...]
    cardinality: int
    weight: int


Edges = Sequence[tuple[int, int, int, int]]


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

    def run(self, s: int, t: int, want: int) -> int:
        """Push flow from s to t, cheapest paths first, one reprice per
        path length.  Stops at max flow, or once `want` units are routed.
        Returns the flow."""
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


def _flow(b_left: Sequence[int], b_right: Sequence[int], edges: Edges) -> MatchingResult:
    """Build the flow network of a b-matching, push up to sum(b_left)
    units through it, cheapest first, and read back each edge's units.

    Node 0 is the source and node 1 the sink; left vertex u is node 2 + u
    and right vertex v node 2 + len(b_left) + v.  The source feeds u with
    b_left[u] units, v drains b_right[v] units into the sink, and edge j is
    arc 2 * (len(b_left) + j), of its multiplicity and weight.
    """
    for target in (*b_left, *b_right):
        if not is_int(target) or target < 0:
            raise ShapeError(f"degree target must be a nonnegative int, got {target!r}")
    n_left, n_right = len(b_left), len(b_right)
    net = _MinCostFlow(2 + n_left + n_right)
    for u, units in enumerate(b_left):
        net.add_arc(0, 2 + u, units, 0)
    for u, v, weight, multiplicity in edges:
        if not (is_int(u) and is_int(v) and 0 <= u < n_left and 0 <= v < n_right):
            raise ShapeError(f"edge {u!r}--{v!r} has an endpoint out of range")
        if not is_int(weight) or weight < 0:
            raise ShapeError(f"edge weight must be a nonnegative int, got {weight!r}")
        if not is_int(multiplicity) or multiplicity < 1:
            raise ShapeError(f"edge multiplicity must be an int >= 1, got {multiplicity!r}")
        net.add_arc(2 + u, 2 + n_left + v, multiplicity, weight)
    for v, units in enumerate(b_right):
        net.add_arc(2 + n_left + v, 1, units, 0)
    net.run(0, 1, sum(b_left))
    used = tuple(net.arc_flow(2 * (n_left + j)) for j in range(len(edges)))
    weight = sum(units * edge[2] for units, edge in zip(used, edges))
    return MatchingResult(used, sum(used), weight)


def min_cost_max_cardinality_matching(left: int, right: int, edges: Edges) -> MatchingResult:
    """A maximum-cardinality matching of minimum total weight between
    `left` and `right` vertices.

    Multiplicities are honoured (an edge may be picked several times) but
    each vertex is still matched at most once overall, so multiplicities
    beyond 1 only matter through `min_weight_perfect_b_matching`; they are
    capped here by the endpoint capacities.

    Raises:
        ShapeError: a side size is not a nonnegative int, or an edge is
            malformed as `min_weight_perfect_b_matching` says.
    """
    for size in (left, right):
        if not is_int(size) or size < 0:
            raise ShapeError(f"side size must be a nonnegative int, got {size!r}")
    return _flow([1] * left, [1] * right, edges)


def min_weight_perfect_b_matching(
    b_left: Sequence[int], b_right: Sequence[int], edges: Edges, cap: int
) -> MatchingResult | None:
    """Minimum-weight b-matching saturating every degree target, or None.

    Left vertex u must be incident to exactly b_left[u] chosen edge units
    and right vertex v to b_right[v]; the result is None when no such
    matching exists or the cheapest one weighs more than `cap`.

    Raises:
        ShapeError: `cap`, a degree target or an edge weight is not a
            nonnegative int; a multiplicity is not an int >= 1; or an
            endpoint is out of range.
    """
    if not is_int(cap) or cap < 0:
        raise ShapeError(f"cap must be a nonnegative int, got {cap!r}")
    result = _flow(b_left, b_right, edges)
    if not result.cardinality == sum(b_left) == sum(b_right) or result.weight > cap:
        return None
    return result
