"""Independent reference implementations the test suite checks against.

These are deliberately naive: straight enumeration with none of the
structure the real code exploits, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

from recamp import (
    Assignment,
    CoverSystem,
    R3DMInstance,
    RecampaignInstance,
    X3CInstance,
    verify,
)


def matching_optimum(edges: list[tuple[int, int, int, int]]) -> tuple[int, int]:
    """(max cardinality, min weight among max-cardinality matchings)."""
    best_card, best_weight = 0, 0

    def grow(start: int, used: frozenset[tuple[str, int]], card: int, weight: int) -> None:
        nonlocal best_card, best_weight
        if card > best_card or (card == best_card and weight < best_weight):
            best_card, best_weight = card, weight
        for j in range(start, len(edges)):
            u, v, w, _ = edges[j]
            if ("L", u) not in used and ("R", v) not in used:
                grow(j + 1, used | {("L", u), ("R", v)}, card + 1, weight + w)

    grow(0, frozenset(), 0, 0)
    return best_card, best_weight


def b_matching_optimum(
    b_left: list[int], b_right: list[int], edges: list[tuple[int, int, int, int]]
) -> int | None:
    """Min weight of a perfect b-matching, or None when infeasible."""
    left, right = list(b_left), list(b_right)
    best: int | None = None

    def search(i: int, weight: int) -> None:
        nonlocal best
        if best is not None and weight >= best:
            return
        if i == len(edges):
            if not any(left) and not any(right):
                best = weight
            return
        u, v, w, multiplicity = edges[i]
        top = min(multiplicity, left[u], right[v])
        for use in range(top, -1, -1):
            left[u] -= use
            right[v] -= use
            search(i + 1, weight + use * w)
            left[u] += use
            right[v] += use

    search(0, 0)
    return best


def placement_scan(inst: RecampaignInstance) -> tuple[bool, int | None]:
    """(answer, min cost among valid placements) by checking every placement."""
    order = sorted(inst.additional)
    answer = False
    best_cost: int | None = None
    for digits in itertools.product(range(1, inst.k + 1), repeat=len(order)):
        report = verify(inst, Assignment(dict(zip(order, digits))))
        if report.valid:
            answer = True
            if report.total_cost is not None and (
                best_cost is None or report.total_cost < best_cost
            ):
                best_cost = report.total_cost
    return answer, best_cost


def exact_cover_scan(system: CoverSystem) -> bool:
    """Exact cover by one member per district, scanned member-by-member."""
    by_tag = defaultdict(list)
    for member in system.members:
        by_tag[member.district].append(member)
    tags = sorted(system.district_tags)
    if any(tag not in by_tag for tag in tags):
        return False
    want = frozenset(system.additional)
    for combo in itertools.product(*(by_tag[t] for t in tags)):
        placed = [a for member in combo for a in member.placed]
        if len(placed) != len(want) or frozenset(placed) != want:
            continue
        if sum(member.weight for member in combo) <= system.budget:
            return True
    return False


# ---------------------------------------------------------------------------
# Seeded random sources
# ---------------------------------------------------------------------------


def random_graph(
    rng: random.Random, max_side: int = 4, simple: bool = False
) -> tuple[int, int, list[tuple[int, int, int, int]]]:
    """(left size, right size, edges): each pair joined with chance 0.6."""
    n_left = rng.randint(0, max_side)
    n_right = rng.randint(0, max_side)
    edges = []
    for u in range(n_left):
        for v in range(n_right):
            if rng.random() < 0.6:
                mult = 1 if simple else rng.randint(1, 3)
                edges.append((u, v, rng.randint(0, 9), mult))
    return n_left, n_right, edges


def random_degrees(
    rng: random.Random, n_left: int, n_right: int
) -> tuple[list[int], list[int]]:
    return [rng.randint(0, 2) for _ in range(n_left)], [rng.randint(0, 2) for _ in range(n_right)]


def random_x3c(rng: random.Random, m: int, max_triples: int) -> X3CInstance:
    universe = [f"u{i}" for i in range(1, 3 * m + 1)]
    all_triples = list(itertools.combinations(universe, 3))
    count = rng.randint(0, min(max_triples, len(all_triples)))
    return X3CInstance(universe, rng.sample(all_triples, count))


def random_r3dm(rng: random.Random, k: int, triples_wanted: int) -> R3DMInstance:
    w = [f"w{i}" for i in range(1, k + 1)]
    x = [f"x{i}" for i in range(1, k + 1)]
    y = [f"y{i}" for i in range(1, k + 1)]
    occupancy: dict[str, int] = defaultdict(int)
    chosen: list[tuple[str, str, str]] = []
    attempts = 0
    while len(chosen) < triples_wanted and attempts < 200:
        attempts += 1
        triple = (rng.choice(w), rng.choice(x), rng.choice(y))
        if triple in chosen:
            continue
        if any(occupancy[e] >= 3 for e in triple):
            continue
        chosen.append(triple)
        for e in triple:
            occupancy[e] += 1
    return R3DMInstance(w, x, y, chosen)
