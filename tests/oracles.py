"""Independent reference implementations the test suite checks against.

These are deliberately naive: straight enumeration with none of the
structure the real code exploits, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict

from recamp import (
    Assignment,
    CoverSystem,
    Exactly3ThreeDMInstance,
    OneInThreeSatInstance,
    R3DMInstance,
    RecampaignInstance,
    ResourceBudgetError,
    X3CInstance,
    verify,
)
from recamp.solvers import _resolve_budget


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
# Source problems by enumeration (referees for the exact-cover deciders)
# ---------------------------------------------------------------------------


def enumerate_x3c(inst: X3CInstance, node_budget: int | None = None) -> bool:
    """Is some subcollection of m pairwise-disjoint triples covering U?"""
    budget = _resolve_budget(node_budget)
    m = inst.m
    if m == 0:
        return True
    count = math.comb(len(inst.triples), m)
    if count > budget:
        raise ResourceBudgetError(f"{count} subcollections exceed the node budget {budget}")
    for combo in itertools.combinations(inst.triples, m):
        union = frozenset().union(*combo)
        if len(union) == 3 * m:
            return True
    return False


def enumerate_3dm(
    inst: R3DMInstance | Exactly3ThreeDMInstance, node_budget: int | None = None
) -> bool:
    """Is there a perfect matching: k triples, pairwise disjoint in every
    coordinate?"""
    budget = _resolve_budget(node_budget)
    k = inst.k
    if k == 0:
        return True
    count = math.comb(len(inst.triples), k)
    if count > budget:
        raise ResourceBudgetError(f"{count} subcollections exceed the node budget {budget}")
    for combo in itertools.combinations(inst.triples, k):
        ws = {t[0] for t in combo}
        xs = {t[1] for t in combo}
        ys = {t[2] for t in combo}
        if len(ws) == k and len(xs) == k and len(ys) == k:
            return True
    return False


def enumerate_e3sat(inst: OneInThreeSatInstance, node_budget: int | None = None) -> bool:
    """Is there an assignment with exactly one true literal per clause?"""
    budget = _resolve_budget(node_budget)
    n = len(inst.variables)
    if 2**n > budget:
        raise ResourceBudgetError(f"2^{n} assignments exceed the node budget {budget}")
    for bits in itertools.product((False, True), repeat=n):
        true_set = {v for v, b in zip(inst.variables, bits) if b}
        if all(len(c & true_set) == 1 for c in inst.clauses):
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


def random_x3c_repeating(rng: random.Random, m: int, max_extra: int) -> X3CInstance:
    """X3C over 3m elements: a planted cover half the time, then up to
    `max_extra` triples drawn with replacement, so triples may repeat."""
    universe = [f"u{i}" for i in range(1, 3 * m + 1)]
    family: list[tuple[str, ...]] = []
    if rng.random() < 0.5:
        order = rng.sample(universe, len(universe))
        family = [tuple(order[j:j + 3]) for j in range(0, 3 * m, 3)]
    all_triples = list(itertools.combinations(universe, 3))
    if all_triples:
        family += rng.choices(all_triples, k=rng.randint(0, max_extra))
    rng.shuffle(family)
    return X3CInstance(universe, family)


def random_e3sat(rng: random.Random, n: int) -> OneInThreeSatInstance:
    """Monotone one-in-three SAT over n variables (0 or at least 3), each in
    exactly three clauses; clauses may repeat."""
    variables = [f"x{i}" for i in range(1, n + 1)]
    slots = variables * 3
    while True:
        rng.shuffle(slots)
        clauses = [slots[j:j + 3] for j in range(0, 3 * n, 3)]
        if all(len(set(c)) == 3 for c in clauses):
            return OneInThreeSatInstance(variables, clauses)
