"""Reference deciders, written apart from the program under test.

Nothing here imports `recamp`.  Instances are plain data (`Plain`): a rule
spelled as a tuple, districts as (own candidates, ballots over own + A), the
sorted additional candidates, a winner bound (None when unbounded) and
optional prices with a budget.  The winner function below is the benchmark's
own reading of every rule; the deciders built on it are

- `subset_dp`: dynamic programming over (district, covered mask), for the
  unbounded scan workload and the bounded X3C cross-check;
- `placement_scan`: every placement of A into the districts, for the small
  route-mix instances and for the self-check of everything else;
- `matching_min_cost` / `bmatching_min_cost`: minimum cost through
  `scipy.optimize.linear_sum_assignment`, for the large polynomial-route
  instances;
- `x3c_has_cover` / `sat_one_in_three`: exact-cover checks on the sources.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

Rule = tuple  # ("approval", t) | ("veto", t) | ("borda",) | ("trivial",)
#               | ("explicit", vectors) | ("condorcet",) | ("e1",) | ("e2",)

@dataclass(frozen=True)
class Plain:
    rule: Rule
    districts: tuple[tuple[tuple[str, ...], tuple[tuple[str, ...], ...]], ...]
    additional: tuple[str, ...]
    bound: int | None
    prices: Mapping[tuple[int, str], int] | None = None
    budget: int | None = None

    @property
    def k(self) -> int:
        return len(self.districts)

    def price(self, district: int, candidate: str) -> int:
        return 0 if self.prices is None else self.prices[(district, candidate)]


# ---------------------------------------------------------------------------
# Winners
# ---------------------------------------------------------------------------


def score_vector(rule: Rule, m: int) -> tuple[int, ...]:
    kind = rule[0]
    if kind == "approval":
        top = min(rule[1], m)
        return (1,) * top + (0,) * (m - top)
    if kind == "veto":
        top = max(0, m - rule[1])
        return (1,) * top + (0,) * (m - top)
    if kind == "borda":
        return tuple(range(m - 1, -1, -1))
    if kind == "trivial":
        return (0,) * m
    if kind == "explicit":
        return tuple(rule[1][m - 1]) if m else ()
    raise ValueError(f"not a scoring rule: {rule!r}")


def winners(rule: Rule, candidates: Sequence[str], ballots: Sequence[Sequence[str]]) -> frozenset[str]:
    """Winner set of the election on `candidates`.

    `ballots` are orders over a superset of the candidates (a district's
    whole pool); each is read restricted to `candidates`."""
    kind = rule[0]
    m = len(candidates)
    if kind == "e1":
        return frozenset(candidates) if m == 3 else frozenset()
    if kind == "e2":
        if m >= 4:
            return frozenset(candidates)
        return winners(("approval", 1), candidates, ballots)
    if kind == "condorcet":
        # Restricting a ballot keeps the relative order of what is left.
        for c in candidates:
            if all(
                2 * sum(1 for b in ballots if b.index(c) < b.index(d)) > len(ballots)
                for d in candidates
                if d != c
            ):
                return frozenset((c,))
        return frozenset()
    if m == 0:
        return frozenset()
    vec = score_vector(rule, m)
    # Positions from `live` on score 0, so a ballot is read no further.
    live = max((j + 1 for j, v in enumerate(vec) if v), default=0)
    score = dict.fromkeys(candidates, 0)
    for b in ballots:
        pos = 0
        for c in b:
            if pos == live:
                break
            if c in score:
                score[c] += vec[pos]
                pos += 1
    top = max(score.values())
    return frozenset(c for c, s in score.items() if s == top)


def accepts(inst: Plain, d: int, placed: Sequence[str]) -> bool:
    """Does district `d` (0-based) accept exactly the set `placed`?"""
    if not placed:
        return True
    own, ballots = inst.districts[d]
    won = winners(inst.rule, tuple(own) + tuple(placed), ballots)
    if not set(placed) <= won:
        return False
    return inst.bound is None or len(won) <= inst.bound


def check_witness(inst: Plain, placement: Mapping[str, int]) -> int:
    """Re-check a YES witness (1-based districts); return its cost.

    Raises ValueError naming the first condition the witness breaks."""
    if set(placement) != set(inst.additional):
        raise ValueError("witness does not place exactly the additional candidates")
    groups: dict[int, list[str]] = {}
    for a, i in placement.items():
        if not 1 <= i <= inst.k:
            raise ValueError(f"witness sends {a} to district {i}")
        groups.setdefault(i, []).append(a)
    for i, placed in groups.items():
        if not accepts(inst, i - 1, placed):
            raise ValueError(f"district {i} rejects {sorted(placed)}")
    cost = sum(inst.price(i, a) for a, i in placement.items())
    if inst.budget is not None and cost > inst.budget:
        raise ValueError(f"witness costs {cost} over budget {inst.budget}")
    return cost


# ---------------------------------------------------------------------------
# Exact deciders
# ---------------------------------------------------------------------------


def _mask_members(order: Sequence[str], mask: int) -> tuple[str, ...]:
    return tuple(order[j] for j in range(len(order)) if mask >> j & 1)


def subset_dp(inst: Plain) -> tuple[bool, int | None]:
    """(answer, minimum cost of a valid placement or None) by a DP over
    (district, covered mask) on per-district acceptance tables."""
    order = inst.additional
    n = len(order)
    cap = n if inst.bound is None else min(n, inst.bound)
    budget = inst.budget
    reach = {0: 0}
    for d in range(inst.k):
        options = []
        for mask in range(1, 1 << n):
            if bin(mask).count("1") > cap:
                continue
            placed = _mask_members(order, mask)
            cost = sum(inst.price(d + 1, a) for a in placed)
            if budget is not None and cost > budget:
                continue
            if accepts(inst, d, placed):
                options.append((mask, cost))
        step = dict(reach)
        for covered, spent in reach.items():
            for mask, cost in options:
                if covered & mask:
                    continue
                total = spent + cost
                if budget is not None and total > budget:
                    continue
                grown = covered | mask
                if step.get(grown, total + 1) > total:
                    step[grown] = total
        reach = step
    full = (1 << n) - 1
    if full not in reach:
        return False, None
    return True, reach[full]


def placement_scan(inst: Plain) -> tuple[bool, int | None]:
    """(answer, minimum cost) by checking every one of the k^n placements."""
    order = inst.additional
    memo: dict[tuple[int, frozenset], bool] = {}
    best: int | None = None
    for digits in itertools.product(range(inst.k), repeat=len(order)):
        groups: dict[int, list[str]] = {}
        for a, d in zip(order, digits):
            groups.setdefault(d, []).append(a)
        ok = True
        for d, placed in groups.items():
            key = (d, frozenset(placed))
            if key not in memo:
                memo[key] = accepts(inst, d, placed)
            if not memo[key]:
                ok = False
                break
        if not ok:
            continue
        cost = sum(inst.price(d + 1, a) for a, d in zip(order, digits))
        if inst.budget is not None and cost > inst.budget:
            continue
        if best is None or cost < best:
            best = cost
    return best is not None, best


_FORBIDDEN = 10**9


def _assignment_cost(rows: list[list[int]]) -> int | None:
    """Minimum cost of matching every row to its own column, or None."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    if not rows:
        return 0
    matrix = np.array(rows, dtype=np.int64)
    r, c = linear_sum_assignment(matrix)
    if len(r) < len(rows) or (matrix[r, c] >= _FORBIDDEN).any():
        return None
    return int(matrix[r, c].sum())


def matching_min_cost(inst: Plain) -> int | None:
    """Bound 1: minimum cost of placing every candidate alone in its own
    district as the unique winner, or None when no such placement exists."""
    rows = []
    for a in inst.additional:
        row = []
        for d in range(inst.k):
            own, ballots = inst.districts[d]
            alone = winners(inst.rule, own + (a,), ballots) == frozenset((a,))
            row.append(inst.price(d + 1, a) if alone else _FORBIDDEN)
        rows.append(row)
    return _assignment_cost(rows)


def bmatching_min_cost(inst: Plain) -> int | None:
    """Trivial rule: minimum cost of filling district capacities
    max(0, bound - own) with the candidates, or None when they do not fit."""
    n = len(inst.additional)
    level = inst.bound if inst.bound is not None else n + max(len(o) for o, _ in inst.districts)
    slots = [d for d, (own, _) in enumerate(inst.districts) for _ in range(max(0, level - len(own)))]
    if len(slots) < n:
        return None
    rows = [[inst.price(d + 1, a) for d in slots] for a in inst.additional]
    return _assignment_cost(rows)


# ---------------------------------------------------------------------------
# Source problems
# ---------------------------------------------------------------------------


def x3c_has_cover(universe: Sequence[str], triples: Sequence[Sequence[str]]) -> bool:
    """Exact cover by 3-sets, by branching on the first uncovered element."""
    sets = [frozenset(t) for t in triples]

    def search(left: frozenset) -> bool:
        if not left:
            return True
        pick = min(left)
        return any(search(left - t) for t in sets if pick in t and t <= left)

    return search(frozenset(universe))


def sat_one_in_three(variables: Sequence[str], clauses: Sequence[Sequence[str]]) -> bool:
    """Some set of true variables meets every clause exactly once."""
    for bits in itertools.product((False, True), repeat=len(variables)):
        true = {v for v, b in zip(variables, bits) if b}
        if all(sum(1 for v in c if v in true) == 1 for c in clauses):
            return True
    return False


# ---------------------------------------------------------------------------
# Self-check
# ---------------------------------------------------------------------------


def worked_example(budget: int) -> Plain:
    """The three-district trivial-rule example (bound 3, optimum 14)."""
    prices = {
        (1, "a1"): 5, (1, "a2"): 8, (1, "a3"): 10,
        (2, "a1"): 3, (2, "a2"): 1, (2, "a3"): 16,
        (3, "a1"): 0, (3, "a2"): 0, (3, "a3"): 0,
    }
    own = ((), ("c1",), ("c2", "c3", "c4", "c5"))
    return Plain(("trivial",), tuple((o, ()) for o in own), ("a1", "a2", "a3"), 3, prices, budget)


def self_check(tiny: Sequence[Plain]) -> None:
    """Fail loudly before any timing if the references disagree."""
    for budget, want in ((16, 14), (13, None)):
        inst = worked_example(budget)
        got = bmatching_min_cost(inst)
        if got is not None and got > budget:
            got = None
        if got != want or placement_scan(inst) != (want is not None, want):
            raise AssertionError(f"worked example at budget {budget}: got {got}, want {want}")
    for inst in tiny:
        scan = placement_scan(inst)
        if subset_dp(inst) != scan:
            raise AssertionError(f"subset DP disagrees with the placement scan on {inst}")
        if inst.bound == 1:
            best = matching_min_cost(inst)
            fits = best is not None and (inst.budget is None or best <= inst.budget)
            if (fits, best if fits else None) != scan:
                raise AssertionError(f"matching reference disagrees on {inst}")
        if inst.rule == ("trivial",):
            best = bmatching_min_cost(inst)
            fits = best is not None and (inst.budget is None or best <= inst.budget)
            if (fits, best if fits else None) != scan:
                raise AssertionError(f"b-matching reference disagrees on {inst}")
