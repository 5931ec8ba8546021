"""Hardness gadgets: source problems, their deciders, reductions.

Three classical NP-hard source problems (exact cover by 3-sets, 3-dimensional
matching with occurrence bound 3, monotone one-in-three 3-SAT with every
variable in exactly three clauses) together with deciders that encode each as
exact cover and share one budgeted search, plus generators that translate
them into recampaigning instances:

- `x3c_to_e1_priced`        X3C → E1 rule, bound 3, priced, empty districts.
- `r3dm_to_exactly3`        occurrence-≤3 3DM → occurrence-exactly-3 3DM.
- `e33dm_to_1approval`      exactly-3 3DM → 1-approval, bound 2.
- `e33dm_to_scoring`        exactly-3 3DM → any nontrivial scoring rule, bound 2.
- `x3c_to_approval`         X3C → t-approval, bound ≥ 3 or unbounded.
- `x3c_to_veto`             X3C → t-veto, bound ≥ 3 or unbounded.
- `sat_to_approval_unbounded`  1-in-3 SAT → t-approval, 2 districts, unbounded.

Every generator is deterministic: the same source yields byte-identical
instances.  Gadget-local candidates get district-qualified names, with
apostrophes appended until they avoid the additional candidates' names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import E1, LinearVote, TApproval, TVeto, check_candidate_id, is_scoring_rule, scoring_vector
from .errors import (
    MissingVectorError,
    PreconditionError,
    ResourceBudgetError,
    ShapeError,
    TrivialityError,
    UnsupportedRuleError,
)
from .model import (
    AtMost,
    District,
    Pricing,
    RecampaignInstance,
    Unbounded,
    WinnerBound,
)
from .solvers import _resolve_budget

__all__ = [
    "X3CInstance",
    "R3DMInstance",
    "Exactly3ThreeDMInstance",
    "OneInThreeSatInstance",
    "decide_x3c",
    "decide_3dm",
    "decide_e3sat",
    "x3c_to_e1_priced",
    "r3dm_to_exactly3",
    "e33dm_to_1approval",
    "find_nontrivial_vector",
    "e33dm_to_scoring",
    "x3c_to_approval",
    "x3c_to_veto",
    "sat_to_approval_unbounded",
]


# ---------------------------------------------------------------------------
# Source problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: |U| = 3m elements, a sequence of 3-subsets."""

    universe: frozenset[str]
    triples: tuple[frozenset[str], ...]

    def __init__(self, universe: Iterable[str], triples: Iterable[Iterable[str]]) -> None:
        object.__setattr__(self, "universe", frozenset(universe))
        object.__setattr__(self, "triples", tuple(frozenset(t) for t in triples))
        for u in self.universe:
            check_candidate_id(u)
        if len(self.universe) % 3 != 0:
            raise ShapeError(f"universe size {len(self.universe)} is not a multiple of 3")
        for t in self.triples:
            if len(t) != 3 or not t <= self.universe:
                raise ShapeError(f"not a 3-subset of the universe: {sorted(t)}")

    @property
    def m(self) -> int:
        return len(self.universe) // 3


def _validate_3dm(w: tuple[str, ...], x: tuple[str, ...], y: tuple[str, ...],
                  triples: tuple[tuple[str, str, str], ...], exact: bool) -> None:
    for side in (w, x, y):
        if len(set(side)) != len(side):
            raise ShapeError("elements repeat within a side")
        for name in side:
            check_candidate_id(name)
    if not (len(w) == len(x) == len(y)):
        raise ShapeError("the three sides must have equal size")
    sides = set(w) | set(x) | set(y)
    if len(sides) != len(w) + len(x) + len(y):
        raise ShapeError("the three sides must be pairwise disjoint")
    if len(set(triples)) != len(triples):
        raise ShapeError("triples repeat")
    occurrences = {name: 0 for name in sides}
    for t in triples:
        if len(t) != 3 or t[0] not in set(w) or t[1] not in set(x) or t[2] not in set(y):
            raise ShapeError(f"triple {t} is not in W x X x Y")
        for name in t:
            occurrences[name] += 1
    for name, count in occurrences.items():
        if count > 3:
            raise ShapeError(f"element {name!r} occurs {count} > 3 times")
        if exact and count != 3:
            raise ShapeError(f"element {name!r} occurs {count} != 3 times")


@dataclass(frozen=True)
class R3DMInstance:
    """3-dimensional matching where every element is in at most 3 triples."""

    w_side: tuple[str, ...]
    x_side: tuple[str, ...]
    y_side: tuple[str, ...]
    triples: tuple[tuple[str, str, str], ...]

    def __init__(self, w_side, x_side, y_side, triples) -> None:
        object.__setattr__(self, "w_side", tuple(w_side))
        object.__setattr__(self, "x_side", tuple(x_side))
        object.__setattr__(self, "y_side", tuple(y_side))
        object.__setattr__(self, "triples", tuple(tuple(t) for t in triples))
        _validate_3dm(self.w_side, self.x_side, self.y_side, self.triples, exact=False)

    @property
    def k(self) -> int:
        return len(self.w_side)


@dataclass(frozen=True)
class Exactly3ThreeDMInstance:
    """3-dimensional matching where every element is in exactly 3 triples
    (hence there are exactly 3k triples)."""

    w_side: tuple[str, ...]
    x_side: tuple[str, ...]
    y_side: tuple[str, ...]
    triples: tuple[tuple[str, str, str], ...]

    def __init__(self, w_side, x_side, y_side, triples) -> None:
        object.__setattr__(self, "w_side", tuple(w_side))
        object.__setattr__(self, "x_side", tuple(x_side))
        object.__setattr__(self, "y_side", tuple(y_side))
        object.__setattr__(self, "triples", tuple(tuple(t) for t in triples))
        _validate_3dm(self.w_side, self.x_side, self.y_side, self.triples, exact=True)

    @property
    def k(self) -> int:
        return len(self.w_side)


@dataclass(frozen=True)
class OneInThreeSatInstance:
    """Monotone 3-CNF where every variable occurs in exactly 3 clauses;
    the question is whether some assignment makes exactly one literal true
    in every clause."""

    variables: tuple[str, ...]
    clauses: tuple[frozenset[str], ...]

    def __init__(self, variables: Iterable[str], clauses: Iterable[Iterable[str]]) -> None:
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "clauses", tuple(frozenset(c) for c in clauses))
        if len(set(self.variables)) != len(self.variables):
            raise ShapeError("variables repeat")
        for v in self.variables:
            check_candidate_id(v)
        counts = {v: 0 for v in self.variables}
        for c in self.clauses:
            if len(c) != 3 or not c <= set(self.variables):
                raise ShapeError(f"clause {sorted(c)} is not a 3-set of variables")
            for v in c:
                counts[v] += 1
        for v, count in counts.items():
            if count != 3:
                raise ShapeError(f"variable {v!r} occurs {count} != 3 times")


# ---------------------------------------------------------------------------
# Deciders (one exact-cover search, budgeted)
# ---------------------------------------------------------------------------


def _exact_cover(columns: Sequence, rows: Iterable[Iterable], node_budget: int | None) -> bool:
    """Can some rows cover every column exactly once?

    Depth-first, each node covering the uncovered column with the fewest rows
    disjoint from those chosen, ties to the first in `columns` (Knuth's
    Algorithm X).  A node costs 1 plus the rows it scans, against the budget.
    """
    budget = _resolve_budget(node_budget)
    index = {c: j for j, c in enumerate(columns)}
    masks = [sum(1 << index[c] for c in row) for row in rows]
    by_column = [[r for r in masks if r >> j & 1] for j in range(len(columns))]
    work, stack = 0, [0]
    while stack:
        covered = stack.pop()
        free = [hits for j, hits in enumerate(by_column) if not covered >> j & 1]
        if not free:
            return True
        work += 1 + sum(map(len, free))
        if work > budget:
            raise ResourceBudgetError(f"the exact-cover search passed the node budget {budget}")
        best = min(([r for r in hits if not r & covered] for hits in free), key=len)
        stack.extend(covered | r for r in reversed(best))
    return False


def decide_x3c(inst: X3CInstance, node_budget: int | None = None) -> bool:
    """Is some subcollection of m pairwise-disjoint triples covering U?"""
    return _exact_cover(sorted(inst.universe), inst.triples, node_budget)


def decide_3dm(
    inst: R3DMInstance | Exactly3ThreeDMInstance, node_budget: int | None = None
) -> bool:
    """Is there a perfect matching: k triples, pairwise disjoint in every
    coordinate?"""
    return _exact_cover(inst.w_side + inst.x_side + inst.y_side, inst.triples, node_budget)


def decide_e3sat(inst: OneInThreeSatInstance, node_budget: int | None = None) -> bool:
    """Is there an assignment with exactly one true literal per clause?"""
    rows = [[i for i, c in enumerate(inst.clauses) if v in c] for v in inst.variables]
    return _exact_cover(range(len(inst.clauses)), rows, node_budget)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _fresh(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _lex_tail(pool: Iterable[str], listed: Sequence[str]) -> list[str]:
    seen = set(listed)
    return sorted(c for c in pool if c not in seen)


def _check_bound_for_slate(bound: WinnerBound) -> None:
    if isinstance(bound, AtMost) and bound.limit < 3:
        raise PreconditionError(
            "the designated 3-candidate slate needs a winner bound of at "
            "least 3 (or no bound)"
        )
    if not isinstance(bound, (AtMost, Unbounded)):
        raise ShapeError(f"bad winner bound: {bound!r}")


# ---------------------------------------------------------------------------
# X3C → E1 (priced, bound 3)
# ---------------------------------------------------------------------------


def x3c_to_e1_priced(src: X3CInstance) -> RecampaignInstance:
    """Candidate-free districts, one per triple; prices do all the work.

    Placing an element into "its" triple's district costs 1, anywhere else
    costs 3m+1, and the budget is exactly 3m, so affordable placements put
    every element into a district whose triple contains it; the E1 rule then
    forces every used district to hold exactly a full triple.
    """
    m = src.m
    prices: dict[tuple[int, str], int] = {}
    k = max(1, len(src.triples))
    for i in range(1, k + 1):
        triple = src.triples[i - 1] if i <= len(src.triples) else frozenset()
        for a in sorted(src.universe):
            prices[(i, a)] = 1 if a in triple else 3 * m + 1
    districts = tuple(District(frozenset(), ()) for _ in range(k))
    return RecampaignInstance(
        E1(),
        districts,
        src.universe,
        AtMost(3),
        Pricing(prices, 3 * m),
    )


# ---------------------------------------------------------------------------
# Occurrence padding: ≤3 → exactly 3
# ---------------------------------------------------------------------------


def r3dm_to_exactly3(src: R3DMInstance) -> Exactly3ThreeDMInstance:
    """Pad a ≤3-occurrence instance until every element occurs exactly 3
    times, preserving the decision.

    Each round picks the lexicographically smallest deficient element per
    side, mints one fresh element per side, and adds the four triples that
    top everything up: the fresh triple plus the three mixed ones.  Each
    round closes the gap 3k - |S| by one, so the loop terminates.
    """
    w_side = list(src.w_side)
    x_side = list(src.x_side)
    y_side = list(src.y_side)
    triples = list(src.triples)
    taken = set(w_side) | set(x_side) | set(y_side)
    while len(triples) < 3 * len(w_side):
        occ_w = {e: 0 for e in w_side}
        occ_x = {e: 0 for e in x_side}
        occ_y = {e: 0 for e in y_side}
        for tw, tx, ty in triples:
            occ_w[tw] += 1
            occ_x[tx] += 1
            occ_y[ty] += 1
        wd = min(e for e in w_side if occ_w[e] < 3)
        xd = min(e for e in x_side if occ_x[e] < 3)
        yd = min(e for e in y_side if occ_y[e] < 3)
        tag = len(triples)
        wn = _fresh(f"{wd}^{tag}", taken)
        xn = _fresh(f"{xd}^{tag}", taken)
        yn = _fresh(f"{yd}^{tag}", taken)
        triples.extend([(wd, xn, yn), (wn, xd, yn), (wn, xn, yd), (wn, xn, yn)])
        w_side.append(wn)
        x_side.append(xn)
        y_side.append(yn)
    return Exactly3ThreeDMInstance(w_side, x_side, y_side, triples)


# ---------------------------------------------------------------------------
# Exactly-3 3DM → scoring rules with bound 2
# ---------------------------------------------------------------------------

_CASE1 = (
    ("w1", "x1", "x2", "x3"),
    ("x1", "x2", "x3", "w1"),
)
_CASE2 = (
    ("w3", "x2", "w1", "x1"),
    ("w3", "w1", "x2", "x1"),
    ("x1", "w1", "w3", "x2"),
    ("x2", "x1", "w3", "w1"),
)
_CASE3 = (
    ("w3", "w1", "x3", "x1", "x2"),
    ("x3", "w1", "w3", "x2", "x1"),
    ("w3", "x1", "x2", "x3", "w1"),
    ("x3", "x1", "x2", "w3", "w1"),
)
_CASE4 = (
    ("w1", "w2", "w3", "x3", "x2", "x1"),
    ("w1", "x2", "x3", "w3", "w2", "x1"),
    ("x1", "w2", "w3", "x3", "x2", "w1"),
    ("x1", "x2", "x3", "w3", "w2", "w1"),
    ("w2", "w1", "w3", "x3", "x2", "x1"),
    ("w2", "x1", "x3", "w3", "x2", "w1"),
    ("x2", "w1", "w3", "x3", "w2", "x1"),
    ("x2", "x1", "x3", "w3", "w2", "w1"),
    ("w3", "w1", "w2", "x3", "x2", "x1"),
    ("w3", "x1", "x2", "x3", "w2", "w1"),
    ("x3", "w1", "w2", "w3", "x2", "x1"),
    ("x3", "x1", "x2", "w3", "w2", "w1"),
)


def _swap_roles(pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [(x, w) for w, x in pairs]


def _ordered_prefixes(pairs: list[tuple[str, str]]) -> list[list[str]]:
    """The vote prefixes (over the pair elements) for one district.

    `pairs` are the three distinct (w, x) pairs matched to the district,
    in any order.  Dispatches on how many distinct w's and x's there are;
    mirrored shapes reuse the same templates with the roles swapped.
    """
    ws = [p[0] for p in pairs]
    xs = [p[1] for p in pairs]
    uw, ux = len(set(ws)), len(set(xs))
    pairs = sorted(pairs)
    if (uw, ux) == (1, 3):
        ordered, template = pairs, _CASE1
    elif (uw, ux) == (2, 2):
        rep = next(w for w in ws if ws.count(w) == 2)
        dup = [p for p in pairs if p[0] == rep]
        solo = next(p for p in pairs if p[0] != rep)
        first = dup[0] if dup[0][1] == solo[1] else dup[1]
        second = dup[1] if first == dup[0] else dup[0]
        assert first[1] == solo[1] != second[1]
        ordered, template = [first, second, solo], _CASE2
    elif (uw, ux) == (2, 3):
        rep = next(w for w in ws if ws.count(w) == 2)
        dup = sorted(p for p in pairs if p[0] == rep)
        solo = next(p for p in pairs if p[0] != rep)
        ordered, template = [dup[0], dup[1], solo], _CASE3
    elif (uw, ux) == (3, 3):
        ordered, template = pairs, _CASE4
    else:  # (3, 1) or (3, 2): mirror of a handled shape
        return _ordered_prefixes(_swap_roles(pairs))
    slot = {}
    for j, (w, x) in enumerate(ordered, start=1):
        slot[f"w{j}"] = w
        slot[f"x{j}"] = x
    return [[slot[name] for name in row] for row in template]


def _district_base_orders(
    src: Exactly3ThreeDMInstance, y: str, extra: frozenset[str]
) -> list[list[str]]:
    """Full ballots over A for district y: case prefix plus lex tail."""
    pairs = [(t[0], t[1]) for t in src.triples if t[2] == y]
    prefixes = _ordered_prefixes(pairs)
    return [prefix + _lex_tail(extra, prefix) for prefix in prefixes]


def e33dm_to_1approval(src: Exactly3ThreeDMInstance) -> RecampaignInstance:
    """Candidate-free districts, one per y; 1-approval with bound 2.

    Every additional candidate pool is W ∪ X; a district's ballots are built
    so that a pair {a, b} placed there ties (and wins within the bound)
    exactly when (a, b, y) is one of its three triples.
    """
    if src.k == 0:
        raise PreconditionError("needs at least one element per side")
    extra = frozenset(src.w_side) | frozenset(src.x_side)
    districts = []
    for y in sorted(src.y_side):
        votes = tuple(
            LinearVote(order) for order in _district_base_orders(src, y, extra)
        )
        districts.append(District(frozenset(), votes))
    return RecampaignInstance(TApproval(1), tuple(districts), extra, AtMost(2))


def find_nontrivial_vector(rule, cap: int = 64) -> tuple[int, int]:
    """Smallest m whose scoring vector has two distinct values, plus the
    length i of its constant leading block (α_1 = ... = α_i > α_{i+1}).

    Raises:
        UnsupportedRuleError: non-scoring rule.
        TrivialityError: every probed vector is constant (e.g. the trivial
            rule), or an explicit family ran out of vectors while trivial.
    """
    if not is_scoring_rule(rule):
        raise UnsupportedRuleError(f"{rule!r} is not a scoring rule")
    for m in range(1, cap + 1):
        try:
            vec = scoring_vector(rule, m)
        except MissingVectorError:
            break
        if len(set(vec)) >= 2:
            split = 1
            while vec[split] == vec[0]:
                split += 1
            return m, split
    raise TrivialityError(f"no two-valued scoring vector found for m <= {cap}")


def e33dm_to_scoring(src: Exactly3ThreeDMInstance, rule) -> RecampaignInstance:
    """Generalize the 1-approval districts to any nontrivial scoring rule.

    With a vector of length m whose top value spans positions 1..i, each
    district gets m-2 filler candidates pinned around the two slots i, i+1
    where a placed pair lands in the base ballots, and i-1 extra ballot
    blocks that knock each leading filler to the bottom once.
    """
    if src.k == 0:
        raise PreconditionError("needs at least one element per side")
    m, split = find_nontrivial_vector(rule)
    extra = frozenset(src.w_side) | frozenset(src.x_side)
    filler_indices = list(range(1, split)) + list(range(split + 2, m + 1))
    districts = []
    for y in sorted(src.y_side):
        taken = set(extra)
        filler = {j: _fresh(f"{y}.s{j}", taken) for j in filler_indices}
        lead = [filler[j] for j in range(1, split)]
        trail = [filler[j] for j in range(split + 2, m + 1)]
        base = _district_base_orders(src, y, extra)
        votes = []
        for order in base:
            votes.append(LinearVote(lead + order + trail))
        for kk in range(1, split):
            others = [filler[j] for j in filler_indices if j != kk]
            for order in base:
                votes.append(LinearVote(order + others + [filler[kk]]))
        districts.append(District(frozenset(filler.values()), tuple(votes)))
    return RecampaignInstance(rule, tuple(districts), extra, AtMost(2))


# ---------------------------------------------------------------------------
# X3C → t-approval / t-veto with bound ≥ 3 or unbounded
# ---------------------------------------------------------------------------


def _x3c_district_names(i: int, taken: set[str], blocker_groups: int, t: int):
    s = _fresh(f"d{i}.s", taken)
    groups = [
        [_fresh(f"d{i}.b{g}.{j}", taken) for j in range(1, t)]
        for g in range(1, blocker_groups + 1)
    ]
    return s, groups


def x3c_to_approval(
    src: X3CInstance, t: int, bound: WinnerBound
) -> RecampaignInstance:
    """One district per triple under t-approval; placing a full triple wins.

    Each of the 7 ballots leads with its own group of t-1 blockers, so
    exactly one further candidate clears the approval line per ballot: the
    triple's elements twice each, the shield candidate s once.  Anything
    other than the exact triple leaves s or a blocker strictly ahead.

    Preconditions: more than one triple, universe size > 3, bound at least
    3 (or unbounded).
    """
    if not isinstance(t, int) or t < 1:
        raise ShapeError(f"t must be an int >= 1, got {t!r}")
    _check_bound_for_slate(bound)
    if src.m <= 1 or len(src.triples) <= 1:
        raise PreconditionError(
            "needs a universe of more than 3 elements and at least 2 triples"
        )
    extra = src.universe
    districts = []
    for i, triple in enumerate(src.triples, start=1):
        taken = set(extra)
        s, groups = _x3c_district_names(i, taken, 7, t)
        own = [s] + [b for g in groups for b in g]
        pool = set(own) | extra
        x, y, z = sorted(triple)
        patterns = (
            (x, s, y, z),
            (x, s, y, z),
            (y, s, z, x),
            (y, s, z, x),
            (z, s, x, y),
            (z, s, x, y),
            (s, x, y, z),
        )
        votes = []
        for g, pattern in zip(groups, patterns):
            listed = g + list(pattern)
            votes.append(LinearVote(listed + _lex_tail(pool, listed)))
        districts.append(District(frozenset(own), tuple(votes)))
    return RecampaignInstance(TApproval(t), tuple(districts), extra, bound)


def x3c_to_veto(src: X3CInstance, t: int, bound: WinnerBound) -> RecampaignInstance:
    """One district per triple under t-veto; placing a full triple wins.

    Five fully-specified ballots ending in the t-1 blockers: the triple's
    elements each dodge the veto zone four times, the shield candidate s
    three times, everyone else never.

    Preconditions: more than one triple, universe size > 3, bound at least
    3 (or unbounded).
    """
    if not isinstance(t, int) or t < 1:
        raise ShapeError(f"t must be an int >= 1, got {t!r}")
    _check_bound_for_slate(bound)
    if src.m <= 1 or len(src.triples) <= 1:
        raise PreconditionError(
            "needs a universe of more than 3 elements and at least 2 triples"
        )
    extra = src.universe
    districts = []
    for i, triple in enumerate(src.triples, start=1):
        taken = set(extra)
        s, groups = _x3c_district_names(i, taken, 1, t)
        blockers = groups[0]
        x, y, z = sorted(triple)
        rest = sorted(extra - triple)
        heads = (
            [s, x, y, z],
            [s, y, z, x],
            [s, z, x, y],
            [x, y, z, s],
            [x, y, z, s],
        )
        votes = tuple(
            LinearVote(head + rest + blockers) for head in heads
        )
        districts.append(District(frozenset([s] + blockers), votes))
    return RecampaignInstance(TVeto(t), tuple(districts), extra, bound)


# ---------------------------------------------------------------------------
# 1-in-3 SAT → t-approval, two districts, unbounded
# ---------------------------------------------------------------------------


def sat_to_approval_unbounded(
    src: OneInThreeSatInstance, t: int
) -> RecampaignInstance:
    """Two districts under t-approval, unbounded: true group vs false group.

    District 1 lets exactly one variable per clause tie the shield scores;
    district 2 absorbs the other two.  For t > 1 every base symbol is
    replaced by t ordered copies, preserving scores t-fold.

    Preconditions: more than 3 clauses and at least 2 variables.
    """
    if not isinstance(t, int) or t < 1:
        raise ShapeError(f"t must be an int >= 1, got {t!r}")
    m = len(src.clauses)
    n = len(src.variables)
    if m <= 3 or n <= 1:
        raise PreconditionError("needs more than 3 clauses and at least 2 variables")

    variables = list(src.variables)
    taken = set(variables)
    s_base = [_fresh(f"s{i}", taken) for i in range(1, m + 1)]
    u_base = [_fresh(f"t{i}", taken) for i in range(1, m + 1)]

    def expand_name(base: str, copy: int) -> str:
        return base if t == 1 else f"{base}#{copy}"

    expansion = {}
    for base in variables + s_base + u_base:
        expansion[base] = [expand_name(base, c) for c in range(1, t + 1)]
    flat = [name for names in expansion.values() for name in names]
    if len(set(flat)) != len(flat):
        raise ShapeError("copy names collide; rename the variables")

    def expand_vote(base_order: Sequence[str]) -> LinearVote:
        return LinearVote(
            [name for base in base_order for name in expansion[base]]
        )

    def district(shields: list[str], with_reverse: bool) -> District:
        base_pool = shields + variables
        votes = []
        for i, clause in enumerate(src.clauses):
            forward = sorted(clause)
            shield = shields[i]
            head = forward + [shield]
            votes.append(expand_vote(head + _lex_tail(base_pool, head)))
            if with_reverse:
                head = sorted(clause, reverse=True) + [shield]
                votes.append(expand_vote(head + _lex_tail(base_pool, head)))
            for _ in range(3):
                votes.append(expand_vote([shield] + _lex_tail(base_pool, [shield])))
        own = [name for base in shields for name in expansion[base]]
        return District(frozenset(own), tuple(votes))

    extra = frozenset(name for v in variables for name in expansion[v])
    return RecampaignInstance(
        TApproval(t),
        (district(s_base, False), district(u_base, True)),
        extra,
        Unbounded(),
    )
