"""Decision procedures for the recampaigning problem.

Entry points (all return a `SolveResult`):

- `solve_crc1`            bound ℓ=1, any rule: weighted bipartite matching.
- `solve_trivial_scoring` trivial scoring rule, any bound: perfect b-matching.
- `solve_fpt`             bounded variant, any rule: guard n ≤ k·ℓ, then an
                          exact-cover search over per-district winning sets.
- `solve_brute`           any variant: a subset DP over (district, covered
                          set) on the verdict tables, the reference for the
                          rest; its witness is the lexicographically first
                          valid placement.
- `solve_e1_bound3`       the E1 rule with bound 3: counting argument.
- `solve_e2_unbounded`    the E2 rule unbounded: at most k³ checks.
- `solve_auto`            dispatches to the cheapest applicable method.

crc1 (singletons), the cover build (sets of size ≤ ℓ) and brute (every
subset for districts 1..k-1, the complements of the sets they can take for
district k) ask one batched question, `_accepts`: which sets S ⊆ A does
district i accept, electing all of S within the bound?  `verify` stays on
the object path as the independent referee for every YES.  fpt and brute
honour the node budget; brute still refuses when k^|A| exceeds it, as the
placement scan it replaced did, so exit codes do not change.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    E1,
    E2,
    Borda,
    Condorcet,
    ExplicitScoringFamily,
    TApproval,
    TrivialScoring,
    TVeto,
    scoring_vector,
    winners,  # noqa: F401  (kept importable as recamp.solvers.winners for tracers)
)
from .errors import (
    PreconditionError,
    ResourceBudgetError,
    ShapeError,
    WrongVariantError,
)
from .matching import (
    BipartiteMultigraph,
    Edge,
    min_cost_max_cardinality_matching,
    min_weight_perfect_b_matching,
)
from .model import (
    Assignment,
    AtMost,
    RecampaignInstance,
    Unbounded,
    lift_to_priced,
    verify,
)

__all__ = [
    "SolveResult",
    "CoverMember",
    "CoverSystem",
    "default_node_budget",
    "solve_crc1",
    "solve_trivial_scoring",
    "build_exact_cover_system",
    "solve_fpt",
    "solve_brute",
    "solve_e1_bound3",
    "solve_e2_unbounded",
    "solve_auto",
]

_DEFAULT_NODE_BUDGET = 10_000_000


def default_node_budget() -> int:
    """The enumeration budget, overridable via RECAMP_NODE_BUDGET."""
    raw = os.environ.get("RECAMP_NODE_BUDGET")
    if raw is None:
        return _DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ShapeError(f"RECAMP_NODE_BUDGET must be an int, got {raw!r}") from exc
    if value < 1:
        raise ShapeError(f"RECAMP_NODE_BUDGET must be >= 1, got {value}")
    return value


def _resolve_budget(node_budget: int | None) -> int:
    budget = node_budget if node_budget is not None else default_node_budget()
    if budget < 1:
        raise ShapeError(f"node budget must be >= 1, got {budget}")
    return budget


@dataclass(frozen=True)
class SolveResult:
    answer: bool
    assignment: Assignment | None
    algorithm: str
    statistics: Mapping[str, int]
    cost: int | None = None


def _accept(
    inst: RecampaignInstance,
    placement: dict[str, int],
    algorithm: str,
    statistics: dict[str, int],
    cost: int | None,
) -> SolveResult:
    asg = Assignment(placement)
    report = verify(inst, asg)
    if not report.valid:
        raise AssertionError(
            f"solver {algorithm} produced an invalid witness: {report.violations}"
        )
    return SolveResult(True, asg, algorithm, statistics, cost)


def _reject(algorithm: str, statistics: dict[str, int]) -> SolveResult:
    return SolveResult(False, None, algorithm, statistics, None)


def _price_matrix(inst: RecampaignInstance, order: list[str]) -> np.ndarray:
    """prices[j, d] = the price of placing order[j] in district d (0-based)."""
    return np.array(
        [[inst.pricing.price(i, a) for i in range(1, inst.k + 1)] for a in order],
        dtype=np.int64,
    ).reshape(len(order), inst.k)


# ---------------------------------------------------------------------------
# The district oracle
# ---------------------------------------------------------------------------

_SCORE_SENTINEL = np.iinfo(np.int64).min // 4


def _scoring_winners(
    rule, votes, index: dict[str, int], present: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """winner[c, r]: c wins the scoring election on the candidates present in column r.

    `present` is candidates-major, one column per placed set, so a ballot is
    ranked by one cumsum down axis 0 across every set at once.  The ranks
    are narrow unsigned integers that never exceed the candidate count, so
    the cumsum adds them as lanes of 64-bit words, several sets per add,
    with no carry crossing from one lane into the next."""
    width, rows = present.shape
    rank = np.min_scalar_type(width)
    pad = -rows % (8 // rank.itemsize)
    if pad:
        present = np.concatenate((present, np.zeros((width, pad), dtype=bool)), axis=1)
        size = np.concatenate((size, np.zeros(pad, dtype=size.dtype)))
    if isinstance(rule, ExplicitScoringFamily):
        alpha = np.zeros((int(size.max(initial=0)) + 1,) * 2, dtype=np.int64)
        for m in np.unique(size).tolist():
            if m >= 1:
                alpha[m, 1 : m + 1] = scoring_vector(rule, m)
    elif isinstance(rule, TVeto):
        cutoff = size - rule.t
    scores = np.zeros(present.shape, dtype=np.int64)
    ones = present.astype(rank)
    for vote in votes:
        perm = np.fromiter((index[c] for c in vote.order), dtype=np.intp, count=width)
        pv = ones[perm]
        ranks = pv.view(np.uint64).cumsum(axis=0, dtype=np.uint64).view(rank)
        if isinstance(rule, TApproval):
            pts = pv & (ranks <= rule.t)
        elif isinstance(rule, TVeto):
            pts = pv & (ranks <= cutoff)
        elif isinstance(rule, Borda):
            pts = (size - ranks) * pv
        else:  # ExplicitScoringFamily
            pts = alpha[size, ranks] * pv
        scores[perm] += pts
    masked = np.where(present, scores, _SCORE_SENTINEL)
    winner = present & (masked == masked.max(axis=0, initial=_SCORE_SENTINEL))
    return winner[:, :rows]


def _condorcet_winners(votes, index: dict[str, int], present: np.ndarray) -> np.ndarray:
    """winner[c, r]: c beats every other candidate present in column r.

    Restricting a ballot keeps its pairwise order, so one majority matrix
    over the full pool serves every column."""
    width = len(present)
    above = np.zeros((width, width), dtype=np.int64)
    for vote in votes:
        pos = np.empty(width, dtype=np.int64)
        pos[[index[c] for c in vote.order]] = np.arange(width)
        above += pos[:, None] < pos[None, :]
    misses = (2 * above <= len(votes)) & ~np.eye(width, dtype=bool)
    unbeaten = misses.astype(np.int64) @ present.astype(np.int64)
    return present & (unbeaten == 0)


def _accepts(
    inst: RecampaignInstance, d: int, order: list[str], placed: np.ndarray
) -> np.ndarray:
    """verdict[r]: district d (0-based) accepts exactly the set placed in row r.

    `placed` is a boolean matrix with one column per candidate of `order`.
    A row is accepted when every candidate it places wins district d with
    exactly those candidates added and, under a bound ℓ, the district has
    at most ℓ winners.  The empty row is always accepted: untouched
    districts carry no condition.
    """
    rule = inst.rule
    district = inst.districts[d]
    own = sorted(district.candidates)
    pop = placed.sum(axis=1)
    size = len(own) + pop
    if isinstance(rule, TrivialScoring):
        placed_win = np.ones(len(placed), dtype=bool)
        win_count = size
    elif isinstance(rule, E1):
        placed_win = size == 3
        win_count = np.where(placed_win, 3, 0)
    else:
        index = {c: j for j, c in enumerate(own + order)}
        present = np.ones((len(index), len(placed)), dtype=bool)
        present[len(own):] = placed.T
        if isinstance(rule, Condorcet):
            winner = _condorcet_winners(district.votes, index, present)
        elif isinstance(rule, E2):
            winner = _scoring_winners(TApproval(1), district.votes, index, present, size)
            winner[:, size >= 4] = present[:, size >= 4]
        else:
            winner = _scoring_winners(rule, district.votes, index, present, size)
        placed_win = (winner[len(own):] | ~present[len(own):]).all(axis=0)
        win_count = winner.sum(axis=0)
    verdict = placed_win
    if isinstance(inst.bound, AtMost):
        verdict = verdict & (win_count <= inst.bound.limit)
    return verdict | (pop == 0)


# ---------------------------------------------------------------------------
# Bound 1: bipartite matching
# ---------------------------------------------------------------------------


def solve_crc1(inst: RecampaignInstance) -> SolveResult:
    """Decide the bound-1 variant by min-cost maximum matching.

    A candidate can be sent to a district iff it would be the unique winner
    there on its own; with bound 1 no district can absorb two additional
    candidates, so feasibility is exactly a perfect matching of A, and the
    budget check is the matching weight.
    """
    if not (isinstance(inst.bound, AtMost) and inst.bound.limit == 1):
        raise WrongVariantError("solve_crc1 decides only the bound-1 variant")
    order = sorted(inst.additional)
    singletons = np.eye(len(order), dtype=bool)
    alone = [_accepts(inst, d, order, singletons) for d in range(inst.k)]
    left = [f"cand:{a}" for a in order]
    right = [f"dist:{i}" for i in range(1, inst.k + 1)]
    edges = []
    for j, a in enumerate(order):
        for i in range(1, inst.k + 1):
            if alone[i - 1][j]:
                weight = inst.pricing.price(i, a) if inst.pricing else 0
                edges.append(Edge(f"cand:{a}", f"dist:{i}", weight))
    result = min_cost_max_cardinality_matching(
        BipartiteMultigraph(left, right, edges)
    )
    stats = {
        "nodes": len(order) * inst.k,
        "winning_edges": len(edges),
        "matched": result.cardinality,
    }
    if result.cardinality < len(order):
        return _reject("crc1-matching", stats)
    if inst.pricing is not None and result.weight > inst.pricing.budget:
        return _reject("crc1-matching", stats)
    placement = {
        e.left.removeprefix("cand:"): int(e.right.removeprefix("dist:"))
        for e, used in result.chosen
    }
    cost = result.weight if inst.pricing is not None else None
    return _accept(inst, placement, "crc1-matching", stats, cost)


# ---------------------------------------------------------------------------
# Trivial scoring rule: perfect b-matching
# ---------------------------------------------------------------------------


def solve_trivial_scoring(inst: RecampaignInstance) -> SolveResult:
    """Decide any variant under the trivial scoring rule via b-matching.

    Everybody always wins, so only the winner-count condition bites: a
    district with c_i own candidates can absorb at most Δ_i = max(0, ℓ - c_i)
    additional candidates.  Unbounded instances use an ℓ large enough to be
    vacuous.  Placing cheaply is a minimum-weight perfect b-matching where a
    slack vertex absorbs the unused district capacity.
    """
    if not isinstance(inst.rule, TrivialScoring):
        raise WrongVariantError("solve_trivial_scoring needs the trivial scoring rule")
    order = sorted(inst.additional)
    n = len(order)
    if isinstance(inst.bound, AtMost):
        level = inst.bound.limit
    else:
        level = n + max(len(d.candidates) for d in inst.districts)
    delta = [
        max(0, level - len(d.candidates)) for d in inst.districts
    ]
    slack_units = sum(delta) - n
    stats = {"nodes": inst.k, "capacity_total": sum(delta)}
    if slack_units < 0:
        return _reject("b-matching", stats)

    left = [f"cand:{a}" for a in order] + ["slack:*"]
    right = [f"dist:{i}" for i in range(1, inst.k + 1)]
    edges = []
    for a in order:
        for i in range(1, inst.k + 1):
            weight = inst.pricing.price(i, a) if inst.pricing else 0
            edges.append(Edge(f"cand:{a}", f"dist:{i}", weight))
    for i, d in enumerate(delta, start=1):
        if d >= 1:
            edges.append(Edge("slack:*", f"dist:{i}", 0, multiplicity=d))
    degrees = {f"cand:{a}": 1 for a in order}
    degrees["slack:*"] = slack_units
    for i, d in enumerate(delta, start=1):
        degrees[f"dist:{i}"] = d

    cap = inst.pricing.budget if inst.pricing is not None else 0
    result = min_weight_perfect_b_matching(
        BipartiteMultigraph(left, right, edges), degrees, cap
    )
    stats["graph_edges"] = len(edges)
    if result is None:
        return _reject("b-matching", stats)
    placement = {}
    for e, used in result.chosen:
        if e.left.startswith("cand:"):
            placement[e.left.removeprefix("cand:")] = int(e.right.removeprefix("dist:"))
    cost = result.weight if inst.pricing is not None else None
    return _accept(inst, placement, "b-matching", stats, cost)


# ---------------------------------------------------------------------------
# Exact-cover system and the FPT route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverMember:
    """One admissible choice for one district: place exactly `placed` there.

    As a set-cover element it stands for {tag_district} ∪ placed inside the
    universe A ∪ {tags}; the tag forces exactly one member per district.
    """

    district: int
    placed: frozenset[str]
    weight: int


@dataclass(frozen=True)
class CoverSystem:
    additional: frozenset[str]
    district_tags: tuple[int, ...]
    members: tuple[CoverMember, ...]
    budget: int

    @property
    def universe_size(self) -> int:
        return len(self.additional) + len(self.district_tags)


def build_exact_cover_system(inst: RecampaignInstance) -> CoverSystem:
    """Enumerate the ≤ k·2^|A| admissible (district, placed-set) members.

    A nonempty set A′ is admissible for district i when every member of A′
    wins the district election with exactly A′ added, the winner count stays
    within the bound, and its price fits the budget on its own (costlier
    members could never join a within-budget cover).  The empty set is
    admissible everywhere.  The instance decides Yes iff some selection of
    one member per district has pairwise-disjoint placed sets covering A
    with total weight within budget.
    """
    if not isinstance(inst.bound, AtMost):
        raise WrongVariantError("the cover system is defined for bounded instances")
    if inst.pricing is None:
        raise PreconditionError("price the instance first (see lift_to_priced)")
    order = sorted(inst.additional)
    n = len(order)
    level = inst.bound.limit
    budget = inst.pricing.budget
    combos = [
        c for s in range(1, min(level, n) + 1) for c in itertools.combinations(range(n), s)
    ]
    rows = np.zeros((len(combos), n), dtype=bool)
    for r, combo in enumerate(combos):
        rows[r, combo] = True
    placed = [frozenset(order[j] for j in combo) for combo in combos]
    weights = rows.astype(np.int64) @ _price_matrix(inst, order)
    members = []
    for d in range(inst.k):
        members.append(CoverMember(d + 1, frozenset(), 0))
        fits = np.flatnonzero(weights[:, d] <= budget)
        ok = fits[_accepts(inst, d, order, rows[fits])]
        members.extend(
            CoverMember(d + 1, placed[r], int(weights[r, d])) for r in ok.tolist()
        )
    return CoverSystem(
        frozenset(order), tuple(range(1, inst.k + 1)), tuple(members), budget
    )


def solve_fpt(
    inst: RecampaignInstance, node_budget: int | None = None
) -> SolveResult:
    """Decide any bounded variant: guard, then exact-cover search.

    More than k·ℓ additional candidates can never all win (each touched
    district holds at most ℓ of them), so such instances are rejected
    outright.  Otherwise unpriced instances are lifted to unit prices and the
    cover system is searched district by district.  The build is refused up
    front (resource error) when its k·Σ_{s≤ℓ} C(|A|, s) candidate members
    exceed the node budget, and the search stops with the same error once it
    visits more members than the budget.
    """
    if not isinstance(inst.bound, AtMost):
        raise WrongVariantError("solve_fpt decides only bounded variants")
    budget_nodes = _resolve_budget(node_budget)
    order = sorted(inst.additional)
    n = len(order)
    level = inst.bound.limit
    if n > inst.k * level:
        return _reject("fpt", {"nodes": 0, "members": 0, "guard": 1})
    candidates = inst.k * sum(math.comb(n, s) for s in range(min(level, n) + 1))
    if candidates > budget_nodes:
        raise ResourceBudgetError(
            f"{candidates} cover members to check exceed the node budget {budget_nodes}"
        )

    work = inst if inst.pricing is not None else lift_to_priced(inst)
    system = build_exact_cover_system(work)
    by_district: list[list[CoverMember]] = [[] for _ in range(inst.k)]
    for member in system.members:
        by_district[member.district - 1].append(member)
    for bucket in by_district:
        bucket.sort(key=lambda m: (m.weight, sorted(m.placed)))

    budget = work.pricing.budget
    target = frozenset(order)
    nodes = 0

    def search(i: int, used: frozenset[str], spent: int) -> list[CoverMember] | None:
        nonlocal nodes
        if i == inst.k:
            return [] if used == target else None
        remaining = len(target) - len(used)
        if remaining > (inst.k - i) * level:
            return None
        for member in by_district[i]:
            nodes += 1
            if nodes > budget_nodes:
                raise ResourceBudgetError(
                    f"the cover search visited more than {budget_nodes} members"
                )
            if spent + member.weight > budget:
                continue
            if member.placed & used or not member.placed <= target:
                continue
            rest = search(i + 1, used | member.placed, spent + member.weight)
            if rest is not None:
                return [member] + rest
        return None

    chosen = search(0, frozenset(), 0)
    stats = {"nodes": nodes, "members": len(system.members), "guard": 0}
    if chosen is None:
        return _reject("fpt", stats)
    placement = {a: m.district for m in chosen for a in m.placed}
    cost = sum(m.weight for m in chosen) if inst.pricing is not None else None
    return _accept(inst, placement, "fpt", stats, cost)


# ---------------------------------------------------------------------------
# Brute force: a subset DP over the verdict tables
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1 << 14


def _probe_explicit_vectors(inst: RecampaignInstance, n: int) -> None:
    if isinstance(inst.rule, ExplicitScoringFamily):
        for d in inst.districts:
            for size in range(len(d.candidates), len(d.candidates) + n + 1):
                scoring_vector(inst.rule, size)


def _mask_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """placed[r, j]: order[j] is in the set masks[r] (bit n-1-j stands for order[j])."""
    return (masks[:, None] & (1 << np.arange(n - 1, -1, -1, dtype=masks.dtype))) != 0


def _disjoint_pairs(left: np.ndarray, right: np.ndarray, full: int):
    """Index pairs (i, j) with left[i] & right[j] == 0 for sorted masks
    within `full`, a block of at most _CHUNK_ROWS tried pairs at a time.
    A set disjoint from L is at most full - L, so a block of left masks
    tries only the right masks up to full minus its least one."""
    for r0 in range(0, len(right), _CHUNK_ROWS):
        block = right[r0 : r0 + _CHUNK_ROWS]
        l0 = 0
        while l0 < len(left):
            fits = block[: block.searchsorted(full - left[l0], "right")]
            width = _CHUNK_ROWS // max(1, len(fits))
            i, j = ((left[l0 : l0 + width, None] & fits) == 0).nonzero()
            yield i + l0, j + r0
            l0 += width


class _PlacementDP:
    """The subset DP of `solve_brute`, over the placements that extend a
    fixed assignment of the leading candidates.

    The free candidates are the low `m` bits of a mask.  `fwd[d]` maps each
    set of free candidates that districts 1..d can take, together with
    their fixed ones, to the least price of doing so.  `back[d]` maps a set
    of `fwd[d]` to the least price of placing the rest in districts d+1..k.
    `sets[d]` holds the sets district d+1 accepts.  All hold sorted masks
    and their prices, within the budget only.  Fixing the top free
    candidate (`fix`) keeps the forward layers below its district and the
    backward layers from it on; the others are rebuilt on demand.

    Masks are int32 up to 30 candidates.  Prices take the narrowest
    unsigned type that holds 2·cap + 1, one byte when unpriced: a stored
    price is at most cap + 1 ("over budget"), so adding two never wraps.
    """

    def __init__(self, inst: RecampaignInstance, order: list[str]) -> None:
        self.inst, self.order, self.n, self.k = inst, order, len(order), inst.k
        if inst.pricing is None:
            self.prices = np.zeros((self.n, self.k), dtype=np.int64)
            self.cap = 0
        else:
            self.prices = _price_matrix(inst, order)
            self.cap = min(inst.pricing.budget, int(self.prices.max(axis=1).sum()))
        self.word = np.dtype(np.int32 if self.n <= 30 else np.int64)
        self.price = np.min_scalar_type(2 * self.cap + 1)
        self.last: np.ndarray | None = None
        self.m = self.n
        self.full = (1 << self.n) - 1
        self.fixed = [0] * self.k
        self.deepest = 0
        # Each layer is (masks, prices, m when built): `_at` narrows it to
        # the current free candidates when it is next used.
        self.sets = self._tables()
        self.fwd: list[tuple | None] = [None] * self.k
        self.back: list[tuple | None] = [None] * (self.k + 1)
        free = np.zeros(1, dtype=self.price)
        self.fwd[0] = np.zeros(1, dtype=self.word), free, self.n
        self.back[self.k] = np.full(1, self.full, dtype=self.word), free, self.n
        self.seen: dict[int, bool] = {}

    def _at(self, layers: list, d: int, high: int) -> tuple[np.ndarray, np.ndarray]:
        """layers[d] restricted to the masks whose candidates fixed since it
        was built are exactly those of `high` (in their order), as masks of
        the free candidates."""
        masks, costs, bits = layers[d]
        if bits != self.m:
            base = (high & ((1 << (bits - self.m)) - 1)) << self.m
            lo, hi = masks.searchsorted(self._mask(base, base + (1 << self.m)))
            masks, costs = masks[lo:hi] - base, costs[lo:hi]
            layers[d] = masks, costs, self.m
        return masks, costs

    def _mask(self, *values: int) -> np.ndarray:
        """Masks as an array of the layers' type: a Python int would make
        searchsorted copy the whole layer to int64."""
        return np.array(values, dtype=self.word)

    def _fwd(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        return self._at(self.fwd, d, 0)

    def _back(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        return self._at(self.back, d, -1)

    # -- verdict tables ----------------------------------------------------

    def _tables(self) -> list[tuple]:
        """The sets each district but the last accepts within the budget,
        with their prices; the tables are filled a chunk of masks at a time."""
        masks = [[] for _ in range(self.k - 1)]
        costs = [[] for _ in range(self.k - 1)]
        for start in range(0, 1 << self.n, _CHUNK_ROWS):
            span = np.arange(start, min(start + _CHUNK_ROWS, 1 << self.n), dtype=self.word)
            placed = _mask_rows(span, self.n)
            cost = placed @ self.prices[:, :-1]
            for d in range(self.k - 1):
                ok = (cost[:, d] <= self.cap).nonzero()[0]
                ok = ok[_accepts(self.inst, d, self.order, placed[ok])]
                masks[d].append(span[ok])
                costs[d].append(cost[ok, d].astype(self.price))
        return [(np.concatenate(m), np.concatenate(c), self.n) for m, c in zip(masks, costs)]

    def _sets(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The sets district d (0-based, not the last) accepts that hold
        exactly its fixed candidates."""
        return self._at(self.sets, d, self.fixed[d])

    def _last_accepts(self, whole: np.ndarray) -> np.ndarray:
        """The last district's verdicts on distinct masks, each asked once."""
        if self.last is None:
            self.last = np.zeros(1 << self.n, dtype=np.int8)
        todo = whole[self.last[whole] == 0]
        for start in range(0, len(todo), _CHUNK_ROWS):
            chunk = todo[start : start + _CHUNK_ROWS]
            verdict = _accepts(self.inst, self.k - 1, self.order, _mask_rows(chunk, self.n))
            self.last[chunk] = np.where(verdict, 2, 1)
        return self.last[whole] == 2

    # -- layers ------------------------------------------------------------

    def _forward(self, c: int) -> None:
        if c == 1:
            # from the empty set, district 1 reaches just the sets it accepts
            self.fwd[1] = *self._sets(0), self.m
            return
        left, left_cost = self._fwd(c - 1)
        sets, set_cost = self._sets(c - 1)
        best = np.full(1 << self.m, self.cap + 1, dtype=self.price)
        for i, j in _disjoint_pairs(left, sets, self.full):
            np.minimum.at(best, left[i] | sets[j], left_cost[i] + set_cost[j])
        reach = (best <= self.cap).nonzero()[0].astype(self.word)
        self.fwd[c] = reach, best[reach], self.m

    def _backward(self, c: int) -> None:
        left, left_cost = self._fwd(c)
        if c == self.k - 1:
            whole = (self.fixed[c] << self.m) | (self.full ^ left)
            togo = np.empty(len(whole), dtype=self.price)
            for start in range(0, len(whole), _CHUNK_ROWS):
                chunk = _mask_rows(whole[start : start + _CHUNK_ROWS], self.n) @ self.prices[:, c]
                togo[start : start + _CHUNK_ROWS] = np.minimum(chunk, self.cap + 1)
            ok = (left_cost + togo <= self.cap).nonzero()[0]
            ok = ok[self._last_accepts(whole[ok])]
        else:
            after, after_cost = self._back(c + 1)
            rest = np.full(1 << self.m, self.cap + 1, dtype=self.price)
            rest[after] = after_cost
            sets, set_cost = self._sets(c)
            togo = np.full(len(left), self.cap + 1, dtype=self.price)
            for i, j in _disjoint_pairs(left, sets, self.full):
                np.minimum.at(togo, i, set_cost[j] + rest[left[i] | sets[j]])
            ok = (left_cost + togo <= self.cap).nonzero()[0]
        self.back[c] = left[ok], togo[ok], self.m

    def _ensure_fwd(self, c: int) -> None:
        d = c
        while self.fwd[d] is None:
            d -= 1
        for d in range(d + 1, c + 1):
            self._forward(d)

    def _ensure_back(self, c: int) -> None:
        d = c
        while self.back[d] is None:
            d += 1
        for d in range(d - 1, c - 1, -1):
            self._ensure_fwd(d)
            self._backward(d)

    # -- decision and witness ----------------------------------------------

    def decide(self) -> int | None:
        """The last forward layer built if some placement is valid, else None.

        The forward pass stops at the first layer that covers every
        candidate; otherwise the last district is asked only about the
        complements of the sets districts 1..k-1 can take."""
        e = 0
        while e < self.k - 1 and self.fwd[e][0][-1] != self.full:
            e += 1
            self._forward(e)
        if self.fwd[e][0][-1] == self.full:
            return e
        self._backward(self.k - 1)
        return e if len(self.back[self.k - 1][0]) else None

    def _covers_top(self, c: int) -> bool:
        """Some valid completion places the top free candidate in districts 1..c."""
        if c == self.k:
            return True
        top = 1 << (self.m - 1)
        # A district that cannot take the candidate has the answer of the
        # one before it: walk down to one that can (a loop, since k may be
        # far beyond the recursion limit when n is small).
        passed = []
        while c > 0 and c not in self.seen:
            sets = self._sets(c - 1)[0]
            if len(sets) and sets[-1] >= top:
                self.seen[c] = self._layers_cover_top(c, top)
                break
            passed.append(c)
            c -= 1
        answer = c > 0 and self.seen[c]
        for d in passed:
            self.seen[d] = answer
        return answer

    def _layers_cover_top(self, c: int, top: int) -> bool:
        """`_covers_top` for a district c < k that can take the candidate."""
        if self.back[c] is not None:
            done = self._back(c)[0]
            if not (len(done) and done[-1] >= top):
                return False
        self._ensure_fwd(c)
        reach, reach_cost = self._fwd(c)
        if reach[-1] < top:
            return False
        if reach[-1] == self.full and c >= self.deepest:
            return True  # the later districts keep nothing, which they accept
        self._ensure_back(c)
        done, done_cost = self._back(c)
        cut = done.searchsorted(self._mask(top))[0]
        done, done_cost = done[cut:], done_cost[cut:]
        pos = np.minimum(reach.searchsorted(done), len(reach) - 1)
        return bool(((reach[pos] == done) & (reach_cost[pos] + done_cost <= self.cap)).any())

    def digit(self, start: int) -> int:
        """The least district of the top free candidate in a valid completion.

        `_covers_top` is monotone in c, so walk from `start` (the previous
        candidate's district, whose layers are still at hand)."""
        c = start
        if self._covers_top(c):
            while c > 1 and self._covers_top(c - 1):
                c -= 1
        else:
            c += 1
            while not self._covers_top(c):
                c += 1
        return c

    def fix(self, c: int) -> None:
        """Place the top free candidate in district c (1-based).

        Layer c of the forward pass keeps its sets that hold the candidate.
        Beside the sets that place it in district c, they hold only sets
        that place it in an earlier district, and those have no valid
        completion within the budget, since c is the least district that
        has one."""
        top = 1 << (self.m - 1)
        if c < self.k and self.fwd[c] is not None:
            masks, costs = self._fwd(c)
            cut = masks.searchsorted(self._mask(top))[0]
            self.fwd[c] = masks[cut:] - top, costs[cut:], self.m - 1
        self.fwd[c + 1 :] = [None] * (self.k - c - 1)
        self.back[:c] = [None] * c
        self.fixed = [2 * f + (d == c - 1) for d, f in enumerate(self.fixed)]
        self.deepest = max(self.deepest, c)
        self.seen = {}
        self.m -= 1
        self.full >>= 1


def solve_brute(
    inst: RecampaignInstance, node_budget: int | None = None
) -> SolveResult:
    """Decide any variant exactly by a subset DP over the verdict tables.

    District i's table holds the sets of additional candidates it accepts.
    A DP over (district, covered set) decides the instance: reachability
    when unpriced, the least price within the budget when priced (the
    partition-into-accepted-blocks DP of Björklund, Husfeldt, Kaski and
    Koivisto, STOC 2007).  The witness is the lexicographically first valid
    placement in (sorted candidate, district index) order, rebuilt from the
    DP layers one candidate at a time; `nodes` is its 1-based index among
    the k^|A| placements (k^|A| on No).  The DP is refused up front
    (resource error) when k^|A| exceeds the node budget, as the placement
    scan it replaces was, so exit codes do not change.
    """
    budget = _resolve_budget(node_budget)
    order = sorted(inst.additional)
    n = len(order)
    k = inst.k
    total = k ** n
    if total > budget:
        raise ResourceBudgetError(
            f"{k}^{n} = {total} placements exceed the node budget {budget}"
        )
    _probe_explicit_vectors(inst, n)
    if k == 1:
        # The one placement; k^|A| = 1 does not bound |A|, so build no table.
        asg = Assignment({a: 1 for a in order})
        report = verify(inst, asg)
        stats = {"nodes": 1, "placements": 1}
        if report.valid:
            return SolveResult(True, asg, "brute", stats, report.total_cost)
        return _reject("brute", stats)
    dp = _PlacementDP(inst, order)
    c = dp.decide()
    if c is None:
        return _reject("brute", {"nodes": total, "placements": total})
    digits = []
    for _ in range(n):
        c = dp.digit(c)
        digits.append(c)
        dp.fix(c)
    index = sum((c - 1) * k ** (n - 1 - j) for j, c in enumerate(digits))
    stats = {"nodes": index + 1, "placements": total}
    cost = None
    if inst.pricing is not None:
        cost = int(sum(dp.prices[j, c - 1] for j, c in enumerate(digits)))
    return _accept(inst, dict(zip(order, digits)), "brute", stats, cost)


# ---------------------------------------------------------------------------
# The two artificial rules
# ---------------------------------------------------------------------------


def solve_e1_bound3(inst: RecampaignInstance) -> SolveResult:
    """E1 with bound 3, unpriced: pure counting.

    A district elects its slate iff it ends up with exactly 3 candidates, so
    districts with 0/1/2 own candidates absorb exactly 3/2/1 additional
    candidates or none, and larger districts absorb none.  Yes iff |A| is a
    feasible sum of those capacities.
    """
    if not isinstance(inst.rule, E1):
        raise WrongVariantError("solve_e1_bound3 needs the E1 rule")
    if not (isinstance(inst.bound, AtMost) and inst.bound.limit == 3):
        raise WrongVariantError("solve_e1_bound3 decides only the bound-3 variant")
    if inst.pricing is not None:
        raise WrongVariantError("solve_e1_bound3 handles unpriced instances only")
    n = len(inst.additional)
    hosts: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for i, d in enumerate(inst.districts, start=1):
        room = 3 - len(d.candidates)
        if 1 <= room <= 3:
            hosts[room].append(i)
    scanned = 0
    for take1 in range(len(hosts[1]) + 1):
        for take2 in range(len(hosts[2]) + 1):
            for take3 in range(len(hosts[3]) + 1):
                scanned += 1
                if take1 + 2 * take2 + 3 * take3 == n:
                    order = sorted(inst.additional)
                    placement = {}
                    feed = iter(order)
                    for i in hosts[1][:take1]:
                        placement[next(feed)] = i
                    for i in hosts[2][:take2]:
                        placement[next(feed)] = i
                        placement[next(feed)] = i
                    for i in hosts[3][:take3]:
                        placement[next(feed)] = i
                        placement[next(feed)] = i
                        placement[next(feed)] = i
                    return _accept(
                        inst, placement, "e1-bound3", {"nodes": scanned}, None
                    )
    return _reject("e1-bound3", {"nodes": scanned})


def solve_e2_unbounded(inst: RecampaignInstance) -> SolveResult:
    """E2 unbounded, unpriced: constant-size case analysis.

    With |A| ≥ 4 dumping everybody into district 1 always works (E2 elects
    the whole slate at ≥ 4 candidates); otherwise at most k³ placements
    exist and are all checked.
    """
    if not isinstance(inst.rule, E2):
        raise WrongVariantError("solve_e2_unbounded needs the E2 rule")
    if not isinstance(inst.bound, Unbounded):
        raise WrongVariantError("solve_e2_unbounded decides only the unbounded variant")
    if inst.pricing is not None:
        raise WrongVariantError("solve_e2_unbounded handles unpriced instances only")
    order = sorted(inst.additional)
    if len(order) >= 4:
        return _accept(
            inst, {a: 1 for a in order}, "e2-unbounded", {"nodes": 1}, None
        )
    nodes = 0
    for digs in itertools.product(range(1, inst.k + 1), repeat=len(order)):
        nodes += 1
        asg = Assignment({a: i for a, i in zip(order, digs)})
        if verify(inst, asg).valid:
            return SolveResult(True, asg, "e2-unbounded", {"nodes": nodes}, None)
    return _reject("e2-unbounded", {"nodes": nodes})


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def solve_auto(
    inst: RecampaignInstance, node_budget: int | None = None
) -> SolveResult:
    """Route an instance to the cheapest method that decides its variant."""
    unpriced = inst.pricing is None
    if (
        isinstance(inst.rule, E1)
        and isinstance(inst.bound, AtMost)
        and inst.bound.limit == 3
        and unpriced
    ):
        return solve_e1_bound3(inst)
    if isinstance(inst.rule, E2) and isinstance(inst.bound, Unbounded) and unpriced:
        return solve_e2_unbounded(inst)
    if isinstance(inst.rule, TrivialScoring):
        return solve_trivial_scoring(inst)
    if isinstance(inst.bound, AtMost) and inst.bound.limit == 1:
        return solve_crc1(inst)
    if isinstance(inst.bound, AtMost):
        return solve_fpt(inst, node_budget)
    return solve_brute(inst, node_budget)
