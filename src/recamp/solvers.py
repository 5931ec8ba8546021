"""Decision procedures for the recampaigning problem.

Entry points (all return a `SolveResult`):

- `solve_crc1`            bound ℓ=1, any rule: weighted bipartite matching.
- `solve_trivial_scoring` trivial scoring rule, any bound: perfect b-matching.
- `solve_fpt`             bounded variant, any rule: guard n ≤ k·ℓ, then the
                          subset DP over the sets of at most ℓ candidates.
- `solve_brute`           any variant: the same subset DP over (district,
                          covered set) on the verdict tables, the reference
                          for the rest; its witness is read back from the
                          DP's forward layers.
- `solve_e1_bound3`       the E1 rule with bound 3: counting argument.
- `solve_e2_unbounded`    the E2 rule unbounded: at most k³ checks.
- `solve_auto`            the first route of `ROUTES` whose test holds.

`ROUTES`, the table at the end of the module, states once which variant each
method decides: `solve_auto` reads it in order, each method refuses any other
instance with `WrongVariantError`, and the CLI's `--algorithm` comes from it.

crc1 (singletons) and the DP (the sets of at most ℓ candidates, or every
set unbounded, for districts 1..k-1, the complements of the sets they can
take for district k) ask one batched question, `_accepts`: which sets
S ⊆ A, given as bit masks, does district i accept, electing all of S within
the bound?  Its scoring kernel ranks in narrow lanes and tallies in the
narrowest unsigned type that holds the district's ballots times the largest
point; explicit vectors are shifted by their least entry first, and a
district whose tally would not fit 64 bits is refused.  `verify`
stays on the object path as the independent referee for every YES, and
every reported cost is the one `verify` computes, in Python ints.  Prices
enter int64 clipped to budget + 1, since a price above the budget is never
paid.  The DP holds the node budget for `solve_brute` and `solve_fpt`
alike: it refuses up front when the oracle rows its tables can ask exceed
the budget, and stops once its work, the oracle rows asked plus the
disjoint pairs tried, exceeds it; that work is their `nodes`.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping

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
    winners,
)
from .errors import (
    PreconditionError,
    ResourceBudgetError,
    ShapeError,
    WrongVariantError,
    is_int,
)
from .matching import min_cost_max_cardinality_matching, min_weight_perfect_b_matching
from .model import (
    Assignment,
    AtMost,
    RecampaignInstance,
    verify,
)

__all__ = [
    "ROUTES",
    "Route",
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
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    if not is_int(budget) or budget < 1:
        raise ShapeError(f"node budget must be an int >= 1, got {budget!r}")
    return budget


def _bound(inst: RecampaignInstance) -> int | None:
    """The winner bound ℓ, or None when unbounded."""
    return inst.bound.limit if isinstance(inst.bound, AtMost) else None


@dataclass(frozen=True)
class SolveResult:
    """A decision, its witness on YES, and the route's statistics.

    `statistics["nodes"]` is the route's unit of work:
    - `brute` and `fpt`: the DP's work, the oracle rows asked plus the
      disjoint pairs tried (1 for a single district), the quantity the node
      budget limits; 0 when fpt's n > k·ℓ guard answers;
    - `crc1-matching`: the n·k singleton rows asked of the oracle;
    - `b-matching`: the k districts, one capacity each;
    - `e1-bound3`: the (1-room, 2-room) take pairs tried, the 3-room take
      following from |A|;
    - `e2-unbounded`: the placements checked, 1 when |A| ≥ 4.
    """

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
) -> SolveResult:
    """A YES whose witness `verify` accepts, at the cost `verify` computes."""
    asg = Assignment(placement)
    report = verify(inst, asg)
    if not report.valid:
        raise AssertionError(
            f"solver {algorithm} produced an invalid witness: {report.violations}"
        )
    return SolveResult(True, asg, algorithm, statistics, report.total_cost)


def _reject(algorithm: str, statistics: dict[str, int]) -> SolveResult:
    return SolveResult(False, None, algorithm, statistics, None)


def _price_matrix(
    inst: RecampaignInstance, order: list[str], terms: int
) -> tuple[np.ndarray, int]:
    """(prices, cap): prices[j, d] = the price of placing order[j] in
    district d (0-based), clipped to budget + 1, since a price above the
    budget is never paid, and cap the budget, from one read of each price.

    When no placement costs more than the budget, the prices cannot change
    the answer: the instance is decided as unpriced, every price and the
    cap 0.  Otherwise sums of up to `terms` clipped prices must fit int64;
    a budget too large for that is refused rather than wrapped."""
    unpriced = np.zeros((len(order), inst.k), dtype=np.int64), 0
    if inst.pricing is None:
        return unpriced
    prices, budget = inst.pricing.prices, inst.pricing.budget
    rows = [[prices[(i, a)] for i in range(1, inst.k + 1)] for a in order]
    if sum(max(row) for row in rows) <= budget:
        return unpriced
    if terms * (budget + 1) > _INT64_MAX:
        raise PreconditionError(
            f"budget {budget} is too large for sums of {terms} prices in int64: "
            f"{terms} * (budget + 1) must be at most 2^63 - 1"
        )
    clipped = [[min(p, budget + 1) for p in row] for row in rows]
    return np.array(clipped, dtype=np.int64).reshape(len(order), inst.k), budget


# ---------------------------------------------------------------------------
# The district oracle
# ---------------------------------------------------------------------------

# The most cells (ballots × candidates × columns) one numpy op of the
# oracle's kernels covers; a table at least this large goes a ballot at a time.
_BLOCK_CELLS = 1 << 16

# Below this many 64-bit words per position (ballots × lanes), one strided
# accumulate ranks a block faster than an add per position (the two crossed
# near 300 words on a 2-core x86 machine: crc1's short singleton rows below,
# the DP's tables above).
_ADD_WORDS = 256

_UINT64_MAX = int(np.iinfo(np.uint64).max)


def _ballots(votes, index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """(perms, pos): perms[v, p] is the candidate at position p of ballot v,
    and pos[v, c] the position of candidate c, its inverse.  The ballots
    are restricted to the candidates of `index`, which can leave out
    additional candidates when crc1 asks about 63 at a time."""
    orders = [vote.order for vote in votes]
    if orders and len(orders[0]) > len(index):
        orders = [[c for c in order if c in index] for order in orders]
    perms = np.array(
        [[index[c] for c in order] for order in orders], dtype=np.intp
    ).reshape(len(votes), len(index))
    return perms, perms.argsort(axis=1)


def _explicit_points(rule: ExplicitScoringFamily, size: np.ndarray) -> list[list[int]]:
    """alpha[m][p]: the points at position p (1-based) of m candidates, for
    each count in `size`, each vector shifted by its least entry.  Every
    candidate present gains that entry once per ballot, so the winners do
    not change, and the points start at 0."""
    top = int(size.max(initial=0))
    alpha = [[0] * (top + 1) for _ in range(top + 1)]
    for m in np.unique(size).tolist():
        if m >= 1:
            vector = scoring_vector(rule, m)
            least = min(vector)
            alpha[m][1:] = [p - least for p in vector] + [0] * (top - m)
    return alpha


def _scoring_winners(
    rule, perms: np.ndarray, pos: np.ndarray, present: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """winner[c, r]: c wins the scoring election on the candidates present
    in column r (a column with none present is the empty set, whose winners
    do not matter).

    `present` is candidates-major, one column per placed set.  A block of
    ballots, at most _BLOCK_CELLS cells and at least one ballot, is ranked
    at once, positions-major: each ballot takes the rows of `present` in its
    order, and adding each position's row into the next gives every
    candidate its rank in every set (one strided accumulate does the same
    faster when a position holds fewer than _ADD_WORDS words).  The ranks
    are narrow unsigned integers that never exceed the candidate count, so
    the adds take them as lanes of 64-bit words, several sets per add, with
    no carry crossing from one lane into the next.  They are gathered back
    to candidate order by the inverse permutation, and the points are taken
    from them and summed over the ballots in the narrowest unsigned type
    that holds the ballot count times the largest point, plus one: explicit
    vectors are shifted by their least entry first, and a tally past 64 bits
    is refused.  An absent candidate's rank and points are garbage;
    `scores + 1` times `present` masks them to 0, below every present
    candidate's."""
    width, rows = present.shape
    votes = len(perms)
    if isinstance(rule, ExplicitScoringFamily):
        alpha = _explicit_points(rule, size)
        top = max(map(max, alpha))
    else:
        top = width - 1 if isinstance(rule, Borda) else 1
    if not votes:  # every candidate present ties at 0 points
        return present.copy()
    if votes * top + 1 > _UINT64_MAX:
        raise PreconditionError(
            f"{votes} ballots times a point spread of {top} do not fit a 64-bit tally"
        )
    tally = np.min_scalar_type(votes * top + 1)
    rank = np.min_scalar_type(width)
    ones = present.astype(rank)
    pad = -rows % (8 // rank.itemsize)
    if pad:
        ones = np.concatenate((ones, np.zeros((width, pad), dtype=rank)), axis=1)
        size = np.concatenate((size, np.zeros(pad, dtype=size.dtype)))
    if isinstance(rule, (TApproval, TVeto)):
        t = min(rule.t, width)  # in Python ints, so no t overflows
    if isinstance(rule, ExplicitScoringFamily):
        alpha = np.array(alpha, dtype=tally)
    elif isinstance(rule, TVeto):
        cutoff = np.maximum(size - t, 0).astype(rank)
    elif isinstance(rule, Borda):
        size = size.astype(rank)
    scores = np.zeros(ones.shape, dtype=tally)
    block = max(1, _BLOCK_CELLS // max(1, ones.size))
    for start in range(0, votes, block):
        at = perms[start : start + block].T
        lanes = ones[at]  # (positions, ballots, columns)
        words = lanes.view(np.uint64)
        if words.size >= _ADD_WORDS * width:
            for p in range(1, width):
                words[p] += words[p - 1]
        else:
            np.add.accumulate(words, axis=0, out=words)
        inv = pos[start : start + block]
        ranks = lanes[inv, np.arange(len(inv))[:, None]]  # (ballots, candidates, columns)
        if isinstance(rule, TApproval):
            points = (ranks <= t).view(np.uint8)
        elif isinstance(rule, TVeto):
            points = (ranks <= cutoff).view(np.uint8)
        elif isinstance(rule, Borda):
            points = size - ranks
        else:  # ExplicitScoringFamily
            points = alpha[size, ranks]
        scores += points.sum(axis=0, dtype=tally)
    scores += 1
    scores *= ones
    return (scores == scores.max(axis=0, initial=0))[:, :rows]


def _condorcet_winners(pos: np.ndarray, present: np.ndarray) -> np.ndarray:
    """winner[c, r]: c beats every other candidate present in column r.

    Restricting a ballot keeps its pairwise order, so one majority matrix
    over the full pool serves every column.  It is summed from the ballots'
    positions a block of at most _BLOCK_CELLS comparisons at a time.  The
    unbeaten count is a float32 product, exact since no count exceeds the
    candidate count, far below 2²⁴."""
    votes, width = pos.shape
    above = np.zeros((width, width), dtype=np.int64)
    block = max(1, _BLOCK_CELLS // max(1, width * width))
    for start in range(0, votes, block):
        at = pos[start : start + block]
        above += (at[:, :, None] < at[:, None, :]).sum(axis=0)
    misses = (2 * above <= votes) & ~np.eye(width, dtype=bool)
    unbeaten = misses.astype(np.float32) @ present.astype(np.float32)
    return present & (unbeaten == 0)


def _accepts(
    inst: RecampaignInstance, d: int, order: list[str], masks: np.ndarray
) -> np.ndarray:
    """verdict[r]: district d (0-based) accepts exactly the set masks[r].

    Bit n-1-j of a mask stands for order[j], as in the DP; an object array
    of Python ints holds a set of more than 63.  A row is accepted when
    every candidate it places wins district d with exactly those candidates
    added and, under a bound ℓ, the district has at most ℓ winners.  The
    empty row is always accepted: untouched districts carry no condition.
    """
    rule = inst.rule
    district = inst.districts[d]
    own = sorted(district.candidates)
    bound = _bound(inst)
    pop = np.bitwise_count(masks)
    size = pop.astype(np.intp) + len(own)
    if isinstance(rule, TrivialScoring):
        placed_win = np.ones(len(masks), dtype=bool)
        win_count = size
    elif isinstance(rule, E1):
        placed_win = size == 3
        win_count = np.where(placed_win, 3, 0)
    else:
        index = {c: j for j, c in enumerate(own + order)}
        present = np.ones((len(index), len(masks)), dtype=bool)
        bits = np.left_shift(1, np.arange(len(order) - 1, -1, -1, dtype=masks.dtype))
        np.not_equal(masks & bits[:, None], 0, out=present[len(own) :])
        perms, pos = _ballots(district.votes, index)
        if isinstance(rule, Condorcet):
            winner = _condorcet_winners(pos, present)
        elif isinstance(rule, E2):
            winner = _scoring_winners(TApproval(1), perms, pos, present, size)
            winner[:, size >= 4] = present[:, size >= 4]
        else:
            winner = _scoring_winners(rule, perms, pos, present, size)
        # No absent candidate wins a column with one present, and a column
        # with none is the empty set, accepted below.
        placed = winner[len(own) :].sum(axis=0, dtype=np.min_scalar_type(len(order)))
        placed_win = placed == pop
        if bound is not None:
            win_count = winner.sum(axis=0, dtype=np.min_scalar_type(len(index)))
    verdict = placed_win
    if bound is not None:
        verdict = verdict & (win_count <= bound)
    return verdict | (pop == 0)


# ---------------------------------------------------------------------------
# Bound 1: bipartite matching
# ---------------------------------------------------------------------------


def solve_crc1(inst: RecampaignInstance) -> SolveResult:
    """Decide the bound-1 variant by min-cost maximum matching.

    A candidate can be sent to a district iff it would be the unique winner
    there on its own; with bound 1 no district can absorb two additional
    candidates, so feasibility is exactly a perfect matching of A, and the
    budget check is the matching weight.  The oracle is asked about the
    singletons 63 candidates (the bits of an int64 mask) at a time.
    """
    _admit(inst, "crc1")
    order = sorted(inst.additional)
    alone = np.zeros((inst.k, len(order)), dtype=bool)
    for start in range(0, len(order), 63):
        part = order[start : start + 63]
        singletons = np.left_shift(1, np.arange(len(part) - 1, -1, -1, dtype=np.int64))
        for d in range(inst.k):
            alone[d, start : start + len(part)] = _accepts(inst, d, part, singletons)
    alone = alone.tolist()
    edges = [
        (j, i, inst.pricing.price(i + 1, a) if inst.pricing else 0, 1)
        for j, a in enumerate(order)
        for i in range(inst.k)
        if alone[i][j]
    ]
    result = min_cost_max_cardinality_matching(len(order), inst.k, edges)
    stats = {
        "nodes": len(order) * inst.k,
        "winning_edges": len(edges),
        "matched": result.cardinality,
    }
    if result.cardinality < len(order):
        return _reject("crc1-matching", stats)
    if inst.pricing is not None and result.weight > inst.pricing.budget:
        return _reject("crc1-matching", stats)
    placement = {order[j]: i + 1 for (j, i, _, _), used in zip(edges, result.used) if used}
    return _accept(inst, placement, "crc1-matching", stats)


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
    _admit(inst, "bmatch")
    order = sorted(inst.additional)
    n = len(order)
    level = _bound(inst) or n + max(len(d.candidates) for d in inst.districts)
    delta = [max(0, level - len(d.candidates)) for d in inst.districts]
    slack_units = sum(delta) - n
    stats = {"nodes": inst.k, "capacity_total": sum(delta)}
    if slack_units < 0:
        return _reject("b-matching", stats)

    edges = [
        (j, i, inst.pricing.price(i + 1, a) if inst.pricing else 0, 1)
        for j, a in enumerate(order)
        for i in range(inst.k)
    ]
    edges += [(n, i, 0, d) for i, d in enumerate(delta) if d >= 1]
    cap = inst.pricing.budget if inst.pricing is not None else 0
    result = min_weight_perfect_b_matching([1] * n + [slack_units], delta, edges, cap)
    stats["graph_edges"] = len(edges)
    if result is None:
        return _reject("b-matching", stats)
    placement = {
        order[j]: i + 1 for (j, i, _, _), used in zip(edges, result.used) if used and j < n
    }
    return _accept(inst, placement, "b-matching", stats)


# ---------------------------------------------------------------------------
# The exact engine: a subset DP over the verdict tables, and brute force
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1 << 14


def _masks(n: int, level: int, word: np.dtype):
    """The masks of n bits with at most `level` of them set, in increasing
    order, a _CHUNK_ROWS chunk at a time.  Below n they are grown bit by
    bit, each bit appended after the masks without it, which it exceeds."""
    if level >= n:
        for start in range(0, 1 << n, _CHUNK_ROWS):
            yield np.arange(start, min(start + _CHUNK_ROWS, 1 << n), dtype=word)
        return
    masks = np.zeros(1, dtype=word)
    for b in range(n):
        grow = masks[np.bitwise_count(masks) < level]
        masks = np.concatenate((masks, grow | word.type(1 << b)))
    for start in range(0, len(masks), _CHUNK_ROWS):
        yield masks[start : start + _CHUNK_ROWS]


def _mask_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """placed[r, j]: order[j] is in the set masks[r] (bit n-1-j stands for order[j])."""
    return (masks[:, None] & (1 << np.arange(n - 1, -1, -1, dtype=masks.dtype))) != 0


def _least(masks: np.ndarray, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each mask once, in increasing order, at its least cost."""
    by = np.argsort(masks)
    masks, costs = masks[by], costs[by]
    first = np.ones(len(masks), dtype=bool)
    first[1:] = masks[1:] != masks[:-1]
    starts = first.nonzero()[0]
    return masks[starts], np.minimum.reduceat(costs, starts)


class _PlacementDP:
    """The subset DP of `solve_brute` and `solve_fpt`, the read-back of its
    witness, and the node budget of both.

    Bit n-1-j of a mask stands for order[j].  A district takes at most
    `level` candidates: ℓ under a bound (a larger set cannot all win), else
    |A|.  `sets[d]` holds the sets district d+1 accepts, and `fwd[c]` each
    set that districts 1..c can take together, both as sorted masks with
    the least price of each, within the budget only.  Layer c builds table
    c when it first needs it, and keeps only the sets of at least
    n - (k-c)·level candidates, as the k-c districts left take at most
    level each.  The masks of the tables come a _CHUNK_ROWS chunk at a
    time and go to the oracle as they are; a chunk carries its rows, to be
    priced, only when some price is nonzero (`priced`), and a lone chunk is
    kept as `lone`.  The last district has no table: it is asked only about
    the complements of the sets of `fwd[k-1]`.  `limit` is the node budget: the DP is refused up
    front when its tables' (k-1)·Σ_{s≤level} C(n, s) rows exceed it (below
    n, `_masks` holds a table's masks at once, so this guards memory too),
    and stops once `work`, the oracle rows asked plus the disjoint pairs
    tried, exceeds it; both raise a resource error.

    Masks are int32 up to 30 candidates and int64 up to 63; past 63, one
    district asks about all of A as a Python int.  Prices take
    the narrowest unsigned type that holds 2·cap + 1, one byte when
    unpriced: a stored price is at most cap + 1 ("over budget"), so adding
    two never wraps.
    """

    def __init__(
        self, inst: RecampaignInstance, order: list[str], limit: float = math.inf
    ) -> None:
        self.inst, self.order, self.n, self.k = inst, order, len(order), inst.k
        self.level = min(_bound(inst) or self.n, self.n)
        if self.k > 1 and self.n > 63:  # one district needs no masks
            raise ResourceBudgetError(f"{self.n} candidates exceed the 63 bits of a mask")
        rows = (self.k - 1) * sum(math.comb(self.n, s) for s in range(self.level + 1))
        if rows > limit:
            raise ResourceBudgetError(f"{rows} table rows exceed the node budget {limit}")
        if isinstance(inst.rule, ExplicitScoringFamily):  # a missing vector, up front
            for own in sorted({len(d.candidates) for d in inst.districts}):
                for size in range(own, own + self.level + 1):
                    scoring_vector(inst.rule, size)
        self.limit, self.work = limit, 0
        self.prices, self.cap = _price_matrix(inst, order, self.level)
        self.priced = bool(self.prices.any())
        self.word = np.dtype(np.int32 if self.n <= 30 else np.int64 if self.n <= 63 else object)
        self.price = np.min_scalar_type(2 * self.cap + 1)
        self.full = (1 << self.n) - 1
        self.lone: tuple[np.ndarray, np.ndarray | None] | None = None
        self.sets: list[tuple[np.ndarray, np.ndarray]] = []
        self.fwd = [(np.zeros(1, dtype=self.word), np.zeros(1, dtype=self.price))]

    def _spend(self, work: int) -> None:
        self.work += work
        if self.work > self.limit:
            raise ResourceBudgetError(f"the DP's work passed the node budget {self.limit}")

    def _chunks(self):
        """Each chunk of masks with its rows, or None unpriced, where no
        price is asked.  A lone chunk is enumerated once and kept for every
        table; more chunks are enumerated again for each table, so memory
        stays bounded."""
        if self.lone is not None:
            yield self.lone
            return
        for i, span in enumerate(_masks(self.n, self.level, self.word)):
            chunk = span, _mask_rows(span, self.n) if self.priced else None
            if i == 0 and len(span) < _CHUNK_ROWS:  # the only chunk
                self.lone = chunk
            yield chunk

    def _table(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The sets district d (0-based) accepts within the budget, with
        their prices; the oracle is asked a chunk of masks at a time."""
        masks, costs = [], []
        for span, placed in self._chunks():
            if placed is None:  # unpriced: every set is within the budget
                cost = np.zeros(len(span), dtype=self.price)
            else:
                cost = placed @ self.prices[:, d]
                ok = cost <= self.cap
                span, cost = span[ok], cost[ok].astype(self.price)
            self._spend(len(span))
            ok = _accepts(self.inst, d, self.order, span)
            masks.append(span[ok])
            costs.append(cost[ok])
        return np.concatenate(masks), np.concatenate(costs)

    def _pairs(self, left: np.ndarray, right: np.ndarray):
        """Index pairs (i, j) with left[i] & right[j] == 0 for sorted masks,
        a block of at most _CHUNK_ROWS tried pairs at a time, each tried
        pair counted as work.  A set disjoint from L is at most full - L, so
        a block of left masks tries only the right masks up to full minus
        its least one."""
        for r0 in range(0, len(right), _CHUNK_ROWS):
            block = right[r0 : r0 + _CHUNK_ROWS]
            l0 = 0
            while l0 < len(left):
                fits = block[: block.searchsorted(self.full - left[l0], "right")]
                rows = left[l0 : l0 + _CHUNK_ROWS // max(1, len(fits))]
                self._spend(len(rows) * len(fits))
                i, j = ((rows[:, None] & fits) == 0).nonzero()
                yield i + l0, j + r0
                l0 += len(rows)

    def _forward(self, c: int) -> None:
        sets, set_cost = self._table(c - 1)
        self.sets.append((sets, set_cost))
        floor = max(0, self.n - (self.k - c) * self.level)
        if c == 1:  # from the empty set, district 1 reaches just the sets it accepts
            keep = np.bitwise_count(sets) >= floor
            self.fwd.append((sets[keep], set_cost[keep]))
            return
        left, left_cost = self.fwd[c - 1]
        masks, costs, held = [left[:0]], [left_cost[:0]], 0
        for i, j in self._pairs(left, sets):
            union, price = left[i] | sets[j], left_cost[i] + set_cost[j]
            keep = (price <= self.cap) & (np.bitwise_count(union) >= floor)
            masks.append(union[keep])
            costs.append(price[keep])
            held += len(masks[-1])
            if held > 4 * max(_CHUNK_ROWS, len(masks[0])):
                # merge at 4x the merged sets: memory stays bounded, sorting linear
                merged = _least(np.concatenate(masks), np.concatenate(costs))
                masks, costs, held = [merged[0]], [merged[1]], 0
        self.fwd.append(_least(np.concatenate(masks), np.concatenate(costs)))

    def _last_takes(self) -> tuple[int, int] | None:
        """The first set of `fwd[k-1]` whose complement the last district
        accepts within the budget, with the budget it leaves; None if none."""
        reach, reach_cost = self.fwd[-1]
        for start in range(0, len(reach), _CHUNK_ROWS):
            rest = self.full ^ reach[start : start + _CHUNK_ROWS]
            if self.priced:
                placed = _mask_rows(rest, self.n)
                # clipped into the price type: a mixed sum would go through float64
                togo = np.minimum(placed @ self.prices[:, -1], self.cap + 1).astype(self.price)
                ok = (reach_cost[start : start + _CHUNK_ROWS] + togo <= self.cap).nonzero()[0]
            else:  # every price 0: each complement is within the budget
                togo, ok = np.zeros(len(rest), dtype=self.price), np.arange(len(rest))
            self._spend(len(ok))
            ok = ok[_accepts(self.inst, self.k - 1, self.order, rest[ok])]
            if len(ok):
                return int(reach[start + ok[0]]), self.cap - int(togo[ok[0]])
        return None

    def placement(self) -> list[int] | None:
        """The district (1-based) of each candidate in a valid placement, or
        None if there is none.

        One district takes all of A or nothing.  Otherwise the forward pass
        stops at the first layer e that covers every candidate, or with NO
        at an empty layer; else the last district takes the complement of a
        set of layer k-1.  The final set is read back down the layers:
        district c takes a set S it accepts such that the rest of the set
        is in layer c-1 and the two prices fit the budget left."""
        if self.k == 1:
            self._spend(1)
            fits = self.level == self.n and self.prices[:, 0].sum() <= self.cap
            everyone = np.array([self.full], dtype=self.word)
            if fits and _accepts(self.inst, 0, self.order, everyone)[0]:
                return [1] * self.n
            return None
        e = 0
        while e < self.k - 1 and self.fwd[e][0][-1] != self.full:
            e += 1
            self._forward(e)
            if not len(self.fwd[e][0]):
                return None
        found = (self.full, self.cap) if self.fwd[e][0][-1] == self.full else self._last_takes()
        if found is None:
            return None
        mask, left = found
        districts = [self.k] * self.n
        c = e
        while mask:
            taken, price = self._take(c, mask, left)
            for j in range(self.n):
                if taken >> (self.n - 1 - j) & 1:
                    districts[j] = c
            mask ^= taken
            left -= price
            c -= 1
        return districts

    def _take(self, c: int, mask: int, left: int) -> tuple[int, int]:
        """A set S that district c accepts, with its price, such that
        mask - S is in `fwd[c-1]` and the two prices fit `left`; one exists
        whenever mask is in `fwd[c]` at a price within `left`."""
        sets, set_cost = self.sets[c - 1]
        reach, reach_cost = self.fwd[c - 1]
        stop = sets.searchsorted(self.word.type(mask), "right")  # S ⊆ mask: S ≤ mask
        for start in range(0, stop, _CHUNK_ROWS):
            part = sets[start : min(start + _CHUNK_ROWS, stop)]
            part_cost = set_cost[start : start + len(part)]
            rest = mask ^ part
            pos = np.minimum(reach.searchsorted(rest), len(reach) - 1)
            hit = (
                ((part & mask) == part)
                & (reach[pos] == rest)
                & (part_cost + reach_cost[pos] <= left)
            ).nonzero()[0]
            if len(hit):
                return int(part[hit[0]]), int(part_cost[hit[0]])
        raise AssertionError(f"no set of district {c} completes mask {mask}")


def _solve_by_dp(
    inst: RecampaignInstance, budget: int, algorithm: str, **extra: int
) -> SolveResult:
    """Run the DP under the node budget: `nodes` is its work, `members` the
    accepted sets in the tables it built."""
    order = sorted(inst.additional)
    dp = _PlacementDP(inst, order, budget)
    districts = dp.placement()
    stats = {"nodes": dp.work, "members": sum(len(m) for m, _ in dp.sets), **extra}
    if districts is None:
        return _reject(algorithm, stats)
    return _accept(inst, dict(zip(order, districts)), algorithm, stats)


def solve_brute(
    inst: RecampaignInstance, node_budget: int | None = None
) -> SolveResult:
    """Decide any variant exactly by a subset DP over the verdict tables.

    District i's table holds the sets of additional candidates it accepts.
    A DP over (district, covered set) decides the instance: reachability
    when unpriced, the least price within the budget when priced (the
    partition-into-accepted-blocks DP of Björklund, Husfeldt, Kaski and
    Koivisto, STOC 2007).  The witness, a valid placement, is read back
    from the forward layers.  The DP holds the node budget (resource error
    up front or partway, see `_PlacementDP`), and `nodes` is its work.
    """
    return _solve_by_dp(inst, _resolve_budget(node_budget), "brute")


# ---------------------------------------------------------------------------
# Bounded variants: the exact-cover system and the FPT route
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
    """The admissible (district, placed-set) members over the sets of at most
    ℓ candidates, judged on the referee's path (`election_with`, `winners`).

    A nonempty set A′ is admissible for district i when every member of A′
    wins the district election with exactly A′ added, the winner count stays
    within the bound, and its price fits the budget on its own (costlier
    members could never join a within-budget cover).  The empty set is
    admissible everywhere.  The instance decides Yes iff some selection of
    one member per district has pairwise-disjoint placed sets covering A
    with total weight within budget.  Weights are exact Python ints.
    """
    if not isinstance(inst.bound, AtMost):
        raise WrongVariantError("the cover system is defined for bounded instances")
    if inst.pricing is None:
        raise PreconditionError("price the instance first (see lift_to_priced)")
    order = sorted(inst.additional)
    limit, budget = inst.bound.limit, inst.pricing.budget
    members = []
    for i in range(1, inst.k + 1):
        for size in range(min(limit, len(order)) + 1):
            for combo in itertools.combinations(order, size):
                placed = frozenset(combo)
                weight = sum(inst.pricing.price(i, a) for a in combo)
                # an untouched district carries no condition
                wins = winners(inst.rule, inst.election_with(i, placed)) if placed else placed
                if weight <= budget and placed <= wins and len(wins) <= limit:
                    members.append(CoverMember(i, placed, weight))
    return CoverSystem(frozenset(order), tuple(range(1, inst.k + 1)), tuple(members), budget)


def solve_fpt(
    inst: RecampaignInstance, node_budget: int | None = None
) -> SolveResult:
    """Decide any bounded variant: guard, then the subset DP at level ℓ.

    More than k·ℓ additional candidates can never all win (each touched
    district holds at most ℓ of them), so such instances are rejected
    outright.  Otherwise `solve_brute` decides, with the label `fpt`: its
    DP asks only about the sets of at most ℓ candidates, the members of
    the exact-cover system, under the same node budget, and `nodes` is its
    work.  `members` counts the accepted sets in the tables the DP built.
    """
    _admit(inst, "fpt")
    budget = _resolve_budget(node_budget)
    if len(inst.additional) > inst.k * inst.bound.limit:
        return _reject("fpt", {"nodes": 0, "members": 0, "guard": 1})
    return _solve_by_dp(inst, budget, "fpt", guard=0)


# ---------------------------------------------------------------------------
# The two artificial rules
# ---------------------------------------------------------------------------


def solve_e1_bound3(inst: RecampaignInstance) -> SolveResult:
    """E1 with bound 3, unpriced: pure counting.

    A district elects its slate iff it ends up with exactly 3 candidates, so
    districts with 0/1/2 own candidates absorb exactly 3/2/1 additional
    candidates or none, and larger districts absorb none.  Yes iff |A| is a
    feasible sum of those capacities.  Each pair of 1-room and 2-room takes
    fixes the 3-room take, so the search is quadratic in k.
    """
    _admit(inst, "e1")
    n = len(inst.additional)
    hosts: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for i, d in enumerate(inst.districts, start=1):
        room = 3 - len(d.candidates)
        if 1 <= room <= 3:
            hosts[room].append(i)
    scanned = 0
    for take1 in range(len(hosts[1]) + 1):
        for take2 in range(len(hosts[2]) + 1):
            scanned += 1
            take3, rest = divmod(n - take1 - 2 * take2, 3)
            if rest == 0 and 0 <= take3 <= len(hosts[3]):
                takes = zip((1, 2, 3), (take1, take2, take3))
                slots = [i for room, t in takes for i in hosts[room][:t] for _ in range(room)]
                placement = dict(zip(sorted(inst.additional), slots))
                return _accept(inst, placement, "e1-bound3", {"nodes": scanned})
    return _reject("e1-bound3", {"nodes": scanned})


def solve_e2_unbounded(inst: RecampaignInstance) -> SolveResult:
    """E2 unbounded, unpriced: constant-size case analysis.

    With |A| ≥ 4 dumping everybody into district 1 always works (E2 elects
    the whole slate at ≥ 4 candidates); otherwise at most k³ placements
    exist and are all checked.
    """
    _admit(inst, "e2")
    order = sorted(inst.additional)
    if len(order) >= 4:
        return _accept(inst, {a: 1 for a in order}, "e2-unbounded", {"nodes": 1})
    nodes = 0
    for digs in itertools.product(range(1, inst.k + 1), repeat=len(order)):
        nodes += 1
        asg = Assignment({a: i for a, i in zip(order, digs)})
        if verify(inst, asg).valid:
            return SolveResult(True, asg, "e2-unbounded", {"nodes": nodes}, None)
    return _reject("e2-unbounded", {"nodes": nodes})


# ---------------------------------------------------------------------------
# The route table and dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """One method and the variant it decides: `test` says whether an instance
    is that variant, `variant` names it in the method's `WrongVariantError`,
    and a `budgeted` method runs the subset DP and so takes the node budget."""

    method: Callable[..., SolveResult]
    variant: str
    test: Callable[[RecampaignInstance], bool]
    budgeted: bool = False


def _unpriced(rule: type, bound: int | None) -> Callable[[RecampaignInstance], bool]:
    """The test for the unpriced instances of one rule at one bound (None: unbounded)."""
    return lambda inst: (
        isinstance(inst.rule, rule) and _bound(inst) == bound and inst.pricing is None
    )


# Keyed by `recamp solve --algorithm` value, in the order `solve_auto` tries them.
ROUTES: dict[str, Route] = {
    "e1": Route(solve_e1_bound3, "unpriced E1 at bound 3", _unpriced(E1, 3)),
    "e2": Route(solve_e2_unbounded, "unpriced unbounded E2", _unpriced(E2, None)),
    "bmatch": Route(
        solve_trivial_scoring,
        "the trivial scoring rule",
        lambda inst: isinstance(inst.rule, TrivialScoring),
    ),
    "crc1": Route(solve_crc1, "bound 1", lambda inst: _bound(inst) == 1),
    "fpt": Route(solve_fpt, "bounded variants", lambda inst: _bound(inst) is not None, True),
    "brute": Route(solve_brute, "every variant", lambda inst: True, True),
}


def _admit(inst: RecampaignInstance, name: str) -> None:
    """Refuse an instance that route `name` does not decide."""
    route = ROUTES[name]
    if not route.test(inst):
        raise WrongVariantError(f"{route.method.__name__} decides only {route.variant}")


def solve_auto(inst: RecampaignInstance, node_budget: int | None = None) -> SolveResult:
    """Decide by the first route of `ROUTES` whose test holds."""
    route = next(route for route in ROUTES.values() if route.test(inst))
    return route.method(inst, node_budget) if route.budgeted else route.method(inst)
