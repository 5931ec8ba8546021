"""Decision procedures for the recampaigning problem.

Entry points (all return a `SolveResult`):

- `solve_crc1`            bound ℓ=1, any rule: weighted bipartite matching.
- `solve_trivial_scoring` trivial scoring rule, any bound: perfect b-matching.
- `solve_fpt`             bounded variant, any rule: guard n ≤ k·ℓ, then an
                          exact-cover search over per-district winning sets.
- `solve_brute`           exhaustive scan of all k^|A| placements, the
                          reference oracle for the rest.
- `solve_e1_bound3`       the E1 rule with bound 3: counting argument.
- `solve_e2_unbounded`    the E2 rule unbounded: at most k³ checks.
- `solve_auto`            dispatches to the cheapest applicable method.

crc1 (singletons), the cover build (sets of size ≤ ℓ) and brute (every
subset) ask one batched question, `_accepts`: which sets S ⊆ A does district
i accept, electing all of S within the bound?  `verify` stays on the object
path as the independent referee for every YES.  fpt and brute honour the
node budget.
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
    """winner[r, c]: c wins the scoring election on the candidates present in row r."""
    if isinstance(rule, ExplicitScoringFamily):
        alpha = np.zeros((int(size.max(initial=0)) + 1,) * 2, dtype=np.int64)
        for m in np.unique(size).tolist():
            if m >= 1:
                alpha[m, :m] = scoring_vector(rule, m)
    scores = np.zeros(present.shape, dtype=np.int64)
    for vote in votes:
        perm = np.fromiter((index[c] for c in vote.order), dtype=np.int64)
        pv = present[:, perm]
        ranks = pv.cumsum(axis=1)
        if isinstance(rule, TApproval):
            pts = pv & (ranks <= rule.t)
        elif isinstance(rule, TVeto):
            pts = pv & (ranks <= (size - rule.t)[:, None])
        elif isinstance(rule, Borda):
            pts = (size[:, None] - ranks) * pv
        else:  # ExplicitScoringFamily
            pts = np.where(pv, alpha[size[:, None], ranks - 1], 0)
        scores[:, perm] += pts
    masked = np.where(present, scores, _SCORE_SENTINEL)
    return present & (masked == masked.max(axis=1, initial=_SCORE_SENTINEL)[:, None])


def _condorcet_winners(votes, index: dict[str, int], present: np.ndarray) -> np.ndarray:
    """winner[r, c]: c beats every other candidate present in row r.

    Restricting a ballot keeps its pairwise order, so one majority matrix
    over the full pool serves every row."""
    width = present.shape[1]
    above = np.zeros((width, width), dtype=np.int64)
    for vote in votes:
        pos = np.empty(width, dtype=np.int64)
        pos[[index[c] for c in vote.order]] = np.arange(width)
        above += pos[:, None] < pos[None, :]
    misses = (2 * above <= len(votes)) & ~np.eye(width, dtype=bool)
    unbeaten = present.astype(np.int64) @ misses.T.astype(np.int64)
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
        present = np.ones((len(placed), len(index)), dtype=bool)
        present[:, len(own):] = placed
        if isinstance(rule, Condorcet):
            winner = _condorcet_winners(district.votes, index, present)
        elif isinstance(rule, E2):
            winner = _scoring_winners(TApproval(1), district.votes, index, present, size)
            winner[size >= 4] = present[size >= 4]
        else:
            winner = _scoring_winners(rule, district.votes, index, present, size)
        placed_win = np.all(winner[:, len(own):] | ~placed, axis=1)
        win_count = winner.sum(axis=1)
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
# Brute force
# ---------------------------------------------------------------------------

_CHUNK_ROWS = 1 << 14


def _probe_explicit_vectors(inst: RecampaignInstance, n: int) -> None:
    if isinstance(inst.rule, ExplicitScoringFamily):
        for d in inst.districts:
            for size in range(len(d.candidates), len(d.candidates) + n + 1):
                scoring_vector(inst.rule, size)


def _half_tables(
    k: int, first: int, count: int, prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-district masks and costs of each placement of order[first:first+count].

    Placements run in lexicographic order; masks[p, d] holds the bits of the
    candidates that placement p sends to district d; bit n-1-j stands for
    order[j]."""
    idx = np.arange(k**count, dtype=np.int64)
    digits = (idx[:, None] // k ** np.arange(count - 1, -1, -1, dtype=np.int64)) % k
    bits = np.int64(1) << (len(prices) - 1 - np.arange(first, first + count))
    masks = np.stack([((digits == d) * bits).sum(axis=1) for d in range(k)], axis=1)
    costs = prices[np.arange(first, first + count), digits].sum(axis=1)
    return masks, costs


def solve_brute(
    inst: RecampaignInstance, node_budget: int | None = None
) -> SolveResult:
    """Scan every placement of A into the districts, first witness wins.

    Placements are enumerated lexicographically in (sorted candidate,
    district index) order, so the returned witness is reproducible.  The
    scan is refused up front (resource error) when k^|A| exceeds the node
    budget.
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
    if n == 0:
        return _accept(inst, {}, "brute", {"nodes": 1, "placements": 1}, 0 if inst.pricing else None)
    if k == 1:
        placement = {a: 1 for a in order}
        asg = Assignment(placement)
        report = verify(inst, asg)
        stats = {"nodes": 1, "placements": 1}
        if report.valid:
            return SolveResult(True, asg, "brute", stats, report.total_cost)
        return _reject("brute", stats)

    # Each district's verdict table is filled a chunk of masks at a time, on
    # first use.  The leading candidates take the high bits, so a block of
    # consecutive placements touches few chunks: an early witness does not
    # pay for the whole table.
    tables = np.zeros((k, 1 << n), dtype=bool)
    filled = np.zeros((k, max(1, (1 << n) // _CHUNK_ROWS)), dtype=bool)
    bit_of = np.arange(n - 1, -1, -1)

    def accepted(d: int, masks: np.ndarray) -> np.ndarray:
        if not filled[d].all():
            for c in np.unique(masks // _CHUNK_ROWS).tolist():
                if not filled[d, c]:
                    span = np.arange(c * _CHUNK_ROWS, min((c + 1) * _CHUNK_ROWS, 1 << n))
                    placed = ((span[:, None] >> bit_of) & 1).astype(bool)
                    tables[d, span] = _accepts(inst, d, order, placed)
                    filled[d, c] = True
        return tables[d, masks]

    # A placement is a digit string over the sorted candidates; split it into
    # a high and a low half.  Row-major order over (high, low) is the
    # lexicographic order, so the first survivor is the first witness.
    priced = inst.pricing is not None
    prices = _price_matrix(inst, order) if priced else np.zeros((n, k), dtype=np.int64)
    split = n // 2
    hi_masks, hi_costs = _half_tables(k, 0, split, prices)
    lo_masks, lo_costs = _half_tables(k, split, n - split, prices)
    n_lo = len(lo_costs)
    block = max(1, _CHUNK_ROWS // n_lo)
    for h0 in range(0, len(hi_costs), block):
        width = min(block, len(hi_costs) - h0)
        hi = np.repeat(np.arange(h0, h0 + width, dtype=np.int64), n_lo)
        lo = np.tile(np.arange(n_lo, dtype=np.int64), width)
        if priced:
            fits = hi_costs[hi] + lo_costs[lo] <= inst.pricing.budget
            hi, lo = hi[fits], lo[fits]
        for d in range(k):
            keep = accepted(d, hi_masks[hi, d] | lo_masks[lo, d])
            hi, lo = hi[keep], lo[keep]
        if hi.size:
            h, l = int(hi[0]), int(lo[0])
            index = h * n_lo + l
            placement = {order[j]: index // k ** (n - 1 - j) % k + 1 for j in range(n)}
            stats = {"nodes": index + 1, "placements": total}
            cost_val = int(hi_costs[h] + lo_costs[l]) if priced else None
            return _accept(inst, placement, "brute", stats, cost_val)
    return _reject("brute", {"nodes": total, "placements": total})


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
