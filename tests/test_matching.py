"""Tests for the two bipartite matching engines, cross-checked against the
exhaustive oracles in `oracles.py`."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from recamp import (
    AtMost,
    Borda,
    District,
    LinearVote,
    Pricing,
    RecampaignInstance,
    ShapeError,
    TrivialScoring,
    min_cost_max_cardinality_matching,
    min_weight_perfect_b_matching,
    solve_crc1,
    solve_trivial_scoring,
)
from recamp import matching

from oracles import b_matching_optimum, matching_optimum, random_degrees, random_graph


def degrees(n_left, n_right, edges, used):
    """The units each vertex meets, left side then right side."""
    left, right = [0] * n_left, [0] * n_right
    for (u, v, _, _), units in zip(edges, used):
        left[u] += units
        right[v] += units
    return left, right


def worked_example_graph():
    """The three-candidate, three-district layout with a slack sink.

    Left vertices a1, a2, a3 and the sink s are 0-3; districts d1-d3 are
    0-2.  District degree targets (3, 2, 0) absorb up to three, two, and
    zero placements; the sink soaks up the two units the candidates cannot
    fill.
    """
    edges = [
        (0, 0, 5, 1),
        (0, 1, 3, 1),
        (0, 2, 0, 1),
        (1, 0, 8, 1),
        (1, 1, 1, 1),
        (1, 2, 0, 1),
        (2, 0, 10, 1),
        (2, 1, 16, 1),
        (2, 2, 0, 1),
        (3, 0, 0, 3),
        (3, 1, 0, 2),
    ]
    return [1, 1, 1, 2], [3, 2, 0], edges


class TestMaxCardinalityMatching:
    def test_single_edge(self):
        result = min_cost_max_cardinality_matching(1, 1, [(0, 0, 7, 1)])
        assert result.cardinality == 1
        assert result.weight == 7
        assert result.used == (1,)

    def test_prefers_cheaper_singleton(self):
        result = min_cost_max_cardinality_matching(2, 1, [(0, 0, 1, 1), (1, 0, 0, 1)])
        assert result.cardinality == 1
        assert result.weight == 0

    def test_empty_graph(self):
        result = min_cost_max_cardinality_matching(0, 0, [])
        assert result.cardinality == 0
        assert result.weight == 0
        assert result.used == ()

    def test_cardinality_beats_weight(self):
        # the expensive pair of edges still wins over one free edge
        edges = [(0, 0, 0, 1), (0, 1, 9, 1), (1, 0, 9, 1)]
        result = min_cost_max_cardinality_matching(2, 2, edges)
        assert result.cardinality == 2
        assert result.weight == 18

    def test_each_vertex_used_at_most_once(self):
        rng = random.Random(5)
        for _ in range(100):
            left, right, edges = random_graph(rng, max_side=5)
            result = min_cost_max_cardinality_matching(left, right, edges)
            assert len(result.used) == len(edges)
            assert set(result.used) <= {0, 1}
            seen_left, seen_right = degrees(left, right, edges, result.used)
            assert max(seen_left + seen_right, default=0) <= 1

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_optimum(self, seed):
        rng = random.Random(seed)
        left, right, edges = random_graph(rng, max_side=4, simple=True)
        result = min_cost_max_cardinality_matching(left, right, edges)
        assert (result.cardinality, result.weight) == matching_optimum(edges)


class TestPerfectBMatching:
    def test_all_zero_degrees(self):
        result = min_weight_perfect_b_matching([0], [0], [(0, 0, 3, 1)], 0)
        assert result is not None
        assert result.cardinality == 0
        assert result.weight == 0

    def test_worked_example_optimum_is_14(self):
        b_left, b_right, edges = worked_example_graph()
        result = min_weight_perfect_b_matching(b_left, b_right, edges, 16)
        assert result is not None
        assert result.weight == 14
        # a1 and a2 sit in district 2, a3 in district 1, slack fills the rest
        assert result.used == (0, 1, 0, 0, 1, 0, 1, 0, 0, 2, 0)
        assert degrees(4, 3, edges, result.used) == (b_left, b_right)

    def test_worked_example_cap_13_absent(self):
        b_left, b_right, edges = worked_example_graph()
        assert min_weight_perfect_b_matching(b_left, b_right, edges, 13) is None

    def test_cap_exactly_at_optimum(self):
        b_left, b_right, edges = worked_example_graph()
        assert min_weight_perfect_b_matching(b_left, b_right, edges, 14).weight == 14

    def test_infeasible_degrees(self):
        edges = [(0, 0, 0, 1)]
        assert min_weight_perfect_b_matching([2], [1], edges, 99) is None
        assert min_weight_perfect_b_matching([2], [2], edges, 99) is None

    def test_multiplicity_allows_reuse(self):
        result = min_weight_perfect_b_matching([3], [3], [(0, 0, 2, 3)], 6)
        assert result is not None
        assert result.weight == 6
        assert result.used == (3,)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_optimum(self, seed):
        rng = random.Random(seed)
        left, right, edges = random_graph(rng, max_side=3)
        b_left, b_right = random_degrees(rng, left, right)
        best = b_matching_optimum(b_left, b_right, edges)
        cap = 10**6
        result = min_weight_perfect_b_matching(b_left, b_right, edges, cap)
        if best is None:
            assert result is None
        else:
            assert result is not None
            assert result.weight == best
            # the result really is a perfect b-matching
            for (_, _, _, multiplicity), units in zip(edges, result.used):
                assert 0 <= units <= multiplicity
            assert degrees(left, right, edges, result.used) == (b_left, b_right)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120, deadline=None)
    def test_cap_monotone(self, seed):
        """Raising the cap never turns a feasible answer into an absent one."""
        rng = random.Random(seed)
        left, right, edges = random_graph(rng, max_side=3)
        b_left, b_right = random_degrees(rng, left, right)
        best = b_matching_optimum(b_left, b_right, edges)
        if best is None:
            for cap in (0, 5, 10**6):
                assert min_weight_perfect_b_matching(b_left, b_right, edges, cap) is None
            return
        assert min_weight_perfect_b_matching(b_left, b_right, edges, best).weight == best
        assert min_weight_perfect_b_matching(b_left, b_right, edges, best + 1).weight == best
        if best > 0:
            assert min_weight_perfect_b_matching(b_left, b_right, edges, best - 1) is None


BAD_EDGES = [
    pytest.param((1, 0, 0, 1), id="left-endpoint-past-side"),
    pytest.param((0, 1, 0, 1), id="right-endpoint-past-side"),
    pytest.param((-1, 0, 0, 1), id="negative-left-endpoint"),
    pytest.param((0, -1, 0, 1), id="negative-right-endpoint"),
    pytest.param((0, 0, -1, 1), id="negative-weight"),
    pytest.param((0, 0, True, 1), id="bool-weight"),
    pytest.param((0, 0, 0, 0), id="zero-multiplicity"),
]


class TestValidation:
    @pytest.mark.parametrize("edge", BAD_EDGES)
    def test_bad_edge_max_cardinality(self, edge):
        with pytest.raises(ShapeError):
            min_cost_max_cardinality_matching(1, 1, [edge])

    @pytest.mark.parametrize("edge", BAD_EDGES)
    def test_bad_edge_b_matching(self, edge):
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching([1], [1], [edge], 0)

    @pytest.mark.parametrize(
        "b_left, b_right",
        [([-1], [-1]), ([0], [-1]), ([True], [1]), ([1], [True])],
        ids=["negative-both", "negative-right", "bool-left", "bool-right"],
    )
    def test_bad_degree_target(self, b_left, b_right):
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching(b_left, b_right, [(0, 0, 0, 1)], 0)

    @pytest.mark.parametrize("cap", [-1, True, 1.5])
    def test_bad_cap(self, cap):
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching([0], [0], [(0, 0, 0, 1)], cap)

    @pytest.mark.parametrize("left, right", [(-1, 1), (1, True)])
    def test_bad_side_size(self, left, right):
        with pytest.raises(ShapeError):
            min_cost_max_cardinality_matching(left, right, [])


def large_graph(rng):
    """Up to 40 x 12 vertices with parallel edges, multiplicities up to 3
    and weights both tiny (many ties) and far beyond int64; the degree
    targets are those of a random b-matching, so they can be met."""
    n_left, n_right = rng.randint(1, 40), rng.randint(1, 12)
    edges = [
        (
            rng.randrange(n_left),
            rng.randrange(n_right),
            rng.choice((rng.randint(0, 4), rng.randint(0, 10**30))),
            rng.randint(1, 3),
        )
        for _ in range(rng.randint(0, 4 * n_left))
    ]
    used = [rng.randint(0, multiplicity) for _, _, _, multiplicity in edges]
    b_left, b_right = degrees(n_left, n_right, edges, used)
    return b_left, b_right, edges


def assert_certified(net, s=0, t=1, maximum=False):
    """The kept potentials certify a min-cost flow: every arc with
    capacity left has a reduced cost >= 0.  For a maximum flow, t is also
    out of reach in the residual graph."""
    pot = net.potential
    for arc, v in enumerate(net.to):
        if net.cap[arc] > 0:
            assert net.cost[arc] + pot[net.to[arc ^ 1]] - pot[v] >= 0
    if maximum:
        reached, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for arc in net.head[u]:
                if net.cap[arc] > 0 and net.to[arc] not in reached:
                    reached.add(net.to[arc])
                    stack.append(net.to[arc])
        assert t not in reached


def instance(rng, rule, k, n, votes, bound):
    """k districts of 0-3 own candidates (2 each when there are ballots) and
    n additional candidates priced 1-20 under a budget no placement hits."""
    extra = [f"a{j}" for j in range(n)]
    districts = []
    for i in range(k):
        own = [f"d{i}c{j}" for j in range(2 if votes else rng.randint(0, 3))]
        pool = own + extra
        ballots = [LinearVote(rng.sample(pool, len(pool))) for _ in range(votes)]
        districts.append(District(own, ballots))
    prices = {(i, a): rng.randint(1, 20) for i in range(1, k + 1) for a in extra}
    pricing = Pricing(prices, 10**6)
    return RecampaignInstance(rule, tuple(districts), frozenset(extra), AtMost(bound), pricing)


class TestPrimalDual:
    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_potentials_certify_optimality(self, seed):
        b_left, b_right, edges = large_graph(random.Random(seed))
        nets = []
        run = matching._MinCostFlow.run

        def kept(net, *args, **kwargs):
            nets.append(net)
            return run(net, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matching._MinCostFlow, "run", kept)
            min_cost_max_cardinality_matching(len(b_left), len(b_right), edges)
            assert_certified(nets[-1], maximum=True)
            cap = sum(weight * multiplicity for _, _, weight, multiplicity in edges)
            result = min_weight_perfect_b_matching(b_left, b_right, edges, cap)
            assert_certified(nets[-1])
        assert degrees(len(b_left), len(b_right), edges, result.used) == (b_left, b_right)

    @pytest.mark.parametrize(
        "seed, rule, k, n, votes, bound, solve, most",
        [
            # 103 augmenting paths
            (0, TrivialScoring(), 10, 100, 0, 15, solve_trivial_scoring, 25),
            # 40 augmenting paths, then a search that finds t cut off
            (2, Borda(), 40, 40, 5, 1, solve_crc1, 20),
        ],
    )
    def test_one_reprice_per_path_length(
        self, monkeypatch, seed, rule, k, n, votes, bound, solve, most
    ):
        """One reprice serves every augmenting path of one length, so the
        searches are far fewer than the 103 and 41 that one search per
        augmenting path makes (9 and 12 at the time of writing)."""
        calls = []
        reprice = matching._MinCostFlow._reprice

        def counted(net, s, t):
            calls.append(s)
            return reprice(net, s, t)

        monkeypatch.setattr(matching._MinCostFlow, "_reprice", counted)
        result = solve(instance(random.Random(seed), rule, k, n, votes, bound))
        assert result.answer
        assert len(calls) <= most
