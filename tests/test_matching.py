"""Tests for the two bipartite matching engines, cross-checked against the
exhaustive oracles in `oracles.py`."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from recamp import (
    AtMost,
    BipartiteMultigraph,
    Borda,
    District,
    Edge,
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


def worked_example_graph():
    """The three-candidate, three-district layout with a slack sink.

    District degree targets (3, 2, 0) absorb up to three, two, and zero
    placements; the sink soaks up the two units the candidates cannot fill.
    """
    edges = [
        Edge("a1", "d1", 5),
        Edge("a1", "d2", 3),
        Edge("a1", "d3", 0),
        Edge("a2", "d1", 8),
        Edge("a2", "d2", 1),
        Edge("a2", "d3", 0),
        Edge("a3", "d1", 10),
        Edge("a3", "d2", 16),
        Edge("a3", "d3", 0),
        Edge("s", "d1", 0, multiplicity=3),
        Edge("s", "d2", 0, multiplicity=2),
    ]
    g = BipartiteMultigraph(["a1", "a2", "a3", "s"], ["d1", "d2", "d3"], edges)
    b = {"a1": 1, "a2": 1, "a3": 1, "s": 2, "d1": 3, "d2": 2, "d3": 0}
    return g, b


class TestMaxCardinalityMatching:
    def test_single_edge(self):
        g = BipartiteMultigraph(["a"], ["d"], [Edge("a", "d", 7)])
        result = min_cost_max_cardinality_matching(g)
        assert result.cardinality == 1
        assert result.weight == 7
        assert result.chosen == ((Edge("a", "d", 7), 1),)

    def test_prefers_cheaper_singleton(self):
        g = BipartiteMultigraph(["a", "b"], ["d"], [Edge("a", "d", 1), Edge("b", "d", 0)])
        result = min_cost_max_cardinality_matching(g)
        assert result.cardinality == 1
        assert result.weight == 0

    def test_empty_graph(self):
        result = min_cost_max_cardinality_matching(BipartiteMultigraph([], []))
        assert result.cardinality == 0
        assert result.weight == 0
        assert result.chosen == ()

    def test_cardinality_beats_weight(self):
        # the expensive pair of edges still wins over one free edge
        g = BipartiteMultigraph(
            ["a", "b"],
            ["d", "e"],
            [Edge("a", "d", 0), Edge("a", "e", 9), Edge("b", "d", 9)],
        )
        result = min_cost_max_cardinality_matching(g)
        assert result.cardinality == 2
        assert result.weight == 18

    def test_each_vertex_used_at_most_once(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, max_side=5)
            result = min_cost_max_cardinality_matching(g)
            seen_left, seen_right = set(), set()
            for edge, used in result.chosen:
                assert used == 1
                assert edge.left not in seen_left
                assert edge.right not in seen_right
                seen_left.add(edge.left)
                seen_right.add(edge.right)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_optimum(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_side=4, simple=True)
        result = min_cost_max_cardinality_matching(g)
        card, weight = matching_optimum(g)
        assert (result.cardinality, result.weight) == (card, weight)


class TestPerfectBMatching:
    def test_all_zero_degrees(self):
        g = BipartiteMultigraph(["a"], ["d"], [Edge("a", "d", 3)])
        result = min_weight_perfect_b_matching(g, {"a": 0, "d": 0}, 0)
        assert result is not None
        assert result.cardinality == 0
        assert result.weight == 0

    def test_worked_example_optimum_is_14(self):
        g, b = worked_example_graph()
        result = min_weight_perfect_b_matching(g, b, 16)
        assert result is not None
        assert result.weight == 14
        used = {(e.left, e.right): n for e, n in result.chosen}
        # a1 and a2 sit in district 2, a3 in district 1, slack fills the rest
        assert used[("a1", "d2")] == 1
        assert used[("a2", "d2")] == 1
        assert used[("a3", "d1")] == 1
        assert used[("s", "d1")] == 2
        degree = {}
        for (left, right), n in used.items():
            degree[left] = degree.get(left, 0) + n
            degree[right] = degree.get(right, 0) + n
        assert degree == {k: v for k, v in b.items() if v > 0}

    def test_worked_example_cap_13_absent(self):
        g, b = worked_example_graph()
        assert min_weight_perfect_b_matching(g, b, 13) is None

    def test_cap_exactly_at_optimum(self):
        g, b = worked_example_graph()
        assert min_weight_perfect_b_matching(g, b, 14).weight == 14

    def test_infeasible_degrees(self):
        g = BipartiteMultigraph(["a"], ["d"], [Edge("a", "d", 0)])
        assert min_weight_perfect_b_matching(g, {"a": 2, "d": 1}, 99) is None
        assert min_weight_perfect_b_matching(g, {"a": 2, "d": 2}, 99) is None

    def test_multiplicity_allows_reuse(self):
        g = BipartiteMultigraph(["a"], ["d"], [Edge("a", "d", 2, multiplicity=3)])
        result = min_weight_perfect_b_matching(g, {"a": 3, "d": 3}, 6)
        assert result is not None
        assert result.weight == 6
        assert result.chosen[0][1] == 3

    def test_validation(self):
        g = BipartiteMultigraph(["a"], ["d"], [Edge("a", "d", 0)])
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching(g, {"a": 1, "d": 1, "zz": 0}, 0)
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching(g, {"a": 1}, 0)
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching(g, {"a": -1, "d": -1}, 0)
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching(g, {"a": 0, "d": 0}, -1)
        with pytest.raises(ShapeError):
            min_weight_perfect_b_matching(g, {"a": 0, "d": 0}, True)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_optimum(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, max_side=3)
        b = random_degrees(rng, g)
        best = b_matching_optimum(g, b)
        cap = 10**6
        result = min_weight_perfect_b_matching(g, b, cap)
        if best is None:
            assert result is None
        else:
            assert result is not None
            assert result.weight == best
            # the result really is a perfect b-matching
            degree = {v: 0 for v in g.left + g.right}
            for edge, n in result.chosen:
                assert 1 <= n <= edge.multiplicity
                degree[edge.left] += n
                degree[edge.right] += n
            assert degree == b

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120, deadline=None)
    def test_cap_monotone(self, seed):
        """Raising the cap never turns a feasible answer into an absent one."""
        rng = random.Random(seed)
        g = random_graph(rng, max_side=3)
        b = random_degrees(rng, g)
        best = b_matching_optimum(g, b)
        if best is None:
            for cap in (0, 5, 10**6):
                assert min_weight_perfect_b_matching(g, b, cap) is None
            return
        assert min_weight_perfect_b_matching(g, b, best).weight == best
        assert min_weight_perfect_b_matching(g, b, best + 1).weight == best
        if best > 0:
            assert min_weight_perfect_b_matching(g, b, best - 1) is None


def large_graph(rng):
    """Up to 40 x 12 vertices with parallel edges, multiplicities up to 3
    and weights both tiny (many ties) and far beyond int64; the degree
    targets are those of a random b-matching, so they can be met."""
    left = [f"l{i}" for i in range(rng.randint(1, 40))]
    right = [f"r{i}" for i in range(rng.randint(1, 12))]
    edges = [
        Edge(
            rng.choice(left),
            rng.choice(right),
            rng.choice((rng.randint(0, 4), rng.randint(0, 10**30))),
            rng.randint(1, 3),
        )
        for _ in range(rng.randint(0, 4 * len(left)))
    ]
    b = dict.fromkeys(left + right, 0)
    for e in edges:
        used = rng.randint(0, e.multiplicity)
        b[e.left] += used
        b[e.right] += used
    return BipartiteMultigraph(left, right, edges), b


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
        g, b = large_graph(random.Random(seed))
        nets = []
        run = matching._MinCostFlow.run

        def kept(net, *args, **kwargs):
            nets.append(net)
            return run(net, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matching._MinCostFlow, "run", kept)
            min_cost_max_cardinality_matching(g)
            assert_certified(nets[-1], maximum=True)
            cap = sum(e.weight * e.multiplicity for e in g.edges)
            result = min_weight_perfect_b_matching(g, b, cap)
            assert_certified(nets[-1])
        degree = dict.fromkeys(b, 0)
        for e, used in result.chosen:
            degree[e.left] += used
            degree[e.right] += used
        assert degree == b

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


class TestGraphValidation:
    def test_duplicate_vertices(self):
        with pytest.raises(ShapeError):
            BipartiteMultigraph(["a", "a"], ["d"])
        with pytest.raises(ShapeError):
            BipartiteMultigraph(["a"], ["a"])

    def test_unknown_endpoint(self):
        with pytest.raises(ShapeError):
            BipartiteMultigraph(["a"], ["d"], [Edge("a", "zz", 0)])

    def test_edge_validation(self):
        with pytest.raises(ShapeError):
            Edge("a", "d", -1)
        with pytest.raises(ShapeError):
            Edge("a", "d", 0, multiplicity=0)
