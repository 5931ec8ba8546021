"""Tests for the hardness-reduction generators and their source-problem
deciders.

Every reduction is checked two ways: structural pins from the construction
(vote counts, prices, winner lemmas district by district) and end-to-end
decision equivalence against the brute-force solver on desk-sized inputs.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import recamp
from recamp import (
    Borda,
    Condorcet,
    E1,
    Exactly3ThreeDMInstance,
    OneInThreeSatInstance,
    PreconditionError,
    R3DMInstance,
    ResourceBudgetError,
    ShapeError,
    TApproval,
    TrivialityError,
    TrivialScoring,
    TVeto,
    UNBOUNDED,
    UnsupportedRuleError,
    AtMost,
    X3CInstance,
    decide_3dm,
    decide_e3sat,
    decide_x3c,
    e33dm_to_1approval,
    e33dm_to_scoring,
    find_nontrivial_vector,
    r3dm_to_exactly3,
    sat_to_approval_unbounded,
    solve_brute,
    tally,
    verify,
    winners,
    x3c_to_approval,
    x3c_to_e1_priced,
    x3c_to_veto,
)

from oracles import (
    enumerate_3dm,
    enumerate_e3sat,
    enumerate_x3c,
    placement_scan,
    random_e3sat,
    random_r3dm,
    random_x3c,
    random_x3c_repeating,
)

W3 = ("w1", "w2", "w3")
X3 = ("x1", "x2", "x3")
Y3 = ("y1", "y2", "y3")

# Three hand-built exactly-3 instances chosen so that their districts jointly
# exercise every multiplicity pattern of the (w, x) pair lists: one w with
# all three x's, and the doubled/distinct combinations plus their mirrors.
E33_A = Exactly3ThreeDMInstance(
    W3,
    X3,
    Y3,
    [
        ("w1", "x1", "y1"),
        ("w1", "x2", "y1"),
        ("w1", "x3", "y1"),
        ("w2", "x1", "y2"),
        ("w2", "x2", "y2"),
        ("w2", "x3", "y3"),
        ("w3", "x1", "y3"),
        ("w3", "x2", "y3"),
        ("w3", "x3", "y2"),
    ],
)
E33_B = Exactly3ThreeDMInstance(
    W3,
    X3,
    Y3,
    [
        ("w1", "x1", "y1"),
        ("w2", "x1", "y1"),
        ("w3", "x1", "y1"),
        ("w1", "x2", "y2"),
        ("w2", "x2", "y2"),
        ("w3", "x2", "y3"),
        ("w1", "x3", "y3"),
        ("w2", "x3", "y3"),
        ("w3", "x3", "y2"),
    ],
)
E33_C = Exactly3ThreeDMInstance(
    W3,
    X3,
    Y3,
    [
        ("w1", "x1", "y1"),
        ("w1", "x2", "y1"),
        ("w2", "x1", "y1"),
        ("w1", "x1", "y2"),
        ("w2", "x2", "y2"),
        ("w3", "x3", "y2"),
        ("w2", "x3", "y3"),
        ("w3", "x2", "y3"),
        ("w3", "x3", "y3"),
    ],
)
# ... and one with no perfect matching at all (found by exhaustive search,
# verified by hand: every triple containing w1 leaves the remaining two
# sides without a disjoint completion).
E33_NO = Exactly3ThreeDMInstance(
    W3,
    X3,
    Y3,
    [
        ("w2", "x3", "y3"),
        ("w3", "x1", "y3"),
        ("w3", "x1", "y2"),
        ("w2", "x2", "y1"),
        ("w2", "x3", "y2"),
        ("w3", "x3", "y1"),
        ("w1", "x2", "y3"),
        ("w1", "x2", "y2"),
        ("w1", "x1", "y1"),
    ],
)

SAT_NO4 = OneInThreeSatInstance(
    ["x1", "x2", "x3", "x4"],
    [
        ("x1", "x2", "x3"),
        ("x1", "x2", "x4"),
        ("x1", "x3", "x4"),
        ("x2", "x3", "x4"),
    ],
)
SAT_YES6 = OneInThreeSatInstance(
    ["x1", "x2", "x3", "x4", "x5", "x6"],
    [
        ("x1", "x3", "x4"),
        ("x1", "x5", "x6"),
        ("x1", "x3", "x5"),
        ("x2", "x4", "x6"),
        ("x2", "x4", "x5"),
        ("x2", "x3", "x6"),
    ],
)

X3C_YES = X3CInstance(
    ["u1", "u2", "u3", "u4", "u5", "u6"],
    [("u1", "u2", "u3"), ("u4", "u5", "u6"), ("u1", "u2", "u4")],
)
X3C_NO = X3CInstance(
    ["u1", "u2", "u3", "u4", "u5", "u6"],
    [("u1", "u2", "u3"), ("u1", "u4", "u5"), ("u1", "u2", "u6")],
)


class TestSourceInstanceValidation:
    def test_x3c_universe_multiple_of_3(self):
        with pytest.raises(ShapeError):
            X3CInstance(["u1", "u2"], [])

    def test_x3c_triples_inside_universe(self):
        with pytest.raises(ShapeError):
            X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "zz")])
        with pytest.raises(ShapeError):
            X3CInstance(["u1", "u2", "u3"], [("u1", "u1", "u2")])

    def test_3dm_occupancy_cap(self):
        quads = [("w1", "x1", "y1"), ("w1", "x1", "y2"), ("w1", "x2", "y1"), ("w1", "x2", "y2")]
        with pytest.raises(ShapeError):
            R3DMInstance(["w1", "w2"], ["x1", "x2"], ["y1", "y2"], quads)

    def test_3dm_sides_disjoint_and_equal(self):
        with pytest.raises(ShapeError):
            R3DMInstance(["w1"], ["w1"], ["y1"], [])
        with pytest.raises(ShapeError):
            R3DMInstance(["w1", "w2"], ["x1"], ["y1"], [])

    def test_exactly3_requires_exactly_three(self):
        with pytest.raises(ShapeError):
            Exactly3ThreeDMInstance(["w1"], ["x1"], ["y1"], [("w1", "x1", "y1")])

    def test_sat_occurrence_counts(self):
        with pytest.raises(ShapeError):
            OneInThreeSatInstance(["x1", "x2", "x3"], [("x1", "x2", "x3")])
        with pytest.raises(ShapeError):
            OneInThreeSatInstance(["x1"], [("x1", "x1", "x1")])


class TestDeciders:
    def test_x3c_single_cover(self):
        inst = X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3")])
        assert decide_x3c(inst)

    def test_x3c_duplicate_triples(self):
        inst = X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3"), ("u1", "u2", "u3")])
        assert decide_x3c(inst)

    def test_x3c_overlapping_family(self):
        assert not decide_x3c(X3C_NO)
        assert decide_x3c(X3C_YES)

    def test_x3c_empty_universe(self):
        assert decide_x3c(X3CInstance([], []))

    def test_x3c_budget(self):
        inst = X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3")] * 2)
        with pytest.raises(ResourceBudgetError):
            decide_x3c(inst, node_budget=1)

    def test_x3c_past_the_enumeration_size(self):
        """m = 20 with 40 triples has C(40, 20) ≈ 1.4·10¹¹ subcollections, far
        past the default budget; the search decides both sources within it."""
        rng = random.Random(20)
        universe = [f"u{i}" for i in range(1, 61)]
        order = rng.sample(universe, 60)
        planted = [order[j:j + 3] for j in range(0, 60, 3)]
        decoys = [rng.sample(universe, 3) for _ in range(20)]
        assert decide_x3c(X3CInstance(universe, rng.sample(planted + decoys, 40)))
        # Every triple meeting {u1, u2, u3} holds two of them, so no disjoint
        # family covers all three; the other 57 elements have covers.
        rest = universe[3:]
        order = rng.sample(rest, 57)
        odd = [("u1", "u2", "u4"), ("u2", "u3", "u5"), ("u1", "u3", "u6")]
        family = odd + [order[j:j + 3] for j in range(0, 57, 3)]
        family += [rng.sample(rest, 3) for _ in range(18)]
        assert not decide_x3c(X3CInstance(universe, rng.sample(family, 40)))

    def test_budget_refusal_ignores_hash_seed(self):
        """Columns are taken in sorted order, so the search's work does not
        follow set iteration order.  Every column has two rows and there is
        no cover: u1-u3 lie in one triple listed twice, u4-u9 in four triples
        that pairwise meet.  Branching first on u1 searches u4-u9 twice, 73
        units of work; branching first on one of u4-u9 costs 45."""
        script = (
            "from recamp import ResourceBudgetError, X3CInstance, decide_x3c\n"
            "src = X3CInstance([f'u{i}' for i in range(1, 10)], [('u1', 'u2', 'u3')] * 2 + [\n"
            "    ('u4', 'u5', 'u6'), ('u4', 'u7', 'u8'), ('u5', 'u7', 'u9'), ('u6', 'u8', 'u9')])\n"
            "try:\n"
            "    decide_x3c(src, 72)\n"
            "except ResourceBudgetError:\n"
            "    print(decide_x3c(src, 73))\n"
        )
        paths = [str(Path(recamp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        path = os.pathsep.join(filter(None, paths))
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            assert out.stdout == "False\n"

    def test_3dm_single_triple(self):
        inst = R3DMInstance(["w1"], ["x1"], ["y1"], [("w1", "x1", "y1")])
        assert decide_3dm(inst)

    def test_3dm_disjoint_pair(self):
        inst = R3DMInstance(
            ["w1", "w2"],
            ["x1", "x2"],
            ["y1", "y2"],
            [("w1", "x1", "y1"), ("w2", "x2", "y2"), ("w1", "x2", "y2")],
        )
        assert decide_3dm(inst)

    def test_3dm_shared_w_blocks(self):
        inst = R3DMInstance(
            ["w1", "w2"],
            ["x1", "x2"],
            ["y1", "y2"],
            [("w1", "x1", "y1"), ("w1", "x2", "y2")],
        )
        assert not decide_3dm(inst)

    def test_3dm_exactly3_no_instance(self):
        assert not decide_3dm(E33_NO)
        assert decide_3dm(E33_A) and decide_3dm(E33_B) and decide_3dm(E33_C)

    def test_3dm_budget(self):
        inst = R3DMInstance(
            ["w1", "w2"],
            ["x1", "x2"],
            ["y1", "y2"],
            [("w1", "x1", "y1"), ("w2", "x2", "y2"), ("w1", "x2", "y2")],
        )
        with pytest.raises(ResourceBudgetError):
            decide_3dm(inst, node_budget=2)

    def test_e3sat_repeat_clause(self):
        inst = OneInThreeSatInstance(
            ["x1", "x2", "x3"], [("x1", "x2", "x3")] * 3
        )
        assert decide_e3sat(inst)

    def test_e3sat_vacuous(self):
        assert decide_e3sat(OneInThreeSatInstance([], []))

    def test_e3sat_pinned_families(self):
        assert not decide_e3sat(SAT_NO4)
        assert decide_e3sat(SAT_YES6)

    def test_e3sat_budget(self):
        inst = OneInThreeSatInstance(["x1", "x2", "x3"], [("x1", "x2", "x3")] * 3)
        with pytest.raises(ResourceBudgetError):
            decide_e3sat(inst, node_budget=4)


class TestOccurrencePadding:
    def test_already_saturated_is_untouched(self):
        src = R3DMInstance(
            ["w1", "w2"],
            ["x1", "x2"],
            ["y1", "y2"],
            [
                ("w1", "x1", "y1"),
                ("w1", "x1", "y2"),
                ("w1", "x2", "y1"),
                ("w2", "x2", "y2"),
                ("w2", "x1", "y2"),
                ("w2", "x2", "y1"),
            ],
        )
        out = r3dm_to_exactly3(src)
        assert out.triples == src.triples
        assert out.w_side == src.w_side

    def test_single_triple_padding(self):
        src = R3DMInstance(["w1"], ["x1"], ["y1"], [("w1", "x1", "y1")])
        out = r3dm_to_exactly3(src)
        assert out.k == 3
        assert len(out.triples) == 9
        assert decide_3dm(src) == decide_3dm(out) == True  # noqa: E712

    def test_gap_closes_by_one_per_round(self):
        rng = random.Random(17)
        for _ in range(60):
            k0 = rng.randint(1, 3)
            src = random_r3dm(rng, k0, rng.randint(0, 3 * k0))
            out = r3dm_to_exactly3(src)
            rounds = 3 * k0 - len(src.triples)
            assert out.k == k0 + rounds
            assert len(out.triples) == 3 * out.k

    def test_fully_occupied_sources_pad_within_2k(self):
        rng = random.Random(23)
        seen = 0
        for _ in range(300):
            k0 = rng.randint(1, 3)
            src = random_r3dm(rng, k0, rng.randint(k0, 3 * k0))
            names = set(src.w_side) | set(src.x_side) | set(src.y_side)
            used = {e for t in src.triples for e in t}
            if used != names:
                continue
            seen += 1
            out = r3dm_to_exactly3(src)
            assert out.k - k0 <= 2 * k0
        assert seen >= 30

    def test_decision_preserved(self):
        rng = random.Random(29)
        flips = {True: 0, False: 0}
        for _ in range(80):
            k0 = rng.randint(1, 2)
            src = random_r3dm(rng, k0, rng.randint(0, 3 * k0))
            out = r3dm_to_exactly3(src)
            before, after = decide_3dm(src), decide_3dm(out)
            assert before == after
            flips[before] += 1
        assert flips[True] and flips[False]


class TestX3CToE1Priced:
    def test_single_triple_is_tight_yes(self):
        src = X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3")])
        inst = x3c_to_e1_priced(src)
        assert inst.k == 1
        assert inst.pricing.budget == 3
        result = solve_brute(inst)
        assert result.answer
        assert result.assignment.placement == {"u1": 1, "u2": 1, "u3": 1}

    def test_shape_of_the_construction(self):
        inst = x3c_to_e1_priced(X3C_YES)
        assert isinstance(inst.rule, E1)
        assert inst.bound == AtMost(3)
        assert inst.k == len(X3C_YES.triples)
        assert inst.additional == X3C_YES.universe
        assert all(d.candidates == frozenset() for d in inst.districts)
        m = X3C_YES.m
        assert inst.pricing.budget == 3 * m
        assert set(inst.pricing.prices.values()) <= {1, 3 * m + 1}

    def test_no_triples_still_builds(self):
        src = X3CInstance(["u1", "u2", "u3"], [])
        inst = x3c_to_e1_priced(src)
        assert inst.k == 1
        assert not solve_brute(inst).answer

    def test_decision_equivalence(self):
        assert solve_brute(x3c_to_e1_priced(X3C_YES)).answer
        assert not solve_brute(x3c_to_e1_priced(X3C_NO)).answer

    def test_yes_witnesses_cost_exactly_the_budget(self):
        for src in (X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3")]), X3C_YES):
            inst = x3c_to_e1_priced(src)
            answer, best = placement_scan(inst)
            assert answer
            assert best == 3 * src.m


def _pair_in_triples(src, a, b, y):
    return (a, b, y) in src.triples or (b, a, y) in src.triples


def _assert_pair_winner_lemma(src, inst):
    """winners of district y with {a, b} placed is exactly {a, b} iff the
    matching pair (a, b, y) exists; checked for every unordered pair."""
    extras = sorted(inst.additional)
    for i, y in enumerate(sorted(src.y_side), start=1):
        for a, b in itertools.combinations(extras, 2):
            e = inst.election_with(i, frozenset({a, b}))
            got = winners(inst.rule, e) == {a, b}
            assert got == _pair_in_triples(src, a, b, y), (y, a, b)


class TestE33dmTo1Approval:
    @pytest.mark.parametrize("src", [E33_A, E33_B, E33_C, E33_NO])
    def test_construction_shape(self, src):
        inst = e33dm_to_1approval(src)
        assert inst.rule == TApproval(1)
        assert inst.bound == AtMost(2)
        assert inst.k == 3
        assert inst.additional == set(src.w_side) | set(src.x_side)
        for d in inst.districts:
            assert d.candidates == frozenset()
            assert len(d.votes) % 2 == 0

    @pytest.mark.parametrize("src", [E33_A, E33_B, E33_C, E33_NO])
    def test_pair_winner_lemma(self, src):
        _assert_pair_winner_lemma(src, e33dm_to_1approval(src))

    @pytest.mark.parametrize("src", [E33_A, E33_B, E33_C, E33_NO])
    def test_decision_equivalence(self, src):
        inst = e33dm_to_1approval(src)
        result = solve_brute(inst)
        assert result.answer == decide_3dm(src)
        if result.answer:
            assert verify(inst, result.assignment).valid


class TestFindNontrivialVector:
    def test_pinned_splits(self):
        assert find_nontrivial_vector(TApproval(1)) == (2, 1)
        assert find_nontrivial_vector(TApproval(2)) == (3, 2)
        assert find_nontrivial_vector(TApproval(3)) == (4, 3)
        assert find_nontrivial_vector(TVeto(1)) == (2, 1)
        assert find_nontrivial_vector(TVeto(2)) == (3, 1)
        assert find_nontrivial_vector(Borda()) == (2, 1)

    def test_trivial_family(self):
        with pytest.raises(TrivialityError):
            find_nontrivial_vector(TrivialScoring())
        from recamp import ExplicitScoringFamily

        constant = ExplicitScoringFamily([(5,), (5, 5), (5, 5, 5)])
        with pytest.raises(TrivialityError):
            find_nontrivial_vector(constant)

    def test_non_scoring_rule(self):
        with pytest.raises(UnsupportedRuleError):
            find_nontrivial_vector(Condorcet())


class TestE33dmToScoring:
    def test_one_approval_collapses_to_plain_construction(self):
        for src in (E33_A, E33_NO):
            assert e33dm_to_scoring(src, TApproval(1)) == e33dm_to_1approval(src)

    def test_borda_pair_winner_lemma(self):
        for src in (E33_A, E33_C, E33_NO):
            _assert_pair_winner_lemma(src, e33dm_to_scoring(src, Borda()))

    def test_two_approval_pair_winner_lemma_with_fillers(self):
        inst = e33dm_to_scoring(E33_A, TApproval(2))
        # split index 2 at m=3 means one filler candidate and doubled ballots
        for d, base in zip(inst.districts, e33dm_to_1approval(E33_A).districts):
            assert len(d.candidates) == 1
            assert len(d.votes) == 2 * len(base.votes)
        _assert_pair_winner_lemma(E33_A, inst)

    @pytest.mark.parametrize("src", [E33_A, E33_NO])
    def test_two_approval_decision_equivalence(self, src):
        inst = e33dm_to_scoring(src, TApproval(2))
        assert solve_brute(inst).answer == decide_3dm(src)

    def test_trivial_rule_rejected(self):
        with pytest.raises(TrivialityError):
            e33dm_to_scoring(E33_A, TrivialScoring())


class TestX3CToApproval:
    def test_shape_t1(self):
        inst = x3c_to_approval(X3C_YES, 1, AtMost(3))
        assert inst.rule == TApproval(1)
        assert inst.k == len(X3C_YES.triples)
        for d in inst.districts:
            assert len(d.candidates) == 1  # just the shield, no blockers
            assert len(d.votes) == 7

    def test_shape_t2(self):
        inst = x3c_to_approval(X3C_YES, 2, UNBOUNDED)
        for d in inst.districts:
            assert len(d.candidates) == 8  # shield + 7 singleton blocker groups

    def test_slate_winner_lemma(self):
        inst = x3c_to_approval(X3C_YES, 1, AtMost(3))
        extras = sorted(inst.additional)
        for i, triple in enumerate(X3C_YES.triples, start=1):
            for size in (1, 2, 3, 4):
                for combo in itertools.combinations(extras, size):
                    placed = frozenset(combo)
                    e = inst.election_with(i, placed)
                    got = winners(inst.rule, e) == placed
                    assert got == (placed == triple), (i, sorted(placed))

    def test_preconditions(self):
        small = X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3"), ("u1", "u2", "u3")])
        with pytest.raises(PreconditionError):
            x3c_to_approval(small, 1, AtMost(3))
        single = X3CInstance(
            ["u1", "u2", "u3", "u4", "u5", "u6"], [("u1", "u2", "u3")]
        )
        with pytest.raises(PreconditionError):
            x3c_to_approval(single, 1, AtMost(3))
        with pytest.raises(PreconditionError):
            x3c_to_approval(X3C_YES, 1, AtMost(2))
        with pytest.raises(ShapeError):
            x3c_to_approval(X3C_YES, 0, AtMost(3))

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("bound", [AtMost(3), UNBOUNDED])
    def test_decision_equivalence(self, t, bound):
        assert solve_brute(x3c_to_approval(X3C_YES, t, bound)).answer
        assert not solve_brute(x3c_to_approval(X3C_NO, t, bound)).answer


class TestX3CToVeto:
    def test_full_slate_scores(self):
        inst = x3c_to_veto(X3C_YES, 1, AtMost(3))
        triple = X3C_YES.triples[0]
        e = inst.election_with(1, triple)
        scores = tally(inst.rule, e)
        shield = next(iter(inst.districts[0].candidates))
        assert all(scores[a] == 4 for a in triple)
        assert scores[shield] == 3
        assert winners(inst.rule, e) == triple

    def test_lone_arrival_loses(self):
        inst = x3c_to_veto(X3C_YES, 1, AtMost(3))
        a = min(X3C_YES.triples[0])
        e = inst.election_with(1, frozenset({a}))
        scores = tally(inst.rule, e)
        shield = next(iter(inst.districts[0].candidates))
        assert scores[a] == 2
        assert scores[shield] == 3
        assert a not in winners(inst.rule, e)

    def test_shape(self):
        inst = x3c_to_veto(X3C_YES, 2, AtMost(3))
        assert inst.rule == TVeto(2)
        for d in inst.districts:
            assert len(d.candidates) == 2  # shield + one blocker
            assert len(d.votes) == 5

    def test_preconditions(self):
        single = X3CInstance(
            ["u1", "u2", "u3", "u4", "u5", "u6"], [("u1", "u2", "u3")]
        )
        with pytest.raises(PreconditionError):
            x3c_to_veto(single, 1, AtMost(3))
        with pytest.raises(PreconditionError):
            x3c_to_veto(X3C_YES, 1, AtMost(2))

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("bound", [AtMost(3), UNBOUNDED])
    def test_decision_equivalence(self, t, bound):
        assert solve_brute(x3c_to_veto(X3C_YES, t, bound)).answer
        assert not solve_brute(x3c_to_veto(X3C_NO, t, bound)).answer


class TestSatToApproval:
    def test_always_two_districts(self):
        for src in (SAT_NO4, SAT_YES6):
            for t in (1, 2):
                inst = sat_to_approval_unbounded(src, t)
                assert inst.k == 2
                assert isinstance(inst.bound, type(UNBOUNDED))

    def test_candidate_copies_for_larger_t(self):
        inst = sat_to_approval_unbounded(SAT_YES6, 2)
        assert inst.rule == TApproval(2)
        assert inst.additional == {
            f"x{i}#{c}" for i in range(1, 7) for c in (1, 2)
        }
        # each district holds two copies of each of its six shields
        assert all(len(d.candidates) == 12 for d in inst.districts)

    def test_preconditions(self):
        tiny = OneInThreeSatInstance(["x1", "x2", "x3"], [("x1", "x2", "x3")] * 3)
        with pytest.raises(PreconditionError):
            sat_to_approval_unbounded(tiny, 1)
        with pytest.raises(ShapeError):
            sat_to_approval_unbounded(SAT_YES6, 0)

    @pytest.mark.parametrize("t", [1, 2])
    def test_decision_equivalence(self, t):
        assert not solve_brute(sat_to_approval_unbounded(SAT_NO4, t)).answer
        result = solve_brute(sat_to_approval_unbounded(SAT_YES6, t))
        assert result.answer == decide_e3sat(SAT_YES6) == True  # noqa: E712


def _as_s1(src: OneInThreeSatInstance) -> OneInThreeSatInstance:
    """The same formula with variable x1 renamed s1, a shield's name."""
    rename = {"x1": "s1"}
    return OneInThreeSatInstance(
        [rename.get(v, v) for v in src.variables],
        [[rename.get(v, v) for v in clause] for clause in src.clauses],
    )


class TestGadgetNameCollisions:
    """A source name that is also a gadget candidate's base name: the gadget
    candidate takes an apostrophe, and the reduction still decides as the
    source does."""

    UNIVERSE = ["d1.s", "d1.b1.1", "u3", "u4", "u5", "u6"]
    X3C_CLASH_YES = X3CInstance(
        UNIVERSE, [("d1.s", "d1.b1.1", "u3"), ("u4", "u5", "u6"), ("d1.s", "u4", "u5")]
    )
    X3C_CLASH_NO = X3CInstance(
        UNIVERSE, [("d1.s", "d1.b1.1", "u3"), ("d1.s", "u4", "u5"), ("u3", "u4", "u6")]
    )

    @pytest.mark.parametrize("build", [x3c_to_approval, x3c_to_veto])
    @pytest.mark.parametrize("src", [X3C_CLASH_YES, X3C_CLASH_NO])
    def test_x3c(self, build, src):
        inst = build(src, 2, AtMost(3))
        assert {"d1.s'", "d1.b1.1'"} <= inst.districts[0].candidates
        assert solve_brute(inst).answer == decide_x3c(src)

    @pytest.mark.parametrize("src", [_as_s1(SAT_YES6), _as_s1(SAT_NO4)])
    def test_sat(self, src):
        inst = sat_to_approval_unbounded(src, 1)
        assert "s1" in inst.additional
        assert "s1'" in inst.districts[0].candidates | inst.districts[1].candidates
        assert solve_brute(inst).answer == decide_e3sat(src)


# ---------------------------------------------------------------------------
# Randomized cross-validation (small scale; the acceptance suite goes bigger)
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_x3c_reductions_agree_with_the_decider(seed):
    rng = random.Random(seed)
    src = random_x3c(rng, m=2, max_triples=4)
    expected = decide_x3c(src)
    assert solve_brute(x3c_to_e1_priced(src)).answer == expected
    if len(src.triples) > 1:
        assert solve_brute(x3c_to_approval(src, 1, AtMost(3))).answer == expected
        assert solve_brute(x3c_to_veto(src, 1, UNBOUNDED)).answer == expected


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=25, deadline=None)
def test_e33dm_reductions_agree_with_the_decider(seed):
    rng = random.Random(seed)
    raw = random_r3dm(rng, 2, 5)
    if len(raw.triples) != 5:
        return  # padding would overshoot three districts
    src = r3dm_to_exactly3(raw)
    assert src.k == 3
    expected = decide_3dm(src)
    assert solve_brute(e33dm_to_1approval(src)).answer == expected
    assert solve_brute(e33dm_to_scoring(src, Borda())).answer == expected


_REFEREES = {
    "x3c": (decide_x3c, enumerate_x3c),
    "r3dm": (decide_3dm, enumerate_3dm),
    "e33dm": (decide_3dm, enumerate_3dm),
    "e3sat": (decide_e3sat, enumerate_e3sat),
}


def _random_source(kind, rng):
    if kind == "x3c":
        return random_x3c_repeating(rng, rng.randint(0, 3), 5)
    if kind == "r3dm":
        k = rng.randint(0, 3)
        return random_r3dm(rng, k, rng.randint(0, 3 * k))
    if kind == "e33dm":
        # At most three padding rounds keep the enumeration to k ≤ 5.
        k = rng.randint(1, 2)
        return r3dm_to_exactly3(random_r3dm(rng, k, rng.randint(3 * k - 3, 3 * k - 1)))
    return random_e3sat(rng, rng.choice([0, 3, 4, 5, 6]))


@pytest.mark.parametrize("kind", sorted(_REFEREES))
@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_deciders_match_their_enumerations(kind, seed):
    decide, enumerate_ = _REFEREES[kind]
    src = _random_source(kind, random.Random(seed))
    assert decide(src) == enumerate_(src)


@pytest.mark.parametrize("kind", sorted(_REFEREES))
def test_random_sources_reach_both_answers(kind):
    enumerate_ = _REFEREES[kind][1]
    answers = {enumerate_(_random_source(kind, random.Random(seed))) for seed in range(40)}
    assert answers == {True, False}
