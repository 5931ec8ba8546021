"""Tests for the decision procedures: the matching- and cover-based
algorithms, the two special-rule shortcuts, the brute-force scan, and the
dispatcher."""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recamp import (
    ApprovalVote,
    AtMost,
    BallotTypeError,
    Borda,
    Condorcet,
    District,
    E1,
    E2,
    Election,
    ExplicitScoringFamily,
    LinearVote,
    MissingVectorError,
    OneInThreeSatInstance,
    Pricing,
    PreconditionError,
    R3DMInstance,
    RandomInstanceParams,
    RecampaignInstance,
    ResourceBudgetError,
    ShapeError,
    TApproval,
    TrivialScoring,
    TVeto,
    UNBOUNDED,
    WrongVariantError,
    X3CInstance,
    build_exact_cover_system,
    decide_3dm,
    decide_e3sat,
    decide_x3c,
    is_k_winner,
    random_instance,
    scoring_vector,
    solve_auto,
    solve_brute,
    solve_crc1,
    solve_e1_bound3,
    solve_e2_unbounded,
    solve_trivial_scoring,
    verify,
    winners,
    x3c_to_approval,
    x3c_to_veto,
)
from recamp import formats, solvers
from recamp.solvers import ROUTES, _Batch, _accepts

from oracles import exact_cover_scan, placement_scan

THREE_VOTES = Election(
    ["a", "b", "c"],
    [
        LinearVote(["a", "b", "c"]),
        LinearVote(["a", "c", "b"]),
        LinearVote(["b", "c", "a"]),
    ],
)


def worked_example_instance(budget=16):
    """Three districts holding 0, 1, and 4 candidates under the trivial rule,
    winner bound 3, with hand-picked placement prices."""
    districts = (
        District([]),
        District(["c1"]),
        District(["c2", "c3", "c4", "c5"]),
    )
    prices = {
        (1, "a1"): 5,
        (1, "a2"): 8,
        (1, "a3"): 10,
        (2, "a1"): 3,
        (2, "a2"): 1,
        (2, "a3"): 16,
        (3, "a1"): 0,
        (3, "a2"): 0,
        (3, "a3"): 0,
    }
    return RecampaignInstance(
        rule=TrivialScoring(),
        districts=districts,
        additional=frozenset({"a1", "a2", "a3"}),
        bound=AtMost(3),
        pricing=Pricing(prices, budget),
    )


def checked(inst, result):
    """Every Yes must come with a verify-accepted assignment, at the cost
    verify computes for it."""
    if result.answer:
        assert result.assignment is not None
        report = verify(inst, result.assignment)
        assert report.valid
        assert result.cost == report.total_cost
    else:
        assert result.assignment is None
        assert result.cost is None
    return result


class TestSolveCrc1:
    def test_empty_additional(self):
        inst = RecampaignInstance(Borda(), (District(["a"]),), frozenset(), AtMost(1))
        result = checked(inst, solve_crc1(inst))
        assert result.answer
        assert result.assignment.placement == {}

    def test_condorcet_clone_districts(self):
        # two copies of the pairwise-champion election with its winner
        # removed; the champion and a renamed clone can each take one copy
        d1 = District(
            ["b", "c"],
            [
                LinearVote(["a", "b", "c", "a2"]),
                LinearVote(["a", "c", "b", "a2"]),
                LinearVote(["b", "c", "a", "a2"]),
            ],
        )
        d2 = District(
            ["b2", "c2"],
            [
                LinearVote(["a", "b2", "c2", "a2"]),
                LinearVote(["a2", "c2", "b2", "a"]),
                LinearVote(["b2", "c2", "a2", "a"]),
            ],
        )
        inst = RecampaignInstance(
            Condorcet(), (d1, d2), frozenset({"a", "a2"}), AtMost(1)
        )
        result = checked(inst, solve_crc1(inst))
        assert result.answer == checked(inst, solve_brute(inst)).answer

    def test_unbeatable_incumbent(self):
        d = District(
            ["b"],
            [LinearVote(["b", "x"]), LinearVote(["b", "x"]), LinearVote(["b", "x"])],
        )
        inst = RecampaignInstance(TApproval(1), (d,), frozenset({"x"}), AtMost(1))
        assert not checked(inst, solve_crc1(inst)).answer

    def test_wrong_bound_rejected(self):
        inst = RecampaignInstance(Borda(), (District(["a"]),), frozenset(), AtMost(2))
        with pytest.raises(WrongVariantError):
            solve_crc1(inst)
        with pytest.raises(WrongVariantError):
            solve_crc1(dataclasses.replace(inst, bound=UNBOUNDED))

    def test_budget_constrains_the_matching(self):
        # both districts are winnable, but only one placement is affordable
        d = District([])
        inst = RecampaignInstance(
            Borda(),
            (d, d),
            frozenset({"x"}),
            AtMost(1),
            Pricing({(1, "x"): 9, (2, "x"): 2}, budget=3),
        )
        result = checked(inst, solve_crc1(inst))
        assert result.answer
        assert result.assignment.placement == {"x": 2}
        assert result.cost == 2
        broke = dataclasses.replace(
            inst, pricing=Pricing({(1, "x"): 9, (2, "x"): 2}, budget=1)
        )
        assert not checked(broke, solve_crc1(broke)).answer

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        rule = rng.choice([TApproval(1), Borda(), Condorcet(), TrivialScoring()])
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.randint(0, 3),
            rule=rule,
            bound=AtMost(1),
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        answer = checked(inst, solve_crc1(inst)).answer
        assert answer == solve_brute(inst).answer == placement_scan(inst)[0]


def test_crc1_past_63_candidates():
    # Singletons are asked 63 candidates at a time, each part with the
    # ballots restricted to it.  District i elects a_i alone and x over
    # anyone else, so the one valid placement sends a_i to district i.
    order = [f"a{j:02d}" for j in range(70)]
    districts = []
    for j, a in enumerate(order):
        rest = [c for c in order if c != a]
        ballot = LinearVote([a, "x"] + rest)
        districts.append(District(["x"], [ballot, LinearVote(["x", a] + rest), ballot]))
    inst = RecampaignInstance(TApproval(1), tuple(districts), frozenset(order), AtMost(1))
    result = checked(inst, solve_crc1(inst))
    assert result.assignment.placement == {a: j + 1 for j, a in enumerate(order)}
    assert result.statistics["winning_edges"] == 70


class TestSolveTrivialScoring:
    def test_worked_example(self):
        inst = worked_example_instance(budget=16)
        result = checked(inst, solve_trivial_scoring(inst))
        assert result.answer
        assert result.cost == 14
        assert result.assignment.placement == {"a1": 2, "a2": 2, "a3": 1}

    def test_worked_example_budget_13(self):
        inst = worked_example_instance(budget=13)
        assert not checked(inst, solve_trivial_scoring(inst)).answer
        # 14 really is the minimum over every placement
        answer, best = placement_scan(worked_example_instance(budget=10**6))
        assert answer and best == 14

    def test_saturated_district_absorbs_nothing(self):
        d = District(["c"])
        inst = RecampaignInstance(TrivialScoring(), (d,), frozenset({"a"}), AtMost(1))
        assert not checked(inst, solve_trivial_scoring(inst)).answer

    def test_unbounded_always_fits(self):
        d = District(["c"])
        inst = RecampaignInstance(TrivialScoring(), (d,), frozenset({"a", "b"}), UNBOUNDED)
        assert checked(inst, solve_trivial_scoring(inst)).answer

    def test_wrong_rule_rejected(self):
        inst = RecampaignInstance(Borda(), (District([]),), frozenset(), AtMost(1))
        with pytest.raises(WrongVariantError):
            solve_trivial_scoring(inst)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.randint(0, 4),
            rule=TrivialScoring(),
            bound=rng.choice([AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]),
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        assert checked(inst, solve_trivial_scoring(inst)).answer == solve_brute(inst).answer


class TestExactCoverSystem:
    def test_empty_additional_only_tags(self):
        inst = RecampaignInstance(
            Borda(),
            (District(["a"]), District(["b"])),
            frozenset(),
            AtMost(1),
            Pricing({}, budget=0),
        )
        system = build_exact_cover_system(inst)
        assert system.district_tags == (1, 2)
        assert {(m.district, m.placed, m.weight) for m in system.members} == {
            (1, frozenset(), 0),
            (2, frozenset(), 0),
        }

    def test_e1_empty_district_members_are_triples(self):
        extra = frozenset({"a", "b", "c", "d"})
        inst = RecampaignInstance(
            E1(),
            (District([]),),
            extra,
            AtMost(3),
            Pricing({(1, a): 1 for a in extra}, budget=3),
        )
        system = build_exact_cover_system(inst)
        placed_sets = {m.placed for m in system.members}
        expected = {frozenset()} | {
            frozenset(c) for c in itertools.combinations(sorted(extra), 3)
        }
        assert placed_sets == expected
        for m in system.members:
            assert m.weight == len(m.placed)

    def test_weights_recomputed_from_prices(self):
        rng = random.Random(3)
        for seed in range(30):
            params = RandomInstanceParams(
                districts=rng.randint(1, 3),
                additional=rng.randint(0, 3),
                rule=rng.choice([TApproval(1), Borda(), E1()]),
                bound=AtMost(rng.randint(1, 3)),
                priced=True,
            )
            inst = random_instance(params, seed)
            system = build_exact_cover_system(inst)
            for m in system.members:
                want = sum(inst.pricing.price(m.district, a) for a in m.placed)
                assert m.weight == want

    def test_unbounded_rejected(self):
        inst = RecampaignInstance(
            Borda(), (District([]),), frozenset(), UNBOUNDED, Pricing({}, 0)
        )
        with pytest.raises(WrongVariantError):
            build_exact_cover_system(inst)


class TestSolveFpt:
    """The bounded variants, FPT in |A|: `solve_brute`'s DP behind its
    n > k·ℓ guard, asking only about the sets of at most ℓ candidates."""

    def test_guard_rejects_oversized_additional_sets(self):
        d = District([], [])
        inst = RecampaignInstance(
            TrivialScoring(), (d,), frozenset({"a", "b", "c"}), AtMost(2)
        )
        result = solve_brute(inst)
        assert not result.answer
        assert result.statistics["guard"] == 1
        assert result.statistics["nodes"] == 0
        assert result.statistics["members"] == 0

    def test_guard_answers_before_the_refusals(self):
        # 70 candidates and two districts of at most 2 winners: a NO with
        # no work, before the 63-bit refusal, the table-rows admission at a
        # budget of 1 and the probe of a family that lists one vector.
        arrivals = frozenset(f"a{j:02d}" for j in range(70))
        base = RecampaignInstance(TApproval(1), (District([]),) * 2, arrivals, AtMost(2))
        for inst in (base, dataclasses.replace(base, rule=ExplicitScoringFamily([[1]]))):
            result = checked(inst, solve_brute(inst, node_budget=1))
            assert (result.algorithm, result.answer) == ("brute", False)
            assert result.statistics == {"nodes": 0, "members": 0, "guard": 1}
            assert solve_auto(inst).statistics == result.statistics
        with pytest.raises(ResourceBudgetError, match="63"):
            solve_brute(dataclasses.replace(base, bound=AtMost(35)))

    def test_system_size_bounds(self):
        rng = random.Random(11)
        for seed in range(40):
            params = RandomInstanceParams(
                districts=rng.randint(1, 3),
                additional=rng.randint(0, 3),
                rule=rng.choice([TApproval(1), Borda()]),
                bound=AtMost(rng.randint(1, 3)),
                priced=True,
            )
            inst = random_instance(params, seed)
            n, k = len(inst.additional), inst.k
            if n > k * inst.bound.limit:
                continue
            system = build_exact_cover_system(inst)
            assert system.universe_size == n + k
            assert len(system.members) <= k * 2**n

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        # n reaches k·ℓ, where the layers are pruned to the sets that leave
        # at most ℓ candidates per district to come; within it the guard
        # never answers.
        rng = random.Random(seed)
        rule = rng.choice([TApproval(1), TApproval(2), Borda(), Condorcet(), E1()])
        k = rng.randint(1, 3)
        level = rng.randint(1, 3 if k < 3 else 2)
        params = RandomInstanceParams(
            districts=k,
            additional=rng.randint(0, k * level),
            rule=rule,
            bound=AtMost(level),
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        result = checked(inst, solve_brute(inst))
        assert result.answer == placement_scan(inst)[0]
        assert result.statistics["guard"] == 0

    @staticmethod
    def _x3c_gadget(planted):
        """m = 5 with 7 triples: k = 7, n = 15, so k^n ≈ 4.7·10¹² placements."""
        universe = [f"u{i}" for i in range(1, 16)]
        cover = [universe[i : i + 3] for i in range(0, 15, 3)]
        if not planted:
            cover[-1] = ["u1", "u14", "u15"]
        src = X3CInstance(universe, cover + [["u1", "u4", "u7"], ["u2", "u8", "u13"]])
        return src, x3c_to_approval(src, 2, AtMost(3))

    @pytest.mark.parametrize(
        "planted, nodes, unbounded_nodes",
        [
            pytest.param(True, 2928, 163900, id="True"),
            pytest.param(False, 3524, 196742, id="False"),
        ],
    )
    def test_decides_the_x3c_gadget_past_the_placement_budget(
        self, planted, nodes, unbounded_nodes
    ):
        # k^n is far past the node budget, but the DP's tables have at most
        # 6·Σ_{s≤3} C(15, s) = 3,456 rows bounded and 6·2^15 = 196,608
        # unbounded, and brute decides both.  The work is pinned: sharing
        # the oracle's inputs across tables and the one-block forward step
        # change no row asked and no pair tried.
        src, inst = self._x3c_gadget(planted)
        assert (inst.k, len(inst.additional)) == (7, 15)
        result = checked(inst, solve_auto(inst))
        assert (result.algorithm, result.answer) == ("brute", planted)
        assert result.answer == decide_x3c(src)
        assert result.statistics["nodes"] == nodes
        unbounded = dataclasses.replace(inst, bound=UNBOUNDED)
        result = checked(unbounded, solve_auto(unbounded))
        assert (result.algorithm, result.answer) == ("brute", planted)
        assert result.statistics["nodes"] == unbounded_nodes

    @pytest.mark.parametrize("planted", [True, False])
    @pytest.mark.parametrize("chunk", [64, 1 << 14])
    def test_masks_are_enumerated_once_when_one_chunk_holds_them(self, planted, chunk):
        # The 576 sets of at most 3 of the 15 candidates: one chunk is
        # enumerated once for every table, 64-mask chunks again per table.
        src, inst = self._x3c_gadget(planted)
        calls = []
        masks = solvers._masks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_CHUNK_ROWS", chunk)
            mp.setattr(solvers, "_masks", lambda *args: calls.append(args) or masks(*args))
            result = checked(inst, solve_brute(inst))
            enumerated = len(calls)
            dp = solvers._PlacementDP(inst, sorted(inst.additional))
            dp.placement()
        assert result.answer == decide_x3c(src) == planted
        assert len(dp.sets) >= 5
        assert enumerated == (1 if chunk > 576 else len(dp.sets))

    def test_forward_steps_try_only_the_pairs_under_full_minus_the_least_set(self):
        # A cover-free X3C gadget under 1-veto, k = 6 and n = 12.  Past layer
        # 2 no layer holds the empty set, and a set disjoint from the least
        # one L is at most full - L: 1,513 units of work, where trying
        # every pair of a one-block step would count 1,515.
        triples = [
            ("u01", "u04", "u07"), ("u01", "u05", "u12"), ("u01", "u03", "u05"),
            ("u03", "u08", "u10"), ("u01", "u02", "u05"), ("u03", "u10", "u11"),
        ]
        src = X3CInstance([f"u{i:02d}" for i in range(1, 13)], triples)
        inst = x3c_to_veto(src, 1, AtMost(3))
        result = checked(inst, solve_brute(inst))
        assert result.answer is decide_x3c(src) is False
        assert result.statistics["nodes"] == 1513

    def test_probes_explicit_vectors_up_to_the_bound(self):
        # Vectors for 1 and 2 candidates only.  Under bound 2 no empty
        # district holds 3, so brute decides; unbounded, it probes up to
        # |A| and reports the missing vector.
        rule = ExplicitScoringFamily([[1], [1, 0]])
        inst = RecampaignInstance(rule, (District([]),) * 3, frozenset("abc"), AtMost(2))
        assert checked(inst, solve_brute(inst)).answer
        with pytest.raises(MissingVectorError):
            solve_brute(dataclasses.replace(inst, bound=UNBOUNDED))
        # District 1 takes {a, b} and the DP stops at layer 1, but district
        # 2 could hold x, a and b under the bound: the probe reports it.
        inst = RecampaignInstance(
            rule, (District([]), District(["x"])), frozenset("ab"), AtMost(2)
        )
        with pytest.raises(MissingVectorError):
            solve_brute(inst)
        assert not checked(inst, solve_brute(dataclasses.replace(inst, bound=AtMost(1)))).answer

    def test_an_empty_layer_answers_no(self):
        # Bound 1, three candidates, three districts: layer 1 keeps only
        # sets of at least one candidate, and district 1 accepts none.
        inst = RecampaignInstance(
            TApproval(1),
            (TestSolveBrute._takes("xabc"), District([]), District([])),
            frozenset("abc"),
            AtMost(1),
        )
        dp = solvers._PlacementDP(inst, ["a", "b", "c"])
        assert dp.placement() is None
        assert len(dp.sets) == 1 and len(dp.fwd[1][0]) == 0
        assert checked(inst, solve_brute(inst)).answer is placement_scan(inst)[0] is False

    def test_past_63_candidates_is_refused(self):
        # 40 vote-less 1-approval districts take any two of 64 candidates
        # under bound 2, but a mask holds at most 63.
        arrivals = frozenset(f"a{j:02d}" for j in range(64))
        inst = RecampaignInstance(TApproval(1), (District([]),) * 40, arrivals, AtMost(2))
        with pytest.raises(ResourceBudgetError, match="63"):
            solve_auto(inst)
        with pytest.raises(ResourceBudgetError, match="63"):
            solve_brute(inst, node_budget=40**64)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_cover_existence_matches_brute_force(self, seed):
        """Yes by enumeration iff the cover system admits an exact cover."""
        rng = random.Random(seed)
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.randint(0, 4),
            rule=rng.choice([TApproval(1), Borda(), TrivialScoring()]),
            bound=AtMost(rng.randint(1, 3)),
            priced=True,
        )
        inst = random_instance(params, seed)
        if len(inst.additional) > inst.k * inst.bound.limit:
            return
        system = build_exact_cover_system(inst)
        assert exact_cover_scan(system) == solve_brute(inst).answer

    def test_node_budget(self):
        # Condorcet over empty, vote-less districts accepts only singletons.
        # With two districts the DP's one table has 8 rows, admitted from a
        # budget of 8.  It asks them, then asks the last district about the
        # complements of layer 1's 4 sets (∅ and the singletons): 12 units
        # of work for a NO.
        two = RecampaignInstance(
            Condorcet(), (District([]), District([])), frozenset("abc"), AtMost(3)
        )
        with pytest.raises(ResourceBudgetError, match="^8 table rows exceed the node budget 7$"):
            solve_brute(two, node_budget=7)
        with pytest.raises(ResourceBudgetError, match="^8 table rows"):
            solve_auto(two, node_budget=7)
        with pytest.raises(ResourceBudgetError, match="work passed the node budget 11"):
            solve_brute(two, node_budget=11)
        result = checked(two, solve_brute(two, node_budget=12))
        assert not result.answer
        assert result.statistics == {"nodes": 12, "members": 4, "guard": 0}
        # Three districts: 2·8 table rows up front.  The DP asks 8 + 8 oracle
        # rows for two tables, tries 4·4 pairs for layer 2 (7 sets), and asks
        # the last district about their 7 complements: 39 units of work.
        three = dataclasses.replace(two, districts=(District([]),) * 3)
        with pytest.raises(ResourceBudgetError, match="^16 table rows exceed the node budget 15$"):
            solve_brute(three, node_budget=15)
        for budget in (16, 30, 38):
            with pytest.raises(ResourceBudgetError, match="work passed the node budget"):
                solve_brute(three, node_budget=budget)
        result = checked(three, solve_brute(three, node_budget=39))
        assert result.answer
        assert result.statistics == {"nodes": 39, "members": 8, "guard": 0}
        assert sorted(result.assignment.placement.values()) == [1, 2, 3]


def _random_rule(rng: random.Random, max_size: int):
    vectors = [
        sorted((rng.randint(0, 3) for _ in range(m)), reverse=True)
        for m in range(1, max_size + 1)
    ]
    return rng.choice(
        [
            TApproval(rng.randint(1, 2)),
            TVeto(rng.randint(1, 2)),
            Borda(),
            TrivialScoring(),
            ExplicitScoringFamily(vectors),
            Condorcet(),
            E1(),
            E2(),
        ]
    )


EXPLICIT_SPREAD_60 = ExplicitScoringFamily(
    [[-3], [4, -4], [9, 0, -9], [20, 10, 0, -20], [30, 5, 5, 0, -30]]
)


def _one_district_verdicts(inst, order):
    """The verdict of the one district of `inst` on each subset of `order`,
    by mask (bit n-1-j stands for order[j]), from `winners`."""
    n, want = len(order), []
    for mask in range(2**n):
        placed = frozenset(a for j, a in enumerate(order) if mask >> (n - 1 - j) & 1)
        w = winners(inst.rule, inst.election_with(1, placed))
        within = inst.bound == UNBOUNDED or len(w) <= inst.bound.limit
        want.append(not placed or (placed <= w and within))
    return want


class TestDistrictOracle:
    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_accepts_matches_winners_on_every_subset(self, seed):
        """Every placed set against `winners`, with ballot blocks of one
        ballot (a cell cap of 1), of part of a district and of a whole
        district.  Some ballots repeat, and a Condorcet district has an even
        voter count, where a tie meets 2·above ≤ V."""
        rng = random.Random(seed)
        n = rng.randint(0, 6)
        rule = Condorcet() if rng.random() < 0.25 else _random_rule(rng, 3 + n)
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=n,
            rule=rule,
            max_votes=rng.randint(0, 6),
            bound=rng.choice([AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]),
        )
        inst = random_instance(params, seed)
        districts = []
        for district in inst.districts:
            votes = list(district.votes)
            if votes:
                votes += rng.choices(votes, k=rng.randint(0, 3))
                if isinstance(rule, Condorcet) and len(votes) % 2:
                    votes.append(rng.choice(votes))
            districts.append(District(district.candidates, votes))
        inst = dataclasses.replace(inst, districts=tuple(districts))
        order = sorted(inst.additional)
        rows = np.array(
            list(itertools.product([False, True], repeat=n)), dtype=bool
        ).reshape(2**n, n)
        masks = np.arange(2**n, dtype=np.int32)  # bit n-1-j of row r is rows[r, j]
        most = max(len(district.candidates) for district in inst.districts)
        for d in range(inst.k):
            want = []
            for row in rows:
                placed = frozenset(a for a, bit in zip(order, row) if bit)
                w = winners(inst.rule, inst.election_with(d + 1, placed))
                within = inst.bound == UNBOUNDED or len(w) <= inst.bound.limit
                want.append(not placed or (placed <= w and within))
            for cells in (1, 2**9, solvers._BLOCK_CELLS):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(solvers, "_BLOCK_CELLS", cells)
                    batch = _Batch(masks, n, most)
                    assert _accepts(inst, d, order, batch).tolist() == want

    @pytest.mark.parametrize(
        "rule, votes",
        [
            (TApproval(1), 254),  # 254·1 + 1 fits one byte
            (TApproval(1), 255),  # 255·1 + 1 needs two
            (TApproval(1), 256),
            (Borda(), 63),  # 63·4 + 1 = 253: one byte
            (Borda(), 64),  # 64·4 + 1 = 257: two bytes
            (Borda(), 16383),  # 16,383·4 + 1 = 65,533: two bytes
            (Borda(), 16384),  # 16,384·4 + 1 = 65,537: four bytes
            # shifted by each vector's least entry: a spread of 60, 5·60 + 1 = 301
            (EXPLICIT_SPREAD_60, 5),
        ],
    )
    @pytest.mark.parametrize("bound", [AtMost(2), UNBOUNDED])
    def test_narrow_tallies_match_winners(self, rule, votes, bound, monkeypatch):
        """One district of two own candidates and three additional, every
        subset against `winners`, at ballot counts where the tally type
        widens.  Every ballot ranks a1 first, so a1 scores the most a tally
        can hold wherever it is placed.  Both ranking paths of the scoring
        kernel run on each input: an add per position (`_ADD_WORDS` 0) and
        one strided accumulate (`_ADD_WORDS` past any block)."""
        rng = random.Random(votes)
        own, order = ["d1", "d2"], ["a1", "a2", "a3"]
        ballots = []
        for _ in range(votes):
            rest = own + order[1:]
            rng.shuffle(rest)
            ballots.append(LinearVote(["a1"] + rest))
        inst = RecampaignInstance(rule, (District(own, ballots),), frozenset(order), bound)
        masks = np.arange(8, dtype=np.int32)
        want = _one_district_verdicts(inst, order)
        for add_words in (0, 2**62):
            monkeypatch.setattr(solvers, "_ADD_WORDS", add_words)
            assert _accepts(inst, 0, order, _Batch(masks, 3, 2)).tolist() == want

    @pytest.mark.parametrize("rule", [TVeto(250), Borda()])
    @pytest.mark.parametrize("own", [253, 300])
    @pytest.mark.parametrize("bound", [AtMost(2), UNBOUNDED])
    def test_set_sizes_past_a_byte_match_winners(self, rule, own, bound):
        """A district of 253 or 300 own candidates and three additional,
        every subset against `winners`: own + |S| passes 255, so the set
        sizes the kernel ranks by must not be counted in a byte (253 + 3
        wrapped to 0, and 300 did not fit)."""
        rng = random.Random(own)
        names, order = [f"d{i:03d}" for i in range(own)], ["a1", "a2", "a3"]
        ballots = []
        for _ in range(5):
            rest = names[:]
            rng.shuffle(rest)
            cut = rng.randint(0, 3)
            ballots.append(LinearVote(order[:cut] + rest[:40] + order[cut:] + rest[40:]))
        inst = RecampaignInstance(rule, (District(names, ballots),), frozenset(order), bound)
        want = _one_district_verdicts(inst, order)
        assert True in want[1:]  # some placed set wins
        masks = np.arange(8, dtype=np.int32)
        assert _accepts(inst, 0, order, _Batch(masks, 3, own)).tolist() == want


    @staticmethod
    def _checked_reads(solve, inst, chunk=solvers._CHUNK_ROWS):
        """Solve with every verdict of the shared oracle checked against
        `winners` on every row; the districts that read each batch, in the
        order they read it."""
        reads = {}
        accepts = solvers._accepts

        def checked_accepts(inst, d, names, batch):
            verdict = accepts(inst, d, names, batch)
            for mask, got in zip(batch.masks.tolist(), verdict.tolist()):
                placed = frozenset(
                    a for j, a in enumerate(names) if mask >> (len(names) - 1 - j) & 1
                )
                w = winners(inst.rule, inst.election_with(d + 1, placed))
                within = inst.bound == UNBOUNDED or len(w) <= inst.bound.limit
                assert got == (not placed or (placed <= w and within)), (d, sorted(placed))
            reads.setdefault(id(batch), (batch, []))[1].append(d)
            return verdict

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_accepts", checked_accepts)
            mp.setattr(solvers, "_CHUNK_ROWS", chunk)
            result = checked(inst, solve(inst))
        assert result.answer == placement_scan(inst)[0]
        return [districts for _, districts in reads.values()]

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_shared_batches_match_winners_on_every_row(self, seed):
        """Districts of 0 to 3 own candidates read one batch: the lone chunk
        of every table, 4-mask chunks, the complements of `_last_takes`, and
        crc1's singletons under bound 1."""
        rng = random.Random(seed)
        n = rng.randint(0, 6)
        rule = Condorcet() if rng.random() < 0.25 else _random_rule(rng, 3 + n)
        params = RandomInstanceParams(
            districts=rng.randint(1, 4),
            additional=n,
            rule=rule,
            max_votes=rng.randint(0, 5),
            bound=rng.choice([AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]),
            priced=rng.random() < 0.3,
        )
        inst = random_instance(params, seed)
        for chunk in (4, solvers._CHUNK_ROWS):
            self._checked_reads(solve_brute, inst, chunk)
        if inst.bound == AtMost(1):
            self._checked_reads(solve_crc1, inst)

    def test_one_batch_serves_districts_of_different_sizes(self):
        # 1-approval, districts of 0, 1 and 2 own candidates: district 1
        # takes {a} or {b}, district 2 nothing, district 3 only {b}.  The
        # two tables read the one lone chunk, district 3 is asked only about
        # complements, and crc1 asks all three about one batch of singletons.
        inst = RecampaignInstance(
            TApproval(1),
            (
                District([], [LinearVote(["a", "b"])]),
                District(["x"], [LinearVote(["x", "a", "b"])]),
                District(["x", "y"], [LinearVote(["b", "x", "y", "a"])]),
            ),
            frozenset("ab"),
            UNBOUNDED,
        )
        assert self._checked_reads(solve_brute, inst) == [[0, 1], [2]]
        bound1 = dataclasses.replace(inst, bound=AtMost(1))
        assert self._checked_reads(solve_crc1, bound1) == [[0, 1, 2]]

    def test_one_batch_keeps_one_array_for_every_district_size(self):
        """Districts of 0 to 30 own candidates read one batch of 2^12 masks:
        it keeps one presence array and one lanes array, with a row per own
        candidate of the largest district, and each district reads their
        trailing rows.  A copy per own-candidate count would hold 16 times
        as much."""
        n, most = 12, 30
        order = [f"a{j:02d}" for j in range(n)]
        districts = []
        for own in range(most + 1):
            names = [f"d{c:02d}" for c in range(own)]
            districts.append(District(names, [LinearVote(order + names)]))
        inst = RecampaignInstance(TApproval(1), tuple(districts), frozenset(order), UNBOUNDED)
        batch = _Batch(np.arange(1 << n, dtype=np.int32), n, most)
        tracemalloc.start()
        try:
            verdicts = [_accepts(inst, d, order, batch) for d in range(inst.k)]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one = (most + n) << n  # one byte a cell, bools and uint8 lanes alike
        assert 2 * one <= held < 3 * one
        for own, verdict in enumerate(verdicts):
            # the sole ballot ranks every additional candidate first: a set
            # wins if it is a singleton or the empty set
            assert verdict.tolist() == [bin(m).count("1") <= 1 for m in range(1 << n)]
            assert batch.present(own).shape == (own + n, 1 << n)
            assert batch.present(own)[:own].all()


class TestSolveBrute:
    def test_empty_additional(self):
        inst = RecampaignInstance(Borda(), (District(["a"]),), frozenset(), UNBOUNDED)
        result = checked(inst, solve_brute(inst))
        assert result.answer
        assert result.statistics == {"nodes": 0, "members": 0, "guard": 0}  # no row asked

    def test_one_district_needs_no_table(self):
        # (k-1)·2^n = 0 table rows and one unit of work, within the least
        # budget however many candidates arrive.
        arrivals = frozenset(f"a{j}" for j in range(40))
        inst = RecampaignInstance(TrivialScoring(), (District([]),), arrivals, UNBOUNDED)
        result = checked(inst, solve_brute(inst, node_budget=1))
        assert result.statistics == {"nodes": 1, "members": 0, "guard": 0}

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_one_district_matches_placement_scan(self, seed):
        """One district takes all of A or nothing: the forward pass is
        empty and the last district is asked about A once, as a Python int
        past 63 candidates, under every bound, priced or not."""
        rng = random.Random(seed)
        n = rng.choice([rng.randint(0, 5), rng.randint(60, 70)])
        bound = rng.choice([AtMost(1), AtMost(2), AtMost(3), AtMost(max(1, n)), UNBOUNDED])
        params = RandomInstanceParams(
            districts=1,
            additional=n,
            rule=_random_rule(rng, n + 3),
            max_votes=rng.randint(0, 3),
            bound=bound,
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        result = checked(inst, solve_brute(inst, node_budget=1))
        assert result.answer == placement_scan(inst)[0]
        assert result.statistics["nodes"] <= 1

    def test_single_placement_failure(self):
        e = Election(["a", "b"], [LinearVote(["b", "a"]), LinearVote(["b", "a"])])
        from recamp import from_winner_problem

        inst = from_winner_problem(e, "a", TApproval(1))
        assert not checked(inst, solve_brute(inst)).answer

    @staticmethod
    def _takes(*votes):
        """A district holding x under 1-approval, one ballot per vote:
        [a, x, b] accepts {a} alone, [x, a, b] accepts nothing."""
        return District(["x"], [LinearVote(list(v)) for v in votes])

    def test_early_stop_reads_back_the_forward_layers(self):
        # Districts 1 and 2 cover {a, b} together, so the forward pass stops
        # at layer 2 of 3 and the last district is never asked.
        inst = RecampaignInstance(
            TApproval(1),
            (self._takes("axb"), self._takes("bxa"), self._takes("xab"), self._takes("xab")),
            frozenset("ab"),
            UNBOUNDED,
        )
        dp = solvers._PlacementDP(inst, ["a", "b"])
        assert dp.placement() == [1, 2]
        assert len(dp.fwd) == 3
        assert len(dp.sets) == 2  # district 3's table is never built
        # Two tables of 4 rows and 2·2 pairs tried: 12 units of work, the
        # 3·4 table rows admitted exactly at a budget of 12.
        with pytest.raises(ResourceBudgetError, match="^12 table rows exceed the node budget 11$"):
            solve_brute(inst, node_budget=11)
        result = checked(inst, solve_brute(inst, node_budget=12))
        assert result.assignment.placement == {"a": 1, "b": 2}
        assert result.statistics == {"nodes": 12, "members": 4, "guard": 0}

    def test_last_district_takes_the_complement(self):
        # Only district 1 takes a, only district 3 takes b, and district 2
        # takes nothing: the read-back starts from the set {a} of layer 2.
        inst = RecampaignInstance(
            TApproval(1),
            (self._takes("axb"), self._takes("xab"), self._takes("bxa")),
            frozenset("ab"),
            UNBOUNDED,
        )
        dp = solvers._PlacementDP(inst, ["a", "b"])
        assert dp.placement() == [1, 3]
        assert len(dp.fwd) == 3
        # Two tables of 4 rows, 2·1 pairs and 2 complements asked: 12 units.
        result = checked(inst, solve_brute(inst))
        assert result.assignment.placement == {"a": 1, "b": 3}
        assert result.statistics == {"nodes": 12, "members": 3, "guard": 0}

    @pytest.mark.parametrize("chunk", [4, 1 << 14])
    def test_priced_read_back_keeps_to_the_budget(self, chunk):
        # Every set is accepted everywhere, but candidate j is free only in
        # district j % 3 + 1: at budget 0 exactly one placement is valid.
        order = [f"a{j}" for j in range(8)]
        prices = {(i, a): int(i != j % 3 + 1) for i in (1, 2, 3) for j, a in enumerate(order)}
        inst = RecampaignInstance(
            TrivialScoring(),
            tuple(District([]) for _ in range(3)),
            frozenset(order),
            UNBOUNDED,
            Pricing(prices, 0),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_CHUNK_ROWS", chunk)
            result = checked(inst, solve_brute(inst))
        assert result.assignment.placement == {a: j % 3 + 1 for j, a in enumerate(order)}
        assert result.cost == 0

    def test_read_back_keeps_to_the_budget_left(self):
        # Budget 2: the last district takes b at price 1, leaving 1 for {a}.
        # District 1 reaches {a} at price 2, within the budget but not
        # within what is left, so district 2 must take a, at price 0.
        price = {1: {"a": 2, "b": 3}, 2: {"a": 0, "b": 3}, 3: {"a": 3, "b": 1}}
        inst = RecampaignInstance(
            TrivialScoring(),
            tuple(District([]) for _ in range(3)),
            frozenset("ab"),
            UNBOUNDED,
            Pricing({(i, a): p for i, row in price.items() for a, p in row.items()}, 2),
        )
        result = checked(inst, solve_brute(inst))
        assert result.assignment.placement == {"a": 2, "b": 3}
        assert result.cost == 1

    def test_budget_refusal(self):
        inst = RecampaignInstance(
            TrivialScoring(),
            tuple(District([]) for _ in range(10)),
            frozenset(f"a{j}" for j in range(9)),
            UNBOUNDED,
        )
        with pytest.raises(ResourceBudgetError):
            solve_brute(inst, node_budget=100)

    def test_many_districts_only_the_last_accepts(self):
        # k = 1200 and n = 2 is within the budget; the forward pass runs
        # through every layer, and the last district takes both.  Each of
        # the 1199 tables asks 4 rows and keeps ∅, each layer after the
        # first tries one pair, and the last district is asked once.
        k = 1200
        loser = District(["x"], [LinearVote(["x", "a", "b"])])
        inst = RecampaignInstance(
            TApproval(1), (loser,) * (k - 1) + (District([]),), frozenset("ab"), UNBOUNDED
        )
        result = checked(inst, solve_brute(inst))
        assert result.assignment.placement == {"a": k, "b": k}
        nodes = 4 * (k - 1) + (k - 2) + 1
        assert result.statistics == {"nodes": nodes, "members": k - 1, "guard": 0}

    @staticmethod
    def _dense(priced):
        """Three empty districts under the trivial rule: every set is
        accepted everywhere, so the DP layers are as full as they get."""
        additional = frozenset(f"a{j:02d}" for j in range(12))
        pricing = None
        if priced:
            prices = {(i, a): 1 for i in range(1, 4) for a in additional}
            pricing = Pricing(prices, len(additional) - 1)
        districts = tuple(District([]) for _ in range(3))
        return RecampaignInstance(TrivialScoring(), districts, additional, UNBOUNDED, pricing)

    def test_dense_priced_no_stays_within_memory(self):
        # Every placement costs 12 against a budget of 11; the DP asks the
        # 4,095 rows within the budget for each of two tables and tries about
        # 8.4 M pairs, a block at a time; no complement fits what is left.
        inst = self._dense(priced=True)
        tracemalloc.start()
        try:
            result = solve_brute(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.answer
        nodes = 2 * 4095 + 8_420_278
        assert result.statistics == {"nodes": nodes, "members": 2 * 4095, "guard": 0}
        assert peak < 16 * 2**20

    def test_dense_yes_stops_at_the_first_layer(self):
        # District 1 accepts every set, so layer 1 already covers every
        # candidate and the read-back gives it the whole set; priced, every
        # placement costs 12, the budget.
        plain = self._dense(priced=False)
        priced = self._dense(priced=True)
        priced = dataclasses.replace(priced, pricing=Pricing(priced.pricing.prices, 12))
        for inst, cost in ((plain, None), (priced, 12)):
            result = checked(inst, solve_brute(inst))
            assert result.statistics == {"nodes": 2**12, "members": 2**12, "guard": 0}
            assert set(result.assignment.placement.values()) == {1}
            assert result.cost == cost

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_matches_placement_scan(self, seed):
        rng = random.Random(seed)
        rule = rng.choice(
            [TApproval(1), TApproval(2), Borda(), Condorcet(), E1(), E2(), TrivialScoring()]
        )
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.randint(0, 3),
            rule=rule,
            bound=rng.choice([AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]),
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        assert checked(inst, solve_brute(inst)).answer == placement_scan(inst)[0]

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_small_chunks_find_a_valid_witness(self, seed):
        """Many table chunks, pair blocks and read-back blocks: the answer
        is the placement scan's, and a YES is valid within the budget."""
        rng = random.Random(seed)
        k = rng.randint(2, 4)
        params = RandomInstanceParams(
            districts=k,
            additional=rng.randint(3, 4 if k == 4 else 5),
            rule=_random_rule(rng, 8),
            max_votes=rng.randint(0, 3),
            bound=rng.choice([AtMost(2), AtMost(3), UNBOUNDED]),
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_CHUNK_ROWS", 4)
            result = checked(inst, solve_brute(inst))
            dp = solvers._PlacementDP(inst, sorted(inst.additional))
            dp.placement()
        assert result.answer == placement_scan(inst)[0]
        members = sum(len(masks) for masks, _ in dp.sets)
        assert result.statistics == {"nodes": dp.work, "members": members, "guard": int(dp.guard)}
        if result.answer and inst.pricing is not None:
            assert result.cost <= inst.pricing.budget


def huge_price_instance(price, budget, bound=UNBOUNDED):
    """Two empty districts under Borda, candidates a and b, every price
    `price`: any placement is valid when the budget allows 2·price."""
    prices = {(i, a): price for i in (1, 2) for a in "ab"}
    return RecampaignInstance(
        Borda(), (District([]), District([])), frozenset("ab"), bound, Pricing(prices, budget)
    )


class TestScoresBeyondInt64:
    def test_huge_explicit_vectors_are_decided_or_refused(self):
        """400 unbounded draws whose vectors are topped by 2⁶² and 2⁶² − 1.
        Shifted by its least entry, each vector of two or more entries
        spreads over about 2⁶² points: a district of up to three ballots fits
        a 64-bit tally and is decided as the placement scan decides, while
        one of four or more may not fit, and then the instance is refused."""
        decided = refused = 0
        for seed in range(400):
            rng = random.Random(seed)
            vectors = []
            for m in range(1, 7):
                tail = sorted((rng.randint(0, 3) for _ in range(m - 2)), reverse=True)
                vectors.append(([2**62, 2**62 - 1] + tail)[:m])
            rule = ExplicitScoringFamily(vectors)
            params = RandomInstanceParams(districts=2, additional=3, rule=rule, max_votes=6)
            inst = random_instance(params, seed)
            try:
                result = checked(inst, solve_auto(inst))
            except PreconditionError:
                assert max(len(d.votes) for d in inst.districts) >= 4
                refused += 1
                continue
            assert result.answer == placement_scan(inst)[0]
            decided += 1
        assert decided >= 100 and refused >= 100

    @pytest.mark.parametrize("rule", [TVeto(2**63), TApproval(2**63), TVeto(2**70)])
    def test_huge_t_is_clipped_to_the_candidates(self, rule):
        # t at least the candidate count: every candidate present ties.
        params = RandomInstanceParams(districts=2, additional=3, rule=rule, max_votes=3)
        for seed in range(10):
            for bound in (AtMost(1), AtMost(2), UNBOUNDED):
                inst = dataclasses.replace(random_instance(params, seed), bound=bound)
                assert checked(inst, solve_auto(inst)).answer == placement_scan(inst)[0]


class TestPricesBeyondInt64:
    ROUTES = [
        (solve_brute, UNBOUNDED),
        (solve_brute, AtMost(2)),
        (solve_auto, UNBOUNDED),
        (solve_auto, AtMost(2)),
    ]

    @pytest.mark.parametrize("solve, bound", ROUTES)
    @pytest.mark.parametrize("price", [2**62, 2**63, 2**70])
    def test_price_above_the_budget_is_never_paid(self, solve, bound, price):
        inst = huge_price_instance(price, 5, bound)
        assert not checked(inst, solve(inst)).answer

    @pytest.mark.parametrize("solve, bound", ROUTES)
    @pytest.mark.parametrize("price", [2**62, 2**63])
    def test_budget_that_cannot_bind(self, solve, bound, price):
        inst = huge_price_instance(price, 2**64, bound)
        result = checked(inst, solve(inst))
        assert result.answer
        assert result.cost == 2 * price

    @pytest.mark.parametrize("solve, bound", ROUTES)
    @pytest.mark.parametrize("budget", [2**60 + 1, 2**60 + 2])
    def test_sums_past_float64_precision_stay_exact(self, solve, bound, budget):
        # Only a in district 1 with b in district 2 can fit, at 2^60 + 2;
        # in float64 that sum would round to 2^60.
        prices = {(1, "a"): 2**60, (2, "b"): 2, (2, "a"): 2**62, (1, "b"): 2**62}
        inst = RecampaignInstance(
            Borda(), (District([]), District([])), frozenset("ab"), bound, Pricing(prices, budget)
        )
        result = checked(inst, solve(inst))
        assert result.answer == (budget == 2**60 + 2)

    @pytest.mark.parametrize("solve, bound", ROUTES)
    def test_budget_beyond_int64_sums_is_refused(self, solve, bound):
        inst = huge_price_instance(2**70, 2**65, bound)
        with pytest.raises(PreconditionError, match="int64"):
            solve(inst)


class TestSolveE1Bound3:
    def _inst(self, district_sizes, extra):
        districts = tuple(
            District([f"d{i}c{j}" for j in range(1, size + 1)])
            for i, size in enumerate(district_sizes, start=1)
        )
        return RecampaignInstance(E1(), districts, frozenset(extra), AtMost(3))

    def test_one_empty_district_three_arrivals(self):
        inst = self._inst([0], ["a", "b", "c"])
        assert checked(inst, solve_e1_bound3(inst)).answer

    def test_one_empty_district_two_arrivals(self):
        inst = self._inst([0], ["a", "b"])
        assert not checked(inst, solve_e1_bound3(inst)).answer

    def test_mixed_slacks(self):
        inst = self._inst([2, 1, 0], [f"a{j}" for j in range(6)])
        result = checked(inst, solve_e1_bound3(inst))
        assert result.answer
        assert result.answer == solve_brute(inst).answer

    def test_thousands_of_districts_count_in_pairs(self):
        """1,000 districts each with 0, 1 and 2 own candidates hold at most
        6,000 arrivals; each (1-room, 2-room) take pair is tried once."""
        inst = self._inst([i % 3 for i in range(3000)], [f"a{j}" for j in range(6001)])
        result = checked(inst, solve_e1_bound3(inst))
        assert not result.answer
        assert result.statistics["nodes"] <= 1001**2

    def test_wrong_variant_rejected(self):
        base = self._inst([0], ["a", "b", "c"])
        with pytest.raises(WrongVariantError):
            solve_e1_bound3(dataclasses.replace(base, bound=AtMost(2)))
        with pytest.raises(WrongVariantError):
            solve_e1_bound3(dataclasses.replace(base, rule=Borda()))
        priced = dataclasses.replace(
            base,
            pricing=Pricing({(1, a): 1 for a in ("a", "b", "c")}, budget=9),
        )
        with pytest.raises(WrongVariantError):
            solve_e1_bound3(priced)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.randint(0, 5),
            rule=E1(),
            bound=AtMost(3),
        )
        inst = random_instance(params, seed)
        assert checked(inst, solve_e1_bound3(inst)).answer == solve_brute(inst).answer

    def test_approval_ballots(self):
        """E1 is the one rule that takes approval ballots: they survive a
        format round trip and restriction, and every other rule refuses them."""
        ballots = (ApprovalVote({"c", "a"}), ApprovalVote({"b"}), ApprovalVote(()))
        inst = RecampaignInstance(
            E1(), (District(["c"], ballots), District(["d"])), frozenset({"a", "b"}), AtMost(3)
        )
        assert formats.parse_instance(formats.render_instance(inst)) == inst
        result = checked(inst, solve_auto(inst))
        assert (result.answer, result.algorithm) == (True, "e1-bound3")
        assert result.assignment.placement == {"a": 1, "b": 1}
        with pytest.raises(BallotTypeError):
            dataclasses.replace(inst, rule=TApproval(1))
        stray = District(["c"], (ApprovalVote({"c", "zz"}),))
        with pytest.raises(ShapeError):
            dataclasses.replace(inst, districts=(stray, District(["d"])))


class TestSolveE2Unbounded:
    def test_four_arrivals_always_win(self):
        d = District(["b"], [])
        inst = RecampaignInstance(
            E2(), (d, District([])), frozenset({"a1", "a2", "a3", "a4"}), UNBOUNDED
        )
        result = checked(inst, solve_e2_unbounded(inst))
        assert result.answer
        assert set(result.assignment.placement.values()) == {1}

    def test_single_arrival_blocked_by_incumbent(self):
        # Below four arrivals E2 is the subset DP's.
        d = District(["b"], [LinearVote(["b", "a"]), LinearVote(["b", "a"])])
        inst = RecampaignInstance(E2(), (d,), frozenset({"a"}), UNBOUNDED)
        result = checked(inst, solve_auto(inst))
        assert (result.algorithm, result.answer) == ("brute", False)

    def test_wrong_variant_rejected(self):
        inst = RecampaignInstance(E2(), (District([]),), frozenset("abcd"), UNBOUNDED)
        with pytest.raises(WrongVariantError):
            solve_e2_unbounded(dataclasses.replace(inst, bound=AtMost(3)))
        with pytest.raises(WrongVariantError):
            solve_e2_unbounded(dataclasses.replace(inst, rule=E1()))
        with pytest.raises(WrongVariantError, match="at least 4"):
            solve_e2_unbounded(dataclasses.replace(inst, additional=frozenset("abc")))

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.choice([0, 1, 2, 3, 5]),
            rule=E2(),
            bound=UNBOUNDED,
        )
        inst = random_instance(params, seed)
        solve = solve_e2_unbounded if len(inst.additional) >= 4 else solve_auto
        answer = checked(inst, solve(inst)).answer
        assert answer == solve_brute(inst).answer == placement_scan(inst)[0]

    def test_no_takes_work_linear_in_k(self):
        # 80 districts whose incumbent tops their one ballot: neither arrival
        # can win anywhere.  A scan of the 80² placements, a `verify` each,
        # took seconds; the DP asks 79 tables of 2² rows and tries at most
        # 2²·2² pairs a layer, and holds the node budget.
        districts = tuple(
            District([f"c{i}"], [LinearVote([f"c{i}", "a1", "a2"])]) for i in range(80)
        )
        inst = RecampaignInstance(E2(), districts, frozenset({"a1", "a2"}), UNBOUNDED)
        result = checked(inst, solve_auto(inst))
        assert (result.algorithm, result.answer) == ("brute", False)
        assert result.statistics["nodes"] <= 20 * inst.k
        with pytest.raises(ResourceBudgetError):
            solve_auto(inst, node_budget=inst.k)


class TestSolveAuto:
    def test_trivial_rule_routes_to_b_matching(self):
        inst = worked_example_instance()
        result = solve_auto(inst)
        assert result.algorithm == "b-matching"
        assert result.cost == 14

    def test_bound_1_routes_to_matching(self):
        inst = RecampaignInstance(Condorcet(), (District([]),), frozenset({"a"}), AtMost(1))
        assert solve_auto(inst).algorithm == "crc1-matching"

    def test_small_unbounded_routes_to_brute(self):
        inst = RecampaignInstance(TApproval(1), (District([]),), frozenset({"a"}), UNBOUNDED)
        assert solve_auto(inst).algorithm == "brute"

    def test_e1_special_case(self):
        inst = RecampaignInstance(E1(), (District([]),), frozenset({"a", "b", "c"}), AtMost(3))
        assert solve_auto(inst).algorithm == "e1-bound3"

    def test_e2_special_case(self):
        inst = RecampaignInstance(E2(), (District([]),), frozenset("abcd"), UNBOUNDED)
        assert solve_auto(inst).algorithm == "e2-unbounded"
        fewer = dataclasses.replace(inst, additional=frozenset("abc"))
        assert solve_auto(fewer).algorithm == "brute"

    def test_bounded_routes_to_brute(self):
        inst = RecampaignInstance(
            Borda(), (District([]), District([])), frozenset({"a"}), AtMost(2)
        )
        assert solve_auto(inst).algorithm == "brute"

    def test_propagates_budget_errors(self):
        inst = RecampaignInstance(
            TApproval(1),
            tuple(District([]) for _ in range(10)),
            frozenset(f"a{j}" for j in range(9)),
            UNBOUNDED,
        )
        with pytest.raises(ResourceBudgetError):
            solve_auto(inst, node_budget=100)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120, deadline=None)
    def test_always_matches_brute_force(self, seed):
        rng = random.Random(seed)
        rule = rng.choice(
            [TApproval(1), Borda(), Condorcet(), TrivialScoring(), E1(), E2()]
        )
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.randint(0, 3),
            rule=rule,
            bound=rng.choice([AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]),
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        result = checked(inst, solve_auto(inst))
        assert result.answer == solve_brute(inst).answer


ROUTE_RULES = [
    TApproval(1),
    TApproval(2),
    TVeto(1),
    Borda(),
    ExplicitScoringFamily([tuple(range(m, 0, -1)) for m in range(1, 9)]),
    Condorcet(),
    TrivialScoring(),
    E1(),
    E2(),
]


class TestRouteTable:
    def test_solve_auto_order(self):
        assert list(ROUTES) == ["e1", "e2", "bmatch", "crc1", "brute"]

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150, deadline=None)
    def test_each_method_decides_exactly_its_rows_variant(self, seed):
        """A method raises WrongVariantError exactly when its row's test
        rejects the instance; the routes that accept it agree, and
        `solve_auto` answers with the label of the first of them."""
        rng = random.Random(seed)
        params = RandomInstanceParams(
            districts=rng.randint(1, 3),
            additional=rng.randint(0, 4),
            rule=rng.choice(ROUTE_RULES),
            bound=rng.choice([AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]),
            priced=bool(rng.getrandbits(1)),
        )
        inst = random_instance(params, seed)
        decided = {}
        for name, route in ROUTES.items():
            if route.test(inst):
                decided[name] = checked(inst, route.method(inst))
            else:
                with pytest.raises(WrongVariantError, match=route.variant):
                    route.method(inst)
        assert {result.answer for result in decided.values()} == {decided["brute"].answer}
        assert solve_auto(inst).algorithm == next(iter(decided.values())).algorithm


_PROBE = RecampaignInstance(
    TApproval(1), (District([]), District([])), frozenset({"a", "b", "c"}), UNBOUNDED
)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: scoring_vector(Borda(), True), id="scoring_vector-bool"),
        pytest.param(
            lambda: is_k_winner(TApproval(1), THREE_VOTES, "a", True), id="is_k_winner-bool"
        ),
        pytest.param(lambda: solve_brute(_PROBE, node_budget=True), id="brute-bool"),
        pytest.param(lambda: solve_brute(_PROBE, node_budget=2.5), id="brute-float"),
        pytest.param(lambda: solve_auto(_PROBE, node_budget=True), id="auto-bool"),
        pytest.param(
            lambda: decide_x3c(X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3")]), 0),
            id="decide_x3c-zero",
        ),
        pytest.param(
            lambda: decide_3dm(R3DMInstance(["w1"], ["x1"], ["y1"], [("w1", "x1", "y1")]), -5),
            id="decide_3dm-negative",
        ),
        pytest.param(
            lambda: decide_e3sat(
                OneInThreeSatInstance(["x1", "x2", "x3"], [("x1", "x2", "x3")] * 3), True
            ),
            id="decide_e3sat-bool",
        ),
    ],
)
def test_counts_and_budgets_must_be_ints(call):
    """A bool or a float is no count: each is a usage error, not a budget
    of 1 or a one-candidate election."""
    with pytest.raises(ShapeError):
        call()


# One instance that `solve_auto` sends down each route.
ROUTE_PROBES = {
    "e1-bound3": RecampaignInstance(E1(), (District([]),), frozenset("abc"), AtMost(3)),
    "e2-unbounded": RecampaignInstance(E2(), (District([]),), frozenset("abcd"), UNBOUNDED),
    "b-matching": worked_example_instance(),
    "crc1-matching": RecampaignInstance(Condorcet(), (District([]),), frozenset("a"), AtMost(1)),
    "brute": _PROBE,
}


@pytest.mark.parametrize("algorithm", list(ROUTE_PROBES))
def test_node_budget_is_checked_on_every_route(algorithm):
    """Every route's method checks the node budget as `solve_auto` does, so
    a bad budget is a usage error whichever route decides, not only on the
    DP's, and it is checked before the variant."""
    inst = ROUTE_PROBES[algorithm]
    route = next(route for route in ROUTES.values() if route.test(inst))
    for solve in (solve_auto, route.method):
        assert solve(inst).algorithm == algorithm
        assert solve(inst, node_budget=1000).algorithm == algorithm
        for budget in (0, -5, "x", True, 2.5):
            with pytest.raises(ShapeError, match="node budget"):
                solve(inst, node_budget=budget)
    for other in ROUTES.values():
        if not other.test(inst):
            with pytest.raises(ShapeError, match="node budget"):
                other.method(inst, node_budget=0)
            with pytest.raises(WrongVariantError, match=other.variant):
                other.method(inst, node_budget=1000)


def test_cross_validate_script_agrees():
    """`scripts/cross_validate.py` decides seeded draws by every route that
    takes them, with ballots cast once, twice and 256 times, against the
    placement scan, and exits nonzero on any disagreement."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    script = root / "scripts" / "cross_validate.py"
    done = subprocess.run(
        [sys.executable, str(script), "--trials", "20", "--seed", "7"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
