"""Tests for problem instances, assignments, verification, and the trivial
inter-problem reductions."""

import dataclasses
import time

import pytest
from hypothesis import given, settings, strategies as st

from recamp import (
    Assignment,
    AtMost,
    Borda,
    Condorcet,
    District,
    E1,
    Election,
    ExplicitScoringFamily,
    LinearVote,
    PreconditionError,
    Pricing,
    RandomInstanceParams,
    RecampaignInstance,
    ShapeError,
    TApproval,
    TVeto,
    TrivialScoring,
    UNBOUNDED,
    Unbounded,
    UnknownCandidateError,
    from_winner_problem,
    lift_to_priced,
    random_instance,
    solve_brute,
    verify,
    winners,
)

THREE_VOTES = Election(
    ["a", "b", "c"],
    [
        LinearVote(["a", "b", "c"]),
        LinearVote(["a", "c", "b"]),
        LinearVote(["b", "c", "a"]),
    ],
)


def empty_district_instance(rule, additional, bound, pricing=None):
    return RecampaignInstance(
        rule=rule,
        districts=(District([]),),
        additional=additional,
        bound=bound,
        pricing=pricing,
    )


class TestConstruction:
    def test_bound_validation(self):
        with pytest.raises(ShapeError):
            AtMost(0)
        with pytest.raises(ShapeError):
            AtMost(-2)
        assert AtMost(1).limit == 1

    def test_vote_less_districts_build_no_pool(self):
        # 3,000 vote-less districts beside 6,001 arrivals: building C_i ∪ A
        # for each took 0.4-0.7 s on a 2-core x86 machine, though a district
        # without votes has no ballot to check against it.  A district with
        # votes after them is still checked.
        arrivals = frozenset(f"a{j}" for j in range(6001))
        start = time.perf_counter()
        inst = RecampaignInstance(E1(), (District([]),) * 3000, arrivals, AtMost(3))
        assert time.perf_counter() - start < 0.15
        assert inst.k == 3000
        stray = District(["x"], [LinearVote(["x", "a0"])])
        with pytest.raises(ShapeError, match="district 3001"):
            RecampaignInstance(E1(), (District([]),) * 3000 + (stray,), arrivals, AtMost(3))

    def test_pricing_validation(self):
        with pytest.raises(ShapeError):
            Pricing({(1, "a"): -1}, budget=0)
        with pytest.raises(ShapeError):
            Pricing({(1, "a"): 1}, budget=-1)
        with pytest.raises(ShapeError):
            Pricing({"a": 1}, budget=0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: AtMost(True),
            lambda: TApproval(True),
            lambda: TVeto(True),
            lambda: ExplicitScoringFamily([[True]]),
            lambda: Pricing({(1, "a"): True}, budget=0),
            lambda: Pricing({(True, "a"): 1}, budget=0),
            lambda: Pricing({(1, "a"): 1}, budget=True),
            lambda: Assignment({"a": True}),
        ],
        ids=[
            "bound", "t-approval", "t-veto", "explicit-vector",
            "price", "price-district", "budget", "assignment",
        ],
    )
    def test_bools_are_not_ints(self, build):
        """The file formats refuse True where an int belongs, so the
        constructors do too: whatever they accept renders and parses back."""
        with pytest.raises(ShapeError):
            build()

    def test_needs_a_district(self):
        with pytest.raises(ShapeError):
            RecampaignInstance(Borda(), (), frozenset(), UNBOUNDED)

    def test_additional_disjoint_from_districts(self):
        with pytest.raises(ShapeError):
            RecampaignInstance(
                Borda(), (District(["a"]),), frozenset({"a"}), UNBOUNDED
            )

    def test_votes_range_over_pool(self):
        # district votes must order C_i plus every additional candidate
        d = District(["b"], [LinearVote(["b"])])
        with pytest.raises(ShapeError):
            RecampaignInstance(Borda(), (d,), frozenset({"x"}), UNBOUNDED)
        ok = District(["b"], [LinearVote(["b", "x"])])
        inst = RecampaignInstance(Borda(), (ok,), frozenset({"x"}), UNBOUNDED)
        assert inst.pool(1) == {"b", "x"}

    def test_pricing_must_be_total(self):
        d = District([])
        with pytest.raises(ShapeError):
            RecampaignInstance(
                TrivialScoring(),
                (d, d),
                frozenset({"a"}),
                AtMost(1),
                Pricing({(1, "a"): 1}, budget=1),
            )

    def test_election_with_restricts_votes(self):
        d = District(["b"], [LinearVote(["x", "b", "y"])])
        inst = RecampaignInstance(TApproval(1), (d,), frozenset({"x", "y"}), UNBOUNDED)
        e = inst.election_with(1, frozenset({"y"}))
        assert e.candidates == {"b", "y"}
        assert e.votes[0].order == ("b", "y")

    def test_assignment_shape(self):
        with pytest.raises(ShapeError):
            Assignment({1: 1})
        asg = Assignment({"a": 2, "b": 1})
        assert asg.placed_in(1) == {"b"}
        assert asg.placed_in(2) == {"a"}
        assert asg.placed_in(3) == frozenset()


class TestVerify:
    def test_empty_additional_is_vacuously_valid(self):
        inst = RecampaignInstance(Borda(), (District(["a"]),), frozenset(), AtMost(1))
        report = verify(inst, Assignment({}))
        assert report.valid
        assert report.violations == ()

    def test_e1_three_in_one_district(self):
        inst = empty_district_instance(E1(), frozenset({"a", "b", "c"}), AtMost(3))
        report = verify(inst, Assignment({"a": 1, "b": 1, "c": 1}))
        assert report.valid
        assert report.winner_sets[0] == {"a", "b", "c"}

    def test_e1_two_in_one_district_all_lose(self):
        inst = empty_district_instance(E1(), frozenset({"a", "b"}), AtMost(3))
        report = verify(inst, Assignment({"a": 1, "b": 1}))
        assert not report.valid
        assert {v.kind for v in report.violations} == {"losing-candidate"}
        assert {v.candidate for v in report.violations} == {"a", "b"}

    def test_untouched_districts_escape_the_winner_bound(self):
        # district 2 has two tied winners but receives nobody, so AtMost(1)
        # only constrains district 1
        d1 = District([])
        d2 = District(["p", "q"])
        inst = RecampaignInstance(
            TrivialScoring(), (d1, d2), frozenset({"a"}), AtMost(1)
        )
        assert verify(inst, Assignment({"a": 1})).valid
        report = verify(inst, Assignment({"a": 2}))
        assert not report.valid
        assert any(v.kind == "winner-bound-exceeded" for v in report.violations)

    def test_budget_violation(self):
        inst = empty_district_instance(
            TrivialScoring(),
            frozenset({"a"}),
            AtMost(1),
            Pricing({(1, "a"): 5}, budget=4),
        )
        report = verify(inst, Assignment({"a": 1}))
        assert not report.valid
        assert any(v.kind == "budget-exceeded" for v in report.violations)
        assert report.total_cost == 5

    def test_cost_reported_when_valid(self):
        inst = empty_district_instance(
            TrivialScoring(),
            frozenset({"a"}),
            AtMost(1),
            Pricing({(1, "a"): 3}, budget=4),
        )
        report = verify(inst, Assignment({"a": 1}))
        assert report.valid
        assert report.total_cost == 3

    def test_unpriced_cost_is_none(self):
        inst = empty_district_instance(TrivialScoring(), frozenset({"a"}), AtMost(1))
        assert verify(inst, Assignment({"a": 1})).total_cost is None

    def test_malformed_assignments(self):
        inst = empty_district_instance(TrivialScoring(), frozenset({"a"}), AtMost(1))
        with pytest.raises(ShapeError):
            verify(inst, Assignment({}))  # misses a
        with pytest.raises(ShapeError):
            verify(inst, Assignment({"a": 1, "zz": 1}))  # extra candidate
        with pytest.raises(ShapeError):
            verify(inst, Assignment({"a": 2}))  # district out of range
        with pytest.raises(ShapeError):
            verify(inst, Assignment({"a": 0}))


class TestFromWinnerProblem:
    def test_condorcet_champion_instance(self):
        inst = from_winner_problem(THREE_VOTES, "a", Condorcet())
        assert inst.k == 1
        assert inst.additional == {"a"}
        assert inst.districts[0].candidates == {"b", "c"}
        assert isinstance(inst.bound, Unbounded)
        assert inst.pricing is None
        assert verify(inst, Assignment({"a": 1})).valid
        result = solve_brute(inst)
        assert result.answer
        assert result.assignment.placement == {"a": 1}

    def test_losing_candidate_gives_no_instance(self):
        e = Election(["a", "b"], [LinearVote(["b", "a"]), LinearVote(["b", "a"])])
        inst = from_winner_problem(e, "a", TApproval(1))
        assert not solve_brute(inst).answer

    def test_trivial_rule_gives_yes_instance(self):
        inst = from_winner_problem(Election(["a", "b"]), "a", TrivialScoring())
        assert solve_brute(inst).answer

    def test_unknown_candidate(self):
        with pytest.raises(UnknownCandidateError):
            from_winner_problem(THREE_VOTES, "zz", Borda())

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_membership_matches_winner_set(self, seed):
        import random

        rng = random.Random(seed)
        m = rng.randint(1, 4)
        cands = [f"c{j}" for j in range(m)]
        votes = []
        for _ in range(rng.randint(0, 4)):
            order = cands[:]
            rng.shuffle(order)
            votes.append(LinearVote(order))
        e = Election(cands, votes)
        p = rng.choice(cands)
        rule = rng.choice([TApproval(1), Borda(), Condorcet(), TrivialScoring()])
        inst = from_winner_problem(e, p, rule)
        assert solve_brute(inst).answer == (p in winners(rule, e))


class TestLiftToPriced:
    def test_uniform_prices_and_budget(self):
        inst = empty_district_instance(E1(), frozenset({"a", "b", "c"}), AtMost(3))
        lifted = lift_to_priced(inst)
        assert lifted.pricing.budget == 3
        assert set(lifted.pricing.prices.values()) == {1}
        assert solve_brute(inst).answer and solve_brute(lifted).answer

    def test_empty_additional_budget_zero(self):
        inst = RecampaignInstance(Borda(), (District(["a"]),), frozenset(), UNBOUNDED)
        lifted = lift_to_priced(inst)
        assert lifted.pricing.budget == 0
        assert lifted.pricing.prices == {}
        assert solve_brute(lifted).answer

    def test_already_priced_rejected(self):
        inst = empty_district_instance(
            TrivialScoring(), frozenset({"a"}), AtMost(1), Pricing({(1, "a"): 0}, 0)
        )
        with pytest.raises(PreconditionError):
            lift_to_priced(inst)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_membership_preserved(self, seed):
        params = RandomInstanceParams(districts=2, additional=2, rule=TApproval(1), bound=AtMost(2))
        inst = random_instance(params, seed)
        assert solve_brute(inst).answer == solve_brute(lift_to_priced(inst)).answer


class TestRandomInstance:
    def test_deterministic_in_seed(self):
        params = RandomInstanceParams(districts=3, additional=2, rule=Borda(), priced=True)
        assert random_instance(params, 99) == random_instance(params, 99)

    def test_no_additional_candidates_always_yes(self):
        params = RandomInstanceParams(districts=2, additional=0, rule=Borda())
        inst = random_instance(params, 7)
        assert inst.additional == frozenset()
        assert solve_brute(inst).answer

    def test_prefilled_district_blocks_trivial_rule(self):
        # one district that already holds a candidate: under the trivial rule
        # any placement yields two tied winners, violating AtMost(1)
        params = RandomInstanceParams(
            districts=1,
            additional=1,
            rule=TrivialScoring(),
            max_district_candidates=1,
            bound=AtMost(1),
        )
        for seed in range(200):
            inst = random_instance(params, seed)
            if len(inst.districts[0].candidates) == 1:
                assert not solve_brute(inst).answer
                break
        else:
            pytest.fail("no seed produced a one-candidate district")

    def test_bad_params(self):
        with pytest.raises(ShapeError):
            random_instance(RandomInstanceParams(districts=0, additional=1, rule=Borda()), 0)
        with pytest.raises(ShapeError):
            random_instance(RandomInstanceParams(districts=1, additional=-1, rule=Borda()), 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_votes", -1),
            ("max_district_candidates", -1),
            ("districts", True),
            ("additional", 1.5),
        ],
    )
    def test_counts_are_checked_on_construction(self, field, value):
        # A negative count used to reach random.randrange as a ValueError.
        counts = {"districts": 1, "additional": 1, field: value}
        with pytest.raises(ShapeError, match=field):
            RandomInstanceParams(rule=Borda(), **counts)


# ---------------------------------------------------------------------------
# Containment / strictness invariants
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_relaxing_the_bound_preserves_valid_assignments(seed):
    import random as _random

    rng = _random.Random(seed)
    rule = rng.choice([TApproval(1), Borda(), TrivialScoring(), Condorcet()])
    params = RandomInstanceParams(
        districts=2, additional=2, rule=rule, bound=AtMost(1), priced=bool(rng.getrandbits(1))
    )
    inst = random_instance(params, seed)
    result = solve_brute(inst)
    if not result.answer:
        return
    asg = result.assignment
    for looser in (AtMost(2), AtMost(5), UNBOUNDED):
        relaxed = dataclasses.replace(inst, bound=looser)
        assert verify(relaxed, asg).valid


@pytest.mark.parametrize("tight,loose", [(1, 2), (1, 3), (2, 3)])
def test_strictness_witness_under_trivial_rule(tight, loose):
    """One empty district and |A| = loose winners: Yes at AtMost(loose),
    No at every smaller bound."""
    extra = frozenset(f"a{j}" for j in range(loose))
    yes_inst = empty_district_instance(TrivialScoring(), extra, AtMost(loose))
    no_inst = empty_district_instance(TrivialScoring(), extra, AtMost(tight))
    assert solve_brute(yes_inst).answer
    assert not solve_brute(no_inst).answer
