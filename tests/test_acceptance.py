"""Ten end-to-end acceptance checks, one test per criterion.

Each test cross-validates a solving route against an independent route on an
exhaustive or randomized instance family and asserts a wall-clock ceiling, so
a regression in either correctness or complexity fails loudly.  Run with -v
to get one pass/fail line per criterion.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace

from recamp import (
    UNBOUNDED,
    Assignment,
    AtMost,
    Borda,
    Condorcet,
    E1,
    E2,
    Election,
    LinearVote,
    OneInThreeSatInstance,
    RandomInstanceParams,
    TApproval,
    TVeto,
    TrivialScoring,
    X3CInstance,
    decide_3dm,
    decide_e3sat,
    decide_x3c,
    from_winner_problem,
    is_k_winner,
    random_instance,
    solve_auto,
    solve_brute,
    solve_crc1,
    solve_e1_bound3,
    solve_e2_unbounded,
    verify,
)
from recamp.cli import main
from recamp.formats import render_instance
from recamp.gadgets import (
    e33dm_to_1approval,
    e33dm_to_scoring,
    r3dm_to_exactly3,
    sat_to_approval_unbounded,
    x3c_to_approval,
    x3c_to_e1_priced,
    x3c_to_veto,
)
from recamp.matching import (
    min_cost_max_cardinality_matching,
    min_weight_perfect_b_matching,
)

from oracles import (
    b_matching_optimum,
    matching_optimum,
    placement_scan,
    random_degrees,
    random_graph,
    random_r3dm,
)
from test_gadgets import E33_A, E33_B, E33_C, E33_NO, SAT_YES6, _assert_pair_winner_lemma
from test_solvers import worked_example_instance

BIG = 10**9

ALL_RULES = [
    TApproval(1),
    TApproval(2),
    TVeto(1),
    TVeto(2),
    Borda(),
    TrivialScoring(),
    Condorcet(),
    E1(),
    E2(),
]


@contextmanager
def _within(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, ceiling is {seconds}s"


def _random_election(rng):
    names = rng.sample("abcde", rng.randint(1, 5))
    votes = []
    for _ in range(rng.randint(0, 6)):
        order = names[:]
        rng.shuffle(order)
        votes.append(LinearVote(order))
    return Election(names, votes)


def test_c01_worked_example_costs_exactly_14(tmp_path, capsys):
    with _within(1.0):
        inst = worked_example_instance(budget=16)
        path = tmp_path / "worked.json"
        path.write_text(render_instance(inst))
        assert main(["solve", str(path), "--algorithm", "bmatch"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["answer"] == "YES"
        assert report["cost"] == 14
        check = verify(inst, Assignment(report["assignment"]["placement"]))
        assert check.valid and check.total_cost == 14

        tight = tmp_path / "tight.json"
        tight.write_text(render_instance(worked_example_instance(budget=13)))
        assert main(["solve", str(tight), "--algorithm", "bmatch"]) == 1
        assert json.loads(capsys.readouterr().out)["answer"] == "NO"


def test_c02_matching_route_agrees_with_single_winner_test():
    with _within(10.0):
        rng = random.Random(202)
        for rule in ALL_RULES:
            for _ in range(500):
                e = _random_election(rng)
                p = rng.choice(sorted(e.candidates))
                want = is_k_winner(rule, e, p, 1)
                inst = replace(from_winner_problem(e, p, rule), bound=AtMost(1))
                assert solve_crc1(inst).answer == want


def test_c03_x3c_to_e1_pricing_exhaustive_equivalence():
    with _within(60.0):
        u6 = [f"u{i}" for i in range(1, 7)]
        pool = list(itertools.combinations(u6, 3))
        cases = [X3CInstance([], []), X3CInstance(["u1", "u2", "u3"], [])]
        cases.append(X3CInstance(["u1", "u2", "u3"], [("u1", "u2", "u3")]))
        count, yes, no = 0, 0, 0
        for src in itertools.chain(
            cases,
            (
                X3CInstance(u6, combo)
                for size in range(6)
                for combo in itertools.combinations(pool, size)
            ),
        ):
            want = decide_x3c(src)
            got = solve_brute(x3c_to_e1_priced(src), node_budget=BIG)
            assert got.answer == want
            count += 1
            yes += want
            no += not want
        assert count == 21703 and yes > 0 and no > 0


def test_c04_exactly3_matching_reductions_preserve_decisions():
    with _within(300.0):
        rng = random.Random(404)
        sources = [E33_A, E33_B, E33_C, E33_NO, r3dm_to_exactly3(random_r3dm(rng, 1, 1))]
        while len(sources) < 104:
            k0, wanted = (2, 5) if len(sources) % 2 == 0 else (3, 9)
            raw = random_r3dm(rng, k0, wanted)
            if len(raw.triples) == wanted:
                sources.append(r3dm_to_exactly3(raw))
        yes = no = 0
        for src in sources:
            assert src.k == 3
            want = decide_3dm(src)
            yes += want
            no += not want
            # the 1-approval gadget is the scoring gadget under 1-approval
            plain = render_instance(e33dm_to_1approval(src))
            assert plain == render_instance(e33dm_to_scoring(src, TApproval(1)))
            for target in (e33dm_to_1approval(src), e33dm_to_scoring(src, Borda())):
                _assert_pair_winner_lemma(src, target)
                assert solve_brute(target, node_budget=BIG).answer == want
        assert len(sources) >= 104 and yes > 0 and no > 0


def test_c05_x3c_approval_veto_sweep():
    with _within(300.0):
        u6 = [f"u{i}" for i in range(1, 7)]
        pool = list(itertools.combinations(u6, 3))
        count, yes, no = 0, 0, 0
        for size in (2, 3, 4):
            for combo in itertools.combinations(pool, size):
                src = X3CInstance(u6, combo)
                want = decide_x3c(src)
                count += 1
                yes += want
                no += not want
                for t in (1, 2):
                    for bound in (AtMost(3), UNBOUNDED):
                        for build in (x3c_to_approval, x3c_to_veto):
                            got = solve_brute(build(src, t, bound), node_budget=BIG)
                            assert got.answer == want, (sorted(map(sorted, combo)), t, bound, build)
        assert count == 6175 and yes > 0 and no > 0


def test_c06_two_district_sat_gadget():
    with _within(300.0):
        vars4 = ("x1", "x2", "x3", "x4")
        base = list(itertools.combinations(vars4, 3))
        orderings = 0
        for perm in itertools.permutations(base):
            src = OneInThreeSatInstance(vars4, perm)
            want = decide_e3sat(src)
            assert want is False
            orderings += 1
            for t in (1, 2):
                target = sat_to_approval_unbounded(src, t)
                assert target.k == 2
                assert solve_brute(target, node_budget=BIG).answer is False
        assert orderings == 24
        # The four-variable family is entirely unsatisfiable, so probe the
        # yes direction with a satisfiable six-variable formula too.
        assert decide_e3sat(SAT_YES6) is True
        for t in (1, 2):
            assert solve_brute(sat_to_approval_unbounded(SAT_YES6, t), node_budget=BIG).answer


def test_c07_cover_solver_agrees_with_brute_and_guards():
    with _within(120.0):
        rng = random.Random(707)
        rules = [TApproval(1), TApproval(2), TVeto(1), Borda(), TrivialScoring(), Condorcet(), E1(), E2()]
        guarded = 0
        for trial in range(520):
            k, n, level = rng.randint(1, 3), rng.randint(0, 5), rng.randint(1, 3)
            params = RandomInstanceParams(
                districts=k,
                additional=n,
                rule=rules[trial % len(rules)],
                bound=AtMost(level),
                priced=True,
            )
            inst = random_instance(params, seed=trial)
            result = solve_brute(inst, node_budget=BIG)
            assert result.answer == placement_scan(inst)[0]
            if n > k * level:
                guarded += 1
                assert result.statistics["guard"] == 1 and not result.answer
                assert result.statistics["nodes"] == 0
            else:
                assert result.statistics["guard"] == 0
        assert guarded >= 25


def test_c08_winner_bound_monotonicity_and_collapse():
    with _within(120.0):
        bounds = [AtMost(1), AtMost(2), AtMost(3), AtMost(4), UNBOUNDED]
        rng = random.Random(808)
        for rule in ALL_RULES:
            for trial in range(200):
                params = RandomInstanceParams(
                    districts=rng.randint(1, 3), additional=rng.randint(0, 4), rule=rule
                )
                inst = random_instance(params, seed=trial)
                answers = [
                    solve_brute(replace(inst, bound=b), node_budget=BIG).answer
                    for b in bounds
                ]
                for narrow, wide in itertools.pairwise(answers):
                    assert not (narrow and not wide), (rule, answers)
                if isinstance(rule, Condorcet):
                    assert len(set(answers)) == 1
                if isinstance(rule, E1):
                    assert answers[2] == answers[3] == answers[4]


def test_c09_matching_engines_are_optimal():
    with _within(60.0):
        rng = random.Random(909)
        for _ in range(500):
            left, right, edges = random_graph(rng, simple=True)
            res = min_cost_max_cardinality_matching(left, right, edges)
            assert (res.cardinality, res.weight) == matching_optimum(edges)
        for _ in range(600):
            left, right, edges = random_graph(rng)
            b_left, b_right = random_degrees(rng, left, right)
            best = b_matching_optimum(b_left, b_right, edges)
            got = min_weight_perfect_b_matching(b_left, b_right, edges, BIG)
            if best is None:
                assert got is None
            else:
                assert got is not None and got.weight == best
                assert min_weight_perfect_b_matching(b_left, b_right, edges, best) is not None
                if best > 0:
                    assert min_weight_perfect_b_matching(b_left, b_right, edges, best - 1) is None


def test_c10_special_rule_solvers_agree_with_brute():
    with _within(60.0):
        rng = random.Random(1010)
        for trial in range(300):
            params = RandomInstanceParams(
                districts=rng.randint(1, 4),
                additional=rng.randint(0, 6),
                rule=E1(),
                bound=AtMost(3),
            )
            inst = random_instance(params, seed=trial)
            assert solve_e1_bound3(inst).answer == solve_brute(inst, node_budget=BIG).answer
        for trial in range(300):
            params = RandomInstanceParams(
                districts=rng.randint(1, 3),
                additional=rng.randint(0, 5),
                rule=E2(),
            )
            inst = random_instance(params, seed=trial)
            # from four candidates on solve_e2_unbounded's one witness, below
            # it the DP of solve_brute; the referee is the scan over every
            # placement
            solve = solve_e2_unbounded if len(inst.additional) >= 4 else solve_auto
            assert solve(inst).answer == placement_scan(inst)[0]
