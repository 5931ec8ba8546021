"""End-to-end tests of the command-line interface, run in-process through
`main` so exit codes and output files can be asserted exactly."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from recamp import (
    Assignment,
    AtMost,
    Borda,
    District,
    E2,
    ExplicitScoringFamily,
    LinearVote,
    OneInThreeSatInstance,
    Pricing,
    R3DMInstance,
    RandomInstanceParams,
    RecampaignInstance,
    TApproval,
    TrivialScoring,
    UNBOUNDED,
    decide_x3c,
    e33dm_to_1approval,
    e33dm_to_scoring,
    random_instance,
    r3dm_to_exactly3,
    sat_to_approval_unbounded,
    x3c_to_approval,
    x3c_to_e1_priced,
    x3c_to_veto,
)
from recamp import cli, gadgets
from recamp.cli import main
from recamp.formats import (
    parse_3dm,
    parse_assignment,
    parse_instance,
    render_3dm,
    render_assignment,
    render_election,
    render_instance,
    render_sat,
    render_x3c,
)
from recamp.solvers import ROUTES

from test_core import THREE_VOTES
from test_gadgets import E33_A, SAT_YES6, X3C_NO, X3C_YES
from test_solvers import ROUTE_PROBES, ROUTE_RULES, huge_price_instance, worked_example_instance


@pytest.fixture
def run(capsys):
    """Invoke the CLI; returns (exit code, stdout text)."""

    def invoke(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out

    return invoke


@pytest.fixture
def worked_example_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(render_instance(worked_example_instance(budget=16)))
    return path


class TestSolve:
    def test_worked_example_bmatch(self, run, worked_example_file):
        code, out = run("solve", worked_example_file, "--algorithm", "bmatch")
        assert code == 0
        report = json.loads(out)
        assert report["answer"] == "YES"
        assert report["cost"] == 14
        assert report["algorithm"] == "b-matching"
        assert report["assignment"]["placement"] == {"a1": 2, "a2": 2, "a3": 1}
        assert report["wallTime"] < 1.0

    def test_worked_example_budget_13(self, run, tmp_path):
        path = tmp_path / "tight.json"
        path.write_text(render_instance(worked_example_instance(budget=13)))
        code, out = run("solve", path, "--algorithm", "bmatch")
        assert code == 1
        assert json.loads(out)["answer"] == "NO"

    def test_empty_additional_yes(self, run, tmp_path):
        inst = RecampaignInstance(
            TrivialScoring(), (District(["a"]),), frozenset(), AtMost(1)
        )
        path = tmp_path / "empty.json"
        path.write_text(render_instance(inst))
        code, out = run("solve", path)
        report = json.loads(out)
        assert code == 0
        assert report["answer"] == "YES"
        assert report["assignment"]["placement"] == {}

    def test_fpt_guard_statistics(self, run, tmp_path):
        inst = RecampaignInstance(
            Borda(),
            (District([]),),
            frozenset({"a", "b", "c"}),
            AtMost(2),
        )
        path = tmp_path / "guard.json"
        path.write_text(render_instance(inst))
        for algorithm in ("auto", "brute"):
            code, out = run("solve", path, "--algorithm", algorithm)
            report = json.loads(out)
            assert code == 1
            assert (report["algorithm"], report["answer"]) == ("brute", "NO")
            assert report["statistics"] == {"nodes": 0, "members": 0, "guard": 1}

    @pytest.mark.parametrize("bound", [UNBOUNDED, AtMost(2)])
    @pytest.mark.parametrize(
        "price, budget, code", [(2**62, 5, 1), (2**63, 5, 1), (2**62, 2**64, 0)]
    )
    def test_prices_beyond_int64(self, run, tmp_path, bound, price, budget, code):
        path = tmp_path / "huge.json"
        path.write_text(render_instance(huge_price_instance(price, budget, bound)))
        got, out = run("solve", path)
        report = json.loads(out)
        assert got == code
        if code == 0:
            assert report["cost"] == 2 * price
            check = tmp_path / "witness.json"
            check.write_text(json.dumps(report["assignment"]))
            assert run("verify", path, check)[0] == 0

    @pytest.mark.parametrize("bound", [UNBOUNDED, AtMost(2)])
    def test_budget_beyond_int64_sums_is_usage_error(self, tmp_path, capsys, bound):
        path = tmp_path / "huge.json"
        path.write_text(render_instance(huge_price_instance(2**70, 2**65, bound)))
        assert main(["solve", str(path)]) == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [63, 64])
    def test_one_district_takes_every_candidate(self, run, tmp_path, count):
        # Past 63 candidates no mask fits int64; one district needs none.
        arrivals = frozenset(f"a{j:02d}" for j in range(count))
        inst = RecampaignInstance(Borda(), (District([]),), arrivals, UNBOUNDED)
        path = tmp_path / "one.json"
        path.write_text(render_instance(inst))
        code, out = run("solve", path)
        assert code == 0
        assert json.loads(out)["assignment"]["placement"] == {a: 1 for a in arrivals}

    def test_explicit_scores_past_64_bits_are_usage_error(self, tmp_path, capsys):
        # Two ballots over a point spread of 2^64 do not fit a 64-bit tally.
        rule = ExplicitScoringFamily([[0], [2**64, 0]])
        ballots = [LinearVote(["a", "x"]), LinearVote(["x", "a"])]
        inst = RecampaignInstance(rule, (District(["x"], ballots),), frozenset("a"), UNBOUNDED)
        path = tmp_path / "wide.json"
        path.write_text(render_instance(inst))
        assert main(["solve", str(path)]) == 2
        assert "64-bit tally" in capsys.readouterr().err

    def test_wrong_variant_is_usage_error(self, run, worked_example_file, capsys):
        code = main(["solve", str(worked_example_file), "--algorithm", "crc1"])
        assert code == 2
        assert "recamp:" in capsys.readouterr().err

    def test_e2_below_four_candidates_is_usage_error(self, run, tmp_path, capsys):
        # Below four candidates unbounded E2 is the subset DP's to decide.
        inst = RecampaignInstance(E2(), (District([]),), frozenset("abc"), UNBOUNDED)
        path = tmp_path / "e2.json"
        path.write_text(render_instance(inst))
        assert main(["solve", str(path), "--algorithm", "e2"]) == 2
        assert "at least 4" in capsys.readouterr().err
        code, out = run("solve", path)
        assert (code, json.loads(out)["algorithm"]) == (0, "brute")

    def test_node_budget_exhaustion(self, run, tmp_path):
        inst = RecampaignInstance(
            TrivialScoring(),
            tuple(District([]) for _ in range(10)),
            frozenset(f"a{j}" for j in range(9)),
            AtMost(9),
        )
        path = tmp_path / "huge.json"
        path.write_text(render_instance(inst))
        code, _ = run("solve", path, "--algorithm", "brute", "--node-budget", 10)
        assert code == 3

    def test_fpt_node_budget(self, run, tmp_path):
        path = tmp_path / "bounded.json"
        gen = ("gen", "-k", 4, "-n", 9, "--rule", "borda", "--bound", 3, "-o", path)
        assert run(*gen)[0] == 0
        assert run("solve", path, "--node-budget", 1)[0] == 3
        assert run("solve", path, "--algorithm", "brute", "--node-budget", 1)[0] == 3

    @pytest.mark.parametrize("label", list(ROUTE_PROBES))
    def test_bad_node_budget_exits_2_on_every_route(self, run, tmp_path, label):
        """`auto` and every route's `--algorithm` check `--node-budget`
        alike, on an instance that route decides: below 1 is a usage error,
        whichever route."""
        inst = ROUTE_PROBES[label]
        path = tmp_path / "probe.json"
        path.write_text(render_instance(inst))
        route = next(name for name, route in ROUTES.items() if route.test(inst))
        for algorithm in ("auto", route):
            code, out = run("solve", path, "--algorithm", algorithm)
            assert code in (0, 1) and json.loads(out)["algorithm"] == label
            assert run("solve", path, "--algorithm", algorithm, "--node-budget", 1000)[0] == code
            for budget in (0, -5):
                argv = ("solve", path, "--algorithm", algorithm, "--node-budget", budget)
                assert run(*argv)[0] == 2

    def test_unreadable_file(self, run, tmp_path):
        code, _ = run("solve", tmp_path / "absent.json")
        assert code == 2

    def test_malformed_instance(self, run, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        code, _ = run("solve", path)
        assert code == 2


class TestOracleAndVerify:
    def test_guard_answers_past_63_candidates(self, run, tmp_path):
        # 70 candidates, two districts of at most 2 winners: NO by the
        # n > k·ℓ guard, before the 63-bit refusal would exit 3.
        arrivals = frozenset(f"a{j:02d}" for j in range(70))
        inst = RecampaignInstance(TApproval(1), (District([]),) * 2, arrivals, AtMost(2))
        path = tmp_path / "wide.json"
        path.write_text(render_instance(inst))
        code, out = run("oracle", path)
        assert code == 1
        assert json.loads(out)["statistics"] == {"nodes": 0, "members": 0, "guard": 1}

    def test_solution_pipes_back_through_verify(self, run, tmp_path, worked_example_file):
        asg_path = tmp_path / "asg.json"
        code, _ = run(
            "oracle", worked_example_file, "--assignment-out", asg_path
        )
        assert code == 0
        assert asg_path.read_text().endswith("\n")
        code, out = run("verify", worked_example_file, asg_path)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_losing_candidate_violation(self, run, tmp_path):
        d = District(
            ["b"],
            [LinearVote(["b", "x"]), LinearVote(["b", "x"])],
        )
        inst = RecampaignInstance(TApproval(1), (d,), frozenset({"x"}), AtMost(2))
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(render_instance(inst))
        asg_path = tmp_path / "asg.json"
        asg_path.write_text('{"placement": {"x": 1}}\n')
        code, out = run("verify", inst_path, asg_path)
        assert code == 1
        report = json.loads(out)
        assert not report["valid"]
        assert report["violations"][0]["kind"] == "losing-candidate"

    def test_budget_violation(self, run, tmp_path):
        inst = RecampaignInstance(
            TrivialScoring(),
            (District([]),),
            frozenset({"x"}),
            AtMost(1),
            Pricing({(1, "x"): 9}, budget=1),
        )
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(render_instance(inst))
        asg_path = tmp_path / "asg.json"
        asg_path.write_text('{"placement": {"x": 1}}\n')
        code, out = run("verify", inst_path, asg_path)
        assert code == 1
        report = json.loads(out)
        assert report["violations"][0]["kind"] == "budget-exceeded"
        assert report["totalCost"] == 9

    def test_unknown_candidate_is_usage_error(self, run, tmp_path, worked_example_file):
        asg_path = tmp_path / "asg.json"
        asg_path.write_text('{"placement": {"zz": 1}}\n')
        code, _ = run("verify", worked_example_file, asg_path)
        assert code == 2


class TestReduce:
    def test_x3c_to_e1_priced(self, run, tmp_path):
        src_path = tmp_path / "x3c.json"
        src_path.write_text(render_x3c(X3C_YES))
        out_path = tmp_path / "inst.json"
        code, _ = run(
            "reduce", src_path, "--from", "x3c", "--to", "e1priced", "-o", out_path
        )
        assert code == 0
        inst = parse_instance(out_path.read_text())
        assert inst.pricing.budget == 3 * X3C_YES.m

    def test_saturated_r3dm_to_e33dm_is_identity(self, run, tmp_path):
        src_path = tmp_path / "dm.json"
        src_path.write_text(render_3dm(E33_A))
        out_path = tmp_path / "out.json"
        code, _ = run(
            "reduce", src_path, "--from", "r3dm", "--to", "e33dm", "-o", out_path
        )
        assert code == 0
        assert parse_3dm(out_path.read_text()).triples == E33_A.triples

    def test_e33dm_to_approval2_district_count(self, run, tmp_path):
        src_path = tmp_path / "dm.json"
        src_path.write_text(render_3dm(E33_A))
        out_path = tmp_path / "out.json"
        code, _ = run(
            "reduce", src_path, "--from", "e33dm", "--to", "approval2", "-o", out_path
        )
        assert code == 0
        inst = parse_instance(out_path.read_text())
        assert inst.k == len(E33_A.y_side)

    def test_e33dm_rejects_deficient_input(self, run, tmp_path):
        src_path = tmp_path / "dm.json"
        src_path.write_text(
            render_3dm(R3DMInstance(["w1"], ["x1"], ["y1"], [("w1", "x1", "y1")]))
        )
        out_path = tmp_path / "out.json"
        code, _ = run(
            "reduce", src_path, "--from", "e33dm", "--to", "approval2", "-o", out_path
        )
        assert code == 2

    def test_scoring2_requires_rule(self, run, tmp_path):
        src_path = tmp_path / "dm.json"
        src_path.write_text(render_3dm(E33_A))
        out_path = tmp_path / "out.json"
        code, _ = run(
            "reduce", src_path, "--from", "e33dm", "--to", "scoring2", "-o", out_path
        )
        assert code == 2
        code, _ = run(
            "reduce",
            src_path,
            "--from",
            "e33dm",
            "--to",
            "scoring2",
            "--rule",
            "borda",
            "-o",
            out_path,
        )
        assert code == 0
        assert parse_instance(out_path.read_text()).k == 3

    def test_sat_reduction_and_preconditions(self, run, tmp_path):
        src_path = tmp_path / "sat.json"
        src_path.write_text(render_sat(SAT_YES6))
        out_path = tmp_path / "out.json"
        code, _ = run(
            "reduce",
            src_path,
            "--from",
            "e3sat",
            "--to",
            "sat2districts",
            "--t",
            2,
            "-o",
            out_path,
        )
        assert code == 0
        inst = parse_instance(out_path.read_text())
        assert inst.k == 2

        tiny = OneInThreeSatInstance(["x1", "x2", "x3"], [("x1", "x2", "x3")] * 3)
        src_path.write_text(render_sat(tiny))
        code, _ = run(
            "reduce", src_path, "--from", "e3sat", "--to", "sat2districts", "-o", out_path
        )
        assert code == 2

    def test_approval_reduction_bound_flag(self, run, tmp_path):
        src_path = tmp_path / "x3c.json"
        src_path.write_text(render_x3c(X3C_NO))
        out_path = tmp_path / "out.json"
        code, _ = run(
            "reduce",
            src_path,
            "--from",
            "x3c",
            "--to",
            "vetoL",
            "--t",
            2,
            "--bound",
            3,
            "-o",
            out_path,
        )
        assert code == 0
        inst = parse_instance(out_path.read_text())
        assert inst.bound == AtMost(3)

    @pytest.mark.parametrize("t", [250, 256])
    @pytest.mark.parametrize("bound", ["3", "unbounded"])
    def test_veto_gadget_past_a_byte_solves_yes(self, run, tmp_path, t, bound):
        # 250 or more own candidates a district: own + |S| passes 255, and
        # the district oracle still finds the source's cover (exit 0).
        src_path, out_path = tmp_path / "x3c.json", tmp_path / "out.json"
        src_path.write_text(render_x3c(X3C_YES))
        reduce_ = ("reduce", src_path, "--from", "x3c", "--to", "vetoL", "--t", t)
        assert run(*reduce_, "--bound", bound, "-o", out_path)[0] == 0
        code, out = run("solve", out_path)
        assert code == 0 and json.loads(out)["answer"] == "YES"

    def test_oversize_t_exits_2(self, run, tmp_path, monkeypatch):
        # t - 1 blocker names per group would not fit in memory: refused
        # before any is made (a name made would fail the run at once).
        def fresh(*args):
            raise AssertionError("a name was made for a refused t")

        monkeypatch.setattr(gadgets, "_fresh", fresh)
        src_path = tmp_path / "x3c.json"
        src_path.write_text(render_x3c(X3C_NO))
        for target in ("approvalL", "vetoL"):
            code, _ = run(
                "reduce", src_path, "--from", "x3c", "--to", target, "--t", 10**20,
                "-o", tmp_path / "out.json",
            )
            assert code == 2
        assert not (tmp_path / "out.json").exists()

    def test_deterministic_output(self, run, tmp_path):
        src_path = tmp_path / "x3c.json"
        src_path.write_text(render_x3c(X3C_YES))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        run("reduce", src_path, "--from", "x3c", "--to", "approvalL", "-o", first)
        run("reduce", src_path, "--from", "x3c", "--to", "approvalL", "-o", second)
        assert first.read_text() == second.read_text()

    def test_unsupported_pair(self, run, tmp_path):
        src_path = tmp_path / "x3c.json"
        src_path.write_text(render_x3c(X3C_YES))
        code, _ = run(
            "reduce", src_path, "--from", "x3c", "--to", "approval2", "-o", tmp_path / "o"
        )
        assert code == 2


R3DM_SHORT = R3DMInstance(
    ["w1", "w2"], ["x1", "x2"], ["y1", "y2"], [("w1", "x1", "y1"), ("w2", "x2", "y2")]
)
E33_PADDED = r3dm_to_exactly3(R3DM_SHORT)

# Every reduce pair: (source file, extra options, the file the library writes).
REDUCE_CASES = {
    ("x3c", "e1priced"): (
        render_x3c(X3C_YES), [], render_instance(x3c_to_e1_priced(X3C_YES))
    ),
    ("x3c", "approvalL"): (
        render_x3c(X3C_YES), ["--t", 2], render_instance(x3c_to_approval(X3C_YES, 2, UNBOUNDED))
    ),
    ("x3c", "vetoL"): (
        render_x3c(X3C_NO),
        ["--bound", 3],
        render_instance(x3c_to_veto(X3C_NO, 1, AtMost(3))),
    ),
    ("r3dm", "e33dm"): (render_3dm(R3DM_SHORT), [], render_3dm(E33_PADDED)),
    ("r3dm", "approval2"): (
        render_3dm(R3DM_SHORT), [], render_instance(e33dm_to_1approval(E33_PADDED))
    ),
    ("r3dm", "scoring2"): (
        render_3dm(R3DM_SHORT),
        ["--rule", "borda"],
        render_instance(e33dm_to_scoring(E33_PADDED, Borda())),
    ),
    ("e33dm", "approval2"): (render_3dm(E33_A), [], render_instance(e33dm_to_1approval(E33_A))),
    ("e33dm", "scoring2"): (
        render_3dm(E33_A),
        ["--rule", "approval:2"],
        render_instance(e33dm_to_scoring(E33_A, TApproval(2))),
    ),
    ("e3sat", "sat2districts"): (
        render_sat(SAT_YES6), [], render_instance(sat_to_approval_unbounded(SAT_YES6, 1))
    ),
}


class TestReduceTable:
    def test_every_pair_is_covered(self):
        assert set(REDUCE_CASES) == set(cli._REDUCTIONS)

    @pytest.mark.parametrize("pair", sorted(REDUCE_CASES))
    def test_pair_writes_what_the_library_builds(self, run, tmp_path, pair):
        text, options, want = REDUCE_CASES[pair]
        src_path, out_path = tmp_path / "src.json", tmp_path / "out.json"
        src_path.write_text(text)
        argv = ["reduce", src_path, "--from", pair[0], "--to", pair[1], *options]
        code, _ = run(*argv, "-o", out_path)
        assert code == 0
        assert out_path.read_text() == want

    def test_scoring2_from_r3dm_requires_rule(self, run, tmp_path):
        src_path, out_path = tmp_path / "src.json", tmp_path / "out.json"
        src_path.write_text(render_3dm(R3DM_SHORT))
        code, _ = run("reduce", src_path, "--from", "r3dm", "--to", "scoring2", "-o", out_path)
        assert code == 2
        assert not out_path.exists()


class TestGen:
    def test_same_seed_same_file(self, run, tmp_path):
        paths = [tmp_path / "one.json", tmp_path / "two.json"]
        for path in paths:
            code, _ = run(
                "gen", "-k", 2, "-n", 2, "--rule", "borda", "--seed", 42, "-o", path
            )
            assert code == 0
        assert paths[0].read_text() == paths[1].read_text()

    def test_different_seeds_differ(self, run, tmp_path):
        texts = []
        for seed in (1, 2):
            path = tmp_path / f"{seed}.json"
            run("gen", "-k", 2, "-n", 2, "--rule", "borda", "--seed", seed, "-o", path)
            texts.append(path.read_text())
        assert texts[0] != texts[1]

    def test_no_additional_oracle_says_yes(self, run, tmp_path):
        path = tmp_path / "n0.json"
        code, _ = run("gen", "-k", 2, "-n", 0, "--rule", "approval:1", "-o", path)
        assert code == 0
        code, out = run("oracle", path)
        assert code == 0
        assert json.loads(out)["answer"] == "YES"

    def test_generated_file_round_trips(self, run, tmp_path):
        path = tmp_path / "g.json"
        run(
            "gen", "-k", 2, "-n", 1, "--rule", "veto:2",
            "--bound", 2, "--priced", "--seed", 9, "-o", path,
        )
        text = path.read_text()
        assert text.endswith("\n")
        assert render_instance(parse_instance(text)) == text

    @pytest.mark.parametrize(
        "flag, value", [("--max-votes", -1), ("--max-candidates", -1), ("-k", 0), ("-n", -1)]
    )
    def test_bad_counts_are_usage_errors(self, run, tmp_path, flag, value):
        path = tmp_path / "x.json"
        code, _ = run("gen", "-k", 1, "-n", 1, "--rule", "borda", flag, value, "-o", path)
        assert code == 2
        assert not path.exists()

    def test_bad_rule_spelling(self, run, tmp_path):
        code, _ = run("gen", "-k", 1, "-n", 1, "--rule", "plurality", "-o", tmp_path / "x")
        assert code == 2


class TestWinners:
    def test_e1_prints_all_three(self, run, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(render_election(THREE_VOTES))
        code, out = run("winners", path, "--rule", "e1")
        assert code == 0
        assert out.splitlines() == ["a", "b", "c"]

    def test_condorcet_cycle_prints_nothing(self, run, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(
            json.dumps(
                {
                    "candidates": ["a", "b", "c"],
                    "votes": [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]],
                }
            )
        )
        code, out = run("winners", path, "--rule", "condorcet")
        assert code == 0
        assert out == ""

    def test_trivial_rule_empty_votes(self, run, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"candidates": ["b", "a"]}))
        code, out = run("winners", path, "--rule", "trivial")
        assert code == 0
        assert out.splitlines() == ["a", "b"]

    def test_parse_failure(self, run, tmp_path):
        path = tmp_path / "e.json"
        path.write_text("{nope")
        code, _ = run("winners", path, "--rule", "borda")
        assert code == 2


def test_successive_calls_do_not_share_parsed_values(run, tmp_path):
    inst = RecampaignInstance(
        TrivialScoring(),
        tuple(District([]) for _ in range(10)),
        frozenset(f"a{j}" for j in range(9)),
        AtMost(9),
    )
    path = tmp_path / "huge.json"
    path.write_text(render_instance(inst))
    asg_path = tmp_path / "asg.json"
    code, _ = run("solve", path, "--algorithm", "brute", "--node-budget", 10)
    assert code == 3
    election = tmp_path / "e.json"
    election.write_text(render_election(THREE_VOTES))
    assert run("winners", election, "--rule", "borda") == (0, "a\n")
    code, out = run("solve", path, "--assignment-out", asg_path)
    assert code == 0
    assert json.loads(out)["algorithm"] == "b-matching"
    asg_path.unlink()
    assert run("solve", path)[0] == 0
    assert not asg_path.exists()


def test_stdout_output_with_dash(run, tmp_path, capsys):
    src_path = tmp_path / "x3c.json"
    src_path.write_text(render_x3c(X3C_YES))
    code, out = run("reduce", src_path, "--from", "x3c", "--to", "e1priced", "-o", "-")
    assert code == 0
    inst = parse_instance(out)
    assert inst.additional == X3C_YES.universe


def test_x3c_solve_route_matches_decider(run, tmp_path):
    for src in (X3C_YES, X3C_NO):
        src_path = tmp_path / "src.json"
        src_path.write_text(render_x3c(src))
        out_path = tmp_path / "inst.json"
        run("reduce", src_path, "--from", "x3c", "--to", "e1priced", "-o", out_path)
        code, _ = run("solve", out_path, "--algorithm", "brute")
        assert (code == 0) == decide_x3c(src)


class _Pairs(list):
    """A JSON object as its list of (key, value) pairs, so that a key can
    appear twice."""


def _dump(value) -> str:
    if isinstance(value, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return json.dumps(value)


def _fields(value):
    """Every (container, index) of a document: each field of an object and
    each item of an array, at every depth."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i
            yield from _fields(item[1] if isinstance(value, _Pairs) else item)


_ATOMS = [2**63, -1, True, False, None, float("nan"), "", [], {}, 10**30, 1.5]


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    field=st.integers(min_value=0, max_value=10**6),
    how=st.integers(min_value=0, max_value=len(_ATOMS) + 1),
    in_assignment=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_mutated_files_exit_0_to_3(seed, field, how, in_assignment):
    """A rendered instance or assignment with one field deleted, duplicated
    (an object's key then appears twice) or replaced by an atom: `solve`,
    `oracle` and `verify` each exit 0-3 and raise nothing."""
    rng = random.Random(seed)
    params = RandomInstanceParams(
        districts=rng.randint(1, 3),
        additional=rng.randint(0, 4),
        rule=rng.choice(ROUTE_RULES),
        bound=rng.choice([AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]),
        priced=bool(rng.getrandbits(1)),
    )
    inst = random_instance(params, seed)
    texts = [
        render_instance(inst),
        render_assignment(Assignment(dict.fromkeys(inst.additional, 1))),
    ]
    doc = json.loads(texts[in_assignment], object_pairs_hook=_Pairs)
    fields = list(_fields(doc))
    container, i = fields[field % len(fields)]
    if how == 0:
        del container[i]
    elif how == 1:
        container.insert(i, container[i])
    else:
        atom = _ATOMS[how - 2]
        container[i] = (container[i][0], atom) if isinstance(container, _Pairs) else atom
    texts[in_assignment] = _dump(doc)
    with tempfile.TemporaryDirectory() as work:
        inst_path, asg_path = Path(work, "inst.json"), Path(work, "asg.json")
        inst_path.write_text(texts[0])
        asg_path.write_text(texts[1])
        quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
        for argv in (["solve", inst_path], ["oracle", inst_path], ["verify", inst_path, asg_path]):
            with quiet[0], quiet[1]:
                code = main([str(a) for a in argv])
            assert code in (0, 1, 2, 3), (argv[0], texts[in_assignment])
