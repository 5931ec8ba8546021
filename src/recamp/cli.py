"""Command-line interface.

Subcommands: solve, verify, reduce, oracle, gen, winners.  Exit codes are
uniform across commands: 0 for yes/ok, 1 for no/invalid, 2 for usage, parse,
or precondition problems, 3 when an enumeration would exceed the node budget,
whether it refuses to start or stops partway.

`solve --algorithm` takes `auto` or a route of `solvers.ROUTES`, and every
one takes `--node-budget`: each route refuses a budget below 1 (exit 2), and
the DP of `brute` is the one that spends it.  `reduce --from --to` takes a
pair of `_REDUCTIONS`, and `_SOURCES` parses its source.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Any, Callable, Sequence

from . import formats, gadgets
from .core import VotingRule, winners
from .errors import RecampaignError, ResourceBudgetError
from .model import (
    AtMost,
    RandomInstanceParams,
    RecampaignInstance,
    UNBOUNDED,
    WinnerBound,
    random_instance,
    verify,
)
from .solvers import ROUTES, SolveResult, solve_auto

_SOLVERS = {"auto": solve_auto} | {name: route.method for name, route in ROUTES.items()}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise RecampaignError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise RecampaignError(f"cannot write {path}: {exc}") from exc


def _parse_bound_arg(text: str) -> WinnerBound:
    if text == "unbounded":
        return UNBOUNDED
    try:
        return AtMost(int(text))
    except ValueError as exc:
        raise RecampaignError(
            f"--bound takes an integer or 'unbounded', got {text!r}"
        ) from exc


def _report(result: SolveResult, elapsed: float) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "answer": "YES" if result.answer else "NO",
        "algorithm": result.algorithm,
        "statistics": dict(result.statistics),
        "wallTime": round(elapsed, 6),
    }
    if result.assignment is not None:
        doc["assignment"] = {
            "placement": dict(sorted(result.assignment.placement.items()))
        }
    if result.cost is not None:
        doc["cost"] = result.cost
    return doc


def _cmd_solve(args: argparse.Namespace) -> int:
    """`solve`, and `oracle` as `solve --algorithm brute`."""
    inst = formats.parse_instance(_read(args.instance))
    start = time.perf_counter()
    result = _SOLVERS[args.algorithm](inst, args.node_budget)
    elapsed = time.perf_counter() - start
    sys.stdout.write(formats.dumps(_report(result, elapsed)))
    if result.answer and args.assignment_out:
        _write(args.assignment_out, formats.render_assignment(result.assignment))
    return 0 if result.answer else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = formats.parse_instance(_read(args.instance))
    assignment = formats.parse_assignment(_read(args.assignment))
    report = verify(inst, assignment)
    doc: dict[str, Any] = {
        "valid": report.valid,
        "violations": [
            {
                "kind": v.kind,
                "district": v.district,
                "candidate": v.candidate,
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }
    if report.total_cost is not None:
        doc["totalCost"] = report.total_cost
    sys.stdout.write(formats.dumps(doc))
    return 0 if report.valid else 1


def _parse_e33dm(text: str) -> gadgets.Exactly3ThreeDMInstance:
    src = formats.parse_3dm(text)
    return gadgets.Exactly3ThreeDMInstance(src.w_side, src.x_side, src.y_side, src.triples)


def _scoring_rule(args: argparse.Namespace) -> VotingRule:
    if args.rule is None:
        raise RecampaignError("--rule is required for the scoring2 target")
    return formats.parse_rule_name(args.rule)


# The two tables of `reduce` look `formats` and `gadgets` up when they run.
# One parser per `--from` kind:
_SOURCES: dict[str, Callable[[str], Any]] = {
    "x3c": lambda text: formats.parse_x3c(text),
    "r3dm": lambda text: formats.parse_3dm(text),
    "e33dm": _parse_e33dm,
    "e3sat": lambda text: formats.parse_sat(text),
}

# (--from, --to) → the reduction of the parsed source under the options:
_REDUCTIONS: dict[tuple[str, str], Callable[[Any, argparse.Namespace], Any]] = {
    ("x3c", "e1priced"): lambda src, args: gadgets.x3c_to_e1_priced(src),
    ("x3c", "approvalL"): lambda src, args: gadgets.x3c_to_approval(
        src, args.t, _parse_bound_arg(args.bound)
    ),
    ("x3c", "vetoL"): lambda src, args: gadgets.x3c_to_veto(
        src, args.t, _parse_bound_arg(args.bound)
    ),
    ("r3dm", "e33dm"): lambda src, args: gadgets.r3dm_to_exactly3(src),
    ("r3dm", "approval2"): lambda src, args: gadgets.e33dm_to_1approval(
        gadgets.r3dm_to_exactly3(src)
    ),
    ("r3dm", "scoring2"): lambda src, args: gadgets.e33dm_to_scoring(
        gadgets.r3dm_to_exactly3(src), _scoring_rule(args)
    ),
    ("e33dm", "approval2"): lambda src, args: gadgets.e33dm_to_1approval(src),
    ("e33dm", "scoring2"): lambda src, args: gadgets.e33dm_to_scoring(src, _scoring_rule(args)),
    ("e3sat", "sat2districts"): lambda src, args: gadgets.sat_to_approval_unbounded(src, args.t),
}


def _cmd_reduce(args: argparse.Namespace) -> int:
    reduction = _REDUCTIONS.get((args.source_kind, args.target))
    if reduction is None:
        raise RecampaignError(f"unsupported reduction {args.source_kind} -> {args.target}")
    out = reduction(_SOURCES[args.source_kind](_read(args.source)), args)
    if isinstance(out, RecampaignInstance):
        _write(args.output, formats.render_instance(out))
    else:
        _write(args.output, formats.render_3dm(out))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    rule = formats.parse_rule_name(args.rule)
    params = RandomInstanceParams(
        districts=args.districts,
        additional=args.additional,
        rule=rule,
        max_district_candidates=args.max_candidates,
        max_votes=args.max_votes,
        bound=_parse_bound_arg(args.bound),
        priced=args.priced,
    )
    inst = random_instance(params, args.seed)
    _write(args.output, formats.render_instance(inst))
    return 0


def _cmd_winners(args: argparse.Namespace) -> int:
    election = formats.parse_election(_read(args.election))
    rule = formats.parse_rule_name(args.rule)
    for name in sorted(winners(rule, election)):
        sys.stdout.write(name + "\n")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recamp",
        description="Decide recampaigning problems over multi-district elections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance file")
    solve.add_argument("instance")
    solve.add_argument("--algorithm", choices=sorted(_SOLVERS), default="auto")
    solve.add_argument("--node-budget", type=int, default=None)
    solve.add_argument("--assignment-out", default=None)
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser(
        "oracle", help="decide an instance file with the exact DP (solve_brute)"
    )
    oracle.add_argument("instance")
    oracle.add_argument("--node-budget", type=int, default=None)
    oracle.add_argument("--assignment-out", default=None)
    oracle.set_defaults(func=_cmd_solve, algorithm="brute")

    chk = sub.add_parser("verify", help="check an assignment against an instance")
    chk.add_argument("instance")
    chk.add_argument("assignment")
    chk.set_defaults(func=_cmd_verify)

    reduce_ = sub.add_parser("reduce", help="translate a source problem")
    reduce_.add_argument("source")
    reduce_.add_argument(
        "--from",
        dest="source_kind",
        required=True,
        choices=sorted({source for source, _ in _REDUCTIONS}),
    )
    reduce_.add_argument(
        "--to",
        dest="target",
        required=True,
        choices=sorted({target for _, target in _REDUCTIONS}),
    )
    reduce_.add_argument("--rule", default=None, help="target rule for scoring2")
    reduce_.add_argument("--t", type=int, default=1)
    reduce_.add_argument("--bound", default="unbounded")
    reduce_.add_argument("-o", "--output", required=True)
    reduce_.set_defaults(func=_cmd_reduce)

    gen = sub.add_parser("gen", help="write a seeded random instance")
    gen.add_argument("--districts", "-k", type=int, required=True)
    gen.add_argument("--additional", "-n", type=int, required=True)
    gen.add_argument("--rule", required=True)
    gen.add_argument("--bound", default="unbounded")
    gen.add_argument("--priced", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-candidates", type=int, default=3)
    gen.add_argument("--max-votes", type=int, default=4)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    win = sub.add_parser("winners", help="print an election's winner set")
    win.add_argument("election")
    win.add_argument("--rule", required=True)
    win.set_defaults(func=_cmd_winners)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RecampaignError as exc:
        print(f"recamp: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceBudgetError) else 2


if __name__ == "__main__":
    sys.exit(main())
