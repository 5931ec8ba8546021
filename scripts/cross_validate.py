#!/usr/bin/env python3
"""Cross-validate the routed solvers against the subset DP and a placement scan.

Draws seeded random instances for every built-in rule across all variants
(winner bounds 1/2/3/unbounded, priced and unpriced) and decides each one
three times: through `solve_auto`, through `solve_brute` (the subset DP,
which is also the route `solve_auto` takes for the unbounded variants
without a polynomial method), and with `placement_scan` from
`tests/oracles.py`, which checks every placement with `verify` and shares
no code with the solvers' district oracle.  Bounded draws, bound 1
included, are also decided by `solve_fpt` directly; past its n > k·ℓ guard
it runs the DP of `solve_brute`, so the two must return the same
assignment, cost and `nodes`.  Every draw is decided once more by
`solve_brute` with each district's ballots cast twice: doubling keeps
every scoring winner and every strict majority, so the answer must not
change, and the oracle's ballot blocks then hold repeated ballots.  Every
YES must report the cost `verify` computes for its witness, and on the
matching routes (`crc1-matching`, `b-matching`) that cost must be the
scan's minimum.  Every bound-1 draw under the trivial rule is decided by
both matching engines, `solve_crc1` and `solve_trivial_scoring`, which
must agree in answer and cost.
Reports per-rule agreement, yes-rates, and which routes fired.  Exits
nonzero if any answer, cost or fpt-brute result disagrees, so the script
doubles as a soak test.

    python3 scripts/cross_validate.py --trials 400 --seed 7
"""

import argparse
import collections
import dataclasses
import sys
import time
from pathlib import Path

from recamp import (
    UNBOUNDED,
    AtMost,
    Borda,
    Condorcet,
    District,
    E1,
    E2,
    RandomInstanceParams,
    TApproval,
    TVeto,
    TrivialScoring,
    random_instance,
    verify,
    solve_auto,
    solve_brute,
    solve_crc1,
    solve_fpt,
    solve_trivial_scoring,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import placement_scan  # noqa: E402

RULES = {
    "1-approval": TApproval(1),
    "2-approval": TApproval(2),
    "1-veto": TVeto(1),
    "2-veto": TVeto(2),
    "borda": Borda(),
    "trivial": TrivialScoring(),
    "condorcet": Condorcet(),
    "e1": E1(),
    "e2": E2(),
}

BOUNDS = [AtMost(1), AtMost(2), AtMost(3), UNBOUNDED]

MINIMUM_COST_ROUTES = {"crc1-matching", "b-matching"}


def cost_errors(inst, result, best_cost) -> list[str]:
    """How a YES's reported cost departs from its witness's `verify` cost
    and, on the matching routes, from the scan's minimum."""
    if not result.answer:
        return []
    errors = []
    paid = verify(inst, result.assignment).total_cost
    if result.cost != paid:
        errors.append(f"{result.algorithm} reports cost {result.cost}, witness costs {paid}")
    if result.algorithm in MINIMUM_COST_ROUTES and result.cost != best_cost:
        errors.append(f"{result.algorithm} reports cost {result.cost}, minimum is {best_cost}")
    return errors


def doubled(inst):
    """The instance with each district's ballots cast twice."""
    districts = tuple(District(d.candidates, d.votes * 2) for d in inst.districts)
    return dataclasses.replace(inst, districts=districts)


def run(args: argparse.Namespace) -> int:
    import random

    rng = random.Random(args.seed)
    print(f"{'rule':<12} {'trials':>6} {'yes':>5} {'disagree':>8} "
          f"{'auto ms':>8} {'brute ms':>9} {'fpt ms':>7}  routes")
    failures = both_engines = 0
    for name, rule in RULES.items():
        routes: collections.Counter[str] = collections.Counter()
        yes = disagree = 0
        auto_time = brute_time = fpt_time = 0.0
        for trial in range(args.trials):
            params = RandomInstanceParams(
                districts=rng.randint(1, args.max_districts),
                additional=rng.randint(0, args.max_additional),
                rule=rule,
                bound=rng.choice(BOUNDS),
                priced=rng.random() < 0.5,
            )
            inst = random_instance(params, seed=args.seed * 100_000 + trial)
            t0 = time.perf_counter()
            fast = solve_auto(inst, node_budget=args.node_budget)
            t1 = time.perf_counter()
            slow = solve_brute(inst, node_budget=args.node_budget)
            t2 = time.perf_counter()
            scan, best_cost = placement_scan(inst)
            auto_time += t1 - t0
            brute_time += t2 - t1
            routes[fast.algorithm] += 1
            yes += fast.answer
            errors = cost_errors(inst, fast, best_cost) + cost_errors(inst, slow, best_cost)
            if not fast.answer == slow.answer == scan:
                errors.append(f"auto={fast.answer} brute={slow.answer} scan={scan}")
            twice_inst = doubled(inst)
            twice = solve_brute(twice_inst, node_budget=args.node_budget)
            errors += cost_errors(twice_inst, twice, best_cost)
            if twice.answer != scan:
                errors.append(f"brute with doubled ballots={twice.answer} scan={scan}")
            if params.bound != UNBOUNDED:
                t3 = time.perf_counter()
                fpt = solve_fpt(inst, node_budget=args.node_budget)
                fpt_time += time.perf_counter() - t3
                errors += cost_errors(inst, fpt, best_cost)
                if fpt.answer != scan:
                    errors.append(f"fpt={fpt.answer} scan={scan}")
                if not fpt.statistics["guard"] and (
                    (fpt.assignment, fpt.cost, fpt.statistics["nodes"])
                    != (slow.assignment, slow.cost, slow.statistics["nodes"])
                ):
                    errors.append(f"fpt and brute differ: {fpt} vs {slow}")
            if isinstance(rule, TrivialScoring) and params.bound == AtMost(1):
                both_engines += 1
                crc1, bmatch = solve_crc1(inst), solve_trivial_scoring(inst)
                if (crc1.answer, crc1.cost) != (bmatch.answer, bmatch.cost):
                    errors.append(f"crc1={crc1} b-matching={bmatch}")
            if errors:
                disagree += 1
                failures += 1
                print(f"  DISAGREEMENT under {name}: {'; '.join(errors)} "
                      f"seed={args.seed * 100_000 + trial}",
                      file=sys.stderr)
        route_note = " ".join(f"{r}:{c}" for r, c in sorted(routes.items()))
        print(f"{name:<12} {args.trials:>6} {yes:>5} {disagree:>8} "
              f"{auto_time / args.trials * 1000:>8.2f} "
              f"{brute_time / args.trials * 1000:>9.2f} "
              f"{fpt_time / args.trials * 1000:>7.2f}  {route_note}")
    print(f"\n{both_engines} bound-1 trivial-rule draws decided by both matching engines")
    if failures:
        print(f"\n{failures} disagreement(s) found", file=sys.stderr)
        return 1
    print("\nall answers and costs agree with the subset DP and the placement scan")
    return 0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200,
                        help="instances per rule (default 200)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-districts", type=int, default=3)
    parser.add_argument("--max-additional", type=int, default=5)
    parser.add_argument("--node-budget", type=int, default=10**8)
    return parser.parse_args()


if __name__ == "__main__":
    sys.exit(run(parse_args()))
