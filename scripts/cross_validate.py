#!/usr/bin/env python3
"""Cross-validate every route against a placement scan.

Draws seeded random instances for every built-in rule across all variants
(winner bounds 1/2/3/unbounded, priced and unpriced) and decides each one
through `solve_auto` and through every route of the route table
`recamp.solvers.ROUTES` whose test accepts it: `brute` (the subset DP) on
every draw, `crc1` at bound 1, `bmatch` under the trivial rule, `e1` on
unpriced E1 at bound 3 and `e2` on unpriced unbounded E2 with at least four
additional candidates.  Every answer must match `placement_scan` from
`tests/oracles.py`, which checks every placement with `verify` and shares
no code with the solvers' district oracle.  Every draw is decided twice
more by `solve_brute`, with each district's ballots cast twice and cast 256
times: repeating every ballot equally often keeps every scoring winner and
every strict majority, so the answer must not change.  Doubling puts repeated
ballots in the oracle's ballot blocks; 256 copies take every district that
has ballots past 255 of them, so its tallies no longer fit one byte.  Every
YES must report the cost `verify` computes for its witness, and on the
matching routes (`crc1-matching`, `b-matching`) that cost must be the
scan's minimum, so the two matching engines agree wherever both apply.
Reports per-rule agreement, yes-rates and which routes `solve_auto` took,
then how many draws each route decided and its mean time.  Exits nonzero
if any answer or cost disagrees, so the script doubles as a soak test.

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
)
from recamp.solvers import ROUTES

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


def recast(inst, times):
    """The instance with each district's ballots cast `times` times."""
    districts = tuple(District(d.candidates, d.votes * times) for d in inst.districts)
    return dataclasses.replace(inst, districts=districts)


def run(args: argparse.Namespace) -> int:
    import random

    rng = random.Random(args.seed)
    print(f"{'rule':<12} {'trials':>6} {'yes':>5} {'disagree':>8} {'auto ms':>8}  auto routes")
    failures = 0
    decided: collections.Counter[str] = collections.Counter()
    route_time: collections.Counter[str] = collections.Counter()
    for name, rule in RULES.items():
        routes: collections.Counter[str] = collections.Counter()
        yes = disagree = 0
        auto_time = 0.0
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
            auto_time += time.perf_counter() - t0
            results = {"auto": fast}
            for route_name, route in ROUTES.items():
                if route.test(inst):
                    t1 = time.perf_counter()
                    results[route_name] = route.method(inst, node_budget=args.node_budget)
                    route_time[route_name] += time.perf_counter() - t1
                    decided[route_name] += 1
            scan, best_cost = placement_scan(inst)
            routes[fast.algorithm] += 1
            yes += fast.answer
            errors = []
            for route_name, result in results.items():
                errors += cost_errors(inst, result, best_cost)
                if result.answer != scan:
                    errors.append(f"{route_name}={result.answer} scan={scan}")
            for times in (2, 256):
                recast_inst = recast(inst, times)
                again = solve_brute(recast_inst, node_budget=args.node_budget)
                errors += cost_errors(recast_inst, again, best_cost)
                if again.answer != scan:
                    errors.append(f"brute, ballots cast {times} times={again.answer} scan={scan}")
            if errors:
                disagree += 1
                failures += 1
                print(f"  DISAGREEMENT under {name}: {'; '.join(errors)} "
                      f"seed={args.seed * 100_000 + trial}",
                      file=sys.stderr)
        route_note = " ".join(f"{r}:{c}" for r, c in sorted(routes.items()))
        print(f"{name:<12} {args.trials:>6} {yes:>5} {disagree:>8} "
              f"{auto_time / args.trials * 1000:>8.2f}  {route_note}")
    print(f"\n{'route':<8} {'draws':>6} {'ms':>7}")
    for route_name in ROUTES:
        mean = route_time[route_name] / max(1, decided[route_name]) * 1000
        print(f"{route_name:<8} {decided[route_name]:>6} {mean:>7.2f}")
    if failures:
        print(f"\n{failures} disagreement(s) found", file=sys.stderr)
        return 1
    print("\nall answers and costs agree with the placement scan")
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
