#!/usr/bin/env python3
"""Largest n that `solve_auto` decides within a time limit, per unbounded
variant (reference figures for the README, not a benchmark metric).

    python3 perfbench/ladder.py --districts 2

For each rule, random unbounded instances with k districts and n = 2, 3, ...
additional candidates (seed 0) are decided until one takes longer than
10 s or is refused by the node budget; the last n decided in time is
printed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl

SRC = Path(__file__).resolve().parent.parent / "src"
RULES = ("approval:1", "veto:2", "borda", "condorcet", "e1")
LIMIT_S = 10.0
SEED = 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--districts", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import recamp

    for rule in RULES:
        best, why = 0, ""
        for n in range(2, 40):
            inst = wl.random_plain(wl.rng_for(SEED, "ladder", rule, n), wl.parse_rule(rule), args.districts, n, None)
            t0 = perf_counter()
            try:
                result = recamp.solve_auto(wl.to_program(recamp, inst))
            except recamp.ResourceBudgetError:
                why = f"n={n} refused by the node budget"
                break
            took = perf_counter() - t0
            if took > LIMIT_S:
                why = f"n={n} took {took:.1f} s"
                break
            best = n
            print(f"  {rule} k={args.districts} n={n}: {took:.3f} s on {result.algorithm}", flush=True)
        print(f"{rule} k={args.districts}: largest n within {LIMIT_S:g} s is {best} ({why})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
