#!/usr/bin/env python3
"""Plan one workload in a process of its own.

    python3 perfbench/plan.py route-mix 1 > plan.pickle

Self-checks the reference deciders, draws the workload's inputs from the
seed, decides them with the references and writes the plan, pickled, to
standard output.  `run.py` plans in this child process so that scipy, the
references' memos and the self-check do not count towards the peak resident
set of the process that measures the program.
"""

from __future__ import annotations

import pickle
import sys
from pathlib import Path

import reference as ref
import workloads as wl

SRC = Path(__file__).resolve().parent.parent / "src"

PLANS = {
    "x3c-bounded": wl.plan_x3c_bounded,
    "unbounded-scan": wl.plan_unbounded_scan,
    "route-mix": wl.plan_route_mix,
}


def tiny_instances() -> list[ref.Plain]:
    """Fixed small instances over every rule, bound and pricing, on which
    the references must agree with the placement scan."""
    out = []
    for j, (rule, bound, priced) in enumerate(
        (r, b, p) for r in wl.MIX_RULES for b in wl.MIX_BOUNDS for p in (False, True)
    ):
        rng = wl.rng_for("self-check", j)
        inst = wl.random_plain(
            rng, wl.parse_rule(rule), rng.randint(1, 3), rng.randint(0, 3), bound,
            own=(0, 2), votes=(0, 3), prices=(0, 5) if priced else None,
        )
        if priced:
            inst = wl.with_budget(inst, rng.randint(0, 12))
        out.append(inst)
    return out


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(SRC))
    import recamp

    ref.self_check(tiny_instances())
    plan = PLANS[workload](recamp, seed)
    sys.stdout.buffer.write(pickle.dumps(plan))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
