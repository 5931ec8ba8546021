#!/usr/bin/env python3
"""Tracing overhead: untraced against traced `decided_per_s`, in one process.

    python3 perfbench/overhead.py --workload x3c-bounded --seed 21 --pairs 5

Plans and builds the workload as `run.py` does, then alternates untraced
and traced rounds (the order flips every pair), so that the machine's
drift falls on both sides alike.  Prints both rates and their ratio.
"""

from __future__ import annotations

import argparse
import gc
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import run
from spans import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import recamp
    import recamp.cli

    build_fn, decide_fn = run.WORKLOADS[args.workload]
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="overhead-", dir=run.OUT)
    try:
        items = build_fn(recamp, run.load_plan(args.workload, args.seed), workdir)
        gc.collect()
        gc.freeze()
        seconds: dict[bool, list[float]] = {False: [], True: []}
        for pair in range(args.pairs):
            for traced in (False, True) if pair % 2 == 0 else (True, False):
                tracer = Tracer()
                if traced:
                    tracer.install(recamp)
                t0 = perf_counter()
                for item in items:
                    decide_fn(recamp, item)
                seconds[traced].append(perf_counter() - t0)
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain, traced = (len(items) / statistics.median(seconds[t]) for t in (False, True))
    print(
        f"{args.workload} seed={args.seed}: untraced {plain:.3f}/s, traced {traced:.3f}/s, "
        f"overhead {plain / traced - 1:+.1%} over {args.pairs} pairs of rounds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
