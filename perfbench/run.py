#!/usr/bin/env python3
"""Seeded benchmark of recamp: one workload per process.

    python3 perfbench/run.py --workload x3c-bounded --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  A child process (`plan.py`) checks the reference deciders, draws
the workload's inputs from the seed and decides them with the references;
this process sets up the program's inputs several times (timed), then
repeats whole rounds of decisions (every round decides each of at least
100 items once) for at least `--seconds` seconds and at least 3 rounds,
checks every answer, and prints one JSON object as the last line of
standard output.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it wraps the program's layer
boundaries, reports the per-layer metrics instead, and writes the spans to
`perfbench/out/trace-<workload>.txt`.  Exit code 2 means the program could
not be imported, and nothing is printed on standard output.
"""

from __future__ import annotations

import os

# One thread per workload process, numpy included.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 5
MIN_ROUNDS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import recamp, recamp.cli; print(time.perf_counter() - t)"
)

WORKLOADS = {
    "x3c-bounded": (wl.build_x3c_bounded, wl.decide_object),
    "unbounded-scan": (wl.build_unbounded_scan, wl.decide_object),
    "route-mix": (wl.build_route_mix, wl.decide_cli),
}


def import_seconds() -> float:
    """Time `import recamp` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


def load_plan(workload: str, seed: int) -> list:
    """The workload's plan, made in a child process by `plan.py`."""
    done = subprocess.run(
        [sys.executable, str(HERE / "plan.py"), workload, str(seed)],
        stdout=subprocess.PIPE, timeout=150,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: planning {workload} failed with exit code {done.returncode}")
    return pickle.loads(done.stdout)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="recamp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set iteration order (and with it the work in, say, a Condorcet winner
    # search) follows the string hash seed: tie it to --seed, so that one
    # seed always gives the same work.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])

    if not (SRC / "recamp" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import recamp
    import recamp.cli

    build_fn, decide_fn = WORKLOADS[args.workload]
    plan = load_plan(args.workload, args.seed)

    tracer = Tracer()
    if args.trace:
        tracer.install(recamp)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups, setup_ranges = [], []
        for _ in range(SETUPS):
            started = import_seconds()
            lo = len(tracer.start)
            t0 = perf_counter()
            items = build_fn(recamp, plan, workdir)
            setups.append(started + perf_counter() - t0)
            setup_ranges.append((lo, len(tracer.start)))

        # Leave the benchmark's own objects (the plan, the imported modules)
        # out of the collections the program's allocations trigger.
        gc.collect()
        gc.freeze()
        tracer.counters.clear()
        timed_lo = len(tracer.start)
        latencies: list[list[float]] = [[] for _ in items]
        round_seconds: list[float] = []
        # Distinct answers per item, with how often each was given.
        seen: dict[tuple, list] = {}
        begin = perf_counter()
        while len(round_seconds) < MIN_ROUNDS or perf_counter() - begin < args.seconds:
            round_start = perf_counter()
            for j, item in enumerate(items):
                tracer.current_decision = len(round_seconds) * len(items) + j
                t0 = perf_counter()
                got = decide_fn(recamp, item)
                latencies[j].append(perf_counter() - t0)
                key = (j, got.answer, got.algorithm, tuple(sorted((got.placement or {}).items())), got.cost, got.exit_code, got.error)
                seen.setdefault(key, [got, 0])[1] += 1
            round_seconds.append(perf_counter() - round_start)
        timed = (timed_lo, len(tracer.start))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    errors = []
    for key, (got, count) in seen.items():
        verdict = wl.outcome(items[key[0]], got)
        if verdict == "failed":
            failed += count
        elif verdict is not None:
            errors.append(verdict)
    for message in errors[:10]:
        print(f"perfbench: WRONG {message}", file=sys.stderr)

    rounds = len(round_seconds)
    attempted = rounds * len(items)
    # Medians over rounds (and, per item, over its decisions) keep a burst
    # of load from the rest of the machine out of the figures.
    decided_per_s = len(items) / statistics.median(round_seconds)
    summary = (
        f"{args.workload} seed={args.seed}: {attempted} decisions in {rounds} rounds of "
        f"{len(items)}, {failed} failed, {sum(round_seconds):.2f} s timed, "
        f"decided_per_s={decided_per_s:.3f}; rounds took "
        + " ".join(f"{x:.2f}" for x in round_seconds) + " s"
    )
    if args.trace:
        metrics = layer_metrics(tracer, setup_ranges, timed, attempted)
        tracer.dump(
            str(OUT / f"trace-{args.workload}.txt"),
            {"workload": args.workload, "seed": args.seed, "decisions": attempted, "decided_per_s": decided_per_s},
        )
        print(summary + " (traced)")
    else:
        ms = [1000 * statistics.median(per_item) for per_item in latencies]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "decided_per_s": (decided_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (percentile(ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(summary)
        for name, (value, unit) in metrics.items():
            samples = {"setup_s": f"{SETUPS} set-ups", "decided_per_s": f"{rounds} rounds"}.get(name, f"{len(items)} items x {rounds} rounds")
            print(f"  {name} = {value:.6g} {unit} ({samples})")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
