"""In-memory spans around the program's layer boundaries.

`Tracer.install(recamp)` replaces, from the outside, the public functions
each layer's callers use with wrappers that record a span: a name, start
and end times, the span open when it began (its parent) and the decision it
belongs to.  No file of the program changes.  Spans live in flat arrays and
are written out once, at the end of the run; `layer_metrics` turns them into
per-decision figures, with each layer's self time being its spans' duration
minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable

ROUTES = ("crc1-matching", "b-matching", "fpt", "brute", "e1-bound3", "e2-unbounded")

GADGET_BUILDERS = (
    "x3c_to_e1_priced", "x3c_to_approval", "x3c_to_veto", "sat_to_approval_unbounded",
    "r3dm_to_exactly3", "e33dm_to_1approval", "e33dm_to_scoring",
)
# The `formats` functions `cli` calls through the module.
FORMATS_PARSE = (
    "parse_instance", "parse_assignment", "parse_election", "parse_x3c", "parse_3dm",
    "parse_sat", "parse_rule_name",
)
FORMATS_RENDER = ("dumps", "render_instance", "render_assignment", "render_3dm")


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.decision = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_decision = -1
        self.counters: Counter[str] = Counter()
        self.patched: list[tuple[Any, str, Callable]] = []

    def wrap(self, fn: Callable, name: str, on_result: Callable[[Any], None] | None = None) -> Callable:
        if name not in self.span_names:
            self.span_names.append(name)
        code = self.span_names.index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            tracer.name_of.append(code)
            tracer.parent.append(tracer.stack[-1])
            tracer.decision.append(tracer.current_decision)
            tracer.end.append(0.0)
            tracer.stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, on_result=None) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self.patched.append((owner, attr, original))
        traced = self.wrap(original, name, on_result)
        if isinstance(owner, dict):
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put back every function `install` replaced."""
        for owner, attr, original in reversed(self.patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.patched.clear()

    def install(self, recamp) -> None:
        solvers, model, cli, formats, gadgets = (
            recamp.solvers, recamp.model, recamp.cli, recamp.formats, recamp.gadgets,
        )
        self.patch(solvers, "winners", "core.winners")
        self.patch(model, "winners", "core.winners")
        self.patch(model.RecampaignInstance, "election_with", "model.election_with")
        self.patch(solvers, "verify", "model.verify")
        self.patch(solvers, "build_exact_cover_system", "solvers.cover_build", self._count_members)
        self.patch(solvers, "min_cost_max_cardinality_matching", "matching")
        self.patch(solvers, "min_weight_perfect_b_matching", "matching")
        self.patch(solvers, "solve_auto", "solvers.solve", self._count_solve)
        self.patch(cli._SOLVERS, "auto", "solvers.solve", self._count_solve)
        for attr in GADGET_BUILDERS:
            self.patch(gadgets, attr, "gadgets.reduce")
        for attr in FORMATS_PARSE:
            self.patch(formats, attr, "formats.parse")
        for attr in FORMATS_RENDER:
            self.patch(formats, attr, "formats.render")
        self.patch(cli, "main", "cli")

    def _count_members(self, system) -> None:
        self.counters["solvers.cover_members"] += len(system.members)

    def _count_solve(self, result) -> None:
        self.counters[f"solvers.route.{result.algorithm}"] += 1
        if result.algorithm == "brute":
            self.counters["solvers.brute.placements"] += result.statistics.get("nodes", 0)
        if result.algorithm == "fpt":
            self.counters["solvers.fpt.nodes"] += result.statistics.get("nodes", 0)

    # -- reading the spans ---------------------------------------------------

    def durations(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Over spans lo..hi-1: inclusive seconds of each name's outermost
        spans, self seconds per name, and span counts per name."""
        child = [0.0] * (hi - lo)
        outer: dict[str, float] = Counter()
        own: dict[str, float] = Counter()
        calls: Counter = Counter()
        for sid in range(hi - 1, lo - 1, -1):
            dur = self.end[sid] - self.start[sid]
            name = self.span_names[self.name_of[sid]]
            calls[name] += 1
            own[name] += dur - child[sid - lo]
            up = self.parent[sid]
            if up >= lo:
                child[up - lo] += dur
            # Outermost of its name: no ancestor carries the same name.
            while up >= lo and self.name_of[up] != self.name_of[sid]:
                up = self.parent[up]
            if up < lo:
                outer[name] += dur
        return outer, own, calls

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write a JSON header line, then one line per span:
        `name parent decision start end` (name as an index into the
        header's `names`, parent -1 for a root span, times in seconds)."""
        header = dict(meta, names=self.span_names, columns=["name", "parent", "decision", "start", "end"])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for sid in range(len(self.start)):
                handle.write(
                    f"{self.name_of[sid]} {self.parent[sid]} {self.decision[sid]} "
                    f"{self.start[sid]:.7f} {self.end[sid]:.7f}\n"
                )


PER_DECISION_CALLS = {
    "core.winners.calls": "core.winners",
    "model.election_with.calls": "model.election_with",
    "matching.calls": "matching",
    "model.verify.calls": "model.verify",
}
PER_DECISION_SELF_MS = {
    "core.winners.self_ms": "core.winners",
    "model.election_with.self_ms": "model.election_with",
    "solvers.solve.self_ms": "solvers.solve",
    "cli.self_ms": "cli",
}
PER_DECISION_MS = {
    "solvers.cover_build.ms": "solvers.cover_build",
    "matching.ms": "matching",
    "formats.parse.ms": "formats.parse",
    "formats.render.ms": "formats.render",
    "model.verify.ms": "model.verify",
}
PER_DECISION_COUNTERS = (
    "solvers.cover_members", "solvers.brute.placements", "solvers.fpt.nodes",
) + tuple(f"solvers.route.{r}" for r in ROUTES)


def layer_metrics(tracer: Tracer, setup_ranges: list[tuple[int, int]], timed: tuple[int, int], decisions: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures: per decision over the timed spans, except the
    gadget reductions, which are per set-up (median over the set-ups)."""
    outer, own, calls = tracer.durations(*timed)
    out: dict[str, tuple[float, str]] = {}
    for metric, name in PER_DECISION_CALLS.items():
        out[metric] = (calls[name] / decisions, "count/decision")
    for metric, name in PER_DECISION_SELF_MS.items():
        out[metric] = (1000 * own[name] / decisions, "ms/decision")
    for metric, name in PER_DECISION_MS.items():
        out[metric] = (1000 * outer[name] / decisions, "ms/decision")
    for metric in PER_DECISION_COUNTERS:
        out[metric] = (tracer.counters[metric] / decisions, "count/decision")
    reduce_ms = [1000 * tracer.durations(lo, hi)[0]["gadgets.reduce"] for lo, hi in setup_ranges]
    out["gadgets.reduce.ms"] = (statistics.median(reduce_ms), "ms")
    return out

