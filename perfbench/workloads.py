"""The three workloads: seeded inputs, program calls and answer checks.

Every workload is built in three steps.

1. `plan(seed)` draws plain-data inputs from the seed and computes their
   reference answers with `reference` (never with `recamp`).  Slots that ask
   for a given answer are redrawn from a sub-seed until the reference agrees,
   so every seed yields the same mix of YES and NO.
2. `build(recamp, plan, workdir)` turns the plan into what the program is
   given: `RecampaignInstance` objects (gadget reductions included) or
   instance files in `workdir`.  This is the timed set-up.
3. `decide(recamp, item)` makes one decision through the program's public
   entry point and returns what it answered; `check(item, answer)` holds
   that answer against the reference.

A round is one decision per item; runs repeat whole rounds, so the share of
failed decisions is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import reference as ref
from reference import Plain

MAX_REDRAWS = 2000


def rng_for(*parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def parse_rule(spelling: str) -> ref.Rule:
    head, _, tail = spelling.partition(":")
    if head in ("approval", "veto"):
        return (head, int(tail))
    if head == "explicit":
        return ("explicit", EXPLICIT_VECTORS)
    return (head,)


# A pure scoring family (2, 1, ..., 1, 0), listed up to 12 candidates.
EXPLICIT_VECTORS = tuple(
    (2,) if m == 1 else (2,) + (1,) * (m - 2) + (0,) for m in range(1, 13)
)


@dataclass
class Item:
    """One decision of a round: the input, what the reference expects, and
    (after `build`) what the program is handed."""

    label: str
    plain: Plain
    answer: bool | None  # None: the decision is expected to be refused
    min_cost: int | None = None  # checked when the route promises a minimum
    program: Any = None
    argv: list[str] = field(default_factory=list)


@dataclass
class Answer:
    answer: bool | None
    algorithm: str | None
    placement: dict[str, int] | None
    cost: int | None
    exit_code: int | None = None
    error: str | None = None  # an exception the program raised


# ---------------------------------------------------------------------------
# Plain random instances
# ---------------------------------------------------------------------------


def names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{j:02d}" for j in range(1, count + 1)]


def random_plain(
    rng: random.Random,
    rule: ref.Rule,
    k: int,
    n: int,
    bound: int | None,
    own: tuple[int, int] = (1, 3),
    votes: tuple[int, int] = (3, 6),
    prices: tuple[int, int] | None = None,
) -> Plain:
    extra = names("a", n)
    districts = []
    for i in range(1, k + 1):
        mine = names(f"d{i}c", rng.randint(*own))
        pool = mine + extra
        ballots = []
        for _ in range(rng.randint(*votes)):
            order = pool[:]
            rng.shuffle(order)
            ballots.append(tuple(order))
        districts.append((tuple(mine), tuple(ballots)))
    price_map = None
    if prices is not None:
        price_map = {(i, a): rng.randint(*prices) for i in range(1, k + 1) for a in extra}
    return Plain(rule, tuple(districts), tuple(extra), bound, price_map, None)


def with_budget(inst: Plain, budget: int) -> Plain:
    return Plain(inst.rule, inst.districts, inst.additional, inst.bound, inst.prices, budget)


def draw_until(make: Callable[[random.Random], tuple[Any, bool]], want: bool | None, *seed_parts):
    """Draw from sub-seeds until the reference answer equals `want`."""
    for attempt in range(MAX_REDRAWS):
        value, answer = make(rng_for(*seed_parts, attempt))
        if want is None or answer == want:
            return value, answer
    raise RuntimeError(f"no draw with answer {want} for {seed_parts}")


# ---------------------------------------------------------------------------
# Conversions between plain data and the program's objects
# ---------------------------------------------------------------------------


def program_rule(recamp, rule: ref.Rule):
    kind = rule[0]
    if kind == "approval":
        return recamp.TApproval(rule[1])
    if kind == "veto":
        return recamp.TVeto(rule[1])
    if kind == "explicit":
        return recamp.ExplicitScoringFamily(rule[1])
    return {
        "borda": recamp.Borda,
        "trivial": recamp.TrivialScoring,
        "condorcet": recamp.Condorcet,
        "e1": recamp.E1,
        "e2": recamp.E2,
    }[kind]()


def to_program(recamp, inst: Plain):
    districts = tuple(
        recamp.District(own, tuple(recamp.LinearVote(b) for b in ballots))
        for own, ballots in inst.districts
    )
    bound = recamp.UNBOUNDED if inst.bound is None else recamp.AtMost(inst.bound)
    pricing = None if inst.prices is None else recamp.Pricing(inst.prices, inst.budget)
    return recamp.RecampaignInstance(
        program_rule(recamp, inst.rule), districts, frozenset(inst.additional), bound, pricing
    )


def from_program(inst) -> Plain:
    """Read a program instance (a gadget's output) back into plain data."""
    rule = inst.rule
    kind = type(rule).__name__
    spelled = {
        "TApproval": lambda: ("approval", rule.t),
        "TVeto": lambda: ("veto", rule.t),
        "E1": lambda: ("e1",),
    }[kind]()
    districts = tuple(
        (tuple(sorted(d.candidates)), tuple(tuple(v.order) for v in d.votes))
        for d in inst.districts
    )
    bound = getattr(inst.bound, "limit", None)
    prices = budget = None
    if inst.pricing is not None:
        prices, budget = dict(inst.pricing.prices), inst.pricing.budget
    return Plain(spelled, districts, tuple(sorted(inst.additional)), bound, prices, budget)


def instance_document(inst: Plain) -> dict[str, Any]:
    """The "recamp/1" instance file for a plain instance."""
    kind = inst.rule[0]
    rule: dict[str, Any] = {"family": kind}
    if kind in ("approval", "veto"):
        rule["t"] = inst.rule[1]
    if kind == "explicit":
        rule["vectors"] = [list(v) for v in inst.rule[1]]
    doc: dict[str, Any] = {
        "format": "recamp/1",
        "rule": rule,
        "districts": [
            {"candidates": list(own), "votes": [list(b) for b in ballots]}
            for own, ballots in inst.districts
        ],
        "additional": list(inst.additional),
        "bound": "unbounded" if inst.bound is None else {"atMost": inst.bound},
    }
    if inst.prices is not None:
        doc["pricing"] = {
            "prices": [[i, a, p] for (i, a), p in sorted(inst.prices.items())],
            "budget": inst.budget,
        }
    return doc


# ---------------------------------------------------------------------------
# Source problems
# ---------------------------------------------------------------------------


def random_x3c(rng: random.Random, m: int, count: int, planted: bool):
    universe = names("u", 3 * m)
    chosen: list[tuple[str, ...]] = []
    if planted:
        shuffled = universe[:]
        rng.shuffle(shuffled)
        chosen = [tuple(sorted(shuffled[3 * j : 3 * j + 3])) for j in range(m)]
    rest = [t for t in itertools.combinations(universe, 3) if t not in chosen]
    chosen += rng.sample(rest, count - len(chosen))
    rng.shuffle(chosen)
    return universe, chosen


def random_sat(rng: random.Random, n: int):
    """Monotone 3-CNF with n variables, each in exactly three of n clauses."""
    variables = names("v", n)
    while True:
        slots = [v for v in variables for _ in range(3)]
        rng.shuffle(slots)
        clauses = [slots[3 * j : 3 * j + 3] for j in range(n)]
        if all(len(set(c)) == 3 for c in clauses):
            return variables, [sorted(c) for c in clauses]


# ---------------------------------------------------------------------------
# Deciding and checking
# ---------------------------------------------------------------------------


def decide_object(recamp, item: Item) -> Answer:
    try:
        result = recamp.solvers.solve_auto(item.program)
    except recamp.ResourceBudgetError:
        return Answer(None, None, None, None, 3)
    except Exception as exc:  # reported as a wrong answer, not a crash
        return Answer(None, None, None, None, None, repr(exc))
    placement = None
    if result.assignment is not None:
        placement = dict(result.assignment.placement)
    return Answer(result.answer, result.algorithm, placement, result.cost)


def decide_cli(recamp, item: Item) -> Answer:
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = recamp.cli.main(item.argv)
    except Exception as exc:  # reported as a wrong answer, not a crash
        return Answer(None, None, None, None, None, repr(exc))
    if code == 3:  # refused by the node budget
        return Answer(None, None, None, None, code)
    if code not in (0, 1):  # reported as a wrong answer, as an exception is
        return Answer(None, None, None, None, code, f"exit code {code}: {err.getvalue().strip()}")
    report = json.loads(out.getvalue())
    placement = report.get("assignment", {}).get("placement")
    return Answer(report["answer"] == "YES", report["algorithm"], placement, report.get("cost"), code)


MINIMUM_ROUTES = ("crc1-matching", "b-matching")


def check(item: Item, got: Answer) -> str | None:
    """None when the answer is right, else what is wrong with it."""
    if got.answer != item.answer:
        return f"{item.label}: answered {got.answer}, reference says {item.answer}"
    if not got.answer:
        return None
    try:
        cost = ref.check_witness(item.plain, got.placement or {})
    except ValueError as exc:
        return f"{item.label}: bad witness: {exc}"
    if item.plain.prices is not None:
        if got.cost != cost:
            return f"{item.label}: reported cost {got.cost}, witness costs {cost}"
        if got.algorithm in MINIMUM_ROUTES and got.cost != item.min_cost:
            return f"{item.label}: {got.algorithm} cost {got.cost}, minimum is {item.min_cost}"
    return None


def outcome(item: Item, got: Answer) -> str | None:
    """"failed", None when the decision is right, or what is wrong with it.

    An item whose reference answer is None must be refused with exit code 3
    (the node budget); anything else is a failed decision, as is a refusal
    of an item that has an answer."""
    if got.error is not None:
        return f"{item.label}: raised {got.error}"
    if item.answer is None:
        return None if got.exit_code == 3 else "failed"
    if got.answer is None:
        return "failed"
    return check(item, got)


# ---------------------------------------------------------------------------
# Workload: x3c-bounded
# ---------------------------------------------------------------------------

X3C_REDUCTIONS = ("approval:1", "approval:2", "veto:1", "veto:2", "e1")


def plan_x3c_bounded(recamp, seed: int) -> list[tuple[Item, Any]]:
    """m = 3..5, every reduction, four planted and four cover-free sources
    each; m + 2 triples per source."""
    plan = []
    for m, red, planted, rep in itertools.product((3, 4, 5), X3C_REDUCTIONS, (True, False), (1, 2, 3, 4)):
        def make(rng, m=m, planted=planted):
            src = random_x3c(rng, m, m + 2, planted)
            return src, ref.x3c_has_cover(*src)

        src, answer = draw_until(make, planted, seed, "x3c-bounded", m, red, planted, rep)
        label = f"x3c m={m} {red} {'planted' if planted else 'cover-free'}"
        item = Item(label, None, answer)
        item.plain = from_program(reduce_x3c(recamp, src, red, 3))
        plan.append((item, (src, red)))
    return plan


def reduce_x3c(recamp, src, red: str, bound: int | None):
    universe, triples = src
    x3c = recamp.X3CInstance(universe, triples)
    limit = recamp.UNBOUNDED if bound is None else recamp.AtMost(bound)
    if red == "e1":
        return recamp.gadgets.x3c_to_e1_priced(x3c)
    family, t = red.split(":")
    builder = recamp.gadgets.x3c_to_approval if family == "approval" else recamp.gadgets.x3c_to_veto
    return builder(x3c, int(t), limit)


def build_x3c_bounded(recamp, plan, workdir: str) -> list[Item]:
    for item, (src, red) in plan:
        item.program = reduce_x3c(recamp, src, red, 3)
    return [item for item, _ in plan]


# ---------------------------------------------------------------------------
# Workload: unbounded-scan
# ---------------------------------------------------------------------------

# (rule, k, n, answers wanted, copies of each).  The scan stops at the
# first witness, whose place in the scan varies with the seed, so YES
# answers sit on the cheap rungs; the larger rungs are NO, which scans every
# placement and costs about the same on every seed.  The cheap rungs fill
# the lowest third of a round, the mid rungs the middle (where the median
# lies) and the large ones the top fifth (where the 90th percentile lies).
# Every rung has k^n <= 10^7.
SCAN_RUNGS = (
    ("approval:1", 3, 6, (True, False), 2),
    ("approval:1", 4, 7, (True, False), 2),
    ("approval:1", 5, 6, (True, False), 2),
    ("veto:2", 3, 7, (True, False), 2),
    ("borda", 4, 6, (True, False), 2),
    ("condorcet", 4, 4, (True, False), 2),
    ("approval:1", 3, 9, (False,), 3),
    ("approval:1", 3, 10, (False,), 3),
    ("approval:1", 4, 8, (False,), 3),
    ("veto:2", 3, 10, (False,), 3),
    ("veto:2", 4, 8, (False,), 3),
    ("veto:2", 4, 9, (False,), 3),
    ("veto:2", 5, 7, (False,), 3),
    ("borda", 3, 8, (False,), 3),
    ("borda", 3, 10, (False,), 3),
    ("borda", 4, 8, (False,), 3),
    ("borda", 5, 7, (False,), 3),
    ("condorcet", 3, 7, (False,), 3),
    ("condorcet", 5, 5, (False,), 3),
    ("condorcet", 6, 6, (False,), 3),
    ("approval:1", 5, 8, (False,), 2),
    ("approval:1", 4, 10, (False,), 2),
    ("approval:1", 3, 12, (False,), 2),
    ("veto:2", 4, 10, (False,), 2),
    ("veto:2", 3, 12, (False,), 2),
    ("veto:2", 5, 9, (False,), 2),
    ("borda", 4, 10, (False,), 2),
    ("borda", 5, 9, (False,), 2),
    ("condorcet", 4, 8, (False,), 2),
    # Past the table cap (n > 12 for Condorcet): the plain scan.
    ("condorcet", 2, 13, (False,), 2),
)
SCAN_X3C = ("approval:1", "approval:2", "veto:1", "veto:2")


def plan_unbounded_scan(recamp, seed: int) -> list[tuple[Item, Any]]:
    plan = []
    for rule, k, n, wants, copies in SCAN_RUNGS:
        for want, rep in itertools.product(wants, range(copies)):
            def make(rng, rule=rule, k=k, n=n):
                inst = random_plain(rng, parse_rule(rule), k, n, None, own=(2, 2), votes=(5, 5))
                return inst, ref.subset_dp(inst)[0]

            inst, answer = draw_until(make, want, seed, "unbounded-scan", rule, k, n, want, rep)
            plan.append((Item(f"{rule} k={k} n={n}", inst, answer), None))
    for red, planted in itertools.product(SCAN_X3C, (True, False)):
        def make(rng, planted=planted):
            src = random_x3c(rng, 2, 5, planted)
            return src, ref.x3c_has_cover(*src)

        src, answer = draw_until(make, planted, seed, "unbounded-scan", "x3c", red, planted)
        item = Item(f"x3c m=2 {red} unbounded", None, answer)
        item.plain = from_program(reduce_x3c(recamp, src, red, None))
        plan.append((item, ("x3c", src, red)))
    # With n variables in n clauses a one-in-three set T has 3|T| = n, so
    # n = 5 is always NO and n = 6 can go either way.
    for t, (n, want) in itertools.product((1, 2), ((5, False), (6, True), (6, False))):
        def make(rng, n=n):
            src = random_sat(rng, n)
            return src, ref.sat_one_in_three(*src)

        src, answer = draw_until(make, want, seed, "unbounded-scan", "sat", t, n, want)
        item = Item(f"1-in-3 SAT n={n} t={t}", None, answer)
        item.plain = from_program(reduce_sat(recamp, src, t))
        plan.append((item, ("sat", src, t)))
    for item, how in plan:
        if how is None:
            continue
        dp_answer = ref.subset_dp(item.plain)[0]
        if dp_answer != item.answer:
            raise AssertionError(f"{item.label}: the gadget's instance decides {dp_answer}, its source {item.answer}")
    return plan


def reduce_sat(recamp, src, t: int):
    variables, clauses = src
    return recamp.gadgets.sat_to_approval_unbounded(recamp.OneInThreeSatInstance(variables, clauses), t)


def build_unbounded_scan(recamp, plan, workdir: str) -> list[Item]:
    for item, how in plan:
        if how is None:
            item.program = to_program(recamp, item.plain)
        elif how[0] == "x3c":
            item.program = reduce_x3c(recamp, how[1], how[2], None)
        else:
            item.program = reduce_sat(recamp, how[1], how[2])
    return [item for item, _ in plan]


# ---------------------------------------------------------------------------
# Workload: route-mix
# ---------------------------------------------------------------------------

MIX_RULES = (
    "approval:1", "approval:2", "veto:1", "veto:2", "borda",
    "trivial", "explicit", "condorcet", "e1", "e2",
)
MIX_BOUNDS = (1, 2, 3, None)
MIX_SHAPES = ((2, 3), (3, 4), (4, 4), (3, 5))
BUDGET_PROBES = 4


def plan_route_mix(recamp, seed: int) -> list[tuple[Item, Any]]:
    plan = []
    combos = itertools.product(MIX_RULES, MIX_BOUNDS, (False, True), (1, 2))
    for j, (rule, bound, priced, rep) in enumerate(combos):
        k, n = MIX_SHAPES[j % len(MIX_SHAPES)]
        rng = rng_for(seed, "route-mix", rule, bound, priced, rep)
        inst = random_plain(
            rng, parse_rule(rule), k, n, bound, own=(0, 3), votes=(1, 5),
            prices=(0, 10) if priced else None,
        )
        if priced:
            inst = with_budget(inst, rng.randint(0, 10 * n))
        answer, best = ref.placement_scan(inst)
        label = f"{rule} bound={bound} {'priced' if priced else 'unpriced'} k={k} n={n}"
        plan.append((Item(label, inst, answer, best), None))
    for want, rep in itertools.product((True, False), (1, 2)):
        crc1 = _crc1_instance(("approval", 1) if rep == 1 else ("borda",))
        plan.append((large_item("crc1", ref.matching_min_cost, want, rep, seed, crc1), None))
        plan.append((large_item("b-matching", ref.bmatching_min_cost, want, rep, seed, _bmatch_instance), None))
    # Seed-independent: a bounded route must refuse these with exit code 3.
    for j in range(BUDGET_PROBES):
        inst = random_plain(rng_for("node-budget", j), ("borda",), 4, 9, 3, own=(0, 3), votes=(0, 4))
        plan.append((Item(f"borda k=4 n=9 bound=3 --node-budget 1 #{j}", inst, None), "budget"))
    return plan


def _crc1_instance(rule: ref.Rule) -> Callable[[random.Random], Plain]:
    return lambda rng: random_plain(rng, rule, 40, 40, 1, own=(2, 2), votes=(5, 5), prices=(1, 20))


def _bmatch_instance(rng: random.Random) -> Plain:
    return random_plain(rng, ("trivial",), 10, 100, 15, own=(0, 3), votes=(0, 0), prices=(1, 20))


def large_item(route: str, minimum, want: bool, rep: int, seed: int, draw) -> Item:
    """A large polynomial-route instance whose budget sits just above
    (YES) or just below (NO) the reference minimum."""
    def make(rng):
        inst = draw(rng)
        best = minimum(inst)
        return (inst, best, rng.randint(0, 3)), best is not None

    (inst, best, slack), _ = draw_until(make, True, seed, route, want, rep)
    inst = with_budget(inst, best + slack if want else best - 1 - slack)
    return Item(f"{route} k={inst.k} n={len(inst.additional)} {'YES' if want else 'NO'}", inst, want, best)


def build_route_mix(recamp, plan, workdir: str) -> list[Item]:
    items = []
    for j, (item, how) in enumerate(plan):
        path = os.path.join(workdir, f"instance-{j:03d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(instance_document(item.plain), handle)
        item.argv = ["solve", path] + (["--node-budget", "1"] if how == "budget" else [])
        items.append(item)
    return items
