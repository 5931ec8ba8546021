"""JSON file formats (version tag "recamp/1").

Every document type renders to canonical UTF-8 JSON — sorted keys, 2-space
indent, a single trailing newline — so fixed inputs produce byte-identical
files.  Parsing is strict: structural problems raise `ShapeError` with a
path-ish message rather than letting random `KeyError`s escape.

Document shapes:

- instance:    {"format": "recamp/1", "rule": {...}, "districts": [...],
                "additional": [...], "bound": {"atMost": n} | "unbounded",
                "pricing": {"prices": [[district, candidate, price]...],
                            "budget": n}?}
- assignment:  {"placement": {candidate: district, ...}}
- election:    {"candidates": [...], "votes": [...]}
- x3c:         {"universe": [...], "triples": [[a,b,c]...]}
- 3dm:         {"W": [...], "X": [...], "Y": [...], "S": [[w,x,y]...]}
- sat:         {"variables": [...], "clauses": [[a,b,c]...]}

Votes are ordered candidate-name arrays; approval ballots are
{"approve": [...]}.
"""

from __future__ import annotations

import json
from typing import Any

from .core import (
    ApprovalVote,
    Borda,
    Condorcet,
    E1,
    E2,
    Election,
    ExplicitScoringFamily,
    LinearVote,
    TApproval,
    TrivialScoring,
    TVeto,
    VotingRule,
)
from .errors import ShapeError, is_int
from .gadgets import OneInThreeSatInstance, R3DMInstance, X3CInstance
from .model import (
    Assignment,
    AtMost,
    District,
    Pricing,
    RecampaignInstance,
    UNBOUNDED,
    WinnerBound,
)

__all__ = [
    "FORMAT_TAG",
    "dumps",
    "render_rule",
    "parse_rule",
    "parse_rule_name",
    "rule_name",
    "render_instance",
    "parse_instance",
    "render_assignment",
    "parse_assignment",
    "render_election",
    "parse_election",
    "render_x3c",
    "parse_x3c",
    "render_3dm",
    "parse_3dm",
    "render_sat",
    "parse_sat",
]

FORMAT_TAG = "recamp/1"


def dumps(document: dict[str, Any]) -> str:
    """Canonical JSON encoding: sorted keys, indented, one trailing newline."""
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _loads(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ShapeError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ShapeError("top level must be a JSON object")
    tag = doc.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise ShapeError(f"unsupported format tag {tag!r}")
    return doc


def _str_list(doc: dict[str, Any], key: str) -> list[str]:
    value = doc.get(key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ShapeError(f"{key!r} must be a list of strings")
    return value


def _int(value: Any, what: str) -> int:
    if not is_int(value):
        raise ShapeError(f"{what} must be an integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def render_rule(rule: VotingRule) -> dict[str, Any]:
    if isinstance(rule, TApproval):
        return {"family": "approval", "t": rule.t}
    if isinstance(rule, TVeto):
        return {"family": "veto", "t": rule.t}
    if isinstance(rule, Borda):
        return {"family": "borda"}
    if isinstance(rule, TrivialScoring):
        return {"family": "trivial"}
    if isinstance(rule, ExplicitScoringFamily):
        return {"family": "explicit", "vectors": [list(v) for v in rule.vectors]}
    if isinstance(rule, Condorcet):
        return {"family": "condorcet"}
    if isinstance(rule, E1):
        return {"family": "e1"}
    if isinstance(rule, E2):
        return {"family": "e2"}
    raise ShapeError(f"unknown rule {rule!r}")


def parse_rule(doc: Any) -> VotingRule:
    if not isinstance(doc, dict) or "family" not in doc:
        raise ShapeError("rule must be an object with a 'family' key")
    family = doc["family"]
    if family == "approval":
        return TApproval(_int(doc.get("t"), "rule.t"))
    if family == "veto":
        return TVeto(_int(doc.get("t"), "rule.t"))
    if family == "borda":
        return Borda()
    if family == "trivial":
        return TrivialScoring()
    if family == "explicit":
        vectors = doc.get("vectors")
        if not isinstance(vectors, list) or not all(isinstance(v, list) for v in vectors):
            raise ShapeError("rule.vectors must be a list of score lists")
        return ExplicitScoringFamily(
            tuple(tuple(_int(x, "score") for x in v) for v in vectors)
        )
    if family == "condorcet":
        return Condorcet()
    if family == "e1":
        return E1()
    if family == "e2":
        return E2()
    raise ShapeError(f"unknown rule family {family!r}")


def rule_name(rule: VotingRule) -> str:
    """Compact command-line spelling of a rule (inverse of parse_rule_name)."""
    doc = render_rule(rule)
    if doc["family"] in ("approval", "veto"):
        return f"{doc['family']}:{doc['t']}"
    if doc["family"] == "explicit":
        raise ShapeError("explicit scoring families have no command-line name")
    return doc["family"]


def parse_rule_name(name: str) -> VotingRule:
    """Parse spellings like borda, approval:2, veto:1, condorcet, e1."""
    head, sep, tail = name.partition(":")
    if head in ("approval", "veto"):
        if not sep or not tail.isdigit():
            raise ShapeError(f"{head} needs a positive count, e.g. {head}:2")
        return parse_rule({"family": head, "t": int(tail)})
    if sep:
        raise ShapeError(f"rule {head!r} takes no parameter")
    return parse_rule({"family": head})


# ---------------------------------------------------------------------------
# Votes, elections
# ---------------------------------------------------------------------------


def _render_vote(vote: LinearVote | ApprovalVote) -> Any:
    if isinstance(vote, LinearVote):
        return list(vote.order)
    return {"approve": sorted(vote.approved)}


def _parse_vote(item: Any) -> LinearVote | ApprovalVote:
    if isinstance(item, list):
        if not all(isinstance(c, str) for c in item):
            raise ShapeError("linear votes must list candidate names")
        return LinearVote(item)
    if isinstance(item, dict) and set(item) == {"approve"}:
        approved = item["approve"]
        if not isinstance(approved, list) or not all(
            isinstance(c, str) for c in approved
        ):
            raise ShapeError("'approve' must list candidate names")
        return ApprovalVote(approved)
    raise ShapeError(f"votes must be name arrays or {{'approve': [...]}}: {item!r}")


def render_election(election: Election) -> str:
    return dumps(
        {
            "format": FORMAT_TAG,
            "candidates": sorted(election.candidates),
            "votes": [_render_vote(v) for v in election.votes],
        }
    )


def parse_election(text: str) -> Election:
    doc = _loads(text)
    candidates = _str_list(doc, "candidates")
    votes = doc.get("votes", [])
    if not isinstance(votes, list):
        raise ShapeError("'votes' must be a list")
    return Election(candidates, tuple(_parse_vote(v) for v in votes))


# ---------------------------------------------------------------------------
# Instances and assignments
# ---------------------------------------------------------------------------


def render_instance(inst: RecampaignInstance) -> str:
    doc: dict[str, Any] = {
        "format": FORMAT_TAG,
        "rule": render_rule(inst.rule),
        "districts": [
            {
                "candidates": sorted(d.candidates),
                "votes": [_render_vote(v) for v in d.votes],
            }
            for d in inst.districts
        ],
        "additional": sorted(inst.additional),
        "bound": "unbounded"
        if not isinstance(inst.bound, AtMost)
        else {"atMost": inst.bound.limit},
    }
    if inst.pricing is not None:
        doc["pricing"] = {
            "prices": [
                [i, a, inst.pricing.prices[(i, a)]]
                for i, a in sorted(inst.pricing.prices)
            ],
            "budget": inst.pricing.budget,
        }
    return dumps(doc)


def _parse_bound(value: Any) -> WinnerBound:
    if value == "unbounded":
        return UNBOUNDED
    if isinstance(value, dict) and set(value) == {"atMost"}:
        return AtMost(_int(value["atMost"], "bound.atMost"))
    raise ShapeError(f"bound must be 'unbounded' or {{'atMost': n}}: {value!r}")


def parse_instance(text: str) -> RecampaignInstance:
    doc = _loads(text)
    for key in ("rule", "districts", "additional", "bound"):
        if key not in doc:
            raise ShapeError(f"instance is missing {key!r}")
    rule = parse_rule(doc["rule"])
    raw_districts = doc["districts"]
    if not isinstance(raw_districts, list):
        raise ShapeError("'districts' must be a list")
    districts = []
    for entry in raw_districts:
        if not isinstance(entry, dict):
            raise ShapeError("each district must be an object")
        candidates = _str_list(entry, "candidates")
        votes = entry.get("votes", [])
        if not isinstance(votes, list):
            raise ShapeError("district 'votes' must be a list")
        districts.append(
            District(frozenset(candidates), tuple(_parse_vote(v) for v in votes))
        )
    additional = _str_list(doc, "additional")
    bound = _parse_bound(doc["bound"])
    pricing = None
    if doc.get("pricing") is not None:
        praw = doc["pricing"]
        if not isinstance(praw, dict) or "prices" not in praw or "budget" not in praw:
            raise ShapeError("pricing needs 'prices' and 'budget'")
        rows = praw["prices"]
        if not isinstance(rows, list):
            raise ShapeError("'prices' must be a list of [district, candidate, price]")
        prices: dict[tuple[int, str], int] = {}
        for row in rows:
            if (
                not isinstance(row, list)
                or len(row) != 3
                or not isinstance(row[1], str)
            ):
                raise ShapeError(f"bad price row {row!r}")
            key = (_int(row[0], "price district"), row[1])
            if key in prices:
                raise ShapeError(f"duplicate price for {key}")
            prices[key] = _int(row[2], "price")
        pricing = Pricing(prices, _int(praw["budget"], "budget"))
    return RecampaignInstance(rule, tuple(districts), additional, bound, pricing)


def render_assignment(assignment: Assignment) -> str:
    return dumps(
        {
            "format": FORMAT_TAG,
            "placement": {a: i for a, i in sorted(assignment.placement.items())},
        }
    )


def parse_assignment(text: str) -> Assignment:
    doc = _loads(text)
    placement = doc.get("placement")
    if not isinstance(placement, dict):
        raise ShapeError("assignment needs a 'placement' object")
    out: dict[str, int] = {}
    for a, i in placement.items():
        out[a] = _int(i, f"district of {a!r}")
    return Assignment(out)


# ---------------------------------------------------------------------------
# Source problems
# ---------------------------------------------------------------------------


def render_x3c(inst: X3CInstance) -> str:
    return dumps(
        {
            "format": FORMAT_TAG,
            "universe": sorted(inst.universe),
            "triples": [sorted(t) for t in inst.triples],
        }
    )


def parse_x3c(text: str) -> X3CInstance:
    doc = _loads(text)
    universe = _str_list(doc, "universe")
    triples = doc.get("triples")
    if not isinstance(triples, list):
        raise ShapeError("'triples' must be a list")
    for t in triples:
        if not isinstance(t, list) or not all(isinstance(x, str) for x in t):
            raise ShapeError(f"bad triple {t!r}")
    return X3CInstance(universe, triples)


def render_3dm(inst: R3DMInstance) -> str:
    return dumps(
        {
            "format": FORMAT_TAG,
            "W": list(inst.w_side),
            "X": list(inst.x_side),
            "Y": list(inst.y_side),
            "S": [list(t) for t in inst.triples],
        }
    )


def parse_3dm(text: str) -> R3DMInstance:
    doc = _loads(text)
    sides = {key: _str_list(doc, key) for key in ("W", "X", "Y")}
    triples = doc.get("S")
    if not isinstance(triples, list):
        raise ShapeError("'S' must be a list of triples")
    for t in triples:
        if not isinstance(t, list) or len(t) != 3 or not all(
            isinstance(x, str) for x in t
        ):
            raise ShapeError(f"bad triple {t!r}")
    return R3DMInstance(sides["W"], sides["X"], sides["Y"], triples)


def render_sat(inst: OneInThreeSatInstance) -> str:
    return dumps(
        {
            "format": FORMAT_TAG,
            "variables": list(inst.variables),
            "clauses": [sorted(c) for c in inst.clauses],
        }
    )


def parse_sat(text: str) -> OneInThreeSatInstance:
    doc = _loads(text)
    variables = _str_list(doc, "variables")
    clauses = doc.get("clauses")
    if not isinstance(clauses, list):
        raise ShapeError("'clauses' must be a list")
    for c in clauses:
        if not isinstance(c, list) or not all(isinstance(x, str) for x in c):
            raise ShapeError(f"bad clause {c!r}")
    return OneInThreeSatInstance(variables, clauses)
