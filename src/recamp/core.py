"""Single-election primitives: ballots, voting rules, winner computation.

Candidates are plain string tokens (non-empty, no whitespace, no commas),
compared byte-lexicographically wherever a deterministic order is needed.
Votes are either total orders over the candidate set or approval subsets.

The scoring rules here are *pure* scoring rule families: one nonincreasing
integer vector per number of candidates, each obtained from the previous one
by inserting a single value.  Three non-scoring rules round out the roster:
a Condorcet rule (the strict pairwise-majority beater, or nobody), and the
two artificial rules ``E1`` (elects the whole slate iff there are exactly
three candidates) and ``E2`` (elects everybody once there are at least four
candidates, 1-approval winners below that).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import (
    BallotTypeError,
    MissingVectorError,
    ShapeError,
    UnknownCandidateError,
    UnsupportedRuleError,
    is_int,
)

_TOKEN_RE = re.compile(r"[^\s,]+\Z")


def check_candidate_id(name: object) -> str:
    """Validate a candidate id token and return it.

    Raises:
        ShapeError: if `name` is not a non-empty string free of whitespace
            and commas.
    """
    if not isinstance(name, str) or _TOKEN_RE.match(name) is None:
        raise ShapeError(f"bad candidate id: {name!r}")
    return name


# ---------------------------------------------------------------------------
# Ballots and elections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearVote:
    """A strict total order, most preferred first."""

    order: tuple[str, ...]

    def __init__(self, order: Iterable[str]) -> None:
        object.__setattr__(self, "order", tuple(order))
        if len(set(self.order)) != len(self.order):
            raise ShapeError(f"vote repeats a candidate: {self.order}")

    def restrict(self, keep: frozenset[str]) -> "LinearVote":
        """Drop every candidate outside `keep`, preserving relative order.
        Part of an order that repeats no candidate repeats none either, so
        the result is not checked again."""
        vote = object.__new__(LinearVote)
        object.__setattr__(vote, "order", tuple([c for c in self.order if c in keep]))
        return vote


@dataclass(frozen=True)
class ApprovalVote:
    """An approval ballot: the set of approved candidates."""

    approved: frozenset[str]

    def __init__(self, approved: Iterable[str]) -> None:
        object.__setattr__(self, "approved", frozenset(approved))

    def restrict(self, keep: frozenset[str]) -> "ApprovalVote":
        return ApprovalVote(self.approved & keep)


Vote = Union[LinearVote, ApprovalVote]


@dataclass(frozen=True)
class Election:
    """A candidate set together with votes over exactly that set."""

    candidates: frozenset[str]
    votes: tuple[Vote, ...]

    def __init__(self, candidates: Iterable[str], votes: Iterable[Vote] = ()) -> None:
        object.__setattr__(self, "candidates", frozenset(candidates))
        object.__setattr__(self, "votes", tuple(votes))
        for c in self.candidates:
            check_candidate_id(c)
        for v in self.votes:
            if isinstance(v, LinearVote):
                if set(v.order) != self.candidates:
                    raise ShapeError(
                        f"linear vote {v.order} is not a permutation of the "
                        f"candidate set {sorted(self.candidates)}"
                    )
            elif isinstance(v, ApprovalVote):
                if not v.approved <= self.candidates:
                    raise ShapeError(
                        f"approval ballot {sorted(v.approved)} mentions "
                        "non-candidates"
                    )
            else:
                raise ShapeError(f"not a vote: {v!r}")


# ---------------------------------------------------------------------------
# Voting rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TApproval:
    """Scoring family: 1 point to each of the first `t` positions."""

    t: int

    def __post_init__(self) -> None:
        if not is_int(self.t) or self.t < 1:
            raise ShapeError(f"t-approval needs an integer t >= 1, got {self.t!r}")


@dataclass(frozen=True)
class TVeto:
    """Scoring family: 1 point everywhere except the last `t` positions."""

    t: int

    def __post_init__(self) -> None:
        if not is_int(self.t) or self.t < 1:
            raise ShapeError(f"t-veto needs an integer t >= 1, got {self.t!r}")


@dataclass(frozen=True)
class Borda:
    """Scoring family (m-1, m-2, ..., 0)."""


@dataclass(frozen=True)
class TrivialScoring:
    """The all-zeros scoring family; everybody always wins."""


@dataclass(frozen=True)
class ExplicitScoringFamily:
    """A scoring family given by an explicit per-m table.

    ``vectors[i]`` is the vector used with ``i + 1`` candidates; asking for a
    larger election raises a missing-vector error.
    """

    vectors: tuple[tuple[int, ...], ...]

    def __init__(self, vectors: Iterable[Iterable[int]]) -> None:
        table = tuple(tuple(v) for v in vectors)
        object.__setattr__(self, "vectors", table)
        for m, vec in enumerate(table, start=1):
            if len(vec) != m or not all(map(is_int, vec)):
                raise ShapeError(
                    f"vector #{m} must be {m} integers, got {vec!r}"
                )


@dataclass(frozen=True)
class Condorcet:
    """Elects the candidate who beats every other in a strict pairwise
    majority; elects nobody when no such candidate exists."""


@dataclass(frozen=True)
class E1:
    """Elects the full candidate set iff there are exactly 3 candidates,
    nobody otherwise.  Ignores the votes entirely."""


@dataclass(frozen=True)
class E2:
    """Elects the full candidate set once there are at least 4 candidates;
    with fewer it elects the 1-approval winners."""


ScoringRule = Union[TApproval, TVeto, Borda, TrivialScoring, ExplicitScoringFamily]
VotingRule = Union[ScoringRule, Condorcet, E1, E2]

_SCORING_TYPES = (TApproval, TVeto, Borda, TrivialScoring, ExplicitScoringFamily)


def is_scoring_rule(rule: VotingRule) -> bool:
    return isinstance(rule, _SCORING_TYPES)


def needs_linear_ballots(rule: VotingRule) -> bool:
    """Whether the rule is only defined on linear-order ballots.

    Only E1 tolerates approval ballots (it never reads them).
    """
    return not isinstance(rule, E1)


# ---------------------------------------------------------------------------
# Scoring machinery
# ---------------------------------------------------------------------------


def scoring_vector(rule: VotingRule, m: int) -> tuple[int, ...]:
    """The scoring vector the family uses with `m` candidates.

    Raises:
        UnsupportedRuleError: for non-scoring rules.
        MissingVectorError: explicit family without a vector for `m`.
    """
    if not is_int(m) or m < 0:
        raise ShapeError(f"candidate count must be a nonnegative int, got {m!r}")
    if isinstance(rule, TApproval):
        ones = min(rule.t, m)
        return (1,) * ones + (0,) * (m - ones)
    if isinstance(rule, TVeto):
        ones = max(0, m - rule.t)
        return (1,) * ones + (0,) * (m - ones)
    if isinstance(rule, Borda):
        return tuple(range(m - 1, -1, -1))
    if isinstance(rule, TrivialScoring):
        return (0,) * m
    if isinstance(rule, ExplicitScoringFamily):
        if m == 0:
            return ()
        if m > len(rule.vectors):
            raise MissingVectorError(f"no scoring vector for m={m}")
        return rule.vectors[m - 1]
    raise UnsupportedRuleError(f"{rule!r} is not a scoring rule")


def _require_linear(votes: Sequence[Vote], rule: VotingRule) -> None:
    for v in votes:
        if not isinstance(v, LinearVote):
            raise BallotTypeError(
                f"{type(rule).__name__} needs linear-order ballots, "
                f"got {type(v).__name__}"
            )


def tally(rule: VotingRule, e: Election) -> dict[str, int]:
    """Total score of every candidate under a scoring rule.

    An election with no votes tallies to all zeros.
    """
    if not is_scoring_rule(rule):
        raise UnsupportedRuleError(f"cannot tally under {type(rule).__name__}")
    _require_linear(e.votes, rule)
    vec = scoring_vector(rule, len(e.candidates))
    scores = {c: 0 for c in e.candidates}
    for v in e.votes:
        for pos, c in enumerate(v.order):
            scores[c] += vec[pos]
    return scores


def _pairwise_beats(e: Election, a: str, b: str) -> bool:
    above = sum(1 for v in e.votes if v.order.index(a) < v.order.index(b))
    return above > len(e.votes) - above


def winners(rule: VotingRule, e: Election) -> frozenset[str]:
    """The winner set of `e` under `rule`.

    Scoring rules return the argmax of the tally (everybody when the
    candidate set is nonempty but there are no votes); Condorcet returns at
    most one candidate; E1 and E2 follow their cardinality tests.
    """
    if is_scoring_rule(rule):
        if not e.candidates:
            return frozenset()
        scores = tally(rule, e)
        top = max(scores.values())
        return frozenset(c for c, s in scores.items() if s == top)
    if isinstance(rule, Condorcet):
        _require_linear(e.votes, rule)
        for c in e.candidates:
            if all(_pairwise_beats(e, c, d) for d in e.candidates if d != c):
                return frozenset({c})
        return frozenset()
    if isinstance(rule, E1):
        return frozenset(e.candidates) if len(e.candidates) == 3 else frozenset()
    if isinstance(rule, E2):
        _require_linear(e.votes, rule)
        if len(e.candidates) >= 4:
            return frozenset(e.candidates)
        return winners(TApproval(1), e)
    raise UnsupportedRuleError(f"unknown rule {rule!r}")


def is_k_winner(rule: VotingRule, e: Election, p: str, k: int) -> bool:
    """True iff `p` wins and the whole winner set has at most `k` members."""
    if p not in e.candidates:
        raise UnknownCandidateError(f"{p!r} is not a candidate")
    if not is_int(k) or k < 1:
        raise ShapeError(f"k must be a positive int, got {k!r}")
    w = winners(rule, e)
    return p in w and len(w) <= k


# ---------------------------------------------------------------------------
# Purity
# ---------------------------------------------------------------------------


def _is_insertion(shorter: Sequence[int], longer: Sequence[int]) -> bool:
    return any(
        tuple(longer[:j]) + tuple(longer[j + 1 :]) == tuple(shorter)
        for j in range(len(longer))
    )


def validate_purity(table: Sequence[Sequence[int]], m_max: int) -> bool:
    """Check that `table` is a pure scoring family for 1..m_max candidates.

    Pure means: vector `i+1` arises from vector `i` by inserting one value,
    and every vector is nonincreasing.  Malformed tables (wrong count, wrong
    lengths, non-integers) return False rather than raising.
    """
    try:
        vecs = [tuple(v) for v in table]
    except TypeError:
        return False
    if len(vecs) != m_max:
        return False
    for m, vec in enumerate(vecs, start=1):
        if len(vec) != m:
            return False
        if not all(map(is_int, vec)):
            return False
        if any(vec[i] < vec[i + 1] for i in range(len(vec) - 1)):
            return False
    for i in range(len(vecs) - 1):
        if not _is_insertion(vecs[i], vecs[i + 1]):
            return False
    return True


def family_table(rule: VotingRule, m_max: int) -> tuple[tuple[int, ...], ...]:
    """The per-m vector table of a scoring family, for 1..m_max candidates."""
    return tuple(scoring_vector(rule, m) for m in range(1, m_max + 1))
