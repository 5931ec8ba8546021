"""The recampaigning problem: instances, assignments, verification.

An instance is a voting rule, k districts that share one pool of additional
candidates A, a winner-count bound, and optionally per-(district, candidate)
prices with a budget.  Every district stores its votes as ballots over the
*full* pool C_i ∪ A; evaluating a district under a placement restricts each
ballot to C_i plus the candidates actually placed there, preserving the
relative order.  An assignment places every additional candidate in exactly
one district and is accepted when

  (i)   every additional candidate wins its district,
  (ii)  under a bound of ℓ, each district that received at least one
        additional candidate has at most ℓ winners, and
  (iii) under pricing, the placement prices sum to at most the budget.

Districts that receive no additional candidate are never inspected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Union

from .core import (
    ApprovalVote,
    Election,
    LinearVote,
    Vote,
    VotingRule,
    check_candidate_id,
    needs_linear_ballots,
    winners,
)
from .errors import (
    BallotTypeError,
    PreconditionError,
    ShapeError,
    UnknownCandidateError,
    is_int,
)

__all__ = [
    "District",
    "AtMost",
    "Unbounded",
    "UNBOUNDED",
    "WinnerBound",
    "Pricing",
    "RecampaignInstance",
    "Assignment",
    "Violation",
    "VerificationReport",
    "verify",
    "from_winner_problem",
    "lift_to_priced",
    "RandomInstanceParams",
    "random_instance",
]


@dataclass(frozen=True)
class District:
    """One district: its own candidates plus ballots over C_i ∪ A."""

    candidates: frozenset[str]
    votes: tuple[Vote, ...]

    def __init__(self, candidates: Iterable[str], votes: Iterable[Vote] = ()) -> None:
        object.__setattr__(self, "candidates", frozenset(candidates))
        object.__setattr__(self, "votes", tuple(votes))


@dataclass(frozen=True)
class AtMost:
    """Winner bound: every touched district may have at most `limit` winners."""

    limit: int

    def __post_init__(self) -> None:
        if not is_int(self.limit) or self.limit < 1:
            raise ShapeError(f"winner bound must be an int >= 1, got {self.limit!r}")


@dataclass(frozen=True)
class Unbounded:
    """No winner-count condition; only the placed candidates must win."""


UNBOUNDED = Unbounded()

WinnerBound = Union[AtMost, Unbounded]


@dataclass(frozen=True)
class Pricing:
    """Placement prices π(district, candidate) plus a total budget."""

    prices: Mapping[tuple[int, str], int]
    budget: int

    def __init__(self, prices: Mapping[tuple[int, str], int], budget: int) -> None:
        object.__setattr__(self, "prices", dict(prices))
        object.__setattr__(self, "budget", budget)
        for key, val in self.prices.items():
            if (
                not isinstance(key, tuple)
                or len(key) != 2
                or not is_int(key[0])
                or not isinstance(key[1], str)
            ):
                raise ShapeError(f"price key must be (district, candidate), got {key!r}")
            if not is_int(val) or val < 0:
                raise ShapeError(f"price {key} must be a nonnegative int, got {val!r}")
        if not is_int(budget) or budget < 0:
            raise ShapeError(f"budget must be a nonnegative int, got {budget!r}")

    def price(self, district: int, candidate: str) -> int:
        return self.prices[(district, candidate)]


@dataclass(frozen=True)
class RecampaignInstance:
    """A full problem instance; validated eagerly on construction."""

    rule: VotingRule
    districts: tuple[District, ...]
    additional: frozenset[str]
    bound: WinnerBound
    pricing: Pricing | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "districts", tuple(self.districts))
        object.__setattr__(self, "additional", frozenset(self.additional))
        if not self.districts:
            raise ShapeError("an instance needs at least one district")
        if not isinstance(self.bound, (AtMost, Unbounded)):
            raise ShapeError(f"bad winner bound: {self.bound!r}")
        for a in self.additional:
            check_candidate_id(a)
        for i, d in enumerate(self.districts, start=1):
            for c in d.candidates:
                check_candidate_id(c)
            overlap = d.candidates & self.additional
            if overlap:
                raise ShapeError(
                    f"district {i} already contains additional candidates "
                    f"{sorted(overlap)}"
                )
            if not d.votes:  # no pool to check: building one is O(|A|)
                continue
            pool = d.candidates | self.additional
            for v in d.votes:
                if isinstance(v, LinearVote):
                    if set(v.order) != pool:
                        raise ShapeError(
                            f"district {i}: vote {v.order} is not a total order "
                            f"over C_i plus the additional candidates"
                        )
                elif isinstance(v, ApprovalVote):
                    if not v.approved <= pool:
                        raise ShapeError(
                            f"district {i}: approval ballot mentions unknown names"
                        )
                else:
                    raise ShapeError(f"district {i}: not a vote: {v!r}")
                if needs_linear_ballots(self.rule) and not isinstance(v, LinearVote):
                    raise BallotTypeError(
                        f"{type(self.rule).__name__} needs linear-order ballots"
                    )
        if self.pricing is not None:
            want = {
                (i, a)
                for i in range(1, len(self.districts) + 1)
                for a in self.additional
            }
            have = set(self.pricing.prices.keys())
            if have != want:
                raise ShapeError(
                    "pricing must cover exactly every (district, additional "
                    f"candidate) pair; missing {sorted(want - have)!r}, "
                    f"extra {sorted(have - want)!r}"
                )

    @property
    def k(self) -> int:
        return len(self.districts)

    def pool(self, i: int) -> frozenset[str]:
        """C_i ∪ A for district `i` (1-based)."""
        return self.districts[i - 1].candidates | self.additional

    def election_with(self, i: int, placed: frozenset[str]) -> Election:
        """District `i` evaluated with exactly `placed` ⊆ A added to it."""
        d = self.districts[i - 1]
        keep = d.candidates | placed
        return Election(keep, tuple(v.restrict(keep) for v in d.votes))


@dataclass(frozen=True)
class Assignment:
    """A placement of every additional candidate into one district (1-based)."""

    placement: Mapping[str, int]

    def __init__(self, placement: Mapping[str, int]) -> None:
        object.__setattr__(self, "placement", dict(placement))
        for a, i in self.placement.items():
            if not isinstance(a, str) or not is_int(i):
                raise ShapeError(f"placement entries map names to ints, got {a!r}: {i!r}")

    def placed_in(self, i: int) -> frozenset[str]:
        return frozenset(a for a, j in self.placement.items() if j == i)


@dataclass(frozen=True)
class Violation:
    """One reason an assignment fails verification."""

    kind: str  # "losing-candidate" | "winner-bound-exceeded" | "budget-exceeded"
    district: int | None
    candidate: str | None
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    winner_sets: tuple[frozenset[str], ...]
    violations: tuple[Violation, ...]
    total_cost: int | None


def verify(inst: RecampaignInstance, asg: Assignment) -> VerificationReport:
    """Check an assignment against conditions (i)-(iii).

    Raises:
        ShapeError: the assignment does not place exactly the additional
            candidates, or names a district outside 1..k.
    """
    if set(asg.placement.keys()) != inst.additional:
        raise ShapeError(
            "assignment must place exactly the additional candidates "
            f"{sorted(inst.additional)}, got {sorted(asg.placement)}"
        )
    for a, i in asg.placement.items():
        if not 1 <= i <= inst.k:
            raise ShapeError(f"assignment sends {a!r} to district {i}, have 1..{inst.k}")

    violations: list[Violation] = []
    winner_sets: list[frozenset[str]] = []
    for i in range(1, inst.k + 1):
        placed = asg.placed_in(i)
        wins = winners(inst.rule, inst.election_with(i, placed))
        winner_sets.append(wins)
        for a in sorted(placed):
            if a not in wins:
                violations.append(
                    Violation("losing-candidate", i, a, f"{a} does not win district {i}")
                )
        if placed and isinstance(inst.bound, AtMost) and len(wins) > inst.bound.limit:
            violations.append(
                Violation(
                    "winner-bound-exceeded",
                    i,
                    None,
                    f"district {i} has {len(wins)} winners, bound is {inst.bound.limit}",
                )
            )

    total_cost: int | None = None
    if inst.pricing is not None:
        total_cost = sum(
            inst.pricing.price(i, a) for a, i in asg.placement.items()
        )
        if total_cost > inst.pricing.budget:
            violations.append(
                Violation(
                    "budget-exceeded",
                    None,
                    None,
                    f"placement costs {total_cost}, budget is {inst.pricing.budget}",
                )
            )

    return VerificationReport(
        valid=not violations,
        winner_sets=tuple(winner_sets),
        violations=tuple(violations),
        total_cost=total_cost,
    )


def from_winner_problem(e: Election, p: str, rule: VotingRule) -> RecampaignInstance:
    """Embed "does p win election e" as a 1-district unbounded instance.

    The single district keeps every other candidate and all votes; `p`
    becomes the only additional candidate.
    """
    if p not in e.candidates:
        raise UnknownCandidateError(f"{p!r} is not a candidate of the election")
    district = District(e.candidates - {p}, e.votes)
    return RecampaignInstance(rule, (district,), frozenset({p}), UNBOUNDED)


def lift_to_priced(inst: RecampaignInstance) -> RecampaignInstance:
    """Equip an unpriced instance with unit prices and budget |A|."""
    if inst.pricing is not None:
        raise PreconditionError("instance is already priced")
    prices = {
        (i, a): 1 for i in range(1, inst.k + 1) for a in inst.additional
    }
    return replace(inst, pricing=Pricing(prices, len(inst.additional)))


@dataclass(frozen=True)
class RandomInstanceParams:
    """Knobs for `random_instance`; sizes are upper bounds, drawn uniformly."""

    districts: int
    additional: int
    rule: VotingRule
    max_district_candidates: int = 3
    max_votes: int = 4
    bound: WinnerBound = UNBOUNDED
    priced: bool = False

    def __post_init__(self) -> None:
        least = {"districts": 1, "additional": 0, "max_district_candidates": 0, "max_votes": 0}
        for name, floor in least.items():
            value = getattr(self, name)
            if not is_int(value) or value < floor:
                raise ShapeError(f"{name} must be an int >= {floor}, got {value!r}")


def random_instance(params: RandomInstanceParams, seed: int) -> RecampaignInstance:
    """Draw a random instance, deterministically in `seed`.

    Ballots are uniformly random total orders over each district's full pool;
    prices are uniform on 0..10 and the budget uniform on 0..10·|A|.
    """
    rng = random.Random(seed)
    extra = [f"a{j}" for j in range(1, params.additional + 1)]
    districts = []
    for i in range(1, params.districts + 1):
        size = rng.randint(0, params.max_district_candidates)
        own = [f"d{i}c{j}" for j in range(1, size + 1)]
        pool = sorted(own + extra)
        votes = []
        for _ in range(rng.randint(0, params.max_votes)):
            order = pool[:]
            rng.shuffle(order)
            votes.append(LinearVote(order))
        districts.append(District(own, votes))
    pricing = None
    if params.priced:
        prices = {
            (i, a): rng.randint(0, 10)
            for i in range(1, params.districts + 1)
            for a in sorted(extra)
        }
        pricing = Pricing(prices, rng.randint(0, 10 * params.additional))
    return RecampaignInstance(
        params.rule, tuple(districts), frozenset(extra), params.bound, pricing
    )
