"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`RecampaignError`, so
callers (in particular the CLI) can map failures to exit codes without
pattern-matching on messages.
"""

from __future__ import annotations


class RecampaignError(Exception):
    """Base class for all library errors."""


class ShapeError(RecampaignError):
    """A value is structurally malformed (bad names, broken invariants,
    assignments over the wrong candidate set, graph endpoints out of range,
    ...)."""


class BallotTypeError(RecampaignError):
    """A ballot of the wrong type was given to a rule (e.g. an approval
    ballot under a positional scoring rule)."""


class UnknownCandidateError(RecampaignError):
    """A candidate id was referenced that the election does not contain."""


class UnsupportedRuleError(RecampaignError):
    """An operation that only makes sense for scoring rules was applied to a
    non-scoring rule (or vice versa)."""


class MissingVectorError(RecampaignError):
    """An explicit scoring family has no vector for the requested number of
    candidates."""


class WrongVariantError(RecampaignError):
    """A solver was invoked on a problem variant it does not decide (wrong
    winner bound, wrong rule family, unexpected pricing)."""


class PreconditionError(RecampaignError):
    """A documented precondition of a constructor or generator was violated."""


class ResourceBudgetError(RecampaignError):
    """An exhaustive search would exceed its node budget; the computation is
    refused up front rather than started."""


class TrivialityError(RecampaignError):
    """A scoring rule stayed trivial (single-valued vectors) for every probed
    number of candidates, so no separating vector exists below the cap."""


def is_int(value: object) -> bool:
    """True for an int that is not a bool: the one check every integer
    field of the library applies, since True and False are ints to Python
    but not to the file formats."""
    return isinstance(value, int) and not isinstance(value, bool)
