"""Exception hierarchy shared across the package.

One class per failure, and each class carries the CLI exit code it maps to:
ValidationError -> 2 (a ValueError too), DegenerateConditioningError -> 3
(an impossible prior state and a conditional table with no positive mass
alike), EnumerationCapError -> 4.
"""

from __future__ import annotations

__all__ = [
    "CohoptError",
    "ValidationError",
    "DegenerateConditioningError",
    "EnumerationCapError",
]


class CohoptError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(CohoptError, ValueError):
    """Malformed inputs: bad shapes, masses or keys; non-numbers, "0.5" included."""

    exit_code = 2


class DegenerateConditioningError(CohoptError):
    """Conditioning on a zero-probability event: every latent has zero
    likelihood for the given policy state, or a required marginal is zero."""

    exit_code = 3


class EnumerationCapError(CohoptError):
    """The d-policy space exceeds the configured enumeration cap."""

    exit_code = 4
