"""Exception hierarchy shared across the package.

One class per failure, and each class maps to one CLI exit code:
ValidationError -> 2, DegenerateConditioningError -> 3 (an impossible prior
state and a conditional table with no positive mass alike),
EnumerationCapError -> 4.
"""

from __future__ import annotations


class CohoptError(Exception):
    """Base class for all package errors."""


class ValidationError(CohoptError):
    """Malformed inputs: bad shapes, bad probabilities, bad config keys."""


class DegenerateConditioningError(CohoptError):
    """Conditioning on a zero-probability event: every latent has zero
    likelihood for the given policy state, or a required marginal is zero."""


class EnumerationCapError(CohoptError):
    """The d-policy space exceeds the configured enumeration cap."""
