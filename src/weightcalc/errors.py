"""Exception hierarchy shared by all modules.

DomainError covers bad user input (unsupported type, non-dominant weight,
weight outside a character lattice, malformed flags).  InternalError covers
violated internal invariants (inexact division, singular sample systems,
non-integral results where integrality is guaranteed); raising it signals a
bug, never a usage problem.  The CLI maps DomainError to exit code 2 and
InternalError to exit code 1.
"""

from __future__ import annotations

__all__ = ["WeightcalcError", "DomainError", "InternalError", "check_degree"]


class WeightcalcError(Exception):
    """Base class for all package errors."""


class DomainError(WeightcalcError):
    """Invalid input from the caller (CLI exit code 2)."""


class InternalError(WeightcalcError):
    """Broken internal invariant, i.e. a bug (CLI exit code 1)."""


def check_degree(k, name: str) -> None:
    """Refuse a degree bound that is not a nonnegative int (bool included)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"{name} must be an integer, got {k!r}")
    if k < 0:
        raise DomainError(f"{name} must be nonnegative")
