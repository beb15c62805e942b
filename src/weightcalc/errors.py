"""Exception hierarchy and the input and result checks shared by all modules.

DomainError covers bad user input (unsupported type, non-dominant weight,
weight outside a character lattice, malformed flags).  InternalError covers
violated internal invariants (inexact division, singular sample systems,
non-integral results where integrality is guaranteed); raising it signals a
bug, never a usage problem.  The CLI maps DomainError to exit code 2 and
InternalError to exit code 1.

Every integer input and result is checked here alone: ``is_int`` is the one
test for an int that is not a bool (``True == 1`` would pass as a rank or a
coordinate), ``check_degree`` wants a nonnegative int, ``check_coordinates``
checks that a coordinate vector is a sequence, then its length, then its
entries, and ``exact_quotient`` is every division that must come out whole.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

__all__ = ["WeightcalcError", "DomainError", "InternalError", "check_degree", "is_int",
           "check_coordinates", "exact_quotient"]


class WeightcalcError(Exception):
    """Base class for all package errors."""


class DomainError(WeightcalcError):
    """Invalid input from the caller (CLI exit code 2)."""


class InternalError(WeightcalcError):
    """Broken internal invariant, i.e. a bug (CLI exit code 1)."""


def is_int(x) -> bool:
    """An int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_degree(k, name: str) -> None:
    """Refuse a degree bound that is not a nonnegative int (bool included)."""
    if not is_int(k):
        raise DomainError(f"{name} must be an integer, got {k!r}")
    if k < 0:
        raise DomainError(f"{name} must be nonnegative")


def check_coordinates(coords: Sequence, n: int, what: str = "weight", where: str = "",
                      exact: bool = False) -> tuple:
    """The n coordinates as a tuple: ints, or with ``exact`` ints and Fractions (bool fails).

    ``where`` names the space after the expected length, as in ``" for A2"``.
    """
    try:
        coords = tuple(coords)
    except TypeError:
        raise DomainError(f"{what} must be a sequence of coordinates, got {coords!r}") from None
    if len(coords) != n:
        raise DomainError(f"{what} has {len(coords)} coordinates, expected {n}{where}")
    if not all(is_int(c) or exact and isinstance(c, Fraction) for c in coords):
        raise DomainError(f"{what} coordinates must be "
                          + (f"int or Fraction, got {coords!r}" if exact else "integers"))
    return coords


def exact_quotient(num: int, den: int, message: str, *args) -> int:
    """num // den, or InternalError(message % args), formatted only then, on a remainder."""
    q, rem = divmod(num, den)
    if rem:
        raise InternalError(message % args)
    return q
