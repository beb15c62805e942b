"""Shared fixtures and exact-arithmetic helpers for the test suite."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import HealthCheck, settings

from weightcalc.polyalg import BiPoly
from weightcalc.rootsys import build_root_system

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@lru_cache(maxsize=None)
def get_rs(kind: str, rank: int):
    """Cached root system; test modules share the construction cost."""
    return build_root_system(kind, rank)


@pytest.fixture(scope="session")
def a1():
    return get_rs("A", 1)


@pytest.fixture(scope="session")
def a2():
    return get_rs("A", 2)


@pytest.fixture(scope="session")
def a3():
    return get_rs("A", 3)


@pytest.fixture(scope="session")
def b2():
    return get_rs("B", 2)


@pytest.fixture(scope="session")
def b3():
    return get_rs("B", 3)


@pytest.fixture(scope="session")
def c3():
    return get_rs("C", 3)


@pytest.fixture(scope="session")
def d4():
    return get_rs("D", 4)


@pytest.fixture(scope="session")
def g2():
    return get_rs("G", 2)


def all_supported_types() -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    out += [("A", r) for r in range(1, 7)]
    out += [("B", r) for r in range(2, 7)]
    out += [("C", r) for r in range(2, 7)]
    out += [("D", r) for r in range(3, 7)]
    out.append(("G", 2))
    return out


def y_poly(r: int, terms: dict[tuple, object]) -> BiPoly:
    """BiPoly in the engine ring (na = ny = r) from y-exponent tuples."""
    return BiPoly(r, r, {(0,) * r + tuple(ye): c for ye, c in terms.items()})


def gen_poly(n: int, terms: dict[tuple, object]) -> BiPoly:
    """BiPoly over lattice generators (na = n, ny = 0) from a-exponents."""
    return BiPoly(n, 0, dict(terms))


def naive_compose(f: BiPoly, a_images=None, y_images=None) -> BiPoly:
    """Reference substitution: each term expanded as the product of its image powers.

    Works through ``BiPoly.__mul__`` and ``**`` only; a block given as None
    keeps its variables as identity images.
    """
    given = [*(a_images or ()), *(y_images or ())]
    na, ny = given[0].na, given[0].ny
    if a_images is None:
        a_images = [BiPoly.a_var(i, na, ny) for i in range(f.na)]
    if y_images is None:
        y_images = [BiPoly.y_var(i, na, ny) for i in range(f.ny)]
    images = [*a_images, *y_images]
    powers: dict[tuple[int, int], BiPoly] = {}
    total = BiPoly.zero(na, ny)
    for e, c in f.terms.items():
        term = BiPoly.constant(na, ny, c)
        for i, k in enumerate(e):
            if (i, k) not in powers:
                powers[i, k] = images[i] ** k
            term = term * powers[i, k]
        total = total + term
    return total


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, by the defining recurrence."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


def bernoulli_poly_at(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), exact."""
    return sum(
        (comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1)),
        start=Fraction(0),
    )


def dominant_grid(rank: int, top: int) -> list[tuple[int, ...]]:
    """All dominant weights with every coordinate in 0..top."""
    coords = range(top + 1)
    out = [()]
    for _ in range(rank):
        out = [lam + (c,) for lam in out for c in coords]
    return out
