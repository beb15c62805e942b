"""The oracle's even route for self-dual weight multisets.

A multiset with m(-mu) = m(mu) on every nonzero weight has P_k = 0 and
E_k = 0 for odd k, and ``_series_at`` multiplies its factors
(1 - c^2 t^2)^a as series in t^2.  The flag comes from the weights alone,
so it is checked here against the engine's self-duality test on the
highest weight, and each route against the unfolded references.
"""

from __future__ import annotations

import pytest

from conftest import all_supported_types, dominant_grid, get_rs
from test_acceptance import GRID_TYPES, ORACLE_GUARD
from test_oracle import _unfolded_elementary, _unfolded_power_sum
from weightcalc import oracle
from weightcalc.charclass import orthogonality_type
from weightcalc.oracle import WeightMultiset, oracle_elementary, oracle_power_sum, weight_multiplicities


def _grid_and_fundamentals():
    """The acceptance-05 grid, then every fundamental weight of each type of rank 4 and 5."""
    for kind, rank in GRID_TYPES:
        for lam in dominant_grid(rank, 3):
            yield kind, rank, lam
    for kind, rank in all_supported_types():
        if rank in (4, 5):
            for i in range(rank):
                yield kind, rank, tuple(int(j == i) for j in range(rank))


def test_selfdual_flag_matches_orthogonality_type():
    seen = {True: 0, False: 0}
    for kind, rank, lam in _grid_and_fundamentals():
        rs = get_rs(kind, rank)
        view = weight_multiplicities(rs, lam, max_dim=ORACLE_GUARD).folded()
        assert view.selfdual == (orthogonality_type(rs, lam) != "not-self-dual"), (kind, lam)
        seen[view.selfdual] += 1
    assert seen[True] > 200 and seen[False] > 100


def _routes(monkeypatch):
    """Record, for each ``_series_at`` call, whether it took the even route."""
    series_at = oracle._series_at
    even = []

    def spy(pairing, a, b, kmax):
        even.append(b is a)
        return series_at(pairing, a, b, kmax)

    monkeypatch.setattr(oracle, "_series_at", spy)
    return even


def _assert_matches_references(wm, kmax):
    got = oracle_elementary(wm, kmax)
    assert [f.terms for f in got] == [f.terms for f in _unfolded_elementary(wm, kmax)]
    for k in range(kmax + 1):
        assert oracle_power_sum(wm, k).terms == _unfolded_power_sum(wm, k).terms, k
    return got


@pytest.mark.parametrize("kind,rank,lam", [
    ("A", 1, (2,)),
    ("A", 3, (1, 0, 1)),
    ("B", 2, (1, 1)),
    ("B", 3, (1, 0, 1)),
    ("C", 3, (0, 1, 0)),
    ("D", 4, (1, 0, 0, 0)),
    ("G", 2, (1, 1)),
])
def test_selfdual_multisets_take_the_even_route(monkeypatch, kind, rank, lam):
    wm = weight_multiplicities(get_rs(kind, rank), lam)
    assert wm.folded().selfdual
    even = _routes(monkeypatch)
    got = _assert_matches_references(wm, 7)
    assert even and all(even)
    assert all(got[k].is_zero() and oracle_power_sum(wm, k).is_zero() for k in (1, 3, 5, 7))


@pytest.mark.parametrize("kind,rank,lam", [("A", 2, (3, 0)), ("A", 3, (2, 1, 0))])
def test_not_self_dual_multisets_with_a_zero_weight_take_the_general_route(
        monkeypatch, kind, rank, lam):
    wm = weight_multiplicities(get_rs(kind, rank), lam)
    assert (0,) * rank in wm.expanded() and not wm.folded().selfdual
    even = _routes(monkeypatch)
    got = _assert_matches_references(wm, 7)
    assert even and not any(even)
    assert not all(got[k].is_zero() for k in (1, 3, 5, 7))


def test_symmetric_synthetic_multiset_takes_the_even_route(monkeypatch, a2):
    # m(mu) = m(-mu) on the nonzero weights, m(0) different from all of them
    full = {(1, 0): 2, (-1, 0): 2, (1, -1): 1, (-1, 1): 1, (2, 1): 3, (-2, -1): 3, (0, 0): 5}
    wm = WeightMultiset(rs=a2, highest_weight=(0, 0), dominant={}, _expanded=full)
    assert wm.folded().selfdual and wm.folded().nonzero == 12
    even = _routes(monkeypatch)
    got = _assert_matches_references(wm, 7)
    assert even and all(even)
    assert all(got[k].is_zero() and oracle_power_sum(wm, k).is_zero() for k in (1, 3, 5, 7))


@pytest.mark.parametrize("pairing,a", [
    ((0, 1, -1, 2, -3, 0), (2, 1, 3, 500, 1, 7)),
    ((5, -5, 0, -11, -1), (600, 3, 2, 1, 0)),
    ((0, 0), (3, 4)),
    ((), ()),
])
@pytest.mark.parametrize("kmax", [0, 1, 4, 9])
def test_even_series_matches_the_general_route(pairing, a, kmax):
    # the same list twice takes the even route; an equal copy takes the general one
    pairing, a = list(pairing), list(a)
    even = oracle._series_at(pairing, a, a, kmax)
    assert even == oracle._series_at(pairing, a, list(a), kmax)
    assert not any(even[1::2])
