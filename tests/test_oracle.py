"""Brute-force weight-multiset oracle and order-2 character evaluations."""

from __future__ import annotations

import ast
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import all_supported_types, dominant_grid, get_rs
from test_acceptance import GRID_TYPES, ORACLE_GUARD
from weightcalc.charclass import builtin_lattice, builtin_lattice_names
from weightcalc import oracle
from weightcalc.errors import DomainError, InternalError
from weightcalc.oracle import (
    DEFAULT_MAX_DIM,
    WeightMultiset,
    _form,
    character_at_order2,
    oracle_elementary,
    oracle_power_sum,
    schur_at_signs,
    weight_multiplicities,
)
from weightcalc.polyalg import BiPoly, _monomials, _mul_into, expand_linear_power, invert
from weightcalc.powersum import elementary_from_power, power_sums, weyl_dimension
from weightcalc.rootsys import SUPPORTED_RANKS, act, chamber_descent


# -- multiplicity tables ---------------------------------------------------------


def test_a2_adjoint_multiplicities(a2):
    wm = weight_multiplicities(a2, (1, 1))
    assert wm.dominant == {(1, 1): 1, (0, 0): 2}
    assert wm.dimension == 8
    assert wm.multiplicity((0, 0)) == 2
    assert wm.multiplicity((2, -1)) == 1  # a root, via its dominant representative
    assert wm.multiplicity((5, 5)) == 0


def test_a2_27_dimensional_multiplicities(a2):
    wm = weight_multiplicities(a2, (2, 2))
    assert wm.multiplicity((0, 0)) == 3
    assert wm.multiplicity((1, 1)) == 2
    assert wm.multiplicity((2, 2)) == 1
    assert wm.dimension == 27


@given(st.integers(min_value=0, max_value=30))
def test_a1_string_multiplicities(ell):
    a1 = get_rs("A", 1)
    wm = weight_multiplicities(a1, (ell,))
    assert wm.expanded() == {(ell - 2 * j,): 1 for j in range(ell + 1)}


def test_multiplicity_refuses_a_weight_of_the_wrong_length(a2):
    wm = weight_multiplicities(a2, (1, 1))
    with pytest.raises(DomainError):
        wm.multiplicity((1,))
    with pytest.raises(DomainError):
        wm.multiplicity((1, 0, 0))


@pytest.mark.parametrize("bad", [(0.5, 0), ("1", 0), (True, 0), (1.0, 0)])
def test_multiplicity_refuses_a_non_integer_coordinate(a2, bad):
    with pytest.raises(DomainError):
        weight_multiplicities(a2, (1, 1)).multiplicity(bad)


@pytest.mark.parametrize(
    "kind,rank,lam,zero_mult,dim",
    [
        ("B", 2, (0, 2), 2, 10),
        ("B", 3, (0, 1, 0), 3, 21),
        ("G", 2, (0, 1), 2, 14),
        ("G", 2, (1, 0), 1, 7),
        ("C", 3, (0, 0, 1), 0, 14),
        ("A", 3, (1, 0, 1), 3, 15),
    ],
)
def test_zero_weight_multiplicities(kind, rank, lam, zero_mult, dim):
    rs = get_rs(kind, rank)
    wm = weight_multiplicities(rs, lam)
    assert wm.multiplicity((0,) * rank) == zero_mult
    assert wm.dimension == dim


def test_multiplicity_free_symmetric_power(a2):
    wm = weight_multiplicities(a2, (3, 0))
    assert wm.dimension == 10
    assert all(m == 1 for m in wm.expanded().values())


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)])
def test_dimension_matches_weyl_formula(kind, rank):
    rs = get_rs(kind, rank)
    for lam in dominant_grid(rank, 3):
        wm = weight_multiplicities(rs, lam)
        assert wm.dimension == weyl_dimension(rs, lam)


def test_weight_multiset_weyl_invariance(b2):
    wm = weight_multiplicities(b2, (1, 2))
    full = wm.expanded()
    for w in list(b2.weyl)[:4]:
        for mu, m in full.items():
            assert full[tuple(act(w, mu))] == m


def test_max_dim_guard(a2):
    with pytest.raises(DomainError):
        weight_multiplicities(a2, (3, 3), max_dim=10)
    wm = weight_multiplicities(a2, (3, 3), max_dim=DEFAULT_MAX_DIM)
    assert wm.dimension == 64
    with pytest.raises(DomainError):
        weight_multiplicities(a2, (-1, 0))


@pytest.mark.parametrize("bad", ["x", True, 3.5])
def test_max_dim_must_be_an_int(a1, bad):
    # True was taken as 1 and 3.5 as a bound; "x" raised TypeError
    with pytest.raises(DomainError, match="max_dim"):
        weight_multiplicities(a1, (2,), max_dim=bad)


@pytest.mark.parametrize("bad", [((True,),), (("2",),)])
def test_character_refuses_a_basis_entry_that_is_not_an_int(a1, bad):
    # at signs (-1,) these returned 3 and -1 instead of refusing
    wm = weight_multiplicities(a1, (2,))
    with pytest.raises(DomainError, match="basis entries"):
        character_at_order2(wm, (-1,), basis=bad)
    assert character_at_order2(wm, (-1,), basis=((1,),)) == 3
    assert character_at_order2(wm, (-1,), basis=((2,),)) == -1


@pytest.mark.parametrize("bad", [(None, None), ((1, 0), None), ((1, 0), (0,)), ((1, 0), 5)])
def test_character_reads_the_basis_row_by_row(a2, bad):
    # a generator of rows and a None row raised TypeError from len(); the
    # generator is read like a tuple, and a malformed row is refused
    wm = weight_multiplicities(a2, (1, 1))
    rows = ((1, 0), (-1, 1))
    want = character_at_order2(wm, (-1, 1), basis=rows)
    assert character_at_order2(wm, (-1, 1), basis=(row for row in rows)) == want
    with pytest.raises(DomainError, match="lattice basis entries"):
        character_at_order2(wm, (-1, 1), basis=bad)


@pytest.mark.parametrize("bad", [5, 2.5])
def test_character_refuses_a_basis_that_is_not_a_sequence(a2, bad):
    # basis=5 raised TypeError from the row loop
    wm = weight_multiplicities(a2, (1, 1))
    with pytest.raises(DomainError, match=f"lattice basis must be a sequence of rows, got {bad}$"):
        character_at_order2(wm, (1, -1), basis=bad)


def _per_step_fill(rs, lam, order):
    """Reference: the multiplicity recursion over the dominant weights in ``order``, lam first.

    Both |nu + delta|^2 and <nu, alpha> are evaluated in full with ``_form``
    at every root-string step nu = mu + j alpha.
    """
    r = rs.rank
    gram = rs.killing_dual_rows
    lam_d = tuple(c + 1 for c in lam)
    bound = _form(gram, lam_d, lam_d)
    mult = {}
    for mu in order:
        if mu == tuple(lam):
            mult[mu] = 1
            continue
        mu_d = tuple(c + 1 for c in mu)
        total = 0
        for alpha in rs.positive_roots:
            j = 1
            while True:
                nu = tuple(mu[i] + j * alpha[i] for i in range(r))
                nu_d = tuple(c + 1 for c in nu)
                if _form(gram, nu_d, nu_d) > bound:
                    break
                total += mult.get(chamber_descent(rs.cartan, nu), 0) * _form(gram, nu, alpha)
                j += 1
        q, rem = divmod(2 * total, bound - _form(gram, mu_d, mu_d))
        assert rem == 0 and q > 0, (lam, mu)
        mult[mu] = q
    return mult


def _ball_sweep_multiplicities(rs, lam):
    """Reference: dominant multiplicities from a sweep of the norm ball.

    Every lattice point reached from lam by simple-root steps inside
    |mu + delta| <= |lam + delta| is visited; the dominant ones are filled in
    by the per-step recursion in (level, mu) order.
    """
    r = rs.rank
    gram = rs.killing_dual_rows
    lam_d = tuple(c + 1 for c in lam)
    bound = _form(gram, lam_d, lam_d)
    levels = {tuple(lam): 0}
    frontier = [tuple(lam)]
    while frontier:
        nxt = []
        for node in frontier:
            for s in rs.cartan:
                child = tuple(node[i] - s[i] for i in range(r))
                shifted = tuple(c + 1 for c in child)
                if child not in levels and _form(gram, shifted, shifted) <= bound:
                    levels[child] = levels[node] + 1
                    nxt.append(child)
        frontier = nxt
    dominant = sorted((lvl, mu) for mu, lvl in levels.items() if min(mu) >= 0)
    return _per_step_fill(rs, lam, [mu for _, mu in dominant])


@pytest.mark.parametrize(
    "kind,rank,top", [(k, r, 3) for k, r in GRID_TYPES] + [(k, 4, 1) for k in "ABCD"]
)
def test_dominant_walk_matches_ball_sweep(kind, rank, top):
    # the acceptance-05 grid (coordinates <= 3) and the rank-4 grid (<= 1)
    rs = get_rs(kind, rank)
    for lam in dominant_grid(rank, top):
        got = weight_multiplicities(rs, lam, max_dim=ORACLE_GUARD).dominant
        assert list(got.items()) == list(_ball_sweep_multiplicities(rs, lam).items()), lam


def _per_step_multiplicities(rs, lam):
    """Reference: the dominant walk and fill order of ``weight_multiplicities``, filled per step.

    Only the root-string sums differ: |nu + delta|^2 and <nu, alpha> are
    taken with ``_form`` at each point nu instead of by increments.
    """
    r = rs.rank
    pos_roots = [tuple(a) for a in rs.positive_roots]
    steps = list(zip(pos_roots, map(sum, rs.root_coefficients)))
    depth = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha, height in steps:
                nu = tuple(mu[i] - alpha[i] for i in range(r))
                if nu not in depth and min(nu) >= 0:
                    depth[nu] = depth[mu] + height
                    nxt.append(nu)
        frontier = nxt
    return _per_step_fill(rs, lam, sorted(depth, key=lambda mu: (depth[mu], mu)))


_STRING_CASES = (
    [(k, r, (1,) + (0,) * (r - 1)) for k, r in all_supported_types()]
    + [(k, r, (0,) * (r - 1) + (1,)) for k, r in all_supported_types()]
    + [("B", 3, (3, 3, 3)), ("C", 3, (3, 3, 3)), ("D", 4, (0, 1, 0, 1))]
)


@pytest.mark.parametrize("kind,rank,lam", _STRING_CASES)
def test_incremental_root_strings_match_per_step_forms(kind, rank, lam):
    rs = get_rs(kind, rank)
    got = weight_multiplicities(rs, lam, max_dim=ORACLE_GUARD).dominant
    assert list(got.items()) == list(_per_step_multiplicities(rs, lam).items())


# -- unfolded reference ------------------------------------------------------------


def _unfolded_power_sum(wm, k):
    """Reference: P_k as one expanded power per weight, no pairing with -mu."""
    r = wm.rs.rank
    acc = {}
    for mu, m in wm.expanded().items():
        for ye, c in expand_linear_power(mu, k).items():
            key = (0,) * r + ye
            acc[key] = acc.get(key, 0) + m * c
    return BiPoly(r, r, acc)


def _unfolded_elementary(wm, kmax):
    """Reference: E_0..E_kmax from one leaf (1 + mu-hat)^m per weight, in a product tree."""
    r = wm.rs.rank

    def leaf(mu, m):
        buckets = [{} for _ in range(kmax + 1)]
        buckets[0][(0,) * r] = 1
        for j in range(1, min(m, kmax) + 1):
            for ye, c in expand_linear_power(mu, j).items():
                buckets[j][ye] = comb(m, j) * c
        return buckets

    def mul(f, g):
        out = [{} for _ in range(kmax + 1)]
        for da in range(kmax + 1):
            for db in range(kmax + 1 - da):
                _mul_into(out[da + db], f[da], g[db])
        return [{e: c for e, c in blk.items() if c} for blk in out]

    # the empty multiset is one leaf of multiplicity 0: the empty product 1
    factors = [leaf(mu, m) for mu, m in wm.expanded().items()] or [leaf((0,) * r, 0)]
    while len(factors) > 1:
        nxt = [mul(factors[i], factors[i + 1]) for i in range(0, len(factors) - 1, 2)]
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    return [BiPoly(r, r, {(0,) * r + ye: c for ye, c in blk.items()}) for blk in factors[0]]


def _fraction_character(wm, signs, basis=None):
    """Reference: the order-2 character with one Fraction coordinate per weight.

    Every coordinate of every weight must be an integer, whatever the signs.
    """
    r = wm.rs.rank
    if basis is None:
        binv_t = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    else:
        binv_t = invert([[basis[j][i] for j in range(r)] for i in range(r)])
    total = 0
    for mu, m in wm.expanded().items():
        parity = 0
        for i, s in enumerate(signs):
            ci = sum(binv_t[i][j] * mu[j] for j in range(r))
            if ci.denominator != 1:
                raise DomainError("weight does not lie in the span of the basis")
            if s == -1:
                parity += int(ci)
        total += m if parity % 2 == 0 else -m
    return total


def _assert_matches_unfolded(wm, kmax):
    e = oracle_elementary(wm, kmax)
    ref = _unfolded_elementary(wm, kmax)
    assert [f.terms for f in e] == [f.terms for f in ref]
    for k in range(kmax + 1):
        assert oracle_power_sum(wm, k).terms == _unfolded_power_sum(wm, k).terms, k


@pytest.mark.parametrize("kind,rank", GRID_TYPES)
def test_folded_oracle_matches_unfolded_grid(kind, rank):
    # the acceptance-05 grid with coordinates <= 2
    rs = get_rs(kind, rank)
    for lam in dominant_grid(rank, 2):
        wm = weight_multiplicities(rs, lam, max_dim=ORACLE_GUARD)
        _assert_matches_unfolded(wm, 6)
        for i in range(rank + 1):
            signs = tuple(-1 if j < i else 1 for j in range(rank))
            assert character_at_order2(wm, signs) == _fraction_character(wm, signs)


@pytest.mark.parametrize(
    "kind,rank,lam",
    [
        ("A", 2, (2, 0)),
        ("A", 3, (1, 0, 0)),
        ("A", 3, (2, 1, 0)),
        ("D", 3, (0, 0, 1)),
        ("A", 4, (0, 1, 0, 0)),
        ("D", 5, (0, 0, 0, 0, 1)),
    ],
)
def test_folded_oracle_matches_unfolded_not_self_dual(kind, rank, lam):
    wm = weight_multiplicities(get_rs(kind, rank), lam)
    assert any(tuple(-c for c in mu) not in wm.expanded() for mu in wm.expanded())
    _assert_matches_unfolded(wm, 6)


def test_folded_oracle_matches_unfolded_synthetic_multiset(a2):
    # m(mu) != m(-mu), weights whose negative is missing, and a zero weight
    full = {
        (1, 0): 2, (-1, 0): 1,
        (1, -1): 1, (-1, 1): 4,
        (0, 1): 3, (2, -1): 1,
        (0, 0): 2,
    }
    wm = WeightMultiset(rs=a2, highest_weight=(1, 1), dominant={}, _expanded=full)
    _assert_matches_unfolded(wm, 7)
    for signs in [(1, 1), (-1, 1), (-1, -1), (1, -1)]:
        assert character_at_order2(wm, signs) == _fraction_character(wm, signs)
    # no weights at all: the empty product and empty sums
    empty = WeightMultiset(rs=a2, highest_weight=(0, 0), dominant={}, _expanded={})
    assert oracle_elementary(empty, 7) == [BiPoly.constant(2, 2, 1)] + [BiPoly.zero(2, 2)] * 7
    assert all(oracle_power_sum(empty, k).is_zero() for k in range(8))


@st.composite
def _synthetic_multiset(draw):
    """A rank, a kmax and any small multiset of weights: m(mu) need not equal m(-mu)."""
    r = draw(st.integers(1, 4))
    weights = draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * r), st.integers(1, 3), max_size=6))
    return r, draw(st.integers(0, 7)), weights


@given(_synthetic_multiset())
@example((1, 7, {}))
@example((2, 7, {(1, 0): 2, (-1, 0): 1, (0, 0): 2, (2, -1): 1}))
@example((3, 6, {(1, -1, 0): 3, (0, 1, 0): 1, (0, 0, 0): 1}))
@example((4, 7, {(1, 0, 0, 0): 1, (0, 0, 1, -1): 2, (0, 0, -1, 1): 1, (0, 0, 0, 0): 3}))
def test_lattice_elementary_matches_unfolded_synthetic(case):
    # the empty multiset, a zero weight, unpaired weights, m(mu) != m(-mu)
    # and weights whose last coordinate is 0, at ranks 1-4
    r, kmax, weights = case
    wm = WeightMultiset(
        rs=get_rs("A", r), highest_weight=(0,) * r, dominant={}, _expanded=weights)
    got = oracle_elementary(wm, kmax)
    assert [f.terms for f in got] == [f.terms for f in _unfolded_elementary(wm, kmax)]
    for k, f in enumerate(got):  # terms in ``_monomials`` order
        assert list(f.terms) == [(0,) * r + e for e in _monomials(r, k) if (0,) * r + e in f.terms]


@pytest.mark.parametrize("k,scale,match", [
    (3, factorial(6) ** 2, "forward difference above the degree"),
    (6, factorial(6) ** 2, "at the check point"),
    (6, 1, "falling-factorial coefficient"),
])
def test_lattice_elementary_catches_a_wrong_point_value(monkeypatch, b3, k, scale, match):
    # scale (6!)^2 keeps every division by g! exact, so k < kmax is caught by
    # the differences above degree k and k = kmax only by the check point
    wm = weight_multiplicities(b3, (1, 0, 1))
    series_at = oracle._series_at
    calls = []

    def perturbed(pairing, a, b, kmax):
        out = series_at(pairing, a, b, kmax)
        calls.append(pairing)
        if len(calls) == 2:  # the lattice point x = (1, 0)
            out[k] += scale
        return out

    monkeypatch.setattr(oracle, "_series_at", perturbed)
    with pytest.raises(InternalError, match=match):
        oracle_elementary(wm, 6)


def test_lattice_elementary_stops_at_the_degree_of_the_product(monkeypatch, a2):
    # A2 omega_1 has 3 nonzero weights, so its product has degree 3 whatever kmax is;
    # no series is asked past degree 4 (E_4 = 0 at the check point guards the count)
    wm = weight_multiplicities(a2, (1, 0))
    series_at = oracle._series_at
    asked = []

    def spy(pairing, a, b, kmax):
        asked.append(kmax)
        return series_at(pairing, a, b, kmax)

    monkeypatch.setattr(oracle, "_series_at", spy)
    got = oracle_elementary(wm, 3000)
    assert len(got) == 3001 and max(asked) == 4 and len(asked) == comb(3 + 1, 1) + 1
    assert [f.is_zero() for f in got[:4]] == [False, True, False, False]  # E_1 = 0 on A2
    assert all(f.is_zero() for f in got[4:])


@pytest.mark.parametrize("kind,rank,lam", [
    ("A", 1, (2,)),  # the zero weight adds no degree
    ("A", 2, (1, 0)),
    ("B", 2, (1, 0)),
    ("G", 2, (1, 0)),
    ("A", 3, (0, 1, 0)),
])
def test_lattice_elementary_above_the_degree_matches_newton(kind, rank, lam):
    rs = get_rs(kind, rank)
    wm = weight_multiplicities(rs, lam)
    degree = sum(m for mu, m in wm.expanded().items() if any(mu))
    kmax = degree + 2
    want = elementary_from_power(power_sums(rs, lam, kmax), kmax)
    got = oracle_elementary(wm, kmax)
    assert [f.terms for f in got] == [f.terms for f in want]
    assert not got[degree].is_zero() and got[degree + 1].is_zero()


def _engine_names(source: str) -> list[str]:
    """Imports and names in source that the oracle must not use."""
    local = {"errors": None, "polyalg": None, "rootsys": None,
             "powersum": {"validate_dominant", "weyl_dimension"}}
    forbidden = {"exact_divide", "elementary_from_power", "_triangular_solve", "rref",
                 "_signed_orbit"}
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names
                    if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module.split(".")[0] not in sys.stdlib_module_names:
                    bad.append(node.module)
            elif node.level != 1 or node.module not in local:
                bad.append("." * node.level + (node.module or ""))
            elif local[node.module] is not None:
                bad += [a.name for a in node.names if a.name not in local[node.module]]
        names = ([node.id] if isinstance(node, ast.Name) else
                 [node.attr] if isinstance(node, ast.Attribute) else
                 [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
        bad += [n for n in names if n in forbidden or n.startswith("fk_")]
    return bad


def test_oracle_imports_nothing_of_the_engine():
    assert _engine_names(Path(oracle.__file__).read_text(encoding="utf-8")) == []
    # the check itself finds each kind of violation
    assert _engine_names(
        "import numpy\n"
        "from .weylsum import FkTable\n"
        "from .powersum import power_sums, weyl_dimension\n"
        "from ..x import y\n"
        "from .polyalg import rref\n"
        "q = polyalg.exact_divide(f, g)\n"
        "p = fk_evaluated(rs, mu, k)\n"
    ) == ["numpy", ".weylsum", "power_sums", "..x", "rref", "exact_divide", "fk_evaluated"]


def _fresh(wm):
    """The same weights in a new multiset, with nothing folded or cached yet."""
    return WeightMultiset(
        rs=wm.rs, highest_weight=wm.highest_weight, dominant=wm.dominant,
        _expanded=dict(wm.expanded()),
    )


def _nested_signs(r):
    return [tuple(-1 if j < i else 1 for j in range(r)) for i in range(r + 1)]


def _assert_cached_calls_match(wm):
    """Calls in mixed order on one multiset equal a fresh multiset per call and the references."""
    r = wm.rs.rank
    got_e3 = oracle_elementary(wm, 3)
    got_p7 = oracle_power_sum(wm, 7)
    got_e7 = oracle_elementary(wm, 7)
    got_p = {k: oracle_power_sum(wm, k) for k in range(7, -1, -1)}
    got_chi = [character_at_order2(wm, s) for s in _nested_signs(r)]
    ref_e7 = [f.terms for f in _unfolded_elementary(wm, 7)]
    assert [f.terms for f in got_e3] == [f.terms for f in oracle_elementary(_fresh(wm), 3)]
    assert [f.terms for f in got_e3] == ref_e7[:4]
    assert [f.terms for f in got_e7] == [f.terms for f in oracle_elementary(_fresh(wm), 7)]
    assert [f.terms for f in got_e7] == ref_e7
    assert got_p7.terms == got_p[7].terms
    for k, pk in got_p.items():
        assert pk.terms == oracle_power_sum(_fresh(wm), k).terms, k
        assert pk.terms == _unfolded_power_sum(wm, k).terms, k
    for s, chi in zip(_nested_signs(r), got_chi):
        assert chi == character_at_order2(_fresh(wm), s) == _fraction_character(wm, s), s


@pytest.mark.parametrize(
    "kind,rank,lam",
    [(k, r, (1,) + (0,) * (r - 1)) for k, r in all_supported_types()] + [("A", 3, (2, 1, 0))],
)
def test_cached_view_matches_fresh_multisets(kind, rank, lam):
    wm = weight_multiplicities(get_rs(kind, rank), lam)
    _assert_cached_calls_match(wm)
    assert wm.folded() is wm.folded()


def test_cached_view_matches_fresh_synthetic_multisets(a2):
    # m(mu) != m(-mu), unpaired weights and a zero weight; then no weights at all
    full = {
        (1, 0): 2, (-1, 0): 1,
        (1, -1): 1, (-1, 1): 4,
        (0, 1): 3, (2, -1): 1,
        (0, 0): 2,
    }
    for weights in (full, {}):
        wm = WeightMultiset(rs=a2, highest_weight=(1, 1), dominant={}, _expanded=weights)
        _assert_cached_calls_match(wm)


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_folded_oracle_matches_unfolded_fundamental_and_zero(kind, rank):
    # kmax 1 lies below the degree of most leaves, 7 above the bench's 6
    rs = get_rs(kind, rank)
    for lam in [(1,) + (0,) * (rank - 1), (0,) * rank]:
        wm = weight_multiplicities(rs, lam)
        for kmax in (0, 1, 7):
            _assert_matches_unfolded(wm, kmax)


def test_character_matches_fraction_reference_on_builtin_lattices():
    # GL lattices are written in diagonal coordinates, not on the root system's
    # weights, so character_at_order2 does not take them
    for name in builtin_lattice_names():
        lattice = builtin_lattice(name)
        if lattice.family == "GL":
            continue
        rs = lattice.root_system()
        r = rs.rank
        weights = [(0,) * r] + [tuple(int(i == j) for j in range(r)) for i in range(r)]
        weights.append((2,) + (0,) * (r - 1))
        for lam in weights:
            wm = weight_multiplicities(rs, lam)
            for i in range(r + 1):
                signs = tuple(-1 if j < i else 1 for j in range(r))
                try:
                    want = _fraction_character(wm, signs, lattice.basis)
                except DomainError:
                    with pytest.raises(DomainError):
                        character_at_order2(wm, signs, basis=lattice.basis)
                else:
                    assert character_at_order2(wm, signs, basis=lattice.basis) == want


# -- oracle versus engine ----------------------------------------------------------


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_oracle_matches_engine_small_grid(kind, rank):
    rs = get_rs(kind, rank)
    for lam in dominant_grid(rank, 2):
        wm = weight_multiplicities(rs, lam)
        p = power_sums(rs, lam, 4)
        e = elementary_from_power(p, 4)
        oe = oracle_elementary(wm, 4)
        for k in range(5):
            assert p[k] == oracle_power_sum(wm, k)
            assert e[k] == oe[k]


@pytest.mark.parametrize(
    "kind,rank,lam,kmax",
    [
        ("A", 4, (1, 0, 0, 1), 4),
        ("B", 4, (1, 0, 0, 0), 4),
        ("C", 4, (0, 1, 0, 0), 4),
        ("D", 4, (0, 0, 0, 1), 4),
        ("A", 5, (1, 0, 0, 0, 0), 2),
        ("A", 5, (0, 1, 0, 0, 0), 4),
        ("B", 5, (0, 0, 0, 0, 1), 4),
        ("D", 5, (1, 0, 0, 0, 0), 4),
        ("D", 5, (0, 0, 0, 0, 1), 4),
        ("C", 5, (1, 0, 0, 0, 0), 4),
        ("C", 5, (0, 1, 0, 0, 0), 4),
        ("B", 5, (1, 0, 0, 0, 0), 4),
        ("B", 6, (1, 0, 0, 0, 0, 0), 4),
        ("C", 6, (1, 0, 0, 0, 0, 0), 4),
        ("D", 6, (1, 0, 0, 0, 0, 0), 4),
    ],
)
def test_oracle_matches_engine_rank_4_and_5(kind, rank, lam, kmax):
    rs = get_rs(kind, rank)
    wm = weight_multiplicities(rs, lam)
    p = power_sums(rs, lam, kmax)
    for k in range(kmax + 1):
        assert p[k].terms == oracle_power_sum(wm, k).terms, (kind, rank, lam, k)


def test_oracle_matches_engine_rank_6():
    a6 = get_rs("A", 6)
    wm = weight_multiplicities(a6, (1, 0, 0, 0, 0, 0))
    p = power_sums(a6, (1, 0, 0, 0, 0, 0), 2)
    for k in range(3):
        assert p[k].terms == oracle_power_sum(wm, k).terms, k


_ALL_TYPES = [("G" if kind == "G2" else kind, rank)
              for kind, (lo, hi) in SUPPORTED_RANKS.items() for rank in range(lo, hi + 1)]


@st.composite
def _small_representation(draw):
    kind, rank = draw(st.sampled_from(_ALL_TYPES))
    coords = draw(st.dictionaries(st.integers(0, rank - 1), st.integers(1, 2), max_size=2))
    lam = tuple(coords.get(i, 0) for i in range(rank))
    rs = get_rs(kind, rank)
    assume(weyl_dimension(rs, lam) <= 2000)
    return rs, lam


@settings(max_examples=60)
@given(_small_representation())
def test_oracle_matches_engine_random_type(case):
    rs, lam = case
    wm = weight_multiplicities(rs, lam)
    p = power_sums(rs, lam, 4)
    e = elementary_from_power(p, 4)
    oe = oracle_elementary(wm, 4)
    for k in range(5):
        assert p[k].terms == oracle_power_sum(wm, k).terms, (rs.kind, rs.rank, lam, k)
        assert e[k].terms == oe[k].terms, (rs.kind, rs.rank, lam, k)


@pytest.mark.parametrize("bad", [2.0, True, "2", -1])
def test_oracle_power_sum_refuses_a_bad_degree(a2, bad):
    with pytest.raises(DomainError):
        oracle_power_sum(weight_multiplicities(a2, (1, 0)), bad)


@pytest.mark.parametrize("bad", [2.0, True, "2", -1])
def test_oracle_elementary_refuses_a_bad_degree(a2, bad):
    with pytest.raises(DomainError):
        oracle_elementary(weight_multiplicities(a2, (1, 0)), bad)


def test_oracle_drops_cancelled_terms(b2):
    """-1 is in W(B2), so every odd P_k and E_k cancels; no zero may stay behind."""
    wm = weight_multiplicities(b2, (1, 1))
    assert oracle_power_sum(wm, 3).terms == {}
    e = oracle_elementary(wm, 6)
    assert all(all(f.terms.values()) for f in e)
    assert [f.is_zero() for f in e] == [False, True, False, True, False, True, False]


def test_oracle_newton_identity(a2):
    wm = weight_multiplicities(a2, (2, 1))
    kmax = 5
    p = [oracle_power_sum(wm, k) for k in range(kmax + 1)]
    e = oracle_elementary(wm, kmax)
    for k in range(1, kmax + 1):
        acc = BiPoly.zero(2, 2)
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc = acc + term if i % 2 == 1 else acc - term
        assert acc == e[k].scale(k)
    assert p[0] == BiPoly.constant(2, 2, wm.dimension)
    assert e[0] == BiPoly.constant(2, 2, 1)


# -- order-2 characters -------------------------------------------------------------


def test_sl2_central_character():
    a1 = get_rs("A", 1)
    for ell in range(8):
        wm = weight_multiplicities(a1, (ell,))
        assert character_at_order2(wm, (-1,)) == (-1) ** ell * (ell + 1)
        assert character_at_order2(wm, (1,)) == ell + 1


def test_character_with_sublattice_basis():
    a1 = get_rs("A", 1)
    wm = weight_multiplicities(a1, (2,))
    # adjoint weights 2, 0, -2 are 1, 0, -1 in the index-2 sublattice generator
    assert character_at_order2(wm, (-1,), basis=((2,),)) == -1
    odd = weight_multiplicities(a1, (3,))
    with pytest.raises(DomainError):
        character_at_order2(odd, (-1,), basis=((2,),))
    with pytest.raises(DomainError):
        character_at_order2(wm, (-1, 1))
    with pytest.raises(DomainError):
        character_at_order2(wm, (2,))


@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_character_refuses_an_off_lattice_weight_at_every_sign_pattern(a2, signs):
    # the adjoint weight (1, 1) has second coordinate 1/2 in this basis; the
    # patterns (1, 1) and (-1, 1) returned 8 and 0 instead of refusing
    wm = weight_multiplicities(a2, (1, 1))
    with pytest.raises(DomainError, match="lattice basis"):
        character_at_order2(wm, signs, basis=((1, 0), (0, 2)))
    with pytest.raises(DomainError):
        _fraction_character(wm, signs, ((1, 0), (0, 2)))


@pytest.mark.parametrize("signs", [(1,), (-1,)])
def test_character_refuses_an_odd_a1_weight_in_the_even_lattice(a1, signs):
    # (1,) returned 4 instead of refusing
    wm = weight_multiplicities(a1, (3,))
    with pytest.raises(DomainError, match="lattice basis"):
        character_at_order2(wm, signs, basis=((2,),))
    with pytest.raises(DomainError):
        _fraction_character(wm, signs, ((2,),))


@pytest.mark.parametrize("bad", [(True, -1), (1.0, -1), ("1", -1)])
def test_character_refuses_a_non_integer_sign(a2, bad):
    # True == 1 and 1.0 == 1, so a membership test alone would accept both
    with pytest.raises(DomainError):
        character_at_order2(weight_multiplicities(a2, (1, 1)), bad)


@pytest.mark.parametrize("bad", [None, 5])
def test_character_refuses_a_sign_vector_that_is_not_a_sequence(a2, bad):
    # len(None) raised TypeError
    with pytest.raises(DomainError, match="sign vector must be a sequence"):
        character_at_order2(weight_multiplicities(a2, (1, 1)), bad)


def test_character_reads_a_sign_vector_from_any_iterable(a2):
    # len() of a generator raised TypeError
    wm = weight_multiplicities(a2, (2, 0))
    assert character_at_order2(wm, (s for s in (-1, 1))) == character_at_order2(wm, (-1, 1))
    with pytest.raises(DomainError, match="sign vector has 3 coordinates, expected 2"):
        character_at_order2(wm, (s for s in (-1, 1, 1)))


def test_schur_refuses_a_partition_that_is_not_a_sequence():
    # list(None) raised TypeError
    with pytest.raises(DomainError, match="partition must be a sequence of parts, got None"):
        schur_at_signs(None, 1, 1)
    with pytest.raises(DomainError, match="partition parts must be nonnegative integers"):
        schur_at_signs("21", 1, 2)


def test_schur_small_values_and_errors():
    assert schur_at_signs((), 1, 2) == 1
    assert schur_at_signs((1,), 0, 3) == 3
    assert schur_at_signs((1, 1), 1, 1) == -1  # e_2 at (-1, 1)
    assert schur_at_signs((2,), 1, 1) == 1  # h_2 at (-1, 1)
    with pytest.raises(DomainError):
        schur_at_signs((1, 2), 0, 3)
    with pytest.raises(DomainError):
        schur_at_signs((-1,), 0, 3)
    with pytest.raises(DomainError):
        schur_at_signs((1, 1, 1), 1, 1)


@pytest.mark.parametrize("a_minus,b_plus", [(1.5, 3), (1, 3.0), (True, 3), ("1", 3), (1, -1)])
def test_schur_refuses_a_bad_sign_count(a_minus, b_plus):
    with pytest.raises(DomainError):
        schur_at_signs((2, 1), a_minus, b_plus)


def _partitions(length: int, top: int):
    for combo in combinations_with_replacement(range(top + 1), length):
        yield tuple(sorted(combo, reverse=True))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_schur_agrees_with_character_type_a(rank):
    # the Jacobi-Trudi evaluation and the weight-multiset character must agree
    # at every nested order-2 torus element of SL_{rank+1}
    rs = get_rs("A", rank)
    n = rank + 1
    lattice = builtin_lattice(f"SL{n}")
    seen = set()
    for part in _partitions(rank, 6):
        if part in seen:
            continue
        seen.add(part)
        weight = tuple(
            part[j] - (part[j + 1] if j + 1 < rank else 0) for j in range(rank)
        )
        wm = weight_multiplicities(rs, weight, max_dim=500000)
        for i in range(rank + 1):
            signs = tuple(-1 if j < i else 1 for j in range(rank))
            a_minus = i + (i % 2)
            chi = character_at_order2(wm, signs, basis=lattice.basis)
            assert chi == schur_at_signs(part, a_minus, n - a_minus)


def test_h_series_edge_cases():
    # no variables at all: only H_0 = 1 survives
    assert schur_at_signs((0,), 0, 1) == 1
    assert schur_at_signs((3,), 1, 0) == -1  # h_3 at the single value -1
    assert schur_at_signs((3,), 0, 1) == 1


def test_pair_coefficients_at_negative_exponents():
    # (1 + t)^(-a) (1 - t)^(-b), the series of the complete symmetric values at a
    # entries -1 and b entries +1, from its two factors written out here
    for a in range(7):
        for b in range(7):
            neg = [(-1) ** k * comb(a + k - 1, k) if a else int(k == 0) for k in range(11)]
            pos = [comb(b + k - 1, k) if b else int(k == 0) for k in range(11)]
            series = [sum(neg[i] * pos[p - i] for i in range(p + 1)) for p in range(11)]
            for p in range(11):
                assert oracle._pair_coefficients(-a, -b, p) == tuple(series[: p + 1])


def _binomial_convolution(a, b, kmax):
    """(1 + t)^a (1 - t)^b to t^kmax: two rows of generalised binomials, convolved.

    The coefficients of (1 + t)^n are C(n, i), or (-1)^i C(i - n - 1, i) for
    n < 0; those of (1 - t)^n carry (-1)^i more.
    """
    plus, minus = ([comb(n, i) if n >= 0 else (-1) ** i * comb(i - n - 1, i)
                    for i in range(kmax + 1)] for n in (a, b))
    return tuple(sum((-1) ** (j - i) * plus[i] * minus[j - i] for i in range(j + 1))
                 for j in range(kmax + 1))


def test_pair_coefficients_match_the_binomial_convolution():
    # nonnegative, negative and mixed exponents, kmax above a + b, and large ones
    pairs = [(a, b) for a in range(-12, 40) for b in range(-12, 40)]
    for a, b in pairs + [(500, 499), (5000, 7000), (-300, -41)]:
        for kmax in range(13):
            assert oracle._pair_coefficients(a, b, kmax) == _binomial_convolution(a, b, kmax)


@pytest.mark.parametrize("pairing,a,b", [
    ((0, 1, -1, 2, -3, 0), (2, 1, 3, 500, 1, 7), (0, 2, 1, 499, 0, 1)),
    ((5, -5, 0, -11, -1), (600, 3, 2, 1, 0), (0, 2, 2, 0, 4)),
    ((0, 0), (3, 4), (1, 0)),
    ((), (), ()),
])
@pytest.mark.parametrize("kmax", [0, 1, 4, 9])
def test_series_at_matches_a_direct_product(pairing, a, b, kmax):
    # each factor (1 + c t)^x (1 - c t)^z written out and multiplied in, a zero
    # pairing included; pairs sharing |c| are grouped by the kernel, not here
    want = [1] + [0] * kmax
    for c, x, z in zip(pairing, a, b):
        for n, sign in ((x, 1), (z, -1)):
            factor = [comb(n, i) * (sign * c) ** i for i in range(kmax + 1)]
            want = [sum(want[i] * factor[j - i] for i in range(j + 1)) for j in range(kmax + 1)]
    assert oracle._series_at(list(pairing), list(a), list(b), kmax) == want
