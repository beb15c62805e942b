"""Alternating Weyl sums: vanishing, closed forms, invariance, reconstruction."""

from __future__ import annotations

import ast
import gc
import re
from fractions import Fraction
from math import comb, factorial
from operator import mul
from pathlib import Path

import pytest

from conftest import all_supported_types, get_rs
from weightcalc import powersum, weylsum
from weightcalc.errors import DomainError, InternalError
from weightcalc.polyalg import BiPoly, Mod2Poly, _monomials, expand_linear_power, rref
from weightcalc.rootsys import RootSystem, dominant_orbit
from weightcalc.weylsum import (
    FkTable,
    closed_form_FN,
    closed_form_FN2,
    coweyl_denominator,
    coweyl_denominator_at,
    fk_direct,
    fk_evaluated,
    fk_reduced,
    fk_scalar,
    invariant_basis,
    q2_dual_poly,
    q2_poly,
    sigma_involution,
    weyl_denominator,
    weyl_denominator_at,
)
from test_rootsys import reflection_matrix

SMALL = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


def _a_forms(m, r):
    """Images a_i := sum_j m[i][j] * a_j, the action of m on the weight slot."""
    return [BiPoly.a_linear(list(row), ny=r) for row in m]


@pytest.mark.parametrize("kind,rank", SMALL)
def test_low_degree_and_n_plus_one_vanishing(kind, rank):
    rs = get_rs(kind, rank)
    n = rs.num_positive
    for k in range(min(n, 4)):
        assert fk_direct(rs, k).is_zero()
    assert fk_direct(rs, n + 1).is_zero()


@pytest.mark.parametrize(
    "kind,rank,odd_k",
    [("A", 1, 4), ("B", 2, 7), ("G", 2, 9)],
)
def test_parity_vanishing_when_minus_one_in_weyl(kind, rank, odd_k):
    rs = get_rs(kind, rank)
    assert rs.minus_one_in_weyl
    assert (rs.num_positive + odd_k) % 2 == 1
    assert fk_direct(rs, odd_k).is_zero()


@pytest.mark.parametrize("kind,rank", SMALL)
def test_closed_form_fn(kind, rank):
    rs = get_rs(kind, rank)
    assert fk_direct(rs, rs.num_positive) == closed_form_FN(rs)


@pytest.mark.parametrize("kind,rank", SMALL)
def test_closed_form_fn_plus_two(kind, rank):
    rs = get_rs(kind, rank)
    assert fk_direct(rs, rs.num_positive + 2) == closed_form_FN2(rs)


@pytest.mark.parametrize(
    "kind,rank,ks",
    [("A", 2, (3, 5, 6, 7, 8, 9)), ("B", 2, (4, 6, 8)), ("G", 2, (6, 8))],
)
def test_denominator_divides_exactly(kind, rank, ks):
    rs = get_rs(kind, rank)
    dd = weyl_denominator(rs) * coweyl_denominator(rs)
    for k in ks:
        fk = fk_direct(rs, k)
        quotient = fk_reduced(rs, k, fk)  # raises InternalError if inexact
        assert quotient * dd == fk


@pytest.mark.parametrize("kind,rank,k", [("A", 2, 5), ("B", 2, 6)])
def test_sigma_involution_fixes_fk(kind, rank, k):
    rs = get_rs(kind, rank)
    fk = fk_direct(rs, k)
    assert sigma_involution(rs, fk) == fk
    red = fk_reduced(rs, k, fk)
    assert sigma_involution(rs, red) == red


@pytest.mark.parametrize("kind,rank,k", [("A", 2, 3), ("A", 2, 5), ("B", 2, 4), ("B", 2, 6)])
def test_anti_invariance_both_slots(kind, rank, k):
    rs = get_rs(kind, rank)
    fk = fk_direct(rs, k)
    r = rank
    for i in range(r):
        m = reflection_matrix(rs, i)
        # weight slot: a_i carry fundamental coordinates, action matrix M
        assert fk.compose(a_images=_a_forms(m, r)) == -fk
        # coweight slot: y_i carry coroot coordinates, action matrix M^T
        y_images = [
            BiPoly.y_linear([m[j][col] for j in range(r)], na=r) for col in range(r)
        ]
        assert fk.compose(y_images=y_images) == -fk


@pytest.mark.parametrize("kind,rank", SMALL)
def test_simultaneous_weyl_invariance(kind, rank):
    rs = get_rs(kind, rank)
    n = rs.num_positive
    fk = fk_direct(rs, n + 2)
    r = rank
    for i in range(r):
        m = reflection_matrix(rs, i)
        y_images = [
            BiPoly.y_linear([m[j][col] for j in range(r)], na=r) for col in range(r)
        ]
        both = fk.compose(y_images=y_images).compose(a_images=_a_forms(m, r))
        assert both == fk


@pytest.mark.parametrize(
    "kind,rank,kmax",
    # N + 4 on rank 2; N + 2 on A3 and C3, where fk_direct still takes under a second
    [("A", 2, 7), ("B", 2, 8), ("G", 2, 10), ("A", 3, 8), ("C", 3, 11)],
)
def test_fk_via_invariants_matches_direct(kind, rank, kmax):
    # the invariant-fit route is FkTable.build; each F_k from N on matches the orbit sum
    rs = get_rs(kind, rank)
    table = FkTable.build(rs, kmax=kmax)
    for k in range(rs.num_positive, kmax + 1):
        assert table.entries[k] == fk_direct(rs, k), k


@pytest.mark.parametrize(
    "kind,rank,dims",
    [
        ("A", 2, {1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2}),
        ("B", 2, {1: 0, 2: 1, 3: 0, 4: 2, 6: 2}),
        ("G", 2, {2: 1, 4: 1, 6: 2}),
    ],
)
def test_invariant_basis_dimensions(kind, rank, dims):
    rs = get_rs(kind, rank)
    for degree, expected in dims.items():
        basis = invariant_basis(rs, degree)
        assert len(basis) == expected


def _fundamental_degrees(kind, rank):
    """Humphreys, Reflection Groups and Coxeter Groups, Table 3.1."""
    if kind == "A":
        return list(range(2, rank + 2))
    if kind in ("B", "C"):
        return list(range(2, 2 * rank + 1, 2))
    if kind == "D":
        return sorted([*range(2, 2 * rank - 1, 2), rank])
    return [2, 6]


def _invariant_count(kind, rank, degree):
    """Coefficient of t^degree in the product of 1/(1 - t^d) over the degrees."""
    count = [1] + [0] * degree
    for d in _fundamental_degrees(kind, rank):
        for m in range(d, degree + 1):
            count[m] += count[m - d]
    return count[degree]


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_invariant_generators_follow_the_per_kind_degree_table(kind, rank):
    # the degrees are read off the root heights; they must be the table's,
    # in its order, with the half-spin generator of degree r last on D_r
    rs = get_rs(kind, rank)
    if kind == "A":
        degrees = range(2, rank + 2)
    elif kind == "G":
        degrees = (2, 6)
    else:
        degrees = range(2, 2 * rank + (-1 if kind == "D" else 1), 2)
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    vector = dominant_orbit(rs.cartan, unit[0])
    expected = [(d, vector) for d in degrees]
    if kind == "D":
        expected.append((rank, dominant_orbit(rs.cartan, unit[-1])))
    assert weylsum._invariant_generators(rs) == expected


def _reynolds_basis(rs, degree):
    """Reference: the reduced-echelon span of the W-averages of the monomials.

    Averages one monomial at a time, in canonical order, and stops once the
    averages span as many dimensions as the fundamental degrees give.
    """
    r = rs.rank
    monoms = _monomials(r, degree)
    target = _invariant_count(rs.kind[0], r, degree)
    rows = []
    for m in monoms:
        if len(rref(rows)[1]) == target:
            break
        mono = BiPoly(r, r, {(0,) * r + m: 1})
        avg = BiPoly.zero(r, r)
        for w in rs.weyl:
            y_images = [
                BiPoly.y_linear([w.matrix[j][i] for j in range(r)], na=r)
                for i in range(r)
            ]
            avg = avg + mono.compose(y_images=y_images)
        rows.append([Fraction(avg.terms.get((0,) * r + e, 0), len(rs.weyl)) for e in monoms])
    basis_rows, _ = rref(rows)
    return [
        BiPoly(r, r, {(0,) * r + e: c for e, c in zip(monoms, row) if c})
        for row in basis_rows
    ]


@pytest.mark.parametrize(
    "kind,rank",
    [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3), ("D", 4)],
)
def test_invariant_basis_matches_reynolds_reference(kind, rank):
    rs = get_rs(kind, rank)
    for degree in range(7):
        assert invariant_basis(rs, degree) == _reynolds_basis(rs, degree), degree


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_invariant_basis_size_is_fundamental_degree_count(kind, rank):
    rs = get_rs(kind, rank)
    for degree in range(9):
        assert len(invariant_basis(rs, degree)) == _invariant_count(kind, rank, degree)


def test_invariant_basis_members_are_invariant(a2):
    r = 2
    for f in invariant_basis(a2, 3):
        for i in range(r):
            m = reflection_matrix(a2, i)
            y_images = [
                BiPoly.y_linear([m[j][col] for j in range(r)], na=r)
                for col in range(r)
            ]
            assert f.compose(y_images=y_images) == f


def test_fk_evaluated_sections_and_scalars(b2):
    fk = fk_direct(b2, 6)
    for mu in [(1, 1), (2, 1), (3, 2)]:
        assert fk.eval_a(mu) == fk_evaluated(b2, mu, 6)
        for nu in [(1, 1), (1, 2)]:
            assert fk_scalar(b2, mu, nu, 6) == fk.evaluate(mu, nu)


@pytest.mark.parametrize(
    "kind,rank,extra",
    [(kind, rank, extra) for kind, rank in [("A", 2), ("A", 3), ("A", 4), ("D", 3)]
     for extra in (0, 2, 3)] + [("A", 5, 0)],
)
def test_fk_evaluated_opposition_symmetry(kind, rank, extra):
    # -w0 permutes the coordinates by sigma, so the coefficient of y^(sigma e)
    # is (-1)^(N+k) times that of y^e; -1 is not in W on these types
    rs = get_rs(kind, rank)
    k = rs.num_positive + extra
    w0 = next(w for w in rs.weyl if all(sum(row) == -1 for row in w.matrix))
    sigma = [row.index(-1) for row in w0.matrix]
    assert sigma != list(range(rank))
    mu = tuple((-1) ** j * (j * j + 2) for j in range(rank))
    assert all(sum(c * x for c, x in zip(av, mu)) for av in rs.positive_coroots)  # regular
    f = fk_evaluated(rs, mu, k)
    assert not f.is_zero()
    flip = (-1) ** (rs.num_positive + k)
    for e, c in f.terms.items():
        y = e[rank:]
        assert f.terms.get((0,) * rank + tuple(y[j] for j in sigma)) == flip * c
    for _, nu in weylsum._check_points(rs):  # regular coweights
        assert f.evaluate((0,) * rank, nu) == fk_scalar(rs, mu, nu, k) != 0


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_fk_at_delta_matches_the_orbit_sum(kind, rank):
    # powersum's memoised F_{N+i}(delta, nu), i = 0..8, against the Weyl denominator
    # formula, at a regular dominant, a regular negative and a singular integral
    # coweight: F_N = N! * d(nu), F_{N+2} = binom(N+2, 2)/dim g * q2(nu) * q2-vee(delta) * F_N
    # and F_{N+i} = 0 for odd i
    rs = get_rs(kind, rank)
    n, delta, zero = rs.num_positive, (1,) * rank, (0,) * rank
    nu = weylsum._check_points(rs)[0][1]
    c0 = rs.cartan[0]
    singular = (-sum(c0[j] * nu[j] for j in range(1, rank)),) + tuple(2 * x for x in nu[1:])
    assert sum(map(mul, c0, singular)) == 0  # pairs to 0 with the first simple root
    ratio = Fraction(comb(n + 2, 2), rs.dim_g) * q2_dual_poly(rs).evaluate(delta, zero)
    for point, regular in ((nu, True), (tuple(-x for x in nu), True), (singular, False)):
        got = powersum._delta_sums(rs, 8)(point)  # a larger kmax's table holds it as a prefix
        assert powersum._delta_sums(rs, 8)(point) is got  # memoised per point
        assert len(got) >= 9 and got[0] == factorial(n) * weyl_denominator_at(rs, point)
        assert got[2] == ratio * q2_poly(rs).evaluate(zero, point) * got[0]
        assert all(got[i] == 0 for i in range(1, 9, 2))
        assert (got[0] != 0) == regular and (regular or not any(got))


def test_fk_scalar_rejects_coweight_of_wrong_length(a2):
    with pytest.raises(DomainError, match="coweight has 1 coordinates"):
        fk_scalar(a2, (1, 1), (1,), 3)


@pytest.mark.parametrize("kind,rank", [("B", 2), ("D", 4)])
def test_weight_given_as_an_iterator_is_read_once(kind, rank):
    # the check consumed the iterator, and the orbit was then walked from an empty weight
    rs = get_rs(kind, rank)
    (mu, nu), k = weylsum._check_points(rs)[0], rs.num_positive + 2
    assert fk_scalar(rs, iter(mu), iter(nu), k) == fk_scalar(rs, mu, nu, k) != 0
    if rank == 2:
        assert fk_evaluated(rs, iter(mu), k) == fk_evaluated(rs, mu, k)


@pytest.mark.parametrize("bad", [(0.5, 1.0), (True, 1), (1, "2")])
def test_inexact_coordinates_rejected(a2, bad):
    # float round-off would defeat the orbit walk's point dedupe
    with pytest.raises(DomainError, match="weight coordinates must be int or Fraction"):
        fk_scalar(a2, bad, (1, 2), 3)
    with pytest.raises(DomainError, match="weight coordinates must be int or Fraction"):
        fk_evaluated(a2, bad, 3)
    with pytest.raises(DomainError, match="coweight coordinates must be int or Fraction"):
        fk_scalar(a2, (1, 2), bad, 3)


def _matrix_orbit(rs, mu):
    """sum of sign(w) over the w with w mu = p, for each point p, from the Weyl matrices.

    Halved like ``_signed_orbit`` when -1 lies in W; a singular mu cancels to nothing.
    """
    acc = {}
    for w in rs.weyl:
        p = tuple(sum(map(mul, row, mu)) for row in w.matrix)
        acc[p] = acc.get(p, 0) + w.sign
    if rs.minus_one_in_weyl:
        acc = {p: 2 * s for p, s in acc.items() if p > (0,) * rs.rank}
    return {p: s for p, s in acc.items() if s}


def _reflect_down(rs, mu):
    """mu reflected at each simple root in turn: regular if mu is, and not dominant."""
    m = list(mu)
    for i, row in enumerate(rs.cartan):
        mi = m[i]
        m = [x - mi * a for x, a in zip(m, row)]
    return tuple(m)


@pytest.mark.parametrize(
    "kind,rank", [(kind, rank) for kind, rank in all_supported_types() if rank <= 5] + [("D", 6)]
)
def test_signed_walk_matches_matrix_orbit(kind, rank):
    rs = get_rs(kind, rank)
    regular = tuple(range(1, rank + 1))
    halves = tuple(Fraction(2 * j + 1, 2) for j in range(rank))
    singular = (0,) + regular[1:]
    for mu in (regular, _reflect_down(rs, regular), halves, _reflect_down(rs, halves),
               singular, _reflect_down(rs, singular)):
        signs, cols = weylsum._signed_orbit(rs, mu)
        walk = dict(zip(zip(*cols), signs))
        assert len(walk) == len(signs) and walk == _matrix_orbit(rs, mu), mu
        assert {type(c) for col in cols for c in col} <= {type(mu[0])}
    assert min(_reflect_down(rs, regular)) < 0
    assert weylsum._signed_orbit(rs, singular)[0] == []


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_fk_scalar_matches_closed_forms(kind, rank):
    # F_N = N! d(nu) d-vee(mu) / d-vee(delta), F_{N+2} = C(N+2, 2)/dim g q2(nu) q2-vee(mu) F_N
    rs = get_rs(kind, rank)
    n = rs.num_positive
    for mu, nu in weylsum._check_points(rs):
        d, d_vee = weyl_denominator_at(rs, nu), coweyl_denominator_at(rs, mu)
        f_n = Fraction(factorial(n) * d * d_vee, coweyl_denominator_at(rs, (1,) * rank))
        q2 = sum(rs.killing[i][j] * nu[i] * nu[j] for i in range(rank) for j in range(rank))
        q2_vee = sum(rs.killing_dual[i][j] * mu[i] * mu[j] for i in range(rank) for j in range(rank))
        assert fk_scalar(rs, mu, nu, n) == f_n != 0
        assert fk_scalar(rs, mu, nu, n + 2) == Fraction(comb(n + 2, 2), rs.dim_g) * q2 * q2_vee * f_n


@pytest.mark.parametrize("kind,rank", [("A", 2), ("B", 3), ("G", 2)])
def test_check_points_are_searched_once_per_root_system(monkeypatch, kind, rank):
    rs = get_rs(kind, rank)
    points = weylsum._check_points(rs)
    assert type(points) is tuple and len(points) == 2
    assert all(weyl_denominator_at(rs, nu) for _, nu in points)
    calls = []
    monkeypatch.setattr(weylsum, "weyl_denominator_at", lambda *args: calls.append(args))
    assert weylsum._check_points(rs) is points and calls == []


def test_determinants_serve_the_classical_types_they_name():
    # A-D at rank >= 4 and nothing else; a kind the kernel does not name walks the orbit
    routed = {(kind, rank) for kind, rank in all_supported_types()
              if weylsum._by_determinants(get_rs(kind, rank))}
    assert routed == {(kind, rank) for kind in "ABCD" for rank in (4, 5, 6)}
    assert not weylsum._by_determinants(RootSystem("F", 4, *[None] * 7))


@pytest.mark.parametrize("kind,rank", [(kind, rank) for kind in "ABCD" for rank in range(3, 7)])
def test_classical_determinants_equal_the_orbit_sums(monkeypatch, kind, rank):
    """The Cauchy-Binet sums of ``_classical_sums`` equal the signed orbit sums, m = N..N+8.

    Weights: regular, singular, and a spin weight whose coordinates in the
    e_j are half-integers on B and D (D = 2 there), each also reflected at
    every simple root in turn, which multiplies every F_m by (-1)^r.
    Rational points go through ``fk_scalar``, on the determinants at every
    rank.
    """
    rs = get_rs(kind, rank)
    n = rs.num_positive
    ms = [m for m in range(n, n + 9) if not weylsum._vanishes(rs, m)]
    regular = tuple(range(1, rank + 1))
    assert weylsum._vector_coordinates(rs)[0] == (2 if kind in "BD" else 1)
    nus = [tuple(3 * j + 2 for j in range(rank)), tuple((-1) ** j * (j + 2) for j in range(rank))]
    for mu in (regular, (0,) + regular[1:], (2,) * (rank - 1) + (1,)):
        orbit = weylsum._signed_orbit(rs, mu)
        for nu in nus:
            want = weylsum._orbit_power_sums(orbit, nu, ms)
            assert weylsum._classical_sums(rs, weylsum._weight_minors(rs, mu, ms), nu, ms) == want
            reflected = weylsum._weight_minors(rs, _reflect_down(rs, mu), ms)
            assert weylsum._classical_sums(rs, reflected, nu, ms) == [(-1) ** rank * v for v in want]
    monkeypatch.setattr(weylsum, "_by_determinants", lambda rs: True)
    mu, nu = tuple(Fraction(2 * j + 1, 3) for j in range(rank)), tuple(Fraction(j - 4, 2) for j in range(rank))
    want = weylsum._orbit_power_sums(weylsum._signed_orbit(rs, mu), nu, ms)
    assert [fk_scalar(rs, mu, nu, m) for m in ms] == want
    assert any(type(v) is Fraction for v in want)


def test_weyl_denominator_structure(a2):
    d = weyl_denominator(a2)
    dv = coweyl_denominator(a2)
    assert d.a_degree() == 0 and d.y_degree() == a2.num_positive
    assert dv.y_degree() == 0 and dv.a_degree() == a2.num_positive
    assert coweyl_denominator_at(a2, (1, 1)) == dv.evaluate((1, 1), (0, 0))
    # delta evaluation of d-vee equals N! / leading coefficient of dim poly: 2 for A2
    assert coweyl_denominator_at(a2, (1, 1)) == 2


def test_q2_pairing_normalization(a2):
    # frozen sample values: q2 = 12(y1^2 - y1*y2 + y2^2) and its dual is the
    # matrix-inverse quadratic (1/9)(a1^2 + a1*a2 + a2^2)
    q2 = q2_poly(a2)
    q2v = q2_dual_poly(a2)
    assert q2.evaluate((0, 0), (1, 1)) == 12
    assert q2v.evaluate((1, 1), (0, 0)) == Fraction(1, 3)


@pytest.mark.parametrize(
    "kind,rank,kmax",
    [("A", 1, 8), ("A", 2, 6), ("G", 2, 10), ("A", 3, 10), ("B", 3, 11), ("C", 3, 11),
     ("D", 3, 10)],
)
def test_fk_table_build_consistency(kind, rank, kmax):
    rs = get_rs(kind, rank)
    table = FkTable.build(rs, kmax=kmax)
    assert (table.kind, table.rank, table.kmax) == (rs.kind, rank, kmax)
    dd = weyl_denominator(rs) * coweyl_denominator(rs)
    for k in range(kmax + 1):
        assert table.entries[k] == fk_direct(rs, k), k
        assert table.reduced[k] * dd == table.entries[k], k
    # zero shortcuts: below N and at N+1 the stored entry is the zero polynomial
    n = rs.num_positive
    assert table.entries[n - 1].is_zero() and table.entries[n + 1].is_zero()


@pytest.mark.parametrize("kind,rank", [("A", 6), ("B", 6)])
def test_fk_table_below_n_is_zero_without_expanding_d(kind, rank, monkeypatch):
    # d * d-vee alone would run to millions of terms here; every F_k, k <= 5, is zero
    def unbuilt(*args):
        raise AssertionError("a Weyl denominator was built")

    monkeypatch.setattr(weylsum, "weyl_denominator", unbuilt)
    monkeypatch.setattr(weylsum, "coweyl_denominator", unbuilt)
    rs = get_rs(kind, rank)
    table = FkTable.build(rs, kmax=5)
    assert all(table.entries[k].is_zero() and table.reduced[k].is_zero() for k in range(6))


def test_fk_term_budget_is_enforced(monkeypatch):
    rs = get_rs("B", 3)
    monkeypatch.setattr(weylsum, "MAX_TERMS", 200)
    with pytest.raises(DomainError, match="term budget"):
        FkTable.build(rs, kmax=11)


def test_fk_term_budget_refuses_before_the_fit(monkeypatch):
    # at k = N the bound is |d| * |d-vee| = 5453 * 2893, the exact size of F_20 on D5
    def no_fit(*args):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(weylsum, "_fit_reduced", no_fit)
    with pytest.raises(DomainError, match="F_20 of D5 may have 15775529 terms"):
        FkTable.build(get_rs("D", 5), 20)


def _corrupt_sample(monkeypatch, nu_target, k):
    """Add 1 to the Weyl sum of power k at the coweight nu_target in the F'_k fit."""
    exact = weylsum._orbit_power_sums

    def corrupted(orbit, nu, ks):
        return [v + (tuple(nu) == nu_target and m == k) for v, m in zip(exact(orbit, nu, ks), ks)]

    monkeypatch.setattr(weylsum, "_orbit_power_sums", corrupted)


@pytest.mark.parametrize("corrupt", ["first check point", "second check point", "fit point"])
def test_corrupted_fk_sample_is_caught(monkeypatch, corrupt):
    rs, k = get_rs("G", 2), 12  # F'_12 has three unknowns: pairs of p2^3 and p6
    if corrupt == "fit point":
        fit = weylsum._fit_points(rs)
        target, match = (next(fit), next(fit)), "F'_12"
    else:
        target = weylsum._check_points(rs)[0 if corrupt == "first check point" else 1]
        match = "F'_12 invariant fit fails the off-line check"
    _corrupt_sample(monkeypatch, target[1], k)
    with pytest.raises(InternalError, match=match):
        FkTable.build(rs, k)


def test_corrupted_sample_after_the_solve_is_caught(monkeypatch):
    # F'_6 on G2 is one constant, solved at the first pair; the G2 table keeps
    # drawing pairs for F'_12, and each later F'_6 row must still be checked
    rs = get_rs("G", 2)
    fit = weylsum._fit_points(rs)
    second_nu = [next(fit) for _ in range(4)][3]
    _corrupt_sample(monkeypatch, second_nu, 6)
    with pytest.raises(InternalError, match="F'_6 sample values fit no invariant"):
        FkTable.build(rs, 12)


def test_negative_k_rejected(a1, b2):
    with pytest.raises(DomainError):
        fk_direct(a1, -1)
    with pytest.raises(DomainError):
        FkTable.build(a1, kmax=-2)
    with pytest.raises(DomainError, match="k must be nonnegative"):
        fk_evaluated(a1, (2,), -1)
    with pytest.raises(DomainError, match="k must be nonnegative"):
        fk_evaluated(b2, (1, 1), -2)
    with pytest.raises(DomainError, match="k must be nonnegative"):
        fk_scalar(b2, (1, 1), (1, 2), -1)


@pytest.mark.parametrize("bad", [3.5, Fraction(7, 2), True, -1], ids=repr)
def test_degree_arguments_are_nonnegative_ints(a2, bad):
    calls = [
        lambda: fk_scalar(a2, (1, 1), (1, 2), bad),
        lambda: fk_evaluated(a2, (1, 1), bad),
        lambda: fk_direct(a2, bad),
        lambda: fk_reduced(a2, bad),
        lambda: invariant_basis(a2, bad),
        lambda: BiPoly.a_var(0, 2, 2) ** bad,
        lambda: Mod2Poly.one(2) ** bad,
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def _exactness_cases():
    cases = []
    for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                       ("C", 2), ("C", 3), ("D", 3), ("G", 2)]:
        rs = get_rs(kind, rank)
        n = rs.num_positive
        ks = {0, n - 1, n, n + 1, n + 2}
        if rs.minus_one_in_weyl:
            ks.add(n + 3)  # N + k odd: zero by the parity rule
        cases += [(kind, rank, k) for k in sorted(ks)]
    return cases


@pytest.mark.parametrize("kind,rank,k", _exactness_cases())
def test_fk_evaluated_and_scalar_match_direct(kind, rank, k):
    rs = get_rs(kind, rank)
    fk = fk_direct(rs, k)
    dominant = tuple(range(1, rank + 1))
    non_dominant = tuple((-1) ** j * (j + 2) for j in range(rank))
    fractional = tuple(Fraction(2 * j - 1, j + 2) for j in range(rank))
    singular = (1,) + (0,) * (rank - 1)  # repeated orbit points
    nus = [tuple(range(rank, 0, -1)), tuple(Fraction(j - 1, 3) for j in range(rank))]
    for mu in (dominant, non_dominant, fractional, singular, (0,) * rank):
        section = fk_evaluated(rs, mu, k)
        assert section == fk.eval_a(mu)
        if all(isinstance(x, int) for x in mu):
            assert all(type(c) is int for c in section.terms.values())
        for nu in nus:
            assert fk_scalar(rs, mu, nu, k) == fk.evaluate(mu, nu)


def test_kernels_leave_no_reference_cycles(b3):
    gc.collect()
    gc.disable()
    try:
        for k in range(8):
            expand_linear_power((1, -2, 0, 3), k)
        for k in (9, 11, 13):
            fk_evaluated(b3, (1, 2, 3), k)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_fitted_reduced_sums_stay_in_generator_coordinates(d4):
    # F'_k, m = k - N, has at most p_m (p_m + 1) coefficients over the p_m products of degree m
    gens = weylsum._invariant_generators(d4)
    n = d4.num_positive
    fitted = weylsum._fit_reduced(d4, [14, 16, 18])
    for k, f in fitted.items():
        p_m = len(weylsum._invariant_products(d4, gens, k - n))
        assert 0 < len(f.terms) <= p_m * (p_m + 1), k
    assert [len(f.terms) for f in fitted.values()] == [1, 9, 14]
    expanded = weylsum._expand(d4, list(fitted.values()))
    assert [len(f.terms) for _, f in expanded] == [70, 875, 5292]


def test_expansion_writes_out_integer_coefficients(monkeypatch):
    # _expand scales each polynomial to integers before its substitution runs,
    # so no write-out multiplies Fractions
    seen = []
    substitution = weylsum._substitution

    def spied(*images):
        substitute = substitution(*images)

        def spy(f):
            seen.append({type(c) for c in f.terms.values()})
            return substitute(f)
        return spy

    weylsum._EXPANSIONS.clear()  # built again below, through the spy
    monkeypatch.setattr(weylsum, "_substitution", spied)
    try:
        powersum.symbolic_power_sums(get_rs("A", 2), 4)
        FkTable.build(get_rs("B", 3), 11)
        powersum.power_sums(get_rs("B", 3), (1, 0, 0), 6)
    finally:
        weylsum._EXPANSIONS.clear()
    assert len(seen) > 10 and set().union(*seen) == {int}


def test_expansions_share_each_generator_image(monkeypatch):
    # each generator is expanded once per root system and shift, whatever set of
    # generators a later call uses: B4 w1 at kmax 2, 4, 6 expands 8, 8 and 8 more
    # orbit powers (48 in all when each set of generators expanded its own)
    b4, calls = get_rs("B", 4), []

    def counted(coeffs, k):
        calls.append((tuple(coeffs), k))
        return expand_linear_power(coeffs, k)

    weylsum._EXPANSIONS.clear()
    weylsum._generator_image.cache_clear()
    monkeypatch.setattr(weylsum, "expand_linear_power", counted)
    try:
        for kmax in (2, 4, 6):
            powersum.power_sums(b4, (1, 0, 0, 0), kmax)
    finally:
        weylsum._EXPANSIONS.clear()
        weylsum._generator_image.cache_clear()
    assert len(calls) == 24 and len(set(calls)) == 24


_EXPANSION_NAMES = {"compose", "_substitution", "expand_linear_power"}


def _calls(source: str, names) -> list[str]:
    """The function of each call of a name in ``names``, bare or as a method, one entry per call."""
    return sorted(
        func.name for func in ast.walk(ast.parse(source)) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    )


def test_only_the_expansion_writes_out_generator_coordinates():
    # weylsum: only the expansion helpers substitute or expand powers, besides the references
    weylsum_source = Path(weylsum.__file__).read_text(encoding="utf-8")
    assert set(_calls(weylsum_source, _EXPANSION_NAMES)) == {
        "_expansion", "_generator_image", "fk_direct", "sigma_involution"}
    # powersum: no substitution on an expanded polynomial, one eval_a on generator form
    powersum_source = Path(powersum.__file__).read_text(encoding="utf-8")
    assert _calls(powersum_source, {"compose", "translate_a"}) == []
    assert _calls(powersum_source, {"eval_a"}) == ["symbolic_power_sums"]
    # the checks find a planted breach of either rule
    planted = ("def fit(f, images):\n"
               "    return f.compose(y_images=images)\n"
               "def solve(fs, at):\n"
               "    return [f.eval_a(at) for f in fs] + [fs[0].eval_a(at)]\n")
    assert _calls(planted, _EXPANSION_NAMES) == ["fit"]
    assert _calls(planted, {"eval_a"}) == ["solve", "solve"]


def test_classical_sums_refuse_an_inexact_quotient(monkeypatch):
    # every sum of products of minors is D^m times an integer; a wrong D leaves a remainder
    rs = get_rs("B", 4)
    den, rows = weylsum._vector_coordinates(rs)
    mu, nu = weylsum._check_points(rs)[0]
    assert fk_scalar(rs, mu, nu, 16) != 0
    monkeypatch.setattr(weylsum, "_vector_coordinates", lambda rs: (1009 * den, rows))
    with pytest.raises(InternalError, match=re.escape(f"B4: F_16 at {nu} is not an integer")):
        fk_scalar(rs, mu, nu, 16)
