"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Every check is exact (integer / rational arithmetic); there are no tolerances.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from conftest import bernoulli_poly_at, dominant_grid, get_rs
from weightcalc.charclass import (
    PiSpec,
    builtin_lattice,
    chern2_closed,
    chern_classes,
    lattice_orthogonality_type,
    swc_restrict,
    total_swc_factorization,
)
from weightcalc.oracle import (
    character_at_order2,
    oracle_elementary,
    oracle_power_sum,
    schur_at_signs,
    weight_multiplicities,
)
from weightcalc.polyalg import BiPoly, Mod2Poly
from weightcalc.powersum import (
    elementary_from_power,
    power_sums,
    symbolic_power_sums,
)
from weightcalc.rootsys import build_root_system, highest_root
from weightcalc.weylsum import (
    coweyl_denominator,
    fk_direct,
    q2_dual_poly,
    q2_poly,
    weyl_denominator,
)

ORACLE_GUARD = 500000  # the rank-3 grid peaks at dimension 262144

GRID_TYPES = [
    ("A", 1), ("A", 2), ("A", 3),
    ("B", 2), ("B", 3),
    ("C", 2), ("C", 3),
    ("D", 3), ("G", 2),
]

SIMPLY_CONNECTED = {
    ("A", 1): "SL2", ("A", 2): "SL3", ("A", 3): "SL4",
    ("B", 2): "Spin5", ("B", 3): "Spin7",
    ("C", 2): "Sp4", ("C", 3): "Sp6",
    ("D", 3): "Spin6", ("G", 2): "G2",
}


def acceptance(num: int, desc: str):
    """Print exactly one ACCEPTANCE line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num:02d}: PASS - {desc}")

        return wrapper

    return deco


@lru_cache(maxsize=None)
def _grid_data(kind: str, rank: int):
    """Engine power sums and elementary symmetric functions, k <= 6, coords <= 3."""
    rs = get_rs(kind, rank)
    out = {}
    for lam in dominant_grid(rank, 3):
        p = tuple(power_sums(rs, lam, 6))
        e = tuple(elementary_from_power(list(p), 6))
        out[lam] = (p, e)
    return out


# -- 1: the A2 table of alternating-sum closed forms ------------------------------


@acceptance(1, "A2 alternating Weyl sums match the seven invariant-product closed forms")
def test_criterion_01_a2_closed_form_table():
    rs = get_rs("A", 2)
    d = weyl_denominator(rs)
    dv = coweyl_denominator(rs)
    q2 = q2_poly(rs)
    q2v = q2_dual_poly(rs)
    # the cubic invariants, pinned to this package's normalization of the
    # quadratic pair (q2, q2v); both sides are polynomials in mu (a-vars)
    # and nu (y-vars)
    q3 = BiPoly(2, 2, {(0, 0, 2, 1): 216, (0, 0, 1, 2): -216})
    q3v = BiPoly(2, 2, {
        (3, 0, 0, 0): Fraction(2, 27),
        (2, 1, 0, 0): Fraction(1, 9),
        (1, 2, 0, 0): Fraction(-1, 9),
        (0, 3, 0, 0): Fraction(-2, 27),
    })
    f3 = fk_direct(rs, 3)
    assert f3 == (dv * d).scale(3)
    assert fk_direct(rs, 4).is_zero()
    assert fk_direct(rs, 5) == (q2 * q2v * f3).scale(Fraction(5, 4))
    assert fk_direct(rs, 6) == (q3 * q3v * f3).scale(Fraction(1, 8))
    assert fk_direct(rs, 7) == (q2 * q2 * q2v * q2v * f3).scale(Fraction(21, 16))
    assert fk_direct(rs, 8) == (q2 * q2v * q3 * q3v * f3).scale(Fraction(1, 4))
    bracket = (
        (q2 ** 3 * q2v ** 3).scale(85)
        - (q2 ** 3 * q3v ** 2 + q3 ** 2 * q2v ** 3)
        + q3 ** 2 * q3v ** 2
    )
    assert fk_direct(rs, 9) == (bracket * f3).scale(Fraction(1, 64))


# -- 2: rank-1 Bernoulli law ---------------------------------------------------------


@acceptance(2, "rank-1 power sums follow the Bernoulli-polynomial law for l <= 20")
def test_criterion_02_rank1_bernoulli_law():
    rs = get_rs("A", 1)
    for ell in range(21):
        p = power_sums(rs, (ell,), 8)
        for k in (0, 2, 4, 6, 8):
            coeff = Fraction(2 ** (k + 1), k + 1) * bernoulli_poly_at(
                k + 1, Fraction(ell + 2, 2)
            )
            expected = BiPoly(1, 1, {(0, k): coeff} if coeff else {})
            assert p[k] == expected, (ell, k)


# -- 3: adjoint identity ------------------------------------------------------------


@acceptance(3, "adjoint second power sum equals the invariant quadratic form")
def test_criterion_03_adjoint_power_sum():
    for kind, rank in [
        ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
    ]:
        rs = get_rs(kind, rank)
        adjoint = highest_root(rs)
        assert power_sums(rs, adjoint, 2)[2] == q2_poly(rs), (kind, rank)


# -- 4: half-sum normalization across every supported type ----------------------------


@acceptance(4, "24 * dual quadratic at the half-sum point equals dim g, all types")
def test_criterion_04_half_sum_normalization():
    from conftest import all_supported_types

    for kind, rank in all_supported_types():
        rs = get_rs(kind, rank)
        delta = (1,) * rank
        value = q2_dual_poly(rs).evaluate(delta, (0,) * rank)
        assert 24 * value == rs.dim_g, (kind, rank)


# -- 5: oracle equivalence grid --------------------------------------------------------


@acceptance(5, "engine == brute-force oracle on the full rank <= 3 grid, k <= 6")
def test_criterion_05_oracle_equivalence_grid():
    for kind, rank in GRID_TYPES:
        rs = get_rs(kind, rank)
        data = _grid_data(kind, rank)
        for lam, (p, e) in data.items():
            wm = weight_multiplicities(rs, lam, max_dim=ORACLE_GUARD)
            oe = oracle_elementary(wm, 6)
            for k in range(7):
                assert p[k] == oracle_power_sum(wm, k), (kind, rank, lam, k)
                assert e[k] == oe[k], (kind, rank, lam, k)


# -- 6: symbolic degree bounds and parity ----------------------------------------------


@acceptance(6, "symbolic degree bounds and odd-degree vanishing hold for A1, A2, B2")
def test_criterion_06_symbolic_degree_bounds():
    for kind, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = get_rs(kind, rank)
        n = rs.num_positive
        p = symbolic_power_sums(rs, 6)
        e = elementary_from_power(p, 6)
        for k in range(7):
            assert p[k].a_degree() <= n + k, (kind, rank, k)
            assert e[k].a_degree() <= (k // 2) * n + k, (kind, rank, k)
        if rs.minus_one_in_weyl:
            for k in (1, 3, 5):
                assert p[k].is_zero(), (kind, rank, k)


# -- 7: Chern golden values -------------------------------------------------------------


@acceptance(7, "Chern golden values for SL2, PGL2, GL2; closed-form c2 across the grid")
def test_criterion_07_chern_golden_values():
    sl2 = builtin_lattice("SL2")
    for ell in range(21):
        res = chern_classes(sl2, (ell,), 2)
        assert res.c[2] == BiPoly(1, 0, {(2,): -comb(ell + 2, 3)} if ell else {}), ell

    pgl2 = builtin_lattice("PGL2")
    for ell in range(0, 21, 2):
        res = chern_classes(pgl2, (ell,), 4)
        c2 = -Fraction(comb(ell + 2, 3), 4)
        c4 = Fraction(comb(ell + 2, 5) * (5 * ell + 12), 48)
        assert res.c[2] == BiPoly(1, 0, {(2,): c2} if c2 else {}), ell
        assert res.c[4] == BiPoly(1, 0, {(4,): c4} if c4 else {}), ell

    gl2 = builtin_lattice("GL2")
    for m in range(6):
        for n in range(m + 1):
            res = chern_classes(gl2, (m, n), 2)
            s1 = Fraction((m - n + 1) * (m + n), 2)
            a = Fraction((m - n + 1) * (m - n) * (m + n) ** 2, 8) - Fraction(
                comb(m - n + 2, 3), 4
            )
            b = Fraction((m - n + 1) * (m - n) * (m + n) ** 2, 4) + Fraction(
                comb(m - n + 2, 3), 2
            )
            expected1 = {(1, 0): s1, (0, 1): s1} if s1 else {}
            expected2 = {}
            if a:
                expected2[(2, 0)] = expected2[(0, 2)] = a
            if b:
                expected2[(1, 1)] = b
            assert res.c[1] == BiPoly(2, 0, expected1), (m, n)
            assert res.c[2] == BiPoly(2, 0, expected2), (m, n)

    for key, group in SIMPLY_CONNECTED.items():
        lat = builtin_lattice(group)
        for lam in dominant_grid(key[1], 3):
            assert chern2_closed(lat, lam) == chern_classes(lat, lam, 3).c[2], (group, lam)


# -- 8: Stiefel-Whitney golden values -----------------------------------------------------


@acceptance(8, "Stiefel-Whitney residue tables for PGL2 and the SL2/SL3 golden values")
def test_criterion_08_swc_golden_values():
    pgl2 = builtin_lattice("PGL2")
    vb2 = Mod2Poly(1, [(2,)])
    vb4 = Mod2Poly(1, [(4,)])
    for ell in range(0, 33, 2):
        res = swc_restrict(pgl2, (ell,), 4)
        if ell % 8 in (0, 6):
            assert res.w[2].is_zero(), ell
        else:  # ell % 8 in (2, 4)
            assert res.w[2] == vb2, ell
        if ell % 16 in (0, 2, 4, 14):
            assert res.w[4].is_zero(), ell
        else:  # ell % 16 in (6, 8, 10, 12)
            assert res.w[4] == vb4, ell

    sl2 = builtin_lattice("SL2")
    for ell in range(0, 21, 2):
        res = swc_restrict(sl2, (ell,), 4)
        assert res.w[2].is_zero() and res.w[4].is_zero(), ell

    doubled = swc_restrict(sl2, PiSpec((1,), s_wrap=True), 4)
    assert doubled.w[4] == Mod2Poly(1, [(4,)])

    adjoint = swc_restrict(builtin_lattice("SL3"), (1, 1), 4)
    assert adjoint.w[4] == Mod2Poly(2, [(4, 0), (0, 4), (2, 2)])


# -- 9: factorization consistency -----------------------------------------------------------


@acceptance(9, "total-class factorization matches the restriction; exponent laws hold")
def test_criterion_09_factorization_consistency():
    cases = []
    sl2 = builtin_lattice("SL2")
    for ell in range(11):
        cases.append((sl2, PiSpec((ell,), s_wrap=(ell % 2 == 1))))
    sl3 = builtin_lattice("SL3")
    for m in range(5):
        for n in range(5):
            cases.append((sl3, PiSpec((m, n), s_wrap=(m != n))))
    sp4 = builtin_lattice("Sp4")
    cases.append((sp4, PiSpec((2, 0), s_wrap=False)))

    for lat, spec in cases:
        fac = total_swc_factorization(lat, spec, 6)
        ref = swc_restrict(lat, spec, 6)
        assert fac.w == ref.w, (lat.name, spec)
        # SL2, SL3 and Sp4 are simply connected: every exponent is even
        assert all(m % 2 == 0 for m in fac.total_factorization), (lat.name, spec)

    for n in range(7):
        fac = total_swc_factorization(sl3, (n, n), 2)
        if n % 2 == 1:
            expected = (n + 1) ** 3 // 4
        else:
            expected = n * (n + 1) * (n + 2) // 4
        assert fac.total_factorization == (expected, expected), n


# -- 10: signed symmetric-function values ------------------------------------------------------


@acceptance(10, "signed complete-homogeneous values and Schur/character agreement")
def test_criterion_10_signed_schur_values():
    # h_p at three +1 values counts monomials in three variables; with minus
    # signs present the count telescopes.  The sign argument order is
    # (a_minus, b_plus): the stated value floor(p/2)+1 is the one-minus-sign
    # evaluation h_p(-1, 1, 1) for every p; with two minus signs the same
    # magnitude appears with an alternating sign.
    for p in range(21):
        assert schur_at_signs((p,), 0, 3) == comb(p + 2, 2), p
        assert schur_at_signs((p,), 1, 2) == p // 2 + 1, p
        assert schur_at_signs((p,), 2, 1) == (-1) ** p * (p // 2 + 1), p

    for rank in (2, 3):
        rs = get_rs("A", rank)
        lat = builtin_lattice(f"SL{rank + 1}")
        for combo in combinations_with_replacement(range(7), rank):
            part = tuple(sorted(combo, reverse=True))
            weight = tuple(
                part[j] - (part[j + 1] if j + 1 < rank else 0) for j in range(rank)
            )
            wm = weight_multiplicities(rs, weight, max_dim=ORACLE_GUARD)
            for i in range(rank + 1):
                signs = tuple(-1 if j < i else 1 for j in range(rank))
                a_minus = i + (i % 2)
                chi = character_at_order2(wm, signs, basis=lat.basis)
                assert chi == schur_at_signs(part, a_minus, rank + 1 - a_minus), (part, i)


# -- 11: fourth elementary symmetric at l = 4 ----------------------------------------------------


@acceptance(11, "E4 at l=4 is 64*mu0^4: the (5l+12) coefficient, not the (5l+2) variant")
def test_criterion_11_quartic_adjudication():
    rs = get_rs("A", 1)
    e4 = elementary_from_power(power_sums(rs, (4,), 4), 4)[4]
    law = Fraction(comb(4 + 2, 5) * (5 * 4 + 12), 3)  # = 64
    variant = Fraction(comb(4 + 2, 5) * (5 * 4 + 2), 3)  # = 44: inconsistent
    assert law == 64 and variant == 44
    assert e4 == BiPoly(1, 1, {(0, 4): 64})
    assert e4 != BiPoly(1, 1, {(0, 4): variant})


# -- 12: triviality detectors ---------------------------------------------------------------------


@acceptance(12, "even power sums and c2 vanish exactly at the zero weight across the grid")
def test_criterion_12_triviality_detectors():
    for (kind, rank), group in SIMPLY_CONNECTED.items():
        lat = builtin_lattice(group)
        data = _grid_data(kind, rank)
        zero = (0,) * rank
        for lam, (p, _) in data.items():
            for k in (2, 4, 6):
                assert p[k].is_zero() == (lam == zero), (kind, rank, lam, k)
            assert chern2_closed(lat, lam).is_zero() == (lam == zero), (kind, rank, lam)
