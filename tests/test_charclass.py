"""Chern / Stiefel-Whitney classes, spinoriality, and total-class factorization."""

from __future__ import annotations

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dominant_grid, gen_poly, get_rs, naive_compose
from weightcalc import charclass, powersum, weylsum
from weightcalc.charclass import (
    PiSpec,
    builtin_lattice,
    builtin_lattice_names,
    chern2_closed,
    chern_classes,
    is_spinorial,
    lattice_contains,
    lattice_orthogonality_type,
    orthogonality_type,
    swc_restrict,
    total_swc_factorization,
)
from weightcalc.errors import DomainError, InternalError
from weightcalc.oracle import (DEFAULT_MAX_DIM, character_at_order2,
                              weight_multiplicities)
from weightcalc.polyalg import BiPoly, Mod2Poly, invert
from weightcalc.powersum import elementary_from_power, power_sums, product_power_sums, weyl_dimension
from weightcalc.rootsys import dominant_representative, highest_root
from weightcalc.weylsum import q2_poly


# -- built-in lattices --------------------------------------------------------------


def test_builtin_names_round_trip():
    names = builtin_lattice_names()
    for expected in ("SL2", "SL7", "PGL2", "GL5", "Sp8", "SO5", "SO12", "Spin7", "G2"):
        assert expected in names
    assert "SO4" not in names and "Sp2" not in names
    for name in names:
        lat = builtin_lattice(name)
        assert lat.name == name
        assert len(lat.basis) == lat.torus_rank == len(lat.gen_names) == len(lat.v_names)


def test_unknown_group_rejected():
    # names that are not a str among them, before the memo can hash them
    for bad in ("SO4", "SL9", "E8", "PGL3", "", 3, None, b"SL3", ["SL3"]):
        with pytest.raises(DomainError, match="unknown group name"):
            builtin_lattice(bad)


def test_builtin_lattice_is_memoized_by_display_name():
    assert builtin_lattice(" sl-3") is builtin_lattice("SL3")
    assert builtin_lattice("spin_7") is builtin_lattice("Spin7")


@pytest.mark.parametrize("group", [g for g in builtin_lattice_names()
                                   if builtin_lattice(g).family in ("SL", "Sp", "SO")])
def test_generators_are_weights_of_the_vector_representation(group):
    # read off the oracle's multisets, independent of how the generators are built; the
    # negatives are weights of the dual, the same representation except for SL
    lat = builtin_lattice(group)
    rs = lat.root_system()
    omega1 = (1,) + (0,) * (lat.rank - 1)
    dual = dominant_representative(rs, [-x for x in omega1])
    assert (dual == omega1) == (lat.family != "SL" or lat.rank == 1)
    weights = weight_multiplicities(rs, omega1).expanded()
    dual_weights = weight_multiplicities(rs, dual).expanded()
    for row in lat.basis:
        assert row in weights and tuple(-x for x in row) in dual_weights, row


def _builtin_lattice_callers(source: str) -> list[str]:
    """Functions that call ``builtin_lattice``."""
    return sorted({
        func.name for func in ast.walk(ast.parse(source)) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "builtin_lattice"
    })


def test_no_charclass_function_calls_builtin_lattice():
    # every lattice is read through its own data, not through another built-in one
    source = Path(charclass.__file__).read_text(encoding="utf-8")
    assert _builtin_lattice_callers(source) == []
    # the check itself finds a call
    assert _builtin_lattice_callers(
        "def detour(n):\n"
        "    return builtin_lattice(f'SL{n}').basis\n"
        "def fine(lat):\n"
        "    return lat.basis\n"
    ) == ["detour"]


def test_lattice_membership():
    pgl2 = builtin_lattice("PGL2")
    assert lattice_contains(pgl2, (2,)) and lattice_contains(pgl2, (0,))
    assert not lattice_contains(pgl2, (3,))
    so5 = builtin_lattice("SO5")
    assert lattice_contains(so5, (1, 0)) and lattice_contains(so5, (0, 2))
    assert not lattice_contains(so5, (0, 1))  # the spin weight needs the double cover
    spin5 = builtin_lattice("Spin5")
    assert lattice_contains(spin5, (0, 1))
    sl2 = builtin_lattice("SL2")
    assert all(lattice_contains(sl2, (ell,)) for ell in range(5))


@pytest.mark.parametrize("group", ["SL3", "SO5", "GL3"])
@pytest.mark.parametrize("bad", [0.5, 1.0, "1", True, Fraction(2)], ids=repr)
def test_lattice_membership_refuses_coordinates_that_are_not_ints(group, bad):
    lat = builtin_lattice(group)
    rest = (0,) * (lat.torus_rank - 1)
    assert lattice_contains(lat, (2,) + rest)  # an int weight in every one of them
    assert lattice_contains(lat, (bad,) + rest) is False
    assert lattice_contains(lat, rest + (bad,)) is False


def _fraction_coordinates(lat, mu):
    """Reference: c = (basis^-1)^T mu in Fractions, None unless every entry is integral."""
    binv = invert(lat.basis)
    r = lat.torus_rank
    c = [sum(binv[j][i] * mu[j] for j in range(r)) for i in range(r)]
    return tuple(int(x) for x in c) if all(x.denominator == 1 for x in c) else None


@pytest.mark.parametrize("group", [g for g in builtin_lattice_names()
                                   if builtin_lattice(g).family != "GL"])
def test_generator_coordinates_match_the_fraction_inverse(group):
    lat = builtin_lattice(group)
    r = lat.rank
    span = range(-3, 4) if r <= 2 else range(-2, 3) if r <= 4 else range(-1, 2)
    found = []
    for mu in itertools.product(span, repeat=r):
        got = charclass._generator_coordinates(lat, mu)
        assert got == _fraction_coordinates(lat, mu), mu
        assert got is None or all(type(x) is int for x in got)
        found.append(got is not None)
    assert any(found)
    # exactly the lattices with a denominator have weights off the lattice
    assert all(found) == (charclass._generator_images(lat)[1] == 1)


# -- Chern classes ------------------------------------------------------------------


def test_gl2_standard_chern():
    res = chern_classes(builtin_lattice("GL2"), (1, 0), 2)
    assert res.degree == 2
    assert res.c[1] == gen_poly(2, {(1, 0): 1, (0, 1): 1})
    assert res.c[2] == gen_poly(2, {(1, 1): 1})


def test_g2_adjoint_chern2():
    res = chern_classes(builtin_lattice("G2"), (0, 1), 2)
    assert res.degree == 14
    assert res.c[2] == gen_poly(2, {(2, 0): -24, (1, 1): 24, (0, 2): -8})


def test_spin5_spin_chern2():
    res = chern_classes(builtin_lattice("Spin5"), (0, 1), 2)
    assert res.degree == 4
    assert res.c[2] == gen_poly(2, {(2, 0): -1, (1, 1): 2, (0, 2): -2})


def test_sp4_standard_chern():
    res = chern_classes(builtin_lattice("Sp4"), (1, 0), 2)
    assert res.degree == 4
    assert res.c[1].is_zero()
    assert res.c[2] == gen_poly(2, {(2, 0): -1, (0, 2): -1})


def test_doubled_form_degree_and_chern():
    # std + dual of SL2: weights {e, -e, e, -e}
    res = chern_classes(builtin_lattice("SL2"), PiSpec((1,), s_wrap=True), 4)
    assert res.degree == 4
    assert res.c[0] == gen_poly(1, {(0,): 1})
    assert res.c[1].is_zero() and res.c[3].is_zero()
    assert res.c[2] == gen_poly(1, {(2,): -2})
    assert res.c[4] == gen_poly(1, {(4,): 1})
    # the dual's weights are the negated ones, so the doubled multiset has the
    # power sums P_k * (1 + (-1)^k); GL3 (1,0,0) has central character 1, GL4
    # (1,0,0,-1) has 0
    for group, weight in [("SL2", (1,)), ("SL3", (1, 0)), ("Sp4", (1, 0)), ("GL3", (1, 0, 0)),
                          ("GL4", (1, 0, 0, -1))]:
        lat = builtin_lattice(group)
        res = chern_classes(lat, PiSpec(weight, s_wrap=True), 6)
        assert res.degree == 2 * chern_classes(lat, weight, 0).degree, group
        power = [_fraction_to_generators(lat, p).scale(1 + (-1) ** k)
                 for k, p in enumerate(_fraction_route_power(lat, weight, 6))]
        assert [c.terms for c in res.c] == [e.terms for e in elementary_from_power(power, 6)], \
            group


@pytest.mark.parametrize("group,top", [("SL3", 2), ("SL4", 1), ("GL3", 1), ("GL4", 1),
                                       ("Sp4", 2), ("SO5", 2), ("SO6", 1)])
def test_doubled_form_is_the_full_convolution(group, top):
    # c(pi) c(pi*) with every product c_i(pi) c_(k-i)(pi*) formed, c_i(pi*) = (-1)^i c_i(pi)
    lat = builtin_lattice(group)
    n = lat.torus_rank
    if lat.family == "GL":
        grid = [sorted(w, reverse=True) for w in itertools.product(range(-top, top + 2), repeat=n)]
    else:
        grid = dominant_grid(n, top)
    for weight in sorted({tuple(w) for w in grid if any(w) and lattice_contains(lat, w)}):
        plain = chern_classes(lat, weight, 6).c
        dual = [c.scale((-1) ** k) for k, c in enumerate(plain)]
        full = [sum((plain[i] * dual[k - i] for i in range(1, k + 1)), start=plain[0] * dual[k])
                for k in range(7)]
        doubled = chern_classes(lat, PiSpec(weight, True), 6).c
        assert [c.terms for c in doubled] == [c.terms for c in full], (group, weight)


@pytest.mark.parametrize("call", [
    lambda lat, pi: chern_classes(lat, pi, 2),
    lambda lat, pi: swc_restrict(lat, pi, 2),
    lambda lat, pi: is_spinorial(lat, pi),
    lambda lat, pi: total_swc_factorization(lat, pi, 2),
], ids=["chern_classes", "swc_restrict", "is_spinorial", "total_swc_factorization"])
@pytest.mark.parametrize("s_wrap", ["no", 1, 0, None], ids=repr)
def test_s_wrap_must_be_a_bool(call, s_wrap):
    # unchecked, a truthy "no" would pick the doubled form and 1 would come back in the result
    with pytest.raises(DomainError, match="s_wrap must be True or False"):
        call(builtin_lattice("SL3"), PiSpec((1, 1), s_wrap))


@pytest.mark.parametrize(
    "group,weight",
    [("SL3", (1, 1)), ("Sp4", (1, 0)), ("Spin7", (0, 0, 1)), ("G2", (1, 0)), ("SO5", (1, 0))],
)
def test_chern2_closed_form_matches(group, weight):
    lat = builtin_lattice(group)
    # at kmax 3 the Weyl sums give P_2, so this compares them with the closed form
    assert chern2_closed(lat, weight) == chern_classes(lat, weight, 3).c[2]
    with pytest.raises(DomainError, match="plain weight"):  # not the doubled form's c_2
        chern2_closed(lat, PiSpec(weight, True))


def test_degree_two_queries_run_no_weyl_sum(monkeypatch):
    # P_0..P_2 are closed forms: at k <= 2 no alternating sum, F_k, fit or solve runs,
    # on the adjoint weight of every lattice and on the vector weights of the bench tail
    cases = [(lat, (1,) + (0,) * (lat.torus_rank - 2) + (-1,) if lat.family == "GL"
              else highest_root(lat.root_system()))
             for lat in map(builtin_lattice, builtin_lattice_names())]
    cases += [(builtin_lattice(g), (1, 0, 0, 0, 0)) for g in ("SL6", "SO10", "Spin11")]
    want = [chern_classes(lat, w, 3).c[:3] for lat, w in cases]
    power = [power_sums(lat.root_system(), w, 3)[:3]
             for lat, w in cases if lat.family != "GL"]

    def refuse(*args):
        raise AssertionError("a Weyl sum ran")

    for module, name in [(weylsum, "_alternating_sums"), (weylsum, "_fit_invariants"),
                         (powersum, "_alternating_sums"), (powersum, "_fit_invariants"),
                         (powersum, "fk_evaluated"), (powersum, "_triangular_solve")]:
        monkeypatch.setattr(module, name, refuse)
    assert [chern_classes(lat, w, 2).c for lat, w in cases] == want
    assert [power_sums(lat.root_system(), w, 2)
            for lat, w in cases if lat.family != "GL"] == power
    for (lat, w), c in zip(cases, want):
        if lattice_orthogonality_type(lat, w) == "orthogonal":
            assert is_spinorial(lat, w).c2 == c[2], lat.name


@given(
    st.sampled_from(["SL2", "SL3", "PGL2", "Sp4", "SO5", "Spin5", "G2"]),
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)),
)
def test_chern_integrality(group, pair):
    lat = builtin_lattice(group)
    weight = pair[: lat.rank]
    if not lattice_contains(lat, weight):
        with pytest.raises(DomainError):
            chern_classes(lat, weight, 3)
        return
    res = chern_classes(lat, weight, 3)
    for f in res.c:
        assert all(
            isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
            for _, c in f.sorted_terms()
        )


def test_chern_rejects_bad_weights():
    with pytest.raises(DomainError, match="weight not in character lattice"):
        chern_classes(builtin_lattice("PGL2"), (3,))
    with pytest.raises(DomainError):
        chern_classes(builtin_lattice("SL2"), (-1,))
    with pytest.raises(DomainError, match="nonincreasing"):
        chern_classes(builtin_lattice("GL2"), (-1, 1))


# -- change to lattice generators -----------------------------------------------------


def _fraction_to_generators(lat, f):
    """Reference: substitute the rational rows of the inverse basis directly."""
    if lat.family == "GL":
        # diagonal coordinates -> the differences w_j - w_(j+1), then the sum
        n = lat.torus_rank
        diff_sum = [[int(i == j) - int(i == j + 1) for i in range(n)] for j in range(n - 1)]
        rinv = invert(diff_sum + [[1] * n])
        rows = [[rinv[m][j] for m in range(n)] for j in range(n)]
    else:
        rows = invert(lat.basis)
    zero = BiPoly.zero(lat.torus_rank, 0)
    images = [BiPoly.a_linear(list(row), ny=0) for row in rows]
    return naive_compose(f, a_images=[zero] * f.na, y_images=images[:f.ny])


def _two_lattice_weights(lat):
    """Two nonzero dominant lattice weights of small dimension."""
    if lat.family == "GL":
        n = lat.torus_rank
        return [(1,) + (0,) * (n - 1), (1,) + (0,) * (n - 2) + (-1,)]
    rs = lat.root_system()
    grid = [lam for lam in dominant_grid(lat.rank, 4 if lat.rank == 1 else 2) if any(lam) and lattice_contains(lat, lam)]
    return sorted(grid, key=lambda lam: (weyl_dimension(rs, lam), lam))[:2]


def _fraction_route_power(lat, weight, kmax):
    """P_0..P_kmax of the weight multiset as y-polynomials, before any change of variables."""
    if lat.family != "GL":
        return power_sums(lat.root_system(), weight, kmax)
    n = lat.torus_rank
    lbar, s = tuple(weight[i] - weight[i + 1] for i in range(n - 1)), sum(weight)
    free = [f.embed(n, n) for f in power_sums(get_rs("A", n - 1), lbar, kmax)]
    central = [BiPoly.y_var(n - 1, n, n).scale(s) ** j for j in range(kmax + 1)]
    return product_power_sums(free, central, kmax)


@pytest.mark.parametrize("group", builtin_lattice_names())
def test_integer_generator_change_matches_fraction_route(group):
    # chern_classes maps each P_k of the root system, in its own ring, to the generators
    # at the first r integer rows, which scales it by D^k; the reference substitutes the
    # rational rows into the y-side E_k, and into the P_k themselves
    lat = builtin_lattice(group)
    rs, r = lat.root_system(), lat.rank
    d = charclass._generator_images(lat)[1]
    seen = []  # (polynomial of the root system's ring, its reference image)
    for weight in _two_lattice_weights(lat):
        elem = elementary_from_power(_fraction_route_power(lat, weight, 6), 6)
        assert [c.terms for c in chern_classes(lat, weight, 6).c] == \
            [_fraction_to_generators(lat, e).terms for e in elem]
        power = power_sums(rs, charclass._root_coordinates(lat, weight)[:r], 6)
        seen += [(f, _fraction_to_generators(lat, f)) for f in power]
    y1, yr = BiPoly.y_var(0, r, r), BiPoly.y_var(r - 1, r, r)
    others = [BiPoly.constant(r, r, Fraction(7, 4)), BiPoly.zero(r, r), (y1 ** 3).scale(4),
              (yr * yr).scale(Fraction(1, 3)) - (y1 * yr).scale(Fraction(5, 2))]
    if lat.family != "GL":
        others.append(q2_poly(rs))  # the substitution c_2's closed form uses
    seen += [(f, _fraction_to_generators(lat, f)) for f in others]
    for f, ref in seen:  # homogeneous, so one power of D scales each
        k = max(map(sum, f.terms), default=0)
        assert charclass._scaled_to_generators(lat, f).scale(Fraction(1, d ** k)).terms == \
            ref.terms


def test_generator_change_refuses_exponents_wider_than_the_packing():
    # the substitution kernel packs 16 bits per exponent
    lat = builtin_lattice("SL3")
    with pytest.raises(DomainError, match="degree over 65535"):
        charclass._scaled_to_generators(lat, BiPoly(2, 2, {(0, 0, 1 << 16, 0): 1}))
    assert charclass._scaled_to_generators(lat, BiPoly(2, 2, {(0, 0, 0, 2): 3})).terms == \
        {(2, 0): 3, (1, 1): 6, (0, 2): 3}


@pytest.mark.parametrize("group", ["SL3", "GL3", "SO7", "Spin7"])
def test_non_integral_chern_class_is_an_internal_error(group, monkeypatch):
    # Newton's identities run on D^k * P_k, so a 1/2 injected into D * E_1
    # surfaces as 1/(2D) once E_1 is divided by D (D = 1, 3, 2, 1 here)
    shown = {"SL3": "1/2", "GL3": "1/6", "SO7": "1/4", "Spin7": "1/2"}[group]
    lat = builtin_lattice(group)
    elementary = charclass.elementary_from_power

    def off_by_half(power, kmax):
        elem = elementary(power, kmax)
        elem[1] = elem[1] + BiPoly.constant(elem[1].na, elem[1].ny, Fraction(1, 2))
        return elem

    monkeypatch.setattr(charclass, "elementary_from_power", off_by_half)
    weight = _two_lattice_weights(lat)[0]
    with pytest.raises(InternalError, match=f"non-integer coefficient {shown} in c_1"):
        chern_classes(lat, weight, 2)
    if lat.family == "GL":
        return  # chern2_closed refuses GL
    # the closed-form c_2 is the Chern path's, so a 1/2 in D^2 * E_2 reaches it as 1/(2D^2)
    shown = {"SL3": "1/2", "SO7": "1/8", "Spin7": "1/2"}[group]

    def e2_off_by_half(power, kmax):
        elem = elementary(power, kmax)
        elem[2] = elem[2] + BiPoly.constant(elem[2].na, elem[2].ny, Fraction(1, 2))
        return elem

    monkeypatch.setattr(charclass, "elementary_from_power", e2_off_by_half)
    with pytest.raises(InternalError, match=f"non-integer coefficient {shown} in c_2"):
        chern2_closed(lat, weight)


# -- orthogonality type -------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,rank,lam,expected",
    [
        ("C", 3, (0, 0, 1), "symplectic"),
        ("B", 2, (0, 1), "symplectic"),
        ("B", 2, (1, 0), "orthogonal"),
        ("A", 2, (1, 0), "not-self-dual"),
        ("A", 2, (1, 1), "orthogonal"),
        ("A", 1, (1,), "symplectic"),
        ("A", 1, (2,), "orthogonal"),
        ("G", 2, (1, 0), "orthogonal"),
        ("D", 3, (1, 0, 0), "orthogonal"),
        ("D", 3, (0, 1, 0), "not-self-dual"),  # a 4-dimensional half-spin weight
        ("D", 3, (0, 1, 1), "orthogonal"),
    ],
)
def test_orthogonality_type(kind, rank, lam, expected):
    assert orthogonality_type(get_rs(kind, rank), lam) == expected


def test_gl_orthogonality_type():
    gl2 = builtin_lattice("GL2")
    assert lattice_orthogonality_type(gl2, (2, -2)) == "orthogonal"
    assert lattice_orthogonality_type(gl2, (1, -1)) == "orthogonal"
    assert lattice_orthogonality_type(gl2, (1, 0)) == "not-self-dual"


@pytest.mark.parametrize("group,weight", [("SL3", (1, 0)), ("GL3", (1, 0, 0))])
def test_doubled_form_orthogonality_type(group, weight):
    lat = builtin_lattice(group)
    assert lattice_orthogonality_type(lat, weight) == "not-self-dual"
    assert lattice_orthogonality_type(lat, PiSpec(weight, False)) == "not-self-dual"
    assert lattice_orthogonality_type(lat, PiSpec(weight, True)) == "orthogonal"


@pytest.mark.parametrize("group,weight", [("SO7", (0, 0, 1)), ("PGL2", (1,)), ("SO8", (0, 0, 0, 1))])
def test_orthogonality_type_rejects_weights_outside_the_lattice(group, weight):
    with pytest.raises(DomainError, match="weight not in character lattice"):
        lattice_orthogonality_type(builtin_lattice(group), weight)


# -- Stiefel-Whitney restriction ------------------------------------------------------


def test_swc_requires_orthogonal():
    with pytest.raises(DomainError, match="symplectic.*s_wrap"):
        swc_restrict(builtin_lattice("SL2"), (1,))
    with pytest.raises(DomainError, match="not-self-dual.*s_wrap"):
        swc_restrict(builtin_lattice("SL3"), (1, 0))


@pytest.mark.parametrize("group,spec", [("SO5", (0, 2)), ("SL3", PiSpec((1, 0), True))])
def test_orthogonal_entries_check_the_weight_once_each(group, spec, monkeypatch):
    # the orthogonality check reads the PiSpec its caller checked: one _as_pi per
    # public entry on the way, chern_classes included
    calls = []
    as_pi = charclass._as_pi

    def spy(lattice, pi_spec):
        calls.append(pi_spec)
        return as_pi(lattice, pi_spec)

    monkeypatch.setattr(charclass, "_as_pi", spy)
    lat = builtin_lattice(group)
    for call, expected in [(swc_restrict, 2), (is_spinorial, 2), (total_swc_factorization, 3)]:
        calls.clear()
        call(lat, spec)
        assert len(calls) == expected, call.__name__


def test_swc_negative_kmax_refused_before_the_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work done for a refused kmax")

    monkeypatch.setattr(charclass, "_character_values", no_work)
    monkeypatch.setattr(charclass, "chern_classes", no_work)
    so12 = builtin_lattice("SO12")
    with pytest.raises(DomainError, match="kmax must be nonnegative"):
        swc_restrict(so12, (1, 0, 0, 0, 0, 0), -1)
    with pytest.raises(DomainError, match="kmax must be nonnegative"):
        total_swc_factorization(so12, (1, 0, 0, 0, 0, 0), -1)


@pytest.mark.parametrize("kmax", [2.0, True])
def test_degree_bound_must_be_an_int(kmax):
    so5 = builtin_lattice("SO5")
    for fn in (chern_classes, swc_restrict, total_swc_factorization):
        with pytest.raises(DomainError, match="kmax must be an integer"):
            fn(so5, (1, 0), kmax)


def test_sl2_doubled_swc():
    res = swc_restrict(builtin_lattice("SL2"), PiSpec((1,), s_wrap=True))
    assert res.w[0] == Mod2Poly(1, [(0,)])
    assert res.w[4] == Mod2Poly(1, [(4,)])
    for k in (1, 2, 3, 5, 6):
        assert res.w[k].is_zero()


def test_sl3_adjoint_swc():
    res = swc_restrict(builtin_lattice("SL3"), (1, 1))
    assert res.w[4] == Mod2Poly(2, [(4, 0), (2, 2), (0, 4)])
    assert res.w[1].is_zero() and res.w[2].is_zero() and res.w[3].is_zero()


def test_so6_vector_swc():
    res = swc_restrict(builtin_lattice("SO6"), (1, 0, 0))
    assert res.w[1].is_zero()
    assert res.w[2] == Mod2Poly(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])


@pytest.mark.parametrize("group", builtin_lattice_names())
def test_wrapped_swc_is_the_doubled_chern_classes_mod_2(group):
    # the Frobenius route against the integer product c(pi) c(pi*) it replaces,
    # odd kmax included; GL's first weight has central character 1
    from weightcalc.polyalg import mod2_reduce

    lat = builtin_lattice(group)
    weights = _two_lattice_weights(lat)
    if lat.family == "GL":
        weights.append((2,) + (0,) * (lat.torus_rank - 2) + (-1,))
    for weight in weights:
        spec = PiSpec(weight, s_wrap=True)
        doubled = [mod2_reduce(c) for c in chern_classes(lat, spec, 8).c]
        for kmax in range(9):
            res = swc_restrict(lat, spec, kmax)
            assert res.w == tuple(doubled[: kmax + 1]), (weight, kmax)
            assert res.pi == spec and res.kmax == kmax and res.total_factorization is None


@pytest.mark.parametrize("kmax", [0, 1, 5, 6])
def test_wrapped_swc_reads_the_plain_classes_once_at_half_the_degree(kmax, monkeypatch):
    calls = []
    chern = charclass.chern_classes

    def spy(lattice, pi_spec, kmax=6):
        calls.append((pi_spec, kmax))
        return chern(lattice, pi_spec, kmax)

    monkeypatch.setattr(charclass, "chern_classes", spy)
    swc_restrict(builtin_lattice("GL4"), PiSpec((2, 0, 0, 0), True), kmax)
    assert calls == [(PiSpec((2, 0, 0, 0), False), kmax // 2)]
    calls.clear()
    swc_restrict(builtin_lattice("SO7"), (1, 0, 0), kmax)  # the plain route keeps kmax
    assert calls == [(PiSpec((1, 0, 0), False), kmax)]


# -- spinoriality --------------------------------------------------------------------


def test_pgl2_quartic_not_spinorial():
    res = is_spinorial(builtin_lattice("PGL2"), (4,))
    assert not res.spinorial and not bool(res)
    assert res.valuation == 2
    assert res.secondary_integral is False
    assert res.c2 == gen_poly(1, {(2,): -5})


@pytest.mark.parametrize(
    "group,weight,valuation",
    [("Spin7", (0, 0, 1), 2), ("G2", (1, 0), 4)],
)
def test_spinorial_representations(group, weight, valuation):
    res = is_spinorial(builtin_lattice(group), weight)
    assert res.spinorial and bool(res)
    assert res.valuation == valuation
    assert res.secondary_integral is True


def test_so5_vector_not_spinorial():
    res = is_spinorial(builtin_lattice("SO5"), (1, 0))
    assert not res.spinorial
    assert res.valuation == 2 and res.secondary_integral is False
    assert res.c2 == gen_poly(2, {(2, 0): -1, (0, 2): -1})


def test_spinorial_secondary_test_scope():
    # the 2-adic secondary certificate only applies to plain nonzero weights
    res = is_spinorial(builtin_lattice("SL2"), PiSpec((1,), s_wrap=True))
    assert res.spinorial and res.valuation is None and res.secondary_integral is None
    res = is_spinorial(builtin_lattice("SL2"), (0,))
    assert res.spinorial and res.valuation is None


def test_q2_from_the_roots_is_the_quadratic_read_back_from_c2():
    # on every lattice of a simple type, sum over Phi of (g(alpha).x)^2 is -2/x * c_2
    for lat in map(builtin_lattice, builtin_lattice_names()):
        if lat.family == "GL":
            continue
        weight = next(w for w in itertools.product(range(3), repeat=lat.rank)
                      if any(w) and lattice_contains(lat, w))
        ch = chern_classes(lat, weight, 2)
        x = powersum._casimir_ratio(lat.root_system(), weight, ch.degree)
        assert charclass._q2_from_roots(lat) == ch.c[2].scale(-2 / x), lat.name


@pytest.mark.parametrize("group,weight", [("Spin7", (0, 0, 1)), ("G2", (1, 0))])
def test_spinoriality_criteria_are_independent(monkeypatch, group, weight):
    # a fault in the change to lattice generators, 2 x_1^2 added to the image of P_2,
    # makes c_2 odd; Q_2 comes from the roots, so the two criteria disagree
    lattice = builtin_lattice(group)
    assert is_spinorial(lattice, weight).spinorial
    scaled, n = charclass._scaled_to_generators, lattice.torus_rank

    def faulty(lat, f):
        image = scaled(lat, f)
        if f.y_degree() == 2:
            image = image + BiPoly(n, 0, {(2,) + (0,) * (n - 1): 2})
        return image

    monkeypatch.setattr(charclass, "_scaled_to_generators", faulty)
    with pytest.raises(InternalError, match="criteria disagree"):
        is_spinorial(lattice, weight)


def test_spinorial_requires_orthogonal():
    with pytest.raises(DomainError):
        is_spinorial(builtin_lattice("SL2"), (1,))


# -- total-class factorization ---------------------------------------------------------


def test_so5_vector_factorization():
    res = total_swc_factorization(builtin_lattice("SO5"), (1, 0))
    assert res.total_factorization == (2, 0)
    assert res.w[2] == Mod2Poly(2, [(2, 0), (0, 2)])
    assert res.w[4] == Mod2Poly(2, [(2, 2)])


def test_so6_vector_factorization():
    res = total_swc_factorization(builtin_lattice("SO6"), (1, 0, 0))
    assert res.total_factorization == (2, 0, 0)
    assert res.w[2] == Mod2Poly(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])


def test_sp6_doubled_vector_factorization():
    res = total_swc_factorization(builtin_lattice("Sp6"), PiSpec((1, 0, 0), s_wrap=True))
    assert res.total_factorization == (4, 0, 0)
    assert all(m % 2 == 0 for m in res.total_factorization)


def test_gl_factorizations():
    res = total_swc_factorization(builtin_lattice("GL3"), PiSpec((1, 0, 0), s_wrap=True))
    assert res.total_factorization == (2, 0, 0)
    res = total_swc_factorization(builtin_lattice("GL2"), (1, -1))
    assert res.total_factorization == (0, 2)
    assert res.w[2] == Mod2Poly(2, [(2, 0), (0, 2)])


def test_adjoint_factorizations():
    res = total_swc_factorization(builtin_lattice("SL3"), (1, 1))
    assert res.total_factorization == (2, 2)
    assert res.w[4] == Mod2Poly(2, [(4, 0), (2, 2), (0, 4)])
    res = total_swc_factorization(builtin_lattice("Sp4"), (2, 0))
    assert res.total_factorization == (0, 4)
    assert res.w[4] == Mod2Poly(2, [(4, 0), (0, 4)])


def test_sl2_factorization_exponents():
    sl2 = builtin_lattice("SL2")
    for ell in (0, 2, 4, 6):
        assert total_swc_factorization(sl2, (ell,)).total_factorization == (0,)
    for ell in (1, 3, 5):
        res = total_swc_factorization(sl2, PiSpec((ell,), s_wrap=True))
        assert res.total_factorization == (2 * (ell + 1),)


def _sl3_doubled_exponent(m: int, n: int) -> int:
    if m % 2 == 1 and n % 2 == 1:
        return (m + 1) * (n + 1) * (m + n + 2) // 4
    if m % 2 == 1:
        return (m + 1) * ((n + 1) * (m + n + 2) + 1) // 4
    if n % 2 == 1:
        return (n + 1) * ((m + 1) * (m + n + 2) + 1) // 4
    return (m + n + 2) * ((m + 1) * (n + 1) - 1) // 4


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("n", range(5))
def test_sl3_doubled_factorization_law(m, n):
    res = total_swc_factorization(builtin_lattice("SL3"), PiSpec((m, n), s_wrap=True), 2)
    expected = _sl3_doubled_exponent(m, n)
    assert res.total_factorization == (expected, expected)


def test_factorization_matches_restriction():
    for group, spec in [
        ("SO5", (0, 2)),
        ("Sp4", PiSpec((1, 0), s_wrap=True)),
        ("SL4", (1, 0, 1)),
        ("SL4", (0, 1, 0)),
        ("SL4", PiSpec((1, 0, 0), s_wrap=True)),
    ]:
        lat = builtin_lattice(group)
        fac = total_swc_factorization(lat, spec)
        ref = swc_restrict(lat, spec)
        assert fac.w == ref.w
        assert ref.total_factorization is None


@pytest.mark.parametrize("group,weight", [("SL3", (1, 1)), ("GL3", (1, 0, -1))])
def test_schur_cross_check_disagreement_is_an_internal_error(group, weight, monkeypatch):
    schur = charclass.schur_at_signs
    monkeypatch.setattr(charclass, "schur_at_signs", lambda *a: schur(*a) + 1)
    with pytest.raises(InternalError, match="sign pattern 0 disagrees with the Schur evaluation"):
        total_swc_factorization(builtin_lattice(group), weight)


def test_factorization_family_guard():
    with pytest.raises(DomainError, match="SL, GL, Sp and SO families only"):
        total_swc_factorization(builtin_lattice("Spin5"), (0, 1))
    with pytest.raises(DomainError, match="SL, GL, Sp and SO families only"):
        total_swc_factorization(builtin_lattice("G2"), (1, 0))


def _nonincreasing(weight) -> bool:
    return all(a >= b for a, b in zip(weight, weight[1:]))


@pytest.mark.parametrize("group", [name for name in builtin_lattice_names()
                                   if builtin_lattice(name).family in ("SL", "GL", "Sp", "SO")
                                   and builtin_lattice(name).rank <= 3])
def test_character_table_agrees_with_the_oracle(group):
    # chi(b_i) from the one table against the oracle's own order-2 characters; GL's
    # diagonal coordinates are solved here from the fundamental part and sum(w)
    lat = builtin_lattice(group)
    r, gl = lat.torus_rank, lat.family == "GL"
    for weight in itertools.product(range(-1, 3) if gl else range(3), repeat=r):
        if not lattice_contains(lat, weight) or gl and not _nonincreasing(weight):
            continue
        chi = charclass._character_values(lat, weight, DEFAULT_MAX_DIM)
        if not gl:
            wm = weight_multiplicities(lat.root_system(), weight)
            assert chi == [character_at_order2(wm, (-1,) * i + (1,) * (r - i), basis=lat.basis)
                           for i in range(r + 1)], weight
            continue
        fundamental = tuple(a - b for a, b in zip(weight, weight[1:]))
        want = [0] * (r + 1)
        for mu, m in weight_multiplicities(lat.root_system(), fundamental).expanded().items():
            # d_j = d_n + sum_(i >= j) mu_i, and the d_j sum to sum(w)
            last = Fraction(sum(weight) - sum((i + 1) * c for i, c in enumerate(mu)), r)
            diagonal = [last + sum(mu[j:]) for j in range(r)]
            assert all(d.denominator == 1 for d in diagonal)
            for i in range(r + 1):
                want[i] += m * (-1) ** int(sum(diagonal[:i]))
        assert chi == want, weight


@pytest.mark.parametrize("kmax", [8, 9])
@pytest.mark.parametrize("group,spec,exponents", [
    ("GL3", PiSpec((3, 1, 0), s_wrap=True), (0, 8, 0)),
    ("SO7", (2, 0, 0), (2, 4, 0)),
])
def test_degree_8_frobenius_factor(group, spec, exponents, kmax):
    # the bit 8 of an exponent gives the factors 1 + sum_(j in S) v_j^8
    lat = builtin_lattice(group)
    res = total_swc_factorization(lat, spec, kmax)
    assert res.total_factorization == exponents
    assert res.w == swc_restrict(lat, spec, kmax).w


def test_ord2_matches_a_loop():
    def loop(num: int, den: int) -> int:
        v = 0
        while num % 2 == 0:
            num, v = num // 2, v + 1
        while den % 2 == 0:
            den, v = den // 2, v - 1
        return v

    for num in range(-64, 65):
        if num:
            assert charclass._ord2(num) == loop(num, 1)
            for den in range(1, 65):
                assert charclass._ord2(Fraction(num, den)) == loop(num, den), (num, den)
    for zero in (0, Fraction(0)):
        with pytest.raises(InternalError, match="valuation of zero"):
            charclass._ord2(zero)


# -- mod-2 consistency triangle --------------------------------------------------------


@pytest.mark.parametrize("group", ["SL2", "SL3", "SL4", "Sp4", "SO5"])
def test_chern_swc_consistency_triangle(group):
    from weightcalc.polyalg import mod2_reduce

    lat = builtin_lattice(group)
    rank = lat.rank
    for weight in dominant_grid(rank, 1):
        if not lattice_contains(lat, weight):
            continue
        typ = lattice_orthogonality_type(lat, weight)
        spec = PiSpec(weight, s_wrap=(typ != "orthogonal"))
        ch = chern_classes(lat, spec, 6)
        sw = swc_restrict(lat, spec, 6)
        # degree by degree, the SWC restriction is the mod-2 Chern reduction
        for k in range(7):
            assert sw.w[k] == mod2_reduce(ch.c[k])
        for k in (1, 3, 5):
            assert sw.w[k].is_zero()
