"""Power sums and elementary symmetric functions of weight multisets."""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from math import comb

import pytest

from conftest import all_supported_types, get_rs, y_poly
from weightcalc import charclass, cli, powersum, weylsum
from weightcalc.charclass import PiSpec, builtin_lattice, chern_classes, swc_restrict
from weightcalc.errors import DomainError, InternalError
from weightcalc.polyalg import (BiPoly, _mul_into, _packed, exact_divide, expand_linear_power,
                                mod2_reduce)
from weightcalc.powersum import (
    _triangular_solve,
    elementary_from_power,
    power_sums,
    product_power_sums,
    symbolic_power_sums,
    validate_dominant,
    weyl_dimension,
)
from weightcalc.oracle import oracle_power_sum, weight_multiplicities
from weightcalc.rootsys import build_root_system, highest_root
from weightcalc.weylsum import FkTable, fk_evaluated, fk_scalar, invariant_basis, q2_poly
from test_rootsys import reflection_matrix
from test_weylsum import _corrupt_sample

RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4),
    ("G", 2),
]


# -- dimensions and validation --------------------------------------------------


@pytest.mark.parametrize(
    "kind,rank,lam,dim",
    [
        ("A", 1, (0,), 1),
        ("A", 1, (7,), 8),
        ("A", 2, (1, 0), 3),
        ("A", 2, (1, 1), 8),
        ("A", 2, (2, 2), 27),
        ("A", 3, (1, 0, 1), 15),
        ("A", 3, (0, 1, 0), 6),
        ("B", 2, (1, 0), 5),
        ("B", 2, (0, 1), 4),
        ("B", 3, (0, 1, 0), 21),
        ("B", 3, (0, 0, 1), 8),
        ("C", 3, (1, 0, 0), 6),
        ("C", 3, (0, 0, 1), 14),
        ("D", 4, (1, 0, 0, 0), 8),
        ("D", 4, (0, 1, 0, 0), 28),
        ("G", 2, (1, 0), 7),
        ("G", 2, (0, 1), 14),
    ],
)
def test_weyl_dimension_known_values(kind, rank, lam, dim):
    assert weyl_dimension(get_rs(kind, rank), lam) == dim


def test_validate_dominant_rejections(a2):
    assert validate_dominant(a2, [2, 1]) == (2, 1)
    with pytest.raises(DomainError):
        validate_dominant(a2, (1,))
    with pytest.raises(DomainError):
        validate_dominant(a2, (-1, 0))
    with pytest.raises(DomainError):
        validate_dominant(a2, (Fraction(1, 2), 0))
    with pytest.raises(DomainError):
        power_sums(a2, (1, 1), -1)


def test_non_integral_dimension_is_an_internal_error(monkeypatch, capsys):
    # d-vee(lam + delta) is always a multiple of d-vee(delta); a remainder is a bug (exit 1)
    at = powersum.coweyl_denominator_at
    monkeypatch.setattr(powersum, "coweyl_denominator_at",
                        lambda rs, x: at(rs, x) + any(c != 1 for c in x))
    with pytest.raises(InternalError, match="dimension formula did not yield an integer"):
        weyl_dimension(build_root_system("A", 2), (1, 1))
    assert cli.main(["powersum", "--type", "A2", "--weight", "1,1", "--k", "2"]) == 1
    assert capsys.readouterr().err.startswith("internal error:")


def test_wrong_length_weight_names_the_system():
    # the label is RootSystem.name: "G2", never the kind and the rank run together
    with pytest.raises(DomainError, match="expected 2 for G2$"):
        power_sums(build_root_system("G", 2), (1, 0, 0), 2)
    with pytest.raises(DomainError, match="expected 3 for B3$"):
        power_sums(build_root_system("B", 3), (1, 0), 2)


# -- structural identities -------------------------------------------------------


@pytest.mark.parametrize("kind,rank", RANK_LE_4)
def test_p0_is_dimension_and_p1_vanishes(kind, rank):
    rs = get_rs(kind, rank)
    lam = tuple(1 for _ in range(rank))
    p = power_sums(rs, lam, 1)
    assert p[0] == BiPoly.constant(rank, rank, weyl_dimension(rs, lam))
    assert p[1].is_zero()


@pytest.mark.parametrize("kind,rank", RANK_LE_4)
def test_p2_of_adjoint_equals_q2(kind, rank):
    rs = get_rs(kind, rank)
    assert power_sums(rs, highest_root(rs), 2)[2] == q2_poly(rs)


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_low_degree_closed_forms_match_the_oracle(kind, rank):
    # P_0 = dim, P_1 = 0 and P_2 = x * Q_2 against the enumerated weights, on every type
    rs = get_rs(kind, rank)
    fundamental = [tuple(int(i == j) for j in range(rank)) for i in (0, rank - 1)]
    for lam in {(0,) * rank, *fundamental, highest_root(rs)}:
        wm = weight_multiplicities(rs, lam, max_dim=500)
        for k in range(3):
            assert power_sums(rs, lam, k) == [oracle_power_sum(wm, j) for j in range(k + 1)]


@pytest.mark.parametrize("kind,rank,lam", [
    ("A", 2, (1, 1)), ("G", 2, (1, 0)), ("B", 3, (1, 0, 1)), ("D", 4, (0, 1, 0, 0)),
    ("C", 5, (1, 0, 0, 0, 0)),
])
def test_wrong_casimir_ratio_fails_the_weyl_sum_check(monkeypatch, kind, rank, lam):
    # at kmax >= 3 the Weyl sums' own P_0..P_2 are checked against the closed forms
    rs = get_rs(kind, rank)
    right = power_sums(rs, lam, 2)
    ratio = powersum._casimir_ratio
    monkeypatch.setattr(powersum, "_casimir_ratio", lambda rs, lam, degree: ratio(rs, lam, degree) + 1)
    assert power_sums(rs, lam, 2) != right
    with pytest.raises(InternalError, match="differ from the closed forms"):
        power_sums(rs, lam, 4)


@pytest.mark.parametrize("kind,rank", [("A", 1), ("B", 2), ("C", 3), ("G", 2)])
def test_odd_power_sums_vanish_when_minus_one_in_weyl(kind, rank):
    rs = get_rs(kind, rank)
    lam = tuple(2 if i == 0 else 1 for i in range(rank))
    p = power_sums(rs, lam, 5)
    assert p[1].is_zero() and p[3].is_zero() and p[5].is_zero()


def test_explicit_sl2_multiset():
    a1 = get_rs("A", 1)
    # weights of the 3-dimensional representation: 2, 0, -2 times the generator
    p = power_sums(a1, (2,), 4)
    assert p[0] == y_poly(1, {(0,): 3})
    assert p[2] == y_poly(1, {(2,): 8})
    assert p[4] == y_poly(1, {(4,): 32})
    e = elementary_from_power(p, 4)
    assert e[1].is_zero()
    assert e[2] == y_poly(1, {(2,): -4})
    assert e[3].is_zero()
    assert e[4].is_zero()


def test_explicit_a2_standard_multiset():
    a2 = get_rs("A", 2)
    # weights of the standard representation: (1,0), (-1,1), (0,-1)
    p = power_sums(a2, (1, 0), 3)
    mus = [(1, 0), (-1, 1), (0, -1)]
    for k in range(4):
        expected = BiPoly.zero(2, 2)
        for mu in mus:
            expected = expected + BiPoly.y_linear(list(mu), na=2) ** k
        assert p[k] == expected
    e = elementary_from_power(p)
    assert e[3] == BiPoly.y_linear([1, 0], na=2) * BiPoly.y_linear([-1, 1], na=2) * BiPoly.y_linear([0, -1], na=2)


@pytest.mark.parametrize(
    "kind,rank,lam",
    [("A", 1, (3,)), ("A", 2, (1, 1)), ("B", 2, (1, 2))],
)
def test_egf_convolution_identity(kind, rank, lam):
    # F_i(lam+delta) = sum_k C(i,k) F_{i-k}(delta) P_k, truncated at N + kmax
    rs = get_rs(kind, rank)
    kmax = 4
    n = rs.num_positive
    p = power_sums(rs, lam, kmax)
    shifted = tuple(c + 1 for c in lam)
    delta = (1,) * rank
    for i in range(n + kmax + 1):
        lhs = fk_evaluated(rs, shifted, i)
        rhs = BiPoly.zero(rank, rank)
        for k in range(min(i, kmax) + 1):
            rhs = rhs + (fk_evaluated(rs, delta, i - k) * p[k]).scale(comb(i, k))
        assert lhs == rhs


def _symbolic_route(rs, lam, kmax):
    """Reference: the triangular solve on the y-polynomials F_m(lam + delta), F_m(delta)."""
    n = rs.num_positive
    shifted = tuple(c + 1 for c in lam)
    delta = (1,) * rs.rank
    f_lam = [fk_evaluated(rs, shifted, n + i) for i in range(kmax + 1)]
    f_del = [fk_evaluated(rs, delta, n + i) for i in range(kmax + 1)]
    return _triangular_solve(n, f_lam, f_del, exact_divide)


@pytest.mark.parametrize(
    "kind,rank,lam",
    [
        ("A", 3, (1, 0, 1)), ("A", 3, (0, 2, 0)),
        ("A", 4, (1, 0, 0, 0)), ("A", 4, (0, 1, 0, 1)),
        ("B", 3, (0, 0, 1)), ("B", 3, (1, 1, 0)),
        ("B", 4, (1, 0, 0, 0)), ("B", 4, (0, 0, 0, 1)),
        ("C", 3, (1, 0, 0)), ("C", 3, (0, 1, 1)),
        ("C", 4, (1, 0, 0, 0)), ("C", 4, (0, 1, 0, 0)),
        ("D", 3, (0, 1, 1)), ("D", 3, (0, 0, 2)),
        ("D", 4, (1, 0, 0, 0)), ("D", 4, (0, 0, 1, 1)),
    ],
)
def test_sampled_route_matches_symbolic_route(kind, rank, lam):
    rs = get_rs(kind, rank)
    got = power_sums(rs, lam, 6)
    for k, want in enumerate(_symbolic_route(rs, lam, 6)):
        assert got[k].terms == want.terms, k
        assert [type(c) for c in got[k].terms.values()] == [
            type(want.terms[e]) for e in got[k].terms
        ], k


@pytest.mark.parametrize(
    "kind,rank,lam,kmax", [("A", 3, (1, 0, 0), 12), ("C", 4, (1, 0, 0, 0), 8)]
)
def test_sampled_route_where_line_samples_are_degenerate(kind, rank, lam, kmax):
    # on the line c*2rho-vee + (1, ..., r) the degree-12 invariants of A3 and
    # the degree-8 invariants of C4 are linearly dependent
    rs = get_rs(kind, rank)
    assert power_sums(rs, lam, kmax) == _symbolic_route(rs, lam, kmax)


def test_missing_generator_fails_the_count_check(monkeypatch, b3):
    generators = weylsum._invariant_generators
    monkeypatch.setattr(weylsum, "_invariant_generators", lambda rs: generators(rs)[:-1])
    with pytest.raises(InternalError, match="fundamental degrees give 3"):
        power_sums(b3, (1, 0, 0), 6)
    with pytest.raises(InternalError, match="fundamental degrees give 3"):
        invariant_basis(b3, 6)


def test_warm_sampled_route_expands_no_generator_again(monkeypatch, b3):
    # the t-side expansion is cached per root system: a second call, at another weight,
    # multiplies no generator out again
    power_sums(b3, (1, 0, 0), 6)
    calls = []

    def counted(coeffs, k):
        calls.append((tuple(coeffs), k))
        return expand_linear_power(coeffs, k)

    monkeypatch.setattr(weylsum, "expand_linear_power", counted)
    assert power_sums(b3, (0, 1, 1), 6) == _symbolic_route(b3, (0, 1, 1), 6)
    assert calls == []


@pytest.mark.parametrize("corrupt_check_points", [True, False])
def test_corrupted_sample_value_is_caught(monkeypatch, d4, corrupt_check_points):
    line = {nu for _, nu in weylsum._check_points(d4)}
    values_at = powersum._power_sums_at

    def corrupted(rs, orbits, nu, kmax):
        values = values_at(rs, orbits, nu, kmax)
        if (nu in line) == corrupt_check_points:
            values[4] += 1
        return values

    monkeypatch.setattr(powersum, "_power_sums_at", corrupted)
    match = "off-line check" if corrupt_check_points else "degree-4"
    with pytest.raises(InternalError, match=match):
        power_sums(d4, (1, 0, 0, 0), 4)


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2),
                                       ("A", 3), ("B", 3), ("D", 4), ("B", 6)])
def test_delta_values_are_built_once_per_root_system(monkeypatch, kind, rank):
    # after a first call on a root system and kmax, a call at another weight runs the
    # Weyl sums at lam + delta only: F_m(delta) is built once, as packed y-polynomials at
    # rank <= 2 and as values per fit point, from _alternating_sums, at rank >= 3; a
    # table built at a larger kmax holds the one asked for as its prefix
    rs = get_rs(kind, rank)
    n, delta, kmax = rs.num_positive, (1,) * rank, 5
    lam, other = (1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (2,)
    power_sums(rs, lam, kmax)
    if rank <= 2:
        fresh = [_packed(fk_evaluated(rs, delta, n + j).terms, 2 * rank) for j in range(kmax + 1)]
        assert powersum._fk_delta(rs, kmax)[:kmax + 1] == tuple(fresh)
        name, kernel = "fk_evaluated", fk_evaluated
    else:
        for _, nu in weylsum._check_points(rs):
            fresh = [fk_scalar(rs, delta, nu, n + j) for j in range(kmax + 1)]
            assert powersum._delta_sums(rs, kmax)(nu)[:kmax + 1] == tuple(fresh)
        name, kernel = "_alternating_sums", weylsum._alternating_sums
    calls = []

    def counted(rs, mu, *args):
        calls.append(tuple(mu))
        return kernel(rs, mu, *args)

    monkeypatch.setattr(powersum, name, counted)
    wm = weight_multiplicities(rs, other)
    assert power_sums(rs, other, kmax) == [oracle_power_sum(wm, k) for k in range(kmax + 1)]
    assert calls and set(calls) == {tuple(c + 1 for c in other)}  # other + delta only


def _delta_builds(monkeypatch, rs):
    """The m of each F_m(delta) that ``power_sums`` builds from here on, once per build.

    The held tables of rs are dropped first: F_m(delta, y) by ``fk_evaluated`` at
    rank <= 2, one call per m; F_m(delta, nu) by ``_alternating_sums`` at rank >= 3,
    one call per build for all its m.
    """
    powersum._fk_delta.cache_clear()
    powersum._delta_sums.cache_clear()
    delta, builds = (1,) * rs.rank, []
    name = "fk_evaluated" if rs.rank <= 2 else "_alternating_sums"
    kernel = getattr(powersum, name)

    def counted(rs, mu, ms, *args):
        if tuple(mu) == delta:
            builds.extend(ms if name == "_alternating_sums" else [ms])
        return kernel(rs, mu, ms, *args)

    monkeypatch.setattr(powersum, name, counted)
    return builds


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("G", 2), ("A", 3), ("B", 4)])
def test_fit_tables_are_built_once_per_root_system(monkeypatch, kind, rank):
    # kmax 6, then 3, then 6: each F_m(delta) is built once and the expansion once,
    # and the kmax-3 call reads their prefix
    rs = get_rs(kind, rank)
    n, builds = rs.num_positive, _delta_builds(monkeypatch, rs)
    substitutions = []
    substitution = weylsum._substitution

    def counted(*images):
        substitutions.append(len(images[2]) + len(images[3]))
        return substitution(*images)

    monkeypatch.setattr(weylsum, "_EXPANSIONS", {})
    monkeypatch.setattr(weylsum, "_substitution", counted)
    weights = [(1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (1,), (2,) + (0,) * (rank - 1)]
    for lam, kmax in zip(weights, (6, 3, 6)):
        wm = weight_multiplicities(rs, lam)
        assert power_sums(rs, lam, kmax) == [oracle_power_sum(wm, k) for k in range(kmax + 1)]
    assert builds == list(range(n, n + 7))
    assert substitutions == ([] if rank <= 2 else [2 * rank])
    # a first call at kmax 3 builds F_N..F_{N+3}(delta), and kmax 6 and 8 add only
    # the m that are missing; the answers are those of the oracle throughout
    builds = _delta_builds(monkeypatch, rs)
    for lam, kmax in zip(weights, (3, 6, 8)):
        wm = weight_multiplicities(rs, lam)
        assert power_sums(rs, lam, kmax) == [oracle_power_sum(wm, k) for k in range(kmax + 1)]
        assert builds == list(range(n, n + kmax + 1))


def test_doubled_and_plain_queries_share_the_fit_tables(monkeypatch):
    # a doubled swc at k = 6 fits at kmax 3, a plain Chern class at k = 6 at kmax 6:
    # the second adds F_{N+4}..F_{N+6}(delta) to the first one's table, and no
    # generator image is expanded twice
    gl4, lam = builtin_lattice("GL4"), (2, 0, 0, 0)
    rs = gl4.root_system()
    n, builds = rs.num_positive, _delta_builds(monkeypatch, rs)
    images = []

    def counted(coeffs, k):
        images.append((tuple(coeffs), k))
        return expand_linear_power(coeffs, k)

    monkeypatch.setattr(weylsum, "_EXPANSIONS", {})
    weylsum._generator_image.cache_clear()
    monkeypatch.setattr(weylsum, "expand_linear_power", counted)
    try:
        swc = swc_restrict(gl4, PiSpec(lam, True), 6)
        assert builds == list(range(n, n + 4))
        chern = chern_classes(gl4, lam, 6)
    finally:
        weylsum._generator_image.cache_clear()
    assert builds == list(range(n, n + 7))
    assert images and len(images) == len(set(images))
    assert swc.w[6] == mod2_reduce(chern_classes(gl4, PiSpec(lam, True), 6).c[6])
    assert chern.c[3] != BiPoly.zero(4, 0)


def _solve_by_bipoly_division(rs, lam, kmax):
    """Reference: the triangular solve on BiPoly F_m, each step an ``exact_divide``."""
    n = rs.num_positive
    shifted = tuple(c + 1 for c in lam)
    delta = (1,) * rs.rank
    f_lam = [fk_evaluated(rs, shifted, n + i) for i in range(kmax + 1)]
    f_del = [fk_evaluated(rs, delta, n + i) for i in range(kmax + 1)]
    return _triangular_solve(n, f_lam, f_del, exact_divide)


@pytest.mark.parametrize("kind", ["A1", "A2", "B2", "C2", "G2"])
def test_rank_le_2_packed_solve_matches_bipoly_division(kind):
    # the packed forms and their division along the last variable give the same P_k,
    # term for term and int for int, as BiPoly products and exact_divide
    rs = build_root_system(kind[0], int(kind[1]))
    for lam in itertools.product(range(3), repeat=rs.rank):
        want = _solve_by_bipoly_division(rs, lam, 8)
        for kmax in range(9):
            assert _identical(power_sums(rs, lam, kmax), want[:kmax + 1]), (lam, kmax)


@pytest.mark.parametrize("kind", ["A1", "A2", "B2", "C2", "G2"])
def test_rank_le_2_pivot_off_by_one_is_an_internal_error(monkeypatch, kind):
    # the pivot binom(N+i, i) * F_N(delta) with binom(N+i, i) + 1 for i >= 1
    rs = build_root_system(kind[0], int(kind[1]))
    n = rs.num_positive
    monkeypatch.setattr(powersum, "comb", lambda a, b: comb(a, b) + (b > 0 and a - b == n))
    with pytest.raises(InternalError):
        power_sums(rs, (1,) * rs.rank, 6)


def _newton_on_tuple_keys(power, kmax):
    """Reference: Newton's identities on tuple-keyed term dicts, one ``_mul_into`` sum per degree."""
    na, ny = power[0].na, power[0].ny
    signed = [None] + [p.terms if i % 2 else {e: -c for e, c in p.terms.items()}
                       for i, p in enumerate(power[1:kmax + 1], 1)]
    elem = [BiPoly.constant(na, ny, 1)]
    for k in range(1, kmax + 1):
        acc = {}
        for i in range(1, k + 1):
            _mul_into(acc, elem[k - i].terms, signed[i])
        elem.append(BiPoly._result(na, ny, acc).scale(Fraction(1, k)))
    return elem


def test_packed_newton_matches_tuple_keys_on_numeric_power_sums():
    for kind, rank, lam in [("A", 2, (2, 1)), ("B", 2, (0, 3)), ("G", 2, (1, 1)),
                            ("A", 3, (1, 0, 2)), ("C", 3, (0, 1, 1)), ("D", 4, (1, 0, 0, 1))]:
        p = power_sums(get_rs(kind, rank), lam, 6)
        for kmax in range(7):
            assert _identical(elementary_from_power(p, kmax), _newton_on_tuple_keys(p, kmax))


def test_packed_newton_matches_tuple_keys_on_lattice_power_sums(monkeypatch):
    # the lattice polynomials (ny = 0) that chern_classes hands to Newton's identities
    seen = []
    newton = charclass.elementary_from_power

    def captured(power, kmax):
        seen.append((power, kmax))
        return newton(power, kmax)

    monkeypatch.setattr(charclass, "elementary_from_power", captured)
    for group, lam in [("SL3", (1, 1)), ("Sp4", (1, 1)), ("G2", (1, 0)), ("GL3", (2, 1, -1)),
                       ("SO7", (1, 1, 0)), ("PGL2", (2,))]:
        chern_classes(builtin_lattice(group), lam, 6)
    assert len(seen) == 6
    for power, kmax in seen:
        assert power[0].ny == 0
        assert _identical(elementary_from_power(power, kmax), _newton_on_tuple_keys(power, kmax))


@pytest.mark.parametrize("kind,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_packed_newton_matches_tuple_keys_on_symbolic_power_sums(kind, rank):
    p = symbolic_power_sums(get_rs(kind, rank), 4)
    assert any(type(c) is Fraction for f in p for c in f.terms.values())
    for kmax in range(5):
        assert _identical(elementary_from_power(p, kmax), _newton_on_tuple_keys(p, kmax))


def test_packed_newton_refuses_an_exponent_past_a_field():
    # E_2 = (P_1^2 - P_2)/2 would hold y^80000, past the 16-bit field of a packed monomial
    p = [BiPoly.constant(0, 1, 2), BiPoly(0, 1, {(40000,): 1}), BiPoly(0, 1, {(2,): 1})]
    assert elementary_from_power(p, 1)[1] == p[1]
    with pytest.raises(DomainError, match="degree over 65535"):
        elementary_from_power(p, 2)
    # so would F_m(lam + delta) of degree N + kmax in the rank <= 2 solve
    with pytest.raises(DomainError, match="degree over 65535"):
        power_sums(get_rs("A", 1), (1,), 65535)


def test_symbolic_specializes_to_numeric(a2):
    kmax = 4
    symb = symbolic_power_sums(a2, kmax)
    for lam in [(0, 0), (1, 2), (3, 1)]:
        numeric = power_sums(a2, lam, kmax)
        for k in range(kmax + 1):
            assert symb[k].eval_a(lam) == numeric[k]
    with pytest.raises(DomainError):
        symbolic_power_sums(a2, -1)


def _symbolic_by_division(rs, kmax):
    """Reference: the triangular solve on the FkTable entries F_m(a + delta, y), F_m(delta, y).

    Each step is a long division by the polynomial binom(N+i, i) * F_N(delta, y).
    """
    n, r = rs.num_positive, rs.rank
    delta = (1,) * r
    table = FkTable.build(rs, n + kmax)
    shifted = [BiPoly.a_var(i, r, r) + BiPoly.constant(r, r, 1) for i in range(r)]
    f_lam = [table.entries[n + i].compose(a_images=shifted) for i in range(kmax + 1)]
    f_del = [table.entries[n + i].eval_a(delta) for i in range(kmax + 1)]
    return _triangular_solve(n, f_lam, f_del, exact_divide)


@pytest.mark.parametrize(
    "kind,rank,kmax",
    [("A", 1, 6), ("A", 2, 6), ("B", 2, 6), ("C", 2, 6), ("G", 2, 6), ("A", 3, 4), ("B", 3, 2),
     ("C", 3, 2)],
)
def test_symbolic_reduced_route_matches_division(kind, rank, kmax):
    # P_0 * R_k from the reduced sums: the same terms, each coefficient int or Fraction alike
    rs = get_rs(kind, rank)
    assert _identical(symbolic_power_sums(rs, kmax), _symbolic_by_division(rs, kmax))


def test_symbolic_d4_specializes_to_numeric():
    rs = get_rs("D", 4)
    symb = symbolic_power_sums(rs, 2)
    for lam in [(0, 0, 0, 0), (1, 0, 0, 1), (2, 1, 0, 3)]:
        assert [f.eval_a(lam) for f in symb] == power_sums(rs, lam, 2)


def test_symbolic_corrupted_reduced_sample_is_caught(monkeypatch):
    # on A2, k <= 4 fits F'_3, F'_5, F'_6, F'_7; F'_5 is one constant times p2(y) p2(K-vee a)
    rs = get_rs("A", 2)
    _corrupt_sample(monkeypatch, weylsum._check_points(rs)[0][1], 5)
    with pytest.raises(InternalError, match="F'_5 invariant fit fails the off-line check"):
        symbolic_power_sums(rs, 4)


@pytest.mark.parametrize("kind,rank,size", [("B", 6, 190064602), ("A", 6, 12531870)])
def test_symbolic_term_budget_refuses_up_front(kind, rank, size):
    # sum_k C(N+k+r, r) * C(k+r-1, r-1) bounds the output; no fit runs before the refusal
    rs = get_rs(kind, rank)
    start = time.perf_counter()
    with pytest.raises(DomainError, match=f"may have {size} terms"):
        symbolic_power_sums(rs, 2)
    assert time.perf_counter() - start < 1


def test_symbolic_a6_finishes_in_2gb_of_address_space():
    """The term bound admits A6 k <= 1; P_0 = d-vee(a + delta)/d-vee(delta) must fit in memory."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from weightcalc.powersum import symbolic_power_sums, weyl_dimension\n"
        "from weightcalc.rootsys import build_root_system\n"
        "rs = build_root_system('A', 6)\n"
        "p0, p1 = symbolic_power_sums(rs, 1)\n"
        "assert p1.is_zero()\n"
        "for lam in [(0,) * 6, (1, 0, 0, 0, 0, 2), (0, 3, 1, 0, 1, 0)]:\n"
        "    assert p0.evaluate(lam, (0,) * 6) == weyl_dimension(rs, lam)\n"
        "print(len(p0.terms))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "142396\n"


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_symbolic_degree_bounds(kind, rank):
    rs = get_rs(kind, rank)
    n = rs.num_positive
    p = symbolic_power_sums(rs, 6)
    e = elementary_from_power(p, 6)
    for k in range(7):
        assert p[k].a_degree() <= n + k
        assert e[k].a_degree() <= (k // 2) * n + k
    if rs.minus_one_in_weyl:
        assert p[1].is_zero() and p[3].is_zero() and p[5].is_zero()


def test_power_sums_are_weyl_invariant_functions(a2):
    # P_k is a W-invariant polynomial on the coweight side
    p = power_sums(a2, (1, 1), 4)
    r = 2
    for i in range(r):
        m = reflection_matrix(a2, i)
        y_images = [
            BiPoly.y_linear([m[j][col] for j in range(r)], na=r) for col in range(r)
        ]
        for k in range(5):
            assert p[k].compose(y_images=y_images) == p[k]


# -- Newton conversion and products ----------------------------------------------


def test_newton_identities_round(a2):
    p = power_sums(a2, (2, 1), 5)
    e = elementary_from_power(p, 5)
    # k E_k = sum_{i=1..k} (-1)^(i-1) E_{k-i} P_i, re-checked externally
    for k in range(1, 6):
        acc = BiPoly.zero(2, 2)
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc = acc + term if i % 2 == 1 else acc - term
        assert acc == e[k].scale(k)
    with pytest.raises(DomainError):
        elementary_from_power(p, 9)
    with pytest.raises(DomainError, match="kmax must be nonnegative"):
        elementary_from_power(p, -1)
    with pytest.raises(DomainError):
        elementary_from_power([])


@pytest.mark.parametrize("kmax", [2.0, True])
def test_degree_bound_must_be_an_int(kmax):
    a2 = get_rs("A", 2)
    with pytest.raises(DomainError, match="kmax must be an integer"):
        power_sums(a2, (1, 1), kmax)
    with pytest.raises(DomainError, match="kmax must be an integer"):
        elementary_from_power(power_sums(a2, (1, 1), 2), kmax)


def test_product_power_sums_hand_example():
    a1 = get_rs("A", 1)
    # {y1, -y1} times {2y2, 0, -2y2}: embed the factors disjointly
    p1 = [f.embed(2, 2) for f in power_sums(a1, (1,), 2)]
    p2 = [f.embed(2, 2, a_offset=1, y_offset=1) for f in power_sums(a1, (2,), 2)]
    prod = product_power_sums(p1, p2, 2)
    with pytest.raises(DomainError, match="kmax must be nonnegative"):
        product_power_sums(p1, p2, -1)
    assert prod[0] == BiPoly.constant(2, 2, 6)
    assert prod[1].is_zero()
    assert prod[2] == y_poly(2, {(2, 0): 6, (0, 2): 16})
    # direct check against the six explicit sums mu + nu
    pairs = [(m, n) for m in (1, -1) for n in (2, 0, -2)]
    direct = BiPoly.zero(2, 2)
    for m, n in pairs:
        direct = direct + BiPoly.y_linear([m, n], na=2) ** 2
    assert prod[2] == direct


def _newton_by_bipoly_sums(power, kmax):
    """E_0..E_kmax by Newton's identities as a running sum of BiPoly products."""
    na, ny = power[0].na, power[0].ny
    elem = [BiPoly.constant(na, ny, 1)]
    for k in range(1, kmax + 1):
        acc = BiPoly.zero(na, ny)
        for i in range(1, k + 1):
            term = elem[k - i] * power[i]
            acc = acc + term if i % 2 == 1 else acc - term
        elem.append(BiPoly(na, ny, {e: c * Fraction(1, k) for e, c in acc.terms.items()}))
    return elem


def _convolution_by_bipoly_sums(p, q, kmax):
    """sum_i binom(k, i) * p_i * q_(k-i) as a running sum of BiPoly products."""
    out = []
    for k in range(kmax + 1):
        acc = BiPoly.zero(p[0].na, p[0].ny)
        for i in range(k + 1):
            acc = acc + p[i] * q[k - i] * BiPoly.constant(p[0].na, p[0].ny, comb(k, i))
        out.append(acc)
    return out


def _identical(got, want) -> bool:
    """Equal term dicts whose coefficients also agree in type (int or Fraction)."""
    return len(got) == len(want) and all(
        f.terms == g.terms and all(type(c) is type(g.terms[e]) for e, c in f.terms.items())
        for f, g in zip(got, want))


def test_one_dict_newton_sums_match_bipoly_sums(a2):
    # symbolic P_k have rational coefficients in a; so do their multiples by 3/4
    power = symbolic_power_sums(a2, 4)
    assert any(isinstance(c, Fraction) for f in power for c in f.terms.values())
    for p in (power, [f.scale(Fraction(3, 4)) for f in power]):
        assert _identical(elementary_from_power(p, 4), _newton_by_bipoly_sums(p, 4))


def test_one_dict_binomial_sums_match_bipoly_sums():
    # a GL4 weight: the A3 power sums of its SL part times those of a rational central part
    free = [f.embed(4, 4) for f in power_sums(get_rs("A", 3), (1, 0, 1), 6)]
    central = [BiPoly.y_var(3, 4, 4).scale(Fraction(3, 4)) ** j for j in range(7)]
    got = product_power_sums(free, central, 6)
    assert _identical(got, _convolution_by_bipoly_sums(free, central, 6))
    assert _identical(elementary_from_power(got, 6), _newton_by_bipoly_sums(got, 6))


def test_product_power_sums_rejects_shared_support():
    a1 = get_rs("A", 1)
    p = power_sums(a1, (1,), 2)
    with pytest.raises(DomainError):
        product_power_sums(p, p, 2)
    with pytest.raises(DomainError):
        product_power_sums(p, p, 5)


@pytest.mark.parametrize("kind,rank", [("A", 2), ("B", 3)])
def test_engine_never_enumerates_the_weyl_group(kind, rank):
    rs = build_root_system.__wrapped__(kind, rank)  # uncached: no test has read its weyl
    lam = (1,) + (0,) * (rank - 1)
    power_sums(rs, lam, 4)
    FkTable.build(rs, rs.num_positive + 2)
    weylsum.fk_scalar(rs, (1,) * rank, (1,) * rank, rs.num_positive)
    weight_multiplicities(rs, lam).expanded()
    assert rs._weyl is None


def test_rank_5_classical_types_walk_no_orbit(monkeypatch):
    """A5, B5, C5 and D5 take their alternating sums from determinants, G2 and A3 from the orbit.

    Each is first computed with the orbit forced, then with the orbit walk
    refused: ``power_sums``, ``fk_scalar`` and the F'_k fit that
    ``symbolic_power_sums`` and ``FkTable`` read (``_fit_reduced``), with
    ``symbolic_power_sums`` itself on A5 (its expanded P_2 at rank 5 takes
    2.5-35 s, so kmax is 1).
    """
    def values(rs):
        n, r = rs.num_positive, rs.rank
        ks = [k for k in range(n, n + 5) if not weylsum._vanishes(rs, k)]
        mu, nu = tuple(range(1, r + 1)), tuple(range(r, 0, -1))
        out = [power_sums(rs, lam, 4) for lam in [(1,) + (0,) * (r - 1), (0, 2) + (0,) * (r - 3) + (1,)]]
        out += [weylsum.fk_scalar(rs, mu, nu, k) for k in ks] + [weylsum._fit_reduced(rs, ks)]
        return out + (symbolic_power_sums(rs, 1) if rs.kind == "A" else [])

    cases = [get_rs(kind, 5) for kind in "ABCD"]
    monkeypatch.setattr(weylsum, "_by_determinants", lambda rs: False)
    want = [values(rs) for rs in cases]
    monkeypatch.undo()

    def no_orbit(rs, mu):
        raise AssertionError(f"{rs.name} walked the orbit")

    monkeypatch.setattr(weylsum, "_signed_orbit", no_orbit)
    assert [values(rs) for rs in cases] == want
    for rs in (get_rs("G", 2), get_rs("A", 3)):
        with pytest.raises(AssertionError, match="walked the orbit"):
            power_sums(rs, (1,) + (0,) * (rs.rank - 1), 4)
        with pytest.raises(AssertionError, match="walked the orbit"):
            weylsum.fk_scalar(rs, (1,) * rs.rank, (2,) * rs.rank, rs.num_positive)
