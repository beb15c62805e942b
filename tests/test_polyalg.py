"""Exact polynomial ring: axioms, division, reductions, serialization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_compose
from weightcalc.errors import DomainError, InternalError
from weightcalc.polyalg import (
    BiPoly,
    Mod2Poly,
    _integer_rows,
    _Packed,
    _packed,
    _packed_quotient,
    _unpacked,
    exact_divide,
    expand_linear_power,
    invert,
    mod2_reduce,
    rref,
)
from weightcalc.charclass import builtin_lattice, builtin_lattice_names
from weightcalc.rootsys import SUPPORTED_RANKS, build_root_system

NA, NY = 2, 2

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=4),
    ),
)
exponents = st.tuples(*([st.integers(min_value=0, max_value=3)] * (NA + NY)))
bipolys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda t: BiPoly(NA, NY, t)
)
gen_exponents = st.tuples(*([st.integers(min_value=0, max_value=3)] * 3))
int_gen_polys = st.dictionaries(
    gen_exponents, st.integers(min_value=-9, max_value=9), max_size=6
).map(lambda t: BiPoly(3, 0, t))
nonzero_bipolys = bipolys.filter(lambda f: not f.is_zero())

mod2_terms = st.frozensets(
    st.tuples(*([st.integers(min_value=0, max_value=3)] * 3)), max_size=6
)
mod2_polys = mod2_terms.map(lambda t: Mod2Poly(3, t))
points = st.tuples(*([coeffs] * (NA + NY)))


def termwise(f: BiPoly, point) -> Fraction:
    """Sum of c * prod v^k over the terms: evaluation that shares no code with compose."""
    total = Fraction(0)
    for e, c in f.terms.items():
        for v, k in zip(point, e):
            c = c * Fraction(v) ** k
        total += c
    return total


def canonical(f: BiPoly) -> bool:
    """No zero coefficient and no integral Fraction in the term dict."""
    return all(c and not (isinstance(c, Fraction) and c.denominator == 1)
               for c in f.terms.values())


# -- ring axioms ---------------------------------------------------------------


@given(bipolys, bipolys, bipolys, points)
def test_ring_axioms(f, g, h, pt):
    zero = BiPoly.zero(NA, NY)
    one = BiPoly.constant(NA, NY, 1)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert f - f == zero
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * one == f
    assert f * zero == zero
    assert f * (g + h) == f * g + f * h
    assert -(-f) == f
    assert termwise(f * g, pt) == termwise(f, pt) * termwise(g, pt)
    assert termwise(f - g, pt) == termwise(f, pt) - termwise(g, pt)
    assert all(canonical(x) for x in (f + g, f - g, f * g, f - f, -f))


@given(bipolys, st.integers(min_value=0, max_value=4))
def test_pow_matches_repeated_product(f, k):
    expected = BiPoly.constant(NA, NY, 1)
    for _ in range(k):
        expected = expected * f
    assert f**k == expected
    assert canonical(f**k)


@given(bipolys, nonzero_bipolys)
def test_exact_divide_round_trip(f, g):
    assert exact_divide(f * g, g) == f


int_bipolys = st.dictionaries(exponents, st.integers(min_value=-9, max_value=9), max_size=6).map(
    lambda t: BiPoly(NA, NY, t))


@given(int_bipolys, nonzero_bipolys)
def test_packed_quotient_round_trip(f, g):
    # the packed long division gives back an int-coefficient factor, whatever g's coefficients
    n = NA + NY
    q = _packed_quotient(_Packed(_packed((f * g).terms, n)), _packed(g.terms, n))
    assert _unpacked(NA, NY, q) == f


def test_packed_quotient_remainder_raises():
    # a leading term that g's does not divide (a field borrows), and a non-integer quotient
    a0, a1 = BiPoly.a_var(0, NA, NY), BiPoly.a_var(1, NA, NY)
    n = NA + NY
    with pytest.raises(InternalError, match="terms left"):
        _packed_quotient(_packed((a0 * a0 + a1).terms, n), _packed(a0.terms, n))
    with pytest.raises(InternalError, match="3 / 2"):
        _packed_quotient(_packed((a0 * 3).terms, n), _packed((a0 * 2).terms, n))


def test_exact_divide_remainder_raises():
    a0 = BiPoly.a_var(0, NA, NY)
    a1 = BiPoly.a_var(1, NA, NY)
    with pytest.raises(InternalError):
        exact_divide(a0 * a0 + a1, a0)
    with pytest.raises(DomainError):
        exact_divide(a0, BiPoly.zero(NA, NY))


@pytest.mark.parametrize("images", [{"a_images": [1]}, {"y_images": [None]},
                                    {"a_images": [BiPoly.a_var(0, 1, 1)], "y_images": ["y"]}])
def test_compose_refuses_an_image_that_is_not_a_polynomial(images):
    # an int image raised AttributeError
    with pytest.raises(DomainError, match="compose images must be BiPoly polynomials"):
        BiPoly(1, 1).compose(**images)


# -- translation and evaluation ------------------------------------------------


def _translated(f: BiPoly, shift) -> BiPoly:
    """f(a + shift, y): ``compose`` with the affine images a_i + shift_i."""
    return f.compose(a_images=[BiPoly.a_var(i, f.na, f.ny) + BiPoly.constant(f.na, f.ny, sh)
                               for i, sh in enumerate(shift)])


@given(bipolys, bipolys)
def test_translate_is_ring_homomorphism(f, g):
    shift = (2, -1)
    assert _translated(f * g, shift) == _translated(f, shift) * _translated(g, shift)
    assert _translated(f + g, shift) == _translated(f, shift) + _translated(g, shift)


@given(bipolys, points, points)
def test_translate_matches_shifted_evaluation(f, pt, shift):
    shift = shift[:NA]
    shifted = _translated(f, shift)
    moved = tuple(p + s for p, s in zip(pt, shift)) + pt[NA:]
    assert termwise(shifted, pt) == termwise(f, moved)
    assert shifted.evaluate(pt[:NA], pt[NA:]) == termwise(f, moved)
    assert canonical(shifted)


@given(bipolys, points)
def test_eval_a_consistent_with_full_evaluation(f, pt):
    mu, y = pt[:NA], pt[NA:]
    partial = f.eval_a(mu)
    assert partial == naive_compose(f, a_images=[BiPoly.constant(NA, NY, v) for v in mu])
    assert partial.a_degree() <= 0
    assert termwise(partial, (0,) * NA + y) == termwise(f, pt)
    assert canonical(partial)
    value = f.evaluate(mu, y)
    assert value == termwise(f, pt)
    assert not (isinstance(value, Fraction) and value.denominator == 1)


@given(bipolys, points)
def test_compose_and_embed_match_termwise_evaluation(f, pt):
    images = [BiPoly.constant(1, 1, v) for v in pt]
    composed = f.compose(a_images=images[:NA], y_images=images[NA:])
    assert (composed.na, composed.ny) == (1, 1) and composed.a_degree() <= 0
    assert composed.y_degree() <= 0
    assert composed.constant_term() == termwise(f, pt)
    wide = f.embed(3, 3, a_offset=1, y_offset=1)
    assert termwise(wide, (0, *pt[:NA], 0, *pt[NA:])) == termwise(f, pt)
    assert canonical(composed) and canonical(wide)


@given(bipolys)
def test_substitute_linear_on_generators(f):
    swap = [BiPoly.a_linear(row, ny=NY) for row in ([0, 1], [1, 0])]
    assert f.compose(a_images=swap) == naive_compose(f, a_images=swap)
    assert f.compose(a_images=swap).compose(a_images=swap) == f
    ident = [BiPoly.a_var(i, NA, NY) for i in range(NA)]
    assert f.compose(a_images=ident) == f


def _image_polys(na, ny):
    """Constant, affine and general images of arity (na, ny)."""
    n = na + ny
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    affine = st.tuples(coeffs, st.tuples(*[coeffs] * n)).map(
        lambda cs: BiPoly(na, ny, {(0,) * n: cs[0], **dict(zip(units, cs[1]))}))
    general = st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=2)] * n),
                              coeffs, max_size=4).map(lambda t: BiPoly(na, ny, t))
    return st.one_of(coeffs.map(lambda c: BiPoly.constant(na, ny, c)), affine, general)


@st.composite
def substitutions(draw):
    """(a_images, y_images): both blocks, or one with the other kept, into arity (0..3, 0..3)."""
    kept = draw(st.sampled_from([None, "a", "y"]))
    na = draw(st.integers(min_value=NA if kept == "a" else 0, max_value=3))
    ny = draw(st.integers(min_value=NY if kept == "y" else 0, max_value=3))
    images = _image_polys(na, ny)
    a_images = None if kept == "a" else draw(st.lists(images, min_size=NA, max_size=NA))
    y_images = None if kept == "y" else draw(st.lists(images, min_size=NY, max_size=NY))
    return a_images, y_images


@given(bipolys, substitutions())
def test_compose_matches_naive_substitution(f, images):
    composed = f.compose(*images)
    assert composed == naive_compose(f, *images)
    assert canonical(composed)


def test_compose_refuses_exponents_wider_than_the_packing():
    a = BiPoly.a_var(0, 1, 1)
    with pytest.raises(DomainError, match="degree over 65535"):  # 2^15 times a degree-2 image
        BiPoly(1, 1, {(1 << 15, 0): 1}).compose(a_images=[a * a])
    with pytest.raises(DomainError, match="degree over 65535"):  # a kept exponent of 2^16
        BiPoly(1, 1, {(0, 1 << 16): 1}).compose(a_images=[BiPoly.constant(1, 1, 2)])
    with pytest.raises(DomainError, match="degree over 65535"):  # a constant image of a^(2^16)
        BiPoly(1, 1, {(1 << 16, 0): 1}).eval_a([2])
    with pytest.raises(DomainError, match="degree over 65535"):  # an image of degree 2^16
        BiPoly(1, 1, {(0, 1): 1}).compose(a_images=[a ** (1 << 16)])
    widest = BiPoly(1, 1, {((1 << 16) - 1, 0): 3})
    assert widest.compose(a_images=[a]) == widest
    assert widest.compose(y_images=[BiPoly.constant(1, 1, 2)]) == widest
    kept = BiPoly(1, 1, {(0, (1 << 16) - 1): 3})
    assert kept.compose(a_images=[BiPoly.constant(1, 1, 2)]) == kept


def test_compose_refuses_mismatched_images():
    f = BiPoly(2, 1, {(1, 0, 1): 1})
    with pytest.raises(DomainError, match="image count"):
        f.compose(a_images=[BiPoly.a_var(0, 2, 1)])
    with pytest.raises(DomainError, match="share one arity"):
        f.compose(a_images=[BiPoly.a_var(0, 2, 1), BiPoly.a_var(0, 2, 2)])
    with pytest.raises(DomainError, match="image count"):  # two kept a-variables, one a-slot
        f.compose(y_images=[BiPoly.constant(1, 1, 1)])
    with pytest.raises(DomainError, match="image count"):  # three images, but none for a
        f.compose(a_images=[], y_images=[BiPoly.a_var(0, 2, 1)] * 3)
    with pytest.raises(DomainError, match="image count"):  # no image for two a-variables
        f.compose(a_images=[])
    with pytest.raises(DomainError, match="image count"):  # no image for one y-variable
        f.compose(y_images=[])


def test_compose_shared_arity_and_embedding():
    f = BiPoly(1, 1, {(1, 0): 2, (0, 2): 1})  # 2a + y^2
    wide = f.embed(3, 2, a_offset=1, y_offset=0)
    assert wide.na == 3 and wide.ny == 2
    assert wide.terms == {(0, 1, 0, 0, 0): 2, (0, 0, 0, 2, 0): 1}
    a_img = [BiPoly.y_linear([1, 1], na=2)]  # a := y1 + y2
    composed = f.compose(a_images=a_img, y_images=[BiPoly.y_var(0, 2, 2)])
    assert composed == BiPoly(2, 2, {(0, 0, 1, 0): 2, (0, 0, 0, 1): 2, (0, 0, 2, 0): 1})


def test_embed_refuses_a_negative_offset():
    with pytest.raises(DomainError):
        BiPoly(1, 1, {(1, 0): 2}).embed(2, 2, a_offset=-1)


def test_compose_without_a_variables_keeps_the_polynomial():
    f = BiPoly(0, 2, {(1, 1): 3})
    assert f.compose(a_images=[]) == f


def test_constant_of_the_empty_ring_evaluates():
    assert BiPoly.constant(0, 0, 5).evaluate([], []) == 5


def test_constant_of_the_empty_ring_substitutes_and_embeds():
    five = BiPoly.constant(0, 0, 5)
    assert five.eval_a(()) == five and repr(five.eval_a(())) == "BiPoly(5)"
    assert five.embed(1, 1) == BiPoly.constant(1, 1, 5)
    assert repr(five.embed(1, 1)) == "BiPoly(5)"


def test_eval_a_takes_a_float_as_its_exact_fraction():
    y1 = BiPoly(1, 1, {(1, 1): 2}).eval_a([0.5])
    assert y1 == BiPoly.y_var(0, 1, 1) and canonical(y1)


def test_evaluate_takes_a_float_as_its_exact_fraction():
    got = BiPoly(1, 1, {(1, 1): 2}).evaluate([0.1], [3])
    assert got == 6 * Fraction(0.1) and isinstance(got, Fraction)


@pytest.mark.parametrize("bad", [float("nan"), "x", None])
def test_evaluate_refuses_a_non_numeric_point(bad):
    with pytest.raises(DomainError):
        BiPoly(1, 1, {(1, 1): 2}).evaluate([bad], [3])


def test_eval_a_refuses_an_infinite_point():
    with pytest.raises(DomainError):
        BiPoly(1, 1, {(1, 1): 2}).eval_a([float("inf")])


def test_float_coefficients_are_refused():
    with pytest.raises(DomainError):
        BiPoly.constant(1, 1, 0.1)
    with pytest.raises(DomainError):
        BiPoly(1, 1, {(1, 0): 0.5})


def test_float_scalars_are_refused():
    f = BiPoly(1, 1, {(1, 1): 2})
    with pytest.raises(DomainError):
        f.scale(0.5)
    with pytest.raises(DomainError):
        f * 0.5
    with pytest.raises(DomainError):
        0.5 * f


@pytest.mark.parametrize("flag", [True, False])
def test_bool_coefficients_and_scalars_are_refused(flag):
    # a bool would otherwise pass as the int 1 or 0 and be written "True" to JSON
    with pytest.raises(DomainError):
        BiPoly(1, 1, {(0, 1): flag})
    with pytest.raises(DomainError):
        BiPoly.constant(1, 1, flag)
    with pytest.raises(DomainError):
        BiPoly(1, 1, {(1, 1): 2}).scale(flag)


@given(st.tuples(*([st.integers(min_value=-4, max_value=4)] * 3)),
       st.integers(min_value=0, max_value=5))
def test_expand_linear_power(coeff_vec, k):
    expanded = expand_linear_power(coeff_vec, k)
    direct = BiPoly.y_linear(list(coeff_vec), na=0) ** k
    assert BiPoly(0, 3, expanded) == direct


# -- mod-2 reduction -----------------------------------------------------------


@given(int_gen_polys, int_gen_polys)
def test_mod2_reduce_is_ring_homomorphism(f, g):
    assert mod2_reduce(f + g) == mod2_reduce(f) + mod2_reduce(g)
    assert mod2_reduce(f * g) == mod2_reduce(f) * mod2_reduce(g)


@given(int_gen_polys)
def test_mod2_reduce_kernel_is_even_coefficients(f):
    doubled = f.scale(2)
    assert mod2_reduce(doubled).is_zero()
    reduced = mod2_reduce(f)
    assert reduced.is_zero() == all(c % 2 == 0 for c in f.terms.values())


@given(mod2_polys, mod2_polys)
def test_mod2_xor_addition_and_frobenius(f, g):
    assert (f + f).is_zero()
    assert f + g == g + f
    assert f * g == g * f
    assert f.square() == f * f
    assert f**2 == f.square()


@given(mod2_polys)
def test_mod2_truncate_degree_parts(f):
    rebuilt = Mod2Poly.zero(3)
    for k in range(f.degree() + 1):
        rebuilt = rebuilt + f.degree_part(k)
    assert rebuilt == f
    top = f.truncate(2)
    assert all(sum(e) <= 2 for e in top.terms)


# -- rendering and serialization -----------------------------------------------


@given(bipolys)
def test_json_round_trip(f):
    obj = f.to_json_obj()
    back = BiPoly.from_json_obj(obj, NA, NY)
    assert back == f


def test_json_with_custom_names():
    f = BiPoly(2, 0, {(1, 1): Fraction(-3, 2)})
    obj = f.to_json_obj(a_names=["e1", "e2"], y_names=[])
    assert obj == {"terms": [{"c": "-3/2", "m": {"e1": 1, "e2": 1}}]}
    back = BiPoly.from_json_obj(obj, 2, 0, a_names=["e1", "e2"], y_names=[])
    assert back == f


def test_json_rejects_malformed_input():
    with pytest.raises(DomainError):
        BiPoly.from_json_obj({"terms": [{"c": "1", "m": {"zz": 1}}]}, NA, NY)
    with pytest.raises(DomainError):
        BiPoly.from_json_obj({"terms": [{"c": "1", "m": {"a1": -2}}]}, NA, NY)
    with pytest.raises(DomainError, match="2 variable names for arity"):
        BiPoly.from_json_obj({"terms": [{"c": "1", "m": {"z": 1}}]}, 1, 0, ["x", "z"])
    for shape in ([1, 2], "zzz", {"terms": "zzz"}, {"terms": [1]},
                  {"terms": [{"c": "1", "m": [1]}]}, {"terms": [{"c": 1, "m": {}}]},
                  {"terms": [{"c": "1", "m": {"a1": True}}]}):
        with pytest.raises(DomainError):
            BiPoly.from_json_obj(shape, NA, NY)


def test_render_canonical_examples():
    f = BiPoly(1, 1, {(0, 2): 12, (1, 1): -1, (0, 0): Fraction(1, 2)})
    assert f.render() == "-1*a1*y1 + 12*y1^2 + 1/2"
    assert BiPoly.zero(1, 1).render() == "0"
    m = Mod2Poly(2, [(2, 0), (0, 2)])
    assert m.render(["v1", "v2"]) == "v1^2 + v2^2"


def test_mod2_json_in_render_order():
    m = Mod2Poly(2, [(0, 0), (1, 0), (0, 2), (2, 0), (1, 1)])
    obj = m.to_json_obj(["u", "w"])
    assert obj == {"terms": [{"u": 2}, {"u": 1, "w": 1}, {"w": 2}, {"u": 1}, {}]}
    assert m.render(["u", "w"]) == "u^2 + u*w + w^2 + u + 1"
    assert Mod2Poly.zero(2).to_json_obj(["u", "w"]) == {"terms": []}


@pytest.mark.parametrize("names", [["u"], ["u", "w", "z"]], ids=["too-few", "too-many"])
def test_mod2_names_count_is_checked(names):
    m = Mod2Poly(2, [(1, 0), (0, 0)])
    for write in (m.render, m.to_json_obj):
        with pytest.raises(DomainError, match=f"{len(names)} variable names for arity"):
            write(names)


def test_arity_is_checked_before_zero_terms_are_dropped():
    with pytest.raises(DomainError, match="does not match arity"):
        BiPoly(1, 1, {(5,): 0})
    with pytest.raises(DomainError, match="does not match arity"):
        BiPoly(1, 1, {(5,): 1})


def test_sorted_terms_graded_lex_stability():
    f = BiPoly(1, 1, {(0, 2): 1, (2, 0): 1, (1, 1): 1, (0, 0): 5})
    keys = [e for e, _ in f.sorted_terms()]
    assert keys == sorted(keys, key=lambda e: (-sum(e), tuple(-x for x in e)))


# -- exact linear algebra --------------------------------------------------------


ALL_TYPES = [
    (kind, rank) for kind, (lo, hi) in SUPPORTED_RANKS.items() for rank in range(lo, hi + 1)
]


def _is_left_inverse(inv, mat) -> bool:
    n = len(mat)
    return all(
        sum(inv[i][t] * mat[t][j] for t in range(n)) == int(i == j)
        for i in range(n)
        for j in range(n)
    )


def test_invert_killing_matrices_of_all_types():
    assert len(ALL_TYPES) == 21
    for kind, rank in ALL_TYPES:
        killing = build_root_system(kind, rank).killing
        inv = invert(killing)
        assert inv is not None and _is_left_inverse(inv, killing), (kind, rank)


def test_invert_builtin_lattice_bases():
    for name in builtin_lattice_names():
        basis = builtin_lattice(name).basis
        inv = invert(basis)
        assert inv is not None and _is_left_inverse(inv, basis), name


def test_integer_rows_scale_by_the_least_common_denominator():
    d, rows = _integer_rows([[Fraction(1, 2), 1, 0], [Fraction(-2, 3), Fraction(4), 5]])
    assert (d, rows) == (6, ((3, 6, 0), (-4, 24, 30)))
    assert all(type(x) is int for row in rows for x in row)
    assert _integer_rows([[1, 2], [Fraction(3), 4]]) == (1, ((1, 2), (3, 4)))
    for name in builtin_lattice_names():  # d * inverse is integral, and d is the least such
        inv = invert(builtin_lattice(name).basis)
        d, rows = _integer_rows(inv)
        assert [[Fraction(x, d) for x in row] for row in rows] == [list(row) for row in inv]
        assert all(any(x % p for row in rows for x in row) for p in range(2, d + 1) if d % p == 0)


def test_singular_input_gives_none_or_fewer_pivots():
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert invert(singular) is None
    assert invert([[0]]) is None
    rows, pivots = rref(singular)
    assert pivots == [0, 1] and len(rows) == 2
    assert rows == [[1, 0, 1], [0, 1, 1]]
    assert rref([[0, 0], [0, 0]]) == ([], [])


def test_rref_detects_inconsistent_augmented_system():
    # x + y = 1 and 2x + 2y = 3 have no common solution: the last column pivots
    _, pivots = rref([[1, 1, 1], [2, 2, 3]])
    assert pivots[-1] == 2
    # a consistent system never pivots on the right-hand side
    rows, pivots = rref([[1, 1, 2], [1, -1, 0]])
    assert pivots == [0, 1] and [row[2] for row in rows] == [1, 1]


def test_rref_is_exact_on_integer_input():
    rows, _ = rref([[3, 1], [1, 3]])
    assert rows == [[1, 0], [0, 1]]
    inv = invert([[3, 1], [1, 3]])
    assert inv == ((Fraction(3, 8), Fraction(-1, 8)), (Fraction(-1, 8), Fraction(3, 8)))
    assert all(isinstance(x, Fraction) for row in inv for x in row)


# -- fraction-free rref against Gauss-Jordan over Q ------------------------------


def _fraction_rref(rows):
    """Gauss-Jordan over Fraction, normalising each pivot row: the reference for ``rref``."""
    mat = [[Fraction(x) for x in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        pv = mat[top][col]
        mat[top] = [x / pv for x in mat[top]]
        for i, row in enumerate(mat):
            if i != top and row[col]:
                f = row[col]
                mat[i] = [a - f * b for a, b in zip(row, mat[top])]
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return mat[: len(pivots)], pivots


@st.composite
def matrices(draw, square=False):
    """Int and Fraction matrices, with rows that are combinations of others and zero rows."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    nrows = ncols if square else draw(st.integers(min_value=0, max_value=8))
    rows = [draw(st.lists(coeffs, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.integers(min_value=0, max_value=3)) == 0:  # dependent on two earlier rows
            a, b = draw(coeffs), draw(coeffs)
            j = draw(st.integers(min_value=0, max_value=i - 1))
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[i - 1])]
        elif draw(st.integers(min_value=0, max_value=5)) == 0:
            rows[i] = [0] * ncols
    return rows


def _same_rref(got, want) -> bool:
    """Equal pivots, and rows equal entry by entry, every entry a Fraction."""
    return got[1] == want[1] and got[0] == want[0] and all(
        type(x) is Fraction for row in got[0] for x in row)


@given(matrices())
def test_fraction_free_rref_matches_gauss_jordan_over_q(rows):
    assert _same_rref(rref(rows), _fraction_rref(rows))


@given(matrices(), st.sampled_from([0.5, -1.25, "3/4", "-7"]), st.data())
def test_rref_reads_a_non_int_entry_through_fraction(rows, entry, data):
    if not rows:
        rows = [[1, 2]]
    i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(rows[0]) - 1))
    rows[i][j] = entry
    assert _same_rref(rref(rows), _fraction_rref(rows))


@pytest.mark.parametrize("rows", [
    [], [[0]], [[5]], [[0], [0]], [[3], [-6], [0]], [[0, 0, 0]],
    [[2, 4], [1, 2], [3, 6]], [[1, 2], [3, 4], [5, 6], [7, 8]],
    [[0, Fraction(2, 3)], [0, Fraction(-4, 9)]],
])
def test_rref_edge_shapes_match_gauss_jordan_over_q(rows):
    assert _same_rref(rref(rows), _fraction_rref(rows))


@given(matrices(square=True))
def test_invert_matches_the_reference_inverse(mat):
    n = len(mat)
    red, pivots = _fraction_rref([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(mat)])
    want = None if pivots != list(range(n)) else tuple(tuple(row[n:]) for row in red)
    got = invert(mat)
    assert got == want
    if got is None:  # singular: some row is a combination of the others
        assert len(_fraction_rref(mat)[1]) < n
    else:
        assert all(type(x) is Fraction for row in got for x in row)


@given(bipolys, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12))
def test_scale_divides_with_exact_types(f, m, n):
    c = Fraction(m, n)
    want = {}
    if c:
        for e, v in f.terms.items():
            v = v * c
            want[e] = int(v) if v.denominator == 1 else v
    got = f.scale(c).terms
    assert got == want and all(type(v) is type(want[e]) for e, v in got.items())
    back = f.scale(n).scale(Fraction(1, n)).terms  # n divides every coefficient: ints stay ints
    assert back == f.terms and all(type(v) is type(f.terms[e]) for e, v in back.items())
