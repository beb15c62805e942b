"""Root systems: counts, Weyl groups, invariant forms, dominance."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_supported_types, get_rs, y_poly
from weightcalc import rootsys
from weightcalc.errors import DomainError, InternalError
from weightcalc.polyalg import BiPoly, invert
from weightcalc.rootsys import (
    SUPPORTED_RANKS,
    act,
    build_root_system,
    dominant_representative,
    highest_root,
    is_dominant,
)

EXPECTED_POSITIVE = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G": lambda r: 6,
}

WEYL_ORDER = {
    "A": lambda r: factorial(r + 1),
    "B": lambda r: 2**r * factorial(r),
    "C": lambda r: 2**r * factorial(r),
    "D": lambda r: 2 ** (r - 1) * factorial(r),
    "G": lambda r: 12,
}


def reflection_matrix(rs, i: int) -> list[list[int]]:
    """Action of the i-th simple reflection on fundamental-weight coordinates."""
    r = rs.rank
    return [
        [(1 if j == k else 0) - (rs.cartan[i][j] if k == i else 0) for k in range(r)]
        for j in range(r)
    ]


def apply(mat, mu):
    return tuple(sum(row[j] * mu[j] for j in range(len(mu))) for row in mat)


# -- structure -----------------------------------------------------------------


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_counts_and_dimensions(kind, rank):
    rs = get_rs(kind, rank)
    n = EXPECTED_POSITIVE[kind](rank)
    assert rs.num_positive == n
    assert len(rs.positive_roots) == n
    assert len(rs.positive_coroots) == n
    assert rs.dim_g == rank + 2 * n


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_cartan_shape_and_simple_roots(kind, rank):
    rs = get_rs(kind, rank)
    c = rs.cartan
    assert all(c[i][i] == 2 for i in range(rank))
    assert all(c[i][j] <= 0 for i in range(rank) for j in range(rank) if i != j)
    # the rows of the Cartan matrix are the simple roots in weight coordinates
    positives = {tuple(a) for a in rs.positive_roots}
    for i in range(rank):
        assert tuple(c[i]) in positives


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_root_coroot_pairing_is_two(kind, rank):
    rs = get_rs(kind, rank)
    for alpha, alpha_vee in zip(rs.positive_roots, rs.positive_coroots):
        assert sum(a * b for a, b in zip(alpha, alpha_vee)) == 2


def test_unsupported_types_rejected():
    for kind, rank in [("A", 0), ("A", 7), ("B", 1), ("C", 1), ("D", 2), ("E", 6), ("G", 3)]:
        with pytest.raises(DomainError):
            build_root_system(kind, rank)
    assert build_root_system("a", 2).kind == "A"
    assert SUPPORTED_RANKS["A"] == (1, 6)


@pytest.mark.parametrize("rank", [True, 1.0], ids=repr)
def test_rank_that_only_equals_an_int_is_refused(rank):
    # True and 1.0 compare and hash like 1: a memo that let them in would hand
    # back A1 for them, or keep a system of rank True for every later A1
    with pytest.raises(DomainError, match="out of range"):
        build_root_system("A", rank)
    assert type(build_root_system("A", 1).rank) is int


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_root_system_compares_and_hashes_by_type(kind, rank):
    # every other field derives from (kind, rank); a memo keyed by rs hashes two values
    rs = build_root_system(kind, rank)
    assert hash(rs) == hash((rs.kind, rs.rank))
    assert rs == rootsys.RootSystem(rs.kind, rs.rank, *(None,) * 7)


# -- golden root data ------------------------------------------------------------


def _root_string_coefficients(cartan):
    """Reference: the positive roots over the simple roots by root-string closure.

    beta + alpha_i is a root iff p - <beta, alpha_i-vee> > 0, p the depth of
    the alpha_i-string below beta.  Sorted by (height, coefficients).
    """
    rank = len(cartan)
    found = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    layer = sorted(found)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[j][i] for j in range(rank))
                p, lower = 0, list(beta)
                lower[i] -= 1
                while tuple(lower) in found:
                    p, lower[i] = p + 1, lower[i] - 1
                up = tuple(b + (j == i) for j, b in enumerate(beta))
                if p - pairing > 0 and up not in found:
                    found.add(up)
                    nxt.append(up)
        layer = nxt
    return sorted(found, key=lambda k: (sum(k), k))


def _half_norm_coroot(k, cartan, kind):
    """Reference: beta-vee = sum_i k_i (2 d_i / (beta, beta)) alpha_i-vee.

    d_i = (alpha_i, alpha_i) / 2 up to one overall scale, from a table.
    """
    rank = len(cartan)
    d = [Fraction(1)] * rank
    if kind == "B":
        d[-1] = Fraction(1, 2)
    elif kind == "C":
        d[-1] = Fraction(2)
    elif kind == "G":
        d[1] = Fraction(3)
    norm = sum(k[i] * k[j] * d[j] * cartan[i][j] for i in range(rank) for j in range(rank))
    coords = [Fraction(2 * k[i]) * d[i] / norm for i in range(rank)]
    assert all(c.denominator == 1 for c in coords)
    return tuple(int(c) for c in coords)


def _typed(x):
    """A value with the type of every entry, so that 1 and Fraction(1) differ."""
    if isinstance(x, tuple):
        return tuple(_typed(y) for y in x)
    return type(x).__name__, x


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_root_data_match_the_root_string_and_half_norm_references(kind, rank):
    # the roots come from orbit walks and the coroots from the Killing form;
    # both must give the tuples of the closure and half-norm formulas, in
    # value, order and type
    rs = get_rs(kind, rank)
    c = rs.cartan
    coeffs = _root_string_coefficients(c)
    roots = [tuple(sum(k[i] * c[i][j] for i in range(rank)) for j in range(rank)) for k in coeffs]
    killing = tuple(tuple(2 * sum(a[i] * a[j] for a in roots) for j in range(rank))
                    for i in range(rank))
    expected = {
        "root_coefficients": tuple(coeffs),
        "positive_roots": tuple(roots),
        "positive_coroots": tuple(_half_norm_coroot(k, c, kind) for k in coeffs),
        "killing": killing,
        "killing_dual": invert(killing),
    }
    for name, value in expected.items():
        assert _typed(getattr(rs, name)) == _typed(value), name


def test_non_integral_coroot_is_an_internal_error():
    # 2 G beta / (beta . G beta) with G = diag(1, 3) and beta = (1, 1) is (1/2, 3/2)
    assert rootsys._coroot(((1, 0), (0, 1)), (1, 1)) == (1, 1)
    with pytest.raises(InternalError, match="non-integral coroot"):
        rootsys._coroot(((1, 0), (0, 3)), (1, 1))


# -- Weyl group ----------------------------------------------------------------


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_weyl_signs_sum_to_zero(kind, rank):
    # equally many even and odd elements in every nontrivial reflection group
    rs = get_rs(kind, rank)
    assert sum(w.sign for w in rs.weyl) == 0
    assert len(rs.weyl) == WEYL_ORDER[kind](rank)


@pytest.mark.parametrize(
    "kind,rank", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_simple_reflections_in_weyl_with_sign(kind, rank):
    rs = get_rs(kind, rank)
    mats = {tuple(map(tuple, w.matrix)): w.sign for w in rs.weyl}
    for i in range(rank):
        m = tuple(map(tuple, reflection_matrix(rs, i)))
        assert mats[m] == -1


def closure_weyl(rs):
    """W as the breadth-first closure of the simple-reflection matrices.

    Each new product g * w gets the opposite sign of w; the result is sorted
    by matrix, the order ``RootSystem.weyl`` promises.
    """
    r = rs.rank
    gens = [tuple(map(tuple, reflection_matrix(rs, i))) for i in range(r)]
    identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    seen = {identity: 1}
    frontier = [identity]
    while frontier:
        nxt = []
        for mat in frontier:
            cols = tuple(zip(*mat))
            for g in gens:
                prod = tuple(
                    tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in g
                )
                if prod not in seen:
                    seen[prod] = -seen[mat]
                    nxt.append(prod)
        frontier = nxt
    return tuple((m, seen[m]) for m in sorted(seen))


@pytest.mark.parametrize(
    "kind,rank",
    [(k, r) for k, r in all_supported_types() if WEYL_ORDER[k](r) <= 5040],
)
def test_orbit_walk_weyl_equals_the_matrix_closure(kind, rank):
    rs = get_rs(kind, rank)
    assert [tuple(w) for w in rs.weyl] == list(closure_weyl(rs))


def det(mat) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in mat]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_weyl_signs_are_determinants_and_entries_are_coroot_coefficients(kind, rank):
    # the decode of the orbit walk relies on |M[i][j]| <= c
    rs = get_rs(kind, rank)
    c = max(max(b) for b in rs.positive_coroots)
    assert len({w.matrix for w in rs.weyl}) == WEYL_ORDER[kind](rank)
    for w in rs.weyl:
        assert max(abs(x) for row in w.matrix for x in row) <= c
        assert w.sign == det(w.matrix)


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_killing_form_reflection_invariant(kind, rank):
    rs = get_rs(kind, rank)
    k = rs.killing
    r = rank
    for i in range(r):
        m = reflection_matrix(rs, i)
        # the coweight-side action matrix is the transpose of the weight-side
        # one, so invariance of the form in coroot coordinates reads MKM^T = K
        for p in range(r):
            for q in range(r):
                val = sum(m[p][s] * k[s][t] * m[q][t] for s in range(r) for t in range(r))
                assert val == k[p][q]


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_q2_equals_sum_of_root_squares(kind, rank):
    from weightcalc.weylsum import q2_poly

    rs = get_rs(kind, rank)
    acc = BiPoly.zero(rank, rank)
    for alpha in rs.positive_roots:
        sq = BiPoly.y_linear(list(alpha), na=rank) ** 2
        acc = acc + sq.scale(2)  # both alpha and -alpha contribute
    assert acc == q2_poly(rs)


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_minus_one_in_weyl_table(kind, rank):
    rs = get_rs(kind, rank)
    expected = {
        "A": rank == 1,
        "B": True,
        "C": True,
        "D": rank % 2 == 0,
        "G": True,
    }[kind]
    assert rs.minus_one_in_weyl == expected


@pytest.mark.parametrize("kind,rank", all_supported_types())
def test_name_integer_dual_rows_and_two_rho_vee(kind, rank):
    rs = get_rs(kind, rank)
    assert rs.name == ("G2" if kind == "G" else f"{kind}{rank}")
    # M = D * K-vee in int rows, D the lcm of the denominators of K-vee
    d = lcm(*(Fraction(k).denominator for row in rs.killing_dual for k in row))
    assert rs.killing_dual_rows == tuple(tuple(d * k for k in row) for row in rs.killing_dual)
    assert {type(m) for row in rs.killing_dual_rows for m in row} == {int}
    # 2rho-vee pairs to 2 with every simple root
    assert [sum(a * x for a, x in zip(row, rs.two_rho_vee)) for row in rs.cartan] == [2] * rank


@pytest.mark.parametrize("kind,rank", [t for t in all_supported_types() if t[0] != "G"])
def test_vector_weights_are_the_orbit_of_w1(kind, rank):
    # the r + 1 weights of SL(r+1) on A, and e_1..e_r with their negatives on B, C, D
    rs = get_rs(kind, rank)
    e = rs.vector_weights
    assert e[0] == (1,) + (0,) * (rank - 1) and len(e) == rank + (kind == "A")
    signed = set(e) if kind == "A" else set(e) | {tuple(-x for x in v) for v in e}
    assert len(signed) == len(e) * (1 if kind == "A" else 2)
    assert signed == set(rootsys.dominant_orbit(rs.cartan, e[0]))


def test_killing_dual_is_inverse_of_killing():
    for kind, rank in [("A", 2), ("B", 3), ("C", 2), ("D", 4), ("G", 2)]:
        rs = get_rs(kind, rank)
        r = rank
        for i in range(r):
            for j in range(r):
                val = sum(Fraction(rs.killing[i][t]) * rs.killing_dual[t][j] for t in range(r))
                assert val == (1 if i == j else 0)


# -- dominance -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,rank,expected",
    [
        (("A"), 1, (2,)),
        (("A"), 2, (1, 1)),
        (("B"), 2, (0, 2)),
        (("B"), 3, (0, 1, 0)),
        (("C"), 3, (2, 0, 0)),
        (("D"), 4, (0, 1, 0, 0)),
        (("G"), 2, (0, 1)),
    ],
)
def test_highest_root_values(kind, rank, expected):
    rs = get_rs(kind, rank)
    theta = highest_root(rs)
    assert tuple(theta) == expected
    assert is_dominant(theta)
    assert tuple(theta) in {tuple(a) for a in rs.positive_roots}


small_types = st.sampled_from([("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 3), ("G", 2)])


@pytest.mark.parametrize("bad", [(1,), (1.5, -1), "ab"], ids=repr)
def test_dominant_representative_checks_its_weight(bad):
    with pytest.raises(DomainError):
        dominant_representative(get_rs("A", 2), bad)


@given(small_types, st.data())
def test_dominant_representative_properties(type_pair, data):
    kind, rank = type_pair
    rs = get_rs(kind, rank)
    mu = tuple(
        data.draw(st.integers(min_value=-6, max_value=6), label=f"mu[{i}]")
        for i in range(rank)
    )
    dom = dominant_representative(rs, mu)
    assert is_dominant(dom)
    assert dominant_representative(rs, dom) == tuple(dom)
    orbit = {act(w, mu) for w in rs.weyl}
    assert tuple(dom) in {tuple(o) for o in orbit}
    # every orbit member has the same dominant representative
    other = data.draw(st.sampled_from(sorted(orbit)), label="orbit member")
    assert dominant_representative(rs, other) == tuple(dom)


def test_act_matches_reflection_formula(a2):
    mu = (3, -2)
    for i in range(2):
        m = reflection_matrix(a2, i)
        expected = apply(m, mu)
        found = [act(w, mu) for w in a2.weyl if tuple(map(tuple, w.matrix)) == tuple(map(tuple, m))]
        assert found == [expected]


@pytest.mark.parametrize("kind,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_weyl_matrices_preserve_root_set(kind, rank):
    rs = get_rs(kind, rank)
    roots = {tuple(a) for a in rs.positive_roots} | {
        tuple(-x for x in a) for a in rs.positive_roots
    }
    for w in rs.weyl:
        image = {tuple(act(w, a)) for a in roots}
        assert image == roots
