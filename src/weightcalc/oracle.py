"""Brute-force ground truth, independent of the Weyl-sum machinery.

Weight multiplicities come from the classical multiplicity recursion
(norm-difference denominator, root-string numerator), run entirely in
integers by clearing the denominators of the invariant form.  Power sums
and elementary symmetric functions are then literal sums/products over the
expanded weight multiset, and characters at order-2 torus elements are
parity sums over integer lattice coordinates.  Nothing here touches
alternating Weyl sums, polynomial division, or Newton's identities, so
agreement with the main engine is genuine corroboration.

The multiplicity recursion sums along root strings mu + j alpha; the
norm |nu + delta|^2 and the pairing <nu, alpha> step along a string by
integer increments, so the full form is evaluated once per dominant weight.

Everything after the multiplicities reads one folded view of the multiset,
built once and cached on it: each weight is folded with its negative, and a
pair {mu, -mu} with multiplicities a and b contributes (a + (-1)^k b)
<mu, y>^k to P_k, the factor (1 + <mu, y>)^a (1 - <mu, y>)^b to the product
of the E_k, and a + b times one parity sign to a character at an order-2
element (mu and -mu have the same lattice coordinates up to sign).  The
pairs are read off the multiset by looking up -mu in it, not off the Weyl
group, so representations that are not self-dual fold only the pairs they
have.

The view stores the pairs column-wise: one column per coordinate and the
moments mu^e over the pairs, one column per monomial, grown on demand to
the largest degree asked for; a moment column is the column of a monomial
one degree lower times one coordinate column.  P_k is one weighted sum of a
moment column per monomial.  The E_k come from exact values of the product
at the lattice points y = (x, 1) with |x| <= kmax, in integers only:
forward differences and Stirling numbers read the coefficients off them.
When m(-mu) = m(mu) on every nonzero weight (the view's ``selfdual``), the
odd P_k vanish and each factor is (1 - <mu, y>^2)^a, so a point value is a
product of series in t^2, half as long, with zeros at the odd degrees.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, prod
from operator import add, mul

from .errors import (DomainError, InternalError, check_coordinates, check_degree, exact_quotient,
                     is_int)
from .polyalg import BiPoly, _det, _integer_rows, _monomials, invert
from .powersum import validate_dominant, weyl_dimension
from .rootsys import RootSystem, chamber_descent, dominant_orbit

__all__ = [
    "DEFAULT_MAX_DIM",
    "WeightMultiset",
    "weight_multiplicities",
    "oracle_power_sum",
    "oracle_elementary",
    "character_at_order2",
    "schur_at_signs",
]

#: Dimension guard for the brute-force path (overridable per call).
DEFAULT_MAX_DIM = 200000


# -- integer quadratic form ---------------------------------------------------


def _form(gram, u: Sequence[int], v: Sequence[int]) -> int:
    return sum(u[i] * sum(gram[i][j] * v[j] for j in range(len(v))) for i in range(len(u)))


# -- weight multiset ----------------------------------------------------------


@dataclass(frozen=True)
class WeightMultiset:
    """Weights of one irreducible representation, stored by dominant orbit.

    ``dominant`` maps each dominant weight to its multiplicity; the full
    W-orbit expansion and the folded view of it are materialized once on
    demand and cached.
    """

    rs: RootSystem
    highest_weight: tuple[int, ...]
    dominant: dict
    _expanded: dict | None = field(default=None, repr=False, compare=False)
    _folded: _FoldedView | None = field(default=None, repr=False, compare=False)

    def expanded(self) -> dict:
        """Every distinct weight with its multiplicity (cached)."""
        if self._expanded is None:
            full: dict[tuple, int] = {}
            for mu, m in self.dominant.items():
                for nu in dominant_orbit(self.rs.cartan, mu):
                    if nu in full:
                        raise InternalError("weight orbits are not disjoint")
                    full[nu] = m
            total = sum(full.values())
            dim = weyl_dimension(self.rs, self.highest_weight)
            if total != dim:
                raise InternalError(f"weight multiset sums to {total},"
                                    f" dimension formula says {dim}")
            object.__setattr__(self, "_expanded", full)
        return self._expanded

    def folded(self) -> _FoldedView:
        """The weights folded into pairs {mu, -mu}, column-wise (cached)."""
        if self._folded is None:
            object.__setattr__(self, "_folded", _FoldedView(self.expanded(), self.rs.rank))
        return self._folded

    @property
    def dimension(self) -> int:
        return sum(self.expanded().values())

    def multiplicity(self, mu: Sequence[int]) -> int:
        mu = check_coordinates(mu, self.rs.rank)
        return self.dominant.get(chamber_descent(self.rs.cartan, mu), 0)


def weight_multiplicities(
    rs: RootSystem, lam: Sequence[int], max_dim: int = DEFAULT_MAX_DIM
) -> WeightMultiset:
    """Exact weight multiplicities of the irreducible with highest weight lam.

    The dominant weights are gathered by walking down from lam one positive
    root at a time and keeping the dominant points: they form a saturated
    set, and each one is reached from lam through dominant weights
    (Stembridge, "The partial order of dominant weights", 1998).  Each
    weight's depth is the height of lam - mu.  Multiplicities fill in by
    increasing depth; each one is an exact integer quotient, and the total
    is checked against the dimension formula on first expansion.
    """
    lam = validate_dominant(rs, lam)
    check_degree(max_dim, "max_dim")
    dim = weyl_dimension(rs, lam)
    if dim > max_dim:
        raise DomainError(
            f"representation dimension {dim} exceeds the guard {max_dim};"
            " raise max_dim to force the brute-force computation"
        )
    r = rs.rank
    cartan = rs.cartan
    # the inverse Killing form in integer rows: every use below is a comparison
    # of norms or a quotient of two form values, so its positive scale cancels
    gram = rs.killing_dual_rows
    lam_d = tuple(lam[i] + 1 for i in range(r))
    bound = _form(gram, lam_d, lam_d)
    pos_roots = [tuple(a) for a in rs.positive_roots]
    steps = list(zip(pos_roots, map(sum, rs.root_coefficients)))
    # per root: the column G alpha, |alpha|^2 and <delta, alpha>
    strings = []
    for alpha in pos_roots:
        g_alpha = [sum(map(mul, row, alpha)) for row in gram]
        strings.append((alpha, g_alpha, sum(map(mul, alpha, g_alpha)), sum(g_alpha)))

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

    mult, chamber = {}, {}  # chamber: the dominant weight of each root-string point
    for mu in sorted(depth, key=lambda mu: (depth[mu], mu)):
        if mu == lam:
            mult[mu] = 1
            continue
        mu_d = tuple(mu[i] + 1 for i in range(r))
        norm = _form(gram, mu_d, mu_d)
        if norm >= bound:
            raise InternalError("norm denominator must be positive below the top")
        total = 0
        for alpha, g_alpha, step, shift in strings:
            # nu = mu + j alpha; |nu + delta|^2 grows by 2 <nu + delta, alpha> - |alpha|^2
            pair = sum(map(mul, mu, g_alpha))
            nu_norm = norm
            nu = mu
            while True:
                pair += step
                nu_norm += 2 * (pair + shift) - step
                if nu_norm > bound:
                    break
                nu = tuple(map(add, nu, alpha))
                if (dom := chamber.get(nu)) is None:
                    dom = chamber[nu] = chamber_descent(cartan, nu)
                m = mult.get(dom, 0)
                if m:
                    total += m * pair
        q = exact_quotient(2 * total, bound - norm, "multiplicity recursion yielded a non-integer")
        if q <= 0:
            raise InternalError("dominant candidate received a non-positive multiplicity")
        mult[mu] = q
    wm = WeightMultiset(rs=rs, highest_weight=lam, dominant=mult)
    wm.expanded()  # eager dimension check
    return wm


# -- direct sums and products over the multiset -------------------------------


@lru_cache(maxsize=None)
def _moment_steps(r: int, d: int) -> tuple[tuple[int, int], ...]:
    """For each monomial e of degree d >= 1: (position of e / y_i in degree d - 1, i).

    y_i is the first variable of e, so mu^e is one column of degree d - 1
    times coordinate column i.
    """
    index = {e: n for n, e in enumerate(_monomials(r, d - 1))}
    steps = []
    for e in _monomials(r, d):
        i = next(t for t, x in enumerate(e) if x)
        steps.append((index[e[:i] + (e[i] - 1,) + e[i + 1:]], i))
    return tuple(steps)


@lru_cache(maxsize=None)
def _multinomials(r: int, d: int) -> tuple[int, ...]:
    """multinomial(d; e) for each monomial e of degree d, in ``_monomials`` order."""
    return tuple(factorial(d) // prod(map(factorial, e)) for e in _monomials(r, d))


class _FoldedView:
    """The weights of a multiset folded into pairs {mu, -mu}, stored column-wise.

    The lexicographically larger weight represents its pair; a weight whose
    negative is missing, and the zero weight, come with m(-mu) = 0.
    ``coords[i]`` lists coordinate i of every representative, ``a`` and
    ``b`` list m(mu) and m(-mu), ``plus`` and ``minus`` list a + b and
    a - b, and ``moments[d][n]`` lists mu^e over the pairs, e the n-th
    monomial of degree d.  ``nonzero`` counts the nonzero weights with
    multiplicity; ``selfdual`` says whether a = b on every pair of nonzero
    weights, read off the weights, not the highest weight, whatever m(0) is.
    """

    __slots__ = ("coords", "a", "b", "plus", "minus", "moments", "nonzero", "selfdual")

    def __init__(self, full: dict, r: int):
        pairs, nonzero, selfdual = [], 0, True
        for mu, m in full.items():
            neg = tuple(-c for c in mu)
            if neg == mu:
                pairs.append((mu, m, 0))
            elif mu > neg or neg not in full:
                b = full.get(neg, 0)
                pairs.append((mu, m, b))
                nonzero += m + b
                selfdual = selfdual and m == b
        self.nonzero, self.selfdual = nonzero, selfdual
        mus = [mu for mu, _, _ in pairs]
        self.coords = [[mu[i] for mu in mus] for i in range(r)]
        self.a = [a for _, a, _ in pairs]
        self.b = [b for _, _, b in pairs]
        self.plus = list(map(add, self.a, self.b))
        self.minus = [a - b for a, b in zip(self.a, self.b)]
        self.moments = [[[1] * len(pairs)]]

    def upto(self, kmax: int) -> list[list[list]]:
        """The moment columns of degrees 0..kmax (and any higher ones grown earlier)."""
        cols = self.moments
        for d in range(len(cols), kmax + 1):
            below = cols[-1]
            cols.append([
                list(map(mul, below[n], self.coords[i]))
                for n, i in _moment_steps(len(self.coords), d)
            ])
        return cols


def oracle_power_sum(wm: WeightMultiset, k: int) -> BiPoly:
    """Sum of m(mu) * <mu, .>^k over all weights, as a y-polynomial.

    The coefficient of y^e is multinomial(k; e) times the moment
    sum over pairs of (a + (-1)^k b) * mu^e.  On a self-dual multiset
    a - b = 0 on every pair of nonzero weights, so P_k = 0 for odd k.
    """
    check_degree(k, "k")
    r = wm.rs.rank
    view = wm.folded()
    if k % 2 and view.selfdual:
        return BiPoly.zero(r, r)
    w = view.minus if k % 2 else view.plus
    prefix = (0,) * r
    return BiPoly._result(r, r, {
        prefix + e: m * sum(map(mul, w, col))
        for e, m, col in zip(_monomials(r, k), _multinomials(r, k), view.upto(k)[k])
    })


@lru_cache(maxsize=None)
def _pair_coefficients(a: int, b: int, kmax: int) -> tuple[int, ...]:
    """c_0..c_kmax of F = (1 + t)^a (1 - t)^b, for any integers a and b.

    (1 - t^2) F' = (a - b - (a + b) t) F gives c_0 = 1, c_1 = a - b and
    (j + 1) c_(j+1) = (a - b) c_j + (j - 1 - a - b) c_(j-1), an exact quotient.
    """
    c = [1, a - b]
    for j in range(1, kmax):
        c.append(exact_quotient((a - b) * c[j] + (j - 1 - a - b) * c[j - 1], j + 1,
                                "a coefficient of (1 + t)^a (1 - t)^b is not an integer"))
    return tuple(c[:kmax + 1])


@lru_cache(maxsize=None)
def _lattice(m: int, kmax: int):
    """The points x of N^m with |x| <= kmax by degree, the step to each, and the axis lines.

    Point n >= 1 is points[p] + u_i for (p, i) = steps[n - 1], the step of
    the moment columns; each line lists the indices of x, x + u_i,
    x + 2 u_i, ... from a point x with x_i = 0, all lines along axis 0 first.
    """
    points = [x for d in range(kmax + 1) for x in _monomials(m, d)]
    index = {x: n for n, x in enumerate(points)}
    steps = [(index[_monomials(m, d - 1)[p]], i)
             for d in range(1, kmax + 1) for p, i in _moment_steps(m, d)]
    lines = [
        [index[x[:i] + (j,) + x[i + 1:]] for j in range(kmax - sum(x) + 1)]
        for i in range(m) for x in points if not x[i]
    ]
    return points, index, steps, lines


@lru_cache(maxsize=None)
def _stirling(kmax: int) -> tuple[tuple[int, ...], ...]:
    """Row i lists s(i, i), ..., s(kmax, i), where x(x-1)...(x-j+1) = sum_i s(j, i) x^i."""
    s = [[1]]
    for j in range(kmax):
        s.append([(s[j][i - 1] if i else 0) - (j * s[j][i] if i <= j else 0) for i in range(j + 2)])
    return tuple(tuple(s[j][i] for j in range(i, kmax + 1)) for i in range(kmax + 1))


def _series_at(pairing: Sequence[int], a: Sequence[int], b: Sequence[int], kmax: int) -> list[int]:
    """E_0..E_kmax at one point: the product of (1 + c t)^a (1 - c t)^b mod t^(kmax + 1).

    c is the pairing of a pair with the point; pairs with the same |c|
    share one factor, with a and b swapped when c < 0, and c = 0 adds none.
    When ``b is a`` (a self-dual multiset) each factor is (1 - c^2 t^2)^a:
    the pairs are grouped by |c| alone, the factors are multiplied as
    series in u = t^2 to degree kmax // 2, and the odd coefficients are 0.
    """
    even = b is a
    groups: dict = {}
    if even:
        for c, x in zip(map(abs, pairing), a):
            groups[c] = groups.get(c, 0) + x
        groups.pop(0, None)
        factors = [(c * c, 0, x) for c, x in groups.items()]
    else:
        for c, x, z in zip(pairing, a, b):
            if c < 0:
                c, x, z = -c, z, x
            elif not c:
                continue
            g = groups.get(c)
            if g is None:
                groups[c] = [x, z]
            else:
                g[0] += x
                g[1] += z
        factors = [(c, x, z) for c, (x, z) in groups.items()]
    # the series is kept reversed, so each coefficient of a product is one
    # sum over a slice; a factor has degree x + z, so f may be shorter
    n = kmax // 2 if even else kmax
    rev = [0] * n + [1]
    for c, x, z in factors:
        f, p = [], 1
        for v in _pair_coefficients(x, z, min(x + z, n)):
            f.append(v * p)
            p *= c
        rev = [sum(map(mul, f, rev[i:])) for i in range(n + 1)]
    out = [0] * (kmax + 1)
    out[::2 if even else 1] = rev[::-1]
    return out


def oracle_elementary(wm: WeightMultiset, kmax: int) -> list[BiPoly]:
    """E_0..E_kmax, the degree-truncated product of (1 + mu-hat)^m, from exact values.

    E_k is homogeneous, so q_k(x) = E_k(x, 1) has degree <= k in r - 1
    variables, and its coefficient of x^g is that of y^(g, k - |g|) in E_k.
    The product is evaluated at every lattice point x with |x| <= kmax.
    Forward differences along each axis give D^g q_k(0), which must vanish
    for |g| > k; D^g q_k(0) / g! is the coefficient of the falling factorial
    x^(g), and Stirling numbers of the first kind take it to monomials one
    axis at a time.  The product has degree m, the number of nonzero weights
    counted with multiplicity, so the lattice stops at top = min(kmax, m)
    and E_k = 0 above it.  E_top has no spare lattice point, so every E_k
    up to E_(top + 1), if returned, is also checked at y = (2, 3, ..., r + 1);
    E_(top + 1) = 0 there guards the count m, and above m both sides vanish.
    """
    check_degree(kmax, "kmax")
    r = wm.rs.rank
    view = wm.folded()
    b = view.a if view.selfdual else view.b  # one list twice takes the even route
    top = min(kmax, view.nonzero)
    points, index, steps, lines = _lattice(r - 1, top)
    pairings = [view.coords[-1]]
    for n, i in steps:
        pairings.append(list(map(add, pairings[n], view.coords[i])))
    vals = [_series_at(p, view.a, b, top) for p in pairings]
    for line in lines:
        for lo in range(1, len(line)):
            for j in range(len(line) - 1, lo - 1, -1):
                vals[line[j]] = [u - v for u, v in zip(vals[line[j]], vals[line[j - 1]])]
    for x, v in zip(points, vals):
        d, f = sum(x), prod(map(factorial, x))
        if any(v[:d]):
            raise InternalError("a forward difference above the degree of E_k does not vanish")
        for k in range(d, top + 1):
            v[k] = exact_quotient(v[k], f,
                                  "a falling-factorial coefficient of E_k is not an integer")
    s = _stirling(top)
    for line in lines:
        old = [vals[n] for n in line]
        for i, n in enumerate(line):
            vals[n] = [sum(map(mul, s[i], w)) for w in zip(*old[i:])]
    prefix = (0,) * r
    out = [
        BiPoly._result(r, r, {prefix + e: vals[index[e[:-1]]][k] for e in _monomials(r, k)})
        for k in range(top + 1)
    ] + [BiPoly.zero(r, r)] * (kmax - top)
    y = range(2, r + 2)
    pairing = [sum(map(mul, mu, y)) for mu in zip(*view.coords)]
    check = _series_at(pairing, view.a, b, min(kmax, top + 1))
    for k, (f, want) in enumerate(zip(out, check)):
        if sum(c * prod(map(pow, y, e[r:])) for e, c in f.terms.items()) != want:
            raise InternalError(f"E_{k} does not match the product at the check point")
    return out


# -- characters at order-2 torus elements -------------------------------------


def character_at_order2(
    wm: WeightMultiset,
    signs: Sequence[int],
    basis: Sequence[Sequence[int]] | None = None,
) -> int:
    """Character value at the element acting by the given signs on lattice generators.

    ``basis`` rows are the lattice generators in fundamental-weight
    coordinates (identity = full weight lattice).  Each weight is solved for
    integer coordinates against the basis and contributes m(mu) times the
    parity sign picked out by the -1 entries; a weight with a coordinate
    off the lattice is refused whatever the signs.  mu and -mu have the same
    parity, so each folded pair counts a + b once.  The inverse basis is
    scaled to integers once, and each coordinate is taken column-wise over
    the pairs as one integer quotient whose remainder must vanish.
    """
    r = wm.rs.rank
    signs = check_coordinates(signs, r, "sign vector")
    if any(s not in (1, -1) for s in signs):
        raise DomainError("entries of an order-2 element must be +1 or -1")
    if basis is None:
        binv_t = [[int(i == j) for j in range(r)] for i in range(r)]
    else:
        try:
            basis = [check_coordinates(row, r, "lattice basis entries") for row in basis]
        except TypeError:
            raise DomainError(f"lattice basis must be a sequence of rows, got {basis!r}") from None
        binv_t = invert([list(col) for col in zip(*basis)]) if len(basis) == r else None
        if binv_t is None:
            raise DomainError("lattice basis must be a square matrix of full rank")
    scale, binv_t = _integer_rows(binv_t)
    view = wm.folded()
    parity = [0] * len(view.plus)
    for row, s in zip(binv_t, signs):
        if scale == 1 and s == 1:
            continue  # an integral row: the coordinate is an integer and adds no sign
        coord = None
        for c, col in zip(row, view.coords):
            if c:
                term = col if c == 1 else [c * x for x in col]
                coord = term if coord is None else list(map(add, coord, term))
        if scale > 1:
            if any(x % scale for x in coord):
                raise DomainError(
                    "weight does not lie in the span of the given lattice basis"
                )
            coord = [x // scale for x in coord]
        if s == -1:
            parity = list(map(add, parity, coord))
    return sum(view.plus) - 2 * sum(w for w, q in zip(view.plus, parity) if q & 1)


# -- complete symmetric functions at sign vectors ------------------------------


def schur_at_signs(partition: Sequence[int], a_minus: int, b_plus: int) -> int:
    """Schur polynomial of the partition at a_minus entries -1 and b_plus entries +1.

    Jacobi-Trudi: the determinant of the matrix with (i, j) entry
    H_{partition_i - i + j}, the complete symmetric values read off
    (1 + t)^(-a_minus) (1 - t)^(-b_plus).  Must agree with
    character_at_order2 on type A.
    """
    try:
        part = list(partition)
    except TypeError:
        raise DomainError(f"partition must be a sequence of parts, got {partition!r}") from None
    check_degree(a_minus, "a_minus")
    check_degree(b_plus, "b_plus")
    if any(not is_int(p) or p < 0 for p in part):
        raise DomainError("partition parts must be nonnegative integers")
    if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
        raise DomainError("partition parts must be nonincreasing")
    n = len(part)
    if n > a_minus + b_plus:
        raise DomainError("partition has more parts than there are variables")
    if n == 0:
        return 1
    h = _pair_coefficients(-a_minus, -b_plus, part[0] + n)
    mat = [[h[p] if p >= 0 else 0 for p in (part[i] - i + j for j in range(n))] for i in range(n)]
    return _det(mat)
