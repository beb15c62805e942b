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
the largest degree asked for.  A moment column is the column of a monomial
one degree lower times one coordinate column.  P_k and the E_k run on dense
degree blocks, the coefficients of all monomials of one degree in the order
of ``polyalg._monomials``: P_k is one weighted sum of a moment column per
monomial, and each factor of the E_k product is one row of them.  Two
blocks multiply through a table cached per rank and degree pair, which
gathers the two factors of every pair of monomials and sums the products
that land on the same output monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm, prod
from operator import add, itemgetter, mul
from typing import Sequence

from .errors import DomainError, InternalError, check_degree
from .polyalg import BiPoly, _monomials, invert
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


def _integer_form(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The inverse Killing form on weight coordinates, scaled to integers.

    killing_dual times the lcm of its denominators is integral; every use in
    the multiplicity recursion is a comparison of norms or a quotient of two
    form values, so the positive scale cancels.
    """
    scale = lcm(*(x.denominator for row in rs.killing_dual for x in row))
    return tuple(tuple(int(x * scale) for x in row) for row in rs.killing_dual)


def _is_int(c) -> bool:
    """An int that is not a bool."""
    return isinstance(c, int) and not isinstance(c, bool)


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
                raise InternalError(
                    f"weight multiset sums to {total}, dimension formula says {dim}"
                )
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
        if len(mu) != self.rs.rank:
            raise DomainError(f"weight has {len(mu)} coordinates, expected {self.rs.rank}")
        if not all(map(_is_int, mu)):
            raise DomainError("weight coordinates must be integers")
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
    gram = _integer_form(rs)
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

    mult: dict[tuple, int] = {}
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
                m = mult.get(chamber_descent(cartan, nu), 0)
                if m:
                    total += m * pair
        q, rem = divmod(2 * total, bound - norm)
        if rem:
            raise InternalError("multiplicity recursion yielded a non-integer")
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
    monomial of degree d.
    """

    __slots__ = ("coords", "a", "b", "plus", "minus", "moments")

    def __init__(self, full: dict, r: int):
        pairs = []
        for mu, m in full.items():
            neg = tuple(-c for c in mu)
            if neg == mu or neg not in full:
                pairs.append((mu, m, 0))
            elif mu > neg:
                pairs.append((mu, m, full[neg]))
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
    sum over pairs of (a + (-1)^k b) * mu^e.
    """
    check_degree(k, "k")
    r = wm.rs.rank
    view = wm.folded()
    w = view.minus if k % 2 else view.plus
    prefix = (0,) * r
    return BiPoly(r, r, {
        prefix + e: m * sum(map(mul, w, col))
        for e, m, col in zip(_monomials(r, k), _multinomials(r, k), view.upto(k)[k])
    })


def _pair_coefficients(a: int, b: int, kmax: int) -> tuple[int, ...]:
    """c_0..c_kmax of (1 + t)^a (1 - t)^b."""
    return tuple(
        sum((-1) ** (j - i) * comb(a, i) * comb(b, j - i) for i in range(j + 1))
        for j in range(kmax + 1)
    )


@lru_cache(maxsize=None)
def _block_product(r: int, da: int, db: int):
    """Gathers and output spans that multiply a degree-da block by a degree-db block.

    Every pair of monomials is listed once, sorted by the position of their
    product in degree da + db; the two gathers pick the factors of each pair
    and span n slices the products that add up to output entry n.  Both index
    lists end in one extra 0, outside every span, so that an itemgetter
    always returns a tuple.
    """
    index = {e: n for n, e in enumerate(_monomials(r, da + db))}
    pairs = sorted(
        (index[tuple(map(add, e1, e2))], i, j)
        for i, e1 in enumerate(_monomials(r, da))
        for j, e2 in enumerate(_monomials(r, db))
    )
    counts = [0] * len(index)
    for n, _, _ in pairs:
        counts[n] += 1
    spans = tuple(slice(end - c, end) for c, end in zip(counts, accumulate(counts)))
    return (
        itemgetter(*(i for _, i, _ in pairs), 0),
        itemgetter(*(j for _, _, j in pairs), 0),
        spans,
    )


def _add_block(out: list, d: int, blk) -> None:
    out[d] = blk if out[d] is None else list(map(add, out[d], blk))


def _block_times(r: int, f: list, g: list) -> list:
    """Product of two factors truncated at their last block.

    A factor is a list of degree blocks, None for a zero block; the block of
    degree 0 is 1 in every factor, so f[d] and g[d] enter the product as
    they are and only blocks of positive degree are multiplied.
    """
    kmax = len(f) - 1
    out = list(f)
    for d in range(1, kmax + 1):
        if g[d] is not None:
            _add_block(out, d, g[d])
    for da in range(1, kmax):
        if f[da] is None:
            continue
        for db in range(1, kmax + 1 - da):
            if g[db] is None:
                continue
            rows, cols, spans = _block_product(r, da, db)
            prods = list(map(mul, rows(f[da]), cols(g[db])))
            _add_block(out, da + db, list(map(sum, map(prods.__getitem__, spans))))
    return out


def oracle_elementary(wm: WeightMultiset, kmax: int) -> list[BiPoly]:
    """E_0..E_kmax as the degree-truncated product of (1 + mu-hat)^m.

    Each pair {mu, -mu} contributes the factor (1 + l)^a (1 - l)^b with
    l = <mu, y>.  A factor is a list of dense degree blocks, the coefficients
    of all monomials of one degree in ``_monomials`` order, with None for a
    zero block: block j of a pair's factor is c_j(a, b) * multinomial(j; e)
    * mu^e over the monomials e, read off the moment columns of all pairs.
    Factors are combined pairwise (a balanced product tree), each pair of
    blocks through a table of index gathers cached per degree pair, so
    most multiplications involve short polynomials.
    """
    check_degree(kmax, "kmax")
    r = wm.rs.rank
    view = wm.folded()
    factors = [[(1,)] + [None] * kmax for _ in range(max(1, len(view.a)))]
    if view.a:
        cols = view.upto(kmax)
        pairs = list(zip(view.a, view.b))
        pair = {ab: _pair_coefficients(*ab, kmax) for ab in set(pairs)}
        coeffs = [pair[ab] for ab in pairs]
        for j in range(1, kmax + 1):
            cj = [c[j] for c in coeffs]
            if not any(cj):
                continue
            scaled = [
                [m * v for v in map(mul, col, cj)]
                for m, col in zip(_multinomials(r, j), cols[j])
            ]
            for factor, row in zip(factors, zip(*scaled)):
                if any(row):
                    factor[j] = row
    while len(factors) > 1:
        nxt = [
            _block_times(r, factors[i], factors[i + 1])
            for i in range(0, len(factors) - 1, 2)
        ]
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    prefix = (0,) * r
    return [
        BiPoly(r, r, {prefix + e: c for e, c in zip(_monomials(r, d), blk)} if blk else None)
        for d, blk in enumerate(factors[0])
    ]


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
    if len(signs) != r:
        raise DomainError(f"sign vector has {len(signs)} entries, expected {r}")
    if any(not _is_int(s) or s not in (1, -1) for s in signs):
        raise DomainError("entries of an order-2 element must be +1 or -1")
    if basis is None:
        binv_t = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    else:
        if len(basis) != r or any(len(row) != r for row in basis):
            raise DomainError("lattice basis must be a square matrix of full rank")
        if not all(_is_int(x) for row in basis for x in row):
            raise DomainError("lattice basis entries must be integers")
        binv_t = invert([[basis[j][i] for j in range(r)] for i in range(r)])
        if binv_t is None:
            raise DomainError("lattice basis must be a square matrix of full rank")
    scale = lcm(*(x.denominator for row in binv_t for x in row))
    view = wm.folded()
    parity = [0] * len(view.plus)
    for row, s in zip(binv_t, signs):
        if scale == 1 and s == 1:
            continue  # an integral row: the coordinate is an integer and adds no sign
        coord = None
        for c, col in zip(row, view.coords):
            c = int(c * scale)
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


def _h_series(a_minus: int, b_plus: int, pmax: int) -> list[int]:
    """Coefficients H_0..H_pmax of (1+t)^(-a) (1-t)^(-b)."""
    neg = [
        (-1) ** k * comb(a_minus + k - 1, k) if a_minus else (1 if k == 0 else 0)
        for k in range(pmax + 1)
    ]
    pos = [
        comb(b_plus + k - 1, k) if b_plus else (1 if k == 0 else 0)
        for k in range(pmax + 1)
    ]
    return [
        sum(neg[i] * pos[p - i] for i in range(p + 1)) for p in range(pmax + 1)
    ]


def schur_at_signs(partition: Sequence[int], a_minus: int, b_plus: int) -> int:
    """Schur polynomial of the partition at a_minus entries -1 and b_plus entries +1.

    Jacobi-Trudi: the determinant of the matrix with (i, j) entry
    H_{partition_i - i + j}, using the series above for the complete
    symmetric values.  Must agree with character_at_order2 on type A.
    """
    part = list(partition)
    check_degree(a_minus, "a_minus")
    check_degree(b_plus, "b_plus")
    if any(not _is_int(p) or p < 0 for p in part):
        raise DomainError("partition parts must be nonnegative integers")
    if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
        raise DomainError("partition parts must be nonincreasing")
    n = len(part)
    if n > a_minus + b_plus:
        raise DomainError("partition has more parts than there are variables")
    if n == 0:
        return 1
    pmax = part[0] + n
    h = _h_series(a_minus, b_plus, pmax)

    def hval(p: int) -> int:
        if p < 0:
            return 0
        return h[p]

    mat = [[hval(part[i] - (i + 1) + (j + 1)) for j in range(n)] for i in range(n)]
    return _int_det(mat)


def _int_det(mat: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((k for k in range(col, n) if m[k][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        for k in range(col + 1, n):
            for j in range(col + 1, n):
                m[k][j] = (m[k][j] * m[col][col] - m[k][col] * m[col][j]) // prev
            m[k][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]
