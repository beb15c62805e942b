"""Alternating Weyl sums F_k and their factored forms.

For a root system with Weyl group W acting on weight coordinates, the k-th
alternating sum is the bihomogeneous polynomial

    F_k(mu, nu) = sum over w in W of sign(w) * <w mu, nu>^k

of bidegree (k, k).  Facts used as computational shortcuts and cross-checks:

* F_k = 0 for k < N and for k = N+1, where N = number of positive roots;
* if -1 lies in W then F_k = 0 whenever N + k is odd;
* F_k is divisible by d * d-vee, where d is the product of the positive
  roots (a y-polynomial) and d-vee the product of the positive coroots
  (an a-polynomial); the quotient F'_k is W x W-invariant and invariant
  under the Killing-transport involution;
* F_N = N! * d * d-vee / d-vee(delta), and
  F_{N+2} = binom(N+2, 2)/dim(g) * q2 * q2-vee * F_N,
  with q2, q2-vee the Killing quadratics on the two sides;
* on the classical types Weyl's character formula writes the alternating
  sum as one determinant, so F_k at a point is a short Cauchy-Binet sum of
  products of r x r minors, one factor from each side (``_classical_sums``,
  used on A-D at rank >= 4, where it is faster than the orbit);
* F_k(delta, nu), the divisor side of the triangular recursion, comes from
  ``_alternating_sums`` like any other pair, memoised per point
  (``powersum._delta_sums``), since the sampled fits of one rank always ask
  at the same points.

Each P_k of a weight multiset (``powersum``) and each F'_k is a W-invariant,
and one exact fit, _fit_exact, rebuilds both from sample values: it solves
for the coefficients in a basis of products of the basic invariants p_j,
orbit power sums over W.w1 (and, on D_r, the half-spin orbit W.w_r), for
F'_k their transport-symmetrized products of degree k-N, from the points of
one seeded stream per rank (``_fit_points``), and checks the fit at the two
points of that stream that follow its last solve.  The fitted invariants
stay in generator coordinates, BiPolys of arity (r, r) whose exponents
count powers of s_j = p_j(M a) and t_j = p_j(y), M the inverse Killing form
K-vee in integer rows (``RootSystem.killing_dual_rows``); ``_expand`` alone
writes them out in monomials of (a, y), each scaled to integer coefficients
first.
FkTable and the symbolic power sums never expand the big alternating sum;
fk_direct and fk_reduced expand and divide it, and are kept as the
reference that tests compare against.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, islice, repeat
from math import comb, factorial, prod
from operator import mul, or_

from .errors import DomainError, InternalError, check_coordinates, check_degree, exact_quotient
from .polyalg import (BiPoly, _common_denominator, _det, _integer_rows, _monomials, _mul_into,
                      _ratio, _substitution, exact_divide, expand_linear_power, invert, rref)
from .rootsys import RootSystem, chamber_descent, dominant_orbit

__all__ = [
    "FkTable",
    "fk_direct",
    "fk_evaluated",
    "fk_scalar",
    "fk_reduced",
    "weyl_denominator",
    "coweyl_denominator",
    "weyl_denominator_at",
    "coweyl_denominator_at",
    "q2_poly",
    "q2_dual_poly",
    "closed_form_FN",
    "closed_form_FN2",
    "sigma_involution",
    "invariant_basis",
]

#: Abort threshold for symbolic expansion.
MAX_TERMS = 10**7

Scalar = int | Fraction


def _vanishes(rs: RootSystem, k: int) -> bool:
    """F_k = 0 identically: k < N, k = N+1, or -1 in W with N + k odd."""
    n = rs.num_positive
    return k < n or k == n + 1 or (rs.minus_one_in_weyl and (n + k) % 2 == 1)


def fk_direct(rs: RootSystem, k: int) -> BiPoly:
    """The full symbolic F_k as a BiPoly in (a, y).

    Expands <w mu, nu>^k = (sum_i l_i(a) y_i)^k per Weyl element by the
    multinomial over y-exponents, with the powers of the r linear forms
    l_i(a) shared along the recursion.  The test reference for the fitted
    F_k; intended for small rank, and the term count is guarded by MAX_TERMS.
    """
    check_degree(k, "k")
    r = rs.rank
    zero = (0,) * r
    acc: dict[tuple, Scalar] = {}
    for w in rs.weyl:
        rows = w.matrix  # row i = linear form l_i(a)
        # powers of each linear form, expanded over a-exponents
        pows = [
            [expand_linear_power(rows[i], t) for t in range(k + 1)] for i in range(r)
        ]
        # the last form's powers with an empty y-block, for the final product
        last = [{ae + zero: c for ae, c in p.items()} for p in pows[-1]]

        # iterative enumeration of y-exponent compositions of k
        stack = [(0, k, {zero: w.sign}, 1, ())]
        while stack:
            i, remaining, aparts, multi, yexp = stack.pop()
            if i == r - 1:
                ye = yexp + (remaining,)
                _mul_into(acc, {ae + ye: multi * c for ae, c in aparts.items()},
                          last[remaining])
                continue
            for e in range(remaining + 1):
                nparts = aparts
                if e:
                    nparts = {}
                    _mul_into(nparts, aparts, pows[i][e])
                stack.append(
                    (i + 1, remaining - e, nparts, multi * comb(remaining, e), yexp + (e,))
                )
            if len(acc) > MAX_TERMS:
                raise InternalError("Weyl sum exceeded the term budget")
    return BiPoly(r, r, acc)


def _check_power_and_weight(rs: RootSystem, mu: Sequence[Scalar], k: int) -> tuple:
    check_degree(k, "k")
    return check_coordinates(mu, rs.rank, exact=True)


@lru_cache(maxsize=1)
def _signed_orbit(
    rs: RootSystem, mu: tuple[Scalar, ...]
) -> tuple[list[int], list[list[Scalar]]]:
    """Signs and orbit points w mu over W, the points as r coordinate columns.

    ``dominant_orbit`` walks the orbit from its dominant point u mu and gives
    mu itself the sign of u, the descent sign; multiplied by it, each sign is
    sign(w) for w mu = point.  A singular mu, whose dominant point has a zero
    coordinate, has F_k(mu, .) = 0 and the empty orbit.

    Valid only for a k where F_k does not vanish.  When -1 lies in W, the
    pair w, -w gives the points p, -p with signs that differ by (-1)^N, so
    their degree-k terms agree for N + k even, which every non-vanishing k
    is: only the points above 0 in lexicographic order are kept, each with
    its sign doubled.  That halves every pass over the orbit.  The last
    weight's orbit is kept, since the rank <= 2 route of
    ``powersum.power_sums`` asks ``fk_evaluated`` for one weight at every m;
    the lists are shared, never mutated.
    """
    r = rs.rank
    top = chamber_descent(rs.cartan, mu)
    if 0 in top:
        return [], [[] for _ in range(r)]
    orbit = dominant_orbit(rs.cartan, top)
    descent = orbit[tuple(mu)]
    if rs.minus_one_in_weyl:
        zero = (0,) * r
        descent *= 2
        orbit = {p: sign for p, sign in orbit.items() if p > zero}
    return [descent * sign for sign in orbit.values()], [[p[i] for p in orbit] for i in range(r)]


def _orbit_power_sums(orbit: tuple, nu: Sequence[Scalar], ks: Sequence[int]) -> list[Scalar]:
    """Sum of sign * <p, nu>^k over a ``_signed_orbit``, for each k of the ascending ks.

    The pairings <p, nu> are formed once and their powers built up along ks.
    """
    signs, cols = orbit
    pairs = [sum(map(mul, point, nu)) for point in zip(*cols)]
    powers, last, out = signs, 0, []
    for k in ks:
        powers = [q * p ** (k - last) for q, p in zip(powers, pairs)]
        out.append(sum(powers))
        last = k
    return out


def fk_evaluated(rs: RootSystem, mu: Sequence[Scalar], k: int) -> BiPoly:
    """F_k with the weight argument fixed: a y-polynomial of degree k.

    The coefficient of y^e is multinomial(k; e) * S_e, where S_e = sum over
    w of sign(w) * (w mu)^e is a signed moment of the orbit: one product of
    tabulated column powers and one sum over the orbit per monomial, about
    |W| * r * C(k+r-1, r-1) products in all.  Intended for small rank; the
    rank <= 2 route of ``powersum.power_sums`` calls it.
    """
    mu = _check_power_and_weight(rs, mu, k)
    r = rs.rank
    out = BiPoly.zero(r, r)
    if _vanishes(rs, k):
        return out
    signs, cols = _signed_orbit(rs, mu)
    pows = []  # pows[i][t] = column i to the power t
    for col in cols:
        pows.append([[1] * len(col)])
        for _ in range(k):
            pows[-1].append(list(map(mul, pows[-1][-1], col)))
    fact = [factorial(t) for t in range(k + 1)]
    prefix = (0,) * r
    for e in _monomials(r, k):
        vec = signs
        for p, t in zip(pows, e):
            if t:
                vec = map(mul, vec, p[t])
        moment = sum(vec)
        if moment:
            out.terms[prefix + e] = fact[k] // prod(fact[t] for t in e) * moment
    return out


def fk_scalar(rs: RootSystem, mu: Sequence[Scalar], nu: Sequence[Scalar], k: int) -> Scalar:
    """F_k evaluated at a rational point pair; cheap even for big Weyl groups.

    mu and nu are scaled to integers by their common denominators p and q, and
    F_k(p mu, q nu) is divided by (p q)^k at the end.  On A-D at rank >= 4 it
    costs a few r x r determinants (``_classical_sums``) and no orbit; G2 and
    rank <= 3 walk the orbit, of at most 48 points.
    """
    mu = _check_power_and_weight(rs, mu, k)
    nu = check_coordinates(nu, rs.rank, "coweight", exact=True)
    if _vanishes(rs, k):
        return 0
    (p, mu), (q, nu) = _common_denominator(mu), _common_denominator(nu)
    return _ratio(_alternating_sums(rs, mu, [k])(nu)[0], (p * q) ** k)


# -- alternating sums at a point ---------------------------------------------


def _by_determinants(rs: RootSystem) -> bool:
    """Whether F_m(mu, nu) at a point comes from ``_classical_sums``: A-D at rank >= 4.

    Any other kind (G2, or a new one) and rank <= 3 walk the orbit.  The crossover,
    measured as the median of 12 alternating fresh processes, each building
    the root system and then timing ``power_sums`` at three weights for each
    of k = 2, 4, 6 (orbit against determinants): A3 6.3 against 8.5 ms, the
    orbit faster in 11 of 12, since each new fit point pays for its
    coweight-side minors; B3, C3 and D3 within 8% either way; A4 25.5
    against 22.1 ms (11 of 12), and B4, C4, D4 37, 37, 25 against 14, 14,
    15 ms (12 of 12).
    """
    return rs.kind in ("A", "B", "C", "D") and rs.rank >= 4


def _alternating_sums(rs: RootSystem, mu: Sequence[int], ms: Sequence[int]):
    """The function nu -> [F_m(mu, nu) for m in ms] at an integral weight mu.

    Each F_m that vanishes identically (``_vanishes``) reads 0.  What depends
    on mu alone is formed once, here: the weight-side minors of
    ``_classical_sums`` where ``_by_determinants`` holds, else the signed
    orbit of mu.  nu is an integral coweight, as a tuple.
    """
    live = [m for m in ms if not _vanishes(rs, m)]
    if _by_determinants(rs):
        sums = partial(_classical_sums, rs, _weight_minors(rs, mu, live))
    else:
        sums = partial(_orbit_power_sums, _signed_orbit(rs, tuple(mu)))

    def at(nu):
        values = dict(zip(live, sums(nu, live)))
        return [values.get(m, 0) for m in ms]
    return at


@lru_cache(maxsize=None)
def _vector_coordinates(rs: RootSystem) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, T): D c = T mu gives the coordinates c of a weight mu in e_1..e_r.

    The e_j are ``RootSystem.vector_weights``; on A_r, whose r + 1 of them sum
    to 0, c_(r+1) = 0.  D is 1 on A and C, and 2 on B and D, where the spin
    weights have half-integral c.
    """
    return _integer_rows(invert(list(zip(*rs.vector_weights[:rs.rank]))))


@lru_cache(maxsize=None)
def _cauchy_binet(rs: RootSystem, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(K, w * m!/prod k_j!) for each exponent tuple K = (k_1 < ... < k_r) of F_m, sum k = m.

    K is all odd on B and C (w = 2^r), all even or all odd on D
    (w = 2^(r-1)), and all >= 1 on A_r (w = (-1)^r), where the coweight side
    puts k = 0 first.  The tuples are k_j = start + step * (j + x_j),
    j = 0..r-1, over the weakly increasing x of r parts >= 0 summing to
    (m - r * start)/step - r(r-1)/2: the partitions into at most r parts.
    """
    r = rs.rank
    families, w = {"A": (((1, 1),), (-1) ** r),
                   "D": (((0, 2), (1, 2)), 2 ** (r - 1))}.get(rs.kind, (((1, 2),), 2 ** r))
    out = []
    for start, step in families:
        size, rem = divmod(m - r * start, step)
        size -= r * (r - 1) // 2
        if rem or size < 0:
            continue
        for parts in _monomials(r, size):
            if all(a <= b for a, b in zip(parts, parts[1:])):
                k = tuple(start + step * (j + x) for j, x in enumerate(parts))
                out.append((k, w * factorial(m) // prod(map(factorial, k))))
    return tuple(out)


def _power_minors(x: Sequence[int], lead: tuple[int, ...], terms) -> list[int]:
    """det(x_i^(k_j)) over the columns lead + K, for each K of the ``_cauchy_binet`` terms."""
    top = max((k[-1] for k, _ in terms), default=0)
    powers = [list(accumulate(repeat(v, top), mul, initial=1)) for v in x]
    return [_det([[p[j] for j in lead + k] for p in powers]) for k, _ in terms]


def _weight_minors(rs: RootSystem, mu: Sequence[int], ms: Sequence[int]) -> list[list[int]]:
    """For each m in ms, det(c_i^(k_j)) over its ``_cauchy_binet`` tuples, c = D * (mu in the e_j)."""
    rows = _vector_coordinates(rs)[1]
    c = [sum(map(mul, row, mu)) for row in rows]
    return [_power_minors(c, (), _cauchy_binet(rs, m)) for m in ms]


@lru_cache(maxsize=4096)
def _coweight_minors(rs: RootSystem, nu: tuple[int, ...], m: int) -> tuple[int, ...]:
    """w * m!/prod k_j! * det(v_i^(k_j)), v_j = <e_j, nu>, for each ``_cauchy_binet`` term of F_m.

    On A_r the r + 1 values v_j take the columns 0, k_1, ..., k_r.  Memoised:
    the sampled fits of each rank read the same stream of points;
    bounded, since ``fk_scalar`` may ask at any point.
    """
    terms = _cauchy_binet(rs, m)
    v = [sum(map(mul, e, nu)) for e in rs.vector_weights]
    minors = _power_minors(v, (0,) * (len(v) - rs.rank), terms)
    return tuple(coeff * x for (_, coeff), x in zip(terms, minors))


def _classical_sums(rs: RootSystem, minors: list[list[int]], nu: Sequence[int],
                    ms: Sequence[int]) -> list[int]:
    """F_m(mu, nu) for each m in ms on a classical type, from the ``_weight_minors`` of mu.

    Weyl's character formula for the classical groups writes
    sum over w of sign(w) e^<w mu, nu> as one determinant in c and v, c the
    coordinates of mu and v_j = <e_j, nu> (Weyl, The Classical Groups;
    Fulton-Harris, Representation Theory, 24.2): det(e^(c_i v_j)) on A,
    det(e^(c_i v_j) - e^(-c_i v_j)) on B and C, and on D half the sum of
    that and det(e^(c_i v_j) + e^(-c_i v_j)).  By Cauchy-Binet, F_m is
    then sum over K of w * m!/prod k_j! * det(c_i^(k_j)) * det(v_i^(k_j))
    (``_cauchy_binet``); on A, c_(r+1) = 0 leaves the tuples with k = 0
    first, and the row of c_(r+1) the sign (-1)^r.  The minors of D c are
    D^m times those of c, so each sum is divided by D^m exactly;
    InternalError on a remainder.
    """
    den, nu = _vector_coordinates(rs)[0], tuple(nu)
    return [exact_quotient(sum(map(mul, at_mu, _coweight_minors(rs, nu, m))), den ** m,
                           "%s: F_%d at %s is not an integer", rs.name, m, nu)
            for m, at_mu in zip(ms, minors)]


def weyl_denominator(rs: RootSystem) -> BiPoly:
    """d = product of the positive roots, as a y-polynomial."""
    one = BiPoly.constant(rs.rank, rs.rank, 1)
    return prod((BiPoly.y_linear(list(al), na=rs.rank) for al in rs.positive_roots), start=one)


def coweyl_denominator(rs: RootSystem, shift: Sequence[int] | None = None) -> BiPoly:
    """d-vee(a + shift) = product of the coroot factors <beta-vee, a + shift>; default shift 0."""
    r = rs.rank
    shift = (0,) * r if shift is None else shift
    one = BiPoly.constant(r, r, 1)
    return prod((BiPoly.a_linear(list(av), ny=r) + BiPoly.constant(r, r, sum(map(mul, av, shift)))
                 for av in rs.positive_coroots), start=one)


def weyl_denominator_at(rs: RootSystem, nu: Sequence[Scalar]) -> Scalar:
    """d(nu) = the product of the pairings <alpha, nu> over the positive roots."""
    return prod(sum(map(mul, al, nu)) for al in rs.positive_roots)


def coweyl_denominator_at(rs: RootSystem, x: Sequence[Scalar]) -> Scalar:
    """d-vee(x) = the product of the pairings <x, beta-vee> over the positive coroots."""
    return prod(sum(map(mul, av, x)) for av in rs.positive_coroots)


def _quadratic(m: Sequence[Sequence[Scalar]], offset: int) -> BiPoly:
    """sum m_ij x_i x_j for a symmetric m, x the variable block starting at offset."""
    r = len(m)
    terms: dict[tuple, Scalar] = {}
    for i in range(r):
        for j in range(i, r):
            c = m[i][j] if i == j else 2 * m[i][j]
            if c:
                e = [0] * (2 * r)
                e[offset + i] += 1
                e[offset + j] += 1
                terms[tuple(e)] = c
    return BiPoly(r, r, terms)


@lru_cache(maxsize=None)
def q2_poly(rs: RootSystem) -> BiPoly:
    """Killing quadratic on the coweight side: sum K_ij y_i y_j, built once per root system."""
    return _quadratic(rs.killing, rs.rank)


def q2_dual_poly(rs: RootSystem) -> BiPoly:
    """Inverse Killing quadratic on the weight side: sum K-dual_ij a_i a_j."""
    return _quadratic(rs.killing_dual, 0)


def closed_form_FN(rs: RootSystem) -> BiPoly:
    """F_N = N! * d * d-vee / d-vee(delta)."""
    n = rs.num_positive
    return (weyl_denominator(rs) * coweyl_denominator(rs)).scale(
        Fraction(factorial(n), coweyl_denominator_at(rs, (1,) * rs.rank))
    )


def closed_form_FN2(rs: RootSystem) -> BiPoly:
    """F_{N+2} = binom(N+2,2)/dim(g) * q2 * q2-vee * F_N."""
    n = rs.num_positive
    return (q2_poly(rs) * q2_dual_poly(rs) * closed_form_FN(rs)).scale(
        Fraction(comb(n + 2, 2), rs.dim_g)
    )


def fk_reduced(rs: RootSystem, k: int, fk: BiPoly | None = None) -> BiPoly:
    """F'_k = F_k / (d * d-vee), by exact division; the test reference for the fit."""
    if fk is None:
        fk = fk_direct(rs, k)
    return exact_divide(fk, weyl_denominator(rs) * coweyl_denominator(rs))


def sigma_involution(rs: RootSystem, f: BiPoly) -> BiPoly:
    """Killing transport swap (mu, nu) -> (sigma nu, sigma^-1 mu).

    Substitutes a_i by the K-row linear form in y and y_i by the K-inverse
    row in a; F_k and F'_k are invariant under this.
    """
    r = rs.rank
    a_images = [
        BiPoly.y_linear([rs.killing[i][j] for j in range(r)], na=r) for i in range(r)
    ]
    y_images = [
        BiPoly.a_linear([rs.killing_dual[i][j] for j in range(r)], ny=r)
        for i in range(r)
    ]
    return f.compose(a_images=a_images, y_images=y_images)


@dataclass(frozen=True)
class FkTable:
    """F_k and F'_k for k = 0..kmax over one root system."""

    kind: str
    rank: int
    kmax: int
    entries: dict = field(repr=False)
    reduced: dict = field(repr=False)

    @classmethod
    def build(cls, rs: RootSystem, kmax: int) -> "FkTable":
        """F'_k fitted from exact samples (``_fit_reduced``), F_k = (F'_k * d) * d-vee.

        d and d-vee are built once, and only if some F_k does not vanish.  The
        a side of F_k has at most min(C(k+r-1, r-1), |d-vee| * C(k-N+r-1, r-1))
        monomials, the y side the same with |d|, and F'_k * d no more; over
        MAX_TERMS at the largest k (exact at k = N), DomainError before the fit.
        """
        check_degree(kmax, "kmax")
        r = rs.rank
        reduced = dict.fromkeys(range(kmax + 1), BiPoly.zero(r, r))
        entries = dict(reduced)
        ks = [k for k in reduced if not _vanishes(rs, k)]
        if ks:
            d, dvee = weyl_denominator(rs), coweyl_denominator(rs)
            full, low = comb(ks[-1] + r - 1, r - 1), comb(ks[-1] - rs.num_positive + r - 1, r - 1)
            size = min(full, len(dvee.terms) * low) * min(full, len(d.terms) * low)
            if size > MAX_TERMS:
                raise DomainError(f"F_{ks[-1]} of {rs.name} may have {size} terms, "
                                  f"over the term budget of {MAX_TERMS}")
            expanded = _expand(rs, list(_fit_reduced(rs, ks).values()))
            reduced.update((k, f.scale(Fraction(1, den))) for k, (den, f) in zip(ks, expanded))
            entries.update((k, reduced[k] * d * dvee) for k in ks)
        return cls(kind=rs.kind, rank=r, kmax=kmax, entries=entries, reduced=reduced)


# -- invariant-basis route ---------------------------------------------------


@lru_cache(maxsize=None)
def _fundamental_degrees(rs: RootSystem) -> tuple[int, ...]:
    """Degrees of the basic W-invariants, read off the heights of the positive roots.

    An exponent h occurs (number of roots of height h) - (number of height
    h + 1) times (Kostant), and each degree is an exponent plus one.
    """
    heights = Counter(sum(c) for c in rs.root_coefficients)
    return tuple(sorted(h + 1 for h in heights for _ in range(heights[h] - heights[h + 1])))


@lru_cache(maxsize=None)
def _invariant_generators(rs: RootSystem) -> list[tuple[int, dict]]:
    """(d, orbit) for each basic invariant p_d(y) = sum over v in the orbit of <v, y>^d.

    The degrees d are the fundamental degrees, and the orbit W.w1 gives a
    generator of each: p_2..p_{r+1} on A_r, the even p_2..p_2r on B_r and C_r,
    and p_2, p_6 on G2.  On D_r it gives the even p_2..p_{2r-2}, and the
    half-spin orbit W.w_r supplies the degree-r generator, whose Pfaffian part
    no power sum over W.w1 has.  Memoised per root system; the list is shared, never mutated.
    """
    r = rs.rank
    degrees = list(_fundamental_degrees(rs))
    vector = dominant_orbit(rs.cartan, (1,) + (0,) * (r - 1))
    if rs.kind != "D":
        return [(d, vector) for d in degrees]
    degrees.remove(r)
    return [(d, vector) for d in degrees] + [(r, dominant_orbit(rs.cartan, (0,) * (r - 1) + (1,)))]


def _invariant_products(rs: RootSystem, gens: Sequence, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors e of the generator products p^e of total degree ``degree``.

    Their number must be the dimension of the degree-m invariants, the
    coefficient of t^m in the product of 1/(1 - t^d) over the fundamental
    degrees d (Chevalley); InternalError otherwise.
    """
    out = []
    stack = [((0,) * len(gens), 0, degree)]
    while stack:
        e, start, left = stack.pop()
        if not left:
            out.append(e)
            continue
        stack.extend((e[:j] + (e[j] + 1,) + e[j + 1:], j, left - gens[j][0])
                     for j in range(start, len(gens)) if gens[j][0] <= left)
    count = [1] + [0] * degree
    for d in _fundamental_degrees(rs):
        for m in range(d, degree + 1):
            count[m] += count[m - d]
    if len(out) != count[degree]:
        raise InternalError(
            f"{rs.name}: {len(out)} invariant products of degree {degree},"
            f" the fundamental degrees give {count[degree]}"
        )
    return out


@lru_cache(maxsize=None)
def _generator_image(rs: RootSystem, shift: tuple[int, ...], i: int) -> BiPoly:
    """Generator i of the 2r written out: s_i = p_i(M(a + shift)), or t_(i-r) = p_(i-r)(y).

    Each <v, M(a + shift)> is the linear form <M^T v, a> with the constant
    <M^T v, shift> as one more slot; the t side is cached with the empty shift.
    """
    r, kd = rs.rank, rs.killing_dual_rows
    d, orbit = _invariant_generators(rs)[i % r]
    acc: dict[tuple, Scalar] = {}
    for v in orbit:
        form = [sum(map(mul, v, col)) for col in zip(*kd)] if i < r else v
        for e, c in expand_linear_power([*form, sum(map(mul, form, shift))], d).items():
            e = e[:r] + (0,) * r if i < r else (0,) * r + e[:r]
            acc[e] = acc.get(e, 0) + c
    return BiPoly._result(r, r, acc)


_EXPANSIONS: dict = {}


def _expansion(rs: RootSystem, shift: tuple[int, ...], used: tuple[bool, ...]):
    """The substitution s_j := p_j(M(a + shift)), t_j := p_j(y), one per root system and shift.

    ``used`` flags the 2r variables that occur; the others get the zero
    image.  A polynomial in the flagged variables comes out the same
    whatever the other images are, so the held substitution serves every
    call whose flags it covers, and a call that uses one more variable
    builds it again, for the union of the flags so far.  It keeps the memo
    of product images of ``polyalg._substitution``; the images themselves
    are built once each (``_generator_image``).
    """
    held = _EXPANSIONS.get((rs, shift))
    if held is None or any(u and not h for u, h in zip(used, held[0])):
        if held is not None:
            used = tuple(map(or_, used, held[0]))
        r = rs.rank
        images = [_generator_image(rs, shift if i < r else (), i) if u else BiPoly.zero(r, r)
                  for i, u in enumerate(used)]
        held = _EXPANSIONS[rs, shift] = (used, _substitution(r, r, images[:r], images[r:]))
    return held[1]


def _invariants_at(rs: RootSystem, y: Sequence[int], top: int, products=None) -> list:
    """p_j(y) for each basic invariant of degree at most top, and 0 for the others.

    The t_j(y) at a coweight y, and the s_j(x) at a weight x with y = M x.
    Given ``products``, lists of exponent vectors e of degree at most top,
    the values p(y)^e instead, one list per list.
    """
    g = [sum(sum(map(mul, v, y)) ** d for v in orbit) if d <= top else 0
         for d, orbit in _invariant_generators(rs)]
    return g if products is None else [[prod(map(pow, g, e)) for e in es] for es in products]


def _expand(rs: RootSystem, polys: Sequence[BiPoly],
            shift: tuple[int, ...] = ()) -> list[tuple[int, BiPoly]]:
    """Polynomials in generator coordinates written out in (a, y), s at a + shift (empty: a).

    Each f is scaled to integers before it is written out: the pair (D, D * f)
    comes back, D the lcm of the denominators of f's coefficients.
    """
    r = rs.rank
    used = tuple(any(e[i] for f in polys for e in f.terms) for i in range(2 * r))
    expansion = _expansion(rs, tuple(shift), used)
    scaled = [_common_denominator(list(f.terms.values())) for f in polys]
    return [(den, expansion(BiPoly._result(r, r, dict(zip(f.terms, num)))))
            for f, (den, num) in zip(polys, scaled)]


def invariant_basis(rs: RootSystem, degree: int) -> list[BiPoly]:
    """Canonical basis of the degree-m W-invariant polynomials on the coweight side.

    Exact row reduction of the products of orbit power sums of degree m over
    the canonical monomial list; the reduced-echelon form depends only on
    the space they span, so the basis is deterministic.
    """
    check_degree(degree, "degree")
    r = rs.rank
    products = _invariant_products(rs, _invariant_generators(rs), degree)
    monoms = [(0,) * r + m for m in _monomials(r, degree)]
    expanded = _expand(rs, [BiPoly(r, r, {(0,) * r + e: 1}) for e in products])
    basis_rows, _ = rref([[f.terms.get(m, 0) for m in monoms] for _, f in expanded])
    if len(basis_rows) != len(products):
        raise InternalError(
            f"{rs.name}: the invariant products of degree {degree} are dependent"
        )
    return [BiPoly(r, r, {m: c for m, c in zip(monoms, row) if c}) for row in basis_rows]


def _fit_points(rs: RootSystem):
    """Endless integral coweights nu = 2q*2rho-vee + t, t pseudo-random in [1, q]^r.

    <alpha_i, 2rho-vee> = 2 and <alpha_i, t> >= 2 - 3q for every simple root,
    so <alpha_i, nu> > 0: each point is strictly dominant, hence regular.  Its
    coordinates are positive, so read as a weight it is strictly dominant
    too.  The offsets keep the points off any line: on the line
    c*2rho-vee + (1, ..., r) the degree-7 invariants of A6 and the degree-8
    invariants of C4 are linearly dependent, so no number of its points can
    separate them.  The seed is fixed, so every run draws the same points.
    A fit solves from the first points it reads and checks itself at the
    next two (``_fit_exact``), so the one stream serves both.  Where -1 is
    not in W, a point fixed by sigma = -w0 is skipped: there every odd-degree
    invariant product vanishes, so its row of an odd-degree system is zero.
    """
    import random  # here, not at the top: only the sampled fits draw points

    q = 16
    rng = random.Random(rs.rank)
    sigma = [chamber_descent(rs.cartan, [-(i == j) for j in range(rs.rank)]).index(1)
             for i in range(rs.rank)]  # -w0 w_i = w_sigma(i)
    while True:
        nu = tuple(2 * q * x + rng.randint(1, q) for x in rs.two_rho_vee)
        if rs.minus_one_in_weyl or tuple(nu[i] for i in sigma) != nu:
            yield nu


def _fit_exact(rs: RootSystem, names: Sequence[str], sizes: Sequence[int],
               rows_at, points) -> list[list[Fraction]]:
    """Exact solutions of linear systems whose rows are sampled at a stream of points.

    rows_at(point) returns, for each system, its row of basis values and its
    target value at that point.  A system of n unknowns is solved with
    ``rref`` once it has n rows (at least one), and again after each further
    point while it is singular, over at most max(sizes) + 8 ``points``.  Rows
    keep coming until the last system is solved, and then two more points of
    the same stream are read, so each solution has at least two rows it was
    not solved from.  Every solution is checked against all the rows of its
    system, with the solution and each target value multiplied by the
    solution's common denominator, so that they compare in integers.  An
    inconsistent system, one still singular at the bound, or a failed check
    raises InternalError.
    """
    rows: list[list[list[Scalar]]] = [[] for _ in sizes]
    coeffs: list = [None] * len(sizes)

    def read(point):
        for system, (row, val) in zip(rows, zip(*rows_at(point))):
            system.append(row + [val])

    for count, point in enumerate(islice(points, max(sizes) + 8), 1):
        read(point)
        for s, n in enumerate(sizes):
            if coeffs[s] is None and count >= max(n, 1):
                red, pivots = rref(rows[s])
                if pivots[:n] == list(range(n)):
                    coeffs[s] = [row[n] for row in red[:n]]
        if None not in coeffs:
            break
    else:
        raise InternalError(
            f"{rs.name}: invariant sample systems stayed singular after {count} points"
        )
    for point in islice(points, 2):  # the rows past the last solve
        read(point)
    for s, (c, system) in enumerate(zip(coeffs, rows)):
        d, c = _common_denominator(c)
        if any(sum(map(mul, c, row)) != d * row[-1] for row in system):
            raise InternalError(f"{rs.name}: {names[s]} sample values fit no invariant")
    return coeffs


def _fit_invariants(rs: RootSystem, kmax: int, values) -> list[BiPoly]:
    """The W-invariant y-polynomials f_0..f_kmax, f_k of degree k, from their values.

    values(nu) returns [f_0(nu), ..., f_kmax(nu)] at an integral regular
    coweight nu.  ``_fit_exact`` solves each f_k in the basis of products of
    orbit power sums (``_invariant_products``) from the values at the
    coweights of ``_fit_points`` and checks it at the next two.
    Each f_k, the c_i on the monomials t^(pi_i), is written out by
    ``_expand`` in integers and divided by its denominator.
    """
    gens = _invariant_generators(rs)
    products = [_invariant_products(rs, gens, k) for k in range(kmax + 1)]
    coeffs = _fit_exact(rs, [f"degree-{k}" for k in range(kmax + 1)], [len(p) for p in products],
                        lambda nu: (_invariants_at(rs, nu, kmax, products), values(nu)),
                        _fit_points(rs))
    r = rs.rank
    fitted = [BiPoly._result(r, r, {(0,) * r + e: x for e, x in zip(prods, c)})
              for prods, c in zip(products, coeffs)]
    return [f.scale(Fraction(1, den)) for den, f in _expand(rs, fitted)]


def _fit_reduced(rs: RootSystem, ks: Sequence[int]) -> dict[int, BiPoly]:
    """F'_k for each k in ks, none of which vanishes, in generator coordinates.

    F'_k is W x W-invariant of bidegree (m, m), m = k - N, and invariant under
    the Killing transport, so it is a combination of the
    beta_ij(a, y) = pi_i(y) pi_j(M a) + pi_j(y) pi_i(M a), i <= j, over
    the products pi_i of orbit power sums of degree m, M a multiple of
    K-vee.  ``_fit_exact`` solves for the coefficients from
    F_k(mu, nu) / (d(nu) d-vee(mu)) with mu, nu two consecutive
    ``_fit_points``, and checks them at the next two such pairs.  Each c_ij lands
    on the monomials t^(pi_i) s^(pi_j) and t^(pi_j) s^(pi_i).  Every sample
    takes ``_alternating_sums`` at a new mu, so its cost is the weight-side
    minors on A-D at rank >= 4 and the orbit of mu elsewhere: at k <= N+6,
    B6, C6 and D6 take 13-24 ms, where the orbit took 1.7-3.6 s.
    """
    r, n = rs.rank, rs.num_positive
    gens = _invariant_generators(rs)
    products = [_invariant_products(rs, gens, k - n) for k in ks]
    pairs = [[(i, j) for i in range(len(p)) for j in range(i, len(p))] for p in products]
    top = max(ks) - n

    def rows_at(point):
        mu, nu = point
        at_nu = _invariants_at(rs, nu, top, products)
        at_kmu = _invariants_at(rs, [sum(map(mul, row, mu)) for row in rs.killing_dual_rows],
                                top, products)
        rows = [[x[i] * z[j] + x[j] * z[i] for i, j in ps]
                for x, z, ps in zip(at_nu, at_kmu, pairs)]
        values = _alternating_sums(rs, mu, ks)(nu)
        den = weyl_denominator_at(rs, nu) * coweyl_denominator_at(rs, mu)
        return rows, [Fraction(v, den) for v in values]

    fit = _fit_points(rs)
    coeffs = _fit_exact(rs, [f"F'_{k}" for k in ks], [len(p) for p in pairs], rows_at,
                        zip(fit, fit))
    out = {}
    for k, prods, ps, c in zip(ks, products, pairs, coeffs):
        terms: dict[tuple, Scalar] = {}
        for (i, j), x in zip(ps, c):
            for e in (prods[j] + prods[i], prods[i] + prods[j]):
                terms[e] = terms.get(e, 0) + x
        out[k] = BiPoly._result(r, r, terms)
    return out
