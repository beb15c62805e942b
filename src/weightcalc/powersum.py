"""Power sums and elementary symmetric functions of weight multisets.

For the irreducible representation with dominant highest weight lam, the
weight multiset {(mu, m(mu))} determines, for each k >= 0,

    P_k(nu) = sum over weights of m(mu) * <mu, nu>^k,

a degree-k polynomial on the coweight side, and the elementary symmetric
functions E_k of the same multiset of linear forms.  Both are computed
exactly, never by enumerating weights.  The three lowest power sums have
closed forms on every type: P_0 = dim(lam), the Weyl dimension; P_1 = 0,
because the weights of a semisimple representation sum to zero; and
P_2 = x * Q_2(y), with Q_2 the Killing quadratic and x the Casimir ratio
dim(lam) * <lam + 2 delta, lam> / dim g (Dynkin's index).  Higher P_k come
from alternating Weyl sums: the convolution identity

    F_m(lam + delta) = sum_k binom(m, k) * P_k * F_{m-k}(delta)

is triangular in m = N, N+1, ... because F_j(delta) vanishes below degree
N, so each P_k is an exact polynomial quotient; Newton's identities then
convert P to E.  At rank <= 2 the recursion runs on the y-polynomials F_m
on packed monomials (``polyalg._packed``), and so do Newton's identities on
every input.  At rank >= 3 it runs on exact values at a few sample
coweights, and each P_k, a W-invariant of degree k, is rebuilt from its
values in a basis of products of orbit power sums.  The F_m(delta) side of
either is one table per root system, grown by the missing m when a larger
kmax is asked (``_grown``), so each F_m(delta) is built once.

With the highest weight kept symbolic (a-variables), F_m = F'_m * d * d-vee
lets d(y) and d-vee(a + delta) cancel from every term, and the identity
becomes F'_m(a + delta) = sum_k binom(m, k) * R_k * F'_{m-k}(delta) for
R_k = P_k / P_0, where P_0 = d-vee(a + delta)/d-vee(delta) is the dimension
polynomial.  Its divisor F'_N = N!/d-vee(delta) is a number, so each step
divides by a constant.  The bivariate P_k obey adeg P_k <= N + k, and
adeg E_k <= floor(k/2)*N + k.

E_0 = 1, and every odd P_k vanishes when -1 lies in the Weyl group.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul

from .errors import DomainError, InternalError, check_coordinates, check_degree, exact_quotient
from .polyalg import (_EXP_MAX, BiPoly, _mul_into, _norm, _Packed, _packed, _packed_mul_into,
                      _packed_quotient, _ratio, _unpacked)
from .rootsys import RootSystem
from .weylsum import (MAX_TERMS, _alternating_sums, _expand, _fit_invariants, _fit_reduced,
                      _invariants_at, _vanishes, coweyl_denominator, coweyl_denominator_at,
                      fk_evaluated, q2_poly)

__all__ = [
    "weyl_dimension",
    "validate_dominant",
    "power_sums",
    "elementary_from_power",
    "symbolic_power_sums",
    "product_power_sums",
]


def validate_dominant(rs: RootSystem, lam: Sequence[int]) -> tuple[int, ...]:
    """Check that lam is a dominant integral weight; return it as a tuple."""
    lam = check_coordinates(lam, rs.rank, where=f" for {rs.name}")
    if any(c < 0 for c in lam):
        raise DomainError("weight must be dominant (nonnegative coordinates)")
    return lam


def weyl_dimension(rs: RootSystem, lam: Sequence[int]) -> int:
    """Dimension of the irreducible representation with highest weight lam.

    d-vee(lam + delta) / d-vee(delta): the product over the positive coroots
    of <lam + delta, beta-vee> / <delta, beta-vee>; InternalError on a remainder.
    """
    return _dimension(rs, validate_dominant(rs, lam))


def _dimension(rs: RootSystem, lam: Sequence[int]) -> int:
    """``weyl_dimension`` of a weight its caller has already checked."""
    return exact_quotient(coweyl_denominator_at(rs, [c + 1 for c in lam]),
                          coweyl_denominator_at(rs, (1,) * rs.rank),
                          "dimension formula did not yield an integer")


def _casimir_ratio(rs: RootSystem, lam: Sequence[int], degree: int) -> Fraction:
    """The Casimir ratio degree * <lam + 2 delta, lam> / dim g, <,> the inverse Killing form.

    In fundamental-weight coordinates delta is (1, ..., 1), so lam + 2 delta
    has coordinates lam_i + 2.  The pairing runs in integers on the rows
    M = D * K-dual (``killing_dual_rows``), and D = M_11 / K-dual_11.
    """
    rows, kd = rs.killing_dual_rows, Fraction(rs.killing_dual[0][0])
    pairing = sum((c + 2) * sum(map(mul, row, lam)) for c, row in zip(lam, rows))
    return Fraction(degree * pairing * kd.numerator, rs.dim_g * rows[0][0] * kd.denominator)


def power_sums(rs: RootSystem, lam: Sequence[int], kmax: int) -> list[BiPoly]:
    """P_0..P_kmax of the weight multiset, each a y-polynomial.

    P_0 = dim(lam), P_1 = 0 and P_2 = x * Q_2 (``q2_poly``, x from
    ``_casimir_ratio``) are closed forms, so at kmax <= 2 no Weyl sum runs.
    At kmax >= 3 every P_k comes from a triangular solve of the convolution
    identity, and the solve's own P_0..P_2 must equal the closed forms, else
    InternalError.  At rank <= 2 the solve runs on the y-polynomials F_m as
    packed forms (``polyalg._packed``), homogeneous in at most two
    variables, and divides by binom(N+i, i) * F_N(delta) = binom(N+i, i) *
    N! * d by synthetic division along the last variable
    (``polyalg._packed_quotient``).  At rank >= 3 it runs on the values of
    F_m at a few exact sample points, and each P_k is rebuilt from its values in a
    basis of degree-k invariants (``weylsum._fit_invariants``); there the
    symbolic F_m would cost about |W| * r * C(N+k+r-1, r-1) per call.  A
    sample of F_m(lam + delta, nu) (``weylsum._alternating_sums``) costs, on
    A-D at rank >= 4, one dot product per m of the weight-side minors of
    lam + delta, at most 30 r x r determinants for k <= 6 formed once per
    call, with the coweight-side minors, memoised per fit point; at rank 3,
    about |W| * (r + k) for the orbit of lam + delta.  F_m(delta, nu) comes
    from the same kernel, its weight side formed once per build of the
    table and its values memoised per point (``_delta_sums``), so after the
    first call it costs a lookup.  Warm P_0..P_6 at rank 6 take 2-9 ms,
    where the orbit took 0.07-0.66 s.  At rank <= 2 the symbolic route
    measured faster.
    """
    lam = validate_dominant(rs, lam)
    check_degree(kmax, "kmax")
    r, n = rs.rank, rs.num_positive
    degree = _dimension(rs, lam)
    closed = [BiPoly.constant(r, r, degree), BiPoly.zero(r, r),
              q2_poly(rs).scale(_casimir_ratio(rs, lam, degree))][:kmax + 1]
    if kmax <= 2:
        return closed
    shifted = tuple(c + 1 for c in lam)
    if r >= 3:
        sums = _alternating_sums(rs, shifted, range(n, n + kmax + 1))
        out = _fit_invariants(rs, kmax, lambda nu: _power_sums_at(rs, sums, nu, kmax))
    elif n + kmax > _EXP_MAX:
        raise DomainError(f"degree over {_EXP_MAX} in the rank <= 2 power-sum solve")
    else:
        f_lam = [_Packed(_packed(fk_evaluated(rs, shifted, n + i).terms, 2 * r))
                 for i in range(kmax + 1)]
        solved = _triangular_solve(n, f_lam, _fk_delta(rs, kmax), _packed_quotient)
        out = [_unpacked(r, r, p) for p in solved]
    if out[:3] != closed:
        raise InternalError(f"{rs.name} {lam}: the Weyl sums' P_0..P_2 differ from the closed forms")
    return out


def _grown(join: Callable) -> Callable:
    """Hold the tables ``build(rs, lo, hi)`` of F_{N+lo}..F_{N+hi}(delta), one per root system.

    The first call on a root system builds the table at its kmax.  A call at
    a larger kmax builds only the m that are missing and appends them,
    ``join(held, new)``; a smaller kmax reads the held table, whose prefix
    it is.  So each F_m(delta) is built once per root system, whatever the
    order of the kmax asked.  The tables are shared by every call and never
    mutated.
    """
    def decorate(build: Callable) -> Callable:
        tables: dict = {}

        def table(rs: RootSystem, kmax: int):
            top, held = tables.get(rs, (-1, None))
            if top < kmax:
                new = build(rs, top + 1, kmax)
                held = new if held is None else join(held, new)
                tables[rs] = (kmax, held)
            return held
        table.cache_clear = tables.clear
        return table
    return decorate


@_grown(add)
def _fk_delta(rs: RootSystem, lo: int, hi: int) -> tuple[dict, ...]:
    """F_{N+lo}(delta, y)..F_{N+hi}(delta, y) on packed monomials (``polyalg._packed``)."""
    delta = (1,) * rs.rank
    return tuple(_Packed(_packed(fk_evaluated(rs, delta, rs.num_positive + j).terms, 2 * rs.rank))
                 for j in range(lo, hi + 1))


def _power_sums_at(rs: RootSystem, sums, nu: tuple[int, ...], kmax: int) -> list[int]:
    """P_0(nu)..P_kmax(nu) from F_m(lam + delta, nu), m = N..N+kmax, given as ``sums(nu)``.

    ``sums`` and F_m(delta, nu) (``_delta_sums``) both come from
    ``weylsum._alternating_sums``.  The triangular solve runs on these
    integers; its divisor F_N(delta, nu) = N! * d(nu) is nonzero because nu is
    regular, and each P_k(nu) is an integer because nu is integral.
    """
    return _triangular_solve(
        rs.num_positive, sums(nu), _delta_sums(rs, kmax)(nu),
        lambda a, b: exact_quotient(a, b, "sampled power sum %d/%d is not an integer", a, b))


@_grown(lambda held, new: lru_cache(maxsize=None)(lambda nu: held(nu) + new(nu)))
def _delta_sums(rs: RootSystem, lo: int, hi: int) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The function nu -> (F_{N+lo}(delta, nu), ..., F_{N+hi}(delta, nu)), memoised per point.

    The weight side of delta, its minors or its signed orbit, is formed once
    per build; the sampled fits of one rank always ask at the same points.
    """
    n = rs.num_positive
    sums = _alternating_sums(rs, (1,) * rs.rank, range(n + lo, n + hi + 1))
    return lru_cache(maxsize=None)(lambda nu: tuple(sums(nu)))


def _triangular_solve(n: int, f_lam: Sequence, f_del: Sequence, divide: Callable) -> list:
    """P_0, P_1, ... from F_{N+i}(lam + delta) and F_{N+i}(delta), i = 0, 1, ...

    Solves F_{N+i}(lam + delta) = sum_k binom(N+i, k) * P_k * F_{N+i-k}(delta)
    for P_i, lowest degree first.  The F are y-polynomials, their integer
    values at one sample point, or the reduced sums F'_{N+i}, which give
    R_i = P_i / P_0; each step is the exact quotient ``divide`` by
    binom(N+i, i) * F_N(delta).
    """
    out: list = []
    for i, num in enumerate(f_lam):
        for k in range(i):
            num = num - out[k] * f_del[i - k] * comb(n + i, k)
        out.append(divide(num, f_del[0] * comb(n + i, i)))
    return out


def elementary_from_power(power: Sequence[BiPoly], kmax: int | None = None) -> list[BiPoly]:
    """E_0..E_kmax from P_1..P_kmax by Newton's identities.

    k * E_k = sum_{i=1..k} (-1)^(i-1) * E_{k-i} * P_i.  Works for concrete
    (y-only), lattice (a-only) and symbolic (bivariate) inputs alike.  The
    recurrence runs on packed monomials (``polyalg._packed``): the P_i are
    packed once, with the signs folded into the even ones, the sum of each
    degree accumulates in one term dict (``polyalg._packed_mul_into``), and
    each E_k is unpacked once.  A term of E_k has degree at most
    k * max(deg P_i / i); where that may exceed a field, DomainError.
    """
    if not power:
        raise DomainError("empty power-sum sequence")
    if kmax is None:
        kmax = len(power) - 1
    check_degree(kmax, "kmax")
    if kmax >= len(power):
        raise DomainError("need P_0..P_kmax to produce E_0..E_kmax")
    na, ny = power[0].na, power[0].ny
    signed: list = [None]
    for i, p in enumerate(power[1:kmax + 1], 1):
        power[0]._check_compat(p)
        if max(map(sum, p.terms), default=0) * kmax > _EXP_MAX * i:
            raise DomainError(f"degree over {_EXP_MAX} in Newton's identities")
        packed = _packed(p.terms, na + ny)
        signed.append(packed if i % 2 else {m: -c for m, c in packed.items()})
    elem: list[dict] = [{0: 1}]
    out = [BiPoly.constant(na, ny, 1)]
    for k in range(1, kmax + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            _packed_mul_into(acc, *sorted((elem[k - i], signed[i]), key=len))
        elem.append({m: _ratio(c, k) if type(c) is int else _norm(c / k)
                     for m, c in acc.items() if c})
        out.append(_unpacked(na, ny, elem[k]))
    return out


def symbolic_power_sums(rs: RootSystem, kmax: int) -> list[BiPoly]:
    """P_0..P_kmax with the highest weight symbolic (a-variables), as P_0 * R_k.

    R_k = P_k / P_0 comes from the triangular recursion on the reduced sums
    F'_{N+i} in generator coordinates (``weylsum._fit_reduced``), with s read
    at a + delta, and F'_{N+i}(delta, y) from the numbers s_j(delta); each step
    divides by the constant binom(N+i, i) * F'_N, and each R_k is written out
    once (``weylsum._expand``), as D * R_k in integers, D the lcm of its
    denominators.  P_0 is the dimension polynomial d-vee(a + delta)/d-vee(delta),
    its numerator the product of the N translated coroot factors
    (``coweyl_denominator``); each product P_0 * D * R_k runs on integer
    coefficients and is divided once by D * d-vee(delta).  Before any fit
    the expanded output is bounded by sum_k C(N+k+r, r) * C(k+r-1, r-1)
    terms, its a-degree <= N+k and y-degree k; over MAX_TERMS it is refused
    with DomainError.
    """
    check_degree(kmax, "kmax")
    n, r = rs.num_positive, rs.rank
    size = sum(comb(n + k + r, r) * comb(k + r - 1, r - 1) for k in range(kmax + 1))
    if size > MAX_TERMS:
        raise DomainError(f"symbolic P_0..P_{kmax} of {rs.name} may have {size} terms, "
                          f"over the budget of {MAX_TERMS}")
    ms = range(n, n + kmax + 1)
    fitted = _fit_reduced(rs, [m for m in ms if not _vanishes(rs, m)])
    reduced = [fitted.get(m, BiPoly.zero(r, r)) for m in ms]
    delta = (1,) * r
    at_delta = _invariants_at(rs, list(map(sum, rs.killing_dual_rows)), kmax)  # s_j(delta)
    f_del = [f.eval_a(at_delta) for f in reduced]
    f_del[0] = f_del[0].constant_term()  # F'_N = N!/d-vee(delta)
    ratios = _triangular_solve(n, reduced, f_del, lambda f, c: f.scale(Fraction(1, c)))
    dvee = coweyl_denominator(rs, delta).terms  # d-vee(a + delta), int coefficients
    dvee_delta = coweyl_denominator_at(rs, delta)
    out = []
    for den, f in _expand(rs, ratios, delta):
        acc: dict = {}
        _mul_into(acc, f.terms, dvee)
        out.append(BiPoly._result(r, r, {e: _ratio(v, den * dvee_delta) for e, v in acc.items()}))
    return out


def product_power_sums(
    p: Sequence[BiPoly], q: Sequence[BiPoly], kmax: int
) -> list[BiPoly]:
    """Power sums of the sum-multiset {mu + nu} from those of two factors.

    P_k = sum_i binom(k, i) * P_i(first) * P_{k-i}(second).  The two factors
    must live in the same ring with disjoint y-variable support, so the
    products are literal polynomial products.
    """
    check_degree(kmax, "kmax")
    if len(p) <= kmax or len(q) <= kmax:
        raise DomainError("need factor power sums up to kmax")
    if not p or not q or p[0].na != q[0].na or p[0].ny != q[0].ny:
        raise DomainError("factor power sums must share one ring")
    sup_p = {i for f in p for e in f.terms for i in range(f.ny) if e[f.na + i]}
    sup_q = {i for f in q for e in f.terms for i in range(f.ny) if e[f.na + i]}
    if sup_p & sup_q:
        raise DomainError("factor power sums must use disjoint y-variables")
    return _binomial_convolution(p, q, kmax)


def _binomial_convolution(p: Sequence[BiPoly], q: Sequence[BiPoly], kmax: int) -> list[BiPoly]:
    """sum_i binom(k, i) * p_i * q_(k-i) for k = 0..kmax, on any shared support.

    The power sums of {mu + nu} when p and q are those of {mu} and {nu}: the
    binomial theorem holds for linear forms in the same variables too.  Each
    degree accumulates in one term dict, the binomial folded into the
    smaller factor.
    """
    for f in (*p[1:kmax + 1], *q[:kmax + 1]):
        p[0]._check_compat(f)
    out: list[BiPoly] = []
    for k in range(kmax + 1):
        acc: dict = {}
        for i in range(k + 1):
            f, g = sorted((p[i].terms, q[k - i].terms), key=len)
            b = comb(k, i)
            _mul_into(acc, {e: b * c for e, c in f.items()} if b > 1 else f, g)
        out.append(BiPoly._result(p[0].na, p[0].ny, acc))
    return out
