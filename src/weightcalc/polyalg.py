"""Exact sparse polynomial arithmetic on the bigraded algebra used everywhere.

A BiPoly is an element of the polynomial ring over Q in two blocks of
variables: ``a1..a_r`` (weight-side coordinates, fundamental-weight basis) and
``y1..y_r`` (coweight-side coordinates, simple-coroot basis).  Coefficients
are exact rationals (Python int or fractions.Fraction, never float).
Single-family polynomials (Chern generators, power sums of a fixed weight)
are the degenerate cases with one block unused.

Canonical term order everywhere (rendering, JSON, leading terms): graded
lexicographic, descending, on the combined exponent tuple (a-block first),
i.e. compare total degree first, then the exponent tuples themselves.
This module alone writes polynomials: callers pass variable names (a1..a_na
and y1..y_ny by default, ``_names``; v1..v_nv for a ``Mod2Poly``) and never
order or format terms themselves.

JSON schema: ``{"terms": [{"c": "-5/3", "m": {"a1": 2, "y2": 1}}, ...]}``
with terms in canonical order and signed coefficient strings.  A
``Mod2Poly`` writes each term as its monomial alone, ``{"terms": [{"v1": 2},
{}]}`` for v1^2 + 1, the constant term as ``{}`` and zero as
``{"terms": []}``.

Text grammar (bit-exact), written from the JSON terms: ``term ( (+|-) term
)*`` where each term is ``coeff`` or ``coeff*var^exp*...`` with ``coeff``
rendered ``p`` or ``p/q`` (magnitude only; signs live in the separators, a
leading minus is attached), and ``^exp`` omitted when the exponent is 1
(``_factors``).  A ``Mod2Poly`` term has no coefficient, and its constant
term renders ``1``.  The zero polynomial renders ``0``.

Every product of two term dicts on exponent tuples goes through one
kernel, ``_mul_into``: ``BiPoly`` products and powers, ``fk_direct``, and
the sums of products of ``powersum.product_power_sums``, the one binomial
convolution of power sums, which accumulates each degree in one term
dict.  Every product on packed
monomials (``_packed``: one 16-bit field per exponent, so that monomials
multiply by adding) goes through ``_packed_mul_into``: the substitution
kernel, Newton's identities (``powersum.elementary_from_power``) and the
rank <= 2 forms of the power-sum solve (``_Packed``, divided by
``_packed_quotient``).  Both kernels leave cancelled terms as zeros; each
operation drops them once, when it builds its result.  ``exact_divide``
removes a cancelled term at once, and its heap of candidate leading terms
skips the keys of removed ones.  The two exact divisions differ in what
they accept: ``exact_divide`` takes any ``BiPoly`` and gives rational
quotients, as ``weylsum.fk_reduced`` needs (F'_N = N!/d-vee(delta)), and
its heap finds each leading term in log time on forms of thousands of
terms; ``_packed_quotient`` checks that every quotient is an int
(``errors.exact_quotient``) and scans for the leading term at each step,
which suits the rank <= 2 forms of at most a few dozen terms.  The oracle
forms no symbolic product: it reads its E_k off exact values at lattice
points (``oracle.oracle_elementary``).

Every substitution goes through one kernel, ``_substitution``, given an
image for every variable: ``compose`` (identity images for an omitted
block; through it ``eval_a`` and ``evaluate``), the expansion of the basic
invariants (``weylsum._expand``) and the change to lattice generators
(``charclass._scaled_to_generators``).  It builds the image of a monomial
one variable power at a time, and the power of an image of at most one
term (an identity image, a number, the zero images of ``weylsum._expansion``)
in one step: y^65535 under a number costs one product, not 65535.

The exact linear algebra of every layer (Killing-form and lattice-basis
inverses, invariant bases, sample systems) is the one Gauss-Jordan
elimination in ``rref``, which is fraction-free: it runs on integer rows and
forms Fractions only for the final pivot rows.  Every rational matrix that
a layer needs in integers is scaled by ``_integer_rows``.  The one
determinant, of the integer minors of the classical alternating sums
(``weylsum._classical_sums``), is Bareiss' elimination in ``_det``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add
from struct import Struct

from .errors import DomainError, InternalError, check_degree, exact_quotient, is_int

__all__ = [
    "BiPoly",
    "Mod2Poly",
    "exact_divide",
    "mod2_reduce",
    "expand_linear_power",
    "rref",
    "invert",
]

Scalar = int | Fraction


def _norm(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int; keeps the common case fast.

    ``type(c) is Fraction`` is an exact type test, much cheaper on every int
    than ``isinstance``, which goes through the numbers ABCs.
    """
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _ratio(num: int, den: int) -> Scalar:
    """num / den for ints, den nonzero: an int where den divides num, else the Fraction."""
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def _exact(c) -> Scalar:
    """A coefficient checked to be exact: int or Fraction (not bool), integral ones as int."""
    if not (is_int(c) or isinstance(c, Fraction)):
        raise DomainError(f"coefficient {c!r} is not an exact rational (int or Fraction)")
    return _norm(c)


def _to_fraction(v) -> Scalar:
    """An evaluation point as an exact rational; a float becomes its exact Fraction."""
    if isinstance(v, (int, Fraction)):
        return v
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"evaluation point {v!r} is not a finite rational") from exc


def _scalar_str(c: Scalar) -> str:
    c = _norm(c)
    if isinstance(c, int):
        return str(c)
    return f"{c.numerator}/{c.denominator}"


def _parse_scalar(s: str) -> Scalar:
    if isinstance(s, str):
        try:
            return _norm(Fraction(s))
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"bad coefficient string {s!r}")


def _order_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def _names(na: int, ny: int, a_names: Sequence[str] | None,
           y_names: Sequence[str] | None) -> list[str]:
    """The variable names of a ring of arity (na, ny): a1..a_na and y1..y_ny unless given."""
    names = [*(a_names if a_names is not None else (f"a{i + 1}" for i in range(na))),
             *(y_names if y_names is not None else (f"y{i + 1}" for i in range(ny)))]
    if len(names) != na + ny:
        raise DomainError(f"{len(names)} variable names for arity ({na},{ny})")
    return names


def _monomial(exps: tuple, names: Sequence[str]) -> dict[str, int]:
    """The monomial with these exponents as {name: exponent}, over its variables only."""
    return {v: k for v, k in zip(names, exps, strict=True) if k}


def _factors(monomial: Mapping[str, int]) -> list[str]:
    """The text factors of a ``_monomial``: ``var``, or ``var^k`` for k > 1."""
    return [v if k == 1 else f"{v}^{k}" for v, k in monomial.items()]


@lru_cache(maxsize=None)
def _monomials(r: int, degree: int) -> tuple[tuple, ...]:
    """All exponent tuples of the given total degree, canonical descending order (cached)."""
    if r == 0:
        return ((),) if degree == 0 else ()
    out: list[tuple] = []
    stack = [((), degree)]
    while stack:
        exps, left = stack.pop()
        if len(exps) == r - 1:
            out.append(exps + (left,))
        else:
            stack.extend((exps + (e,), left - e) for e in range(left + 1))
    return tuple(out)


def _mul_into(acc: dict, f: Mapping[tuple, Scalar], g: Mapping[tuple, Scalar]) -> None:
    """Add the product of the term dicts f and g into acc.

    The loop under every product of two term dicts.  A cancelled term stays
    in acc as a zero, so the caller drops zeros once, when it builds its
    result.
    """
    get = acc.get
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + c1 * c2


_EXP_MAX = (1 << 16) - 1  # the widest exponent of a packed monomial
_BORROWS = sum(1 << (16 * j) for j in range(1, 64))  # the lowest bit of every field but the first


@lru_cache(maxsize=None)
def _fields(n: int) -> Struct:
    """n 16-bit fields, the first lowest: the layout of a packed monomial in n variables."""
    return Struct(f"<{n}H")


def _packed(terms: Mapping[tuple, Scalar], n: int) -> dict[int, Scalar]:
    """A term dict on packed monomials, one field (``_fields``) per exponent.

    Packed monomials multiply by adding.  The callers check that no exponent,
    also of a product they form, exceeds ``_EXP_MAX``.
    """
    pack, from_bytes = _fields(n).pack, int.from_bytes
    return {from_bytes(pack(*e), "little"): c for e, c in terms.items()}


def _unpacked(na: int, ny: int, packed: Mapping[int, Scalar]) -> "BiPoly":
    """The polynomial of arity (na, ny) of a packed term dict, zeros dropped."""
    fields = _fields(na + ny)
    unpack, size = fields.unpack, fields.size
    return BiPoly._result(na, ny, {unpack(m.to_bytes(size, "little")): c
                                   for m, c in packed.items()})


def _packed_mul_into(acc: dict, f: Mapping[int, Scalar], g: Mapping[int, Scalar]) -> None:
    """Add the product of the packed term dicts f and g into acc; zeros stay there."""
    get = acc.get
    for m, a in f.items():
        for u, x in g.items():
            acc[m + u] = get(m + u, 0) + a * x


class _Packed(dict):
    """A packed term dict (``_packed``) with the ring operations of ``powersum._triangular_solve``.

    ``f * g`` is the packed product, ``f * c`` scales by a number and
    ``f - g`` subtracts.  Cancelled terms stay as zeros; ``_packed_quotient``
    and ``_unpacked`` skip them.
    """

    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, dict):
            acc = _Packed()
            _packed_mul_into(acc, self, other)
            return acc
        return _Packed({m: c * other for m, c in self.items()})

    def __sub__(self, other: Mapping[int, Scalar]) -> "_Packed":
        out = _Packed(self)
        get = out.get
        for m, c in other.items():
            out[m] = get(m, 0) - c
        return out


def _packed_quotient(f: Mapping[int, Scalar], g: Mapping[int, Scalar]) -> _Packed:
    """f / g for packed forms whose quotient has int coefficients; InternalError on a remainder.

    Long division in the order of the packed ints, lexicographic with the
    last variable first: the leading term of what is left is divided by that
    of g, each coefficient through ``exact_quotient``.  A leading term that
    the leading term of g does not divide (a field of the difference
    borrows) is a remainder.  On forms homogeneous in at most two variables,
    as at rank <= 2, this is synthetic division along the last variable.
    """
    lead = max(g)
    lc, rest = g[lead], [(u, x) for u, x in g.items() if u != lead]
    rem, q = dict(f), _Packed()
    get = rem.get
    while rem:
        m = max(rem)
        c = rem.pop(m)
        if not c:
            continue
        d = m - lead
        if d < 0 or (m ^ lead ^ d) & _BORROWS:
            raise InternalError(f"inexact division of packed forms: {len(rem) + 1} terms left")
        q[d] = x = exact_quotient(c, lc, "inexact division of packed forms: %s / %s", c, lc)
        for u, y in rest:
            rem[d + u] = get(d + u, 0) - x * y
    return q


def _substitution(na: int, ny: int, a_images, y_images) -> Callable[["BiPoly"], "BiPoly"]:
    """The one substitution kernel: an image for each variable of polynomials of arity (na, ny).

    Monomials are packed (``_packed``), so that they multiply by adding.  The
    image of a monomial is that of the monomial with its last exponent
    lowered by one, times one image, memoised for the life of the returned
    function; where that image has at most one term (an identity image, a
    number, or zero), the whole exponent e is lowered at once and the image
    of the term raised to e.  An output exponent is at most the degree of a
    term times the largest image degree; that is checked before anything is
    packed.
    """
    given = [*a_images, *y_images]
    if (len(a_images), len(y_images)) != (na, ny):
        raise DomainError("compose image count does not match arity")
    na2, ny2 = given[0].na, given[0].ny
    if any(im.na != na2 or im.ny != ny2 for im in given):
        raise DomainError("compose images must share one arity")
    top = max(1, *(max(map(sum, im.terms), default=0) for im in given))  # keys are packed too
    if top > _EXP_MAX:
        raise DomainError(f"degree over {_EXP_MAX} in a substitution")
    packed = [_packed(im.terms, na2 + ny2) for im in given]
    memo: dict[int, dict[int, Scalar]] = {0: {0: 1}}

    def image_of(key: int) -> dict:
        image, steps = memo.get(key), []
        while image is None:  # lower the last variable until the memo knows the quotient
            j = (key.bit_length() - 1) >> 4
            e = key >> (j << 4) if len(packed[j]) <= 1 else 1  # a monomial image: all at once
            steps.append((key, j, e))
            key -= e << (j << 4)
            image = memo.get(key)
        for key, j, e in reversed(steps):
            acc: dict[int, Scalar] = {}
            _packed_mul_into(acc, image, packed[j] if e == 1 else
                             {e * m: c ** e for m, c in packed[j].items()})
            image = memo[key] = {m: a for m, a in acc.items() if a}
        return image

    def substitute(f: "BiPoly") -> "BiPoly":
        if (f.na, f.ny) != (na, ny):
            raise DomainError("compose image count does not match arity")
        if max(map(sum, f.terms), default=0) * top > _EXP_MAX:
            raise DomainError(f"degree over {_EXP_MAX} in a substitution")
        out: dict[int, Scalar] = {}
        get = out.get
        for key, c in _packed(f.terms, na + ny).items():
            for m, x in image_of(key).items():
                out[m] = get(m, 0) + c * x
        return _unpacked(na2, ny2, out)

    return substitute


class BiPoly:
    """Sparse exact-rational polynomial in a-variables and y-variables.

    Treat instances as immutable; all operations return new objects.
    """

    __slots__ = ("na", "ny", "terms")

    def __init__(self, na: int, ny: int, terms: Mapping[tuple, Scalar] | None = None):
        self.na = na
        self.ny = ny
        t: dict[tuple, Scalar] = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != na + ny:
                    raise DomainError(f"exponent tuple {exps} does not match arity ({na},{ny})")
                c = _exact(c)
                if c:
                    t[tuple(exps)] = c
        self.terms = t

    @classmethod
    def _result(cls, na: int, ny: int, t: Mapping[tuple, Scalar]) -> "BiPoly":
        """The polynomial of an accumulated term dict: zeros dropped, Fractions collapsed."""
        out = cls.zero(na, ny)
        out.terms = {e: _norm(c) for e, c in t.items() if c}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, na: int, ny: int) -> "BiPoly":
        return cls(na, ny)

    @classmethod
    def constant(cls, na: int, ny: int, c: Scalar) -> "BiPoly":
        return cls(na, ny, {(0,) * (na + ny): c})

    @classmethod
    def a_var(cls, i: int, na: int, ny: int) -> "BiPoly":
        e = [0] * (na + ny)
        e[i] = 1
        return cls(na, ny, {tuple(e): 1})

    @classmethod
    def y_var(cls, i: int, na: int, ny: int) -> "BiPoly":
        e = [0] * (na + ny)
        e[na + i] = 1
        return cls(na, ny, {tuple(e): 1})

    @classmethod
    def a_linear(cls, coeffs: Sequence[Scalar], ny: int | None = None) -> "BiPoly":
        """Linear form sum_i coeffs[i] * a_i."""
        na = len(coeffs)
        ny = na if ny is None else ny
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * (na + ny)
                e[i] = 1
                terms[tuple(e)] = c
        return cls(na, ny, terms)

    @classmethod
    def y_linear(cls, coeffs: Sequence[Scalar], na: int | None = None) -> "BiPoly":
        """Linear form sum_i coeffs[i] * y_i."""
        ny = len(coeffs)
        na = ny if na is None else na
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                e = [0] * (na + ny)
                e[na + i] = 1
                terms[tuple(e)] = c
        return cls(na, ny, terms)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def a_degree(self) -> int:
        """Max total degree in the a-variables (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(e[: self.na]) for e in self.terms)

    def y_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e[self.na:]) for e in self.terms)

    def leading(self) -> tuple[tuple, Scalar]:
        """(exponents, coefficient) of the canonical leading term."""
        if not self.terms:
            raise InternalError("leading term of the zero polynomial")
        k = max(self.terms, key=_order_key)
        return k, self.terms[k]

    def sorted_terms(self) -> list[tuple[tuple, Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * (self.na + self.ny), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.na == other.na and self.ny == other.ny and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"BiPoly({self.render()})"

    # -- ring operations ----------------------------------------------------

    def _check_compat(self, other: "BiPoly") -> None:
        if self.na != other.na or self.ny != other.ny:
            raise DomainError(
                f"arity mismatch: ({self.na},{self.ny}) vs ({other.na},{other.ny})"
            )

    def __add__(self, other: "BiPoly") -> "BiPoly":
        self._check_compat(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return BiPoly._result(self.na, self.ny, t)

    def __neg__(self) -> "BiPoly":
        out = BiPoly.zero(self.na, self.ny)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return self.scale(other)
        self._check_compat(other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        t: dict[tuple, Scalar] = {}
        _mul_into(t, small, big)
        return BiPoly._result(self.na, self.ny, t)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "BiPoly":
        """The polynomial times c; an int coefficient is divided by c's denominator with ``divmod``."""
        c = _exact(c)
        out = BiPoly.zero(self.na, self.ny)
        if c:
            num, den = c.numerator, c.denominator
            out.terms = {e: _ratio(v * num, den) if type(v) is int else _norm(v * c)
                         for e, v in self.terms.items()}
        return out

    def __pow__(self, k: int) -> "BiPoly":
        check_degree(k, "exponent")
        result = BiPoly.constant(self.na, self.ny, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- substitutions ------------------------------------------------------

    def eval_a(self, values: Sequence[Scalar]) -> "BiPoly":
        """Substitute rational values for all a-variables (a-degree 0 result)."""
        if len(values) != self.na:
            raise DomainError(f"expected {self.na} values, got {len(values)}")
        return self.compose(a_images=[
            BiPoly.constant(self.na, self.ny, _to_fraction(v)) for v in values
        ])

    def evaluate(self, a_values: Sequence[Scalar], y_values: Sequence[Scalar]) -> Scalar:
        """Full scalar evaluation at rational points."""
        if len(a_values) != self.na or len(y_values) != self.ny:
            raise DomainError("evaluation point does not match arity")
        point = [BiPoly.constant(0, 0, _to_fraction(v)) for v in (*a_values, *y_values)]
        return self.compose(a_images=point[: self.na],
                            y_images=point[self.na:]).constant_term()

    def embed(self, na: int, ny: int, a_offset: int = 0, y_offset: int = 0) -> "BiPoly":
        """Reinterpret inside a larger ring, shifting each block by an offset."""
        if self.na + a_offset > na or self.ny + y_offset > ny:
            raise DomainError("embed target too small")
        if a_offset < 0 or y_offset < 0:
            raise DomainError("embed offsets must be non-negative")
        if (na, ny) == (self.na, self.ny):
            return self  # the same ring, so both offsets are 0 and no exponent moves
        a_pad = (0,) * a_offset, (0,) * (na - self.na - a_offset)
        y_pad = (0,) * y_offset, (0,) * (ny - self.ny - y_offset)
        out = BiPoly.zero(na, ny)
        out.terms = {
            a_pad[0] + e[: self.na] + a_pad[1] + y_pad[0] + e[self.na:] + y_pad[1]: c
            for e, c in self.terms.items()
        }
        return out

    def compose(
        self,
        a_images: Sequence["BiPoly"] | None = None,
        y_images: Sequence["BiPoly"] | None = None,
    ) -> "BiPoly":
        """General substitution: variable i is replaced by its image polynomial.

        All images must share one arity, which becomes the arity of the
        result.  An omitted block keeps its variables: its images are the
        identity in that arity, which must have room for them.  With no image
        at all the polynomial is returned unchanged, but an empty block must
        stand for an empty block of variables.  One run of ``_substitution``.
        """
        if not a_images and not y_images:
            if (a_images is not None and self.na) or (y_images is not None and self.ny):
                raise DomainError("compose image count does not match arity")
            return self
        if not all(isinstance(im, BiPoly) for im in (*(a_images or ()), *(y_images or ()))):
            raise DomainError("compose images must be BiPoly polynomials")
        first = (a_images or y_images)[0]
        if a_images is None:  # too few where the images lack room, which the kernel refuses
            a_images = [BiPoly.a_var(i, first.na, first.ny) for i in range(min(self.na, first.na))]
        if y_images is None:
            y_images = [BiPoly.y_var(i, first.na, first.ny) for i in range(min(self.ny, first.ny))]
        return _substitution(self.na, self.ny, a_images, y_images)(self)

    # -- rendering ----------------------------------------------------------

    def render(
        self,
        a_names: Sequence[str] | None = None,
        y_names: Sequence[str] | None = None,
    ) -> str:
        """The text form, written from the terms of ``to_json_obj``."""
        out = []
        for t in self.to_json_obj(a_names, y_names)["terms"]:
            c = t["c"]  # signed; the sign goes into the separator
            out += [" - " if c[0] == "-" else " + ", "*".join([c.lstrip("-"), *_factors(t["m"])])]
        out[:1] = ["-"] if out[:1] == [" - "] else []
        return "".join(out) or "0"

    def to_json_obj(
        self,
        a_names: Sequence[str] | None = None,
        y_names: Sequence[str] | None = None,
    ) -> dict:
        names = _names(self.na, self.ny, a_names, y_names)
        return {"terms": [{"c": _scalar_str(c), "m": _monomial(e, names)}
                          for e, c in self.sorted_terms()]}

    @classmethod
    def from_json_obj(
        cls,
        obj: Mapping,
        na: int,
        ny: int,
        a_names: Sequence[str] | None = None,
        y_names: Sequence[str] | None = None,
    ) -> "BiPoly":
        index = {n: i for i, n in enumerate(_names(na, ny, a_names, y_names))}
        terms: dict[tuple, Scalar] = {}
        if not isinstance(obj, Mapping) or not isinstance(obj.get("terms", []), list):
            raise DomainError("polynomial JSON must be an object with a list of terms")
        for t in obj.get("terms", []):
            if not isinstance(t, Mapping) or not isinstance(t.get("m", {}), Mapping):
                raise DomainError(f"bad term {t!r} in polynomial JSON")
            e = [0] * (na + ny)
            for var, k in t.get("m", {}).items():
                if var not in index:
                    raise DomainError(f"unknown variable {var!r} in polynomial JSON")
                if not is_int(k) or k < 0:  # a JSON true is a bool, not an exponent
                    raise DomainError(f"bad exponent {k!r} in polynomial JSON")
                e[index[var]] = k
            key = tuple(e)
            if key in terms:
                raise DomainError("duplicate monomial in polynomial JSON")
            terms[key] = _parse_scalar(t.get("c", "0"))
        return cls(na, ny, terms)


class Mod2Poly:
    """Polynomial over GF(2) in v-variables; a term set with XOR addition."""

    __slots__ = ("nv", "terms")

    def __init__(self, nv: int, terms: Iterable[tuple] = ()):  # terms: exponent tuples
        self.nv = nv
        t = set()
        for e in terms:
            e = tuple(e)
            if len(e) != nv:
                raise DomainError(f"exponent tuple {e} does not match arity {nv}")
            if e in t:
                t.discard(e)
            else:
                t.add(e)
        self.terms = frozenset(t)

    @classmethod
    def zero(cls, nv: int) -> "Mod2Poly":
        return cls(nv)

    @classmethod
    def one(cls, nv: int) -> "Mod2Poly":
        return cls(nv, [(0,) * nv])

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mod2Poly):
            return NotImplemented
        return self.nv == other.nv and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nv, self.terms))

    def __add__(self, other: "Mod2Poly") -> "Mod2Poly":
        if self.nv != other.nv:
            raise DomainError("arity mismatch in Mod2Poly addition")
        return Mod2Poly(self.nv, self.terms ^ other.terms)

    def __mul__(self, other: "Mod2Poly") -> "Mod2Poly":
        if self.nv != other.nv:
            raise DomainError("arity mismatch in Mod2Poly product")
        acc: set[tuple] = set()
        for e1 in self.terms:
            for e2 in other.terms:
                e = tuple(x + y for x, y in zip(e1, e2))
                if e in acc:
                    acc.discard(e)
                else:
                    acc.add(e)
        return Mod2Poly(self.nv, acc)

    def square(self) -> "Mod2Poly":
        """Frobenius: squaring doubles every exponent over GF(2)."""
        return Mod2Poly(self.nv, (tuple(2 * x for x in e) for e in self.terms))

    def __pow__(self, k: int) -> "Mod2Poly":
        check_degree(k, "exponent")
        result = Mod2Poly.one(self.nv)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base.square()
            k >>= 1
        return result

    def truncate(self, maxdeg: int) -> "Mod2Poly":
        return Mod2Poly(self.nv, (e for e in self.terms if sum(e) <= maxdeg))

    def degree_part(self, k: int) -> "Mod2Poly":
        return Mod2Poly(self.nv, (e for e in self.terms if sum(e) == k))

    def to_json_obj(self, names: Sequence[str] | None = None) -> dict:
        """``{"terms": [{"v1": 2}, ...]}``, terms in canonical order; names default to v1..v_nv."""
        names = _names(self.nv, 0, [f"v{i + 1}" for i in range(self.nv)] if names is None
                       else names, ())
        return {"terms": [_monomial(e, names)
                          for e in sorted(self.terms, key=_order_key, reverse=True)]}

    def render(self, names: Sequence[str] | None = None) -> str:
        """The text form, written from the terms of ``to_json_obj``."""
        return " + ".join("*".join(_factors(m)) or "1"
                          for m in self.to_json_obj(names)["terms"]) or "0"

    def __repr__(self) -> str:
        return f"Mod2Poly({self.render()})"


# -- module-level operation names matching the interface --------------------


def exact_divide(f: BiPoly, g: BiPoly) -> BiPoly:
    """Exact polynomial division f / g; InternalError if any remainder is left.

    Leading-term elimination in the canonical graded-lex order.  The
    candidate leading terms wait in a heap keyed by the negated
    ``_order_key``; a key whose term has cancelled is dropped when it
    surfaces.  Exactness is a mathematical guarantee at every call site, so a
    nonzero remainder means a bug upstream and carries the offending
    remainder in the message.
    """
    f._check_compat(g)
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    if f.is_zero():
        return BiPoly.zero(f.na, f.ny)
    n = f.na + f.ny
    ge, gc = g.leading()
    rem = dict(f.terms)
    q: dict[tuple, Scalar] = {}
    heap = [(-sum(e), tuple(-x for x in e), e) for e in rem]
    heapify(heap)
    while rem:
        fe = heappop(heap)[2]
        fc = rem.get(fe)
        if fc is None:
            continue
        diff = tuple(fe[i] - ge[i] for i in range(n))
        if any(x < 0 for x in diff):
            leftover = BiPoly._result(f.na, f.ny, rem)
            raise InternalError(f"inexact polynomial division; remainder {leftover.render()}")
        c = (_ratio(fc, gc) if type(fc) is int and type(gc) is int
             else _norm(Fraction(fc) / Fraction(gc)))
        q[diff] = c
        for e2, c2 in g.terms.items():
            e = tuple(diff[i] + e2[i] for i in range(n))
            old = rem.get(e)
            s = (0 if old is None else old) - c * c2
            if s:
                rem[e] = s
                if old is None:
                    heappush(heap, (-sum(e), tuple(-x for x in e), e))
            elif old is not None:
                del rem[e]
    return BiPoly._result(f.na, f.ny, q)


def expand_linear_power(coeffs: Sequence[Scalar], k: int) -> dict[tuple, Scalar]:
    """Expand (sum_i coeffs[i] x_i)^k as {exponent tuple: coefficient}.

    Multinomial expansion over the nonzero slots only; the fast path under the
    symbolic Weyl sum and the orbit power sums of the invariant basis, so it
    works on raw dicts rather than BiPoly objects.
    """
    r = len(coeffs)
    live = [i for i, c in enumerate(coeffs) if c]
    out: dict[tuple, Scalar] = {}
    if k == 0:
        out[(0,) * r] = 1
        return out
    if not live:
        return out

    last = live[-1]
    tail = (0,) * (r - 1 - last)
    # depth-first over the slots up to the last live one, smallest exponent first
    stack = [(0, k, (), 1)]
    while stack:
        i, remaining, exps, weight = stack.pop()
        c = coeffs[i]
        if i == last:
            out[exps + (remaining,) + tail] = weight * c**remaining
        elif not c:
            stack.append((i + 1, remaining, exps + (0,), weight))
        else:
            for e in range(remaining, -1, -1):
                stack.append((i + 1, remaining - e, exps + (e,),
                              weight * comb(remaining, e) * c**e))
    return out


def _common_denominator(row: Sequence[Scalar]) -> tuple[int, list[int]]:
    """(d, d * row), d the lcm of the denominators of the int and Fraction entries."""
    d = lcm(*(x.denominator for x in row if type(x) is not int))
    if d == 1:
        return 1, [x if type(x) is int else x.numerator for x in row]
    return d, [x * d if type(x) is int else x.numerator * (d // x.denominator) for x in row]


def _integer_rows(mat: Sequence[Sequence[Scalar]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * mat) as int rows, d the lcm of the denominators of every entry."""
    d, flat = _common_denominator([x for row in mat for x in row])
    n = len(mat[0]) if mat else 0
    return d, tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n))


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over exact rationals, by fraction-free elimination.

    Each row is scaled to integers once.  Gauss-Jordan then picks the first
    row with a nonzero entry in the column as pivot and replaces every other
    row with one there by pv * row - f * pivot_row (pv and f the two entries
    in the column over their gcd), divided by the gcd of its entries, so each
    row stays a nonzero multiple of the row the same elimination over Q
    would hold.  Only the final pivot rows become
    Fractions, divided by their pivots.  Returns the nonzero reduced rows and
    their pivot columns, so the number of pivots is the rank.  The form is
    unique, hence so is the output.
    """
    mat = [_common_denominator([x if type(x) is int else Fraction(x) for x in row])[1]
           for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        prow = mat[top]
        for i, row in enumerate(mat):
            if i != top and row[col]:
                g = gcd(prow[col], row[col])
                pv, f = prow[col] // g, row[col] // g
                new = [pv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                mat[i] = [a // g for a in new] if g > 1 else new
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return [[Fraction(x, row[col]) for x in row] for row, col in zip(mat, pivots)], pivots


def invert(mat: Sequence[Sequence[Scalar]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """Exact inverse of a square matrix, or None when it is singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square int matrix, by Bareiss' fraction-free elimination.

    Each step takes the first row with a nonzero entry in the leading column
    as pivot p, and replaces each row below by (p * row - f * pivot row) // prev,
    prev the previous pivot (1 at first), dropping the leading column; every
    such quotient is exact.  Moving the pivot row up past i rows multiplies
    the sign by (-1)^i; a column with no nonzero entry gives 0.  The rows are
    not modified.
    """
    sign, prev = 1, 1
    while len(rows) > 1:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            return 0
        if i:
            rows = [rows[i], *rows[:i], *rows[i + 1:]]
            sign = (-1) ** i * sign
        (p, *top), rows = rows[0], rows[1:]
        rows = [[(p * x - row[0] * y) // prev for x, y in zip(row[1:], top)] for row in rows]
        prev = p
    return sign * rows[0][0]


def mod2_reduce(f: BiPoly) -> Mod2Poly:
    """Reduce a weight-side (Chern-generator) polynomial mod 2.

    The kernel is exactly the polynomials with all coefficients in 2Z; input
    must have integer coefficients and no y-variables.
    """
    if f.y_degree() > 0:
        raise DomainError("mod-2 reduction applies to weight-side polynomials only")
    odd = []
    for e, c in f.terms.items():
        if isinstance(c, Fraction):
            raise DomainError(
                f"non-integer coefficient {c} under mod-2 reduction"
            )
        if c & 1:
            odd.append(e[: f.na])
    return Mod2Poly(f.na, odd)
