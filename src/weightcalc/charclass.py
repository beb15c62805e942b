"""Group-level characteristic classes restricted to a maximal torus.

A choice of compact connected group with a fixed simple root system is made
through a :class:`CharacterLattice`: a basis of the character group of a
maximal torus, written in fundamental-weight coordinates (or, for the GL
family, in the standard diagonal coordinates).  On top of that choice this
module computes, always in exact arithmetic:

* Chern classes ``c_k`` of an irreducible representation, as integer
  polynomials in the lattice generators (the elementary symmetric functions
  of the weight multiset, re-expressed in the generator basis);
* the closed form of ``c_2``, -x/2 * Q_2, which is the Chern classes' own c_2;
* Stiefel-Whitney classes of orthogonal representations, obtained from the
  Chern classes by reduction mod 2;
* spinoriality (does the representation lift to the spin group of its
  orthogonal form?), decided by evenness of ``c_2`` and cross-checked by a
  2-adic divisibility test on the quadratic form Q_2, built from the roots;
* orthogonal / symplectic / non-self-dual typing of a highest weight;
* the factorization of the total Stiefel-Whitney class into factors
  ``(1 + v_S)^{m_k}`` indexed by subsets ``S`` of the order-2 subgroup
  generators, with the exponents recovered from finitely many character
  values at diagonal sign patterns.

Representations enter either as a plain dominant weight or wrapped in
:class:`PiSpec` with ``s_wrap=True``, meaning the sum of the representation
with its dual -- the standard way to make a non-orthogonal representation
orthogonal without changing its characteristic data in odd degrees.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import add, mul, sub

from .errors import DomainError, InternalError, check_coordinates, check_degree, exact_quotient
from .polyalg import BiPoly, Mod2Poly, _integer_rows, _mul_into, _substitution, invert, mod2_reduce
from .rootsys import SUPPORTED_RANKS, RootSystem, build_root_system, dominant_representative
from .powersum import (
    _casimir_ratio,
    _dimension,
    elementary_from_power,
    power_sums,
    product_power_sums,
    validate_dominant,
)
from .oracle import (
    DEFAULT_MAX_DIM,
    _pair_coefficients,
    schur_at_signs,
    weight_multiplicities,
)

__all__ = [
    "CharacterLattice",
    "PiSpec",
    "ChernResult",
    "SWCResult",
    "SpinorialResult",
    "builtin_lattice",
    "builtin_lattice_names",
    "lattice_contains",
    "chern_classes",
    "chern2_closed",
    "swc_restrict",
    "is_spinorial",
    "orthogonality_type",
    "lattice_orthogonality_type",
    "total_swc_factorization",
]


# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class CharacterLattice:
    """A maximal-torus character lattice for a compact connected group.

    ``basis`` rows are the lattice generators.  For the semisimple families
    they are written in fundamental-weight coordinates of the underlying root
    system (``torus_rank == rank``); for the GL family the torus has one more
    circle than the root-system rank and the generators are the diagonal
    coordinate characters themselves, so ``basis`` is the identity and
    weights are given in diagonal coordinates.  ``_root_coordinates`` reads
    every weight the same way: fundamental-weight coordinates, then for GL
    the central character.

    ``v_names`` label the generators of the dual of the 2-torsion subgroup
    of the torus, the variables of every mod-2 (Stiefel-Whitney) output.
    """

    name: str
    family: str  # "SL" | "PGL" | "GL" | "Sp" | "SO" | "Spin" | "G"
    kind: str
    rank: int
    torus_rank: int
    basis: tuple[tuple[int, ...], ...]
    gen_names: tuple[str, ...]
    v_names: tuple[str, ...]

    def root_system(self) -> RootSystem:
        return build_root_system(self.kind, self.rank)


@dataclass(frozen=True)
class PiSpec:
    """An irreducible representation, optionally doubled with its dual.

    ``s_wrap=True`` denotes the direct sum of the representation and its
    dual, which is always orthogonal; its Chern classes are the convolution
    of those of the two summands and its degree is doubled.
    """

    weight: tuple[int, ...]
    s_wrap: bool = False


@dataclass(frozen=True)
class ChernResult:
    """Chern classes c_0..c_kmax in lattice generators, integer coefficients."""

    lattice: CharacterLattice
    pi: PiSpec
    kmax: int
    degree: int
    c: tuple[BiPoly, ...]


@dataclass(frozen=True)
class SWCResult:
    """Stiefel-Whitney classes by degree; optionally factorization exponents.

    ``w[k]`` is the degree-k part, a polynomial over GF(2) in the 2-torsion
    generators.  ``total_factorization``, when present, lists the exponents
    m_1..m_r with ``w == prod_k prod_{|S|=k} (1 + v_S)^{m_k}`` truncated at
    ``kmax``.
    """

    lattice: CharacterLattice
    pi: PiSpec
    kmax: int
    w: tuple[Mod2Poly, ...]
    total_factorization: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SpinorialResult:
    """Spinoriality decision with its certificate.

    ``spinorial`` is the primary test: every coefficient of c_2 is even.
    When the secondary 2-adic test applies (plain representation of a simple
    type, nonzero weight), ``valuation`` holds the threshold j and
    ``secondary_integral`` whether 2^(-j) times Q_2 (the invariant quadratic
    form, built from the roots) is 2-integral in the generators; the tests
    must agree.
    """

    lattice: CharacterLattice
    pi: PiSpec
    spinorial: bool
    c2: BiPoly
    valuation: int | None = None
    secondary_integral: bool | None = None

    def __bool__(self) -> bool:
        return self.spinorial


# -- built-in lattices --------------------------------------------------------


_NAME_RE = re.compile(r"(?i)^(SL|PGL|GL|SP|SO|SPIN|G)[-_ ]?([0-9]+)$")


def _ranks(kind: str) -> range:
    lo, hi = SUPPORTED_RANKS[kind]
    return range(lo, hi + 1)


#: Display name -> (family, root-system kind, rank) of every built-in group,
#: in display order; the ranks are those ``SUPPORTED_RANKS`` allows.
_BUILTIN = {
    **{f"SL{r + 1}": ("SL", "A", r) for r in _ranks("A")},
    "PGL2": ("PGL", "A", 1),
    **{f"GL{r + 1}": ("GL", "A", r) for r in _ranks("A")},
    **{f"Sp{2 * r}": ("Sp", "C", r) for r in _ranks("C")},
    **{f"SO{2 * r + 1}": ("SO", "B", r) for r in _ranks("B")},
    **{f"SO{2 * r}": ("SO", "D", r) for r in _ranks("D")},
    **{f"Spin{2 * r + 1}": ("Spin", "B", r) for r in _ranks("B")},
    **{f"Spin{2 * r}": ("Spin", "D", r) for r in _ranks("D")},
    **{f"G{r}": ("G", "G", r) for r in _ranks("G2")},
}


def builtin_lattice_names() -> list[str]:
    """All recognized built-in group names, in display order."""
    return list(_BUILTIN)


def builtin_lattice(group_name: str) -> CharacterLattice:
    """Character lattice of a built-in group, by name (e.g. "SL3", "Spin7").

    The SL, Sp and SO generators are the weights e_1, e_2, ... of the vector
    representation (``RootSystem.vector_weights``); GL_n has the n diagonal coordinate
    characters, and the simply connected spin groups and G2 the full weight
    lattice.  Naming of generators follows the classical diagonal
    conventions: ``e`` / ``e1..`` for the determinant-one and classical
    matrix groups, ``eb`` for the adjoint form PGL2 (pulling back to twice
    the generator of SL2), ``x1..`` for the spin groups and G2.  ``v`` names
    mirror them on the 2-torsion side.
    """
    m = _NAME_RE.match(group_name.strip()) if isinstance(group_name, str) else None
    display = None
    if m:
        fam = m.group(1).upper()
        display = {"SP": "Sp", "SPIN": "Spin"}.get(fam, fam) + str(int(m.group(2)))
    if display not in _BUILTIN:
        raise DomainError(
            f"unknown group name {group_name!r}; supported: " + ", ".join(_BUILTIN)
        )
    return _builtin(display)


@lru_cache(maxsize=None)
def _builtin(display: str) -> CharacterLattice:
    family, kind, r = _BUILTIN[display]
    if family == "PGL":
        return CharacterLattice(display, "PGL", "A", 1, 1, ((2,),), ("eb",), ("vb",))
    n = r + 1 if family == "GL" else r  # the GL torus has one more circle than the rank
    if family in ("GL", "Spin", "G"):
        rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    else:
        rows = build_root_system(kind, r).vector_weights[:r]
    letter = "x" if family in ("Spin", "G") else "e"
    gen = ("e",) if display == "SL2" else tuple(f"{letter}{i+1}" for i in range(n))
    vn = ("v",) if display == "SL2" else tuple(f"v{i+1}" for i in range(n))
    return CharacterLattice(display, family, kind, r, n, tuple(rows), gen, vn)


# -- exact linear algebra on lattice bases ------------------------------------


def _root_coordinates(lattice: CharacterLattice, w: Sequence[int]) -> tuple[int, ...]:
    """A weight of the lattice in root coordinates: fundamental-weight ones, then central ones.

    A GL_n weight, given in diagonal coordinates, has the trace-free part
    with fundamental coordinates w_i - w_(i+1) and the central character
    sum(w); every other lattice's weights are fundamental coordinates
    already.  The y-variables of the weight side are these coordinates.
    """
    if lattice.family != "GL":
        return tuple(w)
    return tuple(map(sub, w, w[1:])) + (sum(w),)


@lru_cache(maxsize=None)
def _generator_images(lattice: CharacterLattice) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows A, the images of the weight-side variables, and their common denominator D.

    The weight-side variable y_j stands for the j-th root coordinate
    (``_root_coordinates``).  Its expression in lattice generators is row j
    of the inverse of the generators written in root coordinates.  D is the
    lcm of the denominators of those rows, and row j of A is that row scaled
    by D, so every entry is an int.
    """
    inv = invert([_root_coordinates(lattice, row) for row in lattice.basis])
    if inv is None:
        raise InternalError("lattice basis matrix is singular")
    d, rows = _integer_rows(inv)
    return rows, d


def _generator_coordinates(
    lattice: CharacterLattice, mu: Sequence[int]
) -> tuple[int, ...] | None:
    """Integer coordinates in the generator basis of a weight in root coordinates, or None.

    mu = M^T c for the generators M in root coordinates, so D c = A^T mu
    with the integer rows A and their denominator D of
    ``_generator_images``; the weight lies in the lattice iff D divides
    every entry of A^T mu.
    """
    rows, d = _generator_images(lattice)
    c = [sum(map(mul, col, mu)) for col in zip(*rows)]
    if d == 1:
        return tuple(c)
    if any(x % d for x in c):
        return None
    return tuple(x // d for x in c)


def lattice_contains(lattice: CharacterLattice, mu: Sequence[int]) -> bool:
    """Whether a weight lies in the lattice: int coordinates, bool excluded.

    The coordinates are fundamental-weight ones, diagonal ones for GL.
    """
    try:
        mu = check_coordinates(mu, lattice.torus_rank)
    except DomainError:
        return False
    return _generator_coordinates(lattice, _root_coordinates(lattice, mu)) is not None


@lru_cache(maxsize=None)
def _generator_substitution(lattice: CharacterLattice) -> Callable[[BiPoly], BiPoly]:
    """The first r = rank integer rows substituted for the y-variables of the root system's ring.

    GL's central row is read by the shift of ``chern_classes`` alone; the memo of images lives
    per lattice.
    """
    rows, _ = _generator_images(lattice)
    r, n = lattice.rank, len(rows)
    return _substitution(r, r, [BiPoly.a_var(i, n, 0) for i in range(r)],
                         [BiPoly.a_linear(row, ny=0) for row in rows[:r]])


def _scaled_to_generators(lattice: CharacterLattice, f: BiPoly) -> BiPoly:
    """A weight-side polynomial with each y_j replaced by row j of the integer rows.

    f has the arity (r, r) of the root system's ring.  With the rows of
    ``_generator_images``, scaled by D to integers, a term of degree k picks
    up D^k: for f homogeneous of degree k the result is D^k times f in the
    lattice generators.  The callers divide by D^k once.
    """
    if any(any(e[: f.na]) for e in f.terms):
        raise InternalError("expected a polynomial without symbolic weight variables")
    return _generator_substitution(lattice)(f)


# -- Chern classes ------------------------------------------------------------


def _as_pi(lattice: CharacterLattice, spec) -> PiSpec:
    """The representation as a checked PiSpec: a lattice weight, dominant, and a bool s_wrap."""
    weight, s_wrap = (spec.weight, spec.s_wrap) if isinstance(spec, PiSpec) else (spec, False)
    if s_wrap is not True and s_wrap is not False:
        raise DomainError(f"s_wrap must be True or False, got {s_wrap!r}")
    weight = check_coordinates(weight, lattice.torus_rank, where=f" for {lattice.name}")
    coords = _root_coordinates(lattice, weight)
    if any(c < 0 for c in coords[: lattice.rank]):
        raise DomainError(
            "a dominant weight for the GL family must have nonincreasing coordinates"
            if lattice.family == "GL" else "weight must be dominant (nonnegative coordinates)"
        )
    if _generator_coordinates(lattice, coords) is None:
        raise DomainError("weight not in character lattice")
    return PiSpec(weight, s_wrap)


def _non_integer(c, dk: int, k: int) -> str:
    return (f"non-integer coefficient {Fraction(c, dk)} in c_{k}; "
            "the weight data is inconsistent with the lattice")


def chern_classes(lattice: CharacterLattice, pi_spec, kmax: int = 6) -> ChernResult:
    """Chern classes c_0..c_kmax in lattice generators, exactly.

    The plain classes are the elementary symmetric functions of the weight
    multiset re-expressed in the generator basis.  Each weight-side P_k of
    the root system goes to the generators at the integer rows of
    ``_generator_images``, which gives D^k * P_k.  The root coordinates past
    the rank (GL's central character) are the same for every weight, so they
    shift each weight by one linear form L, and ``product_power_sums`` of the
    P_k with the powers of L adds the shift.  Newton's identities are
    homogeneous, so they then give D^k * E_k, and each coefficient of E_k is
    divided by D^k once, by ``exact_quotient``: the quotients are integers,
    and a remainder (or a Fraction left by Newton's identities) signals an
    internal inconsistency.
    E_k of a multiset of m weights is 0 for k > m, so nothing past degree m
    is computed.  For the doubled form the classes of the representation and
    of its dual (all weights negated) are convolved.
    """
    check_degree(kmax, "kmax")
    pi = _as_pi(lattice, pi_spec)
    rs = lattice.root_system()
    coords = _root_coordinates(lattice, pi.weight)
    weight, shift = coords[: rs.rank], coords[rs.rank :]
    n = lattice.torus_rank
    rows, d = _generator_images(lattice)
    degree = _dimension(rs, weight)
    top = min(kmax, degree)
    power = [_scaled_to_generators(lattice, f) for f in power_sums(rs, weight, top)]
    if any(shift):
        form = [sum(map(mul, shift, col)) for col in zip(*rows[rs.rank :])]
        central = BiPoly.a_linear(form, ny=0)
        power = product_power_sums(power, [central ** j for j in range(top + 1)], top)
    cs = []
    for k, ek in enumerate(elementary_from_power(power, top)):
        dk = d ** k
        cs.append(BiPoly._result(n, 0, {e: exact_quotient(c, dk, _non_integer, c, dk, k)
                                        for e, c in ek.terms.items()}))
    cs += [BiPoly.zero(n, 0)] * (kmax - top)
    if pi.s_wrap:
        # c(pi) c(pi*) with c_i(pi*) = (-1)^i c_i: the odd classes cancel, and in an
        # even one each pair c_i c_(k-i), i < k/2, counts twice and c_(k/2)^2 once
        doubled: list[dict] = [{} for _ in cs]
        for k in range(0, kmax + 1, 2):
            for i in range(k // 2 + 1):
                sign = (-1) ** i * (2 if 2 * i < k else 1)
                signed = {e: sign * c for e, c in cs[i].terms.items()}
                _mul_into(doubled[k], signed, cs[k - i].terms)
        cs = [BiPoly._result(n, 0, acc) for acc in doubled]
        degree *= 2
    return ChernResult(lattice, pi, kmax, degree, tuple(cs))


def chern2_closed(lattice: CharacterLattice, lam: Sequence[int]) -> BiPoly:
    """Closed form for c_2: -x/2 * Q2, with x the Casimir ratio of ``powersum._casimir_ratio``.

    Valid for the simple families (everything except GL), on a plain weight.
    It is ``chern_classes(...).c[2]`` at kmax 2, where the P_2 that Newton's
    identities read is the closed form x * Q_2 and no Weyl sum runs.
    """
    pi = _as_pi(lattice, lam)
    if lattice.family == "GL" or pi.s_wrap:
        raise DomainError("the closed form for c_2 requires a simple group type and a plain weight")
    return chern_classes(lattice, pi, 2).c[2]


# -- orthogonality typing ------------------------------------------------------


def orthogonality_type(rs: RootSystem, lam: Sequence[int]) -> str:
    """One of "orthogonal", "symplectic", "not-self-dual".

    Self-dual iff the dominant representative of the negated weight is the
    weight itself; self-dual representations are orthogonal exactly when the
    sum of the pairings with all positive coroots, <lam, 2rho-vee>, is even.
    """
    lam = validate_dominant(rs, lam)
    negated = [-c for c in lam]
    if tuple(dominant_representative(rs, negated)) != lam:
        return "not-self-dual"
    return "orthogonal" if sum(map(mul, lam, rs.two_rho_vee)) % 2 == 0 else "symplectic"


def lattice_orthogonality_type(lattice: CharacterLattice, pi_spec) -> str:
    """Orthogonality typing in lattice terms.

    The weight must lie in the lattice, as for ``chern_classes``; the doubled
    form of any weight, a ``PiSpec`` with ``s_wrap``, is orthogonal.  A
    self-dual weight has central character 0 (GL's root coordinate past the
    rank) and a self-dual fundamental-weight part.
    """
    return _orthogonality(lattice, _as_pi(lattice, pi_spec))


def _orthogonality(lattice: CharacterLattice, pi: PiSpec) -> str:
    """The orthogonality type of a PiSpec that ``_as_pi`` has checked."""
    if pi.s_wrap:
        return "orthogonal"
    coords = _root_coordinates(lattice, pi.weight)
    if any(coords[lattice.rank :]):
        return "not-self-dual"
    return orthogonality_type(lattice.root_system(), coords[: lattice.rank])


def _require_orthogonal(lattice: CharacterLattice, pi_spec, task: str) -> PiSpec:
    """The checked PiSpec of an orthogonal representation; any other is refused."""
    pi = _as_pi(lattice, pi_spec)
    kind = _orthogonality(lattice, pi)
    if kind != "orthogonal":
        raise DomainError(
            f"{task} needs an orthogonal representation, but this one is "
            f"{kind}; wrap it in the doubled form (s_wrap) instead"
        )
    return pi


# -- Stiefel-Whitney classes ---------------------------------------------------


def swc_restrict(lattice: CharacterLattice, pi_spec, kmax: int = 6) -> SWCResult:
    """Stiefel-Whitney classes of an orthogonal representation, by degree.

    Each w_k is the mod-2 reduction of c_k, read in the 2-torsion generator
    variables.  The input must be orthogonal, either as a plain weight or as
    the doubled form.  Mod 2 the doubled form's c(pi) c(pi*) is c(pi)^2:
    c_i(pi*) = (-1)^i c_i(pi), and each cross term c_i c_(k-i), i < k/2,
    comes twice.  So its w_k is the Frobenius square of c_(k/2)(pi) mod 2 for
    even k and 0 for odd k, and c(pi) is needed only to degree kmax // 2.
    """
    check_degree(kmax, "kmax")
    pi = _require_orthogonal(lattice, pi_spec, "the Stiefel-Whitney restriction")
    if pi.s_wrap:
        half = [mod2_reduce(cj) for cj in chern_classes(lattice, PiSpec(pi.weight), kmax // 2).c]
        zero = Mod2Poly.zero(lattice.torus_rank)
        w = tuple(zero if k % 2 else half[k // 2].square() for k in range(kmax + 1))
    else:
        w = tuple(mod2_reduce(ck) for ck in chern_classes(lattice, pi, kmax).c)
    return SWCResult(lattice, pi, kmax, w)


# -- spinoriality ----------------------------------------------------------------


def _ord2(x) -> int:
    """2-adic valuation of a nonzero int or Fraction: n & -n is the lowest set bit of n."""
    num, den = x.as_integer_ratio()
    if num == 0:
        raise InternalError("2-adic valuation of zero requested")
    return (num & -num).bit_length() - (den & -den).bit_length()


@lru_cache(maxsize=None)
def _q2_from_roots(lattice: CharacterLattice) -> BiPoly:
    """Q_2 in the lattice generators from the roots: the sum over alpha in Phi of (g(alpha).x)^2.

    g(alpha) are the generator coordinates of the root (every root lies in
    every built-in lattice), and alpha and -alpha give the same square.  g is
    linear, so those of the simple roots (``_generator_coordinates`` of the
    Cartan rows) give every g(alpha) through its simple-root coefficients.
    It reads neither the Chern path's change to lattice generators nor
    Newton's identities nor its exact quotient.  Memoised per lattice.
    """
    n, rs = lattice.torus_rank, lattice.root_system()
    simple = [_generator_coordinates(lattice, row + (0,) * (n - lattice.rank)) for row in rs.cartan]
    if None in simple:
        raise InternalError(f"a root of {lattice.name} escaped its character lattice")
    cols = [[sum(map(mul, c, col)) for c in rs.root_coefficients] for col in zip(*simple)]
    unit = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    return BiPoly(n, 0, {tuple(map(add, unit[i], unit[j])):
                         (2 if i == j else 4) * sum(map(mul, cols[i], cols[j]))
                         for i in range(n) for j in range(i, n)})


def is_spinorial(lattice: CharacterLattice, pi_spec) -> SpinorialResult:
    """Whether the orthogonal representation lifts to the spin group.

    Primary criterion: every coefficient of c_2 is even.  For a plain
    representation of a simple type with nonzero weight the 2-adic secondary
    criterion also runs -- with j the negated 2-adic valuation of x/4, x the
    Casimir ratio of ``powersum._casimir_ratio``, the lift exists iff 2^(-j) times
    the invariant quadratic form Q_2 is 2-integral in the generators -- and the
    two answers must agree.  c_2 comes from the Chern path; Q_2 is built
    from the roots (``_q2_from_roots``), so a fault in the change to lattice
    generators, in Newton's identities or in the exact quotient shows as a
    disagreement, an InternalError.
    """
    pi = _require_orthogonal(lattice, pi_spec, "the spinoriality test")
    ch = chern_classes(lattice, pi, kmax=2)
    c2 = ch.c[2]
    primary = all(int(c) % 2 == 0 for _, c in c2.terms.items())
    valuation: int | None = None
    secondary: bool | None = None
    if not pi.s_wrap and lattice.family != "GL" and any(pi.weight):
        x = _casimir_ratio(lattice.root_system(), pi.weight, ch.degree)
        valuation = -_ord2(x / 4)
        secondary = all(_ord2(c) >= valuation for c in _q2_from_roots(lattice).terms.values())
        if secondary != primary:
            raise InternalError(
                "spinoriality criteria disagree: c_2 parity says "
                f"{primary}, the 2-adic quadratic-form test says {secondary}"
            )
    return SpinorialResult(lattice, pi, primary, c2, valuation, secondary)


# -- total Stiefel-Whitney factorization ----------------------------------------


_FACTORIZATION_FAMILIES = ("SL", "GL", "Sp", "SO")


def _character_values(
    lattice: CharacterLattice, weight: tuple[int, ...], max_dim: int
) -> list[int]:
    """chi(b_0), ..., chi(b_r) at the nested diagonal sign patterns.

    b_i inverts the first i lattice generators and fixes the rest, so
    chi(b_i) sums the multiplicities of the weights signed by the parity of
    their first i generator coordinates.  Every lattice builds one table:
    the weights of the root-system part (``_root_coordinates`` up to the
    rank), each with the central coordinates appended and read once in
    generator coordinates.  For the SL and GL families the values are
    cross-checked against an exact Schur-polynomial evaluation at the
    matching +-1 eigenvalue multiset.
    """
    r, rank = lattice.torus_rank, lattice.rank
    coords = _root_coordinates(lattice, weight)
    wm = weight_multiplicities(lattice.root_system(), coords[:rank], max_dim=max_dim)
    table = [(_generator_coordinates(lattice, mu + coords[rank:]), m)
             for mu, m in wm.expanded().items()]
    if any(c is None for c, _ in table):
        raise InternalError("a weight escaped its own character lattice")
    chi = [sum(-m if sum(c[:i]) % 2 else m for c, m in table) for i in range(r + 1)]
    if lattice.family == "GL":
        t = -weight[r - 1] if weight[r - 1] < 0 else 0
        part = [c + t for c in weight]
        expected = [(-1) ** ((i * t) % 2) * schur_at_signs(part, i, r - i) for i in range(r + 1)]
    elif lattice.family == "SL":
        # the partition whose Schur function is the character; SL(r+1) takes i
        # rounded up to even eigenvalues -1, so the determinant stays one
        part = [sum(weight[j:]) for j in range(r)]
        expected = [schur_at_signs(part, i + i % 2, r + 1 - i - i % 2) for i in range(r + 1)]
    else:
        return chi
    for i, value in enumerate(expected):
        if value != chi[i]:
            raise InternalError(
                f"character value at sign pattern {i} disagrees with the "
                f"Schur evaluation: {chi[i]} versus {value}"
            )
    return chi


def total_swc_factorization(
    lattice: CharacterLattice,
    pi_spec,
    kmax: int = 6,
    max_dim: int = DEFAULT_MAX_DIM,
) -> SWCResult:
    """Total Stiefel-Whitney class as prod_k prod_{|S|=k} (1 + v_S)^{m_k}.

    The exponents come from character values at the nested sign patterns:
    m_k = 2^(-r) * sum_i A_{i,k} chi(b_i) with A_{i,k} the coefficient of
    x^i in (1-x)^k (1+x)^(r-k).  They must come out as nonnegative integers.
    Over GF(2) each power is written down directly: (1 + v_S)^m is the
    product, over the bits 2^b of m with 2^b <= kmax, of the Frobenius
    factors 1 + sum_(j in S) v_j^(2^b); the higher bits only add terms past
    kmax.  The expanded product must reproduce the mod-2 Chern reduction
    degree by degree; either failure signals a broken torus convention.
    """
    check_degree(kmax, "kmax")
    if lattice.family not in _FACTORIZATION_FAMILIES:
        raise DomainError(
            "the total-class factorization is defined for the SL, GL, Sp and "
            f"SO families only, not {lattice.name}"
        )
    pi = _require_orthogonal(lattice, pi_spec, "the total-class factorization")
    r = lattice.torus_rank
    chi = _character_values(lattice, pi.weight, max_dim)
    if pi.s_wrap:
        chi = [2 * c for c in chi]
    exponents: list[int] = []
    mismatch = "; the sign-pattern convention does not match the lattice"
    for k in range(r + 1):
        mk = exact_quotient(sum(map(mul, _pair_coefficients(r - k, k, r), chi)), 2 ** r,
                            "factorization exponent m_%d is not an integer%s", k, mismatch)
        if mk < 0:
            raise InternalError(f"factorization exponent m_{k} = {mk} is negative{mismatch}")
        exponents.append(mk)
    w_total = Mod2Poly.one(r)
    for k in range(1, r + 1):
        powers = [1 << b for b in range(kmax.bit_length()) if exponents[k] >> b & 1]
        for subset, p in product(combinations(range(r), k), powers):
            factor = [(0,) * r] + [tuple(p * (t == j) for t in range(r)) for j in subset]
            w_total = (w_total * Mod2Poly(r, factor)).truncate(kmax)
    w = tuple(w_total.degree_part(k) for k in range(kmax + 1))
    reference = swc_restrict(lattice, pi, kmax)
    for k in range(kmax + 1):
        if w[k] != reference.w[k]:
            raise InternalError(
                f"factorized total class disagrees with the mod-2 Chern "
                f"reduction in degree {k}"
            )
    return SWCResult(lattice, pi, kmax, w, tuple(exponents[1:]))
