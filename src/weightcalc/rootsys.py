"""Root-system data for the classical simple types A1-A6, B2-B6, C2-C6, D3-D6, G2.

Coordinate conventions (fixed once, used everywhere):

* Weights live in the fundamental-weight basis: a weight ``mu`` is a tuple of
  rational coordinates ``(m_1, ..., m_r)`` meaning ``mu = sum m_i w_i``.
* Coweights live in the simple-coroot basis: ``nu = sum n_j alpha_j-vee``.
* With these bases the natural pairing is the identity:
  ``<mu, nu> = sum_i m_i n_i``.
* Cartan matrix convention: ``cartan[i][j] = <alpha_i, alpha_j-vee>`` with the
  Bourbaki node labeling, so row ``i`` of the Cartan matrix is exactly the
  simple root ``alpha_i`` written in fundamental-weight coordinates.
* Simple reflections act on weight coordinates by
  ``s_i(w_j) = w_j - delta_ij alpha_i``; ``dominant_orbit`` walks an orbit
  with ``sign(w) = (-1)^l(w)``.  Every orbit comes from that one walk: the
  roots (the orbits of the simple roots), the signed orbits of the Weyl sums,
  the oracle's weights, and ``RootSystem.weyl``, the Weyl group as matrices,
  read off the orbit of one packed regular weight, each point's coordinates
  decoding to the rows of one matrix; only tests and ``weylsum.fk_direct``
  read it.

The Killing form on the coweight side is computed from the root sum
``K(nu1, nu2) = sum over all roots alpha of <alpha, nu1><alpha, nu2>`` and is
an integer matrix in simple-coroot coordinates; ``killing_dual`` is its exact
rational inverse (the induced form on the weight side), and
``killing_dual_rows`` that inverse scaled to integer rows, M, off which the
coroots are read and which every other user of the form reads too.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul, sub

from .errors import DomainError, InternalError, check_coordinates, exact_quotient, is_int
from .polyalg import _integer_rows, invert

__all__ = [
    "WeylElement",
    "RootSystem",
    "SUPPORTED_RANKS",
    "build_root_system",
    "act",
    "highest_root",
    "dominant_representative",
    "chamber_descent",
    "dominant_orbit",
    "is_dominant",
]

Coord = Fraction | int
Matrix = tuple[tuple[int, ...], ...]

#: Supported rank range per type kind.
SUPPORTED_RANKS = {"A": (1, 6), "B": (2, 6), "C": (2, 6), "D": (3, 6), "G2": (2, 2)}


WeylElement = namedtuple("WeylElement", ["matrix", "sign"])
WeylElement.__doc__ = "One Weyl group element: its matrix on weight coordinates and its sign."


def _cartan_matrix(kind: str, rank: int) -> Matrix:
    """Bourbaki Cartan matrix, rows = simple roots in fundamental-weight coords."""
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2
    if kind == "A":
        for i in range(rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
    elif kind == "B":
        # chain, last simple root short: <alpha_{r-1}, alpha_r-vee> = -2
        for i in range(rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
        c[rank - 2][rank - 1] = -2
    elif kind == "C":
        # chain, last simple root long: <alpha_r, alpha_{r-1}-vee> = -2
        for i in range(rank - 1):
            c[i][i + 1] = c[i + 1][i] = -1
        c[rank - 1][rank - 2] = -2
    elif kind == "D":
        for i in range(rank - 2):
            c[i][i + 1] = c[i + 1][i] = -1
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
        c[rank - 2][rank - 1] = c[rank - 1][rank - 2] = 0
    elif kind == "G2":
        c[0][1] = -1
        c[1][0] = -3
    else:  # pragma: no cover - guarded by build_root_system
        raise DomainError(f"unknown kind {kind!r}")
    return tuple(tuple(row) for row in c)


def _positive_roots(cartan: Matrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(coefficients over the simple roots, weight coordinates) of each positive root.

    Every root is W-conjugate to a simple root, a Cartan row, so the orbits of
    their dominant points hold every root.  A root's coefficients are beta
    times the inverse Cartan matrix, the exact quotients beta . (d C^-1) / d,
    and it is positive when they are all >= 0.  Sorted by (height, coefficients).
    """
    d, cinv = _integer_rows(invert(cartan))
    cols = tuple(zip(*cinv))
    roots = []
    for top in {chamber_descent(cartan, row) for row in cartan}:
        for beta in dominant_orbit(cartan, top):
            k = tuple(exact_quotient(sum(map(mul, beta, col)), d, "non-integral root %s", beta)
                      for col in cols)
            if min(k) >= 0:
                roots.append((k, beta))
    return sorted(roots, key=lambda kb: (sum(kb[0]), kb[0]))


def _coroot(gram: Matrix, beta: Sequence[int]) -> tuple[int, ...]:
    """beta-vee = 2 G beta / (beta . G beta) in simple-coroot coordinates, G the integer form."""
    g = [sum(map(mul, row, beta)) for row in gram]
    norm = sum(map(mul, beta, g))
    return tuple(exact_quotient(2 * x, norm, "non-integral coroot coordinate %d/%d for root %s",
                                2 * x, norm, beta) for x in g)


def _enumerate_weyl(cartan: Matrix, coroots: Sequence[Sequence[int]]) -> tuple[WeylElement, ...]:
    """W read off the orbit of one packed regular weight, sorted by matrix.

    Entry M[i][j] = <w w_j, alpha_i-vee> = <w_j, w^-1 alpha_i-vee> is a coroot
    coefficient, so |M[i][j]| <= c, the largest positive-coroot coefficient.
    With B = 2c + 1 and x = sum_j B^(r-1-j) w_j, coordinate i of w x packs row
    i of M (the coroot w^-1 alpha_i-vee) as balanced base-B digits, most
    significant first, so the walk's sorted points are the sorted matrices.
    x is regular: its orbit has |W| points, and the walk's sign is (-1)^l(w).
    """
    rank = len(cartan)
    c = max(map(max, coroots))
    x = tuple((2 * c + 1) ** (rank - 1 - j) for j in range(rank))
    coroot = {sum(map(mul, b, x)): tuple(b) for b in coroots}
    coroot.update({-v: tuple(-k for k in b) for v, b in coroot.items()})
    return tuple(
        WeylElement(tuple(map(coroot.__getitem__, p)), s)
        for p, s in dominant_orbit(cartan, x).items()
    )


@dataclass(frozen=True)
class RootSystem:
    """Immutable root-system data for one simple type.

    Equality and hash read (kind, rank) alone, from which every other field derives.
    ``weyl`` reads W as matrices off one orbit walk on first access, for tests
    and the reference ``weylsum.fk_direct`` only; it is verified against the
    closed-form order and the reflection-descent prediction for ``-1 in W``.
    """

    kind: str
    rank: int
    cartan: Matrix = field(compare=False)
    positive_roots: Matrix = field(compare=False)  # fundamental-weight coordinates
    positive_coroots: Matrix = field(compare=False)  # simple-coroot coordinates
    root_coefficients: Matrix = field(compare=False)  # over the simple roots
    killing: Matrix = field(compare=False)
    killing_dual: tuple[tuple[Fraction, ...], ...] = field(compare=False)
    minus_one_in_weyl: bool = field(compare=False)
    killing_dual_rows: Matrix | None = field(default=None, compare=False)  # M, integer rows
    _weyl: tuple[WeylElement, ...] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def dim_g(self) -> int:
        return 2 * len(self.positive_roots) + self.rank

    @cached_property
    def name(self) -> str:
        """Display name: "A3", "G2"; the rank is appended unless the kind carries it."""
        return self.kind if self.kind[-1].isdigit() else f"{self.kind}{self.rank}"

    @cached_property
    def two_rho_vee(self) -> tuple[int, ...]:
        """2rho-vee, the sum of the positive coroots, in simple-coroot coordinates."""
        return tuple(map(sum, zip(*self.positive_coroots)))

    @cached_property
    def vector_weights(self) -> Matrix:
        """e_1 = w_1, then e_(j+1) = e_j - alpha_j: the vector representation's weights in order.

        On the classical types these are the e_j of the diagonal torus: r of
        them on B, C and D, and on A_r the r + 1 weights of SL(r+1), whose sum
        is 0.  Row j of the Cartan matrix is alpha_j in fundamental-weight
        coordinates.
        """
        rows = [(1,) + (0,) * (self.rank - 1)]
        for alpha in self.cartan[:self.rank if self.kind == "A" else -1]:
            rows.append(tuple(map(sub, rows[-1], alpha)))
        return tuple(rows)

    @property
    def weyl(self) -> tuple[WeylElement, ...]:
        if self._weyl is None:
            elems = _enumerate_weyl(self.cartan, self.positive_coroots)
            _, w_exp = _expected_counts(self.kind, self.rank)
            if len(elems) != w_exp:
                raise InternalError(
                    f"{self.name}: enumerated {len(elems)} Weyl elements,"
                    f" expected {w_exp}"
                )
            minus_one = tuple(
                tuple(-1 if i == j else 0 for j in range(self.rank))
                for i in range(self.rank)
            )
            if self.minus_one_in_weyl != any(w.matrix == minus_one for w in elems):
                raise InternalError(
                    f"{self.name}: -1-in-W prediction contradicts enumeration"
                )
            object.__setattr__(self, "_weyl", elems)
        return self._weyl


def _parse_type(kind: str, rank: int) -> tuple[str, int]:
    kind = kind.upper()
    if kind == "G" :
        kind = "G2"
    if kind not in SUPPORTED_RANKS:
        raise DomainError(
            f"unsupported type kind {kind!r}; supported: A1-A6, B2-B6, C2-C6, D3-D6, G2"
        )
    lo, hi = SUPPORTED_RANKS[kind]
    if not (is_int(rank) and lo <= rank <= hi):
        raise DomainError(
            f"rank {rank} out of range for kind {kind} (supported {lo}..{hi})"
        )
    return kind, rank


@lru_cache(maxsize=None, typed=True)
def build_root_system(kind: str, rank: int) -> RootSystem:
    """Construct (and memoize) the full root system of the given type.

    Raises DomainError for types outside the supported table.  The memo is
    typed, so a bool rank, which hashes and compares like its int, misses it
    and is refused.
    """
    kind, rank = _parse_type(kind, rank)
    cartan = _cartan_matrix(kind, rank)
    coeffs, pos_roots = zip(*_positive_roots(cartan))
    # Killing form from the root sum: K_ij = sum over all roots of a_i a_j
    killing = tuple(
        tuple(2 * sum(a[i] * a[j] for a in pos_roots) for j in range(rank))
        for i in range(rank)
    )
    killing_dual = invert(killing)
    if killing_dual is None:
        raise InternalError("singular Killing matrix")
    rows = _integer_rows(killing_dual)[1]
    rs = RootSystem(
        kind=kind,
        rank=rank,
        cartan=cartan,
        positive_roots=pos_roots,
        positive_coroots=tuple(_coroot(rows, beta) for beta in pos_roots),
        root_coefficients=coeffs,
        killing=killing,
        killing_dual=killing_dual,
        minus_one_in_weyl=_minus_one_in_weyl(cartan),
        killing_dual_rows=rows,
    )
    _check_counts(rs)
    return rs


def _minus_one_in_weyl(cartan: Matrix) -> bool:
    """Whether -1 lies in the Weyl group, without enumerating it.

    -1 is in W exactly when negation preserves each orbit, which the single
    regular weight mu = (1, 2, ..., r) detects: the dominant representative
    of -mu equals mu iff the duality involution is trivial iff -1 is in W.
    """
    mu = tuple(range(1, len(cartan) + 1))
    return chamber_descent(cartan, [-c for c in mu]) == mu


def _expected_counts(kind: str, rank: int) -> tuple[int, int]:
    """(number of positive roots, Weyl order) for cross-checking construction."""
    import math

    if kind == "A":
        return rank * (rank + 1) // 2, math.factorial(rank + 1)
    if kind in ("B", "C"):
        return rank * rank, 2**rank * math.factorial(rank)
    if kind == "D":
        return rank * (rank - 1), 2 ** (rank - 1) * math.factorial(rank)
    return 6, 12  # G2


def _check_counts(rs: RootSystem) -> None:
    n_exp, _ = _expected_counts(rs.kind, rs.rank)
    if rs.num_positive != n_exp:
        raise InternalError(
            f"{rs.name}: generated {rs.num_positive} positive roots, expected {n_exp}"
        )


def act(w: WeylElement, mu: Sequence[Coord]) -> tuple:
    """Apply a Weyl element to a weight (matrix times coordinate vector)."""
    mat = w.matrix
    n = len(mat)
    if len(mu) != n:
        raise DomainError(f"weight has {len(mu)} coordinates, expected {n}")
    return tuple(sum(mat[i][j] * mu[j] for j in range(n)) for i in range(n))


def highest_root(rs: RootSystem) -> tuple[int, ...]:
    """The unique maximal-height positive root, in weight coordinates."""
    best = max(range(rs.num_positive), key=lambda i: sum(rs.root_coefficients[i]))
    return rs.positive_roots[best]


def is_dominant(mu: Sequence[Coord]) -> bool:
    return all(c >= 0 for c in mu)


def chamber_descent(cartan: Matrix, mu: Sequence[Coord]) -> tuple:
    """Weyl-orbit representative in the closed dominant chamber, as a plain tuple.

    Repeatedly reflects at a negative coordinate; each step adds a positive
    multiple of a simple root, so it terminates for any input.
    """
    m = list(mu)
    rank = len(m)
    while True:
        i = next((k for k in range(rank) if m[k] < 0), None)
        if i is None:
            return tuple(m)
        mi = m[i]
        row = cartan[i]
        for j in range(rank):
            m[j] -= mi * row[j]


def dominant_orbit(cartan: Matrix, mu: Sequence[Coord]) -> dict[tuple, int]:
    """The Weyl orbit of a dominant weight as {point: sign}, sorted by point.

    Reflecting at a positive coordinate, p -> p - p_i * alpha_i, steps down
    from mu, and every orbit point is reached that way: a point other than mu
    has a negative coordinate, and reflecting there steps back up.  Each step
    flips the sign: (-1)^depth = (-1)^l(w) for w mu = point, if mu is regular.
    """
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in cartan]
    top = tuple(mu)
    sign = {top: 1}
    stack = [top]
    while stack:
        p = stack.pop()
        s = -sign[p]
        for i, pi in enumerate(p):
            if pi > 0:
                q = list(p)
                for j, a in rows[i]:
                    q[j] -= pi * a
                q = tuple(q)
                if q not in sign:
                    sign[q] = s
                    stack.append(q)
    return {p: sign[p] for p in sorted(sign)}


def dominant_representative(rs: RootSystem, mu: Sequence[Coord]) -> tuple:
    """Weyl-orbit representative in the closed dominant chamber of an int or Fraction weight."""
    return chamber_descent(rs.cartan, check_coordinates(mu, rs.rank, exact=True))
