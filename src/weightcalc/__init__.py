"""Exact computational Lie theory for the classical simple compact groups.

Given a simple type (A1-A6, B2-B6, C2-C6, D3-D6, G2), a character lattice of
a maximal torus, and a dominant highest weight, this package computes -- all
in exact integer/rational arithmetic, with a brute-force reference
implementation cross-checking every analytic shortcut:

* alternating Weyl sums and their closed forms (``weylsum``),
* power sums and elementary symmetric functions of the weight multiset of an
  irreducible representation (``powersum``),
* weight multiplicities by the classical recursive formula, characters at
  order-2 torus elements, and Schur-polynomial evaluations (``oracle``),
* Chern classes restricted to the torus, Stiefel-Whitney classes of
  orthogonal representations, spinoriality certificates, and the
  factorization of the total Stiefel-Whitney class (``charclass``),
* a deterministic command-line front end with JSON output (``cli``).
"""

from .errors import DomainError, InternalError, WeightcalcError
from .polyalg import BiPoly, Mod2Poly, exact_divide, mod2_reduce
from .rootsys import (
    RootSystem,
    SUPPORTED_RANKS,
    build_root_system,
    dominant_representative,
    highest_root,
)
from .weylsum import (
    FkTable,
    fk_direct,
    fk_evaluated,
    fk_scalar,
    invariant_basis,
    q2_dual_poly,
    q2_poly,
    weyl_denominator,
)
from .powersum import (
    elementary_from_power,
    power_sums,
    product_power_sums,
    symbolic_power_sums,
    weyl_dimension,
)
from .oracle import (
    WeightMultiset,
    character_at_order2,
    oracle_elementary,
    oracle_power_sum,
    schur_at_signs,
    weight_multiplicities,
)
from .charclass import (
    CharacterLattice,
    ChernResult,
    PiSpec,
    SpinorialResult,
    SWCResult,
    builtin_lattice,
    builtin_lattice_names,
    chern2_closed,
    chern_classes,
    is_spinorial,
    lattice_contains,
    lattice_orthogonality_type,
    orthogonality_type,
    swc_restrict,
    total_swc_factorization,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "WeightcalcError",
    "DomainError",
    "InternalError",
    "BiPoly",
    "Mod2Poly",
    "exact_divide",
    "mod2_reduce",
    "RootSystem",
    "SUPPORTED_RANKS",
    "build_root_system",
    "dominant_representative",
    "highest_root",
    "FkTable",
    "fk_direct",
    "fk_evaluated",
    "fk_scalar",
    "invariant_basis",
    "q2_poly",
    "q2_dual_poly",
    "weyl_denominator",
    "power_sums",
    "symbolic_power_sums",
    "product_power_sums",
    "elementary_from_power",
    "weyl_dimension",
    "WeightMultiset",
    "weight_multiplicities",
    "character_at_order2",
    "oracle_power_sum",
    "oracle_elementary",
    "schur_at_signs",
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
