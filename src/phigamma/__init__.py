"""Exact computer algebra for multivariable (phi, Gamma)-modules over
imperfect residue fields of characteristic p.

The package provides the tensor coefficient algebra with its idempotent
splitting, truncated multivariate Laurent arithmetic with certified
precision windows, the commuting semilinear ring operators (partial
Frobenii, Gamma- and H-twists), etale modules with relation certificates,
lattice constructions, Galois descent over Artin-Schreier and Kummer
extensions, and desk-scale versions of the module/representation functors.
"""

__version__ = "0.1.0"

from .coeff import (
    CoefficientAlgebra,
    CoeffElement,
    FiniteFieldSpec,
    IdempotentDecomposition,
    NotInvertibleError,
    ResidueFieldSpec,
    UndecidedError,
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_to_json,
    phi_orbit_transitivity,
    tensor_idempotents,
)
from .descent import (
    BudgetExceededError,
    ExtensionTower,
    FiniteExtension,
    FrobFixedSystem,
    SubwindowError,
    build_artin_schreier,
    build_kummer,
    canonical_chi,
    functor_D_rank1,
    parse_character,
    roundtrip_V_of_D,
    solve_fixed_points,
    solve_quotient_fixed_points,
    tensor_rank_one,
)
from .endos import (
    OperatorWord,
    RingEndo,
    gamma_inverse,
    identity_endo,
    make_delta,
    make_gamma,
    make_phi,
    make_phi_s,
    parse_word,
    verify_commutation,
)
from .modules import (
    Lattice,
    PhiGammaModule,
    RelationError,
    check_etale,
    check_relations,
    dplusplus_certified_lattice,
    in_dplus,
    in_dplusplus,
    module_from_json,
    module_to_json,
    rank_one_from_units,
    torsion_free_check,
    verify_val_zero,
)
from .series import (
    INF,
    LaurentElement,
    PAdicUnitApprox,
    PrecisionError,
    SeriesRingSpec,
    binomial_power,
    laurent_from_json,
    laurent_to_json,
)
