"""Exact arithmetic for Lipschitz and Hurwitz integer quaternions.

The package keeps every quaternion in doubled integer coordinates, so
all results are exact: multiplication, norms, one-sided Euclidean
division and gcds, generalized cross products, orthogonal lattices of
quaternions, four-square decompositions, and the experiments measuring
how often random quaternion pairs betray a factor of a semiprime norm.

Hot loops run in one pure-Python kernel on plain integer tuples.
"""

from quatlat.core import (
    GaussianInteger,
    HurwitzQuaternion,
    I,
    J,
    K,
    OMEGA,
    ONE,
    UNITS,
    ZERO,
    associates,
    canonical_associate,
    content,
    embed_gaussian_pair,
    inner_product,
    is_associate,
    is_primitive,
    is_primitive_mod,
    units,
)
from quatlat.cross import (
    RationalQuaternion,
    cross3,
    cross_general,
    det_int,
    expanded_norm,
    gram_norm,
    triple_scalar,
)
from quatlat.errors import (
    BadResidueClass,
    BothZero,
    BoundExceeded,
    DimensionMismatch,
    DivisionByZero,
    EvenNorm,
    MixedParity,
    ModelMismatch,
    NotLipschitz,
    NotPrimitive,
    NotRepresentable,
    ParseError,
    PreconditionViolated,
    QuatlatError,
    ZeroInput,
)
from quatlat.euclid import (
    DivisionResult,
    GcdResult,
    cofactor,
    divide,
    gaussian_gcd,
    gcd,
    is_multiple,
)
from quatlat.factor import (
    FactorAttemptReport,
    IgamaResult,
    ModelledFactorization,
    OrthogonalPrimesReport,
    OuterFactorRecovery,
    PairFractionReport,
    PallReport,
    PrimeModel,
    factor_modelled,
    four_squares,
    igama_check,
    miller_rabin,
    orthogonal_primes_check,
    outer_factor_recovery,
    pall_right_divisors,
    rational_factorize,
    semiprime_factor_attempt,
    semiprime_pair_fraction,
    sqrt_minus_one_mod_p,
    two_squares,
    unit_migration_equal,
)
from quatlat.lattice import (
    DEFAULT_ENUM_BOUND,
    OrthogonalBasis,
    in_orthogonal_lattice,
    orthogonal_basis,
    orthogonality_census,
    representation_count,
    representations,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the arithmetic kernel; there is only the pure one."""
    return "pure"


__all__ = [
    "__version__",
    "kernel_backend",
    # core
    "HurwitzQuaternion",
    "GaussianInteger",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "OMEGA",
    "UNITS",
    "units",
    "inner_product",
    "is_associate",
    "associates",
    "canonical_associate",
    "content",
    "is_primitive",
    "is_primitive_mod",
    "embed_gaussian_pair",
    # euclid
    "DivisionResult",
    "GcdResult",
    "divide",
    "gcd",
    "cofactor",
    "is_multiple",
    "gaussian_gcd",
    # cross
    "RationalQuaternion",
    "cross3",
    "cross_general",
    "det_int",
    "triple_scalar",
    "gram_norm",
    "expanded_norm",
    # lattice
    "OrthogonalBasis",
    "orthogonal_basis",
    "in_orthogonal_lattice",
    "orthogonality_census",
    "representations",
    "representation_count",
    "DEFAULT_ENUM_BOUND",
    # factor
    "miller_rabin",
    "sqrt_minus_one_mod_p",
    "two_squares",
    "four_squares",
    "rational_factorize",
    "PrimeModel",
    "ModelledFactorization",
    "factor_modelled",
    "unit_migration_equal",
    "PallReport",
    "pall_right_divisors",
    "IgamaResult",
    "igama_check",
    "OuterFactorRecovery",
    "outer_factor_recovery",
    "PairFractionReport",
    "semiprime_pair_fraction",
    "FactorAttemptReport",
    "semiprime_factor_attempt",
    "OrthogonalPrimesReport",
    "orthogonal_primes_check",
    # errors
    "QuatlatError",
    "MixedParity",
    "ZeroInput",
    "NotLipschitz",
    "DivisionByZero",
    "BothZero",
    "NotPrimitive",
    "BoundExceeded",
    "BadResidueClass",
    "NotRepresentable",
    "ModelMismatch",
    "PreconditionViolated",
    "EvenNorm",
    "DimensionMismatch",
    "ParseError",
]
