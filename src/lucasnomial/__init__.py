"""Exact arithmetic for Lucas polynomials, lucasnomial coefficients, and the
weighted tiling sums that interpret them."""

from .coefficients import (
    LucasnomialTable,
    table,
    via_quotient,
    via_recursion_fib,
    via_recursion_luc,
)
from .errors import DomainError, IndivisibleError, InternalParityError, ResourceError
from .interpretations import (
    CIRCULAR_PAIR,
    LINEAR_PAIR,
    PAIR_BUDGET,
    TilingPair,
    iter_pairs,
    predicted_pair_count,
    rhs_circular,
    rhs_linear,
    verify_recursions,
    verify_theorem,
)
from .lucas import LucasCache, check_lemma1, lucas_F, lucas_L, lucas_factorial
from .partitions import Partition, enumerate_in_rect, iter_in_rect
from .poly import BivariatePolynomial, UnivariatePolynomial
from .reports import CaseResult, IdentityReport
from .specializations import (
    FIBONOMIAL,
    QBINOMIAL,
    SpecializationPreset,
    gaussian_binomial_oracle,
    lnomial,
    specialize,
)
from .tilings import (
    CIRCULAR,
    DOMINO,
    LINEAR,
    LINEAR_NOLEAD,
    MONO,
    Tiling,
    enumerate_tilings,
    gf,
    iter_tilings,
)

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial",
    "UnivariatePolynomial",
    "DomainError",
    "IndivisibleError",
    "InternalParityError",
    "ResourceError",
    "LucasCache",
    "lucas_F",
    "lucas_L",
    "lucas_factorial",
    "check_lemma1",
    "LucasnomialTable",
    "table",
    "via_quotient",
    "via_recursion_fib",
    "via_recursion_luc",
    "Tiling",
    "enumerate_tilings",
    "iter_tilings",
    "gf",
    "MONO",
    "DOMINO",
    "LINEAR",
    "LINEAR_NOLEAD",
    "CIRCULAR",
    "Partition",
    "enumerate_in_rect",
    "iter_in_rect",
    "TilingPair",
    "LINEAR_PAIR",
    "CIRCULAR_PAIR",
    "PAIR_BUDGET",
    "iter_pairs",
    "predicted_pair_count",
    "rhs_linear",
    "rhs_circular",
    "verify_theorem",
    "verify_recursions",
    "CaseResult",
    "IdentityReport",
    "SpecializationPreset",
    "FIBONOMIAL",
    "QBINOMIAL",
    "lnomial",
    "specialize",
    "gaussian_binomial_oracle",
]
