"""Exact arithmetic for Lucas polynomials, lucasnomial coefficients, and the
weighted tiling sums that interpret them.

The package namespace is lazy: each public name, and each submodule, is
imported on first access, so a CLI call loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name under its home module, in the order of __all__.
_EXPORTS = {
    "poly": ("BivariatePolynomial", "UnivariatePolynomial"),
    "errors": ("DomainError", "IndivisibleError", "InternalParityError", "ResourceError"),
    "lucas": ("LucasCache", "lucas_F", "lucas_L", "lucas_factorial", "check_lemma1"),
    "coefficients": (
        "LucasnomialTable",
        "table",
        "via_quotient",
        "via_recursion_fib",
        "via_recursion_luc",
    ),
    "tilings": (
        "Tiling",
        "enumerate_tilings",
        "iter_tilings",
        "gf",
        "MONO",
        "DOMINO",
        "LINEAR",
        "LINEAR_NOLEAD",
        "CIRCULAR",
    ),
    "partitions": ("Partition", "enumerate_in_rect", "iter_in_rect"),
    "interpretations": (
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
    ),
    "reports": ("CaseResult", "IdentityReport"),
    "specializations": (
        "SpecializationPreset",
        "FIBONOMIAL",
        "QBINOMIAL",
        "lnomial",
        "specialize",
        "gaussian_binomial_oracle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule in this namespace itself
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
