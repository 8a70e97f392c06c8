"""Distinguished evaluations of the lucasnomials, with an independent oracle.

A coefficient is never specialized as a factorial quotient: at points like
(1, -1) individual sequence values hit zero, which would make a
specialize-then-divide scheme ill-defined.  Nor is the (s, t) polynomial
built and then evaluated.  The plain split's Pascal recursion runs at the
point itself, over the base sequence's values there, as integers or
polynomials in q: it only multiplies and adds, so it is a ring map of the
recursion and stays exact wherever the sequence vanishes.

The q-binomial point s = q + 1, t = -q is x = q, y = 1 under s = x + y,
t = -xy, so there the coefficient is the x, y form that the plain split's
packed fill (coefficients.py) already computes at x = 2^B, y = 1: its
base-2^B digits are the Gaussian binomial's coefficients, read off without
any polynomial arithmetic.
"""

from __future__ import annotations

from functools import partial
from itertools import islice

from ._record import Record
from .coefficients import _corner, _fib_digits, _plain_step
from .errors import DomainError
from .lucas import _at
from .poly import UnivariatePolynomial


class SpecializationPreset(Record):
    """A named substitution: integers for s and t, or polynomials in q."""

    __slots__ = __match_args__ = _fields = ("name", "s_sub", "t_sub")

    @property
    def is_integer_point(self) -> bool:
        return isinstance(self.s_sub, int)


FIBONOMIAL = SpecializationPreset("fibonomial", 1, 1)

QBINOMIAL = SpecializationPreset(
    "qbinomial",
    UnivariatePolynomial((1, 1)),  # q + 1
    UnivariatePolynomial((0, -1)),  # -q
)


def lnomial(ell: int) -> SpecializationPreset:
    return SpecializationPreset("lnomial", ell, -1)


def specialize(n: int, k: int, preset: SpecializationPreset):
    """Coefficient (n, k) at the preset point: an int, or a polynomial in q."""
    if not 0 <= k <= n:
        raise DomainError(f"specialize needs 0 <= k <= n, got ({n}, {k})")
    s, t = preset.s_sub, preset.t_sub
    if (s, t) == (QBINOMIAL.s_sub, QBINOMIAL.t_sub):
        return UnivariatePolynomial(_fib_digits(n, k))
    # F(0..n) at the point; cell (i, j), i + j <= n, reads F(j + 1), F(i - 1)
    fib = list(islice(_at(s, t, 0, 1), n + 1))
    one = 1 if preset.is_integer_point else UnivariatePolynomial.one()
    return _corner(partial(_plain_step, fib.__getitem__, t), n, k, one)


def gaussian_binomial_oracle(n: int, k: int) -> UnivariatePolynomial:
    """Gaussian binomial by the q-integer product formula.

    Independent of the Lucas machinery; each step divides exactly because
    every partial product is itself a Gaussian binomial.
    """
    if not 0 <= k <= n:
        raise DomainError(f"Gaussian binomial needs 0 <= k <= n, got ({n}, {k})")
    result = UnivariatePolynomial.one()
    for i in range(1, k + 1):
        numerator = UnivariatePolynomial.monomial(n - k + i) - 1
        denominator = UnivariatePolynomial.monomial(i) - 1
        result = (result * numerator).exact_div(denominator)
    return result
