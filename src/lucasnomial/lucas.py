"""Lucas polynomials, their companions, and factorial products.

The base sequence starts 0, 1 and obeys P(n) = s*P(n-1) + t*P(n-2); the
companion sequence obeys the same recursion from 2, s.  At s = t = 1 they
specialize to the Fibonacci and Lucas numbers.  Factorials are the running
products of the base sequence, with the empty product equal to 1.

Both sequences are built from their closed forms, which count tilings:
F(n) weighs the linear tilings of n - 1 squares, so its coefficient of
s^(n-1-2j)*t^j is binomial(n-1-j, j), and L(n) weighs the circular tilings of
n, with the coefficient n/(n-j)*binomial(n-j, j).  Nothing is memoized, so
no value outlives its caller and a lookup takes no lock.  _at alone steps
the recurrence itself, at a point of any ring and from any two seeds.
"""

from __future__ import annotations

from .errors import DomainError
from .poly import BivariatePolynomial, ONE, T, TWO, ZERO, _graded


def _check_index(n: int) -> None:
    if n < 0:
        raise DomainError("sequence index must be nonnegative")


def _binomial_run(weight: int, top: int) -> list[int]:
    """c_0, ..., c_(weight//2) with c_0 = 1 and c_(j+1) = c_j*a*(a-1)/((j+1)*(top-j)),
    where a = weight - 2j is the s-power of the term c_j*s^a*t^j: the ratio of
    consecutive binomials.  top = weight gives binomial(weight-j, j), and
    top = weight - 1 gives weight/(weight-j)*binomial(weight-j, j).  Each step
    divides exactly, by small factors, where math.comb would start afresh."""
    run = [1]
    for j in range(weight // 2):
        a = weight - 2 * j
        run.append(run[-1] * a * (a - 1) // ((j + 1) * (top - j)))
    return run


def _at(s, t, first, second):
    """P(0), P(1), ... of P(n) = s*P(n-1) + t*P(n-2) from first and second."""
    while True:
        yield first
        first, second = second, s * second + t * first


def lucas_F(n: int) -> BivariatePolynomial:
    """The n-th Lucas polynomial (0, 1, s, s^2+t, ...)."""
    _check_index(n)
    return _graded(n - 1, _binomial_run(n - 1, n - 1)) if n else ZERO


def lucas_L(n: int) -> BivariatePolynomial:
    """The n-th companion polynomial (2, s, s^2+2t, ...)."""
    _check_index(n)
    return _graded(n, _binomial_run(n, n - 1)) if n else TWO


def lucas_factorial(n: int) -> BivariatePolynomial:
    """Product of the Lucas polynomials with indices 1..n."""
    _check_index(n)
    product = ONE
    for i in range(2, n + 1):
        product = product * lucas_F(i)
    return product


class LucasCache:
    """The three sequences as methods, kept as public API; it holds no state."""

    __slots__ = ()
    fib = staticmethod(lucas_F)
    luc = staticmethod(lucas_L)
    factorial = staticmethod(lucas_factorial)


def check_lemma1(m: int, n: int) -> IdentityReport:
    """Verify both index-addition identities at (m, n) exactly.

    The plain form splits F(m+n) across an interior edge; the companion form
    is checked doubled (2*F(m+n) = L(n)*F(m) + L(m)*F(n)) so everything
    stays inside integer polynomials.
    """
    # imported here, so that the sequences alone never load reports
    from .reports import IdentityReport, _case

    if m < 1:
        raise DomainError("the plain split needs m >= 1")
    if n < 0:
        raise DomainError("n must be nonnegative")
    lhs_f = lucas_F(m + n)
    rhs_f = lucas_F(n + 1) * lucas_F(m) + T * lucas_F(m - 1) * lucas_F(n)
    lhs_2f = lhs_f * 2
    rhs_2f = lucas_L(n) * lucas_F(m) + lucas_L(m) * lucas_F(n)
    cases = (
        _case(("lemma1-F", m, n), f"lemma1 F-sum m={m} n={n}", lhs_f, rhs_f),
        _case(("lemma1-2F", m, n), f"lemma1 2F-sum m={m} n={n}", lhs_2f, rhs_2f),
    )
    return IdentityReport("lemma1", f"m={m}, n={n}", cases)
