"""Lucas polynomials, their companions, and factorial products.

The base sequence starts 0, 1 and obeys P(n) = s*P(n-1) + t*P(n-2); the
companion sequence obeys the same recursion from 2, s.  At s = t = 1 they
specialize to the Fibonacci and Lucas numbers.  Factorials are the running
products of the base sequence, with the empty product equal to 1.
"""

from __future__ import annotations

import threading

from .errors import DomainError
from .poly import BivariatePolynomial, ONE, S, T, TWO, ZERO
from .reports import IdentityReport, _case


def _next_lucas(seq: list[BivariatePolynomial]) -> BivariatePolynomial:
    # the recursion both Lucas sequences share; only their seeds differ
    return S * seq[-1] + T * seq[-2]


class LucasCache:
    """Grow-only memo of the three sequences; extension is lock-serialized.

    Each sequence grows alone, only as far as it is asked for: F, L and the
    factorials share nothing but the F values a factorial multiplies.
    Cached entries are immutable polynomials, so concurrent reads are safe;
    the lock only serializes appends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fib: list[BivariatePolynomial] = [ZERO, ONE]
        self._luc: list[BivariatePolynomial] = [TWO, S]
        self._fact: list[BivariatePolynomial] = [ONE, ONE]

    def _grow(self, seq: list, n: int, step) -> BivariatePolynomial:
        """seq[n], appending step(seq) under the lock until seq reaches n."""
        if n < 0:
            raise DomainError("sequence index must be nonnegative")
        if n >= len(seq):
            with self._lock:
                while len(seq) <= n:
                    seq.append(step(seq))
        return seq[n]

    def fib(self, n: int) -> BivariatePolynomial:
        return self._grow(self._fib, n, _next_lucas)

    def luc(self, n: int) -> BivariatePolynomial:
        return self._grow(self._luc, n, _next_lucas)

    def factorial(self, n: int) -> BivariatePolynomial:
        # F grows first: the lock is not re-entrant, so a step may only read
        # _fib, never call fib()
        self.fib(n)
        return self._grow(self._fact, n, lambda f: f[-1] * self._fib[len(f)])


_CACHE = LucasCache()


def lucas_F(n: int) -> BivariatePolynomial:
    """The n-th Lucas polynomial (0, 1, s, s^2+t, ...)."""
    return _CACHE.fib(n)


def lucas_L(n: int) -> BivariatePolynomial:
    """The n-th companion polynomial (2, s, s^2+2t, ...)."""
    return _CACHE.luc(n)


def lucas_factorial(n: int) -> BivariatePolynomial:
    """Product of the Lucas polynomials with indices 1..n."""
    return _CACHE.factorial(n)


def check_lemma1(m: int, n: int) -> IdentityReport:
    """Verify both index-addition identities at (m, n) exactly.

    The plain form splits F(m+n) across an interior edge; the companion form
    is checked doubled (2*F(m+n) = L(n)*F(m) + L(m)*F(n)) so everything
    stays inside integer polynomials.
    """
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
