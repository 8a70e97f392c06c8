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
from .reports import CaseResult, IdentityReport


class LucasCache:
    """Grow-only memo of the three sequences; extension is lock-serialized.

    The two Lucas sequences grow together; factorials grow separately, only
    as far as factorial() is asked for.  Cached entries are immutable
    polynomials, so concurrent reads are safe; the lock only serializes
    appends.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fib: list[BivariatePolynomial] = [ZERO, ONE]
        self._luc: list[BivariatePolynomial] = [TWO, S]
        self._fact: list[BivariatePolynomial] = [ONE, ONE]

    def _extend(self, n: int) -> None:
        with self._lock:
            while len(self._fib) <= n:
                k = len(self._fib)
                self._fib.append(S * self._fib[k - 1] + T * self._fib[k - 2])
                self._luc.append(S * self._luc[k - 1] + T * self._luc[k - 2])

    def fib(self, n: int) -> BivariatePolynomial:
        if n < 0:
            raise DomainError("sequence index must be nonnegative")
        if n >= len(self._fib):
            self._extend(n)
        return self._fib[n]

    def luc(self, n: int) -> BivariatePolynomial:
        if n < 0:
            raise DomainError("sequence index must be nonnegative")
        if n >= len(self._luc):
            self._extend(n)
        return self._luc[n]

    def factorial(self, n: int) -> BivariatePolynomial:
        if n < 0:
            raise DomainError("sequence index must be nonnegative")
        if n >= len(self._fact):
            # factorials grow only on demand: the big products are paid for
            # by callers that need them, not by every sequence lookup
            self.fib(n)
            with self._lock:
                while len(self._fact) <= n:
                    k = len(self._fact)
                    self._fact.append(self._fact[k - 1] * self._fib[k])
        return self._fact[n]


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
        CaseResult(
            key=("lemma1-F", m, n),
            label=f"lemma1 F-sum m={m} n={n}",
            passed=lhs_f == rhs_f,
            lhs=lhs_f,
            rhs=rhs_f,
        ),
        CaseResult(
            key=("lemma1-2F", m, n),
            label=f"lemma1 2F-sum m={m} n={n}",
            passed=lhs_2f == rhs_2f,
            lhs=lhs_2f,
            rhs=rhs_2f,
        ),
    )
    return IdentityReport("lemma1", f"m={m}, n={n}", cases)
