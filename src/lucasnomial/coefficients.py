"""Lucasnomial coefficients computed by three independent routes.

The quotient route divides the top min(k, n-k) factors of F(n)! by a
factorial, which is exact because every factorial is monic in s under the
division order.  The other
two run Pascal-style recursions seeded by the two index-addition splits;
the companion-seeded one is carried as 2^(m+n) times the target so the
halved companions never appear.  Each route memoizes on (n, k) separately,
so cross-route agreement is a genuine check rather than a tautology.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache

from .errors import DomainError, InternalParityError
from .lucas import lucas_F, lucas_L, lucas_factorial
from .poly import BivariatePolynomial, ONE, T, ZERO


@cache
def via_quotient(n: int, k: int) -> BivariatePolynomial:
    """Factorial quotient; 0 outside 0 <= k <= n.

    With j = min(k, n - k), F(n)!/F(n-j)! cancels to the j top factors, so
    only F(j)! is divided out and F(n)! is never built."""
    if k < 0 or k > n:
        return ZERO
    j = min(k, n - k)
    top = ONE
    for i in range(n - j + 1, n + 1):
        top = top * lucas_F(i)
    return top.exact_div(lucas_factorial(j))


# Each recursion route first fills its memo from the lowest row up, so every
# call finds its children cached and the recursion depth does not grow with n.
# Set while a thread fills the fib memo, so the calls of that fill do not
# start fills of their own; per thread, so other callers still fill theirs.
_filling = threading.local()
# The nontrivial keys via_recursion_fib has memoized, so a fill stops at them.
_fib_done: set[tuple[int, int]] = set()


@cache
def via_recursion_fib(n: int, k: int) -> BivariatePolynomial:
    """Pascal-style recursion seeded by the plain index-addition split."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    if not getattr(_filling, "active", False):
        _filling.active = True
        try:
            for key in _fib_keys_upward(n, k):
                via_recursion_fib(*key)
        finally:
            _filling.active = False
    m, rest = k, n - k
    value = lucas_F(rest + 1) * via_recursion_fib(n - 1, k - 1) + T * lucas_F(
        m - 1
    ) * via_recursion_fib(n - 1, rest - 1)
    _fib_done.add((n, k))
    return value


def _fib_keys_upward(n: int, k: int) -> list[tuple[int, int]]:
    # the nontrivial keys via_recursion_fib(n, k) reaches below row n and has
    # not yet memoized, lowest row first; empty when both children are
    keys: list[tuple[int, int]] = []
    row = {k}
    for r in range(n, 1, -1):
        row = {
            j
            for i in row
            for j in (i - 1, r - i - 1)
            if 0 < j < r - 1 and (r - 1, j) not in _fib_done
        }
        if not row:
            break
        keys.extend((r - 1, j) for j in sorted(row))
    keys.reverse()
    return keys


@cache
def _doubled(m: int, rest: int) -> BivariatePolynomial:
    # 2^(m+rest) times the coefficient; companion-weighted Pascal recursion
    if m == 0 or rest == 0:
        return BivariatePolynomial.const(1 << (m + rest))
    return lucas_L(rest) * _doubled(m - 1, rest) + lucas_L(m) * _doubled(m, rest - 1)


def via_recursion_luc(n: int, k: int) -> BivariatePolynomial:
    """Companion-seeded recursion, rescaled back down from 2^n times."""
    if k < 0 or k > n:
        return ZERO
    for m in range(k + 1):
        for rest in range(n - k + 1):
            _doubled(m, rest)
    scaled = _doubled(k, n - k)
    scale = 1 << n
    terms = {}
    for a, b, c in scaled.terms():
        if c % scale:
            raise InternalParityError(
                f"coefficient {c} of s^{a}*t^{b} is not divisible by 2^{n}"
            )
        terms[(a, b)] = c // scale
    return BivariatePolynomial(terms)


@dataclass(frozen=True)
class LucasnomialTable:
    """Pascal-style triangle of coefficients through row N."""

    rows: tuple[tuple[BivariatePolynomial, ...], ...]

    @property
    def max_row(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> BivariatePolynomial:
        if not 0 <= n <= self.max_row or not 0 <= k <= n:
            raise DomainError(f"entry ({n}, {k}) outside the triangle")
        return self.rows[n][k]


def table(max_row: int) -> LucasnomialTable:
    """Full triangle through the given row, spot-checked against the quotient
    route on one entry per row plus the whole last row."""
    if max_row < 0:
        raise DomainError("row count must be nonnegative")
    rows = tuple(
        tuple(via_recursion_fib(n, k) for k in range(n + 1))
        for n in range(max_row + 1)
    )
    for n in range(max_row + 1):
        samples = range(n + 1) if n == max_row else (n // 2,)
        for k in samples:
            if rows[n][k] != via_quotient(n, k):
                raise RuntimeError(
                    f"triangle entry ({n}, {k}) disagrees with the quotient route"
                )
    return LucasnomialTable(rows)
