"""Lucasnomial coefficients computed by three independent routes.

The quotient route divides the top min(k, n-k) factors of F(n)! by a
factorial, which is exact because every factorial is monic in s under the
division order.  The other two run Pascal-style recursions seeded by the two
index-addition splits, over cells (m, rest) = (k, n-k); the companion-seeded
one is carried as 2^(m+rest) times the target so the halved companions never
appear.  The quotient route memoizes on (n, k) and each recursion on its own
(m, rest) cells, so cross-route agreement is a genuine check rather than a
tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import DomainError, IndivisibleError, InternalParityError
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


# Both recursion routes memoize on (m, rest) = (k, n - k) cells and fill the
# whole rectangle below their target lowest first, so every cell finds its two
# children cached and the recursion depth does not grow with n.
def _grid(cell, m: int, rest: int) -> BivariatePolynomial:
    for i in range(m + 1):
        for j in range(rest + 1):
            cell(i, j)
    return cell(m, rest)


@cache
def _plain(m: int, rest: int) -> BivariatePolynomial:
    # the coefficient itself; Pascal recursion of the plain split
    if m == 0 or rest == 0:
        return ONE
    return lucas_F(rest + 1) * _plain(m - 1, rest) + T * lucas_F(m - 1) * _plain(
        m, rest - 1
    )


@cache
def via_recursion_fib(n: int, k: int) -> BivariatePolynomial:
    """Pascal-style recursion seeded by the plain index-addition split."""
    if k < 0 or k > n:
        return ZERO
    return _grid(_plain, k, n - k)


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
    scaled = _grid(_doubled, k, n - k)
    try:
        return scaled.exact_div(BivariatePolynomial.const(1 << n))
    except IndivisibleError as exc:
        raise InternalParityError(
            f"the doubled coefficient ({n}, {k}) is not divisible by 2^{n}"
        ) from exc


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
