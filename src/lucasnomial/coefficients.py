"""Lucasnomial coefficients computed by three independent routes.

The quotient route divides the top min(k, n-k) factors of F(n)! by a
factorial, which is exact because every factorial is monic in s under the
division order.  The other two run Pascal-style recursions seeded by the two
index-addition splits, over cells (i, j) standing for C(i+j, i); the
companion-seeded one is carried as 2^(i+j) times the target so the halved
companions never appear.  A cell equals its mirror (j, i), so each recursion
fills only the half i <= j of its rectangle, one row at a time, keeping just
the row before: a target (n, k) costs one pass over min(k, n-k) rows and
nothing outlives the call.  The quotient route memoizes on (n, k); the
recursions share only the fill loop, never a cell or that memo, so
cross-route agreement is a genuine check rather than a tautology.
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


def _rows(step, seed, m: int, stop):
    """Rows i = 0..m of a symmetric Pascal-style recursion, row i holding the
    cells (i, i), ..., (i, stop(i)); row 0 is seed(j), and every later cell is
    step(i, j, up, left) of its neighbours (i-1, j) and (i, j-1).

    Only the previous row is kept, and stop must not grow from row to row.
    The left neighbour of (i, i) is read as its mirror (i-1, i)."""
    row = [seed(j) for j in range(stop(0) + 1)]
    yield row
    for i in range(1, m + 1):
        prev, left, row = row, row[1], []
        for j in range(i, stop(i) + 1):
            left = step(i, j, prev[j - i + 1], left)
            row.append(left)
        yield row


def _corner(step, seed, n: int, k: int) -> BivariatePolynomial:
    # cell (m, rest) with m <= rest: the last cell of the last row
    m, rest = sorted((k, n - k))
    for row in _rows(step, seed, m, lambda i: rest):
        pass
    return row[-1]


def _plain_step(i, j, up, left):
    # the coefficient itself; Pascal recursion of the plain split
    return lucas_F(j + 1) * up + T * lucas_F(i - 1) * left


def _plain_seed(j):
    return ONE


@cache
def via_recursion_fib(n: int, k: int) -> BivariatePolynomial:
    """Pascal-style recursion seeded by the plain index-addition split."""
    if k < 0 or k > n:
        return ZERO
    return _corner(_plain_step, _plain_seed, n, k)


def _doubled_step(i, j, up, left):
    # 2^(i+j) times the coefficient; companion-weighted Pascal recursion
    return lucas_L(j) * up + lucas_L(i) * left


def _doubled_seed(j):
    return BivariatePolynomial.const(1 << j)


def via_recursion_luc(n: int, k: int) -> BivariatePolynomial:
    """Companion-seeded recursion, rescaled back down from 2^n times."""
    if k < 0 or k > n:
        return ZERO
    scaled = _corner(_doubled_step, _doubled_seed, n, k)
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
    """Full triangle through the given row, filled once by the rec-fib
    recursion and spot-checked against the quotient route on one entry per
    row plus the whole last row."""
    if max_row < 0:
        raise DomainError("row count must be nonnegative")
    # the half i <= j of the triangle i + j <= N, as rows of cells (i, j)
    half = list(_rows(_plain_step, _plain_seed, max_row // 2, lambda i: max_row - i))

    def cell(n: int, k: int) -> BivariatePolynomial:
        i = min(k, n - k)
        return half[i][n - 2 * i]

    rows = tuple(
        tuple(cell(n, k) for k in range(n + 1)) for n in range(max_row + 1)
    )
    for n in range(max_row + 1):
        samples = range(n + 1) if n == max_row else (n // 2,)
        for k in samples:
            if rows[n][k] != via_quotient(n, k):
                raise RuntimeError(
                    f"triangle entry ({n}, {k}) disagrees with the quotient route"
                )
    return LucasnomialTable(rows)
