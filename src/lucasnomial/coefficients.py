"""Lucasnomial coefficients computed by three independent routes.

The quotient route divides the top min(k, n-k) factors of F(n)! by a
factorial, which is exact because every factorial is monic in s under the
division order.

The other two run Pascal-style recursions seeded by the two index-addition
splits, over cells (i, j) standing for C(i+j, i), in the x, y basis of
s = x + y, t = -xy.  There F(j) = (x^j - y^j)/(x - y) and L(j) = x^j + y^j,
and every cell is a symmetric form in x and y whose coefficients are
nonnegative and at most binomial(i+j, i), so each cell is one Python int,
its value at x = 2^B, y = 1, with B the bit length of binomial(n, k): a
step is a few shifts and adds, plus, for the plain split, one exact division
by x - y = 2^B - 1, a divisor a few machine words long.  The companion-seeded
recursion doubles each cell, so its step is shifts and adds and one checked
halving, and its digits need one bit more than binomial(n, k).

A cell equals its mirror (j, i), so each recursion fills only the half
i <= j of its rectangle, one row at a time, keeping just the row before: a
target costs one pass over min(k, n-k) rows and nothing outlives the call.
Only the corner is converted back to s and t (_from_xy).  The quotient route
memoizes on (n, k); the recursions share only the fill loop, never a cell or
that memo, and call no Lucas polynomial or polynomial product, so
cross-route agreement is a genuine check rather than a tautology.
"""

from __future__ import annotations

import math
from functools import cache, partial

from ._record import Record
from .errors import DomainError, IndivisibleError, InternalParityError
from .lucas import lucas_F, lucas_factorial
from .poly import BivariatePolynomial, ONE, T, ZERO, _bit_width, _digits, _unpack


def _quotient(n: int, k: int) -> BivariatePolynomial:
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


# table's spot checks call _quotient, so they fill no memo
via_quotient = cache(_quotient)


def _rows(step, first, m: int, stop):
    """Rows i = 0..m of a symmetric Pascal-style recursion, row i holding the
    cells (i, i), ..., (i, stop(i)); every cell of row 0 is first, and every
    later cell is step(i, j, up, left) of its neighbours (i-1, j) and (i, j-1).

    Only the previous row is kept, and stop must not grow from row to row.
    The left neighbour of (i, i) is read as its mirror (i-1, i)."""
    row = [first] * (stop(0) + 1)
    yield row
    for i in range(1, m + 1):
        prev, left, row = row, row[1], []
        for j in range(i, stop(i) + 1):
            left = step(i, j, prev[j - i + 1], left)
            row.append(left)
        yield row


def _corner(step, n: int, k: int, one=1):
    # cell (m, rest) with m <= rest, the last of a fill whose row 0 is all ones
    m, rest = sorted((k, n - k))
    for row in _rows(step, one, m, lambda i: rest):
        pass
    return row[-1]


def _plain_step(fib, t, i, j, up, left):
    # the coefficient itself; Pascal recursion of the plain split, with
    # fib(j) the base sequence and t the second variable, in any ring
    return fib(j + 1) * up + t * fib(i - 1) * left


def _fib_step(bits, i, j, up, left):
    # the plain split times x - y, at x = 2^bits, y = 1:
    # (x - y)*C = (x^(j+1) - y^(j+1))*up + t*(x^(i-1) - y^(i-1))*left.
    # 2^bits - 1 divides each 2^(bits*q) - 1, so a remainder means the
    # shifts and subtractions below no longer pair up
    cell, rem = divmod(
        (up << bits * (j + 1)) - up - (((left << bits * (i - 1)) - left) << bits),
        (1 << bits) - 1,
    )
    if rem:
        raise IndivisibleError(f"the packed cell ({i}, {j}) is not divisible by x - y")
    return cell


def _luc_step(bits, lows, i, j, up, left):
    # twice the coefficient is L(j)*up + L(i)*left; lows has a 1 at the
    # bottom of every digit, so an odd digit shows in the doubled cell & lows
    doubled = (up << bits * j) + up + (left << bits * i) + left
    if doubled & lows:
        raise InternalParityError(f"the doubled cell ({i}, {j}) has an odd digit")
    return doubled >> 1


def _fib_digits(n: int, k: int) -> list[int]:
    # the plain split's x, y coefficients at (n, k), lowest power of x first
    bits = _bit_width(math.comb(n, k))
    return _digits(_corner(partial(_fib_step, bits), n, k), bits)


def _companion_sum(half: list[int], weight: int, bits: int) -> int:
    """The sum over r of (-t)^r*half[r]*L(weight - 2r), with L(0) read as 1,
    at s = 1 and t = 2^bits.

    By Clenshaw's recurrence b(m) = d(m) + b(m+1) + t*b(m+2), m = weight..1,
    where d(weight - 2r) is the r-th term's factor (-t)^r*half[r]: the sum
    over m >= 1 is L(1)*b(1) + t*L(0)*b(2), so no L(m) is ever formed and
    every step only shifts and adds."""

    def factor(r):
        d = half[r] << bits * r
        return -d if r % 2 else d

    b1 = b2 = 0
    for m in range(weight, 0, -1):
        b1, b2 = b1 + (b2 << bits), b1
        if (weight - m) % 2 == 0:
            b1 += factor((weight - m) // 2)
    total = b1 + (b2 << bits + 1)
    return total + factor(weight // 2) if weight % 2 == 0 else total


def _from_xy(half: list[int], weight: int) -> BivariatePolynomial:
    """The (s, t) form of the symmetric x, y form of the given weight whose
    coefficients of x^r*y^(weight-r), r = 0..weight//2, are half.

    Pairing x^r*y^(w-r) with its mirror gives (-t)^r*L(w-2r), and the middle
    monomial of an even weight is (-t)^(w/2) alone.  The sum is taken at
    s = t = 1 to size the digits, then at s = 1, t = 2^bits and unpacked, so
    the (s, t) coefficients must be nonnegative, as every lucasnomial's are."""
    if len(half) != weight // 2 + 1:
        raise ValueError(f"{len(half)} digits are not half an x, y form of weight {weight}")
    bits = _bit_width(_companion_sum(half, weight, 0))
    return _unpack(_companion_sum(half, weight, bits), weight, bits)


@cache
def via_recursion_fib(n: int, k: int) -> BivariatePolynomial:
    """Pascal-style recursion seeded by the plain index-addition split."""
    if k < 0 or k > n:
        return ZERO
    weight = k * (n - k)
    return _from_xy(_fib_digits(n, k)[: weight // 2 + 1], weight)


def via_recursion_luc(n: int, k: int) -> BivariatePolynomial:
    """Companion-seeded recursion, each doubled cell halved in its step."""
    if k < 0 or k > n:
        return ZERO
    bits = _bit_width(math.comb(n, k) << 1)
    weight = k * (n - k)
    # no cell has more than weight + 1 digits
    lows = ((1 << bits * (weight + 1)) - 1) // ((1 << bits) - 1)
    corner = _corner(partial(_luc_step, bits, lows), n, k)
    return _from_xy(_digits(corner, bits)[: weight // 2 + 1], weight)


class LucasnomialTable(Record):
    """Pascal-style triangle of coefficients through row N."""

    __slots__ = __match_args__ = _fields = ("rows",)

    @property
    def max_row(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> BivariatePolynomial:
        if not 0 <= n <= self.max_row or not 0 <= k <= n:
            raise DomainError(f"entry ({n}, {k}) outside the triangle")
        return self.rows[n][k]


def table(max_row: int) -> LucasnomialTable:
    """Full triangle through the given row, filled once by the plain split's
    recursion and spot-checked against the quotient route on one entry per
    row plus the whole last row.  The checks bypass via_quotient's memo,
    which would otherwise keep every sample, a copy of the last row among them.

    Unlike via_recursion_fib it fills in s and t, with polynomial products:
    it needs every cell in (s, t) form, and converting each packed x, y cell
    back costs more than the dense fill: at N = 60 the dense fill took
    0.62 s, a packed fill decoded cell by cell 2.5 s."""
    if max_row < 0:
        raise DomainError("row count must be nonnegative")
    # the half i <= j of the triangle i + j <= N, as rows of cells (i, j)
    step = partial(_plain_step, lucas_F, T)
    half = list(_rows(step, ONE, max_row // 2, lambda i: max_row - i))

    def cell(n: int, k: int) -> BivariatePolynomial:
        i = min(k, n - k)
        return half[i][n - 2 * i]

    rows = tuple(
        tuple(cell(n, k) for k in range(n + 1)) for n in range(max_row + 1)
    )
    for n in range(max_row + 1):
        samples = range(n + 1) if n == max_row else (n // 2,)
        for k in samples:
            if rows[n][k] != _quotient(n, k):
                raise RuntimeError(
                    f"triangle entry ({n}, {k}) disagrees with the quotient route"
                )
    return LucasnomialTable(rows)
