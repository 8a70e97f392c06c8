"""Monomino/domino tilings of a 1 x n strip, linear and circular.

A tiling's weight is s^(monominoes) * t^(dominoes), where a wrap-around
domino counts like any other.  Two conventions carry real content: the
empty tiling weighs 1 as a linear tiling but 2 as a circular one, and for
n = 2 the straight domino and the wrap domino are distinct circular
tilings (the companion polynomial s^2 + 2t forces both).

One generator yields each tiling as its raw (tiles, wrap) row, and one
function weighs a row.  The `tilings` listing and the enumerate tiling sum
read the rows directly: the listing renders its lines through the text
function Tiling.text uses, and each distinct weight once.  Tiling objects
are built only for the public API, by iter_tilings, and nothing keeps them.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, starmap

from ._record import Record
from .errors import DomainError
from .lucas import _at, lucas_F, lucas_L
from .poly import BivariatePolynomial, ONE, T, TWO, ZERO

MONO = "M"
DOMINO = "D"

LINEAR = "linear"
LINEAR_NOLEAD = "linear_nolead"
CIRCULAR = "circular"
KINDS = (LINEAR, LINEAR_NOLEAD, CIRCULAR)


def _check_strip(kind: str, n: int, kinds=KINDS) -> None:
    # the one check of a strip's length and then its kind
    if n < 0:
        raise DomainError("strip length must be nonnegative")
    if kind not in kinds:
        raise DomainError(f"unknown tiling kind {kind!r}")


class Tiling(Record):
    """One covering of a strip; wrap marks the circular domino, which covers
    the last and first squares, so tiles then lists only squares 2..n-1."""

    __slots__ = __match_args__ = _fields = ("kind", "tiles", "wrap")
    _defaults = (False,)

    def _check(self) -> None:
        kind, tiles, wrap = self._values()
        _check_strip(kind, 0, (LINEAR, CIRCULAR))
        if tiles.count(MONO) + tiles.count(DOMINO) != len(tiles):
            raise ValueError(f"unknown tile in {tiles!r}")
        if wrap and kind != CIRCULAR:
            raise ValueError("only circular tilings may wrap")

    @property
    def length(self) -> int:
        """Number of squares covered."""
        return len(self.tiles) + self.tiles.count(DOMINO) + 2 * self.wrap

    def weight(self) -> BivariatePolynomial:
        a, b, c = self.weight_exponents()
        return BivariatePolynomial.monomial(a, b, c)

    def weight_exponents(self) -> tuple[int, int, int]:
        """(s-power, t-power, coefficient) of the weight monomial."""
        return _exponents(self.kind == CIRCULAR, self.tiles, self.wrap)

    def text(self) -> str:
        return _tiles_text(self.tiles, self.wrap)


def _exponents(circular: bool, tiles: tuple, wrap: bool) -> tuple[int, int, int]:
    # (s-power, t-power, coefficient) of a (tiles, wrap) row's weight: the
    # empty circular tiling weighs 2, and a wrap domino counts like any other
    if circular and not (tiles or wrap):
        return 0, 0, 2
    monos = tiles.count(MONO)
    return monos, len(tiles) - monos + wrap, 1


def _tiles_text(tiles: tuple[str, ...], wrap: bool) -> str:
    # the one text form of a tiling, for Tiling.text and the listing lines
    text = " ".join(tiles)
    if wrap:
        return "(D) " + text if text else "(D)"
    return text or "(empty)"


def _tile_seqs(n: int):
    """Yield every linear tile sequence covering n squares, lexicographic
    order (a domino before a monomino), holding only the current one."""
    seq = [DOMINO] * (n // 2) + [MONO] * (n % 2)
    while True:
        yield tuple(seq)
        # the successor turns the last domino into a monomino and refills the
        # squares after it with dominoes first
        rest = 0
        while seq and seq[-1] == MONO:
            seq.pop()
            rest += 1
        if not seq:
            return
        seq[-1] = MONO
        rest += 1
        seq += [DOMINO] * (rest // 2) + [MONO] * (rest % 2)


def _rows(kind: str, n: int):
    """Yield (tiles, wrap) for each tiling of enumerate_tilings(kind, n), in
    its order, holding only the current one."""
    _check_strip(kind, n)
    if kind == LINEAR_NOLEAD:
        if n == 0:
            yield (), False
        elif n > 1:
            yield from (((DOMINO,) + rest, False) for rest in _tile_seqs(n - 2))
        return
    yield from ((seq, False) for seq in _tile_seqs(n))
    if kind == CIRCULAR and n >= 2:
        yield from ((seq, True) for seq in _tile_seqs(n - 2))


def iter_tilings(kind: str, n: int):
    """Yield the tilings of enumerate_tilings(kind, n) one at a time."""
    strip = CIRCULAR if kind == CIRCULAR else LINEAR
    for tiles, wrap in _rows(kind, n):
        yield Tiling(strip, tiles, wrap)


def _listing_lines(kind: str, n: int, weights: bool):
    """Yield the `tilings` listing lines of enumerate_tilings(kind, n): each
    tiling's text, then with weights a tab and its weight's canonical text.
    Lines come from the (tiles, wrap) rows with no Tiling built; a weight is
    rendered once per distinct exponent triple, for this call only."""
    rows = _rows(kind, n)
    if not weights:
        yield from starmap(_tiles_text, rows)
        return
    circular = kind == CIRCULAR
    weight = cache(lambda *e: BivariatePolynomial.monomial(*e).canonical_text())
    for row in rows:
        yield _tiles_text(*row) + "\t" + weight(*_exponents(circular, *row))


_SEEDS = {LINEAR: (1, 1), LINEAR_NOLEAD: (1, 0), CIRCULAR: (2, 1)}


def _count(kind: str, n: int, cap: int | None = None) -> int:
    """Tiling count without materializing; matches enumerate_tilings.  It is
    gf(kind, n) at s = t = 1, walked from the kind's seed pair, but 1 for the
    empty circular tiling.  Given a cap, the walk stops at the first length
    x >= 1 whose count passes cap, since no longer strip has fewer tilings."""
    _check_strip(kind, n)
    for x, count in enumerate(islice(_at(1, 1, *_SEEDS[kind]), n + 1)):
        if cap is not None and x and count > cap:
            break
    return count if n else 1


def enumerate_tilings(kind: str, n: int) -> list[Tiling]:
    """Every tiling of a 1 x n strip, deterministically ordered.

    Order is lexicographic over tile sequences; circular tilings list the
    non-wrapping ones first.  linear_nolead drops tilings that begin with a
    monomino, which leaves nothing at n = 1 and only the empty tiling at
    n = 0.  iter_tilings yields the same tilings without the list.
    """
    return list(iter_tilings(kind, n))


def gf(kind: str, n: int) -> BivariatePolynomial:
    """Closed form for the total weight over enumerate_tilings(kind, n)."""
    _check_strip(kind, n)
    if kind == LINEAR:
        return lucas_F(n + 1)
    if kind == LINEAR_NOLEAD:
        if n == 0:
            return ONE
        if n == 1:
            return ZERO
        return T * lucas_F(n - 1)
    return TWO if n == 0 else lucas_L(n)


def _gf_values(kind: str, top: int, t: int) -> list[int]:
    """gf(kind, x) at s = 1 and the integer t for x = 0..top, walked from the
    seed pair gf(kind, 0), gf(kind, 1): linear 1, 1; linear_nolead 1, 0;
    circular 2, 1.  No polynomial is built."""
    _check_strip(kind, top)
    return list(islice(_at(1, t, *_SEEDS[kind]), top + 1))
