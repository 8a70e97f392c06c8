"""Integer partitions inside a fixed rectangle, with complements.

Parts lists keep their zeros: a partition in an m x n rectangle always has
exactly m parts, because empty rows and columns carry real weight in the
circular tiling sums.

The walk over parts tuples, the complement and the text form are functions
of plain tuples, and Partition calls them; the `partitions` listing and the
enumerate tiling sum call them directly and build no Partition.
"""

from __future__ import annotations

from ._record import Record
from .errors import DomainError


class Partition(Record):
    __slots__ = __match_args__ = _fields = ("parts", "cols")

    def _check(self) -> None:
        parts, cols = self._values()
        if cols < 0:
            raise ValueError("column bound must be nonnegative")
        prev = cols
        for p in parts:
            if not 0 <= p <= prev:
                raise ValueError(
                    f"parts must be weakly decreasing within [0, {cols}]: {parts!r}"
                )
            prev = p

    @property
    def rows(self) -> int:
        return len(self.parts)

    def size(self) -> int:
        """Number of cells."""
        return sum(self.parts)

    def complement(self) -> Partition:
        """Column lengths of the rectangle region not covered, largest first.

        Lives in the transposed rectangle: n parts, each at most m.
        """
        return Partition(_complement(self.parts, self.cols), self.rows)

    def text(self) -> str:
        return _parts_text(self.parts)


def _complement(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The complement's parts of a partition with these parts in m x n: for
    each column c from n down to 1, the number of parts below c."""
    m = len(parts)
    # one walk: as the column threshold c falls from n to 1, `above` only
    # grows, counting the parts that reach column c
    comp, above = [], 0
    for c in range(n, 0, -1):
        while above < m and parts[above] >= c:
            above += 1
        comp.append(m - above)
    return tuple(comp)


def _parts_text(parts: tuple[int, ...], numeral=str) -> str:
    # the one text form of a parts list, for Partition.text and the listing;
    # numeral turns a part into its text
    return "[" + ",".join(map(numeral, parts)) + "]"


def _part_tuples(length: int, bound: int):
    # ascending lexicographic: all-zeros first, full row of `bound` last.  The
    # successor raises the rightmost part still below its left neighbour (or
    # below `bound` for the first part) and zeroes every part after it.
    parts = [0] * length
    while True:
        yield tuple(parts)
        i = length - 1
        while i >= 0 and parts[i] == (parts[i - 1] if i else bound):
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        parts[i + 1:] = [0] * (length - 1 - i)


def iter_in_rect(m: int, n: int):
    """Yield the partitions of enumerate_in_rect(m, n) one at a time."""
    if m < 0 or n < 0:
        raise DomainError("rectangle dimensions must be nonnegative")
    for parts in _part_tuples(m, n):
        yield Partition(parts, n)


def _listing_lines(m: int, n: int, complement: bool):
    """Yield the `partitions` listing lines of enumerate_in_rect(m, n): each
    partition's text, then with complement a tab and its complement's text.
    Lines come from the parts tuples with no Partition built."""
    if m < 0 or n < 0:
        raise DomainError("rectangle dimensions must be nonnegative")
    # every part on either side is at most max(m, n), so the listing turns
    # each numeral into text once and then looks it up
    numeral = tuple(map(str, range(max(m, n) + 1))).__getitem__
    for parts in _part_tuples(m, n):
        line = _parts_text(parts, numeral)
        if complement:
            line += "\t" + _parts_text(_complement(parts, n), numeral)
        yield line


def _count_in_rect(m: int, n: int, cap: int) -> int:
    """binomial(m + n, m), the length of iter_in_rect(m, n), built one factor
    at a time; it stops once it passes cap and returns some value above it."""
    count, big = 1, max(m, n)
    for i in range(1, min(m, n) + 1):
        count = count * (big + i) // i
        if count > cap:
            break
    return count


def enumerate_in_rect(m: int, n: int) -> list[Partition]:
    """All partitions with m parts each at most n, smallest tuple first."""
    return list(iter_in_rect(m, n))
