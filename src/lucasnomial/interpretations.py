"""The two tiling-sum interpretations of the lucasnomials, and verifiers.

Both interpretations sum over partitions inside an m x n rectangle, tiling
the rows of the partition and the columns of its complement.  The linear
flavor forbids column tilings from starting with a monomino (at the end
touching the partition boundary) and reproduces the coefficient itself; the
circular flavor allows wrap dominoes everywhere, gives every empty part the
weight-2 empty tiling, and reproduces 2^(m+n) times the coefficient.

Each sum can be evaluated two ways: `enumerate` visits every tiling pair,
`gf` multiplies per-part closed forms.  Enumeration is refused above a
configurable predicted-pair budget.

The enumerate sum builds no TilingPair, Partition or Tiling: it walks the
parts tuples of the partitions and their complements' parts.  Each distinct
row or column pool is read from tilings._rows once per sum, checked by the
rule TilingPair applies, and coded as one integer per tiling, with exponent
fields wide enough that adding m + n codes never carries; no pool outlives
the sum.  Each pair is the sum of one code from each of its partition's
lists, every pair is visited once, and pairs are counted by code.  It is
never collapsed into a product of per-pool sums, which would restate the gf
closed forms.  iter_pairs still lists the pair objects, and the tests check
the sum against them.

The gf sum walks each partition as its boundary lattice path from (0, 0) to
(n, m), depth first.  At column x with h rows placed, an up step places a row
of length x and a right step closes a complement column of length exactly h,
so each step contributes one closed form and no partition is built.  Sibling
paths share the product of their common prefix; a zero factor (the linear
flavor's column of length 1) prunes its subtree, and once a path reaches the
top or right edge its remaining steps are one precomputed power.  Every
partition with a nonzero product is still its own leaf: the walk has no memo
on (x, h).  Such a memo is the lattice-path recursion; splitting on "first
row full, or last column empty" gives
W(m, n) = F(n+1)*W(m-1, n) + t*F(m-1)*W(m, n-1), which is exactly
via_recursion_fib, and the theorem check would become that route checking
itself.  Counting pairs for the budget and sizing the digits below have no
such concern, so both run that recursion over integers (_path_total).

The walk runs in the integers.  Every closed form is weight-homogeneous
with nonnegative coefficients, so the walk needs it only as its value at
s = 1, t = 2^B (Kronecker substitution), and each step is one integer
product.  Each case evaluates its closed forms at that point straight from
their recurrence P(j) = s*P(j-1) + t*P(j-2) (tilings._gf_values): it builds
no polynomial and keeps no table across cases.  The sum has weight m*n, so
its value there, read as base-2^B digits, gives back every coefficient,
provided each is below 2^B.  B is the bit length of the sum's value at
s = t = 1, which no coefficient exceeds since none is negative; that value
is the lattice-path total of the closed forms' values at s = t = 1, from the
same recurrence.  It only sizes the digits: the decoded sum is still
compared with the quotient route, which shares no Lucas polynomial with the
walk.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import product

from ._record import Record
from .coefficients import via_quotient
from .errors import PAIR_BUDGET, DomainError, ResourceError
from .lucas import check_lemma1, lucas_F, lucas_L
from .partitions import _complement, _part_tuples, iter_in_rect
from .poly import BivariatePolynomial, T, _bit_width, _power, _unpack
from .reports import CaseResult, IdentityReport, _case
from .tilings import (
    CIRCULAR,
    LINEAR,
    LINEAR_NOLEAD,
    MONO,
    _count,
    _exponents,
    _gf_values,
    _rows,
    enumerate_tilings,
)

LINEAR_PAIR = "linear_pair"
CIRCULAR_PAIR = "circular_pair"

# per pair flavor, in case order: its name in labels and options, its row and
# column tiling kinds, and whether its sum is 2^(m+n) times the coefficient
_PAIRS = {
    LINEAR_PAIR: ("linear", LINEAR, LINEAR_NOLEAD, False),
    CIRCULAR_PAIR: ("circular", CIRCULAR, CIRCULAR, True),
}


class TilingPair(Record):
    """One tiling per row of a partition plus one per column of its
    complement."""

    __match_args__ = _fields = ("row_tilings", "col_tilings", "flavor")
    __slots__ = (*_fields, "_exponents")

    def _check(self) -> None:
        row_tilings, col_tilings, flavor = self._values()
        if flavor not in _PAIRS:
            raise ValueError(f"unknown flavor {flavor!r}")
        row_kind, col_kind = _PAIRS[flavor][1:3]
        # checked and weighed in one pass, each tiling's kind and then its row
        # against its pool's kind; a slot, not a field, so equality, hashing
        # and repr see only the tilings and the flavor
        a = b = 0
        c = 1
        for tilings, kind in ((row_tilings, row_kind), (col_tilings, col_kind)):
            for t in tilings:
                if t.kind != row_kind:
                    raise ValueError(f"{flavor} pair holds a {t.kind} tiling")
                [(ta, tb, tc)] = _checked_exponents([(t.tiles, t.wrap)], kind)
                a += ta
                b += tb
                c *= tc
        object.__setattr__(self, "_exponents", (a, b, c))

    def weight(self) -> BivariatePolynomial:
        a, b, c = self.weight_exponents()
        return BivariatePolynomial.monomial(a, b, c)

    def weight_exponents(self) -> tuple[int, int, int]:
        return self._exponents


def _checked_exponents(rows, kind: str):
    """Yield the weight exponents of each (tiles, wrap) row of a pool of this
    kind, once the row is checked to fit the pool: only a circular pool holds
    a wrap row, and a linear_nolead row, a linear pair's column, does not
    begin with a monomino."""
    circular = kind == CIRCULAR
    for tiles, wrap in rows:
        if wrap and not circular:
            # only the linear pair has linear pools
            raise ValueError("linear_pair pair holds a circular tiling")
        if kind == LINEAR_NOLEAD and tiles and tiles[0] == MONO:
            raise ValueError("column tilings must not begin with a monomino")
        yield _exponents(circular, tiles, wrap)


def _pair_kinds(flavor: str) -> tuple[str, str]:
    if flavor not in _PAIRS:
        raise DomainError(f"unknown flavor {flavor!r}")
    return _PAIRS[flavor][1:3]


def _path_total(rows: list[int], cols: list[int]) -> int:
    """Total weight of the lattice paths from (0, 0) to (len(rows) - 1,
    len(cols) - 1), in O(mn) integer steps: an up step at column x weighs
    rows[x], a right step at height h weighs cols[h], and ways[h] holds the
    total of the paths to (x, h)."""
    m = len(cols) - 1
    ways = [1] + [0] * m
    for x, row in enumerate(rows):
        if x:
            ways = [w * c for w, c in zip(ways, cols)]
        for h in range(1, m + 1):
            ways[h] += ways[h - 1] * row
    return ways[m]


def predicted_pair_count(m: int, n: int, flavor: str) -> int:
    """Number of (partition, pair) objects enumeration would produce: the
    lattice-path total with each row of length x weighing its number of row
    tilings, and each column of length h its number of column tilings."""
    if m < 0 or n < 0:
        raise DomainError("rectangle dimensions must be nonnegative")
    row_kind, col_kind = _pair_kinds(flavor)
    if m == 0 or n == 0:
        # one partition, and every part and complement column has length 0
        return 1
    rows = [_count(row_kind, x) for x in range(n + 1)]
    return _path_total(rows, [_count(col_kind, h) for h in range(m + 1)])


def iter_pairs(m: int, n: int, flavor: str):
    """Yield every (partition, TilingPair) object, deterministically ordered."""
    row_kind, col_kind = _pair_kinds(flavor)
    # each distinct pool is listed once, for this call only
    pool = cache(enumerate_tilings)
    for part in iter_in_rect(m, n):
        pools = [pool(row_kind, p) for p in part.parts]
        pools += [pool(col_kind, p) for p in part.complement().parts]
        for combo in product(*pools):
            yield part, TilingPair(combo[:m], combo[m:], flavor)


def _gf_sum(m: int, n: int, flavor: str) -> BivariatePolynomial:
    row_kind, col_kind = _pair_kinds(flavor)
    # no coefficient is negative, so none exceeds the sum's value at s = t = 1
    bits = _bit_width(
        _path_total(_gf_values(row_kind, n, 1), _gf_values(col_kind, m, 1))
    )
    # depth-first over boundary paths; a stack entry is (x, h, prefix product)
    # an edge case reads one form only: m = 0 the column form of length 0,
    # n = 0 the row form of length 0, so the other list is never built
    ups = _gf_values(row_kind, n, 1 << bits) if m else []
    rights = _gf_values(col_kind, m, 1 << bits) if n or not m else []
    # the forced tails: right steps at height m, up steps at column n
    right_tail, up_tail = [1], [1]
    acc = 0
    stack = [(0, 0, 1)]
    while stack:
        x, h, prefix = stack.pop()
        if h == m or x == n:
            tail = (
                _power(rights[m], n - x, right_tail)
                if h == m
                else _power(ups[n], m - h, up_tail)
            )
            if tail:
                acc = acc + prefix * tail
            continue
        if rights[h]:
            stack.append((x + 1, h, prefix * rights[h]))
        stack.append((x, h + 1, prefix * ups[x]))
    return _unpack(acc, m * n, bits)


def _code_width(m: int, n: int) -> int:
    """Bits per exponent field of a pair code.  A pair's s-power counts
    monominoes and its t-power dominoes, so neither exceeds m*n, and a field
    this wide holds either sum without carrying into the next."""
    return (m * n).bit_length() + 1


def _pool_codes(kind: str, x: int, width: int) -> list[int]:
    # a tiling's weight s^a t^b c, with c 1 or 2, packed as one integer so
    # that a pair's code is the sum of its tilings' codes
    return [
        a + (b << width) + ((c == 2) << 2 * width)
        for a, b, c in _checked_exponents(_rows(kind, x), kind)
    ]


def _code_counts(m: int, n: int, flavor: str, width: int) -> Counter:
    """How many tiling pairs have each packed weight code, visiting every
    pair of every partition once; the counts total the number of pairs."""
    row_kind, col_kind = _pair_kinds(flavor)
    # each distinct row or column pool is checked and coded once, on first
    # use, and kept for this call only
    rows = cache(lambda x: _pool_codes(row_kind, x, width))
    cols = cache(lambda h: _pool_codes(col_kind, h, width))
    counts: Counter = Counter()
    for parts in _part_tuples(m, n):
        pools = [*map(rows, parts), *map(cols, _complement(parts, n))]
        counts.update(map(sum, product(*pools)))
    return counts


def _enumerate_sum(m: int, n: int, flavor: str) -> BivariatePolynomial:
    width = _code_width(m, n)
    mask = (1 << width) - 1
    acc: dict[tuple[int, int], int] = {}
    for code, count in _code_counts(m, n, flavor, width).items():
        # the top field counts the pair's weight-2 tilings
        key = (code & mask, (code >> width) & mask)
        acc[key] = acc.get(key, 0) + (count << (code >> 2 * width))
    return BivariatePolynomial(acc)


def _check_budget(m: int, n: int, flavor: str, budget: int) -> None:
    predicted = predicted_pair_count(m, n, flavor)
    if predicted > budget:
        raise ResourceError(
            f"enumeration of ({m}, {n}) {flavor} predicts {predicted} tiling "
            f"pairs, over the budget of {budget}; use gf mode"
        )


def _rhs(m: int, n: int, flavor: str, mode: str, budget: int) -> BivariatePolynomial:
    if m < 0 or n < 0:
        raise DomainError("rectangle dimensions must be nonnegative")
    if mode == "gf":
        return _gf_sum(m, n, flavor)
    if mode == "enumerate":
        _check_budget(m, n, flavor, budget)
        return _enumerate_sum(m, n, flavor)
    raise DomainError(f"unknown mode {mode!r}")


def rhs_linear(
    m: int, n: int, mode: str = "gf", budget: int = PAIR_BUDGET
) -> BivariatePolynomial:
    """Total weight of linear pairs over all partitions in m x n."""
    return _rhs(m, n, LINEAR_PAIR, mode, budget)


def rhs_circular(
    m: int, n: int, mode: str = "gf", budget: int = PAIR_BUDGET
) -> BivariatePolynomial:
    """Total weight of circular pairs over all partitions in m x n."""
    return _rhs(m, n, CIRCULAR_PAIR, mode, budget)


def _pair_flavors(flavor: str) -> tuple[str, ...]:
    # the pair flavors a flavor option checks, in case order
    chosen = tuple(f for f, (name, *_) in _PAIRS.items() if flavor in (name, "both"))
    if not chosen:
        raise DomainError(f"unknown flavor {flavor!r}")
    return chosen


def theorem_cases(
    m: int,
    n: int,
    flavor: str = "both",
    mode: str = "gf",
    budget: int = PAIR_BUDGET,
) -> list[CaseResult]:
    """Compare the tiling sums at one (m, n) against the quotient route."""
    pair_flavors = _pair_flavors(flavor)
    expected = via_quotient(m + n, m)
    out = []
    for pair_flavor in pair_flavors:
        name, _, _, circular = _PAIRS[pair_flavor]
        lhs = expected * (1 << (m + n)) if circular else expected
        rhs_fn = rhs_circular if circular else rhs_linear
        rhs = rhs_fn(m, n, mode, budget)
        label = f"theorem {name} m={m} n={n} mode={mode}"
        out.append(_case((name, m, n), label, lhs, rhs))
    return out


# A grid helper returns the grid's range text and a generator of its cases in
# order, so that a caller can report each case as it finishes.


def _check_bounds(*bounds: int) -> None:
    if min(bounds) < 0:
        raise DomainError("grid bounds must be nonnegative")


def _check_nonempty(m_max: int, rng: str) -> None:
    # m runs over 1..m_max, so the grid is empty exactly when m_max < 1; a
    # grid that checks nothing must not report success
    if m_max < 1:
        raise DomainError(f"the grid {rng} has no cases")


def _rect(m_min: int, m_max: int, n_max: int):
    # a rectangle's cells, m first, generated one at a time and never stored
    return ((m, n) for m in range(m_min, m_max + 1) for n in range(n_max + 1))


def _theorem_grid(m_max: int, n_max: int, flavor: str, mode: str, budget: int):
    """Cases run m first, then n, then linear before circular.  The first
    over-budget case of an enumerate grid is refused before any case runs."""
    pair_flavors = _pair_flavors(flavor)
    _check_bounds(m_max, n_max)
    if mode == "enumerate":
        # an edge cell (m or n = 0) holds exactly one pair, so it is over the
        # budget only when the first cell, (0, 0), already is; past that
        # only the interior is priced, and a long edge is never walked
        interior = ((m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1))
        for m, n in [(0, 0)] if budget < 1 else interior:
            for pair_flavor in pair_flavors:
                _check_budget(m, n, pair_flavor, budget)
    cases = (
        c
        for m, n in _rect(0, m_max, n_max)
        for c in theorem_cases(m, n, flavor, mode, budget)
    )
    return f"0<=m<={m_max}, 0<=n<={n_max}, flavor={flavor}, mode={mode}", cases


def verify_theorem(
    m_max: int,
    n_max: int,
    flavor: str = "both",
    mode: str = "gf",
    budget: int = PAIR_BUDGET,
) -> IdentityReport:
    """Check both interpretations on the whole (m, n) grid; failures are
    recorded in the report, never raised.  An enumerate-mode grid with a case
    over the budget is refused before any case runs."""
    rng, cases = _theorem_grid(m_max, n_max, flavor, mode, budget)
    return IdentityReport("theorem", rng, tuple(cases))


def recursion_cases(m: int, n: int) -> list[CaseResult]:
    """Both Pascal-style splits at one (m, n) with m, n >= 1, expanded via the
    quotient route so the check is independent of the recursion memos."""
    if m < 1 or n < 1:
        raise DomainError("the coefficient splits need m, n >= 1")
    total = m + n
    lhs = via_quotient(total, m)
    upper_left = via_quotient(total - 1, m - 1)
    upper_right = via_quotient(total - 1, n - 1)
    rhs_fib = lucas_F(n + 1) * upper_left + T * lucas_F(m - 1) * upper_right
    rhs_luc = lucas_L(n) * upper_left + lucas_L(m) * upper_right
    return [
        _case(("rec-fib", m, n), f"rec-fib m={m} n={n}", lhs, rhs_fib),
        _case(("rec-luc", m, n), f"rec-luc doubled m={m} n={n}", lhs * 2, rhs_luc),
    ]


def recursion_task_cases(m: int, n: int) -> list[CaseResult]:
    """All recursion and index-addition cases at one (m, n) with m >= 1 and
    n >= 0; the coefficient splits join in once n >= 1."""
    if m < 1 or n < 0:
        raise DomainError("the recursion cases need m >= 1 and n >= 0")
    out = recursion_cases(m, n) if n >= 1 else []
    return out + list(check_lemma1(m, n).cases)


def _recursion_grid(total_max: int):
    """The recursion and index-addition cases for every admissible (m, n)
    with m + n <= total_max, m first."""
    _check_bounds(total_max)
    rng = f"m>=1, n>=0, m+n<={total_max}"
    _check_nonempty(total_max, rng)
    return rng, (
        c
        for m in range(1, total_max + 1)
        for n in range(total_max - m + 1)
        for c in recursion_task_cases(m, n)
    )


def _lemma1_grid(m_max: int, n_max: int):
    """The index-addition cases for 1 <= m <= m_max, 0 <= n <= n_max, m first."""
    _check_bounds(m_max, n_max)
    rng = f"1<=m<={m_max}, 0<=n<={n_max}"
    _check_nonempty(m_max, rng)
    return rng, (c for m, n in _rect(1, m_max, n_max) for c in check_lemma1(m, n).cases)


def verify_recursions(total_max: int) -> IdentityReport:
    """Both coefficient splits plus the index-addition identities for every
    admissible (m, n) with m + n <= total_max."""
    rng, cases = _recursion_grid(total_max)
    return IdentityReport("recursions", rng, tuple(cases))
