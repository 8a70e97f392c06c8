"""The two tiling-sum interpretations of the lucasnomials, and verifiers.

Both interpretations sum over partitions inside an m x n rectangle, tiling
the rows of the partition and the columns of its complement.  The linear
flavor forbids column tilings from starting with a monomino (at the end
touching the partition boundary) and reproduces the coefficient itself; the
circular flavor allows wrap dominoes everywhere, gives every empty part the
weight-2 empty tiling, and reproduces 2^(m+n) times the coefficient.

Each sum can be evaluated two ways: `enumerate` materializes every tiling
pair, `gf` multiplies per-part closed forms.  Enumeration is refused above a
configurable predicted-pair budget.

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
with nonnegative coefficients, so it is packed once as its value at s = 1,
t = 2^B (Kronecker substitution), and each step is one integer product.  The
sum has weight m*n, so its value there, read as base-2^B digits, gives back
every coefficient, provided each is below 2^B.  B is the bit length of the
sum's value at s = t = 1, which no coefficient exceeds since none is
negative; that value is the lattice-path total of the closed forms' values
at s = t = 1.  It only sizes the digits: the decoded sum is still compared
with the quotient route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .coefficients import via_quotient
from .errors import DomainError, ResourceError
from .lucas import check_lemma1, lucas_F, lucas_L
from .partitions import enumerate_in_rect
from .poly import BivariatePolynomial, T, _pack, _power, _unpack
from .reports import CaseResult, IdentityReport, _case
from .tilings import (
    CIRCULAR,
    LINEAR,
    LINEAR_NOLEAD,
    MONO,
    Tiling,
    _count,
    _tiling_pool,
    gf,
)

LINEAR_PAIR = "linear_pair"
CIRCULAR_PAIR = "circular_pair"

PAIR_BUDGET = 10**7


@dataclass(frozen=True)
class TilingPair:
    """One tiling per row of a partition plus one per column of its
    complement."""

    row_tilings: tuple[Tiling, ...]
    col_tilings: tuple[Tiling, ...]
    flavor: str

    def __post_init__(self) -> None:
        if self.flavor not in (LINEAR_PAIR, CIRCULAR_PAIR):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        kind = LINEAR if self.flavor == LINEAR_PAIR else CIRCULAR
        for t in self.row_tilings + self.col_tilings:
            if t.kind != kind:
                raise ValueError(f"{self.flavor} pair holds a {t.kind} tiling")
        if self.flavor == LINEAR_PAIR:
            for t in self.col_tilings:
                if t.tiles and t.tiles[0] == MONO:
                    raise ValueError("column tilings must not begin with a monomino")

    def weight(self) -> BivariatePolynomial:
        a, b, c = self.weight_exponents()
        return BivariatePolynomial.monomial(a, b, c)

    def weight_exponents(self) -> tuple[int, int, int]:
        a = b = 0
        c = 1
        for t in self.row_tilings + self.col_tilings:
            ta, tb, tc = t.weight_exponents()
            a += ta
            b += tb
            c *= tc
        return a, b, c


def _pair_kinds(flavor: str) -> tuple[str, str]:
    if flavor == LINEAR_PAIR:
        return LINEAR, LINEAR_NOLEAD
    if flavor == CIRCULAR_PAIR:
        return CIRCULAR, CIRCULAR
    raise DomainError(f"unknown flavor {flavor!r}")


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
    for part in enumerate_in_rect(m, n):
        pools = [_tiling_pool(row_kind, p) for p in part.parts]
        pools += [_tiling_pool(col_kind, p) for p in part.complement().parts]
        for combo in product(*pools):
            yield part, TilingPair(combo[:m], combo[m:], flavor)


def _gf_sum(m: int, n: int, flavor: str) -> BivariatePolynomial:
    row_kind, col_kind = _pair_kinds(flavor)
    row_gfs = [gf(row_kind, x) for x in range(n + 1)]
    col_gfs = [gf(col_kind, h) for h in range(m + 1)]
    # no coefficient is negative, so none exceeds the sum's value at s = t = 1
    at_one = _path_total(
        [p.eval_int(1, 1) for p in row_gfs], [p.eval_int(1, 1) for p in col_gfs]
    )
    bits = max(1, at_one.bit_length())
    # depth-first over boundary paths; a stack entry is (x, h, prefix product)
    ups = [_pack(p, bits) for p in row_gfs]
    rights = [_pack(p, bits) for p in col_gfs]
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
        acc: dict[tuple[int, int], int] = {}
        for _, pair in iter_pairs(m, n, flavor):
            a, b, c = pair.weight_exponents()
            acc[(a, b)] = acc.get((a, b), 0) + c
        return BivariatePolynomial(acc)
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


# the pair flavors each flavor option checks, in case order
_FLAVORS = {
    "linear": (LINEAR_PAIR,),
    "circular": (CIRCULAR_PAIR,),
    "both": (LINEAR_PAIR, CIRCULAR_PAIR),
}


def _pair_flavors(flavor: str) -> tuple[str, ...]:
    if flavor not in _FLAVORS:
        raise DomainError(f"unknown flavor {flavor!r}")
    return _FLAVORS[flavor]


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
        if pair_flavor == LINEAR_PAIR:
            name, lhs, rhs = "linear", expected, rhs_linear(m, n, mode, budget)
        else:
            name, lhs = "circular", expected * (1 << (m + n))
            rhs = rhs_circular(m, n, mode, budget)
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
        for m, n in _rect(0, m_max, n_max):
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
