import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lucasnomial import (
    BivariatePolynomial,
    DomainError,
    InternalParityError,
    lucas_F,
    table,
    via_quotient,
    via_recursion_fib,
    via_recursion_luc,
)
from lucasnomial import coefficients, lucas
from lucasnomial.poly import ONE, S, ZERO


def P(text: str) -> BivariatePolynomial:
    return BivariatePolynomial.parse(text)


def fib_int(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fibonomial_int(n: int, k: int) -> int:
    num = den = 1
    for i in range(1, n + 1):
        num *= fib_int(i)
    for i in range(1, k + 1):
        den *= fib_int(i)
    for i in range(1, n - k + 1):
        den *= fib_int(i)
    assert num % den == 0
    return num // den


def test_quotient_examples():
    assert via_quotient(3, 1) == P("s^2 + t")
    assert via_quotient(3, 1) == lucas_F(3)
    assert via_quotient(4, 2) == P("s^4 + 3*s^2*t + 2*t^2")
    assert via_quotient(4, 5) == ZERO
    assert via_quotient(4, -1) == ZERO
    # small k cancels to k top factors; F(300)! is never built
    assert via_quotient(300, 3) == via_recursion_luc(300, 3)
    assert via_quotient(300, 297) == via_quotient(300, 3)


def test_recursion_fib_examples():
    assert via_recursion_fib(2, 1) == S
    assert via_recursion_fib(4, 2) == via_quotient(4, 2)
    assert via_recursion_fib(6, 3) == via_quotient(6, 3)
    # past the interpreter's default recursion depth
    assert via_recursion_fib(520, 519) == lucas_F(520)


def test_recursion_fib_refills_after_cache_clear():
    assert via_recursion_fib(700, 699) == lucas_F(700)
    via_recursion_fib.cache_clear()
    assert via_recursion_fib(700, 699) == lucas_F(700)


def test_recursion_luc_examples():
    assert via_recursion_luc(2, 1) == S
    assert via_recursion_luc(0, 0) == ONE
    assert via_recursion_luc(5, 2) == via_quotient(5, 2)
    assert via_recursion_luc(520, 1) == lucas_F(520)


@pytest.mark.parametrize("n", range(25))
def test_three_methods_agree(n):
    for k in range(n + 1):
        q = via_quotient(n, k)
        assert via_recursion_fib(n, k) == q
        assert via_recursion_luc(n, k) == q


@pytest.mark.parametrize("n, k", [(60, 28), (60, 32), (64, 30), (64, 34)])
def test_three_methods_agree_at_the_benchmark_sizes(monkeypatch, n, k):
    # either side of k fills the same mirror half, m rows of cells (i, i..rest)
    # with m <= rest: 585 steps at (64, 30), where the whole rectangle took 1020
    m, rest = sorted((k, n - k))
    calls = Counter()
    for name in ("_fib_step", "_luc_step"):

        def counted(*args, _name=name, _step=getattr(coefficients, name)):
            calls[_name] += 1
            return _step(*args)

        monkeypatch.setattr(coefficients, name, counted)
    q = via_quotient(n, k)
    assert via_recursion_fib.__wrapped__(n, k) == q
    assert via_recursion_luc(n, k) == q
    steps = m * (rest + 1) - m * (m + 1) // 2
    assert calls == {"_fib_step": steps, "_luc_step": steps}


@pytest.mark.parametrize("n", range(13))
def test_symmetry(n):
    for k in range(n + 1):
        assert via_quotient(n, k) == via_quotient(n, n - k)


@pytest.mark.parametrize("n", range(13))
def test_homogeneity_and_nonnegativity(n):
    for k in range(n + 1):
        cells = k * (n - k)
        for a, b, c in via_quotient(n, k).terms():
            assert a + 2 * b == cells
            assert c > 0


@pytest.mark.parametrize("n", range(17))
def test_point_value_matches_integer_fibonomial(n):
    for k in range(n + 1):
        assert via_quotient(n, k).eval_int(1, 1) == fibonomial_int(n, k)


def test_table_small():
    triangle = table(2)
    assert triangle.rows == ((ONE,), (ONE, ONE), (ONE, S, ONE))


def test_table_single_entry():
    assert table(0).rows == ((ONE,),)


def test_table_entry_and_bounds():
    triangle = table(4)
    assert triangle.entry(4, 2) == P("s^4 + 3*s^2*t + 2*t^2")
    with pytest.raises(DomainError):
        triangle.entry(5, 0)
    with pytest.raises(DomainError):
        triangle.entry(3, 4)


def test_table_edges_are_one():
    triangle = table(8)
    for n in range(9):
        assert triangle.entry(n, 0) == ONE
        assert triangle.entry(n, n) == ONE
        for k in range(n + 1):
            assert triangle.entry(n, k) == triangle.entry(n, n - k)


def test_rec_luc_refuses_a_doubled_grid_with_an_odd_coefficient():
    # 8-bit digits at (1, 1): up = left = 1 doubles to 2x + 2, which halves
    # to x + 1; with left = 0 the doubled cell is x + 1, whose digits are odd
    lows = 1 + (1 << 8)
    assert coefficients._luc_step(8, lows, 1, 1, 1, 1) == lows
    with pytest.raises(InternalParityError):
        coefficients._luc_step(8, lows, 1, 1, 1, 0)


@pytest.mark.parametrize("m, rest", [(0, 0), (0, 5), (1, 1), (3, 7), (30, 34)])
def test_fill_steps_once_per_cell_of_the_mirror_half(m, rest):
    # rows i = 1..m each fill the cells (i, i..rest); row 0 is seeded
    calls = []

    def step(i, j, up, left):
        calls.append((i, j))
        return up + left

    rows = list(coefficients._rows(step, 1, m, lambda i: rest))
    assert len(calls) == m * (rest + 1) - m * (m + 1) // 2
    assert len(set(calls)) == len(calls)
    assert all(i <= j for i, j in calls)
    # with unit weights the cells are binomial coefficients
    assert rows[-1][-1] == math.comb(m + rest, m)


def test_rec_luc_memory_does_not_grow_with_its_rectangle():
    # the whole rectangle at (64, 30) held some 10 MB; two rows hold well
    # under 2 MB, and nothing is kept after the call
    tracemalloc.start()
    try:
        via_recursion_luc(64, 30)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert kept < 2**16, kept


@pytest.mark.parametrize("max_row", range(15))
def test_table_is_the_quotient_triangle_without_the_fib_route(monkeypatch, max_row):
    def refuse(n, k):
        raise AssertionError("table() went through via_recursion_fib")

    monkeypatch.setattr(coefficients, "via_recursion_fib", refuse)
    triangle = table(max_row)
    for n in range(max_row + 1):
        for k in range(n + 1):
            assert triangle.entry(n, k) == via_quotient(n, k), (n, k)


@pytest.mark.parametrize("max_row", [0, 1, 12])
def test_table_spot_checks_leave_the_quotient_memo_as_it_was(max_row):
    via_quotient.cache_clear()
    via_quotient(5, 2)
    table(max_row)
    assert via_quotient.cache_info().currsize == 1


def test_table_spot_checks_still_compare_with_the_quotient_route(monkeypatch):
    real = coefficients._quotient
    monkeypatch.setattr(
        coefficients, "_quotient", lambda n, k: S if (n, k) == (6, 2) else real(n, k)
    )
    with pytest.raises(RuntimeError, match=r"entry \(6, 2\) disagrees"):
        table(6)


@pytest.mark.parametrize(
    "route, step, bits",
    [
        (via_recursion_fib.__wrapped__, "_fib_step", 61),
        (via_recursion_luc, "_luc_step", 62),
    ],
)
def test_recursion_digits_are_the_bit_length_of_their_bound(
    monkeypatch, route, step, bits
):
    # C(64, 30) has 61 bits, and rec-luc doubles it: no width is rounded up
    widths = set()
    original = getattr(coefficients, step)

    def recorded(width, *args):
        widths.add(width)
        return original(width, *args)

    monkeypatch.setattr(coefficients, step, recorded)
    assert route(64, 30) == via_quotient(64, 30)
    assert widths == {bits}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_recursions_match_the_quotient_route_at_random_sizes(size):
    n, k = size
    q = via_quotient(n, k)
    assert via_recursion_fib.__wrapped__(n, k) == q
    assert via_recursion_luc(n, k) == q


@pytest.mark.parametrize(
    "n, k", [(0, 0), (1, 0), (9, 0), (9, 9), (40, 40), (1100, 1099), (300, 3)]
)
def test_recursions_match_the_quotient_route_at_the_edges(n, k):
    q = via_quotient(n, k)
    assert via_recursion_fib.__wrapped__(n, k) == q
    assert via_recursion_luc(n, k) == q


def test_recursions_form_no_lucas_polynomial_or_product(monkeypatch):
    expected = via_quotient(30, 14)

    def refuse(*args):
        raise AssertionError("a recursion route formed a polynomial product")

    for owner, name in (
        (coefficients, "lucas_F"),
        (lucas, "lucas_F"),
        (lucas, "lucas_L"),
        (lucas.LucasCache, "fib"),
        (lucas.LucasCache, "luc"),
        (BivariatePolynomial, "__mul__"),
        (BivariatePolynomial, "__rmul__"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    assert via_recursion_fib.__wrapped__(30, 14) == expected
    assert via_recursion_luc(30, 14) == expected
