import pytest

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
from lucasnomial import coefficients
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


@pytest.mark.parametrize("n", range(13))
def test_three_methods_agree(n):
    for k in range(n + 1):
        q = via_quotient(n, k)
        assert via_recursion_fib(n, k) == q
        assert via_recursion_luc(n, k) == q


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


def test_rec_luc_refuses_a_doubled_grid_with_an_odd_coefficient(monkeypatch):
    monkeypatch.setattr(coefficients, "_doubled", lambda m, rest: ONE)
    with pytest.raises(InternalParityError):
        via_recursion_luc(3, 1)
