import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import pytest

from lucasnomial import (
    BivariatePolynomial,
    DomainError,
    LINEAR,
    CIRCULAR,
    LucasCache,
    UnivariatePolynomial,
    check_lemma1,
    enumerate_tilings,
    lucas_F,
    lucas_L,
    lucas_factorial,
)
from lucasnomial.lucas import _at
from lucasnomial.poly import ONE, S, T, TWO, ZERO


def P(text: str) -> BivariatePolynomial:
    return BivariatePolynomial.parse(text)


def test_first_lucas_polynomials():
    assert lucas_F(0) == ZERO
    assert lucas_F(1) == ONE
    assert lucas_F(2) == S
    assert lucas_F(3) == P("s^2 + t")
    assert lucas_F(4) == P("s^3 + 2*s*t")
    assert lucas_F(5) == P("s^4 + 3*s^2*t + t^2")


def test_first_companion_polynomials():
    assert lucas_L(0) == TWO
    assert lucas_L(1) == S
    assert lucas_L(2) == P("s^2 + 2*t")
    assert lucas_L(3) == P("s^3 + 3*s*t")


def test_factorials():
    assert lucas_factorial(0) == ONE
    assert lucas_factorial(2) == S
    assert lucas_factorial(4) == lucas_F(2) * lucas_F(3) * lucas_F(4)
    assert lucas_factorial(4) == P("s^6 + 3*s^4*t + 2*s^2*t^2")


def test_negative_index_rejected():
    with pytest.raises(DomainError):
        lucas_F(-1)


@pytest.mark.parametrize("n", range(2, 13))
def test_recursion_invariants(n):
    assert lucas_F(n) == S * lucas_F(n - 1) + T * lucas_F(n - 2)
    assert lucas_L(n) == S * lucas_L(n - 1) + T * lucas_L(n - 2)
    assert lucas_factorial(n) == lucas_factorial(n - 1) * lucas_F(n)


@pytest.mark.parametrize("n", range(1, 14))
def test_monic_and_homogeneous(n):
    terms = lucas_F(n).terms()
    a, b, c = terms[0]
    assert (a, b, c) == (n - 1, 0, 1)
    assert all(a + 2 * b == n - 1 for a, b, _ in terms)


@pytest.mark.parametrize("n", range(1, 13))
def test_coefficients_count_tilings_by_dominoes(n):
    # coefficient of s^(n-1-2d) t^d counts length-(n-1) tilings with d dominoes
    tilings = enumerate_tilings(LINEAR, n - 1)
    for a, b, c in lucas_F(n).terms():
        count = sum(1 for t in tilings if t.tiles.count("D") == b)
        assert c == count


@pytest.mark.parametrize("n", range(13))
def test_linear_weights_sum_to_next_polynomial(n):
    total = sum(
        (t.weight() for t in enumerate_tilings(LINEAR, n)), ZERO
    )
    assert total == lucas_F(n + 1)


@pytest.mark.parametrize("n", range(13))
def test_circular_weights_sum_to_companion(n):
    total = sum(
        (t.weight() for t in enumerate_tilings(CIRCULAR, n)), ZERO
    )
    assert total == (TWO if n == 0 else lucas_L(n))


def test_lemma1_base_case():
    report = check_lemma1(1, 0)
    assert report.passed
    assert report.cases_checked == 2


def test_lemma1_examples():
    assert lucas_F(4) == lucas_F(3) * lucas_F(2) + T * lucas_F(1) * lucas_F(2)
    assert lucas_F(5) * 2 == lucas_L(2) * lucas_F(3) + lucas_L(3) * lucas_F(2)
    assert check_lemma1(2, 2).passed
    assert check_lemma1(3, 2).passed


def test_lemma1_full_range():
    for m in range(1, 13):
        for n in range(13):
            assert check_lemma1(m, n).passed


def test_lemma1_rejects_m_zero():
    with pytest.raises(DomainError):
        check_lemma1(0, 3)


def test_fresh_cache_matches_module_cache():
    cache = LucasCache()
    assert cache.fib(10) == lucas_F(10)
    assert cache.luc(10) == lucas_L(10)
    assert cache.factorial(10) == lucas_factorial(10)
    fresh = LucasCache()
    assert fresh.fib(60) == lucas_F(60)
    assert fresh.luc(60) == lucas_L(60)
    assert fresh.factorial(60) == lucas_factorial(60)
    assert_holds_no_state(fresh)


def test_concurrent_cache_extension_is_consistent():
    cache = LucasCache()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(cache.fib, [40] * 8))
    assert all(r == lucas_F(40) for r in results)
    # monotone: lower indices were filled on the way up
    assert cache.fib(39) == lucas_F(39)


def assert_holds_no_state(cache):
    # no instance dict and no slots: there is nowhere to keep a value
    assert not hasattr(cache, "__dict__")
    assert all(getattr(cls, "__slots__", ()) == () for cls in type(cache).__mro__)


def test_a_cache_holds_no_state():
    cache = LucasCache()
    assert cache.fib(60) == lucas_F(60)
    assert cache.luc(60) == lucas_L(60)
    assert_holds_no_state(cache)
    with pytest.raises(AttributeError):
        cache.memo = []


def test_concurrent_mixed_growth_neither_deadlocks_nor_loses_entries():
    # factorial() grows F before it takes the lock, which is not re-entrant;
    # daemon threads let a deadlock fail the test instead of hanging it
    cache = LucasCache()
    calls = [
        (cache.factorial, lucas_factorial), (cache.fib, lucas_F), (cache.luc, lucas_L)
    ] * 4
    results = {}

    def work(i, call):
        results[i] = call(30 + i)

    threads = [
        threading.Thread(target=work, args=(i, call), daemon=True)
        for i, (call, _) in enumerate(calls)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(timeout=max(0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: ref(30 + i) for i, (_, ref) in enumerate(calls)}
    assert_holds_no_state(cache)


def recurrence(first, second, count):
    # the oracle: P(n) = s*P(n-1) + t*P(n-2), term by term from two seeds
    seq = [first, second]
    while len(seq) < count:
        seq.append(S * seq[-1] + T * seq[-2])
    return seq[:count]


def test_closed_forms_match_the_recurrence():
    assert [lucas_F(n) for n in range(301)] == recurrence(ZERO, ONE, 301)
    assert [lucas_L(n) for n in range(301)] == recurrence(TWO, S, 301)


def test_closed_forms_at_one_are_the_fibonacci_and_lucas_numbers():
    fib, luc = (0, 1), (2, 1)
    for n in range(2001):
        assert lucas_F(n).eval_int(1, 1) == fib[0], n
        assert lucas_L(n).eval_int(1, 1) == luc[0], n
        fib, luc = (fib[1], fib[0] + fib[1]), (luc[1], luc[0] + luc[1])


# (1, -1) and (0, 1) are points where F vanishes at some index
@pytest.mark.parametrize("s, t", [(1, 1), (1, -1), (0, 1), (2, -3), (-1, 2), (3, 0)])
def test_stepper_is_the_closed_forms_at_integer_points(s, t):
    assert list(islice(_at(s, t, 0, 1), 41)) == [
        lucas_F(j).eval_int(s, t) for j in range(41)
    ]
    assert list(islice(_at(s, t, 2, s), 41)) == [
        lucas_L(j).eval_int(s, t) for j in range(41)
    ]


def test_stepper_is_the_closed_forms_at_the_q_point():
    q = UnivariatePolynomial.monomial(1)
    s, t = q + 1, -q
    zero, one = UnivariatePolynomial.zero(), UnivariatePolynomial.one()
    fib = islice(_at(s, t, zero, one), 41)
    luc = islice(_at(s, t, one + 1, s), 41)
    for j, (f_j, l_j) in enumerate(zip(fib, luc)):
        assert type(f_j) is type(l_j) is UnivariatePolynomial, j
        assert f_j == lucas_F(j).subst_univar(s, t), j
        # L(j) = x^j + y^j at x = q, y = 1
        assert l_j == lucas_L(j).subst_univar(s, t) == q**j + 1, j


@pytest.mark.parametrize("n", [2, 4, 10, 64, 300, 1000])
def test_even_companions_end_in_two(n):
    assert lucas_L(n).terms()[-1] == (0, n // 2, 2)


def test_repeated_lookups_retain_nothing():
    # a memo of F(0..2999) would keep some 400 MB
    tracemalloc.start()
    try:
        for _ in range(3):
            lucas_F(3000)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2**14, kept
