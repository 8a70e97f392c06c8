import pytest

from lucasnomial import (
    BivariatePolynomial,
    DomainError,
    FIBONOMIAL,
    QBINOMIAL,
    UnivariatePolynomial,
    gaussian_binomial_oracle,
    lnomial,
    lucas_F,
    specialize,
    via_quotient,
    via_recursion_fib,
)
from lucasnomial import coefficients
from lucasnomial.specializations import SpecializationPreset

# no q-binomial point, so specialize takes its generic fill in q here
CUSTOM = SpecializationPreset(
    "custom", UnivariatePolynomial((1, 2)), UnivariatePolynomial((0, 0, 1))
)


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


def test_fibonomial_examples():
    assert specialize(4, 2, FIBONOMIAL) == 6
    assert specialize(5, 2, FIBONOMIAL) == 15


def test_qbinomial_example():
    assert specialize(3, 1, QBINOMIAL) == UnivariatePolynomial((1, 1, 1))


def test_lnomial_example():
    assert specialize(2, 1, lnomial(2)) == 2


def test_gaussian_oracle_examples():
    assert gaussian_binomial_oracle(3, 1) == UnivariatePolynomial((1, 1, 1))
    assert gaussian_binomial_oracle(7, 0) == UnivariatePolynomial.one()
    assert gaussian_binomial_oracle(4, 2) == UnivariatePolynomial((1, 1, 2, 1, 1))


@pytest.mark.parametrize("n", range(9))
def test_gaussian_oracle_pascal_recurrence(n):
    # G(n, k) = G(n-1, k-1) + q^k * G(n-1, k), an independent arithmetic check
    if n == 0:
        return
    for k in range(1, n):
        lhs = gaussian_binomial_oracle(n, k)
        rhs = gaussian_binomial_oracle(n - 1, k - 1) + UnivariatePolynomial.monomial(
            k
        ) * gaussian_binomial_oracle(n - 1, k)
        assert lhs == rhs


@pytest.mark.parametrize("n", range(31))
def test_qbinomial_matches_oracle(n):
    for k in range(n + 1):
        assert specialize(n, k, QBINOMIAL) == gaussian_binomial_oracle(n, k)


def test_qbinomial_is_recognized_by_its_values():
    # a preset equal to QBINOMIAL but built apart gives the same polynomial
    twin = SpecializationPreset(
        "twin", UnivariatePolynomial((1, 1)), UnivariatePolynomial((0, -1))
    )
    assert specialize(9, 4, twin) == gaussian_binomial_oracle(9, 4)


@pytest.mark.parametrize("n", range(31))
def test_fibonomial_matches_integer_oracle(n):
    for k in range(n + 1):
        assert specialize(n, k, FIBONOMIAL) == fibonomial_int(n, k)


@pytest.mark.parametrize("n", range(31))
def test_lnomial_matches_the_quotient_route_evaluated(n):
    for ell in (-3, -1, 0, 1, 2, 10**6):
        for k in range(n + 1):
            expected = via_quotient(n, k).eval_int(ell, -1)
            assert specialize(n, k, lnomial(ell)) == expected


@pytest.mark.parametrize("n", range(13))
def test_polynomial_preset_matches_substitution(n):
    # s = 2q + 1, t = q^2
    for k in range(n + 1):
        expected = via_recursion_fib(n, k).subst_univar(CUSTOM.s_sub, CUSTOM.t_sub)
        assert specialize(n, k, CUSTOM) == expected


@pytest.mark.parametrize("n, k", [(0, 0), (7, 0), (7, 7)])
def test_trivial_coefficients_keep_their_types(n, k):
    for preset in (FIBONOMIAL, lnomial(-3), lnomial(0)):
        value = specialize(n, k, preset)
        assert type(value) is int and value == 1
    for preset in (QBINOMIAL, CUSTOM):
        value = specialize(n, k, preset)
        assert type(value) is UnivariatePolynomial
        assert value == UnivariatePolynomial.one()


def test_specialize_neither_decodes_nor_substitutes(monkeypatch):
    presets = (FIBONOMIAL, lnomial(1), lnomial(10**6), QBINOMIAL, CUSTOM)
    expected = [specialize(9, 4, preset) for preset in presets]
    assert expected[:2] == [fibonomial_int(9, 4), via_poly_value(9, 4)]
    assert expected[3] == gaussian_binomial_oracle(9, 4)

    def refuse(*args):
        raise AssertionError("specialize built the (s, t) coefficient")

    monkeypatch.setattr(coefficients, "_from_xy", refuse)
    monkeypatch.setattr(coefficients, "via_recursion_fib", refuse)
    monkeypatch.setattr(BivariatePolynomial, "subst_univar", refuse)
    monkeypatch.setattr(BivariatePolynomial, "eval_int", refuse)
    assert [specialize(9, 4, preset) for preset in presets] == expected


def test_lnomial_base_sequence_is_periodic_at_ell_one():
    # with s = 1, t = -1 the base sequence cycles 0, 1, 1, 0, -1, -1
    expected = [0, 1, 1, 0, -1, -1] * 3
    values = [lucas_F(n).eval_int(1, -1) for n in range(18)]
    assert values == expected


def test_lnomial_values_are_well_defined_despite_zero_factors():
    # (s, t) = (1, -1) zeroes every third base value, which would break a
    # specialize-then-divide scheme; the fill at the point divides nothing
    assert specialize(6, 3, lnomial(1)) == via_poly_value(6, 3)


def via_poly_value(n: int, k: int) -> int:
    return via_quotient(n, k).eval_int(1, -1)


def test_out_of_range_rejected():
    with pytest.raises(DomainError):
        specialize(3, 4, FIBONOMIAL)
    with pytest.raises(DomainError):
        specialize(3, -1, QBINOMIAL)
    with pytest.raises(DomainError):
        gaussian_binomial_oracle(2, 3)
