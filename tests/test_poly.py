import pytest
from hypothesis import given, strategies as st

from lucasnomial import BivariatePolynomial, IndivisibleError, UnivariatePolynomial
from lucasnomial.poly import ONE, S, T, ZERO


def P(text: str) -> BivariatePolynomial:
    return BivariatePolynomial.parse(text)


# strategies for small random polynomials with exact integer coefficients
exponents = st.tuples(st.integers(0, 5), st.integers(0, 5))
coeffs = st.integers(-9, 9).filter(bool)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(BivariatePolynomial)
nonzero_polys = polys.filter(bool)
points = st.integers(-4, 4)


def test_add_disjoint_supports():
    assert S + T == P("s + t")


def test_add_merges_coefficients():
    # the three tiling weights of a length-3 strip sum to the 4th polynomial
    assert P("s^3 + s*t") + P("s*t") == P("s^3 + 2*s*t")


def test_add_zero_is_identity():
    p = P("s^2 + 3*t")
    assert p + ZERO == p
    assert ZERO + p == p


def test_mul_expands():
    assert P("s^2 + t") * P("s^2 + 2*t") == P("s^4 + 3*s^2*t + 2*t^2")


def test_mul_identity_and_annihilator():
    p = P("2*s^2*t - t^3")
    assert p * ONE == p
    assert p * ZERO == ZERO


def test_exact_div_difference_of_squares():
    assert (S * S - T * T).exact_div(S - T) == S + T


def test_exact_div_factorial_quotient():
    fact4 = P("s^6 + 3*s^4*t + 2*s^2*t^2")
    assert fact4.exact_div(S * S) == P("s^4 + 3*s^2*t + 2*t^2")


def test_exact_div_degree_obstruction():
    with pytest.raises(IndivisibleError):
        (S + T).exact_div(S * T)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_eval_int():
    assert P("s^3 + 2*s*t").eval_int(1, 1) == 3
    assert ZERO.eval_int(17, -5) == 0
    assert P("s^4 + 3*s^2*t + 2*t^2").eval_int(1, 1) == 6


def test_subst_univar():
    q_plus_1 = UnivariatePolynomial((1, 1))
    minus_q = UnivariatePolynomial((0, -1))
    assert P("s^2 + t").subst_univar(q_plus_1, minus_q) == UnivariatePolynomial(
        (1, 1, 1)
    )
    assert BivariatePolynomial.const(7).subst_univar(
        q_plus_1, minus_q
    ) == UnivariatePolynomial.const(7)
    assert S.subst_univar(q_plus_1, minus_q) == q_plus_1


def test_canonical_text():
    assert P("s^3 + 2*s*t").canonical_text() == "s^3 + 2*s*t"
    assert ZERO.canonical_text() == "0"
    assert (-(T * T)).canonical_text() == "-t^2"
    assert (S - T).canonical_text() == "s - t"
    assert BivariatePolynomial.const(-1).canonical_text() == "-1"
    assert P("-3*s^2*t + s - 1").canonical_text() == "-3*s^2*t + s - 1"
    assert P("-3*s^2*t + s - 1").latex() == "-3 s^{2} t + s - 1"
    assert ZERO.latex() == "0"


def test_terms_canonical_order():
    terms = P("s^4 + 3*s^2*t + 2*t^2").terms()
    assert terms == [(4, 0, 1), (2, 1, 3), (0, 2, 2)]


def test_no_zero_terms_stored():
    p = BivariatePolynomial({(1, 0): 3, (0, 1): 0})
    assert p.terms() == [(1, 0, 3)]
    assert (p - p).terms() == []


def test_duplicate_pairs_accumulate():
    p = BivariatePolynomial([((1, 1), 2), ((1, 1), 3)])
    assert p == BivariatePolynomial({(1, 1): 5})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BivariatePolynomial({(-1, 0): 1})


def test_parse_rejects_garbage():
    for bad in ("", "s +", "2**s", "x^2", "s^-1"):
        with pytest.raises(ValueError):
            BivariatePolynomial.parse(bad)


def test_json_round_trip():
    p = P("s^4 + 3*s^2*t - 2*t^2")
    assert BivariatePolynomial.from_json_dict(p.to_json_dict()) == p


@given(polys, polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_add_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, nonzero_polys)
def test_exact_div_inverts_mul(q, d):
    assert (q * d).exact_div(d) == q


@given(polys, polys, points, points)
def test_eval_is_multiplicative(p, q, s0, t0):
    assert (p * q).eval_int(s0, t0) == p.eval_int(s0, t0) * q.eval_int(s0, t0)


@given(polys)
def test_text_round_trip(p):
    assert BivariatePolynomial.parse(p.canonical_text()) == p


def test_univariate_basics():
    q = UnivariatePolynomial.monomial(1)
    assert (q + 1) * (q - 1) == UnivariatePolynomial((-1, 0, 1))
    assert UnivariatePolynomial((1, 0, 0)).degree == 0
    assert UnivariatePolynomial.zero().canonical_text() == "0"
    assert (q ** 3).eval_at(2) == 8
    assert (-q).canonical_text() == "-q"
    assert (2 * q * q + q + 1).canonical_text() == "2*q^2 + q + 1"
    negative = UnivariatePolynomial((-1, 0, -2, 1))
    assert negative.canonical_text() == "q^3 - 2*q^2 - 1"
    assert negative.canonical_text(var="x") == "x^3 - 2*x^2 - 1"
    assert negative.latex() == "q^{3} - 2 q^{2} - 1"


def test_univariate_exact_div():
    q = UnivariatePolynomial.monomial(1)
    cube_minus_1 = q ** 3 - 1
    assert cube_minus_1.exact_div(q - 1) == UnivariatePolynomial((1, 1, 1))
    with pytest.raises(IndivisibleError):
        (q + 1).exact_div(q * q)
    with pytest.raises(IndivisibleError):
        (q * q + 1).exact_div(q + 1)


def test_univariate_trailing_zeros_trimmed():
    assert UnivariatePolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert UnivariatePolynomial((0, 0)).is_zero()
