import json
import math
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from lucasnomial import BivariatePolynomial, IndivisibleError, UnivariatePolynomial
from lucasnomial.coefficients import _from_xy
from lucasnomial.poly import ONE, S, T, ZERO, _digits, _unpack


def P(text: str) -> BivariatePolynomial:
    return BivariatePolynomial.parse(text)


# strategies for small random polynomials with exact integer coefficients
exponents = st.tuples(st.integers(0, 5), st.integers(0, 5))
coeffs = st.integers(-9, 9).filter(bool)
bivariate_polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    BivariatePolynomial
)
univariate_polys = st.lists(st.integers(-9, 9), max_size=6).map(UnivariatePolynomial)
points = st.integers(-4, 4)


def each_class(count: int, nonzero_last: bool = False):
    """count operands of each polynomial class, as one tuple per class: every
    example checks a ring law on both classes, and never mixes them."""

    def operands(polys):
        last = polys.filter(bool) if nonzero_last else polys
        return st.tuples(*[polys] * (count - 1), last)

    return st.tuples(operands(bivariate_polys), operands(univariate_polys))


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
    # a too-high divisor, a quotient term with a negative exponent, and a
    # quotient coefficient that is no integer
    for dividend, divisor in ((S + T, S * T), (T, S), (3 * S, 2 * S)):
        with pytest.raises(IndivisibleError):
            dividend.exact_div(divisor)


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
    for coeffs in ((), (5,), (1, 0, -2, 0, 3), (0, 0, 7)):
        u = UnivariatePolynomial(coeffs)
        assert UnivariatePolynomial.from_json_dict(u.to_json_dict()) == u
    assert UnivariatePolynomial((0, 0, 7)).to_json_dict() == {"coeffs": ["0", "0", "7"]}


U = UnivariatePolynomial


@pytest.mark.parametrize("p, text, latex", [
    (ZERO, "0", "0"),
    (BivariatePolynomial.const(-3), "-3", "-3"),
    (P("-3*s^2*t + s - t^5 - 1"), "-3*s^2*t + s - t^5 - 1", "-3 s^{2} t + s - t^{5} - 1"),
    (P("s^3 + 2*s*t"), "s^3 + 2*s*t", "s^{3} + 2 s t"),
    (U(()), "0", "0"),
    (U((-2,)), "-2", "-2"),
    (U((1, 0, -2, 0, 3)), "3*q^4 - 2*q^2 + 1", "3 q^{4} - 2 q^{2} + 1"),
    (U((0, -1, 1)), "q^2 - q", "q^{2} - q"),
], ids=repr)
def test_the_pieces_are_the_text_latex_and_json_forms(p, text, latex):
    pieces = {fmt: list(p._pieces(fmt)) for fmt in ("text", "latex", "json")}
    assert "".join(pieces["text"]) == p.canonical_text() == text
    assert "".join(pieces["latex"]) == p.latex() == latex
    assert "".join(pieces["json"]) == json.dumps(p.to_json_dict())
    # one term to a piece, so a writer holds a block of terms, never the whole
    assert len(pieces["text"]) == len(pieces["latex"]) == max(1, len(p.terms()))


@given(each_class(1))
def test_the_json_pieces_are_the_json_dumps_bytes(draws):
    for (p,) in draws:
        assert "".join(p._pieces("json")) == json.dumps(p.to_json_dict())


@given(each_class(2))
def test_add_commutes(draws):
    for p, q in draws:
        assert p + q == q + p


@given(each_class(3))
def test_add_associates(draws):
    for p, q, r in draws:
        assert (p + q) + r == p + (q + r)


@given(each_class(2))
def test_mul_commutes(draws):
    for p, q in draws:
        assert p * q == q * p


@given(each_class(3))
def test_mul_associates(draws):
    for p, q, r in draws:
        assert (p * q) * r == p * (q * r)


@given(each_class(3))
def test_mul_distributes(draws):
    for p, q, r in draws:
        assert p * (q + r) == p * q + p * r


@given(each_class(2, nonzero_last=True))
def test_exact_div_inverts_mul(draws):
    for q, d in draws:
        assert (q * d).exact_div(d) == q


@given(each_class(2), points, points)
def test_eval_is_multiplicative(draws, s0, t0):
    for p, q in draws:
        assert (p * q).eval_int(s0, t0) == p.eval_int(s0, t0) * q.eval_int(s0, t0)


@given(bivariate_polys)
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


def test_univariate_results_keep_their_class():
    q = UnivariatePolynomial.monomial(1)
    for value in (q * q, -q, q ** 0, (q * q).exact_div(q), q + 1, 1 - q, 3 * q):
        assert type(value) is UnivariatePolynomial
    for value in (S * T, -S, S ** 0, (S * T).exact_div(T), 1 - S):
        assert type(value) is BivariatePolynomial


def test_classes_never_mix():
    u, b = UnivariatePolynomial.const(3), BivariatePolynomial.const(3)
    assert u != b
    assert not u == b
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            op(u, b)
        with pytest.raises(TypeError):
            op(b, u)
    with pytest.raises(TypeError):
        b.exact_div(u)


def test_constants_hash_as_their_integer():
    for cls in (BivariatePolynomial, UnivariatePolynomial):
        c = cls.const(7)
        assert c == 7 and hash(c) == hash(7)
        assert len({7, c}) == 1
        assert cls.zero() == 0 and hash(cls.zero()) == hash(0)
    assert hash(ZERO) == hash(0)
    assert hash(P("s + 2*t")) == hash(P("2*t + s"))


def test_univariate_repr_round_trip():
    for coeffs in ((), (5,), (1, 0, -2, 0, 3), (0, 0, 7)):
        u = UnivariatePolynomial(coeffs)
        assert eval(repr(u), {"UnivariatePolynomial": UnivariatePolynomial}) == u
    assert repr(UnivariatePolynomial((1, 0, -2, 0, 0))) == "UnivariatePolynomial((1, 0, -2))"


def test_eval_int_sparse_high_degree():
    # only the powers that occur are computed and held, not every power up to
    # the top one: holding them all would peak near 40 MB here
    p = BivariatePolynomial({(20_000, 0): 1, (0, 19_999): 2})
    tracemalloc.start()
    try:
        value = p.eval_int(3, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 3**20_000 - 2
    assert peak < 1_000_000
    assert UnivariatePolynomial.monomial(20_000).eval_at(-1) == 1


def test_univariate_inherited_accessors_see_q_as_s():
    u = UnivariatePolynomial((4, 0, -1))
    assert u.terms() == [(2, 0, -1), (0, 0, 4)]
    assert u.leading() == (2, 0, -1)
    assert u.coefficient(2, 0) == -1 and u.coefficient(0, 1) == 0
    assert u.eval_int(3, 0) == u.eval_at(3) == -5
    parsed = UnivariatePolynomial.parse("s^2")
    assert type(parsed) is BivariatePolynomial and parsed == S * S


# A term-by-term reference for the ring's two hard operations, built only on
# terms(), so it shares nothing with the coefficient-run layout.


def term_dict(p) -> dict[tuple[int, int], int]:
    return {(a, b): c for a, b, c in p.terms()}


def reference_mul(p, q) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for a1, b1, c1 in p.terms():
        for a2, b2, c2 in q.terms():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def reference_div(p, d) -> dict[tuple[int, int], int] | None:
    """Leading-term division, lexicographic with s > t (for the univariate
    class: from the top degree); None if p is not an exact multiple of d."""
    da, db, dc = d.terms()[0]
    rem, quot = term_dict(p), {}
    while rem:
        ra, rb = max(rem)
        ea, eb, (qc, r) = ra - da, rb - db, divmod(rem[(ra, rb)], dc)
        if ea < 0 or eb < 0 or r:
            return None
        quot[(ea, eb)] = qc
        for xa, xb, xc in d.terms():
            key = (xa + ea, xb + eb)
            rem[key] = rem.get(key, 0) - qc * xc
            if not rem[key]:
                del rem[key]
    return quot


@st.composite
def homogeneous_polys(draw, max_weight: int = 60):
    """A polynomial of one weight a + 2b, with t-powers b drawn sparsely."""
    w = draw(st.integers(0, max_weight))
    cs = draw(st.dictionaries(st.integers(0, w // 2), st.integers(-10**12, 10**12)))
    return BivariatePolynomial({(w - 2 * b, b): c for b, c in cs.items()})


wide_bivariate_polys = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), coeffs, max_size=8
).map(BivariatePolynomial)
shifted_univariate_polys = st.builds(
    lambda u, shift: u * UnivariatePolynomial.monomial(shift),
    univariate_polys,
    st.integers(0, 40),
)
# same-class operand pairs: homogeneous (the package's own traffic),
# mixed-grade, and univariate
operand_pairs = st.one_of(
    st.tuples(homogeneous_polys(), homogeneous_polys()),
    st.tuples(wide_bivariate_polys, wide_bivariate_polys),
    st.tuples(shifted_univariate_polys, shifted_univariate_polys),
)


@given(operand_pairs)
def test_mul_matches_term_reference(pair):
    p, q = pair
    assert term_dict(p * q) == reference_mul(p, q)


@given(operand_pairs)
def test_exact_div_of_a_product_matches_term_reference(pair):
    q, d = pair
    if d:
        assert term_dict((q * d).exact_div(d)) == reference_div(q * d, d) == term_dict(q)


@given(operand_pairs)
def test_exact_div_refuses_exactly_where_the_reference_does(pair):
    p, d = pair
    if not d:
        return
    expected = reference_div(p, d)
    if expected is None:
        with pytest.raises(IndivisibleError):
            p.exact_div(d)
    else:
        assert term_dict(p.exact_div(d)) == expected


# Kronecker packing: a homogeneous polynomial with nonnegative coefficients
# travels as its value at s = 1, t = 2^bits.


@st.composite
def packable_polys(draw, max_weight: int = 60):
    """(weight, polynomial) with coefficients in [0, 10^30] at that weight."""
    w = draw(st.integers(0, max_weight))
    cs = draw(st.dictionaries(st.integers(0, w // 2), st.integers(0, 10**30)))
    return w, BivariatePolynomial({(w - 2 * b, b): c for b, c in cs.items()})


def digit_bits(coefficients) -> int:
    return max(1, max((c.bit_length() for c in coefficients), default=0))


@given(packable_polys())
def test_pack_round_trip(drawn):
    w, p = drawn
    bits = digit_bits(c for _, _, c in p.terms())
    packed = p.eval_int(1, 1 << bits)
    assert _unpack(packed, w, bits) == p


@given(packable_polys(), packable_polys())
def test_pack_is_multiplicative(first, second):
    (v, p), (w, q) = first, second
    product = reference_mul(p, q)
    bits = digit_bits(product.values())
    point = 1 << bits
    unpacked = _unpack(p.eval_int(1, point) * q.eval_int(1, point), v + w, bits)
    assert term_dict(unpacked) == product
    assert unpacked == p * q


def test_pack_refuses_what_it_cannot_carry():
    with pytest.raises(ValueError):
        _unpack(-1, 0, 4)
    # a grade-2 polynomial has t-powers 0 and 1 only: a third digit is past it
    with pytest.raises(ValueError):
        _unpack(1 << 8, 2, 4)


def test_zero_packs_to_zero():
    assert ZERO.eval_int(1, 1 << 5) == 0
    assert _unpack(0, 7, 5) == ZERO


@given(
    st.lists(st.integers(0, 2**100)),
    st.sampled_from([1, 7, 8, 16, 57, 61, 90, 96, 104, 117, 2499, 2505]),
)
def test_digits_split_any_width(digits, bits):
    # whole bytes or not, every width is sliced off the same byte string;
    # 57, 61 and 117 are recursion widths, 2499 the decode width at
    # (120, 60), and 2505 is one bit past whole bytes
    digits = [d % (1 << bits) for d in digits]
    while digits and not digits[-1]:
        digits.pop()
    value = sum(d << bits * i for i, d in enumerate(digits))
    assert _digits(value, bits) == digits


def xy_half(poly: BivariatePolynomial, weight: int) -> list[int]:
    # s^a*t^b = (x + y)^a*(-xy)^b puts (-1)^b*C(a, r - b) on x^r*y^(weight-r)
    half = [0] * (weight // 2 + 1)
    for a, b, c in poly.terms():
        for r in range(b, min(a + b, weight // 2) + 1):
            half[r] += (-1) ** b * math.comb(a, r - b) * c
    return half


@given(packable_polys(max_weight=40))
def test_from_xy_inverts_the_expansion_into_x_and_y(drawn):
    w, p = drawn
    assert _from_xy(xy_half(p, w), w) == p


def test_from_xy_refuses_a_digit_string_past_half_the_weight():
    assert _from_xy([1, 0], 2) == P("s^2 + 2*t")
    with pytest.raises(ValueError, match="not half"):
        _from_xy([1, 0, 1], 2)
