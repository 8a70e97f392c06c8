"""Exact sparse polynomial arithmetic in the variables s and t.

A BivariatePolynomial maps exponent pairs (a, b) -- the powers of s and t --
to nonzero Python integers, so every operation is exact at any coefficient
size.  The canonical term order, descending in a and then in b, is also the
lexicographic order with s > t under which exact division cancels leading
terms; all divisors produced by factorial quotients are monic in that order,
so division never leaves the integers.

UnivariatePolynomial, the target of substitutions such as s -> q + 1,
t -> -q, is the same sparse polynomial in s alone, rendered in q.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from .errors import IndivisibleError

# (s-exponent, t-exponent) -> coefficient
TermMap = Mapping[tuple[int, int], int]


class BivariatePolynomial:
    """Immutable polynomial in s and t over arbitrary-precision integers."""

    __slots__ = ("_terms",)

    def __init__(self, terms: TermMap | Iterable[tuple[tuple[int, int], int]] = ()):
        data: dict[tuple[int, int], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (a, b), c in items:
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in term ({a}, {b})")
            if not c:
                continue
            total = data.get((a, b), 0) + c
            if total:
                data[(a, b)] = total
            else:
                del data[(a, b)]
        self._terms = data

    @classmethod
    def _from_terms(cls, terms: dict[tuple[int, int], int]):
        # an already-reduced term map becomes the polynomial, unchecked
        result = object.__new__(cls)
        result._terms = terms
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def const(cls, c: int):
        return cls._from_terms({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> BivariatePolynomial:
        return cls({(a, b): c})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[int, int, int]]:
        """All terms as (a, b, coefficient), in canonical order."""
        return [(a, b, c) for (a, b), c in sorted(self._terms.items(), reverse=True)]

    def coefficient(self, a: int, b: int) -> int:
        return self._terms.get((a, b), 0)

    def leading(self) -> tuple[int, int, int]:
        """Leading term under the lexicographic order with s > t."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        a, b = max(self._terms)
        return a, b, self._terms[(a, b)]

    def __eq__(self, other: object) -> bool:
        other = _as_poly(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant hashes as its integer, which it also equals
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------
    # Results keep the class of self; the other operand must share it or be
    # an int, so the two polynomial classes never mix.

    def __add__(self, other):
        other = _as_poly(self, other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            total = out.get(key, 0) + c
            if total:
                out[key] = total
            else:
                del out[key]
        return self._from_terms(out)

    __radd__ = __add__

    def __neg__(self):
        return self._from_terms({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(self, other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return self._from_terms({})
            return self._from_terms({key: c * other for key, c in self._terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                else:
                    del out[key]
        return self._from_terms(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        base = self
        acc = self.one()
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    def exact_div(self, divisor):
        """Exact quotient self / divisor; raises IndivisibleError if inexact.

        Repeatedly cancels the leading term of the running remainder against
        the leading term of the divisor (lexicographic order, s > t).
        """
        if type(divisor) is not type(self):
            raise TypeError("exact_div needs a divisor of the same class")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        da, db, dc = divisor.leading()
        dterms = list(divisor._terms.items())
        rem = dict(self._terms)
        quot: dict[tuple[int, int], int] = {}
        while rem:
            ra, rb = max(rem)
            rc = rem[(ra, rb)]
            ea, eb = ra - da, rb - db
            if ea < 0 or eb < 0 or rc % dc:
                raise IndivisibleError(
                    f"{self.canonical_text()!r} is not exactly divisible by "
                    f"{divisor.canonical_text()!r}"
                )
            qc = rc // dc
            quot[(ea, eb)] = qc
            for (xa, xb), xc in dterms:
                key = (xa + ea, xb + eb)
                total = rem.get(key, 0) - qc * xc
                if total:
                    rem[key] = total
                else:
                    rem.pop(key, None)
        return self._from_terms(quot)

    # -- evaluation and substitution ----------------------------------------

    def eval_int(self, s0: int, t0: int) -> int:
        """Exact integer value at s = s0, t = t0."""
        total = 0
        # each power occurring is computed once, however sparse the exponents
        spow: dict[int, int] = {}
        tpow: dict[int, int] = {}
        for (a, b), c in self._terms.items():
            if a not in spow:
                spow[a] = s0**a
            if b not in tpow:
                tpow[b] = t0**b
            total += c * spow[a] * tpow[b]
        return total

    def subst_univar(
        self, s_sub: UnivariatePolynomial, t_sub: UnivariatePolynomial
    ) -> UnivariatePolynomial:
        """Expand self(s_sub(q), t_sub(q)) exactly."""
        total = UnivariatePolynomial.zero()
        spow = [UnivariatePolynomial.one()]
        tpow = [UnivariatePolynomial.one()]
        for a, b, c in self.terms():
            term = _power(s_sub, a, spow) * _power(t_sub, b, tpow)
            total = total + term * c
        return total

    # -- text and JSON forms -------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic rendering, e.g. "s^3 + 2*s*t"; zero renders as "0"."""
        return _render_terms(self._factored_terms(), latex=False)

    def latex(self) -> str:
        """LaTeX rendering in canonical order, e.g. "s^{3} + 2 s t"."""
        return _render_terms(self._factored_terms(), latex=True)

    def _factored_terms(self):
        return ((c, (("s", a), ("t", b))) for a, b, c in self.terms())

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"BivariatePolynomial.parse({self.canonical_text()!r})"

    @classmethod
    def parse(cls, text: str) -> BivariatePolynomial:
        """Inverse of canonical_text; accepts the same grammar."""
        src = text.strip()
        if not src:
            raise ValueError("empty polynomial text")
        negate_first = src.startswith("-")
        if negate_first:
            src = src[1:].lstrip()
        chunks = re.split(r"\s+([+-])\s+", src)
        terms: list[tuple[tuple[int, int], int]] = []
        sign = -1 if negate_first else 1
        for i in range(0, len(chunks), 2):
            (a, b), c = _parse_term(chunks[i])
            terms.append(((a, b), sign * c))
            if i + 1 < len(chunks):
                sign = -1 if chunks[i + 1] == "-" else 1
        return BivariatePolynomial(terms)

    def to_json_dict(self) -> dict:
        """The documented JSON form: terms as [a, b, coefficient-string]."""
        return {"terms": [[a, b, str(c)] for a, b, c in self.terms()]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> BivariatePolynomial:
        return cls({(int(a), int(b)): int(c) for a, b, c in doc["terms"]})


def _render_terms(terms, latex: bool) -> str:
    """Join (coefficient, ((var, power), ...)) terms in the given order.

    Zero powers are dropped, a power of 1 is written bare, and a coefficient
    of magnitude 1 is left out unless the term is a constant.  Text style
    writes "3*s^2*t", LaTeX style "3 s^{2} t"; no terms renders as "0".
    """
    times = " " if latex else "*"
    out = ""
    for c, factors in terms:
        names = [] if c in (1, -1) else [str(abs(c))]
        for var, power in factors:
            if power == 1:
                names.append(var)
            elif power:
                names.append(f"{var}^{{{power}}}" if latex else f"{var}^{power}")
        body = times.join(names) or "1"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


_TERM_FACTOR = re.compile(r"^(\d+|s(\^\d+)?|t(\^\d+)?)$")


def _parse_term(chunk: str) -> tuple[tuple[int, int], int]:
    coeff = 1
    a = b = 0
    seen: set[str] = set()
    for factor in chunk.split("*"):
        factor = factor.strip()
        if not _TERM_FACTOR.match(factor):
            raise ValueError(f"malformed term {chunk!r}")
        kind = "c" if factor[0].isdigit() else factor[0]
        if kind in seen:
            raise ValueError(f"repeated factor in term {chunk!r}")
        seen.add(kind)
        if kind == "c":
            coeff = int(factor)
        else:
            power = int(factor[2:]) if "^" in factor else 1
            if kind == "s":
                a = power
            else:
                b = power
    return (a, b), coeff


def _as_poly(like: BivariatePolynomial, value: object):
    """value as a polynomial of like's class; an int becomes a constant, and
    any other value (the other polynomial class too) gives NotImplemented."""
    if type(value) is type(like):
        return value
    if isinstance(value, int):
        return like.const(value)
    return NotImplemented


def _power(base, exponent: int, powers: list):
    """base**exponent, where powers lists base**0, base**1, ... and is
    extended as far as needed."""
    while len(powers) <= exponent:
        powers.append(powers[-1] * base)
    return powers[exponent]


class UnivariatePolynomial(BivariatePolynomial):
    """Immutable polynomial in one variable, q by convention.

    It is a BivariatePolynomial in s alone: q^p is stored as s^p, so every
    ring operation is inherited, and leading-term division with no t power
    is univariate long division.  It is rendered in q and never mixes with
    BivariatePolynomial: such arithmetic raises TypeError, and the two
    classes never compare equal.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        self._terms = {(p, 0): c for p, c in enumerate(coeffs) if c}

    @classmethod
    def monomial(cls, power: int, c: int = 1) -> UnivariatePolynomial:
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls._from_terms({(power, 0): c} if c else {})

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients indexed by exponent; empty for the zero polynomial."""
        return tuple(self.coeff_at(p) for p in range(self.degree + 1))

    @property
    def degree(self) -> int:
        return max(self._terms)[0] if self._terms else -1

    def coeff_at(self, i: int) -> int:
        return self._terms.get((i, 0), 0)

    def eval_at(self, x: int) -> int:
        return self.eval_int(x, 0)

    def canonical_text(self, var: str = "q") -> str:
        """Deterministic rendering, highest power first, e.g. "q^2 + q + 1"."""
        return _render_terms(self._factored_terms(var), latex=False)

    def _factored_terms(self, var: str = "q"):
        return ((c, ((var, p),)) for p, _, c in self.terms())

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({self.coeffs!r})"

    def to_json_dict(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> UnivariatePolynomial:
        return cls(int(c) for c in doc["coeffs"])


ZERO = BivariatePolynomial.zero()
ONE = BivariatePolynomial.one()
TWO = BivariatePolynomial.const(2)
S = BivariatePolynomial.monomial(1, 0)
T = BivariatePolynomial.monomial(0, 1)
