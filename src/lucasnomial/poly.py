"""Exact dense polynomial arithmetic in the variables s and t.

With s of weight 1 and t of weight 2, every polynomial the package builds is
weight-homogeneous.  So a BivariatePolynomial keeps each grade w = a + 2b of
its terms s^a*t^b as one dense run of integer coefficients indexed by b,
{w: (b0, [c_b0, c_b0+1, ...])}, with no zero at either end of a run: a
product is one convolution per pair of grades, a sum adds aligned runs.
UnivariatePolynomial, the target of substitutions such as s -> q + 1,
t -> -q, is the same polynomial in s alone, rendered in q.

This module also reads back the packed form that carries a
weight-homogeneous polynomial as one integer of base-2^B digits,
B = _bit_width(a digit bound): its value at s = 1, t = 2^B, which the gf
tiling walk builds from the closed forms' recurrence and _unpack reads.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping

from .errors import IndivisibleError

TermMap = Mapping[tuple[int, int], int]


class BivariatePolynomial:
    """Immutable polynomial in s and t over arbitrary-precision integers."""

    __slots__ = ("_runs",)

    def __init__(self, terms: TermMap | Iterable[tuple[tuple[int, int], int]] = ()):
        self._runs: dict[int, tuple[int, list[int]]] = {}
        for (a, b), c in terms.items() if isinstance(terms, Mapping) else terms:
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in term ({a}, {b})")
            if c:
                _add_run(self._runs, *self._encode(a, b), [c])

    @classmethod
    def _from_runs(cls, runs: dict[int, tuple[int, list[int]]]):
        # already-trimmed runs become the polynomial, unchecked
        result = object.__new__(cls)
        result._runs = runs
        return result

    # s^a*t^b sits at index b of grade a + 2b, and back
    _encode = staticmethod(lambda a, b: (a + 2 * b, b))
    _decode = staticmethod(lambda w, i: (w - 2 * i, i))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def const(cls, c: int):
        # both index maps put the constant term at index 0 of grade 0
        return cls._from_runs({0: (0, [c])} if c else {})

    @classmethod
    def monomial(cls, a: int, b: int, c: int = 1) -> BivariatePolynomial:
        return cls({(a, b): c})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._runs

    def __bool__(self) -> bool:
        return bool(self._runs)

    def _items(self):
        # every nonzero term as (a, b, coefficient), in layout order
        for w, (i0, run) in self._runs.items():
            yield from ((*self._decode(w, i), c) for i, c in enumerate(run, i0) if c)

    def terms(self) -> list[tuple[int, int, int]]:
        """All terms as (a, b, coefficient), in canonical order."""
        return sorted(self._items(), reverse=True)

    def coefficient(self, a: int, b: int) -> int:
        w, i = self._encode(a, b)
        i0, run = self._runs.get(w, (0, ()))
        return run[i - i0] if 0 <= i - i0 < len(run) else 0

    def leading(self) -> tuple[int, int, int]:
        """Leading term under the lexicographic order with s > t."""
        if not self._runs:
            raise ValueError("the zero polynomial has no leading term")
        return max(self._items())

    def __eq__(self, other: object) -> bool:
        other = _as_poly(self, other)
        return NotImplemented if other is NotImplemented else self._runs == other._runs

    def __hash__(self) -> int:
        # a constant hashes as its integer, which it also equals
        c = self.coefficient(0, 0)
        runs = frozenset((w, i0, *run) for w, (i0, run) in self._runs.items())
        return hash(c) if self == c else hash(runs)

    # -- ring operations ---------------------------------------------------
    # Results keep the class of self; the other operand must share it or be
    # an int, so the two polynomial classes never mix.

    def __add__(self, other):
        other = _as_poly(self, other)
        if other is NotImplemented:
            return NotImplemented
        runs = dict(self._runs)
        for w, (i0, run) in other._runs.items():
            _add_run(runs, w, i0, run)
        return self._from_runs(runs)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = _as_poly(self, other)
        return NotImplemented if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _as_poly(self, other)
        return NotImplemented if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        other = _as_poly(self, other)
        if other is NotImplemented:
            return NotImplemented
        runs: dict[int, tuple[int, list[int]]] = {}
        for w1, (i1, run1) in self._runs.items():
            for w2, (i2, run2) in other._runs.items():
                _add_run(runs, w1 + w2, i1 + i2, _convolve(run1, run2))
        return self._from_runs(runs)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        base, acc = self, self.one()
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    def exact_div(self, divisor):
        """Exact quotient self / divisor; raises IndivisibleError if inexact.

        Long division by grades from the top.  The remainder's top run is
        divided by the divisor's top run from the low-index end (the s-power
        end, where every Lucas factorial is monic): the quotient run's length
        is fixed, and it is exact only if each step divides and nothing is
        left.  The quotient run times the divisor's lower grades is then taken
        off the remainder's lower grades, so every step drops the top grade.
        """
        if type(divisor) is not type(self):
            raise TypeError("exact_div needs a divisor of the same class")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        top = max(divisor._runs)
        d0, drun = divisor._runs[top]
        n = len(drun)
        lower = self._from_runs({w: r for w, r in divisor._runs.items() if w != top})
        rem, quot = dict(self._runs), {}
        while rem:
            i0, run = rem.pop(w := max(rem))
            run, qrun, size = list(run), [], len(run) - n + 1
            for i in range(size):
                q, r = divmod(run[i], drun[0])
                if r:
                    break
                run[i : i + n] = [x - q * y for x, y in zip(run[i : i + n], drun)]
                qrun.append(q)
            qw, q0 = w - top, i0 - d0
            # a quotient term with a negative exponent is no polynomial either
            ends = self._decode(qw, q0) + self._decode(qw, q0 + size - 1)
            if any(run) or min(ends) < 0:
                # no operand's text, whose length grows with its coefficients
                raise IndivisibleError(f"inexact division: grade {w} leaves a remainder")
            quot[qw] = (q0, qrun)
            if lower:
                part = lower * self._from_runs({qw: (q0, qrun)})
                rem = (self._from_runs(rem) - part)._runs
        return self._from_runs(quot)

    # -- evaluation and substitution ----------------------------------------

    def eval_int(self, s0: int, t0: int) -> int:
        """Exact integer value at s = s0, t = t0."""
        return sum(c * s0**a * t0**b for a, b, c in self._items())

    def subst_univar(
        self, s_sub: UnivariatePolynomial, t_sub: UnivariatePolynomial
    ) -> UnivariatePolynomial:
        """Expand self(s_sub(q), t_sub(q)) exactly."""
        total = UnivariatePolynomial.zero()
        spow, tpow = [UnivariatePolynomial.one()], [UnivariatePolynomial.one()]
        for a, b, c in self.terms():
            term = _power(s_sub, a, spow) * _power(t_sub, b, tpow)
            total = total + term * c
        return total

    # -- text and JSON forms -------------------------------------------------

    _names = ("s", "t")  # the variables of a term's exponents a and b

    def canonical_text(self) -> str:
        """Deterministic rendering, e.g. "s^3 + 2*s*t"; zero renders as "0"."""
        return "".join(self._pieces("text"))

    def latex(self) -> str:
        """LaTeX rendering in canonical order, e.g. "s^{3} + 2 s t"."""
        return "".join(self._pieces("latex"))

    def _pieces(self, fmt: str, names: tuple[str, ...] = ()):
        """self in fmt, "text", "latex" or "json", a term to a piece: joined,
        they are canonical_text(), latex() or json.dumps(to_json_dict()).
        Zero powers are dropped, a power of 1 is written bare, and a
        coefficient of magnitude 1 is left out unless the term is a constant."""
        if fmt == "json":
            key, items = self._json_items()
            yield f'{{"{key}": ['
            yield from (f", {item}" if i else item for i, item in enumerate(items))
            yield "]}"
            return
        latex, first = fmt == "latex", True
        for a, b, c in self.terms() or [(0, 0, 0)]:  # zero renders as "0"
            factors = [] if c in (1, -1) else [str(abs(c))]
            factors += (var if p == 1 else f"{var}^{{{p}}}" if latex else f"{var}^{p}"
                        for var, p in zip(names or self._names, (a, b)) if p)
            sign = ("-" if c < 0 else "") if first else (" - " if c < 0 else " + ")
            yield sign + ((" " if latex else "*").join(factors) or "1")
            first = False

    def _json_items(self):
        return "terms", (f'[{a}, {b}, "{c}"]' for a, b, c in self.terms())

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
        chunks = re.split(r"\s+([+-])\s+", src[1:].lstrip() if negate_first else src)
        signs = ["-" if negate_first else "+"] + chunks[1::2]
        return BivariatePolynomial(
            _parse_term(chunk, sign == "-") for chunk, sign in zip(chunks[::2], signs)
        )

    def to_json_dict(self) -> dict:
        """The documented JSON form: terms as [a, b, coefficient-string]."""
        return {"terms": [[a, b, str(c)] for a, b, c in self.terms()]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> BivariatePolynomial:
        return cls({(int(a), int(b)): int(c) for a, b, c in doc["terms"]})


def _add_run(runs: dict, w: int, i0: int, run: list[int]) -> None:
    """Add run, starting at index i0, into grade w of runs, trimming zero ends.
    A run stored whole is shared, not copied: runs are never mutated."""
    if w in runs:
        j0, old = runs[w]
        lo = min(i0, j0)
        out = [0] * (max(i0 + len(run), j0 + len(old)) - lo)
        for k, add in ((j0 - lo, old), (i0 - lo, run)):
            out[k : k + len(add)] = [x + y for x, y in zip(out[k : k + len(add)], add)]
        i0, run = lo, out
    start, stop = 0, len(run)
    while start < stop and not run[start]:
        start += 1
    while stop > start and not run[stop - 1]:
        stop -= 1
    if start == stop:
        runs.pop(w, None)
    else:
        runs[w] = (i0 + start, run if stop - start == len(run) else run[start:stop])


def _convolve(x: list[int], y: list[int]) -> list[int]:
    """The product of two runs: each entry of the shorter one adds a scaled
    copy of the longer one into the output."""
    x, y = sorted((x, y), key=len)
    n = len(y)
    out = [0] * (len(x) + n - 1)
    for i, c in enumerate(x):
        if c:
            out[i : i + n] = [o + c * v for o, v in zip(out[i : i + n], y)]
    return out


def _unpack(value: int, weight: int, bits: int) -> BivariatePolynomial:
    """The polynomial of grade weight whose value at s = 1, t = 2^bits is
    value, given that each of its coefficients is below 2^bits: they are the
    base-2^bits digits of value."""
    if value < 0:
        raise ValueError("a packed polynomial is nonnegative")
    run = _digits(value, bits)
    if len(run) > weight // 2 + 1:
        raise ValueError(f"{len(run)} digits do not fit grade {weight}")
    return _graded(weight, run)


def _graded(weight: int, run: list[int]) -> BivariatePolynomial:
    """The grade-weight polynomial with run[b] the coefficient of s^(weight-2b)*t^b."""
    runs: dict[int, tuple[int, list[int]]] = {}
    _add_run(runs, weight, 0, run)
    return BivariatePolynomial._from_runs(runs)


def _bit_width(bound: int) -> int:
    # the digit width that holds every integer 0..bound
    return max(1, bound.bit_length())


def _digits(value: int, bits: int) -> list[int]:
    """The base-2^bits digits of value >= 0, lowest first, through its top
    nonzero one.  Each digit is read from the bytes it overlaps, so the split
    takes time linear in the size of value for any width."""
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
    mask = (1 << bits) - 1
    return [
        (int.from_bytes(raw[i // 8 : (i + bits + 7) // 8], "little") >> i % 8) & mask
        for i in range(0, value.bit_length(), bits)
    ]


_TERM_FACTOR = re.compile(r"(\d+)|([st])(?:\^(\d+))?")


def _parse_term(chunk: str, negate: bool) -> tuple[tuple[int, int], int]:
    found: dict[str, int] = {}  # "c", "s" or "t" -> its value or power
    for factor in chunk.split("*"):
        match = _TERM_FACTOR.fullmatch(factor.strip())
        if not match:
            raise ValueError(f"malformed term {chunk!r}")
        digits, var, power = match.groups()
        if (var or "c") in found:
            raise ValueError(f"repeated factor in term {chunk!r}")
        found[var or "c"] = int(digits or power or 1)
    c = found.get("c", 1)
    return (found.get("s", 0), found.get("t", 0)), -c if negate else c


def _as_poly(like: BivariatePolynomial, value: object):
    """value as a polynomial of like's class; an int becomes a constant, and
    any other value (the other polynomial class too) gives NotImplemented."""
    if type(value) is type(like):
        return value
    return like.const(value) if isinstance(value, int) else NotImplemented


def _power(base, exponent: int, powers: list):
    """base**exponent, where powers lists base**0, base**1, ... and is
    extended as far as needed."""
    while len(powers) <= exponent:
        powers.append(powers[-1] * base)
    return powers[exponent]


class UnivariatePolynomial(BivariatePolynomial):
    """Immutable polynomial in one variable, q by convention.

    It is a BivariatePolynomial in s alone, rendered in q, so every ring
    operation is inherited.  It never mixes with BivariatePolynomial: such
    arithmetic raises TypeError, and the two classes never compare equal.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int] = ()):
        self._runs = {}
        _add_run(self._runs, 0, 0, list(coeffs))

    # s^p (that is, q^p) sits at index p of grade 0: the grade is the t-power
    _encode = staticmethod(lambda a, b: (b, a))
    _decode = staticmethod(lambda w, i: (i, w))
    _names = ("q",)  # b is 0 in every term

    @classmethod
    def monomial(cls, power: int, c: int = 1) -> UnivariatePolynomial:
        if power < 0:
            raise ValueError("power must be nonnegative")
        return cls._from_runs({0: (power, [c])} if c else {})

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients indexed by exponent; empty for the zero polynomial."""
        i0, run = self._runs.get(0, (0, []))
        return (0,) * i0 + tuple(run)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff_at(self, i: int) -> int:
        return self.coefficient(i, 0)

    def eval_at(self, x: int) -> int:
        return self.eval_int(x, 0)

    def canonical_text(self, var: str = "q") -> str:
        """Deterministic rendering, highest power first, e.g. "q^2 + q + 1"."""
        return "".join(self._pieces("text", (var,)))

    def __repr__(self) -> str:
        return f"UnivariatePolynomial({self.coeffs!r})"

    def to_json_dict(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    def _json_items(self):
        return "coeffs", (f'"{c}"' for c in self.coeffs)

    @classmethod
    def from_json_dict(cls, doc: dict) -> UnivariatePolynomial:
        return cls(int(c) for c in doc["coeffs"])


ZERO = BivariatePolynomial.zero()
ONE = BivariatePolynomial.one()
TWO = BivariatePolynomial.const(2)
S = BivariatePolynomial.monomial(1, 0)
T = BivariatePolynomial.monomial(0, 1)
