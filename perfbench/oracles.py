"""Integer oracles for the outputs of benchmark jobs.

Every check here is computed from integers only (Fibonacci numbers,
binomials, q-integers at q = 2) and parses the program's output with its own
parser, so it shares no code with the program under test.  A check raises
OracleError with a one-line reason when an output is wrong.
"""

from __future__ import annotations

import json
import math
import re


class OracleError(AssertionError):
    """A job's output failed a bench-owned check."""


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas_number(n: int) -> int:
    return fib(n - 1) + fib(n + 1) if n else 2


def fibonomial(n: int, k: int) -> int:
    num = math.prod(fib(n - k + i) for i in range(1, k + 1))
    den = math.prod(fib(i) for i in range(1, k + 1))
    if num % den:
        raise ArithmeticError(f"fibonomial ({n}, {k}) is not an integer")
    return num // den


def q_binomial_at_2(n: int, k: int) -> int:
    num = math.prod((1 << (n - k + i)) - 1 for i in range(1, k + 1))
    den = math.prod((1 << i) - 1 for i in range(1, k + 1))
    return num // den


# -- parsing -----------------------------------------------------------------

_FACTOR = re.compile(r"^(?:(\d+)|([stq])(?:\^\{?(\d+)\}?)?)$")


def parse_poly(text: str, fmt: str, variables: str = "st") -> dict[tuple, int]:
    """Exponent tuple -> coefficient, from the text, latex or json form."""
    text = text.strip()
    if fmt == "json":
        doc = json.loads(text)
        if variables == "q":
            return {(i,): int(c) for i, c in enumerate(doc["coeffs"]) if int(c)}
        return {(int(a), int(b)): int(c) for a, b, c in doc["terms"]}
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    chunks = re.split(r" ([+-]) ", text)
    terms: dict[tuple, int] = {}
    for i in range(0, len(chunks), 2):
        if i:
            sign = -1 if chunks[i - 1] == "-" else 1
        coeff, exps = 1, dict.fromkeys(variables, 0)
        for factor in re.split(r"[* ]", chunks[i]):
            match = _FACTOR.match(factor)
            if not match or (match[2] and match[2] not in variables):
                raise OracleError(f"unparsable factor {factor!r} in {fmt} output")
            if match[1]:
                coeff *= int(match[1])
            else:
                exps[match[2]] += int(match[3] or 1)
        key = tuple(exps[v] for v in variables)
        if key in terms:
            raise OracleError(f"repeated term {key} in {fmt} output")
        terms[key] = sign * coeff
    return terms


def evaluate(terms: dict[tuple, int], *point: int) -> int:
    return sum(c * math.prod(x**e for x, e in zip(point, key)) for key, c in terms.items())


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise OracleError(reason)


def _lines(out: str) -> list[str]:
    _require(out.endswith("\n"), "output does not end with a newline")
    return out[:-1].split("\n") if out != "\n" else [""]


# -- coefficient and sequence outputs ------------------------------------------

def check_coefficient(n: int, k: int, terms: dict[tuple, int]) -> None:
    """C(n, k): fibonomial at s=t=1, binomial at (2, -1), weight k(n-k)."""
    where = f"C({n},{k})"
    _require(all(c > 0 for c in terms.values()), f"{where} has a nonpositive coefficient")
    _require(sum(terms.values()) == fibonomial(n, k), f"{where} at s=t=1 is not the fibonomial")
    _require(evaluate(terms, 2, -1) == math.comb(n, k), f"{where} at (2,-1) is not binomial({n},{k})")
    _require(
        all(a + 2 * b == k * (n - k) for a, b in terms),
        f"{where} has a term of weight other than {k * (n - k)}",
    )


def check_lucasnomial(n: int, k: int, fmt: str, out: str) -> None:
    (line,) = _lines(out)
    check_coefficient(n, k, parse_poly(line, fmt))


def check_table(rows: int, fmt: str, out: str) -> None:
    if fmt == "json":
        table = [[parse_poly(json.dumps(e), "json") for e in row] for row in json.loads(out)["rows"]]
    else:
        joiner = " & " if fmt == "latex" else " | "
        table = [[parse_poly(e, fmt) for e in line.split(joiner)] for line in _lines(out)]
    _require(len(table) == rows + 1, f"table has {len(table)} rows, expected {rows + 1}")
    for n, row in enumerate(table):
        _require(len(row) == n + 1, f"table row {n} has {len(row)} entries")
        for k, terms in enumerate(row):
            check_coefficient(n, k, terms)


def check_factorial(n: int, fmt: str, out: str) -> None:
    (line,) = _lines(out)
    terms = parse_poly(line, fmt)
    _require(sum(terms.values()) == math.prod(fib(i) for i in range(1, n + 1)),
             f"F({n})! at s=t=1 is not the Fibonacci factorial")
    _require(evaluate(terms, 2, -1) == math.factorial(n), f"F({n})! at (2,-1) is not {n}!")
    _require(all(a + 2 * b == n * (n - 1) // 2 for a, b in terms),
             f"F({n})! has a term of the wrong weight")


def check_probe(out: str) -> None:
    _require(out == "1\n", f"lucas F 1 printed {out!r}")


def check_qbinomial(n: int, k: int, fmt: str, out: str) -> None:
    (line,) = _lines(out)
    terms = parse_poly(line, fmt, variables="q")
    where = f"qbinomial({n},{k})"
    _require(evaluate(terms, 2) == q_binomial_at_2(n, k), f"{where} at q=2 is wrong")
    _require(evaluate(terms, 1) == math.comb(n, k), f"{where} at q=1 is not binomial({n},{k})")
    _require(max(terms)[0] == k * (n - k), f"{where} has degree other than {k * (n - k)}")


# -- verify runs ---------------------------------------------------------------

_SUMMARY = re.compile(r"^(\w+): (\d+) cases over .*, (\d+) failed$")


def lemma1_cases(m_max: int, n_max: int) -> int:
    return 2 * m_max * (n_max + 1)


def recursion_cases(bound: int) -> int:
    return sum(
        2 + (2 if n else 0) for m in range(1, bound + 1) for n in range(bound - m + 1)
    )


def theorem_cases(m_max: int, n_max: int, flavor: str) -> int:
    return (m_max + 1) * (n_max + 1) * (2 if flavor == "both" else 1)


def check_verify(identity: str, cases: int, fmt: str, out: str) -> None:
    if fmt == "json":
        (line,) = _lines(out)
        doc = json.loads(line)
        _require(doc["identity"] == identity, f"verify ran {doc['identity']}, expected {identity}")
        _require(doc["cases_checked"] == cases,
                 f"verify checked {doc['cases_checked']} cases, expected {cases}")
        _require(doc["passed"] is True and doc["failures"] == [], "verify reports failures")
        return
    *lines, summary = _lines(out)
    match = _SUMMARY.match(summary)
    _require(match is not None, f"verify summary line {summary!r} not recognised")
    _require(match[1] == identity, f"verify ran {match[1]}, expected {identity}")
    _require(int(match[2]) == cases, f"verify checked {match[2]} cases, expected {cases}")
    _require(match[3] == "0", f"verify reports {match[3]} failed")
    _require(len(lines) == cases and all(l.startswith("PASS ") for l in lines),
             "verify did not print one PASS line per case")


# -- materialized enumerations ---------------------------------------------------

def tiling_count(kind: str, n: int) -> int:
    if kind == "linear":
        return fib(n + 1)
    if kind == "nolead":
        return fib(n - 1) if n else 1
    return lucas_number(n) if n else 1


def check_tilings(kind: str, n: int, out: str) -> None:
    lines = _lines(out)
    _require(len(lines) == tiling_count(kind, n),
             f"{kind} {n} listed {len(lines)} tilings, expected {tiling_count(kind, n)}")
    _require(len(set(lines)) == len(lines), f"{kind} {n} lists a tiling twice")
    for line in lines:
        tiles_text, weight_text = line.split("\t")
        tiles = [] if tiles_text == "(empty)" else tiles_text.split(" ")
        wrap = tiles[:1] == ["(D)"]
        body = tiles[1:] if wrap else tiles
        _require(set(body) <= {"M", "D"} and (not wrap or kind == "circular"),
                 f"bad tiling {tiles_text!r}")
        _require(kind != "nolead" or body[:1] != ["M"], f"nolead tiling {tiles_text!r} starts with M")
        monos, doms = body.count("M"), body.count("D") + wrap
        _require(monos + 2 * doms == n, f"tiling {tiles_text!r} does not cover {n} squares")
        weight = 2 if kind == "circular" and not tiles else 1
        _require(parse_poly(weight_text, "text") == {(monos, doms): weight},
                 f"tiling {tiles_text!r} has weight {weight_text!r}")


def check_partitions(m: int, n: int, out: str) -> None:
    lines = _lines(out)
    _require(len(lines) == math.comb(m + n, m),
             f"{m}x{n} listed {len(lines)} partitions, expected {math.comb(m + n, m)}")
    _require(len(set(lines)) == len(lines), f"{m}x{n} lists a partition twice")
    for line in lines:
        part_text, comp_text = line.split("\t")
        parts = [int(p) for p in part_text[1:-1].split(",") if p]
        comp = [int(p) for p in comp_text[1:-1].split(",") if p]
        _require(len(parts) == m and all(n >= a >= b >= 0 for a, b in zip([n] + parts, parts)),
                 f"{part_text} is not a partition in {m}x{n}")
        _require(comp == [sum(1 for p in parts if p < c) for c in range(n, 0, -1)],
                 f"{comp_text} is not the complement of {part_text}")


def check_refusal(out: str) -> None:
    _require(out == "ResourceError\n", f"expected a ResourceError refusal, got {out!r}")
