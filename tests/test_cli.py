import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest

from lucasnomial import (
    BivariatePolynomial,
    DomainError,
    UnivariatePolynomial,
    cli,
    interpretations,
    lucas,
    lucas_F,
    partitions,
    specializations,
    table,
    tilings,
    via_quotient,
)
from lucasnomial.cli import main
from lucasnomial.interpretations import PAIR_BUDGET
from lucasnomial.tilings import LINEAR, _count


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_lucas_text():
    code, out, _ = run("lucas", "F", "4")
    assert code == 0
    assert out == "s^3 + 2*s*t\n"


def test_lucas_json_round_trips():
    code, out, _ = run("lucas", "factorial", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert BivariatePolynomial.from_json_dict(doc) == BivariatePolynomial.parse(
        "s^6 + 3*s^4*t + 2*s^2*t^2"
    )


def test_lucas_latex():
    code, out, _ = run("lucas", "F", "4", "--format", "latex")
    assert code == 0
    assert out == "s^{3} + 2 s t\n"
    assert run("lucas", "F", "0", "--format", "latex") == (0, "0\n", "")


def test_lucasnomial_methods_agree():
    outputs = set()
    for method in ("quotient", "rec-fib", "rec-luc"):
        code, out, _ = run("lucasnomial", "4", "2", "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {"s^4 + 3*s^2*t + 2*t^2\n"}


def test_lucasnomial_recursions_run_deep():
    # row 600 is past the interpreter's default recursion depth
    expected = lucas_F(600).canonical_text() + "\n"
    for method in ("rec-fib", "rec-luc"):
        assert run("lucasnomial", "600", "599", "--method", method) == (0, expected, "")


def test_lucasnomial_out_of_range_prints_zero():
    code, out, _ = run("lucasnomial", "4", "5")
    assert code == 0
    assert out == "0\n"


def test_table_text():
    code, out, _ = run("table", "2")
    assert code == 0
    assert out == "1\n1 | 1\n1 | s | 1\n"


def test_table_latex():
    code, out, _ = run("table", "5", "--format", "latex")
    assert code == 0
    assert out.splitlines()[-1] == (
        "1 & s^{4} + 3 s^{2} t + t^{2} & s^{6} + 5 s^{4} t + 7 s^{2} t^{2} + 2 t^{3}"
        " & s^{6} + 5 s^{4} t + 7 s^{2} t^{2} + 2 t^{3} & s^{4} + 3 s^{2} t + t^{2} & 1"
    )


def test_table_json():
    code, out, _ = run("table", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    assert BivariatePolynomial.from_json_dict(rows[3][1]) == BivariatePolynomial.parse(
        "s^2 + t"
    )
    # written a row at a time, in the bytes of one json.dumps of the document
    assert out == json.dumps({"rows": rows}) + "\n"
    assert run("table", "0", "--format", "json") == (
        0, '{"rows": [[{"terms": [[0, 0, "1"]]}]]}\n', ""
    )


def _reference(value, fmt):
    # the whole rendering in one string, as the public forms give it
    if isinstance(value, int):
        return json.dumps({"value": str(value)}) if fmt == "json" else str(value)
    if fmt == "json":
        return json.dumps(value.to_json_dict())
    return value.latex() if fmt == "latex" else value.canonical_text()


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("args, value", [
    # F(700) has 350 terms, so its output spans two blocks
    (("lucas", "F", "700"), lambda: lucas_F(700)),
    (("lucas", "F", "0"), lambda: lucas_F(0)),
    (("lucas", "L", "9"), lambda: lucas.lucas_L(9)),
    (("lucas", "factorial", "7"), lambda: lucas.lucas_factorial(7)),
    (("lucasnomial", "9", "4", "--method", "rec-luc"), lambda: via_quotient(9, 4)),
    (("lucasnomial", "5", "9"), lambda: BivariatePolynomial.zero()),
    (("specialize", "8", "3", "--preset", "qbinomial"),
     lambda: specializations.specialize(8, 3, specializations.QBINOMIAL)),
    (("specialize", "8", "3", "--preset", "fibonomial"), lambda: 1092),
    # at s = 0, t = -1 the coefficient is negative
    (("specialize", "7", "2", "--preset", "lnomial", "--ell", "0"), lambda: -3),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_a_printed_value_is_its_whole_rendering(args, value, fmt):
    assert run(*args, "--format", fmt) == (0, _reference(value(), fmt) + "\n", "")


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("max_row", range(9))
def test_a_printed_table_is_its_whole_rendering(max_row, fmt):
    rows = table(max_row).rows
    if fmt == "json":
        expected = json.dumps({"rows": [[p.to_json_dict() for p in row] for row in rows]})
    else:
        joiner = " & " if fmt == "latex" else " | "
        expected = "\n".join(joiner.join(_reference(p, fmt) for p in row) for row in rows)
    assert run("table", str(max_row), "--format", fmt) == (0, expected + "\n", "")


def test_tilings_with_weights():
    code, out, _ = run("tilings", "linear", "3", "--weights")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    weights = sorted(line.split("\t")[1] for line in lines)
    assert weights == ["s*t", "s*t", "s^3"]


def test_tilings_nolead_1_is_empty():
    code, out, _ = run("tilings", "nolead", "1")
    assert code == 0
    assert out == ""


def test_tilings_circular_marks_wrap():
    code, out, _ = run("tilings", "circular", "3")
    assert code == 0
    assert "(D) M" in out.splitlines()


def test_partitions_with_complement():
    code, out, _ = run("partitions", "1", "1", "--complement")
    assert code == 0
    assert out == "[0]\t[1]\n[1]\t[0]\n"


@pytest.mark.parametrize("kind", sorted(cli._TILING_KINDS))
def test_tiling_listing_lines_equal_the_object_rendering(kind):
    # the lines are built from raw rows; the objects render them their way
    strip = getattr(tilings, cli._TILING_KINDS[kind])
    for n in range(13):
        objects = list(tilings.iter_tilings(strip, n))
        plain = "".join(t.text() + "\n" for t in objects)
        weighted = "".join(
            t.text() + "\t" + t.weight().canonical_text() + "\n" for t in objects
        )
        assert run("tilings", kind, str(n)) == (0, plain, ""), n
        assert run("tilings", kind, str(n), "--weights") == (0, weighted, ""), n


def test_partition_listing_lines_equal_the_object_rendering():
    # the long thin rectangles hold parts, or complement parts, of 100 and more
    small = [(m, n) for m in range(7) for n in range(7)]
    for m, n in small + [(1, 120), (120, 1), (2, 100), (100, 2)]:
        objects = list(partitions.iter_in_rect(m, n))
        plain = "".join(p.text() + "\n" for p in objects)
        paired = "".join(
            p.text() + "\t" + p.complement().text() + "\n" for p in objects
        )
        assert run("partitions", str(m), str(n)) == (0, plain, ""), (m, n)
        args = ("partitions", str(m), str(n), "--complement")
        assert run(*args) == (0, paired, ""), (m, n)


def test_verify_theorem_passes():
    code, out, _ = run(
        "verify", "theorem", "--m-max", "3", "--n-max", "3", "--mode", "enumerate"
    )
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("theorem: 32 cases")


def test_verify_lemma1_passes():
    code, out, _ = run("verify", "lemma1", "--m-max", "4", "--n-max", "4")
    assert code == 0
    assert out.splitlines()[-1].startswith("lemma1: 40 cases")


def test_verify_recursions_passes():
    code, out, _ = run("verify", "recursions", "--m-max", "6", "--n-max", "6")
    assert code == 0
    assert out.splitlines()[-1].startswith("recursions:")
    code, out, _ = run("verify", "recursions", "--m-max", "3")
    assert code == 0
    assert out.splitlines()[-1] == (
        "recursions: 18 cases over m>=1, n>=0, m+n<=3, 0 failed"
    )


def test_verify_json_round_trips():
    code, out, _ = run(
        "verify", "theorem", "--m-max", "2", "--n-max", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["cases_checked"] == 18
    assert doc["failures"] == []


def test_verify_parallel_output_is_identical():
    base = run("verify", "theorem", "--m-max", "3", "--n-max", "2")
    par = run("verify", "theorem", "--m-max", "3", "--n-max", "2", "--parallel")
    assert base == par


def test_identical_invocations_identical_bytes():
    first = run("tilings", "circular", "6", "--weights")
    second = run("tilings", "circular", "6", "--weights")
    assert first == second


_LEMMA1_LINES = [
    f"PASS lemma1 {sum_} m={m} n={n}"
    for m, n in ((1, 0), (1, 1), (2, 0), (2, 1))
    for sum_ in ("F-sum", "2F-sum")
]
_RECURSION_LINES = [
    f"PASS {case} m={m} n={n}"
    for m, n in ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0))
    for case in (
        (("rec-fib", "rec-luc doubled") if n else ())
        + ("lemma1 F-sum", "lemma1 2F-sum")
    )
]
_THEOREM_LINES = [
    f"PASS theorem circular m={m} n={n} mode=gf" for m in (0, 1) for n in (0, 1, 2)
]
_VERIFY_GOLDENS = {
    ("lemma1", "--m-max", "2", "--n-max", "1"): _LEMMA1_LINES
    + ["lemma1: 8 cases over 1<=m<=2, 0<=n<=1, 0 failed"],
    ("lemma1", "--m-max", "2", "--n-max", "1", "--format", "json"): [
        '{"identity": "lemma1", "parameter_range": "1<=m<=2, 0<=n<=1", '
        '"cases_checked": 8, "passed": true, "failures": []}'
    ],
    ("recursions", "--m-max", "3"): _RECURSION_LINES
    + ["recursions: 18 cases over m>=1, n>=0, m+n<=3, 0 failed"],
    ("recursions", "--m-max", "3", "--format", "json"): [
        '{"identity": "recursions", "parameter_range": "m>=1, n>=0, m+n<=3", '
        '"cases_checked": 18, "passed": true, "failures": []}'
    ],
    ("theorem", "--m-max", "1", "--n-max", "2", "--flavor", "circular"): _THEOREM_LINES
    + [
        "theorem: 6 cases over 0<=m<=1, 0<=n<=2, flavor=circular, mode=gf, 0 failed"
    ],
    (
        "theorem", "--m-max", "1", "--n-max", "2", "--flavor", "circular",
        "--format", "json",
    ): [
        '{"identity": "theorem", "parameter_range": '
        '"0<=m<=1, 0<=n<=2, flavor=circular, mode=gf", '
        '"cases_checked": 6, "passed": true, "failures": []}'
    ],
}


_PARSER_ARGVS = [
    ["--help"],
    ["-h", "verify"],
    [],
    ["nonsense", "3"],
    ["verify", "bogus"],
    ["lucas", "F"],
    ["lucas", "F", "3", "--bogus"],
    ["specialize", "5", "2"],
    *([name, "--help"] for name in cli._SUBPARSERS),
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_the_parser_for_argv_prints_what_the_whole_parser_does(argv):
    def parse(parser):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            with pytest.raises(SystemExit) as exit_:
                parser.parse_args(argv)
        return exit_.value.code, out.getvalue(), err.getvalue()

    assert parse(cli.build_parser(argv)) == parse(cli.build_parser())


def test_a_subcommand_builds_only_its_own_parser(monkeypatch):
    def refuse(sub):
        raise AssertionError("built a subparser the command cannot reach")

    for name in cli._SUBPARSERS:
        if name != "lucas":
            monkeypatch.setitem(cli._SUBPARSERS, name, refuse)
    assert run("lucas", "F", "3") == (0, "s^2 + t\n", "")


@pytest.mark.parametrize("argv", list(_VERIFY_GOLDENS), ids=" ".join)
def test_verify_golden_bytes(argv):
    expected = "".join(line + "\n" for line in _VERIFY_GOLDENS[argv])
    assert run("verify", *argv) == (0, expected, "")


def test_verify_failure_exits_1(monkeypatch):
    from lucasnomial.poly import ONE, S
    from lucasnomial.reports import CaseResult, IdentityReport

    def broken(m, n):
        case = CaseResult(("lemma1-F", m, n), f"lemma1 F-sum m={m} n={n}", False, S, ONE)
        return IdentityReport("lemma1", f"m={m}, n={n}", (case,))

    monkeypatch.setattr(interpretations, "check_lemma1", broken)
    code, out, _ = run("verify", "lemma1", "--m-max", "1", "--n-max", "0")
    assert code == 1
    assert out.splitlines()[0] == "FAIL lemma1 F-sum m=1 n=0"
    assert out.splitlines()[-1].endswith("1 failed")


def test_verify_theorem_failure_exits_1(monkeypatch):
    from lucasnomial.poly import S

    monkeypatch.setattr(interpretations, "via_quotient", lambda n, k: S)
    code, out, _ = run("verify", "theorem", "--m-max", "0", "--n-max", "1")
    assert code == 1
    assert out == (
        "FAIL theorem linear m=0 n=0 mode=gf\n"
        "FAIL theorem circular m=0 n=0 mode=gf\n"
        "FAIL theorem linear m=0 n=1 mode=gf\n"
        "FAIL theorem circular m=0 n=1 mode=gf\n"
        "theorem: 4 cases over 0<=m<=0, 0<=n<=1, flavor=both, mode=gf, 4 failed\n"
    )
    code, out, _ = run(
        "verify", "theorem", "--m-max", "0", "--n-max", "1", "--format", "json"
    )
    assert code == 1
    assert len(json.loads(out)["failures"]) == 4


@pytest.mark.parametrize("length", [0, 2])
def test_verify_theorem_checks_the_gf_closed_forms(monkeypatch, length):
    # the walk's closed-form values are checked, not assumed: one circular
    # length's value off by 1 fails exactly the circular cases with a row or
    # a complement column of that length
    values = interpretations._gf_values

    def off_by_one(kind, top, t):
        out = values(kind, top, t)
        if kind == tilings.CIRCULAR and top >= length:
            out[length] += 1
        return out

    monkeypatch.setattr(interpretations, "_gf_values", off_by_one)
    code, out, _ = run("verify", "theorem", "--m-max", "4", "--n-max", "4")
    uses = [
        (m, n)
        for m in range(5)
        for n in range(5)
        if any(
            length in part.parts + part.complement().parts
            for part in partitions.enumerate_in_rect(m, n)
        )
    ]
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL theorem circular m={m} n={n} mode=gf" for m, n in uses
    ]
    assert out.splitlines()[-1].endswith(f", {len(uses)} failed")


def test_verify_summary_counts_passes_it_does_not_keep(monkeypatch):
    from lucasnomial.poly import S

    # only the m = 0 column fails: C(n, 0) = 1, never S
    real = interpretations.via_quotient
    monkeypatch.setattr(
        interpretations, "via_quotient", lambda n, k: S if k == 0 else real(n, k)
    )
    code, out, _ = run("verify", "theorem", "--m-max", "1", "--n-max", "1")
    assert code == 1
    assert out.splitlines()[-1] == (
        "theorem: 8 cases over 0<=m<=1, 0<=n<=1, flavor=both, mode=gf, 4 failed"
    )
    code, out, _ = run(
        "verify", "theorem", "--m-max", "1", "--n-max", "1", "--format", "json"
    )
    doc = json.loads(out)
    assert code == 1
    assert (doc["cases_checked"], doc["passed"]) == (8, False)
    assert [f["case"] for f in doc["failures"]] == [
        f"theorem {name} m=0 n={n} mode=gf"
        for n in (0, 1)
        for name in ("linear", "circular")
    ]


def test_verify_memory_does_not_grow_with_the_grid(monkeypatch):
    # each case is dropped once printed and counted, unless it failed.  The
    # stub gives every cell two fresh cases of one small size, so the grid's
    # side alone sets what keeping them would cost: the 7320 cases of 60 x 60
    # would take about nine times the room of the 840 of 20 x 20
    from lucasnomial.reports import IdentityReport, _case

    def cell(m, n):
        cases = (
            _case((f"lemma1-{f}", m, n), f"lemma1 {f}-sum m={m} n={n}", 1, 1)
            for f in ("F", "2F")
        )
        return IdentityReport("lemma1", f"m={m}, n={n}", tuple(cases))

    monkeypatch.setattr(interpretations, "check_lemma1", cell)

    def peak(side):
        tracemalloc.start()
        try:
            argv = ("verify", "lemma1", "--m-max", side, "--n-max", side)
            assert run(*argv, "--format", "json")[0] == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the first run fills the parser, imports and free lists; a collection
    # may empty the free lists, whose refill would then count as growth, and
    # the cases form no cycles, so none is needed
    gc.disable()
    try:
        peak("60")
        small, big = peak("20"), peak("60")
    finally:
        gc.enable()
    assert big < 1.5 * small


def test_verify_prints_each_case_as_it_finishes(monkeypatch):
    check_lemma1 = interpretations.check_lemma1

    def stop_at_second_cell(m, n):
        if (m, n) == (1, 1):
            raise DomainError("stopped after the first cell")
        return check_lemma1(m, n)

    monkeypatch.setattr(interpretations, "check_lemma1", stop_at_second_cell)
    code, out, err = run("verify", "lemma1", "--m-max", "1", "--n-max", "1")
    assert code == 2
    assert out == "PASS lemma1 F-sum m=1 n=0\nPASS lemma1 2F-sum m=1 n=0\n"
    assert err == "error: stopped after the first cell\n"


def test_empty_verify_grids_are_refused():
    # a grid with no cases would otherwise report "0 failed" and exit 0
    for args, rng in (
        (("lemma1", "--m-max", "0"), "1<=m<=0, 0<=n<=12"),
        (("recursions", "--m-max", "0"), "m>=1, n>=0, m+n<=0"),
    ):
        for fmt in ("text", "json"):
            code, out, err = run("verify", *args, "--format", fmt)
            assert (code, out) == (2, "")
            assert err == f"error: the grid {rng} has no cases\n"


def test_budget_exceeded_exits_3():
    code, _, err = run(
        "verify", "theorem", "--m-max", "2", "--n-max", "2",
        "--mode", "enumerate", "--budget", "3",
    )
    assert code == 3
    assert "budget" in err


def test_over_budget_grid_is_refused_before_any_case(monkeypatch):
    def refuse(*args):
        raise AssertionError("a case ran before the grid's budget check")

    # the enumerate sum runs through _code_counts; iter_pairs lists pairs
    for name in ("_code_counts", "iter_pairs"):
        monkeypatch.setattr(interpretations, name, refuse)
    code, out, err = run(
        "verify", "theorem", "--m-max", "9", "--n-max", "9", "--mode", "enumerate"
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: enumeration of (3, 8) circular_pair predicts 10444600 tiling "
        "pairs, over the budget of 10000000; use gf mode\n"
    )


@pytest.mark.parametrize("n_max", ["1000", "1000000000"])
def test_enumerate_refusal_names_the_first_case_past_a_long_edge(n_max):
    # the cells of the m = 0 edge hold one pair each and are not priced
    code, out, err = run(
        "verify", "theorem", "--m-max", "1", "--n-max", n_max, "--mode", "enumerate"
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: enumeration of (1, 32) circular_pair predicts 12752041 tiling "
        "pairs, over the budget of 10000000; use gf mode\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ("tilings", "linear", "35"),
        ("tilings", "linear", "100"),
        ("tilings", "nolead", "37"),
        ("tilings", "circular", "100000000"),
        ("partitions", "13", "13"),
        ("partitions", "40", "40"),
        ("partitions", "1000000000", "1000000000"),
        ("tilings", "linear", "40"),
        ("tilings", "nolead", "1000000000"),
        ("tilings", "circular", "1000000000"),
    ],
)
def test_over_budget_listing_is_refused(args):
    flags = ("--weights",) if args[0] == "tilings" else ("--complement",)
    for extra in ((), flags):
        code, out, err = run(*args, *extra)
        assert (code, out) == (3, "")
        assert err == (
            f"error: {' '.join(args)} would list more than 10000000 lines, "
            "the listing budget\n"
        )


@pytest.mark.parametrize(
    "args, length",
    [
        (("partitions", "1000000000", "0"), 1000000000),
        (("partitions", "10000001", "0"), 10000001),
        (("partitions", "0", "1000000000", "--complement"), 1000000000),
        (("partitions", "0", "10000001", "--complement"), 10000001),
        (("partitions", "10000001", "0", "--complement"), 10000001),
    ],
)
def test_over_budget_line_is_refused(monkeypatch, args, length):
    # one line of the listing would hold more parts than the budget
    def refuse(*args):
        raise AssertionError("a partition was built before the line check")

    # the listing's lines come from _listing_lines, not from iter_in_rect
    monkeypatch.setattr(partitions, "_listing_lines", refuse)
    code, out, err = run(*args)
    assert (code, out) == (3, "")
    assert err == (
        f"error: {' '.join(args)} would list a line of {length} parts, "
        "more than 10000000, the listing budget\n"
    )


def test_largest_listings_in_budget_still_list(monkeypatch):
    # checked by count only: listing 9,227,465 tilings with weights takes
    # about 25 s in a fresh process
    assert _count(LINEAR, 34) == 9_227_465 <= PAIR_BUDGET < _count(LINEAR, 35)
    assert comb(24, 12) <= PAIR_BUDGET < comb(26, 13)
    listed = []

    def record(*args):
        listed.append(args)
        return iter(())

    # the generators the listings consume
    monkeypatch.setattr(tilings, "_listing_lines", record)
    monkeypatch.setattr(partitions, "_listing_lines", record)
    assert run("tilings", "linear", "34", "--weights") == (0, "", "")
    assert run("partitions", "12", "12", "--complement") == (0, "", "")
    assert run("partitions", "12", "13") == (0, "", "")
    # the longest lines in budget: m parts, plus n with the complement
    assert run("partitions", "10000000", "0") == (0, "", "")
    assert run("partitions", "0", "10000000", "--complement") == (0, "", "")
    assert run("partitions", "0", "1000000000") == (0, "", "")
    assert listed == [
        (LINEAR, 34, True), (12, 12, True), (12, 13, False), (10000000, 0, False),
        (0, 10000000, True), (0, 1000000000, False),
    ]


@pytest.mark.parametrize("args, head", [
    ("tilings linear 25", b"D D D D D D D D D D D D M\n"),
    ("tilings linear 10", b""),
    # F(6000) is 2.75 MB of text, far more than a pipe holds, so the pipe
    # closes while its blocks of terms are still being written
    ("lucas F 6000", b"s^5999 + 5998*s^5997*t"),
    # the tilings cases keep their earlier ids
], ids=["25-D D D D D D D D D D D D M\n", "10-None", "lucas F 6000"])
def test_closed_pipe_exits_141_quietly(args, head):
    # the reader takes the first bytes, or none, and closes the pipe, as
    # `| head` does.  stdout is block-buffered, as it is on a pipe by default,
    # so the 89 tilings of length 10 are still in its buffer when it closes.
    src = Path(cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lucasnomial", *args.split()],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_specialize_fibonomial():
    code, out, _ = run("specialize", "5", "2", "--preset", "fibonomial")
    assert code == 0
    assert out == "15\n"
    code, out, _ = run("specialize", "6", "3", "--preset", "fibonomial", "--format", "json")
    assert code == 0
    assert out == '{"value": "60"}\n'


def test_specialize_qbinomial():
    code, out, _ = run("specialize", "3", "1", "--preset", "qbinomial")
    assert code == 0
    assert out == "q^2 + q + 1\n"
    code, out, _ = run("specialize", "6", "3", "--preset", "qbinomial", "--format", "latex")
    assert code == 0
    assert out == (
        "q^{9} + q^{8} + 2 q^{7} + 3 q^{6} + 3 q^{5} + 3 q^{4} + 3 q^{3} + 2 q^{2} + q + 1\n"
    )


def test_specialize_qbinomial_json():
    code, out, _ = run("specialize", "4", "2", "--preset", "qbinomial", "--format", "json")
    assert code == 0
    assert UnivariatePolynomial.from_json_dict(json.loads(out)) == UnivariatePolynomial(
        (1, 1, 2, 1, 1)
    )


def test_specialize_lnomial():
    code, out, _ = run("specialize", "2", "1", "--preset", "lnomial", "--ell", "2")
    assert code == 0
    assert out == "2\n"
    code, out, _ = run(
        "specialize", "6", "3", "--preset", "lnomial", "--ell", "-3", "--format", "latex"
    )
    assert code == 0
    assert out == "-6930\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit cap before Python 3.10.7"
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_values_past_the_int_text_cap_print_in_full(fmt):
    ell = 10**50
    cap = sys.get_int_max_str_digits()
    code, out, err = run(
        "specialize", "20", "10", "--preset", "lnomial", "--ell", str(ell), "--format", fmt
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == cap
    text = json.loads(out)["value"] if fmt == "json" else out.removesuffix("\n")
    assert len(text) > cap
    sys.set_int_max_str_digits(0)
    try:
        assert int(text) == via_quotient(20, 10).eval_int(ell, -1)
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit cap before Python 3.10.7"
)
def test_argv_keeps_the_int_text_cap():
    # the cap is lifted only after parsing, so a huge --ell is still refused
    huge = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(SystemExit) as exit_:
        run("specialize", "2", "1", "--preset", "lnomial", "--ell", huge)
    assert exit_.value.code == 2


def test_specialize_lnomial_requires_ell():
    code, out, err = run("specialize", "2", "1", "--preset", "lnomial")
    assert (code, out, err) == (2, "", "error: --preset lnomial requires --ell\n")


@pytest.mark.parametrize("preset", ["fibonomial", "qbinomial"])
def test_specialize_ell_needs_the_lnomial_preset(preset):
    code, out, err = run("specialize", "5", "2", "--preset", preset, "--ell", "3")
    assert (code, out, err) == (2, "", "error: --ell applies only to --preset lnomial\n")


def test_specialize_out_of_range_is_usage_error():
    code, _, err = run("specialize", "3", "4", "--preset", "fibonomial")
    assert code == 2
    assert "error" in err


def test_usage_errors_exit_2():
    for argv in (["lucas", "F", "-3"], ["nonsense"], ["tilings", "diagonal", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
