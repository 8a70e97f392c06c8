from lucasnomial import BivariatePolynomial, CaseResult, IdentityReport
from lucasnomial.poly import ONE, S


def _case(passed: bool) -> CaseResult:
    return CaseResult(
        key=("demo", 1, 1),
        label="demo m=1 n=1",
        passed=passed,
        lhs=S,
        rhs=S if passed else ONE,
    )


def test_passing_report():
    report = IdentityReport("demo", "m=n=1", (_case(True), _case(True)))
    assert report.passed
    assert report.failures == ()
    assert report.cases_checked == 2
    assert report.summary() == "demo: 2 cases over m=n=1, 0 failed"


def test_failing_report_records_counterexample():
    report = IdentityReport("demo", "m=n=1", (_case(True), _case(False)))
    assert not report.passed
    assert len(report.failures) == 1
    doc = report.to_dict()
    assert doc["passed"] is False
    assert doc["failures"] == [{"case": "demo m=1 n=1", "lhs": "s", "rhs": "1"}]
    assert report.failures[0].line() == "FAIL demo m=1 n=1"


def test_case_line_prefixes():
    assert _case(True).line() == "PASS demo m=1 n=1"


def test_json_document_round_trips():
    import json

    report = IdentityReport("demo", "m=n=1", (_case(False),))
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["identity"] == "demo"
    assert doc["cases_checked"] == 1
    assert BivariatePolynomial.parse(doc["failures"][0]["lhs"]) == S


def test_a_streamed_report_counts_the_passes_it_let_go():
    kept = IdentityReport("demo", "m=n=1", (_case(False),), passes_not_kept=2)
    whole = IdentityReport("demo", "m=n=1", (_case(True), _case(False), _case(True)))
    assert kept.cases_checked == whole.cases_checked == 3
    assert kept.summary() == whole.summary() == "demo: 3 cases over m=n=1, 1 failed"
    assert kept.to_dict() == whole.to_dict()
