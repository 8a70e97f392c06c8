"""Structured pass/fail bookkeeping for identity verification runs."""

from __future__ import annotations

from ._record import Record


class CaseResult(Record):
    """Outcome of one identity instance: family name plus the parameters."""

    __slots__ = __match_args__ = _fields = ("key", "label", "passed", "lhs", "rhs")

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.label}"


def _case(key: tuple, label: str, lhs, rhs) -> CaseResult:
    """The verdict on one identity instance: it passes when lhs == rhs."""
    return CaseResult(key, label, lhs == rhs, lhs, rhs)


class IdentityReport(Record):
    """The cases of one verification run.  A streamed run may keep only its
    failures in `cases` and count the passing cases it let go in
    `passes_not_kept`; the summary and the JSON form read nothing else."""

    __slots__ = __match_args__ = _fields = (
        "identity", "parameter_range", "cases", "passes_not_kept"
    )
    _defaults = (0,)

    @property
    def failures(self) -> tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if not c.passed)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def cases_checked(self) -> int:
        return len(self.cases) + self.passes_not_kept

    def summary(self) -> str:
        return (
            f"{self.identity}: {self.cases_checked} cases over "
            f"{self.parameter_range}, {len(self.failures)} failed"
        )

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "parameter_range": self.parameter_range,
            "cases_checked": self.cases_checked,
            "passed": self.passed,
            "failures": [
                {
                    "case": c.label,
                    "lhs": c.lhs.canonical_text(),
                    "rhs": c.rhs.canonical_text(),
                }
                for c in self.failures
            ],
        }
