"""Smoke test of the benchmark: every workload at toy sizes through the same
oracles, with no timing bound, and oracles fed deliberately wrong output.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import oracles
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# a metric per workload that is zero unless the workload's own layer ran
EXERCISED = {
    "coeffs": ("poly.exact_div.calls", "coefficients.via_recursion_fib.calls",
               "lucas.lucas_factorial.calls", "poly.subst_univar.self_s"),
    "theorem-gf": ("tilings.gf.calls", "partitions.complement.calls",
                   "cli.verify_parallel_ratio"),
    "enumerate": ("interpretations.iter_pairs.pairs", "tilings.enumerate_tilings.tilings",
                  "interpretations.predicted_pair_count.calls"),
}


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "1":
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def _cli_output(*args: str) -> str:
    done = subprocess.run([sys.executable, "-m", "lucasnomial", *args], cwd=ROOT,
                          env=run.job_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout


WRONG_OUTPUTS = [
    (("lucasnomial", "6", "3", "--format", "latex"),
     partial(oracles.check_lucasnomial, 6, 3, "latex"),
     lambda out: out.replace(" 22 ", " 21 ")),
    (("lucas", "factorial", "5", "--format", "json"),
     partial(oracles.check_factorial, 5, "json"),
     lambda out: out.replace('[10, 0, "1"]', '[10, 0, "2"]')),
    (("table", "4"), partial(oracles.check_table, 4, "text"),
     lambda out: out.rsplit("|", 1)[0] + "| s\n"),
    (("specialize", "5", "2", "--preset", "qbinomial"),
     partial(oracles.check_qbinomial, 5, 2, "text"),
     lambda out: out.replace("2*q^4", "q^4")),
    (("tilings", "circular", "5", "--weights"), partial(oracles.check_tilings, "circular", 5),
     lambda out: out.split("\n", 1)[1]),
    (("partitions", "2", "3", "--complement"), partial(oracles.check_partitions, 2, 3),
     lambda out: out.replace("[0,0]\t[2,2,2]", "[0,0]\t[2,2,1]")),
    (("verify", "theorem", "--m-max", "1", "--n-max", "1"),
     partial(oracles.check_verify, "theorem", 8, "text"),
     lambda out: out.replace("PASS", "FAIL", 1)),
    (("verify", "lemma1", "--m-max", "2", "--n-max", "2", "--format", "json"),
     partial(oracles.check_verify, "lemma1", 12, "json"),
     lambda out: out.replace('"cases_checked": 12', '"cases_checked": 11')),
]


@pytest.mark.parametrize("args, check, corrupt", WRONG_OUTPUTS, ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_oracle_accepts_real_output_and_catches_a_wrong_one(args, check, corrupt):
    out = _cli_output(*args)
    check(out)
    wrong = corrupt(out)
    assert wrong != out
    with pytest.raises(oracles.OracleError):
        check(wrong)


def test_runner_counts_a_wrong_output_as_failed():
    wrong = workloads.Job("lucas F 2", ("lucas", "F", "2"), oracles.check_probe)
    with run.Runner(float("inf")) as runner:
        assert not runner.run(wrong).ok
        assert runner.run(workloads.PROBE).ok
    assert runner.attempted == 2 and len(runner.failures) == 1
