"""Benchmark of the lucasnomial CLI: cold-process jobs with checked outputs.

    python3 perfbench/run.py --workload {coeffs,theorem-gf,enumerate}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is imported from its
`src/`.  Every job runs in a fresh interpreter, one after another (a closed
loop with one client), because the package's memos are process-global and
a CLI user never sees them warm.  Passes over the seeded job list repeat
until --seconds is used up.  Every output is checked by the integer oracles
in oracles.py; a wrong output, a wrong exit code or a job killed at its
timeout counts as failed.

--trace 0 reports the end-to-end metrics:
  wall_s       sum over the jobs of each job's median wall time: one pass
  setup_s      median wall time of a fresh `python -m lucasnomial lucas F 1`
  peak_rss_mb  largest peak RSS of any job process, from its own rusage
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes (see README.md), plus trace_overhead.
--smoke runs one pass at toy sizes through the same oracles.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  failed/attempted is the failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import oracles
from child import TRACE_PREFIX
from workloads import PROBE, WORKLOADS, Job, jobs_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"  # each run's job output files
JOB_TIMEOUT = 60.0
RUN_LIMIT = 150.0  # the whole run ends well inside its 180 s allowance
PROBES_PER_PASS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit; the per-layer metrics of a traced run
PER_LAYER = {
    "poly.mul.calls": "count",
    "poly.mul.self_s": "s",
    "poly.mul.term_products": "count",
    "poly.mul.max_terms": "count",
    "poly.exact_div.calls": "count",
    "poly.exact_div.self_s": "s",
    "poly.exact_div.term_products": "count",
    "poly.add.calls": "count",
    "poly.add.self_s": "s",
    "poly.canonical_text.self_s": "s",
    "poly.to_json_dict.self_s": "s",
    "poly.subst_univar.self_s": "s",
    "poly.max_coeff_bits": "bits",
    "lucas.lucas_F.calls": "count",
    "lucas.lucas_L.calls": "count",
    "lucas.lucas_factorial.calls": "count",
    "lucas.self_s": "s",
    "lucas.check_lemma1.self_s": "s",
    "coefficients.via_quotient.calls": "count",
    "coefficients.via_quotient.self_s": "s",
    "coefficients.via_quotient.hit_ratio": "ratio",
    "coefficients.via_recursion_fib.calls": "count",
    "coefficients.via_recursion_fib.self_s": "s",
    "coefficients.via_recursion_fib.hit_ratio": "ratio",
    "coefficients.via_recursion_luc.self_s": "s",
    "coefficients.table.self_s": "s",
    "specializations.specialize.self_s": "s",
    "partitions.enumerate_in_rect.calls": "count",
    "partitions.enumerate_in_rect.self_s": "s",
    "partitions.enumerate_in_rect.partitions": "count",
    "partitions.complement.calls": "count",
    "partitions.complement.self_s": "s",
    "tilings.gf.calls": "count",
    "tilings.gf.self_s": "s",
    "tilings.enumerate_tilings.self_s": "s",
    "tilings.enumerate_tilings.tilings": "count",
    "tilings.weight_exponents.calls": "count",
    "tilings.weight_exponents.self_s": "s",
    "interpretations.rhs_linear.self_s": "s",
    "interpretations.rhs_circular.self_s": "s",
    "interpretations.iter_pairs.pairs": "count",
    "interpretations.iter_pairs.self_s": "s",
    "interpretations.predicted_pair_count.calls": "count",
    "interpretations.predicted_pair_count.self_s": "s",
    "interpretations.theorem_cases.self_s": "s",
    "interpretations.recursion_task_cases.self_s": "s",
    "reports.self_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.cpu_s": "s",
    "cli.verify_parallel_ratio": "ratio",
    "trace_overhead": "ratio",
}

# per-layer metrics summed over several spans
_SUMMED = {
    "lucas.self_s": ("lucas.lucas_F", "lucas.lucas_L", "lucas.lucas_factorial"),
    "reports.self_s": ("reports.line", "reports.summary", "reports.to_dict"),
}
_MAXIMA = ("poly.mul.max_terms", "poly.max_coeff_bits")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    trace: dict | None
    ok: bool


def job_env() -> dict[str, str]:
    """Jobs import the package from src/, with a fixed hash seed."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class Runner:
    """Runs jobs in fresh interpreters, checks them and counts failures.

    Jobs are started by launcher.py, so that their peak RSS is their own.
    Use as a context manager; leaving it stops the launcher."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = job_env()
        self.attempted = 0
        self.failures: list[str] = []
        OUT.mkdir(parents=True, exist_ok=True)
        self._out = Path(tempfile.mkdtemp(dir=OUT))
        self._launcher = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=JOB_TIMEOUT)
        self._launcher.stdout.close()
        shutil.rmtree(self._out)

    def command(self, job: Job, traced: bool) -> list[str]:
        if job.lib or traced:
            mode = ["--trace"] if traced else []
            target = list(job.args) if job.lib else ["cli", *job.args]
            return [sys.executable, str(BENCH / "child.py"), *mode, *target]
        return [sys.executable, "-m", "lucasnomial", *job.args]

    def execute(self, argv: list[str], timeout: float) -> tuple[dict, bytes, bytes]:
        """Run argv to completion; the launcher's report, stdout, stderr."""
        paths = {"stdout": str(self._out / "stdout"), "stderr": str(self._out / "stderr")}
        request = dict(paths, argv=argv, env=self.env, timeout=timeout)
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise SetupError("the job launcher exited")
        report = json.loads(line)
        return report, Path(paths["stdout"]).read_bytes(), Path(paths["stderr"]).read_bytes()

    def run(self, job: Job, traced: bool = False) -> Outcome:
        self.attempted += 1
        timeout = min(JOB_TIMEOUT, self.deadline - time.monotonic())
        if timeout <= 0:
            return self._fail(job, "not started: the run's time limit was reached")
        report, out, err = self.execute(self.command(job, traced), timeout)
        outcome = Outcome(report["wall"], report["cpu"], report["rss_kb"] / 1024, out, None, False)
        if report["killed"]:
            return self._fail(job, f"killed at its {timeout:.0f} s timeout", outcome)
        if report["rc"] != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            return self._fail(job, f"exit code {report['rc']} {tail}", outcome)
        if traced:
            lines = err.decode().splitlines()
            if not lines or not lines[-1].startswith(TRACE_PREFIX):
                return self._fail(job, "traced job printed no span tables", outcome)
            outcome.trace = json.loads(lines[-1][len(TRACE_PREFIX):])
        try:
            job.check(out.decode())
        except (oracles.OracleError, ValueError, KeyError) as exc:
            return self._fail(job, f"{type(exc).__name__}: {exc}", outcome)
        outcome.ok = True
        return outcome

    def _fail(self, job: Job, reason: str, outcome: Outcome | None = None) -> Outcome:
        self.failures.append(f"{job.name}: {reason}")
        return outcome or Outcome(0.0, 0.0, 0.0, b"", None, False)


def check_checkout(runner: Runner) -> None:
    """Fail unless the package under src/ is the one every job imports; this
    also compiles its bytecode before anything is timed."""
    probe = [sys.executable, "-c", "import lucasnomial; print(lucasnomial.__file__)"]
    report, out, err = runner.execute(probe, JOB_TIMEOUT)
    where = Path(out.decode().strip() or ".").resolve()
    if report["rc"] != 0 or where != SRC / "lucasnomial" / "__init__.py":
        raise SetupError(f"jobs import lucasnomial from {where}: {err.decode().strip()}")
    if not runner.run(PROBE).ok:
        raise SetupError(f"warm-up failed: {runner.failures[-1]}")


def run_pass(runner: Runner, jobs: list[Job], traced: bool = False) -> list[Outcome]:
    return [runner.run(job, traced) for job in jobs]


def parallel_ratio(jobs: list[Job], outcomes: list[Outcome]) -> float:
    serial = parallel = 0.0
    for job, outcome in zip(jobs, outcomes):
        if job.twin:
            if "--parallel" in job.args:
                parallel += outcome.wall
            else:
                serial += outcome.wall
    return parallel / serial if serial else 0.0


def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer values of one traced pass, from every job's span tables."""
    sums: dict[str, float] = {}
    maxima: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.trace is None:
            continue
        for key, value in outcome.trace["sum"].items():
            sums[key] = sums.get(key, 0) + value
        for key, value in outcome.trace["max"].items():
            maxima[key] = max(maxima.get(key, 0), value)
    values = {}
    for name in PER_LAYER:
        if name in _SUMMED:
            values[name] = sum(sums.get(f"{span}.self_s", 0.0) for span in _SUMMED[name])
        elif name.endswith(".hit_ratio"):
            base = name[: -len(".hit_ratio")]
            hits, misses = sums.get(f"{base}.hits", 0), sums.get(f"{base}.misses", 0)
            values[name] = hits / (hits + misses) if hits + misses else 0.0
        elif name in _MAXIMA:
            values[name] = maxima.get(name, 0)
        else:
            values[name] = sums.get(name, 0)
    return values


def measure(runner: Runner, jobs: list[Job], seconds: float, smoke: bool) -> dict[str, float]:
    start = time.monotonic()
    walls: list[list[float]] = [[] for _ in jobs]
    probes: list[float] = []
    passes: list[float] = []
    peak = 0.0
    while True:
        began = time.monotonic()
        for _ in range(1 if smoke else PROBES_PER_PASS):
            probes.append(runner.run(PROBE).wall)
        for samples, outcome in zip(walls, run_pass(runner, jobs)):
            samples.append(outcome.wall)
            peak = max(peak, outcome.rss_mb)
        passes.append(time.monotonic() - began)
        if smoke or time.monotonic() - start + statistics.median(passes) > seconds:
            break
    return {
        "wall_s": sum(statistics.median(s) for s in walls),
        "setup_s": statistics.median(probes),
        "peak_rss_mb": peak,
    }


def measure_traced(runner: Runner, jobs: list[Job], seconds: float, smoke: bool) -> dict[str, float]:
    start = time.monotonic()
    rounds: list[dict[str, float]] = []
    while True:
        began = time.monotonic()
        plain = run_pass(runner, jobs)
        traced = run_pass(runner, jobs, traced=True)
        for job, a, b in zip(jobs, plain, traced):
            if a.ok and b.ok and a.stdout != b.stdout:
                runner.failures.append(f"{job.name}: traced output differs from untraced")
        values = layer_metrics(traced)
        values["cli.stdout_bytes"] = sum(len(o.stdout) for o in plain)
        values["cli.cpu_s"] = sum(o.cpu for o in plain)
        values["cli.verify_parallel_ratio"] = parallel_ratio(jobs, plain)
        plain_wall = sum(o.wall for o in plain)
        values["trace_overhead"] = sum(o.wall for o in traced) / plain_wall if plain_wall else 0.0
        rounds.append(values)
        if smoke or time.monotonic() - start + (time.monotonic() - began) > seconds:
            break
    return {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}


def run_info(args) -> dict:
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "loadavg": os.getloadavg(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "lucasnomial" / "cli.py").is_file():
        print(f"error: no lucasnomial package under {SRC}", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload, args.seed, args.smoke)
    with Runner(time.monotonic() + RUN_LIMIT) as runner:
        try:
            check_checkout(runner)
            print("# run " + json.dumps(run_info(args)), flush=True)
            if args.trace:
                values, units = measure_traced(runner, jobs, args.seconds, args.smoke), PER_LAYER
            else:
                values, units = measure(runner, jobs, args.seconds, args.smoke), END_TO_END
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    failed = len(runner.failures)
    for reason in runner.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, value in values.items():
        print(f"# {args.workload} {name} {value:.6g} {units[name]}")
    print(f"# {args.workload} failed_frac {failed / runner.attempted:.6g} ratio"
          f" ({failed} of {runner.attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
