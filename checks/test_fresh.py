"""Fresh-process checks: each runs one `python -m lucasnomial` command and
bounds its peak RSS (ROADMAP aim 3).

Run with `python -m pytest -q checks`. They take a few seconds each and are
not part of Tier-1.
"""

import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Linux charges a new process's peak RSS with the peak of the process it was
# started from, so each command is spawned from this small `python -S`
# launcher.  It reports the command's own peak and kills it at 60 s.
LAUNCHER = """
import os, signal, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(60)
try:
    _, status, usage = os.wait4(pid, 0)
except BaseException:
    os.kill(pid, signal.SIGKILL)
    raise
signal.alarm(0)
sys.stderr.write(f"\\n{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


@pytest.fixture(autouse=True, scope="module")
def compiled():
    # compiling a module from source moves a command's peak
    compileall.compile_dir(SRC, quiet=1)


def fresh(*args):
    """Stdout, stderr and peak RSS in MB of `python -m lucasnomial *args`,
    which must exit 0."""
    cmd = [sys.executable, "-S", "-c", LAUNCHER, sys.executable, "-m", "lucasnomial", *args]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    err, _, report = proc.stderr.rpartition("\n")
    code, rss_kb = map(int, report.split())
    assert code == 0, f"{' '.join(args)} exited {code}:\n{err}"
    return proc.stdout, err, rss_kb / 1024


def test_the_peak_is_the_commands_own():
    # read through RUSAGE_CHILDREN, the command's peak would include these 100 MB
    ballast = bytearray(b"\1") * (100 << 20)
    _, _, peak = fresh("lucas", "F", "1")
    assert peak < 16
    del ballast


def test_a_long_enumerate_grid_keeps_no_tiling_pools():
    out, _, peak = fresh("verify", "theorem", "--m-max", "1", "--n-max", "26",
                         "--mode", "enumerate", "--flavor", "linear")
    assert out.splitlines()[-1] == (
        "theorem: 54 cases over 0<=m<=1, 0<=n<=26, flavor=linear, mode=enumerate, 0 failed"
    )
    assert peak < 45


@pytest.mark.parametrize("n, k", [(64, 30), (60, 28), (200, 10), (120, 60)])
def test_the_recursion_routes_print_what_the_quotient_route_prints(n, k):
    expected, _, _ = fresh("lucasnomial", str(n), str(k), "--method", "quotient")
    for method in ("rec-fib", "rec-luc"):
        out, _, peak = fresh("lucasnomial", str(n), str(k), "--method", method)
        assert out == expected, f"{method} differs from quotient"
        assert peak < 60, f"{method} peaked at {peak:.1f} MB"


def test_the_qbinomial_and_the_fibonomial_at_120_60():
    n, k = 120, 60

    def run(preset):
        out, _, peak = fresh("specialize", str(n), str(k), "--preset", preset,
                             "--format", "json")
        assert peak < 25, f"{preset} peaked at {peak:.1f} MB"
        return json.loads(out)

    coeffs = [int(c) for c in run("qbinomial")["coeffs"]]
    assert len(coeffs) == k * (n - k) + 1 == 3601
    # at q = 2, the product of (2^(n-k+i) - 1)/(2^i - 1) over i = 1..k
    num = den = 1
    for i in range(1, k + 1):
        num, den = num * (2 ** (n - k + i) - 1), den * (2**i - 1)
    assert num % den == 0 and sum(c << i for i, c in enumerate(coeffs)) == num // den
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    num = den = 1
    for i in range(1, k + 1):
        num, den = num * fib[n - k + i], den * fib[i]
    assert num % den == 0 and int(run("fibonomial")["value"]) == num // den


@pytest.mark.parametrize("m, n, cases", [(0, 400, 802), (1, 200, 804)])
def test_a_gf_grid_with_a_long_edge(m, n, cases):
    out, _, peak = fresh("verify", "theorem", "--m-max", str(m), "--n-max", str(n),
                         "--mode", "gf")
    assert out.splitlines()[-1] == (
        f"theorem: {cases} cases over 0<=m<={m}, 0<=n<={n}, flavor=both, mode=gf, 0 failed"
    )
    assert peak < 19


@pytest.mark.parametrize("args, last", [
    ("verify theorem --m-max 6 --n-max 8 --mode gf",
     "theorem: 126 cases over 0<=m<=6, 0<=n<=8, flavor=both, mode=gf, 0 failed"),
    ("verify theorem --m-max 4 --n-max 4 --mode enumerate",
     "theorem: 50 cases over 0<=m<=4, 0<=n<=4, flavor=both, mode=enumerate, 0 failed"),
    # the last of the F(21) linear tilings: twenty monominoes
    ("tilings linear 20 --weights", " ".join(["M"] * 20) + "\ts^20"),
], ids=["gf", "enumerate", "tilings"])
def test_a_cli_path_loads_no_dataclasses(monkeypatch, args, last):
    # the import-time profile lists on stderr every module the process imports
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    out, err, peak = fresh(*args.split())
    assert out.splitlines()[-1] == last
    assert "dataclasses" not in {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
    assert peak < 16


@pytest.mark.parametrize("args, lines, last", [
    # L(24) circular tilings, the last with the wrap domino and 22 monominoes
    ("tilings circular 24 --weights", 103682, "(D) " + " ".join(["M"] * 22) + "\ts^22*t"),
    # C(20, 10) partitions, the last filling the box
    ("partitions 10 10 --complement", 184756,
     "[10,10,10,10,10,10,10,10,10,10]\t[0,0,0,0,0,0,0,0,0,0]"),
], ids=["tilings", "partitions"])
def test_a_large_listing_streams(args, lines, last):
    out, _, peak = fresh(*args.split())
    assert out.count("\n") == lines
    assert out.endswith(f"\n{last}\n")
    assert peak < 20


def test_F_and_L_6000_from_their_closed_forms():
    f_text, _, f_peak = fresh("lucas", "F", "6000")
    l_json, _, l_peak = fresh("lucas", "L", "6000", "--format", "json")
    # every coefficient is positive, so the text splits on " + "
    heads = (term.split("*")[0] for term in f_text.split(" + "))
    f_sum = sum(int(h) if h.strip().isdigit() else 1 for h in heads)
    l_sum = sum(int(c) for _, _, c in json.loads(l_json)["terms"])
    fib, luc = (0, 1), (2, 1)
    for _ in range(6000):
        fib, luc = (fib[1], sum(fib)), (luc[1], sum(luc))
    assert (f_sum, l_sum) == (fib[0], luc[0]), "a coefficient sum is not F(6000) or L(6000)"
    # printed a block of terms at a time: the whole text took 21 and 27 MB
    assert f_peak < 20 and l_peak < 20


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_table_40_as_json_streams():
    out, _, peak = fresh("table", "40", "--format", "json")
    rows = json.loads(out)["rows"]
    assert len(rows) == 41
    # at s = t = 1 an entry is the fibonomial F(40)...F(41-k)/(F(1)...F(k))
    top = bottom = 1
    for k, entry in enumerate(rows[40]):
        assert sum(int(c) for _, _, c in entry["terms"]) == top // bottom, k
        top, bottom = top * _fib(40 - k), bottom * _fib(k + 1)
    # the document written whole, or a row at a time, took 19.8 MB
    assert peak < 18.5


def test_factorial_90_as_json_streams():
    out, _, peak = fresh("lucas", "factorial", "90", "--format", "json")
    total = 1
    for i in range(1, 91):
        total *= _fib(i)
    assert sum(int(c) for _, _, c in json.loads(out)["terms"]) == total
    # json.dumps of the whole document took 20.9 MB
    assert peak < 19
