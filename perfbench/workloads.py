"""Seeded job lists for the three benchmark workloads.

A job is one fresh-interpreter invocation: a `lucasnomial` CLI call, or a
public-API call made by child.py where the CLI cannot reach the path.  The
seed draws the job order and choices that leave a pass's work and its largest
job nearly unchanged (the side of k, formats, narrow bands for the small
jobs, permutations): the benchmark compares medians across seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracles

FORMATS = ("text", "json", "latex")
METHODS = ("quotient", "rec-fib", "rec-luc")


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]  # CLI arguments, or ("refuse", m, n, budget) with lib=True
    check: Callable[[str], None]
    lib: bool = False
    twin: bool = False  # one of a grid's serial and --parallel runs


# The startup probe: every CLI call pays interpreter start, import and parsing.
PROBE = Job("lucas F 1", ("lucas", "F", "1"), oracles.check_probe)


def _cli(check, *args) -> Job:
    args = tuple(str(a) for a in args)
    return Job(" ".join(args), args, check)


def _verify(identity: str, cases: int, *args, twin: bool = False) -> Job:
    args = ("verify", identity) + tuple(str(a) for a in args)
    fmt = args[args.index("--format") + 1] if "--format" in args else "text"
    return Job(" ".join(args), args, partial(oracles.check_verify, identity, cases, fmt),
               twin=twin)


def coeffs(rng: random.Random, smoke: bool) -> list[Job]:
    """Coefficient and sequence queries on big operands."""
    start = rng.randrange(3)
    formats = itertools.cycle(FORMATS[start:] + FORMATS[:start])

    # The big jobs' sizes are fixed, so a pass's work and its peak RSS do not
    # depend on the seed; it draws the side of k, which gives the same cost.
    jobs = []
    for method in METHODS:
        for n in (9, 11) if smoke else (60, 64):
            k, f = n // 2 + rng.choice((-2, 2)), next(formats)
            jobs.append(_cli(partial(oracles.check_lucasnomial, n, k, f),
                             "lucasnomial", n, k, "--method", method, "--format", f))
    n, f = rng.randint(*((6, 8) if smoke else (58, 62))), next(formats)
    jobs.append(_cli(partial(oracles.check_factorial, n, f), "lucas", "factorial", n, "--format", f))
    rows, f = rng.randint(*((5, 7) if smoke else (29, 31))), next(formats)
    jobs.append(_cli(partial(oracles.check_table, rows, f), "table", rows, "--format", f))
    n, f = rng.randint(*((6, 8) if smoke else (34, 36))), next(formats)
    k = n // 2 + rng.choice((-1, 0, 1))
    jobs.append(_cli(partial(oracles.check_qbinomial, n, k, f),
                     "specialize", n, k, "--preset", "qbinomial", "--format", f))
    bound = 6 if smoke else 24
    jobs.append(_verify("recursions", oracles.recursion_cases(bound),
                        "--m-max", bound, "--n-max", bound))
    side = 4 if smoke else 20
    jobs.append(_verify("lemma1", oracles.lemma1_cases(side, side),
                        "--m-max", side, "--n-max", side))
    rng.shuffle(jobs)
    return jobs


def theorem_gf(rng: random.Random, smoke: bool) -> list[Job]:
    """`verify theorem --mode gf` grids, each serial and with --parallel."""
    # Both orientations of the split next to the diagonal of M+N = 14: the
    # two cost different amounts, so neither is left to the seed.  The seed
    # draws each job's output format and the order.
    m, n = (2, 3) if smoke else (6, 8)
    jobs = []
    for grid in ((m, n), (n, m)):
        for extra in ((), ("--parallel",)):
            fmt = rng.choice(("text", "json"))
            jobs.append(_verify("theorem", oracles.theorem_cases(*grid, "both"),
                                "--m-max", grid[0], "--n-max", grid[1], "--mode", "gf",
                                "--format", fmt, *extra, twin=True))
    rng.shuffle(jobs)
    return jobs


def enumerate_(rng: random.Random, smoke: bool) -> list[Job]:
    """The materializing paths: enumerate-mode sums, listings, the refusal."""
    small, large = (2, 3) if smoke else (4, 5)
    jobs = [
        _verify("theorem", oracles.theorem_cases(small, small, "both"),
                "--m-max", small, "--n-max", small, "--mode", "enumerate"),
        _verify("theorem", oracles.theorem_cases(large, large, "linear"),
                "--m-max", large, "--n-max", large, "--mode", "enumerate",
                "--flavor", "linear"),
    ]
    # The three kinds get a permutation of the band's sizes, so the total
    # listing length barely depends on the seed.
    sizes = rng.sample((4, 5, 6) if smoke else (16, 18, 20), 3)
    for kind, n in zip(("linear", "nolead", "circular"), sizes):
        jobs.append(_cli(partial(oracles.check_tilings, kind, n), "tilings", kind, n, "--weights"))
    total = 6 if smoke else 16
    m = total // 2 + rng.choice((-1, 0, 1))
    jobs.append(_cli(partial(oracles.check_partitions, m, total - m),
                     "partitions", m, total - m, "--complement"))
    # 9x9 is over the default pair budget; the CLI would enumerate every
    # smaller case first, so the refusal is reached through the library.
    refuse = ("refuse", "3", "3", "1") if smoke else ("refuse", "9", "9", "")
    jobs.append(Job("rhs_linear %s %s enumerate refused" % refuse[1:3], refuse,
                    oracles.check_refusal, lib=True))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"coeffs": coeffs, "theorem-gf": theorem_gf, "enumerate": enumerate_}


def jobs_for(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)
