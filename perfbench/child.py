"""One benchmark job process: a CLI call under tracing, or a library call.

    python perfbench/child.py [--trace] cli ARGS...
    python perfbench/child.py [--trace] refuse M N [BUDGET]

`cli` runs `lucasnomial.cli.main(ARGS)`; without --trace the harness runs
`python -m lucasnomial ARGS` directly instead.  `refuse` calls
`rhs_linear(M, N, mode="enumerate")` and prints the name of the error it
raises, or "returned".  With --trace the span tables go to stderr as the last
line, prefixed with TRACE_PREFIX.
"""

from __future__ import annotations

import json
import sys

TRACE_PREFIX = "PERFBENCH-TRACE "
CACHED = ("coefficients.via_quotient", "coefficients.via_recursion_fib")


def _refuse(m: str, n: str, budget: str = "") -> int:
    from lucasnomial import ResourceError, interpretations

    kwargs = {"budget": int(budget)} if budget else {}
    try:
        interpretations.rhs_linear(int(m), int(n), mode="enumerate", **kwargs)
    except ResourceError:
        print("ResourceError")
    else:
        print("returned")
    return 0


def _cli(*args: str) -> int:
    from lucasnomial import cli

    return cli.main(list(args))


def main(argv: list[str]) -> int:
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    command, *args = argv
    run = {"cli": _cli, "refuse": _refuse}[command]
    if not trace:
        return run(*args)

    import spans

    tracer = spans.Tracer()
    originals = spans.install(tracer)
    try:
        return run(*args)
    finally:
        sys.stdout.flush()
        table, counters, maxima = tracer.tables()
        sums = dict(counters)
        for name, (calls, self_s) in table.items():
            sums[f"{name}.calls"] = calls
            sums[f"{name}.self_s"] = self_s
        for name in CACHED:
            info = originals[name].cache_info()
            sums[f"{name}.hits"] = info.hits
            sums[f"{name}.misses"] = info.misses
        sys.stderr.write(TRACE_PREFIX + json.dumps({"sum": sums, "max": maxima}) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
