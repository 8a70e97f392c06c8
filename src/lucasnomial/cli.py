"""Command-line front end.

All subcommands are deterministic: identical invocations produce identical
bytes.  Exit codes: 0 success or verified, 1 verification failure, 2 usage
error, 3 enumeration or listing budget exceeded, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice

from .errors import PAIR_BUDGET, DomainError, ResourceError

# Each subcommand imports the modules it runs inside its handler, so a call
# loads only those.  Routes and strip kinds are held by name and looked up on
# their module when called, so a rebinding of the module's name is seen.
_TILING_KINDS = {"linear": "LINEAR", "nolead": "LINEAR_NOLEAD", "circular": "CIRCULAR"}
_METHODS = {
    "quotient": "via_quotient",
    "rec-fib": "via_recursion_fib",
    "rec-luc": "via_recursion_luc",
}


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
    return value


def _print(value, fmt: str) -> None:
    """Print a polynomial of either class, or an integer, in one output format."""
    if isinstance(value, int):
        print(f'{{"value": "{value}"}}' if fmt == "json" else value)
    else:
        _write(chain(value._pieces(fmt), ("\n",)))


def _joined(sep: str, parts):
    # the pieces of each part in turn, with sep between two parts
    for i, part in enumerate(parts):
        if i:
            yield sep
        yield from part


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json", "latex"), default="text"
    )


def _lucas_parser(sub) -> None:
    p = sub.add_parser("lucas", help="print a sequence polynomial")
    p.add_argument("kind", choices=("F", "L", "factorial"))
    p.add_argument("n", type=_nonneg)
    _add_format(p)
    p.set_defaults(func=_cmd_lucas)


def _lucasnomial_parser(sub) -> None:
    p = sub.add_parser("lucasnomial", help="print a lucasnomial coefficient")
    p.add_argument("n", type=_nonneg)
    p.add_argument("k", type=int)
    p.add_argument("--method", choices=sorted(_METHODS), default="quotient")
    _add_format(p)
    p.set_defaults(func=_cmd_lucasnomial)


def _table_parser(sub) -> None:
    p = sub.add_parser("table", help="print the coefficient triangle")
    p.add_argument("n", type=_nonneg, metavar="N")
    _add_format(p)
    p.set_defaults(func=_cmd_table)


def _tilings_parser(sub) -> None:
    p = sub.add_parser("tilings", help="list tilings of a strip")
    p.add_argument("kind", choices=sorted(_TILING_KINDS))
    p.add_argument("n", type=_nonneg)
    p.add_argument("--weights", action="store_true")
    p.set_defaults(func=_cmd_tilings)


def _partitions_parser(sub) -> None:
    p = sub.add_parser("partitions", help="list partitions in a rectangle")
    p.add_argument("m", type=_nonneg)
    p.add_argument("n", type=_nonneg)
    p.add_argument("--complement", action="store_true")
    p.set_defaults(func=_cmd_partitions)


def _verify_parser(sub) -> None:
    p = sub.add_parser("verify", help="verify an identity family exhaustively")
    p.add_argument("kind", choices=("lemma1", "recursions", "theorem"))
    p.add_argument("--m-max", type=_nonneg, default=None)
    p.add_argument("--n-max", type=_nonneg, default=None)
    p.add_argument("--mode", choices=("enumerate", "gf"), default="gf")
    p.add_argument("--flavor", choices=("linear", "circular", "both"), default="both")
    # kept so existing scripts still parse; cases always run serially, since
    # threads cannot overlap this pure-Python work
    p.add_argument("--parallel", action="store_true")
    p.add_argument("--budget", type=_nonneg, default=PAIR_BUDGET)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)


def _specialize_parser(sub) -> None:
    p = sub.add_parser("specialize", help="evaluate a coefficient at a preset")
    p.add_argument("n", type=_nonneg)
    p.add_argument("k", type=int)
    p.add_argument(
        "--preset", choices=("fibonomial", "lnomial", "qbinomial"), required=True
    )
    p.add_argument("--ell", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=_cmd_specialize)


# the subcommands in help order, each with the function adding its parser
_SUBPARSERS = {
    "lucas": _lucas_parser,
    "lucasnomial": _lucasnomial_parser,
    "table": _table_parser,
    "tilings": _tilings_parser,
    "partitions": _partitions_parser,
    "verify": _verify_parser,
    "specialize": _specialize_parser,
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for argv: when argv starts with a subcommand's name, only
    that subparser is built, since no other can be reached; otherwise all
    are, for the top-level help and errors."""
    parser = argparse.ArgumentParser(
        prog="lucasnomial",
        description="Exact Lucas polynomial and lucasnomial computations, "
        "tiling enumeration, and identity verification.",
    )
    if argv and argv[0] in _SUBPARSERS:
        # the top-level usage, which an unrecognized argument still prints,
        # lists every subcommand
        metavar = "{" + ",".join(_SUBPARSERS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        _SUBPARSERS[argv[0]](sub)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in _SUBPARSERS.values():
            add(sub)
    return parser


def _cmd_lucas(args) -> int:
    from . import lucas

    seq = getattr(lucas, f"lucas_{args.kind}")  # lucas_F, lucas_L or lucas_factorial
    _print(seq(args.n), args.format)
    return 0


def _cmd_lucasnomial(args) -> int:
    from . import coefficients

    poly = getattr(coefficients, _METHODS[args.method])(args.n, args.k)
    _print(poly, args.format)
    return 0


def _cmd_table(args) -> int:
    from . import coefficients

    fmt = args.format
    sep = {"json": ", ", "latex": " & "}.get(fmt, " | ")
    rows = coefficients.table(args.n).rows
    row_pieces = (_joined(sep, (p._pieces(fmt) for p in row)) for row in rows)
    if fmt == "json":
        # the bytes of json.dumps({"rows": [[p.to_json_dict() for p in row] ...]})
        _write(chain(('{"rows": [[',), _joined("], [", row_pieces), (']]}\n',)))
    else:
        _write(chain(_joined("\n", row_pieces), ("\n",)))
    return 0


def _write(pieces, sep: str = "") -> None:
    # a listing's lines or a polynomial's terms go out in blocks of 256, one
    # write each, so no command holds its whole output at once
    pieces = iter(pieces)
    while block := list(islice(pieces, 256)):
        sys.stdout.write(sep.join(block) + sep)


def _check_listing(count: int, what: str) -> None:
    # refused before the first line; the listings share the pair budget, and
    # the count is capped there, so a huge size is refused in a few steps
    if count > PAIR_BUDGET:
        raise ResourceError(
            f"{what} would list more than {PAIR_BUDGET} lines, the listing budget"
        )


def _cmd_tilings(args) -> int:
    from . import tilings

    kind = getattr(tilings, _TILING_KINDS[args.kind])
    count = tilings._count(kind, args.n, PAIR_BUDGET)
    _check_listing(count, f"tilings {args.kind} {args.n}")
    _write(tilings._listing_lines(kind, args.n, args.weights), "\n")
    return 0


def _cmd_partitions(args) -> int:
    from . import partitions

    count = partitions._count_in_rect(args.m, args.n, PAIR_BUDGET)
    _check_listing(count, f"partitions {args.m} {args.n}")
    # a line holds m parts, and n more with the complement: one line can be
    # the long one, as in `partitions 1000000000 0`
    length = args.m + (args.n if args.complement else 0)
    if length > PAIR_BUDGET:
        flag = " --complement" if args.complement else ""
        raise ResourceError(
            f"partitions {args.m} {args.n}{flag} would list a line of {length} "
            f"parts, more than {PAIR_BUDGET}, the listing budget"
        )
    _write(partitions._listing_lines(args.m, args.n, args.complement), "\n")
    return 0


def _cmd_verify(args) -> int:
    from . import interpretations
    from .reports import IdentityReport

    if args.kind == "recursions":
        # single triangle bound m+n <= N: the larger of the flags given, else 12
        given = [b for b in (args.m_max, args.n_max) if b is not None]
        rng, cases = interpretations._recursion_grid(max(given, default=12))
    else:
        default = 12 if args.kind == "lemma1" else 5
        bounds = [default if b is None else b for b in (args.m_max, args.n_max)]
        if args.kind == "lemma1":
            rng, cases = interpretations._lemma1_grid(*bounds)
        else:
            rng, cases = interpretations._theorem_grid(
                *bounds, args.flavor, args.mode, args.budget
            )

    # only the failures are kept, so memory does not grow with the grid
    checked, failures = 0, []
    for case in cases:
        if args.format == "text":
            print(case.line())
        checked += 1
        if not case.passed:
            failures.append(case)

    report = IdentityReport(args.kind, rng, tuple(failures), checked - len(failures))
    if args.format == "json":
        import json

        print(json.dumps(report.to_dict()))
    else:
        print(report.summary())
    return 0 if report.passed else 1


def _cmd_specialize(args) -> int:
    from . import specializations

    if args.preset != "lnomial":
        if args.ell is not None:
            raise DomainError("--ell applies only to --preset lnomial")
        preset = getattr(specializations, args.preset.upper())  # FIBONOMIAL, QBINOMIAL
    elif args.ell is None:
        raise DomainError("--preset lnomial requires --ell")
    else:
        preset = specializations.lnomial(args.ell)
    value = specializations.specialize(args.n, args.k, preset)
    _print(value, args.format)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    # argv was parsed under the cap on the digits of int text (Python 3.10.7
    # on); the command runs without it, so exact values of any size print
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        if cap is not None:
            sys.set_int_max_str_digits(0)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: exit like a
        # SIGPIPE death, and let the flush at shutdown write to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def entry() -> None:
    raise SystemExit(main())
