"""The lazy package namespace, and the modules each CLI subcommand loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lucasnomial
from lucasnomial import errors, interpretations

SRC = Path(lucasnomial.__file__).resolve().parents[1]

# Each public name under its home module, in the order of __all__.
EXPORTS = {
    "poly": ["BivariatePolynomial", "UnivariatePolynomial"],
    "errors": ["DomainError", "IndivisibleError", "InternalParityError", "ResourceError"],
    "lucas": ["LucasCache", "lucas_F", "lucas_L", "lucas_factorial", "check_lemma1"],
    "coefficients": [
        "LucasnomialTable", "table", "via_quotient", "via_recursion_fib",
        "via_recursion_luc",
    ],
    "tilings": [
        "Tiling", "enumerate_tilings", "iter_tilings", "gf", "MONO", "DOMINO",
        "LINEAR", "LINEAR_NOLEAD", "CIRCULAR",
    ],
    "partitions": ["Partition", "enumerate_in_rect", "iter_in_rect"],
    "interpretations": [
        "TilingPair", "LINEAR_PAIR", "CIRCULAR_PAIR", "PAIR_BUDGET", "iter_pairs",
        "predicted_pair_count", "rhs_linear", "rhs_circular", "verify_theorem",
        "verify_recursions",
    ],
    "reports": ["CaseResult", "IdentityReport"],
    "specializations": [
        "SpecializationPreset", "FIBONOMIAL", "QBINOMIAL", "lnomial", "specialize",
        "gaussian_binomial_oracle",
    ],
}


def fresh(code: str, *args: str) -> str:
    """stdout of `python -c code args` in a new interpreter, on the source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_unchanged():
    assert lucasnomial.__all__ == [name for names in EXPORTS.values() for name in names]
    assert len(lucasnomial.__all__) == 46


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lucasnomial import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lucasnomial.__all__)


@pytest.mark.parametrize("module", EXPORTS)
def test_each_name_is_the_object_in_its_home_module(module):
    home = importlib.import_module(f"lucasnomial.{module}")
    for name in EXPORTS[module]:
        assert getattr(lucasnomial, name) is getattr(home, name), name


def test_dir_lists_every_exported_name():
    assert set(lucasnomial.__all__) <= set(dir(lucasnomial))


def test_the_budget_has_one_definition():
    assert interpretations.PAIR_BUDGET is lucasnomial.PAIR_BUDGET is errors.PAIR_BUDGET


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="'lucasnomial' has no attribute 'no_such_name'"):
        lucasnomial.no_such_name


def test_bare_import_loads_no_submodule_and_resolves_one_on_access():
    out = fresh(
        "import sys, lucasnomial\n"
        "print(sorted(m for m in sys.modules if m.startswith('lucasnomial.')))\n"
        "print(lucasnomial.poly.__name__, lucasnomial.cli.__name__)\n"
        "print(lucasnomial.lucas_F(3))"
    )
    assert out == "[]\nlucasnomial.poly lucasnomial.cli\ns^2 + t\n"


# Only lucasnomial modules are listed: the standard library's own import
# graph differs between Python versions.  No subcommand may load dataclasses,
# or inspect, which it would bring in.
PROBE = """
import contextlib, io, sys
from lucasnomial.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
assert not {"dataclasses", "inspect"} & set(sys.modules), sorted(sys.modules)
print(*sorted(m for m in sys.modules if m.startswith("lucasnomial.")))
"""


@pytest.mark.parametrize(
    "args, loaded, absent",
    [
        (
            "lucas F 1",
            {"lucas"},
            {"coefficients", "interpretations", "tilings", "partitions", "reports",
             "specializations"},
        ),
        (
            "lucasnomial 12 5",
            {"coefficients"},
            {"interpretations", "tilings", "partitions", "reports"},
        ),
        ("tilings linear 5 --weights", {"tilings"}, {"coefficients", "interpretations"}),
        ("partitions 3 3", {"partitions"}, {"coefficients", "interpretations"}),
        (
            "verify theorem --m-max 2 --n-max 2 --mode enumerate",
            {"interpretations", "tilings", "partitions", "reports"},
            {"specializations"},
        ),
    ],
)
def test_a_subcommand_loads_only_its_own_modules(args, loaded, absent):
    modules = {m.removeprefix("lucasnomial.") for m in fresh(PROBE, *args.split()).split()}
    assert loaded <= modules
    assert not absent & modules


@pytest.mark.parametrize("args", [
    "lucas factorial 5", "lucasnomial 6 3", "table 3", "specialize 6 3 --preset qbinomial",
    "specialize 6 3 --preset fibonomial",
])
def test_a_value_is_printed_as_json_without_the_json_module(args):
    # the JSON bytes are written term by term, so no document is built
    probe = (
        "import contextlib, io, sys\n"
        "from lucasnomial.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print('json' in sys.modules)\n"
    )
    assert fresh(probe, *args.split(), "--format", "json") == "False\n"
