"""The seven frozen records: construction, value semantics, freezing,
pickling and copying, and their repr."""

import copy
import pickle

import pytest

from lucasnomial import (
    CIRCULAR,
    DOMINO,
    LINEAR,
    LINEAR_PAIR,
    MONO,
    QBINOMIAL,
    BivariatePolynomial,
    CaseResult,
    IdentityReport,
    LucasnomialTable,
    Partition,
    SpecializationPreset,
    Tiling,
    TilingPair,
)

ONE = BivariatePolynomial.parse("1")
T = BivariatePolynomial.parse("t")
CASE_ARGS = dict(
    key=("lemma1-F", 1, 0), label="lemma1 F-sum m=1 n=0", passed=False, lhs=ONE, rhs=T
)
CASE = CaseResult(**CASE_ARGS)
CASE_REPR = (
    "CaseResult(key=('lemma1-F', 1, 0), label='lemma1 F-sum m=1 n=0', passed=False, "
    "lhs=BivariatePolynomial.parse('1'), rhs=BivariatePolynomial.parse('t'))"
)

# Each record with keyword arguments, the defaults it fills in, and its repr
# as the frozen dataclasses these classes replaced printed it.
RECORDS = [
    (CaseResult, CASE_ARGS, {}, CASE_REPR),
    (
        IdentityReport,
        dict(identity="lemma1", parameter_range="m=1, n=0", cases=(CASE,)),
        {"passes_not_kept": 0},
        "IdentityReport(identity='lemma1', parameter_range='m=1, n=0', "
        f"cases=({CASE_REPR},), passes_not_kept=0)",
    ),
    (
        LucasnomialTable,
        dict(rows=((ONE,), (ONE, ONE))),
        {},
        "LucasnomialTable(rows=((BivariatePolynomial.parse('1'),), "
        "(BivariatePolynomial.parse('1'), BivariatePolynomial.parse('1'))))",
    ),
    (
        Tiling,
        dict(kind=CIRCULAR, tiles=(MONO, DOMINO)),
        {"wrap": False},
        "Tiling(kind='circular', tiles=('M', 'D'), wrap=False)",
    ),
    (
        Partition,
        dict(parts=(2, 1, 0), cols=3),
        {},
        "Partition(parts=(2, 1, 0), cols=3)",
    ),
    (
        TilingPair,
        dict(row_tilings=(Tiling(LINEAR, (MONO,)),),
             col_tilings=(Tiling(LINEAR, (DOMINO,)),), flavor=LINEAR_PAIR),
        {},
        "TilingPair(row_tilings=(Tiling(kind='linear', tiles=('M',), wrap=False),), "
        "col_tilings=(Tiling(kind='linear', tiles=('D',), wrap=False),), "
        "flavor='linear_pair')",
    ),
    (
        SpecializationPreset,
        dict(name="qbinomial", s_sub=QBINOMIAL.s_sub, t_sub=QBINOMIAL.t_sub),
        {},
        "SpecializationPreset(name='qbinomial', s_sub=UnivariatePolynomial((1, 1)), "
        "t_sub=UnivariatePolynomial((0, -1)))",
    ),
]


@pytest.mark.parametrize(
    "cls, kwargs, defaults, expected", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(cls, kwargs, defaults, expected):
    obj = cls(**kwargs)
    fields = {**kwargs, **defaults}
    assert cls._fields == cls.__match_args__ == tuple(fields)
    assert {name: getattr(obj, name) for name in cls._fields} == fields

    twin = cls(*fields.values())
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin) == hash(tuple(fields.values()))

    # the same values under another class are a different record
    other = type("Other", (cls,), {"__slots__": ()})(**kwargs)
    assert obj != other and other != obj

    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = None
    assert getattr(obj, name) == fields[name]
    assert not hasattr(obj, "__dict__")

    for clone in (
        pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)
    ):
        assert type(clone) is cls and clone == obj and hash(clone) == hash(obj)

    assert repr(obj) == expected


def test_a_clone_keeps_the_stored_weight():
    pair = TilingPair((Tiling(LINEAR, (MONO,)),), (Tiling(LINEAR, (DOMINO,)),), LINEAR_PAIR)
    for obj in (Tiling(CIRCULAR, (), wrap=True), pair):
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone.weight_exponents() == obj.weight_exponents()


def test_match_args_destructure_a_record():
    match Tiling(CIRCULAR, (MONO,), True):
        case Tiling(kind, tiles, wrap):
            assert (kind, tiles, wrap) == (CIRCULAR, (MONO,), True)


@pytest.mark.parametrize(
    "cls, kwargs, defaults", [r[:3] for r in RECORDS], ids=[r[0].__name__ for r in RECORDS]
)
def test_the_constructor_refuses_a_bad_argument_list(cls, kwargs, defaults):
    values = [*kwargs.values(), *defaults.values()]
    first = cls._fields[0]
    rest = {name: value for name, value in kwargs.items() if name != first}
    for args, named, message in (
        ((), rest, f"missing argument '{first}'"),
        ((), {**kwargs, "colour": 1}, "unexpected keyword argument 'colour'"),
        (values[:1], kwargs, f"multiple values for argument '{first}'"),
        ((*values, None), {}, f"takes {len(values)} arguments, not {len(values) + 1}"),
    ):
        with pytest.raises(TypeError, match=message):
            cls(*args, **named)


def test_an_invariant_is_checked_when_built_by_keyword():
    with pytest.raises(ValueError, match="^only circular tilings may wrap$"):
        Tiling(kind=LINEAR, tiles=(MONO,), wrap=True)
    with pytest.raises(ValueError) as error:
        Partition(parts=(1, 2), cols=3)
    assert str(error.value) == "parts must be weakly decreasing within [0, 3]: (1, 2)"
