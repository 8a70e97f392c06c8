import tracemalloc

import pytest

from lucasnomial import (
    BivariatePolynomial,
    CIRCULAR,
    DOMINO,
    DomainError,
    LINEAR,
    LINEAR_NOLEAD,
    MONO,
    Tiling,
    enumerate_tilings,
    gf,
    iter_tilings,
)
from lucasnomial.poly import TWO, ZERO
from lucasnomial.tilings import KINDS, _count, _gf_values


def P(text: str) -> BivariatePolynomial:
    return BivariatePolynomial.parse(text)


def weights(tilings):
    return sorted(t.weight().canonical_text() for t in tilings)


def test_linear_3_weight_multiset():
    tilings = enumerate_tilings(LINEAR, 3)
    assert len(tilings) == 3
    assert weights(tilings) == ["s*t", "s*t", "s^3"]


def test_circular_3_adds_one_wrap():
    tilings = enumerate_tilings(CIRCULAR, 3)
    assert len(tilings) == 4
    wraps = [t for t in tilings if t.wrap]
    assert len(wraps) == 1
    assert wraps[0].weight() == P("s*t")


def test_nolead_edge_cases():
    assert enumerate_tilings(LINEAR_NOLEAD, 1) == []
    nolead0 = enumerate_tilings(LINEAR_NOLEAD, 0)
    assert len(nolead0) == 1 and nolead0[0].weight() == P("1")
    assert all(
        t.tiles[0] == DOMINO for n in range(2, 9) for t in enumerate_tilings(LINEAR_NOLEAD, n)
    )


def test_circular_2_has_three_tilings():
    tilings = enumerate_tilings(CIRCULAR, 2)
    assert len(tilings) == 3
    assert weights(tilings) == ["s^2", "t", "t"]


def test_circular_1_has_no_wrap():
    tilings = enumerate_tilings(CIRCULAR, 1)
    assert len(tilings) == 1
    assert not tilings[0].wrap


def test_empty_tiling_weights_depend_on_kind():
    assert Tiling(LINEAR, ()).weight() == P("1")
    assert Tiling(CIRCULAR, ()).weight() == TWO


def test_weight_examples():
    assert Tiling(LINEAR, (MONO, MONO, MONO)).weight() == P("s^3")
    assert Tiling(CIRCULAR, (MONO,), wrap=True).weight() == P("s*t")


def test_text_forms():
    assert Tiling(LINEAR, (MONO, DOMINO, MONO)).text() == "M D M"
    assert Tiling(CIRCULAR, (MONO,), wrap=True).text() == "(D) M"
    assert Tiling(LINEAR, ()).text() == "(empty)"


def test_tiling_validation():
    with pytest.raises(ValueError):
        Tiling(LINEAR, (MONO,), wrap=True)
    with pytest.raises(ValueError):
        Tiling("weird", (MONO,))
    with pytest.raises(ValueError, match="unknown tile in"):
        Tiling(LINEAR, ("X",))
    with pytest.raises(ValueError, match="unknown tile in"):
        Tiling(LINEAR, ("M", "X"))


@pytest.mark.parametrize("kind", KINDS)
def test_stored_weight_matches_tile_counts(kind):
    # the exponents are counted once at construction; recount every tiling
    for n in range(13):
        for t in iter_tilings(kind, n):
            if t.kind == CIRCULAR and not t.tiles and not t.wrap:
                expected = (0, 0, 2)
            else:
                doms = sum(1 for x in t.tiles if x == DOMINO) + (1 if t.wrap else 0)
                expected = (sum(1 for x in t.tiles if x == MONO), doms, 1)
            assert t.weight_exponents() == expected, t
            assert t.length == n, t
    assert Tiling(CIRCULAR, ()).weight_exponents() == (0, 0, 2)
    assert Tiling(CIRCULAR, (), wrap=True).weight_exponents() == (0, 1, 1)


def test_stored_weight_is_not_a_field():
    assert Tiling._fields == ("kind", "tiles", "wrap")
    t = Tiling(CIRCULAR, (MONO, DOMINO), wrap=True)
    assert repr(t) == "Tiling(kind='circular', tiles=('M', 'D'), wrap=True)"
    twin = Tiling(CIRCULAR, (MONO, DOMINO), True)
    assert t == twin and hash(t) == hash(twin)
    assert hash(t) == hash((CIRCULAR, (MONO, DOMINO), True))
    assert t != Tiling(CIRCULAR, (MONO, DOMINO))
    with pytest.raises(AttributeError):
        t.tiles = ()
    with pytest.raises(AttributeError):
        del t.tiles
    assert t.tiles == (MONO, DOMINO)


def test_gf_closed_forms():
    assert gf(LINEAR, 3) == P("s^3 + 2*s*t")
    assert gf(LINEAR_NOLEAD, 0) == P("1")
    assert gf(LINEAR_NOLEAD, 1) == ZERO
    assert gf(CIRCULAR, 0) == TWO


@pytest.mark.parametrize("kind", [LINEAR, LINEAR_NOLEAD, CIRCULAR])
@pytest.mark.parametrize("n", range(13))
def test_enumeration_matches_gf(kind, n):
    total = sum((t.weight() for t in enumerate_tilings(kind, n)), ZERO)
    assert total == gf(kind, n)


def test_counts_follow_recurrences():
    linear_counts = [len(enumerate_tilings(LINEAR, n)) for n in range(13)]
    assert linear_counts[0] == linear_counts[1] == 1
    for n in range(2, 13):
        assert linear_counts[n] == linear_counts[n - 1] + linear_counts[n - 2]
        circ = len(enumerate_tilings(CIRCULAR, n))
        assert circ == linear_counts[n] + linear_counts[n - 2]


def test_counts_match_enumeration():
    for kind in KINDS:
        for n in range(13):
            assert _count(kind, n) == len(enumerate_tilings(kind, n)), (kind, n)
    with pytest.raises(DomainError):
        _count("spiral", 3)


def test_capped_counts_stop_past_the_cap():
    # the small caps sit where the circular walk falls from L(0) = 2 to 1 and
    # the nolead walk from 1 to 0
    for kind in KINDS:
        for cap in (0, 1, 2, 3, 1000):
            for n in range(40):
                exact = _count(kind, n)
                capped = _count(kind, n, cap)
                assert capped == exact if exact <= cap else capped > cap, (kind, n, cap)
        # a few steps, not 10**9 big-integer additions
        assert _count(kind, 10**9, 10**7) > 10**7


def test_counts_need_no_deep_recursion():
    older, old = 1, 1  # linear counts of lengths 0 and 1
    for _ in range(2999):
        older, old = old, old + older
    assert _count(LINEAR, 3000) == old
    assert _count(LINEAR_NOLEAD, 3002) == old
    assert _count(CIRCULAR, 3001) == (old + older) + older


@pytest.mark.parametrize("kind", [LINEAR, LINEAR_NOLEAD, CIRCULAR])
@pytest.mark.parametrize("n", range(11))
def test_no_duplicate_tilings(kind, n):
    tilings = enumerate_tilings(kind, n)
    assert len(set(tilings)) == len(tilings)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t", [1, 2, 2**7, 2**64])
def test_gf_values_are_the_closed_forms_at_the_point(kind, t):
    for top in range(16):
        expected = [gf(kind, x).eval_int(1, t) for x in range(top + 1)]
        assert _gf_values(kind, top, t) == expected, (kind, top)


def test_negative_length_rejected():
    with pytest.raises(DomainError):
        enumerate_tilings(LINEAR, -1)
    for kind in KINDS:
        for cap in (None, 0, 10**7):
            with pytest.raises(DomainError):
                _count(kind, -1, cap)
    with pytest.raises(DomainError):
        gf(CIRCULAR, -2)
    with pytest.raises(DomainError):
        _gf_values("spiral", 3, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_iteration_matches_enumeration(kind):
    for n in range(12):
        assert list(iter_tilings(kind, n)) == enumerate_tilings(kind, n), (kind, n)


def test_iteration_rejects_bad_input():
    with pytest.raises(DomainError):
        next(iter_tilings(LINEAR, -1))
    with pytest.raises(DomainError):
        next(iter_tilings("spiral", 3))


def test_iteration_holds_one_tiling_at_a_time():
    # the listing of L(20) = 15127 circular tilings takes about 6 MB as a list
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_tilings(CIRCULAR, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == _count(CIRCULAR, 20)
    assert peak < 100_000
