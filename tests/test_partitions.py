from itertools import product
from math import comb

import pytest

from lucasnomial import DomainError, Partition, enumerate_in_rect, iter_in_rect
from lucasnomial.partitions import _count_in_rect


def test_two_subsets_of_unit_rectangle():
    parts = enumerate_in_rect(1, 1)
    assert [p.parts for p in parts] == [(0,), (1,)]


def test_rectangle_5x4():
    parts = enumerate_in_rect(5, 4)
    assert len(parts) == 126
    assert Partition((3, 2, 2, 0, 0), 4) in parts


def test_empty_rectangles():
    assert [p.parts for p in enumerate_in_rect(0, 7)] == [()]
    assert [p.parts for p in enumerate_in_rect(3, 0)] == [(0, 0, 0)]


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("n", range(9))
def test_counts_match_binomial(m, n):
    assert len(enumerate_in_rect(m, n)) == comb(m + n, m)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(7) for n in range(7)])
def test_order_is_ascending_lexicographic(m, n):
    brute = sorted(
        parts
        for parts in product(range(n + 1), repeat=m)
        if list(parts) == sorted(parts, reverse=True)
    )
    assert [p.parts for p in enumerate_in_rect(m, n)] == brute


def test_tall_rectangle_needs_no_deep_recursion():
    parts = enumerate_in_rect(1500, 1)
    assert len(parts) == 1501
    assert parts[0].parts == (0,) * 1500
    assert parts[-1].parts == (1,) * 1500


def test_complement_of_worked_example():
    assert Partition((3, 2, 2, 0, 0), 4).complement() == Partition((5, 4, 2, 2), 5)


def test_complement_extremes():
    full = Partition((4, 4, 4), 4)
    assert full.complement() == Partition((0, 0, 0, 0), 3)
    empty = Partition((0, 0, 0), 4)
    assert empty.complement() == Partition((3, 3, 3, 3), 3)


def test_size():
    assert Partition((3, 2, 2, 0, 0), 4).size() == 7
    assert Partition((0, 0), 5).size() == 0
    assert Partition((4, 4, 4), 4).size() == 12


def reference_complement(p: Partition) -> Partition:
    # the direct O(m*n) count: column j (from the right) is m minus the parts
    # that reach it
    m, n = p.rows, p.cols
    comp = tuple(m - sum(1 for x in p.parts if x >= n + 1 - j) for j in range(1, n + 1))
    return Partition(comp, m)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(8) for n in range(8)])
def test_complement_involution_and_sizes(m, n):
    for p in enumerate_in_rect(m, n):
        comp = p.complement()
        assert comp == reference_complement(p), p
        assert p.size() + comp.size() == m * n
        assert comp.complement() == p


def test_capped_rectangle_counts():
    for m in range(10):
        for n in range(10):
            assert _count_in_rect(m, n, 10**6) == comb(m + n, m)
            capped = _count_in_rect(m, n, 100)
            assert capped == comb(m + n, m) if comb(m + n, m) <= 100 else capped > 100
    # a few steps, not a binomial with a billion digits
    assert _count_in_rect(10**9, 10**9, 10**7) > 10**7
    assert _count_in_rect(10**9, 0, 10**7) == 1


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2), 4)  # increasing
    with pytest.raises(ValueError):
        Partition((5, 1), 4)  # over the bound
    with pytest.raises(DomainError):
        enumerate_in_rect(-1, 2)


def test_text():
    assert Partition((3, 2, 2, 0, 0), 4).text() == "[3,2,2,0,0]"
    assert Partition((), 3).text() == "[]"


def test_iteration_matches_enumeration():
    for m in range(6):
        for n in range(6):
            assert list(iter_in_rect(m, n)) == enumerate_in_rect(m, n), (m, n)
    with pytest.raises(DomainError):
        next(iter_in_rect(2, -1))


def test_partition_refuses_a_negative_column_bound():
    with pytest.raises(ValueError, match="column bound must be nonnegative"):
        Partition((), -1)
