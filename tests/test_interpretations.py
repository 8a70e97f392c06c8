import tracemalloc
from math import prod

import pytest

from lucasnomial import (
    BivariatePolynomial,
    CIRCULAR,
    CIRCULAR_PAIR,
    DOMINO,
    DomainError,
    FIBONOMIAL,
    LINEAR,
    LINEAR_NOLEAD,
    LINEAR_PAIR,
    MONO,
    ResourceError,
    Tiling,
    TilingPair,
    enumerate_in_rect,
    enumerate_tilings,
    gf,
    iter_pairs,
    predicted_pair_count,
    rhs_circular,
    rhs_linear,
    specialize,
    verify_recursions,
    verify_theorem,
    via_quotient,
)
from lucasnomial import coefficients, interpretations, tilings
from lucasnomial.interpretations import (
    PAIR_BUDGET,
    _code_width,
    _lemma1_grid,
    _recursion_grid,
    _theorem_grid,
    recursion_cases,
    recursion_task_cases,
    theorem_cases,
)
from lucasnomial.poly import ONE, S

FLAVOR_KINDS = {LINEAR_PAIR: (LINEAR, LINEAR_NOLEAD), CIRCULAR_PAIR: (CIRCULAR, CIRCULAR)}


def P(text: str) -> BivariatePolynomial:
    return BivariatePolynomial.parse(text)


def per_partition(m, n, flavor, per_part):
    """Reference sum over enumerated partitions and their complements of the
    product of per_part(kind, length) over rows and complement columns."""
    row_kind, col_kind = FLAVOR_KINDS[flavor]
    return sum(
        prod(
            [per_part(row_kind, p) for p in part.parts]
            + [per_part(col_kind, p) for p in part.complement().parts]
        )
        for part in enumerate_in_rect(m, n)
    )


def brute_count(kind, length):
    return len(enumerate_tilings(kind, length))


def test_linear_base_cases():
    assert rhs_linear(1, 1) == S
    assert rhs_linear(2, 2) == P("s^4 + 3*s^2*t + 2*t^2")
    assert rhs_linear(0, 6) == ONE


def test_empty_paths():
    # an m x 0 or 0 x n rectangle holds one partition, a path of one kind
    # of step only
    for k in range(6):
        assert rhs_linear(k, 0) == ONE
        assert rhs_linear(0, k) == ONE
        assert rhs_circular(k, 0) == BivariatePolynomial.const(1 << k)
        assert rhs_circular(0, k) == BivariatePolynomial.const(1 << k)


@pytest.mark.parametrize("flavor", [LINEAR_PAIR, CIRCULAR_PAIR])
def test_gf_walk_matches_per_partition_sum(flavor):
    fn = rhs_linear if flavor == LINEAR_PAIR else rhs_circular
    for m in range(7):
        for n in range(7):
            assert fn(m, n) == per_partition(m, n, flavor, gf), (m, n)


@pytest.mark.parametrize("m, n", [(8, 8), (10, 3), (3, 10), (10, 10)])
def test_gf_matches_quotient_on_larger_rectangles(m, n):
    expected = via_quotient(m + n, m)
    assert rhs_linear(m, n) == expected
    assert rhs_circular(m, n) == expected * (1 << (m + n))


def test_gf_walk_uses_no_recursion_memo(monkeypatch):
    # the walk must not route through the lattice-path recursion it checks:
    # it never enters the recursions' row fill, nor the rec-fib memo
    def refuse(*args):
        raise AssertionError("the gf walk entered the recursion fill")

    monkeypatch.setattr(coefficients, "_rows", refuse)
    coefficients.via_recursion_fib.cache_clear()
    assert rhs_circular(6, 6) == via_quotient(12, 6) * (1 << 12)
    assert coefficients.via_recursion_fib.cache_info().currsize == 0


def test_gf_walk_multiplies_integers_not_polynomials(monkeypatch):
    # the 924 partitions of 6 x 6 are multiplied out as packed integers, and
    # the closed forms are evaluated as integers, so no polynomial is multiplied
    calls = []
    mul = BivariatePolynomial.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(BivariatePolynomial, "__mul__", counted)
    monkeypatch.setattr(BivariatePolynomial, "__rmul__", counted)
    sums = [rhs_linear(6, 6), rhs_circular(6, 6)]
    assert calls == []
    monkeypatch.undo()
    expected = via_quotient(12, 6)
    assert sums == [expected, expected * (1 << 12)]


def test_gf_walk_builds_no_closed_form_polynomial(monkeypatch):
    # each case evaluates its closed forms at its own point from their
    # recurrence, so no Lucas polynomial is built on the walk's side
    expected = via_quotient(14, 6), via_quotient(14, 8) * (1 << 14)

    def refuse(*args):
        raise AssertionError("the gf walk built a closed-form polynomial")

    for module in (tilings, interpretations):
        monkeypatch.setattr(module, "gf", refuse, raising=False)
        monkeypatch.setattr(module, "lucas_F", refuse)
        monkeypatch.setattr(module, "lucas_L", refuse)
    assert (rhs_linear(6, 8), rhs_circular(8, 6)) == expected


def test_circular_base_cases():
    assert rhs_circular(1, 1) == P("4*s")
    assert rhs_circular(0, 0) == ONE


def test_rect_pair_weights(rect_pair_linear, rect_pair_circular):
    assert rect_pair_linear.weight() == P("s^6*t^7")
    assert rect_pair_circular.weight() == P("4*s^6*t^7")


def test_pair_validation(rect_pair_linear):
    from lucasnomial import LINEAR, MONO, Tiling, TilingPair

    with pytest.raises(ValueError):
        TilingPair(rect_pair_linear.row_tilings, rect_pair_linear.col_tilings, "odd")
    with pytest.raises(ValueError, match="must not begin with a monomino"):
        # column tiling starting with a monomino is not allowed in linear pairs
        TilingPair((), (Tiling(LINEAR, (MONO,)),), LINEAR_PAIR)
    with pytest.raises(ValueError, match="circular_pair pair holds a linear tiling"):
        # kinds must match the flavor
        TilingPair(rect_pair_linear.row_tilings, rect_pair_linear.col_tilings,
                   CIRCULAR_PAIR)
    with pytest.raises(ValueError, match="linear_pair pair holds a circular tiling"):
        # a circular tiling is refused whether or not it wraps
        TilingPair((Tiling(CIRCULAR, (DOMINO,)),), (), LINEAR_PAIR)


def test_pair_weight_is_stored_not_a_field(rect_pair_linear):
    pair = rect_pair_linear
    assert TilingPair._fields == ("row_tilings", "col_tilings", "flavor")
    assert repr(pair).startswith("TilingPair(row_tilings=(Tiling(kind='linear'")
    assert repr(pair).endswith("flavor='linear_pair')")
    twin = TilingPair(pair.row_tilings, pair.col_tilings, LINEAR_PAIR)
    assert pair == twin and hash(pair) == hash(twin)
    assert hash(pair) == hash((pair.row_tilings, pair.col_tilings, LINEAR_PAIR))
    assert pair != TilingPair(pair.row_tilings[1:], pair.col_tilings, LINEAR_PAIR)
    with pytest.raises(AttributeError):
        pair.flavor = CIRCULAR_PAIR
    with pytest.raises(AttributeError):
        del pair.flavor
    assert pair.flavor == LINEAR_PAIR


@pytest.fixture
def pair_totals(monkeypatch):
    """Records how many pairs each enumerate-mode sum visits."""
    totals = []
    code_counts = interpretations._code_counts

    def record(*args):
        counts = code_counts(*args)
        totals.append(sum(counts.values()))
        return counts

    monkeypatch.setattr(interpretations, "_code_counts", record)
    return totals


def pair_sum(m, n, flavor):
    """The enumerate-mode sum the slow way, over every TilingPair object."""
    acc = {}
    for _, pair in iter_pairs(m, n, flavor):
        a, b, c = pair.weight_exponents()
        acc[(a, b)] = acc.get((a, b), 0) + c
    return BivariatePolynomial(acc)


@pytest.mark.parametrize(
    "m, n, flavor",
    [(m, n, f) for m in range(5) for n in range(5) for f in (LINEAR_PAIR, CIRCULAR_PAIR)]
    + [(5, 5, LINEAR_PAIR)],
)
def test_enumerate_sum_matches_the_pair_objects(m, n, flavor, pair_totals):
    fn = rhs_linear if flavor == LINEAR_PAIR else rhs_circular
    assert fn(m, n, mode="enumerate") == pair_sum(m, n, flavor)
    assert pair_totals == [predicted_pair_count(m, n, flavor)]


def test_enumerate_sum_near_the_budget(pair_totals):
    # 6,324,552 pairs, all visited
    assert rhs_linear(3, 11, mode="enumerate") == via_quotient(14, 3)
    assert pair_totals == [predicted_pair_count(3, 11, LINEAR_PAIR)] == [6324552]


# Pools injected as raw (tiles, wrap) rows, where the enumerate sum reads
# them.  Every linear row is also a circular row, so a circular pair has no
# wrong-kind row; test_pair_validation covers that rule on TilingPair.


def _odd_pool(kind, length):
    # a wrap row, which only a circular pool may hold
    yield (DOMINO,) * (length // 2), True


def _leading_monomino_pool(kind, length):
    if kind == LINEAR_NOLEAD and length:
        yield (MONO,) * length, False
    else:
        yield from tilings._rows(kind, length)


@pytest.mark.parametrize(
    "pool, fn, message",
    [
        (_odd_pool, rhs_linear, "linear_pair pair holds a circular tiling"),
        (_leading_monomino_pool, rhs_linear, "must not begin with a monomino"),
    ],
)
def test_enumerate_sum_checks_every_pool(monkeypatch, pool, fn, message):
    monkeypatch.setattr(interpretations, "_rows", pool)
    with pytest.raises(ValueError, match=message):
        fn(2, 2, mode="enumerate")


@pytest.mark.parametrize("flavor", [LINEAR_PAIR, CIRCULAR_PAIR])
def test_enumerate_sum_checks_each_pool_once(monkeypatch, flavor, pair_totals):
    # one pool per distinct row length and per distinct column length, not
    # one per partition, while every pair is still visited
    m, n = 3, 4
    expected = pair_sum(m, n, flavor)
    calls = []

    def counted(kind, length):
        calls.append((kind, length))
        return tilings._rows(kind, length)

    monkeypatch.setattr(interpretations, "_rows", counted)
    fn = rhs_linear if flavor == LINEAR_PAIR else rhs_circular
    assert fn(m, n, mode="enumerate") == expected
    assert len(calls) <= (n + 1) + (m + 1)
    assert pair_totals == [predicted_pair_count(m, n, flavor)]


@pytest.mark.parametrize("fn", [rhs_linear, rhs_circular])
def test_enumerate_sum_builds_no_tiling(monkeypatch, fn):
    # a size no other test enumerates, so no pool of Tiling objects built
    # earlier could stand in for one built here
    def refuse(*args, **kwargs):
        raise AssertionError("the enumerate sum built a Tiling")

    monkeypatch.setattr(tilings.Tiling, "__init__", refuse)
    assert fn(1, 23, mode="enumerate") == fn(1, 23, mode="gf")


def test_enumerate_sum_keeps_nothing_after_it_returns():
    tracemalloc.start()
    try:
        total = rhs_linear(1, 18, mode="enumerate")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == via_quotient(19, 1)
    # the 4,181 linear tilings of 18 squares alone would take about 1 MB
    assert retained < 64 * 1024


def test_code_width_holds_at_the_largest_rectangle_in_budget():
    # every cell the budget lets through, m first; past its edges a cell
    # holds at least as many pairs as its left or lower neighbour
    largest = 0
    for flavor in (LINEAR_PAIR, CIRCULAR_PAIR):
        m = 1
        while predicted_pair_count(m, 1, flavor) <= PAIR_BUDGET:
            n = 1
            while predicted_pair_count(m, n, flavor) <= PAIR_BUDGET:
                # a pair of all monominoes fills the s-field the most
                assert m * n < 1 << _code_width(m, n)
                largest = max(largest, m * n)
                n += 1
            m += 1
    assert largest == 34  # the linear 1 x 34 and 34 x 1


@pytest.mark.parametrize("flavor", [LINEAR_PAIR, CIRCULAR_PAIR])
def test_modes_agree(flavor):
    for m in range(8):
        for n in range(8 - m):
            kwargs = {"mode": "enumerate"}
            fn = rhs_linear if flavor == LINEAR_PAIR else rhs_circular
            assert fn(m, n, **kwargs) == fn(m, n, mode="gf")


def test_theorem_small_enumerate():
    report = verify_theorem(2, 2, flavor="both", mode="enumerate")
    assert report.passed
    assert report.cases_checked == 18


def test_theorem_gf():
    report = verify_theorem(5, 5, flavor="both", mode="gf")
    assert report.passed
    assert report.cases_checked == 72


def test_theorem_trivial():
    assert verify_theorem(0, 0, flavor="both", mode="enumerate").passed


def test_theorem_single_flavor():
    report = verify_theorem(3, 3, flavor="linear", mode="gf")
    assert report.passed
    assert report.cases_checked == 16


def test_recursions_examples():
    assert verify_recursions(4).passed
    small = verify_recursions(1)
    assert small.passed
    assert small.cases_checked == 2  # only the index-addition pair at (1, 0)


def test_recursion_cases_expand_exactly():
    for m in range(1, 5):
        for n in range(1, 5):
            assert all(c.passed for c in recursion_cases(m, n))
    with pytest.raises(DomainError):
        recursion_cases(0, 1)


def test_multiplicity_freeness_small():
    for m in range(6):
        for n in range(6 - m):
            objects = list(iter_pairs(m, n, LINEAR_PAIR))
            assert len(objects) == via_quotient(m + n, m).eval_int(1, 1)
            assert len(set(objects)) == len(objects)


def test_pair_weights_are_homogeneous():
    for m in range(4):
        for n in range(4):
            for _, pair in iter_pairs(m, n, CIRCULAR_PAIR):
                a, b, _ = pair.weight_exponents()
                assert a + 2 * b == m * n


def test_predicted_count_matches_enumeration():
    for m in range(4):
        for n in range(4):
            for flavor in (LINEAR_PAIR, CIRCULAR_PAIR):
                assert predicted_pair_count(m, n, flavor) == sum(
                    1 for _ in iter_pairs(m, n, flavor)
                )


def test_predicted_count_matches_per_partition_count():
    for m in range(6):
        for n in range(6):
            for flavor in (LINEAR_PAIR, CIRCULAR_PAIR):
                assert predicted_pair_count(m, n, flavor) == per_partition(
                    m, n, flavor, brute_count
                ), (m, n, flavor)


def test_linear_count_is_the_fibonomial():
    for m in range(13):
        for n in range(13):
            assert predicted_pair_count(m, n, LINEAR_PAIR) == specialize(
                m + n, m, FIBONOMIAL
            )


def test_over_budget_refusal_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the budget check enumerated partitions")

    # iter_pairs lists partitions through iter_in_rect; the enumerate sum
    # walks their parts tuples
    monkeypatch.setattr(interpretations, "iter_in_rect", refuse)
    monkeypatch.setattr(interpretations, "_part_tuples", refuse)
    for fn in (rhs_linear, rhs_circular):
        with pytest.raises(ResourceError):
            fn(15, 15, mode="enumerate")
    # a grid is refused whole, before its smaller cases run
    with pytest.raises(ResourceError):
        verify_theorem(9, 9, mode="enumerate")


def test_budget_refusal():
    with pytest.raises(ResourceError):
        rhs_linear(2, 2, mode="enumerate", budget=3)
    # gf mode ignores the budget entirely
    assert rhs_linear(2, 2, mode="gf", budget=3) == via_quotient(4, 2)


def test_theorem_case_labels_are_deterministic():
    cases = theorem_cases(1, 2, flavor="both", mode="gf")
    assert [c.label for c in cases] == [
        "theorem linear m=1 n=2 mode=gf",
        "theorem circular m=1 n=2 mode=gf",
    ]


def test_bad_arguments():
    with pytest.raises(DomainError):
        rhs_linear(-1, 0)
    with pytest.raises(DomainError):
        rhs_linear(1, 1, mode="guess")
    with pytest.raises(DomainError):
        theorem_cases(1, 1, flavor="spiral")
    for m, n in ((-1, 3), (3, -1)):
        with pytest.raises(DomainError):
            predicted_pair_count(m, n, LINEAR_PAIR)
        with pytest.raises(DomainError):
            verify_theorem(m, n)
        with pytest.raises(DomainError):
            verify_theorem(m, n, mode="enumerate")
    for bound in (-5, 0):
        with pytest.raises(DomainError):
            verify_recursions(bound)
    for m, n in ((1, -1), (0, 3)):
        with pytest.raises(DomainError):
            recursion_task_cases(m, n)
    with pytest.raises(DomainError):
        verify_theorem(1, 1, flavor="spiral")


@pytest.mark.parametrize("m, n", [(6, 6), (10, 3)])
def test_gf_digit_width_is_the_bit_length_of_the_value_at_one(monkeypatch, m, n):
    points = []
    values = interpretations._gf_values

    def recorded(kind, top, t):
        points.append(t)
        return values(kind, top, t)

    monkeypatch.setattr(interpretations, "_gf_values", recorded)
    for fn in (rhs_linear, rhs_circular):
        points.clear()
        rhs = fn(m, n)
        assert set(points) == {1, 1 << max(1, rhs.eval_int(1, 1).bit_length())}


@pytest.mark.parametrize("m, n, packed", [(0, 0, 1), (0, 300, 1), (300, 0, 1), (2, 3, 7)])
def test_gf_sum_packs_only_the_forms_its_walk_reads(monkeypatch, m, n, packed):
    # an edge case reads one closed form, so it evaluates one at the walk's
    # point, however long the edge; an interior case evaluates the n + 1 row
    # and m + 1 column forms there
    built = []
    values = interpretations._gf_values

    def counted(kind, top, t):
        out = values(kind, top, t)
        if t > 1:
            built.extend(out)
        return out

    monkeypatch.setattr(interpretations, "_gf_values", counted)
    for fn, scale in ((rhs_linear, 1), (rhs_circular, 2 ** (m + n))):
        built.clear()
        assert fn(m, n) == via_quotient(m + n, m) * scale
        assert len(built) == packed


def test_predicted_count_on_the_edges_counts_no_tilings(monkeypatch):
    def refuse(*args):
        raise AssertionError("an edge of the grid counted tilings")

    monkeypatch.setattr(interpretations, "_count", refuse)
    for flavor in (LINEAR_PAIR, CIRCULAR_PAIR):
        for m, n in ((0, 0), (0, 1000), (1000, 0)):
            assert predicted_pair_count(m, n, flavor) == 1


def test_enumerate_pre_scan_prices_no_edge_cell_within_a_budget(monkeypatch):
    calls = []
    count = interpretations.predicted_pair_count

    def counted(m, n, flavor):
        calls.append((m, n))
        return count(m, n, flavor)

    monkeypatch.setattr(interpretations, "predicted_pair_count", counted)
    # a 10^9-long m = 0 edge is skipped: the row m = 1 is refused at n = 32
    with pytest.raises(ResourceError, match=r"^enumeration of \(1, 32\) circular_pair"):
        _theorem_grid(1, 10**9, "both", "enumerate", PAIR_BUDGET)
    assert calls == [(1, n) for n in range(1, 33) for _ in range(2)]
    # under a budget of 0 even an edge cell is over it, and (0, 0) comes first
    calls.clear()
    with pytest.raises(ResourceError) as refused:
        _theorem_grid(1, 10**9, "both", "enumerate", 0)
    assert str(refused.value) == (
        "enumeration of (0, 0) linear_pair predicts 1 tiling pairs, "
        "over the budget of 0; use gf mode"
    )
    assert calls == [(0, 0)]
    # a grid of edges alone is priced not at all, and runs
    calls.clear()
    _, cases = _theorem_grid(0, 3, "both", "enumerate", 1)
    assert calls == [] and all(c.passed for c in cases)


def test_verify_grids_are_streamed_not_built():
    grids = (
        lambda: _lemma1_grid(300, 300),
        lambda: _recursion_grid(600),
        lambda: _theorem_grid(300, 300, "both", "gf", PAIR_BUDGET),
    )
    for grid in grids:
        tracemalloc.start()
        try:
            _, cases = grid()
            assert next(cases).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000
