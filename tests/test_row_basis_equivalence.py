"""The packed row basis on edge masks against the full-width elimination.

``reference_reduce_rows`` (in ``conftest``) is an earlier
``solver._reduce_rows``.  It takes D's rows as explicit integer lists,
eliminates every incoming row against every basis row over all columns,
and reduces every row of D even after the basis has reached full rank.
``_reduce_rows`` reads each row x - x_1 off a factor's edge mask, tests
it against the basis with one packed integer sum, and stops at full
rank; once the basis has as many rows as D has columns every later row
reduces to zero, so on every mask list both must return the same
``(rows, pivots, used)``.  The generated lists include random ones, ones
whose D has full rank before its last row, ones whose rows lie in a
space of dimension at most 4, and ones whose basis has pivot entries
above 1, so that incoming rows are rescaled by the lcm of the pivot
entries.  Wider lists, up to 30 columns and 80 masks, and a list whose
basis holds the Fibonacci numbers up to 317,811 grow basis entries far
above the packed fields' first width, so that the fields widen.  The
basis is compared on every connected isomorphism class with n <= 7 and
on K8 and K9.  The scan reads its rows one at a time: two more tests
check that it requests no row after the one that completes the rank.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from starfactor import solver
from starfactor.census import _connected_classes
from starfactor.factors import enumerate_star_factors, incidence_vectors, mask_bits
from starfactor.graph import Graph
from starfactor.solver import _reduce_rows

from conftest import reference_reduce_rows

# x_1 = 0 and D's rows 1100, 1010, 0111 (bit e is column e): the reduced
# basis is 1 0 0 -1/2, 0 1 0 1/2, 0 0 1 1/2, so the primitive basis rows
# have pivot entries 2
FRACTIONAL = [0b0000, 0b0011, 0b0101, 0b1110]


def reduce_masks(masks: list[int], m: int) -> tuple[list[list[int]], list[int], list[int]]:
    return _reduce_rows(mask_bits(masks[0], m), masks[1:])


def reference(masks: list[int], m: int) -> tuple[list[list[int]], list[int], list[int]]:
    """The reference basis of D's rows x_i - x_1, with x_i the bits of
    masks[i - 1] read by shifts."""
    vectors = [[mask >> e & 1 for e in range(m)] for mask in masks]
    return reference_reduce_rows([[a - b for a, b in zip(v, vectors[0])] for v in vectors[1:]])


KINDS = ["random", "full_rank", "blocks", "fractional"]


@st.composite
def mask_lists(draw, kinds=KINDS) -> tuple[list[int], int]:
    kind = draw(st.sampled_from(kinds))
    m = draw(st.integers(min_value=4 if kind == "fractional" else 0, max_value=21))
    mask = st.integers(min_value=0, max_value=(1 << m) - 1)
    if kind == "random":
        return draw(st.lists(mask, min_size=1, max_size=20)), m
    if kind == "fractional":
        return FRACTIONAL + draw(st.lists(mask, max_size=20)), m
    if kind == "full_rank":
        # x_1 with one bit flipped gives a row +-e_k, so D has rank m
        first = draw(mask)
        flips = [first ^ 1 << k for k in range(m)]
        return [first, *draw(st.permutations(flips + draw(st.lists(mask, max_size=20))))], m
    # unions of at most 4 blocks of columns: D has rank at most 4, and most
    # rows lie in the span of the rows before them without repeating one
    block_of = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m))
    blocks = [sum(1 << k for k, b in enumerate(block_of) if b == block) for block in range(4)]
    union = st.sets(st.sampled_from(blocks)).map(sum)
    return draw(st.lists(union, min_size=1, max_size=25)), m


@given(mask_lists())
@settings(max_examples=500, deadline=None)
def test_same_basis_as_reference(masks_and_m):
    masks, m = masks_and_m
    assert reduce_masks(masks, m) == reference(masks, m)


@st.composite
def wide_mask_lists(draw) -> tuple[list[int], int]:
    # random masks of one density: fewer masks than columns leave a basis
    # of large minors, and more reach full rank through such bases
    m = draw(st.integers(min_value=1, max_value=30))
    size = draw(st.integers(min_value=2, max_value=80))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.65]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return [sum(1 << k for k in range(m) if rng.random() < density) for _ in range(size)], m


@given(wide_mask_lists())
@settings(max_examples=300, deadline=None)
def test_same_basis_as_reference_where_entries_grow(masks_and_m):
    masks, m = masks_and_m
    rows, pivots, used = reduce_masks(masks, m)
    assert (rows, pivots, used) == reference(masks, m)
    # steer the search to bases with large entries, whose fields widen
    target(max((abs(x) for row in rows for x in row), default=0).bit_length(), label="entry bits")


def test_fractional_kind_has_pivot_entries_above_one():
    expected = ([[2, 0, 0, -1], [0, 2, 0, 1], [0, 0, 2, 1]], [0, 1, 2], [0, 1, 2])
    assert reduce_masks(FRACTIONAL, 4) == expected == reference(FRACTIONAL, 4)


def test_rows_rescaled_by_the_pivot_lcm():
    # x_1 = 01000 and D's rows 01101, 0011-, 1011-, 1101- give a basis with
    # pivot entries 2, 2, 1 and 2: each later row is doubled before the
    # basis rows are subtracted.  The fifth row, 11101, is half the first
    # two basis rows plus the third, and it reduces to zero only doubled.
    masks = [0b01000, 0b11110, 0b00100, 0b00101, 0b00011, 0b11111]
    expected = ([[0, 2, 0, 0, 1], [0, 0, 2, 0, 1], [1, 0, 0, 0, 0], [0, 0, 0, 2, 1]], [1, 2, 0, 3], [0, 1, 2, 3])
    assert reduce_masks(masks, 5) == expected == reference(masks, 5)
    # the row 00001 completes the rank
    masks.append(0b11000)
    identity = [[int(k == p) for k in range(5)] for p in [1, 2, 0, 3, 4]]
    assert reduce_masks(masks, 5) == (identity, [1, 2, 0, 3, 4], [0, 1, 2, 3, 5])
    assert reduce_masks(masks, 5) == reference(masks, 5)


def test_fields_widen_as_fibonacci_entries_grow():
    # x_1 = 0, and row k of D has ones at columns k, k - 1, k - 3, k - 5, ...
    # (and row 0 also at the last column, 29): the basis row with pivot k is
    # e_k + (-1)^k F(k + 2) e_29, with F the Fibonacci numbers, so the
    # packed fields must widen as the basis grows
    m = 30
    masks = [0]
    for k in range(m - 1):
        columns = {k, *range(k - 1, -1, -2)} | ({m - 1} if k == 0 else set())
        masks.append(sum(1 << c for c in columns))
    rows, pivots, used = reduce_masks(masks, m)
    assert (rows, pivots, used) == reference(masks, m)
    assert [row[-1] for row in rows[-2:]] == [-196418, 317811]


def test_stops_at_full_rank():
    # the third row, 01, would change nothing: rows 10 and 11 already span Z^2
    masks = [0b00, 0b01, 0b11, 0b10]
    assert reduce_masks(masks, 2) == ([[1, 0], [0, 1]], [0, 1], [0, 1]) == reference(masks, 2)


def test_scan_never_requests_a_row_after_full_rank():
    def masks():
        yield 0b01
        yield 0b11
        pytest.fail("a row after the full-rank row was requested")

    assert _reduce_rows(mask_bits(0b00, 2), masks()) == ([[1, 0], [0, 1]], [0, 1], [0, 1])


def test_k7_decision_reads_only_the_rows_up_to_full_rank(monkeypatch):
    # K7 has 847 star-factors, so D has 846 rows, and the basis reaches its
    # full rank of 21 at the 187th; the decision forms no row after that
    reads = []

    def counting_reduce_rows(first, masks):
        reads.append(0)

        def counted():
            for mask in masks:
                reads[-1] += 1
                yield mask

        return _reduce_rows(first, counted())

    monkeypatch.setattr(solver, "_reduce_rows", counting_reduce_rows)
    k7 = Graph.from_edges(7, combinations(range(7), 2))
    masks = enumerate_star_factors(k7)
    outcome = solver.decide_uniform_weighting(masks, k7.m)
    assert len(masks) - 1 == 846
    assert reads[0] == 187
    assert solver.verify_outcome(incidence_vectors(masks, k7.m), outcome)


def test_every_connected_class_up_to_seven_vertices():
    classes = _connected_classes(7, None)
    cases = [(enumerate_star_factors(g), g.m) for n in range(2, 8) for g, _ in classes[n]]
    cases = [(masks, m) for masks, m in cases if len(masks) > 1]
    assert len(cases) == 978
    assert [masks for masks, m in cases if reduce_masks(masks, m) != reference(masks, m)] == []


@pytest.mark.parametrize("n", [8, 9])
def test_complete_graph(n):
    g = Graph.from_edges(n, combinations(range(n), 2))
    masks = enumerate_star_factors(g)
    assert reduce_masks(masks, g.m) == reference(masks, g.m)
