"""The packed row basis on edge masks against the full-width elimination.

``reference_reduce_rows`` (in ``conftest``) is an earlier
``solver._reduce_rows``.  It takes D's rows as explicit integer lists,
eliminates every incoming row against every basis row over all columns,
and reduces every row it is given.  ``_reduce_rows`` reads each row
x - x_1 off a factor's edge mask, tests it against the basis with one
packed integer sum, and stops right after the first row that leaves a
nonnegative row in the basis; a full-rank basis is the identity, so
reaching full rank is one such stop.  So on every mask list the scan
must return the reference's ``(rows, pivots, used)`` on the prefix of D
that it read, and that prefix must be the shortest possible: the
reference basis of one row fewer has no nonnegative row, and a scan that
never meets a nonnegative row reads all of D.  The scan also returns the
index of the basis row it stopped at, which must be the first
nonnegative row of its basis, or None exactly when there is none.  The generated lists
include random ones, ones whose rows are +-e_k, ones whose rows lie in
a space of dimension at most 4, and ones whose basis has pivot entries
above 1, so that incoming rows are rescaled by the lcm of the pivot
entries.  Wider lists, up to 30 columns and 80 masks, and a list whose
basis holds the Fibonacci numbers up to 317,811 grow basis entries far
above the packed fields' first width, so that the fields widen.  The
basis is compared on every connected isomorphism class with n <= 7 and
on K8 and K9; the double star, the members up to seven vertices and the
six-vertex graphs that need LP2 meet no nonnegative row, so their scan
equals the reference on all of D.  The scan reads its rows one at a
time: more tests check that it requests no row after the one that stops
it, and that K7's decision reads four.
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
from starfactor.graph import Graph, parse_graph6, to_graph6
from starfactor.solver import Witness, _reduce_rows, decide_uniform_weighting

from conftest import double_star_graph, reference_reduce_rows
from test_solver_golden import _fixed_graphs, _golden

# x_1 = 00001 and D's rows 1100-, 1010-, 0111- (bit e is column e): the
# reduced basis is 1 0 0 -1/2 -1/2, 0 1 0 1/2 -1/2, 0 0 1 1/2 -1/2, so the
# primitive basis rows have pivot entries 2, and no basis on the way has
# a nonnegative row
FRACTIONAL = [0b10000, 0b00011, 0b00101, 0b01110]


def reduce_masks(masks: list[int], m: int) -> tuple[list[list[int]], list[int], list[int], int | None]:
    return _reduce_rows(mask_bits(masks[0], m), masks[1:])


def reference(masks: list[int], m: int) -> tuple[list[list[int]], list[int], list[int]]:
    """The reference basis of D's rows x_i - x_1, with x_i the bits of
    masks[i - 1] read by shifts."""
    vectors = [[mask >> e & 1 for e in range(m)] for mask in masks]
    return reference_reduce_rows([[a - b for a, b in zip(v, vectors[0])] for v in vectors[1:]])


def nonnegative(rows: list[list[int]]) -> bool:
    """Some row of a basis is nonnegative; basis rows are never zero."""
    return any(min(row) >= 0 for row in rows)


def first_nonnegative(rows: list[list[int]]) -> int | None:
    """The index of the first nonnegative row of a basis, or None."""
    return next((j for j, row in enumerate(rows) if min(row) >= 0), None)


def scan(masks: list[int], m: int) -> tuple[tuple[list[list[int]], list[int], list[int], int | None], int]:
    """``_reduce_rows`` on the masks, and the number of D rows it read."""
    read = 0

    def counted():
        nonlocal read
        for mask in masks[1:]:
            read += 1
            yield mask

    return _reduce_rows(mask_bits(masks[0], m), counted()), read


def agrees(masks: list[int], m: int) -> bool:
    """The scan returns the reference basis of the rows it read, and it
    stops at the first of D's prefixes whose basis has a nonnegative row,
    naming the first such row, or reads all of D if none has."""
    (rows, pivots, used, stop), read = scan(masks, m)
    if (rows, pivots, used) != reference(masks[: 1 + read], m) or stop != first_nonnegative(rows):
        return False
    if stop is not None:
        return not nonnegative(reference(masks[:read], m)[0])
    return read == len(masks) - 1


KINDS = ["random", "unit_rows", "blocks", "fractional"]


@st.composite
def mask_lists(draw, kinds=KINDS) -> tuple[list[int], int]:
    kind = draw(st.sampled_from(kinds))
    m = draw(st.integers(min_value=5 if kind == "fractional" else 0, max_value=21))
    mask = st.integers(min_value=0, max_value=(1 << m) - 1)
    if kind == "random":
        return draw(st.lists(mask, min_size=1, max_size=20)), m
    if kind == "fractional":
        return FRACTIONAL + draw(st.lists(mask, max_size=20)), m
    if kind == "unit_rows":
        # x_1 with one bit flipped gives a row +-e_k, so D has rank m, and
        # the first such row is a basis row e_k
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
    assert agrees(*masks_and_m)


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
    assert agrees(masks, m)
    rows = reduce_masks(masks, m)[0]
    # steer the search to bases with large entries, whose fields widen
    target(max((abs(x) for row in rows for x in row), default=0).bit_length(), label="entry bits")


def test_fractional_kind_has_pivot_entries_above_one():
    expected = ([[2, 0, 0, -1, -1], [0, 2, 0, 1, -1], [0, 0, 2, 1, -1]], [0, 1, 2], [0, 1, 2])
    assert reduce_masks(FRACTIONAL, 5) == (*expected, None)
    assert expected == reference(FRACTIONAL, 5)
    assert agrees(FRACTIONAL, 5)


def test_rows_rescaled_by_the_pivot_lcm():
    # x_1 = 00101 and D's rows 10-00, 01-00, 1100- and 1001- give a basis
    # with pivot entries 2, 2, 2 and 2 over the free column 4: each later
    # row is doubled before the basis rows are subtracted.  The fifth row,
    # 00-10, is half the fourth basis row less half the third, and it
    # reduces to zero only doubled.
    masks = [0b10100, 0b10001, 0b10010, 0b00111, 0b01101, 0b11000]
    expected = ([[2, 0, 0, 0, -1], [0, 2, 0, 0, -1], [0, 0, 2, 0, -1], [0, 0, 0, 2, -1]], [0, 1, 2, 3], [0, 1, 2, 3])
    assert reduce_masks(masks, 5) == (*expected, None)
    assert expected == reference(masks, 5)
    assert agrees(masks, 5)
    # the row 01000 completes the rank, and the identity is nonnegative
    # from its first row
    masks.append(0b10110)
    identity = [[int(k == p) for k in range(5)] for p in range(5)]
    assert scan(masks, 5) == ((identity, [0, 1, 2, 3, 4], [0, 1, 2, 3, 5], 0), 6)
    assert agrees(masks, 5)


def test_fields_widen_as_fibonacci_entries_grow():
    # x_1 = e_30, and D's row k is e_k + e_(k - 1) + e_(k - 3) + ... - e_30
    # (row 0 also has e_29): the basis row with pivot 0 is e_0 + e_29 - e_30,
    # and the one with pivot k >= 1 is e_k + (-1)^k (F(k) e_29 - F(k - 1) e_30),
    # with F the Fibonacci numbers, so no basis row is one-signed and the
    # packed fields must widen as the basis grows
    m = 31
    masks = [1 << 30]
    for k in range(29):
        columns = {k, *range(k - 1, -1, -2)} | ({29} if k == 0 else set())
        masks.append(sum(1 << c for c in columns))
    (rows, pivots, used, stop), read = scan(masks, m)
    assert read == 29
    assert (rows, pivots, used) == reference(masks, m)
    assert stop is None
    assert [row[29:] for row in rows[-2:]] == [[-196418, 121393], [317811, -196418]]
    assert not nonnegative(rows)


def test_stops_at_full_rank():
    # x_1 = 01, rows 1- and 0-: the second completes the rank, and the
    # third, 10, is never read
    masks = [0b10, 0b01, 0b00, 0b11]
    assert scan(masks, 2) == (([[1, 0], [0, 1]], [0, 1], [0, 1], 0), 2)
    assert reduce_masks(masks, 2)[:3] == reference(masks, 2)


def test_scan_never_requests_a_row_after_full_rank():
    def masks():
        yield 0b01
        yield 0b00
        pytest.fail("a row after the full-rank row was requested")

    assert _reduce_rows(mask_bits(0b10, 2), masks()) == ([[1, 0], [0, 1]], [0, 1], [0, 1], 0)


def test_scan_never_requests_a_row_after_the_first_nonnegative_row():
    # x_1 = 001: the row 11- has both signs, and clearing the pivot of the
    # next row, 01-, from it leaves 100, one-signed though the rank is 2
    def masks():
        yield 0b011
        yield 0b010
        pytest.fail("a row after the first nonnegative basis row was requested")

    assert _reduce_rows(mask_bits(0b100, 3), masks()) == ([[1, 0, 0], [0, 1, -1]], [0, 1], [0, 1], 0)
    assert agrees([0b100, 0b011, 0b010, 0b001], 3)


def test_k7_decision_reads_only_the_rows_up_to_the_first_nonnegative_row(monkeypatch):
    # K7 has 847 star-factors, so D has 846 rows, and the basis first has a
    # nonnegative row at the 4th, far short of its full rank of 21; the
    # decision forms no row after that
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
    assert reads == [4]
    assert agrees(masks, k7.m)
    assert solver.verify_outcome(incidence_vectors(masks, k7.m), outcome)


def test_every_connected_class_up_to_seven_vertices():
    classes = _connected_classes(7, None)
    cases = [(enumerate_star_factors(g), g.m) for n in range(2, 8) for g, _ in classes[n]]
    cases = [(masks, m) for masks, m in cases if len(masks) > 1]
    assert len(cases) == 978
    assert [masks for masks, m in cases if not agrees(masks, m)] == []


@pytest.mark.parametrize("n", [8, 9])
def test_complete_graph(n):
    g = Graph.from_edges(n, combinations(range(n), 2))
    masks = enumerate_star_factors(g)
    assert agrees(masks, g.m)
    assert scan(masks, g.m)[1] == 4


def test_scan_without_a_nonnegative_row_reads_all_of_d():
    # the double star, every member up to seven vertices and the six-vertex
    # graphs whose refutation needs LP2: no basis on the way is one-signed
    classes = _connected_classes(7, None)
    members = [g for n in range(2, 8) for g, _ in classes[n]]
    members = [
        (masks, g.m)
        for g in members
        for masks in [enumerate_star_factors(g)]
        if len(masks) > 1 and isinstance(decide_uniform_weighting(masks, g.m), Witness)
    ]
    fixed = {to_graph6(g) for g in _fixed_graphs()}
    lp2 = [parse_graph6(key) for key in _golden() if key not in fixed]
    others = [(enumerate_star_factors(g), g.m) for g in [double_star_graph(), *lp2]]
    assert len(lp2) == 54
    for masks, m in members + others:
        (rows, pivots, used, stop), read = scan(masks, m)
        assert read == len(masks) - 1
        assert (rows, pivots, used) == reference(masks, m)
        assert stop is None and not nonnegative(rows)
