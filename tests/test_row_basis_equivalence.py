"""The row basis against the full-width elimination it replaced.

``reference_reduce_rows`` below is an earlier ``solver._reduce_rows``,
kept verbatim apart from its name.  It eliminates every incoming row
against every basis row over all columns, and it reduces every row of D
even after the basis has reached full rank.  ``_reduce_rows`` computes
one combination on the non-pivot columns only and stops at full rank;
once the basis has as many rows as D has columns every later row
reduces to zero, so on every matrix both must return the same
``(rows, pivots, used)``.  The generated matrices are up to 21 columns
wide (K7 has 21 edges) with entries up to 5 in absolute value.  They
include full-rank ones, whose rank is reached before the last row, ones
made of many repeated and scaled copies of a few rows, and ones whose
basis has pivot entries above 1, so that incoming rows are rescaled by
the lcm of the pivot entries.  The scan reads its rows one at a time:
two more tests check that it requests no row after the one that
completes the rank.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor import simplex, solver
from starfactor.factors import enumerate_star_factors, incidence_vectors
from starfactor.graph import Graph
from starfactor.solver import _reduce_rows


def reference_reduce_rows(d_rows: list[list[int]]) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free row basis of the row space of D.

    Returns (rows, pivots, used): each row is a primitive integer row,
    positive at its own pivot column and zero at the other rows' pivot
    columns, and used[j] is the index of the D row that entered the basis
    as row j.  Dividing each row by its pivot entry gives the unique
    reduced basis of the row space with identity on the pivot columns.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    used: list[int] = []
    for i, raw in enumerate(d_rows):
        row = list(raw)
        for brow, p in zip(rows, pivots):
            if row[p]:
                row = simplex.eliminate(row, brow, p)
        pivot = next((k for k, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        row = simplex.primitive(row, pivot)
        # clear the new pivot column from the existing basis rows
        for j, brow in enumerate(rows):
            if brow[pivot]:
                rows[j] = simplex.eliminate(brow, row, pivot)
        rows.append(row)
        pivots.append(pivot)
        used.append(i)
    return rows, pivots, used


KINDS = ["random", "full_rank", "repeated", "fractional"]


@st.composite
def matrices(draw, kinds=KINDS) -> list[list[int]]:
    kind = draw(st.sampled_from(kinds))
    width = draw(st.integers(min_value=2 if kind == "fractional" else 0, max_value=21))
    row = st.lists(st.integers(min_value=-5, max_value=5), min_size=width, max_size=width)
    if kind == "random":
        return draw(st.lists(row, max_size=20))
    if kind == "fractional":
        # rows d_j e_{c_j} + e_last: their reduced basis has 1/d_j in the
        # last column, so the primitive basis rows have pivot entries d_j
        columns = draw(st.lists(st.integers(min_value=0, max_value=width - 2), min_size=1, unique=True))
        base = [
            [draw(st.integers(min_value=2, max_value=5)) * (k == c) + (k == width - 1) for k in range(width)]
            for c in columns
        ]
    else:
        base = draw(st.lists(row, min_size=1, max_size=4))
    if kind == "full_rank":
        # scaled unit rows guarantee rank = width; more rows follow them
        base += [[draw(st.sampled_from([-2, -1, 1, 3])) * (k == j) for k in range(width)] for j in range(width)]
    copies = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        s, t = draw(st.integers(min_value=-2, max_value=2)), draw(st.integers(min_value=-1, max_value=1))
        copies.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(base + copies))


@given(matrices())
@settings(max_examples=500, deadline=None)
def test_same_basis_as_reference(d_rows):
    assert _reduce_rows(d_rows) == reference_reduce_rows(d_rows)


@given(matrices(kinds=["fractional"]))
@settings(max_examples=100, deadline=None)
def test_fractional_kind_has_pivot_entries_above_one(d_rows):
    rows, pivots, _ = _reduce_rows(d_rows)
    assert max(row[p] for row, p in zip(rows, pivots)) > 1


def test_rows_rescaled_by_the_pivot_lcm():
    # the basis [2, 0, 1], [0, 3, 1] has pivot entries 2 and 3: each later
    # row is multiplied by 6 before the basis rows are subtracted, and all
    # three reduce to zero
    d_rows = [[2, 0, 1], [0, 3, 1], [2, 3, 2], [4, -3, 1], [6, 6, 5]]
    expected = ([[2, 0, 1], [0, 3, 1]], [0, 1], [0, 1])
    assert _reduce_rows(d_rows) == expected == reference_reduce_rows(d_rows)
    # [1, 1, 1] reduces to 6 [1, 1, 1] - 3 [2, 0, 1] - 2 [0, 3, 1] = [0, 0, 1]
    d_rows.append([1, 1, 1])
    assert _reduce_rows(d_rows) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2], [0, 1, 5])
    assert _reduce_rows(d_rows) == reference_reduce_rows(d_rows)


def test_stops_at_full_rank():
    # the third row would change nothing: rows 0 and 1 already span Z^2
    d_rows = [[1, 0], [1, 1], [5, 7]]
    assert _reduce_rows(d_rows) == ([[1, 0], [0, 1]], [0, 1], [0, 1]) == reference_reduce_rows(d_rows)


def test_scan_never_requests_a_row_after_full_rank():
    def d_rows():
        yield [1, 0]
        yield [1, 1]
        pytest.fail("a row after the full-rank row was requested")

    assert _reduce_rows(d_rows()) == ([[1, 0], [0, 1]], [0, 1], [0, 1])


def test_k7_decision_reads_only_the_rows_up_to_full_rank(monkeypatch):
    # K7 has 847 star-factors, so D has 846 rows, and the basis reaches its
    # full rank of 21 at the 187th; the decision forms no row after that
    reads = []

    def counting_reduce_rows(d_rows):
        reads.append(0)

        def counted():
            for row in d_rows:
                reads[-1] += 1
                yield row

        return _reduce_rows(counted())

    monkeypatch.setattr(solver, "_reduce_rows", counting_reduce_rows)
    k7 = Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    masks = enumerate_star_factors(k7)
    outcome = solver.decide_uniform_weighting(masks, k7.m)
    assert len(masks) - 1 == 846
    assert reads[0] == 187
    assert solver.verify_outcome(incidence_vectors(masks, k7.m), outcome)
