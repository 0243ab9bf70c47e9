"""The integer simplex's shortcuts against the rational reference.

``simplex.solve`` gives a row of ints denominator 1 without taking an
lcm, and cuts the artificial columns once phase 1 ends.  Neither may
change a pivot.  The first test replays the programs the oracle itself
hands to ``simplex.solve`` through both solvers: LP1 and LP2 on one
block of the row basis each, up to 19 variables and 15 rows on the
six-vertex graphs, against the Hypothesis programs' 6 variables.  A block
of one row is decided in closed form and never reaches the simplex, so
only blocks of two or more rows are replayed: no connected graph with
n <= 5 has one, and every 13th connected labeled graph on 6 vertices
gives 182 programs of all five shapes that the 26,704 graphs give.  The
second test passes each integral entry as an ``int``, as ``Fraction(k)``
and as a mix of the two, and expects one path.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_simplex_equivalence as rational
from starfactor import simplex
from starfactor.census import generate_connected
from starfactor.factors import enumerate_star_factors
from starfactor.graph import Graph, parse_graph6
from starfactor.solver import decide_uniform_weighting

from conftest import DATA_DIR, double_star_graph


def _programs(graphs: list[Graph]) -> list[tuple]:
    """Every (c, rows, rhs) that deciding ``graphs`` hands to simplex.solve."""
    captured: list[tuple] = []
    solve = simplex.solve

    def recording(c, rows, rhs):
        captured.append((c, rows, rhs))
        return solve(c, rows, rhs)

    simplex.solve = recording
    try:
        for g in graphs:
            decide_uniform_weighting(enumerate_star_factors(g), g.m)
    finally:
        simplex.solve = solve
    return captured


def _lp2_six_vertex_graphs() -> list[Graph]:
    # The solver golden file's six-vertex graphs are the 54 whose
    # refutation needs LP2 (test_solver_golden checks this).
    golden = json.loads((DATA_DIR / "solver_golden.json").read_text(encoding="utf-8"))
    return [g for g in map(parse_graph6, golden) if g.n == 6]


def _girth5_n8_graphs() -> list[Graph]:
    lines = (DATA_DIR / "girth5_connected_n8.g6").read_text().split()
    return [parse_graph6(line) for line in lines]


SOURCES = {
    "double_star": lambda: [double_star_graph()],
    "lp2_n6": _lp2_six_vertex_graphs,
    "connected_n6": lambda: list(generate_connected(6))[::13],
    "girth5_n8": _girth5_n8_graphs,
}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_oracle_programs_pivot_as_the_rational_reference(source):
    programs = _programs(SOURCES[source]())
    assert programs
    for c, rows, rhs in programs:
        expected = rational._run(rational, rational.reference_solve, c, rows, rhs)
        assert rational._run(simplex, simplex.solve, c, rows, rhs) == expected


def test_oracle_programs_include_lp1_blocks_and_lp2():
    # the double star's basis: blocks of 3, 1 and 1 rows over 5, 3 and 3
    # edges, by lowest pivot; its other 4 edges lie in no row, and the
    # one-row blocks are decided without the simplex
    sizes = [(len(c), len(rows)) for c, rows, _ in _programs([double_star_graph()])]
    assert sizes == [(16, 13)]
    lp2 = _programs(_lp2_six_vertex_graphs())
    assert len(lp2) == 2 * 54


@st.composite
def integral_programs(draw):
    """(c, rows, rhs, mix): an integral program, some feasible and
    degenerate with redundant rows, and a flag per entry for the mix."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=1, max_value=4))
    ints = st.integers(min_value=-3, max_value=3)
    rows = [draw(st.lists(ints, min_size=nvars, max_size=nvars)) for _ in range(nrows)]
    if draw(st.booleans()):
        rows.append([1] * nvars)
    if draw(st.booleans()):
        x0 = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=nvars, max_size=nvars))
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = [draw(ints) for _ in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        f = draw(st.sampled_from([1, -1, 2]))
        rows.append([f * a + b for a, b in zip(rows[i], rows[j])])
        rhs.append(f * rhs[i] + rhs[j])
    c = draw(st.one_of(st.just([0] * nvars), st.lists(ints, min_size=nvars, max_size=nvars)))
    size = (nvars + 1) * len(rows)
    mix = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return c, rows, rhs, mix


def _as_fractions(c, rows, rhs, keep):
    """The program with each entry j, in row order then rhs, a Fraction
    unless keep(j)."""
    flat = iter(range(len(rows) * (len(c) + 1)))
    new_rows = [[x if keep(next(flat)) else Fraction(x) for x in row] for row in rows]
    new_rhs = [b if keep(next(flat)) else Fraction(b) for b in rhs]
    return [Fraction(x) for x in c], new_rows, new_rhs


@settings(max_examples=300, deadline=None)
@given(integral_programs())
# One row of ints beside one that mixes ints and Fractions.
@example(([0, 1], [[1, 1], [1, -1]], [2, 0], [True, True, True, False, True, True]))
def test_int_entries_take_the_path_of_their_fraction_copies(program):
    c, rows, rhs, mix = program
    as_ints = rational._run(simplex, simplex.solve, c, rows, rhs)
    for keep in (lambda j: False, lambda j: mix[j]):
        program = _as_fractions(c, rows, rhs, keep)
        assert rational._run(simplex, simplex.solve, *program) == as_ints
