"""The certificate's coefficients by one Bareiss solve, against the row
reduction it replaced.

``reference_refutation`` below is an earlier ``solver._refutation``, kept
verbatim apart from its name and its row reduction.  It summed
``forced_zero`` in Fractions and solved the r x r coefficient system with
the general row reduction on integer rows, ``reference_reduce_rows`` in
``conftest``.  The current ``_refutation`` reads the factors' edge
masks where the reference reads their incidence vectors, sums over one
common denominator and solves the system by fraction-free elimination
with no row exchange.  The coefficients are unique, so wherever y is integral
both must return equal ``Refutation``s.  That covers every refutation the
oracle makes for a connected graph with n <= 6 (54 of them come from LP2,
whose y is not a unit vector).  No graph up to n = 7 gives a y with a
fraction, so random graphs' bases are paired with random rational y.
There the system's right-hand side is scaled to integers by the lcm of
y's denominators, and the reference never divided by that scale: its
coefficients came out scale times too large, and did not sum to its own
``forced_zero``.  The test requires the current coefficients to sum to
it, and to be the reference's divided by the scale.  Elimination with no
row exchange needs every leading minor of the system to be nonzero; a
plain integer elimination checks that.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor import solver
from starfactor.census import generate_connected
from starfactor.factors import IncidenceVector, enumerate_star_factors, incidence_vectors
from starfactor.graph import Graph
from starfactor.solver import ZERO, Refutation, _refutation

from conftest import reference_reduce_rows


def reference_refutation(
    vectors: Sequence[IncidenceVector],
    ys: Sequence[Fraction],
    rows: list[list[int]],
    pivots: list[int],
    used: list[int],
) -> Refutation:
    """The certificate y.B with B the reduced basis, and its coefficients on D.

    The used D rows are independent, so the coefficients c are unique; on
    the pivot columns y.B equals y, so they solve the r x r system
    sum_t c_t D[used_t][pivot_j] = y_j, which is reduced fraction-free too.
    Its entries are read off the incidence vectors, as D[t][p] is
    x_{t+2}[p] - x_1[p].
    """
    forced = [ZERO] * len(rows[0])
    for y, row, p in zip(ys, rows, pivots):
        if y != ZERO:
            for e, x in enumerate(row):
                if x:
                    forced[e] += y * Fraction(x, row[p])
    scale = math.lcm(*(y.denominator for y in ys))
    system = [
        [vectors[t + 1][p] - vectors[0][p] for t in used]
        + [y.numerator * (scale // y.denominator)]
        for y, p in zip(ys, pivots)
    ]
    coeffs = [ZERO] * (len(vectors) - 1)
    for row, t in zip(*reference_reduce_rows(system)[:2]):
        coeffs[used[t]] = Fraction(row[-1], row[t])
    return Refutation(coeffs=tuple(coeffs), forced_zero=tuple(forced))


def leading_minors_nonzero(vectors, pivots, used) -> bool:
    """Elimination by cross-multiplication without row exchange on
    A[j][t] = D[used_t][pivot_j].  Scaling a row by a nonzero pivot keeps
    every leading minor zero or nonzero, and the k-th pivot is nonzero iff
    the k-th leading minor is, given the ones before."""
    first = vectors[0]
    a = [[vectors[t + 1][p] - first[p] for t in used] for p in pivots]
    for k, head in enumerate(a):
        if not head[k]:
            return False
        for i in range(k + 1, len(a)):
            f = a[i][k]
            if f:
                a[i] = [x * head[k] - f * h for x, h in zip(a[i], head)]
    return True


@pytest.fixture(scope="module")
def connected_graph_refutations():
    """(refutations, ones with a non-unit y, mismatches, singular systems)
    over every connected labeled graph with 2 <= n <= 6."""
    seen = [0, 0]
    mismatches = []
    singular = []

    def compared(masks, ys, rows, pivots, used):
        got = _refutation(masks, ys, rows, pivots, used)
        vectors = incidence_vectors(masks, len(rows[0]))
        seen[0] += 1
        seen[1] += sorted(ys) != [ZERO] * (len(ys) - 1) + [1]
        if got != reference_refutation(vectors, ys, rows, pivots, used):
            mismatches.append(vectors)
        if not leading_minors_nonzero(vectors, pivots, used):
            singular.append(vectors)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_refutation", compared)
        for n in range(2, 7):
            for g in generate_connected(n):
                solver.omega_oracle(g)
    return seen[0], seen[1], mismatches, singular


def test_every_connected_graph_refutation_matches(connected_graph_refutations):
    count, from_lp2, mismatches, _ = connected_graph_refutations
    assert count > 20_000
    assert from_lp2 == 54
    assert mismatches == []


def test_every_connected_graph_system_has_nonzero_leading_minors(connected_graph_refutations):
    _, _, _, singular = connected_graph_refutations
    assert singular == []


def combination(vectors, coeffs) -> tuple[Fraction, ...]:
    """sum_i coeffs[i] * (x_{i+1} - x_1), entrywise in Fractions."""
    first = vectors[0]
    return tuple(
        sum((c * (vec[e] - first[e]) for c, vec in zip(coeffs, vectors[1:]) if c), ZERO)
        for e in range(len(first))
    )


@st.composite
def graphs_with_two_factors(draw, max_n=7):
    """Graphs on 3..max_n vertices with no isolated vertex and at least
    two star-factors, by construction.  Each pair is an edge when its draw
    from 0..9 is below the density; each isolated vertex is then joined to
    a drawn vertex, and the missing pairs are added in a drawn order until
    there are two factors, which K_n has for n >= 3.  No graph on seven
    vertices has more star-factors than K7's 847."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(min_value=0, max_value=10))
    draws = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=len(pairs), max_size=len(pairs)))
    edges = {pair for pair, x in zip(pairs, draws) if x < density}
    for v in range(n):
        if not any(v in e for e in edges):
            w = draw(st.integers(min_value=0, max_value=n - 2))
            w += w >= v
            edges.add((min(v, w), max(v, w)))
    missing = draw(st.permutations([pair for pair in pairs if pair not in edges]))
    g = Graph.from_edges(n, edges)
    for pair in missing:
        if len(enumerate_star_factors(g)) >= 2:
            break
        g = Graph.from_edges(n, [*g.edges, pair])
    return g


@settings(max_examples=150, deadline=None)
@given(graphs_with_two_factors(), st.data())
def test_random_basis_and_rational_y(g, data):
    masks = enumerate_star_factors(g, cap=1000)
    vectors = incidence_vectors(masks, g.m)
    rows, pivots, used = reference_reduce_rows([[a - b for a, b in zip(v, vectors[0])] for v in vectors[1:]])
    # two distinct factors make a nonzero row of D
    assert rows
    # y is drawn with one nonzero entry at a drawn place
    y = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    ys = data.draw(st.lists(y, min_size=len(rows), max_size=len(rows)))
    nonzero = st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)
    ys[data.draw(st.integers(min_value=0, max_value=len(rows) - 1))] = data.draw(nonzero) * data.draw(st.sampled_from([1, -1]))
    got = _refutation(masks, ys, rows, pivots, used)
    expected = reference_refutation(vectors, ys, rows, pivots, used)
    assert got.forced_zero == expected.forced_zero
    assert combination(vectors, got.coeffs) == got.forced_zero
    # the reference solved A c = scale * y and did not divide by scale, so
    # its coefficients were scale times too large wherever y had a fraction
    scale = math.lcm(*(y.denominator for y in ys))
    assert expected.coeffs == tuple(scale * c for c in got.coeffs)
    assert leading_minors_nonzero(vectors, pivots, used)
