"""The all-ones shortcut against the linear program it skips.

When every star-factor has the same edge count, ``decide_uniform_weighting``
returns the all-ones witness before it forms any row of D.
``reference_lp1_witness`` below is the path every member took before: the
row basis of D (its rows x_i - x_1 built inline), then LP1
(maximize t subject to B w = 0, w_e >= t, w_e <= 1) on each block of
the basis, each block's optimum scaled to minimum weight one.  With equal
edge counts every row of the basis sums to zero, so t = 1, w = 1 is each
block's unique optimum, and on every such graph both must return the same
witness, byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starfactor.factors import (
    VacuousGraph,
    edge_count_spectrum,
    enumerate_star_factors,
    incidence_vectors,
)
from starfactor.graph import Graph
from starfactor.solver import (
    Weighting,
    Witness,
    decide_uniform_weighting,
    verify_outcome,
)

from conftest import double_star_graph, reference_block_lps, reference_reduce_rows


def reference_lp1_witness(vectors) -> Witness:
    """LP1's witness on the reduced row basis of D, one block of the basis
    at a time; asserts that every block's LP1 has a positive optimum, so
    call it on members only."""
    d_rows = [[a - b for a, b in zip(v, vectors[0])] for v in vectors[1:]]
    rows, pivots, _ = reference_reduce_rows(d_rows)
    weights, _ = reference_block_lps(rows, pivots, len(vectors[0]))
    assert weights is not None
    common = sum(w for w, bit in zip(weights, vectors[0]) if bit)
    return Witness(weighting=Weighting(tuple(weights)), common_weight=Fraction(common))


@st.composite
def uniform_factors(draw):
    """(edge masks, m) of the star-factors of a graph with n <= 7 and
    m <= 12 whose star-factors all have one edge count."""
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = set(draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)))
    # give each bare vertex an edge, while m allows, so few draws are vacuous
    for v in range(n):
        if len(chosen) < 12 and not any(v in pair for pair in chosen):
            u = draw(st.sampled_from([u for u in range(n) if u != v]))
            chosen.add((min(u, v), max(u, v)))
    g = Graph(n, tuple(sorted(chosen)))
    try:
        factors = enumerate_star_factors(g)
    except VacuousGraph:
        assume(False)
    assume(len(edge_count_spectrum(factors)) == 1)
    return factors, g.m


@given(uniform_factors())
@settings(max_examples=300, deadline=None)
def test_shortcut_equals_lp1(factors_and_m):
    factors, m = factors_and_m
    expected = reference_lp1_witness(incidence_vectors(factors, m))
    assert decide_uniform_weighting(factors, m) == expected


def test_several_edge_counts_keep_the_lp_witness():
    # the double star's factors have 7 to 10 edges: only LP1 finds its witness
    g = double_star_graph()
    factors = enumerate_star_factors(g)
    assert len(edge_count_spectrum(factors)) > 1
    vectors = incidence_vectors(factors, g.m)
    outcome = decide_uniform_weighting(factors, g.m)
    assert outcome == reference_lp1_witness(vectors)
    assert len(set(outcome.weighting.weights)) > 1
    assert verify_outcome(vectors, outcome)
