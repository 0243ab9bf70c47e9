"""LP1 and LP2 one block of the row basis at a time, against the whole basis.

The reduced row basis B of D is block-diagonal: two rows share a block
when they are nonzero in a shared column, and the blocks share no
variable.  ``decide_uniform_weighting`` runs LP1 on each block's columns,
scales each block's weights to minimum 1 and gives weight 1 to an edge in
no row of B; at the first block whose LP1 optimum is 0 it runs LP2 on that
block alone, with y zero on every other row.  ``whole_basis_decision``
below is the decision as it was before: LP1 over all m edges and, at
optimum 0, LP2 over every row of B.  On every connected isomorphism class
with n <= 7, the girth >= 5 graphs on 8 vertices and random graphs with
pendant leaves, the two must give the same verdict and the block form's
outcome must pass ``verify_outcome``.  Where B has one block, the block's
LP is the whole basis's LP with the free edges (those in no row of B)
left out: a certificate must be the same to the byte, and a witness the
same once the whole basis's weights on the free edges are set to 1.
Every LP-decided class with n <= 7 has a free edge, so a witness's bytes
move even where B has one block.

A block of one row b is decided in closed form, with no LP: with P the
sum of b's positive entries and N that of its negative ones' absolute
values, LP1's optimum is t* = min(P, N) / max(P, N), and its weights,
scaled to minimum 1, are 1 on the side with the larger sum and
max(P, N) / min(P, N) on the other.  The closed form must equal LP1 run
on that row, on every one-row block the connected classes with n <= 7
meet and on random primitive rows of both signs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starfactor import solver
from starfactor.census import _connected_classes
from starfactor.factors import (
    CapExceeded,
    VacuousGraph,
    enumerate_star_factors,
    incidence_vectors,
    mask_bits,
)
from starfactor.graph import Graph, parse_graph6
from starfactor.solver import (
    ONE,
    ZERO,
    FeasibilityOutcome,
    Weighting,
    Witness,
    Refutation,
    decide_uniform_weighting,
    verify_outcome,
)

from conftest import (
    DATA_DIR,
    disjoint_union,
    double_star_graph,
    reduced_rows,
    reference_blocks,
    reference_lp1,
    reference_lp2,
)
from test_enumerator_equivalence import any_graphs
from test_mask_decision_equivalence import same_outcome


def _basis(masks: list[int], m: int):
    """The library's row basis of D, read off the masks, and the index of
    its first nonnegative row, or None when it has none."""
    rows, pivots, used, stop = solver._reduce_rows(mask_bits(masks[0], m), islice(masks, 1, None))
    assert stop == next((j for j, row in enumerate(rows) if min(row) >= 0), None)
    return rows, pivots, used, stop


def _needs_lp(masks: list[int], rows: list[list[int]]) -> bool:
    """Neither the all-ones nor the one-signed-row shortcut decides."""
    if len(set(map(int.bit_count, masks))) == 1:
        return False
    return not any(all(x >= 0 for x in row) for row in rows)


def whole_basis_decision(masks: list[int], m: int) -> FeasibilityOutcome:
    """The decision with LP1 over all m edges and LP2 over all of B."""
    if len(set(map(int.bit_count, masks))) == 1:
        return Witness(weighting=Weighting((ONE,) * m), common_weight=Fraction(masks[0].bit_count()))
    rows, pivots, used, _ = _basis(masks, m)
    r = len(rows)
    for j, row in enumerate(rows):
        if all(x >= 0 for x in row):
            ys = [ZERO] * r
            ys[j] = ONE
            return solver._refutation(masks, ys, rows, pivots, used)
    basis = reduced_rows(rows, pivots, list(range(m)))
    t_opt, x = reference_lp1(basis)
    if t_opt > ZERO:
        scale = min(x[:m])
        weighting = Weighting(tuple(w / scale for w in x[:m]))
        common = sum(w for w, bit in zip(weighting.weights, mask_bits(masks[0], m)) if bit)
        return Witness(weighting=weighting, common_weight=Fraction(common))
    return solver._refutation(masks, reference_lp2(basis), rows, pivots, used)


def _free_edges_at_one(outcome: FeasibilityOutcome, free: set[int], first: bytes) -> FeasibilityOutcome:
    """A witness with weight 1 on the ``free`` edges, or a certificate as it is."""
    if not isinstance(outcome, Witness):
        return outcome
    weights = [ONE if e in free else w for e, w in enumerate(outcome.weighting.weights)]
    common = sum(w for w, bit in zip(weights, first) if bit)
    return Witness(weighting=Weighting(tuple(weights)), common_weight=Fraction(common))


def check(g: Graph, masks: list[int]) -> int:
    """Assert the block form against the whole basis on g; returns the
    number of LP blocks (0 when a shortcut decides)."""
    outcome = decide_uniform_weighting(masks, g.m)
    expected = whole_basis_decision(masks, g.m)
    assert type(outcome) is type(expected), g.edges
    assert verify_outcome(incidence_vectors(masks, g.m), outcome), g.edges
    rows, pivots, _, _ = _basis(masks, g.m)
    if not _needs_lp(masks, rows):
        assert repr(outcome) == repr(expected), g.edges
        return 0
    blocks = solver._blocks(rows, pivots)
    assert blocks == reference_blocks(rows, pivots), g.edges
    if len(blocks) == 1:
        free = set(range(g.m)) - set(blocks[0][1])
        adjusted = _free_edges_at_one(expected, free, mask_bits(masks[0], g.m))
        assert repr(outcome) == repr(adjusted), g.edges
    return len(blocks)


def test_every_connected_class_up_to_seven_vertices():
    classes = _connected_classes(7, None)
    graphs = [g for n in range(2, 8) for g, _ in classes[n]]
    assert len(graphs) == 995  # OEIS A001349, n = 2..7
    counts = [check(g, enumerate_star_factors(g)) for g in graphs]
    # the classes reach both the one-block and the several-block LP stage
    assert counts.count(1) > 0
    assert sum(count > 1 for count in counts) > 0


def test_girth5_graphs_on_eight_vertices():
    lines = (DATA_DIR / "girth5_connected_n8.g6").read_text().split()
    assert len(lines) == 47
    for line in lines:
        g = parse_graph6(line)
        check(g, enumerate_star_factors(g))


def test_double_star_blocks():
    g = double_star_graph()
    masks = enumerate_star_factors(g)
    rows, pivots, _, _ = _basis(masks, g.m)
    blocks = solver._blocks(rows, pivots)
    assert [(len(block), len(columns)) for block, columns in blocks] == [(3, 5), (1, 3), (1, 3)]
    assert g.m - sum(len(columns) for _, columns in blocks) == 4
    assert check(g, masks) == 3


def test_one_row_basis_is_one_block():
    # a basis of one row is its own block over the row's nonzero columns,
    # found without the row-column search
    assert solver._blocks([[1, 0, -2, 0, 1]], [0]) == [([0], [0, 2, 4])]
    classes = _connected_classes(7, None)
    one_row = 0
    for g in (g for n in range(2, 8) for g, _ in classes[n]):
        masks = enumerate_star_factors(g)
        rows, pivots, _, _ = _basis(masks, g.m)
        if len(rows) == 1 and _needs_lp(masks, rows):
            assert solver._blocks(rows, pivots) == reference_blocks(rows, pivots), g.edges
            one_row += 1
    # the paw (a triangle with a pendant edge) is one of them, with B = [[0, 1, -1, -1]]
    assert one_row == 11


def test_certificate_from_any_block():
    # "ErY?" is a six-vertex graph whose refutation needs LP2 on its one
    # block; beside the double star's three member blocks, LP2 runs on the
    # last block or the first, and y is zero on the double star's rows
    lp2_graph = parse_graph6("ErY?")
    star = double_star_graph()
    for g, star_edges in (
        (disjoint_union(star, lp2_graph), range(star.m)),
        (disjoint_union(lp2_graph, star), range(lp2_graph.m, lp2_graph.m + star.m)),
    ):
        masks = enumerate_star_factors(g)
        assert check(g, masks) == 4
        outcome = decide_uniform_weighting(masks, g.m)
        assert isinstance(outcome, Refutation)
        assert not any(outcome.forced_zero[e] for e in star_edges)
        assert same_outcome(masks, g.m)


@st.composite
def graphs_with_pendant_leaves(draw):
    """A random graph on up to 7 vertices with up to 3 pendant leaves
    hung on its vertices, which puts edges in every factor and so splits
    the basis."""
    g = draw(any_graphs(max_n=7))
    assume(g.n > 0)
    stems = draw(st.lists(st.integers(min_value=0, max_value=g.n - 1), max_size=3))
    edges = [*g.edges, *((stem, g.n + i) for i, stem in enumerate(stems))]
    return Graph.from_edges(g.n + len(stems), edges)


@settings(max_examples=200, deadline=None)
@given(graphs_with_pendant_leaves())
def test_random_graphs_with_pendant_leaves(g):
    try:
        masks = enumerate_star_factors(g, cap=2000)
    except (VacuousGraph, CapExceeded):
        assume(False)
    check(g, masks)


def check_one_row(row: list[int], pivot: int) -> None:
    """The closed form against LP1 on ``row``, a primitive row of both
    signs with no zero entry, positive at ``pivot``; LP1 reads it divided
    by its pivot entry, as the decision builds a block's LP1."""
    weights = solver._one_row_weights(row)
    t_opt, x = solver._lp1(reduced_rows([row], [pivot], list(range(len(row)))))
    positive = sum(v for v in row if v > 0)
    negative = -sum(v for v in row if v < 0)
    assert t_opt == Fraction(min(positive, negative), max(positive, negative)), row
    scale = min(x[: len(row)])
    assert weights == [w / scale for w in x[: len(row)]], row
    assert all(type(w) is Fraction for w in weights)


def test_one_row_blocks_of_every_connected_class_up_to_seven_vertices():
    classes = _connected_classes(7, None)
    rows_seen = 0
    for g in (g for n in range(2, 8) for g, _ in classes[n]):
        masks = enumerate_star_factors(g)
        rows, pivots, _, _ = _basis(masks, g.m)
        if not _needs_lp(masks, rows):
            continue
        for block, columns in solver._blocks(rows, pivots):
            if len(block) == 1:
                row, pivot = rows[block[0]], pivots[block[0]]
                check_one_row([row[e] for e in columns], columns.index(pivot))
                rows_seen += 1
    # 32 one-row blocks, 10 of them with P = N, beside 18 of 2 to 4 rows
    assert rows_seen == 32


@st.composite
def primitive_mixed_rows(draw):
    """(row, pivot): a primitive integer row with entries of both signs and
    none zero, some with P = N, and a pivot at one of its positive
    entries, not always the largest."""
    entries = st.integers(min_value=1, max_value=7)
    positive = draw(st.lists(entries, min_size=1, max_size=5))
    negative = draw(st.lists(entries, min_size=1, max_size=5))
    gap = sum(positive) - sum(negative)
    if gap and draw(st.booleans()):
        # one more entry on the lighter side makes P = N
        (negative if gap > 0 else positive).append(abs(gap))
    row = draw(st.permutations([*positive, *(-v for v in negative)]))
    divisor = math.gcd(*row)
    row = [v // divisor for v in row]
    pivot = draw(st.sampled_from([e for e, v in enumerate(row) if v > 0]))
    return row, pivot


@settings(max_examples=300, deadline=None)
@given(primitive_mixed_rows())
@example(([1, -1], 0))  # P = N: every weight 1
@example(([1, 1, -2], 1))  # P = N over three entries
@example(([1, 3, -2], 0))  # the largest entry is not the pivot
@example(([2, -3, -1], 0))  # P < N
@example(([1, -5, 2, 3], 0))  # P > N, the pivot the smallest positive entry
def test_one_row_closed_form_is_lp1(case):
    check_one_row(*case)
