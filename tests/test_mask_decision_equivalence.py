"""The decision on edge masks against the decision on incidence vectors.

``reference_decide_uniform_weighting`` and ``reference_refutation`` below
are an earlier ``solver.decide_uniform_weighting`` and
``solver._refutation``, kept verbatim apart from their names, their row
basis and their LP stage.  They read every factor as an m-tuple of 0/1
entries: the oracle built one tuple per factor with ``incidence_vectors``
(847 for K7, 5,041 for K8) and summed each for the all-ones shortcut.
Their row basis is ``conftest.reference_reduce_rows``, which eliminates
every row of D it is given over every column, and their LP stage is
``conftest.reference_block_lps``, LP1 and LP2 one block of the basis at a
time, as the library runs them.  The current decision takes the factors'
edge masks as ``enumerate_star_factors`` returns them.  It compares bit
counts for the shortcut, tests each row x_i - x_1 of D against the row
basis by one packed sum read off its mask, only when the row basis asks
for it, stops asking right after the first row that leaves a
nonnegative row in the basis, and reads the certificate's system off the
masks' bits.  So the reference is run on the prefix of D that the scan
read (all of D when no basis on the way has a nonnegative row), and a
row past that prefix gets coefficient 0.  Both bases are then the unique
one of that prefix's row space, entered by the same rows in the same
order, so every outcome must be the same to the byte: ``repr`` is
compared on every connected isomorphism class with n <= 7, on K8 and K9
and on random graphs with n <= 10.  Three more tests check that the oracle
builds no incidence vector, that K7's and K8's decisions form four D
rows, up to the first nonnegative basis row, of 846 and 5,040, and that
they form no row past D's shortest prefix of full rank m.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

import pytest
from hypothesis import assume, given, settings

import starfactor
from starfactor import factors, solver
from starfactor.census import _connected_classes
from starfactor.factors import (
    CapExceeded,
    IncidenceVector,
    VacuousGraph,
    enumerate_star_factors,
    incidence_vectors,
)
from starfactor.graph import Graph
from starfactor.solver import (
    ONE,
    ZERO,
    FeasibilityOutcome,
    Refutation,
    Verdict,
    Weighting,
    Witness,
    decide_uniform_weighting,
    omega_oracle,
)

from conftest import (
    cycle,
    double_star_graph,
    path,
    petersen,
    reference_block_lps,
    reference_reduce_rows,
)
from test_enumerator_equivalence import any_graphs
from test_row_basis_equivalence import scan


def reference_refutation(
    vectors: Sequence[IncidenceVector],
    ys: Sequence[Fraction],
    rows: list[list[int]],
    pivots: list[int],
    used: list[int],
) -> Refutation:
    """The certificate y.B with B the reduced basis, and its coefficients on D.

    y.B is summed in integers over one common denominator.  The used D
    rows are independent, so the coefficients c are unique; on the pivot
    columns y.B equals y, so they solve the r x r system A c = y with
    A[j][t] = D[used_t][pivot_j], read off the incidence vectors as
    x_{used_t+2}[p] - x_1[p].  Its k-th leading minor, the first k used
    rows read on the first k pivots, is nonzero: those rows span the basis
    as it stood when the k-th of them entered, and that basis is zero at
    each other's pivots and nonzero at its own.  So Bareiss's fraction-free
    elimination runs without row exchanges: each step divides exactly by
    the step before's pivot, and the last pivot is the determinant det.
    An equation whose pivot would be negative is negated, which changes no
    solution; with consecutive pivots equal, a row with no entry to clear
    stays as it is.  Integer back substitution on A c = scale * y, scale
    the lcm of y's denominators, then gives X = det * scale * c (Cramer's
    rule), and c = X / (det * scale).
    """
    # forced_zero = sum_j y_j b_j / b_j[p_j], times the lcm of those denominators
    terms = [(y, row, y.denominator * row[p]) for y, row, p in zip(ys, rows, pivots) if y]
    denominator = math.lcm(*(d for _, _, d in terms))
    totals = [0] * len(rows[0])
    for y, row, d in terms:
        weight = y.numerator * (denominator // d)
        totals = [total + weight * x for total, x in zip(totals, row)]
    forced = tuple(Fraction(total, denominator) if total else ZERO for total in totals)

    r = len(rows)
    scale = math.lcm(*(y.denominator for y in ys))
    first = vectors[0]
    columns = [vectors[t + 1] for t in used]
    a = []
    for y, p in zip(ys, pivots):
        x1 = first[p]
        a.append([x[p] - x1 for x in columns] + [y.numerator * (scale // y.denominator)])
    previous = 1
    for k in range(r - 1):
        head = a[k]
        if head[k] < 0:
            head[k:] = [-x for x in head[k:]]
        pivot = head[k]
        tail = head[k + 1 :]
        # entries left of k + 1 are never read again, so they keep their values
        for row in a[k + 1 :]:
            f = row[k]
            if f:
                row[k + 1 :] = [(x * pivot - f * h) // previous for x, h in zip(row[k + 1 :], tail)]
            elif pivot != previous:
                row[k + 1 :] = [x * pivot // previous for x in row[k + 1 :]]
        previous = pivot
    det = a[-1][-2]
    xs = [0] * r
    for t in range(r - 1, -1, -1):
        row = a[t]
        xs[t] = (det * row[r] - sum(map(mul, row[t + 1 : r], xs[t + 1 :]))) // row[t]
    coeffs = [ZERO] * (len(vectors) - 1)
    for t, x in zip(used, xs):
        coeffs[t] = Fraction(x, det * scale)
    return Refutation(coeffs=tuple(coeffs), forced_zero=forced)


def reference_decide_uniform_weighting(vectors: Sequence[IncidenceVector]) -> FeasibilityOutcome:
    """Exact decision: uniform positive weighting, or a Stiemke certificate."""
    if not vectors:
        raise ValueError("at least one incidence vector required")
    m = len(vectors[0])
    if any(len(v) != m for v in vectors):
        raise ValueError("incidence vectors must all have the same length")
    # Every factor has the same edge count iff D 1 = 0, and then t <= w_e <= 1
    # makes t = 1, w = 1 LP1's unique optimum: its witness is all ones.
    edge_count = sum(vectors[0])
    if all(sum(v) == edge_count for v in vectors):
        return Witness(weighting=Weighting.constant(m), common_weight=Fraction(edge_count))
    # D's rows x_i - x_1 (i >= 2)
    first = vectors[0]
    rows, pivots, used = reference_reduce_rows([[a - b for a, b in zip(v, first)] for v in vectors[1:]])

    # A one-signed basis row is already a certificate; its pivot entry is
    # positive, so it is nonnegative.
    r = len(rows)
    for j, row in enumerate(rows):
        if all(x >= 0 for x in row):
            ys = [ZERO] * r
            ys[j] = ONE
            return reference_refutation(vectors, ys, rows, pivots, used)

    # LP1 on each block of the basis, and LP2 on the first block whose
    # LP1 optimum is 0
    weights, ys = reference_block_lps(rows, pivots, m)
    if weights is not None:
        common = sum(w for w, bit in zip(weights, vectors[0]) if bit)
        return Witness(weighting=Weighting(tuple(weights)), common_weight=Fraction(common))
    return reference_refutation(vectors, ys, rows, pivots, used)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def same_outcome(masks: list[int], m: int) -> bool:
    read = scan(masks, m)[1]
    expected = reference_decide_uniform_weighting(incidence_vectors(masks[: 1 + read], m))
    if isinstance(expected, Refutation):
        # the rows past the prefix are no part of the certificate
        coeffs = expected.coeffs + (ZERO,) * (len(masks) - 1 - read)
        expected = Refutation(coeffs=coeffs, forced_zero=expected.forced_zero)
    return repr(decide_uniform_weighting(masks, m)) == repr(expected)


def test_every_connected_class_up_to_seven_vertices():
    classes = _connected_classes(7, None)
    graphs = [g for n in range(2, 8) for g, _ in classes[n]]
    assert len(graphs) == 995  # OEIS A001349, n = 2..7
    mismatches = [g.edges for g in graphs if not same_outcome(enumerate_star_factors(g), g.m)]
    assert mismatches == []


@pytest.mark.parametrize("n", [8, 9])
def test_complete_graph(n):
    g = complete(n)
    assert same_outcome(enumerate_star_factors(g), g.m)


@settings(max_examples=150, deadline=None)
@given(any_graphs(max_n=10))
def test_same_outcome_on_random_graphs(g):
    try:
        masks = enumerate_star_factors(g, cap=2000)
    except (VacuousGraph, CapExceeded):
        assume(False)
    assert same_outcome(masks, g.m)


NAMED = {
    "c12": (cycle(12), Verdict.NOT_MEMBER),
    "p14": (path(14), Verdict.NOT_MEMBER),
    "petersen": (petersen(), Verdict.NOT_MEMBER),
    "double_star": (double_star_graph(), Verdict.MEMBER),
    "k7": (complete(7), Verdict.NOT_MEMBER),
    "matching14": (Graph.from_edges(28, [(2 * i, 2 * i + 1) for i in range(14)]), Verdict.MEMBER),
}


@pytest.mark.parametrize("name", NAMED)
def test_oracle_builds_no_incidence_vector(name, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the oracle built incidence vectors")

    for module in (starfactor, factors, solver):
        monkeypatch.setattr(module, "incidence_vectors", refused, raising=False)
    g, verdict = NAMED[name]
    result = omega_oracle(g)
    assert result.verdict is verdict
    monkeypatch.undo()
    assert same_outcome(enumerate_star_factors(g), g.m)


@pytest.mark.parametrize("n, factor_count, rows", [(7, 847, 4), (8, 5041, 4)])
def test_decision_forms_the_rows_up_to_the_first_nonnegative_row_only(n, factor_count, rows, monkeypatch):
    # one mask_bits call reads x_1 and one forms each row x_i - x_1 that
    # the row basis asks for; it stops asking at the first nonnegative
    # basis row, long before full rank m
    calls = [0]
    mask_bits = solver.mask_bits

    def counted(mask, m):
        calls[0] += 1
        return mask_bits(mask, m)

    monkeypatch.setattr(solver, "mask_bits", counted)
    g = complete(n)
    masks = enumerate_star_factors(g)
    outcome = decide_uniform_weighting(masks, g.m)
    assert len(masks) == factor_count
    assert isinstance(outcome, Refutation)
    assert calls[0] == 1 + rows
    assert solver.verify_outcome(incidence_vectors(masks, g.m), outcome)


@pytest.mark.parametrize("n, factor_count, rows", [(7, 847, 187), (8, 5041, 953)])
def test_decision_forms_the_rows_up_to_full_rank_only(n, factor_count, rows, monkeypatch):
    # D's first ``rows`` rows are its shortest prefix of full rank m; a
    # full-rank basis is the identity, hence nonnegative, so the scan
    # never forms a row past that prefix
    calls = [0]
    mask_bits = solver.mask_bits

    def counted(mask, m):
        calls[0] += 1
        return mask_bits(mask, m)

    monkeypatch.setattr(solver, "mask_bits", counted)
    g = complete(n)
    masks = enumerate_star_factors(g)
    outcome = decide_uniform_weighting(masks, g.m)
    assert len(masks) == factor_count
    assert isinstance(outcome, Refutation)
    assert calls[0] <= 1 + rows
    vectors = incidence_vectors(masks[: 1 + rows], g.m)
    first = vectors[0]
    _, _, used = reference_reduce_rows([[a - b for a, b in zip(v, first)] for v in vectors[1:]])
    assert len(used) == g.m
    assert used[-1] == rows - 1
