"""Property-based checks with randomly generated graphs."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor.census import evaluate_graph
from starfactor.classifier import CaseTag, Verdict, classify
from starfactor.factors import (
    VacuousGraph,
    edge_count_spectrum,
    enumerate_star_factors,
    incidence_vectors,
)
from starfactor.graph import (
    Graph,
    connected_components,
    girth,
    parse_graph6,
    to_graph6,
)
from starfactor.solver import Witness, omega_oracle, verify_outcome

from conftest import leaves_and_stems, relabel


@st.composite
def graphs(draw, max_n=8, max_m=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    cap = len(pairs) if max_m is None else min(max_m, len(pairs))
    chosen = draw(
        st.lists(st.sampled_from(pairs), max_size=cap, unique=True)
        if pairs
        else st.just([])
    )
    return Graph(n, tuple(sorted(chosen)))


@st.composite
def permutations_of(draw, n):
    perm = list(range(n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rng.shuffle(perm)
    return perm


@st.composite
def graph_with_permutation(draw, max_n=7):
    g = draw(graphs(max_n=max_n))
    perm = draw(permutations_of(g.n))
    return g, perm


# component kinds: most vertices, and most chords added to a random tree
COMPONENT_KINDS = {
    "cycle": (9, 0), "dense": (5, 6), "path": (9, 0), "sparse": (9, 2), "tree": (9, 0)
}


@st.composite
def disconnected_graphs(draw, max_n=9):
    """Disjoint unions of paths, cycles, random trees, trees with a few
    chords, dense graphs on at most five vertices and sometimes an
    isolated vertex, relabeled by a random permutation."""
    edges: list[tuple[int, int]] = []
    n = draw(st.integers(0, 3)) // 3  # an isolated vertex 0 first, or none
    while n < max_n - 1:
        kind = draw(st.sampled_from(sorted(COMPONENT_KINDS)))
        most, chords = COMPONENT_KINDS[kind]
        k = draw(st.integers(2, min(most, max_n - n)))
        if kind in ("path", "cycle"):
            part = [(n + i, n + i + 1) for i in range(k - 1)]
            part += [(n, n + k - 1)] if kind == "cycle" and k > 2 else []
        else:
            part = [(n + draw(st.integers(0, i - 1)), n + i) for i in range(1, k)]
            pairs = [(n + u, n + v) for v in range(k) for u in range(v)]
            rest = [pair for pair in pairs if pair not in part]
            if rest and chords:
                part += draw(st.lists(st.sampled_from(rest), max_size=chords, unique=True))
        edges += part
        n += k
        if draw(st.booleans()):
            break
    perm = draw(permutations_of(n))
    return relabel(Graph.from_edges(n, edges), perm)


class TestGraphProperties:
    @given(graphs(max_n=12))
    @settings(max_examples=300, deadline=None)
    def test_graph6_round_trip(self, g):
        assert parse_graph6(to_graph6(g)) == g

    @given(graph_with_permutation(max_n=8))
    @settings(max_examples=150, deadline=None)
    def test_girth_relabeling_invariant(self, gp):
        g, perm = gp
        assert girth(relabel(g, perm)) == girth(g)

    @given(graphs(max_n=10))
    @settings(max_examples=150, deadline=None)
    def test_forest_iff_infinite_girth(self, g):
        comps = connected_components(g)
        is_forest = g.m == g.n - len(comps)
        assert (girth(g).value is None) == is_forest

    @given(graphs(max_n=10))
    @settings(max_examples=150, deadline=None)
    def test_stems_are_exactly_leaf_neighbors(self, g):
        # classify marks a vertex as a stem exactly when it is a leaf's
        # neighbor: a structural component is all leaves and stems
        # exactly when each of its vertices is a leaf or a leaf's neighbor
        leaves, stems = leaves_and_stems(g)
        for report in classify(g).per_component:
            if report.kind != "OracleFallback":
                covered = (leaves | stems).issuperset(report.vertices)
                assert (report.tag is CaseTag.ALL_LEAF_OR_STEM) == covered

    @given(graphs(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_deleting_an_edge_never_shrinks_girth(self, g):
        if g.m == 0:
            return
        h = Graph(g.n, g.edges[1:])
        assert girth(h).at_least(girth(g).value or 3)


class TestFactorProperties:
    @given(graph_with_permutation(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_factor_count_relabeling_invariant(self, gp):
        g, perm = gp
        h = relabel(g, perm)

        def count(graph):
            try:
                return len(enumerate_star_factors(graph))
            except VacuousGraph:
                return None

        assert count(g) == count(h)

    @given(graph_with_permutation(max_n=6))
    @settings(max_examples=100, deadline=None)
    def test_spectrum_relabeling_invariant(self, gp):
        g, perm = gp
        h = relabel(g, perm)
        try:
            sa = edge_count_spectrum(enumerate_star_factors(g))
        except VacuousGraph:
            return
        sb = edge_count_spectrum(enumerate_star_factors(h))
        assert sa == sb


class TestVerdictProperties:
    @given(graph_with_permutation(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_oracle_verdict_relabeling_invariant(self, gp):
        g, perm = gp
        assert omega_oracle(g).verdict == omega_oracle(relabel(g, perm)).verdict

    @given(graphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_uniform_edge_counts_imply_membership(self, g):
        # constant weights witness membership whenever all factors have
        # the same number of edges
        try:
            factors = enumerate_star_factors(g)
        except VacuousGraph:
            return
        if len(edge_count_spectrum(factors)) == 1:
            assert omega_oracle(g).verdict is Verdict.MEMBER

    @given(graphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_classifier_agrees_with_oracle(self, g):
        oracle = omega_oracle(g).verdict
        assert oracle is not Verdict.CAP_EXCEEDED
        assert classify(g).verdict is oracle

    @given(graphs(max_n=7, max_m=12))
    @settings(max_examples=200, deadline=None)
    def test_all_ones_witness_iff_uniform_edge_counts(self, g):
        # the census counts a graph as uniform when the oracle's witness
        # is all ones
        try:
            factors = enumerate_star_factors(g)
        except VacuousGraph:
            return
        uniform = len(edge_count_spectrum(factors)) == 1
        witness = omega_oracle(g).witness
        all_ones = witness is not None and all(w == 1 for w in witness.weighting.weights)
        assert all_ones == uniform
        assert evaluate_graph(g)[0].u_members == uniform


class TestClassifierProperties:
    @given(disconnected_graphs())
    @settings(max_examples=500, deadline=None)
    def test_classification_matches_oracle_and_components(self, g):
        cls = classify(g)
        assert cls.girth == girth(g)
        oracle = omega_oracle(g)
        assert cls.verdict is oracle.verdict
        if cls.verdict is Verdict.VACUOUS:
            return
        reported = [r.vertices for r in cls.per_component]
        assert all(list(verts) == sorted(verts) for verts in reported)
        assert [frozenset(verts) for verts in reported] == connected_components(g)
        if cls.verdict is Verdict.MEMBER:
            vectors = incidence_vectors(enumerate_star_factors(g), g.m)
            weights = cls.witness.weights
            common = sum(w for w, bit in zip(weights, vectors[0]) if bit)
            assert verify_outcome(vectors, Witness(cls.witness, common))
