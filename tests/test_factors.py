"""Star-factor enumeration against the 2^m brute-force subset filter."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor.factors import (
    CapExceeded,
    StarFactor,
    VacuousGraph,
    edge_count_spectrum,
    enumerate_star_factors,
    incidence_vectors,
)
from starfactor.graph import Graph

from conftest import (
    brute_star_factor_edge_sets,
    cycle,
    disjoint_union,
    double_star_graph,
    path,
    spider,
    star,
)
from test_properties import graphs


def reference_incidence_vectors(factors, m):
    """Vectors marked index by index from each factor's edge set."""
    vectors = []
    for f in factors:
        v = [0] * m
        for i in f.edge_set:
            v[i] = 1
        vectors.append(tuple(v))
    return vectors


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            yield Graph(n, tuple(sorted(chosen)))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_small_graph_matches_subset_filter(self, n):
        # [DERIVED: degrees-only subset filter over all 2^m edge subsets]
        for g in all_graphs(n):
            expected = brute_star_factor_edge_sets(g)
            if g.has_isolated_vertex():
                with pytest.raises(VacuousGraph):
                    enumerate_star_factors(g)
                assert expected == []  # the filter agrees nothing spans
                continue
            got = [f.edge_set for f in enumerate_star_factors(g)]
            assert got == expected

    def test_cycle_counts(self):
        # [DERIVED: brute-force subset filter]
        counts = {3: 3, 4: 2, 5: 5, 6: 5, 7: 7, 8: 10, 9: 12, 10: 17}
        for n, expected in counts.items():
            assert len(enumerate_star_factors(cycle(n))) == expected

    def test_path_counts(self):
        # [DERIVED: brute-force subset filter]
        counts = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 4}
        for n, expected in counts.items():
            assert len(enumerate_star_factors(path(n))) == expected

    def test_star_has_exactly_one_factor(self):
        for m in range(1, 6):
            factors = enumerate_star_factors(star(m))
            assert len(factors) == 1
            assert factors[0].edge_set == frozenset(range(m))


class TestRandomGraphs:
    # any graph with n <= 8 and m <= 12: disconnected ones and ones with
    # isolated vertices included
    @given(graphs(max_n=8, max_m=12), st.integers(min_value=1, max_value=12))
    @settings(max_examples=500, deadline=None)
    def test_matches_subset_filter_stars_and_cap(self, g, cap):
        # [DERIVED: degrees-only subset filter over all 2^m edge subsets]
        expected = brute_star_factor_edge_sets(g)
        if g.has_isolated_vertex():
            with pytest.raises(VacuousGraph):
                enumerate_star_factors(g)
            assert expected == []
            return
        factors = enumerate_star_factors(g)
        assert [f.edge_set for f in factors] == expected
        for f in factors:
            rebuilt = {g.edge_index[(min(c, x), max(c, x))] for c, leaves in f.stars for x in leaves}
            assert rebuilt == f.edge_set
        if len(expected) > cap:
            with pytest.raises(CapExceeded):
                enumerate_star_factors(g, cap=cap)
        else:
            assert len(enumerate_star_factors(g, cap=cap)) == len(expected)


class TestStructure:
    def test_ordering_is_lexicographic_by_edge_set(self):
        factors = enumerate_star_factors(cycle(6))
        keys = [tuple(sorted(f.edge_set)) for f in factors]
        assert keys == sorted(keys)

    @given(graphs(max_n=8, max_m=14))
    @settings(max_examples=300, deadline=None)
    def test_edge_sets_are_an_antichain_in_sorted_order(self, g):
        # the enumerator sorts by a bit-reversed edge mask; that order is
        # the lexicographic one only because no edge set contains another
        if g.has_isolated_vertex():
            return
        factors = enumerate_star_factors(g)
        edge_sets = [f.edge_set for f in factors]
        for a, b in itertools.combinations(edge_sets, 2):
            assert not a <= b and not b <= a
        assert factors == sorted(factors, key=lambda f: tuple(sorted(f.edge_set)))

    def test_stars_partition_vertices(self):
        for g in [cycle(6), spider(2), double_star_graph()]:
            for f in enumerate_star_factors(g):
                seen = []
                for center, leaves in f.stars:
                    seen.append(center)
                    seen.extend(leaves)
                    assert len(leaves) >= 1
                    assert all((min(center, x), max(center, x)) in g.edge_index for x in leaves)
                assert sorted(seen) == list(range(g.n))

    def test_k11_orientations_collapse(self):
        g = Graph.from_edges(2, [(0, 1)])
        factors = enumerate_star_factors(g)
        assert len(factors) == 1
        assert factors[0].stars == ((0, frozenset({1})),)

    def test_star_centers_have_all_leaves(self):
        # in P3 the middle vertex must be the center
        factors = enumerate_star_factors(path(3))
        assert factors[0].stars == ((1, frozenset({0, 2})),)


class TestErrorsAndLimits:
    def test_single_vertex_is_vacuous(self):
        with pytest.raises(VacuousGraph):
            enumerate_star_factors(Graph(1, ()))

    def test_isolated_vertex_in_larger_graph(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(VacuousGraph):
            enumerate_star_factors(g)

    def test_cap_exceeded_is_loud(self):
        with pytest.raises(CapExceeded) as exc:
            enumerate_star_factors(cycle(6), cap=4)
        assert exc.value.cap == 4

    def test_cap_boundary_exact_count_allowed(self):
        assert len(enumerate_star_factors(cycle(6), cap=5)) == 5

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            enumerate_star_factors(cycle(5), cap=0)


class TestCoordinates:
    def test_incidence_vectors_mark_edge_sets(self):
        g = cycle(5)
        factors = enumerate_star_factors(g)
        vectors = incidence_vectors(factors, g.m)
        for f, vec in zip(factors, vectors):
            assert len(vec) == g.m
            assert {i for i, bit in enumerate(vec) if bit} == f.edge_set

    def test_incidence_vector_range_check(self):
        # edge 3 cannot be marked in a vector of length 2
        f = StarFactor(edge_mask=1 << 3, placed=((0, (1,)),))
        with pytest.raises(ValueError):
            incidence_vectors([f], 2)
        with pytest.raises(ValueError):
            incidence_vectors([StarFactor(-1, ())], 2)

    @given(graphs(max_n=8, max_m=12))
    @settings(max_examples=300, deadline=None)
    def test_incidence_vectors_match_reference(self, g):
        if g.has_isolated_vertex():
            return
        factors = enumerate_star_factors(g)
        assert incidence_vectors(factors, g.m) == reference_incidence_vectors(factors, g.m)

    @given(st.integers(min_value=0, max_value=80), st.data())
    @settings(max_examples=300, deadline=None)
    def test_incidence_vectors_of_any_mask(self, m, data):
        # widths past 64 bits too, and m = 0 (the empty graph's one factor)
        masks = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), max_size=4))
        factors = [StarFactor(mask, ()) for mask in masks]
        assert incidence_vectors(factors, m) == reference_incidence_vectors(factors, m)

    def test_spectrum(self):
        # [DERIVED: C6 has 2 factors of 3 edges and 3 of 4 edges]
        spectrum = edge_count_spectrum(enumerate_star_factors(cycle(6)))
        assert dict(spectrum) == {3: 2, 4: 3}

    def test_spectrum_of_union_adds_counts(self):
        g = disjoint_union(path(3), path(3))
        spectrum = edge_count_spectrum(enumerate_star_factors(g))
        assert dict(spectrum) == {4: 1}
