"""Star-factor enumeration against the 2^m brute-force subset filter."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor.factors import (
    CapExceeded,
    VacuousGraph,
    edge_count_spectrum,
    enumerate_star_factors,
    factor_stars,
    incidence_vectors,
)
from starfactor.graph import Graph

from conftest import (
    brute_star_factor_edge_sets,
    cycle,
    disjoint_union,
    double_star_graph,
    mask_edge_set,
    path,
    spider,
    star,
)
from test_properties import graphs


def reference_incidence_vectors(masks, m):
    """Vectors marked index by index from each factor's edge set."""
    vectors = []
    for mask in masks:
        v = [0] * m
        for i in mask_edge_set(mask):
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
            got = [mask_edge_set(f) for f in enumerate_star_factors(g)]
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
            assert mask_edge_set(factors[0]) == frozenset(range(m))


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
        assert [mask_edge_set(f) for f in factors] == expected
        for f in factors:
            stars = factor_stars(g, f)
            rebuilt = {g.edge_index[(min(c, x), max(c, x))] for c, leaves in stars for x in leaves}
            assert rebuilt == mask_edge_set(f)
        if len(expected) > cap:
            with pytest.raises(CapExceeded):
                enumerate_star_factors(g, cap=cap)
        else:
            assert len(enumerate_star_factors(g, cap=cap)) == len(expected)


class TestStructure:
    def test_ordering_is_lexicographic_by_edge_set(self):
        factors = enumerate_star_factors(cycle(6))
        keys = [tuple(sorted(mask_edge_set(f))) for f in factors]
        assert keys == sorted(keys)

    @given(graphs(max_n=8, max_m=14))
    @settings(max_examples=300, deadline=None)
    def test_edge_sets_are_an_antichain_in_sorted_order(self, g):
        # the enumerator sorts by a bit-reversed edge mask; that order is
        # the lexicographic one only because no edge set contains another
        if g.has_isolated_vertex():
            return
        factors = enumerate_star_factors(g)
        edge_sets = [mask_edge_set(f) for f in factors]
        for a, b in itertools.combinations(edge_sets, 2):
            assert not a <= b and not b <= a
        assert factors == sorted(factors, key=lambda f: tuple(sorted(mask_edge_set(f))))

    def test_stars_partition_vertices(self):
        for g in [cycle(6), spider(2), double_star_graph()]:
            for f in enumerate_star_factors(g):
                seen = []
                for center, leaves in factor_stars(g, f):
                    seen.append(center)
                    seen.extend(leaves)
                    assert len(leaves) >= 1
                    assert all((min(center, x), max(center, x)) in g.edge_index for x in leaves)
                assert sorted(seen) == list(range(g.n))

    def test_k11_orientations_collapse(self):
        g = Graph.from_edges(2, [(0, 1)])
        factors = enumerate_star_factors(g)
        assert len(factors) == 1
        assert factor_stars(g, factors[0]) == ((0, (1,)),)

    def test_star_centers_have_all_leaves(self):
        # in P3 the middle vertex must be the center
        g = path(3)
        factors = enumerate_star_factors(g)
        assert factor_stars(g, factors[0]) == ((1, (0, 2)),)

    def test_empty_graph_has_no_stars(self):
        assert enumerate_star_factors(Graph(0, ())) == [0]
        assert factor_stars(Graph(0, ()), 0) == ()

    @given(graphs(max_n=8, max_m=14))
    @settings(max_examples=300, deadline=None)
    def test_stars_read_off_every_factor(self, g):
        if g.has_isolated_vertex():
            return
        for f in enumerate_star_factors(g):
            stars = factor_stars(g, f)
            degree = [0] * g.n
            for i in mask_edge_set(f):
                for x in g.edges[i]:
                    degree[x] += 1
            vertices = [x for center, leaves in stars for x in (center, *leaves)]
            assert sorted(vertices) == list(range(g.n))
            edges = set()
            for center, leaves in stars:
                assert leaves and list(leaves) == sorted(leaves)
                for x in leaves:
                    edge = (min(center, x), max(center, x))
                    assert edge in g.edge_index
                    edges.add(g.edge_index[edge])
                if len(leaves) >= 2:
                    assert degree[center] >= 2
                    assert all(degree[x] == 1 for x in leaves)
                else:
                    assert center < leaves[0]
            lowest = [min(center, *leaves) for center, leaves in stars]
            assert lowest == sorted(lowest)
            assert edges == mask_edge_set(f)


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
            assert {i for i, bit in enumerate(vec) if bit} == mask_edge_set(f)

    def test_incidence_vector_range_check(self):
        # edge 3 cannot be marked in a vector of length 2
        with pytest.raises(ValueError):
            incidence_vectors([1 << 3], 2)
        with pytest.raises(ValueError):
            incidence_vectors([-1], 2)

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
        assert incidence_vectors(masks, m) == reference_incidence_vectors(masks, m)

    def test_spectrum(self):
        # [DERIVED: C6 has 2 factors of 3 edges and 3 of 4 edges]
        spectrum = edge_count_spectrum(enumerate_star_factors(cycle(6)))
        assert dict(spectrum) == {3: 2, 4: 3}

    def test_spectrum_of_union_adds_counts(self):
        g = disjoint_union(path(3), path(3))
        spectrum = edge_count_spectrum(enumerate_star_factors(g))
        assert dict(spectrum) == {4: 1}
