"""Graph construction, parsing, girth, and structural primitives."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor.classifier import classify
from starfactor.graph import (
    DuplicateEdgeError,
    EdgeCountError,
    EdgeListParseError,
    Girth,
    Graph,
    Graph6Error,
    GraphError,
    LoopError,
    VertexRangeError,
    connected_components,
    girth,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)

from conftest import (
    brute_girth,
    cycle,
    disjoint_union,
    format_edge_list,
    path,
    petersen,
    star,
    time_limit,
)
from test_properties import disconnected_graphs, graphs


class TestConstruction:
    def test_from_edges_normalizes_order(self):
        g = Graph.from_edges(3, [(2, 0), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_loop_rejected(self):
        with pytest.raises(LoopError):
            Graph.from_edges(2, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Graph(2, ((0, 1), (0, 1)))

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexRangeError):
            Graph.from_edges(2, [(0, 2)])

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(GraphError, match=r"edge \(1, 0\) not normalized"):
            Graph(2, ((1, 0),))

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 2), (0, 1)))

    def test_adjacency_and_degree(self):
        g = star(3)
        assert g.adjacency[0] == (1, 2, 3)
        assert len(g.adjacency[0]) == 3
        assert all(len(g.adjacency[v]) == 1 for v in range(1, 4))

    def test_edge_index_matches_position(self):
        g = cycle(4)
        for i, e in enumerate(g.edges):
            assert g.edge_index[e] == i

    def test_isolated_vertex_detection(self):
        assert Graph(2, ()).has_isolated_vertex()
        assert not cycle(3).has_isolated_vertex()


def reference_validate(n, edges):
    """``Graph.__post_init__`` as it was before it checked each edge with
    one comparison chain: four checks per edge, on an edge tuple."""
    previous = (-1, -1)
    for u, v in edges:
        if u == v:
            raise LoopError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) out of range 0..{n - 1}")
        if u > v:
            raise GraphError(f"edge ({u}, {v}) not normalized (u < v required)")
        if (u, v) <= previous:
            if (u, v) == previous:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
            raise GraphError("edge list must be sorted lexicographically")
        previous = (u, v)


def outcome(check, n, edges):
    """None if ``check(n, edges)`` accepts, else its exception's type and
    message."""
    try:
        check(n, edges)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def edge_lists(values, most):
    """Every sequence of at most ``most`` pairs drawn from values x values."""
    pairs = list(itertools.product(values, repeat=2))
    return [edges for k in range(most + 1) for edges in itertools.product(pairs, repeat=k)]


class TestValidationEquivalence:
    """Every input keeps the reference's outcome: accepted, or the same
    exception type and message."""

    @staticmethod
    def assert_same_outcomes(ns, inputs):
        seen = set()
        for n in ns:
            for edges in inputs:
                want = outcome(reference_validate, n, edges)
                assert outcome(Graph, n, edges) == want, (n, edges)
                seen.add(None if want is None else want[0])
        return seen

    def test_every_small_input(self):
        seen = self.assert_same_outcomes(range(4), edge_lists(range(-1, 4), 3))
        assert seen == {None, LoopError, VertexRangeError, GraphError, DuplicateEdgeError}

    def test_pairs_as_lists(self):
        lists = [tuple(map(list, edges)) for edges in edge_lists(range(-1, 4), 2)]
        assert len(self.assert_same_outcomes(range(4), lists)) == 5

    def test_bool_and_float_vertices(self):
        values = [False, True, 0.0, 0.5, 1.0, 1.5, 2.0, -0.5, math.inf, math.nan]
        self.assert_same_outcomes([0, 1, 2, 3, 2.5], edge_lists(values, 2))

    def test_pairs_of_the_wrong_length(self):
        inputs = [((),), ((0,),), ((0, 1, 2),), ((0, 1), (1,)), ((0, 1), (0, 2, 1)), ((1, 0, 2),)]
        assert ValueError in self.assert_same_outcomes(range(4), inputs)

    def test_vertices_that_do_not_compare_with_ints(self):
        inputs = [(("a", "a"),), (("a", "b"),), ((0, "b"),), ((None, 1),), ((0, 1), (0, None)), ((0, 1),)]
        self.assert_same_outcomes([2, None, "3"], inputs)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle(5)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blank_lines_ignored(self):
        text = "# a triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n"
        assert parse_edge_list(text) == cycle(3)

    def test_header_mismatch(self):
        with pytest.raises(EdgeCountError):
            parse_edge_list("2 2\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("  \n# only a comment\n")

    def test_non_integer_tokens(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("2 1\n0 x\n")

    def test_edge_line_with_three_tokens(self):
        with pytest.raises(EdgeListParseError, match="expected 'u v', got '0 1 2'"):
            parse_edge_list("2 1\n0 1 2\n")

    def test_loop_and_duplicate_in_text(self):
        with pytest.raises(LoopError):
            parse_edge_list("2 1\n1 1\n")
        with pytest.raises(DuplicateEdgeError):
            parse_edge_list("2 2\n0 1\n1 0\n")


class TestGraph6:
    def test_known_encoding_k2(self):
        # [DERIVED: hand encoding] n=2 -> 'A', single bit 1 -> 100000 -> '_'
        assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
        assert parse_graph6("A_") == Graph.from_edges(2, [(0, 1)])

    def test_empty_graph_on_five_vertices(self):
        assert parse_graph6("D??") == Graph(5, ())

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<A_") == Graph.from_edges(2, [(0, 1)])

    def test_round_trip_petersen(self):
        g = petersen()
        assert parse_graph6(to_graph6(g)) == g

    def test_trailing_bytes_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A__")

    def test_truncated_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D")

    def test_nonzero_padding_rejected(self):
        # 'A' declares n=2 (1 significant bit); '?'+1 = '@' has bit 2 set
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(63 + 0b010000))

    def test_bytes_outside_range_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A\x1f")

    def test_byte_outside_range_named(self):
        # "A\x1f" above strips to "A", since \x1f is whitespace, and fails as
        # truncated; DEL (127) is kept and reaches the range check
        with pytest.raises(Graph6Error, match="byte 127 outside graph6 range 63..126"):
            parse_graph6("A\x7f")

    def test_non_ascii_rejected(self):
        with pytest.raises(Graph6Error, match="non-ASCII character"):
            parse_graph6("A\u00e9")

    def test_large_n_unsupported(self):
        with pytest.raises(Graph6Error):
            parse_graph6("~??")
        with pytest.raises(Graph6Error):
            to_graph6(Graph(63, ()))


class TestGirth:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle_girth(self, n):
        assert girth(cycle(n)).value == n

    def test_forest_infinite(self):
        assert girth(path(6)).value is None
        assert girth(Graph(3, ())).value is None

    def test_petersen_girth_five(self):
        assert girth(petersen()).value == 5

    def test_matches_brute_force_on_small_graphs(self):
        # [DERIVED: edge-removal-distance girth on every 5-vertex graph,
        # 1,024 of them, many with several components]
        import itertools

        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, r):
                g = Graph(5, tuple(sorted(chosen)))
                assert girth(g).value == brute_girth(g), g.edges

    @given(disconnected_graphs(max_n=14))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_on_disjoint_unions(self, g):
        # paths, cycles, trees and random graphs side by side, relabeled
        assert girth(g).value == brute_girth(g)

    def test_long_tree_beside_a_cycle_is_not_quadratic(self):
        # a BFS from each vertex of the path would take minutes; the path
        # is a tree by its degree sum, so only the triangle is searched
        n = 20_000
        g = Graph(n + 3, tuple([(i, i + 1) for i in range(n - 1)] + [(n, n + 1), (n, n + 2), (n + 1, n + 2)]))
        with time_limit(2.0):
            assert girth(g).value == 3
            assert classify(g).girth.value == 3

    @pytest.mark.parametrize("chord", [False, True], ids=["C20000", "C20000+chord"])
    def test_long_cycle_is_not_quadratic(self, chord):
        # a BFS from each vertex of the cycle would take minutes; a lone
        # cycle gets one BFS, and with a chord only its two ends are roots
        n = 20_000
        g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + ([(0, n // 2)] if chord else []))
        with time_limit(2.0):
            assert girth(g).value == (n // 2 + 1 if chord else n)
            assert classify(g).girth.value == girth(g).value

    @given(graphs(max_n=7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_on_subdivided_graphs(self, base, data):
        # subdividing edges makes long runs of degree-2 vertices, which the
        # BFS never starts from
        n, edges = base.n, []
        for u, v in base.edges:
            k = data.draw(st.integers(0, 3))
            chain = [u, *range(n, n + k), v]
            edges += zip(chain, chain[1:])
            n += k
        g = Graph.from_edges(n, edges)
        assert girth(g).value == brute_girth(g)

    def test_comparison_protocol(self):
        assert Girth(None).at_least(5) and Girth(None).at_least(10**9)
        assert Girth(5).at_least(5) and not Girth(4).at_least(5)
        assert Girth(6) == Girth(6) and Girth(6) != Girth(7) and Girth(6) != Girth(None)
        assert hash(Girth(6)) == hash(Girth(6))
        assert str(Girth(None)) == "Infinite" and str(Girth(5)) == "5"


class TestComponentsAndSubgraphs:
    def test_components_of_union(self):
        g = disjoint_union(cycle(3), path(2))
        assert connected_components(g) == [frozenset({0, 1, 2}), frozenset({3, 4})]
