"""The submask search against the combinations search it replaced.

``reference_enumerate_star_factors`` below is an earlier
``factors.enumerate_star_factors``, kept verbatim apart from its name.
Each of its search nodes built ``(center, leaves)`` tuples with
``itertools.combinations`` and looped over the leaves to place a star.
The current search walks the same leaf sets as submasks of a bitmask and
gets each star's edges and neighbors with one OR.  Both sort the factors
at the end, so on every graph they must return the same list, raise the
same exception, and meet the cap at the same count.

The search keeps one generator per node on its path and takes one child
at a time from it.  A search that built all of a node's children first
needs memory for the whole level; on K_18 with a cap of 1000 the last
test would see it.
"""

from __future__ import annotations

import tracemalloc
from itertools import combinations
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor.census import generate_connected
from starfactor.factors import DEFAULT_CAP, CapExceeded, VacuousGraph, enumerate_star_factors
from starfactor.graph import Graph, induced_components

from conftest import cycle, double_star_graph, path, petersen, star


def reference_enumerate_star_factors(g: Graph, cap: int = DEFAULT_CAP) -> list[int]:
    """Edge masks of g's distinct star-factors, lexicographically by edge set.

    Backtracks on the lowest uncovered vertex v: either v is a center with
    some nonempty subset of its uncovered neighbors as leaves, or v is a
    leaf of an uncovered neighbor u together with a nonempty subset of u's
    other uncovered neighbors.  A K_{1,1} is made only in the first branch,
    from its lower endpoint, so every factor is reached exactly once and
    the cap counts as it goes.  Vertex sets are int bitmasks.  A branch is
    cut as soon as an uncovered vertex next to the star just placed has no
    uncovered neighbor left (only those can lose their last one), so the
    search grows no branch that cannot finish.  The search keeps an
    explicit stack, so its depth is not bounded by Python's recursion limit.

    Edge sets are int masks too, accumulated as stars are placed.  Edge i
    sets bit i of the low m bits and bit m-1-i of the high m bits.  No
    factor's edge set contains another's (an extra edge uv joins u's star
    and v's star into a path of length 3), so the first edge in which two
    sorted edge tuples differ is the least edge of the symmetric
    difference, and the factor holding it comes first: descending order
    of the high half, one native int sort.

    Raises VacuousGraph if g has an isolated vertex and CapExceeded if more
    than ``cap`` factors exist (never a silent truncation).
    """
    if g.has_isolated_vertex():
        raise VacuousGraph("graph has an isolated vertex")
    if cap < 1:
        raise ValueError("cap must be positive")
    if g.n == 0:
        return [0]
    m = g.m
    adjacency = g.adjacency
    reach = [sum(1 << u for u in ns) for ns in adjacency]
    # edge_bits[u][v]: edge uv's bit in both halves of the accumulated mask
    edge_bits: list[dict[int, int]] = [{} for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        edge_bits[u][v] = edge_bits[v][u] = 1 << (2 * m - 1 - i) | 1 << i
    found: list[int] = []

    def stars_at(v: int, free: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(center, leaves) for every star that covers v, given the mask
        ``free`` of the other uncovered vertices."""
        around = [u for u in adjacency[v] if free >> u & 1]
        for size in range(1, len(around) + 1):
            for leaves in combinations(around, size):
                yield v, leaves
        for u in around:
            others = [x for x in adjacency[u] if free >> x & 1]
            for size in range(1, len(others) + 1):
                for extra in combinations(others, size):
                    yield u, (v,) + extra

    # frames[k] = (uncovered mask, edge mask of the stars placed above
    # depth k, the stars covering its lowest vertex still to try)
    full = (1 << g.n) - 1
    frames = [(full, 0, stars_at(0, full ^ 1))]
    while frames:
        uncovered, edges, stars = frames[-1]
        star = next(stars, None)
        if star is None:
            frames.pop()
            continue
        center, leaves = star
        left = uncovered & ~(1 << center)
        near = reach[center]
        bits = edge_bits[center]
        for x in leaves:
            left &= ~(1 << x)
            near |= reach[x]
            edges |= bits[x]
        if not left:
            found.append(edges)
            if len(found) > cap:
                raise CapExceeded(cap)
            continue
        # cut if an uncovered vertex next to the star has lost its last
        # uncovered neighbor; near stops at the lowest such vertex
        near &= left
        while near and reach[(near & -near).bit_length() - 1] & left:
            near &= near - 1
        if near:
            continue
        v = (left & -left).bit_length() - 1
        frames.append((left, edges, stars_at(v, left ^ (1 << v))))
    found.sort(reverse=True)
    low = (1 << m) - 1
    return [edges & low for edges in found]


def outcome(enumerate_, g: Graph, cap: int) -> list[int] | type:
    """The factor list, or the type of the exception raised instead."""
    try:
        return enumerate_(g, cap)
    except (CapExceeded, VacuousGraph) as exc:
        return type(exc)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_connected_labeled_graph(n):
    count = 0
    for g in generate_connected(n):
        assert enumerate_star_factors(g) == reference_enumerate_star_factors(g), g.edges
        count += 1
    assert count == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}[n]  # OEIS A001187


@st.composite
def any_graphs(draw, max_n=12):
    """Graphs on 0..max_n vertices, isolated vertices and m = 0 included;
    each pair is an edge when its draw from 0..9 is below the density."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(min_value=0, max_value=10))
    draws = draw(st.lists(st.integers(min_value=0, max_value=9), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(pair for pair, x in zip(pairs, draws) if x < density))


@settings(max_examples=200, deadline=None)
@given(any_graphs())
def test_same_outcome_on_random_graphs(g):
    expected = outcome(reference_enumerate_star_factors, g, 20_000)
    assert outcome(enumerate_star_factors, g, 20_000) == expected
    if isinstance(expected, list) and len(expected) > 1:
        assert outcome(enumerate_star_factors, g, len(expected) - 1) is CapExceeded
        assert enumerate_star_factors(g, len(expected)) == expected


@pytest.mark.parametrize(
    "g",
    [complete(7), petersen(), double_star_graph(), cycle(12), path(14), star(5), Graph(2, ((0, 1),))],
    ids=["k7", "petersen", "double_star", "c12", "p14", "star5", "k2"],
)
def test_cap_boundary(g):
    expected = reference_enumerate_star_factors(g)
    count = len(expected)
    if count > 1:
        with pytest.raises(CapExceeded):
            enumerate_star_factors(g, cap=count - 1)
        with pytest.raises(CapExceeded):
            reference_enumerate_star_factors(g, cap=count - 1)
    assert enumerate_star_factors(g, cap=count) == expected


def test_edge_cases_match():
    for g in [Graph(0, ()), Graph(1, ()), Graph(3, ((0, 1),)), Graph(4, ((0, 1), (2, 3)))]:
        assert outcome(enumerate_star_factors, g, 10) == outcome(reference_enumerate_star_factors, g, 10)


def test_dense_graph_with_cap_stops_in_little_memory():
    # K_18 has far more than 1000 star-factors.  Taking one child at a time,
    # the search holds one generator per level of its path; a search that
    # built every child of a node first held tens of MiB more already on K_16.
    k18 = complete(18)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            enumerate_star_factors(k18, cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("g", [complete(5), complete(6), petersen()], ids=["k5", "k6", "petersen"])
def test_every_cap_up_to_one_past_the_count(g):
    # the search finishes a node with 4 or fewer uncovered vertices inline,
    # appending up to 3 factors at once; every cap must still be met at
    # the count where the reference meets it
    count = len(reference_enumerate_star_factors(g))
    for cap in range(1, count + 2):
        assert outcome(enumerate_star_factors, g, cap) == outcome(reference_enumerate_star_factors, g, cap), cap


def test_every_labeled_graph_on_five_vertices_and_every_disconnected_one_on_six():
    # connected or not: a remainder can be parts of two components.  One
    # star is placed before any remainder is finished, so two disjoint
    # edges are first finished inline on 6 vertices; the connected graphs
    # on 6 are test_every_connected_labeled_graph's, and a graph with an
    # isolated vertex has no factor
    count = 0
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for subset in range(1 << len(pairs)):
            g = Graph(n, tuple(pair for i, pair in enumerate(pairs) if subset >> i & 1))
            if n == 6 and (g.has_isolated_vertex() or len(induced_components(g.adjacency)) == 1):
                continue
            assert outcome(enumerate_star_factors, g, 20_000) == outcome(reference_enumerate_star_factors, g, 20_000), g.edges
            count += 1
    # on 6: 15 perfect matchings, 15 * 38 of K_2 + a connected 4-vertex
    # graph (OEIS A001187), 10 * 4 * 4 of two connected 3-vertex graphs
    assert count == 1 + 1 + 2 + 8 + 64 + 1024 + 15 + 15 * 38 + 10 * 4 * 4
