"""Star-factor enumeration and incidence-vector coordinatization.

A star-factor is a spanning subgraph in which every component is a star
K_{1,k} with k >= 1; a bare vertex is not a star, so graphs with isolated
vertices have no star-factors at all.  The enumerator backtracks over int
vertex bitmasks, cuts every branch that leaves some uncovered vertex
without an uncovered neighbor, and keeps each factor's stars as it
placed them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import Graph

DEFAULT_CAP = 10**6

# 0/1 vector over edge indices marking a factor's edge set.
IncidenceVector = tuple[int, ...]


class CapExceeded(Exception):
    """More distinct star-factors exist than the configured cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} star-factors")
        self.cap = cap


class VacuousGraph(Exception):
    """The graph has an isolated vertex, hence no star-factor."""


@dataclass(frozen=True)
class StarFactor:
    """A spanning star forest: per-star (center, leaves) plus its edge set."""

    stars: tuple[tuple[int, frozenset[int]], ...]
    edge_set: frozenset[int]

    @property
    def edge_count(self) -> int:
        return len(self.edge_set)


def enumerate_star_factors(g: Graph, cap: int = DEFAULT_CAP) -> list[StarFactor]:
    """All distinct star-factors of g, ordered lexicographically by edge set.

    Backtracks on the lowest uncovered vertex v: either v is a center with
    some nonempty subset of its uncovered neighbors as leaves, or v is a
    leaf of an uncovered neighbor u together with a nonempty subset of u's
    other uncovered neighbors.  A K_{1,1} is made only in the first branch,
    from its lower endpoint, so every factor is reached exactly once and
    the cap counts as it goes.  Vertex sets are int bitmasks.  A branch is
    cut as soon as an uncovered vertex next to the star just placed has no
    uncovered neighbor left (only those can lose their last one), so the
    search grows no branch that cannot finish.  Each factor keeps its stars
    as they were placed, ordered by lowest vertex.  The search keeps an
    explicit stack, so its depth is not bounded by Python's recursion limit.

    Raises VacuousGraph if g has an isolated vertex and CapExceeded if more
    than ``cap`` factors exist (never a silent truncation).
    """
    if g.has_isolated_vertex():
        raise VacuousGraph("graph has an isolated vertex")
    if cap < 1:
        raise ValueError("cap must be positive")
    if g.n == 0:
        return [StarFactor(stars=(), edge_set=frozenset())]
    edge_index = g.edge_index
    adjacency = g.adjacency
    reach = [sum(1 << u for u in ns) for ns in adjacency]
    found: list[tuple[tuple[int, tuple[int, ...]], ...]] = []

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

    # frames[k] = (uncovered mask, the stars covering its lowest vertex
    # still to try) at depth k; placed[k] is the star in use at depth k.
    full = (1 << g.n) - 1
    frames = [(full, stars_at(0, full ^ 1))]
    placed: list[tuple[int, tuple[int, ...]]] = []
    while frames:
        uncovered, stars = frames[-1]
        star = next(stars, None)
        if star is None:
            frames.pop()
            if placed:
                placed.pop()
            continue
        center, leaves = star
        left = uncovered & ~(1 << center)
        near = reach[center]
        for x in leaves:
            left &= ~(1 << x)
            near |= reach[x]
        if not left:
            found.append((*placed, star))
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
        placed.append(star)
        v = (left & -left).bit_length() - 1
        frames.append((left, stars_at(v, left ^ (1 << v))))
    factors = []
    for stars in found:
        edges = tuple(sorted(
            edge_index[(c, x) if c < x else (x, c)] for c, ls in stars for x in ls
        ))
        factors.append((edges, tuple((c, frozenset(ls)) for c, ls in stars)))
    factors.sort(key=lambda f: f[0])
    return [StarFactor(stars=stars, edge_set=frozenset(es)) for es, stars in factors]


def incidence_vectors(factors: list[StarFactor], m: int) -> list[IncidenceVector]:
    """One 0/1 vector of length m per factor, in the same order."""
    vectors = []
    for f in factors:
        if any(i >= m or i < 0 for i in f.edge_set):
            raise ValueError(f"edge index out of range for m={m}")
        v = [0] * m
        for i in f.edge_set:
            v[i] = 1
        vectors.append(tuple(v))
    return vectors


def edge_count_spectrum(factors: list[StarFactor]) -> Counter:
    """Multiset of edge counts; singleton support means constant weights work."""
    return Counter(f.edge_count for f in factors)
