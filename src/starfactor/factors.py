"""Star-factor enumeration and incidence-vector coordinatization.

A star-factor is a spanning subgraph in which every component is a star
K_{1,k} with k >= 1; a bare vertex is not a star, so graphs with isolated
vertices have no star-factors at all.  The enumerator backtracks over int
vertex bitmasks, cuts every branch that leaves some uncovered vertex
without an uncovered neighbor, and keeps each factor's stars as it
placed them.

Each factor's edge set is an int mask (bit i for edge i), accumulated as
stars are placed; the oracle reads nothing else.  No star-factor's edge
set contains another's, which lets one int sort put the factors in
lexicographic order, and ``incidence_vectors`` reads the mask's bits.
The frozensets of ``StarFactor.stars`` and ``StarFactor.edge_set`` are
built only when someone reads them.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterator, NamedTuple

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


class StarFactor(NamedTuple):
    """A spanning star forest, as the search found it.

    ``edge_mask`` has bit i set iff edge i is in the factor; ``placed``
    holds each star as (center, leaves) in the order it was placed, that
    is by lowest vertex.  ``stars``, ``edge_set`` and ``edge_count`` are
    computed on each access: the oracle reads only the mask.
    """

    edge_mask: int
    placed: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def stars(self) -> tuple[tuple[int, frozenset[int]], ...]:
        return tuple((c, frozenset(ls)) for c, ls in self.placed)

    @property
    def edge_set(self) -> frozenset[int]:
        mask = self.edge_mask
        return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)

    @property
    def edge_count(self) -> int:
        return self.edge_mask.bit_count()


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
        return [StarFactor(0, ())]
    m = g.m
    adjacency = g.adjacency
    reach = [sum(1 << u for u in ns) for ns in adjacency]
    # edge_bits[u][v]: edge uv's bit in both halves of the accumulated mask
    edge_bits: list[dict[int, int]] = [{} for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        edge_bits[u][v] = edge_bits[v][u] = 1 << (2 * m - 1 - i) | 1 << i
    found: list[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]] = []

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
    # depth k, the stars covering its lowest vertex still to try) at
    # depth k; placed[k] is the star in use at depth k.
    full = (1 << g.n) - 1
    frames = [(full, 0, stars_at(0, full ^ 1))]
    placed: list[tuple[int, tuple[int, ...]]] = []
    while frames:
        uncovered, edges, stars = frames[-1]
        star = next(stars, None)
        if star is None:
            frames.pop()
            if placed:
                placed.pop()
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
            found.append((edges, (*placed, star)))
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
        frames.append((left, edges, stars_at(v, left ^ (1 << v))))
    # the masks are distinct, so the sort never compares the stars
    found.sort(reverse=True)
    low = (1 << m) - 1
    return [StarFactor(edges & low, stars) for edges, stars in found]


# bytes.translate table taking the ASCII digits of a binary numeral to 0/1
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def incidence_vectors(factors: list[StarFactor], m: int) -> list[IncidenceVector]:
    """One 0/1 vector of length m per factor, in the same order."""
    top = 1 << m
    vectors = []
    for f in factors:
        mask = f.edge_mask
        if mask >> m:  # also true for a negative mask
            raise ValueError(f"edge index out of range for m={m}")
        # bin() reads '0b1' then bits m-1..0: reversed, the slice stops
        # before the marker bit, so m = 0 gives the empty vector
        vectors.append(tuple(bin(mask | top)[:2:-1].encode().translate(_BITS)))
    return vectors


def edge_count_spectrum(factors: list[StarFactor]) -> Counter:
    """Multiset of edge counts; singleton support means constant weights work."""
    return Counter(f.edge_count for f in factors)
