"""Star-factor enumeration and incidence-vector coordinatization.

A star-factor is a spanning subgraph in which every component is a star
K_{1,k} with k >= 1; a bare vertex is not a star, so graphs with isolated
vertices have no star-factors at all.  The enumerator backtracks over int
vertex bitmasks and cuts every branch that leaves some uncovered vertex
without an uncovered neighbor.  It places each star as a submask of a
leaf pool, with the star's edges and neighbors one OR away from those of
the submask less its low bit, and it takes a node's children one at a
time from a generator, so a capped search on a dense graph stops early.
A pendant vertex is forced into its neighbor's star before any submask
is walked, so a center with many pendant neighbors costs one star.

A factor is its edge set, an int mask (bit i for edge i) accumulated as
stars are placed; the oracle reads nothing else.  No star-factor's edge
set contains another's, which lets one int sort put the factors in
lexicographic order.  The solver decides from the masks themselves;
``mask_bits`` reads a mask's bits, for the solver's rows of D and for
``incidence_vectors``, the 0/1 tuples that ``verify_outcome`` checks.
The edge set fixes the stars, and ``factor_stars`` reads them off it.
"""

from __future__ import annotations

from collections import Counter
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


def enumerate_star_factors(g: Graph, cap: int = DEFAULT_CAP) -> list[int]:
    """Edge masks of g's distinct star-factors, lexicographically by edge set.

    Backtracks on the lowest uncovered vertex v: either v is a center with
    some nonempty subset of its uncovered neighbors as leaves, or v is a
    leaf of an uncovered neighbor u together with a nonempty subset of u's
    other uncovered neighbors.  A K_{1,1} is made only in the first branch,
    from its lower endpoint, so every factor is reached exactly once and
    the cap counts as it goes.  Vertex sets are int bitmasks.  A branch is
    cut as soon as an uncovered vertex next to the star just placed has no
    uncovered neighbor left (only those can lose their last one), so the
    search grows no branch that cannot finish.

    Each star choice has a pool, the center's uncovered neighbors (less v
    when v is the fixed leaf), and its leaf sets are the nonempty submasks
    s of the pool, walked in increasing order by s = (s - pool) & pool.
    Then s less its low bit is s's prefix of its highest bits, so the
    star's edge mask and neighbor mask are those of the prefix plus one OR
    each; the walk keeps them by prefix length, O(degree) ints per choice.

    A pendant vertex (degree 1) has its one edge in every factor.  So the
    pool's pendant vertices are forced leaves: they join the star before
    the walk, which runs over the rest of the pool and counts the forced
    leaves alone as one more leaf set.  When v has an uncovered pendant
    neighbor, v is a center, and the choices that make v a leaf are not
    tried.  Every leaf set this skips would leave a pendant vertex with no
    uncovered neighbor and be cut, so the factors are the same, but a
    center with k pendant neighbors costs one star instead of 2^k: a star
    K_{1,k} has one factor and is found in O(k) steps.

    Each node is a generator that yields its children one at a time, and
    the search keeps one per node on its path: the next child is made only
    after the first one's subtree is done, so a dense graph with a small
    cap raises CapExceeded after little work and memory.  The path is an
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
    # keyed by a vertex's bit: its neighbor mask, and each neighbor's bit to
    # the edge's bits in both halves of the accumulated mask; key 0, the
    # empty submask, maps to 0 in both, for a star of forced leaves alone
    reach: dict[int, int] = {0: 0}
    edge_bits: dict[int, dict[int, int]] = {}
    leaves = 0  # the pendant vertices: each one's single edge is in every factor
    for v, ns in enumerate(g.adjacency):
        reach[1 << v] = sum(1 << u for u in ns)
        edge_bits[1 << v] = {0: 0}
        if len(ns) == 1:
            leaves |= 1 << v
    for i, (u, v) in enumerate(g.edges):
        edge_bits[1 << u][1 << v] = edge_bits[1 << v][1 << u] = 1 << (2 * m - 1 - i) | 1 << i
    found: list[int] = []

    def children(uncovered: int, edges: int) -> Iterator[tuple[int, int]]:
        """(uncovered mask, edge mask) of each child of the node that has
        the stars of ``edges`` placed and ``uncovered`` left to cover; a
        child that covers everything is a factor and goes to ``found``."""
        v = uncovered & -uncovered
        free = uncovered ^ v
        # (leaf pool, uncovered mask with the center and any fixed leaf
        # removed, edge mask, neighbor mask, the center's edge bits); the
        # pool of v is never empty, as the cut leaves no uncovered vertex
        # without an uncovered neighbor
        near_v = reach[v]
        around = near_v & free
        choices = [(around, free, edges, near_v, edge_bits[v])]
        # v with a pendant neighbor is that neighbor's center, never a leaf
        if not around & leaves:
            while around:
                u = around & -around
                around ^= u
                near_u = reach[u]
                pool = near_u & free
                if pool:
                    bits_u = edge_bits[u]
                    choices.append((pool, free ^ u, edges | bits_u[v], near_u | near_v, bits_u))
        for pool, rest, edges0, near0, bits in choices:
            # the pool's pendant vertices are leaves of every star that can
            # finish, so they join the star first and the walk is over the
            # rest of the pool, from s = 0, the forced leaves alone; a
            # pendant leaf's one neighbor is the center, so near0 stays
            forced = pool & leaves
            if forced:
                pool ^= forced
                rest ^= forced
                s = 0
                while forced:
                    low = forced & -forced
                    forced ^= low
                    edges0 |= bits[low]
            else:
                s = pool & -pool
            # edge_masks[j] and near_masks[j] hold the star's masks with the
            # leaves of s's j highest bits; in increasing order, s less its
            # low bit is the previous s's prefix of k - 1 bits, already there
            # (for s = 0, first if at all, index -1 still holds the start)
            width = pool.bit_count()
            edge_masks = [edges0] * (width + 1)
            near_masks = [near0] * (width + 1)
            while True:
                low = s & -s
                k = s.bit_count()
                edge_masks[k] = with_star = edge_masks[k - 1] | bits[low]
                near_masks[k] = near = near_masks[k - 1] | reach[low]
                left = rest ^ s
                if left:
                    # cut if an uncovered vertex next to the star has lost
                    # its last uncovered neighbor; near stops at the lowest
                    near &= left
                    while near and reach[near & -near] & left:
                        near &= near - 1
                    if not near:
                        yield left, with_star
                else:
                    found.append(with_star)
                    if len(found) > cap:
                        raise CapExceeded(cap)
                s = (s - pool) & pool
                if not s:
                    break

    # one generator per node on the path, each advanced one child at a time
    path = [children((1 << g.n) - 1, 0)]
    while path:
        child = next(path[-1], None)
        if child is None:
            path.pop()
        else:
            path.append(children(*child))
    found.sort(reverse=True)
    low = (1 << m) - 1
    return [edges & low for edges in found]


def factor_stars(g: Graph, mask: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(center, leaves) for each star of g's star-factor with edge mask ``mask``.

    A star with two or more leaves is centered at its one vertex of degree
    >= 2 in the factor, a K_{1,1} at its lower end.  Stars are ordered by
    lowest vertex and leaves increase, as ``enumerate_star_factors``
    places them.
    """
    # the edges are sorted, so every neighbor list comes out sorted
    around: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if mask >> i & 1:
            around[u].append(v)
            around[v].append(u)
    # a dict keeps its stars in the order of their lowest vertices
    stars: dict[int, tuple[int, ...]] = {}
    for v, ns in enumerate(around):
        # u is v's center iff v is a leaf of a center of degree >= 2 or
        # the higher end of a K_{1,1}
        u = ns[0]
        center = u if len(ns) == 1 and (len(around[u]) > 1 or u < v) else v
        stars.setdefault(center, tuple(around[center]))
    return tuple(stars.items())


# bytes.translate table taking the ASCII digits of a binary numeral to 0/1
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def mask_bits(mask: int, m: int) -> bytes:
    """Bits 0..m-1 of a nonnegative mask below 2^m, one byte (0 or 1) each."""
    # bin() reads '0b1' then bits m-1..0: reversed, the slice stops before
    # the marker bit, so m = 0 gives no bytes
    return bin(mask | 1 << m)[:2:-1].encode().translate(_BITS)


def incidence_vectors(masks: list[int], m: int) -> list[IncidenceVector]:
    """One 0/1 vector of length m per factor edge mask, in the same order."""
    vectors = []
    for mask in masks:
        if mask >> m:  # also true for a negative mask
            raise ValueError(f"edge index out of range for m={m}")
        vectors.append(tuple(mask_bits(mask, m)))
    return vectors


def edge_count_spectrum(masks: list[int]) -> Counter:
    """Multiset of edge counts; singleton support means constant weights work."""
    return Counter(mask.bit_count() for mask in masks)
