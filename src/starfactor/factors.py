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
is walked, and that neighbor (a stem) is a leaf of no other center, so
a center with k pendant neighbors costs one star and a center with k
stems around it k stars, not 2^k.  A node with four or fewer uncovered
vertices is not searched: the shape of what is left fixes its few
completions, worked out once per vertex set and appended at once.

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
    leaves alone as one more leaf set.  A stem, a vertex with a pendant
    neighbor, is in that neighbor's star in every factor, so it is a leaf
    of no other center: the pool of a center that is not pendant leaves
    the stems out, and a choice whose pool is then empty is not tried (v
    with only stems around it is a leaf of one of them).  When v is a
    stem, its pendant neighbor is uncovered as v is, so v is a center, and
    the choices that make v a leaf are not tried.  Every leaf set these
    rules skip would leave a pendant vertex with no uncovered neighbor, so
    the factors are the same, but a center with k pendant neighbors costs
    one star instead of 2^k (a star K_{1,k} has one factor and is found in
    O(k) steps), and a center with k stems around it costs k stars: the
    star with each edge subdivided, whose k factors took 2^k leaf sets,
    takes O(k^2) steps.

    A child that passes the cut with at most four uncovered vertices L is
    finished where it is made instead of becoming a node.  Each vertex of
    L has a neighbor in L, so g[L] has a star-factor, and on four or fewer
    vertices a star-factor has one of three shapes, as a bare vertex is
    not a star: on 2 vertices, their edge; on 3, one K_{1,2}, centered at
    each vertex next to the other two; on 4, one K_{1,3}, centered at each
    vertex next to the other three, or two K_{1,1}, the lowest vertex a
    with a neighbor b when the other two are adjacent too (a K_{1,2} would
    leave the fourth vertex bare).  These completions are worked out once
    per L and kept by L's mask; each is ORed into the child's edge mask
    and appended with its own cap check.  The search on K_7 opens 7 nodes
    instead of 474, and on the Petersen graph 56 instead of 298.

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
    bit_of = [1 << v for v in range(g.n)]
    # keyed by a vertex's bit: its neighbor mask, and each neighbor's bit to
    # the edge's bits in both halves of the accumulated mask; key 0, the
    # empty submask, maps to 0 in both, for a star of forced leaves alone
    reach: dict[int, int] = dict.fromkeys(bit_of, 0)
    reach[0] = 0
    edge_bits: dict[int, dict[int, int]] = {bit: {0: 0} for bit in bit_of}
    for i, (u, v) in enumerate(g.edges):
        bit_u = bit_of[u]
        bit_v = bit_of[v]
        reach[bit_u] |= bit_v
        reach[bit_v] |= bit_u
        edge_bits[bit_u][bit_v] = edge_bits[bit_v][bit_u] = 1 << (2 * m - 1 - i) | 1 << i
    leaves = 0  # the pendant vertices: each one's single edge is in every factor
    stems = 0  # their neighbors, each in the star of its pendant neighbor
    for bit, ns in zip(bit_of, g.adjacency):
        if len(ns) == 1:
            leaves |= bit
            stems |= bit_of[ns[0]]
    joinable = ~stems  # the leaves a center that is not pendant may take
    found: list[int] = []
    # keyed by an uncovered set of at most 4 vertices that passed the cut:
    # the edge masks that complete a factor from it; each key gave at least
    # one factor, so the dict grows no larger than ``found``
    finishes: dict[int, list[int]] = {0: [0]}

    def finish(left: int) -> list[int]:
        """Edge masks of g[left]'s star-factors, for 2 to 4 vertices each
        with a neighbor in ``left``."""
        a = left & -left
        others = left ^ a
        if left.bit_count() == 2:
            return [edge_bits[a][others]]
        tails = []
        # one star holding all of left, at each center next to all the rest
        rest = left
        while rest:
            c = rest & -rest
            rest ^= c
            if reach[c] & left == left ^ c:
                bits = edge_bits[c]
                star = 0
                leaf_set = left ^ c
                while leaf_set:
                    low = leaf_set & -leaf_set
                    leaf_set ^= low
                    star |= bits[low]
                tails.append(star)
        # on 4 vertices, two edges: a and a neighbor b, and the other two
        # when they are adjacent (on 3, a alone is left over)
        pair = reach[a] & others
        while pair:
            b = pair & -pair
            pair ^= b
            two = others ^ b
            c = two & -two
            if reach[c] & two:
                tails.append(edge_bits[a][b] | edge_bits[c][two ^ c])
        return tails

    def children(uncovered: int, edges: int) -> Iterator[tuple[int, int]]:
        """(uncovered mask, edge mask) of each child of the node that has
        the stars of ``edges`` placed and ``uncovered`` left to cover; a
        child that leaves 4 or fewer vertices is finished at once, its
        factors going to ``found``."""
        v = uncovered & -uncovered
        free = uncovered ^ v
        # (leaf pool, uncovered mask with the center and any fixed leaf
        # removed, edge mask, neighbor mask, the center's edge bits); the
        # pool of v is empty when all of v's uncovered neighbors are stems
        # and v is not pendant, and then v is a leaf of one of them
        near_v = reach[v]
        around = near_v & free
        pool = around if v & leaves else around & joinable
        choices = [(pool, free, edges, near_v, edge_bits[v])] if pool else []
        # a stem v is its pendant neighbor's center, never a leaf; any other
        # v has no pendant neighbor, so no u is pendant and u's pool leaves
        # the stems out
        if not v & stems:
            while around:
                u = around & -around
                around ^= u
                near_u = reach[u]
                pool = near_u & free & joinable
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
                # cut if an uncovered vertex next to the star has lost its
                # last uncovered neighbor; near stops at the lowest
                near &= left
                while near and reach[near & -near] & left:
                    near &= near - 1
                if not near:
                    if left.bit_count() > 4:
                        yield left, with_star
                    else:
                        tails = finishes.get(left)
                        if tails is None:
                            tails = finishes[left] = finish(left)
                        for tail in tails:
                            found.append(with_star | tail)
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
