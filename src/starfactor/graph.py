"""Immutable simple-graph representation and structural primitives.

Vertices are 0-based integers.  Edges are stored as a lexicographically
sorted tuple of (u, v) pairs with u < v; the position of a pair in that
tuple is the edge's index, and every other module addresses edges by
this index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Sequence


class GraphError(Exception):
    """Base class for graph construction and parsing failures."""


class EdgeListParseError(GraphError):
    """Malformed edge-list text."""


class LoopError(EdgeListParseError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(EdgeListParseError):
    """The same unordered pair appears twice."""


class VertexRangeError(EdgeListParseError):
    """A vertex index is outside 0..n-1."""


class EdgeCountError(EdgeListParseError):
    """The declared edge count does not match the number of edge lines."""


class Graph6Error(GraphError):
    """Malformed graph6 text."""


@dataclass(frozen=True)
class Girth:
    """Length of a shortest cycle; ``value`` is None for forests (infinite)."""

    value: int | None

    def at_least(self, k: int) -> bool:
        """True iff no cycle is shorter than k; forests pass for every k."""
        return self.value is None or self.value >= k

    def __str__(self) -> str:
        return "Infinite" if self.value is None else str(self.value)


def _diagnose_edge(u, v, previous: tuple, n: int) -> None:
    """Raise the error that the edge (u, v), after the edge ``previous``,
    makes in a graph on n vertices; ``Graph`` calls it only on an edge that
    its comparison chain rejects, which always makes one, so it raises."""
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


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph with a canonical edge order."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # one pass, one comparison chain per edge: normalized, in range and
        # strictly after the edge before it, which rules out duplicates as
        # well.  Only an edge that fails it (or cannot be compared) is
        # diagnosed, by checks in the order loop, range, normalized,
        # duplicate, unsorted
        n = self.n
        pu = pv = -1
        for u, v in self.edges:
            try:
                if 0 <= u < v < n and (pu < u or pu == u and pv < v):
                    pu, pv = u, v
                    continue
            except TypeError:
                pass
            _diagnose_edge(u, v, (pu, pv), n)

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered pairs, normalizing and sorting them."""
        return cls(n, tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # the edges are sorted, so every neighbor list comes out sorted
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(map(tuple, neighbors))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def has_isolated_vertex(self) -> bool:
        # fewer than n/2 edges cannot touch every vertex: decided without
        # building the adjacency, however large n is
        return 2 * self.m < self.n or not all(self.adjacency)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First non-comment line is "n m", followed by m lines "u v".  Lines
    starting with '#' and blank lines are ignored.
    """
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    if not lines:
        raise EdgeListParseError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise EdgeListParseError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise EdgeListParseError(f"non-integer header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise EdgeListParseError(f"negative counts in header {lines[0]!r}")
    if len(lines) - 1 != m:
        raise EdgeCountError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    pairs: list[tuple[int, int]] = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListParseError(f"non-integer edge line {line!r}") from exc
    return Graph.from_edges(n, pairs)


_G6_PREFIX = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph from its graph6 string (n <= 62)."""
    s = text.strip()
    if s.startswith(_G6_PREFIX):
        s = s[len(_G6_PREFIX):]
    if not s:
        raise Graph6Error("empty graph6 string")
    if not s.isascii():
        raise Graph6Error("non-ASCII character in graph6 string")
    data = s.encode("ascii")
    for b in data:
        if not (63 <= b <= 126):
            raise Graph6Error(f"byte {b} outside graph6 range 63..126")
    if data[0] == 126:
        raise Graph6Error("extended size header (n > 62) not supported")
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise Graph6Error(f"truncated bitstream: need {nbytes} bytes, got {len(body)}")
    if len(body) > nbytes:
        raise Graph6Error(f"trailing bytes: need {nbytes} bytes, got {len(body)}")
    # the body's 6-bit groups as one integer, the way to_graph6 builds it:
    # pair (u, v), u < v, is bit v(v-1)/2 + u from the most significant end
    bits = 0
    for b in body:
        bits = bits << 6 | (b - 63)
    top = 6 * nbytes - 1
    if bits & ((1 << (top + 1 - nbits)) - 1):
        raise Graph6Error("nonzero padding bits")
    pairs = [
        (u, v) for u in range(n) for v in range(u + 1, n) if bits >> (top - v * (v - 1) // 2 - u) & 1
    ]
    return Graph(n, tuple(pairs))


def to_graph6(g: Graph) -> str:
    """Encode a graph as graph6 (n <= 62)."""
    if g.n > 62:
        raise Graph6Error(f"graph6 encoding limited to n <= 62, got n={g.n}")
    # pair (u, v), u < v, is bit v(v-1)/2 + u of the stream, read from the
    # most significant end and padded with zeros to whole 6-bit bytes
    nbytes = (g.n * (g.n - 1) // 2 + 5) // 6
    bits = 0
    for u, v in g.edges:
        bits |= 1 << (6 * nbytes - 1 - (v * (v - 1) // 2 + u))
    return chr(g.n + 63) + "".join(chr((bits >> 6 * i & 63) + 63) for i in reversed(range(nbytes)))


def _refine(rows: Sequence[int], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition of the vertices.

    Each round splits every cell by the number of neighbors each vertex
    has in each cell, fragments ordered by that count vector, until a
    round splits nothing.  Nothing depends on vertex names, so relabeling
    the graph relabels the result.
    """
    while True:
        masks = []
        for cell in cells:
            mask = 0
            for v in cell:
                mask |= 1 << v
            masks.append(mask)
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            split: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = rows[v]
                split.setdefault(tuple([(row & m).bit_count() for m in masks]), []).append(v)
            if len(split) == 1:
                refined.append(cell)
            else:
                refined.extend(split[key] for key in sorted(split))
        if len(refined) == len(cells):
            return cells
        cells = refined


def canonical_rows(rows: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Canonical form and automorphism count of the graph whose vertex v
    has neighbor bitmask ``rows[v]``.

    Colour refinement plus a full individualization search (McKay &
    Piperno, "Practical graph isomorphism II", 2014): below each node the
    smallest non-singleton cell (the first of them) has each of its
    vertices individualized in turn, and every leaf is a discrete
    partition, read as a labeling.  The form is the greatest relabeled
    bitmask tuple over the leaves.  With no pruning, automorphisms permute
    the leaves freely and leaves with the same relabeled graph differ by
    one, so |Aut| leaves reach the form.  The search therefore takes at
    least |Aut| steps (n! on K_n): it is meant for small graphs.
    """
    n = len(rows)
    neighbors = [[w for w in range(n) if row >> w & 1] for row in rows]
    best: tuple[int, ...] = ()
    count = 0
    stack = [_refine(rows, [list(range(n))])]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            position = [0] * n
            for i, (v,) in enumerate(cells):
                position[v] = i
            form = tuple([sum([1 << position[w] for w in neighbors[v]]) for (v,) in cells])
            if form > best:
                best, count = form, 1
            elif form == best:
                count += 1
            continue
        _, target = min((len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1)
        cell = cells[target]
        for v in cell:
            rest = [w for w in cell if w != v]
            stack.append(_refine(rows, cells[:target] + [[v], rest] + cells[target + 1:]))
    return best, count


def canonical_form(g: Graph) -> tuple[Graph, int]:
    """The canonical relabeling of g, equal for isomorphic graphs, and
    |Aut g|: g has n!/|Aut g| distinct labelings."""
    rows = [0] * g.n
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    form, automorphisms = canonical_rows(rows)
    return graph_from_rows(form), automorphisms


def graph_from_rows(rows: Sequence[int]) -> Graph:
    """The graph whose vertex v has neighbor bitmask ``rows[v]``."""
    return Graph(
        len(rows), tuple((u, v) for u in range(len(rows)) for v in range(u + 1, len(rows)) if rows[u] >> v & 1)
    )


Adjacency = dict[int, Sequence[int]] | Sequence[Sequence[int]]


def girth(g: Graph) -> Girth:
    """Shortest cycle length; Infinite for forests.

    The least ``shortest_cycle`` over the components of an adjacency
    built from the edges, which keeps nothing for a vertex that no edge
    touches.
    """
    touched: dict[int, list[int]] = {}
    for u, v in g.edges:
        touched.setdefault(u, []).append(v)
        touched.setdefault(v, []).append(u)
    cycles = [shortest_cycle(touched, component) for component in induced_components(touched)]
    return Girth(min((c for c in cycles if c is not None), default=None))


def shortest_cycle(adjacency: Adjacency, component: Sequence[int]) -> int | None:
    """Girth of one whole component of ``adjacency``, None for a tree.

    A tree is told by its degree sum, 2(k - 1) over k vertices.  A BFS
    from a vertex of a shortest cycle finds its length, and every cycle
    but a whole component has a vertex of degree >= 3; so the BFS runs
    from those, or from one vertex of a component that is one cycle.  No
    cycle is shorter than a triangle, so the first one found ends the
    search.
    """
    if sum([len(adjacency[v]) for v in component]) == 2 * (len(component) - 1):
        return None
    best: int | None = None
    roots = [v for v in component if len(adjacency[v]) >= 3] or component[:1]
    for root in roots:
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u]
            if best is not None and 2 * du >= best:
                continue
            for v in adjacency[u]:
                dv = dist.get(v)
                if dv is None:
                    dist[v] = du + 1
                    queue.append(v)
                elif dv >= du and (best is None or du + dv + 1 < best):
                    # an edge back to the previous level (the BFS parent's
                    # or a cross edge) is counted from its other end
                    best = du + dv + 1
                    if best == 3:
                        return best
    return best


def induced_components(
    adjacency: Adjacency, starts: Iterable[int] | None = None, excluded: Container[int] = ()
) -> list[tuple[int, ...]]:
    """Components of the graph of ``adjacency`` minus ``excluded`` that
    meet ``starts`` (default: every vertex, the keys of a dict or
    0..len-1 of a sequence), as sorted tuples of vertex ids, in the order
    in which ``starts`` first meets them (by smallest vertex when
    ``starts`` increases).  The library's one component search."""
    if starts is None:
        starts = adjacency if isinstance(adjacency, dict) else range(len(adjacency))
    seen = set()
    components = []
    for start in starts:
        if start in seen or start in excluded:
            continue
        seen.add(start)
        component = [start]
        # the list is its own queue, and a vertex is marked when first
        # met, so ``excluded`` is asked once about each
        for u in component:
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    if v not in excluded:
                        component.append(v)
        component.sort()
        components.append(tuple(component))
    return components


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, ordered by smallest vertex."""
    return [frozenset(comp) for comp in induced_components(g.adjacency)]
