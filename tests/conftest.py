"""Shared graph builders and independent brute-force re-checkers.

The brute-force helpers here deliberately avoid the library's own search
logic: a star forest is recognized purely from subgraph degrees, and the
girth re-check uses the edge-removal distance trick.  Frozen expected
values in the tests were computed with these.
"""

from __future__ import annotations

import itertools
from collections import deque
from pathlib import Path

import pytest

from starfactor.graph import Graph

DATA_DIR = Path(__file__).parent / "data"


# ---------------------------------------------------------------- builders

def format_edge_list(g: Graph) -> str:
    """Inverse of ``parse_edge_list``."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(m: int) -> Graph:
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def spider(leg_length: int, legs: int = 3) -> Graph:
    """One center with ``legs`` paths of ``leg_length`` edges attached."""
    edges = []
    n = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, n))
            prev = n
            n += 1
    return Graph.from_edges(n, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.from_edges(a.n + b.n, edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def double_star_graph() -> Graph:
    """Two K_{1,1} cores ... the non-uniform-count member from the figure
    with the three weight-2 edges a, b, c."""
    # 0-1 is the middle heavy edge; 2,3 and 4,5 are the stems of 0 and 1;
    # 6..9 their leaves; 10-11 and 12-13 the outer heavy pairs.
    edges = [
        (0, 1),
        (0, 2), (0, 3), (1, 4), (1, 5),
        (2, 6), (3, 7), (4, 8), (5, 9),
        (2, 10), (3, 11), (10, 11),
        (4, 12), (5, 13), (12, 13),
    ]
    return Graph.from_edges(14, edges)


def heavy_edges(g: Graph) -> list[int]:
    """Edge indices of the a, b, c edges of double_star_graph."""
    return [g.edge_index[e] for e in [(0, 1), (10, 11), (12, 13)]]


# Hand-analyzed gadget graphs near the boundary of the structural case
# split; each carries the membership verdict re-derived by the
# brute-force oracle.
def gadget_graphs() -> dict[str, tuple[Graph, bool]]:
    out: dict[str, tuple[Graph, bool]] = {}
    # P5 with two extra leaves on one end vertex
    out["p5_double_leaf_end"] = (
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (0, 6)]),
        True,
    )
    # P5 whose second vertex carries one extra neighbor and two leaves
    out["p5_branch"] = (
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (1, 6)]),
        True,
    )
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    # 5-cycle, pendant vertex u at 0, vertex x joined to u and to 2
    out["c5_pendant_chord"] = (
        Graph.from_edges(7, c5 + [(0, 5), (5, 6), (2, 6)]),
        False,
    )
    # same with a second such vertex y joined to u and to 3
    out["c5_pendant_two_chords"] = (
        Graph.from_edges(8, c5 + [(0, 5), (5, 6), (2, 6), (5, 7), (3, 7)]),
        False,
    )
    # 5-cycle with stems on two adjacent cycle vertices
    out["c5_adjacent_stems"] = (
        Graph.from_edges(
            12,
            c5
            + [(0, 5), (5, 7), (5, 8), (5, 9)]
            + [(1, 6), (6, 10), (6, 11)],
        ),
        False,
    )
    # 5-cycle plus an x-y handle between two nonadjacent cycle vertices
    out["c5_handle"] = (
        Graph.from_edges(7, c5 + [(0, 5), (2, 6), (5, 6)]),
        False,
    )
    # P6 with two extra leaves on its second vertex
    out["p6_double_leaf"] = (
        Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (1, 7)]),
        True,
    )
    # P4 with two extra leaves on one end
    out["p4_double_leaf"] = (
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5)]),
        True,
    )
    # P3 with a two-leaf stem hanging off one end
    out["p3_stem"] = (
        Graph.from_edges(6, [(0, 1), (1, 2), (0, 3), (3, 4), (3, 5)]),
        True,
    )
    # P4 with a two-leaf stem hanging off one end
    out["p4_stem"] = (
        Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (4, 6)]),
        True,
    )
    # star core K_{1,2} whose center also touches a stem (m = 2 failure)
    out["star_core_center_with_stem"] = (
        Graph.from_edges(
            12,
            [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5)]
            + [(1, 6), (1, 7), (4, 8), (4, 9), (5, 10), (5, 11)],
        ),
        False,
    )
    return out


# ------------------------------------------------------ brute-force checks

def is_star_factor_edge_set(g: Graph, subset: tuple[int, ...]) -> bool:
    """Degrees-only recognition: every vertex covered, and no edge has
    both endpoints of subgraph degree >= 2 (which forbids P4 and cycles)."""
    deg = [0] * g.n
    for i in subset:
        u, v = g.edges[i]
        deg[u] += 1
        deg[v] += 1
    if any(d == 0 for d in deg):
        return False
    for i in subset:
        u, v = g.edges[i]
        if deg[u] >= 2 and deg[v] >= 2:
            return False
    return True


def mask_edge_set(mask: int) -> frozenset[int]:
    """The edge indices whose bits are set in a factor's edge mask."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def brute_star_factor_edge_sets(g: Graph) -> list[frozenset[int]]:
    """All star-factors by filtering every one of the 2^m edge subsets."""
    out = []
    for size in range(g.m + 1):
        for subset in itertools.combinations(range(g.m), size):
            if is_star_factor_edge_set(g, subset):
                out.append(frozenset(subset))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def brute_girth(g: Graph) -> int | None:
    """min over edges uv of (dist in G - uv between u and v) + 1."""
    best = None
    for i, (u, v) in enumerate(g.edges):
        dist = _bfs_dist_without_edge(g, u, v, i)
        if dist is not None and (best is None or dist + 1 < best):
            best = dist + 1
    return best


def _bfs_dist_without_edge(g: Graph, src: int, dst: int, skip: int) -> int | None:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if (min(x, y), max(x, y)) == g.edges[skip]:
                continue
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == dst:
                    return dist[y]
                queue.append(y)
    return dist.get(dst)


# --------------------------------------------------------------- the CLI

def is_usage_error(stderr: str) -> bool:
    """The CLI's own ``error: ...`` line, or argparse's usage message
    followed by ``<prog>: error: ...``."""
    return stderr.startswith("error: ") or (stderr.startswith("usage: ") and ": error: " in stderr)


@pytest.fixture
def c5() -> Graph:
    return cycle(5)


@pytest.fixture
def p4() -> Graph:
    return path(4)
