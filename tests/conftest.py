"""Shared graph builders, independent brute-force re-checkers and
reference implementations.

The brute-force helpers here deliberately avoid the library's own search
logic: a star forest is recognized purely from subgraph degrees, and the
girth re-check uses the edge-removal distance trick.  Frozen expected
values in the tests were computed with these.  ``reference_reduce_rows``
is the row basis on explicit integer rows that the library's packed scan
over edge masks replaced; the references that reduce rows use it.  It
reduces every row it is given, so the equivalence tests give it the
prefix of D that the scan read.  ``reference_lp1`` and ``reference_lp2``
build the oracle's two linear programs over a list of reduced basis
rows, and ``reference_block_lps``
runs them one block of the basis at a time, with the blocks found by a
breadth-first search over shared columns instead of the library's
component search on the rows and columns.  ``leaves_and_stems`` is
the leaf-and-stem split that the classifier's references start from.
``time_limit`` bounds a test's wall time.
"""

from __future__ import annotations

import itertools
import signal
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from starfactor import simplex
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

def leaves_and_stems(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """The leaves (degree one) and the stems (their neighbors) of g.  Both
    ends of a K_{1,1} component are in both sets."""
    leaves = frozenset(v for v, ns in enumerate(g.adjacency) if len(ns) == 1)
    return leaves, frozenset(g.adjacency[v][0] for v in leaves)


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


# ------------------------------------------------------------ row basis

def reference_reduce_rows(d_rows: list[list[int]]) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free row basis of the row space of D.

    Returns (rows, pivots, used): each row is a primitive integer row,
    positive at its own pivot column and zero at the other rows' pivot
    columns, and used[j] is the index of the D row that entered the basis
    as row j.  Dividing each row by its pivot entry gives the unique
    reduced basis of the row space with identity on the pivot columns.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    used: list[int] = []
    for i, raw in enumerate(d_rows):
        row = list(raw)
        for brow, p in zip(rows, pivots):
            if row[p]:
                row = simplex.eliminate(row, brow, p)
        pivot = next((k for k, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        row = simplex.primitive(row, pivot)
        # clear the new pivot column from the existing basis rows
        for j, brow in enumerate(rows):
            if brow[pivot]:
                rows[j] = simplex.eliminate(brow, row, pivot)
        rows.append(row)
        pivots.append(pivot)
        used.append(i)
    return rows, pivots, used


# ------------------------------------------------------------ LP stage

def reduced_rows(rows: list[list[int]], pivots: list[int], columns: list[int]) -> list[list]:
    """Rows of the reduced basis read on ``columns``: each row divided by
    its pivot entry, ints where that entry is 1, Fractions and int zeros
    otherwise."""
    return [
        [row[e] for e in columns]
        if row[p] == 1
        else [Fraction(row[e], row[p]) if row[e] else 0 for e in columns]
        for row, p in zip(rows, pivots)
    ]


def reference_lp1(basis: list[list]) -> tuple[Fraction, list[Fraction]]:
    """LP1 over the basis rows' m columns: maximize t subject to B w = 0,
    w_e >= t, w_e <= 1.  Returns (t*, x) with x[:m] the weights."""
    m = len(basis[0])
    # variables: w_0..w_{m-1}, t, surplus s_e (w_e - t >= 0), slack u_e (w_e <= 1)
    nvars = 3 * m + 1
    lp_rows = [[*brow, *[0] * (2 * m + 1)] for brow in basis]
    rhs = [0] * len(basis)
    for e in range(m):
        row = [0] * nvars
        row[e] = 1
        row[m] = -1
        row[m + 1 + e] = -1
        lp_rows.append(row)
        rhs.append(0)
    for e in range(m):
        row = [0] * nvars
        row[e] = 1
        row[2 * m + 1 + e] = 1
        lp_rows.append(row)
        rhs.append(1)
    c = [0] * nvars
    c[m] = 1
    return simplex.solve(c, lp_rows, rhs)


def reference_lp2(basis: list[list]) -> list[Fraction]:
    """LP2 over the basis rows: y with y.B >= 0, y.B != 0, one y_j per row."""
    r, m = len(basis), len(basis[0])
    # variables: p_j, q_j (y_j = p_j - q_j), s_e = (y.B)_e, slack u_e (s_e <= 1)
    nvars = 2 * r + 2 * m
    rows, rhs = [], []
    for e in range(m):
        row = [0] * nvars
        for j, brow in enumerate(basis):
            row[j] = brow[e]
            row[r + j] = -brow[e]
        row[2 * r + e] = -1
        rows.append(row)
        rhs.append(0)
    for e in range(m):
        row = [0] * nvars
        row[2 * r + e] = 1
        row[2 * r + m + e] = 1
        rows.append(row)
        rhs.append(1)
    c = [0] * nvars
    for e in range(m):
        c[2 * r + e] = 1
    total, x = simplex.solve(c, rows, rhs)
    assert total > 0, "Stiemke alternative violated: no certificate found"
    return [x[j] - x[r + j] for j in range(r)]


def reference_blocks(rows: list[list[int]], pivots: list[int]) -> list[tuple[list[int], list[int]]]:
    """The blocks of a row basis as (row indices, columns): the components
    of the graph on the rows that joins two rows nonzero in a shared
    column, by breadth-first search.  Rows in basis order, columns
    increasing, blocks by their lowest pivot."""
    supports = [{e for e, x in enumerate(row) if x} for row in rows]
    seen: set[int] = set()
    blocks = []
    for start in range(len(rows)):
        if start in seen:
            continue
        seen.add(start)
        component, queue = [start], deque([start])
        while queue:
            j = queue.popleft()
            for k in range(len(rows)):
                if k not in seen and supports[j] & supports[k]:
                    seen.add(k)
                    component.append(k)
                    queue.append(k)
        component.sort()
        blocks.append((component, sorted(set().union(*(supports[j] for j in component)))))
    return sorted(blocks, key=lambda block: min(pivots[j] for j in block[0]))


def reference_block_lps(
    rows: list[list[int]], pivots: list[int], m: int
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """LP1, and LP2 where LP1's optimum is 0, one block of the basis at a
    time.  Returns (weights, None), each block's weights scaled to minimum
    1 and weight 1 on an edge in no row, or (None, y) with y from LP2 on
    the first block whose LP1 optimum is 0 and zero on every other row."""
    weights = [Fraction(1)] * m
    for block, columns in reference_blocks(rows, pivots):
        basis = reduced_rows([rows[j] for j in block], [pivots[j] for j in block], columns)
        t_opt, x = reference_lp1(basis)
        if t_opt == 0:
            ys = [Fraction(0)] * len(rows)
            for j, y in zip(block, reference_lp2(basis)):
                ys[j] = y
            return None, ys
        scale = min(x[: len(columns)])
        for e, w in zip(columns, x):
            weights[e] = w / scale
    return weights, None


# ------------------------------------------------------------ time limit

@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass,
    so an exponential or quadratic search fails the test instead of
    hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
