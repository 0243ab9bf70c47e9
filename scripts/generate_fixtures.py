#!/usr/bin/env python3
"""Generate the graph6 fixture lists used by the acceptance suite.

Produces, under tests/data/:

  girth5_connected_n8.g6   one representative per isomorphism class of
                           connected graphs on 8 vertices with girth >= 5
  delta2_girth5_n8.g6      the subset with minimum degree >= 2
  delta2_girth5_n9.g6      min degree >= 2, girth >= 5, 9 vertices
  petersen.g6              the Petersen graph

Generation is a pruned search over edge slots in lexicographic order:
adding an edge whose endpoints are already at distance <= 3 would close
a cycle shorter than five, so that branch is cut.  For the min-degree-2
lists a branch also dies as soon as some vertex can no longer reach
degree two.  Labeled output is reduced to isomorphism-class
representatives, the first labeled graph met of each class, by
``graph.canonical_form``.  Verdicts downstream are relabeling-invariant
(and tested to be), so representatives suffice.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from starfactor.graph import Graph, canonical_form, to_graph6

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"

# max edges of a triangle- and square-free graph (Zarankiewicz-type bound)
MAX_EDGES = {8: 11, 9: 13}


def gen_girth5_connected(n: int, min_degree: int = 0):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    nslots = len(pairs)
    # last slot index touching each vertex, for closure pruning
    last_slot = [max(i for i, (u, v) in enumerate(pairs) if u == x or v == x) for x in range(n)]
    max_edges = MAX_EDGES.get(n, nslots)
    adjacency = [0] * n
    degree = [0] * n
    # slots still undecided per vertex, counted down as the scan passes them
    remaining = [sum(1 for (u, v) in pairs if u == x or v == x) for x in range(n)]

    def close(u: int, v: int) -> bool:
        seen = 1 << u
        frontier = 1 << u
        for _ in range(3):
            nxt = 0
            for w in range(n):
                if frontier >> w & 1:
                    nxt |= adjacency[w]
            if nxt >> v & 1:
                return True
            frontier = nxt & ~seen
            seen |= nxt
        return False

    def connected() -> bool:
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for w in range(n):
                if frontier >> w & 1:
                    nxt |= adjacency[w]
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << n) - 1

    def rec(idx: int, m: int, chosen: list[tuple[int, int]]):
        if idx == nslots:
            if connected():
                yield Graph(n, tuple(chosen))
            return
        u, v = pairs[idx]
        remaining[u] -= 1
        remaining[v] -= 1
        # exclude branch
        if degree[u] + remaining[u] >= min_degree and degree[v] + remaining[v] >= min_degree:
            yield from rec(idx + 1, m, chosen)
        # include branch
        if m < max_edges and not close(u, v):
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
            degree[u] += 1
            degree[v] += 1
            chosen.append((u, v))
            yield from rec(idx + 1, m + 1, chosen)
            chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
            adjacency[u] &= ~(1 << v)
            adjacency[v] &= ~(1 << u)
        remaining[u] += 1
        remaining[v] += 1

    yield from rec(0, 0, [])


def dedup(graphs) -> list[Graph]:
    """The first labeled graph of each isomorphism class, in input order."""
    reps: dict[Graph, Graph] = {}
    seen = 0
    for g in graphs:
        seen += 1
        if seen % 200000 == 0:
            print(f"  ... {seen} labeled graphs, {len(reps)} classes", flush=True)
        reps.setdefault(canonical_form(g)[0], g)
    print(f"  {seen} labeled graphs total", flush=True)
    return list(reps.values())


def write_g6(path: Path, graphs: list[Graph]) -> None:
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs), encoding="ascii")
    print(f"wrote {path} ({len(graphs)} graphs)")


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    reps8 = dedup(gen_girth5_connected(8))
    print(f"n=8 girth>=5 connected representatives: {len(reps8)} ({time.time() - t0:.1f}s)")
    write_g6(DATA_DIR / "girth5_connected_n8.g6", reps8)
    write_g6(
        DATA_DIR / "delta2_girth5_n8.g6",
        [g for g in reps8 if min(g.degree(v) for v in range(g.n)) >= 2],
    )

    t0 = time.time()
    reps9 = dedup(gen_girth5_connected(9, min_degree=2))
    print(f"n=9 girth>=5 delta>=2 representatives: {len(reps9)} ({time.time() - t0:.1f}s)")
    write_g6(DATA_DIR / "delta2_girth5_n9.g6", reps9)

    write_g6(DATA_DIR / "petersen.g6", [petersen()])


if __name__ == "__main__":
    main()
