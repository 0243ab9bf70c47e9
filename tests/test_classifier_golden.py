"""Hash snapshots of the structural classifier's exact output.

``tests/data/classifier_golden.json`` maps each input to two sha256
digests: one of ``json.dumps(classification_to_json(g, classify(g)),
sort_keys=True)`` (verdict, route, case tag, girth, component kinds,
witness weights and refutation certificate) and one of
``repr(cls.per_component)`` (every component report: its vertices,
verdict, tag and the kind string the JSON prints).  Small inputs are
keyed by graph6, large ones by name.  The inputs are every graph on at
most five vertices, connected or not; random Prüfer trees on 500 and
1,000 vertices; a comb; a 1,050-edge matching; a random forest; a union
of girth >= 5 graphs on five and six vertices; and unions that mix trees
with girth-3 and girth-4 components, so that oracle-fallback witnesses
and refutations are covered.
Regenerate it only for an intended output change, by running this file
as a script from the repository root:

    PYTHONPATH=src:tests python tests/test_classifier_golden.py
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from functools import cache
from itertools import combinations

import pytest

from starfactor.census import generate_connected_girth5
from starfactor.classifier import classification_to_json, classify
from starfactor.graph import Graph, to_graph6

from conftest import DATA_DIR, cycle, path, star

GOLDEN = DATA_DIR / "classifier_golden.json"
SEED = 20070
LARGE = [
    "prufer500", "prufer1000", "comb", "matching1050", "forest", "union_girth5",
    *(f"mixed{k}" for k in range(12)),
]


def _all_graphs(n: int) -> list[Graph]:
    pairs = list(combinations(range(n), 2))
    return [
        Graph(n, tuple(p for k, p in enumerate(pairs) if mask >> k & 1))
        for mask in range(1 << len(pairs))
    ]


def _prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _union(parts: list[Graph]) -> Graph:
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    return Graph.from_edges(offset, edges)


@cache
def _large() -> dict[str, Graph]:
    rng = random.Random(SEED)
    out = {f"prufer{n}": Graph.from_edges(n, _prufer_tree(n, rng)) for n in (500, 1000)}
    spine = 300
    comb = _prufer_tree(spine, rng) + [(v, spine + v) for v in range(spine)]
    out["comb"] = Graph.from_edges(2 * spine, comb)
    out["matching1050"] = _union([path(2)] * 1050)
    sizes = [rng.randrange(2, 6) for _ in range(1050)]
    out["forest"] = _union([Graph.from_edges(k, _prufer_tree(k, rng)) for k in sizes])
    small = list(generate_connected_girth5(5)) + list(generate_connected_girth5(6))
    out["union_girth5"] = _union([rng.choice(small) for _ in range(400)])
    trees = [path(2), path(3), path(4), path(6), star(3), star(4)]
    trees += [Graph.from_edges(k, _prufer_tree(k, rng)) for k in (5, 7, 9)]
    short = [cycle(3), cycle(4), cycle(5), cycle(6)]
    short += [
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),  # diamond
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),  # paw
        Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),  # K_{2,3}
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),  # C4 plus a leaf
        Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]),  # sunlet
        Graph(4, tuple(combinations(range(4), 2))),  # K4
    ]
    for k in range(12):
        parts = [rng.choice(trees) for _ in range(rng.randrange(1, 5))]
        parts += [rng.choice(short) for _ in range(rng.randrange(1, 4))]
        rng.shuffle(parts)
        out[f"mixed{k}"] = _union(parts)
    return out


def _digests(g: Graph) -> list[str]:
    cls = classify(g)
    doc = json.dumps(classification_to_json(g, cls), sort_keys=True)
    return [
        hashlib.sha256(doc.encode()).hexdigest(),
        hashlib.sha256(repr(cls.per_component).encode()).hexdigest(),
    ]


def _inputs() -> dict[str, Graph]:
    small = {to_graph6(g): g for n in range(6) for g in _all_graphs(n)}
    return {**small, **_large()}


def _golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_input():
    assert list(_large()) == LARGE
    assert set(_golden()) == set(_inputs())


@pytest.mark.parametrize("n", range(6))
def test_small_graph_digests_match_golden(n):
    golden = _golden()
    for g in _all_graphs(n):
        assert _digests(g) == golden[to_graph6(g)], to_graph6(g)


@pytest.mark.parametrize("name", LARGE)
def test_large_graph_digests_match_golden(name):
    assert _digests(_large()[name]) == _golden()[name], name


if __name__ == "__main__":
    golden = {key: _digests(g) for key, g in _inputs().items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
