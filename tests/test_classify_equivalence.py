"""``classify`` in one pass against the per-component classifier it replaced.

``reference_classify`` below is the classifier as it was before: the
leaves and stems as two frozensets (``conftest.leaves_and_stems``), and
for each component its own structural report with its own core search,
its own test of each core's shape and its own K_{1,1} core edges for the
witness.  ``classify`` reads the leaves and stems off one degree list,
and each component finds its own cores with one search over its unmarked
vertices.  The two must give equal
``Classification`` objects, down to ``per_component`` and each report's
kind string with its shapes in core order, and the same
``classification_to_json`` bytes, on every
connected class with n <= 7, the girth >= 5 graphs on 8 vertices,
seeded random unions (relabeled, so that components interleave and some
have girth < 5), trees and cycles with pendant leaves and paths hung on
them, and unions shaped like the large structural benchmark, one of them
relabeled with a core in every component.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from fractions import Fraction

from starfactor.census import _connected_classes, generate_connected_girth5
from starfactor.classifier import (
    CaseTag,
    Classification,
    ComponentReport,
    Route,
    _fallback_report,
    classification_to_json,
    classify,
)
from starfactor.factors import DEFAULT_CAP
from starfactor.graph import (
    Girth,
    Graph,
    girth,
    induced_components,
    parse_graph6,
    shortest_cycle,
)
from starfactor.solver import Verdict, Weighting

from conftest import DATA_DIR, cycle, leaves_and_stems, path, relabel

ONE, TWO = Fraction(1), Fraction(2)


def _core_shape(g, verts, outer):
    """A core component's kind string, whether its shape is allowed, and
    its case tag (None for a shape that is none of the three)."""
    if len(verts) == 1:
        return "IsolatedVertex", True, CaseTag.CASE_4C
    degs = {v: sum(1 for u in g.adjacency[v] if u not in outer) for v in verts}
    if sum(degs.values()) == 2 * (len(verts) - 1):
        center = next((v for v in verts if degs[v] == len(verts) - 1), None)
        if center is not None:
            m = len(verts) - 1
            return f"Star(m={m})", m == 1 or len(g.adjacency[center]) == m, CaseTag.CASE_4B
    if len(verts) == 5 and all(degs[v] == 2 for v in verts):
        high = [v for v in verts if len(g.adjacency[v]) >= 3]
        ok = len(high) < 2 or (len(high) == 2 and high[1] not in g.adjacency[high[0]])
        return "FiveCycle", ok, CaseTag.CASE_4A
    return "Other(neither a star, a 5-cycle, nor a vertex)", False, None


def _structural_report(g, verts, leaves, outer, k11_edges):
    """One component's report; its K_{1,1} core edges go on ``k11_edges``."""
    def report(verdict, tag, kind=None):
        return ComponentReport(verts, verdict, tag, kind or tag.value)

    if leaves.isdisjoint(verts):
        if len(verts) in (5, 7) and all(len(g.adjacency[v]) == 2 for v in verts):
            return report(Verdict.MEMBER, CaseTag.C5 if len(verts) == 5 else CaseTag.C7)
        return report(Verdict.NOT_MEMBER, CaseTag.NEG_DELTA2_GIRTH)
    if outer.issuperset(verts):
        return report(Verdict.MEMBER, CaseTag.ALL_LEAF_OR_STEM)
    cores = induced_components(g.adjacency, verts, outer)
    shapes = [_core_shape(g, core, outer) for core in cores]
    kind = "+".join(shape for shape, _, _ in shapes)
    if not all(ok for _, ok, _ in shapes):
        return report(Verdict.NOT_MEMBER, CaseTag.NEG_CORE_SHAPE, kind)
    k11_edges += [core for core in cores if len(core) == 2]
    tags = {tag for _, _, tag in shapes}
    return report(Verdict.MEMBER, tags.pop() if len(tags) == 1 else CaseTag.MIXED_4, kind)


def reference_classify(g: Graph, cap: int = DEFAULT_CAP) -> Classification:
    """The per-component classifier, one structural report per component."""
    if g.has_isolated_vertex():
        return Classification(Verdict.VACUOUS, Route.STRUCTURAL_GIRTH5, None, girth(g), None, None)
    leaves, stems = leaves_and_stems(g)
    outer = leaves | stems
    weights = [ONE] * g.m
    reports = []
    refutation = None
    finite_girths = []
    k11_edges = []
    for verts in induced_components(g.adjacency):
        cycle_length = shortest_cycle(g.adjacency, verts)
        if cycle_length is not None:
            finite_girths.append(cycle_length)
        if cycle_length is None or cycle_length >= 5:
            report = _structural_report(g, verts, leaves, outer, k11_edges)
        else:
            report, refuted = _fallback_report(g, verts, cap, weights)
            if report.verdict is Verdict.CAP_EXCEEDED:
                return Classification(
                    Verdict.CAP_EXCEEDED, Route.ORACLE_FALLBACK, None, girth(g), None, None
                )
            if refutation is None:
                refutation = refuted
        reports.append(report)
    gg = Girth(min(finite_girths, default=None))
    fallback = any(r.kind == "OracleFallback" for r in reports)
    route = Route.ORACLE_FALLBACK if fallback else Route.STRUCTURAL_GIRTH5
    failing = next((r for r in reports if r.verdict is Verdict.NOT_MEMBER), None)
    if failing is not None:
        return Classification(
            Verdict.NOT_MEMBER, route, failing.tag, gg, None, refutation, tuple(reports)
        )
    tags = {r.tag for r in reports}
    case_tag = tags.pop() if len(tags) == 1 else CaseTag.MIXED_4 if tags else None
    for edge in k11_edges:
        weights[bisect_left(g.edges, edge)] = TWO
    witness = Weighting(tuple(weights))
    return Classification(Verdict.MEMBER, route, case_tag, gg, witness, None, tuple(reports))


def check(g: Graph) -> Classification:
    """Assert that classify and the reference agree on g, objects and bytes."""
    cls = classify(g)
    expected = reference_classify(g)
    assert cls == expected, g.edges
    assert repr(cls) == repr(expected), g.edges
    assert json.dumps(classification_to_json(g, cls)) == json.dumps(
        classification_to_json(g, expected)
    ), g.edges
    return cls


def union(parts: list[Graph]) -> Graph:
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += part.n
    return Graph.from_edges(offset, edges)


def shuffled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def prufer_tree(n: int, rng: random.Random) -> Graph:
    """A uniformly random labeled tree on n >= 2 vertices."""
    if n == 2:
        return Graph(2, ((0, 1),))
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return Graph.from_edges(n, edges)


def test_every_connected_class_up_to_seven_vertices():
    classes = _connected_classes(7, None)
    graphs = [g for n in range(8) for g, _ in classes[n]]
    assert len(graphs) == 997  # OEIS A001349, n = 0..7
    routes = {check(g).route for g in graphs}
    assert routes == {Route.STRUCTURAL_GIRTH5, Route.ORACLE_FALLBACK}


def test_girth5_graphs_on_eight_vertices():
    lines = (DATA_DIR / "girth5_connected_n8.g6").read_text().split()
    assert len(lines) == 47
    verdicts = {check(parse_graph6(line)).verdict for line in lines}
    assert verdicts == {Verdict.MEMBER, Verdict.NOT_MEMBER}


def _random_piece(rng: random.Random) -> Graph:
    """A small connected graph: a tree, a cycle with pendant leaves, or a
    random graph on up to 5 vertices, which often has girth < 5."""
    shape = rng.randrange(3)
    if shape == 0:
        return prufer_tree(rng.randrange(2, 8), rng)
    if shape == 1:
        ring = cycle(rng.randrange(3, 8))
        pendants = [(rng.randrange(ring.n), ring.n + i) for i in range(rng.randrange(3))]
        return Graph.from_edges(ring.n + len(pendants), [*ring.edges, *pendants])
    k = rng.randrange(2, 6)
    tree = prufer_tree(k, rng)
    extra = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.3]
    return Graph.from_edges(k, set(tree.edges) | set(extra))


def test_random_unions_up_to_eleven_vertices():
    rng = random.Random(20261020)
    tags = set()
    for _ in range(300):
        parts, n = [], 0
        while not parts or (n < 11 and rng.random() < 0.6):
            piece = _random_piece(rng)
            if n + piece.n > 11:
                break
            parts.append(piece)
            n += piece.n
        g = union(parts)
        if rng.random() < 0.1:
            g = Graph(g.n + 1, g.edges)  # an isolated vertex: Vacuous
        tags.add(check(shuffled(g, rng)).case_tag)
    # the unions reach the structural cases, the oracle and the mixed tag
    assert {CaseTag.ALL_LEAF_OR_STEM, CaseTag.NEG_CORE_SHAPE, CaseTag.MIXED_4} <= tags


def _decorated(rng: random.Random) -> Graph:
    """A random tree or cycle on up to 9 vertices with pendant leaves and
    pendant paths of two edges hung on its vertices, so that its core is
    a larger star or a 5-cycle whose vertices have stems beside it."""
    base = prufer_tree(rng.randrange(2, 10), rng) if rng.random() < 0.6 else cycle(rng.randrange(5, 8))
    edges, n = list(base.edges), base.n
    for v in range(base.n):
        hang = rng.randrange(4)
        if hang == 1:
            edges.append((v, n))
            n += 1
        elif hang == 2:
            edges += [(v, n), (n, n + 1)]
            n += 2
    return Graph.from_edges(n, edges)


def test_random_decorated_trees_and_cycles():
    rng = random.Random(2026)
    kinds = set()
    for _ in range(300):
        g = _decorated(rng)
        if rng.random() < 0.3:
            g = union([g, _decorated(rng)])
        cls = check(shuffled(g, rng))
        kinds |= {
            (shape.partition("(")[0], cls.verdict)
            for r in cls.per_component
            for shape in r.kind.split("+")
        }
    # stars and 5-cycles as cores of members and of non-members
    for shape in ("Star", "FiveCycle"):
        assert {(shape, Verdict.MEMBER), (shape, Verdict.NOT_MEMBER)} <= kinds


def test_unions_shaped_like_the_large_structural_benchmark():
    rng = random.Random(25)
    trees = [prufer_tree(n, rng) for n in (500, 1000, 1000)]
    comb_tree = prufer_tree(300, rng)
    comb = Graph.from_edges(600, [*comb_tree.edges, *((v, 300 + v) for v in range(300))])
    matching = union([Graph(2, ((0, 1),))] * 1050)
    forest = union([prufer_tree(rng.randrange(2, 6), rng) for _ in range(1050)])
    small = list(generate_connected_girth5(5)) + list(generate_connected_girth5(6))
    girth5_union = union([rng.choice(small) for _ in range(400)])
    graphs = [*trees, comb, matching, forest, girth5_union]
    for g in graphs:
        check(g)
    for g in (forest, girth5_union):
        check(shuffled(g, rng))
    assert check(comb).case_tag is CaseTag.ALL_LEAF_OR_STEM
    assert check(matching).witness.weights == (ONE,) * 1050
    # every component has a core, and the components interleave: P5 (an
    # isolated-vertex core), P6 (a K_{1,1} core), a spider with three legs
    # of length 3 (a K_{1,3} core) and a 5-cycle with a tail of length 2
    spider = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)])
    tailed_c5 = Graph.from_edges(7, [*cycle(5).edges, (0, 5), (5, 6)])
    cored = check(shuffled(union([path(5), path(6), spider, tailed_c5] * 50), rng))
    kinds = {r.kind for r in cored.per_component}
    assert kinds == {"IsolatedVertex", "Star(m=1)", "Star(m=3)", "FiveCycle"}
    assert cored.verdict is Verdict.MEMBER and cored.witness.weights.count(TWO) == 50
