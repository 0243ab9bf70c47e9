"""Structural membership classifier for girth at least five.

For connected graphs of girth >= 5 membership in the uniform-weighting
family is decided by shape alone: the graph is a 5-cycle or a 7-cycle,
or every vertex is a leaf or a stem, or every component left after
deleting the leaves and stems is a 5-cycle (with at most two vertices of
degree >= 3 in the original graph, nonadjacent when there are two), a
star K_{1,m} (center of original degree m when m >= 2), or an isolated
vertex.  Members get a constructed witness weighting; graphs of girth
three or four fall back to the brute-force oracle.

``classify`` makes one pass over the input graph's adjacency, in its own
vertex ids.  It reads a degree list once and marks the leaves and the
stems (their neighbors) in one bytearray; a component is a tree by its
degree sum, and only a component with a cycle is searched for its girth.
A structural component with both marked and unmarked vertices finds its
own core components with one search over its unmarked vertices, and a
K_{1,1} core's edge gets its witness weight as soon as it is found.  It
builds a subgraph only for a component that goes to the oracle.  Each
component's report holds the kind string that the JSON report prints:
its core shapes, its tag, or "OracleFallback".
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .factors import DEFAULT_CAP
from .graph import (
    Girth,
    Graph,
    connected_components,
    girth,
    induced_components,
    shortest_cycle,
)
from .solver import (
    Refutation,
    Verdict,
    Weighting,
    certificate_json,
    omega_oracle,
    witness_json,
)

ONE, TWO = Fraction(1), Fraction(2)


class Route(enum.Enum):
    STRUCTURAL_GIRTH5 = "StructuralGirth5"
    ORACLE_FALLBACK = "OracleFallback"


class CaseTag(enum.Enum):
    C5 = "C5"
    C7 = "C7"
    ALL_LEAF_OR_STEM = "AllLeafOrStem"
    CASE_4A = "Case4a"
    CASE_4B = "Case4b"
    CASE_4C = "Case4c"
    MIXED_4 = "Mixed4"
    NEG_DELTA2_GIRTH = "NegDelta2Girth"
    NEG_CORE_SHAPE = "NegCoreShape"
    REFUTED = "Refuted"


@dataclass(frozen=True)
class ComponentReport:
    """Per connected component: its vertices, verdict, tag, and the kind
    that the JSON report prints: "OracleFallback", its core shapes joined
    by "+" in core order, or else its tag's value."""

    vertices: tuple[int, ...]
    verdict: Verdict
    tag: CaseTag | None
    kind: str


@dataclass(frozen=True)
class Classification:
    """What ``classify`` returns; ``classify`` says what ``refutation`` certifies."""

    verdict: Verdict
    route: Route
    case_tag: CaseTag | None
    girth: Girth
    witness: Weighting | None
    refutation: Refutation | None
    per_component: tuple[ComponentReport, ...] = ()


def classify_connected_girth5(g: Graph) -> Classification:
    """Structural decision for one connected graph of girth >= 5.

    Precondition (contract error if violated): g is connected, has no
    isolated vertex, and girth(g) >= 5.  Callers route other graphs to
    the oracle.  Such a graph is one structural component for classify.
    """
    gg = girth(g)
    if not gg.at_least(5):
        raise ValueError(f"girth {gg} < 5: route this graph to the oracle")
    if g.n == 0 or g.has_isolated_vertex():
        raise ValueError("graph has an isolated vertex")
    if len(connected_components(g)) != 1:
        raise ValueError("graph is not connected")
    return classify(g)


def _fallback_report(
    g: Graph, verts: tuple[int, ...], cap: int, weights: list[Fraction]
) -> tuple[ComponentReport, Refutation | None]:
    """Decide one component of girth <= 4 with the oracle on its own
    subgraph; a member's witness weights are written into ``weights``."""
    adjacency = g.adjacency
    pairs = [(u, v) for u in verts for v in adjacency[u] if v > u]
    # renumbering in vertex order keeps the pairs sorted, so the
    # subgraph's edge j is the graph's edge pairs[j]
    local = {v: j for j, v in enumerate(verts)}
    sub = Graph(len(verts), tuple((local[u], local[v]) for u, v in pairs))
    result = omega_oracle(sub, cap=cap)
    if result.witness is not None:
        for pair, w in zip(pairs, result.witness.weighting.weights):
            weights[bisect_left(g.edges, pair)] = w
    tag = CaseTag.REFUTED if result.verdict is Verdict.NOT_MEMBER else None
    return ComponentReport(verts, result.verdict, tag, "OracleFallback"), result.refutation


def classify(g: Graph, cap: int = DEFAULT_CAP) -> Classification:
    """Component-wise classification of an arbitrary graph, in one pass.

    A component is a tree by its degree sum, and only one with a cycle
    gets its girth from ``shortest_cycle``.  Girth >= 5 components take
    the structural path, others go to the brute-force oracle on a
    subgraph of their own.  The graph is a member iff every component is,
    with the witness concatenated over them; a non-member takes the tag of
    its first failing component.  A component on which the oracle exceeds
    the factor cap makes the verdict CapExceeded.  A refutation certifies
    the first component the oracle refuted, in the edge and factor indices
    of that component's own renumbered subgraph, so ``verify_outcome``
    checks it against that subgraph's factors, not g's.  A structural
    non-member has none.
    """
    if g.has_isolated_vertex():
        return Classification(Verdict.VACUOUS, Route.STRUCTURAL_GIRTH5, None, girth(g), None, None)
    n, adjacency = g.n, g.adjacency
    degree = list(map(len, adjacency))
    # 1 marks a leaf or a stem.  A component has a leaf iff it has a stem,
    # the leaf's neighbor, so it has no leaf iff none of it is marked.
    outer = bytearray(n)
    for v in compress(range(n), map((1).__eq__, degree)):
        outer[v] = outer[adjacency[v][0]] = 1
    marked = frozenset(compress(range(n), outer))
    weights = [ONE] * g.m
    reports: list[ComponentReport] = []
    refutation: Refutation | None = None
    finite_girths: list[int] = []
    fallback = False
    for verts in induced_components(adjacency):
        if sum(map(degree.__getitem__, verts)) != 2 * (len(verts) - 1):
            cycle = shortest_cycle(adjacency, verts)
            finite_girths.append(cycle)
            if cycle < 5:
                report, refuted = _fallback_report(g, verts, cap, weights)
                if report.verdict is Verdict.CAP_EXCEEDED:
                    return Classification(
                        Verdict.CAP_EXCEEDED, Route.ORACLE_FALLBACK, None, girth(g), None, None
                    )
                if refutation is None:
                    refutation = refuted
                reports.append(report)
                fallback = True
                continue
        unmarked = [v for v in verts if not outer[v]]
        shapes: list[str] = []
        if not unmarked:
            verdict, tag = Verdict.MEMBER, CaseTag.ALL_LEAF_OR_STEM
        elif len(unmarked) == len(verts):
            # no leaf, so minimum degree >= 2: members are exactly the
            # 5-cycle and the 7-cycle
            if len(verts) in (5, 7) and all(degree[v] == 2 for v in verts):
                verdict, tag = Verdict.MEMBER, CaseTag.C5 if len(verts) == 5 else CaseTag.C7
            else:
                verdict, tag = Verdict.NOT_MEMBER, CaseTag.NEG_DELTA2_GIRTH
        else:
            core_tags = set()
            shapes_ok = True
            for core in induced_components(adjacency, unmarked, marked):
                size = len(core)
                if size == 1:
                    shapes.append("IsolatedVertex")
                    core_tags.add(CaseTag.CASE_4C)
                    continue
                # a core vertex's core neighbors are its unmarked neighbors
                core_degrees = [degree[v] - sum(map(outer.__getitem__, adjacency[v])) for v in core]
                if sum(core_degrees) == 2 * (size - 1) and size - 1 in core_degrees:
                    # a tree with a vertex adjacent to all the others is a
                    # star, centered there when it has two leaves or more
                    shapes.append(f"Star(m={size - 1})")
                    core_tags.add(CaseTag.CASE_4B)
                    if size == 2:
                        # a factor covers a K_{1,1} core edge either by that
                        # edge or by one stem edge at each end, so it weighs
                        # 2; weights is read only for a member.  g.edges is
                        # sorted, so a bisection finds the edge's index
                        # without building g.edge_index.
                        weights[bisect_left(g.edges, core)] = TWO
                    else:
                        center = core[core_degrees.index(size - 1)]
                        shapes_ok = shapes_ok and degree[center] == size - 1
                elif size == 5 and core_degrees == [2] * 5:
                    high = tuple(v for v in core if degree[v] >= 3)
                    shapes.append("FiveCycle")
                    core_tags.add(CaseTag.CASE_4A)
                    shapes_ok = shapes_ok and (
                        len(high) < 2 or (len(high) == 2 and high[1] not in adjacency[high[0]])
                    )
                else:
                    shapes.append("Other(neither a star, a 5-cycle, nor a vertex)")
                    shapes_ok = False
            if shapes_ok:
                verdict = Verdict.MEMBER
                tag = core_tags.pop() if len(core_tags) == 1 else CaseTag.MIXED_4
            else:
                verdict, tag = Verdict.NOT_MEMBER, CaseTag.NEG_CORE_SHAPE
        reports.append(ComponentReport(verts, verdict, tag, "+".join(shapes) or tag.value))
    gg = Girth(min(finite_girths, default=None))
    route = Route.ORACLE_FALLBACK if fallback else Route.STRUCTURAL_GIRTH5
    failing = next((r for r in reports if r.verdict is Verdict.NOT_MEMBER), None)
    if failing is not None:
        return Classification(
            Verdict.NOT_MEMBER, route, failing.tag, gg, None, refutation, tuple(reports)
        )
    tags = {r.tag for r in reports}
    case_tag = tags.pop() if len(tags) == 1 else CaseTag.MIXED_4 if tags else None
    witness = Weighting(tuple(weights))
    return Classification(Verdict.MEMBER, route, case_tag, gg, witness, None, tuple(reports))


def classification_to_json(g: Graph, cls: Classification) -> dict:
    """The classifier's report object with fixed field names; its
    refutation is in the refuted component's own indices (``classify``)."""
    components = [
        {"vertices": list(r.vertices), "kind": r.kind, "tag": r.tag.value if r.tag else None}
        for r in cls.per_component
    ]
    refutation = None
    if cls.refutation is not None:
        refutation = {"certificate": certificate_json(cls.refutation)}
    return {
        "verdict": cls.verdict.value,
        "route": cls.route.value,
        "caseTag": cls.case_tag.value if cls.case_tag else None,
        "girth": cls.girth.value,
        "components": components,
        "witness": None if cls.witness is None else witness_json(g, cls.witness),
        "refutation": refutation,
    }
