"""Structural membership classifier for girth at least five.

For connected graphs of girth >= 5 membership in the uniform-weighting
family is decided by shape alone: the graph is a 5-cycle or a 7-cycle,
or every vertex is a leaf or a stem, or every component left after
deleting the leaves and stems is a 5-cycle (with at most two vertices of
degree >= 3 in the original graph, nonadjacent when there are two), a
star K_{1,m} (center of original degree m when m >= 2), or an isolated
vertex.  Members get a constructed witness weighting; graphs of girth
three or four fall back to the brute-force oracle.

``classify`` reads everything off the input graph's adjacency, in its
own vertex ids: the components, the leaves and stems (once per call),
the girth of each component with a cycle, and the core components.  It
builds a subgraph only for a component that goes to the oracle.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .factors import DEFAULT_CAP
from .graph import (
    Girth,
    Graph,
    classify_vertices,
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
class FiveCycleCore:
    """Core 5-cycle; high_degree lists its vertices of original degree >= 3."""

    vertices: tuple[int, ...]
    high_degree: tuple[int, ...]


@dataclass(frozen=True)
class StarCore:
    center: int
    leaves: tuple[int, ...]
    center_degree: int  # degree of the center in the original graph

    @property
    def m(self) -> int:
        return len(self.leaves)


@dataclass(frozen=True)
class IsolatedVertexCore:
    vertex: int


@dataclass(frozen=True)
class OtherCore:
    vertices: tuple[int, ...]
    reason: str


CoreComponentKind = FiveCycleCore | StarCore | IsolatedVertexCore | OtherCore


@dataclass(frozen=True)
class ComponentReport:
    """Per connected component: its vertices, verdict, tag and core shapes."""

    vertices: tuple[int, ...]
    verdict: Verdict
    route: Route
    tag: CaseTag | None
    core_kinds: tuple[CoreComponentKind, ...] = ()


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


def _core_component_kind(
    g: Graph, verts: tuple[int, ...], outer: frozenset[int]
) -> CoreComponentKind:
    """Shape of one core component; ``outer`` holds the leaves and stems."""
    if len(verts) == 1:
        return IsolatedVertexCore(vertex=verts[0])
    # verts is a whole component of g minus outer, so a vertex's core
    # degree counts its neighbors outside outer
    adjacency = g.adjacency
    degs = {v: sum(1 for u in adjacency[v] if u not in outer) for v in verts}
    if sum(degs.values()) == 2 * (len(verts) - 1):
        # a tree with a vertex adjacent to all the others is a star
        center = next((v for v in verts if degs[v] == len(verts) - 1), None)
        if center is not None:
            return StarCore(
                center=center,
                leaves=tuple(v for v in verts if v != center),
                center_degree=len(adjacency[center]),
            )
    if len(verts) == 5 and all(degs[v] == 2 for v in verts):
        high = tuple(v for v in verts if len(adjacency[v]) >= 3)
        return FiveCycleCore(vertices=verts, high_degree=high)
    return OtherCore(vertices=verts, reason="neither a star, a 5-cycle, nor a vertex")


def _core_kind_ok(kind: CoreComponentKind, g: Graph) -> bool:
    if isinstance(kind, StarCore):
        return kind.m == 1 or kind.center_degree == kind.m
    if isinstance(kind, FiveCycleCore):
        high = kind.high_degree
        return len(high) < 2 or (len(high) == 2 and high[1] not in g.adjacency[high[0]])
    return isinstance(kind, IsolatedVertexCore)


_CASE_TAGS = {
    FiveCycleCore: CaseTag.CASE_4A,
    StarCore: CaseTag.CASE_4B,
    IsolatedVertexCore: CaseTag.CASE_4C,
}


def _structural_report(
    g: Graph, verts: tuple[int, ...], leaves: frozenset[int], outer: frozenset[int]
) -> ComponentReport:
    """Decide one connected component of g of girth >= 5.

    ``leaves`` holds the leaves of g and ``outer`` its leaves and stems;
    both are local to the component, because a vertex has the same
    degree in g as in its component.
    """

    def report(verdict: Verdict, tag: CaseTag, kinds=()) -> ComponentReport:
        return ComponentReport(verts, verdict, Route.STRUCTURAL_GIRTH5, tag, tuple(kinds))

    if leaves.isdisjoint(verts):
        # minimum degree >= 2: members are exactly the 5-cycle and 7-cycle
        if len(verts) in (5, 7) and all(g.degree(v) == 2 for v in verts):
            return report(Verdict.MEMBER, CaseTag.C5 if len(verts) == 5 else CaseTag.C7)
        return report(Verdict.NOT_MEMBER, CaseTag.NEG_DELTA2_GIRTH)

    if outer.issuperset(verts):
        return report(Verdict.MEMBER, CaseTag.ALL_LEAF_OR_STEM)

    kinds = [
        _core_component_kind(g, core, outer)
        for core in induced_components(g.adjacency, verts, outer)
    ]
    if not all(_core_kind_ok(k, g) for k in kinds):
        return report(Verdict.NOT_MEMBER, CaseTag.NEG_CORE_SHAPE, kinds)
    tags = {_CASE_TAGS[type(kind)] for kind in kinds}
    return report(Verdict.MEMBER, tags.pop() if len(tags) == 1 else CaseTag.MIXED_4, kinds)


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
    report = ComponentReport(
        vertices=verts,
        verdict=result.verdict,
        route=Route.ORACLE_FALLBACK,
        tag=CaseTag.REFUTED if result.verdict is Verdict.NOT_MEMBER else None,
    )
    return report, result.refutation


def classify(g: Graph, cap: int = DEFAULT_CAP) -> Classification:
    """Component-wise classification of an arbitrary graph, in one pass.

    Each component's girth comes from ``shortest_cycle``.  Girth >= 5
    components take the structural path, others go to the brute-force
    oracle on a subgraph of their own.  The graph is a member iff every
    component is, with the witness concatenated over them; a non-member
    takes the tag of its first failing component.  A component on which
    the oracle exceeds the factor cap makes the verdict CapExceeded.
    A refutation certifies the first component the oracle refuted, in
    the edge and factor indices of that component's own renumbered
    subgraph, so ``verify_outcome`` checks it against that subgraph's
    factors, not g's.  A structural non-member has none.
    """
    if g.has_isolated_vertex():
        return Classification(Verdict.VACUOUS, Route.STRUCTURAL_GIRTH5, None, girth(g), None, None)
    adjacency = g.adjacency
    vc = classify_vertices(g)
    outer = vc.leaves | vc.stems
    weights = [ONE] * g.m
    reports: list[ComponentReport] = []
    refutation: Refutation | None = None
    finite_girths: list[int] = []
    for verts in induced_components(adjacency):
        cycle = shortest_cycle(adjacency, verts)
        if cycle is not None:
            finite_girths.append(cycle)
        if cycle is None or cycle >= 5:
            report = _structural_report(g, verts, vc.leaves, outer)
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
    fallback = any(r.route is Route.ORACLE_FALLBACK for r in reports)
    route = Route.ORACLE_FALLBACK if fallback else Route.STRUCTURAL_GIRTH5
    failing = next((r for r in reports if r.verdict is Verdict.NOT_MEMBER), None)
    if failing is not None:
        return Classification(
            Verdict.NOT_MEMBER, route, failing.tag, gg, None, refutation, tuple(reports)
        )
    tags = {r.tag for r in reports}
    case_tag = tags.pop() if len(tags) == 1 else CaseTag.MIXED_4 if tags else None
    for kind in (kind for r in reports for kind in r.core_kinds):
        if isinstance(kind, StarCore) and kind.m == 1:
            # a factor covers a K_{1,1} core edge either by that edge or by
            # one stem edge at each end, so it weighs 2; its center is its
            # smaller vertex.  g.edges is sorted, so a bisection finds the
            # edge's index without building g.edge_index.
            weights[bisect_left(g.edges, (kind.center, kind.leaves[0]))] = TWO
    witness = Weighting(tuple(weights))
    return Classification(Verdict.MEMBER, route, case_tag, gg, witness, None, tuple(reports))


def _kind_str(kind: CoreComponentKind) -> str:
    if isinstance(kind, FiveCycleCore):
        return "FiveCycle"
    if isinstance(kind, StarCore):
        return f"Star(m={kind.m})"
    if isinstance(kind, IsolatedVertexCore):
        return "IsolatedVertex"
    return f"Other({kind.reason})"


def classification_to_json(g: Graph, cls: Classification) -> dict:
    """The classifier's report object with fixed field names; its
    refutation is in the refuted component's own indices (``classify``)."""
    components = []
    for report in cls.per_component:
        if report.route is Route.ORACLE_FALLBACK:
            kind = "OracleFallback"
        elif report.core_kinds:
            kind = "+".join(_kind_str(k) for k in report.core_kinds)
        else:
            kind = report.tag.value if report.tag else "EmptyCore"
        components.append(
            {
                "vertices": list(report.vertices),
                "kind": kind,
                "tag": report.tag.value if report.tag else None,
            }
        )
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
