"""Structural membership classifier for girth at least five.

For connected graphs of girth >= 5 membership in the uniform-weighting
family is decided by shape alone: the graph is a 5-cycle or a 7-cycle,
or every vertex is a leaf or a stem, or every component left after
deleting the leaves and stems is a 5-cycle (with at most two vertices of
degree >= 3 in the original graph, nonadjacent when there are two), a
star K_{1,m} (center of original degree m when m >= 2), or an isolated
vertex.  Members get a constructed witness weighting; graphs of girth
three or four fall back to the brute-force oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .factors import DEFAULT_CAP, CapExceeded
from .graph import (
    Girth,
    Graph,
    VertexClass,
    classify_vertices,
    connected_components,
    girth,
    induced_delete,
)
from .solver import (
    Refutation,
    Verdict,
    Weighting,
    certificate_json,
    omega_oracle,
    witness_json,
)


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
    verdict: Verdict
    route: Route
    case_tag: CaseTag | None
    girth: Girth
    witness: Weighting | None
    refutation: Refutation | None
    per_component: tuple[ComponentReport, ...] = ()


def remove_leaves_and_stems(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Delete all leaves and stems; returns (core, core-vertex -> original)."""
    vc = classify_vertices(g)
    core, old_to_new = induced_delete(g, vc.leaves | vc.stems)
    return core, {new: old for old, new in old_to_new.items()}


def _core_components(g: Graph) -> list[frozenset[int]]:
    """Components of g minus its leaves and stems, in original vertex ids."""
    core, core_to_orig = remove_leaves_and_stems(g)
    return [
        frozenset(core_to_orig[v] for v in comp) for comp in connected_components(core)
    ]


def _core_component_kind(g: Graph, comp: frozenset[int]) -> CoreComponentKind:
    verts = tuple(sorted(comp))
    if len(verts) == 1:
        return IsolatedVertexCore(vertex=verts[0])
    # comp is a component of an induced subgraph, so a vertex's core
    # degree counts its neighbors in comp
    degs = {v: sum(1 for u in g.adjacency[v] if u in comp) for v in verts}
    if sum(degs.values()) == 2 * (len(verts) - 1):
        # a tree with a vertex adjacent to all the others is a star
        center = next((v for v in verts if degs[v] == len(verts) - 1), None)
        if center is not None:
            return StarCore(
                center=center,
                leaves=tuple(v for v in verts if v != center),
                center_degree=g.degree(center),
            )
    if len(verts) == 5 and all(degs[v] == 2 for v in verts):
        high = tuple(v for v in verts if g.degree(v) >= 3)
        return FiveCycleCore(vertices=verts, high_degree=high)
    return OtherCore(vertices=verts, reason="neither a star, a 5-cycle, nor a vertex")


def _core_kind_ok(kind: CoreComponentKind, g: Graph) -> bool:
    if isinstance(kind, IsolatedVertexCore):
        return True
    if isinstance(kind, StarCore):
        return kind.m == 1 or kind.center_degree == kind.m
    if isinstance(kind, FiveCycleCore):
        if len(kind.high_degree) > 2:
            return False
        if len(kind.high_degree) == 2:
            u, v = kind.high_degree
            return not g.has_edge(u, v)
        return True
    return False


def construct_weighting(g: Graph, core_k11_pairs: list[tuple[int, int]]) -> Weighting:
    """Witness for a structural member.

    Weight 1 everywhere; each edge that is itself a K_{1,1} core component
    gets 2 (the a+b rule with a = b = 1: a star-factor covers that pair
    either by the pair's own edge or by one stem edge at each endpoint).
    """
    weights = [Fraction(1)] * g.m
    for u, v in core_k11_pairs:
        weights[g.edge_index[(min(u, v), max(u, v))]] = Fraction(2)
    return Weighting(tuple(weights))


def _structural_report(
    g: Graph,
    verts: tuple[int, ...],
    vc: VertexClass,
    cores: list[frozenset[int]],
) -> tuple[ComponentReport, list[tuple[int, int]]]:
    """Decide one connected component of g of girth >= 5.

    ``vc`` holds the leaves and stems of g and ``cores`` the components of
    its core that lie in ``verts``; all of them are local to the component,
    because a vertex has the same degree in g as in its component.
    Returns the report and the K_{1,1} core pairs whose edges weigh 2.
    """

    def report(verdict: Verdict, tag: CaseTag, kinds=()) -> ComponentReport:
        return ComponentReport(
            vertices=verts,
            verdict=verdict,
            route=Route.STRUCTURAL_GIRTH5,
            tag=tag,
            core_kinds=tuple(kinds),
        )

    if not any(v in vc.leaves for v in verts):
        # minimum degree >= 2: members are exactly the 5-cycle and 7-cycle
        if len(verts) in (5, 7) and all(g.degree(v) == 2 for v in verts):
            return report(Verdict.MEMBER, CaseTag.C5 if len(verts) == 5 else CaseTag.C7), []
        return report(Verdict.NOT_MEMBER, CaseTag.NEG_DELTA2_GIRTH), []

    if all(v in vc.leaves or v in vc.stems for v in verts):
        return report(Verdict.MEMBER, CaseTag.ALL_LEAF_OR_STEM), []

    kinds = [_core_component_kind(g, comp) for comp in cores]
    if not all(_core_kind_ok(k, g) for k in kinds):
        return report(Verdict.NOT_MEMBER, CaseTag.NEG_CORE_SHAPE, kinds), []
    tags = set()
    k11_pairs: list[tuple[int, int]] = []
    for kind in kinds:
        if isinstance(kind, FiveCycleCore):
            tags.add(CaseTag.CASE_4A)
        elif isinstance(kind, StarCore):
            tags.add(CaseTag.CASE_4B)
            if kind.m == 1:
                k11_pairs.append((kind.center, kind.leaves[0]))
        else:
            tags.add(CaseTag.CASE_4C)
    tag = tags.pop() if len(tags) == 1 else CaseTag.MIXED_4
    return report(Verdict.MEMBER, tag, kinds), k11_pairs


def _combine(
    reports: list[ComponentReport],
    gg: Girth,
    witness: Weighting,
    refutation: Refutation | None,
) -> Classification:
    """The graph is a member iff every component is; a non-member takes
    the tag of its first failing component."""
    route = (
        Route.ORACLE_FALLBACK
        if any(r.route is Route.ORACLE_FALLBACK for r in reports)
        else Route.STRUCTURAL_GIRTH5
    )
    failing = [r for r in reports if r.verdict is Verdict.NOT_MEMBER]
    if failing:
        return Classification(
            Verdict.NOT_MEMBER, route, failing[0].tag, gg, None, refutation, tuple(reports)
        )
    tags = {r.tag for r in reports}
    case_tag = tags.pop() if len(tags) == 1 else CaseTag.MIXED_4 if tags else None
    return Classification(Verdict.MEMBER, route, case_tag, gg, witness, None, tuple(reports))


def classify_connected_girth5(g: Graph) -> Classification:
    """Structural decision for one connected graph of girth >= 5.

    Precondition (contract error if violated): g is connected, has no
    isolated vertex, and girth(g) >= 5.  Callers route other graphs to
    the oracle.
    """
    gg = girth(g)
    if not gg >= 5:
        raise ValueError(f"girth {gg} < 5: route this graph to the oracle")
    if g.n == 0 or g.has_isolated_vertex():
        raise ValueError("graph has an isolated vertex")
    if len(connected_components(g)) != 1:
        raise ValueError("graph is not connected")
    report, k11_pairs = _structural_report(
        g, tuple(range(g.n)), classify_vertices(g), _core_components(g)
    )
    return _combine([report], gg, construct_weighting(g, k11_pairs), None)


def classify(g: Graph, cap: int = DEFAULT_CAP) -> Classification:
    """Component-wise classification of an arbitrary graph.

    Girth >= 5 components take the structural path; others go to the
    brute-force oracle.  The graph is a member iff every component is;
    witnesses concatenate over components.  CapExceeded propagates from
    the fallback.
    """
    if g.has_isolated_vertex():
        return Classification(
            verdict=Verdict.VACUOUS,
            route=Route.STRUCTURAL_GIRTH5,
            case_tag=None,
            girth=girth(g),
            witness=None,
            refutation=None,
        )
    comps = connected_components(g)
    comp_of = [0] * g.n
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c
    comp_edges: list[list[int]] = [[] for _ in comps]
    for i, (u, _) in enumerate(g.edges):
        comp_edges[comp_of[u]].append(i)
    comp_cores: list[list[frozenset[int]]] = [[] for _ in comps]
    for core in _core_components(g):
        comp_cores[comp_of[min(core)]].append(core)
    vc = classify_vertices(g)

    reports: list[ComponentReport] = []
    k11_pairs: list[tuple[int, int]] = []
    fallback_weights: dict[int, Fraction] = {}
    refutation: Refutation | None = None
    finite_girths: list[int] = []
    for comp, edges, cores in zip(comps, comp_edges, comp_cores):
        verts = tuple(sorted(comp))
        # renumbering in vertex order keeps the edges sorted, so the
        # subgraph's edge j is the graph's edge edges[j]
        local = {v: j for j, v in enumerate(verts)}
        sub = Graph(
            len(verts), tuple((local[g.edges[i][0]], local[g.edges[i][1]]) for i in edges)
        )
        gg = girth(sub)
        if not gg.is_infinite:
            finite_girths.append(gg.value)
        if gg >= 5:
            report, pairs = _structural_report(g, verts, vc, cores)
            k11_pairs.extend(pairs)
        else:
            result = omega_oracle(sub, cap=cap)
            if result.verdict is Verdict.CAP_EXCEEDED:
                raise CapExceeded(cap)
            report = ComponentReport(
                vertices=verts,
                verdict=result.verdict,
                route=Route.ORACLE_FALLBACK,
                tag=CaseTag.REFUTED if result.verdict is Verdict.NOT_MEMBER else None,
            )
            if result.witness is not None:
                fallback_weights.update(zip(edges, result.witness.weighting.weights))
            elif refutation is None:
                refutation = result.refutation
        reports.append(report)
    structural = construct_weighting(g, k11_pairs).weights
    witness = Weighting(
        tuple(fallback_weights.get(i, w) for i, w in enumerate(structural))
    )
    overall_girth = Girth.finite(min(finite_girths)) if finite_girths else Girth.infinite()
    return _combine(reports, overall_girth, witness, refutation)


def _kind_str(kind: CoreComponentKind) -> str:
    if isinstance(kind, FiveCycleCore):
        return "FiveCycle"
    if isinstance(kind, StarCore):
        return f"Star(m={kind.m})"
    if isinstance(kind, IsolatedVertexCore):
        return "IsolatedVertex"
    return f"Other({kind.reason})"


def classification_to_json(g: Graph, cls: Classification) -> dict:
    """The classifier's report object with fixed field names."""
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
        certificate = certificate_json(cls.refutation)
        refutation = {"certificate": certificate}
        if len(certificate["coeffs"]) == 1:
            # a single row means one factor's edges strictly contain another's
            refutation["factorPair"] = [0, certificate["coeffs"][0][0] + 1]
    return {
        "verdict": cls.verdict.value,
        "route": cls.route.value,
        "caseTag": cls.case_tag.value if cls.case_tag else None,
        "girth": None if cls.girth.is_infinite else cls.girth.value,
        "components": components,
        "witness": None if cls.witness is None else witness_json(g, cls.witness),
        "refutation": refutation,
    }
