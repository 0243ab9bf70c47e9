"""Structural classifier: case analysis, witnesses, and the JSON report."""

from fractions import Fraction

import pytest

from starfactor.classifier import (
    CaseTag,
    Route,
    Verdict,
    classification_to_json,
    classify,
    classify_connected_girth5,
)
from starfactor.factors import enumerate_star_factors, incidence_vectors
from starfactor.graph import Graph
from starfactor.solver import omega_oracle, verify_outcome, Witness

from conftest import (
    cycle,
    disjoint_union,
    double_star_graph,
    gadget_graphs,
    heavy_edges,
    leaves_and_stems,
    path,
    petersen,
    spider,
    star,
)


def assert_witness_equalizes(g, weighting):
    """The constructed weighting must equalize every enumerated factor."""
    vecs = incidence_vectors(enumerate_star_factors(g), g.m)
    total = sum(w for w, bit in zip(weighting.weights, vecs[0]) if bit)
    outcome = Witness(weighting=weighting, common_weight=Fraction(total))
    assert verify_outcome(vecs, outcome)


def core_vertices(g):
    """The vertices left after deleting all leaves and stems."""
    leaves, stems = leaves_and_stems(g)
    return set(range(g.n)) - leaves - stems


class TestCoreExtraction:
    def test_path8_core_is_p4(self):
        assert core_vertices(path(8)) == {2, 3, 4, 5}

    def test_cycle_core_is_itself(self):
        assert core_vertices(cycle(5)) == set(range(5))

    def test_star_core_is_empty(self):
        assert core_vertices(star(3)) == set()


class TestCycles:
    def test_c5_and_c7_member(self):
        for n, tag in [(5, CaseTag.C5), (7, CaseTag.C7)]:
            cls = classify_connected_girth5(cycle(n))
            assert cls.verdict is Verdict.MEMBER
            assert cls.case_tag is tag
            assert cls.witness.weights == (Fraction(1),) * n

    @pytest.mark.parametrize("n", [6, 8, 9, 10, 11, 12])
    def test_other_long_cycles_rejected(self, n):
        cls = classify_connected_girth5(cycle(n))
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.case_tag is CaseTag.NEG_DELTA2_GIRTH

    def test_petersen_rejected(self):
        cls = classify_connected_girth5(petersen())
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.case_tag is CaseTag.NEG_DELTA2_GIRTH


class TestLeafStemAndCoreCases:
    def test_all_leaf_or_stem(self):
        for g in [path(2), path(3), path(4), star(4)]:
            cls = classify_connected_girth5(g)
            assert cls.verdict is Verdict.MEMBER
            assert cls.case_tag is CaseTag.ALL_LEAF_OR_STEM
            assert_witness_equalizes(g, cls.witness)

    def test_spider_with_three_long_legs(self):
        # [DERIVED: oracle confirms Member; core is K_{1,3} with center
        # degree 3 = m, so the star-core case applies]
        g = spider(3)
        cls = classify_connected_girth5(g)
        assert cls.verdict is Verdict.MEMBER
        assert cls.case_tag is CaseTag.CASE_4B
        assert cls.per_component[0].kind == "Star(m=3)"
        assert_witness_equalizes(g, cls.witness)

    def test_p5_isolated_core_vertex(self):
        cls = classify_connected_girth5(path(5))
        assert cls.verdict is Verdict.MEMBER
        assert cls.case_tag is CaseTag.CASE_4C
        assert cls.per_component[0].kind == "IsolatedVertex"
        assert_witness_equalizes(path(5), cls.witness)

    def test_p7_star_core(self):
        cls = classify_connected_girth5(path(7))
        assert cls.verdict is Verdict.MEMBER
        assert cls.case_tag is CaseTag.CASE_4B
        assert cls.per_component[0].kind == "Star(m=2)"
        assert_witness_equalizes(path(7), cls.witness)

    def test_p8_core_p4_rejected(self):
        cls = classify_connected_girth5(path(8))
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.case_tag is CaseTag.NEG_CORE_SHAPE

    def test_five_cycle_core_with_one_branch(self):
        # C5 with a stem-and-leaf path hanging off one vertex: the core is
        # the 5-cycle with a single high-degree vertex
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                 (0, 5), (5, 6)])
        cls = classify_connected_girth5(g)
        assert cls.verdict is Verdict.MEMBER
        assert cls.case_tag is CaseTag.CASE_4A
        assert cls.per_component[0].kind == "FiveCycle"
        assert_witness_equalizes(g, cls.witness)

    def test_five_cycle_core_two_adjacent_branches_rejected(self):
        # two high-degree core vertices that are adjacent on the 5-cycle
        g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                 (0, 5), (5, 6), (1, 7), (7, 8)])
        cls = classify_connected_girth5(g)
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.case_tag is CaseTag.NEG_CORE_SHAPE

    def test_five_cycle_core_two_nonadjacent_branches_member(self):
        g = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                 (0, 5), (5, 6), (2, 7), (7, 8)])
        cls = classify_connected_girth5(g)
        assert cls.verdict is Verdict.MEMBER
        assert cls.case_tag is CaseTag.CASE_4A
        assert_witness_equalizes(g, cls.witness)

    def test_five_cycle_core_with_long_tail_rejected(self):
        # a length-3 tail leaves a pendant vertex attached to the core
        # 5-cycle, which is none of the allowed core shapes
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                 (0, 5), (5, 6), (6, 7)])
        cls = classify_connected_girth5(g)
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.case_tag is CaseTag.NEG_CORE_SHAPE

    def test_star_core_center_degree_mismatch_rejected(self):
        # core K_{1,2} whose center has original degree 3
        g = gadget_graphs()["star_core_center_with_stem"][0]
        cls = classify_connected_girth5(g)
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.case_tag is CaseTag.NEG_CORE_SHAPE

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            classify_connected_girth5(cycle(4))
        with pytest.raises(ValueError):
            classify_connected_girth5(Graph(1, ()))
        with pytest.raises(ValueError):
            classify_connected_girth5(disjoint_union(path(2), path(2)))


class TestGadgetFixtures:
    @pytest.mark.parametrize("name", sorted(gadget_graphs()))
    def test_verdict_matches_derivation(self, name):
        # [DERIVED: brute-force oracle run on each gadget]
        g, expect_member = gadget_graphs()[name]
        cls = classify(g)
        expected = Verdict.MEMBER if expect_member else Verdict.NOT_MEMBER
        assert cls.verdict is expected
        if expect_member:
            assert_witness_equalizes(g, cls.witness)


class TestHeavyEdgeWitness:
    def test_double_star_graph_member_with_heavy_edges(self):
        g = double_star_graph()
        cls = classify(g)
        assert cls.verdict is Verdict.MEMBER
        assert cls.case_tag is CaseTag.CASE_4B
        heavy = set(heavy_edges(g))
        for i, w in enumerate(cls.witness.weights):
            assert w == (Fraction(2) if i in heavy else Fraction(1))
        assert_witness_equalizes(g, cls.witness)


class TestFullClassify:
    def test_vacuous(self):
        cls = classify(Graph(2, ()))
        assert cls.verdict is Verdict.VACUOUS
        assert cls.witness is None and cls.refutation is None

    def test_small_girth_goes_to_oracle(self):
        cls = classify(cycle(4))
        assert cls.verdict is Verdict.MEMBER
        assert cls.route is Route.ORACLE_FALLBACK
        assert cls.case_tag is None
        assert_witness_equalizes(cycle(4), cls.witness)

    def test_oracle_fallback_refutation(self):
        # [DERIVED: the diamond K4 minus an edge is refuted by the oracle]
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        cls = classify(g)
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.route is Route.ORACLE_FALLBACK
        assert cls.refutation is not None

    @pytest.mark.parametrize("other", [path(2), cycle(5)], ids=["edge", "C5"])
    def test_fallback_refutation_certifies_its_own_component(self, other):
        # a disconnected graph's refutation is the refuted component's
        # certificate, in that component's renumbered edge and factor
        # indices: it checks against the diamond's factors, not the graph's
        diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        g = disjoint_union(other, diamond)
        cls = classify(g)
        assert cls.verdict is Verdict.NOT_MEMBER
        assert len(cls.refutation.forced_zero) == diamond.m < g.m
        assert verify_outcome(incidence_vectors(enumerate_star_factors(diamond), diamond.m), cls.refutation)
        assert not verify_outcome(incidence_vectors(enumerate_star_factors(g), g.m), cls.refutation)

    def test_mixed_components_witness_concatenates(self):
        g = disjoint_union(cycle(5), path(4))
        cls = classify(g)
        assert cls.verdict is Verdict.MEMBER
        assert cls.case_tag is CaseTag.MIXED_4
        assert len(cls.witness.weights) == g.m
        assert_witness_equalizes(g, cls.witness)

    def test_one_bad_component_rejects(self):
        g = disjoint_union(cycle(5), cycle(6))
        cls = classify(g)
        assert cls.verdict is Verdict.NOT_MEMBER
        assert cls.witness is None

    def test_cap_propagates_from_oracle_fallback(self):
        # only girth < 5 components consult the oracle, so only they can
        # exceed the factor cap
        cls = classify(cycle(3), cap=2)
        assert cls.verdict is Verdict.CAP_EXCEEDED
        assert cls.route is Route.ORACLE_FALLBACK
        assert cls.witness is None and cls.refutation is None

    def test_core_kinds_in_original_vertex_ids(self):
        # P7 on vertices 5..11: deleting leaves 5, 11 and stems 6, 10
        # leaves the star 7-8-9
        cls = classify(disjoint_union(cycle(5), path(7)))
        assert cls.verdict is Verdict.MEMBER
        assert cls.per_component[1].vertices == tuple(range(5, 12))
        assert cls.per_component[1].kind == "Star(m=2)"

    def test_component_reports_cover_vertices(self):
        g = disjoint_union(path(3), cycle(5))
        cls = classify(g)
        seen = sorted(v for r in cls.per_component for v in r.vertices)
        assert seen == list(range(g.n))


class TestKindStrings:
    """Each component report holds the kind string that the JSON report
    prints: its core shapes joined by "+", its tag, or OracleFallback."""

    def test_star_and_five_cycle_cores_join_in_core_order(self):
        # the star core 1-0-2 (center 0 of degree 2) and the 5-cycle core
        # 7..11 in one component, joined through the stem 3 (leaf 4); the
        # stem 5 (leaf 6) hangs on the star's other core leaf
        edges = [(0, 1), (0, 2), (1, 3), (3, 4), (2, 5), (5, 6), (3, 7),
                 (7, 8), (8, 9), (9, 10), (10, 11), (7, 11)]
        g = Graph.from_edges(12, edges)
        cls = classify(g)
        assert cls.verdict is Verdict.MEMBER is omega_oracle(g).verdict
        assert cls.case_tag is CaseTag.MIXED_4
        assert [r.kind for r in cls.per_component] == ["Star(m=2)+FiveCycle"]
        # the same graph with the 5-cycle on the smallest ids: its core is
        # met first
        flipped = Graph.from_edges(12, [(11 - u, 11 - v) for u, v in edges])
        assert [r.kind for r in classify(flipped).per_component] == ["FiveCycle+Star(m=2)"]
        payload = classification_to_json(flipped, classify(flipped))
        assert [c["kind"] for c in payload["components"]] == ["FiveCycle+Star(m=2)"]

    def test_cycle_takes_its_tag_as_kind(self):
        report, = classify(cycle(5)).per_component
        assert (report.kind, report.tag) == ("C5", CaseTag.C5)

    def test_oracle_component_beside_a_structural_one(self):
        g = disjoint_union(cycle(3), path(3))
        cls = classify(g)
        assert cls.route is Route.ORACLE_FALLBACK
        assert [(r.kind, r.tag) for r in cls.per_component] == [
            ("OracleFallback", None),
            ("AllLeafOrStem", CaseTag.ALL_LEAF_OR_STEM),
        ]
        payload = classification_to_json(g, cls)
        assert payload["components"] == [
            {"vertices": [0, 1, 2], "kind": "OracleFallback", "tag": None},
            {"vertices": [3, 4, 5], "kind": "AllLeafOrStem", "tag": "AllLeafOrStem"},
        ]


class TestJsonReport:
    def test_member_schema(self):
        g = path(6)
        payload = classification_to_json(g, classify(g))
        assert payload["verdict"] == "Member"
        assert payload["route"] == "StructuralGirth5"
        assert payload["caseTag"] == "Case4b"
        assert payload["girth"] is None  # forest
        assert payload["refutation"] is None
        assert len(payload["witness"]) == g.m
        for entry in payload["witness"]:
            assert set(entry) == {"u", "v", "weight"}
            assert entry["weight"] >= 1

    def test_structural_not_member_schema(self):
        payload = classification_to_json(cycle(6), classify(cycle(6)))
        assert payload["verdict"] == "NotMember"
        assert payload["route"] == "StructuralGirth5"
        assert payload["caseTag"] == "NegDelta2Girth"
        assert payload["girth"] == 6
        assert payload["witness"] is None
        # structural rejections carry no algebraic certificate
        assert payload["refutation"] is None

    def test_oracle_not_member_schema(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        payload = classification_to_json(g, classify(g))
        assert payload["verdict"] == "NotMember"
        assert payload["route"] == "OracleFallback"
        assert payload["witness"] is None
        cert = payload["refutation"]["certificate"]
        assert cert["coeffs"] and len(cert["forcedZero"]) == g.m

    def test_vacuous_schema(self):
        payload = classification_to_json(Graph(1, ()), classify(Graph(1, ())))
        assert payload["verdict"] == "Vacuous"
        assert payload["witness"] is None and payload["refutation"] is None

    def test_components_field(self):
        g = disjoint_union(cycle(5), path(2))
        payload = classification_to_json(g, classify(g))
        assert [c["vertices"] for c in payload["components"]] == [
            list(range(5)),
            [5, 6],
        ]
        assert all({"vertices", "kind", "tag"} <= set(c) for c in payload["components"])

    def test_json_serializable(self):
        import json

        for g in [cycle(5), cycle(6), path(8), double_star_graph()]:
            json.dumps(classification_to_json(g, classify(g)))
