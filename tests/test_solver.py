"""Exact-rational feasibility oracle and certificate checking."""

from fractions import Fraction

import pytest

from starfactor import simplex
from starfactor.factors import enumerate_star_factors, incidence_vectors
from starfactor.solver import (
    Refutation,
    Verdict,
    Weighting,
    Witness,
    decide_uniform_weighting,
    omega_oracle,
    verify_outcome,
)

from conftest import cycle, disjoint_union, double_star_graph, path, petersen, spider, star


def vectors_of(g):
    return incidence_vectors(enumerate_star_factors(g), g.m)


class TestSimplex:
    def test_basic_maximization(self):
        # max x + y st x + y <= 4, x <= 3 (as equalities with slacks)
        value, x = simplex.solve(
            c=[1, 1, 0, 0],
            rows=[[1, 1, 1, 0], [1, 0, 0, 1]],
            rhs=[4, 3],
        )
        assert value == 4
        assert x[0] + x[1] == 4

    def test_infeasible_raises(self):
        # x + y = 2 and x + y = 3 simultaneously
        with pytest.raises(simplex.SimplexError):
            simplex.solve(c=[1, 0], rows=[[1, 1], [1, 1]], rhs=[2, 3])

    def test_exact_fractions(self):
        value, x = simplex.solve(
            c=[Fraction(1, 3)],
            rows=[[Fraction(2)]],
            rhs=[Fraction(1)],
        )
        assert value == Fraction(1, 6)
        assert x[0] == Fraction(1, 2)

    def test_redundant_row_handled(self):
        value, _ = simplex.solve(
            c=[1, 0],
            rows=[[1, 1], [2, 2]],
            rhs=[2, 4],
        )
        assert value == 2


class TestWeighting:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Weighting((Fraction(1), Fraction(0)))

    def test_integral_scaling(self):
        w = Weighting((Fraction(1, 2), Fraction(1, 3), Fraction(1)))
        assert w.integral == (3, 2, 6)

    def test_constant(self):
        assert Weighting.constant(3).weights == (Fraction(1),) * 3


class TestDecision:
    def test_c5_member_constant(self):
        outcome = decide_uniform_weighting(vectors_of(cycle(5)))
        assert isinstance(outcome, Witness)
        assert outcome.weighting.weights == (Fraction(1),) * 5
        assert outcome.common_weight == 3

    def test_c6_refuted_and_certificate_checks(self):
        vecs = vectors_of(cycle(6))
        outcome = decide_uniform_weighting(vecs)
        assert isinstance(outcome, Refutation)
        assert verify_outcome(vecs, outcome)

    def test_p6_member_nonconstant(self):
        # [DERIVED: P6's two factors have 3 and 4 edges, so constant fails
        # but alternating heavier end-edges equalize them]
        vecs = vectors_of(path(6))
        outcome = decide_uniform_weighting(vecs)
        assert isinstance(outcome, Witness)
        assert verify_outcome(vecs, outcome)
        assert len(set(outcome.weighting.weights)) > 1

    def test_single_factor_trivially_member(self):
        vecs = vectors_of(star(3))
        outcome = decide_uniform_weighting(vecs)
        assert isinstance(outcome, Witness)
        assert outcome.weighting.weights == (Fraction(1),) * 3
        assert outcome.common_weight == 3

    def test_every_member_witness_verifies(self):
        for g in [cycle(5), cycle(7), path(7), spider(3), double_star_graph()]:
            vecs = vectors_of(g)
            outcome = decide_uniform_weighting(vecs)
            assert isinstance(outcome, Witness)
            assert verify_outcome(vecs, outcome)

    def test_every_refutation_verifies(self):
        for g in [cycle(6), cycle(8), path(8), petersen()]:
            vecs = vectors_of(g)
            outcome = decide_uniform_weighting(vecs)
            assert isinstance(outcome, Refutation)
            assert verify_outcome(vecs, outcome)

    def test_errors(self):
        with pytest.raises(ValueError):
            decide_uniform_weighting([])
        with pytest.raises(ValueError):
            decide_uniform_weighting([(1,), (1, 0)])


class TestVerifier:
    def test_rejects_wrong_common_weight(self):
        vecs = vectors_of(cycle(5))
        bad = Witness(weighting=Weighting.constant(5), common_weight=Fraction(4))
        assert not verify_outcome(vecs, bad)

    def test_rejects_wrong_length_witness(self):
        vecs = vectors_of(cycle(5))
        bad = Witness(weighting=Weighting.constant(4), common_weight=Fraction(3))
        assert not verify_outcome(vecs, bad)

    def test_rejects_tampered_refutation(self):
        vecs = vectors_of(cycle(6))
        outcome = decide_uniform_weighting(vecs)
        assert isinstance(outcome, Refutation)
        # flip the recorded combination without recomputing forced_zero
        tampered = Refutation(
            coeffs=tuple(-c for c in outcome.coeffs),
            forced_zero=outcome.forced_zero,
        )
        assert not verify_outcome(vecs, tampered)

    def test_rejects_zero_certificate(self):
        vecs = vectors_of(cycle(6))
        zero = Refutation(
            coeffs=(Fraction(0),) * (len(vecs) - 1),
            forced_zero=(Fraction(0),) * 6,
        )
        assert not verify_outcome(vecs, zero)

    def test_rejects_empty_vectors(self):
        assert not verify_outcome([], Witness(Weighting(()), Fraction(0)))


class TestOracle:
    def test_verdict_values(self):
        assert omega_oracle(cycle(5)).verdict is Verdict.MEMBER
        assert omega_oracle(cycle(6)).verdict is Verdict.NOT_MEMBER

    def test_vacuous(self, monkeypatch):
        from starfactor.graph import Graph

        assert omega_oracle(Graph(1, ())).verdict is Verdict.VACUOUS
        # fewer than n/2 edges: decided without building the adjacency; were
        # it built for 10^9 vertices it would take tens of GB, so fail first
        monkeypatch.setattr(Graph, "adjacency", property(lambda g: pytest.fail("adjacency built")))
        huge = Graph(10**9, ())
        assert omega_oracle(huge).verdict is Verdict.VACUOUS
        assert "adjacency" not in vars(huge)

    def test_cap(self):
        assert omega_oracle(cycle(6), cap=2).verdict is Verdict.CAP_EXCEEDED

    def test_factor_count_reported(self):
        assert omega_oracle(cycle(5)).factor_count == 5

    def test_union_member_iff_both_members(self):
        # [DERIVED: factors of a union are products of per-part factors]
        both = disjoint_union(cycle(5), path(4))
        assert omega_oracle(both).verdict is Verdict.MEMBER
        mixed = disjoint_union(cycle(5), cycle(6))
        assert omega_oracle(mixed).verdict is Verdict.NOT_MEMBER
