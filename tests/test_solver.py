"""Exact-rational feasibility oracle and certificate checking."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor import simplex
from starfactor.factors import enumerate_star_factors, incidence_vectors
from starfactor.graph import Graph
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


def decided(g):
    """g's incidence vectors, for the verifier, and the decision on its factor masks."""
    masks = enumerate_star_factors(g)
    return incidence_vectors(masks, g.m), decide_uniform_weighting(masks, g.m)


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

    def test_ragged_row_raises(self):
        with pytest.raises(ValueError, match="row length mismatch"):
            simplex.solve(c=[1, 0], rows=[[1, 1], [1]], rhs=[2, 1])


class TestWeighting:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Weighting((Fraction(1), Fraction(0)))

    def test_integral_scaling(self):
        w = Weighting((Fraction(1, 2), Fraction(1, 3), Fraction(1)))
        assert w.integral == (3, 2, 6)


class TestDecision:
    def test_c5_member_constant(self):
        _, outcome = decided(cycle(5))
        assert isinstance(outcome, Witness)
        assert outcome.weighting.weights == (Fraction(1),) * 5
        assert outcome.common_weight == 3

    def test_c6_refuted_and_certificate_checks(self):
        vecs, outcome = decided(cycle(6))
        assert isinstance(outcome, Refutation)
        assert verify_outcome(vecs, outcome)

    def test_p6_member_nonconstant(self):
        # [DERIVED: P6's two factors have 3 and 4 edges, so constant fails
        # but alternating heavier end-edges equalize them]
        vecs, outcome = decided(path(6))
        assert isinstance(outcome, Witness)
        assert verify_outcome(vecs, outcome)
        assert len(set(outcome.weighting.weights)) > 1

    def test_single_factor_trivially_member(self):
        _, outcome = decided(star(3))
        assert isinstance(outcome, Witness)
        assert outcome.weighting.weights == (Fraction(1),) * 3
        assert outcome.common_weight == 3

    def test_every_member_witness_verifies(self):
        for g in [cycle(5), cycle(7), path(7), spider(3), double_star_graph()]:
            vecs, outcome = decided(g)
            assert isinstance(outcome, Witness)
            assert verify_outcome(vecs, outcome)

    def test_every_refutation_verifies(self):
        for g in [cycle(6), cycle(8), path(8), petersen()]:
            vecs, outcome = decided(g)
            assert isinstance(outcome, Refutation)
            assert verify_outcome(vecs, outcome)

    def test_errors(self):
        with pytest.raises(ValueError):
            decide_uniform_weighting([], 2)
        # a mask with a bit at or above m, or a negative one, names no edge
        with pytest.raises(ValueError):
            decide_uniform_weighting([0b01, 0b100], 2)
        with pytest.raises(ValueError):
            decide_uniform_weighting([0b01, -1], 2)


class TestVerifier:
    def test_rejects_wrong_common_weight(self):
        vecs = vectors_of(cycle(5))
        bad = Witness(weighting=Weighting((Fraction(1),) * 5), common_weight=Fraction(4))
        assert not verify_outcome(vecs, bad)

    def test_rejects_wrong_length_witness(self):
        vecs = vectors_of(cycle(5))
        bad = Witness(weighting=Weighting((Fraction(1),) * 4), common_weight=Fraction(3))
        assert not verify_outcome(vecs, bad)

    def test_rejects_tampered_refutation(self):
        vecs, outcome = decided(cycle(6))
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

    def test_rejects_an_outcome_of_neither_kind(self):
        vecs, outcome = decided(cycle(5))
        assert verify_outcome(vecs, outcome)
        assert not verify_outcome(vecs, outcome.weighting)

    @pytest.mark.parametrize("vectors", [[(1, 0), (1,)], [(1, 0), (1, 0, 1)]])
    def test_rejects_ragged_vectors_witness(self, vectors):
        # a pairwise zip would cut the longer vector to the weighting's length
        assert not verify_outcome(vectors, Witness(Weighting((1, 1)), 1))

    @pytest.mark.parametrize("vectors", [[(0, 0), (1,)], [(0, 0), (1, 0, 1)]])
    def test_rejects_ragged_vectors_refutation(self, vectors):
        # cut to length 2, x_2 - x_1 would read (1, 0): a valid certificate
        refutation = Refutation(coeffs=(Fraction(1),), forced_zero=(Fraction(1), Fraction(0)))
        assert not verify_outcome(vectors, refutation)

    def test_rejects_common_weight_off_the_weights_lattice(self):
        # every factor weight is a multiple of 1/L, with L the lcm of the
        # weights' denominators; a common weight that is not is never met
        vecs, outcome = decided(path(6))
        scale = math.lcm(*(w.denominator for w in outcome.weighting.weights))
        assert verify_outcome(vecs, outcome)
        off = Witness(outcome.weighting, outcome.common_weight + Fraction(1, 2 * scale))
        assert not verify_outcome(vecs, off)

    def test_rejects_forced_entry_moved_by_half_a_step(self):
        vecs, outcome = _refutation_with_fractional_coeffs()
        assert verify_outcome(vecs, outcome)
        scale = math.lcm(*(c.denominator for c in outcome.coeffs if c))
        for e in range(len(outcome.forced_zero)):
            forced = list(outcome.forced_zero)
            forced[e] += Fraction(1, 2 * scale)
            assert not verify_outcome(vecs, Refutation(outcome.coeffs, tuple(forced)))

    def test_rejects_sign_flipped_coefficient(self):
        # the stated vector is the true combination, but one entry is negative
        vecs, outcome = decided(petersen())
        for i, c in enumerate(outcome.coeffs):
            if c:
                coeffs = list(outcome.coeffs)
                coeffs[i] = -c
                forced = _combination(vecs, coeffs)
                if min(forced) < 0:
                    break
        else:
            pytest.fail("no single sign flip makes a forced entry negative")
        assert not verify_outcome(vecs, Refutation(tuple(coeffs), forced))

    def test_rejects_short_coeffs_or_forced_zero(self):
        vecs, outcome = decided(cycle(6))
        assert verify_outcome(vecs, outcome)
        assert not verify_outcome(vecs, Refutation(outcome.coeffs[:-1], outcome.forced_zero))
        assert not verify_outcome(vecs, Refutation(outcome.coeffs, outcome.forced_zero[:-1]))


# a 6-vertex graph whose oracle certificate has coefficients +-1/2
HALVES = Graph.from_edges(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3)])
PERTURBED_GRAPHS = [cycle(5), cycle(6), path(6), path(8), spider(3), double_star_graph(), petersen(), HALVES]


@given(
    st.sampled_from(range(len(PERTURBED_GRAPHS))),
    st.sampled_from(["none", "combination", "stated"]),
    st.integers(min_value=0, max_value=200),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)
@settings(max_examples=300, deadline=None)
def test_integer_verifier_agrees_with_fraction_sums(k, kind, index, delta):
    # a weight or coefficient moved, or the stated common weight or forced entry:
    # the integer re-check and the earlier Fraction sums give one answer
    vecs, outcome = decided(PERTURBED_GRAPHS[k])
    if isinstance(outcome, Witness):
        weights = list(outcome.weighting.weights)
        common = outcome.common_weight
        if kind == "combination" and weights[index % len(weights)] + delta > 0:
            weights[index % len(weights)] += delta
        elif kind == "stated":
            common += delta
        outcome = Witness(Weighting(tuple(weights)), common)
    else:
        coeffs, forced = list(outcome.coeffs), list(outcome.forced_zero)
        if kind == "combination":
            coeffs[index % len(coeffs)] += delta
        elif kind == "stated":
            forced[index % len(forced)] += delta
        outcome = Refutation(tuple(coeffs), tuple(forced))
    assert verify_outcome(vecs, outcome) == reference_verify_outcome(vecs, outcome)
    if kind == "none" or delta == 0:
        assert verify_outcome(vecs, outcome)


def _combination(vecs, coeffs):
    """sum_i coeffs[i] * (x_{i+1} - x_1), entrywise in Fractions."""
    first = vecs[0]
    return tuple(
        sum((c * (vec[e] - first[e]) for c, vec in zip(coeffs, vecs[1:]) if c), Fraction(0))
        for e in range(len(first))
    )


def _refutation_with_fractional_coeffs():
    vecs, outcome = decided(HALVES)
    assert isinstance(outcome, Refutation)
    assert math.lcm(*(c.denominator for c in outcome.coeffs if c)) == 2
    return vecs, outcome


def reference_verify_outcome(vectors, outcome) -> bool:
    """The earlier verifier, which summed in Fractions (equal-length vectors only)."""
    if not vectors:
        return False
    m = len(vectors[0])
    if isinstance(outcome, Witness):
        w = outcome.weighting.weights
        if len(w) != m or any(x <= Fraction(0) for x in w):
            return False
        for vec in vectors:
            if sum(wi for wi, bit in zip(w, vec) if bit) != outcome.common_weight:
                return False
        return True
    if isinstance(outcome, Refutation):
        if len(outcome.coeffs) != len(vectors) - 1:
            return False
        if len(outcome.forced_zero) != m:
            return False
        forced = [Fraction(0)] * m
        first = vectors[0]
        for coeff, vec in zip(outcome.coeffs, vectors[1:]):
            if coeff == Fraction(0):
                continue
            for e in range(m):
                forced[e] += coeff * (vec[e] - first[e])
        if tuple(forced) != outcome.forced_zero:
            return False
        return all(x >= Fraction(0) for x in forced) and any(x > Fraction(0) for x in forced)
    return False


class TestOracle:
    def test_verdict_values(self):
        assert omega_oracle(cycle(5)).verdict is Verdict.MEMBER
        assert omega_oracle(cycle(6)).verdict is Verdict.NOT_MEMBER

    def test_vacuous(self, monkeypatch):
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
