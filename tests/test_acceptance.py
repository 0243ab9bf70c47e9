"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Each test prints exactly one summary line (visible with pytest -s or in
captured output on failure); the asserts carry the actual gate.
"""

import random
import time
from fractions import Fraction

import pytest

from starfactor.census import cross_validate, generate_connected, generate_connected_girth5
from starfactor.classifier import CaseTag, classify
from starfactor.factors import (
    VacuousGraph,
    edge_count_spectrum,
    enumerate_star_factors,
    incidence_vectors,
)
from starfactor.graph import Graph, girth, parse_graph6
from starfactor.solver import (
    Refutation,
    Verdict,
    Witness,
    decide_uniform_weighting,
    omega_oracle,
    verify_outcome,
)

from conftest import (
    DATA_DIR,
    brute_star_factor_edge_sets,
    cycle,
    double_star_graph,
    heavy_edges,
    leaves_and_stems,
    mask_edge_set,
    path,
    petersen,
)


def report_line(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")


def witness_equalizes(g: Graph, weighting) -> bool:
    vecs = incidence_vectors(enumerate_star_factors(g), g.m)
    total = sum(w for w, bit in zip(weighting.weights, vecs[0]) if bit)
    return verify_outcome(vecs, Witness(weighting=weighting, common_weight=Fraction(total)))


def is_cycle_of_length(g: Graph, lengths=(5, 7)) -> bool:
    return (
        g.n in lengths
        and g.m == g.n
        and all(len(a) == 2 for a in g.adjacency)
        and girth(g).value == g.n
    )


def test_criterion_1_cycle_table():
    """Oracle on C5..C12: members exactly {C5, C7}, constant witnesses."""
    start = time.monotonic()
    failures = []
    for n in range(5, 13):
        result = omega_oracle(cycle(n))
        expected = Verdict.MEMBER if n in (5, 7) else Verdict.NOT_MEMBER
        if result.verdict is not expected:
            failures.append(f"C{n}: {result.verdict.value}")
        if n in (5, 7):
            weights = result.witness.weighting.weights
            if len(set(weights)) != 1:
                failures.append(f"C{n}: non-constant witness {weights}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    report_line(1, ok, f"cycle verdicts C5..C12 in {elapsed:.3f}s; failures={failures}")
    assert not failures
    assert elapsed < 1.0


def test_criterion_2_min_degree_two_corollary():
    """delta >= 2, girth >= 5, n <= 9: members are exactly C5 and C7."""
    exceptions = []
    checked = 0
    for n in range(1, 8):
        for g in generate_connected_girth5(n):
            if g.n < 2 or min(map(len, g.adjacency)) < 2:
                continue
            checked += 1
            member = omega_oracle(g).verdict is Verdict.MEMBER
            if member != is_cycle_of_length(g):
                exceptions.append(g.edges)
    for name in ("delta2_girth5_n8.g6", "delta2_girth5_n9.g6"):
        for line in (DATA_DIR / name).read_text().splitlines():
            g = parse_graph6(line)
            assert min(map(len, g.adjacency)) >= 2 and girth(g).at_least(5)
            checked += 1
            member = omega_oracle(g).verdict is Verdict.MEMBER
            if member != is_cycle_of_length(g):
                exceptions.append(line)
    p = petersen()
    checked += 1
    if omega_oracle(p).verdict is not Verdict.NOT_MEMBER:
        exceptions.append("petersen-oracle")
    if classify(p).verdict is not Verdict.NOT_MEMBER:
        exceptions.append("petersen-classifier")
    ok = not exceptions
    report_line(2, ok, f"{checked} graphs with delta>=2, girth>=5; exceptions={exceptions}")
    assert not exceptions


@pytest.fixture(scope="module")
def girth5_sweep():
    """Shared sweep for criteria 3 and 4: every connected graph with
    girth >= 5 on n <= 7 (labeled) plus the n = 8 representative list."""

    def graphs():
        for n in range(2, 8):
            yield from generate_connected_girth5(n)
        for line in (DATA_DIR / "girth5_connected_n8.g6").read_text().splitlines():
            yield parse_graph6(line)

    total = 0
    disagreements = []
    witness_failures = []
    members = 0
    for g in graphs():
        total += 1
        oracle_member = omega_oracle(g).verdict is Verdict.MEMBER
        cls = classify(g)
        if (cls.verdict is Verdict.MEMBER) != oracle_member:
            disagreements.append(g.edges)
            continue
        if cls.verdict is Verdict.MEMBER:
            members += 1
            if not witness_equalizes(g, cls.witness):
                witness_failures.append(g.edges)
    return total, members, disagreements, witness_failures


def test_criterion_3_structural_oracle_equivalence(girth5_sweep):
    total, members, disagreements, _ = girth5_sweep
    ok = not disagreements
    report_line(
        3, ok, f"classifier vs oracle on {total} girth>=5 graphs (n<=8); "
        f"disagreements={len(disagreements)}"
    )
    assert not disagreements


def test_criterion_4_witness_validity(girth5_sweep):
    total, members, _, witness_failures = girth5_sweep
    ok = not witness_failures
    report_line(
        4, ok, f"{members} structural members of {total} swept; "
        f"invalid witnesses={len(witness_failures)}"
    )
    assert not witness_failures


def test_criterion_5_two_spectrum_member_fixture():
    """The 14-vertex member whose factors have between 7 and 10 edges."""
    g = double_star_graph()
    result = omega_oracle(g)
    factors = enumerate_star_factors(g)
    spectrum = edge_count_spectrum(factors)
    cls = classify(g)
    heavy = set(heavy_edges(g))
    weights_ok = cls.witness is not None and all(
        w == (Fraction(2) if i in heavy else Fraction(1))
        for i, w in enumerate(cls.witness.weights)
    )
    ok = (
        result.verdict is Verdict.MEMBER
        and 7 in spectrum
        and 10 in spectrum
        and cls.case_tag in (CaseTag.CASE_4B, CaseTag.MIXED_4)
        and weights_ok
        and witness_equalizes(g, cls.witness)
    )
    report_line(
        5, ok, f"oracle={result.verdict.value}, spectrum={sorted(spectrum)}, "
        f"tag={cls.case_tag.value if cls.case_tag else None}, heavy-edge witness={weights_ok}"
    )
    assert result.verdict is Verdict.MEMBER
    assert 7 in spectrum and 10 in spectrum
    assert cls.case_tag in (CaseTag.CASE_4B, CaseTag.MIXED_4)
    assert weights_ok
    assert witness_equalizes(g, cls.witness)


def test_criterion_6_certificate_exclusivity():
    """n <= 6 connected sweep: one verified certificate per graph, and the
    enumerator matches the 2^m subset filter."""
    total = 0
    bad_certificates = []
    enum_mismatches = []
    for n in range(2, 7):
        for g in generate_connected(n):
            total += 1
            try:
                factors = enumerate_star_factors(g)
            except VacuousGraph:
                if brute_star_factor_edge_sets(g):
                    enum_mismatches.append(g.edges)
                continue
            if [mask_edge_set(f) for f in factors] != brute_star_factor_edge_sets(g):
                enum_mismatches.append(g.edges)
                continue
            vecs = incidence_vectors(factors, g.m)
            outcome = decide_uniform_weighting(factors, g.m)
            if not isinstance(outcome, (Witness, Refutation)):
                bad_certificates.append(g.edges)
            elif not verify_outcome(vecs, outcome):
                bad_certificates.append(g.edges)
    ok = not bad_certificates and not enum_mismatches
    report_line(
        6, ok, f"{total} connected graphs n<=6; certificate failures="
        f"{len(bad_certificates)}, enumerator mismatches={len(enum_mismatches)}"
    )
    assert not enum_mismatches
    assert not bad_certificates


def random_tree(n: int, rng: random.Random) -> Graph:
    if n == 1:
        return Graph(1, ())
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    # Pruefer decoding gives the uniform distribution over labeled trees
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def tree_corollary_member(g: Graph) -> bool:
    """Independent restatement for trees: member iff every core component
    is an isolated vertex, a single edge, or a star whose center keeps all
    its neighbors as core leaves."""
    leaves, stems = leaves_and_stems(g)
    core_verts = [v for v in range(g.n) if v not in leaves and v not in stems]
    if not core_verts:
        return True
    core_set = set(core_verts)
    seen = set()
    for start in core_verts:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if y in core_set and y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        deg = {v: sum(1 for u in g.adjacency[v] if u in core_set) for v in comp}
        if len(comp) == 1:
            continue
        centers = [v for v in comp if deg[v] == len(comp) - 1]
        if not centers:
            return False
        center = centers[0]
        if any(deg[v] != 1 for v in comp if v != center):
            return False
        m = len(comp) - 1
        if m >= 2 and len(g.adjacency[center]) != m:
            return False
    return True


def test_criterion_7_path_family_and_trees():
    """Paths P2..P7 in, P8 out; corollary restatement on 1000 random trees."""
    failures = []
    for n in range(2, 8):
        if omega_oracle(path(n)).verdict is not Verdict.MEMBER:
            failures.append(f"P{n}-oracle")
        if classify(path(n)).verdict is not Verdict.MEMBER:
            failures.append(f"P{n}-classifier")
    if omega_oracle(path(8)).verdict is not Verdict.NOT_MEMBER:
        failures.append("P8-oracle")
    cls8 = classify(path(8))
    if cls8.verdict is not Verdict.NOT_MEMBER or cls8.case_tag is not CaseTag.NEG_CORE_SHAPE:
        failures.append("P8-classifier")
    rng = random.Random(20260824)
    tree_mismatches = 0
    for _ in range(1000):
        g = random_tree(rng.randrange(2, 15), rng)
        expected = tree_corollary_member(g)
        if (classify(g).verdict is Verdict.MEMBER) != expected:
            tree_mismatches += 1
        if (omega_oracle(g).verdict is Verdict.MEMBER) != expected:
            tree_mismatches += 1
    ok = not failures and tree_mismatches == 0
    report_line(
        7, ok, f"path family failures={failures}; "
        f"tree corollary mismatches={tree_mismatches}/1000"
    )
    assert not failures
    assert tree_mismatches == 0
