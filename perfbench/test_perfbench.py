"""Tests of the benchmark itself: its checkers, its inputs, the census.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import starfactor as sf  # noqa: E402
import starfactor.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def subset_filter(n, edges):
    """The literal 2^m filter: every vertex covered, and every chosen edge
    has an endpoint of degree one."""
    out = []
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(range(len(edges)), size):
            deg = [0] * n
            for i in subset:
                for x in edges[i]:
                    deg[x] += 1
            if all(deg) and all(min(deg[u], deg[v]) == 1 for u, v in (edges[i] for i in subset)):
                out.append(subset)
    return sorted(out)


def small_graphs():
    rng = random.Random(7)
    named = {name: g for name, (g, _) in workloads.named_graphs().items() if name != "k7"}
    yield from named.values()
    for n in range(2, 7):
        yield sf.Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for n in (5, 6, 7):
        yield from rng.sample(list(sf.generate_connected_girth5(n)), 5)
    for n in range(2, 12):
        yield sf.Graph.from_edges(n, workloads.prufer_tree(n, rng))


class StarFactorChecks(unittest.TestCase):
    def test_pruned_search_equals_subset_filter(self):
        for g in small_graphs():
            self.assertEqual(checks.star_factors(g.n, g.edges), subset_filter(g.n, g.edges), g)

    def test_complete_graph_counts(self):
        self.assertEqual([checks.complete_graph_factor_count(n) for n in range(1, 8)],
                         [0, 1, 3, 7, 35, 171, 847])
        for n in range(2, 8):
            kn = tuple((i, j) for i in range(n) for j in range(i + 1, n))
            self.assertEqual(len(checks.star_factors(n, kn)), checks.complete_graph_factor_count(n))

    def test_forest_range_matches_enumeration(self):
        rng = random.Random(3)
        for _ in range(200):
            parts = [(k, workloads.prufer_tree(k, rng)) for k in rng.choices(range(2, 6), k=3)]
            g = workloads.disjoint_union(parts)
            weights = [Fraction(rng.randrange(1, 4)) for _ in g.edges]
            sums = [sum(weights[i] for i in f) for f in checks.star_factors(g.n, g.edges)]
            self.assertEqual(checks.forest_weight_range(g.n, g.edges, weights), (min(sums), max(sums)))
        isolated = ((0, 1),)
        self.assertIsNone(checks.forest_weight_range(3, isolated, [1]))

    def test_tree_verdicts(self):
        path = lambda n: tuple((i, i + 1) for i in range(n - 1))
        self.assertTrue(all(checks.tree_member(n, path(n)) for n in range(2, 8)))
        self.assertFalse(checks.tree_member(8, path(8)))
        self.assertFalse(checks.tree_member(14, path(14)))

    def test_girth(self):
        for g in small_graphs():
            self.assertEqual(checks.girth(g.n, g.edges), sf.girth(g).value, g)


class CertificateChecks(unittest.TestCase):
    def test_witness_check_rejects_tampering(self):
        g, _ = workloads.named_graphs()["double_star"]
        factors = checks.star_factors(g.n, g.edges)
        res = sf.omega_oracle(g)
        weights = list(res.witness.weighting.weights)
        self.assertTrue(checks.witness_ok(factors, weights, res.witness.common_weight))
        self.assertFalse(checks.witness_ok(factors, weights, res.witness.common_weight + 1))
        heavy = [g.edge_index[e] for e in [(0, 1), (10, 11), (12, 13)]]
        classified = [Fraction(2 if i in heavy else 1) for i in range(g.m)]
        self.assertTrue(checks.witness_ok(factors, classified))
        # a pendant edge lies in every factor, so raising it keeps totals equal
        for i in {i for f in factors for i in range(g.m) if i not in f}:
            tampered = list(classified)
            tampered[i] += 1
            self.assertFalse(checks.witness_ok(factors, tampered), i)
        self.assertFalse(checks.witness_ok(factors, [Fraction(0)] + classified[1:]))

    def test_refutation_check_rejects_tampering(self):
        for name in ("c12", "petersen", "k7"):
            g, _ = workloads.named_graphs()[name]
            factors = checks.star_factors(g.n, g.edges)
            ref = sf.omega_oracle(g).refutation
            self.assertTrue(checks.refutation_ok(factors, g.m, ref.coeffs, ref.forced_zero))
            i = next(k for k, c in enumerate(ref.coeffs) if c)
            coeffs = list(ref.coeffs)
            coeffs[i] *= 2
            self.assertFalse(checks.refutation_ok(factors, g.m, coeffs, ref.forced_zero))
            forced = [x + 1 for x in ref.forced_zero]
            self.assertFalse(checks.refutation_ok(factors, g.m, ref.coeffs, forced))
            negated = [-c for c in ref.coeffs]
            self.assertFalse(checks.refutation_ok(factors, g.m, negated, [-x for x in ref.forced_zero]))
            self.assertFalse(checks.refutation_ok(factors[:-1], g.m, ref.coeffs, ref.forced_zero))

    def test_small_case_rejects_wrong_count(self):
        case = workloads.named_cases(random.Random(0))
        k7 = next(c for c in case if c.name == "k7")
        stats = workloads.Stats()
        self.assertTrue(k7.decide(stats, ""))
        k7.checked, k7.expected_count = None, 846
        self.assertFalse(k7.decide(stats, ""))


class Inputs(unittest.TestCase):
    def snapshot(self, name, seed, out_dir):
        """The graphs a run decides, in the order it decides them."""
        w = workloads.WORKLOADS[name](seed, out_dir)
        w.setup()
        w.prepare()
        if name == "named-instances":  # fixed graphs; the seed sets the order
            return [(c.name, c.n, c.edges) for c in w.cases]
        graphs = w.sample if name == "census" else w.graphs
        return [(g.n, g.edges) for g in (x[-1] if isinstance(x, tuple) else x for x in graphs)]

    def test_same_seed_same_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                first = self.snapshot(name, 11, Path(tmp))
                self.assertEqual(first, self.snapshot(name, 11, Path(tmp)), name)
                self.assertNotEqual(first, self.snapshot(name, 12, Path(tmp)), name)


class Census(unittest.TestCase):
    def census(self, workers, extra=()):
        out = io.StringIO()
        code = sf.cli.run(["census", "-n", "1..5", "--workers", str(workers), "--output", "json", *extra],
                          stdout=out, stderr=io.StringIO())
        self.assertEqual(code, 0)
        return out.getvalue()

    def test_rows_identical_for_one_and_two_workers(self):
        self.assertEqual(self.census(1), self.census(2))

    def test_sampled_call_scales_and_unwraps(self):
        original = sf.census.evaluate_graph
        text, seconds = workloads.sampled_call(lambda: self.census(2), 2)
        self.assertIs(sf.census.evaluate_graph, original)
        self.assertEqual(text, self.census(1))
        self.assertGreater(seconds, 0)

    def test_report_check_rejects_wrong_counts(self):
        with tempfile.TemporaryDirectory() as tmp:
            w = workloads.Census(5, Path(tmp))
            w.setup()
            w.prepare()
            text = self.census(2, ["--graph6-file", str(w.g6_path)])
            self.assertTrue(w.report_ok(text))
            doc = json.loads(text)
            for mutate in (
                lambda d: d["rows"][0].update(graphCount=2),
                lambda d: d["rows"][-1].update(uMembers=d["rows"][-1]["omegaMembers"] + 1),
                lambda d: d["disagreements"].append({"graph6": "D~{"}),
                lambda d: d["rows"].pop(),
            ):
                tampered = json.loads(text)
                mutate(tampered)
                self.assertFalse(w.report_ok(json.dumps(tampered)))
            self.assertEqual(doc, json.loads(text))


if __name__ == "__main__":
    unittest.main()
