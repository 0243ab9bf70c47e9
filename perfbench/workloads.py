"""The four workloads: inputs made from the seed, timed rounds, checks.

A run sets up its inputs, computes the reference answers it checks
against (untimed), then runs whole rounds of the same operations,
closed-loop with one caller, until the run's seconds are spent.  In every
workload except ``named-instances`` each round is followed by
PROBE_PASSES passes of the named probe: the six named graphs, each
decided once per pass.
"""

from __future__ import annotations

import gc
import heapq
import io
import json
import os
import random
import statistics
import struct
import sys
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import starfactor as sf
import starfactor.census
import starfactor.cli

import checks

# The package is called through its modules so that the traced run's
# wrappers, which replace module attributes, see every call.
Graph = sf.Graph

ROOT = Path(__file__).resolve().parent.parent
N8_FILE = ROOT / "tests" / "data" / "girth5_connected_n8.g6"
SETUP_REPEATS = 3
PROBE_PASSES = 2
NAMES = ("c12", "p14", "petersen", "double_star", "k7", "matching14")


# ------------------------------------------------------------ measurement
#
# The machine's speed drifts by a quarter within seconds (other tenants
# share its cores), and CPU time drifts with it.  So every timing is scaled
# to a reference speed: a fixed exact-rational kernel is timed before and
# after each chunk of about CHUNK_S of work, and the chunk's timings are
# multiplied by REF_KERNEL_S over the mean of the two kernel times.  Scaled
# this way, one oracle call varies by about 5% instead of 12%.
# A census call, seconds long on both CPUs, is scaled by sampled_call instead.

REF_KERNEL_S = 0.004
CHUNK_S = 0.1


def kernel_s() -> float:
    """Median of three timings of the kernel, to shrug off a single spike."""
    return statistics.median(_kernel_once() for _ in range(3))


def _kernel_once() -> float:
    """Seconds for a fixed piece of Fraction row reduction, the same kind
    of work (and allocation) as the oracle's."""
    t0 = perf_counter()
    rows = [[Fraction((i * j) % 5 - 2, 1 + (i + j) % 3) for j in range(40)] for i in range(30)]
    combos = {}
    for i in range(1, len(rows)):
        f = rows[i][0] / rows[0][0]
        rows[i] = [a - f * b for a, b in zip(rows[i], rows[0])]
        combos[i] = {k: f for k in range(10)}
    return perf_counter() - t0


class Stats:
    """One run's scaled timings (seconds) and operation counts."""

    def __init__(self):
        # (kind, input) -> scaled seconds, one entry per call
        self.lat: dict[tuple[str, object], list[float]] = defaultdict(list)
        self.decisions = 0
        self.attempted = 0
        self.failed = 0
        self.scales: list[float] = []
        self._pending: list[tuple[tuple[str, object], float]] = []
        self._pending_s = 0.0
        self._kernel = kernel_s()

    def time(self, kind: str, seconds: float, input=None) -> None:
        self._pending.append(((kind, input), seconds))
        self._pending_s += seconds
        if self._pending_s >= CHUNK_S:
            self.flush()

    def record(self, kind: str, scaled_seconds: float) -> None:
        """A timing already scaled, such as sampled_call's."""
        self.lat[(kind, None)].append(scaled_seconds)

    def flush(self) -> None:
        after = kernel_s()
        scale = 2 * REF_KERNEL_S / (self._kernel + after)
        self._kernel = after
        self.scales.append(scale)
        for key, seconds in self._pending:
            self.lat[key].append(seconds * scale)
        self._pending.clear()
        self._pending_s = 0.0

    def attempt(self, op) -> None:
        """Run one operation; it fails if it raises or returns False."""
        self.attempted += 1
        try:
            ok = op()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1


SPEED_CHUNK_S = 0.2


def sampled_call(call, workers: int):
    """Runs ``call()``, a census call, and returns its result and its wall
    time scaled to the reference speed.

    While it runs, ``census.evaluate_graph`` is wrapped, in the census
    module that calls it; forked workers inherit the wrapper.  After every
    SPEED_CHUNK_S of graph evaluation a process times the kernel once and
    writes (evaluation seconds, kernel seconds) to a pipe.  The wall time,
    less the mean kernel pause per worker, is scaled by REF_KERNEL_S over
    the kernel time, averaged with the evaluation seconds as weights.

    The speed swings within a call, so kernel timings taken in the parent
    at its ends, or over the whole run, say little about it: scaled either
    way, call times spread more than unscaled ones.  Scaled here, the
    census decisions_per_s spread 0.03 over ten seeds on a shared 2-vCPU
    VM, against 0.12 unscaled.  A call that reports no sample (a census
    whose work no longer goes through evaluate_graph) is scaled by the
    kernel timed after it.
    """
    census = starfactor.census
    original = census.evaluate_graph
    read_fd, write_fd = os.pipe()
    os.set_blocking(write_fd, False)
    pending = [0.0]  # this process's evaluation seconds since its last sample

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        result = original(*args, **kwargs)
        pending[0] += perf_counter() - t0
        if pending[0] >= SPEED_CHUNK_S:
            try:
                os.write(write_fd, struct.pack("dd", pending[0], _kernel_once()))
            except BlockingIOError:
                pass
            pending[0] = 0.0
        return result

    census.evaluate_graph = wrapper
    try:
        t0 = perf_counter()
        result = call()
        wall = perf_counter() - t0
    finally:
        census.evaluate_graph = original
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()  # to EOF: the workers have exited
    samples = [struct.unpack_from("dd", data, i) for i in range(0, len(data) - 15, 16)]
    if not samples:
        return result, wall * REF_KERNEL_S / kernel_s()
    evaluated = sum(w for w, _ in samples)
    scale = sum(w * REF_KERNEL_S / k for w, k in samples) / evaluated
    pause = sum(k for _, k in samples) / workers
    return result, (wall - pause) * scale


# ------------------------------------------------------------ small graphs

class SmallCase:
    """A graph small enough for the reference star-factor enumeration.

    The first outputs are checked in full against the reference; later
    outputs for the same graph must equal the checked ones.
    """

    def __init__(self, name: str, g: Graph, known: bool | None = None):
        self.name, self.n, self.edges = name, g.n, g.edges
        self.factors = checks.star_factors(g.n, g.edges)
        self.vectors = checks.incidence(self.factors, len(g.edges))
        if known is None:
            known = checks.cycle_or_corollary_verdict(g.n, g.edges)
        if known is None and len(g.edges) == g.n - 1:
            known = checks.tree_member(g.n, g.edges)
        self.known = known
        self.expected_count = None
        self.checked = None

    def certified(self, res) -> bool:
        """The oracle's verdict, proved by its certificate against the
        reference factors; raises if the certificate does not hold."""
        m = len(self.edges)
        if not self.factors:
            ok = res.verdict.value == "Vacuous"
        elif res.factor_count != len(self.factors):
            ok = False
        elif res.verdict.value == "Member":
            w = res.witness
            ok = len(w.weighting.weights) == m and checks.witness_ok(
                self.factors, w.weighting.weights, w.common_weight
            )
        elif res.verdict.value == "NotMember":
            r = res.refutation
            ok = checks.refutation_ok(self.factors, m, r.coeffs, r.forced_zero)
        else:
            ok = False
        member = res.verdict.value == "Member"
        if not ok or (self.known is not None and member != self.known):
            raise AssertionError(f"{self.name}: oracle output fails its check")
        return member

    def decide(self, stats: Stats, bucket: str) -> bool:
        g = Graph(self.n, self.edges)
        t0 = perf_counter()
        res = sf.omega_oracle(g)
        t1 = perf_counter()
        verified = sf.verify_outcome(self.vectors, res.witness or res.refutation)
        t2 = perf_counter()
        cls = sf.classify(g)
        t3 = perf_counter()
        stats.time(bucket + "oracle", t1 - t0, self.name)
        stats.time(bucket + "classify", t3 - t2, self.name)
        if not bucket:
            stats.decisions += 1
            stats.time("decision", t3 - t0)
        key = (
            repr(res), verified, cls.verdict, cls.case_tag,
            cls.witness.weights if cls.witness else None,
        )
        if self.checked is not None:
            return key == self.checked
        member = self.certified(res)
        ok = (
            verified is True
            and (cls.verdict.value == "Member") == member
            and (not member or checks.witness_ok(self.factors, cls.witness.weights))
            and (self.expected_count is None or res.factor_count == self.expected_count)
        )
        if ok:
            self.checked = key
        return ok


def named_graphs() -> dict[str, tuple[Graph, bool | None]]:
    """The six named instances with the paper's verdicts where known."""
    ring = lambda n: [(i, (i + 1) % n) for i in range(n)]
    petersen = ring(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)]
    # two K_{1,1} cores joined through stems: the 14-vertex member whose
    # factors have 7 to 10 edges (weight 2 on 0-1, 10-11 and 12-13)
    double_star = [
        (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 7), (4, 8), (5, 9),
        (2, 10), (3, 11), (10, 11), (4, 12), (5, 13), (12, 13),
    ]
    return {
        "c12": (Graph.from_edges(12, ring(12)), False),
        "p14": (Graph.from_edges(14, [(i, i + 1) for i in range(13)]), False),
        "petersen": (Graph.from_edges(10, petersen), False),
        "double_star": (Graph.from_edges(14, double_star), True),
        "k7": (Graph.from_edges(7, [(i, j) for i in range(7) for j in range(i + 1, 7)]), None),
        "matching14": (Graph.from_edges(28, [(2 * i, 2 * i + 1) for i in range(14)]), True),
    }


def named_cases(rng: random.Random, graphs=None) -> list[SmallCase]:
    graphs = graphs or named_graphs()
    cases = [SmallCase(name, g, known) for name, (g, known) in graphs.items()]
    for case in cases:
        if case.name == "k7":
            case.expected_count = checks.complete_graph_factor_count(7)
    rng.shuffle(cases)
    return cases


# ------------------------------------------------------------ workloads

class Workload:
    """Subclasses define setup(), which makes the inputs (timed as
    setup_s), prepare(), which computes the reference answers, and
    run_round(stats), one round of timed and checked operations."""

    probe = True  # follow each round with the named probe
    traced = False  # set by run() for the traced run

    def __init__(self, seed: int, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir


def stratified_sample(graphs: list[Graph], k: int, rng: random.Random) -> list[Graph]:
    """k graphs, as many of each edge count as proportion gives (largest
    remainders round), so that every seed draws the same mix of sizes."""
    strata = defaultdict(list)
    for g in graphs:
        strata[g.m].append(g)
    quota = {m: k * len(gs) // len(graphs) for m, gs in strata.items()}
    by_remainder = sorted(strata, key=lambda m: (-(k * len(strata[m]) % len(graphs)), m))
    for m in by_remainder[: k - sum(quota.values())]:
        quota[m] += 1
    return [g for m in sorted(strata) for g in rng.sample(strata[m], quota[m])]


class Girth5Sweep(Workload):
    """Seeded connected girth >= 5 graphs, n = 5..7, plus the 47 graphs on
    eight vertices; each gets omega_oracle, verify_outcome and classify."""

    # in proportion to the labeled counts (137, 1716, 29767), as in the
    # test suite's sweep, with a few small graphs kept
    SAMPLE = {5: 4, 6: 20, 7: 276}

    def setup(self):
        rng = random.Random(self.seed)
        self.graphs = []
        for n, k in self.SAMPLE.items():
            self.graphs += stratified_sample(list(sf.generate_connected_girth5(n)), k, rng)
        self.graphs += [sf.parse_graph6(line) for line in N8_FILE.read_text().split()]

    def prepare(self):
        self.cases = [SmallCase(sf.to_graph6(g), g) for g in self.graphs]

    def run_round(self, stats):
        for case in self.cases:
            stats.attempt(lambda: case.decide(stats, ""))


class NamedInstances(Workload):
    """C12, P14, Petersen, the double star, K7 and a 14-edge matching."""

    probe = False

    def setup(self):
        self.graphs = named_graphs()

    def prepare(self):
        self.cases = named_cases(random.Random(self.seed), self.graphs)

    def run_round(self, stats):
        for case in self.cases:
            stats.attempt(lambda: case.decide(stats, ""))


class Census(Workload):
    """`starfactor census` in-process, 2 workers, n = 1..5 built in plus a
    seeded sample of connected labeled graphs on six vertices."""

    SAMPLE = 200
    WORKERS = 2

    def setup(self):
        rng = random.Random(self.seed)
        self.sample = stratified_sample(list(sf.generate_connected(6)), self.SAMPLE, rng)
        self.g6_path = self.out_dir / f"census-{self.seed}.g6"
        self.g6_path.write_text("".join(sf.to_graph6(g) + "\n" for g in self.sample))

    def prepare(self):
        self.argv = [
            "census", "-n", "1..5", "--graph6-file", str(self.g6_path),
            "--workers", str(self.WORKERS), "--output", "json",
        ]
        self.graphs = sum(checks.CONNECTED_LABELED.values()) + self.SAMPLE
        classes = defaultdict(int)
        for g in self.sample:
            classes[checks.girth_class(g.n, g.edges)] += 1
        self.n6_classes = dict(classes)
        self.checked = None

    def run_round(self, stats):
        # one call, so that calls and probe passes alternate
        stats.attempt(lambda: self._call(stats))

    def _call(self, stats) -> bool:
        out, err = io.StringIO(), io.StringIO()
        call = lambda: sf.cli.run(self.argv, stdout=out, stderr=err)
        if self.traced:
            t0 = perf_counter()
            code = call()
            stats.time("decision", perf_counter() - t0)
        else:
            code, seconds = sampled_call(call, self.WORKERS)
            stats.record("decision", seconds)
        stats.decisions += self.graphs
        text = out.getvalue()
        if self.checked is not None:
            return code == 0 and text == self.checked
        ok = code == 0 and self.report_ok(text)
        if ok:
            self.checked = text
        return ok

    def report_ok(self, text: str) -> bool:
        """Census rows against the A001187 counts for n = 1..5, the
        reference girth classes of the n = 6 sample, no disagreement and
        uMembers <= omegaMembers."""
        doc = json.loads(text)
        totals = defaultdict(int)
        n6 = {}
        for r in doc["rows"]:
            totals[r["n"]] += r["graphCount"]
            if r["n"] == 6:
                n6[r["girthClass"]] = r["graphCount"]
        return (
            doc["disagreements"] == []
            and all(r["disagreements"] == 0 and r["capExceeded"] == 0 for r in doc["rows"])
            and all(r["uMembers"] <= r["omegaMembers"] <= r["graphCount"] for r in doc["rows"])
            and dict(totals) == {**checks.CONNECTED_LABELED, 6: self.SAMPLE}
            and n6 == self.n6_classes
        )


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A uniformly random labeled tree on n >= 2 vertices."""
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


def disjoint_union(parts: list[tuple[int, list[tuple[int, int]]]]) -> Graph:
    edges, offset = [], 0
    for n, part in parts:
        edges += [(u + offset, v + offset) for u, v in part]
        offset += n
    return Graph.from_edges(offset, edges)


class StructuralLarge(Workload):
    """classify and classification_to_json on large girth >= 5 graphs:
    random trees, a tree whose every vertex is a leaf or a stem, a
    matching and a forest of more than 1,000 components, and a disjoint
    union of small connected girth >= 5 graphs."""

    TREES = (500, 1000, 1000)
    COMB = 300  # a random tree with a leaf hung on every vertex
    MATCHING = 1050
    FOREST = 1050  # random trees on 2..5 vertices
    UNION = 400  # connected girth >= 5 graphs on 5 or 6 vertices
    CALLS = 2  # per graph and round, so that each graph gets more samples

    def setup(self):
        rng = random.Random(self.seed)
        graphs = [("tree", Graph.from_edges(n, prufer_tree(n, rng))) for n in self.TREES]
        comb = prufer_tree(self.COMB, rng) + [(v, self.COMB + v) for v in range(self.COMB)]
        graphs.append(("tree", Graph.from_edges(2 * self.COMB, comb)))
        graphs.append(("forest", disjoint_union([(2, [(0, 1)])] * self.MATCHING)))
        sizes = [rng.randrange(2, 6) for _ in range(self.FOREST)]
        graphs.append(("forest", disjoint_union([(k, prufer_tree(k, rng)) for k in sizes])))
        small = list(sf.generate_connected_girth5(5)) + list(sf.generate_connected_girth5(6))
        picks = [rng.choice(small) for _ in range(self.UNION)]
        graphs.append(("union", disjoint_union([(g.n, list(g.edges)) for g in picks])))
        self.graphs = graphs

    def prepare(self):
        # certified oracle verdicts for every distinct component shape
        self.parts = {}
        self.certified = {}
        for kind, g in self.graphs:
            parts = checks.split_components(g.n, g.edges)
            self.parts[id(g)] = parts
            if kind == "tree":
                continue
            for part, _ in parts:
                if part not in self.certified:
                    case = SmallCase("component", Graph(*part))
                    self.certified[part] = (case, case.certified(sf.omega_oracle(Graph(*part))))
        self.checked = {}

    def run_round(self, stats):
        for kind, g in self.graphs:
            for _ in range(self.CALLS):
                stats.attempt(lambda: self._decide(stats, kind, g))

    def _decide(self, stats, kind, template) -> bool:
        g = Graph(template.n, template.edges)
        t0 = perf_counter()
        cls = sf.classify(g)
        t1 = perf_counter()
        doc = sf.classifier.classification_to_json(g, cls)
        t2 = perf_counter()
        stats.time("classify", t1 - t0, id(template))
        stats.time("decision", t2 - t0)
        stats.decisions += 1
        key = (cls.verdict, cls.case_tag, cls.witness.weights if cls.witness else None,
               json.dumps(doc, sort_keys=True))
        if id(template) in self.checked:
            return key == self.checked[id(template)]
        ok = self._check(kind, template, cls, doc)
        if ok:
            self.checked[id(template)] = key
        return ok

    def _check(self, kind, template, cls, doc) -> bool:
        parts = self.parts[id(template)]
        if kind == "tree":
            verdicts = [checks.tree_member(template.n, template.edges)]
        else:
            verdicts = [self.certified[part][1] for part, _ in parts]
        member = cls.verdict.value == "Member"
        ok = (
            member == all(verdicts)
            and [r.verdict.value == "Member" for r in cls.per_component] == verdicts
            and doc["verdict"] == cls.verdict.value
            and len(doc["components"]) == len(parts)
        )
        if ok and member:
            weights = cls.witness.weights
            ok = [(e["u"], e["v"], e["weight"]) for e in doc["witness"]] == [
                (u, v, w) for (u, v), w in zip(template.edges, cls.witness.integral)
            ]
            if kind == "union":
                ok = ok and all(
                    checks.witness_ok(self.certified[part][0].factors, [weights[i] for i in idx])
                    for part, idx in parts
                )
            else:
                lo_hi = checks.forest_weight_range(template.n, template.edges, weights)
                ok = ok and lo_hi is not None and lo_hi[0] == lo_hi[1]
        return ok


WORKLOADS = {
    "girth5-sweep": Girth5Sweep,
    "named-instances": NamedInstances,
    "census": Census,
    "structural-large": StructuralLarge,
}


# ------------------------------------------------------------ one run

def settle() -> None:
    """Collect, then move every live object out of the collector's sight,
    so that the benchmark's growing bookkeeping does not slow the
    program's collections."""
    gc.collect()
    gc.freeze()


def probe_pass(stats: Stats, probe: list[SmallCase]) -> None:
    for case in probe:
        stats.attempt(lambda: case.decide(stats, "probe."))


def run(name: str, seed: int, seconds: float, import_s: float, out_dir: Path, tracer=None) -> dict:
    """Set up, run rounds for ``seconds``; returns the result object."""
    workload = WORKLOADS[name](seed, out_dir)
    workload.traced = tracer is not None
    stats = Stats()
    import_s *= REF_KERNEL_S / kernel_s()
    if tracer:
        tracer.install()
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        stats.time("setup", perf_counter() - t0)
        stats.flush()
    if tracer:
        tracer.uninstall()
    workload.prepare()
    probe = named_cases(random.Random(seed)) if workload.probe else []
    settle()

    # Untraced, each round is followed by the probe passes, so that both see
    # the same spells of the machine.  Traced, untraced and traced rounds
    # alternate and one probe pass is traced at the end.  The first round
    # runs cold (its census call takes half as long again): it is checked
    # but left out of decisions_per_s and of the tracing overhead.
    round_s = {False: [], True: []}
    deadline = perf_counter() + seconds
    k = 0
    while k < (3 if tracer else 2) or perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.phase = "main" if k == 1 else f"main-{k}"
            tracer.install()
        decisions = stats.lat[("decision", None)]
        before = len(decisions)
        workload.run_round(stats)
        stats.flush()
        round_s[traced].append(sum(decisions[before:]))
        if traced:
            tracer.uninstall()
        settle()
        if not tracer:
            for _ in range(PROBE_PASSES):
                probe_pass(stats, probe)
            settle()
        k += 1
    if tracer and probe:
        tracer.phase = "probe"
        tracer.install()
        probe_pass(stats, probe)
        tracer.uninstall()
    stats.flush()

    result = {"correct": stats.failed == 0, "attempted": stats.attempted, "failed": stats.failed}
    if tracer:
        tracer.merge_children()
        from spans import layer_metrics, unit

        scale = statistics.median(stats.scales)
        metrics = {
            k: v * scale if unit(k) == "s" else v
            for k, v in layer_metrics(tracer.spans, {"setup", "main", "probe"}).items()
        }
        metrics["trace.overhead_ratio"] = statistics.median(round_s[True]) / statistics.median(round_s[False][1:])
        tracer.write(out_dir / f"trace-{name}-{seed}.jsonl")
        result["metrics"] = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
        return result

    # percentiles over inputs, each input taken at its median over the run,
    # interpolated between order statistics
    def per_input(kind):
        return [statistics.median(v) for (k, _), v in stats.lat.items() if k == kind]

    def p99(values):
        return statistics.quantiles(values, n=100, method="inclusive")[-1]

    oracle = per_input("oracle") or per_input("probe.oracle")
    classify_lat = per_input("classify") or per_input("probe.classify")
    ms = lambda x: 1000 * x
    metrics = {
        "setup_s": (import_s + statistics.median(stats.lat[("setup", None)]), "s"),
        "decisions_per_s": (stats.decisions / k / statistics.median(round_s[False][1:]), "1/s"),
        "oracle_ms_p50": (ms(statistics.median(oracle)), "ms"),
        "oracle_ms_p99": (ms(p99(oracle)), "ms"),
        "classify_ms_p50": (ms(statistics.median(classify_lat)), "ms"),
        "classify_ms_p99": (ms(p99(classify_lat)), "ms"),
    }
    for n in NAMES:
        samples = stats.lat[("oracle", n)] or stats.lat[("probe.oracle", n)]
        metrics[f"oracle_ms.{n}"] = (ms(statistics.median(samples)), "ms")
    metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def peak_rss_mib() -> float:
    import resource

    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024
