"""Exhaustive small-graph census: classifier vs oracle cross-validation.

The built-in census covers every connected labeled graph on up to seven
vertices.  Membership, girth and uniformity do not depend on the
labeling, so it decides one graph per isomorphism class (grown vertex by
vertex, merged by ``graph.canonical_rows``) and counts it n!/|Aut G|
times: the report is the labeled one.  Larger graphs come in as graph6
lines, each decided as given.  For every graph of girth at least five
both the structural classifier and the brute-force oracle run and any
verdict mismatch is logged, once per labeled copy; graphs of smaller
girth are decided by the oracle alone and only counted.

``generate_connected`` and ``generate_connected_girth5`` still list the
labeled graphs themselves, in edge-mask order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import __version__
from .classifier import classify
from .factors import DEFAULT_CAP
from .graph import Girth, Graph, canonical_rows, girth, graph_from_rows, parse_graph6, to_graph6
from .solver import Verdict, omega_oracle

MAX_BUILTIN_N = 7

GIRTH_CLASSES = ("3", "4", "5", "6", "7", ">=8", "inf")


@dataclass
class CensusRow:
    n: int
    girth_class: str
    graph_count: int = 0
    omega_members: int = 0
    u_members: int = 0
    disagreements: int = 0
    cap_exceeded: int = 0


@dataclass(frozen=True)
class Disagreement:
    graph6: str
    oracle_verdict: str
    classifier_verdict: str


@dataclass
class CensusResult:
    rows: list[CensusRow]
    disagreements: list[Disagreement] = field(default_factory=list)


@functools.cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _mask_connected(n: int, pairs: tuple[tuple[int, int], ...], mask: int) -> bool:
    if n <= 1:
        return True
    reach = [0] * n
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            reach[u] |= 1 << v
            reach[v] |= 1 << u
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= reach[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def _graph_from_mask(n: int, mask: int) -> Graph:
    return Graph(n, tuple(p for i, p in enumerate(_pairs(n)) if mask >> i & 1))


def _connected_masks(n: int) -> Iterator[int]:
    """Edge masks of all connected labeled graphs on n vertices, in order."""
    pairs = _pairs(n)
    return (mask for mask in range(1 << len(pairs)) if _mask_connected(n, pairs, mask))


def generate_connected(n: int) -> Iterator[Graph]:
    """Every connected labeled graph on n vertices, in edge-mask order."""
    if not (1 <= n <= MAX_BUILTIN_N):
        raise ValueError(f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_N}")
    for mask in _connected_masks(n):
        yield _graph_from_mask(n, mask)


def _girth5_connected_masks(n: int) -> Iterator[int]:
    """Edge masks of all connected labeled graphs on n vertices with no
    cycle shorter than five, generated by pruned search over edge slots."""
    pairs = _pairs(n)
    adjacency = [0] * n

    def close(u: int, v: int) -> bool:
        # true iff adding uv closes a cycle of length <= 4 (dist(u, v) <= 3)
        seen = 1 << u
        frontier = 1 << u
        for _ in range(3):
            nxt = 0
            for w in range(n):
                if frontier >> w & 1:
                    nxt |= adjacency[w]
            if nxt >> v & 1:
                return True
            frontier = nxt & ~seen
            seen |= nxt
        return False

    def rec(idx: int, mask: int) -> Iterator[int]:
        if idx == len(pairs):
            if _mask_connected(n, pairs, mask):
                yield mask
            return
        u, v = pairs[idx]
        yield from rec(idx + 1, mask)
        if not close(u, v):
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
            yield from rec(idx + 1, mask | (1 << idx))
            adjacency[u] &= ~(1 << v)
            adjacency[v] &= ~(1 << u)

    yield from rec(0, 0)


def generate_connected_girth5(n: int) -> Iterator[Graph]:
    """Connected labeled graphs on n vertices with girth >= 5 (or infinite)."""
    if not (1 <= n <= 8):
        raise ValueError("girth-5 enumeration supports 1 <= n <= 8")
    for mask in _girth5_connected_masks(n):
        yield _graph_from_mask(n, mask)


def _girth_class(gg: Girth) -> str:
    if gg.value is None:
        return "inf"
    if gg.value >= 8:
        return ">=8"
    return str(gg.value)


@dataclass(frozen=True)
class _Record:
    n: int
    girth_class: str
    omega_member: bool
    u_member: bool
    cap_exceeded: bool
    disagreement: Disagreement | None


def evaluate_graph(
    g: Graph, cap: int = DEFAULT_CAP, girth_min: int | None = None
) -> _Record | None:
    """Oracle (and, for girth >= 5, classifier) run on a single graph;
    None, with nothing decided, for a graph of girth below ``girth_min``."""
    gg = girth(g)
    if girth_min is not None and not gg.at_least(girth_min):
        return None
    result = omega_oracle(g, cap=cap)
    verdict = result.verdict
    # every factor has the same edge count iff w = 1 is uniform, and then
    # decide_uniform_weighting returns the all-ones witness before building D
    u_member = result.witness is not None and all(
        w == 1 for w in result.witness.weighting.weights
    )
    disagreement = None
    if gg.at_least(5) and verdict in (Verdict.MEMBER, Verdict.NOT_MEMBER):
        cls = classify(g, cap=cap)
        if (cls.verdict is Verdict.MEMBER) != (verdict is Verdict.MEMBER):
            disagreement = Disagreement(
                graph6=to_graph6(g),
                oracle_verdict=verdict.value,
                classifier_verdict=cls.verdict.value,
            )
    return _Record(
        n=g.n,
        girth_class=_girth_class(gg),
        omega_member=verdict is Verdict.MEMBER,
        u_member=u_member,
        cap_exceeded=verdict is Verdict.CAP_EXCEEDED,
        disagreement=disagreement,
    )


def _connected_classes(n_max: int, girth_min: int | None) -> dict[int, list[tuple[Graph, int]]]:
    """Isomorphism classes of connected graphs on 1..n_max vertices with
    girth at least ``girth_min``, each as (canonical graph, n!/|Aut G|).

    Every connected graph keeps connected when a leaf of a spanning tree
    is removed, and girth >= k holds for every induced subgraph, so each
    kept class on n vertices arises from a kept class on n - 1 vertices
    by adding a vertex joined to a nonempty subset; the canonical form
    merges the copies that arise more than once.
    """
    level = [(0,)]
    classes = {0: [(Graph(0, ()), 1)], 1: [(Graph(1, ()), 1)]}
    for n in range(2, n_max + 1):
        found: dict[tuple[int, ...], int] = {}
        for rows in level:
            for subset in range(1, 1 << (n - 1)):
                grown = [r | (subset >> v & 1) << (n - 1) for v, r in enumerate(rows)]
                form, automorphisms = canonical_rows([*grown, subset])
                found.setdefault(form, automorphisms)
        classes[n] = []
        level = []
        for form, automorphisms in found.items():
            g = graph_from_rows(form)
            if girth_min is None or girth(g).at_least(girth_min):
                classes[n].append((g, math.factorial(n) // automorphisms))
                level.append(form)
    return classes


def _labeled_masks(g: Graph) -> set[int]:
    """Edge masks of every labeled copy of g."""
    index = {p: i for i, p in enumerate(_pairs(g.n))}
    return {
        sum(1 << index[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in g.edges)
        for p in itertools.permutations(range(g.n))
    }


def _enumeration_key(n: int, mask: int, girth_min: int | None) -> int:
    """Sort key of the labeled enumeration's order: increasing masks, or,
    under girth_min >= 5, the pruned search's order, which leaves edge
    slot i out before it puts it in, so the lowest slot varies slowest."""
    if girth_min is None or girth_min < 5:
        return mask
    return int(format(mask, f"0{len(_pairs(n))}b")[::-1], 2)


def _worker(item: tuple[int, Graph, int] | str, cap: int, girth_min: int | None) -> _Record | None:
    """Decide one work item: a graph6 line, or an isomorphism class as
    (place of its n in ``ns``, canonical graph, labeled copies)."""
    g = parse_graph6(item) if isinstance(item, str) else item[1]
    return evaluate_graph(g, cap, girth_min)


def cross_validate(
    ns: Iterable[int] = (),
    girth_min: int | None = None,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
    graph6_lines: Iterable[str] = (),
) -> CensusResult:
    """Census over the built-in range plus any external graph6 graphs.

    ``ns`` selects built-in sizes (n <= 7), each decided once per
    isomorphism class and counted once per labeled copy; ``girth_min``
    skips graphs of smaller girth before deciding them.  ``workers`` = 0
    means one per CPU.  Results are merged in generation order regardless
    of worker count.
    """
    ns = list(ns)
    classes = _connected_classes(max(ns), girth_min) if ns else {}
    items: list[tuple[int, Graph, int] | str] = [
        (place, g, copies) for place, n in enumerate(ns) for g, copies in classes[n]
    ]
    items.extend(line for line in map(str.strip, graph6_lines) if line)
    work = functools.partial(_worker, cap=cap, girth_min=girth_min)
    # the results are the same for any worker count, so more workers than
    # CPUs or work items would only cost processes
    cpus = os.cpu_count() or 1
    workers = min(workers or cpus, cpus, len(items))
    if workers > 1:
        # as Pool.map sizes them: about four chunks per worker
        chunksize = -(-len(items) // (4 * workers))
        pool = multiprocessing.Pool(workers)
        try:
            result = _accumulate(zip(items, pool.imap(work, items, chunksize=chunksize)), girth_min)
        finally:
            pool.close()
            pool.join()
        return result
    return _accumulate(zip(items, map(work, items)), girth_min)


def _accumulate(
    decided: Iterable[tuple[tuple[int, Graph, int] | str, _Record | None]], girth_min: int | None
) -> CensusResult:
    """Rows and disagreements of the labeled census: a class counts once
    per labeled copy, and a disagreeing class lists every copy, ordered
    as the labeled enumeration would meet them (by n's place in ``ns``,
    then ``_enumeration_key``), before the graph6 lines."""
    table: dict[tuple[int, str], CensusRow] = {}
    labeled: list[tuple[int, int, Disagreement]] = []
    external: list[Disagreement] = []
    for item, rec in decided:
        if rec is None:
            continue
        copies = 1 if isinstance(item, str) else item[2]
        key = (rec.n, rec.girth_class)
        row = table.get(key)
        if row is None:
            row = table[key] = CensusRow(n=rec.n, girth_class=rec.girth_class)
        row.graph_count += copies
        row.omega_members += copies * rec.omega_member
        row.u_members += copies * rec.u_member
        row.cap_exceeded += copies * rec.cap_exceeded
        d = rec.disagreement
        if d is None:
            continue
        row.disagreements += copies
        if isinstance(item, str):
            external.append(d)
            continue
        place, g, _ = item
        for mask in _labeled_masks(g):
            copy = Disagreement(to_graph6(_graph_from_mask(g.n, mask)), d.oracle_verdict, d.classifier_verdict)
            labeled.append((place, _enumeration_key(g.n, mask, girth_min), copy))
    order = {c: i for i, c in enumerate(GIRTH_CLASSES)}
    rows = sorted(table.values(), key=lambda r: (r.n, order[r.girth_class]))
    labeled.sort(key=lambda entry: entry[:2])
    return CensusResult(rows=rows, disagreements=[d for *_, d in labeled] + external)


def report(result: CensusResult, fmt: str = "text", cap: int = DEFAULT_CAP) -> str:
    """Deterministic census report in text, json, or tsv form."""
    if fmt == "json":
        payload = {
            "tool": "starfactor",
            "version": __version__,
            "cap": cap,
            "rows": [
                {
                    "n": r.n,
                    "girthClass": r.girth_class,
                    "graphCount": r.graph_count,
                    "omegaMembers": r.omega_members,
                    "uMembers": r.u_members,
                    "disagreements": r.disagreements,
                    "capExceeded": r.cap_exceeded,
                }
                for r in result.rows
            ],
            "disagreements": [
                {
                    "graph6": d.graph6,
                    "oracle": d.oracle_verdict,
                    "classifier": d.classifier_verdict,
                }
                for d in result.disagreements
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    header = ["n", "girth", "graphs", "omegaMembers", "uMembers", "disagreements", "capExceeded"]
    data = [
        [
            str(r.n),
            r.girth_class,
            str(r.graph_count),
            str(r.omega_members),
            str(r.u_members),
            str(r.disagreements),
            str(r.cap_exceeded),
        ]
        for r in result.rows
    ]
    if fmt == "tsv":
        lines = ["\t".join(header)]
        lines.extend("\t".join(row) for row in data)
        return "\n".join(lines) + "\n"
    if fmt == "text":
        widths = [max(len(h), *(len(row[i]) for row in data)) if data else len(h) for i, h in enumerate(header)]
        lines = [f"starfactor census v{__version__} (cap={cap})"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in data:
            lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)))
        for d in result.disagreements:
            lines.append(f"DISAGREE {d.graph6} oracle={d.oracle_verdict} classifier={d.classifier_verdict}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
