"""Exhaustive small-graph census: classifier vs oracle cross-validation.

Built-in enumeration covers every connected labeled graph on up to seven
vertices (all edge subsets, filtered to connected); larger graphs come
in as graph6 lines.  For every graph of girth at least five both the
structural classifier and the brute-force oracle run and any verdict
mismatch is logged; graphs of smaller girth are decided by the oracle
alone and only counted.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import __version__
from .classifier import classify
from .factors import DEFAULT_CAP
from .graph import Girth, Graph, girth, parse_graph6, to_graph6
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


def _worker(item: tuple[int, int] | str, cap: int, girth_min: int | None) -> _Record | None:
    """Decide one work item: an (n, edge mask) pair or a graph6 line."""
    if isinstance(item, str):
        g = parse_graph6(item)
    else:
        g = _graph_from_mask(*item)
    return evaluate_graph(g, cap, girth_min)


def cross_validate(
    ns: Iterable[int] = (),
    girth_min: int | None = None,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
    graph6_lines: Iterable[str] = (),
) -> CensusResult:
    """Census over the built-in range plus any external graph6 graphs.

    ``ns`` selects built-in sizes (n <= 7); ``girth_min`` skips graphs of
    smaller girth before deciding them (girth_min >= 5 uses the pruned
    girth-5 generator).  ``workers`` = 0 means one per CPU.  Results are
    merged in generation order regardless of worker count.
    """

    def items() -> Iterator[tuple[int, int] | str]:
        for n in ns:
            if girth_min is not None and girth_min >= 5:
                masks = _girth5_connected_masks(n)
            else:
                masks = _connected_masks(n)
            for mask in masks:
                yield (n, mask)
        for line in graph6_lines:
            line = line.strip()
            if line:
                yield line

    work = functools.partial(_worker, cap=cap, girth_min=girth_min)
    # the results are the same for any worker count, so more workers than
    # CPUs would only cost processes
    cpus = os.cpu_count() or 1
    workers = min(workers or cpus, cpus)
    if workers > 1:
        pool = multiprocessing.Pool(workers)
        try:
            result = _accumulate(pool.imap(work, items(), chunksize=256))
        finally:
            pool.close()
            pool.join()
        return result
    return _accumulate(map(work, items()))


def _accumulate(records: Iterable[_Record | None]) -> CensusResult:
    table: dict[tuple[int, str], CensusRow] = {}
    disagreements: list[Disagreement] = []
    for rec in records:
        if rec is None:
            continue
        key = (rec.n, rec.girth_class)
        row = table.get(key)
        if row is None:
            row = table[key] = CensusRow(n=rec.n, girth_class=rec.girth_class)
        row.graph_count += 1
        row.omega_members += rec.omega_member
        row.u_members += rec.u_member
        row.cap_exceeded += rec.cap_exceeded
        if rec.disagreement is not None:
            row.disagreements += 1
            disagreements.append(rec.disagreement)
    order = {c: i for i, c in enumerate(GIRTH_CLASSES)}
    rows = sorted(table.values(), key=lambda r: (r.n, order[r.girth_class]))
    return CensusResult(rows=rows, disagreements=disagreements)


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
