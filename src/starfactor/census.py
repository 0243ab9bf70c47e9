"""Exhaustive small-graph census: classifier vs oracle cross-validation.

The built-in census covers every connected labeled graph on up to seven
vertices.  Membership, girth and uniformity do not depend on the
labeling, so it decides one graph per isomorphism class (grown vertex by
vertex, merged by ``graph.canonical_rows``) and counts it n!/|Aut G|
times: the report is the labeled one.  Under a girth filter k >= 4 a
class grows only by admissible neighbour sets, whose members lie at
pairwise distance >= k - 2, which are exactly the sets that keep girth
>= k.  Larger graphs come in as graph6 lines, each decided as given.
For every graph of girth at least five both the structural classifier
and the brute-force oracle run and any verdict mismatch is logged, once
per labeled copy; graphs of smaller girth are decided by the oracle
alone and only counted.  ``evaluate_graph`` gives each decided graph
its own ``CensusRow``, each count 0 or 1, which is added to its
(n, girth) row once per copy: a report column is one ``CensusRow``
field, one ``_COLUMNS`` line and its value in ``evaluate_graph``.

``generate_connected`` and ``generate_connected_girth5`` list the
labeled graphs themselves by expanding the same classes into every
labeled copy (as a disagreeing class's copies are): the orbit of the
class's edge mask under two generators of S_n, met once each by a
breadth-first search.  The masks are laid out so that plain increasing
order is the list's order: the connected graphs with edge slot i (the
i-th pair (u, v), u < v, in lexicographic order) at bit i, the girth >= 5
graphs with slot i at bit M - 1 - i of M slots, so that slot 0 varies
slowest.  Every mask (at most 28 slots) is read in two halves of its
bits, through tables built once per call and dropped after it, in the
layout that ``_half_tables`` chooses from ``girth_min``: a half's value
gives its pairs as a sorted edge tuple, so ``_graphs_from_masks`` joins
two lookups per graph, and its image under each generator, so an orbit
step is two lookups ORed.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import operator
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

from . import __version__
from .classifier import classify
from .factors import DEFAULT_CAP
from .graph import Girth, Graph, canonical_rows, girth, graph_from_rows, parse_graph6, to_graph6
from .solver import Verdict, omega_oracle

MAX_BUILTIN_N = 7

GIRTH_CLASSES = ("3", "4", "5", "6", "7", ">=8", "inf")

# the report's columns: (CensusRow attribute, JSON key, text/TSV header)
_COLUMNS = (
    ("n", "n", "n"),
    ("girth_class", "girthClass", "girth"),
    ("graph_count", "graphCount", "graphs"),
    ("omega_members", "omegaMembers", "omegaMembers"),
    ("u_members", "uMembers", "uMembers"),
    ("disagreements", "disagreements", "disagreements"),
    ("cap_exceeded", "capExceeded", "capExceeded"),
)


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


# what evaluate_graph returns for one graph
_Evaluated = tuple[CensusRow, Disagreement | None] | None


class _HalfTables(NamedTuple):
    """Lookup tables for the edge masks on n vertices in one layout, read
    in two halves: the low ``half`` bits (``mask & cut``) and the rest
    (``mask >> half``)."""

    n: int
    # slot i (the i-th pair (u, v), u < v) at bit M - 1 - i of the M
    # slots rather than at bit i
    reversed_layout: bool
    half: int
    cut: int
    # slot[pair] is the pair's bit
    slot: dict[tuple[int, int], int]
    # a half's value -> its pairs, as a sorted edge tuple
    low_edges: list[tuple[tuple[int, int], ...]]
    high_edges: list[tuple[tuple[int, int], ...]]
    # per generator of S_n, (low, high): a half's value -> its image bits
    images: tuple[tuple[list[int], list[int]], ...]


def _half_tables(n: int, girth_min: int | None) -> _HalfTables:
    """The tables for the edge masks on n vertices in the layout for
    ``girth_min``: reversed for girth_min >= 5, so that increasing masks
    are the girth >= 5 lists' order, in which slot 0 varies slowest."""
    reversed_layout = girth_min is not None and girth_min >= 5
    # the pairs in bit order, so that the image of bit b is moved[b]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    by_bit = pairs[::-1] if reversed_layout else pairs
    half = len(by_bit) // 2
    slot = {pair: 1 << b for b, pair in enumerate(by_bit)}
    edges = []
    for part in (by_bit[:half], by_bit[half:]):
        # each new bit doubles the table; in the reversed layout a higher
        # bit is a lower slot, so its pair goes first
        table: list[tuple[tuple[int, int], ...]] = [()]
        for pair in part:
            table += [(pair, *t) for t in table] if reversed_layout else [(*t, pair) for t in table]
        edges.append(table)
    images = []
    for p in ((1, 0, *range(2, n)), (*range(1, n), 0)):
        moved = [slot[min(p[u], p[v]), max(p[u], p[v])] for u, v in by_bit]
        tables = []
        for part in (moved[:half], moved[half:]):
            table = [0]
            for image in part:
                table += [t | image for t in table]
            tables.append(table)
        images.append(tuple(tables))
    return _HalfTables(n, reversed_layout, half, (1 << half) - 1, slot, *edges, tuple(images))


def _graphs_from_masks(tables: _HalfTables, masks: Iterable[int]) -> Iterator[Graph]:
    """The graph of each edge mask in the layout of ``tables``, in order."""
    n, reversed_layout, half, cut, _, low, high, _ = tables
    if reversed_layout:
        return (Graph(n, high[mask >> half] + low[mask & cut]) for mask in masks)
    return (Graph(n, low[mask & cut] + high[mask >> half]) for mask in masks)


def generate_connected(n: int) -> Iterator[Graph]:
    """Every connected labeled graph on n vertices, by increasing edge mask."""
    if not (1 <= n <= MAX_BUILTIN_N):
        raise ValueError(f"built-in enumeration supports 1 <= n <= {MAX_BUILTIN_N}")
    return _labeled_graphs(n, None)


def generate_connected_girth5(n: int) -> Iterator[Graph]:
    """Connected labeled graphs on n vertices with girth >= 5 (or
    infinite), by increasing bit-reversed edge mask."""
    if not (1 <= n <= 8):
        raise ValueError("girth-5 enumeration supports 1 <= n <= 8")
    return _labeled_graphs(n, 5)


def _labeled_graphs(n: int, girth_min: int | None) -> Iterator[Graph]:
    """Every labeled copy of the classes ``_connected_classes`` keeps on
    n vertices, in the labeled enumeration's order."""
    tables = _half_tables(n, girth_min)
    masks = _labeled_masks(tables, [g for g, _ in _connected_classes(n, girth_min)[n]])
    masks.sort()
    return _graphs_from_masks(tables, masks)


def _girth_class(gg: Girth) -> str:
    if gg.value is None:
        return "inf"
    if gg.value >= 8:
        return ">=8"
    return str(gg.value)


def evaluate_graph(g: Graph, cap: int = DEFAULT_CAP, girth_min: int | None = None) -> _Evaluated:
    """Oracle (and, for girth >= 5, classifier) run on a single graph, as
    (the census row of g alone, with graph_count 1 and each other count
    0 or 1, and its disagreement or None); None, with nothing decided,
    for a graph of girth below ``girth_min``."""
    gg = girth(g)
    if girth_min is not None and not gg.at_least(girth_min):
        return None
    result = omega_oracle(g, cap=cap)
    verdict = result.verdict
    # every factor has the same edge count iff w = 1 is uniform, and then
    # decide_uniform_weighting returns the all-ones witness before building D
    u_member = result.witness is not None and all(w == 1 for w in result.witness.weighting.weights)
    disagreement = None
    if gg.at_least(5) and verdict in (Verdict.MEMBER, Verdict.NOT_MEMBER):
        cls = classify(g, cap=cap)
        if (cls.verdict is Verdict.MEMBER) != (verdict is Verdict.MEMBER):
            disagreement = Disagreement(to_graph6(g), verdict.value, cls.verdict.value)
    row = CensusRow(
        n=g.n,
        girth_class=_girth_class(gg),
        graph_count=1,
        omega_members=int(verdict is Verdict.MEMBER),
        u_members=int(u_member),
        disagreements=int(disagreement is not None),
        cap_exceeded=int(verdict is Verdict.CAP_EXCEEDED),
    )
    return row, disagreement


def _connected_classes(n_max: int, girth_min: int | None) -> dict[int, list[tuple[Graph, int]]]:
    """Isomorphism classes of connected graphs on 1..n_max vertices with
    girth at least ``girth_min``, each as (canonical graph, n!/|Aut G|).

    Every connected graph keeps connected when a leaf of a spanning tree
    is removed, and girth >= k holds for every induced subgraph, so each
    kept class on n vertices arises from a kept class on n - 1 vertices
    by adding a vertex joined to a nonempty subset S; the canonical form
    merges the copies that arise more than once.  Every cycle through the
    new vertex runs through two members u, w of S and is at least
    d(u, w) + 2 long, so for k >= 4 the new graph keeps girth >= k
    exactly when no two members of S lie within distance k - 3 of each
    other: only those subsets are grown, in the same increasing order.
    Every simple graph has girth >= 3, so smaller k grow every subset.
    """
    radius = girth_min - 3 if girth_min is not None and girth_min >= 4 else 0
    level = [(0,)]
    classes = {0: [(Graph(0, ()), 1)], 1: [(Graph(1, ()), 1)]}
    for n in range(2, n_max + 1):
        found: dict[tuple[int, ...], int] = {}
        for rows in level:
            near = _near(rows, radius)
            # admissible[S]: no two members of S are near; S extends S
            # less its lowest member v, which must be near no other member
            admissible = bytearray(1 << (n - 1))
            admissible[0] = 1
            for subset in range(1, 1 << (n - 1)):
                low = subset & -subset
                if not admissible[subset ^ low] or near[low.bit_length() - 1] & subset:
                    continue
                admissible[subset] = 1
                grown = [r | (subset >> v & 1) << (n - 1) for v, r in enumerate(rows)]
                form, automorphisms = canonical_rows([*grown, subset])
                found.setdefault(form, automorphisms)
        classes[n] = [
            (graph_from_rows(form), math.factorial(n) // automorphisms) for form, automorphisms in found.items()
        ]
        level = list(found)
    return classes


def _near(rows: tuple[int, ...], radius: int) -> list[int]:
    """Per vertex of the graph with neighbor bitmasks ``rows``, the
    bitmask of the other vertices within distance ``radius``: ``radius``
    rounds of a bitmask BFS, each widening every ball by its neighbors',
    but at most ``len(rows) - 1`` of them, after which no ball grows."""
    neighbors = [[w for w in range(len(rows)) if row >> w & 1] for row in rows]
    balls = [1 << v for v in range(len(rows))]
    for _ in range(min(radius, len(rows) - 1)):
        balls = [
            functools.reduce(operator.or_, [balls[w] for w in around], ball) for ball, around in zip(balls, neighbors)
        ]
    return [ball ^ 1 << v for v, ball in enumerate(balls)]


def _labeled_masks(tables: _HalfTables, graphs: Iterable[Graph]) -> list[int]:
    """Edge masks, in the layout of ``tables``, of every labeled copy of
    each graph on the tables' n <= 8 vertices.

    A graph's copies are the orbit of its mask under S_n, which the
    transposition (0 1) and the n-cycle v -> v + 1 mod n generate.  Each
    generator permutes the mask's bits through two table lookups, one
    per half of the at most 28 slots, ORed, and a breadth-first search
    meets each copy once.  With n <= 1 there is no slot to move, and the
    orbit is the mask itself.
    """
    _, _, half, cut, slot, _, _, ((a_low, a_high), (b_low, b_high)) = tables
    masks = []
    for g in graphs:
        start = sum([slot[e] for e in g.edges])
        seen = {start}
        orbit = [start]
        # the loop meets the masks it appends, so each copy is expanded once
        for mask in orbit:
            low, high = mask & cut, mask >> half
            for image in (a_low[low] | a_high[high], b_low[low] | b_high[high]):
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        masks += orbit
    return masks


def _worker(item: tuple[int, Graph, int] | str, cap: int, girth_min: int | None) -> _Evaluated:
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
        # closed and joined inside the block, the workers exit normally and
        # run their exit handlers; on an error the block's exit terminates
        # them instead, so they decide no more items
        with multiprocessing.Pool(workers) as pool:
            result = _accumulate(zip(items, pool.imap(work, items, chunksize=chunksize)), girth_min)
            pool.close()
            pool.join()
        return result
    return _accumulate(zip(items, map(work, items)), girth_min)


def _accumulate(
    decided: Iterable[tuple[tuple[int, Graph, int] | str, _Evaluated]], girth_min: int | None
) -> CensusResult:
    """Rows and disagreements of the labeled census: a class adds its
    row's counts (every column after n and girth_class) once per labeled
    copy, and a disagreeing class lists every copy, ordered as the
    labeled enumeration would meet them (by n's place in ``ns``, then by
    mask in the layout ``_half_tables`` chooses), before the graph6 lines."""
    counts = [attr for attr, *_ in _COLUMNS[2:]]
    table: dict[tuple[int, str], CensusRow] = {}
    labeled: list[tuple[int, int, Disagreement]] = []
    external: list[Disagreement] = []
    for item, evaluated in decided:
        if evaluated is None:
            continue
        one, d = evaluated
        copies = 1 if isinstance(item, str) else item[2]
        row = table.setdefault((one.n, one.girth_class), CensusRow(one.n, one.girth_class))
        for attr in counts:
            setattr(row, attr, getattr(row, attr) + copies * getattr(one, attr))
        if d is None:
            continue
        if isinstance(item, str):
            external.append(d)
            continue
        place, g, _ = item
        tables = _half_tables(g.n, girth_min)
        masks = _labeled_masks(tables, [g])
        for mask, copy in zip(masks, _graphs_from_masks(tables, masks)):
            labeled.append((place, mask, replace(d, graph6=to_graph6(copy))))
    order = {c: i for i, c in enumerate(GIRTH_CLASSES)}
    rows = sorted(table.values(), key=lambda r: (r.n, order[r.girth_class]))
    labeled.sort(key=lambda entry: entry[:2])
    return CensusResult(rows=rows, disagreements=[d for *_, d in labeled] + external)


def report(result: CensusResult, fmt: str = "text", cap: int = DEFAULT_CAP) -> str:
    """Deterministic census report in text, json, or tsv form.

    ``_COLUMNS`` lists the rows' columns once, in order, for all three:
    the ``CensusRow`` attribute, its JSON key, and its text/TSV header.
    """
    if fmt == "json":
        payload = {
            "tool": "starfactor",
            "version": __version__,
            "cap": cap,
            "rows": [{key: getattr(r, attr) for attr, key, _ in _COLUMNS} for r in result.rows],
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
    table = [[head for *_, head in _COLUMNS]]
    table += [[str(getattr(r, attr)) for attr, *_ in _COLUMNS] for r in result.rows]
    if fmt == "tsv":
        return "".join("\t".join(line) + "\n" for line in table)
    if fmt == "text":
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = [f"starfactor census v{__version__} (cap={cap})"]
        lines.extend("  ".join(x.ljust(w) for x, w in zip(line, widths)) for line in table)
        for d in result.disagreements:
            lines.append(f"DISAGREE {d.graph6} oracle={d.oracle_verdict} classifier={d.classifier_verdict}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
