"""The isomorph-free census: canonical forms, classes and labeled counts.

``reference_cross_validate`` is the labeled census as it was before the
built-in work became isomorphism classes: every connected labeled graph
is decided on its own, in the labeled enumeration's order.  Its graphs
come from a brute force over edge subsets, not from the census.  The
class census must give the same report bytes.  networkx is used here
only, as an independent check of connectivity, girth, isomorphism and
automorphism counts.
"""

from __future__ import annotations

import functools
import math
import random
from types import SimpleNamespace
from typing import Iterable, Iterator

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor import census
from starfactor.census import (
    CensusResult,
    CensusRow,
    Disagreement,
    _connected_classes,
    cross_validate,
    evaluate_graph,
    report,
)
from starfactor.factors import DEFAULT_CAP
from starfactor.graph import Graph, canonical_form, girth, parse_graph6, to_graph6
from starfactor.solver import Verdict

from conftest import DATA_DIR, cycle, path, relabel

# OEIS A001349 (connected graphs) and A001187 (connected labeled graphs)
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}


# ------------------------------------------------- the labeled reference

@functools.cache
def reference_labeled(n: int, girth_min: int | None) -> tuple[Graph, ...]:
    """Every connected labeled graph on n vertices, and under
    ``girth_min`` >= 5 only those of girth at least five, by brute force
    over all edge subsets (bit i of a mask for the i-th pair u < v).

    They come in the labeled enumeration's order: by increasing mask, or
    under ``girth_min`` >= 5 by increasing reversed bit string, the order
    of a search over edge slots that leaves slot i out before it puts it
    in, so that the lowest slot varies slowest.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    girth5 = girth_min is not None and girth_min >= 5
    kept = []
    for mask in range(1 << len(pairs)):
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(p for i, p in enumerate(pairs) if mask >> i & 1)
        if nx.is_connected(h) and not (girth5 and nx.girth(h) < 5):
            kept.append(mask)
    if girth5:
        kept.sort(key=lambda mask: format(mask, f"0{len(pairs)}b")[::-1])
    return tuple(Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1)) for mask in kept)


def _reference_worker(item: Graph | str, cap: int, girth_min: int | None):
    """Decide one work item: a labeled graph or a graph6 line."""
    g = parse_graph6(item) if isinstance(item, str) else item
    return evaluate_graph(g, cap, girth_min)


def _reference_accumulate(evaluated) -> CensusResult:
    """Rows and disagreements from one decision per labeled graph, each
    (the graph's own census row, its disagreement or None) or None."""
    table: dict[tuple[int, str], CensusRow] = {}
    disagreements: list[Disagreement] = []
    for decided in evaluated:
        if decided is None:
            continue
        one, disagreement = decided
        key = (one.n, one.girth_class)
        row = table.get(key)
        if row is None:
            row = table[key] = CensusRow(n=one.n, girth_class=one.girth_class)
        row.graph_count += 1
        row.omega_members += one.omega_members
        row.u_members += one.u_members
        row.cap_exceeded += one.cap_exceeded
        if disagreement is not None:
            row.disagreements += 1
            disagreements.append(disagreement)
    order = {c: i for i, c in enumerate(census.GIRTH_CLASSES)}
    rows = sorted(table.values(), key=lambda r: (r.n, order[r.girth_class]))
    return CensusResult(rows=rows, disagreements=disagreements)


def reference_cross_validate(
    ns: Iterable[int] = (),
    girth_min: int | None = None,
    cap: int = DEFAULT_CAP,
    graph6_lines: Iterable[str] = (),
) -> CensusResult:
    """The labeled census, one decision per labeled graph, in one process."""

    def items() -> Iterator[Graph | str]:
        for n in ns:
            yield from reference_labeled(n, girth_min)
        for line in graph6_lines:
            line = line.strip()
            if line:
                yield line

    work = functools.partial(_reference_worker, cap=cap, girth_min=girth_min)
    return _reference_accumulate(map(work, items()))


def both_reports(**kwargs) -> tuple[list[str], list[str]]:
    got, want = cross_validate(**kwargs), reference_cross_validate(**kwargs)
    return (
        [report(got, fmt) for fmt in ("json", "text")],
        [report(want, fmt) for fmt in ("json", "text")],
    )


class TestAgainstLabeledReference:
    @pytest.mark.parametrize("girth_min", [None, 4, 5, 6])
    def test_report_bytes_equal(self, girth_min):
        got, want = both_reports(ns=range(1, 6), girth_min=girth_min)
        assert got == want

    def test_disagreements_list_every_labeled_copy(self, monkeypatch):
        # flip the classifier on C5 and on the path P4: the reference lists
        # each of their 12 labeled copies, n = 4 before n = 5, each n in
        # edge-mask order, then the graph6 lines; so must the class census
        flipped = {canonical_form(cycle(5))[0], canonical_form(path(4))[0]}
        classify = census.classify

        def flipping_classify(g, cap):
            cls = classify(g, cap=cap)
            if canonical_form(g)[0] not in flipped:
                return cls
            member = cls.verdict is Verdict.MEMBER
            return SimpleNamespace(verdict=Verdict.NOT_MEMBER if member else Verdict.MEMBER)

        monkeypatch.setattr("starfactor.census.classify", flipping_classify)
        # C5 in two labelings, and the first once more
        lines = [to_graph6(g) for g in (cycle(5), relabel(cycle(5), [0, 2, 4, 1, 3]), cycle(5))]
        # girth_min >= 5 enumerates labeled graphs in another order
        for girth_min in (None, 4, 5, 6):
            got, want = both_reports(ns=[5, 3, 4], girth_min=girth_min, graph6_lines=lines)
            assert got == want
        result = cross_validate(ns=[5, 3, 4], graph6_lines=lines)
        assert len(result.disagreements) == 12 + 12 + 3
        assert [r.disagreements for r in result.rows if r.disagreements] == [12, 15]

    def test_repeated_sizes_counted_each_time(self):
        got, want = both_reports(ns=[4, 4, 2], graph6_lines=[to_graph6(path(4))])
        assert got == want


# ------------------------------------------------------------- the classes

@pytest.fixture(scope="module")
def classes():
    return _connected_classes(7, None)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestClasses:
    def test_counts_match_oeis(self, classes):
        assert {n: len(classes[n]) for n in CONNECTED_CLASSES} == CONNECTED_CLASSES
        labeled = {n: sum(copies for _, copies in classes[n]) for n in CONNECTED_LABELED}
        assert labeled == CONNECTED_LABELED

    def test_classes_are_canonical_and_connected(self, classes):
        for n in CONNECTED_CLASSES:
            for g, copies in classes[n]:
                assert canonical_form(g) == (g, math.factorial(n) // copies)
                assert nx.is_connected(to_networkx(g))

    def test_labeled_copies_match_the_labeled_generator(self, classes):
        for n in range(1, 6):
            seen: dict[Graph, int] = {}
            for g in reference_labeled(n, None):
                form, _ = canonical_form(g)
                seen[form] = seen.get(form, 0) + 1
            assert seen == dict(classes[n])

    def test_networkx_atlas_has_the_same_classes(self, classes):
        atlas: dict[int, set[Graph]] = {}
        for h in nx.graph_atlas_g()[1:]:
            if nx.is_connected(h):
                g = Graph.from_edges(h.number_of_nodes(), h.edges())
                atlas.setdefault(g.n, set()).add(canonical_form(g)[0])
        assert atlas == {n: {g for g, _ in classes[n]} for n in CONNECTED_CLASSES}

    def test_automorphisms_and_distinctness_against_networkx(self, classes):
        matcher = nx.algorithms.isomorphism.GraphMatcher
        for n in range(1, 7):
            graphs = [(to_networkx(g), copies) for g, copies in classes[n]]
            for h, copies in graphs:
                automorphisms = sum(1 for _ in matcher(h, h).isomorphisms_iter())
                assert copies == math.factorial(n) // automorphisms
            by_degrees: dict[tuple[int, ...], list[nx.Graph]] = {}
            for h, _ in graphs:
                by_degrees.setdefault(tuple(sorted(d for _, d in h.degree())), []).append(h)
            for group in by_degrees.values():
                for i, a in enumerate(group):
                    assert not any(nx.is_isomorphic(a, b) for b in group[i + 1:])

    @pytest.mark.parametrize("girth_min", [4, 5, 6, 9])
    def test_girth_filter_keeps_exactly_the_classes_meeting_it(self, classes, girth_min):
        kept = _connected_classes(7, girth_min)
        for n in CONNECTED_CLASSES:
            assert kept[n] == [(g, c) for g, c in classes[n] if girth(g).at_least(girth_min)]

    def test_girth5_n8_matches_the_fixture(self):
        lines = (DATA_DIR / "girth5_connected_n8.g6").read_text().splitlines()
        fixture = {canonical_form(parse_graph6(line))[0] for line in lines}
        got = [g for g, _ in _connected_classes(8, 5)[8]]
        assert len(got) == len(fixture) == 47
        assert set(got) == fixture


@st.composite
def relabeled_graphs(draw):
    # the search visits at least |Aut G| leaves: K_n and its complement
    # have n! of them, so n stays at most 7
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, tuple(p for p, k in zip(pairs, keep) if k))
    perm = draw(st.permutations(range(n)))
    return g, relabel(g, list(perm))


@given(relabeled_graphs())
@settings(max_examples=300, deadline=None)
def test_canonical_form_ignores_labels(graphs):
    g, h = graphs
    form, automorphisms = canonical_form(g)
    assert canonical_form(h) == (form, automorphisms)
    assert canonical_form(form) == (form, automorphisms)
    assert form.m == g.m and sorted(map(form.degree, range(g.n))) == sorted(map(g.degree, range(g.n)))


def test_canonical_form_separates_cospectral_regular_graphs():
    # K_{3,3} and the triangular prism are both 3-regular on 6 vertices,
    # two disjoint 5-cycles and C10 both 2-regular on 10: colour refinement
    # alone does not split any of them
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert canonical_form(k33)[0] != canonical_form(prism)[0]
    assert canonical_form(k33)[1] == 72 and canonical_form(prism)[1] == 12
    rng = random.Random(3)
    perm = list(range(10))
    rng.shuffle(perm)
    two_c5 = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert canonical_form(two_c5)[0] != canonical_form(cycle(10))[0]
    assert canonical_form(relabel(two_c5, perm)) == canonical_form(two_c5)
    assert canonical_form(two_c5)[1] == 200 and canonical_form(cycle(10))[1] == 20
