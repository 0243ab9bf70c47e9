"""The census command never crashes and keeps the labeled counts.

``cli.run`` is called in-process on ``census`` with ``-n`` specs up to
six (and some malformed ones), ``--girth-min``, ``--workers`` 1 or 2 and
``--graph6-file`` contents of at most three lines of graphs on at most
six vertices, some of them truncated.  Every run must return one of the
documented exit codes 0-4; a run that decided prints JSON whose
``graphCount`` total per n is the number of connected labeled graphs on
n vertices that meet the girth filter (OEIS A001187 unfiltered), plus
the graph6 lines on n vertices that meet it.
"""

from __future__ import annotations

import io
import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from starfactor.cli import EXIT_USAGE, run
from starfactor.graph import Graph, girth, parse_graph6, to_graph6

from conftest import is_usage_error

# connected labeled graphs on n vertices with girth >= k, k = 3 (all of
# them, OEIS A001187) to 7 (trees only for n <= 6, n^(n-2))
# [DERIVED: girth of every graph of the labeled generator]
LABELED_BY_GIRTH = {
    3: {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704},
    4: {1: 1, 2: 1, 3: 3, 4: 19, 5: 207, 6: 3571},
    5: {1: 1, 2: 1, 3: 3, 4: 16, 5: 137, 6: 1716},
    6: {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1356},
    7: {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296},
}

BAD_SPECS = ["0..2", "3..1", "x", "..3", "2..", "8", "-1..2", "1..1000000000000"]


@st.composite
def graph6_lines(draw) -> str:
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    text = to_graph6(Graph.from_edges(n, [p for p, keep in zip(pairs, chosen) if keep]))
    # one line in eight loses its last byte
    return text[:-1] if draw(st.integers(0, 7)) == 7 else text


def expected_totals(ns: list[int], girth_min: int | None, lines: list[str]) -> dict[int, int]:
    k = min(max(girth_min if girth_min is not None else 3, 3), 7)
    totals = Counter({n: LABELED_BY_GIRTH[k][n] for n in ns})
    for line in filter(None, lines):
        g = parse_graph6(line)
        if girth_min is None or girth(g).at_least(girth_min):
            totals[g.n] += 1
    return dict(totals)


@given(
    spec=st.one_of(
        st.none(),
        st.tuples(st.integers(1, 6), st.integers(0, 3)).map(lambda t: (t[0], min(t[0] + t[1], 6))),
        st.sampled_from(BAD_SPECS),
    ),
    girth_min=st.one_of(st.none(), st.integers(min_value=-1, max_value=9)),
    workers=st.integers(min_value=1, max_value=2),
    lines=st.one_of(st.none(), st.lists(graph6_lines(), max_size=3)),
)
# the largest valid calls, on one and two workers, whatever is drawn
@example(spec=(1, 6), girth_min=None, workers=2, lines=["EhEG", "?", "A_"])
@example(spec=(6, 6), girth_min=5, workers=1, lines=["EhEG"])
@settings(max_examples=30, deadline=None)
def test_census_exits_cleanly_and_counts_labeled_graphs(tmp_path_factory, spec, girth_min, workers, lines):
    argv = ["census", "--workers", str(workers), "--output", "json"]
    if isinstance(spec, tuple):
        argv += ["-n", f"{spec[0]}..{spec[1]}" if spec[1] > spec[0] else str(spec[0])]
    elif spec is not None:
        argv += ["-n", spec]
    if girth_min is not None:
        argv += ["--girth-min", str(girth_min)]
    if lines is not None:
        path = tmp_path_factory.mktemp("census") / "graphs.g6"
        path.write_text("".join(line + "\n" for line in lines))
        argv += ["--graph6-file", str(path)]
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    assert code in (0, 1, 2, 3, 4)
    if code == EXIT_USAGE:
        assert is_usage_error(err.getvalue()) and out.getvalue() == ""
        return
    doc = json.loads(out.getvalue())
    assert code == 0 and doc["disagreements"] == []
    totals = Counter()
    for row in doc["rows"]:
        totals[row["n"]] += row["graphCount"]
    ns = list(range(spec[0], spec[1] + 1)) if isinstance(spec, tuple) else []
    assert dict(totals) == {n: c for n, c in expected_totals(ns, girth_min, lines or []).items() if c}
