"""Hostile stdin never crashes the graph commands.

``cli.run`` is called in-process on ``girth``, ``factors``, ``oracle``,
``classify`` and ``witness``, in text and JSON, with arbitrary text,
truncated or padded graph6 strings (n <= 10) and edge lists whose counts
are huge, negative or not integers and whose edge lines are out of range
or malformed.  Every run must return one of the documented exit codes
0-4 without raising, and a JSON run that decided something must print
JSON.  A ``--cap`` that is not an integer must give argparse's usage
error on the given stderr.  The inputs stay small: ``--cap`` at most
1000, at most 8 edge lines, and no census or process pool.
"""

from __future__ import annotations

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from starfactor.cli import EXIT_USAGE, run
from starfactor.graph import Graph, to_graph6

from conftest import is_usage_error

COMMANDS = ("girth", "factors", "oracle", "classify", "witness")

COUNTS = st.one_of(
    st.integers(min_value=0, max_value=12).map(str),
    st.sampled_from(["1000000000", str(10**100)]),
    st.integers(min_value=-(10**9), max_value=-1).map(str),
    st.sampled_from(["", "1.5", "1e3", "x", "0x10", "--1", "\u0663"]),
)


@st.composite
def edge_lists(draw) -> str:
    k = draw(st.integers(min_value=1, max_value=12))
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=8, unique_by=frozenset))
    lines = [f"{u} {v}" for u, v in edges]
    hostile = st.sampled_from(
        [f"0 {k}", "-1 0", "0 0", "1", "1 2 3", "a b", "1.0 2", f"0 {10**100}", "# note", ""]
    )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(hostile))
    # each header count is right three times in four, so most edges get parsed
    declared = sum(1 for line in lines if line and not line.startswith("#"))
    n = draw(COUNTS) if draw(st.integers(0, 3)) == 3 else str(k)
    m = draw(COUNTS) if draw(st.integers(0, 3)) == 3 else str(declared)
    return "\n".join([f"{n} {m}", *lines]) + "\n"


@st.composite
def graph6_strings(draw) -> str:
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    text = to_graph6(Graph.from_edges(n, [p for p, keep in zip(pairs, chosen) if keep]))
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    pad = draw(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=127), max_size=3))
    return draw(st.sampled_from([text, text[:cut], text + pad, text[:cut] + pad]))


@given(
    command=st.sampled_from(COMMANDS),
    output=st.sampled_from(["text", "json"]),
    cap=st.one_of(st.integers(min_value=-2, max_value=1000).map(str), st.sampled_from(["x", "", "1.5", "--1"])),
    stdin=st.one_of(
        st.tuples(st.just("edgelist"), st.one_of(st.text(max_size=40), edge_lists())),
        st.tuples(st.just("graph6"), st.one_of(st.text(max_size=12), graph6_strings())),
    ),
)
@settings(max_examples=400, deadline=None)
def test_graph_commands_exit_cleanly_on_any_stdin(command, output, cap, stdin):
    fmt, text = stdin
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "-", "--format", fmt, "--cap", cap, "--output", output]
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(text))
    assert code in (0, 1, 2, 3, 4)
    if code == EXIT_USAGE:
        # an unparsable --cap is argparse's usage error, on the same stream
        assert is_usage_error(err.getvalue())
    elif output == "json":
        json.loads(out.getvalue())
