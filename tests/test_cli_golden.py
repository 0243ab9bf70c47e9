"""Byte-for-byte CLI snapshots for the graph-deciding commands.

``tests/data/cli_golden.json`` holds the exit code and exact stdout of
``oracle``, ``classify``, ``witness`` and ``factors``, in text and JSON
output, on a fixed set of graphs.  The ``factors`` JSON pins each
factor's stars: centres, leaves and their order.  Regenerate it only
for an intended output change, by running this file as a script from
the repository root:

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json

import pytest

from starfactor.cli import run
from starfactor.graph import Graph

from conftest import DATA_DIR, cycle, disjoint_union, double_star_graph, format_edge_list, path

GOLDEN = DATA_DIR / "cli_golden.json"

GRAPHS = {
    "c5": cycle(5),
    "c6": cycle(6),
    "p8": path(8),
    # the diamond: oracle fallback with a refutation certificate
    "k4_minus_edge": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "double_star14": double_star_graph(),
    # one structural and one oracle-fallback component
    "c5_plus_k3": disjoint_union(cycle(5), cycle(3)),
    # core kinds reported in original vertex ids of the second component
    "c5_plus_p7": disjoint_union(cycle(5), path(7)),
    "p3_plus_isolated": Graph.from_edges(4, [(0, 1), (1, 2)]),
}

COMMANDS = [
    [command, *output]
    for command in ("oracle", "classify", "witness", "factors")
    for output in ([], ["--output", "json"])
]


def _invoke(name: str, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    stdin = io.StringIO(format_edge_list(GRAPHS[name]))
    code = run([*argv[:1], "-", *argv[1:]], stdout=out, stderr=io.StringIO(), stdin=stdin)
    return code, out.getvalue()


def _capture() -> list[dict]:
    cases = []
    for name in GRAPHS:
        for argv in COMMANDS:
            code, stdout = _invoke(name, argv)
            cases.append({"graph": name, "argv": argv, "exit": code, "stdout": stdout})
    return cases


def test_golden_covers_every_graph_and_command():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(c["graph"], c["argv"]) for c in golden] == [
        (name, argv) for name in GRAPHS for argv in COMMANDS
    ]


@pytest.mark.parametrize("name", GRAPHS)
def test_cli_bytes_match_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case in golden:
        if case["graph"] == name:
            assert _invoke(name, case["argv"]) == (case["exit"], case["stdout"]), case["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
