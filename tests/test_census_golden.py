"""Byte-for-byte census report snapshots.

``tests/data/census_golden.json`` holds the JSON report of
``cross_validate`` over the connected labeled graphs on one to five
vertices, unfiltered and with each girth filter 4, 5 and 6, and over the
graph6 lines of C8, C9 and the Petersen graph.  Regenerate it only for
an intended output change, by running this file as a script from the
repository root:

    PYTHONPATH=src:tests python tests/test_census_golden.py
"""

from __future__ import annotations

import json

import pytest

from starfactor.census import cross_validate, report
from starfactor.graph import to_graph6

from conftest import DATA_DIR, cycle, petersen

GOLDEN = DATA_DIR / "census_golden.json"

CASES = {
    **{
        f"n=1..5 girth_min={k}": {"ns": range(1, 6), "girth_min": k}
        for k in (None, 4, 5, 6)
    },
    "graph6 C8 C9 Petersen": {
        "graph6_lines": [to_graph6(g) for g in (cycle(8), cycle(9), petersen())]
    },
}


def _report(name: str) -> str:
    return report(cross_validate(**CASES[name]), fmt="json")


def test_golden_covers_every_case():
    assert list(json.loads(GOLDEN.read_text(encoding="utf-8"))) == list(CASES)


@pytest.mark.parametrize("name", CASES)
def test_census_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _report(name) == golden[name]


if __name__ == "__main__":
    golden = {name: _report(name) for name in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
