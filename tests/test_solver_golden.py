"""Hash snapshots of the solver's exact outcomes.

``tests/data/solver_golden.json`` maps a graph's graph6 string to the
sha256 of ``repr(decide_uniform_weighting(...))`` on its star-factor
edge masks, so every weight, common weight, certificate
coefficient and forced-zero entry is pinned down to the byte.  The graphs
are every connected graph on 2 to 5 vertices, the connected six-vertex
graphs whose refutation needs the second LP (found by the objectives of
the programs handed to ``simplex.solve``), five named instances and the
graphs of ``girth5_connected_n8.g6``.  Regenerate it only for an intended
output change, by running this file as a script from the repository root:

    PYTHONPATH=src:tests python tests/test_solver_golden.py
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest

from starfactor import simplex
from starfactor.census import generate_connected
from starfactor.factors import enumerate_star_factors
from starfactor.graph import Graph, parse_graph6, to_graph6
from starfactor.solver import decide_uniform_weighting

from conftest import DATA_DIR, cycle, double_star_graph, path, petersen

GOLDEN = DATA_DIR / "solver_golden.json"
LP2_SIX_VERTEX_GRAPHS = 54


def _named() -> list[Graph]:
    k7 = Graph.from_edges(7, list(combinations(range(7), 2)))
    return [cycle(12), path(14), petersen(), double_star_graph(), k7]


def _fixed_graphs() -> list[Graph]:
    small = [g for n in range(2, 6) for g in generate_connected(n)]
    lines = (DATA_DIR / "girth5_connected_n8.g6").read_text().split()
    return small + _named() + [parse_graph6(line) for line in lines]


def _digest(g: Graph) -> str:
    outcome = decide_uniform_weighting(enumerate_star_factors(g), g.m)
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


def _needs_second_lp(g: Graph) -> bool:
    # LP1 maximizes the one variable t; LP2 maximizes the sum of a block's
    # s_e, at least two of them, since a one-column block's row is one-signed
    objectives = []
    solve = simplex.solve

    def recording(c, rows, rhs):
        objectives.append(c)
        return solve(c, rows, rhs)

    simplex.solve = recording
    try:
        decide_uniform_weighting(enumerate_star_factors(g), g.m)
    finally:
        simplex.solve = solve
    return any(sum(c) > 1 for c in objectives)


def _capture() -> dict[str, str]:
    lp2 = [g for g in generate_connected(6) if _needs_second_lp(g)]
    return {to_graph6(g): _digest(g) for g in _fixed_graphs() + lp2}


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_fixed_graphs_and_the_lp2_graphs():
    golden = _golden()
    fixed = {to_graph6(g) for g in _fixed_graphs()}
    assert fixed <= set(golden)
    rest = [parse_graph6(key) for key in set(golden) - fixed]
    assert len(rest) == LP2_SIX_VERTEX_GRAPHS
    assert all(g.n == 6 for g in rest)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 10, 12, 14])
def test_outcome_digests_match_golden(n):
    cases = [(key, digest) for key, digest in _golden().items() if parse_graph6(key).n == n]
    assert cases
    for key, digest in cases:
        assert _digest(parse_graph6(key)) == digest, key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n", encoding="utf-8")
