#!/usr/bin/env python3
"""Walkthrough: a member whose star-factors have *different* edge counts.

Graphs whose star-factors all use the same number of edges are trivially
members (constant weights work).  The converse fails: this 14-vertex
tree has factors with anywhere from 7 to 10 edges, yet a non-constant
weighting equalizes them all.  The trick is that its core consists of
three single edges; giving each of those weight 2 exactly compensates
for the two stem edges that replace it in the other factors.
"""

from fractions import Fraction

from starfactor import classify, edge_count_spectrum, enumerate_star_factors
from starfactor.graph import Graph


def build():
    # A central edge 0-1; each endpoint has two stems (2,3 / 4,5) with a
    # leaf each (6..9); each stem pair is joined through an outer edge
    # pair (10-11, 12-13).
    return Graph.from_edges(14, [
        (0, 1),
        (0, 2), (0, 3), (1, 4), (1, 5),
        (2, 6), (3, 7), (4, 8), (5, 9),
        (2, 10), (3, 11), (10, 11),
        (4, 12), (5, 13), (12, 13),
    ])


def main():
    g = build()
    factors = enumerate_star_factors(g)
    spectrum = dict(sorted(edge_count_spectrum(factors).items()))
    print(f"{len(factors)} star-factors with edge counts {spectrum}")
    print("constant weights cannot work: factor totals would differ\n")

    cls = classify(g)
    print(f"classifier verdict: {cls.verdict.value} [{cls.case_tag.value}]")
    heavy = [(u, v) for (u, v), w in zip(g.edges, cls.witness.weights)
             if w == Fraction(2)]
    print(f"witness: weight 2 on {heavy}, weight 1 elsewhere")

    totals = {
        sum(w for i, w in enumerate(cls.witness.weights) if f >> i & 1)
        for f in factors
    }
    print(f"totals over all {len(factors)} factors under that weighting: "
          f"{sorted(str(t) for t in totals)}")


if __name__ == "__main__":
    main()
