#!/usr/bin/env python3
"""Walkthrough: membership by shape alone when the girth is at least 5.

For connected graphs with no cycle shorter than five, membership is
decided structurally: delete all leaves (degree-1 vertices) and stems
(their neighbors) and look at what is left.  The graph is a member
exactly when it is a 5- or 7-cycle, or everything was leaf-or-stem, or
every remaining "core" component is one of three allowed shapes.  Each
component's report names what the classifier saw there: its core shapes
joined by "+", or its case when no core is left beside leaves and stems.
The classifier also builds the witness weighting explicitly: weight 1
everywhere, weight 2 on each core single-edge component.
"""

from starfactor import classify, omega_oracle
from starfactor.graph import Graph


def show(name, g):
    cls = classify(g)
    oracle = omega_oracle(g)
    print(f"--- {name} ---")
    for report in cls.per_component:
        print(f"component {list(report.vertices)}: {report.kind}")
    tag = cls.case_tag.value if cls.case_tag else "-"
    print(f"classifier: {cls.verdict.value} via {cls.route.value} [{tag}]")
    print(f"oracle:     {oracle.verdict.value}  (they must agree)")
    if cls.witness is not None:
        detail = ", ".join(
            f"{u}-{v}:{w}" for (u, v), w in zip(g.edges, cls.witness.integral)
        )
        print(f"constructed witness: {detail}")
    print()


def main():
    c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]

    # Everything is a leaf or a stem: the double star.
    show("double star", Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]))

    # Core is an isolated vertex (P5) vs. a star K_{1,2} (P7): both pass.
    show("P5", Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    show("P7", Graph.from_edges(7, [(i, i + 1) for i in range(6)]))

    # Core is P4: the first path that fails.
    show("P8", Graph.from_edges(8, [(i, i + 1) for i in range(7)]))

    # Core 5-cycle with one attachment is fine ...
    show("C5 + one tail", Graph.from_edges(7, c5 + [(0, 5), (5, 6)]))

    # ... two attachments on adjacent cycle vertices are not.
    show("C5 + adjacent tails",
         Graph.from_edges(9, c5 + [(0, 5), (5, 6), (1, 7), (7, 8)]))

    # A spider with three legs of three edges: core is K_{1,3} whose
    # center keeps degree 3, so the star-core case applies.
    legs = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
    show("three-leg spider", Graph.from_edges(10, legs))


if __name__ == "__main__":
    main()
