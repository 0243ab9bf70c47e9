#!/usr/bin/env python3
"""Walkthrough: cross-validating the classifier against the oracle.

The census counts every connected labeled graph up to a given size.  It
runs the brute-force oracle once per isomorphism class (and counts the
class once per labeled copy) and -- for graphs of girth at least five --
also runs the structural classifier, logging any disagreement.
Zero disagreements over the exhaustive range is the empirical form of
the classification theorem.  External graph6 lists extend the sweep to
sizes where full enumeration is too large.
"""

from pathlib import Path

from starfactor import cross_validate, report

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def main():
    # Built-in exhaustive sweep, girth >= 5, up to 6 vertices (fast).
    result = cross_validate(ns=range(1, 7), girth_min=5)
    print(report(result, fmt="text"))
    assert not result.disagreements

    # External graph6 input: one representative per isomorphism class of
    # connected 8-vertex graphs with girth >= 5, plus the Petersen graph.
    lines = (DATA / "girth5_connected_n8.g6").read_text().splitlines()
    lines += (DATA / "petersen.g6").read_text().splitlines()
    result = cross_validate(graph6_lines=lines)
    print(report(result, fmt="text"))
    assert not result.disagreements
    print("classifier and oracle agree everywhere")


if __name__ == "__main__":
    main()
