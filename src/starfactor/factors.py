"""Star-factor enumeration and incidence-vector coordinatization.

A star-factor is a spanning subgraph in which every component is a star
K_{1,k} with k >= 1; a bare vertex is not a star, so graphs with isolated
vertices have no star-factors at all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .graph import Graph

DEFAULT_CAP = 10**6

# 0/1 vector over edge indices marking a factor's edge set.
IncidenceVector = tuple[int, ...]


class CapExceeded(Exception):
    """More distinct star-factors exist than the configured cap allows."""

    def __init__(self, cap: int):
        super().__init__(f"more than {cap} star-factors")
        self.cap = cap


class VacuousGraph(Exception):
    """The graph has an isolated vertex, hence no star-factor."""


@dataclass(frozen=True)
class StarFactor:
    """A spanning star forest: per-star (center, leaves) plus its edge set."""

    stars: tuple[tuple[int, frozenset[int]], ...]
    edge_set: frozenset[int]

    @property
    def edge_count(self) -> int:
        return len(self.edge_set)


def _stars_from_edge_set(g: Graph, edge_set: frozenset[int]) -> tuple[tuple[int, frozenset[int]], ...]:
    """Reconstruct the canonical (center, leaves) structure of a star forest.

    For K_{1,1} components the lower-indexed endpoint is the center.
    """
    neighbors: dict[int, list[int]] = {}
    for i in edge_set:
        u, v = g.edges[i]
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    stars = []
    done: set[int] = set()
    for v in sorted(neighbors):
        if v in done:
            continue
        if len(neighbors[v]) >= 2:
            center, leaves = v, neighbors[v]
        else:
            u = neighbors[v][0]
            if len(neighbors[u]) >= 2:
                center, leaves = u, neighbors[u]
            else:
                center, leaves = min(u, v), [max(u, v)]
        done.add(center)
        done.update(leaves)
        stars.append((center, frozenset(leaves)))
    return tuple(stars)


def enumerate_star_factors(g: Graph, cap: int = DEFAULT_CAP) -> list[StarFactor]:
    """All distinct star-factors of g, ordered lexicographically by edge set.

    Backtracks on the lowest uncovered vertex v: either v is a center with
    some nonempty subset of its uncovered neighbors as leaves, or v is a
    leaf of an uncovered neighbor u together with a nonempty subset of u's
    other uncovered neighbors.  A K_{1,1} is made only in the first branch,
    so every factor is reached exactly once and the cap counts as it goes.
    The search keeps an explicit stack, so its depth is not bounded by
    Python's recursion limit.

    Raises VacuousGraph if g has an isolated vertex and CapExceeded if more
    than ``cap`` factors exist (never a silent truncation).
    """
    if g.has_isolated_vertex():
        raise VacuousGraph("graph has an isolated vertex")
    if cap < 1:
        raise ValueError("cap must be positive")
    if g.n == 0:
        return [StarFactor(stars=(), edge_set=frozenset())]
    edge_index = g.edge_index
    adjacency = g.adjacency
    covered = [False] * g.n
    chosen: list[int] = []
    found: list[frozenset[int]] = []

    def stars_at(v: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(center, leaves) for every star that covers v; read lazily, so
        only ever advanced while ``covered`` is as it was at the call."""
        free = [u for u in adjacency[v] if not covered[u]]
        for size in range(1, len(free) + 1):
            for leaves in combinations(free, size):
                yield v, leaves
        for u in free:
            others = [x for x in adjacency[u] if not covered[x] and x != v]
            for size in range(1, len(others) + 1):
                for extra in combinations(others, size):
                    yield u, (v,) + extra

    def toggle(center: int, leaves: tuple[int, ...], on: bool) -> None:
        covered[center] = on
        for x in leaves:
            covered[x] = on
        if on:
            chosen.extend(edge_index[(min(center, x), max(center, x))] for x in leaves)
        else:
            del chosen[len(chosen) - len(leaves):]

    # frames[k] = (v, the stars covering v still to try) at depth k;
    # placed[k] is the star in use at depth k.
    frames = [(0, stars_at(0))]
    placed: list[tuple[int, tuple[int, ...]]] = []
    while frames:
        v, stars = frames[-1]
        star = next(stars, None)
        if star is None:
            frames.pop()
            if placed:
                toggle(*placed.pop(), on=False)
            continue
        toggle(*star, on=True)
        nxt = next((i for i in range(v + 1, g.n) if not covered[i]), None)
        if nxt is None:
            found.append(frozenset(chosen))
            if len(found) > cap:
                raise CapExceeded(cap)
            toggle(*star, on=False)
        else:
            placed.append(star)
            frames.append((nxt, stars_at(nxt)))
    return [
        StarFactor(stars=_stars_from_edge_set(g, es), edge_set=es)
        for es in sorted(found, key=lambda es: tuple(sorted(es)))
    ]


def incidence_vectors(factors: list[StarFactor], m: int) -> list[IncidenceVector]:
    """One 0/1 vector of length m per factor, in the same order."""
    vectors = []
    for f in factors:
        if any(i >= m or i < 0 for i in f.edge_set):
            raise ValueError(f"edge index out of range for m={m}")
        vectors.append(tuple(1 if i in f.edge_set else 0 for i in range(m)))
    return vectors


def edge_count_spectrum(factors: list[StarFactor]) -> Counter:
    """Multiset of edge counts; singleton support means constant weights work."""
    return Counter(f.edge_count for f in factors)
