"""The census's class growth and labeled lists against the searches
they replaced.

``reference_connected_classes`` is the earlier
``census._connected_classes``: it grew a class by every nonempty subset
of its vertices and kept a grown class only if its girth met
``girth_min``.  ``reference_labeled_masks`` walked all n! permutations of
a class, and ``reference_enumeration_key`` ordered the masks, read with
their bits reversed under ``girth_min`` >= 5.  The current census grows
girth-filtered classes by admissible subsets only, lists a class's
copies as the orbit of its mask under two generators of S_n, and lays
the masks out so that plain increasing order is the enumeration order.
Every class list, orbit and labeled list must come out the same, in the
same order.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from starfactor.census import (
    _connected_classes,
    _graphs_from_masks,
    _labeled_masks,
    generate_connected,
    generate_connected_girth5,
)
from starfactor.factors import mask_bits
from starfactor.graph import Graph, canonical_rows, girth, graph_from_rows


def reference_connected_classes(n_max: int, girth_min: int | None) -> dict[int, list[tuple[Graph, int]]]:
    level = [(0,)]
    classes = {0: [(Graph(0, ()), 1)], 1: [(Graph(1, ()), 1)]}
    for n in range(2, n_max + 1):
        found: dict[tuple[int, ...], int] = {}
        for rows in level:
            for subset in range(1, 1 << (n - 1)):
                grown = [r | (subset >> v & 1) << (n - 1) for v, r in enumerate(rows)]
                form, automorphisms = canonical_rows([*grown, subset])
                found.setdefault(form, automorphisms)
        classes[n] = []
        level = []
        for form, automorphisms in found.items():
            g = graph_from_rows(form)
            if girth_min is None or girth(g).at_least(girth_min):
                classes[n].append((g, math.factorial(n) // automorphisms))
                level.append(form)
    return classes


def pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def reference_labeled_masks(g: Graph) -> set[int]:
    """Edge masks, slot i at bit i, of the n! relabelings of g."""
    bit = [[0] * g.n for _ in range(g.n)]
    for i, (u, v) in enumerate(pairs(g.n)):
        bit[u][v] = bit[v][u] = 1 << i
    return {sum([bit[p[u]][p[v]] for u, v in g.edges]) for p in itertools.permutations(range(g.n))}


# REVERSED_BYTES[b] is the byte b with its eight bits in reverse order
REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def reference_enumeration_key(n: int, mask: int, girth_min: int | None) -> int:
    """Sort key of the labeled enumeration's order: increasing masks, or,
    under girth_min >= 5, increasing masks with their bits reversed, the
    order of an edge-slot search that leaves slot i out before it puts
    it in, so that the lowest slot varies slowest."""
    if girth_min is None or girth_min < 5:
        return mask
    # reversing the bytes and each byte's bits reverses all 8k bits, and
    # the shift drops the 8k - |pairs| zeros that were above the top slot
    size = (len(pairs(n)) + 7) // 8
    reversed_mask = int.from_bytes(mask.to_bytes(size, "little").translate(REVERSED_BYTES), "big")
    return reversed_mask >> 8 * size - len(pairs(n))


def reference_labeled_graphs(n: int, girth_min: int | None) -> list[Graph]:
    masks = [mask for g, _ in reference_connected_classes(n, girth_min)[n] for mask in reference_labeled_masks(g)]
    masks.sort(key=lambda mask: reference_enumeration_key(n, mask, girth_min))
    return [Graph(n, tuple(p for i, p in enumerate(pairs(n)) if mask >> i & 1)) for mask in masks]


@pytest.fixture(scope="module")
def every_class() -> dict[int, list[tuple[Graph, int]]]:
    return _connected_classes(7, None)


@pytest.mark.parametrize("girth_min", [None, -1, 0, 3, 4, 5, 6, 7, 9])
def test_classes_equal_the_filtered_growth(girth_min):
    assert _connected_classes(7, girth_min) == reference_connected_classes(7, girth_min)


def test_girth5_classes_on_eight_vertices_equal_the_filtered_growth():
    assert _connected_classes(8, 5) == reference_connected_classes(8, 5)


def test_orbits_are_the_labeled_copies(every_class):
    # every class with n <= 6, and the girth >= 5 classes with n = 7
    girth5 = {g for g, _ in _connected_classes(7, 5)[7]}
    cases = [g for n in range(7) for g, _ in every_class[n]] + [g for g, _ in every_class[7] if g in girth5]
    assert len(cases) == 1 + 1 + 1 + 2 + 6 + 21 + 112 + 18
    for g in cases:
        want = reference_labeled_masks(g)
        for girth_min in (None, 5):
            got = _labeled_masks([g], g.n, girth_min)
            assert len(got) == len(set(got))
            assert set(got) == {reference_enumeration_key(g.n, mask, girth_min) for mask in want}


def test_orbit_sizes_are_the_copy_counts(every_class):
    # the copy count is n!/|Aut G|, with |Aut G| from canonical_rows
    for n in range(8):
        for g, copies in every_class[n]:
            assert len(_labeled_masks([g], n, None)) == copies


@pytest.mark.parametrize("n", range(1, 7))
def test_connected_list_equals_the_sorted_permutations(n):
    assert list(generate_connected(n)) == reference_labeled_graphs(n, None)


@pytest.mark.parametrize("n", range(1, 8))
def test_girth5_list_equals_the_sorted_permutations(n):
    assert list(generate_connected_girth5(n)) == reference_labeled_graphs(n, 5)


def reference_graph_from_mask(n: int, mask: int, girth_min: int | None) -> Graph:
    """The graph of an edge mask, read bit by bit: slot i at bit i, or
    under girth_min >= 5 at bit M - 1 - i of the M slots."""
    bits = mask_bits(mask, len(pairs(n)))
    return Graph(n, tuple(itertools.compress(pairs(n), bits[::-1] if girth_min is not None and girth_min >= 5 else bits)))


@pytest.mark.parametrize("girth_min", [None, 5])
def test_graph_from_mask_equals_the_bitwise_readback(girth_min):
    # every mask for n <= 6, shuffled, and a seeded sample with both
    # extremes and some repeats for n = 7, 8, read as one list per n: the
    # graphs must come out in the masks' order
    rng = random.Random(28)
    for n in range(9):
        size = len(pairs(n))
        if n <= 6:
            masks = list(range(1 << size))
            rng.shuffle(masks)
        else:
            masks = [(1 << size) - 1, 0, *(rng.getrandbits(size) for _ in range(3000))]
            masks += masks[:50]
        got = list(_graphs_from_masks(n, masks, girth_min))
        assert len(got) == len(masks)
        for mask, g in zip(masks, got):
            assert g == reference_graph_from_mask(n, mask, girth_min), (n, mask)
