"""The integer simplex against the rational tableau it replaced.

``reference_solve`` below is the earlier ``simplex.solve``, kept verbatim
apart from its name, which pivoted a tableau of ``Fraction`` entries.
Both follow Bland's rule, so on every program they must make the same
pivots and return the same optimum, byte for byte, or raise the same
``SimplexError``.  The generated programs have non-unit rational entries,
negative right-hand sides, and redundant rows, which leave artificial
variables in the basis at the end of phase 1 to be driven out or deleted.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence

from hypothesis import example, given, settings
from hypothesis import strategies as st

from starfactor import simplex
from starfactor.simplex import SimplexError

# ------------------------------------------------- the rational reference

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    if piv != ONE:
        inv = ONE / piv
        tableau[row] = [x * inv for x in tableau[row]]
    pivot_row = tableau[row]
    for r, tr in enumerate(tableau):
        if r == row:
            continue
        factor = tr[col]
        if factor == ZERO:
            continue
        tableau[r] = [x - factor * y for x, y in zip(tr, pivot_row)]
    basis[row] = col


def _iterate(
    tableau: list[list[Fraction]],
    basis: list[int],
    obj: list[Fraction],
    allowed: Sequence[bool],
) -> list[Fraction]:
    """Run simplex iterations on (tableau, basis) for the objective row.

    ``obj`` is the reduced-cost row including the rhs entry in the last
    position; ``allowed[j]`` gates which columns may enter the basis.
    Returns the final objective row.
    """
    ncols = len(obj) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and obj[j] > ZERO:
                enter = j
                break
        if enter < 0:
            return obj
        leave = -1
        best: Fraction | None = None
        for r, tr in enumerate(tableau):
            a = tr[enter]
            if a > ZERO:
                ratio = tr[-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            raise SimplexError("unbounded objective")
        _pivot(tableau, basis, leave, enter)
        factor = obj[enter]
        pivot_row = tableau[leave]
        obj = [x - factor * y for x, y in zip(obj, pivot_row)]


def reference_solve(
    c: Sequence[Fraction | int],
    rows: Sequence[Sequence[Fraction | int]],
    rhs: Sequence[Fraction | int],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to rows.x = rhs, x >= 0.

    Returns (optimal value, optimal x).  Raises SimplexError when the
    program is infeasible or unbounded; callers construct programs for
    which both are impossible.
    """
    nvars = len(c)
    nrows = len(rows)
    # Standard form with one artificial variable per row; rhs made nonnegative.
    tableau: list[list[Fraction]] = []
    for i in range(nrows):
        row = [Fraction(x) for x in rows[i]]
        b = Fraction(rhs[i])
        if len(row) != nvars:
            raise ValueError("row length mismatch")
        if b < ZERO:
            row = [-x for x in row]
            b = -b
        art = [ZERO] * nrows
        art[i] = ONE
        tableau.append(row + art + [b])
    basis = [nvars + i for i in range(nrows)]
    ncols = nvars + nrows

    # Phase 1: maximize -(sum of artificials).
    obj1 = [ZERO] * (ncols + 1)
    for i in range(nrows):
        obj1[nvars + i] = -ONE
    for i in range(nrows):  # price out the initial basis
        obj1 = [x + y for x, y in zip(obj1, tableau[i])]
    allowed = [True] * ncols
    obj1 = _iterate(tableau, basis, obj1, allowed)
    if obj1[-1] != ZERO:
        raise SimplexError("infeasible program")
    # Drive leftover artificials out of the (degenerate) basis.
    for r in range(nrows - 1, -1, -1):
        if basis[r] >= nvars:
            col = next((j for j in range(nvars) if tableau[r][j] != ZERO), None)
            if col is None:
                del tableau[r]
                del basis[r]
            else:
                _pivot(tableau, basis, r, col)

    # Phase 2: original objective, artificial columns barred.
    obj2 = [Fraction(x) for x in c] + [ZERO] * nrows + [ZERO]
    for r, bi in enumerate(basis):
        factor = obj2[bi]
        if factor != ZERO:
            obj2 = [x - factor * y for x, y in zip(obj2, tableau[r])]
    allowed = [j < nvars for j in range(ncols)]
    obj2 = _iterate(tableau, basis, obj2, allowed)

    x = [ZERO] * nvars
    for r, bi in enumerate(basis):
        if bi < nvars:
            x[bi] = tableau[r][-1]
    return -obj2[-1], x


# ------------------------------------------------------------ the property

entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(
        Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=2, max_value=4)
    ),
)


@st.composite
def programs(draw):
    """(c, rows, rhs): random rows, rhs either A x0 for some x0 >= 0 with
    zeros in it (feasible, degenerate) or drawn freely, an optional row
    fixing sum(x) (bounded), and scaled and summed copies of earlier rows."""
    nvars = draw(st.integers(min_value=1, max_value=6))
    nrows = draw(st.integers(min_value=0, max_value=4))
    rows = [draw(st.lists(entries, min_size=nvars, max_size=nvars)) for _ in range(nrows)]
    x0 = [draw(st.sampled_from([0, 0, 1, 2, Fraction(1, 3)])) for _ in range(nvars)]
    if draw(st.booleans()):
        rows.append([1] * nvars)
    if draw(st.booleans()):
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    else:
        rhs = [draw(entries) for _ in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if rows else 0):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        j = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        f = draw(st.sampled_from([1, -1, 2, Fraction(-1, 2), Fraction(3, 2)]))
        rows.append([f * a + b for a, b in zip(rows[i], rows[j])])
        rhs.append(f * rhs[i] + rhs[j])
    order = draw(st.permutations(range(len(rows))))
    # A zero objective returns the vertex where phase 1 stopped, which
    # depends on every pivot choice made on the way.
    c = draw(st.one_of(st.just([0] * nvars), st.lists(entries, min_size=nvars, max_size=nvars)))
    return c, [rows[k] for k in order], [rhs[k] for k in order]


def _run(module, solve_fn, c, rows, rhs) -> tuple[str, list[tuple[int, int]]]:
    """The outcome of solve_fn and the (row, column) of every pivot it made.

    Equal outcomes alone would let a wrong tie-break through: on most
    programs a degenerate tie leads to the same vertex by another path.
    """
    pivots: list[tuple[int, int]] = []
    pivot = module._pivot

    def recording(tableau, basis, row, col):
        pivots.append((row, col))
        return pivot(tableau, basis, row, col)

    module._pivot = recording
    try:
        return repr(solve_fn(c, rows, rhs)), pivots
    except SimplexError as exc:
        return f"SimplexError: {exc}", pivots
    finally:
        module._pivot = pivot


@settings(max_examples=500, deadline=None)
@given(programs())
# The reference pivots (3, 0), (0, 4), (3, 8), (3, 0): column 8, row 3's
# artificial, enters again in phase 1, so a solver that drops an
# artificial's column when it leaves makes other pivots here.
@example(
    (
        [0, 0, 0, 0, 0],
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, -1], [0, 0, 0, 0, -2], [1, 1, 1, 1, 0]],
        [1, -1, -2, 0],
    )
)
def test_integer_simplex_matches_rational_tableau(program):
    c, rows, rhs = program
    expected = _run(sys.modules[__name__], reference_solve, c, rows, rhs)
    assert _run(simplex, simplex.solve, c, rows, rhs) == expected
