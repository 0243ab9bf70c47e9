"""Dense two-phase primal simplex over exact rationals with Bland's rule.

Solves  max c.x  subject to  A x = b, x >= 0  exactly, in integers and
without floating point.  Each tableau row is a list of ints over one
positive row denominator, which is the row's entry in the column of its
basic variable; the objective row is a positive multiple of the reduced
costs, since only their signs steer the method.  A pivot divides the
pivot row by its gcd and updates only the rows with a nonzero entry in
the pivot column: by a sparse subtraction when the pivot divides the
row's entry, otherwise by scaling with the reduced pivot and dividing
out the gcd.  Bland's rule (lowest eligible index for both entering and
leaving variable) guarantees termination on the small, highly degenerate
systems produced by the star-weighting feasibility problems.  Every
choice depends only on signs and on cross-multiplied ratios, so it is
the choice the same tableau kept in rationals would make.

Two shortcuts do no work that a choice reads.  A row given as ints
alone has denominator 1 and skips the lcm of its denominators; its ints
are the ones the lcm would give.  Phase 1 keeps one artificial column per
row, and an artificial that left the basis may enter it again.  Once
phase 1 ends the artificial columns are barred: the drive-out picks real
columns, phase 2 prices only real columns and x is read off them.  So
every row is cut to its real entries and rhs before the drive-out.  A
row whose basic variable is still an artificial loses the entry that was
its denominator, but its rhs is 0 and the drive-out reads only which of
its real entries is first nonzero.  The cut may change a row's gcd and
so its integer scale, which no sign or ratio depends on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Sequence


class SimplexError(Exception):
    """Internal solver failure (infeasible or unbounded program)."""


def _integer_row(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(ints, d) with values[j] == ints[j] / d and d > 0 the least such."""
    if {*map(type, values)} == {int}:
        return list(values), 1
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _nonzero(row: list[int]) -> list[int]:
    return list(compress(range(len(row)), row))


def eliminate(
    row: list[int], pivot_row: list[int], col: int, nonzero: list[int] | None = None
) -> list[int]:
    """A positive multiple of ``row`` minus the multiple of ``pivot_row``
    (positive at ``col``) that zeroes column ``col``.

    When the pivot entry divides the row's entry and the pivot row's
    ``nonzero`` columns are given, only those columns change.  Otherwise
    the row is scaled by the reduced pivot and comes out primitive.
    """
    g = math.gcd(pivot_row[col], row[col])
    scale, factor = pivot_row[col] // g, row[col] // g
    if scale == 1 and nonzero is not None:
        row = row[:]
        for j in nonzero:
            row[j] -= factor * pivot_row[j]
        return row
    row = [scale * x - factor * y for x, y in zip(row, pivot_row)]
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def primitive(row: list[int], col: int) -> list[int]:
    """A nonzero row divided by the gcd of its entries, signed to be
    positive at ``col``."""
    g = math.gcd(*row)
    if row[col] < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int) -> list[int]:
    """Pivot on (row, col); returns the pivot row's nonzero columns."""
    pivot_row = tableau[row] = primitive(tableau[row], col)
    nonzero = _nonzero(pivot_row)
    for r, tr in enumerate(tableau):
        if r != row and tr[col]:
            tableau[r] = eliminate(tr, pivot_row, col, nonzero)
    basis[row] = col
    return nonzero


def _iterate(tableau: list[list[int]], basis: list[int], obj: list[int]) -> list[int]:
    """Run simplex iterations on (tableau, basis) for the objective row.

    ``obj`` is the reduced-cost row including the rhs entry in the last
    position; every one of its columns may enter the basis.  Returns the
    final objective row.
    """
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), -1)
        if enter < 0:
            return obj
        # A row's ratio rhs/entry does not depend on its denominator, so
        # ratios compare by cross-multiplying with the positive entries.
        leave = -1
        for r, tr in enumerate(tableau):
            a = tr[enter]
            if a <= 0:
                continue
            if leave >= 0:
                lhs, rhs = tr[-1] * best_a, best_b * a
                if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                    continue
            leave, best_a, best_b = r, a, tr[-1]
        if leave < 0:
            raise SimplexError("unbounded objective")
        nonzero = _pivot(tableau, basis, leave, enter)
        obj = eliminate(obj, tableau[leave], enter, nonzero)


def solve(
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
    # ``reals`` keeps each row's real entries and rhs for the phase-1 costs.
    tableau: list[list[int]] = []
    reals: list[list[int]] = []
    dens: list[int] = []
    for i in range(nrows):
        if len(rows[i]) != nvars:
            raise ValueError("row length mismatch")
        ints, d = _integer_row([*rows[i], rhs[i]])
        if ints[-1] < 0:
            ints = [-x for x in ints]
        art = [0] * nrows
        art[i] = d
        tableau.append(ints[:-1] + art + ints[-1:])
        reals.append(ints)
        dens.append(d)
    basis = [nvars + i for i in range(nrows)]

    # Phase 1: maximize -(sum of artificials), priced out over the lcm of
    # the row denominators; the artificial columns price out to zero.
    lcm = math.lcm(*dens)
    reals = [tr if d == lcm else [x * (lcm // d) for x in tr] for tr, d in zip(reals, dens)]
    obj1 = [sum(col) for col in zip(*reals)] if nrows else [0] * (nvars + 1)
    obj1 = _iterate(tableau, basis, obj1[:-1] + [0] * nrows + obj1[-1:])
    if obj1[-1] != 0:
        raise SimplexError("infeasible program")
    # The artificial columns are barred from here on and never read again.
    tableau = [tr[:nvars] + tr[-1:] for tr in tableau]
    # Drive leftover artificials out of the (degenerate) basis.
    for r in range(nrows - 1, -1, -1):
        if basis[r] >= nvars:
            col = next((j for j in range(nvars) if tableau[r][j]), None)
            if col is None:
                del tableau[r]
                del basis[r]
            else:
                _pivot(tableau, basis, r, col)

    # Phase 2: original objective over the real columns.
    obj2 = _integer_row([*c, 0])[0]
    for r, bi in enumerate(basis):
        if obj2[bi]:
            obj2 = eliminate(obj2, tableau[r], bi, _nonzero(tableau[r]))
    _iterate(tableau, basis, obj2)

    x = [Fraction(0)] * nvars
    for r, bi in enumerate(basis):
        x[bi] = Fraction(tableau[r][-1], tableau[r][bi])
    return sum((c[j] * x[j] for j in basis if c[j]), Fraction(0)), x
