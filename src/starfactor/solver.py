"""Brute-force membership oracle for the uniform star-weighting family.

A graph belongs to the family iff some strictly positive edge-weighting
gives every star-factor the same total weight.  Writing x_i for the
factor incidence vectors, that is a strictly positive solution of
(x_i - x_1).w = 0 for all i, that is D w = 0 for the difference matrix
D with rows x_i - x_1 (i >= 2).  The decision reads the factors as the
edge masks the enumerator returns (x_i is mask i's bits), and an
incidence vector is never built for a factor the decision does not
read.  It is exact and never uses floating point.  It goes in this
order:

1. Every factor has the same edge count (the masks' bit counts): w = 1
   is a solution, and the all-ones witness is returned before any row
   of D is formed.
2. Otherwise a fraction-free elimination in integers reduces D to a
   basis B of its row space (primitive rows, positive pivots).  D is
   never stored: each row is read off its mask only as the scan asks
   for it.  A one-signed row of B is nonnegative and nonzero, and no
   positive w is orthogonal to it: it is the certificate.  So the scan
   ends right after the first row that leaves a one-signed row in B,
   which on K7 is the 4th of its 846 rows.  A full-rank B is the
   identity, so reaching full rank is one such stop, and a scan that
   meets no one-signed row, as every member's does, reads all of D.  A
   row's reduction against B is linear in the row, so it is kept packed:
   one int per edge holds the reduced unit row in fields of W bits, with
   W wide enough that every reduced entry is a unique balanced base-2^W
   digit.  The sum of those ints over a mask's edges, less the sum over
   x_1's, is then zero exactly when the row lies in the span of B (14 of
   the 14-vertex double star's 19 rows do), and only a row that enters B
   is unpacked into its entries.
3. Otherwise LP1,

     maximize t  subject to  B w = 0,  w_e >= t,  w_e <= 1,

   has optimum t > 0 exactly when a positive solution exists (the
   system is homogeneous, so any positive solution scales into the box).
   B is block-diagonal: two rows share a block when they are nonzero in
   a shared column, and the blocks share no variable, so LP1 runs on
   each block's columns alone and t is the least of their optima.  Each
   block's weights are scaled to minimum 1, and an edge in no row of B
   (in every factor or in none) weighs 1.  A block of one row b needs no
   LP: with P and N the sums of b's positive entries and of its negative
   ones' absolute values, t* = min(P, N) / max(P, N) > 0 is tight at
   every inequality, so the side with the larger sum weighs 1 and the
   other max(P, N) / min(P, N) (``_one_row_weights``).  On the 14-vertex
   double star one LP1 of 35 rows over 46 variables becomes one LP1 of
   13 x 16 and two blocks of one row decided in closed form.
4. At the first block whose optimum is t = 0, Stiemke's alternative
   guarantees a nonnegative nonzero vector y.B in that block's row
   space, and LP2 on that block alone finds y.  With y zero on every
   other row, y.B is a certificate for the whole of B.  A one-row block
   never has t* = 0, so LP2 runs only on blocks of two or more rows.

Only for a certificate are its coefficients on the rows of D recovered.
They are the unique solution of one r x r integer system read off the
masks' bits, whose leading minors are all nonzero, so Bareiss's
fraction-free elimination (Math. Comp. 22, 1968) solves it with no
pivot search, and integer back substitution gives every coefficient
over the one denominator det * scale.  The certificate is then
checkable without trusting the simplex or the masks: ``verify_outcome``
re-checks a witness or a certificate from 0/1 incidence vectors alone,
in integer sums.
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice
from operator import mul
from typing import Iterable, Sequence

from . import simplex
from .factors import (
    DEFAULT_CAP,
    CapExceeded,
    IncidenceVector,
    VacuousGraph,
    enumerate_star_factors,
    mask_bits,
)
from .graph import Graph, induced_components

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Weighting:
    """Strictly positive rational edge weights, indexed by edge index."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # a Fraction's denominator is positive: its sign is its numerator's
        if any(w.numerator <= 0 for w in self.weights):
            raise ValueError("all edge weights must be strictly positive")

    @property
    def integral(self) -> tuple[int, ...]:
        """The same weighting scaled by the LCM of denominators to integers."""
        ratios = [w.as_integer_ratio() for w in self.weights]
        scale = math.lcm(*{d for _, d in ratios})
        return tuple([p * (scale // d) for p, d in ratios])

    @classmethod
    def constant(cls, m: int) -> "Weighting":
        return cls((ONE,) * m)


@dataclass(frozen=True)
class Witness:
    """A uniform weighting: every factor totals ``common_weight``."""

    weighting: Weighting
    common_weight: Fraction


@dataclass(frozen=True)
class Refutation:
    """Stiemke certificate: a nonnegative nonzero combination of rows.

    ``forced_zero`` equals sum of coeffs[i] * (x_{i+1} - x_1) entrywise;
    every equal-weight w would satisfy forced_zero.w = 0, which no
    strictly positive w can.
    """

    coeffs: tuple[Fraction, ...]
    forced_zero: tuple[Fraction, ...]


FeasibilityOutcome = Witness | Refutation


def witness_json(g: Graph, weighting: Weighting) -> list[dict]:
    """One {u, v, weight} object per edge, weights scaled to integers."""
    return [
        {"u": u, "v": v, "weight": w} for (u, v), w in zip(g.edges, weighting.integral)
    ]


def certificate_json(refutation: Refutation) -> dict:
    """The certificate's nonzero coefficients and its forced-zero vector."""
    return {
        "coeffs": [[i, str(c)] for i, c in enumerate(refutation.coeffs) if c != ZERO],
        "forcedZero": [str(x) for x in refutation.forced_zero],
    }


class Verdict(enum.Enum):
    """Membership verdict of the oracle, the classifier and the CLI."""

    MEMBER = "Member"
    NOT_MEMBER = "NotMember"
    VACUOUS = "Vacuous"
    CAP_EXCEEDED = "CapExceeded"


@dataclass(frozen=True)
class OracleResult:
    verdict: Verdict
    witness: Witness | None = None
    refutation: Refutation | None = None
    factor_count: int | None = None


@functools.lru_cache(maxsize=256)
def _places(width: int, m: int) -> tuple[tuple[int, ...], int]:
    """Place values 2^(f W) of fields 0..m-1 of ``width`` bits, and their
    sum times 2^(W - 1)."""
    powers = tuple(1 << f * width for f in range(m))
    return powers, sum(powers) << width - 1


def _reduce_rows(
    first: bytes, masks: Iterable[int]
) -> tuple[list[list[int]], list[int], list[int], int | None]:
    """Fraction-free row basis of the rows of D that the scan reads, read
    off edge masks.

    D has one row x - x_1 for each mask that ``masks`` yields, with x the
    mask's bits and x_1 = ``first`` the first factor's (``mask_bits``).
    Returns (rows, pivots, used, stop): each row is a primitive integer
    row, positive at its own pivot column and zero at the other rows' pivot
    columns, used[j] is the index of the D row that entered the basis as
    row j, and stop is the index of the basis's first nonnegative row, or
    None when the scan read all of D and met none.  Dividing each row by
    its pivot entry gives the unique reduced basis of the space the rows
    read span, with identity on the pivot columns.

    Since every basis row b_j is zero at the other rows' pivots p_k, an
    incoming row x reduces to the one combination
    phi(x) = L x - sum_j (L / b_j[p_j]) x[p_j] b_j, with L the lcm of the
    pivot entries.  phi(x) is zero on every pivot column, and it is zero
    exactly when x lies in the span of the basis.  phi is linear, so it
    is kept packed, one int per column e: P[e] = sum_f phi(u_e)[f] 2^(f W)
    for the unit row u_e, which is L 2^(e W) on a free column and
    L 2^(p_j W) - (L / b_j[p_j]) sum_f b_j[f] 2^(f W) on the pivot p_j.
    phi(x) then packs to the sum of P over x's ones less base, the sum of
    P over x_1's ones.  The entries of x are in {-1, 0, 1}, so with r
    basis rows every |phi(x)[f]| is at most L (1 + r max|b|), and W is
    kept so that this bound is below 2^(W - 1).  Digits in
    (-2^(W - 1), 2^(W - 1)) in base 2^W are unique, so the packed sum is
    zero exactly when every entry of phi(x) is: one sum decides that a
    row adds nothing.  A row that enters is unpacked into its entries,
    made primitive and cleared from the basis.  When the next row is
    read, P changes only at the pivots of the basis rows that changed and
    at the new pivot; when L changes or the bound outgrows W, every
    column is packed again, with 2^(W - 1) at least 2^16 times the bound.
    The rows are read one at a time, and the scan stops right after the
    first row that leaves a nonnegative row in the basis, which is then a
    certificate; no later row is requested.  Only the new row and the rows
    that clearing its pivot changed can have turned nonnegative, so only
    they are tested, in increasing order: every other row was tested
    before, so the first of them that passes is the basis's first
    nonnegative row.  A basis with as many rows as D has columns is the
    identity, so the scan stops at full rank too, and a scan that never
    meets a nonnegative row reads every row of D.
    """
    m = len(first)
    rows: list[list[int]] = []
    pivots: list[int] = []
    used: list[int] = []
    heads: list[int] = []  # heads[j] = b_j[p_j]
    lcm = 1
    top = 0  # no basis entry is larger in absolute value
    width = 18  # W for the bound 1 of an empty basis
    powers, offset = _places(width, m)
    half, ones = 1 << width - 1, (1 << width) - 1
    packed = list(powers)  # P[e] = 2^(e W) while the basis is empty
    base = sum(compress(packed, first))
    changed: list[int] = []  # the rows whose P[p_j] is out of date
    for i, mask in enumerate(masks):
        if changed:
            # P catches up with the last row to enter only when a row follows
            touched = [rows[j] for j in changed]
            top = max(top, max(map(max, touched)), -min(map(min, touched)))
            new_lcm = math.lcm(*heads)
            bound = new_lcm * (1 + len(rows) * top)
            if new_lcm == lcm and bound.bit_length() < width:
                for j, brow in zip(changed, touched):
                    p = pivots[j]
                    value = lcm * powers[p] - lcm // heads[j] * sum(map(mul, brow, powers))
                    if first[p]:
                        base += value - packed[p]
                    packed[p] = value
            else:
                lcm = new_lcm
                width = bound.bit_length() + 17
                powers, offset = _places(width, m)
                half, ones = 1 << width - 1, (1 << width) - 1
                packed = [lcm * power for power in powers]
                for brow, p, head in zip(rows, pivots, heads):
                    packed[p] -= lcm // head * sum(map(mul, brow, powers))
                base = sum(compress(packed, first))
            changed = []
        reduced = sum(compress(packed, mask_bits(mask, m))) - base
        if not reduced:
            continue
        # adding 2^(W - 1) to every digit makes each one a W-bit field
        fields = reduced + offset
        row = [(fields >> k & ones) - half for k in range(0, m * width, width)]
        # the lowest set bit lies in the lowest nonzero digit's field
        pivot = ((reduced & -reduced).bit_length() - 1) // width
        row = simplex.primitive(row, pivot)
        # clear the new pivot column from the existing basis rows
        for j, brow in enumerate(rows):
            if brow[pivot]:
                rows[j] = brow = simplex.eliminate(brow, row, pivot)
                heads[j] = brow[pivots[j]]
                changed.append(j)
        changed.append(len(rows))
        rows.append(row)
        pivots.append(pivot)
        used.append(i)
        heads.append(row[pivot])
        for j in changed:
            if min(rows[j]) >= 0:
                return rows, pivots, used, j
    return rows, pivots, used, None


def _refutation(
    masks: Sequence[int],
    ys: Sequence[Fraction],
    rows: list[list[int]],
    pivots: list[int],
    used: list[int],
) -> Refutation:
    """The certificate y.B with B the reduced basis, and its coefficients on D.

    y.B is summed in integers over one common denominator.  The used D
    rows are independent, so the coefficients c are unique; on the pivot
    columns y.B equals y, so they solve the r x r system A c = y with
    A[j][t] = D[used_t][pivot_j], read off the factors' edge masks as
    bit p of x_{used_t+2} less bit p of x_1.  Its k-th leading minor, the
    first k used rows read on the first k pivots, is nonzero: those rows
    span the basis as it stood when the k-th of them entered, and that
    basis is zero at each other's pivots and nonzero at its own.  So
    Bareiss's fraction-free elimination runs without row exchanges: each
    step divides exactly by the step before's pivot, and the last pivot is
    the determinant det.
    An equation whose pivot would be negative is negated, which changes no
    solution; with consecutive pivots equal, a row with no entry to clear
    stays as it is.  Integer back substitution on A c = scale * y, scale
    the lcm of y's denominators, then gives X = det * scale * c (Cramer's
    rule), and c = X / (det * scale).
    """
    # forced_zero = sum_j y_j b_j / b_j[p_j], times the lcm of those denominators
    terms = [(y, row, y.denominator * row[p]) for y, row, p in zip(ys, rows, pivots) if y]
    denominator = math.lcm(*(d for _, _, d in terms))
    totals = [0] * len(rows[0])
    for y, row, d in terms:
        weight = y.numerator * (denominator // d)
        totals = [total + weight * x for total, x in zip(totals, row)]
    forced = tuple(Fraction(total, denominator) if total else ZERO for total in totals)

    r = len(rows)
    scale = math.lcm(*(y.denominator for y in ys))
    first = masks[0]
    columns = [masks[t + 1] for t in used]
    a = []
    for y, p in zip(ys, pivots):
        x1 = first >> p & 1
        a.append([(x >> p & 1) - x1 for x in columns] + [y.numerator * (scale // y.denominator)])
    previous = 1
    for k in range(r - 1):
        head = a[k]
        if head[k] < 0:
            head[k:] = [-x for x in head[k:]]
        pivot = head[k]
        tail = head[k + 1 :]
        # entries left of k + 1 are never read again, so they keep their values
        for row in a[k + 1 :]:
            f = row[k]
            if f:
                row[k + 1 :] = [(x * pivot - f * h) // previous for x, h in zip(row[k + 1 :], tail)]
            elif pivot != previous:
                row[k + 1 :] = [x * pivot // previous for x in row[k + 1 :]]
        previous = pivot
    det = a[-1][-2]
    xs = [0] * r
    for t in range(r - 1, -1, -1):
        row = a[t]
        xs[t] = (det * row[r] - sum(map(mul, row[t + 1 : r], xs[t + 1 :]))) // row[t]
    coeffs = [ZERO] * (len(masks) - 1)
    for t, x in zip(used, xs):
        coeffs[t] = Fraction(x, det * scale)
    return Refutation(coeffs=tuple(coeffs), forced_zero=forced)


def decide_uniform_weighting(masks: Sequence[int], m: int) -> FeasibilityOutcome:
    """Exact decision: uniform positive weighting, or a Stiemke certificate.

    ``masks`` are the factors' edge masks over m edges (bit e for edge e),
    as ``enumerate_star_factors`` returns them; x_i is mask i's 0/1 vector.
    """
    if not masks:
        raise ValueError("at least one factor edge mask required")
    if min(masks) < 0 or max(masks) >> m:
        raise ValueError(f"edge index out of range for m={m}")
    # Every factor has the same edge count iff D 1 = 0, and then t <= w_e <= 1
    # makes t = 1, w = 1 LP1's unique optimum: its witness is all ones.
    if len(set(map(int.bit_count, masks))) == 1:
        return Witness(weighting=Weighting.constant(m), common_weight=Fraction(masks[0].bit_count()))
    # D's rows x_i - x_1 (i >= 2) are formed only as the row basis reads them.
    first = mask_bits(masks[0], m)
    rows, pivots, used, stop = _reduce_rows(first, islice(masks, 1, None))

    # A one-signed basis row is already a certificate; its pivot entry is
    # positive, so it is nonnegative, and the scan stopped at the first one.
    r = len(rows)
    if stop is not None:
        ys = [ZERO] * r
        ys[stop] = ONE
        return _refutation(masks, ys, rows, pivots, used)

    # B is block-diagonal: rows that share no column, even through other
    # rows, constrain disjoint weights, so each block is its own LP1, and
    # t* is the least of the blocks' optima.  An edge in no row of B is
    # free and weighs 1.
    weights = [ONE] * m
    for block, columns in _blocks(rows, pivots):
        if len(block) == 1:
            # LP1's optimum is a formula there, and it is never 0
            row = rows[block[0]]
            block_weights = _one_row_weights([row[e] for e in columns])
        else:
            # the block's rows of the reduced basis, each divided by its pivot entry
            basis = [
                [row[e] for e in columns]
                if row[p] == 1
                else [Fraction(row[e], row[p]) if row[e] else 0 for e in columns]
                for row, p in ((rows[j], pivots[j]) for j in block)
            ]
            t_opt, x = _lp1(basis)
            if t_opt == ZERO:
                # a certificate for this block's rows is one for B, with y = 0
                # on every other row
                ys = [ZERO] * r
                for j, y in zip(block, _lp2(basis)):
                    ys[j] = y
                return _refutation(masks, ys, rows, pivots, used)
            scale = min(x[: len(columns)])
            block_weights = [w / scale for w in x[: len(columns)]]
        for e, w in zip(columns, block_weights):
            weights[e] = w
    common = sum(w for w, bit in zip(weights, first) if bit)
    return Witness(weighting=Weighting(tuple(weights)), common_weight=Fraction(common))


def _blocks(rows: list[list[int]], pivots: list[int]) -> list[tuple[list[int], list[int]]]:
    """The blocks of the row basis, as (row indices, columns) pairs.

    A block is a component of the graph that joins row j to column r + e
    (r rows) for each nonzero entry of B.  Its sorted vertex tuple lists
    its rows first, in basis order, then its columns, increasing.  The
    blocks come in the order of their lowest pivot column.
    """
    r = len(rows)
    if r == 1:
        # one row is one block, over its nonzero columns
        return [([0], list(compress(range(len(rows[0])), rows[0])))]
    adjacency: dict[int, list[int]] = {}
    for j, row in enumerate(rows):
        adjacency[j] = [r + e for e in compress(range(len(row)), row)]
        for c in adjacency[j]:
            adjacency.setdefault(c, []).append(j)
    blocks = []
    for component in induced_components(adjacency, range(r)):
        k = bisect_left(component, r)
        blocks.append((list(component[:k]), [c - r for c in component[k:]]))
    return sorted(blocks, key=lambda block: min(pivots[j] for j in block[0]))


def _one_row_weights(row: Sequence[int]) -> list[Fraction]:
    """LP1's weights, scaled to minimum 1, for a block of one row b,
    given as b's entries on the block's columns.

    Every entry is nonzero, and b has both signs (a one-signed row is a
    certificate).  Let P be the sum of b's positive entries and N that of
    the absolute values of its negative ones, say P >= N.  Then b.w = 0
    and t <= w <= 1 give t P <= sum_+ b_e w_e = sum_- |b_e| w_e <= N, so
    t* = N / P > 0, and at t* every inequality is tight: w_e = t* on the
    positive side and 1 on the negative side.  That optimum is unique, so
    it is LP1's; scaled to minimum 1, the side with the larger sum weighs 1
    and the other max(P, N) / min(P, N).  The case P < N is symmetric.
    """
    positive = sum(x for x in row if x > 0)
    negative = positive - sum(row)
    if positive >= negative:
        heavy = Fraction(positive, negative)
        return [ONE if x > 0 else heavy for x in row]
    heavy = Fraction(negative, positive)
    return [heavy if x > 0 else ONE for x in row]


def _box_rows(width: int, box: range) -> list[list[int]]:
    """The rows x_j + u_j = 1 (rhs 1) that bound each column j in ``box``
    by 1, over ``width`` columns whose last len(box) are the slacks u_j,
    in the order of ``box``."""
    start = width - len(box)
    rows = []
    for i, j in enumerate(box):
        row = [0] * width
        row[j] = 1
        row[start + i] = 1
        rows.append(row)
    return rows


def _lp1(basis: Sequence[Sequence[Fraction | int]]) -> tuple[Fraction, list[Fraction]]:
    """LP1 over the m columns of ``basis``: maximize t subject to
    B w = 0, w_e >= t, w_e <= 1.  Returns (t*, x) with x[:m] the weights."""
    m = len(basis[0])
    width = 3 * m + 1
    # variables: w_0..w_{m-1}, t, surplus s_e (w_e - t >= 0), slack u_e (w_e <= 1)
    rows: list[list[Fraction | int]] = [[*brow, *[0] * (2 * m + 1)] for brow in basis]
    for e in range(m):
        row = [0] * width
        row[e] = 1
        row[m] = -1
        row[m + 1 + e] = -1
        rows.append(row)
    rhs = [0] * len(rows) + [1] * m
    rows += _box_rows(width, range(m))
    c = [0] * m + [1] + [0] * (2 * m)
    return simplex.solve(c, rows, rhs)


def _lp2(basis: Sequence[Sequence[Fraction | int]]) -> list[Fraction]:
    """LP2: y with y.B >= 0, y.B != 0, one y_j per row of ``basis`` (it
    exists by Stiemke's alternative when LP1's optimum is 0)."""
    r, m = len(basis), len(basis[0])
    # variables: p_j, q_j (y_j = p_j - q_j), s_e = (y.B)_e, slack u_e (s_e <= 1)
    width = 2 * r + 2 * m
    rows: list[list[Fraction | int]] = []
    for e in range(m):
        row = [0] * width
        for j, brow in enumerate(basis):
            row[j] = brow[e]
            row[r + j] = -brow[e]
        row[2 * r + e] = -1
        rows.append(row)
    rhs = [0] * m + [1] * m
    rows += _box_rows(width, range(2 * r, 2 * r + m))
    c = [0] * (2 * r) + [1] * m + [0] * m
    total, x = simplex.solve(c, rows, rhs)
    if total <= ZERO:
        raise AssertionError("Stiemke alternative violated: no certificate found")
    return [x[j] - x[r + j] for j in range(r)]


def verify_outcome(vectors: Sequence[IncidenceVector], outcome: FeasibilityOutcome) -> bool:
    """Independent exact re-check of the Witness/Refutation invariants.

    It reads only the vectors and the outcome.  A Witness's weights, or a
    Refutation's nonzero coefficients, are scaled by L, the lcm of their
    denominators; every sum is taken in ints and compared with L times
    the stated common weight or forced-zero entry.  Vectors of unequal
    lengths are rejected.
    """
    if not vectors or len(set(map(len, vectors))) != 1:
        return False
    m = len(vectors[0])
    if isinstance(outcome, Witness):
        w = outcome.weighting.weights
        if len(w) != m or any(x <= ZERO for x in w):
            return False
        scale = math.lcm(*(x.denominator for x in w))
        ints = [x.numerator * (scale // x.denominator) for x in w]
        common = outcome.common_weight
        target, rest = divmod(common.numerator * scale, common.denominator)
        return not rest and all(sum(map(mul, ints, vec)) == target for vec in vectors)
    if isinstance(outcome, Refutation):
        if len(outcome.coeffs) != len(vectors) - 1:
            return False
        if len(outcome.forced_zero) != m:
            return False
        terms = [(c, vec) for c, vec in zip(outcome.coeffs, vectors[1:]) if c]
        if not terms:
            return False
        scale = math.lcm(*(c.denominator for c, _ in terms))
        ints = [c.numerator * (scale // c.denominator) for c, _ in terms]
        total = sum(ints)
        # scale * forced_zero = sum_i ints_i * x_i - (sum_i ints_i) * x_1
        forced = [
            sum(map(mul, ints, column)) - total * x
            for column, x in zip(zip(*(vec for _, vec in terms)), vectors[0])
        ]
        if any(
            stated.numerator * scale != value * stated.denominator
            for stated, value in zip(outcome.forced_zero, forced)
        ):
            return False
        return all(x >= 0 for x in forced) and any(forced)
    return False


def omega_oracle(g: Graph, cap: int = DEFAULT_CAP) -> OracleResult:
    """Full brute-force decision for one graph."""
    try:
        factors = enumerate_star_factors(g, cap=cap)
    except VacuousGraph:
        return OracleResult(verdict=Verdict.VACUOUS)
    except CapExceeded:
        return OracleResult(verdict=Verdict.CAP_EXCEEDED)
    outcome = decide_uniform_weighting(factors, g.m)
    if isinstance(outcome, Witness):
        return OracleResult(
            verdict=Verdict.MEMBER, witness=outcome, factor_count=len(factors)
        )
    return OracleResult(
        verdict=Verdict.NOT_MEMBER, refutation=outcome, factor_count=len(factors)
    )
