"""Norms and inner products of the two-dimensional discrepancy function.

For a point multiset P of size N the discrepancy function is

    D(x, y) = #{p in P : p_x <= x, p_y <= y}  -  N * x * y

(closed boxes).  The counting part is constant on the open cells of the
grid cut by the point coordinates, so on each cell D = c - N*x*y with an
integer c, and every norm reduces to closed-form cell integrals.

The three exact norms read the set's one O(N) grid, `PointSet.grid`: the
sorted distinct cuts of each axis, 0 and 1 included, as the set's own
integer numerators over the axis's denominator D (`PointSet.axes`), and
each x cut's sorted y ranks.  L1 also reads each cut in lowest terms,
one gcd per cut (`pointsets._lowest`), for its logs.  With
K x-cuts and L y-cuts (K, L <= N + 2), L1 and L-infinity read the closed
prefix counts one column at a time, in O(N) memory: one running row of
point counts per y rank takes each x cut's points in turn, and a column
is its prefix sums (`_columns`).

  * L-infinity, O(K L) at worst: the sup is attained at (or as a
    one-sided limit toward) a grid corner.  At corner (i, j) the closed
    count is entry j of column i and the strict count is entry j - 1 of
    column i - 1.  The x = 0 column's counts are its exact deviations and
    seed the maximum.  Every other corner's deviation is computed in
    floats with a derived error bound E, and only a corner within 2E of
    the largest float deviation so far is compared exactly, by
    cross-multiplying the cuts' numerators over the two D's (a
    filtered predicate: Shewchuk, DCG 1997; Bronnimann, Burnikel & Pion,
    1998).  Before a column is built, each of its two sides (closed and
    strict) takes a float bound on its exact maximum, carried from the
    last column by the most the points between can raise it; a side whose
    bound is below the largest float deviation less E cannot hold the
    maximum and is not built: on 512 random points, 140 prefix sums are
    taken for the 513 columns past x = 0.  (Dobkin, Eppstein & Mitchell,
    ACM TOG 1996, reach O(N log^2 N).)
  * L1, O(K L) integer additions: |c - N*x*y| integrates in closed form.
    On a cell that the hyperbola xy = c/N misses, the integral is
    +-[c dx dy - N/4 d(x^2) d(y^2)], a product of an x factor and a y
    factor, so the signed y factors are summed per column as integers and
    multiplied by the column's x factors once.  A cell the hyperbola
    crosses adds a correction whose rational part is a polynomial in the
    column's two x cuts with coefficients from the row, also summed per
    column in integers, and whose log part (c^2/N) ln(x_hi/x_lo) splits
    into integer multiples of the logs of the cuts' numerators and
    denominators, of c and of N.  Split into powers of two and odd parts,
    the whole integral is one Fraction plus one integer linear form in the
    logs of 2 and of odd integers (exact rational when no cell has a sign
    change).  It is enclosed once, at L1_DPS digits: one raw mpmath.libmp
    interval log per integer at a precision set by its coefficient, the
    ends summed exactly and rounded outward once, at most 2 ulps wide, no
    global state (`_interval`, the one module that imports mpmath, which
    `l1_norm` loads only when a cell is crossed).  The enclosure's exact
    midpoint and half-width are the norm's value and error.
  * L2, O(N log N) operations on integers of the axis integers' size: the
    pairwise closed form (sums of (1 - max) products), summed in x order
    with a Fenwick tree of integer numerators over the y ranks (Heinrich,
    Math. Comp. 1996).  It reads no column.

The norms are returned as Fractions, or for an inexact L1 as an mpf
midpoint and half-width (`L1Norm`); `cli` prints them.

L1 and L-infinity raise ResourceLimitError on a grid of more than
MAX_GRID_CELLS cells, before any column is built; L2 has no cell budget.
The integers' own budget, `pointsets.MAX_AXIS_BITS`, is checked when a
set is made.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, compress
from operator import sub, truediv
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import ResourceLimitError
from .pointsets import CellDecomposition, PointSet, _lowest

if TYPE_CHECKING:
    from mpmath import mpf

# About N = 4096 points with distinct coordinates.
MAX_GRID_CELLS = 1 << 24
# The one precision of the L1 enclosure, at most 2 ulps, 2^(2 - prec) of
# its value, wide (`_interval._l1_enclosure`).  `cli` prints 17 digits of
# its midpoint, and 3 digits more keep all 17 backed by the enclosure
# (dps_to_prec(20) is 70 bits); 1e-12 alone would need only 42 bits, 12
# digits.
L1_DPS = 20


def _check_grid_budget(grid: CellDecomposition) -> None:
    """ResourceLimitError on a grid of more than MAX_GRID_CELLS cells.

    L1 and L-infinity call it first, before any column is built.
    """
    if (cells := (len(grid.x_cuts) - 1) * (len(grid.y_cuts) - 1)) > MAX_GRID_CELLS:
        raise ResourceLimitError(f"grid of {cells} cells exceeds the {MAX_GRID_CELLS}-cell budget")


def _columns(grid: CellDecomposition) -> Iterator[list[int]]:
    """The closed prefix counts, one column per x cut, in order.

    Column i holds #{p : rank_x(p) <= i, rank_y(p) <= j} at every y cut j,
    which below the last cuts is also the count on the open cell with
    lower-left corner (x_cuts[i], y_cuts[j]).  One running row holds the
    number of points at each y rank on the x cuts read so far: each x
    cut's points are added to it, and the column is its prefix sums, one
    C pass.  The caller checks the grid budget first.
    """
    row = [0] * len(grid.y_cuts)
    for js in grid.y_ranks:
        for j in js:
            row[j] += 1
        yield list(accumulate(row))


def l2_norm_sq(ps: PointSet) -> Fraction:
    """Exact squared L2 norm of D via the pairwise closed form

        sum_{p,q} (1 - max(p_x, q_x)) (1 - max(p_y, q_y))
            - N/2 sum_p (1 - p_x^2)(1 - p_y^2) + N^2/9,

    with the pair sum taken in O(N log N): points are visited by increasing
    x, so every earlier point q has 1 - q_x >= 1 - p_x, and a Fenwick tree
    over the y ranks holds the count and the sum of 1 - q_y of the earlier
    points.  Coordinates are the grid's integer numerators over each axis's
    denominator; one Fraction is built at the end.
    """
    n = len(ps)
    grid = ps.grid
    (qx, _), (qy, _) = ps.axes
    xi, yi = grid.x_cuts, grid.y_cuts
    size = len(yi)
    tree_count = [0] * (size + 1)
    tree_sum = [0] * (size + 1)
    seen_sum = pair = single = 0
    for i, js in enumerate(grid.y_ranks):
        u, u2 = qx - xi[i], qx * qx - xi[i] * xi[i]
        for j in js:
            v = qy - yi[j]
            below_count = below_sum = 0
            r = j + 1
            while r:
                below_count += tree_count[r]
                below_sum += tree_sum[r]
                r &= r - 1
            # min(1 - p_y, 1 - q_y) is 1 - q_y for earlier q above p, else 1 - p_y
            pair += u * (v + 2 * (seen_sum - below_sum + v * below_count))
            seen_sum += v
            r = j + 1
            while r <= size:
                tree_count[r] += 1
                tree_sum[r] += v
                r += r & -r
            single += u2 * (qy * qy - yi[j] * yi[j])
    q2 = (qx * qy) ** 2
    return Fraction(18 * pair * qx * qy - 9 * n * single + 2 * n * n * q2, 18 * q2)


class L1Norm(NamedTuple):
    """L1 norm of D with a rigorous error bound.

    `value` is a Fraction when every cell integrates rationally (no sign
    change anywhere), with `error` 0; otherwise the mpf midpoint of an
    enclosure at L1_DPS digits, and `error` its half-width, both exact, so
    [value - error, value + error] is the enclosure itself.
    `sign_change_cells` counts cells whose integral needed the logarithmic
    antiderivative.
    """

    value: Fraction | mpf
    error: Fraction | mpf
    exact: bool
    sign_change_cells: int


class L1Form(NamedTuple):
    """The L1 integral as rational + (sum of coeff * ln(m)) / n.

    `logs` holds (coeff, m) pairs: each coefficient is a nonzero integer
    and each m a distinct integer, 2 or odd and at least 3.
    `crossed` counts the cells the hyperbola crosses.  Each of them adds a
    positive (k^2/n) ln(x_hi / x_lo), so the log sum is positive when
    `crossed` is and empty when it is 0.
    """

    rational: Fraction
    logs: tuple[tuple[int, int], ...]
    n: int
    crossed: int


def _l1_form(ps: PointSet) -> L1Form:
    """The L1 integral split into an exact rational and a linear form in logs.

    Every cell contributes s * [k (b-a)(d-c) - N/4 (b^2-a^2)(d^2-c^2)] with
    s = -1 where c - Nxy <= 0 on the whole cell, and s = +1 elsewhere
    (c - Nxy >= 0 on the whole cell, or the hyperbola crosses it; the two
    tests cannot both hold because a c < b d).  In integers over the axis
    denominators that is s [k dX dY / (Qx Qy) - N dX2 dY2 / (4 Qx^2 Qy^2)],
    so per column only s k dY and s dY2 are summed, and no two
    common-denominator integers are multiplied per cell.

    A crossed cell adds 2 (Nxy - k)^+.  The hyperbola xy = t = k/N enters
    it at x_lo = max(a, t/d) and leaves at x_hi = min(b, t/c), and the
    correction is U(x_hi) - L(x_lo) + (k^2/N) ln(x_hi / x_lo) with

        U(b) = N/2 b^2 d^2 - 2 k b d,
        U(t/c) = N/2 b^2 (d^2 - c^2) - 2 k b (d - c) - 3 k^2 / (2N),
        L(a) = N/2 a^2 d^2 - 2 k a d,
        L(t/d) = -3 k^2 / (2N),

    where U(t/c) takes in the strip t/c < x < b, in which the whole cell
    lies above the hyperbola.  With a = A/Qx and b = B/Qx fixed per
    column, the crossed cells add D^2 or D^2 - C^2, k D or k (D - C), and
    k^2 to integer column sums, which meet B^2, A^2, B and A once per
    column.  The log splits as ln x_hi - ln x_lo, with
    ln(t/c) = ln(k/N) - ln c, so each crossed cell adds +-k^2 to the
    integer coefficients of three kinds of log: x cuts, y cuts and k/N.
    Each of those goes to the integers of ln p - ln q or ln k - ln N, each
    split once into a power of two and an odd part.
    """
    grid = ps.grid
    _check_grid_budget(grid)    # before any column is built
    columns = _columns(grid)
    n = len(ps)
    (qx, _), (qy, _) = ps.axes
    xi, yi = grid.x_cuts, grid.y_cuts
    xs, ys = [_lowest(a, qx) for a in xi], [_lowest(b, qy) for b in yi]
    y_sq = [v * v for v in yi]
    rows = [(j, yi[j + 1] - yi[j], y_sq[j + 1] - y_sq[j], *ys[j], *ys[j + 1])
            for j in range(len(ys) - 1)]
    x_logs = [0] * len(xs)
    y_logs = [0] * len(ys)
    k_logs = [0] * (n + 1)
    sum_kdxdy = sum_dx2dy2 = 0
    # crossed cells: sum_sq meets N / (2 Qx^2 Qy^2) and sum_lin -2 / (Qx Qy)
    sum_sq = sum_lin = crossed = 0
    # zip stops before the x = 1 column, which holds no cell
    for i, counts in zip(range(len(xs) - 1), columns):
        (an, ad), (bn, bd) = xs[i], xs[i + 1]
        n_an, n_bn = n * an, n * bn
        col_kdy = col_dy2 = 0
        hi_sq = hi_lin = lo_sq = lo_lin = hi_log = lo_log = 0
        # zip stops before the y = 1 column, which holds no cell
        for (j, dy, dy2, cn, cd, dn, dd), k in zip(rows, counts):
            if k * ad * cd <= n_an * cn:        # k/N <= a c: c - Nxy <= 0 on the cell
                col_kdy -= k * dy
                col_dy2 -= dy2
                continue
            col_kdy += k * dy
            col_dy2 += dy2
            if k * bd * dd >= n_bn * dn:        # k/N >= b d: c - Nxy >= 0 on the cell
                continue
            crossed += 1
            kk = k * k
            if k * bd * cd < n_bn * cn:         # t < b c: x_hi = t/c
                hi_sq += dy2
                hi_lin += k * dy
                k_logs[k] += kk
                y_logs[j] -= kk
            else:                               # x_hi = b
                hi_sq += y_sq[j + 1]
                hi_lin += k * yi[j + 1]
                hi_log += kk
            if k * ad * dd <= n_an * dn:        # t <= a d: x_lo = a
                lo_sq += y_sq[j + 1]
                lo_lin += k * yi[j + 1]
                lo_log += kk
            else:                               # x_lo = t/d
                k_logs[k] -= kk
                y_logs[j + 1] += kk
        sum_kdxdy += (xi[i + 1] - xi[i]) * col_kdy
        sum_dx2dy2 += (xi[i + 1] * xi[i + 1] - xi[i] * xi[i]) * col_dy2
        sum_sq += xi[i + 1] * xi[i + 1] * hi_sq - xi[i] * xi[i] * lo_sq
        sum_lin += xi[i + 1] * hi_lin - xi[i] * lo_lin
        x_logs[i + 1] += hi_log
        x_logs[i] -= lo_log
    q = qx * qy
    # the -+3 k^2 / (2N) of each hyperbola end, whose ln(k/N) gets +-k^2
    sum_k2 = -sum(k_logs)
    rational = Fraction(
        n * (4 * q * sum_kdxdy - n * sum_dx2dy2 + 2 * n * sum_sq - 8 * q * sum_lin)
        + 6 * q * q * sum_k2,
        4 * q * q * n,
    )
    cuts = chain(zip(xs, x_logs), zip(ys, y_logs))
    # ln(p/q) = ln p - ln q and ln(k/N) = ln k - ln N, so ln N takes -sum(k_logs) = sum_k2
    terms = chain(chain.from_iterable(((p, c), (q, -c)) for (p, q), c in cuts if c),
                  compress(enumerate(k_logs), k_logs), [(n, sum_k2)])
    coeffs: dict[int, int] = {}
    for m, c in terms:
        if twos := (m & -m).bit_length() - 1:
            coeffs[2] = coeffs.get(2, 0) + c * twos
        coeffs[m >> twos] = coeffs.get(m >> twos, 0) + c
    logs = tuple((c, m) for m, c in coeffs.items() if c and m > 1)     # ln 1 = 0
    return L1Form(rational, logs, n, crossed)


def l1_norm(ps: PointSet) -> L1Norm:
    """L1 norm of D; exact rational, or certified to a relative 1e-12.

    Closed-form integration summed in integers; the linear form in logs is
    enclosed once by `_interval._l1_enclosure`, at L1_DPS digits, and its
    ends' sum and difference are taken exactly and halved by a shift, and
    compared as Fractions; an exact result loads no mpmath.
    """
    form = _l1_form(ps)
    if not form.crossed:
        return L1Norm(form.rational, Fraction(0), True, 0)
    from ._interval import _fraction, _l1_enclosure, mp

    lo, hi = _l1_enclosure(form, L1_DPS)
    mid = mp.ldexp(mp.fadd(lo, hi, exact=True), -1)
    err = mp.ldexp(mp.fsub(hi, lo, exact=True), -1)
    if _fraction(err) * 10 ** 12 > _fraction(mid):
        raise ArithmeticError(f"the L1 enclosure at {L1_DPS} digits is wider than 1e-12 of its value")
    return L1Norm(mid, err, False, form.crossed)


def linf_norm(ps: PointSet) -> Fraction:
    """Exact sup of |D| over the closed square.

    The sup of D over a region of constant count sits at the lower-left
    corner (closed count); the sup of -D is the one-sided limit into the
    upper-right corner (strict count).  At corner (i, j), on x cut x_i and
    y cut y_j, the closed side's candidate is A_i(j) = C_i(j) - N x_i y_j
    and the strict side's is B_i(j) = N x_i y_j - C_(i-1)(j-1), where C_i
    is column i of the closed prefix counts (`_columns`); the larger is
    the corner's candidate.  One running row of point counts per y rank
    takes each x cut's points in turn, and a column C_i is its prefix
    sums: those before x_i's points are added give the strict counts of
    column i, shifted down one y cut, and those after give its closed
    counts.  Each is built only when its side can still hold the maximum,
    and column i's strict counts are [0, *C_(i-1)[:-1]], with no prefix
    sums taken, when column i - 1's closed side was built.

    The x = 0 column is read exactly: there Nxy = 0 and every strict
    count is 0, so each candidate is its closed count, and the column's
    largest is its last entry, the number of points on x = 0 (y = 1
    included).  It seeds the maximum, and it is also the exact maximum of
    that column's closed side; its strict side's maximum is 0.  Elsewhere
    each candidate is first computed in floats, c' = closed - v or
    v - strict with v = (N * fx) * fy, and the exact
    cross-multiplied comparison runs only for a corner that the float
    filter cannot rule out.  The filter is rigorous, with E = 6 u N and
    u = 2^-53 (N < 2^48, so N, the counts, E and 4E are exact floats):

      * a cut's float fx is a / D for its numerator a over its axis's
        D, an int true division, which is correctly rounded, as each float
        product and difference is: fl(t) = t (1 + d) + e with |d| <= u
        and |e| <= 2^-1075, where e != 0 only when t underflows.  As
        0 <= x, y <= 1 and N is exact, 0 <= fx, fy <= 1 and
        0 <= N fx <= N, so
        |v - Nxy| <= |fl(P fy) - P fy| + |fl(N fx) - N fx| fy
                     + N |fx - x| fy + N x |fy - y|
                  <= 4 u N + (N + 1) 2^-1074   (P = fl(N fx)).
      * closed, strict and v lie in [0, N], so each difference adds at
        most u N: |c' - c| <= 5 u N + (N + 1) 2^-1074 <= E.  The absolute
        term, from a float that underflows (x = 2^-1000 and y = 2^-60
        make v subnormal), is at most u N for every N >= 1.  Rounding to
        nearest is symmetric, so closed - v is exactly -(v - closed).

    The 2E step.  Let h be the largest of the seed and of every c' seen
    so far, this side's included.  Some corner K has candidate h, and its
    exact candidate is c_K >= h - E (c_K = h for the seed).  A corner is
    compared exactly only when c' >= fl(h - 2E).  Rounding is monotone
    and c' is a float, so a skipped corner has c' < h - 2E in the reals,
    and c <= c' + E < h - E <= c_K: it lies strictly below another
    corner and is not the maximum.  A corner M of maximal c is never
    skipped, since c'_M >= c_M - E >= c_K - E >= h - 2E.  The exact
    comparisons thus see a maximal corner, and the result is the exact
    scan's.  A side whose largest c' is below fl(h - 2E) is skipped
    whole; in the others `itertools.compress` picks the corners that
    clear it, so the Python loop visits only those.

    The column step.  Before column i each side carries a float bound on
    its exact maximum over column i - 1, and a side is built only when
    its bound, raised by the largest rise from column i - 1 to column i,
    is not below fl(h - E); a skipped side's corners all lie below
    h - E <= c_K, so, as above, none is the maximum.  With
    Delta = x_i - x_(i-1), r_1 <= ... <= r_m the y ranks of the points
    on x_i and r'_1 <= ... <= r'_m' those on x_(i-1), the columns differ
    by A_i(j) - A_(i-1)(j) = #{k : r_k <= j} - N Delta y_j and
    B_i(j) - B_(i-1)(j) = N Delta y_j - #{k : r'_k < j}.  The first is
    largest where j is some r_k, or at j = 0; the second where j is some
    r'_(k+1), or at the top cut, y = 1.  So each side's maximum rises by
    at most

        closed:  max over k = 0..m   of k - N Delta y_(r_k),      y_(r_0) = 0,
        strict:  max over k = 0..m'  of N Delta y_(r'_(k+1)) - k,  y_(r'_(m'+1)) = 1,

    which is N Delta on the strict side when x_(i-1) holds no point.  Both
    rises are at least 0.  They are computed from D = fl(P_i - P_(i-1)),
    with P_i = fl(N fx_i) the factor of every v in column i
    (P_0 = 0):

      * |P_i - N x_i| <= 2 u N + (N + 1) 2^-1075, and P_i rises with x_i,
        so 0 <= D <= N and |D - N Delta| <= 5 u N + (N + 1) 2^-1074;
      * fl(D fy) is then within 7 u N + (N + 2) 2^-1073 of N Delta y, the
        difference with k adds u N, and the max of terms errs by at most
        their largest error: each rise is within 9 u N = 1.5 E of exact.

    A bound is the side's exact maximum until the first step (x = 0); a
    built side resets it to fl(top + E), with top its largest c'.  Every
    c there is at most c' + E <= top + E <= N + 2E, so the bound is at
    least the exact maximum less u (N + 2E) <= 2 u N.  A step adds
    fl(rise' + 4E), rise' the float rise, as U' = fl(U + fl(rise' + 4E)).
    While U < 2N the two roundings err by at most u (N + 5.5E) + u 4N
    <= E, so U' >= U + rise' + 3E >= (max - 2 u N) + (rise - 1.5E)
    + 3E > max + rise, the exact maximum of the next column's side: every
    step's bound holds it.  Once U >= 2N, U' >= U stays above every
    candidate, all of which are at most N, and above fl(h - E), as
    h <= N + E.
    """
    grid = ps.grid
    _check_grid_budget(grid)
    n = len(ps)
    bound = math.ldexp(6 * n, -53)          # E, exact in floats
    slack = 4 * bound
    (qx, _), (qy, _) = ps.axes
    den = qx * qy
    y_cuts = grid.y_cuts
    # a cut's float: its numerator's int true division by D, correctly rounded
    y_floats = [truediv(b, qy) for b in y_cuts]
    ranks = grid.y_ranks
    row = [0] * len(y_floats)
    for j in ranks[0]:
        row[j] += 1
    # x = 0: each candidate is its closed count, the largest at y = 1
    best_num, best_den = len(ranks[0]), 1
    high = closed_top = float(best_num)
    strict_top = 0.0
    p_last, ys_last = 0.0, [y_floats[j] for j in ranks[0]]
    closed = None                           # the last column's closed counts, if built
    for a, js in zip(grid.x_cuts[1:], ranks[1:]):
        p = n * truediv(a, qx)
        d = p - p_last
        ys = [y_floats[j] for j in js]
        closed_top += max([k - d * fy for k, fy in enumerate([0.0, *ys])]) + slack
        strict_top += max([d * fy - k for k, fy in enumerate([*ys_last, 1.0])]) + slack
        p_last, ys_last = p, ys
        needed = high - bound               # a side whose bound is below cannot hold the max
        sides = []
        if strict_top >= needed:
            strict = (list(accumulate(row[:-1], initial=0)) if closed is None
                      else [0, *closed[:-1]])
            sides.append((-1, strict))
        for j in js:
            row[j] += 1
        closed = list(accumulate(row)) if closed_top >= needed else None
        if closed is not None:
            sides.append((1, closed))
        if not sides:
            continue
        nxy = list(map(p.__mul__, y_floats))
        n_a = n * a
        for sign, counts in sides:
            # c' = closed - v or v - strict
            approx = list(map(sub, counts, nxy) if sign > 0 else map(sub, nxy, counts))
            top = max(approx)
            if sign > 0:
                closed_top = top + bound
            else:
                strict_top = top + bound
            if top < high - 2 * bound:
                continue
            high = max(high, top)
            threshold = high - 2 * bound
            for b, count in compress(zip(y_cuts, counts), map(threshold.__le__, approx)):
                num = sign * (count * den - n_a * b)        # N x y = n_a b / den
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
    return Fraction(best_num, best_den)
