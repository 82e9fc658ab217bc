"""Norms and inner products of the two-dimensional discrepancy function.

For a point multiset P of size N the discrepancy function is

    D(x, y) = #{p in P : p_x <= x, p_y <= y}  -  N * x * y

(closed boxes).  The counting part is constant on the open cells of the
grid cut by the point coordinates, so on each cell D = c - N*x*y with an
integer c, and every norm reduces to closed-form cell integrals.

The three exact norms read the set's one O(N) grid, `PointSet.grid`: the
sorted distinct cuts of each axis (0 and 1 included, sorted and ranked by
integer keys), each axis's cuts as integers over its common denominator,
and each point's cut ranks.  With K x-cuts and L y-cuts (K, L <= N + 2),
L1 and L-infinity stream the closed prefix counts one column at a time
(`_columns`), in O(N) memory:

  * L-infinity, O(K L): the sup is attained at (or as a one-sided limit
    toward) a grid corner.  At corner (i, j) the closed count is entry j
    of column i and the strict count is entry j - 1 of column i - 1.  The
    x = 0 column's counts are its exact deviations and seed the maximum.
    Every other corner's deviation is computed in floats with a derived
    error bound E, and only a corner within 2E of the largest float
    deviation so far is compared exactly, by cross-multiplying each
    coordinate's own numerator and denominator (a filtered predicate:
    Shewchuk, DCG 1997; Bronnimann, Burnikel & Pion, 1998).  (Dobkin,
    Eppstein & Mitchell, ACM TOG 1996, reach O(N log^2 N).)
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
    change).  It is enclosed once, at max(dps, L1_MIN_DPS) digits: one raw
    mpmath.libmp interval log per integer at a precision set by its
    coefficient, the ends summed exactly and rounded outward once, at most
    2 ulps wide, no global state (`_interval`, the one module that
    imports mpmath, which `l1_norm` loads only when a cell is crossed).
  * L2, O(N log N) operations on integers of the axis integers' size: the
    pairwise closed form (sums of (1 - max) products), summed in x order
    with a Fenwick tree of integer numerators over the y ranks (Heinrich,
    Math. Comp. 1996).  It reads no column.

L1 and L-infinity raise ResourceLimitError on a grid of more than
MAX_GRID_CELLS cells, before any column or axis integer is built; L2 has
no cell budget.  L1 and L2 refuse axis integers of more than
`pointsets.MAX_AXIS_BITS` bits per axis before building them; L-infinity
reads no axis integer.  A Monte-Carlo estimator of the L1/L2 norms serves
as an independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, compress
from operator import add, or_, sub
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import ResourceLimitError
from .pointsets import CellDecomposition, PointSet

if TYPE_CHECKING:
    from mpmath import mpf

# About N = 4096 points with distinct coordinates.
MAX_GRID_CELLS = 1 << 24
# Monte-Carlo samples; numpy holds a few 8-byte arrays of this length.
MAX_MC_SAMPLES = 1 << 24
# The L1 enclosure is at most 2 ulps, 2^(2 - prec) of its value, wide
# (`_interval._l1_enclosure`).  `norms_report` prints 17 digits of its
# midpoint, and 3 digits more keep all 17 backed by the enclosure
# (dps_to_prec(20) is 70 bits); 1e-12 alone would need only 42 bits, 12
# digits.
L1_MIN_DPS = 20


def _columns(grid: CellDecomposition) -> Iterator[tuple[int, ...]]:
    """The closed prefix counts, one column per x cut, in order.

    Column i holds #{p : rank_x(p) <= i, rank_y(p) <= j} at every y cut j,
    which below the last cuts is also the count on the open cell with
    lower-left corner (x_cuts[i], y_cuts[j]).  A grid of more than
    MAX_GRID_CELLS cells raises ResourceLimitError in the call itself,
    before any column is built.
    """
    nx, ny = len(grid.x_cuts), len(grid.y_cuts)
    if (cells := (nx - 1) * (ny - 1)) > MAX_GRID_CELLS:
        raise ResourceLimitError(f"grid of {cells} cells exceeds the {MAX_GRID_CELLS}-cell budget")
    y_ranks: list[list[int]] = [[] for _ in range(nx)]
    for i, j in grid.point_ranks:
        y_ranks[i].append(j)

    def stream() -> Iterator[tuple[int, ...]]:
        column = (0,) * ny
        for js in y_ranks:
            row = [0] * ny
            for j in js:
                row[j] += 1
            column = tuple(map(add, column, accumulate(row)))
            yield column

    return stream()


def l2_norm_sq(ps: PointSet) -> Fraction:
    """Exact squared L2 norm of D via the pairwise closed form

        sum_{p,q} (1 - max(p_x, q_x)) (1 - max(p_y, q_y))
            - N/2 sum_p (1 - p_x^2)(1 - p_y^2) + N^2/9,

    with the pair sum taken in O(N log N): points are visited by increasing
    x, so every earlier point q has 1 - q_x >= 1 - p_x, and a Fenwick tree
    over the y ranks holds the count and the sum of 1 - q_y of the earlier
    points.  Coordinates are integer numerators over each axis's common
    denominator; one Fraction is built at the end.
    """
    grid = ps.grid
    n = len(grid)
    (qx, xi), (qy, yi) = grid.axes
    size = len(yi)
    tree_count = [0] * (size + 1)
    tree_sum = [0] * (size + 1)
    seen_sum = pair = single = 0
    for i, j in sorted(grid.point_ranks):
        u, v = qx - xi[i], qy - yi[j]
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
        single += (qx * qx - xi[i] * xi[i]) * (qy * qy - yi[j] * yi[j])
    q2 = (qx * qy) ** 2
    return Fraction(18 * pair * qx * qy - 9 * n * single + 2 * n * n * q2, 18 * q2)


class L1Norm(NamedTuple):
    """L1 norm of D with a rigorous error bound.

    `value` is a Fraction when every cell integrates rationally (no sign
    change anywhere); otherwise an mpf midpoint with `error` bounding the
    enclosure half-width.  `sign_change_cells` counts cells whose integral
    needed the logarithmic antiderivative, and `dps` is the precision, in
    digits, to which the enclosure's ends were rounded: the requested
    digits, at least L1_MIN_DPS (0 when exact); its logs ran at a few more
    bits (`_interval._l1_enclosure`).
    """

    value: Fraction | mpf
    error: Fraction | mpf
    exact: bool
    sign_change_cells: int
    dps: int


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


def _l1_form(grid: CellDecomposition) -> L1Form:
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
    columns = _columns(grid)    # refuses an oversize grid before any integer
    n = len(grid)
    xs, ys = grid.x_cuts, grid.y_cuts
    (qx, xi), (qy, yi) = grid.axes
    y_sq = [v * v for v in yi]
    rows = [
        (j, yi[j + 1] - yi[j], y_sq[j + 1] - y_sq[j],
         ys[j].numerator, ys[j].denominator, ys[j + 1].numerator, ys[j + 1].denominator)
        for j in range(len(ys) - 1)
    ]
    x_logs = [0] * len(xs)
    y_logs = [0] * len(ys)
    k_logs = [0] * (n + 1)
    sum_kdxdy = sum_dx2dy2 = 0
    # crossed cells: sum_sq meets N / (2 Qx^2 Qy^2) and sum_lin -2 / (Qx Qy)
    sum_sq = sum_lin = crossed = 0
    # zip stops before the x = 1 column, which holds no cell
    for i, counts in zip(range(len(xs) - 1), columns):
        a, b = xs[i], xs[i + 1]
        n_an, ad = n * a.numerator, a.denominator
        n_bn, bd = n * b.numerator, b.denominator
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
    terms = chain(chain.from_iterable(((q.numerator, c), (q.denominator, -c)) for q, c in cuts if c),
                  compress(enumerate(k_logs), k_logs), [(n, sum_k2)])
    coeffs: dict[int, int] = {}
    for m, c in terms:
        if twos := (m & -m).bit_length() - 1:
            coeffs[2] = coeffs.get(2, 0) + c * twos
        coeffs[m >> twos] = coeffs.get(m >> twos, 0) + c
    logs = tuple((c, m) for m, c in coeffs.items() if c and m > 1)     # ln 1 = 0
    return L1Form(rational, logs, n, crossed)


def l1_norm(ps: PointSet, dps: int = 30) -> L1Norm:
    """L1 norm of D; exact rational, or certified to a relative 1e-12.

    Closed-form integration summed in integers; the linear form in logs is
    enclosed once by `_interval._l1_enclosure`, at max(dps, L1_MIN_DPS)
    digits; an exact result loads no mpmath.
    """
    form = _l1_form(ps.grid)
    if not form.crossed:
        return L1Norm(form.rational, Fraction(0), True, 0, 0)
    from ._interval import _l1_enclosure, _mid_rad, mp

    dps = max(dps, L1_MIN_DPS)
    lo, hi = _l1_enclosure(form, dps)
    with mp.workdps(dps):
        mid, err = _mid_rad(lo, hi)
    if err > 1e-12 * mid:
        raise ArithmeticError(f"the L1 enclosure at {dps} digits is wider than 1e-12 of its value")
    return L1Norm(mid, err, False, form.crossed, dps)


def linf_norm(ps: PointSet) -> Fraction:
    """Exact sup of |D| over the closed square.

    The sup of D over a region of constant count sits at the lower-left
    corner (closed count); the sup of -D is the one-sided limit into the
    upper-right corner (strict count).  Both counts are read from the
    streamed columns at every grid corner, and the larger of closed - Nxy
    and Nxy - strict is the corner's candidate.

    The x = 0 column is read exactly: there Nxy = 0 and every strict
    count is 0, so each candidate is its closed count, and the column's
    largest is its last entry, the number of points on x = 0 (y = 1
    included).  It seeds the maximum.  Elsewhere each candidate is first
    computed in floats, c' = max(closed - v, v - strict) with
    v = (N * float(x)) * float(y), and the exact cross-multiplied
    comparison runs only for a corner that the float filter cannot rule
    out.  The filter is rigorous, with E = 6 u N and u = 2^-53 (N < 2^50,
    so N, the counts, E and 2E are exact floats):

      * float() of a Fraction, and each float product and difference, is
        correctly rounded: fl(t) = t (1 + d) + e with |d| <= u and
        |e| <= 2^-1075, where e != 0 only when t underflows.  As 0 <= x,
        y <= 1 and N is exact, 0 <= float(x), float(y) <= 1 and
        0 <= N float(x) <= N, so
        |v - Nxy| <= |fl(P fy) - P fy| + |fl(N fx) - N fx| fy
                     + N |fx - x| fy + N x |fy - y|
                  <= 4 u N + (N + 1) 2^-1074   (P = fl(N fx), fx = float(x)).
      * closed, strict and v lie in [0, N], so each difference adds at
        most u N, and the max of two numbers moves by at most the larger
        of their errors: |c' - c| <= 5 u N + (N + 1) 2^-1074 <= E.  The
        absolute term, from a float that underflows (x = 2^-1000 and
        y = 2^-60 make v subnormal), is at most u N for every N >= 1.
        Rounding to nearest is symmetric, so v - closed is exactly
        -(closed - v), and c' is read from the two difference lists.

    The 2E step.  Let h be the largest of the seed and of every c' seen
    so far, this column's included.  Some corner K has candidate h, and
    its exact candidate is c_K >= h - E (c_K = h for the seed).  A corner
    is compared exactly only when c' >= fl(h - 2E).  Rounding is monotone
    and c' is a float, so a skipped corner has c' < h - 2E in the reals,
    and c <= c' + E < h - E <= c_K: it lies strictly below another
    corner and is not the maximum.  A corner M of maximal c is never
    skipped, since c'_M >= c_M - E >= c_K - E >= h - 2E.  The exact
    comparisons thus see a maximal corner, and the result is the exact
    scan's.  A column whose largest c' is below fl(h - 2E) is skipped
    whole; in the others `itertools.compress` picks the corners that
    clear it, so the Python loop visits only those.
    """
    grid = ps.grid
    n = len(grid)
    bound = math.ldexp(6 * n, -53)         # E, exact in floats
    y_parts = [(q.numerator, q.denominator) for q in grid.y_cuts]
    y_floats = [float(q) for q in grid.y_cuts]
    columns = _columns(grid)
    first = next(columns)                   # x = 0: each candidate is its closed count
    best_num, best_den = first[-1], 1
    high = float(first[-1])
    strict_row = (0, *first[:-1])
    for x, closed_row in zip(grid.x_cuts[1:], columns):
        nx = n * float(x)
        nxy = [nx * fy for fy in y_floats]
        # c' = max(closed - v, v - strict); v - closed is -(closed - v) exactly
        below = list(map(sub, nxy, closed_row))
        above = list(map(sub, nxy, strict_row))
        top = max(-min(below), max(above))
        if top >= high - 2 * bound:
            high = max(high, top)
            threshold = high - 2 * bound
            clears = map(or_, map((-threshold).__ge__, below), map(threshold.__le__, above))
            n_xn, xd = n * x.numerator, x.denominator
            for (yn, yd), closed, strict in compress(zip(y_parts, closed_row, strict_row), clears):
                den = xd * yd
                nxy_num = n_xn * yn                 # N x y = nxy_num / den
                num = max(closed * den - nxy_num, nxy_num - strict * den)
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
        strict_row = (0, *closed_row[:-1])
    return Fraction(best_num, best_den)


def monte_carlo_norm(
    ps: PointSet, which: str = "l1", samples: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """(estimate, standard error) for the L1 norm or the squared L2 norm.

    Plain sample mean over uniform points; deterministic for a fixed seed.
    More than MAX_MC_SAMPLES samples raise ResourceLimitError before numpy
    is imported.
    """
    if which not in ("l1", "l2"):
        raise ValueError(f"which must be 'l1' or 'l2', got {which!r}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    if samples > MAX_MC_SAMPLES:
        raise ResourceLimitError(f"{samples} samples exceed the cap of 2^24")
    import numpy as np  # only this oracle needs numpy; `import discrep` stays without it

    rng = np.random.default_rng(seed)
    xs = rng.random(samples)
    ys = rng.random(samples)
    counts = np.zeros(samples, dtype=np.int64)
    for p in ps:
        counts += (float(p.x) <= xs) & (float(p.y) <= ys)
    d = counts - len(ps) * xs * ys
    vals = np.abs(d) if which == "l1" else d * d
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return est, stderr


def norms_report(ps: PointSet, dps: int = 30, which: str = "all") -> dict:
    """The exact norms in the JSON report shape used by the CLI.

    `which` is "all" or one of "l1", "l2", "linf" and "dn", and only the
    norms it names are computed ("dn" needs L1), all from the set's one
    grid.  An exact L1 is "p/q" with `l1_err` "0", and loads no mpmath;
    otherwise `l1_err` is printed rounded up, and the 17 digits of `l1`
    are its midpoint rounded to nearest, read from the midpoint's own bits
    whatever mp's precision is.  That midpoint comes from an enclosure of
    at least L1_MIN_DPS = 20 digits, 3 more than are printed, whatever
    `dps` is.  `d_n`, the L1 norm over sqrt(ln N), needs N >= 2.
    """
    if which not in ("all", "l1", "l2", "linf", "dn"):
        raise ValueError(f"unknown norm {which!r}")
    report = {"n_points": len(ps)}
    if which in ("all", "l1", "dn"):
        l1 = l1_norm(ps, dps)
    if which in ("all", "l1"):
        if l1.exact:
            report["l1"], report["l1_err"] = str(l1.value), "0"
        else:
            from ._interval import _nstr_directed, mp

            report["l1"] = mp.nstr(l1.value, 17)
            report["l1_err"] = _nstr_directed(l1.error, 3, up=True)
    if which in ("all", "l2"):
        report["l2_sq"] = str(l2_norm_sq(ps))
    if which in ("all", "linf"):
        report["linf"] = str(linf_norm(ps))
    if which in ("all", "dn") and len(ps) >= 2:
        report["d_n"] = f"{float(l1.value) / math.sqrt(math.log(len(ps))):.12g}"
    return report
