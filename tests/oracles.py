"""Slow, independent routes that the tests check the library against.

None of these is part of the pipeline: a set's points as Fractions, read
back from its integer axes, and the axes, the generators' points and the
trees' integers computed from Fractions; the cluster partition check read
through a cell dict built at every level; the CSV literal parser without
the digit-string fast path or the literal budget, the grid built by sorting
Fractions and placing points by bisection, the column stream of three
passes per column, the dyadic interval and
rectangle geometry with its Haar point kernels, pointwise D and its Haar
inner products, the Monte-Carlo estimate of the L1 and L2 norms (the one
user of numpy), the cell-by-cell L2 integrator (and a point set of
distinct prime denominators for its budgets), the exact L-infinity corner
scan, the closed forms of the van der Corput set's L1, L2 and L-infinity
norms and of its reflection's L2 norm, the L1 log enclosure and the
certificate's odd-order series in mpmath
`iv` objects at a global interval precision, which the filtered and
raw-interval kernels replaced, the L1 enclosure with two logs per
integer, the sine-mode and scaled test-function constructors, the float
extremal search, the coefficient-mass bound on sup |T|, the sin expansion
identity, the certificate's error tuple sums grouped by gap, Newton's
identities and the evaluation of an expansion table at a sign vector.
Coordinates are exact Fractions throughout; only the Monte-Carlo
estimate, the float extremal search and the mpmath evaluations of T are
approximate.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Sequence

from mpmath import iv, mp, mpc, mpf
from mpmath.libmp import dps_to_prec, from_rational, mpi_log, round_ceiling, round_floor

from discrep.auxiliary import (HARD_LEVEL_CAP, AuxFamilyTree, CheckResult, _shifts,
                                _tree_integers, _TreeIntegers)
from discrep.combinatorics import OddExpansionTable, elementary_symmetric
from discrep._interval import _iv_endpoints, _mpi_int
from discrep.discrepancy import _check_grid_budget
from discrep.pointsets import _DYADIC_LITERAL, CellDecomposition, PointSet
from discrep.testfn import Atom, FourierAtomFunction

Pair = tuple[Fraction, Fraction]        # a point as its two exact coordinates


def _as_mpf(value) -> mpf:
    """A Fraction as num/den in mpf at mp's precision; other numbers via mpf()."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    return mpf(value)


# ---------------------------------------------------------------------------
# coordinates and the grid
# ---------------------------------------------------------------------------


def parse_coordinate_oracle(text: str) -> Fraction:
    """A coordinate literal read by the dyadic pattern or by `Fraction(str)`."""
    text = text.strip()
    m = _DYADIC_LITERAL.match(text)
    if m:
        return Fraction(int(m.group(1)), 1 << int(m.group(2)))
    return Fraction(text)


@lru_cache(maxsize=256)
def fraction_points(ps: PointSet) -> tuple[Pair, ...]:
    """The set's points as exact Fractions, (xs[k] / Dx, ys[k] / Dy) of its axes."""
    (dx, xs), (dy, ys) = ps.axes
    return tuple((Fraction(a, dx), Fraction(b, dy)) for a, b in zip(xs, ys))


def fraction_cuts(ps: PointSet, grid: CellDecomposition | None = None):
    """The cuts of the set's grid (or of `grid`, built from it) as Fractions."""
    grid = ps.grid if grid is None else grid
    (dx, _), (dy, _) = ps.axes
    return [Fraction(a, dx) for a in grid.x_cuts], [Fraction(b, dy) for b in grid.y_cuts]


def axes_oracle(points: Sequence) -> tuple:
    """((Dx, xs), (Dy, ys)) of Fraction points: each D the lcm of its axis's
    denominators (a Fraction is in lowest terms), each numerator q D."""
    axes = []
    for axis in zip(*points) if points else ((), ()):
        den = math.lcm(*(q.denominator for q in axis))
        axes.append((den, tuple(int(q * den) for q in axis)))
    return tuple(axes)


def van_der_corput_oracle(m: int) -> tuple[Pair, ...]:
    """(k / 2^m, the m bits of k reversed / 2^m) for k < 2^m, as Fractions."""
    reverse = lambda k: sum(((k >> b) & 1) << (m - 1 - b) for b in range(m))  # noqa: E731
    return tuple((Fraction(k, 1 << m), Fraction(reverse(k), 1 << m)) for k in range(1 << m))


def random_uniform_oracle(n: int, seed: int) -> tuple[Pair, ...]:
    """n points of 53-bit draws over 2^53, x then y, as Fractions."""
    rng = random.Random(seed)
    return tuple((Fraction(rng.getrandbits(53), 1 << 53), Fraction(rng.getrandbits(53), 1 << 53))
                 for _ in range(n))


def tree_integers_oracle(points: Sequence[Pair]) -> _TreeIntegers:
    """Every `_TreeIntegers` field from Fraction points.  An axis's width E
    is the least e <= S at which every coordinate is a multiple of 2^-e,
    else S; X = floor(x 2^E) and the cell at scale n is floor(x 2^n); the
    interior is the points with x < 1 and y < 1, counted distinct as
    Fractions."""
    n = next(n for n in range(64) if 2 * len(points) <= 1 << n)
    scale = (n + 1) * (HARD_LEVEL_CAP + 1)
    widths = [next((e for e in range(scale + 1) if all((q * (1 << e)).denominator == 1 for q in axis)),
                   scale) for axis in zip(*points)]
    xs, ys = (tuple(math.floor(p[axis] * (1 << widths[axis])) for p in points) for axis in (0, 1))
    cx, cy = (tuple(math.floor(p[axis] * (1 << n)) for p in points) for axis in (0, 1))
    interior = tuple(t for t, p in enumerate(points) if p[0] < 1 and p[1] < 1)
    return _TreeIntegers(scale, *widths, xs, ys, cx, cy, interior,
                         len({tuple(points[t]) for t in interior}),
                         tuple(((t,), x, y, HARD_LEVEL_CAP) for t, (x, y) in enumerate(zip(xs, ys))))


def cluster_partition_oracle(tree: AuxFamilyTree) -> CheckResult:
    """The cluster partition check read through each level's cell dict
    (`LevelRecord.occupied`), built anew at every level: each member lies
    in the cell of its cluster's (X0, Y0), and the members of the dict's
    clusters, sorted, are the interior points."""
    record = _tree_integers(tree.pointset)
    xs, ys = record.xs, record.ys
    for level, rec in enumerate(tree.levels):
        seen: list[int] = []
        rx, lx = _shifts(record.width_x, rec.scale_x)
        ry, ly = _shifts(record.width_y, rec.scale_y)
        for (jx, jy), members in rec.occupied.items():
            for t in members:
                if xs[t] >> rx << lx != jx or ys[t] >> ry << ly != jy:
                    return CheckResult(
                        "cluster_partition", False,
                        f"i={tree.direction} l={level}: point {t} outside its cell",
                    )
            seen.extend(members)
        if tuple(sorted(seen)) != record.interior:
            return CheckResult(
                "cluster_partition", False,
                f"i={tree.direction} l={level}: clusters do not partition the points",
            )
    return CheckResult("cluster_partition", True, f"i={tree.direction}: {len(tree.levels)} levels")


def empty_counts_oracle(tree: AuxFamilyTree) -> list[int]:
    """Empty rectangles per level, counted on the cell dicts: the 2^n
    level-0 cells, and below it the 2^(2(n+1)) children of each occupied
    parent cell, less the occupied cells that lie in one of them."""
    step, empties = tree.n + 1, []
    parents = None
    for rec in tree.levels:
        cells = rec.occupied
        if parents is None:
            empties.append((1 << tree.n) - len(cells))
        else:
            inside = sum((jx >> step, jy >> step) in parents for jx, jy in cells)
            empties.append((len(parents) << (2 * step)) - inside)
        parents = cells
    return empties


def grid_oracle(ps: PointSet) -> CellDecomposition:
    """The grid with the cuts sorted as Fractions, each point placed by
    `bisect_left`, every comparison a cross-multiplication, and each x
    cut's y ranks sorted on their own; the cuts are returned as numerators
    over the denominators of `axes_oracle`."""
    pts = fraction_points(ps)
    xs = sorted({Fraction(0), Fraction(1), *(x for x, _ in pts)})
    ys = sorted({Fraction(0), Fraction(1), *(y for _, y in pts)})
    ranks: list[list[int]] = [[] for _ in xs]
    for x, y in pts:
        ranks[bisect_left(xs, x)].append(bisect_left(ys, y))
    (dx, _), (dy, _) = axes_oracle(pts)
    return CellDecomposition(tuple(int(q * dx) for q in xs), tuple(int(q * dy) for q in ys),
                             tuple(tuple(sorted(js)) for js in ranks))


# ---------------------------------------------------------------------------
# dyadic geometry: half-open intervals [j/2^k, (j+1)/2^k), their products,
# and the L-infinity normalized Haar function (+1 on the left half, -1 on
# the right half, 0 outside, so the point x = 1 has Haar value 0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open interval [index/2^scale, (index+1)/2^scale) inside [0, 1)."""

    scale: int
    index: int

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"scale must be >= 0, got {self.scale}")
        if not 0 <= self.index < (1 << self.scale):
            raise ValueError(
                f"index {self.index} out of range at scale {self.scale}"
            )

    @classmethod
    def unit(cls) -> "DyadicInterval":
        return cls(0, 0)

    @property
    def left(self) -> Fraction:
        return Fraction(self.index, 1 << self.scale)

    @property
    def right(self) -> Fraction:
        return Fraction(self.index + 1, 1 << self.scale)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.scale)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(2 * self.index + 1, 1 << (self.scale + 1))

    def left_half(self) -> "DyadicInterval":
        return DyadicInterval(self.scale + 1, 2 * self.index)

    def right_half(self) -> "DyadicInterval":
        return DyadicInterval(self.scale + 1, 2 * self.index + 1)

    def contains(self, x: Fraction) -> bool:
        return self.left <= x < self.right

    def contains_interval(self, other: "DyadicInterval") -> bool:
        if other.scale < self.scale:
            return False
        return other.index >> (other.scale - self.scale) == self.index

    def haar(self, x: Fraction) -> int:
        """Haar value at x: +1 on the left half, -1 on the right, 0 outside."""
        if not self.contains(x):
            return 0
        return 1 if x < self.midpoint else -1

    def __str__(self) -> str:
        return f"[{self.left}, {self.right})"


def haar_point_kernel(interval: DyadicInterval, p: Fraction) -> Fraction:
    """Exact value of the integral of 1_{x >= p} * h_I(x) over [0, 1].

    Closed form for I = [a, a+h): a - p on [a, a+h/2), p - (a+h) on
    [a+h/2, a+h), 0 elsewhere.  Always in [-h/2, 0]; vanishes exactly when
    p is outside (a, a+h).
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p = {p} outside [0, 1]")
    a = interval.left
    mid = interval.midpoint
    b = interval.right
    if a <= p < mid:
        return a - p
    if mid <= p < b:
        return p - b
    return Fraction(0)


def subdivide(interval: DyadicInterval, bits: int) -> list[DyadicInterval]:
    """The 2**bits equal dyadic children of the interval, left to right."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    scale = interval.scale + bits
    base = interval.index << bits
    return [DyadicInterval(scale, base + t) for t in range(1 << bits)]


@dataclass(frozen=True)
class DyadicRectangle:
    """Product of two half-open dyadic intervals."""

    x: DyadicInterval
    y: DyadicInterval

    @classmethod
    def unit(cls) -> "DyadicRectangle":
        return cls(DyadicInterval.unit(), DyadicInterval.unit())

    @property
    def area(self) -> Fraction:
        return self.x.length * self.y.length

    def contains(self, px: Fraction, py: Fraction) -> bool:
        return self.x.contains(px) and self.y.contains(py)

    def haar(self, px: Fraction, py: Fraction) -> int:
        return self.x.haar(px) * self.y.haar(py)

    def __str__(self) -> str:
        return f"{self.x} x {self.y}"


# ---------------------------------------------------------------------------
# the discrepancy function, pointwise and cell by cell
# ---------------------------------------------------------------------------


def eval_discrepancy(ps: PointSet, x, y) -> Fraction:
    """Exact D(x, y) with closed-box counting."""
    x, y = Fraction(x), Fraction(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError(f"({x}, {y}) outside the unit square")
    count = sum(1 for px, py in fraction_points(ps) if px <= x and py <= y)
    return count - len(ps) * x * y


def haar_inner_product(ps: PointSet, rect: DyadicRectangle) -> Fraction:
    """Exact integral of D * h_R over the unit square.

    Per-point kernels vanish for points outside the half-open rectangle
    (and on its left/bottom edges), so for a rectangle containing no point
    the value collapses to -N |R|^2 / 16.
    """
    acc = Fraction(0)
    for px, py in fraction_points(ps):
        kx = haar_point_kernel(rect.x, px)
        if kx:
            acc += kx * haar_point_kernel(rect.y, py)
    return acc - len(ps) * rect.area ** 2 / 16


def columns_oracle(grid: CellDecomposition):
    """The closed prefix counts, one tuple per x cut, in three passes per column.

    A fresh row counts the column's points at each y rank, its prefix sums
    are taken, and they are added to the previous column: the stream
    `discrepancy._columns` replaced with one running row.  An oversize grid
    is refused first, as the kernels refuse it.
    """
    _check_grid_budget(grid)
    ny = len(grid.y_cuts)
    column = (0,) * ny
    for js in grid.y_ranks:
        row = [0] * ny
        for j in js:
            row[j] += 1
        column = tuple(map(add, column, accumulate(row)))
        yield column


def cells(ps: PointSet):
    """Yield (a, b, c, d, count) over all cells [a,b] x [c,d] of the set's
    grid, built afresh, with Fraction cuts."""
    grid = CellDecomposition.from_pointset(ps)
    table = tuple(columns_oracle(grid))
    xs, ys = fraction_cuts(ps, grid)
    for i in range(len(xs) - 1):
        row = table[i]
        for j in range(len(ys) - 1):
            yield xs[i], xs[i + 1], ys[j], ys[j + 1], row[j]


def monte_carlo_norm(
    ps: PointSet, which: str = "l1", samples: int = 10**6, seed: int = 0
) -> tuple[float, float]:
    """(estimate, standard error) of the L1 norm or the squared L2 norm.

    Plain sample mean of |D| or D^2 over uniform float points, in numpy;
    deterministic for a fixed seed.
    """
    if which not in ("l1", "l2"):
        raise ValueError(f"which must be 'l1' or 'l2', got {which!r}")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    import numpy as np

    rng = np.random.default_rng(seed)
    xs = rng.random(samples)
    ys = rng.random(samples)
    counts = np.zeros(samples, dtype=np.int64)
    for x, y in fraction_points(ps):
        counts += (float(x) <= xs) & (float(y) <= ys)
    d = counts - len(ps) * xs * ys
    vals = np.abs(d) if which == "l1" else d * d
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def l2_norm_sq_direct(ps: PointSet) -> Fraction:
    """Integrate (c - N x y)^2 cell by cell, exactly."""
    n = len(ps)
    total = Fraction(0)
    for a, b, c, d, k in cells(ps):
        area = (b - a) * (d - c)
        ixy = Fraction(1, 4) * (b * b - a * a) * (d * d - c * c)
        ix2y2 = Fraction(1, 9) * (b ** 3 - a ** 3) * (d ** 3 - c ** 3)
        total += k * k * area - 2 * k * n * ixy + n * n * ix2y2
    return total


def prime_reciprocals(count: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The points (1/p, 1 - 1/p) over the first `count` primes.

    Every coordinate is distinct, and each axis's common denominator is the
    product of the primes: about 56,000 bits for 4097 of them, past the
    axis budget.
    """
    limit = max(16, count * (count.bit_length() + 2))
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, limit, k)))
    primes = [k for k in range(limit) if sieve[k]][:count]
    assert len(primes) == count
    return tuple((Fraction(1, p), 1 - Fraction(1, p)) for p in primes)


def linf_exact_scan(ps: PointSet) -> Fraction:
    """Exact sup |D| with every grid corner compared in integers.

    Both one-sided counts are read from the streamed columns, and each
    corner's max(closed - Nxy, Nxy - strict) is compared with the best so
    far by cross-multiplying each coordinate's own numerator and
    denominator; `linf_norm` reaches the same corners through a float
    filter.
    """
    grid = ps.grid
    n = len(ps)
    x_cuts, y_cuts = fraction_cuts(ps)
    y_parts = [(q.numerator, q.denominator) for q in y_cuts]
    best_num, best_den = 0, 1
    strict_row = (0,) * len(y_parts)
    for x, closed_row in zip(x_cuts, columns_oracle(grid)):
        n_xn, xd = n * x.numerator, x.denominator
        for (yn, yd), closed, strict in zip(y_parts, closed_row, strict_row):
            den = xd * yd
            nxy = n_xn * yn                 # N x y = nxy / den
            num = max(closed * den - nxy, nxy - strict * den)
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        strict_row = (0, *closed_row[:-1])
    return Fraction(best_num, best_den)


# ---------------------------------------------------------------------------
# closed forms of the norms of the classical sets, N = 2^m: the van der
# Corput (Hammersley) set and its Davenport reflection.  Each form was
# fitted to the kernels' exact values at a few m and checked at the others.
# ---------------------------------------------------------------------------


def vdc_l2_sq(m: int) -> Fraction:
    """||D||_2^2 of `van_der_corput(m)`, the shape of Halton & Zaremba's
    formula (Monatsh. Math. 73, 1969)."""
    return (Fraction(m * m, 64) + Fraction(29 * m, 192) + Fraction(3, 8) - Fraction(m, 1 << (m + 4))
            + Fraction(1, 1 << (m + 2)) - Fraction(1, 72 << (2 * m)))


def mirrored_vdc_l2_sq(m: int) -> Fraction:
    """||D||_2^2 of `symmetrize(van_der_corput(m))` for m >= 1, Davenport's
    reflection (Mathematika 3, 1956); at m = 0 the value is 4/9 instead."""
    return Fraction(m, 24) + Fraction(5, 8) - Fraction(m, 1 << (m + 2)) - Fraction(1, 18 << (2 * m))


def vdc_l1(m: int) -> Fraction:
    """||D||_1 of `van_der_corput(m)`, from D >= 0.

    Where D >= 0 almost everywhere, ||D||_1 is the integral of D, and
    integrating each point's box count and N x y over the square gives

        sum_p (1 - p_x)(1 - p_y) - N/4.

    Here p = (k/N, r(k)/N) with r the m-bit reversal, a permutation of
    0..N-1, so the sum is N - (N - 1) + sum_k k r(k) / N^2.  With
    k = sum_i b_i 2^i and r(k) = sum_j b_j 2^(m-1-j), the bits b_i b_j
    sum over all k to N/4 when i != j and to N/2 when i = j, so
    sum_k k r(k) = N (N - 1)^2 / 4 + m N^2 / 8, and

        ||D||_1 = 1 + (N - 1)^2 / (4N) + m/8 - N/4 = m/8 + 1/2 + 1/(4N).

    The L1 kernel crosses no cell of these sets, and |D| integrates to
    this integral of D only where D >= 0, so each match checks the premise.
    """
    return Fraction(m, 8) + Fraction(1, 2) + Fraction(1, 1 << (m + 2))


def vdc_linf(m: int) -> Fraction:
    """||D||_inf of `van_der_corput(m)`, the shape of de Clerck's formula
    (Monatsh. Math. 101, 1986); at m = 1 the value is 3/2."""
    if m == 1:
        return Fraction(3, 2)
    return Fraction(m, 3) + Fraction(13, 9) - (-1) ** m * Fraction(4, 9 << m)


@contextmanager
def _iv_precision(dps: int):
    """Set mpmath's global interval precision to `dps` digits for the block.

    mpmath 1.3 has no `iv.workdps`; the previous precision is restored on
    exit, so calls must not interleave across threads.
    """
    old = iv.dps
    try:
        iv.dps = dps
        yield
    finally:
        iv.dps = old


def iv_fraction(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def l1_enclosure_iv(form, dps: int) -> tuple[mpf, mpf]:
    """Endpoints of rational + (sum coeff ln m) / n in `iv` objects at dps digits."""
    with _iv_precision(dps):
        log_sum = iv.mpf(0)
        for coeff, m in form.logs:
            log_sum += iv.mpf(coeff) * iv.log(iv.mpf(m))
        total = iv_fraction(form.rational) + log_sum / form.n
    return _iv_endpoints(total._mpi_)


def l1_enclosure_two_logs(form, dps: int) -> tuple[mpf, mpf]:
    """`_l1_enclosure` with both ends of every ln m taken by `mpi_log`, one
    log rounded down and one rounded up, each at the same w bits."""
    prec = dps_to_prec(dps)
    guard = sum(m.bit_length() for _, m in form.logs).bit_length() + 8
    shift = prec + guard + max((abs(c) for c, _ in form.logs), default=0).bit_length()
    lo_sum = hi_sum = 0
    for c, m in form.logs:
        wp = prec + abs(c).bit_length() + guard
        lo, hi = mpi_log(_mpi_int(m, wp), wp)
        if c < 0:
            lo, hi = hi, lo
        lo_sum += c * lo[1] << (lo[2] + shift)
        hi_sum += c * hi[1] << (hi[2] + shift)
    q, num = form.rational.denominator, form.rational.numerator * form.n << shift
    return _iv_endpoints((from_rational(num + q * lo_sum, q * form.n << shift, prec, round_floor),
                          from_rational(num + q * hi_sum, q * form.n << shift, prec, round_ceiling)))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def sine_modes(modes: Sequence[tuple]) -> FourierAtomFunction:
    """sum_j b_j sin(w_j x) as an atom list (odd by construction)."""
    atoms = []
    for b, w in modes:
        b, w = Fraction(b), Fraction(w)
        atoms += [Atom(0, b / 2, w), Atom(0, -b / 2, -w)]
    return FourierAtomFunction(tuple(atoms))


def scaled(fn: FourierAtomFunction, factor) -> FourierAtomFunction:
    """factor * T, every coefficient multiplied exactly."""
    factor = Fraction(factor)
    return FourierAtomFunction(tuple(Atom(a.re * factor, a.im * factor, a.freq) for a in fn.atoms))


def evaluate(fn: FourierAtomFunction, x, dps: int = 30) -> mpc:
    """T(x) = sum_j c_j exp(-i w_j x) at precision dps."""
    with mp.workdps(dps):
        total = mpc(0)
        for a in fn.atoms:
            c = mpc(_as_mpf(a.re), _as_mpf(a.im))
            total += c * mp.exp(mpc(0, -1) * _as_mpf(a.freq) * mpf(x))
        return +total


def is_odd_sampled(fn: FourierAtomFunction, samples: int = 7, dps: int = 30) -> bool:
    """Spot check T(-x) + T(x) = 0 on a small deterministic grid."""
    with mp.workdps(dps):
        tol = mpf(10) ** (-dps + 5)
        for t in range(1, samples + 1):
            x = mpf(t) / samples * 3
            if abs(evaluate(fn, x, dps) + evaluate(fn, -x, dps)) > tol:
                return False
    return True


def coefficient_abs_sum(fn: FourierAtomFunction, dps: int = 30):
    """sum_j |c_j|; exact Fraction when every |c_j| is rational."""
    exact = Fraction(0)
    inexact = []
    for a in fn.atoms:
        if a.re == 0:
            exact += abs(a.im)
        elif a.im == 0:
            exact += abs(a.re)
        else:
            inexact.append(a.re * a.re + a.im * a.im)
    if not inexact:
        return exact
    with mp.workdps(dps):
        total = _as_mpf(exact)
        for sq in inexact:
            total += mp.sqrt(_as_mpf(sq))
        return +total


def extremal_search(
    tolerance: float = 1e-9,
    domain: tuple[float, float] | None = None,
    mode: str = "max",
) -> tuple[float, float]:
    """Golden-section optimizer of w * exp(-w^2/2).

    mode="max" searches [0, 10] (peak at w=1, value 1/sqrt(e)); mode="min"
    searches [-10, 0] (valley at w=-1).  Returns (argmin/argmax, value).
    """
    if tolerance < 1e-12:
        raise ValueError("tolerance below 1e-12 is not supported")
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    if domain is None:
        domain = (0.0, 10.0) if mode == "max" else (-10.0, 0.0)
    lo, hi = map(float, domain)
    if not lo < hi:
        raise ValueError(f"empty search domain {domain}")

    sign = 1.0 if mode == "max" else -1.0

    def objective(w: float) -> float:
        return sign * w * math.exp(-w * w / 2)

    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tolerance:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    w = (a + b) / 2
    return w, sign * objective(w)


@dataclass(frozen=True)
class SupNormBound:
    """sum |c_j| -- an upper bound for sup |T|, an identity under the
    frequency-independence hypothesis (recorded by the flag)."""

    value: Fraction | mpf
    independence_verified: bool


def sup_norm_via_coefficients(fn: FourierAtomFunction, dps: int = 30) -> SupNormBound:
    """Coefficient-mass bound on sup |T| with the independence flag.

    Rational frequencies admit an integer relation whenever two distinct
    nonzero ones are present (or any zero frequency), so the hypothesis is
    verified only for a single nonzero-frequency atom.
    """
    freqs = [a.freq for a in fn.atoms]
    verified = len(freqs) == 1 and freqs[0] != 0
    return SupNormBound(coefficient_abs_sum(fn, dps=dps), verified)


def sin_expansion_check(n: int, signs: Sequence[int], dps: int = 40) -> bool:
    """Pointwise identity behind the certificate's error series.

    Checks sin(sum s / sqrt(n)) against the odd elementary-symmetric
    expansion with plain binomial coefficients, at precision dps.
    """
    if len(signs) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} signs, got {len(signs)}")
    e = [1] + elementary_symmetric(list(signs))
    with mp.workdps(dps):
        a = 1 / mp.sqrt(n)
        lhs = mp.sin(sum(signs) * a)
        rhs = mpf(0)
        for p in range(1, n + 2, 2):
            rhs += (
                (-1) ** ((p - 1) // 2)
                * mp.cos(a) ** (n + 1 - p)
                * mp.sin(a) ** p
                * e[p]
            )
        return abs(lhs - rhs) < mpf(10) ** (-dps + 8)


def odd_terms_iv(n: int, weights: dict[int, Fraction]):
    """`testfn._odd_terms` in `iv` objects at the current interval precision:
    sum over p of cos^(n+1-p)(a) sin^p(a) w_p, with a = 1/sqrt(n)."""
    a = iv.mpf(1) / iv.sqrt(iv.mpf(n))
    cos_a, sin_a = iv.cos(a), iv.sin(a)
    total = iv.mpf(0)
    for p, weight in weights.items():
        total += cos_a ** (n + 1 - p) * sin_a ** p * iv_fraction(weight)
    return total


def error_tuple_sum(n: int, p: int) -> Fraction:
    """Exact S_p(n) = sum_{g=p-1}^{n} 2^-g C(g-1, p-2) (n+1-g).

    Grouping index tuples i_1 < ... < i_p by the gap g = i_p - i_1, this
    dominates sum over tuples of 2^(i_1 - i_p).
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return sum(
        (Fraction(math.comb(g - 1, p - 2) * (n + 1 - g), 1 << g) for g in range(p - 1, n + 1)),
        start=Fraction(0),
    )


# ---------------------------------------------------------------------------
# sign vectors: Newton identities and expansion tables
# ---------------------------------------------------------------------------


def power_sums(values: Sequence, upto: int) -> list:
    return [sum(v ** k for v in values) for k in range(1, upto + 1)]


def check_sign_vector(values: Sequence[int]) -> tuple[int, ...]:
    values = tuple(values)
    if not values or any(v not in (-1, 1) for v in values):
        raise ValueError("sign vector entries must be +-1")
    return values


def newton_check(values: Sequence[int], k: int) -> bool:
    """Exact Newton identity k e_k = sum (-1)^(i-1) e_{k-i} p_i at a sign vector.

    Also verifies the +-1 collapse p_k = p_1 (odd k) and p_k = m (even k).
    """
    values = check_sign_vector(values)
    m = len(values)
    if not 1 <= k <= m:
        raise ValueError(f"k must be in 1..{m}, got {k}")
    e = [1] + elementary_symmetric(values)
    p = power_sums(values, k)
    identity = k * e[k] == sum(
        (-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)
    )
    collapse = p[k - 1] == (p[0] if k % 2 == 1 else m)
    return identity and collapse


def reconstruct(table: OddExpansionTable, signs: Sequence[int]) -> Fraction:
    """Evaluate sum_p A_p e_p(signs); must equal (sum signs)^k."""
    e = [1] + elementary_symmetric(check_sign_vector(signs))
    return sum(
        (a * e[p] for p, a in table.coefficients.items()), start=Fraction(0)
    )


def all_integer(table: OddExpansionTable) -> bool:
    """Whether every coefficient is an integer (observed, not proved)."""
    return all(c.denominator == 1 for c in table.coefficients.values())


def linear_coefficient(table: OddExpansionTable) -> Fraction:
    return table.coefficients[1]
