"""Slow, independent routes that the tests check the library against.

None of these is part of the pipeline: the CSV literal parser without the
digit-string fast path or the literal budget, the grid built by sorting
Fractions and placing points by bisection, the dyadic interval and
rectangle geometry with its Haar point kernels, pointwise D and its Haar
inner products, the cell-by-cell L2 integrator (and a point set of
distinct prime denominators for its budgets), the exact L-infinity corner
scan, the L1 log enclosure and the certificate's odd-order series in mpmath
`iv` objects at a global interval precision, which the filtered and
raw-interval kernels replaced, the L1 enclosure with two logs per
integer, the float extremal search, the coefficient-mass bound on sup |T|,
the sin expansion identity, the certificate's error tuple sums grouped by
gap, Newton's identities and the evaluation of an expansion table at a
sign vector.
Coordinates are exact Fractions throughout; only the float extremal
search and the mpmath evaluations of T are approximate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import iv, mp, mpc, mpf
from mpmath.libmp import dps_to_prec, from_rational, mpi_log, round_ceiling, round_floor

from discrep.combinatorics import OddExpansionTable, elementary_symmetric
from discrep._interval import _as_mpf, _iv_endpoints, _mid_rad, _mpi_int
from discrep.discrepancy import L1Norm, _columns, _l1_form
from discrep.errors import ResourceLimitError
from discrep.pointsets import _DYADIC_LITERAL, CellDecomposition, PointSet, dyadic
from discrep.testfn import FourierAtomFunction

# ---------------------------------------------------------------------------
# coordinates and the grid
# ---------------------------------------------------------------------------


def parse_coordinate_oracle(text: str) -> Fraction:
    """A coordinate literal read by the dyadic pattern or by `Fraction(str)`."""
    text = text.strip()
    m = _DYADIC_LITERAL.match(text)
    if m:
        return dyadic(int(m.group(1)), int(m.group(2)))
    return Fraction(text)


def grid_oracle(ps: PointSet) -> CellDecomposition:
    """The grid with the cuts sorted as Fractions and each point placed by
    `bisect_left`, every comparison a cross-multiplication."""
    xs = sorted({Fraction(0), Fraction(1), *(p.x for p in ps)})
    ys = sorted({Fraction(0), Fraction(1), *(p.y for p in ps)})
    ranks = tuple((bisect_left(xs, p.x), bisect_left(ys, p.y)) for p in ps)
    return CellDecomposition(tuple(xs), tuple(ys), ranks)


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
    count = sum(1 for p in ps if p.x <= x and p.y <= y)
    return count - len(ps) * x * y


def haar_inner_product(ps: PointSet, rect: DyadicRectangle) -> Fraction:
    """Exact integral of D * h_R over the unit square.

    Per-point kernels vanish for points outside the half-open rectangle
    (and on its left/bottom edges), so for a rectangle containing no point
    the value collapses to -N |R|^2 / 16.
    """
    acc = Fraction(0)
    for p in ps:
        kx = haar_point_kernel(rect.x, p.x)
        if kx:
            acc += kx * haar_point_kernel(rect.y, p.y)
    return acc - len(ps) * rect.area ** 2 / 16


def cells(grid: CellDecomposition):
    """Yield (a, b, c, d, count) over all cells [a,b] x [c,d] of the grid."""
    xs, ys = grid.x_cuts, grid.y_cuts
    table = tuple(_columns(grid))
    for i in range(len(xs) - 1):
        row = table[i]
        for j in range(len(ys) - 1):
            yield xs[i], xs[i + 1], ys[j], ys[j + 1], row[j]


def l2_norm_sq_direct(ps: PointSet) -> Fraction:
    """Integrate (c - N x y)^2 cell by cell, exactly."""
    n = len(ps)
    total = Fraction(0)
    for a, b, c, d, k in cells(CellDecomposition.from_pointset(ps)):
        area = (b - a) * (d - c)
        ixy = Fraction(1, 4) * (b * b - a * a) * (d * d - c * c)
        ix2y2 = Fraction(1, 9) * (b ** 3 - a ** 3) * (d ** 3 - c ** 3)
        total += k * k * area - 2 * k * n * ixy + n * n * ix2y2
    return total


def prime_reciprocals(count: int) -> PointSet:
    """(1/p, 1 - 1/p) over the first `count` primes.

    Every coordinate is distinct, and each axis's common denominator is the
    product of the primes: about 56,000 bits for 4097 of them.
    """
    limit = max(16, count * (count.bit_length() + 2))
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, limit, k)))
    primes = [k for k in range(limit) if sieve[k]][:count]
    assert len(primes) == count
    return PointSet(tuple((Fraction(1, p), 1 - Fraction(1, p)) for p in primes))


def linf_exact_scan(ps: PointSet) -> Fraction:
    """Exact sup |D| with every grid corner compared in integers.

    Both one-sided counts are read from the streamed columns, and each
    corner's max(closed - Nxy, Nxy - strict) is compared with the best so
    far by cross-multiplying each coordinate's own numerator and
    denominator; `linf_norm` reaches the same corners through a float
    filter.
    """
    grid = ps.grid
    n = len(grid)
    y_parts = [(q.numerator, q.denominator) for q in grid.y_cuts]
    best_num, best_den = 0, 1
    strict_row = (0,) * len(y_parts)
    for x, closed_row in zip(grid.x_cuts, _columns(grid)):
        n_xn, xd = n * x.numerator, x.denominator
        for (yn, yd), closed, strict in zip(y_parts, closed_row, strict_row):
            den = xd * yd
            nxy = n_xn * yn                 # N x y = nxy / den
            num = max(closed * den - nxy, nxy - strict * den)
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        strict_row = (0, *closed_row[:-1])
    return Fraction(best_num, best_den)


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


def l1_norm_iv(ps: PointSet, dps: int = 30) -> L1Norm:
    """`l1_norm` with its enclosure taken by `l1_enclosure_iv`."""
    form = _l1_form(ps.grid)
    if not form.crossed:
        return L1Norm(form.rational, Fraction(0), True, 0, 0)
    for attempt_dps in (dps, 2 * dps, 4 * dps, 8 * dps):
        lo, hi = l1_enclosure_iv(form, attempt_dps)
        with mp.workdps(attempt_dps):
            mid, err = _mid_rad(lo, hi)
        if err <= 1e-12 * mid:
            return L1Norm(mid, err, False, form.crossed, attempt_dps)
    raise ResourceLimitError(
        f"could not certify L1 to 1e-12 relative error by {8 * dps} digits"
    )


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
