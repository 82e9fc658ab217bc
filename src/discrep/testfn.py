"""Fourier-atom test functions, their linear coefficient, and bound certificates.

A test function is a finite sum T(x) = sum_j c_j exp(-i w_j x) with exact
rational complex coefficients.  Composing T with the normalized sum of the
n+1 auxiliary functions and extracting the part linear in that sum gives
the per-atom factor

    -i sin(w/sqrt(n)) cos(w/sqrt(n))^n,

with the n -> infinity limit -i w exp(-w^2/2).  Maximizing w exp(-w^2/2)
over unit coefficient mass singles out T = sin, whose limit value is
1/sqrt(e).

The certificate combines, for a concrete point set, the exact rational
inner products of the discrepancy function with the n+1 auxiliary
functions of its tree family, the stream `auxiliary.build_trees` (main
term, weighted by cos^n sin), against a fully explicit finite error series
(odd orders p = 3..n+1, each bounded through the product bound
`auxiliary.product_bound` summed over index tuples).  Every transcendental
factor here, the lin values' and the constants' too, is an interval with
directed rounding on raw mpmath.libmp pairs at `dps_to_prec(DPS)` bits, so
the certificate's L1 lower bound is rigorous; mpmath's global context is
never read or set, and only the functions that compute import mpmath.

The expansion behind the error series is the pointwise identity (for
s_j = +-1, a = 1/sqrt(n))

    sin(sum s_j / sqrt(n)) = sum_{odd p} (-1)^((p-1)/2)
                             cos^(n+1-p)(a) sin^p(a) e_p(s),

i.e. the imaginary part of prod_j (cos a + i s_j sin a); the coefficient
of e_p is the plain binomial one.  The test suite checks the identity
exhaustively at small n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .auxiliary import AuxFamilyTree, _family, inner_product, n_from_pointcount, product_bound
from .combinatorics import sign_sum_moment
from .errors import ResourceLimitError
from .pointsets import PointSet

if TYPE_CHECKING:
    from mpmath import mpc, mpf

# The exact moments of `lin_series_crosscheck` take time growing about as n^2.7.
LIN_MAX_N = 1 << 11
# The one working precision, in decimal digits, of every mpmath computation
# here.  The certificate's mpf `main_term` and `error_bound` must agree with
# a 60-digit reference to 1e-30 relative (perfbench's certify check), which
# needs more than about 32 digits; 50 leaves a wide margin.
DPS = 50


class _AtomFields(NamedTuple):
    re: Fraction
    im: Fraction
    freq: Fraction


class Atom(_AtomFields):
    """One term c * exp(-i * freq * x) with exact rational c = re + i im;
    each field is made a Fraction."""

    __slots__ = ()

    def __new__(cls, re, im, freq):
        return super().__new__(cls, Fraction(re), Fraction(im), Fraction(freq))


class FourierAtomFunction(NamedTuple):
    atoms: tuple[Atom, ...]

    def derivative_at_zero(self, k: int) -> tuple[Fraction, Fraction]:
        """Exact k-th derivative at 0: sum_j c_j (-i w_j)^k, as (re, im)."""
        total_re, total_im = Fraction(0), Fraction(0)
        # (-i w)^k = w^k * (-i)^k with the period-4 pattern of (-i)^k
        rot_re, rot_im = ((1, 0), (0, -1), (-1, 0), (0, 1))[k % 4]
        for a in self.atoms:
            wk = a.freq ** k
            f_re, f_im = rot_re * wk, rot_im * wk
            total_re += a.re * f_re - a.im * f_im
            total_im += a.re * f_im + a.im * f_re
        return total_re, total_im


# sin(x) = (i/2) e^{-ix} - (i/2) e^{ix}
SINE = FourierAtomFunction((Atom(0, Fraction(1, 2), 1), Atom(0, Fraction(-1, 2), -1)))


def _atom_parts(fn: FourierAtomFunction, n: int | None) -> tuple[tuple, tuple]:
    """Re and Im of sum_j c_j (-i) f(w_j), two real interval sums at DPS digits
    since c (-i) = im - i re, with f `_odd_terms`' p = 1 term at freq w, or
    its n -> infinity limit w exp(-w^2/2) when n is None."""
    from mpmath.libmp import dps_to_prec, fzero, mpi_add, mpi_exp, mpi_mul

    from ._interval import _mpi_fraction

    prec = dps_to_prec(DPS)
    re = im = (fzero, fzero)
    for a in fn.atoms:
        f = _odd_terms(n, {1: 1}, prec, a.freq) if n is not None else mpi_mul(
            _mpi_fraction(a.freq, prec), mpi_exp(_mpi_fraction(-a.freq ** 2 / 2, prec), prec), prec)
        re = mpi_add(re, mpi_mul(f, _mpi_fraction(a.im, prec), prec), prec)
        im = mpi_add(im, mpi_mul(f, _mpi_fraction(-a.re, prec), prec), prec)
    return re, im


def _midpoints(re: tuple, im: tuple) -> mpc:
    """The mpc of the midpoints of two intervals at `dps_to_prec(DPS)` bits."""
    from mpmath import mp
    from mpmath.libmp import dps_to_prec, mpi_mid

    return mp.make_mpc(tuple(mpi_mid(part, dps_to_prec(DPS)) for part in (re, im)))


def lin_n(fn: FourierAtomFunction, n: int) -> mpc:
    """Linear-part coefficient at size parameter n.

    Per atom: c * (-i) sin(w/sqrt(n)) cos(w/sqrt(n))^n; for sin this is
    sin(1/sqrt(n)) cos(1/sqrt(n))^n exactly.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _midpoints(*_atom_parts(fn, n))


def lin_series_crosscheck(fn: FourierAtomFunction, n: int, order: int = 41) -> mpc:
    """Independent route via odd moments: sum over odd k <= order of

        T^(k)(0) * E[(x_0+...+x_n)^k] / (k! n^(k/2)).

    Everything except a single final factor 1/sqrt(n) is exact rational.
    n above LIN_MAX_N raises ResourceLimitError before any moment is taken.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError(f"order must be odd and >= 1, got {order}")
    if order > 41:
        raise ValueError(f"order capped at 41, got {order}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > LIN_MAX_N:
        raise ResourceLimitError(f"series route at n = {n} exceeds the n <= {LIN_MAX_N} cap")
    acc_re, acc_im = Fraction(0), Fraction(0)
    for k in range(1, order + 1, 2):
        d_re, d_im = fn.derivative_at_zero(k)
        weight = sign_sum_moment(n, k) / (factorial(k) * n ** ((k - 1) // 2))
        acc_re += d_re * weight
        acc_im += d_im * weight
    from mpmath.libmp import dps_to_prec, mpi_div, mpi_mul, mpi_sqrt

    from ._interval import _mpi_fraction, _mpi_int

    prec = dps_to_prec(DPS)
    root = mpi_div(_mpi_int(1, prec), mpi_sqrt(_mpi_int(n, prec), prec), prec)
    return _midpoints(mpi_mul(_mpi_fraction(acc_re, prec), root, prec),
                      mpi_mul(_mpi_fraction(acc_im, prec), root, prec))


def lin_limit(fn: FourierAtomFunction) -> mpc:
    """Limit value -i sum_j w_j exp(-w_j^2 / 2) c_j; for sin: 1/sqrt(e)."""
    return _midpoints(*_atom_parts(fn, None))


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

class BoundCertificate(NamedTuple):
    """Rigorous lower bound on the L1 norm of the discrepancy function.

    main_term is the rounded-down value of cos^n(a) sin(a) * |sum of the
    n+1 exact inner products| (a = 1/sqrt(n)); error_bound is the
    rounded-up finite error series.  l1_lower_bound = max(0, main - error)
    with the difference rounded down, and is sound even for unstabilized
    trees (their inner products only gain magnitude, and the widening is
    recorded in inner_product_error).  Each bound is an interval endpoint.
    """

    n: int
    point_count: int
    inner_product_sum: Fraction
    inner_product_error: Fraction
    trees_stabilized: bool
    main_term: mpf
    error_bound: mpf
    l1_lower_bound: mpf
    d_n_bound: mpf | None


def _odd_terms(n: int, weights: dict[int, Fraction], prec: int, freq: Fraction = 1) -> tuple:
    """Interval sum over p of cos^(n+1-p)(a) sin^p(a) w_p, with a = freq/sqrt(n),
    as a raw libmp interval at `prec` bits.

    p = 1 with the mass |sum of inner products| is the certificate's main
    term; the odd p >= 3 with `_error_weights` are its error series.
    """
    from mpmath.libmp import fzero, mpi_add, mpi_cos_sin, mpi_div, mpi_mul, mpi_pow_int, mpi_sqrt

    from ._interval import _mpi_fraction, _mpi_int

    a = mpi_div(_mpi_fraction(freq, prec), mpi_sqrt(_mpi_int(n, prec), prec), prec)
    cos_a, sin_a = mpi_cos_sin(a, prec)
    total = (fzero, fzero)
    for p, weight in weights.items():
        term = mpi_mul(mpi_pow_int(cos_a, n + 1 - p, prec), mpi_pow_int(sin_a, p, prec), prec)
        total = mpi_add(total, mpi_mul(term, _mpi_fraction(weight, prec), prec), prec)
    return total


def _error_weights(n: int, count: int) -> dict[int, Fraction]:
    """Weight of each odd order p = 3..n+1: the product bounds of all index
    tuples i_1 < ... < i_p in 0..n.

    At gap g = i_p - i_1 there are (n+1-g) C(g-1, p-2) tuples, and the bound
    at gap g is 2^(n-g) times the one at gap n, so each weight is one
    integer sum times `product_bound(n, N, n)`.
    """
    unit = product_bound(n, count, n)
    return {
        p: unit * sum(comb(g - 1, p - 2) * (n + 1 - g) << (n - g) for g in range(p - 1, n + 1))
        for p in range(3, n + 2, 2)
    }


def certificate(ps: PointSet, trees: Iterable[AuxFamilyTree] | None = None) -> BoundCertificate:
    """End-to-end lower-bound certificate for one point set (T = sin route).

    All rounding is directed: the main term rounds down, the error series
    rounds up and their difference rounds down, so l1_lower_bound <=
    main_term - error_bound <= ||D||_1 holds rigorously.  The inner
    products are those of the family of `ps`, read one tree at a time as
    `auxiliary.build_trees` makes them, or of a prebuilt family: one tree
    of `ps` per direction index 0..n, in direction order, as a list or a
    stream (truncated trees are sound); anything else raises ValueError.
    """
    count, n = len(ps), n_from_pointcount(len(ps))
    total, total_error, stabilized = Fraction(0), Fraction(0), True
    for tree in _family(ps, trees):
        ip = inner_product(tree)
        total += ip.value
        total_error += ip.error
        stabilized &= tree.stabilized

    from mpmath import mpf
    from mpmath.libmp import dps_to_prec, mpi_div, mpi_log, mpi_sqrt, mpi_sub

    from ._interval import _iv_endpoints, _mpi_int

    prec = dps_to_prec(DPS)
    main = _odd_terms(n, {1: abs(total)}, prec)
    err = _odd_terms(n, _error_weights(n, count), prec)
    diff = mpi_sub(main, err, prec)
    dn = None
    if count >= 2:
        dn = mpi_div(diff, mpi_sqrt(mpi_log(_mpi_int(count, prec), prec), prec), prec)

    return BoundCertificate(
        n=n,
        point_count=count,
        inner_product_sum=total,
        inner_product_error=total_error,
        trees_stabilized=stabilized,
        main_term=_iv_endpoints(main)[0],
        error_bound=_iv_endpoints(err)[1],
        l1_lower_bound=max(mpf(0), _iv_endpoints(diff)[0]),
        d_n_bound=None if dn is None else max(mpf(0), _iv_endpoints(dn)[0]),
    )


# ---------------------------------------------------------------------------
# reference constants
# ---------------------------------------------------------------------------

def constants_table() -> dict[str, mpf]:
    """The asymptotic constants by name, midpoints of intervals at DPS digits.
    With s = lin_limit(SINE).real = 1/sqrt(e) and r = 1/sqrt(ln 2): liminf
    3 s r / 256, limsup s r / 64, and Halász's 1/(1152 (sqrt(e) + 1) sqrt(ln 2))
    = s r / (1152 (1 + s)), about 0.00039."""
    from mpmath import mp
    from mpmath.libmp import dps_to_prec, mpi_add, mpi_div, mpi_log, mpi_mid, mpi_mul, mpi_sqrt

    from ._interval import _mpi_fraction, _mpi_int

    prec = dps_to_prec(DPS)
    s = _atom_parts(SINE, None)[0]
    sr = mpi_div(s, mpi_sqrt(mpi_log(_mpi_int(2, prec), prec), prec), prec)
    halasz = mpi_mul(_mpi_int(1152, prec), mpi_add(_mpi_int(1, prec), s, prec), prec)
    table = {"liminf_dn_lower": mpi_mul(sr, _mpi_fraction(Fraction(3, 256), prec), prec),
             "limsup_dn_lower": mpi_div(sr, _mpi_int(64, prec), prec),
             "halasz_constant": mpi_div(sr, halasz, prec), "lin_limit_sin": s}
    return {name: mp.make_mpf(mpi_mid(value, prec)) for name, value in table.items()}


def asymptotic_dn_table(n_lo: int = 2, n_hi: int = 64) -> list[tuple[int, float]]:
    """Theoretical lower-bound values (1/sqrt(ln 2^(n-1))) sqrt(n) / (64 sqrt(e)).

    The sequence converges to 1/(64 sqrt(e ln 2)) ~ 0.01138 as n grows.
    """
    if not 2 <= n_lo <= n_hi <= 64:
        raise ValueError(f"range must sit inside 2..64, got {n_lo}..{n_hi}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        value = math.sqrt(n) / (64 * math.sqrt(math.e) * math.sqrt(math.log(2 ** (n - 1))))
        rows.append((n, value))
    return rows
