"""Interval helpers on raw mpmath.libmp pairs, and directed decimal output.

This is the one module of the package that imports mpmath at module level,
and `import discrep` does not load it.  The entry points that compute or
print an interval import it when they run: `discrepancy.l1_norm` and the
`norms` printer in `cli` (once a cell is crossed), the `testfn` functions
and the `certificate` printer.  So the `gen`, `aux`, `lemmas` and `comb`
commands never load mpmath, nor does `norms` on a set whose L1 is exact.

An interval is a raw libmp pair (lo, hi) at an explicit precision in bits,
and nothing in the package reads or sets mpmath's global precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from mpmath import mp, mpf
from mpmath.libmp import (
    dps_to_prec, from_int, from_rational, mpf_log, mpi_div, mpi_log, round_ceiling, round_floor,
    round_nearest,
)

if TYPE_CHECKING:
    from .discrepancy import L1Form


def _mpi_int(k: int, prec: int) -> tuple:
    """The integer k as a raw libmp interval at `prec` bits, rounded outward."""
    return from_int(k, prec, round_floor), from_int(k, prec, round_ceiling)


def _mpi_fraction(q: Fraction, prec: int) -> tuple:
    """q as a raw libmp interval at `prec` bits: numerator and denominator
    rounded outward, then divided."""
    return mpi_div(_mpi_int(q.numerator, prec), _mpi_int(q.denominator, prec), prec)


def _iv_endpoints(x: tuple) -> tuple[mpf, mpf]:
    """The exact endpoints (lo, hi) of the raw libmp interval x, as mpf."""
    lo, hi = x
    return mp.make_mpf(lo), mp.make_mpf(hi)


def _fraction(value) -> Fraction:
    """The exact value of a finite mpf, a Fraction or an int."""
    if not isinstance(value, mpf):
        return Fraction(value)
    sign, man, exp, _ = value._mpf_
    if not man and exp:
        raise ValueError(f"{value} is not finite")
    return (-1) ** sign * man * Fraction(2) ** exp


def _nstr_directed(value, digits: int, up: bool) -> str:
    """`mp.nstr` of the `digits`-significant-digit decimal next to `value`
    toward +inf (`up`) or toward -inf, so the printed number bounds `value`.

    `value` (a finite mpf, a Fraction or an int) is read exactly, whatever
    mp's current precision.  When rounding to nearest gives the same
    decimal, the string equals `mp.nstr(value, digits)`.
    """
    q = _fraction(value)
    if q:
        # 10^e <= |q| < 10^(e + 1): with a digits over b, |q| < 10^(a - b + 1)
        e = len(str(abs(q.numerator))) - len(str(q.denominator))
        while Fraction(10) ** e > abs(q):
            e -= 1
        unit = Fraction(10) ** (e + 1 - digits)
        q = (math.ceil(q / unit) if up else math.floor(q / unit)) * unit
    nearest = from_rational(q.numerator, q.denominator, dps_to_prec(digits + 10), round_nearest)
    return mp.nstr(mp.make_mpf(nearest), digits)


def _l1_enclosure(form: L1Form, dps: int) -> tuple[mpf, mpf]:
    """Exact endpoints of an interval holding rational + (sum c_m ln m) / n.

    The form's m are 2 and odd integers >= 3 (every even k and 2^53
    denominator folds into the one ln 2).  Each ln m is enclosed at
    w = prec + bitlen(|c_m|) + g bits, with prec = dps_to_prec(dps),
    L_m = bitlen(m) and g = bitlen(sum L_m) + 8.  An m of at most w bits
    is exact there and ln m is irrational, so one log rounded down at w
    bits and the next w-bit float above it enclose ln m.  A wider m is
    rounded outward to w bits first (`_mpi_int`) and takes the `mpi_log`
    of that interval.  The ends times c_m and the rational are summed
    exactly, n is divided out exactly, and each end is rounded outward
    once, at prec bits.

    Width: each log end is within one ulp, 2^(1-w) L ln 2, of the log of
    its end of m's interval, whose logs differ by at most 2^(1-w), so ln m
    is enclosed in 2^(2-w) (L ln 2 + 1/2) <= 2^(2-w) L (L >= 2), c_m ln m
    in 2^(2-prec-g) L and the total in 2^(-6-prec) / n.  Since
    |D| >= n x y on [0, s]^2 with n s^2 = 1/4,
    ||D||_1 >= 1/(64 n): the log error is below one ulp of ||D||_1 at prec
    bits, and the result is at most 2 ulps of its upper end wide.
    """
    prec = dps_to_prec(dps)
    guard = sum(m.bit_length() for _, m in form.logs).bit_length() + 8
    # an end is a w-bit mpf (0, man, exp, bc) >= ln 2 > 1/2, so exp >= -w >= -shift,
    # and exp + bc >= 0 puts its ulp 2^(exp + bc - w) at 2^-shift or above
    shift = prec + guard + max((abs(c) for c, _ in form.logs), default=0).bit_length()
    lo_sum = hi_sum = 0
    for c, m in form.logs:
        wp = prec + abs(c).bit_length() + guard
        # ln m lies in [a, b] 2^-shift
        if m.bit_length() <= wp:
            _, man, exp, bc = mpf_log(from_int(m), wp, round_floor)
            a = man << (exp + shift)
            b = a + (1 << (exp + bc - wp + shift))      # one ulp at wp bits
        else:
            lo, hi = mpi_log(_mpi_int(m, wp), wp)
            a, b = lo[1] << (lo[2] + shift), hi[1] << (hi[2] + shift)
        if c < 0:                               # c [a, b] = [c b, c a]
            a, b = b, a
        lo_sum += c * a
        hi_sum += c * b
    q, num = form.rational.denominator, form.rational.numerator * form.n << shift
    return _iv_endpoints((from_rational(num + q * lo_sum, q * form.n << shift, prec, round_floor),
                          from_rational(num + q * hi_sum, q * form.n << shift, prec, round_ceiling)))
