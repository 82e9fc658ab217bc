"""Sign-vector moments and odd symmetric expansions.

Central object: for x_0 = 1 and x_1..x_n independent +-1 signs, the odd
moment E[(x_0 + ... + x_n)^k].  Three independent routes compute it:

  * closed form 2^-n * sum_j C(n, j) (1 + n - 2j)^k,
  * brute-force average over all 2^n sign assignments,
  * coefficient of t^k/k! in sinh(t) cosh(t)^n.

The same moment is the coefficient of the linear term when (z_0+...+z_n)^k
is expanded, under z_i^2 = 1, in the odd elementary symmetric polynomials
e_1, e_3, e_5, ...; `expansion_table` gives the whole coefficient list
in closed form, by the orthogonality of the Krawtchouk polynomials
(MacWilliams & Sloane, The Theory of Error-Correcting Codes, 1977, ch. 5),
and re-verifies it pointwise, at one sign vector per number of negative
signs.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import NamedTuple, Sequence

from .errors import ResourceLimitError

BRUTEFORCE_MAX_N = 20
SERIES_MAX_ORDER = 200
TABLE_MAX_N = 12
TABLE_MAX_K = 11


def _require_odd(k: int):
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 1, got {k}")


def sign_sum_moment(n: int, k: int) -> Fraction:
    """E[(x_0 + ... + x_n)^k] for odd k: 2^-n sum_j C(n,j) (1 + n - 2j)^k."""
    _require_odd(k)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Fraction(sum(comb(n, j) * (1 + n - 2 * j) ** k for j in range(n + 1)), 1 << n)


def sign_sum_moment_bruteforce(n: int, k: int) -> Fraction:
    """Independent oracle: average (1 + sum eps)^k over all 2^n sign tuples."""
    _require_odd(k)
    if n > BRUTEFORCE_MAX_N:
        raise ResourceLimitError(f"brute force over 2^{n} assignments refused")
    total = 0
    for mask in range(1 << n):
        s = 1 + (n - 2 * bin(mask).count("1"))
        total += s ** k
    return Fraction(total, 1 << n)


class OddMomentSeries(NamedTuple):
    """Coefficients of t^k/k! (odd k) of sinh(t) cosh(t)^n up to degree K."""

    n: int
    truncation: int
    coefficients: dict[int, Fraction]


def odd_moment_series(n: int, truncation: int) -> OddMomentSeries:
    """Exact truncated product series of sinh(t) * cosh(t)^n."""
    if truncation > SERIES_MAX_ORDER:
        raise ResourceLimitError(f"series order {truncation} exceeds {SERIES_MAX_ORDER}")
    size = truncation + 1
    sinh = [Fraction(0)] * size
    for m in range(1, size, 2):
        sinh[m] = Fraction(1, factorial(m))
    cosh = [Fraction(0)] * size
    for m in range(0, size, 2):
        cosh[m] = Fraction(1, factorial(m))

    def mul(a, b):
        out = [Fraction(0)] * size
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if i + j >= size:
                    break
                if bj:
                    out[i + j] += ai * bj
        return out

    series = sinh
    for _ in range(n):
        series = mul(series, cosh)
    coeffs = {k: series[k] * factorial(k) for k in range(1, size, 2)}
    for k in range(0, size, 2):
        if series[k] != 0:
            raise ArithmeticError(f"even coefficient at degree {k} is nonzero")
    return OddMomentSeries(n, truncation, coeffs)


def elementary_symmetric(values: Sequence) -> list:
    """e_1 .. e_m of the given values (coefficients of prod (1 + v t))."""
    coeffs = [1]
    for v in values:
        coeffs = [
            (coeffs[d] if d < len(coeffs) else 0)
            + (coeffs[d - 1] * v if d >= 1 else 0)
            for d in range(len(coeffs) + 1)
        ]
    return coeffs[1:]


class OddExpansionTable(NamedTuple):
    """Coefficients A_p with (z_0+...+z_n)^k = sum_p A_p e_p under z_i^2 = 1.

    Only odd p up to min(k, n+1) can occur.
    """

    n: int
    k: int
    coefficients: dict[int, Fraction]


def _krawtchouk_coefficients(n: int, k: int) -> dict[int, Fraction]:
    """A_p for odd p = 1..n+1, in order; 0 for p > k.

    With m = n + 1, a sign vector with x of its m signs negative has sum
    m - 2x and e_p = K_p(x) = sum_j (-1)^j C(x, j) C(m - x, p - j).  These
    are orthogonal, sum_x C(m, x) K_p(x) K_q(x) = 2^m C(m, p) [p = q], so
    A_p = sum_x C(m, x) (m - 2x)^k K_p(x) / (2^m C(m, p)).
    """
    m = n + 1

    def krawtchouk(p: int, x: int) -> int:
        return sum((-1) ** j * comb(x, j) * comb(m - x, p - j) for j in range(p + 1))

    return {
        p: Fraction(
            sum(comb(m, x) * (m - 2 * x) ** k * krawtchouk(p, x) for x in range(m + 1)),
            comb(m, p) << m,
        )
        for p in range(1, m + 1, 2)
    }


def expansion_table(n: int, k: int) -> OddExpansionTable:
    """The closed-form expansion coefficients, verified at every sign vector."""
    _require_odd(k)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > TABLE_MAX_N or k > TABLE_MAX_K:
        raise ResourceLimitError(
            f"expansion table capped at n <= {TABLE_MAX_N}, k <= {TABLE_MAX_K}"
        )
    m = n + 1
    coefficients = _krawtchouk_coefficients(n, k)
    # verify sum_p A_p e_p = s^k in integers, scaled by the common denominator;
    # e_p and s depend only on the number x of negative signs
    scale = lcm(*(a.denominator for a in coefficients.values()))
    scaled = [(p, a.numerator * (scale // a.denominator)) for p, a in coefficients.items()]
    for x in range(m + 1):
        signs = [-1] * x + [1] * (m - x)
        e = [1] + elementary_symmetric(signs)
        if sum(a * e[p] for p, a in scaled) != scale * sum(signs) ** k:
            raise ArithmeticError(
                f"reconstruction failed at sign vector {signs} for n={n}, k={k}"
            )
    return OddExpansionTable(n, k, coefficients)
