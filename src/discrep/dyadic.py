"""Exact dyadic geometry.

Everything downstream is built on half-open dyadic intervals
[j/2^k, (j+1)/2^k), their products, and the L-infinity normalized Haar
function adapted to them (+1 on the left half, -1 on the right half,
0 outside).  Coordinates are arbitrary-precision rationals
(``fractions.Fraction``); all predicates and integrals in this module are
exact.

Conventions:
  * intervals are half-open everywhere, so subdivision is a true partition
    and the point x = 1 has Haar value 0;
  * dyadic fractions are plain ``Fraction`` values whose denominator is a
    power of two -- ``Fraction`` already keeps them in lowest terms, which
    is exactly the canonical odd-numerator form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


def dyadic(numerator: int, exponent: int) -> Fraction:
    """The exact rational numerator / 2**exponent."""
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    return Fraction(numerator, 1 << exponent)


def is_dyadic(q: Fraction) -> bool:
    """True when q has a power-of-two denominator (in lowest terms)."""
    d = q.denominator
    return d & (d - 1) == 0


def dyadic_exponent(q: Fraction) -> int:
    """Smallest k with q * 2**k integral.  Raises for non-dyadic rationals."""
    if not is_dyadic(q):
        raise ValueError(f"{q} is not a dyadic rational")
    return q.denominator.bit_length() - 1


class Point(NamedTuple):
    x: Fraction
    y: Fraction


def as_coordinate(value) -> Fraction:
    """Coerce to an exact Fraction in [0, 1]."""
    q = Fraction(value)
    if not 0 <= q <= 1:
        raise ValueError(f"coordinate {q} outside [0, 1]")
    return q


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

    @classmethod
    def from_indices(cls, scale_x: int, scale_y: int, jx: int, jy: int) -> "DyadicRectangle":
        return cls(DyadicInterval(scale_x, jx), DyadicInterval(scale_y, jy))

    @property
    def area(self) -> Fraction:
        return self.x.length * self.y.length

    def contains(self, px: Fraction, py: Fraction) -> bool:
        return self.x.contains(px) and self.y.contains(py)

    def haar(self, px: Fraction, py: Fraction) -> int:
        return self.x.haar(px) * self.y.haar(py)

    def __str__(self) -> str:
        return f"{self.x} x {self.y}"
