"""Point-set generation, transformation, and exact CSV persistence.

Point sets are finite multisets in the closed unit square with exact
rational coordinates.  Each axis of a set is one denominator D and one
integer numerator a per point, the coordinate a / D in [0, 1]; D is the
lcm of the axis's denominators in lowest terms, so equal sets hold equal
integers (a dyadic rational is one whose denominator in lowest terms is
a power of two).  `read_csv`, `PointSet(...)`, the generators and
`symmetrize` build these integers directly, and every layer above reads
them: no Fraction is kept, and one is built only to print a coordinate.
An axis whose N numerators would take N (bitlen(D) - 64) > MAX_AXIS_BITS
bits past 64 each is refused with ResourceLimitError before any numerator
is built.

The CSV form is designed so that write followed by read is the identity
on coordinates: dyadic values are written as "a/2^k", other rationals as
"p/q", integers bare.  The reader also accepts plain decimal literals
(read exactly from the digit string).  A literal longer than MAX_DIGITS
characters, or whose power of two or of ten would take more than
MAX_LITERAL_BITS bits, is refused with ResourceLimitError before it is
read, and so is a CSV file whose distinct powers of ten would take more
than MAX_LITERAL_BITS bits in all; `read_csv` builds each of a file's
powers of ten once.

A `PointSet` is immutable, and caches in its `__dict__` what the layers
above build from its integers: the norms' O(N) grid, `CellDecomposition`,
which sorts and ranks each axis's numerators, and the trees' integers
(`auxiliary._tree_integers`).
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import CsvFormatError, ResourceLimitError

# A set holds at most 2^MAX_POINTS_LOG2 points (`check_point_budget`).
MAX_POINTS_LOG2 = 24
# The numerators of one axis hold at most this many bits in all (16 MiB)
# past the 64 bits a numerator that the point budget already pays for,
# counted as N (bitlen(D) - 64): a set with D <= 2^64, such as every set
# the generators make, meets the point budget alone.
MAX_AXIS_BITS = 1 << 27
# A literal's 2^k or 10^e takes at most this many bits, a limit set by parse
# time: 10^e costs about e^1.6, and the widest power admitted, 1e-315652,
# parses in 0.04 s on a 2-core Xeon with Python 3.11 (1e-1000000 takes
# 0.23 s and 1e-13467853 19 s).  A power that cancels down (2/2^k) is
# refused all the same.
MAX_LITERAL_BITS = 1 << 20
# Decimal digits of an integer read or printed, set by str() time, which
# grows as the square: 0.19 s at 10^5 digits, 1.6 s at 3 x 10^5 (same host).
# `cli.main` raises Python's 4,300-digit int-to-str limit to it.
MAX_DIGITS = 100_000

_DYADIC_LITERAL = re.compile(r"^([+-]?\d+)/2\^(\d+)$")
# A literal that `Fraction(str)` reads as mantissa * 10^exponent; group 1
# is the exponent.
_DECIMAL_EXPONENT = re.compile(
    r"[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?e([-+]?\d+(?:_\d+)*)", re.IGNORECASE
)


def as_coordinate(value) -> Fraction:
    """Coerce to an exact Fraction in [0, 1]; a Fraction is kept as it is."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    if not 0 <= q.numerator <= q.denominator:     # the denominator is positive
        raise ValueError(f"coordinate {q} outside [0, 1]")
    return q


Axis = tuple[int, tuple[int, ...]]      # (D, the numerators over D)


class PointSet:
    """Ordered multiset of points; duplicates allowed and counted.

    `axes` is ((Dx, xs), (Dy, ys)): point k is (xs[k] / Dx, ys[k] / Dy), each
    D the lcm of its axis's lowest-terms denominators.  `PointSet(points)`
    reads any pairs of exact coordinates (Fractions, ints, strings).
    Equality, hash and repr go by (axes, label), and assignment and
    deletion raise AttributeError: the caches assume the fields never
    change."""

    def __init__(self, points: Iterable, label: str = ""):
        coords = [(as_coordinate(p[0]), as_coordinate(p[1])) for p in points]
        self.__dict__.update(
            axes=tuple(_axis([q.numerator for q in axis], [q.denominator for q in axis])
                       for axis in (zip(*coords) if coords else ((), ()))),
            label=label,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.axes, self.label) == (other.axes, other.label)

    def __hash__(self) -> int:
        return hash((self.axes, self.label))

    def __repr__(self) -> str:
        return f"PointSet(axes={self.axes!r}, label={self.label!r})"

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("PointSet is immutable")

    def __len__(self) -> int:
        return len(self.axes[0][1])

    @cached_property
    def grid(self) -> "CellDecomposition":
        """The set's `CellDecomposition`, built once."""
        return CellDecomposition.from_pointset(self)


def _pointset(axes: tuple[Axis, Axis], label: str) -> PointSet:
    """A set of these axes, which the caller has built canonical and budgeted."""
    ps = object.__new__(PointSet)
    ps.__dict__.update(axes=axes, label=label)
    return ps


def _check_axis_budget(count: int, den: int) -> None:
    """ResourceLimitError when `count` numerators over `den` would take
    count * (bitlen(den) - 64) > MAX_AXIS_BITS bits past 64 each."""
    if count * (den.bit_length() - 64) > MAX_AXIS_BITS:
        raise ResourceLimitError(f"axis integers exceed the {MAX_AXIS_BITS}-bit budget")


def _axis(nums: Sequence[int], dens: Sequence[int]) -> Axis:
    """(D, the numerators over D) of the lowest-terms pairs nums[k] / dens[k],
    with D the lcm of the dens; ResourceLimitError before any numerator is
    built when N (bitlen(D) - 64) passes MAX_AXIS_BITS."""
    distinct = set(dens)
    den = 1
    for q in distinct:
        den = math.lcm(den, q)
        _check_axis_budget(len(nums), den)
    scale = {q: den // q for q in distinct}
    return den, tuple(map(mul, nums, map(scale.__getitem__, dens)))


def _lowest(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms, den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


def _axis_cuts(nums: tuple[int, ...], den: int) -> tuple[tuple[int, ...], list[int]]:
    """The sorted distinct numerators with 0 and den added, and each one's index there."""
    cuts = sorted({0, den, *nums})
    rank = {a: i for i, a in enumerate(cuts)}
    return tuple(cuts), list(map(rank.__getitem__, nums))


class CellDecomposition(NamedTuple):
    """The grid cut by the point coordinates: O(N) entries, no count.

    x_cuts and y_cuts are the sorted distinct numerators of each axis over
    its denominator D (`PointSet.axes`), 0 and D included, and y_ranks[i]
    is the sorted tuple of the y ranks of the points on x cut i,
    duplicates repeated; `from_pointset` sorts and ranks the integers
    themselves and sorts the points' rank pairs once.  No count is stored:
    the L1 and L-infinity kernels keep one running row of counts per y
    rank, add each x cut's ranks to it in turn and take a column's
    closed-box counts as its prefix sums.
    """

    x_cuts: tuple[int, ...]
    y_cuts: tuple[int, ...]
    y_ranks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_pointset(cls, ps: PointSet) -> "CellDecomposition":
        if len(ps) < 1:
            raise ValueError("point set must be nonempty")
        (dx, xs), (dy, ys) = ps.axes
        x_cuts, xr = _axis_cuts(xs, dx)
        y_cuts, yr = _axis_cuts(ys, dy)
        ranks: list[list[int]] = [[] for _ in x_cuts]
        for i, j in sorted(zip(xr, yr)):
            ranks[i].append(j)
        return cls(x_cuts, y_cuts, tuple(map(tuple, ranks)))


def check_point_budget(count: int, doublings: int = 0) -> None:
    """ResourceLimitError when count * 2^doublings points would pass the
    2^MAX_POINTS_LOG2 cap.  The cap is shifted, not the count, so no
    2^doublings is built; for doublings > MAX_POINTS_LOG2 the shifted cap
    is 0, and any point passes it."""
    if count > (1 << MAX_POINTS_LOG2) >> doublings:
        raise ResourceLimitError(f"more than 2^{MAX_POINTS_LOG2} points")


def van_der_corput(m: int) -> PointSet:
    """The 2^m-point van der Corput set: (k/2^m, bitreverse_m(k)/2^m), D = 2^m."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    check_point_budget(1, m)
    size = 1 << m
    ys = tuple(int(f"{k:0{m}b}"[::-1], 2) for k in range(size))
    return _pointset(((size, tuple(range(size))), (size, ys)), f"vdc_m{m}")


def random_uniform(n: int, seed: int) -> PointSet:
    """n i.i.d.-uniform points quantized to denominator 2^53, fixed by seed.

    The draws alternate x and y, point by point.  An axis whose numerators
    are all even has its lowest-terms D below 2^53.  More than
    2^MAX_POINTS_LOG2 points raise ResourceLimitError before any is drawn.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_point_budget(n)
    den = 1 << 53
    draws = tuple(map(random.Random(seed).getrandbits, repeat(53, 2 * n)))
    axes = []
    for nums in (draws[0::2], draws[1::2]):
        g = math.gcd(den, math.gcd(*nums))
        axes.append((den // g, tuple(a // g for a in nums)) if g > 1 else (den, nums))
    return _pointset(tuple(axes), f"uniform_n{n}_seed{seed}")


def symmetrize(ps: PointSet) -> PointSet:
    """Append the mirror image (1-x, y) of every point, a -> D - a along x;
    cardinality doubles, and past 2^MAX_POINTS_LOG2 or the axis budget
    raises ResourceLimitError before any mirror point."""
    check_point_budget(len(ps), 1)
    (dx, xs), (dy, ys) = ps.axes
    for den in (dx, dy):
        _check_axis_budget(2 * len(xs), den)
    axes = ((dx, xs + tuple(map(dx.__sub__, xs))), (dy, ys + ys))
    return _pointset(axes, f"{ps.label}+xmirror" if ps.label else "xmirror")


def _parse_coordinate(text: str, power_of_ten: Callable[[int], int]) -> tuple[int, int]:
    """Read "a/2^k", "p/q", decimal, or integer literals exactly, as their
    lowest-terms pair (numerator, denominator).  "a/2^k", "p/q" and
    unsigned integers are read as ints, with no Fraction; a decimal with an
    exponent is its `Fraction(str)` mantissa times the 10^e that
    `power_of_ten(e)` gives, and any other literal is `Fraction(str)`'s.

    ResourceLimitError, before the power is built, when the 2^k of a dyadic
    literal or the 10^e of a decimal exponent would take more than
    MAX_LITERAL_BITS bits, or the literal has over MAX_DIGITS characters.
    """
    text = text.strip()
    if len(text) > MAX_DIGITS:
        raise ResourceLimitError(f"{len(text)} characters exceed the {MAX_DIGITS}-digit budget")
    num, slash, den = text.partition("/")
    if num.isdecimal() and (den.isdecimal() or not slash):
        if not (q := int(den or 1)):
            raise ZeroDivisionError(f"Fraction({int(num)}, 0)")
        return _lowest(int(num), q)
    m = _DYADIC_LITERAL.match(text)
    if m:
        exponent = int(m.group(2))
        if exponent >= MAX_LITERAL_BITS:            # 2^k takes k + 1 bits
            raise ResourceLimitError(f"2^{exponent} exceeds the {MAX_LITERAL_BITS}-bit budget")
        return _lowest(int(m.group(1)), 1 << exponent)
    m = _DECIMAL_EXPONENT.fullmatch(text)
    if not m:
        q = Fraction(text)
    elif abs(exponent := int(m.group(1))) * math.log2(10) >= MAX_LITERAL_BITS:
        raise ResourceLimitError(f"10^{abs(exponent)} exceeds the {MAX_LITERAL_BITS}-bit budget")
    else:
        mantissa, power = Fraction(text[:m.start(1) - 1]), power_of_ten(abs(exponent))
        q = mantissa * power if exponent >= 0 else mantissa / power
    return q.numerator, q.denominator


def exact_str(q: Fraction) -> str:
    """str(q), or ResourceLimitError, before it is built, when its numerator
    or denominator has more than MAX_DIGITS log2(10) bits: an integer of b
    bits is below 2^b, so at most that many bits print in MAX_DIGITS digits."""
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if bits > MAX_DIGITS * math.log2(10):
        raise ResourceLimitError(f"a {bits}-bit integer exceeds the {MAX_DIGITS}-digit budget")
    return str(q)


def format_coordinate(a: int, den: int) -> str:
    """The literal of a / den (den > 0) that `read_csv` reads back: in lowest
    terms p/q, "p/2^k" when q is a power of two, bare p when q is 1."""
    p, q = _lowest(a, den)
    if q == 1:
        return str(p)
    if q & (q - 1) == 0:
        return f"{p}/2^{q.bit_length() - 1}"
    return f"{p}/{q}"


def read_csv(path) -> PointSet:
    """Read a point set; '#' lines are comments, an "x,y" header is optional.

    Each literal is read as its lowest-terms pair, and each axis becomes
    its numerators over the lcm of its denominators (`_axis`), refused
    with ResourceLimitError before any numerator is built when they would
    pass MAX_AXIS_BITS.  Each power of ten that the file's decimal
    exponents use is built once, and the distinct ones share one
    MAX_LITERAL_BITS budget, as one literal's power does: a power that
    would take their bits to it raises ResourceLimitError with its line
    number, before it is built, and so does the point past
    2^MAX_POINTS_LOG2.  The point budget is checked at the counts 1, 2, 4,
    ..., which meet its power-of-two cap, so a line costs no call for it.
    """
    path = Path(path)
    xs: list[int] = []          # each x literal's numerator and denominator in turn
    ys: list[int] = []
    label = path.stem
    powers: dict[int, int] = {}
    bits = 0.0
    next_check = 1

    def power_of_ten(exponent: int) -> int:
        nonlocal bits
        power = powers.get(exponent)
        if power is None:
            bits += exponent * math.log2(10)
            if bits >= MAX_LITERAL_BITS:
                raise ResourceLimitError(f"10^{exponent} takes the file's powers of ten past "
                                         f"the {MAX_LITERAL_BITS}-bit budget")
            power = powers[exponent] = 10 ** exponent
        return power

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# label:"):
                    label = line[len("# label:"):].strip()
                continue
            if line.lower().replace(" ", "") == "x,y":
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise CsvFormatError(f"line {lineno}: expected 'x,y', got {line!r}")
            try:
                if len(xs) == 2 * next_check:
                    check_point_budget(next_check + 1)
                    next_check *= 2
                x = _parse_coordinate(parts[0], power_of_ten)
                y = _parse_coordinate(parts[1], power_of_ten)
            except (ValueError, ZeroDivisionError) as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from exc
            except ResourceLimitError as exc:
                raise ResourceLimitError(f"line {lineno}: {exc}") from exc
            if not (0 <= x[0] <= x[1] and 0 <= y[0] <= y[1]):
                raise CsvFormatError(f"line {lineno}: coordinate outside [0, 1]")
            xs += x
            ys += y
    return _pointset((_axis(xs[0::2], xs[1::2]), _axis(ys[0::2], ys[1::2])), label)


def write_csv(ps: PointSet, path, comments: Iterable[str] = ()) -> None:
    path = Path(path)
    (dx, xs), (dy, ys) = ps.axes
    with path.open("w", encoding="utf-8") as fh:
        if ps.label:
            fh.write(f"# label: {ps.label}\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write("x,y\n")
        for a, b in zip(xs, ys):
            fh.write(f"{format_coordinate(a, dx)},{format_coordinate(b, dy)}\n")
