"""Point-set generation, transformation, and exact CSV persistence.

Point sets are finite multisets in the closed unit square with exact
rational coordinates (``fractions.Fraction``; a dyadic rational is one
whose denominator in lowest terms is a power of two).  The CSV form is
designed so that write followed by read is the identity on coordinates:
dyadic values are written as "a/2^k", other rationals as "p/q", integers
bare.  The reader also accepts plain decimal literals (parsed exactly
from the digit string).

A literal longer than MAX_DIGITS characters, or whose power of two or of
ten would take more than MAX_LITERAL_BITS bits, is refused with
ResourceLimitError before it is read, and so is a CSV file whose distinct
powers of ten would take more than MAX_LITERAL_BITS bits in all; `read_csv`
builds each of a file's powers of ten once.

A `PointSet` is immutable and caches in its `__dict__` what the layers
above read of it: the norms' O(N) grid, `CellDecomposition`, which sorts
and ranks coordinates by integer keys and compares two of them as
Fractions only when they lie within 2^-64 of each other; the grid's axes
as integers; and the trees' integers (`auxiliary._tree_integers`).
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CsvFormatError, ResourceLimitError

# A set holds at most 2^MAX_POINTS_LOG2 points (`check_point_budget`).
MAX_POINTS_LOG2 = 24
# The integers of one grid axis hold at most this many bits in all (16 MiB).
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


def dyadic(numerator: int, exponent: int) -> Fraction:
    """The exact rational numerator / 2**exponent."""
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    return Fraction(numerator, 1 << exponent)


class Point(NamedTuple):
    x: Fraction
    y: Fraction


def as_coordinate(value) -> Fraction:
    """Coerce to an exact Fraction in [0, 1]; a Fraction is kept as it is."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    if not 0 <= q.numerator <= q.denominator:     # the denominator is positive
        raise ValueError(f"coordinate {q} outside [0, 1]")
    return q


class PointSet:
    """Ordered multiset of points; duplicates allowed and counted.  Equality,
    hash and repr go by (points, label), and assignment and deletion raise
    AttributeError: the caches assume the fields never change."""

    def __init__(self, points: Iterable, label: str = ""):
        self.__dict__.update(
            points=tuple(Point(as_coordinate(p[0]), as_coordinate(p[1])) for p in points),
            label=label,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.label) == (other.points, other.label)

    def __hash__(self) -> int:
        return hash((self.points, self.label))

    def __repr__(self) -> str:
        return f"PointSet(points={self.points!r}, label={self.label!r})"

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    def __delattr__(self, name):
        raise AttributeError("PointSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, k) -> Point:
        return self.points[k]

    @cached_property
    def grid(self) -> "CellDecomposition":
        """The set's `CellDecomposition`, built once."""
        return CellDecomposition.from_pointset(self)

    @cached_property
    def axes(self) -> tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]:
        """((x_den, x_ints), (y_den, y_ints)) with grid.x_cuts[i] == x_ints[i] / x_den
        and x_den the lcm of the x cuts' denominators (likewise y), built once.  Kept
        off the grid so that a kernel can refuse an oversize grid before building it."""
        return _axis_integers(self.grid.x_cuts), _axis_integers(self.grid.y_cuts)


def _axis_integers(cuts: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """(Q, cuts * Q) with Q the lcm of the cuts' denominators; ResourceLimitError
    before any integer is built if they would hold over MAX_AXIS_BITS bits."""
    den = 1
    for q in cuts:
        den = math.lcm(den, q.denominator)
        if len(cuts) * den.bit_length() > MAX_AXIS_BITS:
            raise ResourceLimitError(f"axis integers exceed the {MAX_AXIS_BITS}-bit budget")
    return den, tuple(q.numerator * (den // q.denominator) for q in cuts)


def _axis_cuts(values: list[Fraction]) -> tuple[tuple[Fraction, ...], list[int]]:
    """The sorted distinct values with 0 and 1 added, and each value's index there.

    A Fraction is in lowest terms, so (numerator, denominator) keys the
    distinct values exactly.  They sort by (floor(q 2^64), q): two cuts
    are compared as Fractions only when they lie within 2^-64 of each
    other, as floor is monotone.
    """
    keys = [(q.numerator, q.denominator) for q in values]
    cuts = {(0, 1): Fraction(0), (1, 1): Fraction(1)}
    cuts.update(zip(keys, values))
    order = sorted(cuts.items(), key=lambda item: ((item[0][0] << 64) // item[0][1], item[1]))
    rank = {key: i for i, (key, _) in enumerate(order)}
    return tuple(q for _, q in order), [rank[key] for key in keys]


class CellDecomposition(NamedTuple):
    """The grid cut by the point coordinates: O(N) entries, no count.

    x_cuts and y_cuts are the sorted distinct coordinates of each axis, 0
    and 1 included, and y_ranks[i] is the sorted tuple of the y ranks of
    the points on x cut i, duplicates repeated; `from_pointset` sorts and
    ranks the cuts by integer keys (`_axis_cuts`) and sorts the points'
    rank pairs once.  No count is stored: the L1 and L-infinity kernels
    keep one running row of counts per y rank, add each x cut's ranks to
    it in turn and take a column's closed-box counts as its prefix sums.
    """

    x_cuts: tuple[Fraction, ...]
    y_cuts: tuple[Fraction, ...]
    y_ranks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_pointset(cls, ps: PointSet) -> "CellDecomposition":
        if len(ps) < 1:
            raise ValueError("point set must be nonempty")
        x_cuts, xr = _axis_cuts([p.x for p in ps])
        y_cuts, yr = _axis_cuts([p.y for p in ps])
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
    """The 2^m-point van der Corput set: (k/2^m, bitreverse_m(k)/2^m)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    check_point_budget(1, m)
    pts = tuple(
        Point(dyadic(k, m), dyadic(int(f"{k:0{m}b}"[::-1], 2), m)) for k in range(1 << m)
    )
    return PointSet(pts, label=f"vdc_m{m}")


def random_uniform(n: int, seed: int) -> PointSet:
    """n i.i.d.-uniform points quantized to denominator 2^53, fixed by seed.

    More than 2^MAX_POINTS_LOG2 points raise ResourceLimitError before any is drawn.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_point_budget(n)
    rng = random.Random(seed)
    den = 1 << 53
    pts = tuple(
        Point(Fraction(rng.getrandbits(53), den), Fraction(rng.getrandbits(53), den))
        for _ in range(n)
    )
    return PointSet(pts, label=f"uniform_n{n}_seed{seed}")


def symmetrize(ps: PointSet) -> PointSet:
    """Append the mirror image (1-x, y) of every point; cardinality doubles, and
    past 2^MAX_POINTS_LOG2 raises ResourceLimitError before any mirror point."""
    check_point_budget(len(ps), 1)
    mirrored = tuple(Point(1 - p.x, p.y) for p in ps)
    return PointSet(ps.points + mirrored, label=f"{ps.label}+xmirror" if ps.label else "xmirror")


def _parse_coordinate(text: str, power_of_ten: Callable[[int], int]) -> Fraction:
    """Parse "a/2^k", "p/q", decimal, or integer literals exactly, with the
    10^e of a decimal exponent taken from `power_of_ten(e)`.

    ResourceLimitError, before the power is built, when the 2^k of a dyadic
    literal or the 10^e of a decimal exponent would take more than
    MAX_LITERAL_BITS bits, or the literal has over MAX_DIGITS characters.
    """
    text = text.strip()
    if len(text) > MAX_DIGITS:
        raise ResourceLimitError(f"{len(text)} characters exceed the {MAX_DIGITS}-digit budget")
    num, slash, den = text.partition("/")
    if slash and num.isdecimal() and den.isdecimal():
        return Fraction(int(num), int(den))
    m = _DYADIC_LITERAL.match(text)
    if m:
        exponent = int(m.group(2))
        if exponent >= MAX_LITERAL_BITS:            # 2^k takes k + 1 bits
            raise ResourceLimitError(f"2^{exponent} exceeds the {MAX_LITERAL_BITS}-bit budget")
        return dyadic(int(m.group(1)), exponent)
    m = _DECIMAL_EXPONENT.fullmatch(text)
    if not m:
        return Fraction(text)
    if abs(exponent := int(m.group(1))) * math.log2(10) >= MAX_LITERAL_BITS:
        raise ResourceLimitError(f"10^{abs(exponent)} exceeds the {MAX_LITERAL_BITS}-bit budget")
    mantissa, power = Fraction(text[:m.start(1) - 1]), power_of_ten(abs(exponent))
    return mantissa * power if exponent >= 0 else mantissa / power


def exact_str(q: Fraction) -> str:
    """str(q), or ResourceLimitError, before it is built, when its numerator
    or denominator has more than MAX_DIGITS log2(10) bits: an integer of b
    bits is below 2^b, so at most that many bits print in MAX_DIGITS digits."""
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if bits > MAX_DIGITS * math.log2(10):
        raise ResourceLimitError(f"a {bits}-bit integer exceeds the {MAX_DIGITS}-digit budget")
    return str(q)


def format_coordinate(q: Fraction) -> str:
    d = q.denominator
    if d == 1:
        return str(q.numerator)
    if d & (d - 1) == 0:
        return f"{q.numerator}/2^{d.bit_length() - 1}"
    return f"{q.numerator}/{d}"


def read_csv(path) -> PointSet:
    """Read a point set; '#' lines are comments, an "x,y" header is optional.

    Each power of ten that the file's decimal exponents use is built once,
    where `Fraction(str)` would build it for each literal, and the distinct
    ones share one MAX_LITERAL_BITS budget, as one literal's power does: a
    power that would take their bits to it raises ResourceLimitError with
    its line number, before it is built, and so does the point past
    2^MAX_POINTS_LOG2.  The point budget is checked at the counts 1, 2, 4,
    ..., which meet its power-of-two cap, so a line costs no call for it.
    """
    path = Path(path)
    pts = []
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
                if len(pts) == next_check:
                    check_point_budget(next_check + 1)
                    next_check *= 2
                x = _parse_coordinate(parts[0], power_of_ten)
                y = _parse_coordinate(parts[1], power_of_ten)
            except (ValueError, ZeroDivisionError) as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from exc
            except ResourceLimitError as exc:
                raise ResourceLimitError(f"line {lineno}: {exc}") from exc
            if not (0 <= x.numerator <= x.denominator and 0 <= y.numerator <= y.denominator):
                raise CsvFormatError(f"line {lineno}: coordinate outside [0, 1]")
            pts.append(Point(x, y))
    # each coordinate is checked above; `PointSet.__init__` would check it again
    ps = object.__new__(PointSet)
    ps.__dict__.update(points=tuple(pts), label=label)
    return ps


def write_csv(ps: PointSet, path, comments: Iterable[str] = ()) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if ps.label:
            fh.write(f"# label: {ps.label}\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write("x,y\n")
        for p in ps:
            fh.write(f"{format_coordinate(p.x)},{format_coordinate(p.y)}\n")
