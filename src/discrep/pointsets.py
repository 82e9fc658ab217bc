"""Point-set generation, transformation, and exact CSV persistence.

Point sets are finite multisets in the closed unit square with exact
rational coordinates (``fractions.Fraction``; a dyadic rational is one
whose denominator in lowest terms is a power of two).  The CSV form is
designed so that write followed by read is the identity on coordinates:
dyadic values are written as "a/2^k", other rationals as "p/q", integers
bare.  The reader also accepts plain decimal literals (parsed exactly
from the digit string).

A literal whose power of two or of ten would take more than
MAX_LITERAL_BITS bits is refused with ResourceLimitError before that
power is built.

A set caches what the layers above read of it, such as the norms' O(N)
grid, `CellDecomposition`, which sorts and ranks coordinates by integer
keys and compares two of them as Fractions only when they lie within
2^-64 of each other.  Both are `_Record`s: immutable values that keep
such caches in their `__dict__`.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import CsvFormatError, ResourceLimitError

# Both generators refuse more than 2^VDC_MAX_BITS points.
VDC_MAX_BITS = 24
# The integers of one grid axis hold at most this many bits in all (16 MiB).
MAX_AXIS_BITS = 1 << 27
# A literal's 2^k or 10^e takes at most this many bits.  An axis holds at
# least 0, x and 1, so the axis budget refuses x when a wider power is its
# denominator; a power that cancels down (2/2^k) is refused all the same.
MAX_LITERAL_BITS = MAX_AXIS_BITS // 3

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
    """Coerce to an exact Fraction in [0, 1]; a Fraction is kept as it is."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    if not 0 <= q.numerator <= q.denominator:     # the denominator is positive
        raise ValueError(f"coordinate {q} outside [0, 1]")
    return q


class _Record:
    """Equality, hash and repr by the fields named in `_fields`, for an
    immutable value that is no tuple, or that caches what it computes in
    its `__dict__`, which a NamedTuple has none of.

    `__init__` sets the fields once, by writing `__dict__`, and assignment
    is refused afterwards: the caches assume the fields never change.
    `_replace` is a copy with some fields changed, as a NamedTuple's is,
    and starts with no cache.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class PointSet(_Record):
    """Ordered multiset of points; duplicates allowed and counted."""

    _fields = ("points", "label")

    def __init__(self, points: Iterable, label: str = ""):
        self.__dict__.update(
            points=tuple(Point(as_coordinate(p[0]), as_coordinate(p[1])) for p in points),
            label=label,
        )

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


class CellDecomposition(_Record):
    """The grid cut by the point coordinates: O(N) entries, no count.

    x_cuts and y_cuts are the sorted distinct coordinates of each axis, 0
    and 1 included, and point_ranks[k] holds the cut indices of point k;
    `from_pointset` sorts and ranks them by integer keys (`_axis_cuts`).
    axes, built on first read, is ((x_den, x_ints), (y_den, y_ints)) with
    x_cuts[i] == x_ints[i] / x_den, x_den the lcm of the x cuts'
    denominators (likewise y).  It stays lazy so that a kernel can refuse
    an oversize grid before any axis integer is built.  No count is
    stored: `discrepancy._columns` streams the closed-box counts one x cut
    at a time.
    """

    _fields = ("x_cuts", "y_cuts", "point_ranks")

    def __init__(self, x_cuts: tuple[Fraction, ...], y_cuts: tuple[Fraction, ...],
                 point_ranks: tuple[tuple[int, int], ...]):
        self.__dict__.update(x_cuts=x_cuts, y_cuts=y_cuts, point_ranks=point_ranks)

    @classmethod
    def from_pointset(cls, ps: PointSet) -> "CellDecomposition":
        if len(ps) < 1:
            raise ValueError("point set must be nonempty")
        x_cuts, x_ranks = _axis_cuts([p.x for p in ps])
        y_cuts, y_ranks = _axis_cuts([p.y for p in ps])
        return cls(x_cuts, y_cuts, tuple(zip(x_ranks, y_ranks)))

    @cached_property
    def axes(self) -> tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]:
        return _axis_integers(self.x_cuts), _axis_integers(self.y_cuts)

    def __len__(self) -> int:
        """The number of points, duplicates counted."""
        return len(self.point_ranks)


def van_der_corput(m: int) -> PointSet:
    """The 2^m-point van der Corput set: (k/2^m, bitreverse_m(k)/2^m)."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > VDC_MAX_BITS:
        raise ResourceLimitError(f"van der Corput size 2^{m} exceeds 2^{VDC_MAX_BITS} cap")
    pts = tuple(
        Point(dyadic(k, m), dyadic(int(f"{k:0{m}b}"[::-1], 2), m)) for k in range(1 << m)
    )
    return PointSet(pts, label=f"vdc_m{m}")


def random_uniform(n: int, seed: int) -> PointSet:
    """n i.i.d.-uniform points quantized to denominator 2^53, fixed by seed.

    More than 2^VDC_MAX_BITS points raise ResourceLimitError before any is drawn.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 1 << VDC_MAX_BITS:
        raise ResourceLimitError(f"{n} random points exceed the 2^{VDC_MAX_BITS} cap")
    rng = random.Random(seed)
    den = 1 << 53
    pts = tuple(
        Point(Fraction(rng.getrandbits(53), den), Fraction(rng.getrandbits(53), den))
        for _ in range(n)
    )
    return PointSet(pts, label=f"uniform_n{n}_seed{seed}")


def symmetrize(ps: PointSet) -> PointSet:
    """Append the mirror image (1-x, y) of every point; cardinality doubles."""
    mirrored = tuple(Point(1 - p.x, p.y) for p in ps)
    return PointSet(ps.points + mirrored, label=f"{ps.label}+xmirror" if ps.label else "xmirror")


def parse_coordinate(text: str) -> Fraction:
    """Parse "a/2^k", "p/q", decimal, or integer literals exactly.

    ResourceLimitError, before the power is built, when the 2^k of a dyadic
    literal or the 10^e of a decimal exponent would take more than
    MAX_LITERAL_BITS bits.
    """
    text = text.strip()
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
    if m and abs(exponent := int(m.group(1))) * math.log2(10) >= MAX_LITERAL_BITS:
        raise ResourceLimitError(f"10^{abs(exponent)} exceeds the {MAX_LITERAL_BITS}-bit budget")
    return Fraction(text)


def format_coordinate(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    if is_dyadic(q):
        return f"{q.numerator}/2^{dyadic_exponent(q)}"
    return f"{q.numerator}/{q.denominator}"


def read_csv(path) -> PointSet:
    """Read a point set; '#' lines are comments, an "x,y" header is optional."""
    path = Path(path)
    pts = []
    label = path.stem
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
                x = parse_coordinate(parts[0])
                y = parse_coordinate(parts[1])
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
