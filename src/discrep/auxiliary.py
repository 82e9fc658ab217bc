"""Recursive empty/occupied rectangle families and the +-1 auxiliary functions.

For a point set of size N, let n be the unique integer with
2^(n-1) < 2N <= 2^n.  For each direction index i in 0..n, level 0 tiles
the square by 2^n dyadic rectangles of shape 2^-i x 2^(i-n); each level
splits every occupied rectangle into 2^(2(n+1)) children (both sides cut
by 2^(n+1)).  Rectangles holding no point are "empty", the rest
"occupied"; the occupied count never exceeds N.

The auxiliary function of index i is the sum of Haar functions over all
empty rectangles of all levels: +-1 almost everywhere, +1 by convention on
the measure-zero residue that never leaves occupied rectangles.  Built to
a finite depth, it is +-1 off the deepest level's occupied cells, whose
exact measure the suite checks against the tree's bound.  The n + 1
trees of a set, one per direction index in order, are its family
(`build_trees`): `lemma_suite` and `testfn.certificate` build it, or check
that a family passed in has no missing, repeated or foreign tree.

The construction is infinite, but once every occupied rectangle's points
coincide ("stabilization", level l*) the occupied count c is constant
forever and the per-level empty count follows the fixed recurrence
(2^(2(n+1)) - 1) * c.  The sum of squared areas over all empty rectangles
of levels > l* is then a geometric series summed in closed form, which
turns inner products against the discrepancy function into exact
rationals: every empty rectangle R contributes -N |R|^2 / 16.

The two lemma bounds the certificate rests on, `lemma_short_bound` and
`product_bound`, are written here once: the suite checks both, and
`testfn` builds its main term and error series from them.

Only occupied rectangles are materialized, as each level's clusters (the
points of one occupied rectangle each, in parent order); empty rectangles
are implicit, so levels cost O(N) to build regardless of n, and a level on
which no cluster splits shares its parent's clusters and costs O(1).  The
counts that inner products and certificates need are the cluster counts;
the dict from index pair to members (`LevelRecord.occupied`) is derived
only for code that looks cells up.

Every rectangle is an integer address (kx, ky, jx, jy), the cell
[jx 2^-kx, (jx+1) 2^-kx) x [jy 2^-ky, (jy+1) 2^-ky), and the hot loops
stay on integers:

  * each point set reads every coordinate once as a fixed-point integer
    X = floor(x 2^S), with S = (n+1)(HARD_LEVEL_CAP+1) past the finest
    scale any tree reaches, so the cell at scale k is X >> (S - k) =
    floor(x 2^k) (`_tree_integers`, one record per set, which its n + 1
    trees share);
  * equal points always share a cell, so a level's cluster count never
    exceeds the number of distinct interior points, and stabilization is
    the first level where the two are equal;
  * level 0 buckets every point, a cluster moves whole until a level's
    scale passes its split scale, and no container is made per point
    (`build_tree`): per-point lists and tuples made CPython's cyclic
    collector run often, and its full passes walk every live object;
  * the product checks walk each tree only through cells nested with the
    current intersection, carry each piece's sign as a running parity of
    index bits, and keep signed and plain piece counts per area exponent
    (see `_product_counts`), so each reported integral is one Fraction
    built at the end.

The product checks still enumerate every piece, so `lemma_suite` runs
them only for n <= 4.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Sequence

from .discrepancy import linf_norm
from .errors import ResourceLimitError
from .pointsets import PointSet, _Record

HARD_LEVEL_CAP = 64
# Levels built past stabilization when no max_level is given.
EXTRA_LEVELS = 2
# The verification suite's product checks: the truncation level, the
# largest n they run for, and the piece count past which they are skipped.
PRODUCT_LEVEL = 2
PRODUCT_MAX_N = 4
PIECE_CAP = 2_000_000


# A cluster is (members, X0, Y0, last whole level): the indices of the
# points in one occupied rectangle, the fixed-point integers of its first
# member, and the last level at which all its members share a cell
# (HARD_LEVEL_CAP for a lone point, which never splits).
Cluster = tuple[tuple[int, ...], int, int, int]


class LevelRecord(_Record):
    """One subdivision level: its clusters, one per occupied rectangle, and
    the empty count.

    At this level a cluster's cell is (X0 >> (fixed_bits - scale_x),
    Y0 >> (fixed_bits - scale_y)), with fixed_bits the set's fixed-point
    scale S.  A level on which no cluster splits holds its parent's
    `clusters` tuple itself.
    """

    _fields = ("level", "scale_x", "scale_y", "clusters", "fixed_bits", "empty_count",
               "rect_area")

    def __init__(self, level: int, scale_x: int, scale_y: int, clusters: tuple[Cluster, ...],
                 fixed_bits: int, empty_count: int, rect_area: Fraction):
        self.__dict__.update(level=level, scale_x=scale_x, scale_y=scale_y, clusters=clusters,
                             fixed_bits=fixed_bits, empty_count=empty_count, rect_area=rect_area)

    @cached_property
    def occupied(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Members per occupied cell (jx, jy), in cluster order; built on
        first read.  Hot loops read it once per tree (`_product_counts`):
        an attribute cached after __init__ loads off the fast path."""
        dx, dy = self.fixed_bits - self.scale_x, self.fixed_bits - self.scale_y
        return {(x0 >> dx, y0 >> dy): members for members, x0, y0, _ in self.clusters}


class AuxFamilyTree(_Record):
    """Leveled record of the recursive construction for one direction index."""

    _fields = ("pointset", "direction", "n", "levels", "stabilization_level")

    def __init__(self, pointset: PointSet, direction: int, n: int,
                 levels: tuple[LevelRecord, ...], stabilization_level: int | None):
        self.__dict__.update(pointset=pointset, direction=direction, n=n, levels=levels,
                             stabilization_level=stabilization_level)

    @property
    def point_count(self) -> int:
        return len(self.pointset)

    @property
    def stabilized(self) -> bool:
        return self.stabilization_level is not None

    @property
    def deepest_level(self) -> int:
        return len(self.levels) - 1

    def uncovered_mass(self, level: int) -> Fraction:
        """Upper bound N |R_L| on the measure still occupied at level L."""
        return self.point_count * self.levels[level].rect_area

    def summary(self) -> dict:
        return {
            "i": self.direction,
            "n": self.n,
            "levels": [
                {"l": rec.level, "nonempty": len(rec.clusters), "empty": rec.empty_count}
                for rec in self.levels
            ],
            "stabilized": self.stabilized,
            "l_star": self.stabilization_level,
            "sum_area_sq": str(sum_empty_area_sq(self)[0]),
            "inner_product": str(inner_product(self).value),
        }


def n_from_pointcount(count: int) -> int:
    """The unique n with 2^(n-1) < 2 * count <= 2^n."""
    if count < 1:
        raise ValueError(f"need at least one point, got {count}")
    return (2 * count - 1).bit_length()


class _TreeIntegers(NamedTuple):
    """All that the trees read of one set (`_tree_integers`)."""

    scale: int                  # S = (n+1)(HARD_LEVEL_CAP+1)
    xs: tuple[int, ...]         # floor(x 2^S) per point
    ys: tuple[int, ...]         # floor(y 2^S) per point
    interior: tuple[int, ...]   # the indices of the points off x = 1 and y = 1
    distinct: int               # how many of those are distinct
    lone: tuple[Cluster, ...]   # each point's one-point cluster


def _tree_integers(ps: PointSet) -> _TreeIntegers:
    """The set's `_TreeIntegers`, cached on the set: its trees and levels
    read one scale and share the one-point clusters ((t,), X[t], Y[t],
    HARD_LEVEL_CAP), as a lone point never splits.  Points closer than
    2^-S share their integers, so distinct points are told apart on their
    exact coordinates: a tree of such twins never stabilizes."""
    record = ps.__dict__.get("_tree_integers")
    if record is None:
        points = ps.points
        scale = (n_from_pointcount(len(points)) + 1) * (HARD_LEVEL_CAP + 1)
        xs, ys = (tuple((q.numerator << scale) // q.denominator for q in axis)
                  for axis in zip(*points))
        interior = tuple(t for t, (x, y) in enumerate(points)
                         if x.numerator < x.denominator and y.numerator < y.denominator)
        distinct = len({(x.numerator, x.denominator, y.numerator, y.denominator)
                        for x, y in (points[t] for t in interior)})
        lone = tuple(((t,), x, y, HARD_LEVEL_CAP) for t, (x, y) in enumerate(zip(xs, ys)))
        record = ps.__dict__["_tree_integers"] = _TreeIntegers(
            scale, xs, ys, interior, distinct, lone)
    return record


def build_tree(ps: PointSet, direction: int, max_level: int | None = None) -> AuxFamilyTree:
    """Construct levels until stabilization (plus EXTRA_LEVELS) or `max_level`.

    With an explicit max_level in 0..HARD_LEVEL_CAP exactly levels
    0..max_level are built; a negative one raises ValueError and one past
    HARD_LEVEL_CAP raises ResourceLimitError.  In auto mode building stops
    EXTRA_LEVELS past stabilization, with a hard cap of HARD_LEVEL_CAP
    levels; an unstabilized tree keeps its residual mass bound.

    The tree reads the set only through its `_TreeIntegers`: cells come
    from the integers at S = (n+1)(HARD_LEVEL_CAP+1) bits, past the finest
    scale any level reaches, and level 0 buckets the points off x = 1 and
    y = 1.  Each cluster records, when it is formed, the last level at
    which all its members still share a cell: its split scale along x is
    S minus the bit length of the OR of X ^ X0 over its members (X0 its
    first member's), and likewise along y.  Until that level the cluster
    moves whole to the child cell of its first member; at the next one its
    members are bucketed.  Equal points never split, so a level has at
    most as many clusters as there are distinct interior points, and
    exactly as many when every cluster holds one distinct point: the tree
    stabilizes at the first such level.

    A level before the first split level of any cluster records its
    parent's cluster tuple itself, with no key computed: the levels past
    stabilization cost O(1) each.  On a level where some clusters split,
    the others pass through untouched, and only the members of those that
    split are bucketed.  No cell dict is built here (see
    `LevelRecord.occupied`).

    Nothing is allocated per point, since per-point containers drive the
    cyclic garbage collector.  A one-point cluster is the set's shared
    one (the record's `lone`), so every tree and level reuses it.  While
    bucketing, a cell holds a lone member as its bare index, and a list
    is made only when a second point lands there.  A formed two-point
    cluster (last >= 0) always parts into two one-point cells at the
    level after its last whole one, so its members' shared clusters are
    emitted in member order with no bucketing; the root (last = -1) is
    always bucketed.
    """
    n = n_from_pointcount(len(ps))
    if not 0 <= direction <= n:
        raise ValueError(f"direction index {direction} outside 0..{n}")
    if max_level is not None:
        if max_level < 0:
            raise ValueError(f"max_level must be at least 0, got {max_level}")
        if max_level > HARD_LEVEL_CAP:
            raise ResourceLimitError(
                f"max_level {max_level} exceeds the cap of {HARD_LEVEL_CAP} levels"
            )
    step = n + 1
    scale, xs, ys, interior, distinct, lone = _tree_integers(ps)
    children = 1 << (2 * step)

    # Level 0 splits the root, the unit square's cluster of the interior points.
    clusters: tuple[Cluster, ...] = ((interior, 0, 0, -1),)
    next_split = 0
    kx, ky = direction, n - direction
    levels: list[LevelRecord] = []
    stabilization: int | None = None

    level = 0
    while True:
        parents = len(clusters)
        if level >= next_split:
            # Child cells of distinct parents are disjoint, so each cluster
            # that splits is bucketed on its own and its parts follow each
            # other in `formed`: the clusters come out in parent order.
            dx, dy = scale - kx, scale - ky
            formed: list[Cluster] = []
            for c in clusters:
                if level <= c[3]:
                    formed.append(c)
                    continue
                members = c[0]
                if len(members) == 2 and c[3] >= 0:
                    # a formed pair's members part at the level after its
                    # last whole one; bucketing keeps member order
                    formed.append(lone[members[0]])
                    formed.append(lone[members[1]])
                    continue
                # a lone part is its bare index until a second point lands
                parts: dict[tuple[int, int], int | list[int]] = {}
                for t in members:
                    key = (xs[t] >> dx, ys[t] >> dy)
                    part = parts.get(key)
                    if part is None:
                        parts[key] = t
                    elif type(part) is int:
                        parts[key] = [part, t]
                    else:
                        part.append(t)
                for part in parts.values():
                    if type(part) is int:
                        formed.append(lone[part])
                        continue
                    x0, y0 = xs[part[0]], ys[part[0]]
                    ax = ay = 0
                    for t in part:
                        ax |= xs[t] ^ x0
                        ay |= ys[t] ^ y0
                    last = min(
                        (scale - ax.bit_length() - direction) // step,
                        (scale - ay.bit_length() - (n - direction)) // step,
                    )
                    formed.append((tuple(part), x0, y0, last))
            clusters = tuple(formed)
            next_split = min((c[3] for c in clusters), default=HARD_LEVEL_CAP) + 1
        cells = (1 << n) if level == 0 else children * parents
        area = Fraction(1, 1 << (n + 2 * step * level))
        levels.append(
            LevelRecord(level, kx, ky, clusters, scale, cells - len(clusters), area)
        )

        if stabilization is None and len(clusters) == distinct:
            stabilization = level
        if max_level is not None:
            if level >= max_level:
                break
        elif stabilization is not None:
            if level >= stabilization + EXTRA_LEVELS:
                break
        if level >= HARD_LEVEL_CAP:
            break
        level += 1
        kx += step
        ky += step

    return AuxFamilyTree(ps, direction, n, tuple(levels), stabilization)


def build_trees(ps: PointSet, max_level: int | None = None) -> list[AuxFamilyTree]:
    """The family of `ps`: its tree for each direction index 0..n, in order."""
    return [build_tree(ps, i, max_level) for i in range(n_from_pointcount(len(ps)) + 1)]


def _family(ps: PointSet, trees: Sequence[AuxFamilyTree] | None) -> list[AuxFamilyTree]:
    """`build_trees(ps)` when `trees` is None, else `trees` in direction order.

    A family passed in must be one tree of `ps` per direction index 0..n;
    a missing, repeated or foreign tree raises ValueError.
    """
    if trees is None:
        return build_trees(ps)
    n = n_from_pointcount(len(ps))
    return _trees_of(ps, sorted(trees, key=lambda t: t.direction), range(n + 1),
                     f"need one tree per direction index 0..{n}")


def _trees_of(ps: PointSet, trees: Sequence[AuxFamilyTree], directions: Sequence[int],
              mismatch: str) -> list[AuxFamilyTree]:
    """`trees` as a list; ValueError unless they are trees of `ps` for `directions`, in order."""
    trees = list(trees)
    if [t.direction for t in trees] != list(directions):
        raise ValueError(mismatch)
    if any(t.pointset != ps for t in trees):
        raise ValueError("trees were built for another point set")
    return trees


class InnerProduct(NamedTuple):
    """Exact value with a rigorous one-sided error bound.

    The true inner product lies in [value - error, value]; error is 0 for
    stabilized trees (the infinite tail is summed in closed form).
    """

    value: Fraction
    error: Fraction


def sum_empty_area_sq(tree: AuxFamilyTree) -> tuple[Fraction, Fraction]:
    """Sum of |R|^2 over all empty rectangles, all levels.

    A level-l rectangle has area 2^-e_l with e_l = n + 2(n+1)l, so with D
    the deepest built level the built levels sum to
    sum_l empty_l 4^(e_D - e_l) / 4^e_D, one integer numerator.  For a
    stabilized tree with c occupied rectangles at D the remaining levels
    form a geometric series with ratio 2^(-4(n+1)) that sums to
    c / (4^e_D (2^(2(n+1)) + 1)) (zero error); otherwise future empties
    lie inside the c occupied cells of area 2^-e_D, each of area at most
    2^-(e_D + 2(n+1)), which bounds the omitted sum by c / 4^(e_D + n + 1).
    """
    n = tree.n
    step = 4 * (n + 1)  # 4^(e_l - e_(l-1)) = 2^step
    numerator = 0
    for rec in tree.levels:
        numerator = (numerator << step) + rec.empty_count
    e_deep = n + 2 * (n + 1) * tree.deepest_level
    c = len(tree.levels[-1].clusters)
    if tree.stabilized:
        children = 1 << (2 * (n + 1))
        total = Fraction(numerator * (children + 1) + c, (children + 1) << (2 * e_deep))
        return total, Fraction(0)
    return Fraction(numerator, 1 << (2 * e_deep)), Fraction(c, 1 << (2 * (e_deep + n + 1)))


def inner_product(tree: AuxFamilyTree) -> InnerProduct:
    """Exact integral of D times the auxiliary function.

    Every empty rectangle contains no point, so each contributes
    -N |R|^2 / 16 and the whole integral is -(N/16) * sum |R|^2.
    """
    total, tail_bound = sum_empty_area_sq(tree)
    scale = Fraction(tree.point_count, 16)
    return InnerProduct(-scale * total, scale * tail_bound)


def lemma_short_bound(n: int, count: int) -> Fraction:
    """Upper bound -(2^n - N) N 2^(-2n) / 16 that every inner product respects."""
    return -Fraction(((1 << n) - count) * count, 16 << (2 * n))


def product_bound(n: int, count: int, gap: int) -> Fraction:
    """Bound N 2^-(n + gap) / 16 on |<D, f_(i_1) ... f_(i_p)>| for i_p - i_1 = gap."""
    return Fraction(count, 16 << (n + gap))


# ---------------------------------------------------------------------------
# products of several auxiliary functions
# ---------------------------------------------------------------------------

def _product_counts(
    trees: Sequence[AuxFamilyTree], level_cap: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Signed and plain product-piece counts per area exponent e.

    A piece is the intersection of one empty rectangle of levels
    0..level_cap per tree; it has area 2^-e with e = kx + ky.  On it the
    product of the trees' functions is sign times the Haar function of the
    piece (side lengths across distinct direction indices never tie, so the
    coarser factors are constant there), and the pieces partition the
    region that every tree covers.

    Each tree is walked only through cells nested with the current
    intersection (kx, ky, jx, jy), so every empty cell it meets is a piece
    of the next one.  The sign is a running parity of right halves, each of
    which flips it.  A cell coarser in x (rkx < kx) holds the intersection
    in its right half iff bit kx - rkx - 1 of jx is set; a cell finer in x
    settles the half of the previous finest-x rectangle from bit
    rkx - kx - 1 of its own index.  y works the same way, and the unit
    square the walk starts from owns no half.
    """
    signed: dict[int, int] = {}
    plain: dict[int, int] = {}
    last = len(trees) - 1
    total = 0
    cells = [
        [(rec.scale_x, rec.scale_y, rec.occupied) for rec in tree.levels[: level_cap + 1]]
        for tree in trees
    ]

    def axis(k: int, bk: int, bj: int, ck: int, cj: int, owned: bool):
        """Cells at scale k nested with the box cell (bk, bj), each as
        (index, flip, scale and index of its meet with the intersection
        cell (ck, cj)).  The box is the intersection cut down to the
        occupied parent cell; where k < ck the two coincide.  `owned` is
        false at depth 0, where the unit square owns no half."""
        if k < ck:
            return [(cj >> (ck - k), (cj >> (ck - k - 1)) & 1, ck, cj)]
        shift = k - bk
        cells = range(bj << shift, (bj + 1) << shift)
        if owned and k > ck:
            return [(j, (j >> (k - ck - 1)) & 1, k, j) for j in cells]
        return [(j, 0, k, j) for j in cells]

    def walk(depth: int, level: int, box, cur, parity: int) -> None:
        nonlocal total
        scale_x, scale_y, occupied = cells[depth][level]
        xs = axis(scale_x, box[0], box[2], cur[0], cur[2], depth > 0)
        ys = axis(scale_y, box[1], box[3], cur[1], cur[3], depth > 0)
        deeper = level < level_cap
        count = flipped = 0
        for jx, fx, kx, ix in xs:
            for jy, fy, ky, iy in ys:
                if (jx, jy) in occupied:
                    if deeper:
                        walk(depth, level + 1, (kx, ky, ix, iy), cur, parity)
                elif depth < last:
                    meet = (kx, ky, ix, iy)
                    walk(depth + 1, 0, meet, meet, parity ^ fx ^ fy)
                else:
                    count += 1
                    flipped += fx ^ fy
        if count:
            e = max(scale_x, cur[0]) + max(scale_y, cur[1])
            signed[e] = signed.get(e, 0) + (count - 2 * flipped) * (1 - 2 * parity)
            plain[e] = plain.get(e, 0) + count
            total += count
            if total > PIECE_CAP:
                raise ResourceLimitError(f"intersection piece count exceeds cap {PIECE_CAP}")

    unit = (0, 0, 0, 0)
    walk(0, 0, unit, unit, 0)
    return signed, plain


class ProductBoundReport(NamedTuple):
    """Exact covered-region integral of D times a product of auxiliary functions.

    d_product_integral integrates D * prod f over the region covered by all
    trees up to the truncation level, which has measure `covered_area`.
    The uncovered remainder lies in the trees' level-L occupied cells, of
    measure at most `mass_bound`, so D * prod f there is bounded by
    `d_error` = ||D||_inf times that measure.  `d_product_bound` is the
    lemma's bound, `product_bound` at the gap i_p - i_1.
    """

    indices: tuple[int, ...]
    truncation_level: int
    mass_bound: Fraction
    d_product_integral: Fraction
    d_product_bound: Fraction
    d_error: Fraction
    covered_area: Fraction
    piece_count: int

    @property
    def covered_ok(self) -> bool:
        return 0 <= 1 - self.covered_area <= self.mass_bound

    @property
    def d_product_ok(self) -> bool:
        return abs(self.d_product_integral) <= self.d_product_bound + self.d_error


def product_bound_check(
    ps: PointSet,
    indices: Sequence[int],
    trees: Sequence[AuxFamilyTree],
    truncation_level: int = PRODUCT_LEVEL,
) -> ProductBoundReport:
    """Exact piecewise integration of D * prod f and the covered area, with bounds.

    Requires at least two strictly increasing direction indices and the
    trees of `ps` for them, in order, each built to `truncation_level`.  D
    against the Haar function of a point-free rectangle R gives
    -N |R|^2 / 16.  Raises ResourceLimitError past PIECE_CAP pieces.
    """
    indices = tuple(indices)
    if len(indices) < 2:
        raise ValueError("need at least two direction indices")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices must be strictly increasing, got {indices}")
    trees = _trees_of(ps, trees, indices, "trees do not match the requested indices")
    if any(t.deepest_level < truncation_level for t in trees):
        raise ValueError(f"all trees must be built to level {truncation_level}")
    n = trees[0].n
    count = len(ps)

    signed, plain = _product_counts(trees, truncation_level)
    top = max(plain, default=0)
    # D against the Haar function of a point-free R is -N |R|^2 / 16
    d_product = Fraction(
        -count * sum(net << (2 * (top - e)) for e, net in signed.items()),
        16 << (2 * top),
    )
    covered = Fraction(sum(c << (top - e) for e, c in plain.items()), 1 << top)
    pieces = sum(plain.values())

    uncovered = sum(
        (t.uncovered_mass(truncation_level) for t in trees), start=Fraction(0)
    )
    d_bound = product_bound(n, count, indices[-1] - indices[0])
    return ProductBoundReport(
        indices=indices,
        truncation_level=truncation_level,
        mass_bound=uncovered,
        d_product_integral=d_product,
        d_product_bound=d_bound,
        d_error=linf_norm(ps) * uncovered,
        covered_area=covered,
        piece_count=pieces,
    )


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    """One verdict.  A skipped check did not run: it is not passed, and it
    does not fail the suite."""

    name: str
    passed: bool
    witness: str
    skipped: bool = False


class SuiteReport(NamedTuple):
    label: str
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    @property
    def skipped(self) -> int:
        return sum(c.skipped for c in self.checks)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "n": self.n,
            "passed": self.passed,
            "skipped": self.skipped,
            "checks": [
                {"name": c.name, "passed": c.passed, "skipped": c.skipped,
                 "witness": c.witness}
                for c in self.checks
            ],
        }


def _check_level_counts(tree: AuxFamilyTree) -> CheckResult:
    """Counting identities: empties + occupied exhaust the parent cells."""
    n, count = tree.n, tree.point_count
    children = 1 << (2 * (n + 1))
    for rec in tree.levels:
        expected = (1 << n) if rec.level == 0 else children * len(
            tree.levels[rec.level - 1].clusters
        )
        occupied = len(rec.clusters)
        if rec.empty_count + occupied != expected:
            return CheckResult(
                "level_counts", False,
                f"i={tree.direction} l={rec.level}: {rec.empty_count}+{occupied} != {expected}",
            )
        if occupied > count:
            return CheckResult(
                "level_counts", False,
                f"i={tree.direction} l={rec.level}: occupied {occupied} > N={count}",
            )
        if rec.rect_area != Fraction(1, 1 << (n + 2 * (n + 1) * rec.level)):
            return CheckResult(
                "level_counts", False, f"i={tree.direction} l={rec.level}: wrong area"
            )
    return CheckResult("level_counts", True, f"i={tree.direction}: {len(tree.levels)} levels")


def _check_cluster_partition(tree: AuxFamilyTree) -> CheckResult:
    """Each level's clusters partition the set's interior points, each
    member in its cell: X[t] >> (S - scale_x) == jx and
    Y[t] >> (S - scale_y) == jy, on the set's `_TreeIntegers`.
    """
    scale, xs, ys, interior, _, _ = _tree_integers(tree.pointset)
    for rec in tree.levels:
        seen: list[int] = []
        dx, dy = scale - rec.scale_x, scale - rec.scale_y
        for (jx, jy), members in rec.occupied.items():
            for t in members:
                if xs[t] >> dx != jx or ys[t] >> dy != jy:
                    return CheckResult(
                        "cluster_partition", False,
                        f"i={tree.direction} l={rec.level}: point {t} outside its cell",
                    )
            seen.extend(members)
        if tuple(sorted(seen)) != interior:
            return CheckResult(
                "cluster_partition", False,
                f"i={tree.direction} l={rec.level}: clusters do not partition the points",
            )
    return CheckResult("cluster_partition", True, f"i={tree.direction}")


def _check_residual_mass(tree: AuxFamilyTree) -> CheckResult:
    """The occupied measure at each level is at most its bound, and the
    bounds strictly decrease level by level.

    A point lying in an occupied cell at every built level takes the +1
    convention, not a Haar value.  `_check_cluster_partition` shows that
    each occupied cell nests in an occupied parent (its members lie in
    both) and that no two clusters share a cell (their members would drop
    out of `occupied`), so those points are exactly the union of the
    deepest level's occupied cells, of measure len(clusters) * rect_area.
    """
    masses = []
    for rec in tree.levels:
        occupied, mass = len(rec.clusters) * rec.rect_area, tree.uncovered_mass(rec.level)
        if occupied > mass:
            return CheckResult(
                "residual_mass_decreasing", False,
                f"i={tree.direction} l={rec.level}: occupied {occupied} > mass {mass}",
            )
        masses.append(mass)
    if not all(b < a for a, b in zip(masses, masses[1:])):
        return CheckResult(
            "residual_mass_decreasing", False, f"i={tree.direction}: {masses}"
        )
    return CheckResult(
        "residual_mass_decreasing", True,
        f"i={tree.direction}: occupied(L={len(masses)-1}) = {occupied} <= mass = {mass}",
    )


def _check_inner_bound(tree: AuxFamilyTree) -> CheckResult:
    ip = inner_product(tree)
    bound = lemma_short_bound(tree.n, tree.point_count)
    if not ip.value <= bound:
        return CheckResult(
            "inner_product_upper_bound", False,
            f"i={tree.direction}: {ip.value} > {bound}",
        )
    return CheckResult(
        "inner_product_upper_bound", True,
        f"i={tree.direction}: {ip.value} <= {bound}",
    )


def _check_side_lengths(trees: Sequence[AuxFamilyTree]) -> CheckResult:
    """Across distinct direction indices, x side lengths never tie (nor y)."""
    for a, b in combinations(trees, 2):
        for ra in a.levels:
            for rb in b.levels:
                if ra.scale_x == rb.scale_x or ra.scale_y == rb.scale_y:
                    return CheckResult(
                        "side_lengths_distinct", False,
                        f"i={a.direction} l={ra.level} vs i={b.direction} l={rb.level}",
                    )
    return CheckResult("side_lengths_distinct", True, f"{len(trees)} trees compared")


def lemma_suite(
    ps: PointSet, trees: Sequence[AuxFamilyTree] | None = None
) -> SuiteReport:
    """Run every structural check on the family of `ps`.

    Every check is exact and samples nothing, so one family always gives
    the same report.

    Product checks run at level PRODUCT_LEVEL on the family's trees for
    the extreme index tuples (0, n) and, when n >= 2, (0, 1, n), which carry
    the weakest bounds; they are skipped beyond n = PRODUCT_MAX_N
    (intersection piece counts explode), past PIECE_CAP pieces, or when a
    tree of a tuple stops before PRODUCT_LEVEL, and recorded as skipped,
    not passed.  A prebuilt family may be passed in (the test suite uses
    this to verify corrupted trees fail): one tree of `ps` per direction
    index 0..n, in any order; anything else raises ValueError, as in
    `testfn.certificate`.
    """
    trees = _family(ps, trees)
    n = trees[0].n
    checks: list[CheckResult] = []
    for tree in trees:
        checks.append(_check_level_counts(tree))
        checks.append(_check_cluster_partition(tree))
        checks.append(_check_residual_mass(tree))
        checks.append(_check_inner_bound(tree))
    checks.append(_check_side_lengths(trees))

    def skip(witness: str) -> None:
        checks.append(CheckResult("product_bounds", False, witness, skipped=True))

    tuples: list[tuple[int, ...]] = [(0, n), (0, 1, n)] if n >= 2 else [(0, n)]
    if n > PRODUCT_MAX_N:
        skip(f"skipped: n={n} exceeds the n<={PRODUCT_MAX_N} guard")
        tuples = []
    for indices in tuples:
        unusable = [i for i in indices if trees[i].deepest_level < PRODUCT_LEVEL]
        if unusable:
            skip(f"{indices}: skipped (no tree to level {PRODUCT_LEVEL} for {unusable})")
            continue
        try:
            report = product_bound_check(ps, indices, [trees[i] for i in indices])
        except ResourceLimitError as exc:
            skip(f"{indices}: skipped ({exc})")
            continue
        checks.append(
            CheckResult(
                "product_covered_area", report.covered_ok,
                f"{indices}: 0 <= 1 - {report.covered_area} <= {report.mass_bound}",
            )
        )
        checks.append(
            CheckResult(
                "product_discrepancy_bound", report.d_product_ok,
                f"{indices}: |{report.d_product_integral}| <= {report.d_product_bound} + {report.d_error}",
            )
        )
    return SuiteReport(ps.label, n, tuple(checks))
