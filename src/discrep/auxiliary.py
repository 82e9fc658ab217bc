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
measure is at most the tree's bound `uncovered_mass`, N times the cell
area, as the suite's `cluster_partition` check finds one nonempty cluster
per occupied cell.  The n + 1 trees of a set, one per direction index, are
its family (`build_trees`), in direction order, as a stream: `lemma_suite`
and `testfn.certificate` read and check each tree as it passes, a family
passed in too, and keep none they do not need.

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
which no cluster splits shares its parent's clusters and costs O(1).  A
tree stores nothing its clusters fix: inner products, certificates and
l* read the cluster counts (`AuxFamilyTree`), and the dict from index
pair to members (`LevelRecord.occupied`) is built on each read, only by
code that looks cells up.

Every rectangle is an integer address (kx, ky, jx, jy), the cell
[jx 2^-kx, (jx+1) 2^-kx) x [jy 2^-ky, (jy+1) 2^-ky), and the hot loops
stay on integers:

  * each point set reads every coordinate a / D once as a fixed-point
    integer X = floor(x 2^E) at its axis's own width E (`_tree_integers`,
    one record per set, which its n + 1 trees share).  With
    S = (n+1)(HARD_LEVEL_CAP+1) past the finest scale any tree reaches, E
    is min(S, k) on an axis with D = 2^k, whose integers are then its
    numerators, and S on any other, so the cell at scale k, floor(x 2^k),
    is X >> (E - k) for k <= E and X << (k - E) beyond: exact there, as
    every coordinate of such an axis is a multiple of 2^-E (`_shifts`).
    The record also holds each point's cells at scale n, floor(x 2^n) and
    floor(y 2^n), whose top bits are its level-0 cells in every direction;
  * every bucket key is one integer: at level 0 the two cells' prefixes
    side by side, below 2^n, and deeper the two cells' integers side by
    side, so no tuple is built per point;
  * equal points always share a cell, so a level's cluster count never
    exceeds the number of distinct interior points, and stabilization is
    the first level where the two are equal;
  * level 0 buckets every point, a cluster moves whole until a level's
    scale passes its split scale, and no container is made per point
    (`build_tree`): per-point lists and tuples made CPython's cyclic
    collector run often, and its full passes walk every live object;
  * a level's cell area, 2^-(scale_x + scale_y), is read from its scales
    (`LevelRecord.rect_area`), so no Fraction is built per level;
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
from typing import Iterable, Iterator, NamedTuple, Sequence

from .discrepancy import linf_norm
from .errors import ResourceLimitError
from .pointsets import PointSet, exact_str

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


def _shifts(width: int, scale: int) -> tuple[int, int]:
    """(r, l) with floor(x 2^scale) = X >> r << l for the fixed-point integer
    X = floor(x 2^width) of x's axis: a shift right up to the width, and
    past it (reached only on an axis of multiples of 2^-width) a shift left."""
    return (width - scale, 0) if scale <= width else (0, scale - width)


class LevelRecord(NamedTuple):
    """One subdivision level, whose index is its position in the tree:
    its clusters, one per occupied rectangle.

    At this level a cluster's cell is (jx, jy) = (floor(x 2^scale_x),
    floor(y 2^scale_y)) of its first member, read by `_shifts` from that
    member's fixed-point integers X0 and Y0 at the widths width_x and
    width_y of the set's axes.  A level on which no cluster splits holds
    its parent's `clusters` tuple itself.  The empty count is read from
    the cluster counts (`AuxFamilyTree.empty_counts`).
    """

    scale_x: int
    scale_y: int
    clusters: tuple[Cluster, ...]
    width_x: int
    width_y: int

    @property
    def rect_area(self) -> Fraction:
        """The area 2^-(scale_x + scale_y) of each of the level's cells."""
        return Fraction(1, 1 << (self.scale_x + self.scale_y))

    @property
    def occupied(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Members per occupied cell (jx, jy), in cluster order, built on
        each read: its readers read it once per level."""
        rx, lx = _shifts(self.width_x, self.scale_x)
        ry, ly = _shifts(self.width_y, self.scale_y)
        return {(x0 >> rx << lx, y0 >> ry << ly): members
                for members, x0, y0, _ in self.clusters}


class AuxFamilyTree(NamedTuple):
    """Leveled record of the recursive construction for one direction index.

    The tree is its set, its direction and its levels' clusters: n, the
    empty counts and l* are read from them.  Clusters only split, so the
    cluster count never falls and never exceeds the set's distinct
    interior points: the tree is stabilized when its deepest level's count
    equals that number, and l* is the first level where it does.
    """

    pointset: PointSet
    direction: int
    levels: tuple[LevelRecord, ...]

    @property
    def n(self) -> int:
        return n_from_pointcount(len(self.pointset))

    @property
    def point_count(self) -> int:
        return len(self.pointset)

    @property
    def stabilized(self) -> bool:
        return len(self.levels[-1].clusters) == _tree_integers(self.pointset).distinct

    @property
    def stabilization_level(self) -> int | None:
        """l*, the first level with the deepest level's cluster count, or None."""
        if not self.stabilized:
            return None
        counts = [len(rec.clusters) for rec in self.levels]
        return counts.index(counts[-1])

    def empty_counts(self) -> list[int]:
        """Empty rectangles per level: 2^n - c_0 at level 0, and below it
        2^(2(n+1)) c_(l-1) - c_l, the children of the parent's occupied
        cells less the occupied ones, with c_l the level's cluster count."""
        n = self.n
        children, cells, empties = 1 << (2 * (n + 1)), 1 << n, []
        for rec in self.levels:
            count = len(rec.clusters)
            empties.append(cells - count)
            cells = children * count
        return empties

    @property
    def deepest_level(self) -> int:
        return len(self.levels) - 1

    def uncovered_mass(self, level: int) -> Fraction:
        """Upper bound N |R_L| on the measure still occupied at level L."""
        return self.point_count * self.levels[level].rect_area


def n_from_pointcount(count: int) -> int:
    """The unique n with 2^(n-1) < 2 * count <= 2^n."""
    if count < 1:
        raise ValueError(f"need at least one point, got {count}")
    return (2 * count - 1).bit_length()


class _TreeIntegers(NamedTuple):
    """All that the trees read of one set (`_tree_integers`)."""

    scale: int                  # S = (n+1)(HARD_LEVEL_CAP+1)
    width_x: int                # E along x: min(S, k) if D = 2^k, else S
    width_y: int                # E along y, likewise
    xs: tuple[int, ...]         # floor(x 2^width_x) per point: the numerators if D = 2^E
    ys: tuple[int, ...]         # floor(y 2^width_y) per point
    cx: tuple[int, ...]         # floor(x 2^n) per point, its cell at scale n
    cy: tuple[int, ...]         # floor(y 2^n) per point
    interior: tuple[int, ...]   # the indices of the points off x = 1 and y = 1
    distinct: int               # how many of those are distinct
    lone: tuple[Cluster, ...]   # each point's one-point cluster


def _tree_integers(ps: PointSet) -> _TreeIntegers:
    """The set's `_TreeIntegers`, cached on the set: its trees and levels
    read one record and share the one-point clusters ((t,), X[t], Y[t],
    HARD_LEVEL_CAP), as a lone point never splits.

    Each axis has one width E, and every coordinate a / D on it is stored
    as X = floor(a 2^E / D), read from the set's numerators (`PointSet.axes`).
    On an axis with D = 2^k, E = min(S, k), so X is the numerator itself,
    shifted down only past S bits, and a 53-bit coordinate keeps 53 bits;
    on any other axis E = S and X = (a << S) // D: S bits tell apart every
    cell a tree reaches.  Points closer than 2^-S may share their integers,
    so distinct points are told apart on their numerators: a tree of such
    twins never stabilizes.

    Each point's cells at scale n, cx = floor(x 2^n) and cy = floor(y 2^n),
    are read once from those integers by `_shifts`: every level 0 keys on
    their top bits (`build_tree`) and never shifts the E-bit integers."""
    record = ps.__dict__.get("_tree_integers")
    if record is None:
        (dx, xnum), (dy, ynum) = ps.axes
        n = n_from_pointcount(len(xnum))
        scale = (n + 1) * (HARD_LEVEL_CAP + 1)
        widths, ints = [], []
        for den, nums in ps.axes:
            if den & (den - 1):
                widths.append(scale)
                ints.append(tuple((a << scale) // den for a in nums))
            else:
                k = den.bit_length() - 1
                widths.append(min(scale, k))
                ints.append(nums if k <= scale else tuple(a >> (k - scale) for a in nums))
        xs, ys = ints
        cx, cy = (tuple(v >> r << l for v in axis)
                  for axis, (r, l) in zip(ints, (_shifts(w, n) for w in widths)))
        interior = tuple(t for t, (a, b) in enumerate(zip(xnum, ynum)) if a < dx and b < dy)
        distinct = len({(xnum[t], ynum[t]) for t in interior})
        lone = tuple(((t,), x, y, HARD_LEVEL_CAP) for t, (x, y) in enumerate(zip(xs, ys)))
        record = ps.__dict__["_tree_integers"] = _TreeIntegers(
            scale, *widths, xs, ys, cx, cy, interior, distinct, lone)
    return record


def build_tree(ps: PointSet, direction: int, max_level: int | None = None) -> AuxFamilyTree:
    """Construct levels until stabilization (plus EXTRA_LEVELS) or `max_level`.

    With an explicit max_level in 0..HARD_LEVEL_CAP exactly levels
    0..max_level are built; a negative one raises ValueError and one past
    HARD_LEVEL_CAP raises ResourceLimitError.  In auto mode building stops
    EXTRA_LEVELS past stabilization, with a hard cap of HARD_LEVEL_CAP
    levels; an unstabilized tree keeps its residual mass bound.

    The tree reads the set only through its `_TreeIntegers`.  Level 0
    buckets the points off x = 1 and y = 1 on one small integer each, made
    from their n-bit cells cx = floor(x 2^n) and cy = floor(y 2^n): the
    level-0 cell (floor(x 2^i), floor(y 2^(n-i))) is (cx >> (n-i), cy >> i),
    so cx & (-1 << (n-i)) | cy >> i, below 2^n, tells the cells apart.  A
    deeper level at scales (kx, ky) keys a point on its integers
    X = floor(x 2^E_x) and Y = floor(y 2^E_y) as
    X >> dx << (E_y - dy) | Y >> dy, with d = max(E - k, 0) per axis: past
    E the key holds X itself, which parts the points as their cells
    X << (k - E) do, and Y >> dy stays below 2^(E_y - dy).  Each cluster
    records, when it is formed, the last level at which all its members
    still share a cell: its split scale along x is E_x minus the bit
    length of the OR of X ^ X0 over its members (X0 its first member's;
    one XOR for a pair) when that OR is nonzero, and
    S = (n+1)(HARD_LEVEL_CAP+1), past every scale a level reaches, when
    it is zero, as members equal along x never split along it; likewise
    along y.  Until that level the cluster moves whole to the child cell
    of its first member; at the next one its members are bucketed.  Equal
    points never split, so a level has at most as many clusters as there
    are distinct interior points, and exactly as many when every cluster
    holds one distinct point: the tree stabilizes at the first such level.

    A level before the first split level of any cluster (`next_split`,
    one past the least last whole level over the clusters carried and
    formed, kept as the level is built) records its parent's cluster
    tuple itself, with no key computed: the levels past stabilization
    cost O(1) each.  On a level where some clusters split, the others
    pass through untouched, and only the members of those that split are
    bucketed.  No cell dict is built here (see `LevelRecord.occupied`).

    Nothing is allocated per point, since per-point containers drive the
    cyclic garbage collector.  A one-point cluster is the set's shared
    one (the record's `lone`), so every tree and level reuses it.  While
    bucketing, a cell holds its first point's shared cluster, and only a
    cell that a second point lands in is rewritten, first as a list of
    members and then as the cluster they form.  A formed two-point
    cluster always parts into two one-point cells at the level after its
    last whole one, so its members' shared clusters are emitted in member
    order with no bucketing; the root, split at level 0, is always
    bucketed.
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
    scale, wx, wy, xs, ys, cx, cy, interior, distinct, lone = _tree_integers(ps)
    kx, ky = direction, n - direction

    def bucket(members: Sequence[int], keys: Sequence[int], formed: list[Cluster]) -> int:
        """Append the parts of `members`, one per distinct key in order of
        first appearance, to `formed`; return the least last whole level
        of those that hold two points or more (HARD_LEVEL_CAP if none)."""
        least = HARD_LEVEL_CAP
        parts: dict[int, Cluster | list[int]] = {}
        get = parts.get
        grown: list[int] = []       # the keys of the cells with two points or more
        for t, key in zip(members, keys):
            part = get(key)
            if part is None:
                parts[key] = lone[t]
            elif type(part) is tuple:
                parts[key] = [part[0][0], t]
                grown.append(key)
            else:
                part.append(t)
        for key in grown:
            part = parts[key]
            x0, y0 = xs[part[0]], ys[part[0]]
            if len(part) == 2:
                ax, ay = x0 ^ xs[part[1]], y0 ^ ys[part[1]]
            else:
                ax = ay = 0
                for t in part:
                    ax |= xs[t] ^ x0
                    ay |= ys[t] ^ y0
            last = ((wx - ax.bit_length() if ax else scale) - direction) // step
            last_y = ((wy - ay.bit_length() if ay else scale) - (n - direction)) // step
            if last_y < last:
                last = last_y
            parts[key] = (tuple(part), x0, y0, last)
            if last < least:
                least = last
        formed.extend(parts.values())
        return least

    # Level 0 splits the root, the unit square's cluster of the interior points.
    formed: list[Cluster] = []
    mask = -1 << (n - direction)
    next_split = bucket(interior, [cx[t] & mask | cy[t] >> direction for t in interior],
                        formed) + 1
    clusters = tuple(formed)
    levels: list[LevelRecord] = []
    stabilization: int | None = None

    level = 0
    while True:
        levels.append(LevelRecord(kx, ky, clusters, wx, wy))
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
        if level < next_split:
            continue
        # Child cells of distinct parents are disjoint, so each cluster
        # that splits is bucketed on its own and its parts follow each
        # other in `formed`: the clusters come out in parent order.
        dx, dy = max(wx - kx, 0), max(wy - ky, 0)
        y_bits = wy - dy                    # Y >> dy < 2^y_bits
        formed = []
        # the least last whole level, carried or formed; a lone cluster's
        # is HARD_LEVEL_CAP, so it lowers nothing
        least = HARD_LEVEL_CAP
        for c in clusters:
            if level <= c[3]:
                formed.append(c)
                if c[3] < least:
                    least = c[3]
                continue
            members = c[0]
            if len(members) == 2:
                # a formed pair's members part at the level after its
                # last whole one; bucketing keeps member order
                formed.append(lone[members[0]])
                formed.append(lone[members[1]])
                continue
            last = bucket(members, [xs[t] >> dx << y_bits | ys[t] >> dy for t in members], formed)
            if last < least:
                least = last
        clusters = tuple(formed)
        next_split = least + 1

    return AuxFamilyTree(ps, direction, tuple(levels))


def build_trees(ps: PointSet, max_level: int | None = None) -> Iterator[AuxFamilyTree]:
    """The family of `ps`, its tree for each direction index 0..n, as a stream
    in direction order: each tree is built when the next one is asked for."""
    for i in range(n_from_pointcount(len(ps)) + 1):
        yield build_tree(ps, i, max_level)


def _family(ps: PointSet, trees: Iterable[AuxFamilyTree] | None,
            indices: Sequence[int] | None = None) -> Iterator[AuxFamilyTree]:
    """`trees`, or `build_trees(ps)` if None, checked as they pass: each must be
    the tree of `ps` for the next of `indices` (0..n if None), and none may be
    left at the end; a tree out of order, missing, repeated or foreign raises ValueError."""
    n = n_from_pointcount(len(ps))
    expected = iter(range(n + 1) if indices is None else indices)
    mismatch = (f"need one tree per direction index 0..{n}" if indices is None
                else "trees do not match the requested indices")
    for tree in build_trees(ps) if trees is None else trees:
        if tree.direction != next(expected, None):
            raise ValueError(mismatch)
        if tree.pointset != ps:
            raise ValueError("trees were built for another point set")
        yield tree
    if next(expected, None) is not None:
        raise ValueError(mismatch)


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
    for empty in tree.empty_counts():
        numerator = (numerator << step) + empty
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
    ps: PointSet, indices: Sequence[int], trees: Iterable[AuxFamilyTree]
) -> ProductBoundReport:
    """Exact piecewise integration of D * prod f and the covered area, with bounds.

    Requires at least two strictly increasing direction indices and the
    trees of `ps` for them, in order, each built to PRODUCT_LEVEL.  D
    against the Haar function of a point-free rectangle R gives
    -N |R|^2 / 16.  Raises ResourceLimitError past PIECE_CAP pieces.
    """
    indices = tuple(indices)
    if len(indices) < 2:
        raise ValueError("need at least two direction indices")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise ValueError(f"indices must be strictly increasing, got {indices}")
    trees = list(_family(ps, trees, indices))
    if any(t.deepest_level < PRODUCT_LEVEL for t in trees):
        raise ValueError(f"all trees must be built to level {PRODUCT_LEVEL}")
    n = trees[0].n
    count = len(ps)

    signed, plain = _product_counts(trees, PRODUCT_LEVEL)
    top = max(plain, default=0)
    # D against the Haar function of a point-free R is -N |R|^2 / 16
    d_product = Fraction(
        -count * sum(net << (2 * (top - e)) for e, net in signed.items()),
        16 << (2 * top),
    )
    covered = Fraction(sum(c << (top - e) for e, c in plain.items()), 1 << top)
    pieces = sum(plain.values())

    uncovered = sum(
        (t.uncovered_mass(PRODUCT_LEVEL) for t in trees), start=Fraction(0)
    )
    d_bound = product_bound(n, count, indices[-1] - indices[0])
    return ProductBoundReport(
        indices=indices,
        truncation_level=PRODUCT_LEVEL,
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


def _check_cluster_partition(tree: AuxFamilyTree) -> CheckResult:
    """Each level's clusters part the interior points into distinct cells,
    each member in its cluster's cell, read by `_shifts` from its (X0, Y0).

    A level whose cluster tuple is new is read whole: each cluster is
    nonempty and keyed by its first member's integers, the cells are
    distinct, and the members, sorted, are the interior points.  On every
    level, the members of each cluster of two or more are checked against
    its cell.  No cell dict is built, and that is the whole fact: a level
    that holds its parent's tuple (the same object) has its partition;
    cells nest (a cell at scale k' > k is `>> (k' - k)` of one at scale k,
    and `_side_length_fault` makes the scales grow), so distinct cells stay
    distinct; and a lone cluster holds its point in its cell at every scale."""
    record = _tree_integers(tree.pointset)
    xs, ys = record.xs, record.ys
    clusters: tuple[Cluster, ...] | None = None
    crowded: list[Cluster] = []             # the clusters of two points or more

    def fault(why: str) -> CheckResult:
        return CheckResult("cluster_partition", False, f"i={tree.direction} l={level}: {why}")

    for level, rec in enumerate(tree.levels):
        rx, lx = _shifts(record.width_x, rec.scale_x)
        ry, ly = _shifts(record.width_y, rec.scale_y)
        if rec.clusters is not clusters:
            clusters = rec.clusters
            seen: list[int] = []
            for members, x0, y0, _ in clusters:
                if not members or x0 != xs[members[0]] or y0 != ys[members[0]]:
                    return fault("a cluster not keyed by its first member")
                seen += members
            if tuple(sorted(seen)) != record.interior:
                return fault("clusters do not partition the points")
            # the members are interior, so jy < 2^scale_y and one integer keys a cell
            if len({x0 >> rx << lx << rec.scale_y | y0 >> ry << ly
                    for _, x0, y0, _ in clusters}) != len(clusters):
                return fault("two clusters share a cell")
            crowded = [c for c in clusters if len(c[0]) > 1]
        for members, x0, y0, _ in crowded:
            jx, jy = x0 >> rx << lx, y0 >> ry << ly
            for t in members:
                if xs[t] >> rx << lx != jx or ys[t] >> ry << ly != jy:
                    return fault(f"point {t} outside its cell")
    return CheckResult("cluster_partition", True, f"i={tree.direction}: {len(tree.levels)} levels")


def _check_inner_bound(tree: AuxFamilyTree) -> CheckResult:
    value, bound = inner_product(tree).value, lemma_short_bound(tree.n, tree.point_count)
    return CheckResult("inner_product_upper_bound", value <= bound,
                       f"i={tree.direction}: {value} {'<=' if value <= bound else '>'} {bound}")


def _side_length_fault(tree: AuxFamilyTree) -> str | None:
    """The first level of `tree` off scale_x = i + (n+1) l and scale_y =
    n - i + (n+1) l, or None.  Then scale_x mod (n+1) = i and scale_y mod
    (n+1) = n - i, 0 <= i <= n: trees of distinct i never tie a side length."""
    n, i = tree.n, tree.direction
    for level, rec in enumerate(tree.levels):
        want = (i + (n + 1) * level, n - i + (n + 1) * level)
        if (rec.scale_x, rec.scale_y) != want:
            return f"i={i} l={level}: scales ({rec.scale_x}, {rec.scale_y}) != {want}"
    return None


def lemma_suite(
    ps: PointSet, trees: Iterable[AuxFamilyTree] | None = None
) -> SuiteReport:
    """Run every structural check on the family of `ps`.

    Every check is exact and samples nothing, so one family always gives
    the same report.  The per-tree checks run as each tree arrives:
    `cluster_partition`, whose passing witness gives the levels it read,
    and the inner-product upper bound; the side lengths are checked on
    every tree's scales.  The empty counts and l* are not checked, as no
    tree stores them: they are read from the clusters the partition check
    reads.

    Product checks run at level PRODUCT_LEVEL on the family's trees for
    the extreme index tuples (0, n) and, when n >= 2, (0, 1, n), which carry
    the weakest bounds, and only those trees are kept; they are skipped
    beyond n = PRODUCT_MAX_N (intersection piece counts explode), past
    PIECE_CAP pieces, or when a tree of a tuple stops before PRODUCT_LEVEL,
    and recorded as skipped, not passed.  A family built to a max level,
    or a corrupted one, may be passed in: one tree of `ps` per direction
    index 0..n, in direction order, as a list or a stream; anything else
    raises ValueError, as in `testfn.certificate`.  A witness prints its
    `d_error` exactly when `exact_str` accepts it, and else the least power
    of two at or above it.
    """
    n = n_from_pointcount(len(ps))
    tuples = [] if n > PRODUCT_MAX_N else [(0, n), (0, 1, n)] if n >= 2 else [(0, n)]
    kept: dict[int, AuxFamilyTree] = {}     # the trees of the product tuples
    checks: list[CheckResult] = []
    side_fault = None
    for tree in _family(ps, trees):
        checks.append(_check_cluster_partition(tree))
        checks.append(_check_inner_bound(tree))
        side_fault = side_fault or _side_length_fault(tree)
        if any(tree.direction in indices for indices in tuples):
            kept[tree.direction] = tree
    checks.append(CheckResult("side_lengths_distinct", side_fault is None,
                              side_fault or f"{n + 1} trees compared"))

    def skip(witness: str) -> None:
        checks.append(CheckResult("product_bounds", False, witness, skipped=True))

    if n > PRODUCT_MAX_N:
        skip(f"skipped: n={n} exceeds the n<={PRODUCT_MAX_N} guard")
    for indices in tuples:
        unusable = [i for i in indices if kept[i].deepest_level < PRODUCT_LEVEL]
        if unusable:
            skip(f"{indices}: skipped (no tree to level {PRODUCT_LEVEL} for {unusable})")
            continue
        try:
            report = product_bound_check(ps, indices, [kept[i] for i in indices])
        except ResourceLimitError as exc:
            skip(f"{indices}: skipped ({exc})")
            continue
        checks.append(
            CheckResult(
                "product_covered_area", report.covered_ok,
                f"{indices}: 0 <= 1 - {report.covered_area} <= {report.mass_bound}",
            )
        )
        try:
            d_error = exact_str(report.d_error)
        except ResourceLimitError:          # too wide to print: the least 2^k >= d_error
            k = report.d_error.numerator.bit_length() - report.d_error.denominator.bit_length()
            d_error = f"2^{k if Fraction(2) ** k >= report.d_error else k + 1}"
        checks.append(
            CheckResult(
                "product_discrepancy_bound", report.d_product_ok,
                f"{indices}: |{report.d_product_integral}| <= {report.d_product_bound} + {d_error}",
            )
        )
    return SuiteReport(ps.label, n, tuple(checks))
