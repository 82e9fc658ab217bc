"""The integer-grid norm kernels against the per-cell Fraction kernels they replaced.

The oracles below are the original Fraction routes: O(N^3) corner
counting for L-infinity, per-cell integration for the L1 terms and the
O(N^2) pairwise sum for L2.  The fast kernels must agree with them
exactly.  For L1 that means the same rational part, the same crossed-cell
count, and a linear form in log atoms that is the same number as the
oracle's per-cell logs: the products of the atoms and of the ratios,
raised to their integer coefficients, are equal.
"""

import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp, mpf
from mpmath.libmp import dps_to_prec, mpf_log, mpi_log

import oracles
from discrep import _interval, discrepancy, pointsets
from discrep.auxiliary import AuxFamilyTree, build_trees, lemma_suite
from discrep.cli import _norms_payload
from discrep._interval import _iv_endpoints, _l1_enclosure
from discrep.discrepancy import (
    MAX_GRID_CELLS,
    CellDecomposition,
    L1Form,
    _columns,
    _l1_form,
    l1_norm,
    l2_norm_sq,
    linf_norm,
)
from discrep.errors import ResourceLimitError
from discrep.pointsets import (
    PointSet, random_uniform, read_csv, symmetrize, van_der_corput,
)
from discrep.testfn import _error_weights, certificate
from oracles import (
    _iv_precision,
    cells,
    fraction_cuts,
    fraction_points,
    grid_oracle,
    iv_fraction,
    l1_enclosure_iv,
    l2_norm_sq_direct,
    linf_exact_scan,
    odd_terms_iv,
    prime_reciprocals,
)


def linf_oracle(ps):
    n = len(ps)
    ps = fraction_points(ps)
    xs = sorted({Fraction(1), *(px for px, _ in ps)})
    ys = sorted({Fraction(1), *(py for _, py in ps)})
    best = Fraction(0)
    for x in xs:
        for y in ys:
            closed = sum(1 for px, py in ps if px <= x and py <= y)
            strict = sum(1 for px, py in ps if px < x and py < y)
            nxy = n * x * y
            best = max(best, abs(closed - nxy), abs(strict - nxy))
    return best


def l1_terms_oracle(ps):
    n = len(ps)
    rational = Fraction(0)
    logs = []
    for a, b, c, d, k in cells(ps):
        signed = k * (b - a) * (d - c) - Fraction(n, 4) * (b * b - a * a) * (d * d - c * c)
        t = Fraction(k, n)
        if t >= b * d:
            rational += signed
            continue
        if t <= a * c:
            rational += -signed
            continue
        rational += signed
        x_lo = max(a, t / d)
        x_hi = min(b, t / c) if c > 0 else b
        if c > 0 and x_hi < b:
            rational += 2 * (
                Fraction(n, 4) * (b * b - x_hi * x_hi) * (d * d - c * c)
                - k * (d - c) * (b - x_hi)
            )
        if x_hi > x_lo:
            rational += 2 * (
                Fraction(n, 4) * d * d * (x_hi * x_hi - x_lo * x_lo)
                - n * t * d * (x_hi - x_lo)
            )
            logs.append((Fraction(k * k, n), x_hi / x_lo))
    return rational, logs


def l2_oracle(ps):
    n = len(ps)
    ps = fraction_points(ps)
    pair_sum = Fraction(0)
    for px, py in ps:
        for qx, qy in ps:
            pair_sum += (1 - max(px, qx)) * (1 - max(py, qy))
    single = sum((1 - x ** 2) * (1 - y ** 2) for x, y in ps)
    return pair_sum - Fraction(n, 2) * single + Fraction(n * n, 9)


def pointset(*pts):
    return PointSet(tuple((Fraction(x), Fraction(y)) for x, y in pts))


# dyadic, 2^53, odd primes and 3^20, mixed within one set
DENOMINATORS = [1, 2, 4, 8, 64, 1 << 53, 3, 5, 7, 11, 13, 101, 3 ** 20]
coordinates = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.sampled_from(DENOMINATORS).flatmap(
        lambda q: st.integers(0, q).map(lambda k: Fraction(k, q))
    ),
)
distinct_points = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=10)
# repeat some of the points to get duplicates
point_sets = distinct_points.flatmap(
    lambda pts: st.lists(st.sampled_from(pts), max_size=4).map(
        lambda dups: PointSet(tuple(pts + dups))
    )
)

# odd parts of 127 and 201 bits, past the logs' working precision at 30
# digits, so `from_int` rounds them outward
DENOMINATOR_3_80 = pointset(
    (Fraction(3 ** 80 // 3 + 1, 3 ** 80), Fraction(3 ** 80 // 2, 3 ** 80)),
    (Fraction(3 ** 80 // 5, 3 ** 80), Fraction(3 ** 80 // 7 + 1, 3 ** 80)),
    (Fraction(1, 3 ** 80), Fraction(3 ** 80 - 1, 3 ** 80)))
ADVERSARIAL = [
    pointset((0, 0)),
    pointset((1, 1)),
    pointset((Fraction(1, 3), Fraction(2, 7))),
    pointset((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3)),
             (Fraction(1, 3), Fraction(2, 3))),
    pointset((0, Fraction(1, 2)), (1, Fraction(1, 3)), (Fraction(1, 4), 0),
             (Fraction(2, 5), 1), (0, 1), (1, 0)),
    pointset((Fraction(1, 2), Fraction(5, 7)), (Fraction(3, 1 << 53), Fraction(1, 11)),
             (Fraction(2, 3 ** 20), Fraction(7, 8))),
    pointset(*((Fraction(k, p), Fraction(p - k, q))
               for k, p, q in ((1, 3, 5), (2, 7, 11), (5, 13, 17), (9, 19, 23), (4, 29, 31))),
             (Fraction(1, 2), Fraction(1, 2))),
    van_der_corput(3),
    random_uniform(9, seed=3),
    DENOMINATOR_3_80,
    pointset(*((x + Fraction(1, 1 << 200), y + Fraction(1, 1 << 200))
               for x, y in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(5, 7), Fraction(1, 11)),
                            (Fraction(1, 2), Fraction(3, 4)), (0, Fraction(1, 9))))),
]


def add_examples(test):
    for ps in ADVERSARIAL:
        test = example(ps)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(point_sets)
@add_examples
def test_linf_matches_corner_counting_oracle(ps):
    assert linf_norm(ps) == linf_oracle(ps)


def clamp(q):
    return min(max(q, Fraction(0)), Fraction(1))


TINY = Fraction(1, 1 << 60)
# moved by one of these, a coordinate of at least 1/64 keeps its float, so
# corner values that differ by about N 2^-60 get equal or swapped floats
OFFSETS = [Fraction(0), TINY, -TINY, Fraction(1, 1 << 1000)]
SPECIAL = [Fraction(0), Fraction(1), Fraction(1, 1 << 1000), 1 - TINY]
# odd denominators, whose floats are inexact: N x y and N y x round apart
odd_coordinates = st.sampled_from([3, 5, 7, 9, 11, 13, 3 ** 20]).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda k: Fraction(k, q))
)


@st.composite
def filter_traps(draw):
    """N <= 8 points whose corner values tie, or differ by less than a float
    can resolve, so that the L-infinity filter is left to its error bound.

    Half the sets are mirrored across the diagonal: N // 2 points with odd
    denominators, their mirror images with each coordinate moved by
    +-2^-60, and one point on the diagonal when N is odd.  Mirror corners
    then differ by about N 2^-60, and their float candidates round either
    way.  The others take coordinates with the mixed denominators above,
    k/N, 2^-1000 or 1 - 2^-60, each moved by one of OFFSETS; a point may
    take y with N x y within 2^-60 of an integer count, or repeat an
    earlier one.
    """
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        tiny = st.sampled_from([TINY, -TINY])
        points = [(draw(odd_coordinates), draw(odd_coordinates)) for _ in range(n // 2)]
        points += [(y + draw(tiny), x + draw(tiny)) for x, y in points]
        if n % 2:
            t = draw(odd_coordinates)
            points.append((t, t))
        return PointSet(tuple(points))

    def offset():
        return draw(st.sampled_from(OFFSETS))

    def coordinate():
        base = draw(st.one_of(coordinates, st.integers(0, n).map(lambda k: Fraction(k, n)),
                              st.sampled_from(SPECIAL)))
        return clamp(base + offset())

    points = []
    while len(points) < n:
        kind = draw(st.sampled_from(["free", "integer", "repeat"])) if points else "free"
        if kind == "free":
            x, y = coordinate(), coordinate()
        elif kind == "integer":
            x = coordinate()
            y = clamp(Fraction(draw(st.integers(0, n)), n) / x + offset()) if x else coordinate()
        else:
            x, y = draw(st.sampled_from(points))
        points.append((x, y))
    return PointSet(tuple(points))


# Mirrored sets on which a filter with E = 0 returns a smaller maximum: one
# of the two corners that tie up to 2^-60 is rounded below the other.
MIRROR_TIES = [
    pointset((Fraction(3, 5), Fraction(1, 9)), (Fraction(4, 5), Fraction(2, 3)),
             (Fraction(1, 9), Fraction(3, 5) - TINY), (Fraction(2, 3), Fraction(4, 5))),
    pointset((Fraction(3, 5), Fraction(1, 3)), (Fraction(1, 3), Fraction(4, 5)),
             (Fraction(1, 3) + TINY, Fraction(3, 5) - TINY), (Fraction(4, 5), Fraction(1, 3))),
]


# Sets whose supremum lies on the x = 0 column, where the filter takes its
# seed: all points on x = 0; a duplicate stack at x = 0 under a cloud
# (every other corner is below 4); and a point at (0, 1), whose corner is
# the only one at 4 and the last of that column.
CLOUD = [(Fraction(1, 2) + x / 2, Fraction(1, 2) + y / 2)
         for x, y in fraction_points(random_uniform(4, seed=5))]
X0_SUPREMA = [
    pointset((0, Fraction(1, 3)), (0, Fraction(2, 3)), (0, 1), (0, 0)),
    pointset(*[(0, Fraction(1, 10))] * 4, *CLOUD),
    pointset(*[(0, Fraction(1, 10))] * 3, (0, 1), (Fraction(3, 4), Fraction(3, 4)),
             (Fraction(7, 8), Fraction(1, 2))),
]


# Sets that reach each branch of the column step: the maximum in the x = 1
# column, on its closed side only and on both; x cuts that hold several
# points, tied in x and duplicated; the maximum on the strict side only,
# for N = 1; and points on y = 1.
COLUMN_STEPS = [
    pointset((1, 0), (1, 0), (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 2))),
    pointset((1, 0), (1, 0), (Fraction(1, 3), Fraction(1, 2))),
    pointset((Fraction(1, 2), Fraction(1, 5)), (Fraction(1, 2), Fraction(3, 5)),
             (Fraction(1, 2), Fraction(3, 5)), (Fraction(1, 4), Fraction(4, 5))),
    pointset(*[(1, Fraction(1, 10))] * 3),
    pointset((Fraction(3, 4), Fraction(3, 4))),
    pointset((Fraction(1, 3), 1), (Fraction(2, 3), Fraction(1, 2))),
]


@settings(max_examples=500, deadline=None)
@given(filter_traps())
@example(MIRROR_TIES[0])
@example(MIRROR_TIES[1])
@example(X0_SUPREMA[0])
@example(X0_SUPREMA[1])
@example(X0_SUPREMA[2])
@example(COLUMN_STEPS[0])
@example(COLUMN_STEPS[1])
@example(COLUMN_STEPS[2])
@example(COLUMN_STEPS[3])
@example(COLUMN_STEPS[4])
@example(COLUMN_STEPS[5])
@add_examples
def test_linf_filter_matches_exact_scans(ps):
    value = linf_norm(ps)
    assert value == linf_exact_scan(ps)
    assert value == linf_oracle(ps)


def test_linf_filter_keeps_corners_within_2e_of_the_running_max(monkeypatch):
    # The filter may skip a corner only when its float candidate is 2E
    # below the running maximum h.  IEEE rounding alone errs by at most
    # about 3 u N = E/2 per corner (each float of a cut by half an ulp
    # below 1, each product by u N, and the difference only when v is
    # below N/2), so a filter at h - E would never skip the maximum and no
    # point set tells 2E from E.  Here the floats of the cuts are skewed
    # by a few ulps instead, so that each candidate errs by at most E, as
    # the proof allows.  One point (a, b): K = (a, b), in
    # the first column, has 1 - a b; M = (1, b), in the last, has b, just
    # above it.  K's candidate errs up and M's down, so that M's column
    # top lies between h - 2E and h - E.
    a, b = Fraction(1, 2), Fraction(2, 3) + Fraction(1, 3 << 55)
    skewed = {a: 0.5 - 6 * 2.0 ** -54, b: float(b) - 4 * 2.0 ** -53}

    def fl(q):
        return skewed.get(q, float(q))

    def skewed_division(p, q):
        # a cut's float, the int true division of its lowest-terms pair
        return fl(Fraction(p, q))

    bound = math.ldexp(6, -53)              # E at N = 1
    candidates = {}
    for x in (a, Fraction(1)):
        for y in (Fraction(0), b, Fraction(1)):
            closed, strict, v = int(a <= x and b <= y), int(a < x and b < y), fl(x) * fl(y)
            exact = max(closed - x * y, x * y - strict)
            candidates[x, y] = max(closed - v, v - strict)
            assert abs(Fraction(candidates[x, y]) - exact) <= bound
    top = candidates[a, b]
    assert candidates[1, b] < top - bound and top - 2 * bound <= candidates[1, b]
    monkeypatch.setattr(discrepancy, "truediv", skewed_division)
    assert linf_norm(pointset((a, b))) == b > 1 - a * b


def test_linf_column_bound_takes_its_float_slack(monkeypatch):
    # A side is skipped when its bound is below h - E, and each step adds
    # the float rise plus a slack of 4E, since the rise may err by 1.5E.
    # Under IEEE rounding the bound of a side, carried one column, stays
    # within a few ulps of its next float maximum plus E, because the rise
    # and the candidates share their products; here one difference
    # P_i - P_(i-1) comes out 8 u = 2^-50 low, well inside the rise error
    # the proof allows.
    # M = (1, b) on the strict side, 3b, lies 3 * 2^-60 above K = (1/2, 1),
    # 3/2, in an earlier column.  K's candidate errs up by E, M's down by
    # almost E, and without the slack M's side is skipped.
    b = Fraction(1, 2) + Fraction(1, 1 << 60)
    ps = pointset((Fraction(1, 2), Fraction(3, 4)), (Fraction(3, 4), b), (Fraction(1, 2), b))
    n = len(ps)
    ulp = 2.0 ** -53
    bound = math.ldexp(6 * n, -53)          # E

    class Factor(float):
        # P_i = N float(1), whose difference with P_(i-1) comes out low
        def __sub__(self, other):
            return float(self) - other - 8 * ulp

    class One(float):
        # float(1), whose product with the integer N is a Factor
        def __rmul__(self, other):
            return Factor(other) if isinstance(other, int) else float(self) * other

    skewed = {Fraction(1, 2): 0.5 + 6 * ulp, b: 0.5 - 11 * ulp / 2, Fraction(1): One(1.0)}

    def fl(q):
        return skewed.get(q, float(q))

    def skewed_division(p, q):
        # a cut's float, the int true division of its lowest-terms pair
        return fl(Fraction(p, q))

    # every candidate errs by at most E and every rise by at most 1.5E
    grid = ps.grid
    x_cuts, y_cuts = fraction_cuts(ps)
    columns = list(oracles.columns_oracle(grid))
    ranks = grid.y_ranks
    last = 0.0
    for i in range(1, len(x_cuts)):
        x = x_cuts[i]
        p = n * fl(x)
        for j, y in enumerate(y_cuts):
            v, nxy = p * fl(y), n * x * y
            strict = columns[i - 1][j - 1] if j else 0
            assert abs(Fraction(columns[i][j] - v) - (columns[i][j] - nxy)) <= bound
            assert abs(Fraction(v - strict) - (nxy - strict)) <= bound
        d, delta = p - last, n * (x - x_cuts[i - 1])
        last = p
        ys = [y_cuts[j] for j in ranks[i]]
        ys_last = [y_cuts[j] for j in ranks[i - 1]] + [Fraction(1)]
        closed = [(k - d * fl(y), k - delta * y) for k, y in enumerate([Fraction(0), *ys])]
        strict = [(d * fl(y) - k, delta * y - k) for k, y in enumerate(ys_last)]
        for rise in (closed, strict):
            assert abs(Fraction(max(r for r, _ in rise)) - max(r for _, r in rise)) <= 1.5 * bound
    assert linf_exact_scan(ps) == 3 * b
    monkeypatch.setattr(discrepancy, "truediv", skewed_division)
    assert linf_norm(ps) == 3 * b


def test_linf_builds_only_the_columns_that_can_hold_the_maximum(monkeypatch):
    # every column a kernel builds is one `accumulate` call; the exact scan
    # builds all 513 after x = 0 here, and the bounds leave 140 to build
    built = []
    prefix_sums = discrepancy.accumulate

    def counted(*args, **kwargs):
        built.append(1)
        return prefix_sums(*args, **kwargs)

    ps = random_uniform(512, seed=1)
    assert len(ps.grid.x_cuts) == 514
    monkeypatch.setattr(discrepancy, "accumulate", counted)
    assert linf_norm(ps) == linf_exact_scan(ps)
    assert len(built) < 513 / 3


def test_linf_takes_a_strict_side_from_the_last_closed_column(monkeypatch):
    # each side built takes one `sub` per y cut; a strict side whose last
    # column's closed side was built copies it shifted down one cut, so
    # only the other sides take prefix sums
    prefix_sums, minus = discrepancy.accumulate, discrepancy.sub
    built, subtracted = [], []

    def counted(*args, **kwargs):
        built.append(1)
        return prefix_sums(*args, **kwargs)

    def counted_sub(a, b):
        subtracted.append(1)
        return minus(a, b)

    ps = symmetrize(van_der_corput(8))
    monkeypatch.setattr(discrepancy, "accumulate", counted)
    monkeypatch.setattr(discrepancy, "sub", counted_sub)
    assert linf_norm(ps) == linf_exact_scan(ps) == Fraction(143, 32)
    sides, rest = divmod(len(subtracted), len(ps.grid.y_cuts))
    assert (sides, rest) == (321, 0)
    assert len(built) == 231


@settings(max_examples=150, deadline=None)
@given(point_sets)
@add_examples
def test_columns_match_the_three_pass_stream(ps):
    assert [tuple(column) for column in _columns(ps.grid)] == list(oracles.columns_oracle(ps.grid))


NEAR = Fraction(1, 1 << 70)
# Coordinates that share floor(q 2^64) with a neighbour, so that only the
# exact tie-break orders them: steps of 2^-70 about 1/3, 1/2, 5/7 and
# 1 - 2^-80, and 2^-1000 twins, which share the key 0 with 0 itself.
NEAR_TIE_BASES = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), 1 - Fraction(1, 1 << 80),
                  Fraction(1, 1 << 1000), Fraction(3, 1 << 1001)]
grid_coordinates = st.one_of(
    coordinates,
    st.sampled_from(NEAR_TIE_BASES).flatmap(
        lambda q: st.integers(-2, 2).map(lambda k: clamp(q + k * NEAR))
    ),
)
grid_traps = st.lists(st.tuples(grid_coordinates, grid_coordinates), min_size=1,
                      max_size=10).flatmap(
    lambda pts: st.lists(st.sampled_from(pts), max_size=4).map(lambda dups: PointSet(tuple(pts + dups)))
)
# the larger of each near pair comes first, so an order by key alone fails
GRID_TIES = [
    pointset((Fraction(1, 3) + NEAR, Fraction(1, 1 << 1000)), (Fraction(1, 3), 0),
             (1 - Fraction(1, 1 << 80), Fraction(3, 1 << 1001))),
    pointset((Fraction(1, 2) + NEAR, 1 - Fraction(1, 1 << 80)), (Fraction(1, 2), Fraction(1, 2) + NEAR),
             (Fraction(1, 2) - NEAR, Fraction(1, 2)), (Fraction(1, 2) + NEAR, Fraction(1, 2) + NEAR)),
    pointset((Fraction(3, 1 << 1001), Fraction(7, 3 ** 20)), (Fraction(1, 1 << 1000), Fraction(1, 101))),
]


@settings(max_examples=300, deadline=None)
@given(grid_traps)
@example(GRID_TIES[0])
@example(GRID_TIES[1])
@example(GRID_TIES[2])
@add_examples
def test_grid_matches_sort_and_bisect_oracle(ps):
    assert CellDecomposition.from_pointset(ps) == grid_oracle(ps)


@settings(max_examples=150, deadline=None)
@given(point_sets)
@add_examples
def test_l1_terms_match_per_cell_oracle(ps):
    form = _l1_form(ps)
    want_rational, want_logs = l1_terms_oracle(ps)
    assert form.rational == want_rational
    assert form.crossed == len(want_logs)
    assert form.n == len(ps)
    atoms = [m for _, m in form.logs]
    assert all(m == 2 or m >= 3 and m % 2 for m in atoms) and len(set(atoms)) == len(atoms)
    assert all(coeff for coeff, _ in form.logs)
    # each atom is 2 or the odd part of a count k <= N, or of a cut's
    # numerator or denominator in lowest terms, not over its axis's D
    x_cuts, y_cuts = fraction_cuts(ps)
    parts = [k for k in range(1, len(ps) + 1)]
    parts += [m for q in (*x_cuts, *y_cuts) for m in (q.numerator, q.denominator) if m]
    assert set(atoms) <= {2, *(m >> ((m & -m).bit_length() - 1) for m in parts)}
    if len(ps) <= 8:
        # sum (k^2/N) ln(ratio) == sum coeff ln(atom) / N, exponentiated
        oracle = power_product((coeff * len(ps), ratio) for coeff, ratio in want_logs)
        fast = power_product(form.logs)
        assert oracle[0] * fast[1] == oracle[1] * fast[0]
    norm = l1_norm(ps)
    if want_logs:
        lo, hi = oracle_enclosure(want_rational, want_logs)
        mid, rad = exact(norm.value), exact(norm.error)
        assert mid - rad <= hi and lo <= mid + rad
    else:
        assert norm.exact and norm.value == want_rational


@pytest.mark.parametrize("dps", [5, 30, 60])
def test_l1_enclosure_matches_iv_objects(dps):
    # the one exact sum holds the `iv` objects' enclosure at 4 dps and is no
    # wider than theirs at dps
    inexact = 0
    for ps in (*ADVERSARIAL, random_uniform(32, seed=1), van_der_corput(5),
               PointSet(prime_reciprocals(12))):
        form = _l1_form(ps)
        lo, hi = _l1_enclosure(form, dps)
        assert contains((lo, hi), l1_enclosure_iv(form, 4 * dps))
        assert width((lo, hi)) <= width(l1_enclosure_iv(form, dps))
        assert width((lo, hi)) <= 3 * ulp(hi, dps_to_prec(dps))
        inexact += form.crossed > 0
    assert inexact >= 8


@settings(max_examples=100, deadline=None)
@given(point_sets)
@add_examples
@example(pointsets.read_csv(Path(__file__).parent / "golden" / "mixed.csv"))
def test_printed_l1_and_error_hold_the_norm(ps):
    # the printed l1 +- l1_err holds the `iv` objects' enclosure at 60 digits
    report = _norms_payload(ps, "l1")
    l1, err = Fraction(report["l1"]), Fraction(report["l1_err"])
    form = _l1_form(ps)
    if form.crossed:
        lo, hi = l1_enclosure_iv(form, 60)
        assert l1 - err <= exact(lo) and exact(hi) <= l1 + err
    else:
        assert (l1, err) == (form.rational, 0)


@settings(max_examples=100, deadline=None)
@given(point_sets, st.sampled_from([5, 30, 60]))
def test_l1_enclosure_holds_finer_iv_within_three_ulps(ps, dps):
    form = _l1_form(ps)
    lo, hi = _l1_enclosure(form, dps)
    assert contains((lo, hi), l1_enclosure_iv(form, 4 * dps))
    assert width((lo, hi)) <= 3 * ulp(hi, dps_to_prec(dps))


# each atom is a log sum over integers: 3, 1/3^80 and 2^60/7
@pytest.mark.parametrize("coeff, atom", [(1, ((1, 3),)), (-1, ((1, 3),)),
                                         (-2, ((-80, 3),)), (5, ((60, 2), (-1, 7)))])
def test_l1_enclosure_holds_a_log_sum_cancelled_to_2_pow_minus_300(coeff, atom):
    # a rational within 2^-300 of -coeff ln(atom) leaves a total far below
    # the logs' working precision, so a coefficient's end taken from the
    # wrong log end shows, though on an L1 form it moves less than an ulp
    logs = tuple((coeff * e, m) for e, m in atom)
    with mp.workprec(400):
        approx = mp.fsum(c * mp.log(m) for c, m in logs)
    rational = -Fraction(round(exact(approx) * 2 ** 300), 2 ** 300)
    form = L1Form(rational, logs, 1, 1)
    for dps in (5, 30):
        assert contains(_l1_enclosure(form, dps), l1_enclosure_iv(form, 4 * dps))


@pytest.mark.parametrize("dps", [5, 30])
def test_l1_enclosure_logs_an_interval_holding_each_integer(monkeypatch, dps):
    # an m wider than the logs' working precision must be rounded outward
    # before its log; rounding it to nearest moves ln m by less than the
    # log's own ulp, so only the argument handed to the log shows it.  An
    # m that fits takes one mpf_log of m itself, a wider one an mpi_log.
    seen = []

    def recording_mpf(x, prec, rnd):
        seen.append((x, x))
        return mpf_log(x, prec, rnd)

    def recording_mpi(x, prec):
        seen.append(x)
        return mpi_log(x, prec)

    monkeypatch.setattr(_interval, "mpf_log", recording_mpf)
    monkeypatch.setattr(_interval, "mpi_log", recording_mpi)
    for form in (L1Form(Fraction(0), ((1, 3 ** 200),), 1, 1), _l1_form(DENOMINATOR_3_80)):
        seen.clear()
        _l1_enclosure(form, dps)
        assert len(seen) == len(form.logs)
        ends = [tuple(map(exact, _iv_endpoints(x))) for x in seen]
        assert all(lo <= m <= hi for (lo, hi), (_, m) in zip(ends, form.logs))
        assert any(lo < hi for lo, hi in ends)
        # 2 and 3 fit and are logged exactly; 3^200 never fits
        assert any(lo == hi for lo, hi in ends) == (form.logs != ((1, 3 ** 200),))


# logs over 2 and odd m up to 300 bits, some past the working precision
log_forms = st.builds(
    lambda logs, num, den, n: L1Form(Fraction(num, den), tuple(logs), n, 1),
    st.lists(st.tuples(st.integers(-(1 << 40), 1 << 40).filter(bool),
                       st.one_of(st.just(2), st.integers(1, 1 << 299).map(lambda k: 2 * k + 1))),
             min_size=1, max_size=6, unique_by=lambda cm: cm[1]),
    st.integers(0, 1 << 80), st.integers(1, 1 << 80), st.integers(1, 1 << 12))


def cancelled(form):
    """`form` with a rational within 2^-300 of minus its log part, so that
    each log's last bit shows in the rounded ends."""
    with mp.workprec(800):
        approx = mp.fsum(c * mp.log(m) for c, m in form.logs) / form.n
    return form._replace(rational=-Fraction(round(exact(approx) * 2 ** 300), 2 ** 300))


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_sets.map(_l1_form), log_forms,
                 log_forms.map(cancelled)),
       st.sampled_from([1, 5, 12, 20, 30, 50]))
@example(L1Form(Fraction(0), ((1, 3 ** 200),), 1, 1), 5)
@example(_l1_form(DENOMINATOR_3_80), 30)
def test_l1_enclosure_is_bit_equal_to_two_logs_per_integer(form, dps):
    # the next w-bit float above ln m rounded down is ln m rounded up
    got, want = _l1_enclosure(form, dps), oracles.l1_enclosure_two_logs(form, dps)
    assert [end._mpf_ for end in got] == [end._mpf_ for end in want]


def contains(outer, inner):
    return exact(outer[0]) <= exact(inner[0]) and exact(inner[1]) <= exact(outer[1])


def width(interval):
    return exact(interval[1]) - exact(interval[0])


def ulp(value, prec):
    """The unit in the last place of the positive mpf `value` at `prec` bits."""
    _, man, exp, bc = value._mpf_
    return Fraction(2) ** (exp + bc - prec)


def power_product(pairs):
    """(num, den) of the product of q^e over (e, q) pairs, e an integer and q
    a positive integer or Fraction."""
    num = den = 1
    for e, q in pairs:
        assert Fraction(e).denominator == 1
        power = Fraction(q) ** int(e)
        num *= power.numerator
        den *= power.denominator
    return num, den


def oracle_enclosure(rational, logs, dps=30):
    """Exact endpoints of rational + sum coeff ln(ratio), one log per cell."""
    with _iv_precision(dps):
        total = iv_fraction(rational)
        for coeff, ratio in logs:
            total += iv_fraction(coeff) * iv.log(iv_fraction(ratio))
    return tuple(exact(v) for v in _iv_endpoints(total._mpi_))


def exact(value):
    """A finite mpf as the Fraction it stands for."""
    sign, man, exp, _ = value._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@settings(max_examples=150, deadline=None)
@given(point_sets)
@add_examples
def test_l2_matches_pairwise_oracle(ps):
    value = l2_norm_sq(ps)
    assert value == l2_oracle(ps)
    assert value == l2_norm_sq_direct(ps)


def test_grid_fields_agree():
    ps = pointset((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 3), 1), (0, Fraction(3, 5)))
    grid = CellDecomposition.from_pointset(ps)
    # the cuts are the numerators over each axis's D, 3 and 20
    assert ps.axes == ((3, (1, 1, 0)), (20, (5, 20, 12)))
    assert grid.x_cuts == (0, 1, 3)
    assert grid.y_cuts == (0, 5, 12, 20)
    # x = 0 holds (0, 3/5), x = 1/3 holds y = 1/4 and y = 1, x = 1 none
    assert grid.y_ranks == ((2,), (1, 3), ())
    assert ps.grid == grid
    x_cuts, y_cuts = fraction_cuts(ps)
    assert x_cuts == [0, Fraction(1, 3), 1] and y_cuts == [0, Fraction(1, 4), Fraction(3, 5), 1]
    table = tuple(_columns(grid))
    for i, x in enumerate(x_cuts):
        for j, y in enumerate(y_cuts):
            assert table[i][j] == sum(1 for px, py in fraction_points(ps) if px <= x and py <= y)


def test_l1_norm_on_adversarial_corpus_is_certified():
    for ps in ADVERSARIAL:
        rational, logs = l1_terms_oracle(ps)
        norm = l1_norm(ps)
        assert norm.exact == (not logs)
        assert norm.sign_change_cells == len(logs)
        if norm.exact:
            assert norm.value == rational


def test_norm_chain_on_adversarial_corpus():
    # certificate <= L1 <= L2 <= L-infinity: each link is a theorem.  The
    # twins 2^-1000 apart never split, so their trees reach HARD_LEVEL_CAP.
    gap = Fraction(1, 1 << 1000)
    twins = pointset((Fraction(1, 3), Fraction(1, 5)),
                     (Fraction(1, 3) + gap, Fraction(1, 5) + gap), (Fraction(1, 2), Fraction(1, 7)))
    assert not certificate(twins).trees_stabilized
    for ps in (*ADVERSARIAL, twins):
        norm = l1_norm(ps)
        l1_low = norm.value if norm.exact else exact(norm.value) - exact(norm.error)
        assert exact(certificate(ps).l1_lower_bound) <= l1_low
        assert max(l1_low, 0) ** 2 <= l2_norm_sq(ps) <= linf_norm(ps) ** 2


@pytest.mark.parametrize("max_level", [0, 2, None])
def test_a_family_rebuilt_from_its_clusters_gives_the_same_reports(max_level):
    # a tree is its set, its direction and its levels' clusters: n, l*, the
    # stabilized flag and the empty counts are read from them, so a family
    # rebuilt from those three fields certifies and checks as the built one
    for ps in (*ADVERSARIAL, random_uniform(64, 1)):
        built = list(build_trees(ps, max_level))
        rebuilt = [AuxFamilyTree(t.pointset, t.direction, t.levels) for t in built]
        cert = certificate(ps, trees=rebuilt)
        assert cert == certificate(ps, trees=built)
        assert lemma_suite(ps, trees=rebuilt) == lemma_suite(ps, trees=built)
    # the 64 points share level-0 cells, so cut there no tree is stabilized,
    # and the certificate widens its inner products
    if max_level == 0:
        assert not cert.trees_stabilized
        assert cert.inner_product_error == Fraction(205, 134217728)


def test_certificate_bounds_within_1e_30_of_a_60_digit_reference():
    # at the working precision DPS, main_term and error_bound lie within
    # 1e-30 relative of `iv` objects at 60 digits, each on its safe side
    goldens = (read_csv(Path(__file__).parent / "golden" / f"{s}.csv") for s in ("vdc3", "mixed"))
    for ps in (*ADVERSARIAL, *goldens):
        cert = certificate(ps)
        with _iv_precision(60):
            main = odd_terms_iv(cert.n, {1: abs(cert.inner_product_sum)})
            err = odd_terms_iv(cert.n, _error_weights(cert.n, len(ps)))
        main_lo, main_hi = map(exact, _iv_endpoints(main._mpi_))
        err_lo, err_hi = map(exact, _iv_endpoints(err._mpi_))
        assert exact(cert.main_term) <= main_hi and exact(cert.error_bound) >= err_lo
        for got, ends in ((cert.main_term, (main_lo, main_hi)), (cert.error_bound, (err_lo, err_hi))):
            for end in ends:
                assert abs(exact(got) - end) <= Fraction(1, 10 ** 30) * abs(end)


def oversize_set():
    """4097 distinct coordinates per axis: 4097^2 cells, just over the budget."""
    side = 4097
    assert side * side > MAX_GRID_CELLS >= (side - 1) ** 2
    return pointset(*((Fraction(k, side), Fraction(side - k, side)) for k in range(side)))


@pytest.mark.parametrize("kernel", [l1_norm, linf_norm, l2_norm_sq_direct])
def test_grid_budget_raises_before_building(kernel, monkeypatch):
    refused = []
    check = discrepancy._check_grid_budget

    def watched(grid):
        try:
            check(grid)
        except ResourceLimitError:
            refused.append(sum(map(len, grid.y_ranks)))
            raise
        raise AssertionError("the budget let an oversize grid through")

    def no_columns(grid):
        raise AssertionError("columns streamed for an oversize grid")

    def no_lowest(a, den):
        raise AssertionError("a cut read for an oversize grid")

    monkeypatch.setattr(discrepancy, "_check_grid_budget", watched)
    monkeypatch.setattr(oracles, "_check_grid_budget", watched)
    monkeypatch.setattr(discrepancy, "_columns", no_columns)
    monkeypatch.setattr(discrepancy, "accumulate", no_columns)
    monkeypatch.setattr(discrepancy, "_lowest", no_lowest)
    # 4097^2 cells over small integers
    with pytest.raises(ResourceLimitError, match="cell budget"):
        kernel(oversize_set())
    assert refused == [4097]


def test_l2_refuses_axis_integers_over_budget():
    # 4097 distinct prime denominators per axis: a common denominator of
    # about 56,000 bits, 4097 times over, past MAX_AXIS_BITS; the set is
    # refused as it is made, so L2 never reads it
    with pytest.raises(ResourceLimitError, match="bit budget"):
        l2_norm_sq(PointSet(prime_reciprocals(4097)))


def test_axis_bit_budget_counts_every_integer(monkeypatch):
    # D = 3 2^64 has 66 bits, 2 past the 64 that the point budget pays for,
    # so the four numerators count 8 bits
    pairs = [(0, 1), (1, 3), (1, 1 << 64), (1, 1)]
    nums, dens = zip(*pairs)
    axis = (3 << 64, (0, 1 << 64, 3, 3 << 64))
    monkeypatch.setattr(pointsets, "MAX_AXIS_BITS", 8)
    assert pointsets._axis(nums, dens) == axis
    assert PointSet(zip([Fraction(p, q) for p, q in pairs], [0] * 4)).axes[0] == axis
    monkeypatch.setattr(pointsets, "MAX_AXIS_BITS", 7)
    for make in (lambda: pointsets._axis(nums, dens),
                 lambda: PointSet(zip([Fraction(p, q) for p, q in pairs], [0] * 4))):
        with pytest.raises(ResourceLimitError, match="7-bit budget"):
            make()
    # a D of 64 bits or fewer costs nothing, whatever N
    monkeypatch.setattr(pointsets, "MAX_AXIS_BITS", 0)
    assert pointsets._axis(nums[:2] * 1000, dens[:2] * 1000)[0] == 3
    assert len(pointsets.symmetrize(pointsets.random_uniform(4, 1))) == 8


def test_l2_reads_no_column_and_has_no_budget(monkeypatch):
    def no_columns(grid):
        raise AssertionError("L2 streamed a column")

    monkeypatch.setattr(discrepancy, "_columns", no_columns)
    ps = oversize_set()
    side = n = len(ps)
    # the antidiagonal x_i = i/s, y_i = 1 - i/s: for x_j <= x_i the pair
    # term (1 - max x)(1 - max y) is (s - i) j / s^2, so the ordered pair
    # sum is sum_i (s - i) (i + 2 (0 + ... + (i - 1))) / s^2
    pair = Fraction(sum((side - i) * i * i for i in range(n)), side ** 2)
    single = Fraction(sum((side ** 2 - i * i) * (side ** 2 - (side - i) ** 2) for i in range(n)),
                      side ** 4)
    assert l2_norm_sq(ps) == pair - Fraction(n, 2) * single + Fraction(n * n, 9)
