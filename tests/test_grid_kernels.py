"""The integer-grid norm kernels against the per-cell Fraction kernels they replaced.

The oracles below are the original Fraction routes: O(N^3) corner
counting for L-infinity, per-cell integration for the L1 terms and the
O(N^2) pairwise sum for L2.  The fast kernels must agree with them
exactly.  For L1 that means the same rational part, the same crossed-cell
count, and a linear form in log atoms that is the same number as the
oracle's per-cell logs: the products of the atoms and of the ratios,
raised to their integer coefficients, are equal.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp, mpf
from mpmath.libmp import dps_to_prec, mpi_log

import oracles
from discrep import discrepancy, pointsets
from discrep.discrepancy import (
    MAX_GRID_CELLS,
    CellDecomposition,
    L1Form,
    _columns,
    _iv_endpoints,
    _l1_enclosure,
    _l1_form,
    l1_norm,
    l2_norm_sq,
    linf_norm,
)
from discrep.errors import ResourceLimitError
from discrep.pointsets import Point, PointSet, random_uniform, van_der_corput
from discrep.testfn import certificate
from oracles import (
    _iv_precision,
    cells,
    grid_oracle,
    iv_fraction,
    l1_enclosure_iv,
    l1_norm_iv,
    l2_norm_sq_direct,
    linf_exact_scan,
    prime_reciprocals,
)


def linf_oracle(ps):
    n = len(ps)
    xs = sorted({Fraction(1), *(p.x for p in ps)})
    ys = sorted({Fraction(1), *(p.y for p in ps)})
    best = Fraction(0)
    for x in xs:
        for y in ys:
            closed = sum(1 for p in ps if p.x <= x and p.y <= y)
            strict = sum(1 for p in ps if p.x < x and p.y < y)
            nxy = n * x * y
            best = max(best, abs(closed - nxy), abs(strict - nxy))
    return best


def l1_terms_oracle(ps):
    n = len(ps)
    rational = Fraction(0)
    logs = []
    for a, b, c, d, k in cells(CellDecomposition.from_pointset(ps)):
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
    pair_sum = Fraction(0)
    for p in ps:
        for q in ps:
            pair_sum += (1 - max(p.x, q.x)) * (1 - max(p.y, q.y))
    single = sum((1 - p.x ** 2) * (1 - p.y ** 2) for p in ps)
    return pair_sum - Fraction(n, 2) * single + Fraction(n * n, 9)


def pointset(*pts):
    return PointSet(tuple(Point(Fraction(x), Fraction(y)) for x, y in pts))


# dyadic, 2^53, odd primes and 3^20, mixed within one set
DENOMINATORS = [1, 2, 4, 8, 64, 1 << 53, 3, 5, 7, 11, 13, 101, 3 ** 20]
coordinates = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.sampled_from(DENOMINATORS).flatmap(
        lambda q: st.integers(0, q).map(lambda k: Fraction(k, q))
    ),
)
distinct_points = st.lists(st.builds(Point, coordinates, coordinates), min_size=1, max_size=10)
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
        points = [Point(draw(odd_coordinates), draw(odd_coordinates)) for _ in range(n // 2)]
        points += [Point(y + draw(tiny), x + draw(tiny)) for x, y in points]
        if n % 2:
            t = draw(odd_coordinates)
            points.append(Point(t, t))
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
        points.append(Point(x, y))
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
CLOUD = [(Fraction(1, 2) + p.x / 2, Fraction(1, 2) + p.y / 2) for p in random_uniform(4, seed=5)]
X0_SUPREMA = [
    pointset((0, Fraction(1, 3)), (0, Fraction(2, 3)), (0, 1), (0, 0)),
    pointset(*[(0, Fraction(1, 10))] * 4, *CLOUD),
    pointset(*[(0, Fraction(1, 10))] * 3, (0, 1), (Fraction(3, 4), Fraction(3, 4)),
             (Fraction(7, 8), Fraction(1, 2))),
]


@settings(max_examples=500, deadline=None)
@given(filter_traps())
@example(MIRROR_TIES[0])
@example(MIRROR_TIES[1])
@example(X0_SUPREMA[0])
@example(X0_SUPREMA[1])
@example(X0_SUPREMA[2])
@add_examples
def test_linf_filter_matches_exact_scans(ps):
    value = linf_norm(ps)
    assert value == linf_exact_scan(ps)
    assert value == linf_oracle(ps)


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
grid_traps = st.lists(st.builds(Point, grid_coordinates, grid_coordinates), min_size=1,
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
    form = _l1_form(CellDecomposition.from_pointset(ps))
    want_rational, want_logs = l1_terms_oracle(ps)
    assert form.rational == want_rational
    assert form.crossed == len(want_logs)
    assert form.n == len(ps)
    atoms = [m for _, m in form.logs]
    assert all(m == 2 or m >= 3 and m % 2 for m in atoms) and len(set(atoms)) == len(atoms)
    assert all(coeff for coeff, _ in form.logs)
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
    # the one exact sum holds the `iv` objects' enclosure at 4 dps, is no
    # wider than theirs at dps, and certifies at no more digits
    inexact = 0
    for ps in (*ADVERSARIAL, random_uniform(32, seed=1), van_der_corput(5), prime_reciprocals(12)):
        form = _l1_form(ps.grid)
        norm = l1_norm(ps, dps)
        assert norm.dps <= l1_norm_iv(ps, dps).dps
        for attempt_dps in {dps, norm.dps} - {0}:
            lo, hi = _l1_enclosure(form, attempt_dps)
            assert contains((lo, hi), l1_enclosure_iv(form, 4 * attempt_dps))
            assert width((lo, hi)) <= width(l1_enclosure_iv(form, attempt_dps))
            assert width((lo, hi)) <= 3 * ulp(hi, dps_to_prec(attempt_dps))
        inexact += not norm.exact
    assert inexact >= 8


@settings(max_examples=100, deadline=None)
@given(point_sets, st.sampled_from([5, 30, 60]))
def test_l1_enclosure_holds_finer_iv_within_three_ulps(ps, dps):
    form = _l1_form(ps.grid)
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
    # log's own ulp, so only the interval handed to mpi_log shows it
    seen = []

    def recording(x, prec):
        seen.append(x)
        return mpi_log(x, prec)

    monkeypatch.setattr(discrepancy, "mpi_log", recording)
    for form in (L1Form(Fraction(0), ((1, 3 ** 200),), 1, 1), _l1_form(DENOMINATOR_3_80.grid)):
        seen.clear()
        _l1_enclosure(form, dps)
        assert len(seen) == len(form.logs)
        ends = [tuple(map(exact, _iv_endpoints(x))) for x in seen]
        assert all(lo <= m <= hi for (lo, hi), (_, m) in zip(ends, form.logs))
        assert any(lo < hi for lo, hi in ends)


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
    assert grid.x_cuts == (0, Fraction(1, 3), 1)
    assert grid.y_cuts == (0, Fraction(1, 4), Fraction(3, 5), 1)
    (x_den, x_ints), (y_den, y_ints) = grid.axes
    assert x_den == 3 and y_den == 20
    assert [Fraction(v, x_den) for v in x_ints] == list(grid.x_cuts)
    assert [Fraction(v, y_den) for v in y_ints] == list(grid.y_cuts)
    assert grid.point_ranks == ((1, 1), (1, 3), (0, 2))
    table = tuple(_columns(grid))
    for i, x in enumerate(grid.x_cuts):
        for j, y in enumerate(grid.y_cuts):
            assert table[i][j] == sum(1 for p in ps if p.x <= x and p.y <= y)


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


def oversize_set():
    """4097 distinct coordinates per axis: 4097^2 cells, just over the budget."""
    side = 4097
    assert side * side > MAX_GRID_CELLS >= (side - 1) ** 2
    return pointset(*((Fraction(k, side), Fraction(side - k, side)) for k in range(side)))


@pytest.mark.parametrize("kernel", [l1_norm, linf_norm, l2_norm_sq_direct])
def test_grid_budget_raises_before_building(kernel, monkeypatch):
    refused = []
    columns = discrepancy._columns

    def watched(grid):
        try:
            columns(grid)
        except ResourceLimitError:
            refused.append(len(grid))
            raise
        raise AssertionError("columns streamed for an oversize grid")

    def no_integers(cuts):
        raise AssertionError("axis integers built for an oversize grid")

    monkeypatch.setattr(discrepancy, "_columns", watched)
    monkeypatch.setattr(oracles, "_columns", watched)
    monkeypatch.setattr(pointsets, "_axis_integers", no_integers)
    # 4098^2 cells, whose axis integers would be far over their bit budget too
    with pytest.raises(ResourceLimitError, match="cell budget"):
        kernel(prime_reciprocals(4097))
    assert refused == [4097]


def test_l2_refuses_axis_integers_over_budget():
    # 4099 x cuts over a common denominator of about 56,000 bits
    with pytest.raises(ResourceLimitError, match="bit budget"):
        l2_norm_sq(prime_reciprocals(4097))


def test_axis_bit_budget_counts_every_integer(monkeypatch):
    # Q = 15 has 4 bits, so the four cuts take 16 bits
    cuts = (Fraction(0), Fraction(1, 3), Fraction(2, 5), Fraction(1))
    monkeypatch.setattr(pointsets, "MAX_AXIS_BITS", 16)
    assert pointsets._axis_integers(cuts) == (15, (0, 5, 6, 15))
    monkeypatch.setattr(pointsets, "MAX_AXIS_BITS", 15)
    with pytest.raises(ResourceLimitError, match="15-bit budget"):
        pointsets._axis_integers(cuts)


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
