"""Recursive construction, exact inner products, and the verification suite."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from discrep import auxiliary
from discrep.auxiliary import (
    EXTRA_LEVELS,
    HARD_LEVEL_CAP,
    AuxFamilyTree,
    _check_cluster_partition,
    _check_level_counts,
    _tree_integers,
    build_tree,
    build_trees,
    inner_product,
    lemma_short_bound,
    lemma_suite,
    n_from_pointcount,
    product_bound_check,
    sum_empty_area_sq,
)
from discrep.errors import ResourceLimitError
from discrep.pointsets import Point, PointSet, random_uniform, van_der_corput
from discrep.testfn import certificate
from oracles import eval_discrepancy

ORIGIN = PointSet((Point(Fraction(0), Fraction(0)),), label="origin")


def test_n_from_pointcount_examples():
    assert n_from_pointcount(1) == 1
    assert n_from_pointcount(4) == 3
    assert n_from_pointcount(3) == 3


@given(st.integers(1, 10**9))
def test_n_from_pointcount_characterization(count):
    n = n_from_pointcount(count)
    assert 2 ** (n - 1) < 2 * count <= 2 ** n


def test_singleton_tree_levels():
    tree = build_tree(ORIGIN, 0)
    assert tree.n == 1
    lev0 = tree.levels[0]
    assert lev0.empty_count == 1
    assert list(lev0.occupied) == [(0, 0)]
    assert lev0.rect_area == Fraction(1, 2)
    # level 1: 2^(2(n+1)) = 16 children of the one occupied rectangle
    lev1 = tree.levels[1]
    assert lev1.empty_count == 15
    assert len(lev1.occupied) == 1
    assert tree.stabilization_level == 0
    assert tree.stabilized


def test_occupied_never_exceeds_point_count():
    for ps in (van_der_corput(2), van_der_corput(3), random_uniform(11, seed=1)):
        n = n_from_pointcount(len(ps))
        for i in range(n + 1):
            tree = build_tree(ps, i)
            assert all(len(rec.occupied) <= len(ps) for rec in tree.levels)


def test_boundary_points_fall_outside_all_rectangles():
    ps = PointSet((Point(Fraction(1), Fraction(1, 2)), Point(Fraction(0), Fraction(0))))
    tree = build_tree(ps, 0)
    members = {t for rec in tree.levels for m in rec.occupied.values() for t in m}
    assert members == {1}


def test_eval_aux_examples():
    tree = build_tree(ORIGIN, 0)
    assert eval_oracle(tree, Fraction(3, 10), Fraction(8, 10)) == (-1, False)
    assert eval_oracle(tree, Fraction(3, 10), Fraction(2, 10)) == (-1, False)
    assert eval_oracle(tree, Fraction(0), Fraction(0)) == (1, True)


def test_inner_product_singleton_exact():
    tree = build_tree(ORIGIN, 0)
    ip = inner_product(tree)
    assert ip.value == Fraction(-9, 544)
    assert ip.error == 0
    assert ip.value <= lemma_short_bound(tree.n, tree.point_count) == Fraction(-1, 64)


def test_inner_product_deep_truncation_matches_tail():
    # explicitly built deep levels must agree with the closed-form tail
    ps = van_der_corput(2)
    for i in (0, 2):
        auto = build_tree(ps, i)
        deep = build_tree(ps, i, max_level=auto.stabilization_level + 10)
        assert inner_product(auto).value == inner_product(deep).value
        # partial sums (no tail) differ by exactly the remaining geometric tail
        partial = -Fraction(len(ps), 16) * sum(
            rec.empty_count * rec.rect_area ** 2 for rec in deep.levels
        )
        n = deep.n
        c = len(deep.levels[-1].occupied)
        ratio = Fraction(1, 1 << (4 * (n + 1)))
        area_next = deep.levels[-1].rect_area / (1 << (2 * (n + 1)))
        tail = ((1 << (2 * (n + 1))) - 1) * c * area_next ** 2 / (1 - ratio)
        assert inner_product(deep).value == partial - Fraction(len(ps), 16) * tail


def test_inner_product_upper_bound_across_corpus():
    sets = [ORIGIN, van_der_corput(2), van_der_corput(3), random_uniform(8, seed=2)]
    for ps in sets:
        n = n_from_pointcount(len(ps))
        for i in range(n + 1):
            tree = build_tree(ps, i)
            ip = inner_product(tree)
            assert ip.value < 0
            assert ip.value <= lemma_short_bound(tree.n, tree.point_count)


def test_inner_product_unstabilized_brackets_truth():
    # two distinct points sharing a level-0 cell: several levels to separate
    ps = PointSet(
        (Point(Fraction(0), Fraction(0)), Point(Fraction(1, 1024), Fraction(1, 1024)))
    )
    full = build_tree(ps, 1)
    assert full.stabilization_level and full.stabilization_level > 0
    truth = inner_product(full).value
    shallow = build_tree(ps, 1, max_level=0)
    assert not shallow.stabilized
    ip = inner_product(shallow)
    assert ip.error > 0
    assert ip.value - ip.error <= truth <= ip.value


F = Fraction
EVAL_SETS = (
    van_der_corput(2),
    random_uniform(5, seed=5),
    PointSet((Point(F(1, 3), F(1, 5)), Point(F(1, 3), F(1, 5)),
              Point(F(3, 4), F(1, 2)), Point(F(3, 4), F(1, 2))), label="duplicates"),
    PointSet((Point(F(0), F(1, 3)), Point(F(1), F(1, 2)),
              Point(F(1, 5), F(0)), Point(F(2, 7), F(1))), label="boundary"),
)
EVAL_TREES = [tree for ps in EVAL_SETS for tree in build_trees(ps)]


@st.composite
def tree_queries(draw):
    """A tree of EVAL_TREES and a Fraction query in [0, 1)^2: anywhere, or
    at one of its interior points moved by 0 or 2^-g along each axis, so
    that queries land inside, on the edge of and next to occupied cells."""
    tree = draw(st.sampled_from(EVAL_TREES))
    ps = tree.pointset
    interior = _tree_integers(ps).interior
    if interior and draw(st.booleans()):
        p = ps.points[draw(st.sampled_from(interior))]
        gap = st.one_of(st.just(F(0)), st.integers(1, 200).map(lambda g: F(1, 1 << g)))
        return tree, _apart(p.x, draw(gap)), _apart(p.y, draw(gap))
    coordinate = st.fractions(min_value=0, max_value=1).filter(lambda q: q < 1)
    return tree, draw(coordinate), draw(coordinate)


@settings(max_examples=300, deadline=None)
@given(tree_queries())
@example((EVAL_TREES[0], Fraction(0), Fraction(0)))
@example((EVAL_TREES[0], Fraction(1, 8), Fraction(7, 8)))
@example((EVAL_TREES[-1], Fraction(1, 5), Fraction(0)))
def test_eval_aux_truncates_exactly_on_deepest_occupied_cells(query):
    # the value is +-1, and the query is truncated iff its cell at the
    # deepest level's scales is occupied there
    tree, x, y = query
    value, truncated = eval_oracle(tree, x, y)
    assert value in (-1, 1)
    deep = tree.levels[-1]
    cell = (math.floor(x * (1 << deep.scale_x)), math.floor(y * (1 << deep.scale_y)))
    assert truncated == (cell in deep.occupied)
    assert not truncated or value == 1


def test_uncovered_mass_decreases_to_zero():
    tree = build_tree(van_der_corput(2), 1)
    masses = [tree.uncovered_mass(level) for level in range(len(tree.levels))]
    assert all(b < a for a, b in zip(masses, masses[1:]))
    assert masses[0] == len(tree.pointset) * Fraction(1, 1 << tree.n)


def _covered_integrals_by_grid(ps, trees, grid_bits):
    """Independent oracle: exact integration on a uniform dyadic grid fine
    enough that every product piece and every Haar quadrant is resolved."""
    n = len(ps)
    g = 1 << grid_bits
    tot_prod = Fraction(0)
    tot_d = Fraction(0)
    covered = Fraction(0)
    cell_area = Fraction(1, g * g)
    for ix in range(g):
        for iy in range(g):
            x = Fraction(2 * ix + 1, 2 * g)
            y = Fraction(2 * iy + 1, 2 * g)
            sign = 1
            ok = True
            for tree in trees:
                value, truncated = eval_oracle(tree, x, y)
                if truncated:
                    ok = False
                    break
                sign *= value
            if not ok:
                continue
            covered += cell_area
            tot_prod += sign * cell_area
            a, b = Fraction(ix, g), Fraction(ix + 1, g)
            c, d = Fraction(iy, g), Fraction(iy + 1, g)
            cell_d = sum(
                (b - max(a, p.x)) * (d - max(c, p.y))
                for p in ps
                if p.x < b and p.y < d
            ) - Fraction(n, 4) * (b * b - a * a) * (d * d - c * c)
            tot_d += sign * cell_d
    return tot_prod, tot_d, covered


def test_product_check_matches_grid_oracle():
    trees = [build_tree(ORIGIN, 0, max_level=2), build_tree(ORIGIN, 1, max_level=2)]
    report = product_bound_check(ORIGIN, (0, 1), truncation_level=2, trees=trees)
    # finest piece scale at level 2 is i + 2(n+1) = 5, plus one for quadrants
    oracle = _covered_integrals_by_grid(ORIGIN, trees, grid_bits=7)
    assert oracle[0] == 0
    assert 0 <= 1 - report.covered_area <= report.mass_bound
    assert report.d_product_integral == oracle[1]
    assert report.covered_area == oracle[2]
    assert report.covered_ok and report.d_product_ok


def test_product_check_bounds_vdc():
    ps = van_der_corput(2)
    n = n_from_pointcount(len(ps))
    trees = build_trees(ps, max_level=2)
    for indices in ((0, 2), (0, 3), (1, 2), (0, 1, 3)):
        report = product_bound_check(ps, indices, [trees[i] for i in indices], 2)
        assert 0 <= 1 - report.covered_area <= report.mass_bound
        assert report.d_product_ok
        assert report.d_product_bound == Fraction(
            (1 << indices[0]) * len(ps), (1 << indices[-1]) * 16 * (1 << n)
        )


def test_product_check_validation(monkeypatch):
    ps = van_der_corput(2)
    trees = build_trees(ps, max_level=2)
    with pytest.raises(ValueError, match="at least two"):
        product_bound_check(ps, (0,), trees[:1])
    with pytest.raises(ValueError, match="strictly increasing"):
        product_bound_check(ps, (3, 0), [trees[3], trees[0]])
    with pytest.raises(ValueError, match="requested indices"):
        product_bound_check(ps, (0, 3), [trees[0], trees[2]])
    with pytest.raises(ValueError, match="built to level 2"):
        product_bound_check(ps, (0, 3), build_trees(ps, max_level=1)[::3])
    other = [build_tree(random_uniform(4, seed=1), i, max_level=2) for i in (0, 3)]
    with pytest.raises(ValueError, match="another point set"):
        product_bound_check(ps, (0, 3), other)
    monkeypatch.setattr("discrep.auxiliary.PIECE_CAP", 10)
    with pytest.raises(ResourceLimitError):
        product_bound_check(ps, (0, 3), [trees[0], trees[3]])


def test_side_lengths_never_tie():
    ps = van_der_corput(2)
    trees = build_trees(ps, max_level=3)
    for a in trees:
        for b in trees:
            if a.direction >= b.direction:
                continue
            for ra in a.levels:
                for rb in b.levels:
                    assert ra.scale_x != rb.scale_x
                    assert ra.scale_y != rb.scale_y


def test_lemma_suite_passes_on_corpus():
    for ps in (ORIGIN, van_der_corput(3), random_uniform(16, seed=1)):
        report = lemma_suite(ps)
        assert report.passed, [c for c in report.checks if not c.passed]


def test_product_covered_area_fails_understated_mass(monkeypatch):
    ps = van_der_corput(2)
    assert all(c.passed for c in lemma_suite(ps).checks if c.name == "product_covered_area")
    # the level-2 occupied cells are left uncovered; claim they have no measure
    monkeypatch.setattr(AuxFamilyTree, "uncovered_mass", lambda self, level: Fraction(0))
    checks = [c for c in lemma_suite(ps).checks if c.name.startswith("product_")]
    covered = [c for c in checks if c.name == "product_covered_area"]
    assert len(covered) == 2 and not any(c.passed for c in covered)
    assert len(checks) == 4 and not any(c.skipped for c in checks)


def test_lemma_suite_product_checks_its_own_trees(monkeypatch):
    ps = van_der_corput(2)
    built = []

    def counting(*args, **kwargs):
        built.append(args[1])
        return build_tree(*args, **kwargs)

    monkeypatch.setattr("discrep.auxiliary.build_tree", counting)
    assert lemma_suite(ps).passed
    assert sorted(built) == [0, 1, 2, 3]
    # trees passed in claim no uncovered measure: the product checks see
    # it, on those trees, as no other tree is built
    trees = [build_tree(ps, i) for i in range(4)]
    built.clear()
    monkeypatch.setattr(AuxFamilyTree, "uncovered_mass", lambda self, level: Fraction(0))
    covered = [c for c in lemma_suite(ps, trees=trees).checks
               if c.name == "product_covered_area"]
    assert len(covered) == 2 and not any(c.passed or c.skipped for c in covered)
    assert built == []


def test_lemma_suite_skips_products_without_level_2_trees():
    ps = van_der_corput(2)
    products = [c for c in lemma_suite(ps, trees=build_trees(ps, max_level=1)).checks
                if c.name.startswith("product")]
    assert len(products) == 2
    assert all(c.skipped and not c.passed and "level 2" in c.witness for c in products)
    products = [c for c in lemma_suite(ps, trees=build_trees(ps)[::-1]).checks
                if c.name.startswith("product")]
    assert len(products) == 4 and all(c.passed for c in products)


def test_build_trees_is_one_tree_per_direction_in_order():
    ps = van_der_corput(3)  # n = 4
    for max_level in (None, 0, 3):
        trees = build_trees(ps, max_level)
        assert [t.direction for t in trees] == list(range(5))
        assert [[r.clusters for r in t.levels] for t in trees] == [
            [r.clusters for r in build_tree(ps, i, max_level).levels] for i in range(5)]


def _with_level(tree, level, **changes):
    """A copy of `tree` whose record of `level` has `changes`."""
    levels = list(tree.levels)
    levels[level] = levels[level]._replace(**changes)
    return tree._replace(levels=tuple(levels))


def test_trees_are_immutable():
    tree = build_tree(ORIGIN, 0)
    for name in ("levels", "uncovered_mass", "stabilization_level"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(tree, name, None)
    assert _with_level(tree, 0) == tree and hash(_with_level(tree, 0)) == hash(tree)
    assert tree._replace(stabilization_level=None) != tree


def test_lemma_suite_flags_corrupted_tree():
    ps = van_der_corput(2)
    trees = build_trees(ps)
    # tamper with the level-0 empty count
    trees[1] = _with_level(trees[1], 0, empty_count=trees[1].levels[0].empty_count + 1)
    report = lemma_suite(ps, trees=trees)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any("i=1" in c.witness for c in failing)


def test_lemma_suite_refuses_trees_of_another_set():
    ps, other = van_der_corput(4), random_uniform(16, 3)
    own = build_trees(ps)
    for trees in (build_trees(other), [*own[:5], build_tree(other, 5)]):
        with pytest.raises(ValueError, match="another point set"):
            lemma_suite(ps, trees=trees)
    assert lemma_suite(ps, trees=own).passed


def _failed_check(ps, trees, name):
    """The one failing check called `name` of the suite on `trees`, which
    must fail."""
    report = lemma_suite(ps, trees=trees)
    assert not report.passed
    failing = [c for c in report.checks if c.name == name and not c.passed]
    assert len(failing) == 1 and not failing[0].skipped
    return failing[0].witness


def test_level_counts_fails_more_clusters_than_points():
    # two copies of the one cluster, with the empty count cut to match
    trees = build_trees(ORIGIN)
    rec = trees[0].levels[0]
    trees[0] = _with_level(trees[0], 0, clusters=rec.clusters * 2, empty_count=0)
    witness = _failed_check(ORIGIN, trees, "level_counts")
    assert witness == "i=0 l=0: occupied 2 > N=1"


def test_level_counts_fails_a_wrong_area():
    trees = build_trees(ORIGIN)
    trees[1] = _with_level(trees[1], 1, rect_area=trees[1].levels[1].rect_area * 2)
    assert _failed_check(ORIGIN, trees, "level_counts") == "i=1 l=1: wrong area"


def test_cluster_partition_fails_a_dropped_cluster():
    ps = van_der_corput(1)
    trees = build_trees(ps)
    rec = trees[0].levels[0]
    assert len(rec.clusters) == 2
    trees[0] = _with_level(trees[0], 0, clusters=rec.clusters[:1], empty_count=rec.empty_count + 1)
    witness = _failed_check(ps, trees, "cluster_partition")
    assert witness == "i=0 l=0: clusters do not partition the points"


def test_inner_product_bound_fails_missing_empty_rectangles():
    trees = build_trees(ORIGIN)
    trees[1] = trees[1]._replace(levels=tuple(rec._replace(empty_count=0)
                                              for rec in trees[1].levels))
    witness = _failed_check(ORIGIN, trees, "inner_product_upper_bound")
    assert witness.startswith("i=1: ") and witness.endswith(" > -1/64")


def test_side_lengths_fails_a_tie():
    trees = build_trees(ORIGIN)
    assert (trees[0].levels[0].scale_x, trees[1].levels[0].scale_x) == (0, 1)
    trees[1] = _with_level(trees[1], 0, scale_x=0)
    assert _failed_check(ORIGIN, trees, "side_lengths_distinct") == "i=0 l=0 vs i=1 l=0"


def test_skipped_product_checks_are_not_passed(monkeypatch):
    # n = 5 exceeds the product guard; a piece cap of 10 stops the enumeration
    monkeypatch.setattr("discrep.auxiliary.PIECE_CAP", 10)
    for ps in (van_der_corput(4), van_der_corput(2)):
        report = lemma_suite(ps)
        skipped = [c for c in report.checks if c.skipped]
        assert skipped and all(c.name == "product_bounds" for c in skipped)
        assert not any(c.passed for c in skipped)
        assert all("skipped" in c.witness for c in skipped)
        assert report.skipped == len(skipped)
        assert report.passed


def _residual_checks(ps, trees=None):
    report = lemma_suite(ps, trees=trees)
    return [c for c in report.checks if c.name == "residual_mass_decreasing"]


def test_suite_passes_former_false_alarm_sets():
    # each set has one tree with uncovered mass 5.7e-6, where a sampled
    # check once saw 1 of 400 samples truncated and wrongly failed
    for seed in (12, 27, 56, 87, 88):
        report = lemma_suite(random_uniform(3, seed))
        assert report.passed and not report.skipped, report.to_json()
        assert sum(c.name == "residual_mass_decreasing" for c in report.checks) == 4


def test_unimodular_check_fails_understated_mass(monkeypatch):
    ps = van_der_corput(2)
    trees = build_trees(ps, max_level=0)
    assert all(c.passed for c in _residual_checks(ps, trees))
    # level 0 leaves half the square occupied; claim a quarter for tree 1
    mass = AuxFamilyTree.uncovered_mass
    monkeypatch.setattr(AuxFamilyTree, "uncovered_mass", lambda self, level: (
        Fraction(1, 4) if self.direction == 1 else mass(self, level)))
    failing = [c for c in _residual_checks(ps, trees) if not c.passed]
    assert [c.witness for c in failing] == ["i=1 l=0: occupied 1/2 > mass 1/4"]


def test_max_level_outside_range_is_refused():
    with pytest.raises(ValueError, match="at least 0"):
        build_tree(ORIGIN, 0, max_level=-1)
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        build_tree(ORIGIN, 0, max_level=HARD_LEVEL_CAP + 1)
    assert build_tree(ORIGIN, 0, max_level=0).deepest_level == 0
    assert build_tree(ORIGIN, 0, max_level=HARD_LEVEL_CAP).deepest_level == HARD_LEVEL_CAP


def test_tree_summary_schema():
    tree = build_tree(ORIGIN, 0)
    summary = tree.summary()
    assert set(summary) == {
        "i", "n", "levels", "stabilized", "l_star", "sum_area_sq", "inner_product",
    }
    assert summary["inner_product"] == "-9/544"
    assert summary["levels"][0] == {"l": 0, "nonempty": 1, "empty": 1}


def test_eval_matches_inner_product_sign_structure():
    # Monte-Carlo sanity: the sampled mean of D * f should be negative and
    # within a few standard errors of the exact inner product
    ps = van_der_corput(2)
    tree = build_tree(ps, 1)
    rng = random.Random(3)
    samples = 60_000
    acc = acc_sq = 0.0
    for _ in range(samples):
        x = Fraction(rng.getrandbits(30), 1 << 30)
        y = Fraction(rng.getrandbits(30), 1 << 30)
        v = float(eval_discrepancy(ps, x, y)) * eval_oracle(tree, x, y)[0]
        acc += v
        acc_sq += v * v
    mean = acc / samples
    stderr = ((acc_sq / samples - mean * mean) / samples) ** 0.5
    assert abs(mean - float(inner_product(tree).value)) < 4 * stderr


# ---------------------------------------------------------------------------
# the integer routes against the Fraction routes they replaced
# ---------------------------------------------------------------------------

def bucket_oracle(points, members, kx, ky):
    """Cells by Fraction floor; points on x=1 or y=1 fall outside."""
    out = {}
    for idx in members:
        p = points[idx]
        jx = math.floor(p.x * (1 << kx))
        jy = math.floor(p.y * (1 << ky))
        if jx == (1 << kx) or jy == (1 << ky):
            continue
        out.setdefault((jx, jy), []).append(idx)
    return out


def haar_sign_oracle(rect, qx, qy):
    kx, ky, jx, jy = rect
    sx = 1 if qx * (1 << (kx + 1)) - 2 * jx < 1 else -1
    sy = 1 if qy * (1 << (ky + 1)) - 2 * jy < 1 else -1
    return sx * sy


def eval_oracle(tree, x, y):
    """(value, truncated) of the tree's auxiliary function at (x, y) in
    [0, 1)^2, by Fractions: the Haar value of the first empty rectangle
    holding the point, or the +1 convention, truncated, when it lies in an
    occupied rectangle at every built level."""
    for rec in tree.levels:
        jx = math.floor(x * (1 << rec.scale_x))
        jy = math.floor(y * (1 << rec.scale_y))
        if (jx, jy) not in rec.occupied:
            return haar_sign_oracle((rec.scale_x, rec.scale_y, jx, jy), x, y), False
    return 1, True


def _axis_nested(k1: int, j1: int, k2: int, j2: int) -> bool:
    """Dyadic intervals intersect iff one contains the other."""
    if k1 <= k2:
        return (j2 >> (k2 - k1)) == j1
    return (j1 >> (k1 - k2)) == j2


def _rect_intersection(r1, r2):
    kx1, ky1, jx1, jy1 = r1
    kx2, ky2, jx2, jy2 = r2
    if not _axis_nested(kx1, jx1, kx2, jx2) or not _axis_nested(ky1, jy1, ky2, jy2):
        return None
    kx, jx = (kx1, jx1) if kx1 >= kx2 else (kx2, jx2)
    ky, jy = (ky1, jy1) if ky1 >= ky2 else (ky2, jy2)
    return (kx, ky, jx, jy)


def _empties_within(tree: AuxFamilyTree, rect, level_cap: int):
    """Yield empty rectangles of levels 0..level_cap intersecting `rect`."""
    kxr, kyr, jxr, jyr = rect

    def index_range(k: int, kr: int, jr: int, lo: int, hi: int):
        if k >= kr:
            a, b = jr << (k - kr), (jr + 1) << (k - kr)
        else:
            a, b = jr >> (kr - k), (jr >> (kr - k)) + 1
        return max(a, lo), min(b, hi)

    step = 1 << (tree.n + 1)

    def walk(level: int, pjx: int, pjy: int):
        rec = tree.levels[level]
        if level == 0:
            lo_x, hi_x = 0, 1 << rec.scale_x
            lo_y, hi_y = 0, 1 << rec.scale_y
        else:
            lo_x, hi_x = pjx * step, (pjx + 1) * step
            lo_y, hi_y = pjy * step, (pjy + 1) * step
        xa, xb = index_range(rec.scale_x, kxr, jxr, lo_x, hi_x)
        ya, yb = index_range(rec.scale_y, kyr, jyr, lo_y, hi_y)
        for jx in range(xa, xb):
            for jy in range(ya, yb):
                if (jx, jy) in rec.occupied:
                    if level < level_cap:
                        yield from walk(level + 1, jx, jy)
                else:
                    yield (rec.scale_x, rec.scale_y, jx, jy)

    yield from walk(0, 0, 0)


def product_oracle(ps, trees, level):
    """(d_product_integral, covered_area, pieces) with one Fraction per
    piece.  The pieces come from the tree walk above, which re-walks each
    tree from level 0 and intersects rectangles explicitly; the sign is the
    Haar value of every chain rectangle at a point inside the piece's
    lower-left quadrant."""
    count = len(ps)
    d_product = covered = Fraction(0)
    pieces = 0

    def rec(depth, cur, chain):
        nonlocal d_product, covered, pieces
        if depth == len(trees):
            kx, ky, jx, jy = cur
            qx = Fraction(4 * jx + 1, 1 << (kx + 2))
            qy = Fraction(4 * jy + 1, 1 << (ky + 2))
            sign = 1
            for r in chain:
                sign *= haar_sign_oracle(r, qx, qy)
            area = Fraction(1, 1 << (kx + ky))
            d_product += sign * -Fraction(count, 16) * area * area
            covered += area
            pieces += 1
            return
        for r in _empties_within(trees[depth], cur, level):
            nxt = _rect_intersection(cur, r)
            if nxt is not None:
                rec(depth + 1, nxt, chain + [r])

    rec(0, (0, 0, 0, 0), [])
    return d_product, covered, pieces


ODD_PRIMES = (3, 5, 7, 11, 13, 101, 65_537, 2_147_483_647)
TWIN_GAP = Fraction(1, 1 << 1000)

coordinates = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1))),
    st.integers(0, 1 << 53).map(lambda a: Fraction(a, 1 << 53)),
    st.integers(0, 3 ** 20).map(lambda a: Fraction(a, 3 ** 20)),
    st.builds(lambda p, a: Fraction(a % (p + 1), p), st.sampled_from(ODD_PRIMES),
              st.integers(0, 1 << 40)),
    st.integers(0, 8).map(lambda a: Fraction(a, 8)),
)
points = st.builds(Point, coordinates, coordinates)


def _apart(c: Fraction, gap: Fraction) -> Fraction:
    """A coordinate `gap` away from c inside [0, 1)."""
    return c + gap if c + gap < 1 else c - gap


@st.composite
def adversarial_sets(draw, max_distinct=5):
    """Mixed denominators, 0/1 coordinates, duplicates, N = 1, optional
    near-twins 2^-g apart (g in 5..200), which share a cluster until a
    middle level and then split next to one-point clusters and exact
    copies, and optional twins 2^-1000 apart that keep a tree unstable up
    to HARD_LEVEL_CAP."""
    pts = draw(st.lists(points, min_size=1, max_size=max_distinct))
    pts += draw(st.lists(st.sampled_from(pts), max_size=2))
    inside = st.integers(0, (1 << 53) - 1).map(lambda a: Fraction(a, 1 << 53))
    for gap in (Fraction(1, 1 << draw(st.integers(5, 200))), TWIN_GAP):
        if draw(st.booleans()):
            x, y = draw(inside), draw(inside)
            pts += [Point(x, y), Point(_apart(x, gap), _apart(y, gap))]
    return PointSet(tuple(draw(st.permutations(pts))))


def assert_tree_matches_oracle(ps, tree):
    """Every level's clusters, in order, are those of Fraction bucketing
    per parent cluster, and l* is the first level of one-point clusters."""
    parents = [tuple(range(len(ps)))]
    stable_at = None
    for rec in tree.levels:
        want = {}
        for group in parents:
            want.update(bucket_oracle(ps.points, group, rec.scale_x, rec.scale_y))
        assert list(rec.occupied.items()) == [(k, tuple(v)) for k, v in want.items()]
        assert len(rec.clusters) == len(want)
        if stable_at is None and all(
            len({ps.points[t] for t in group}) == 1 for group in rec.occupied.values()
        ):
            stable_at = rec.level
        parents = list(rec.occupied.values())
    assert tree.stabilization_level == stable_at


@settings(max_examples=60, deadline=None)
@given(adversarial_sets(), st.integers(0, 300), st.integers(0, 300))
@example(PointSet((Point(Fraction(1, 3), Fraction(1, 3)),
                   Point(Fraction(1, 3) + TWIN_GAP, Fraction(1, 3) + TWIN_GAP))), 0, 0)
@example(PointSet((Point(Fraction(1), Fraction(1, 2)),)), 0, 0)
@example(PointSet((Point(Fraction(1, 3), Fraction(1, 5)),
                   Point(Fraction(1, 3) + Fraction(1, 1 << 40), Fraction(1, 5)),
                   Point(Fraction(3, 4), Fraction(3, 4)), Point(Fraction(3, 4), Fraction(3, 4)),
                   Point(Fraction(1, 8), Fraction(7, 8)))), 0, 0)
# the root pair shares its level-0 cell, so it must be bucketed, not split
@example(PointSet((Point(Fraction(1, 3), Fraction(1, 5)),
                   Point(Fraction(1, 3) + Fraction(1, 1 << 9), Fraction(1, 5)))), 0, 0)
# a duplicate pair never splits
@example(PointSet((Point(Fraction(2, 7), Fraction(3, 5)),) * 2), 0, 0)
# the far point leaves first, and the pair it leaves splits later
@example(PointSet((Point(Fraction(1, 3), Fraction(1, 3)),
                   Point(Fraction(1, 3) + Fraction(1, 1 << 30), Fraction(1, 3)),
                   Point(Fraction(1, 3) + Fraction(1, 1 << 8), Fraction(1, 3)))), 0, 0)
# a pair 2^-64 apart, which splits at a deep level
@example(PointSet((Point(Fraction(1, 3), Fraction(1, 5)),
                   Point(Fraction(1, 3) + Fraction(1, 1 << 64),
                         Fraction(1, 5) + Fraction(1, 1 << 64)))), 0, 0)
def test_bucket_and_tree_match_fraction_floor(ps, kx, ky):
    # one shift of the fixed-point integers gives the cell at any scale up
    # to S, and 2^k exactly on x = 1 or y = 1
    scale, xs, ys = _tree_integers(ps)[:3]
    n = n_from_pointcount(len(ps))
    assert scale == (n + 1) * (HARD_LEVEL_CAP + 1)
    kx, ky = kx % (scale + 1), ky % (scale + 1)
    for p, fx, fy in zip(ps.points, xs, ys):
        assert fx >> (scale - kx) == math.floor(p.x * (1 << kx))
        assert fy >> (scale - ky) == math.floor(p.y * (1 << ky))
    twins = any(Point(p.x + TWIN_GAP, p.y + TWIN_GAP) in ps.points for p in ps)
    for direction in {0, n // 2, n}:
        tree = assert_depths_match_oracle(ps, direction)
        if twins:
            assert tree.deepest_level == HARD_LEVEL_CAP and not tree.stabilized
            if direction in (0, n):
                # the finest scale along x (direction n) or y (direction 0)
                # is S - 1, so its Haar halves are still told apart by S bits
                deepest = tree.levels[-1]
                assert max(deepest.scale_x, deepest.scale_y) == deepest.fixed_bits - 1


def assert_depths_match_oracle(ps, direction):
    """The auto tree matches the oracle, and so do trees built at explicit
    depths one level short of l* (or half the cap when the tree never
    stabilizes) and one level past the auto depth.  Returns the auto tree."""
    tree = build_tree(ps, direction)
    assert_tree_matches_oracle(ps, tree)
    l_star = tree.stabilization_level
    if l_star is None:
        depths = {HARD_LEVEL_CAP // 2}
    else:
        depths = {max(l_star - 1, 0), min(l_star + EXTRA_LEVELS + 1, HARD_LEVEL_CAP)}
    for max_level in depths:
        capped = build_tree(ps, direction, max_level=max_level)
        assert capped.deepest_level == max_level
        assert_tree_matches_oracle(ps, capped)
    return tree


THIRD = Fraction(1, 3)


def _pair(axis, gap, base=Fraction(1, 4), other=THIRD):
    """Two points equal along one axis and 2^-gap apart along the other;
    on that axis they share every cell of scale < gap and no cell of
    scale >= gap (base is a multiple of 2^-2)."""
    far = base + Fraction(1, 1 << gap)
    if axis == "x":
        return [Point(base, other), Point(far, other)]
    return [Point(other, base), Point(other, far)]


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("gap", [18, 19, 20])
def test_pair_splits_at_the_first_level_whose_scale_reaches_its_gap(axis, gap):
    # n = 2, so each level adds 3 to both scales: across the three
    # directions and three gaps the gap falls exactly on a level's scale
    # and one or two bits short of it
    ps = PointSet(tuple(_pair(axis, gap)))
    for direction in range(3):
        tree = assert_depths_match_oracle(ps, direction)
        first = direction if axis == "x" else 2 - direction
        split = -(-(gap - first) // 3)  # first level whose scale is >= gap
        assert [len(rec.occupied) for rec in tree.levels] == (
            [1] * split + [2] * (EXTRA_LEVELS + 1)
        )
        assert tree.stabilization_level == split


SPLIT_SETS = {
    # a three-point cluster: one point leaves at about scale 12, the other
    # two part at about scale 40
    "two_stages": (Point(THIRD, THIRD),
                   Point(THIRD + Fraction(1, 1 << 12), THIRD + Fraction(1, 1 << 12)),
                   Point(THIRD + Fraction(1, 1 << 40), THIRD)),
    # pair A equal in x and 2^-21 apart in y, pair B the reverse: along
    # direction i pair A splits at the first level with n - i + (n+1)l >= 21
    # and pair B at the first with i + (n+1)l >= 21, so the order of the
    # two splits flips between directions 0 and n; along direction 3 both
    # pairs share one level-0 cell
    "x_and_y_gaps": (*_pair("y", 21, base=Fraction(1, 2)), *_pair("x", 21)),
    # the same with a copy of a pair-B point (n = 4) and a point on x = 1
    "with_copy_and_edge": (*_pair("y", 21, base=Fraction(1, 2)), *_pair("x", 21),
                           Point(Fraction(1, 4), THIRD), Point(Fraction(1), THIRD)),
}


def _first_level_apart(tree, a, b):
    return next(rec.level for rec in tree.levels
                if not any({a, b} <= set(m) for m in rec.occupied.values()))


@pytest.mark.parametrize("name", SPLIT_SETS)
def test_clusters_split_where_the_oracle_splits_them(name):
    ps = PointSet(SPLIT_SETS[name])
    n = n_from_pointcount(len(ps))
    trees = [assert_depths_match_oracle(ps, i) for i in range(n + 1)]
    if name == "two_stages":
        sizes = [sorted(map(len, rec.occupied.values())) for rec in trees[0].levels]
        assert sizes[0] == [3] and [1, 2] in sizes and sizes[-1] == [1, 1, 1]
        return
    step = n + 1
    for tree in trees:
        i = tree.direction
        want = (-(-(21 - (n - i)) // step), -(-(21 - i) // step))
        assert (_first_level_apart(tree, 0, 1), _first_level_apart(tree, 2, 3)) == want
    assert _first_level_apart(trees[0], 0, 1) < _first_level_apart(trees[0], 2, 3)
    assert _first_level_apart(trees[n], 0, 1) > _first_level_apart(trees[n], 2, 3)


def _cells_built(tree):
    return [rec.level for rec in tree.levels if "occupied" in rec.__dict__]


def test_levels_without_a_split_share_their_parents_clusters():
    # every point has its own level-0 cell, so no later level splits
    ps = van_der_corput(10)
    tree = build_tree(ps, 0, max_level=HARD_LEVEL_CAP)
    assert tree.stabilization_level == 0 and tree.deepest_level == HARD_LEVEL_CAP
    assert all(rec.clusters is tree.levels[0].clusters for rec in tree.levels[1:])
    assert _cells_built(tree) == []
    assert [rec.empty_count for rec in tree.levels[1:]] == (
        [((1 << 24) - 1) * len(ps)] * HARD_LEVEL_CAP)
    # a dict is built on first read, for that level only, and kept
    deep = tree.levels[40]
    cells = deep.occupied
    assert _cells_built(tree) == [40] and deep.occupied is cells
    assert list(cells.items()) == [
        (k, tuple(v)) for k, v in bucket_oracle(ps.points, range(len(ps)),
                                                deep.scale_x, deep.scale_y).items()]


def test_counting_routes_build_no_cell_dict():
    # n = 3: the pair splits at level 5 along direction 0, so the tree holds
    # levels with clusters carried whole before and after its split
    ps = PointSet((*_pair("x", 20), Point(Fraction(3, 4), Fraction(1, 5))))
    n = n_from_pointcount(len(ps))
    trees = build_trees(ps)
    assert trees[0].stabilization_level == 5
    cert = certificate(ps, trees=trees)
    summaries = [tree.summary() for tree in trees]
    assert all(_check_level_counts(tree).passed for tree in trees)
    assert [_cells_built(tree) for tree in trees] == [[]] * (n + 1)
    assert cert.inner_product_sum == sum(inner_product(t).value for t in trees)
    assert [s["inner_product"] for s in summaries] == [
        str(inner_product(t).value) for t in trees]
    assert [[lv["nonempty"] for lv in s["levels"]] for s in summaries] == [
        [len(rec.occupied) for rec in t.levels] for t in trees]


class _Unreadable:
    """Stands in for a point whose caches are filled: reading it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"a point's .{name} was read after caching")

    def __getitem__(self, index):
        raise AssertionError(f"a point's [{index}] was read after caching")


def test_tree_layer_reads_only_the_cached_integers():
    # a duplicate, a pair that splits at a middle level, a non-dyadic point
    # and points on x = 1 and y = 1 (n = 4)
    copy = Point(Fraction(3, 4), Fraction(1, 5))
    pts = (*_pair("x", 20), copy, copy,
           Point(Fraction(1), THIRD), Point(Fraction(2, 7), Fraction(1)))
    ps, twin = PointSet(pts), PointSet(pts)
    # fill the caches that build_tree and the product checks' linf_norm
    # read, then make every coordinate unreadable
    _tree_integers(ps), ps.grid
    object.__setattr__(ps, "points", tuple(_Unreadable() for _ in pts))
    trees = build_trees(ps)
    want = build_trees(twin)
    assert [[rec.clusters for rec in t.levels] for t in trees] == [
        [rec.clusters for rec in t.levels] for t in want]
    assert [t.summary() for t in trees] == [t.summary() for t in want]
    suite = lemma_suite(ps)
    assert suite.passed and suite.to_json() == lemma_suite(twin).to_json()
    assert sum(c.name == "product_discrepancy_bound" for c in suite.checks) == 2
    cert, cert_twin = certificate(ps), certificate(twin)
    assert cert == cert_twin and cert.to_json() == cert_twin.to_json()
    queries = [(p.x, p.y) for p in pts if p.x < 1 and p.y < 1]
    queries += [(THIRD, Fraction(1, 5)), (Fraction(1, 4) + Fraction(1, 1 << 21), THIRD)]
    for tree, other in zip(trees, want):
        for x, y in queries:
            assert eval_oracle(tree, x, y) == eval_oracle(other, x, y)


def test_lone_clusters_are_shared_across_trees_and_builds():
    # a pair that splits at a middle level, a duplicate and a lone point
    copy = Point(Fraction(3, 4), Fraction(1, 5))
    ps = PointSet((*_pair("x", 20), copy, copy, Point(Fraction(1, 7), Fraction(5, 6))))
    lone = {}
    for tree in build_trees(ps) + build_trees(ps):
        for rec in tree.levels:
            for cluster in rec.clusters:
                if len(cluster[0]) == 1:
                    assert lone.setdefault(cluster[0], cluster) is cluster
                    assert cluster[3] == HARD_LEVEL_CAP
    assert set(lone) == {(0,), (1,), (4,)}


RECORD_SETS = (
    # two copies of (1/3, 1/2), and (0, 1) on y = 1
    PointSet(((THIRD, Fraction(1, 2)), (0, 1), (THIRD, Fraction(2, 4)), (0, 0))),
    # x = 1 reads as 2^S
    PointSet(((THIRD, Fraction(1, 2)), (1, 0))),
    # duplicates, 1 - 2^-1000 inside, and every point on x = 1 or y = 1 out
    PointSet(((THIRD, THIRD), (1, THIRD), (THIRD, 1), (1, 1), (THIRD, THIRD),
              (1 - TWIN_GAP, 1 - TWIN_GAP), (1 - TWIN_GAP, 1), (0, 0), (1, 0),
              (0, 1 - TWIN_GAP))),
    # twins 2^-1000 apart share their integers but are two points
    PointSet(((THIRD, Fraction(1, 5)), (THIRD + TWIN_GAP, Fraction(1, 5) + TWIN_GAP))),
    PointSet(((1, 1),)),
)


@pytest.mark.parametrize("ps", RECORD_SETS)
def test_tree_integers_match_fraction_oracle(ps):
    # S is (n+1)(HARD_LEVEL_CAP+1) with 2^(n-1) < 2N <= 2^n, X = floor(x 2^S),
    # the interior is the points with x < 1 and y < 1, and the distinct
    # count is taken on exact points
    n = next(n for n in range(64) if 2 * len(ps) <= 1 << n)
    scale = (n + 1) * (HARD_LEVEL_CAP + 1)
    interior = tuple(t for t, p in enumerate(ps) if p.x < 1 and p.y < 1)
    record = _tree_integers(ps)
    assert record.scale == scale
    assert record.xs == tuple(math.floor(p.x * (1 << scale)) for p in ps)
    assert record.ys == tuple(math.floor(p.y * (1 << scale)) for p in ps)
    assert record.interior == interior
    assert record.distinct == len({ps[t] for t in interior})
    assert record.lone == tuple(((t,), x, y, HARD_LEVEL_CAP)
                                for t, (x, y) in enumerate(zip(record.xs, record.ys)))
    assert _tree_integers(ps) is record


def test_tree_integers_are_built_once_per_set(monkeypatch):
    made = []
    record_type = auxiliary._TreeIntegers
    monkeypatch.setattr(auxiliary, "_TreeIntegers",
                        lambda *fields: made.append(fields) or record_type(*fields))
    ps = PointSet((*_pair("y", 9), Point(Fraction(1), THIRD),
                   Point(Fraction(2, 7), Fraction(3, 7))))
    trees = build_trees(ps)
    lemma_suite(ps)
    lemma_suite(ps, trees=trees)
    certificate(ps)
    certificate(ps, trees=trees)
    assert len(made) == 1
    record = _tree_integers(ps)
    assert all(rec.fixed_bits == record.scale for tree in trees for rec in tree.levels)
    # two builds of one set and direction are equal, and equal to a build
    # on a fresh copy of the set
    fresh = PointSet(ps.points, ps.label)
    assert fresh == ps and hash(fresh) == hash(ps)
    for tree in trees:
        again = build_tree(ps, tree.direction)
        assert again == tree and again.summary() == tree.summary()
        assert build_tree(fresh, tree.direction) == tree
    assert len(made) == 2 and _tree_integers(ps) is record


def test_cluster_partition_fails_a_cluster_carried_past_its_split():
    # the pair splits at level 2 along direction 0; carry it whole one level
    # further, keeping the counting identities intact
    ps = PointSet(tuple(_pair("x", 6)))
    tree = build_tree(ps, 0)
    assert [len(rec.occupied) for rec in tree.levels] == [1, 1, 2, 2, 2]
    assert _check_cluster_partition(tree).passed
    rec = tree.levels[2]
    first_cell = next(iter(rec.occupied))
    # level 2 keeps level 1's cluster sequence: the pair, keyed by point 0
    carried = tree.levels[1].clusters
    tree = _with_level(tree, 2, clusters=carried, empty_count=rec.empty_count + 1)
    assert tree.levels[2].occupied == {first_cell: (0, 1)}
    tree = _with_level(tree, 3, empty_count=tree.levels[3].empty_count - (1 << 6))
    assert _check_level_counts(tree).passed
    check = _check_cluster_partition(tree)
    assert not check.passed and "point 1 outside its cell" in check.witness
    assert not lemma_suite(ps, trees=[tree, *(build_tree(ps, i) for i in (1, 2))]).passed


def sum_empty_area_sq_oracle(tree):
    """Fraction sums over the recorded areas, level by level, plus the
    geometric tail or the truncation bound."""
    n = tree.n
    total = Fraction(0)
    for rec in tree.levels:
        total += rec.empty_count * rec.rect_area ** 2
    deepest = tree.levels[-1]
    c = len(deepest.occupied)
    next_area = deepest.rect_area / (1 << (2 * (n + 1)))
    if tree.stabilized:
        ratio = Fraction(1, 1 << (4 * (n + 1)))
        children = 1 << (2 * (n + 1))
        tail = (children - 1) * c * next_area ** 2 / (1 - ratio)
        return total + tail, Fraction(0)
    return total, next_area * c * deepest.rect_area


@settings(max_examples=40, deadline=None)
@given(adversarial_sets(), st.integers(0, 5),
       st.none() | st.integers(0, 6) | st.just(HARD_LEVEL_CAP))
@example(PointSet((Point(Fraction(1, 3), Fraction(1, 3)),
                   Point(Fraction(1, 3) + TWIN_GAP, Fraction(1, 3) + TWIN_GAP))), 1, None)
@example(van_der_corput(2), 2, HARD_LEVEL_CAP)
def test_sum_empty_area_sq_matches_fraction_loop(ps, direction, depth):
    n = n_from_pointcount(len(ps))
    tree = build_tree(ps, direction % (n + 1), max_level=depth)
    assert sum_empty_area_sq(tree) == sum_empty_area_sq_oracle(tree)


@settings(max_examples=25, deadline=None)
@given(adversarial_sets(max_distinct=3), st.data())
def test_product_check_matches_fraction_pieces(ps, data):
    n = n_from_pointcount(len(ps))
    level = data.draw(st.integers(0, 2 if n <= 3 else 1))
    indices = data.draw(st.sampled_from([(0, n), (0, 1, n)] if n >= 2 else [(0, n)]))
    trees = [build_tree(ps, i, max_level=level) for i in indices]
    report = product_bound_check(ps, indices, trees, level)
    d_product, covered, pieces = product_oracle(ps, trees, level)
    assert report.d_product_integral == d_product
    assert report.covered_area == covered
    assert 0 <= 1 - report.covered_area <= report.mass_bound
    assert report.piece_count == pieces
