"""Recursive construction, exact inner products, and the verification suite."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from discrep import auxiliary
from discrep.auxiliary import (
    EXTRA_LEVELS,
    HARD_LEVEL_CAP,
    AuxFamilyTree,
    LevelRecord,
    _shifts,
    _check_cluster_partition,
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
from discrep.cli import _tree_payload
from discrep.errors import ResourceLimitError
from discrep.pointsets import PointSet, random_uniform, van_der_corput
from discrep.testfn import certificate
from oracles import (cluster_partition_oracle, empty_counts_oracle, eval_discrepancy,
                     fraction_points, tree_integers_oracle)

ORIGIN = PointSet(((Fraction(0), Fraction(0)),), label="origin")


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
    assert list(lev0.occupied) == [(0, 0)]
    assert lev0.rect_area == Fraction(1, 2)
    # level 1: 2^(2(n+1)) = 16 children of the one occupied rectangle
    lev1 = tree.levels[1]
    assert len(lev1.occupied) == 1
    assert tree.empty_counts() == empty_counts_oracle(tree) == [1, 15, 15]
    assert tree.stabilization_level == 0
    assert tree.stabilized


def test_occupied_never_exceeds_point_count():
    for ps in (van_der_corput(2), van_der_corput(3), random_uniform(11, seed=1)):
        n = n_from_pointcount(len(ps))
        for i in range(n + 1):
            tree = build_tree(ps, i)
            assert all(len(rec.occupied) <= len(ps) for rec in tree.levels)


def test_boundary_points_fall_outside_all_rectangles():
    ps = PointSet(((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(0))))
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
            empty * rec.rect_area ** 2 for rec, empty in zip(deep.levels, empty_counts_oracle(deep))
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
        ((Fraction(0), Fraction(0)), (Fraction(1, 1024), Fraction(1, 1024)))
    )
    full = build_tree(ps, 1)
    assert full.stabilized and full.stabilization_level and full.stabilization_level > 0
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
    PointSet(((F(1, 3), F(1, 5)), (F(1, 3), F(1, 5)),
              (F(3, 4), F(1, 2)), (F(3, 4), F(1, 2))), label="duplicates"),
    PointSet(((F(0), F(1, 3)), (F(1), F(1, 2)),
              (F(1, 5), F(0)), (F(2, 7), F(1))), label="boundary"),
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
        x, y = fraction_points(ps)[draw(st.sampled_from(interior))]
        gap = st.one_of(st.just(F(0)), st.integers(1, 200).map(lambda g: F(1, 1 << g)))
        return tree, _apart(x, draw(gap)), _apart(y, draw(gap))
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
                (b - max(a, px)) * (d - max(c, py))
                for px, py in fraction_points(ps)
                if px < b and py < d
            ) - Fraction(n, 4) * (b * b - a * a) * (d * d - c * c)
            tot_d += sign * cell_d
    return tot_prod, tot_d, covered


def test_product_check_matches_grid_oracle():
    trees = [build_tree(ORIGIN, 0, max_level=2), build_tree(ORIGIN, 1, max_level=2)]
    report = product_bound_check(ORIGIN, (0, 1), trees=trees)
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
    trees = list(build_trees(ps, max_level=2))
    for indices in ((0, 2), (0, 3), (1, 2), (0, 1, 3)):
        report = product_bound_check(ps, indices, [trees[i] for i in indices])
        assert 0 <= 1 - report.covered_area <= report.mass_bound
        assert report.d_product_ok
        assert report.d_product_bound == Fraction(
            (1 << indices[0]) * len(ps), (1 << indices[-1]) * 16 * (1 << n)
        )


def test_product_check_validation(monkeypatch):
    ps = van_der_corput(2)
    trees = list(build_trees(ps, max_level=2))
    with pytest.raises(ValueError, match="at least two"):
        product_bound_check(ps, (0,), trees[:1])
    with pytest.raises(ValueError, match="strictly increasing"):
        product_bound_check(ps, (3, 0), [trees[3], trees[0]])
    with pytest.raises(ValueError, match="requested indices"):
        product_bound_check(ps, (0, 3), [trees[0], trees[2]])
    with pytest.raises(ValueError, match="built to level 2"):
        product_bound_check(ps, (0, 3), list(build_trees(ps, max_level=1))[::3])
    other = [build_tree(random_uniform(4, seed=1), i, max_level=2) for i in (0, 3)]
    with pytest.raises(ValueError, match="another point set"):
        product_bound_check(ps, (0, 3), other)
    monkeypatch.setattr("discrep.auxiliary.PIECE_CAP", 10)
    with pytest.raises(ResourceLimitError):
        product_bound_check(ps, (0, 3), [trees[0], trees[3]])


def test_side_lengths_never_tie():
    ps = van_der_corput(2)
    trees = list(build_trees(ps, max_level=3))
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
    products = [c for c in lemma_suite(ps, trees=build_trees(ps)).checks
                if c.name.startswith("product")]
    assert len(products) == 4 and all(c.passed for c in products)


def test_build_trees_is_one_tree_per_direction_in_order():
    ps = van_der_corput(3)  # n = 4
    for max_level in (None, 0, 3):
        trees = list(build_trees(ps, max_level))
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
    for name in ("levels", "uncovered_mass", "n", "stabilization_level"):
        with pytest.raises(AttributeError):
            setattr(tree, name, None)
    assert _with_level(tree, 0) == tree and hash(_with_level(tree, 0)) == hash(tree)
    assert tree._replace(levels=tree.levels[:1]) != tree


def test_lemma_suite_flags_corrupted_tree():
    ps = van_der_corput(2)
    trees = list(build_trees(ps))
    # drop a level-0 cluster, which frees an empty cell
    trees[1] = _with_level(trees[1], 0, clusters=trees[1].levels[0].clusters[1:])
    report = lemma_suite(ps, trees=trees)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any("i=1" in c.witness for c in failing)


def test_lemma_suite_refuses_trees_of_another_set():
    ps, other = van_der_corput(4), random_uniform(16, 3)
    own = list(build_trees(ps))
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


def test_cluster_partition_fails_more_clusters_than_points():
    # two copies of the one cluster leave no empty cell: at most N occupied
    # cells follows from the partition into nonempty clusters, so the
    # partition check fails the copy
    trees = list(build_trees(ORIGIN))
    rec = trees[0].levels[0]
    trees[0] = _with_level(trees[0], 0, clusters=rec.clusters * 2)
    assert trees[0].empty_counts()[0] == 0
    witness = _failed_check(ORIGIN, trees, "cluster_partition")
    assert witness == "i=0 l=0: clusters do not partition the points"


def test_side_lengths_fails_a_wrong_area():
    # the area is read from the scales, so a scale one too fine halves it;
    # the per-tree scale identity, whose scales sum to n + 2(n+1) l, fails it
    trees = list(build_trees(ORIGIN))
    rec = trees[1].levels[1]
    assert rec.rect_area == Fraction(1, 1 << (rec.scale_x + rec.scale_y)) == Fraction(1, 32)
    trees[1] = _with_level(trees[1], 1, scale_x=rec.scale_x + 1)
    assert trees[1].levels[1].rect_area == Fraction(1, 64)
    assert _failed_check(ORIGIN, trees, "side_lengths_distinct") == \
        "i=1 l=1: scales (4, 2) != (3, 2)"


def test_lemma_suite_fails_a_repeated_cluster_below_n_cells():
    # 18 points, four of them twice: the deepest level of tree 2 repeats a
    # cluster, which gives up an empty cell and leaves 15 occupied cells,
    # fewer than N
    pts = fraction_points(random_uniform(14, 3))
    ps = PointSet(pts + pts[:4])
    trees = list(build_trees(ps))
    deepest = trees[2].deepest_level
    rec = trees[2].levels[deepest]
    empties = trees[2].empty_counts()
    trees[2] = _with_level(trees[2], deepest, clusters=rec.clusters + rec.clusters[:1])
    assert len(trees[2].levels[deepest].clusters) == 15 < len(ps)
    assert trees[2].empty_counts() == empties[:-1] + [empties[-1] - 1]
    witness = _failed_check(ps, trees, "cluster_partition")
    assert witness == f"i=2 l={deepest}: clusters do not partition the points"


def test_cluster_partition_fails_a_dropped_cluster():
    ps = van_der_corput(1)
    trees = list(build_trees(ps))
    rec = trees[0].levels[0]
    assert len(rec.clusters) == 2
    trees[0] = _with_level(trees[0], 0, clusters=rec.clusters[:1])
    witness = _failed_check(ps, trees, "cluster_partition")
    assert witness == "i=0 l=0: clusters do not partition the points"


def test_inner_product_bound_fails_missing_empty_rectangles():
    # copies of the one cluster fill every cell of each level (2 at level
    # 0, 16 per parent below it), so no empty rectangle is left
    trees = list(build_trees(ORIGIN))
    trees[1] = trees[1]._replace(levels=tuple(rec._replace(clusters=rec.clusters * (2 << 4 * level))
                                              for level, rec in enumerate(trees[1].levels)))
    assert trees[1].empty_counts() == [0, 0, 0] and not trees[1].stabilized
    witness = _failed_check(ORIGIN, trees, "inner_product_upper_bound")
    assert witness == "i=1: 0 > -1/64"


def test_side_lengths_fails_a_tie():
    # tree 1's level 0 takes tree 0's scales: the area, read from their
    # sum, stays right, and only the per-tree scale identity sees the tie
    trees = list(build_trees(ORIGIN))
    rec0, rec1 = trees[0].levels[0], trees[1].levels[0]
    assert ((rec0.scale_x, rec0.scale_y), (rec1.scale_x, rec1.scale_y)) == ((0, 1), (1, 0))
    trees[1] = _with_level(trees[1], 0, scale_x=0, scale_y=1)
    assert _failed_check(ORIGIN, trees, "side_lengths_distinct") == \
        "i=1 l=0: scales (0, 1) != (1, 0)"


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


def test_suite_passes_former_false_alarm_sets():
    # each set has one tree with uncovered mass 5.7e-6, where a sampled
    # check once saw 1 of 400 samples truncated and wrongly failed
    for seed in (12, 27, 56, 87, 88):
        report = lemma_suite(random_uniform(3, seed))
        assert report.passed and not report.skipped, report.checks
        # two checks per tree of n = 3, side lengths, two per product tuple
        assert len(report.checks) == 2 * 4 + 1 + 2 * 2


def test_max_level_outside_range_is_refused():
    with pytest.raises(ValueError, match="at least 0"):
        build_tree(ORIGIN, 0, max_level=-1)
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        build_tree(ORIGIN, 0, max_level=HARD_LEVEL_CAP + 1)
    assert build_tree(ORIGIN, 0, max_level=0).deepest_level == 0
    assert build_tree(ORIGIN, 0, max_level=HARD_LEVEL_CAP).deepest_level == HARD_LEVEL_CAP


def test_tree_summary_schema():
    tree = build_tree(ORIGIN, 0)
    summary = _tree_payload(tree)
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
        x, y = points[idx]
        jx = math.floor(x * (1 << kx))
        jy = math.floor(y * (1 << ky))
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
points = st.tuples(coordinates, coordinates)


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
            pts += [(x, y), (_apart(x, gap), _apart(y, gap))]
    return PointSet(tuple(draw(st.permutations(pts))))


def assert_tree_matches_oracle(ps, tree):
    """Every level's clusters, in order, are those of Fraction bucketing
    per parent cluster, l* is the first level of one-point clusters, and
    the tree is stabilized iff it has one."""
    parents = [tuple(range(len(ps)))]
    stable_at = None
    for level, rec in enumerate(tree.levels):
        want = {}
        for group in parents:
            want.update(bucket_oracle(fraction_points(ps), group, rec.scale_x, rec.scale_y))
        assert list(rec.occupied.items()) == [(k, tuple(v)) for k, v in want.items()]
        assert len(rec.clusters) == len(want)
        if stable_at is None and all(
            len({fraction_points(ps)[t] for t in group}) == 1 for group in rec.occupied.values()
        ):
            stable_at = level
        parents = list(rec.occupied.values())
    assert tree.stabilization_level == stable_at
    assert tree.stabilized == (stable_at is not None)


@settings(max_examples=60, deadline=None)
@given(adversarial_sets(), st.integers(0, 300), st.integers(0, 300))
@example(PointSet(((Fraction(1, 3), Fraction(1, 3)),
                   (Fraction(1, 3) + TWIN_GAP, Fraction(1, 3) + TWIN_GAP))), 0, 0)
@example(PointSet(((Fraction(1), Fraction(1, 2)),)), 0, 0)
@example(PointSet(((Fraction(1, 3), Fraction(1, 5)),
                   (Fraction(1, 3) + Fraction(1, 1 << 40), Fraction(1, 5)),
                   (Fraction(3, 4), Fraction(3, 4)), (Fraction(3, 4), Fraction(3, 4)),
                   (Fraction(1, 8), Fraction(7, 8)))), 0, 0)
# the root pair shares its level-0 cell, so it must be bucketed, not split
@example(PointSet(((Fraction(1, 3), Fraction(1, 5)),
                   (Fraction(1, 3) + Fraction(1, 1 << 9), Fraction(1, 5)))), 0, 0)
# a duplicate pair never splits
@example(PointSet(((Fraction(2, 7), Fraction(3, 5)),) * 2), 0, 0)
# the far point leaves first, and the pair it leaves splits later
@example(PointSet(((Fraction(1, 3), Fraction(1, 3)),
                   (Fraction(1, 3) + Fraction(1, 1 << 30), Fraction(1, 3)),
                   (Fraction(1, 3) + Fraction(1, 1 << 8), Fraction(1, 3)))), 0, 0)
# a pair 2^-64 apart, which splits at a deep level
@example(PointSet(((Fraction(1, 3), Fraction(1, 5)),
                   (Fraction(1, 3) + Fraction(1, 1 << 64),
                         Fraction(1, 5) + Fraction(1, 1 << 64)))), 0, 0)
# a pair equal along the dyadic x axis (width 2) and 2^-20 apart along y:
# equal members never split along x, at any scale past its width; and the
# transpose
@example(PointSet(((Fraction(1, 4), Fraction(1, 3)),
                   (Fraction(1, 4), Fraction(1, 3) + Fraction(1, 1 << 20)))), 0, 0)
@example(PointSet(((Fraction(1, 3), Fraction(1, 4)),
                   (Fraction(1, 3) + Fraction(1, 1 << 20), Fraction(1, 4)))), 0, 0)
# n = 2: a pair whose n-bit cells differ in their last bit along x, which
# level 0 of direction n parts, and the transpose, parted by direction 0
@example(PointSet(((Fraction(1, 8), Fraction(1, 3)),
                   (Fraction(3, 8), Fraction(1, 3)))), 0, 0)
@example(PointSet(((Fraction(1, 3), Fraction(1, 8)),
                   (Fraction(1, 3), Fraction(3, 8)))), 0, 0)
def test_bucket_and_tree_match_fraction_floor(ps, kx, ky):
    # an axis's width E is the least e <= S at which all its coordinates
    # are multiples of 2^-e, else S; a shift of its integers (right up to
    # E, left past it) gives the cell at any scale up to S, and 2^k
    # exactly on x = 1 or y = 1
    record = _tree_integers(ps)
    scale = record.scale
    n = n_from_pointcount(len(ps))
    pts = fraction_points(ps)
    assert scale == (n + 1) * (HARD_LEVEL_CAP + 1)
    axes = ((0, record.xs, record.width_x, kx), (1, record.ys, record.width_y, ky))
    for axis, ints, width, drawn in axes:
        assert width == next((e for e in range(scale + 1)
                              if all((p[axis] * (1 << e)).denominator == 1 for p in pts)), scale)
        for k in {drawn % (scale + 1), *(j for j in (width - 1, width + 1) if 0 <= j <= scale)}:
            r, l = _shifts(width, k)
            assert [v >> r << l for v in ints] == [math.floor(p[axis] * (1 << k)) for p in pts]
    twins = any((x + TWIN_GAP, y + TWIN_GAP) in pts for x, y in pts)
    for direction in {0, n // 2, n}:
        tree = assert_depths_match_oracle(ps, direction)
        if twins:
            assert tree.deepest_level == HARD_LEVEL_CAP and not tree.stabilized
            if direction in (0, n):
                # the finest scale along x (direction n) or y (direction 0)
                # is S - 1, so its Haar halves are still told apart by the
                # twins' S-bit integers
                deepest = tree.levels[-1]
                assert max(deepest.scale_x, deepest.scale_y) == scale - 1
                assert (deepest.width_x, deepest.width_y) == (scale, scale)


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
        return [(base, other), (far, other)]
    return [(other, base), (other, far)]


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
    "two_stages": ((THIRD, THIRD),
                   (THIRD + Fraction(1, 1 << 12), THIRD + Fraction(1, 1 << 12)),
                   (THIRD + Fraction(1, 1 << 40), THIRD)),
    # pair A equal in x and 2^-21 apart in y, pair B the reverse: along
    # direction i pair A splits at the first level with n - i + (n+1)l >= 21
    # and pair B at the first with i + (n+1)l >= 21, so the order of the
    # two splits flips between directions 0 and n; along direction 3 both
    # pairs share one level-0 cell
    "x_and_y_gaps": (*_pair("y", 21, base=Fraction(1, 2)), *_pair("x", 21)),
    # the same with a copy of a pair-B point (n = 4) and a point on x = 1
    "with_copy_and_edge": (*_pair("y", 21, base=Fraction(1, 2)), *_pair("x", 21),
                           (Fraction(1, 4), THIRD), (Fraction(1), THIRD)),
}


def _first_level_apart(tree, a, b):
    return next(level for level, rec in enumerate(tree.levels)
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


@pytest.fixture
def occupied_reads(monkeypatch):
    """Each record whose cell dict `LevelRecord.occupied` builds."""
    reads = []
    occupied = LevelRecord.occupied.fget

    def spy(rec):
        reads.append(rec)
        return occupied(rec)

    monkeypatch.setattr(LevelRecord, "occupied", property(spy))
    return reads


def test_levels_without_a_split_share_their_parents_clusters(occupied_reads):
    # every point has its own level-0 cell, so no later level splits
    ps = van_der_corput(10)
    tree = build_tree(ps, 0, max_level=HARD_LEVEL_CAP)
    assert tree.stabilization_level == 0 and tree.deepest_level == HARD_LEVEL_CAP
    assert all(rec.clusters is tree.levels[0].clusters for rec in tree.levels[1:])
    assert occupied_reads == []
    assert tree.empty_counts()[1:] == [((1 << 24) - 1) * len(ps)] * HARD_LEVEL_CAP
    # a dict is built when read, for that level only
    deep = tree.levels[40]
    cells = deep.occupied
    assert len(occupied_reads) == 1 and occupied_reads[0] is deep
    assert list(cells.items()) == [
        (k, tuple(v)) for k, v in bucket_oracle(fraction_points(ps), range(len(ps)),
                                                deep.scale_x, deep.scale_y).items()]


def test_counting_routes_build_no_cell_dict(occupied_reads):
    # n = 3: the pair splits at level 5 along direction 0, so the tree holds
    # levels with clusters carried whole before and after its split
    ps = PointSet((*_pair("x", 20), (Fraction(3, 4), Fraction(1, 5))))
    trees = list(build_trees(ps))
    assert trees[0].stabilization_level == 5
    cert = certificate(ps, trees=trees)
    ips = [inner_product(t) for t in trees]
    summaries = [_tree_payload(t) for t in trees]
    counts = [[len(rec.clusters) for rec in t.levels] for t in trees]
    empties = [t.empty_counts() for t in trees]
    assert occupied_reads == []
    assert empties == [[level["empty"] for level in s["levels"]] for s in summaries]
    assert empties == [empty_counts_oracle(t) for t in trees]
    assert cert.inner_product_sum == sum(ip.value for ip in ips)
    assert counts == [[len(rec.occupied) for rec in t.levels] for t in trees]
    assert counts == [[level["nonempty"] for level in s["levels"]] for s in summaries]


def test_lemma_suite_builds_no_cell_dict(occupied_reads):
    # n = 6 > PRODUCT_MAX_N, so no product check looks a cell up; a pair
    # that splits at a middle level and a duplicate give clusters of two
    ps = PointSet((*_pair("x", 20), *fraction_points(van_der_corput(4)),
                   (Fraction(1, 2), Fraction(1, 2))))
    assert n_from_pointcount(len(ps)) == 6 > auxiliary.PRODUCT_MAX_N
    report = lemma_suite(ps)
    assert report.passed and report.skipped == 1
    assert occupied_reads == []


class _Unreadable:
    """Stands in for a numerator whose caches are filled: reading it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"a point's .{name} was read after caching")

    def __getitem__(self, index):
        raise AssertionError(f"a point's [{index}] was read after caching")


def test_tree_layer_reads_only_the_cached_integers():
    # a duplicate, a pair that splits at a middle level, a non-dyadic point
    # and points on x = 1 and y = 1 (n = 4)
    copy = (Fraction(3, 4), Fraction(1, 5))
    pts = (*_pair("x", 20), copy, copy,
           (Fraction(1), THIRD), (Fraction(2, 7), Fraction(1)))
    ps, twin = PointSet(pts), PointSet(pts)
    # fill the caches that build_tree and the product checks' linf_norm
    # read, then make every numerator unreadable; the denominators stay
    _tree_integers(ps), ps.grid
    ps.__dict__["axes"] = tuple((den, tuple(_Unreadable() for _ in nums)) for den, nums in ps.axes)
    trees = list(build_trees(ps))
    want = list(build_trees(twin))
    assert [[rec.clusters for rec in t.levels] for t in trees] == [
        [rec.clusters for rec in t.levels] for t in want]
    # trees of ps and twin differ only in their pointset, whose points are unreadable
    assert [(t.direction, t.n, t.levels, t.stabilization_level) for t in trees] == [
        (t.direction, t.n, t.levels, t.stabilization_level) for t in want]
    assert [inner_product(t) for t in trees] == [inner_product(t) for t in want]
    suite = lemma_suite(ps)
    assert suite.passed and suite == lemma_suite(twin)
    assert sum(c.name == "product_discrepancy_bound" for c in suite.checks) == 2
    assert certificate(ps) == certificate(twin)
    queries = [(x, y) for x, y in pts if x < 1 and y < 1]
    queries += [(THIRD, Fraction(1, 5)), (Fraction(1, 4) + Fraction(1, 1 << 21), THIRD)]
    for tree, other in zip(trees, want):
        for x, y in queries:
            assert eval_oracle(tree, x, y) == eval_oracle(other, x, y)


def test_lone_clusters_are_shared_across_trees_and_builds():
    # a pair that splits at a middle level, a duplicate and a lone point
    copy = (Fraction(3, 4), Fraction(1, 5))
    ps = PointSet((*_pair("x", 20), copy, copy, (Fraction(1, 7), Fraction(5, 6))))
    lone = {}
    for tree in [*build_trees(ps), *build_trees(ps)]:
        for rec in tree.levels:
            for cluster in rec.clusters:
                if len(cluster[0]) == 1:
                    assert lone.setdefault(cluster[0], cluster) is cluster
                    assert cluster[3] == HARD_LEVEL_CAP
    assert set(lone) == {(0,), (1,), (4,)}


# Each set with its widths along x and y, None standing for S.
RECORD_SETS = (
    # two copies of (1/3, 1/2), and (0, 1) on y = 1
    (PointSet(((THIRD, Fraction(1, 2)), (0, 1), (THIRD, Fraction(2, 4)), (0, 0))), None, 1),
    # x = 1 reads as 2^S, y = 0 and 1/2 at width 1
    (PointSet(((THIRD, Fraction(1, 2)), (1, 0))), None, 1),
    # duplicates, 1 - 2^-1000 inside, and every point on x = 1 or y = 1 out
    (PointSet(((THIRD, THIRD), (1, THIRD), (THIRD, 1), (1, 1), (THIRD, THIRD),
               (1 - TWIN_GAP, 1 - TWIN_GAP), (1 - TWIN_GAP, 1), (0, 0), (1, 0),
               (0, 1 - TWIN_GAP))), None, None),
    # twins 2^-1000 apart share their integers but are two points
    (PointSet(((THIRD, Fraction(1, 5)), (THIRD + TWIN_GAP, Fraction(1, 5) + TWIN_GAP))),
     None, None),
    # (1, 1) reads as (2^0, 2^0)
    (PointSet(((1, 1),)), 0, 0),
    # dyadic twins 2^-1000 apart: finer than 2^-S, so the width stops at S
    (PointSet(((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 4) + TWIN_GAP, Fraction(1, 2)))),
     None, 1),
    # 53-bit and m-bit coordinates keep 53 and m bits; a van der Corput
    # set's n is m + 1, past its width, so its n-bit cells are shifted left
    (random_uniform(64, 1), 53, 53),
    (van_der_corput(6), 6, 6),
    (van_der_corput(1), 1, 1),
)


@pytest.mark.parametrize("ps, width_x, width_y", RECORD_SETS,
                         ids=[f"ps{i}" for i in range(len(RECORD_SETS))])
def test_tree_integers_match_fraction_oracle(ps, width_x, width_y):
    # S is (n+1)(HARD_LEVEL_CAP+1) with 2^(n-1) < 2N <= 2^n, each axis is
    # read as X = floor(x 2^E) at its width E, the interior is the points
    # with x < 1 and y < 1, and the distinct count is taken on exact points
    n = next(n for n in range(64) if 2 * len(ps) <= 1 << n)
    scale = (n + 1) * (HARD_LEVEL_CAP + 1)
    pts = fraction_points(ps)
    interior = tuple(t for t, (x, y) in enumerate(pts) if x < 1 and y < 1)
    record = _tree_integers(ps)
    assert record == tree_integers_oracle(pts)
    assert record.scale == scale
    widths = (scale if width_x is None else width_x, scale if width_y is None else width_y)
    assert (record.width_x, record.width_y) == widths
    assert record.xs == tuple(math.floor(x * (1 << widths[0])) for x, _ in pts)
    assert record.ys == tuple(math.floor(y * (1 << widths[1])) for _, y in pts)
    # each point's cells at scale n, which level 0 keys on: 2^n on x = 1
    assert record.cx == tuple(math.floor(x * 2**n) for x, _ in pts)
    assert record.cy == tuple(math.floor(y * 2**n) for _, y in pts)
    # the memory: an axis holds integers of at most its width's bits, one
    # more for a coordinate 1, so a dyadic one no more than its exponent's;
    # an axis over D = 2^E below 2^S holds the set's own numerators
    for (den, nums), ints, width in zip(ps.axes, (record.xs, record.ys), widths):
        assert all(v.bit_length() <= width + (a == den) for v, a in zip(ints, nums))
        assert (ints is nums) == (den == 1 << width)
    assert record.interior == interior
    assert record.distinct == len({pts[t] for t in interior})
    assert record.lone == tuple(((t,), x, y, HARD_LEVEL_CAP)
                                for t, (x, y) in enumerate(zip(record.xs, record.ys)))
    assert _tree_integers(ps) is record


def test_tree_integers_are_built_once_per_set(monkeypatch):
    made = []
    record_type = auxiliary._TreeIntegers
    monkeypatch.setattr(auxiliary, "_TreeIntegers",
                        lambda *fields: made.append(fields) or record_type(*fields))
    ps = PointSet((*_pair("y", 9), (Fraction(1), THIRD),
                   (Fraction(2, 7), Fraction(3, 7))))
    trees = list(build_trees(ps))
    lemma_suite(ps)
    lemma_suite(ps, trees=trees)
    certificate(ps)
    certificate(ps, trees=trees)
    assert len(made) == 1
    record = _tree_integers(ps)
    assert all((rec.width_x, rec.width_y) == (record.width_x, record.width_y)
               for tree in trees for rec in tree.levels)
    # two builds of one set and direction are equal, and equal to a build
    # on a fresh copy of the set
    fresh = PointSet(fraction_points(ps), ps.label)
    assert fresh == ps and hash(fresh) == hash(ps)
    for tree in trees:
        again = build_tree(ps, tree.direction)
        assert again == tree
        assert build_tree(fresh, tree.direction) == tree
    assert len(made) == 2 and _tree_integers(ps) is record


def test_cluster_partition_fails_a_cluster_carried_past_its_split():
    # the pair splits at level 2 along direction 0; carry it whole one level
    # further
    ps = PointSet(tuple(_pair("x", 6)))
    tree = build_tree(ps, 0)
    assert [len(rec.occupied) for rec in tree.levels] == [1, 1, 2, 2, 2]
    assert _check_cluster_partition(tree).passed
    rec = tree.levels[2]
    first_cell = next(iter(rec.occupied))
    # level 2 keeps level 1's cluster sequence: the pair, keyed by point 0
    carried = tree.levels[1].clusters
    tree = _with_level(tree, 2, clusters=carried)
    assert tree.levels[2].occupied == {first_cell: (0, 1)}
    check = _check_cluster_partition(tree)
    assert not check.passed and "point 1 outside its cell" in check.witness
    assert not lemma_suite(ps, trees=[tree, *(build_tree(ps, i) for i in (1, 2))]).passed


def test_empty_counts_follow_the_parent_cluster_count():
    # n = 2: the pair splits at level 2 along direction 0, where its one
    # parent cell is cut into 64 children and two of them are occupied
    ps = PointSet(tuple(_pair("x", 6)))
    tree = build_tree(ps, 0)
    assert [len(rec.clusters) for rec in tree.levels] == [1, 1, 2, 2, 2]
    assert tree.empty_counts() == empty_counts_oracle(tree) == [3, 63, 62, 126, 126]


def sum_empty_area_sq_oracle(tree):
    """Fraction sums over the recorded areas, level by level, of the
    empties counted on the cell dicts, plus the geometric tail or the
    truncation bound."""
    n = tree.n
    total = Fraction(0)
    for rec, empty in zip(tree.levels, empty_counts_oracle(tree)):
        total += empty * rec.rect_area ** 2
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
@example(PointSet(((Fraction(1, 3), Fraction(1, 3)),
                   (Fraction(1, 3) + TWIN_GAP, Fraction(1, 3) + TWIN_GAP))), 1, None)
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(auxiliary, "PRODUCT_LEVEL", level)
        report = product_bound_check(ps, indices, trees)
    d_product, covered, pieces = product_oracle(ps, trees, level)
    assert report.d_product_integral == d_product
    assert report.covered_area == covered
    assert 0 <= 1 - report.covered_area <= report.mass_bound
    assert report.piece_count == pieces


def _corrupted(tree, kind, draw):
    """`tree` with one corruption of `kind` at a drawn level, or None if the
    tree has no level it applies to.  A corrupted tuple replaces every level
    that held the original one, so the levels still share it."""
    levels = tree.levels
    record = _tree_integers(tree.pointset)
    xs, ys = record.xs, record.ys
    if kind == "reuse":
        # a level on which some cluster splits holds its parent's tuple
        split = [level for level, (rec, parent) in enumerate(zip(levels[1:], levels), 1)
                 if rec.clusters is not parent.clusters]
        if not split:
            return None
        level = draw(st.sampled_from(split))
        return _with_level(tree, level, clusters=levels[level - 1].clusters)
    old = levels[draw(st.integers(0, len(levels) - 1))].clusters
    clusters = list(old)
    if not clusters:
        return None
    k = draw(st.integers(0, len(clusters) - 1))
    members, x0, y0, last = clusters[k]
    if kind == "drop":
        del clusters[k]
    elif kind == "repeat":
        clusters.insert(k, clusters[k])
    elif kind == "empty":
        clusters.insert(k, ((), x0, y0, last))
    elif kind == "x0_low_bit":
        lone = [j for j, c in enumerate(clusters) if len(c[0]) == 1]
        if not lone:
            return None
        j = draw(st.sampled_from(lone))
        members, x0, y0, last = clusters[j]
        clusters[j] = (members, x0 ^ 1, y0, last)
    elif kind == "part":                # a cluster of two or more cut in two in its cell
        crowded = [j for j, c in enumerate(clusters) if len(c[0]) > 1]
        if not crowded:
            return None
        j = draw(st.sampled_from(crowded))
        members, _, _, last = clusters[j]
        clusters[j:j + 1] = [(part, xs[part[0]], ys[part[0]], last)
                             for part in (members[:1], members[1:])]
    else:                               # "move": a member to a neighbouring cluster
        if len(clusters) < 2:
            return None
        j = k + 1 if k + 1 < len(clusters) else k - 1
        other, *rest = clusters[j]
        clusters[k] = (members[:-1], x0, y0, last)
        clusters[j] = (other + members[-1:], *rest)
    new = tuple(clusters)
    return tree._replace(levels=tuple(rec._replace(clusters=new) if rec.clusters is old else rec
                                      for rec in levels))


@settings(max_examples=100, deadline=None)
@given(adversarial_sets(), st.data())
def test_cluster_partition_matches_the_cell_dict_reference(ps, data):
    """The check reads each level's cluster tuple, the reference a cell dict
    built at every level.  On a built tree the two give the same passing
    verdict; on a corrupted one the check fails, so it fails wherever the
    reference fails.  It also fails where the reference may pass: an X0
    wrong only in bits that no level's scale reaches, and an empty or
    repeated cluster, which the dict hides."""
    n = n_from_pointcount(len(ps))
    tree = build_tree(ps, data.draw(st.integers(0, n)))
    assert _check_cluster_partition(tree) == cluster_partition_oracle(tree)
    assert _check_cluster_partition(tree).passed
    kind = data.draw(st.sampled_from(
        ("drop", "repeat", "empty", "x0_low_bit", "part", "move", "reuse")))
    bad = _corrupted(tree, kind, data.draw)
    event(f"{kind} {'applied' if bad else 'not applicable'}")
    if bad is not None:
        check, reference = _check_cluster_partition(bad), cluster_partition_oracle(bad)
        event(f"{kind}: reference {'passes' if reference.passed else 'fails'}")
        assert not check.passed
        if kind in ("drop", "part", "move", "reuse"):
            assert not reference.passed


def test_cluster_partition_reads_a_shared_tuple_once():
    # every point has its own level-0 cell, so all 65 levels hold one tuple:
    # it is read whole on level 0 only, and it holds no cluster of two
    reads = []

    class Counted(tuple):
        def __iter__(self):
            reads.append(1)
            return super().__iter__()

    tree = build_tree(van_der_corput(10), 0, max_level=HARD_LEVEL_CAP)
    shared = Counted(tree.levels[0].clusters)
    levels = tuple(rec._replace(clusters=shared) for rec in tree.levels)

    def reads_of(depth):
        reads.clear()
        assert _check_cluster_partition(tree._replace(levels=levels[:depth])).passed
        return len(reads)

    assert reads_of(1) == reads_of(HARD_LEVEL_CAP + 1) > 0


@pytest.mark.parametrize("corruption, witness", [
    ("x0", "a cluster not keyed by its first member"),
    ("part", "two clusters share a cell"),
])
def test_cluster_partition_fails_a_new_tuple_read_whole(corruption, witness):
    # the pair shares its cell up to level 1 along direction 0; level 0 gets
    # a new tuple: the pair keyed by point 1's integers, or cut in two
    ps = PointSet(tuple(_pair("x", 6)))
    tree = build_tree(ps, 0)
    (members, _, _, last), = tree.levels[0].clusters
    record = _tree_integers(ps)
    if corruption == "x0":
        clusters = ((members, record.xs[1], record.ys[1], last),)
    else:
        clusters = tuple(((t,), record.xs[t], record.ys[t], HARD_LEVEL_CAP) for t in members)
    bad = _with_level(tree, 0, clusters=clusters)
    check = _check_cluster_partition(bad)
    assert not check.passed and check.witness == f"i=0 l=0: {witness}"
