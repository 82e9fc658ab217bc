"""Norms of the discrepancy function: exact values against independent oracles."""

import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from discrep import discrepancy
from discrep.discrepancy import (
    MAX_MC_SAMPLES,
    CellDecomposition,
    _mid_rad,
    _nstr_directed,
    norms_report,
    l1_norm,
    l2_norm_sq,
    linf_norm,
    monte_carlo_norm,
)
from discrep.auxiliary import lemma_suite
from discrep.errors import ResourceLimitError
from discrep.pointsets import Point, PointSet, random_uniform, symmetrize, van_der_corput
from oracles import (
    DyadicInterval,
    DyadicRectangle,
    cells,
    eval_discrepancy,
    haar_inner_product,
    l2_norm_sq_direct,
)

ORIGIN = PointSet((Point(Fraction(0), Fraction(0)),), label="origin")
CORNER = PointSet((Point(Fraction(1), Fraction(1)),), label="corner")


def rect(kx, jx, ky, jy):
    return DyadicRectangle(DyadicInterval(kx, jx), DyadicInterval(ky, jy))


def test_eval_discrepancy_examples():
    assert eval_discrepancy(ORIGIN, Fraction(1, 2), Fraction(1, 2)) == Fraction(3, 4)
    assert eval_discrepancy(van_der_corput(2), Fraction(1, 2), Fraction(1, 2)) == 2
    assert eval_discrepancy(ORIGIN, 0, 0) == 1
    assert eval_discrepancy(CORNER, 0, 0) == 0


def test_cell_decomposition_counts_monotone():
    for ps in (van_der_corput(2), random_uniform(9, seed=3)):
        cd = CellDecomposition.from_pointset(ps)
        counts = tuple(discrepancy._columns(cd))
        for i in range(len(counts)):
            for j in range(len(counts[0])):
                if i:
                    assert counts[i][j] >= counts[i - 1][j]
                if j:
                    assert counts[i][j] >= counts[i][j - 1]
        total = sum((b - a) * (d - c) for a, b, c, d, _ in cells(cd))
        assert total == 1


def test_haar_inner_product_examples():
    far = PointSet((Point(Fraction(9, 10), Fraction(9, 10)),))
    assert haar_inner_product(far, rect(1, 0, 1, 0)) == Fraction(-1, 256)
    assert haar_inner_product(CORNER, rect(1, 0, 1, 0)) == Fraction(-1, 256)
    # a point sitting on the left/bottom edge contributes zero kernel
    assert haar_inner_product(ORIGIN, DyadicRectangle.unit()) == Fraction(-1, 16)


def test_haar_inner_product_empty_rectangle_rule():
    # rectangles with no point: exactly -N |R|^2 / 16
    ps = van_der_corput(2)
    r = rect(2, 3, 2, 0)  # [3/4,1) x [0,1/4) holds no vdc point
    assert all(not r.contains(p.x, p.y) for p in ps)
    assert haar_inner_product(ps, r) == -len(ps) * r.area ** 2 / 16


def test_haar_inner_product_against_monte_carlo():
    ps = ORIGIN
    r = DyadicRectangle.unit()
    rng = random.Random(11)
    samples = 200_000
    acc = acc_sq = 0.0
    for _ in range(samples):
        x, y = rng.random(), rng.random()
        v = (1 - x * y) * r.haar(Fraction.from_float(x), Fraction.from_float(y))
        acc += v
        acc_sq += v * v
    mean = acc / samples
    stderr = math.sqrt((acc_sq / samples - mean * mean) / samples)
    assert abs(mean - float(haar_inner_product(ps, r))) < 4 * stderr


def test_l2_norm_examples():
    assert l2_norm_sq(ORIGIN) == Fraction(11, 18)
    assert l2_norm_sq(CORNER) == Fraction(1, 9)
    assert l2_norm_sq(van_der_corput(2)) > 0


def test_l2_two_routes_agree_exactly():
    sets = [
        ORIGIN,
        CORNER,
        van_der_corput(1),
        van_der_corput(3),
        symmetrize(van_der_corput(2)),
        random_uniform(13, seed=5),
        PointSet((Point(Fraction(1, 3), Fraction(2, 3)),) * 3),  # duplicates
    ]
    for ps in sets:
        value = l2_norm_sq(ps)
        assert value == l2_norm_sq_direct(ps)
        assert value >= 0


def test_empty_rectangle_rule_over_random_rects():
    # every dyadic rectangle free of points integrates D h_R to -N |R|^2/16
    rng = random.Random(17)
    for ps in (van_der_corput(2), random_uniform(6, seed=8)):
        found = 0
        while found < 10:
            kx, ky = rng.randint(0, 3), rng.randint(0, 3)
            r = rect(kx, rng.randrange(1 << kx), ky, rng.randrange(1 << ky))
            if any(r.contains(p.x, p.y) for p in ps):
                continue
            found += 1
            assert haar_inner_product(ps, r) == -len(ps) * r.area ** 2 / 16


def test_l1_exact_singletons():
    assert l1_norm(ORIGIN).value == Fraction(3, 4)
    assert l1_norm(ORIGIN).exact
    assert l1_norm(CORNER).value == Fraction(1, 4)


def test_l1_error_contract():
    ps = random_uniform(6, seed=2)
    res = l1_norm(ps)
    if not res.exact:
        assert res.error <= 1e-12 * res.value
        assert res.sign_change_cells > 0


def test_l1_records_the_precision_it_certified_at(monkeypatch):
    calls = []
    enclosure = discrepancy._l1_enclosure

    def counting(form, dps):
        calls.append(dps)
        return enclosure(form, dps)

    monkeypatch.setattr(discrepancy, "_l1_enclosure", counting)
    assert l1_norm(ORIGIN).dps == 0
    ps = random_uniform(6, seed=2)
    res = l1_norm(ps)
    assert not res.exact and res.dps == 30
    # below 12 digits the enclosure is taken at 12, which reaches 1e-12
    low = l1_norm(ps, dps=5)
    assert low.sign_change_cells == res.sign_change_cells > 0
    assert low.dps == 12
    assert low.error <= 1e-12 * low.value
    assert abs(low.value - res.value) <= low.error + res.error
    # one enclosure per set with a crossed cell, at the recorded precision
    assert calls == [30, 12]
    for dps in (1, 11, 12, 31):
        for ps in (CORNER, van_der_corput(3), random_uniform(16, seed=7)):
            calls.clear()
            norm = l1_norm(ps, dps)
            assert calls == ([] if norm.exact else [max(dps, 12)])
            assert norm.dps == (0 if norm.exact else max(dps, 12))
            assert norm.error <= 1e-12 * norm.value


def test_l1_matches_monte_carlo():
    # fixed-seed regression: exact values sit within 3 standard errors
    for ps, seed in ((van_der_corput(2), 1), (van_der_corput(3), 2)):
        est, stderr = monte_carlo_norm(ps, "l1", samples=10**6, seed=seed)
        assert abs(float(l1_norm(ps).value) - est) < 3 * stderr


def test_l2_matches_monte_carlo():
    est, stderr = monte_carlo_norm(ORIGIN, "l2", samples=10**6, seed=3)
    assert abs(float(Fraction(11, 18)) - est) < 4 * stderr


def test_l1_lower_bounded_by_unit_haar_inner_product():
    for ps in (ORIGIN, van_der_corput(2), random_uniform(5, seed=9)):
        bound = abs(haar_inner_product(ps, DyadicRectangle.unit()))
        assert Fraction(l1_norm(ps).value) >= bound if l1_norm(ps).exact else float(
            l1_norm(ps).value
        ) >= float(bound)


def test_linf_examples():
    assert linf_norm(ORIGIN) == 1
    assert linf_norm(CORNER) == 1
    assert linf_norm(van_der_corput(2)) >= 2


def test_linf_dominates_samples():
    ps = random_uniform(7, seed=4)
    sup = linf_norm(ps)
    rng = random.Random(0)
    for _ in range(300):
        x = Fraction(rng.getrandbits(20), 1 << 20)
        y = Fraction(rng.getrandbits(20), 1 << 20)
        assert abs(eval_discrepancy(ps, x, y)) <= sup


def test_monte_carlo_determinism_and_validation():
    a = monte_carlo_norm(ORIGIN, "l1", samples=2000, seed=42)
    b = monte_carlo_norm(ORIGIN, "l1", samples=2000, seed=42)
    assert a == b
    with pytest.raises(ValueError):
        monte_carlo_norm(ORIGIN, "l1", samples=10)
    with pytest.raises(ValueError):
        monte_carlo_norm(ORIGIN, "sup")


def test_monte_carlo_refuses_samples_past_the_cap_before_numpy(monkeypatch):
    # with numpy unimportable, nothing can be allocated: the cap comes first
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ResourceLimitError, match="2\\^24"):
        monte_carlo_norm(ORIGIN, "l1", samples=MAX_MC_SAMPLES + 1)
    with pytest.raises(ImportError):
        monte_carlo_norm(ORIGIN, "l1", samples=MAX_MC_SAMPLES)


def test_d_n_contract():
    two = PointSet((Point(Fraction(0), Fraction(0)), Point(Fraction(1), Fraction(1))))
    v = float(l1_norm(two).value)
    assert norms_report(two)["d_n"] == f"{v / math.sqrt(math.log(2)):.12g}"
    assert float(norms_report(van_der_corput(4), which="dn")["d_n"]) > 0
    # ln 1 = 0: a single point has no d_n
    assert "d_n" not in norms_report(ORIGIN)
    assert norms_report(ORIGIN, which="dn") == {"n_points": 1}


def _exact(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=10**40),
    st.fractions(min_value=0, max_value=1, max_denominator=10**40),
    st.integers(min_value=5, max_value=120),
)
def test_mid_rad_covers_interval_exactly(lo, width, dps):
    with mp.workdps(dps):
        lo_f = mpf(lo.numerator) / mpf(lo.denominator)
        hi_f = lo_f + mpf(width.numerator) / mpf(width.denominator)
        mid, rad = _mid_rad(lo_f, hi_f)
    assert _exact(mid) - _exact(rad) <= _exact(lo_f)
    assert _exact(hi_f) <= _exact(mid) + _exact(rad)


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=10**40),
    st.integers(min_value=5, max_value=120),
    st.sampled_from([3, 17]),
)
def test_nstr_directed_bounds_the_exact_value(q, dps, digits):
    # the value is made at its own precision and printed at mp's default
    with mp.workdps(dps):
        value = mpf(q.numerator) / mpf(q.denominator)
    exact = _exact(value)
    down = Fraction(_nstr_directed(value, digits, up=False))
    up = Fraction(_nstr_directed(value, digits, up=True))
    assert down <= exact <= up
    if exact:
        # one unit in the last printed digit apart at most
        assert up - down <= abs(exact) * Fraction(10) ** (1 - digits)
    assert Fraction(_nstr_directed(q, digits, up=False)) <= q


def test_nstr_directed_examples():
    third = mpf(1) / 3
    assert _nstr_directed(third, 17, up=True) == "0.33333333333333332"
    assert _nstr_directed(-third, 17, up=False) == "-0.33333333333333332"
    assert _nstr_directed(-third, 17, up=True) == "-0.33333333333333331"
    with mp.workdps(50):
        # above 1/3 by 1e-50, but its nearest 53-bit mpf lies below 1/3
        wide_third = mpf(1) / 3 + mpf(10) ** -50
        wide = mpf(123) / 1000 + mpf(2) ** -100
    assert _nstr_directed(wide_third, 17, up=True) == "0.33333333333333334"
    assert _nstr_directed(wide, 3, up=True) == "0.124"
    assert _nstr_directed(wide, 3, up=False) == "0.123"
    assert _nstr_directed(Fraction(-123, 1000), 3, up=False) == "-0.123"
    assert _nstr_directed(mpf(0), 3, up=True) == "0.0"


def test_norms_report_computes_l1_once(monkeypatch):
    calls = []
    form = discrepancy._l1_form

    def counting(grid):
        calls.append(len(grid))
        return form(grid)

    monkeypatch.setattr(discrepancy, "_l1_form", counting)
    report = norms_report(random_uniform(16, seed=3))
    assert calls == [16]
    assert "d_n" in report


def test_norms_report_builds_the_grid_once(monkeypatch):
    calls = []
    build = CellDecomposition.from_pointset

    def counting(ps):
        calls.append(len(ps))
        return build(ps)

    monkeypatch.setattr(CellDecomposition, "from_pointset", staticmethod(counting))
    report = norms_report(random_uniform(16, seed=3))
    assert calls == [16]
    assert report["linf"] == str(linf_norm(random_uniform(16, seed=3)))
    # every norm and both of lemma_suite's product checks share one set's grid
    calls.clear()
    ps = van_der_corput(2)
    l1_norm(ps), l2_norm_sq(ps), linf_norm(ps), norms_report(ps)
    # n = 3: both product checks, (0, 3) and (0, 1, 3), read linf_norm
    suite = lemma_suite(ps)
    products = [c for c in suite.checks if c.name == "product_discrepancy_bound"]
    assert len(products) == 2 and not any(c.skipped for c in products)
    assert calls == [4]


def test_import_does_not_load_numpy():
    # numpy serves only the Monte-Carlo oracle and is imported there
    src = Path(discrepancy.__file__).resolve().parents[1]
    code = "import sys, discrep, discrep.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
