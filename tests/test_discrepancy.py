"""Norms of the discrepancy function: exact values against independent oracles."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from discrep import _interval, discrepancy, pointsets
from discrep._interval import _nstr_directed
from discrep.cli import _norms_payload
from discrep.discrepancy import (
    L1_DPS,
    CellDecomposition,
    l1_norm,
    l2_norm_sq,
    linf_norm,
)
from discrep.auxiliary import lemma_suite
from discrep.pointsets import PointSet, random_uniform, symmetrize, van_der_corput
from oracles import (
    DyadicInterval,
    DyadicRectangle,
    cells,
    eval_discrepancy,
    fraction_points,
    haar_inner_product,
    l2_norm_sq_direct,
    mirrored_vdc_l2_sq,
    monte_carlo_norm,
    vdc_l1,
    vdc_l2_sq,
    vdc_linf,
)

ORIGIN = PointSet(((Fraction(0), Fraction(0)),), label="origin")
CORNER = PointSet(((Fraction(1), Fraction(1)),), label="corner")


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
        total = sum((b - a) * (d - c) for a, b, c, d, _ in cells(ps))
        assert total == 1


def test_haar_inner_product_examples():
    far = PointSet(((Fraction(9, 10), Fraction(9, 10)),))
    assert haar_inner_product(far, rect(1, 0, 1, 0)) == Fraction(-1, 256)
    assert haar_inner_product(CORNER, rect(1, 0, 1, 0)) == Fraction(-1, 256)
    # a point sitting on the left/bottom edge contributes zero kernel
    assert haar_inner_product(ORIGIN, DyadicRectangle.unit()) == Fraction(-1, 16)


def test_haar_inner_product_empty_rectangle_rule():
    # rectangles with no point: exactly -N |R|^2 / 16
    ps = van_der_corput(2)
    r = rect(2, 3, 2, 0)  # [3/4,1) x [0,1/4) holds no vdc point
    assert all(not r.contains(x, y) for x, y in fraction_points(ps))
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
        PointSet(((Fraction(1, 3), Fraction(2, 3)),) * 3),  # duplicates
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
            if any(r.contains(x, y) for x, y in fraction_points(ps)):
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
    enclosure = _interval._l1_enclosure

    def counting(form, dps):
        calls.append(dps)
        return enclosure(form, dps)

    monkeypatch.setattr(_interval, "_l1_enclosure", counting)
    # one enclosure per set with a crossed cell, at the one precision L1_DPS,
    # which reaches 1e-12, and none for an exact set
    inexact = 0
    for ps in (ORIGIN, CORNER, van_der_corput(3), random_uniform(6, seed=2),
               random_uniform(16, seed=7)):
        calls.clear()
        norm = l1_norm(ps)
        assert calls == ([] if norm.exact else [L1_DPS])
        assert norm.exact == (norm.sign_change_cells == 0)
        assert norm.error <= 1e-12 * norm.value
        inexact += not norm.exact
    assert inexact == 2


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


# The closed forms check each kernel at every m where it runs in under
# 0.5 s on a 2-core Xeon: L1 and L-infinity to m = 10 (m = 11 takes 1.5 s
# and 0.53 s), L2 to m = 14 and the reflection's L2 to m = 13.  Each set is
# built once, so its grid serves all three norms.
_vdc = lru_cache(maxsize=None)(van_der_corput)


def test_l1_matches_the_closed_form_of_van_der_corput():
    for m in range(11):
        l1 = l1_norm(_vdc(m))
        assert l1.exact and l1.value == vdc_l1(m), m


def test_linf_matches_the_closed_form_of_van_der_corput():
    for m in range(11):
        assert linf_norm(_vdc(m)) == vdc_linf(m), m


def test_l2_matches_the_closed_forms_of_van_der_corput_and_its_reflection():
    for m in range(15):
        assert l2_norm_sq(_vdc(m)) == vdc_l2_sq(m), m
    assert l2_norm_sq(symmetrize(_vdc(0))) == Fraction(4, 9)
    for m in range(1, 14):
        assert l2_norm_sq(symmetrize(_vdc(m))) == mirrored_vdc_l2_sq(m), m


def test_monte_carlo_determinism_and_validation():
    a = monte_carlo_norm(ORIGIN, "l1", samples=2000, seed=42)
    b = monte_carlo_norm(ORIGIN, "l1", samples=2000, seed=42)
    assert a == b
    with pytest.raises(ValueError):
        monte_carlo_norm(ORIGIN, "l1", samples=10)
    with pytest.raises(ValueError):
        monte_carlo_norm(ORIGIN, "sup")


def test_d_n_contract():
    two = PointSet(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
    v = float(l1_norm(two).value)
    assert _norms_payload(two, "all")["d_n"] == f"{v / math.sqrt(math.log(2)):.12g}"
    assert float(_norms_payload(van_der_corput(4), "dn")["d_n"]) > 0
    # ln 1 = 0: a single point has no d_n
    assert "d_n" not in _norms_payload(ORIGIN, "all")
    assert _norms_payload(ORIGIN, "dn") == {"n_points": 1}


def _exact(x: mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=10**6))
def test_l1_value_and_error_are_the_enclosure(n, seed):
    # value - error and value + error are the ends of the enclosure, exactly
    ps = random_uniform(n, seed)
    norm = l1_norm(ps)
    form = discrepancy._l1_form(ps)
    if form.crossed:
        lo, hi = _interval._l1_enclosure(form, L1_DPS)
        assert _exact(norm.value) - _exact(norm.error) == _exact(lo)
        assert _exact(norm.value) + _exact(norm.error) == _exact(hi)
    else:
        assert (norm.value, norm.error) == (form.rational, 0)


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


def test_norms_report_prints_an_exact_l1_exactly():
    # one point at (0, 1/3): L1 = 17/36, whose 17 digits would be off by 2.2e-18
    report = _norms_payload(PointSet(((0, Fraction(1, 3)),)), "all")
    assert (report["l1"], report["l1_err"]) == ("17/36", "0")
    assert _norms_payload(van_der_corput(3), "l1") == {
        "n_points": 8, "l1": "29/32", "l1_err": "0"}


def test_norms_report_computes_l1_once(monkeypatch):
    calls = []
    form = discrepancy._l1_form

    def counting(ps):
        calls.append(len(ps))
        return form(ps)

    monkeypatch.setattr(discrepancy, "_l1_form", counting)
    report = _norms_payload(random_uniform(16, seed=3), "all")
    assert calls == [16]
    assert "d_n" in report


def test_norms_report_builds_the_grid_once(monkeypatch):
    calls = []
    build = CellDecomposition.from_pointset
    terms = []
    lowest = discrepancy._lowest

    def counting(ps):
        calls.append(len(ps))
        return build(ps)

    def counting_terms(a, den):
        terms.append(den)
        return lowest(a, den)

    monkeypatch.setattr(CellDecomposition, "from_pointset", staticmethod(counting))
    monkeypatch.setattr(discrepancy, "_lowest", counting_terms)
    report = _norms_payload(random_uniform(16, seed=3), "all")
    # one grid shared by the three norms; L1 reads its 18 x and 18 y cuts
    # in lowest terms, and L2 and L-infinity read the grid's integers alone
    assert calls == [16] and len(terms) == 18 + 18
    terms.clear()
    assert report["linf"] == _norms_payload(random_uniform(16, seed=3), "linf")["linf"]
    assert calls == [16, 16] and terms == []
    assert report["linf"] == str(linf_norm(random_uniform(16, seed=3)))
    # every norm and both of lemma_suite's product checks share one set's grid
    calls.clear()
    ps = van_der_corput(2)
    l1_norm(ps), l2_norm_sq(ps), linf_norm(ps), _norms_payload(ps, "all")
    # n = 3: both product checks, (0, 3) and (0, 1, 3), read linf_norm
    suite = lemma_suite(ps)
    products = [c for c in suite.checks if c.name == "product_discrepancy_bound"]
    assert len(products) == 2 and not any(c.skipped for c in products)
    assert calls == [4]


SRC = Path(discrepancy.__file__).resolve().parents[1]
LIBRARY = ("pointsets", "discrepancy", "auxiliary", "combinatorics", "testfn")


def _fresh_interpreter(code: str):
    """The JSON line that `code` prints last, run by a new interpreter on
    this source tree."""
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_only_what_the_command_runs(tmp_path):
    # with numpy unimportable, `import discrep` loads every library module,
    # no dataclasses or inspect, and no mpmath: that loads with the first
    # interval, and gen, aux, lemmas, comb and norms on a set whose L1 is
    # exact never compute one; every command runs without numpy
    golden = Path(__file__).parent / "golden"
    mpmath_free = [
        ["gen", "--kind", "vdc", "--m", "3", "--out", str(tmp_path / "vdc.csv")],
        ["gen", "--kind", "random", "--n", "5", "--seed", "1", "--out", str(tmp_path / "rnd.csv")],
        *([command, "--in", str(golden / name), "--json"]
          for command in ("aux", "lemmas") for name in ("vdc3.csv", "mixed.csv")),
        ["comb", "--n", "12", "--k", "11", "--json"],
        # vdc3's L1 is exact, so it is printed with no interval
        ["norms", "--in", str(golden / "vdc3.csv"), "--json"],
    ]
    with_mpmath = [
        ["certificate", "--in", str(golden / "vdc3.csv"), "--json"],
        ["norms", "--in", str(golden / "mixed.csv"), "--json"],
        ["lin", "--n", "4", "--json"],
        ["constants", "--json"],
    ]
    code = f"""
import json, sys
sys.modules["numpy"] = None
import discrep, discrep.cli

def loaded():
    return [m for m in ("mpmath", "dataclasses", "inspect") if m in sys.modules]

seen = {{"import": loaded(),
        "missing": [m for m in {LIBRARY!r} if "discrep." + m not in sys.modules]}}
for argv in {mpmath_free!r}:
    assert discrep.cli.main(argv) == 0, argv
seen["mpmath_free"] = loaded()
for argv in {with_mpmath!r}:
    assert discrep.cli.main(argv) == 0, argv
seen["with_mpmath"] = "mpmath" in sys.modules
print(json.dumps(seen))
"""
    assert _fresh_interpreter(code) == {
        "import": [], "missing": [], "mpmath_free": [], "with_mpmath": True}


def test_tracer_patches_and_restores_a_fresh_import():
    # perfbench's tracer, read here and not edited, relies on `import
    # discrep` alone: the modules it patches are loaded, the traced
    # functions are module attributes it rebinds, and
    # `CellDecomposition.from_pointset` is a classmethod
    perfbench = SRC.parent / "perfbench"
    code = f"""
import json, sys
sys.path.insert(0, {str(perfbench)!r})
import discrep
from spans import Tracer
from discrep import discrepancy, pointsets

original = discrepancy.l1_norm
cells = pointsets.CellDecomposition.__dict__["from_pointset"]
tracer = Tracer()
with tracer.patched():
    patched = discrepancy.l1_norm is not original
    norm = discrepancy.l1_norm(pointsets.random_uniform(6, 2))
restored = (discrepancy.l1_norm is original
            and pointsets.CellDecomposition.__dict__["from_pointset"] is cells)
print(json.dumps({{"patched": patched, "restored": restored, "exact": norm.exact,
                  "spans": [span[0] for span in tracer.spans],
                  "inexact": tracer.counts["discrepancy.l1_inexact"]}}))
"""
    assert _fresh_interpreter(code) == {
        "patched": True, "restored": True, "exact": False,
        "spans": ["discrepancy.l1", "discrepancy.cells"], "inexact": 1}


def test_tracer_counts_the_tree_layer_of_a_fresh_import():
    # perfbench's tracer, read here and not edited, wraps build_tree,
    # lemma_suite and certificate and reads each tree's levels, occupied
    # cells and l*, and each check's witness and verdict
    perfbench = SRC.parent / "perfbench"
    code = f"""
import json, sys
from collections import Counter
from fractions import Fraction as F
sys.path.insert(0, {str(perfbench)!r})
import discrep
from spans import Tracer
from discrep import auxiliary, pointsets, testfn

# a pair that splits at a middle level, a duplicate and a point on x = 1 (n = 4)
ps = pointsets.PointSet(((F(1, 3), F(1, 5)), (F(1, 3) + F(1, 512), F(1, 5)),
                         (F(3, 4), F(3, 4)), (F(3, 4), F(3, 4)), (F(1), F(1, 2))))
original = auxiliary.build_tree
tracer = Tracer()
with tracer.patched():
    tree = auxiliary.build_tree(ps, 1)
    suite = auxiliary.lemma_suite(ps)
    cert = testfn.certificate(ps)
restored = auxiliary.build_tree is original
spans = tracer.spans
nested = {{spans[i][0]: dict(Counter(s[0] for s in spans if s[3] == i))
          for i, span in enumerate(spans) if span[3] is None}}
family = list(auxiliary.build_trees(ps))
built = [tree, *family, *family]
print(json.dumps({{
    "restored": restored,
    "top": [span[0] for span in spans if span[3] is None],
    "nested": nested,
    "counts": [tracer.counts[k] for k in
               ("auxiliary.levels", "auxiliary.occupied", "auxiliary.checks_run")],
    "want": [sum(len(t.levels) for t in built),
             sum(len(rec.clusters) for t in built for rec in t.levels),
             sum(not c.skipped for c in suite.checks)],
    "passed": suite.passed,
    "same": suite == auxiliary.lemma_suite(ps) and cert == testfn.certificate(ps),
}}))
"""
    out = _fresh_interpreter(code)
    assert out.pop("counts") == out.pop("want")
    assert out == {
        "restored": True, "passed": True, "same": True,
        "top": ["auxiliary.build_tree", "auxiliary.lemma_suite", "testfn.certificate"],
        "nested": {
            "auxiliary.build_tree": {},
            "auxiliary.lemma_suite": {"auxiliary.build_tree": 5, "auxiliary.inner_product": 5,
                                      "auxiliary.product_check": 2},
            "testfn.certificate": {"auxiliary.build_tree": 5, "auxiliary.inner_product": 5},
        },
    }
