"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Frozen expected values were computed
from the independent oracles exercised in the per-module test files.
"""

import functools
import math
import random
import time
from fractions import Fraction

from mpmath import mp

from discrep.auxiliary import (
    build_tree,
    build_trees,
    inner_product,
    lemma_short_bound,
    n_from_pointcount,
    product_bound_check,
)
from discrep.combinatorics import (
    expansion_table,
    odd_moment_series,
    sign_sum_moment,
    sign_sum_moment_bruteforce,
)
from discrep.discrepancy import l1_norm, l2_norm_sq, linf_norm, monte_carlo_norm
from discrep.pointsets import Point, PointSet, random_uniform, symmetrize, van_der_corput
from discrep.testfn import (
    SINE,
    FourierAtomFunction,
    asymptotic_dn_limit,
    asymptotic_dn_table,
    certificate,
    constants_table,
    lin_limit,
    lin_n,
    lin_series_crosscheck,
)
from oracles import extremal_search, l2_norm_sq_direct, newton_check, reconstruct

ORIGIN = PointSet((Point(Fraction(0), Fraction(0)),), label="origin")


def criterion(number: int, title: str, budget_seconds: float):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"criterion {number:02d} [{title}]: FAIL")
                raise
            elapsed = time.perf_counter() - start
            verdict = "PASS" if elapsed <= budget_seconds else "FAIL (over budget)"
            print(f"criterion {number:02d} [{title}]: {verdict} ({elapsed:.1f}s)")
            assert elapsed <= budget_seconds, f"runtime {elapsed:.1f}s over {budget_seconds}s"
        return run
    return wrap


@criterion(1, "combinatorics exactness", 10)
def test_criterion_01_moment_three_routes():
    assert sign_sum_moment(1, 3) == 4
    for n in range(0, 13):
        series = odd_moment_series(n, 11)
        for k in range(1, 12, 2):
            closed = sign_sum_moment(n, k)
            assert closed == sign_sum_moment_bruteforce(n, k)
            assert closed == series.coefficient(k)


@criterion(2, "expansion reconstruction identity", 30)
def test_criterion_02_reconstruction():
    table = expansion_table(1, 3)
    assert table.coefficients == {1: Fraction(4)}
    for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        assert reconstruct(table, signs) == 4 * signs[0] + 4 * signs[1]
    for n in range(0, 9):
        for k in range(1, 10, 2):
            table = expansion_table(n, k)
            for mask in range(1 << (n + 1)):
                signs = [1 - 2 * ((mask >> t) & 1) for t in range(n + 1)]
                assert reconstruct(table, signs) == sum(signs) ** k


@criterion(3, "newton identities", 5)
def test_criterion_03_newton():
    rng = random.Random(314159)
    for _ in range(100):
        length = rng.randint(1, 16)
        signs = [rng.choice((-1, 1)) for _ in range(length)]
        for k in range(1, length + 1):
            assert newton_check(signs, k)


@criterion(4, "linear coefficient limit", 1)
def test_criterion_04_lin_limit():
    for n in (100, 1000, 10000):
        gap = abs(math.sqrt(n) * float(lin_n(SINE, n).real) - math.exp(-0.5))
        assert gap <= 1.0 / n
    assert str(lin_limit(SINE).real)[:12] == "0.6065306597"
    with mp.workdps(25):
        assert abs(lin_limit(SINE, dps=25).real - 1 / mp.sqrt(mp.e)) < 1e-20


@criterion(5, "extremal problem", 1)
def test_criterion_05_extremal():
    omega, value = extremal_search(tolerance=1e-6)
    assert abs(omega - 1.0) <= 1e-4
    assert abs(value - 1 / math.sqrt(math.e)) <= 1e-6


@criterion(6, "two-route linear coefficient consistency", 10)
def test_criterion_06_two_routes():
    sizes = (1, 2, 4, 8, 16, 32, 64)
    for n in sizes:
        gap = abs(complex(lin_n(SINE, n) - lin_series_crosscheck(SINE, n, order=41)))
        assert gap <= 1e-10
    # random odd three-mode functions; |frequency| <= 2 keeps the omitted
    # order-41 tail below 1e-12 across all n <= 64 (at |w| = 3 it reaches
    # ~4e-8, which no truncation order within the cap can repair)
    rng = random.Random(271828)
    for _ in range(20):
        modes = [
            (Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
             Fraction(rng.randint(1, 32), 16))
            for _ in range(3)
        ]
        fn = FourierAtomFunction.from_sine_modes(modes)
        for n in (1, 4, 16, 64):
            gap = abs(complex(lin_n(fn, n) - lin_series_crosscheck(fn, n, order=41)))
            assert gap <= 1e-10


def _short_corpus():
    sets = [ORIGIN, van_der_corput(2), van_der_corput(3), van_der_corput(4)]
    for size in (4, 8, 16):
        for seed in (1, 2, 3):
            sets.append(random_uniform(size, seed=seed))
    return sets


@criterion(7, "inner product bound, exact", 60)
def test_criterion_07_inner_products():
    singleton_tree = build_tree(ORIGIN, 0)
    assert inner_product(singleton_tree).value == Fraction(-9, 544)
    assert lemma_short_bound(singleton_tree.n, singleton_tree.point_count) == Fraction(-1, 64)
    for ps in _short_corpus():
        n = n_from_pointcount(len(ps))
        for i in range(n + 1):
            tree = build_tree(ps, i)
            assert tree.stabilized
            ip = inner_product(tree)
            assert ip.error == 0
            assert ip.value <= lemma_short_bound(tree.n, tree.point_count)


@criterion(8, "product integrals, bounded verification", 120)
def test_criterion_08_product_bounds():
    configs = [
        (ORIGIN, [(0, 1)]),
        (van_der_corput(2), [(0, 1), (0, 3), (2, 3), (0, 1, 3), (0, 2, 3)]),
        (random_uniform(5, seed=11), [(0, 4), (1, 3), (0, 2, 4)]),
    ]
    for ps, tuples in configs:
        n = n_from_pointcount(len(ps))
        assert n <= 4
        trees = build_trees(ps, max_level=2)
        for indices in tuples:
            report = product_bound_check(ps, indices, [trees[i] for i in indices], 2)
            assert 0 <= 1 - report.covered_area <= report.mass_bound
            assert abs(report.d_product_integral) <= report.d_product_bound + report.d_error


@criterion(9, "norm oracles", 120)
def test_criterion_09_norms():
    assert l1_norm(ORIGIN).value == Fraction(3, 4)
    assert l2_norm_sq(ORIGIN) == Fraction(11, 18)
    corpus = [
        ORIGIN,
        PointSet((Point(Fraction(1), Fraction(1)),)),
        van_der_corput(2),
        van_der_corput(4),
        van_der_corput(6),
        symmetrize(van_der_corput(3)),
        random_uniform(5, seed=1),
        random_uniform(16, seed=2),
        random_uniform(33, seed=3),
        random_uniform(64, seed=4),
        PointSet((Point(Fraction(1, 3), Fraction(2, 3)),) * 2),
    ]
    for ps in corpus:
        assert len(ps) <= 64
        assert l2_norm_sq(ps) == l2_norm_sq_direct(ps)
    for ps, seed in ((van_der_corput(2), 10), (van_der_corput(3), 11),
                     (random_uniform(16, seed=2), 12)):
        exact = float(l1_norm(ps).value)
        est, stderr = monte_carlo_norm(ps, "l1", samples=10**6, seed=seed)
        assert abs(exact - est) <= 4 * stderr
        exact_sq = float(l2_norm_sq(ps))
        est, stderr = monte_carlo_norm(ps, "l2", samples=10**6, seed=seed + 100)
        assert abs(exact_sq - est) <= 4 * stderr


@criterion(10, "certificate soundness", 60)
def test_criterion_10_certificates():
    for ps in _short_corpus():
        cert = certificate(ps)
        exact = l1_norm(ps)
        assert float(cert.l1_lower_bound) <= float(exact.value)
        assert float(linf_norm(ps)) >= float(exact.value)  # norm ordering sanity
        if len(ps) >= 2 and cert.d_n_bound is not None:
            assert float(cert.d_n_bound) <= float(exact.value) / math.sqrt(
                math.log(len(ps))
            )


@criterion(11, "constants table", 1)
def test_criterion_11_constants():
    table = constants_table()
    assert round(float(table["liminf_dn_lower"]), 5) == 0.00854
    assert round(float(table["limsup_dn_lower"]), 5) == 0.01138
    assert round(float(table["halasz_constant"]), 5) == 0.00039
    assert table["liminf_dn_lower"].startswith("0.008537315238")
    assert table["limsup_dn_lower"].startswith("0.01138308698")
    rows = asymptotic_dn_table(2, 64)
    limit = asymptotic_dn_limit()
    assert math.isclose(limit, 0.011383086984326, rel_tol=1e-10)
    gaps = [abs(a[1] - b[1]) for a, b in zip(rows, rows[1:])]
    assert all(g2 < g1 for g1, g2 in zip(gaps[3:], gaps[4:]))
    assert gaps[-1] < 1e-4
    assert abs(rows[-1][1] - limit) < 2e-3
