"""Linear coefficients, the extremal problem, and bound certificates."""

import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv, mp, mpf
from mpmath.libmp import dps_to_prec, mpi_mid

import discrep
from discrep._interval import _iv_endpoints, _nstr_directed
from discrep.auxiliary import (
    build_trees, lemma_short_bound, lemma_suite, n_from_pointcount, product_bound,
)
from discrep.cli import _certificate_payload, _norms_payload, main
from discrep.discrepancy import l1_norm
from discrep.pointsets import PointSet, random_uniform, van_der_corput
from discrep.testfn import (
    DPS,
    SINE,
    FourierAtomFunction,
    _error_weights,
    _odd_terms,
    asymptotic_dn_table,
    certificate,
    constants_table,
    lin_limit,
    lin_n,
    lin_series_crosscheck,
)
from oracles import (
    _iv_precision,
    coefficient_abs_sum,
    error_tuple_sum,
    evaluate,
    extremal_search,
    is_odd_sampled,
    odd_terms_iv,
    scaled,
    sin_expansion_check,
    sine_modes,
    sup_norm_via_coefficients,
)

ORIGIN = PointSet(((Fraction(0), Fraction(0)),), label="origin")


def random_odd_function(rng: random.Random, max_freq: int = 2) -> FourierAtomFunction:
    """Three sine modes with rational amplitudes and |frequency| <= max_freq."""
    modes = []
    for _ in range(3):
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        w = Fraction(rng.randint(1, 16 * max_freq), 16)
        modes.append((b, w))
    return sine_modes(modes)


def test_sine_atoms_represent_sin():
    for x in (0.3, 1.1, -2.0):
        assert abs(complex(evaluate(SINE, x)) - complex(math.sin(x))) < 1e-25


def test_random_functions_are_odd():
    rng = random.Random(5)
    for _ in range(5):
        assert is_odd_sampled(random_odd_function(rng))


def test_lin_n_examples():
    v = lin_n(SINE, 1)
    assert abs(complex(v).imag) < 1e-25
    assert math.isclose(float(v.real), math.sin(1) * math.cos(1), rel_tol=1e-12)
    v = lin_n(SINE, 10**4)
    assert abs(100 * float(v.real) - math.exp(-0.5)) < 1e-3
    constant = FourierAtomFunction((SINE.atoms[0].__class__(1, 0, 0),))
    assert abs(complex(lin_n(constant, 3))) == 0


def test_sqrt_n_lin_approaches_limit():
    for n in (100, 1000, 10000):
        gap = abs(math.sqrt(n) * float(lin_n(SINE, n).real) - math.exp(-0.5))
        assert gap <= 1.0 / n


def test_lin_n_is_the_p1_term_of_odd_terms():
    # sin's coefficient is (1/2) f(1) - (1/2) f(-1) = f(1) for the p = 1
    # term f(w) = sin(w/sqrt(n)) cos^n(w/sqrt(n)), with no rounding between
    prec = dps_to_prec(DPS)
    for n in (1, 4, 100):
        v = lin_n(SINE, n)
        assert v.real._mpf_ == mpi_mid(_odd_terms(n, {1: 1}, prec), prec)
        assert v.imag == 0


def test_no_global_precision_in_the_package():
    # mpmath's global context is read for printing only: nothing in the
    # package sets its precision, and `_as_mpf` lives in the oracles alone
    src = Path(discrep.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"workdps|mp\.(dps|prec) *=", text), path.name
        assert "def _as_mpf" not in text, path.name


def test_values_do_not_depend_on_the_context_precision():
    crossed = random_uniform(8, seed=1)
    assert not l1_norm(crossed).exact

    def values():
        ps = van_der_corput(3)
        return (lin_n(SINE, 7), lin_series_crosscheck(SINE, 7), lin_limit(SINE),
                constants_table(), certificate(ps), l1_norm(crossed),
                _norms_payload(crossed, "all"),
                [_nstr_directed(q, d, up) for q in (Fraction(1, 3), Fraction(-2, 7), mpf(5))
                 for d in (3, 17) for up in (False, True)])

    want = values()
    for prec in (10, 1000):
        with mp.workprec(prec):
            assert values() == want, prec


def test_lin_series_first_term():
    # order 1 keeps only T'(0)/sqrt(n)
    fn = sine_modes([(Fraction(3, 2), Fraction(2))])
    for n in (1, 4, 9):
        v = lin_series_crosscheck(fn, n, order=1)
        assert abs(float(v.real) - 3.0 / math.sqrt(n)) < 1e-25


def test_two_route_consistency_sin():
    assert abs(complex(lin_n(SINE, 4) - lin_series_crosscheck(SINE, 4, order=21))) < 1e-10
    assert abs(complex(lin_n(SINE, 1) - lin_series_crosscheck(SINE, 1, order=41))) < 1e-10


def test_two_route_consistency_wide_frequencies():
    # at |w| = 3 and n = 64 the first omitted order-41 term is ~4e-8, so the
    # achievable agreement there is weaker than for |w| <= 2
    fn = sine_modes([(1, 3)])
    gap = abs(complex(lin_n(fn, 64) - lin_series_crosscheck(fn, 64, order=41)))
    assert gap < 1e-6
    assert gap > 1e-10  # documents why the 1e-10 suite draws |w| <= 2


def test_series_validation():
    with pytest.raises(ValueError):
        lin_series_crosscheck(SINE, 4, order=2)
    with pytest.raises(ValueError):
        lin_series_crosscheck(SINE, 4, order=43)
    with pytest.raises(ValueError):
        lin_n(SINE, 0)


def test_lin_limit_values():
    v = lin_limit(SINE)
    assert abs(complex(v).imag) < 1e-25
    with mp.workdps(30):
        assert abs(v.real - 1 / mp.sqrt(mp.e)) < mpf(10) ** -25
    assert str(lin_limit(SINE).real)[:12] == "0.6065306597"
    constant = FourierAtomFunction((SINE.atoms[0].__class__(1, 0, 0),))
    assert abs(complex(lin_limit(constant))) == 0
    assert abs(complex(lin_limit(scaled(SINE, Fraction(1, 2)))) - math.exp(-0.5) / 2) < 1e-20


def test_lin_limit_linearity():
    rng = random.Random(7)
    f = random_odd_function(rng)
    g = random_odd_function(rng)
    combined = FourierAtomFunction(scaled(f, 3).atoms + scaled(g, Fraction(-5, 2)).atoms)
    with mp.workdps(30):
        lhs = lin_limit(combined)
        rhs = 3 * lin_limit(f) - Fraction(5, 2) * lin_limit(g)
        assert abs(complex(lhs - rhs)) < 1e-25


def test_extremal_search():
    w, value = extremal_search(tolerance=1e-6)
    assert abs(w - 1) < 1e-4
    assert abs(value - 1 / math.sqrt(math.e)) < 1e-6
    w, value = extremal_search(tolerance=1e-6, mode="min")
    assert abs(w + 1) < 1e-4
    assert abs(value + 1 / math.sqrt(math.e)) < 1e-6
    w, value = extremal_search(tolerance=1e-9, domain=(2.0, 3.0))
    assert abs(w - 2) < 1e-6
    with pytest.raises(ValueError):
        extremal_search(tolerance=1e-15)


def test_sup_norm_via_coefficients():
    bound = sup_norm_via_coefficients(SINE)
    assert bound.value == 1
    assert not bound.independence_verified  # frequencies 1 and -1 are related
    assert sup_norm_via_coefficients(scaled(SINE, Fraction(1, 2))).value == Fraction(1, 2)
    single = FourierAtomFunction((SINE.atoms[0].__class__(1, 0, 1),))
    assert sup_norm_via_coefficients(single).independence_verified


def test_limit_dominated_by_extremal_value():
    # unit coefficient mass => |limit| <= 1/sqrt(e) (+ rounding)
    rng = random.Random(2024)
    cap = 1 / math.sqrt(math.e) + 1e-12
    for _ in range(20):
        fn = random_odd_function(rng, max_freq=3)
        mass = coefficient_abs_sum(fn)
        if mass == 0:
            continue
        unit = scaled(fn, 1 / Fraction(mass))
        assert abs(complex(lin_limit(unit))) <= cap


def test_sin_expansion_identity_exhaustive_small_n():
    for n in (1, 2, 3, 4, 5):
        for mask in range(1 << (n + 1)):
            signs = [1 - 2 * ((mask >> t) & 1) for t in range(n + 1)]
            assert sin_expansion_check(n, signs)


def test_error_tuple_sum_values():
    # S_3(4) = 3/4 + 1/2 + 3/16, S_5(4) = 1/16
    assert error_tuple_sum(4, 3) == Fraction(23, 16)
    assert error_tuple_sum(4, 5) == Fraction(1, 16)
    # dominates the true tuple sums of 2^(i1 - ip)
    for n in (2, 3, 4, 5):
        for p in (3, 5):
            if p > n + 1:
                continue
            direct = Fraction(0)
            for mask in range(1 << (n + 1)):
                idx = [t for t in range(n + 1) if (mask >> t) & 1]
                if len(idx) == p:
                    direct += Fraction(1, 1 << (idx[-1] - idx[0]))
            assert error_tuple_sum(n, p) >= direct


def test_error_weights_are_gap_sums_of_product_bounds():
    for n in (1, 2, 3, 4, 5, 13, 40, 120):
        for count in (1, 3, 1 << (n - 1)):
            weights = _error_weights(n, count)
            assert list(weights) == list(range(3, n + 2, 2))
            for p, weight in weights.items():
                assert weight == product_bound(n, count, 0) * error_tuple_sum(n, p)


def _count_for(n: int, k: int) -> int:
    """A point count N with n_from_pointcount(N) == n, picked by k."""
    lo, hi = (1 << (n - 1) >> 1) + 1, 1 << (n - 1)
    return lo + k % (hi - lo + 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 300), st.sampled_from((15, 20, 50)), st.integers(0, 1 << 300),
       st.fractions(min_value=0, max_value=1))
@example(1, 15, 0, Fraction(0))
@example(100, 50, 7, Fraction(1, 3))
@example(250, 20, 1, Fraction(513, 6560))
@example(300, 50, 1 << 298, Fraction(1))
def test_odd_terms_match_iv_objects(n, dps, k, mass):
    # the raw libmp series takes bit for bit the endpoints of `iv` objects
    # at iv.dps = dps, for the main term, the error series and the floor
    count = _count_for(n, k)
    assert n_from_pointcount(count) == n
    for weights in ({1: mass}, _error_weights(n, count),
                    {1: -(n + 1) * lemma_short_bound(n, count)}):
        with _iv_precision(dps):
            want = odd_terms_iv(n, weights)._mpi_
        assert _odd_terms(n, weights, dps_to_prec(dps)) == want


def test_certificate_matches_iv_objects():
    # every bound is the endpoint the `iv`-object route takes at the one
    # working precision DPS, on stabilized and truncated families
    sets = [ORIGIN, *(van_der_corput(m) for m in range(5)), random_uniform(12, seed=1)]
    for ps in sets:
        for max_level in (None, 0, 2):
            cert = certificate(ps, build_trees(ps, max_level))
            n, count = cert.n, len(ps)
            with _iv_precision(DPS):
                main = odd_terms_iv(n, {1: abs(cert.inner_product_sum)})
                err = odd_terms_iv(n, _error_weights(n, count))
                diff = main - err
                dn = diff / iv.sqrt(iv.log(iv.mpf(count))) if count >= 2 else None
            assert cert.main_term._mpf_ == main._mpi_[0]
            assert cert.error_bound._mpf_ == err._mpi_[1]
            assert cert.l1_lower_bound._mpf_ == max(mpf(0), mp.make_mpf(diff._mpi_[0]))._mpf_
            assert (cert.d_n_bound is None) == (dn is None)
            if dn is not None:
                assert cert.d_n_bound._mpf_ == max(mpf(0), mp.make_mpf(dn._mpi_[0]))._mpf_


def test_certificate_vdc8():
    ps = van_der_corput(3)
    cert = certificate(ps)
    assert cert.n == 4 and cert.point_count == 8
    assert cert.trees_stabilized
    assert cert.inner_product_sum == Fraction(-513, 6560)
    assert cert.l1_lower_bound > 0
    exact = l1_norm(ps)
    assert float(cert.l1_lower_bound) <= float(exact.value)
    assert cert.d_n_bound is not None
    assert float(cert.d_n_bound) <= float(exact.value) / math.sqrt(math.log(8))


def test_certificate_soundness_corpus():
    for ps in (van_der_corput(2), random_uniform(6, seed=3), random_uniform(12, seed=1)):
        cert = certificate(ps)
        assert float(cert.l1_lower_bound) <= float(l1_norm(ps).value)


def test_certificate_main_term_floor():
    # the main term is at least its floor at the mass (n+1) |lemma_short_bound|
    ps = van_der_corput(3)
    cert = certificate(ps)
    n, count = cert.n, cert.point_count
    floor = _odd_terms(n, {1: -(n + 1) * lemma_short_bound(n, count)}, dps_to_prec(DPS))
    assert cert.main_term >= _iv_endpoints(floor)[0]


def test_certificate_lower_bound_rounds_down():
    # l1_lower_bound is main_term - error_bound rounded down, never up
    sets = [van_der_corput(m) for m in range(1, 7)]
    sets += [random_uniform(k, seed=k) for k in range(2, 39, 3)]
    for ps in sets:
        cert = certificate(ps)
        assert cert.l1_lower_bound > 0
        with mp.workdps(400):
            assert cert.l1_lower_bound <= cert.main_term - cert.error_bound


def _exact(x) -> Fraction:
    """The exact rational value of a Fraction or an mpf."""
    if isinstance(x, Fraction):
        return x
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def test_printed_bounds_round_in_the_safe_direction():
    # the printed lower bounds never exceed the certified values and the
    # printed error terms never fall below them
    sets = [van_der_corput(m) for m in range(1, 7)]
    sets += [random_uniform(k, seed=k) for k in range(2, 39, 3)]
    for ps in sets:
        cert = certificate(ps)
        printed = _certificate_payload(cert)
        for key in ("main_term", "l1_lower_bound", "d_n_bound"):
            assert Fraction(printed[key]) <= _exact(getattr(cert, key)), (ps.label, key)
        assert Fraction(printed["error_bound"]) >= _exact(cert.error_bound), ps.label
        l1 = l1_norm(ps)
        assert Fraction(_norms_payload(ps, "all")["l1_err"]) >= _exact(l1.error), ps.label


def test_certificate_single_point():
    cert = certificate(ORIGIN)
    assert cert.n == 1
    assert cert.d_n_bound is None
    assert cert.error_bound == 0  # no odd p in 3..n+1 when n = 1
    assert cert.l1_lower_bound > 0


def test_certificate_error_scaling():
    # for N = 2^(n-1) the error series times sqrt(n) stays bounded
    prec = dps_to_prec(DPS)
    scaled = [
        float(_iv_endpoints(_odd_terms(n, _error_weights(n, 1 << (n - 1)), prec))[1])
        * math.sqrt(n) / ((1 << (n - 1)) * 2.0 ** -n)
        for n in range(4, 17)
    ]
    assert max(scaled) < 1.0


def test_certificate_unstabilized_still_sound():
    ps = PointSet(
        ((Fraction(0), Fraction(0)), (Fraction(1, 2**30), Fraction(0)))
    )
    cert = certificate(ps, trees=build_trees(ps, max_level=0))
    assert not cert.trees_stabilized
    assert cert.inner_product_error > 0
    assert float(cert.l1_lower_bound) <= float(l1_norm(ps).value)


@pytest.mark.parametrize("consumer", [certificate, lemma_suite], ids=lambda f: f.__name__)
def test_certificate_refuses_trees_that_are_not_one_per_direction(consumer):
    ps = van_der_corput(4)  # N = 16, n = 5
    trees = list(build_trees(ps))
    want = consumer(ps)
    assert consumer(ps, trees=trees) == want
    assert consumer(ps, trees=iter(trees)) == want
    other = list(build_trees(random_uniform(16, seed=1)))
    # a hundred copies once certified 2.41 > ||D||_1 = 65/64, and no trees 0;
    # the suite once passed on no trees, on one tree twice and on a partial
    # family; a family is read in direction order, as a stream
    for wrong, message in (([], "one tree per direction"),
                           ([trees[1]] * 2, "one tree per direction"),
                           (trees * 2, "one tree per direction"),
                           (trees * 100, "one tree per direction"),
                           (trees[:-1], "one tree per direction"),
                           (trees[::-1], "one tree per direction"),
                           (other, "another point set"),
                           ((other[i] if i == 3 else t for i, t in enumerate(trees)),
                            "another point set")):
        with pytest.raises(ValueError, match=message):
            consumer(ps, trees=wrong)


def test_certificate_json_schema():
    payload = _certificate_payload(certificate(van_der_corput(2)))
    for key in (
        "n", "N", "main_term", "error_bound", "l1_lower_bound", "d_n_bound",
        "inner_product_sum",
    ):
        assert key in payload
    assert payload["inner_product_sum"].count("/") == 1


def test_constants_table(capsys):
    # the library's four values, at DPS digits, print with 10 digits and
    # the two external L2 entries
    values = constants_table()
    assert list(values) == ["liminf_dn_lower", "limsup_dn_lower", "halasz_constant",
                            "lin_limit_sin"]
    assert all(isinstance(v, mpf) for v in values.values())
    assert values["lin_limit_sin"] == lin_limit(SINE).real
    assert main(["constants", "--json"]) == 0
    table = json.loads(capsys.readouterr().out)["constants"]
    assert table == {**{k: mp.nstr(v, 10) for k, v in values.items()},
                     "l2_liminf_bound_external": "0.17905",
                     "l2_liminf_conjectured_external": "0.17601"}
    assert table["liminf_dn_lower"].startswith("0.008537315")
    assert table["limsup_dn_lower"].startswith("0.0113830")
    assert table["halasz_constant"].startswith("0.000393639")
    assert table["lin_limit_sin"].startswith("0.6065306597")
    assert round(float(table["liminf_dn_lower"]), 5) == 0.00854
    assert round(float(table["limsup_dn_lower"]), 5) == 0.01138
    assert round(float(table["halasz_constant"]), 5) == 0.00039
    assert table["l2_liminf_bound_external"] == "0.17905"
    # the two displayed bounds differ by the exact factor 4/3
    assert Fraction(1, 64) / Fraction(3, 256) == Fraction(4, 3)
    with mp.workdps(30):
        ratio = float(table["limsup_dn_lower"]) / float(table["liminf_dn_lower"])
    assert math.isclose(ratio, 4 / 3, rel_tol=1e-8)


def test_asymptotic_dn_table_converges(capsys):
    rows = asymptotic_dn_table(2, 64)
    limit = float(constants_table()["limsup_dn_lower"])
    assert math.isclose(limit, 0.01138308698432614, rel_tol=1e-12)
    # the printed table is rows 2..16 and its limit the printed limsup_dn_lower
    assert main(["constants", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dn_lower_bound_table"] == [[n, f"{v:.10g}"] for n, v in rows[:15]]
    assert payload["dn_lower_bound_limit"] == payload["constants"]["limsup_dn_lower"]
    assert abs(rows[-1][1] - limit) < 1e-3
    gaps = [abs(a[1] - b[1]) for a, b in zip(rows, rows[1:])]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-4
    assert math.isclose(
        rows[0][1], math.sqrt(2) / (64 * math.sqrt(math.e) * math.sqrt(math.log(2))),
        rel_tol=1e-12,
    )
    with pytest.raises(ValueError):
        asymptotic_dn_table(1, 10)


def test_halasz_constant_digits():
    values = constants_table()
    with mp.workdps(30):
        assert abs(values["halasz_constant"] - mpf("0.00039363937284867681665")) < 1e-18
    # each constant is the closed form of the paper to 1e-45 relative
    with mp.workdps(60):
        root = mp.sqrt(mp.e * mp.log(2))
        want = {"liminf_dn_lower": 3 / (256 * root), "limsup_dn_lower": 1 / (64 * root),
                "halasz_constant": 1 / (1152 * (mp.sqrt(mp.e) + 1) * mp.sqrt(mp.log(2))),
                "lin_limit_sin": 1 / mp.sqrt(mp.e)}
        for name, value in want.items():
            assert abs(values[name] / value - 1) < mpf(10) ** -45, name
