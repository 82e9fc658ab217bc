"""Moments, generating series, expansion tables, and Newton identities."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from discrep import combinatorics
from discrep.cli import main
from discrep.combinatorics import (
    elementary_symmetric,
    expansion_table,
    odd_moment_series,
    sign_sum_moment,
    sign_sum_moment_bruteforce,
)
from discrep.errors import ResourceLimitError
from oracles import all_integer, linear_coefficient, newton_check, power_sums, reconstruct


def test_moment_values():
    assert sign_sum_moment(1, 3) == 4
    assert sign_sum_moment(2, 3) == 7
    for n in range(0, 13):
        assert sign_sum_moment(n, 1) == 1
    assert sign_sum_moment_bruteforce(0, 5) == 1
    assert sign_sum_moment_bruteforce(1, 3) == 4
    assert sign_sum_moment_bruteforce(2, 3) == 7


def test_moment_validation():
    with pytest.raises(ValueError):
        sign_sum_moment(2, 2)
    with pytest.raises(ValueError):
        sign_sum_moment(-1, 3)
    with pytest.raises(ResourceLimitError):
        sign_sum_moment_bruteforce(21, 3)


@given(n=st.integers(0, 10), half_k=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_moment_closed_form_matches_bruteforce(n, half_k):
    k = 2 * half_k + 1
    assert sign_sum_moment(n, k) == sign_sum_moment_bruteforce(n, k)


def test_series_matches_moments():
    for n in (0, 1, 2, 5):
        series = odd_moment_series(n, 13)
        for k in range(1, 14, 2):
            assert series.coefficients[k] == sign_sum_moment(n, k)
    assert odd_moment_series(1, 5).coefficients[3] == 4
    assert odd_moment_series(2, 3).coefficients[3] == 7


def test_series_truncation_errors():
    with pytest.raises(ResourceLimitError):
        odd_moment_series(1, 300)


def test_elementary_symmetric_examples():
    assert elementary_symmetric([1, 1, 1]) == [3, 3, 1]
    assert elementary_symmetric([1, -1]) == [0, -1]
    for signs in ([1, -1, 1], [-1, -1, -1, 1]):
        prod = 1
        for s in signs:
            prod *= s
        assert elementary_symmetric(signs)[-1] == prod


def test_expansion_table_small_cases():
    table = expansion_table(1, 3)
    assert table.coefficients == {1: Fraction(4)}
    assert linear_coefficient(table) == 4
    assert all_integer(table)
    # reconstruction at a concrete vector: (f0 + f1)^3 = 4 f0 + 4 f1
    assert reconstruct(table, [1, 1]) == 8
    assert reconstruct(table, [1, -1]) == 0
    table = expansion_table(2, 1)
    assert table.coefficients == {1: Fraction(1), 3: Fraction(0)}


def test_expansion_linear_term_is_moment():
    for n in range(0, 7):
        for k in (1, 3, 5, 7):
            assert linear_coefficient(expansion_table(n, k)) == sign_sum_moment(n, k)


def test_expansion_reconstruction_exhaustive():
    for n, k in ((2, 3), (3, 5), (4, 7)):
        table = expansion_table(n, k)
        m = n + 1
        for mask in range(1 << m):
            signs = [1 - 2 * ((mask >> t) & 1) for t in range(m)]
            assert reconstruct(table, signs) == sum(signs) ** k


@pytest.mark.parametrize("slot, delta", [(0, Fraction(1, 3)), (-1, Fraction(1)),
                                         (-1, Fraction(1, 2 ** 40))])
def test_expansion_table_rejects_a_corrupted_coefficient(monkeypatch, slot, delta):
    closed_form = combinatorics._krawtchouk_coefficients

    def corrupted(n, k):
        coefficients = closed_form(n, k)
        coefficients[list(coefficients)[slot]] += delta
        return coefficients

    monkeypatch.setattr(combinatorics, "_krawtchouk_coefficients", corrupted)
    with pytest.raises(ArithmeticError, match="reconstruction failed"):
        expansion_table(4, 7)


def test_expansion_table_checks_one_sign_vector_per_class(monkeypatch):
    # e_p and the sum depend only on the number of negative signs
    negatives = []
    evaluate = combinatorics.elementary_symmetric

    def counting(signs):
        negatives.append(list(signs).count(-1))
        return evaluate(signs)

    monkeypatch.setattr(combinatorics, "elementary_symmetric", counting)
    for n, k in ((0, 1), (4, 7), (12, 11)):
        negatives.clear()
        assert expansion_table(n, k).coefficients == combinatorics._krawtchouk_coefficients(n, k)
        # m + 1 evaluations, one for each number of negative signs
        assert sorted(negatives) == list(range(n + 2))


def test_expansion_table_caps():
    with pytest.raises(ResourceLimitError):
        expansion_table(13, 3)
    with pytest.raises(ResourceLimitError):
        expansion_table(4, 13)


def test_expansion_table_json(capsys):
    assert main(["comb", "--n", "2", "--k", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2 and payload["k"] == 3
    assert payload["A"] == {"1": "7", "3": "6"}


def test_newton_identity_hand_case():
    # (+1, -1), k=2: 2 e_2 = e_1 p_1 - e_0 p_2 reads -2 = 0 - 2
    assert newton_check([1, -1], 2)
    assert newton_check([1, 1, 1], 2)


def test_newton_identity_random_vectors():
    rng = random.Random(12)
    for _ in range(40):
        m = rng.randint(1, 16)
        signs = [rng.choice((-1, 1)) for _ in range(m)]
        for k in range(1, m + 1):
            assert newton_check(signs, k)


def test_newton_validation():
    with pytest.raises(ValueError):
        newton_check([1, 0], 1)
    with pytest.raises(ValueError):
        newton_check([1, 1], 3)


def test_power_sums_collapse_on_signs():
    signs = [1, -1, -1, 1, 1]
    p = power_sums(signs, 5)
    for k in range(1, 6):
        assert p[k - 1] == (p[0] if k % 2 else len(signs))
