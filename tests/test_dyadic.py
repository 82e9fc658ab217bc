"""Exactness tests for dyadic intervals, rectangles, and Haar evaluations."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import DyadicInterval, DyadicRectangle, haar_point_kernel, subdivide

UNIT = DyadicInterval.unit()


def test_interval_geometry():
    iv = DyadicInterval(2, 1)
    assert iv.left == Fraction(1, 4)
    assert iv.right == Fraction(1, 2)
    assert iv.length == Fraction(1, 4)
    assert iv.midpoint == Fraction(3, 8)
    assert iv.left_half() == DyadicInterval(3, 2)
    assert iv.right_half() == DyadicInterval(3, 3)
    assert iv.contains(Fraction(1, 4))
    assert not iv.contains(Fraction(1, 2))  # half-open
    assert UNIT.contains_interval(iv)
    assert not iv.contains_interval(UNIT)


def test_interval_validation():
    with pytest.raises(ValueError):
        DyadicInterval(-1, 0)
    with pytest.raises(ValueError):
        DyadicInterval(2, 4)


def test_haar_value_examples():
    assert UNIT.haar(Fraction(1, 4)) == 1
    assert UNIT.haar(Fraction(1)) == 0
    # [1/2, 3/4): right half is [5/8, 3/4)
    assert DyadicInterval(2, 2).haar(Fraction(7, 10)) == -1


def test_haar_value_halves_and_boundary():
    iv = DyadicInterval(1, 1)  # [1/2, 1)
    assert iv.haar(Fraction(1, 2)) == 1
    assert iv.haar(iv.midpoint) == -1
    assert iv.haar(Fraction(1)) == 0
    assert iv.haar(Fraction(1, 4)) == 0


def test_haar_point_kernel_examples():
    assert haar_point_kernel(UNIT, Fraction(0)) == 0
    assert haar_point_kernel(UNIT, Fraction(1, 4)) == Fraction(-1, 4)
    assert haar_point_kernel(UNIT, Fraction(3, 4)) == Fraction(-1, 4)


def _kernel_quadrature(interval: DyadicInterval, p: Fraction) -> Fraction:
    """Independent oracle: exact Riemann sum of 1_{x>=p} h(x) on a grid fine
    enough that both factors are cell-constant (p must be dyadic)."""
    g = max(interval.scale + 1, p.denominator.bit_length() - 1)
    total = Fraction(0)
    for c in range(1 << g):
        lo = Fraction(c, 1 << g)
        if lo < p:
            continue
        total += interval.haar(Fraction(2 * c + 1, 1 << (g + 1))) * Fraction(1, 1 << g)
    return total


@pytest.mark.parametrize(
    "scale,index", [(0, 0), (1, 0), (1, 1), (2, 2), (3, 5)]
)
def test_haar_point_kernel_against_quadrature(scale, index):
    interval = DyadicInterval(scale, index)
    for num in range(0, 33):
        p = Fraction(num, 32)
        assert haar_point_kernel(interval, p) == _kernel_quadrature(interval, p)


@given(
    scale=st.integers(0, 6),
    index_seed=st.integers(0, 10**6),
    num=st.integers(0, 256),
)
def test_haar_point_kernel_range_and_zero_locus(scale, index_seed, num):
    interval = DyadicInterval(scale, index_seed % (1 << scale))
    p = Fraction(num, 256)
    k = haar_point_kernel(interval, p)
    assert -interval.length / 2 <= k <= 0
    inside_open = interval.left < p < interval.right
    assert (k != 0) == (inside_open and p != interval.left)


@pytest.mark.parametrize("scale,index", [(0, 0), (1, 1), (2, 1), (3, 6)])
def test_kernel_integrates_to_first_moment(scale, index):
    # integrating the kernel over p recovers the first moment of the Haar
    # function: -|I|^2/4.  The kernel is piecewise linear in p, so the
    # trapezoid sum over any refinement containing the breakpoints is exact.
    interval = DyadicInterval(scale, index)
    grid = [Fraction(t, 1 << (scale + 3)) for t in range((1 << (scale + 3)) + 1)]
    total = Fraction(0)
    for lo, hi in zip(grid, grid[1:]):
        total += (haar_point_kernel(interval, lo) + haar_point_kernel(interval, hi)) * (hi - lo) / 2
    assert total == -interval.length ** 2 / 4


def test_subdivide_examples():
    assert subdivide(UNIT, 1) == [DyadicInterval(1, 0), DyadicInterval(1, 1)]
    quarters = subdivide(DyadicInterval(1, 0), 2)
    assert len(quarters) == 4
    assert all(q.length == Fraction(1, 8) for q in quarters)
    assert quarters[0].left == 0
    # third child of [1/4, 1/2) at two extra bits
    third = subdivide(DyadicInterval(2, 1), 2)[2]
    assert third.left == Fraction(3, 8)
    assert third.right == Fraction(7, 16)
    with pytest.raises(ValueError):
        subdivide(UNIT, 0)


@given(
    bits=st.integers(1, 4),
    num=st.integers(0, 255),
)
def test_subdivide_partitions(bits, num):
    interval = DyadicInterval(2, 3)  # [3/4, 1)
    x = interval.left + Fraction(num, 256) * interval.length
    containing = [c for c in subdivide(interval, bits) if c.contains(x)]
    assert len(containing) == 1


def test_rectangle_area_and_haar():
    rect = DyadicRectangle(DyadicInterval(1, 0), DyadicInterval(2, 3))
    assert rect.area == Fraction(1, 8)
    # (x, y) in left half x right half -> -1
    assert rect.haar(Fraction(1, 8), Fraction(15, 16)) == -1
    assert rect.haar(Fraction(3, 4), Fraction(15, 16)) == 0
    assert DyadicRectangle.unit().area == 1
