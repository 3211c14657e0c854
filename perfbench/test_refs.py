"""Tests of the benchmark's independent references (refs.py).

Run from the root of a checkout:  python3 -m pytest perfbench/test_refs.py
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import refs  # noqa: E402


def test_sharp_constant_at_three_halves_is_the_gap_at_its_closed_form_root():
    x = (2.0 - math.sqrt(2.0)) / 4.0
    with mpmath.workdps(refs.DPS):
        at_root = float(refs.power_gap(1.5, mpmath.mpf(x)))
    assert refs.power_sharp_ref(1.5) == pytest.approx(at_root, abs=1e-15)


def test_centering_constant_at_three_halves():
    assert refs.power_centering_ref(1.5) == pytest.approx(
        math.sqrt(51.0 + 21.0 * math.sqrt(7.0)) / 9.0, abs=1e-15)


def test_power_references_at_the_square():
    assert refs.power_sharp_ref(2.0) == pytest.approx(1.0, abs=1e-15)
    assert refs.power_centering_ref(2.0) == pytest.approx(1.0, abs=1e-15)


def test_power_references_decrease_from_two_to_one():
    ps = [1.01, 1.2, 1.5, 1.8, 1.99]
    sharp = [refs.power_sharp_ref(p) for p in ps]
    cent = [refs.power_centering_ref(p) for p in ps]
    for col in (sharp, cent):
        assert all(1.0 < v < 2.0 for v in col)
        assert all(b < a for a, b in zip(col, col[1:]))


def test_centering_search_reaches_a_maximiser_next_to_the_edge():
    # at p = 1.01 the maximiser sits at c ~ 0.0048; a grid starting at
    # c = 0.005 reads the constant 6.5e-6 low
    c_star, value = refs.mp_maximize(lambda c: refs.power_centering_h(1.01, c), 0.0, 0.5)
    assert 0.004 < c_star < 0.005
    with mpmath.workdps(refs.DPS):
        late = max(refs.power_centering_h(1.01, mpmath.mpf(c))
                   for c in np.linspace(0.005, 0.5, 2000))
    assert float(value - late) == pytest.approx(6.5e-6, rel=0.05)


def test_centering_scan_approaches_the_power_constant_from_below():
    exact = math.sqrt(51.0 + 21.0 * math.sqrt(7.0)) / 9.0
    value, c, s = refs.centering_scan(refs.power(1.5), 0.5, 2.0, 2.0, 1e3, n=120)
    assert exact - 1e-4 < value <= exact + 1e-12
    assert 2.0 < s / c < 1e3


@pytest.mark.parametrize("t", [0.3, 1.0, 7.0])
def test_clip_family_sharp_constant_approaches_two(t):
    f = lambda x: refs.clipped_square(t, x)
    fp = lambda x: refs.clipped_square_slope(t, x)
    value, s, _ = refs.bregman_scan(f, fp, 1e-3 * t, 1e9 * t)
    assert 2.0 - 1e-3 < value <= 2.0 + 1e-12
    assert s > 1e3 * t  # approached only as the scale grows


def test_square_sharp_and_centering_constants_are_one():
    f = lambda x: refs.clipped_square(math.inf, x)
    fp = lambda x: refs.clipped_square_slope(math.inf, x)
    assert refs.bregman_scan(f, fp, 1e-3, 1e3)[0] == pytest.approx(1.0, abs=1e-12)
    assert refs.centering_ratio(f, 0.3, 1.0, 0.0) == 1.0
    assert refs.min_over_shift(f, 0.3, 1.0) == pytest.approx(
        float(refs.centering_U(f, 0.3, 1.0, 0.0)), rel=1e-15)


def test_clipped_square_matches_its_definition():
    x = np.linspace(-5.0, 5.0, 1001)
    for t in (0.5, 2.0):
        assert np.allclose(refs.clipped_square(t, x),
                           x * x - np.maximum(np.abs(x) - t, 0.0) ** 2, rtol=0, atol=1e-13)
        assert np.allclose(refs.clipped_square_slope(t, x),
                           np.sign(x) * 2.0 * np.minimum(t, np.abs(x)), rtol=0, atol=0)


@pytest.mark.parametrize("x1", [0.05, 0.1, 0.5])
def test_altspline_from_its_definition(x1):
    s = refs.AltSpline(x1)
    bp = s.breakpoints
    assert bp[0] == 0.0 and bp[1] == pytest.approx(x1, rel=1e-14)
    assert np.allclose(bp[2:] + 1.0, (bp[1:-1] + 1.0) ** 2, rtol=1e-12)
    for j in range(1, 6):
        a, b = bp[j], bp[j + 1]
        mid = np.linspace(a, b, 7)[1:-1]
        # f' is linear on the segment with slope (x_j + 1)**(-2/3)
        slope = np.diff(s.fp(mid)) / np.diff(mid)
        assert np.allclose(slope, (a + 1.0) ** (-2.0 / 3.0), rtol=1e-8)
        # f is continuous with f' across x_j and grows by the integral of f'
        eps = 1e-9 * b
        assert float(s.fp(b - eps)) == pytest.approx(float(s.fp(b)), rel=1e-7)
        grow = mpmath.quad(lambda v: float(s.fp(float(v))), [a, b])
        assert float(s.f(b) - s.f(a)) == pytest.approx(float(grow), rel=1e-9)
    assert float(s.f(-3.0)) == float(s.f(3.0)) and float(s.fp(-3.0)) == -float(s.fp(3.0))


def test_product_and_tree_expectations_enumerate_every_path():
    square = lambda x: np.asarray(x) ** 2
    law = refs.two_point_law(1.0, 3.0)       # variance 3
    assert refs.product_expectation([law, law, law], square) == pytest.approx(9.0)
    tree = ((1.0, 0.5, ((-2.0, 0.5, ()), (2.0, 0.5, ()))),
            (-1.0, 0.5, ((-1.0, 0.5, ()), (1.0, 0.5, ()))))
    lhs, moments = refs.tree_expectations(tree, square)
    assert lhs == pytest.approx(1.0 + 0.5 * 4.0 + 0.5 * 1.0)
    assert moments == pytest.approx([1.0, 2.5])


def test_concentration_and_sum_norm_sides_on_a_single_coordinate():
    # one coordinate, g the identity: rho(v) = |v - anchor|
    lhs, rhs = refs.concentration_sides(1.5, [[-1.0, 2.0]], [[2 / 3, 1 / 3]],
                                        np.array([-1.0, 2.0]), [0], 1.1, 1.2)
    assert lhs == pytest.approx(2 / 3 + 2.0 ** 1.5 / 3)
    assert rhs == pytest.approx(0.0 + 1.1 * 1.2 * (3.0 ** 1.5 / 3))
    lhs, rhs = refs.sum_norm_sides(2.0, [[[1.0, 0.0], [0.0, 1.0]]], [[0.5, 0.5]],
                                   [[0.0, 0.0]], 1.0, 1.0)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(2.0)


def test_proof_kernels_keep_their_signs():
    rng = np.random.default_rng(0)
    u, t = rng.uniform(0.0, 2.5, (2, 20000))
    x, c = rng.uniform(1e-9, 1.0 - 1e-9, (2, 20000))
    assert np.max(refs.cross_gap(u, t, x, c)) <= 1e-12
    assert np.max(refs.reflection_gap(t, x, 0.5 * c)) <= 1e-12
    assert np.min(refs.doubling_margin(t, 0.5 * c, 0.25 * c)) >= -1e-12
    # every kernel is quadratic once both clip levels reach 2: the gap vanishes
    assert np.max(np.abs(refs.cross_gap(2.0 + u, 2.0 + t, x, c))) <= 1e-12


def test_ordering_witnesses_in_exact_arithmetic():
    # (1, x, 1+x-c, |x-c|, 1-c, c, 1-x) at x = 0.1, c = 0.7
    assert refs.ordering_realised((1, 4, 2, 3, 5, 6, 0), 0.1, 0.7)
    assert not refs.ordering_realised((4, 1, 2, 3, 5, 6, 0), 0.1, 0.7)
    assert not refs.ordering_realised((1, 4, 2, 3, 5, 6, 0), 0.1, 0.4)  # 2c < 1
    # x = 0.5, c = 0.75 ties 1 + x - c with c: no strict ordering holds
    assert not refs.ordering_realised((1, 4, 3, 2, 5, 6, 0), 0.5, 0.75)
    assert not refs.ordering_realised((1, 4, 3, 5, 2, 6, 0), 0.5, 0.75)
