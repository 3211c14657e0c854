"""Sharp constants, explicit bounds, and centering constants."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vbesharp import (
    AltSplineParams,
    ConfigurationError,
    DomainError,
    altspline_momfun,
    bregman_gap,
    bregman_ratio_max,
    centering_argmin,
    centering_constant,
    centering_objective,
    expect_f,
    extreme_momfun,
    momfun_of_gamma,
    GammaMeasure,
    power_centering_constant,
    power_constant_bounds,
    power_gap,
    power_gap_argmax,
    power_momfun,
    power_sharp_constant,
    sharp_constant,
    spread_factor,
    two_point,
    vbe_D,
    vbe_constant,
)

P_GRID = [round(1.01 + 0.01 * i, 2) for i in range(100)]  # 1.01 .. 2.00


class TestBregmanGap:
    def test_square_gap_is_scale_squared(self):
        f = extreme_momfun(math.inf)
        for s, x in ((1.0, 0.5), (3.0, 1.2), (0.2, 0.11)):
            assert float(bregman_gap(f, s, x)) == pytest.approx(s * s, rel=1e-13)

    def test_clip_gap_is_flat_below_support(self):
        f = extreme_momfun(1.0)
        s = 0.8  # below the clip level: the gap equals f(s) for every x
        fs = float(f.eval(s))
        for x in (0.1, 0.4, 0.79):
            assert float(bregman_gap(f, s, x)) == pytest.approx(fs, rel=1e-13)

    def test_power_direct_arithmetic(self):
        f = power_momfun(1.5)
        expected = 0.75 ** 1.5 - 0.25 ** 1.5 + 1.5 * 0.25 ** 0.5
        assert float(bregman_gap(f, 1.0, 0.25)) == pytest.approx(expected, rel=1e-15)

    def test_domain(self):
        f = power_momfun(1.5)
        with pytest.raises(DomainError):
            bregman_gap(f, 1.0, 0.0)
        with pytest.raises(DomainError):
            bregman_gap(f, 1.0, 1.0)
        with pytest.raises(DomainError):
            bregman_gap(f, -1.0, 0.5)


class TestRatioMax:
    def test_clip_at_scale_three(self):
        res = bregman_ratio_max(extreme_momfun(1.0), 3.0)
        assert res.value == pytest.approx(8.0 / 5.0, abs=1e-9)
        assert dict(res.witness)["x_star"] == pytest.approx(1.0, abs=1e-6)

    def test_square_is_one(self):
        assert bregman_ratio_max(extreme_momfun(math.inf), 1.0).value == \
            pytest.approx(1.0, abs=1e-12)

    def test_power_matches_sharp_constant(self):
        res = bregman_ratio_max(power_momfun(1.5), 1.0)
        assert res.value == pytest.approx(power_sharp_constant(1.5).value, abs=1e-11)

    def test_power_scale_invariance(self):
        vals = [bregman_ratio_max(power_momfun(1.5), s).value for s in (0.5, 1.0, 7.0)]
        assert max(vals) - min(vals) < 1e-10

    def test_bounded_and_above_one_off_support(self):
        for f in (extreme_momfun(1.0), power_momfun(1.5)):
            for s in (f.s_f + 0.1 + 0.9, f.s_f + 2.3):
                v = bregman_ratio_max(f, s).value
                assert v >= 1.0 - 1e-12
                assert v > 1.0 + 1e-9


class TestClipProfileClosedForm:
    def test_scale_profile(self):
        # for the unit clip the maximal gap sits at x = 1 with value
        # s^2 - (s-2)_+^2, over f(s) = s^2 - (s-1)_+^2
        f = extreme_momfun(1.0)
        for s in (1.5, 2.0, 3.0, 5.0, 10.0):
            expected = (s * s - max(s - 2.0, 0.0) ** 2) / \
                (s * s - max(s - 1.0, 0.0) ** 2)
            assert bregman_ratio_max(f, s).value == pytest.approx(expected,
                                                                  rel=1e-10)

    def test_profile_approaches_two(self):
        f = extreme_momfun(1.0)
        assert bregman_ratio_max(f, 1e6).value == pytest.approx(2.0, abs=1e-5)

    def test_gap_slopes_at_edges(self):
        # above the support infimum the gap rises off 0 and falls into s
        for f, s in ((extreme_momfun(1.0), 3.0), (power_momfun(1.5), 1.0)):
            lo = [float(bregman_gap(f, s, x)) for x in (1e-7 * s, 2e-7 * s)]
            hi = [float(bregman_gap(f, s, s * (1 - r))) for r in (2e-7, 1e-7)]
            assert lo[1] > lo[0]
            assert hi[1] < hi[0]


class TestSharpConstant:
    def test_closed_forms(self):
        assert sharp_constant(extreme_momfun(math.inf)).value == 1.0
        assert sharp_constant(extreme_momfun(math.inf)).method == "closed_form"
        for t in (0.1, 1.0, 5.0, 10.0):
            res = sharp_constant(extreme_momfun(t))
            assert res.value == 2.0
            assert res.attained_in_limit
        assert sharp_constant(power_momfun(2.0)).value == 1.0

    def test_alternating_profile_not_monotone(self):
        f = altspline_momfun(AltSplineParams(0.2))
        hi = bregman_ratio_max(f, 1.06).value
        lo = bregman_ratio_max(f, 1.07).value
        assert lo < hi

    def test_grid_sup_path(self):
        f = altspline_momfun(AltSplineParams(0.2))
        res = sharp_constant(f, s_max=1e3, n_s=48)
        assert res.method == "grid_sup"
        assert 1.0 <= res.value <= 2.0
        assert "s_grid" in res.meta

    def test_grid_too_coarse(self):
        f = altspline_momfun(AltSplineParams(0.2))
        with pytest.raises(ConfigurationError):
            sharp_constant(f, n_s=4)

    def test_blended_measure_stays_in_range(self):
        blend = momfun_of_gamma(GammaMeasure(atoms=((0.5, 0.3), (2.0, 0.7))))
        res = sharp_constant(blend, s_max=1e3, n_s=40)
        assert 1.0 + 1e-6 < res.value <= 2.0 + 1e-12


class TestPowerGap:
    def test_quadratic_is_one(self):
        for x in np.linspace(0.05, 0.95, 19):
            assert float(power_gap(2.0, x)) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form_at_argmax(self):
        x_star = (2.0 - math.sqrt(2.0)) / 4.0
        assert float(power_gap(1.5, x_star)) == pytest.approx(
            math.sqrt(1.0 + 1.0 / math.sqrt(2.0)), rel=1e-15)

    def test_direct_arithmetic(self):
        expected = 0.6 ** 1.5 - 0.4 ** 1.5 + 1.5 * 0.4 ** 0.5
        assert float(power_gap(1.5, 0.4)) == pytest.approx(expected, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_gap(1.5, 0.0)
        with pytest.raises(DomainError):
            power_gap(2.5, 0.3)


class TestPowerArgmax:
    def test_half_integer_value(self):
        res = power_gap_argmax(1.5)
        assert res.value == pytest.approx((2.0 - math.sqrt(2.0)) / 4.0, abs=1e-12)
        assert abs(dict(res.witness)["residual"]) <= 1e-11

    def test_bracket(self):
        for p in (1.1, 1.5, 1.9):
            v = power_gap_argmax(p).value
            assert (p - 1.0) / 5.0 < v < (p - 1.0) / 2.0

    def test_against_dense_grid_argmax(self):
        # brute-force oracle: maximize the gap on a million-point grid
        p = 1.2
        xs = np.linspace(1e-6, 1.0 - 1e-6, 10 ** 6)
        vals = (1.0 - xs) ** p - xs ** p + p * xs ** (p - 1.0)
        assert abs(power_gap_argmax(p).value - xs[np.argmax(vals)]) <= 1e-6

    def test_residual_invariant_on_grid(self):
        for p in P_GRID[:-1]:
            res = power_gap_argmax(p)
            assert abs(dict(res.witness)["residual"]) <= 1e-11
            assert (p - 1.0) / 5.0 < res.value < (p - 1.0) / 2.0


class TestPowerSharpConstant:
    def test_quadratic_exact(self):
        assert power_sharp_constant(2.0).value == 1.0

    def test_half_integer_fast_and_exact(self):
        t0 = time.perf_counter()
        val = power_sharp_constant(1.5).value
        assert time.perf_counter() - t0 < 1.0
        assert val == pytest.approx(1.3065629648763766, abs=1e-9)

    def test_near_one_limit(self):
        val = power_sharp_constant(1.01).value
        assert 1.9 < val < 2.0
        xs = np.linspace(1e-7, 1.0 - 1e-7, 200001)
        grid_max = np.max((1.0 - xs) ** 1.01 - xs ** 1.01 + 1.01 * xs ** 0.01)
        assert val == pytest.approx(float(grid_max), abs=1e-7)

    def test_strictly_decreasing(self):
        vals = [power_sharp_constant(p).value for p in P_GRID]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(1.0 <= v <= 2.0 for v in vals)


class TestBoundChain:
    def test_envelope_value(self):
        assert power_constant_bounds(1.5).envelope == pytest.approx(math.sqrt(2.0),
                                                                    rel=1e-15)

    def test_ordering_at_half(self):
        b = power_constant_bounds(1.5)
        assert max(b.lower_1, b.lower_2) < b.sharp
        assert b.sharp < min(b.upper_1, b.upper_2) <= b.upper_2 < b.envelope

    def test_endpoint_exactness(self):
        assert power_constant_bounds(1.001).lower_1 == pytest.approx(2.0, abs=0.01)
        assert power_constant_bounds(1.999).upper_2 == pytest.approx(1.0, abs=0.01)

    def test_chain_strict_on_grid(self):
        for p in P_GRID[:-1]:
            b = power_constant_bounds(p)
            assert max(b.lower_1, b.lower_2) < b.sharp < min(b.upper_1, b.upper_2) \
                <= b.upper_2 < b.envelope, p


class TestClassicalConstants:
    def test_endpoints(self):
        assert vbe_D(2.0) == 0.0
        assert vbe_constant(2.0) == 1.0
        assert vbe_D(1.0) == pytest.approx(26.0 / (5.0 * math.pi), rel=1e-15)
        assert math.isinf(vbe_constant(1.0))

    def test_dominates_envelope(self):
        for p in np.arange(1.0, 1.95, 0.1):
            p = float(round(p, 2))
            w = 2.0 ** (2.0 - p)
            assert vbe_constant(p) > w

    def test_decreasing_in_exponent(self):
        ps = np.linspace(1.0, 2.0, 101)
        vals = [vbe_D(float(p)) for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_small_beyond_sixteen_tenths(self):
        # the factor stays below 1/2 on [1.6, 2], where the classical
        # constant can undercut 2 - 1/n
        for p in np.linspace(1.6, 2.0, 21):
            assert vbe_D(float(p)) < 0.5

    def test_domain(self):
        with pytest.raises(DomainError):
            vbe_D(0.5)


class TestCenteringObjective:
    def test_matches_shifted_two_point_mean(self):
        # objective(c, s, a) = s * E f(a + two-pointer at (c, s-c))
        f = power_momfun(1.5)
        for c, s, a in ((1.0, 3.0, 0.0), (0.3, 1.0, 0.1), (2.0, 9.0, 1.5)):
            dist = two_point(c, s - c).shift(a)
            assert float(centering_objective(f, c, s, a)) == pytest.approx(
                s * expect_f(dist, f), rel=1e-13)

    def test_square_value(self):
        f = extreme_momfun(math.inf)
        assert float(centering_objective(f, 1.0, 3.0, 0.0)) == pytest.approx(6.0)

    def test_convex_in_shift(self):
        f = power_momfun(1.5)
        a = np.linspace(-2.0, 2.0, 201)
        vals = np.array([float(centering_objective(f, 0.7, 2.0, ai)) for ai in a])
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            centering_objective(power_momfun(1.5), 2.0, 1.0, 0.0)


class TestCenteringArgmin:
    def test_clip_closed_form(self):
        assert centering_argmin(extreme_momfun(1.0), 1.0, 3.0).value == \
            pytest.approx(0.5, abs=1e-14)
        # clip at or above the upper spread: the minimizer collapses to 0
        assert centering_argmin(extreme_momfun(2.0), 1.0, 3.0).value == 0.0
        assert centering_argmin(extreme_momfun(math.inf), 1.0, 3.0).value == 0.0

    def test_power_closed_form_vs_numeric(self):
        f = power_momfun(1.5)
        c = 0.081
        closed = centering_argmin(f, c, 1.0).value
        # independent numeric minimization on the same interval
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(lambda a: float(centering_objective(f, c, 1.0, a)),
                              bounds=(0.0, c), method="bounded",
                              options={"xatol": 1e-12})
        assert closed == pytest.approx(res.x, abs=1e-8)

    def test_generic_numeric_path_matches_closed_form(self):
        clip = momfun_of_gamma(GammaMeasure(atoms=((1.0, 1.0),)))  # kind from_gamma
        a_num = centering_argmin(clip, 1.0, 3.0).value
        # golden section resolves the argmin of a quadratic-bottomed objective
        # only to ~sqrt(eps * U / U'') in the argument
        assert a_num == pytest.approx(0.5, abs=5e-8)

    def test_in_range(self):
        for c, s in ((0.2, 1.0), (1.0, 5.0), (3.0, 100.0)):
            a = centering_argmin(power_momfun(1.3), c, s).value
            assert 0.0 <= a < c

    def test_domain(self):
        with pytest.raises(DomainError):
            centering_argmin(power_momfun(1.5), 1.0, 1.5)


class TestCenteringConstant:
    def test_square_is_one(self):
        res = centering_constant(extreme_momfun(math.inf))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_clip_grid_bound(self):
        res = centering_constant(extreme_momfun(1.0))
        assert res.value >= 1.95
        assert res.value <= 2.0 + 1e-9
        assert res.attained_in_limit

    def test_clip_closed_form(self):
        res = centering_constant(extreme_momfun(1.0))
        assert (res.value, res.method, res.attained_in_limit) == (2.0, "closed_form", True)
        res = centering_constant(extreme_momfun(math.inf))
        assert (res.value, res.method, res.attained_in_limit) == (1.0, "closed_form", False)

    def test_power_matches_closed_form(self):
        res = centering_constant(power_momfun(1.5))
        target = power_centering_constant(1.5).value
        assert res.value == pytest.approx(target, abs=1e-6)
        assert res.value <= target + 1e-9  # still a lower bound

    def test_ratio_validation(self):
        with pytest.raises(DomainError):
            centering_constant(power_momfun(1.5), ratios=(1.5,))

    def test_large_scale_ratio_limit(self):
        # for the unit clip at spread c the zero-to-minimum ratio tends to
        # 2 - 1/(2c) as the scale grows
        f = extreme_momfun(1.0)
        c, s = 50.0, 1e7
        a = centering_argmin(f, c, s).value
        ratio = float(centering_objective(f, c, s, 0.0)) / \
            float(centering_objective(f, c, s, a))
        assert ratio == pytest.approx(2.0 - 1.0 / (2.0 * c), abs=1e-4)


class TestPowerCenteringConstant:
    def test_quadratic(self):
        assert power_centering_constant(2.0).value == 1.0

    def test_half_integer_closed_form(self):
        res = power_centering_constant(1.5)
        assert res.value == pytest.approx(math.sqrt(51.0 + 21.0 * math.sqrt(7.0)) / 9.0,
                                          abs=1e-9)
        c_target = (3.0 - math.sqrt(1.0 + 2.0 * math.sqrt(7.0))) / 6.0
        assert dict(res.witness)["c_star"] == pytest.approx(c_target, abs=1e-6)

    def test_near_one_limit(self):
        val = power_centering_constant(1.01).value
        assert 1.9 < val < 2.0
        # dense-grid oracle
        cs = np.linspace(1e-9, 0.5, 200001)
        p, e = 1.01, 1.0 / 0.01
        h = (cs ** (p - 1) + (1 - cs) ** (p - 1)) * (cs ** e + (1 - cs) ** e) ** (p - 1)
        assert val == pytest.approx(float(np.max(h)), abs=1e-7)

    def test_strictly_decreasing(self):
        vals = [power_centering_constant(p).value for p in P_GRID]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(1.0 <= v <= 2.0 for v in vals)


class TestSpreadFactor:
    def test_values(self):
        assert spread_factor(2.0, 1.0, 2) == 1.5
        assert spread_factor(1.0, 0.5, 7) == 1.0

    def test_never_exceeds_input(self):
        for n in (2, 5, 50):
            assert spread_factor(power_sharp_constant(1.4).value, 1.0, n) <= \
                2.0 - 1.0 / n + 1e-15

    @given(st.floats(1.0, 2.0), st.floats(0.01, 1.0), st.integers(2, 100))
    def test_range(self, C, frac, n):
        lam = frac * n
        K = spread_factor(C, lam, n)
        assert 1.0 - 1e-12 <= K <= C + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            spread_factor(2.0, 3.0, 2)
        with pytest.raises(DomainError):
            spread_factor(0.5, 1.0, 2)
