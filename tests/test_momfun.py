"""Moment-function families, their calculus, and the mixing-measure maps."""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vbesharp import (
    AltSplineParams,
    DomainError,
    GammaMeasure,
    InvariantError,
    MomentFunction,
    altspline_momfun,
    block_position,
    clipped_square,
    clipped_square_slope,
    effective_exponent,
    extreme_momfun,
    from_second_derivative,
    gamma_of,
    limiting_exponent,
    momfun_of_gamma,
    power_momfun,
)

from conftest import fd_deriv, kink_free_log_grid

# log-uniform magnitudes over thirty decades
DECADES = st.floats(-15.0, 15.0).map(lambda e: 10.0 ** e)
U = 2.0 ** -53


def ulps(got, exact):
    """|got - exact| in units in the last place of exact rounded to a double."""
    return abs(Fraction(float(got)) - exact) / Fraction(math.ulp(float(exact)))


class TestClippedSquare:
    def test_point_values(self):
        assert clipped_square(math.inf, 3.0) == 9.0
        assert clipped_square(2.0, 1.0) == 1.0
        assert clipped_square(1.0, 3.0) == 5.0  # 9 - (3-1)^2

    def test_slope_values(self):
        assert clipped_square_slope(1.0, 3.0) == 2.0
        assert clipped_square_slope(math.inf, 3.0) == 6.0
        assert clipped_square_slope(0.5, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            clipped_square(0.0, 1.0)
        with pytest.raises(DomainError):
            clipped_square(-2.0, 1.0)
        with pytest.raises(DomainError):
            clipped_square_slope(1.0, -1.0)

    @given(st.floats(1e-6, 1e6), st.floats(-1e6, 1e6))
    def test_bounds(self, t, x):
        # the defining subtraction carries absolute error ~eps * x^2
        fp = 4.0 * 2.2e-16 * x * x + 1e-12
        v = float(clipped_square(t, x))
        assert -fp <= v <= x * x + fp
        assert v <= 2.0 * t * abs(x) + fp
        assert v == float(clipped_square(t, -x))

    @given(DECADES, DECADES, st.booleans())
    @example(1.0, 1e16, False)
    @example(1e-8, 1.0, True)
    def test_exact_rationals(self, t, x, negative):
        # m*(2|x| - m) with m = min(|x|, t): one rounding up to the clip, two
        # beyond it, and nothing cancels however far |x| lies past t
        T, X = Fraction(t), Fraction(x)
        exact = X * X if X <= T else 2 * T * X - T * T
        assert ulps(clipped_square(t, -x if negative else x), exact) <= 2

    @given(DECADES, DECADES, DECADES, st.integers(-50, 50))
    def test_homogeneous(self, t, x, lam, k):
        # a power of two commutes with every rounding
        two_k = 2.0 ** k
        assert clipped_square(two_k * t, two_k * x) == two_k ** 2 * clipped_square(t, x)
        # otherwise: 3u from rounding lam*t and lam*x (relative condition
        # numbers at most 1 and 2), 2u per kernel evaluation, 2u for lam**2 * v
        lhs = clipped_square(lam * t, lam * x)
        rhs = lam * lam * clipped_square(t, x)
        assert abs(lhs - rhs) <= 10 * U * rhs

    def test_small_clip_limit(self):
        # clipped_square(t, x)/(2t) converges to |x| with error exactly t/2
        # at the kink and never more
        xs = np.concatenate([np.linspace(-5, 5, 801), [0.0]])
        for t in (1e-1, 1e-2, 1e-3):
            disc = np.max(np.abs(clipped_square(t, xs) / (2.0 * t) - np.abs(xs)))
            fp = 4.0 * 2.2e-16 * 25.0 / (2.0 * t)
            assert disc <= 0.5 * t + fp
            assert disc <= t


class TestPowerFamily:
    def test_values(self):
        f = power_momfun(2.0)
        assert float(f.eval(3.0)) == 9.0
        assert float(f.deriv(3.0)) == 6.0
        f = power_momfun(1.5)
        assert float(f.eval(4.0)) == pytest.approx(8.0, rel=1e-15)
        assert float(f.eval(0.0)) == 0.0
        assert float(f.deriv(0.0)) == 0.0

    def test_domain(self):
        for p in (1.0, 0.9, 2.1):
            with pytest.raises(DomainError):
                power_momfun(p)

    def test_metadata(self):
        assert power_momfun(1.5).s_f == 0.0
        assert math.isinf(power_momfun(2.0).s_f)
        assert power_momfun(1.7).homogeneous_degree == 1.7


class TestExtremeFamily:
    def test_second_deriv_right_limits(self):
        f = extreme_momfun(1.0)
        assert float(f.second_deriv(0.5)) == 2.0
        assert float(f.second_deriv(2.0)) == 0.0
        assert float(f.second_deriv(1.0)) == 0.0  # right limit at the kink

    def test_infinite_clip_is_square(self):
        f = extreme_momfun(math.inf)
        xs = np.geomspace(1e-3, 1e3, 41)
        np.testing.assert_allclose(f.eval(xs), xs * xs, rtol=1e-15)

    def test_support_infimum(self):
        assert extreme_momfun(2.5).s_f == 2.5


def test_family_shared_invariants(pool):
    for f, kinks in pool:
        grid = kink_free_log_grid(avoid=kinks)
        vals = np.asarray(f.eval(grid), dtype=float)
        np.testing.assert_allclose(np.asarray(f.eval(-grid), dtype=float), vals,
                                   rtol=1e-14, err_msg=f.label)
        assert float(f.eval(0.0)) == 0.0
        assert float(f.deriv(0.0)) == 0.0
        fpp = np.asarray(f.second_deriv(grid), dtype=float)
        assert np.all(fpp >= 0.0), f.label
        assert np.all(np.diff(fpp) <= 1e-9 * (1.0 + fpp[:-1])), f.label


def test_family_derivative_consistency(pool):
    for f, kinks in pool:
        grid = kink_free_log_grid(lo=1e-2, hi=1e2, n=25, avoid=kinks, pad=1e-2)
        for x in grid:
            x = float(x)
            d_fd = fd_deriv(f.eval, x, h=1e-7 * max(x, 1.0))
            assert abs(float(f.deriv(x)) - d_fd) <= 1e-6 * max(1.0, abs(d_fd)), \
                (f.label, x)
            dd_fd = fd_deriv(f.deriv, x, h=1e-7 * max(x, 1.0))
            assert abs(float(f.second_deriv(x)) - dd_fd) <= 1e-5 * max(1.0, abs(dd_fd)), \
                (f.label, x)


def test_family_convexity(pool):
    for f, kinks in pool:
        xs = np.linspace(-8.0, 8.0, 401)
        vals = np.asarray(f.eval(xs), dtype=float)
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-9 * np.maximum(1.0, np.abs(vals[1:-1]))), f.label


class TestAltSpline:
    def test_breakpoint_recurrence(self):
        bp = AltSplineParams(0.1).breakpoints
        assert bp[0] == 0.0 and bp[1] == pytest.approx(0.1, abs=1e-15)
        for j in range(1, len(bp) - 1):
            assert bp[j + 1] + 1.0 == pytest.approx((bp[j] + 1.0) ** 2, rel=1e-12)

    def test_quadratic_core(self):
        f = altspline_momfun(AltSplineParams(0.1))
        for x in (0.01, 0.05, 0.0999):
            assert float(f.eval(x)) == pytest.approx(0.5 * x * x, rel=1e-13)

    def test_second_derivative_steps(self):
        x1 = 0.1
        f = altspline_momfun(AltSplineParams(x1))
        assert float(f.second_deriv(0.15)) == pytest.approx((x1 + 1.0) ** (-2.0 / 3.0),
                                                            rel=1e-14)

    @staticmethod
    def _reference_eval(x1, j, x):
        # direct transcription of the defining segment-j sum
        bps = [0.0, x1]
        while len(bps) < j + 2:
            bps.append((bps[-1] + 1.0) ** 2 - 1.0)
        total = (x - bps[j]) ** 2 / (2.0 * (bps[j] + 1.0) ** (2.0 / 3.0))
        for k in range(j):
            total += ((x - 0.5 * (bps[k] + bps[k + 1])) * (bps[k + 1] - bps[k])
                      / (bps[k] + 1.0) ** (2.0 / 3.0))
        return total, bps

    @staticmethod
    def _reference_slope(x1, j, x):
        bps = [0.0, x1]
        while len(bps) < j + 2:
            bps.append((bps[-1] + 1.0) ** 2 - 1.0)
        total = (x - bps[j]) / (bps[j] + 1.0) ** (2.0 / 3.0)
        for k in range(j):
            total += (bps[k + 1] - bps[k]) / (bps[k] + 1.0) ** (2.0 / 3.0)
        return total

    def test_continuity_at_breakpoints(self):
        x1 = 0.1
        f = altspline_momfun(AltSplineParams(x1))
        bp = f.param.breakpoints
        for j in range(1, 9):
            xj = float(bp[j])
            left, _ = self._reference_eval(x1, j - 1, xj)
            right, _ = self._reference_eval(x1, j, xj)
            assert right == pytest.approx(left, rel=1e-9)
            assert float(f.eval(xj)) == pytest.approx(right, rel=1e-12)
            sl = self._reference_slope(x1, j - 1, xj)
            sr = self._reference_slope(x1, j, xj)
            assert sr == pytest.approx(sl, rel=1e-9)
            assert float(f.deriv(xj)) == pytest.approx(sr, rel=1e-12)

    def test_matches_reference_inside_segments(self):
        x1 = 0.2
        f = altspline_momfun(AltSplineParams(x1))
        bp = f.param.breakpoints
        for j in range(0, 7):
            x = 0.5 * (bp[j] + bp[j + 1])
            ref, _ = self._reference_eval(x1, j, x)
            assert float(f.eval(x)) == pytest.approx(ref, rel=1e-12)

    @staticmethod
    def _exact(f, x):
        """(f(x), f'(x)) in exact rationals from the spline's own float
        breakpoints and curvatures, by the defining segment sums."""
        bp = f.param.breakpoints
        B = [Fraction(b) for b in bp]
        C = [Fraction(float(f.second_deriv(b))) for b in bp[:-1]]
        j = bisect.bisect_right(bp, x) - 1
        X = Fraction(x)
        slope = sum(C[k] * (B[k + 1] - B[k]) for k in range(j)) + C[j] * (X - B[j])
        value = sum(C[k] * (B[k + 1] - B[k]) * (X - (B[k] + B[k + 1]) / 2)
                    for k in range(j)) + C[j] * (X - B[j]) ** 2 / 2
        return value, slope

    @settings(deadline=None)
    @given(st.sampled_from([0.1, 0.15, 0.2]), st.floats(0.0, 1.0))
    def test_exact_rationals(self, x1, u):
        # worst seen over 75000 log-uniform points: 3.6 ulps for f, 2.0 for f'
        f = altspline_momfun(AltSplineParams(x1))
        lo, hi = math.log(1e-3), math.log(0.999 * f.param.breakpoints[-1])
        x = math.exp(lo + u * (hi - lo))
        value, slope = self._exact(f, x)
        assert ulps(f.eval(x), value) <= 4
        assert ulps(f.deriv(x), slope) <= 4

    def test_exact_rationals_at_breakpoints(self):
        for x1 in (0.1, 0.15, 0.2):
            f = altspline_momfun(AltSplineParams(x1))
            for b in f.param.breakpoints[1:-1]:
                for x in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)):
                    value, slope = self._exact(f, x)
                    assert ulps(f.eval(x), value) <= 4, (x1, x)
                    assert ulps(f.deriv(x), slope) <= 4, (x1, x)

    def test_no_overflow_below_top(self):
        # squaring |x| - x_j overflowed from |x| ~ 1.4e154, below top = 1.46e162
        f = altspline_momfun(AltSplineParams(0.2))
        value, slope = self._exact(f, 1e160)
        assert ulps(f.eval(1e160), value) <= 4
        assert ulps(f.eval(-1e160), value) <= 4
        assert ulps(f.deriv(1e160), slope) <= 4
        assert float(f.eval(1e160)) == pytest.approx(4.41e265, rel=1e-3)

    def test_range_guard(self):
        f = altspline_momfun(AltSplineParams(0.1, max_level=4))
        with pytest.raises(DomainError):
            f.eval(1e9)

    def test_bad_x1(self):
        with pytest.raises(DomainError):
            AltSplineParams(-0.1)


class TestFromSecondDerivative:
    def test_constant_curvature(self):
        f = from_second_derivative(lambda u: 2.0)
        for x in (0.3, 1.0, 7.7):
            assert float(f.eval(x)) == pytest.approx(x * x, abs=1e-10)

    def test_inverse_square_decay(self):
        f = from_second_derivative(lambda u: (1.0 + u) ** -2, breakpoints=(1.0,))
        for x in (0.01, 0.5, 3.0, 50.0):
            assert float(f.eval(x)) == pytest.approx(x - math.log1p(x), rel=1e-8,
                                                     abs=1e-12)

    def test_exponential_decay(self):
        f = from_second_derivative(lambda u: math.exp(-u))
        for x in (0.01, 1.0, 10.0, 50.0):
            assert float(f.eval(x)) == pytest.approx(math.exp(-x) - 1.0 + x,
                                                     rel=1e-8, abs=1e-12)

    def test_even_extension(self):
        f = from_second_derivative(lambda u: math.exp(-u))
        assert float(f.eval(-2.0)) == pytest.approx(float(f.eval(2.0)), rel=1e-13)
        assert float(f.deriv(-2.0)) == pytest.approx(-float(f.deriv(2.0)), rel=1e-13)

    def test_shifted_power_curvature(self):
        # curvature (1+x)^(p-2) integrates to ((1+x)^p - 1 - p x)/(p (p-1)),
        # quadratic at the origin and a pure power at infinity
        p = 1.5
        f = from_second_derivative(lambda u: (1.0 + u) ** (p - 2.0))
        for x in (0.01, 1.0, 20.0):
            closed = ((1.0 + x) ** p - 1.0 - p * x) / (p * (p - 1.0))
            assert float(f.eval(x)) == pytest.approx(closed, rel=1e-8)
        assert float(f.eval(1e-4)) == pytest.approx(0.5 * 1e-8, rel=1e-3)

    def test_increasing_curvature_rejected(self):
        with pytest.raises(InvariantError):
            from_second_derivative(lambda u: u)


class TestGammaRecovery:
    def test_single_clip_atom(self):
        g = gamma_of(extreme_momfun(1.0), np.geomspace(1e-3, 1e3, 400))
        assert len(g.atoms) == 1
        t, w = g.atoms[0]
        assert t == pytest.approx(1.0, abs=1e-10)
        assert w == pytest.approx(1.0, abs=1e-12)
        assert g.step_edges is None

    def test_square_gives_tail_atom(self):
        g = gamma_of(extreme_momfun(math.inf), np.geomspace(1e-3, 1e3, 100))
        assert g.atoms == ((math.inf, 1.0),)

    def test_power_density_shape(self):
        # curvature/2 = (3/8) x^{-1/2}, so its negative slope is the density
        # (3/16) t^{-3/2}
        grid = np.geomspace(1e-6, 1e3, 900)
        g = gamma_of(power_momfun(1.5), grid)
        assert all(math.isinf(t) for t, _ in g.atoms)
        mids = np.sqrt(g.step_edges[:-1] * g.step_edges[1:])
        expected = (3.0 / 16.0) * mids ** -1.5
        rel = np.abs(g.step_values / expected - 1.0)
        assert np.max(rel) < 0.02

    def test_increasing_curvature_detected(self):
        rising = MomentFunction(
            eval=lambda x: np.asarray(x, dtype=float) ** 4,
            deriv=lambda x: 4.0 * np.asarray(x, dtype=float) ** 3,
            second_deriv=lambda x: 12.0 * np.asarray(x, dtype=float) ** 2,
            kind="from_second_deriv")
        with pytest.raises(InvariantError):
            gamma_of(rising, np.geomspace(0.1, 10.0, 30))

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            gamma_of(extreme_momfun(1.0), np.array([0.0, 1.0, 2.0]))


class TestMixtureAssembly:
    def test_single_atom_is_clipped_square(self):
        f = momfun_of_gamma(GammaMeasure(atoms=((1.0, 1.0),)))
        xs = np.geomspace(1e-2, 1e2, 31)
        np.testing.assert_allclose(np.asarray(f.eval(xs)),
                                   clipped_square(1.0, xs), rtol=1e-14)

    def test_two_atom_blend(self):
        f = momfun_of_gamma(GammaMeasure(atoms=((1.0, 0.5), (math.inf, 0.5))))
        xs = np.geomspace(1e-2, 1e2, 31)
        expected = 0.5 * clipped_square(1.0, xs) + 0.5 * xs * xs
        np.testing.assert_allclose(np.asarray(f.eval(xs)), expected, rtol=1e-14)

    def test_closed_form_density(self):
        g = GammaMeasure(
            density=lambda t: (3.0 / 16.0) * t ** -1.5,
            density_breakpoints=(1.0,),
            density_tail_mass=lambda T: (3.0 / 8.0) * T ** -0.5,
        )
        f = momfun_of_gamma(g)
        for x in np.geomspace(0.1, 10.0, 9):
            assert float(f.eval(x)) == pytest.approx(x ** 1.5, rel=1e-6)

    def test_atoms_and_steps_match_exact_integrals(self):
        # an atom inside a step cell, one beyond it, and a square component
        atoms = ((0.3, 0.5), (2.0, 0.25), (math.inf, 0.1))
        edges, values = np.array([0.1, 0.5, 1.0, 4.0]), np.array([0.4, 0.2, 0.05])
        f = momfun_of_gamma(GammaMeasure(atoms=atoms, step_edges=edges,
                                         step_values=values))
        xs = [*np.geomspace(1e-4, 1e6, 41), 0.1, 0.3, 0.5, 1.0, 2.0, 4.0]
        got = [np.asarray(f.eval(xs)), np.asarray(f.deriv(xs)),
               np.asarray(f.second_deriv(xs))]
        for i, x in enumerate(xs):
            X = Fraction(x)
            exact = [Fraction(0)] * 3
            for t, w in atoms:
                m = X if math.isinf(t) else min(Fraction(t), X)
                exact[0] += Fraction(w) * m * (2 * X - m)
                exact[1] += 2 * Fraction(w) * m
                exact[2] += 2 * Fraction(w) * (t > x)
            for a, b, v in zip(edges[:-1], edges[1:], values):
                A, B, V = Fraction(a), Fraction(b), Fraction(v)
                lo, hi = min(A, X), min(B, X)     # the cell's part below |x|
                above = max(B - max(A, X), 0)     # and its length above
                exact[0] += V * (X * (hi * hi - lo * lo) - (hi ** 3 - lo ** 3) / 3
                                 + X * X * above)
                exact[1] += V * (hi * hi - lo * lo + 2 * X * above)
                exact[2] += 2 * V * above
            for k in range(3):
                assert abs(Fraction(float(got[k][i])) - exact[k]) <= 1e-15 * exact[k], (k, x)
            assert float(f.deriv(-x)) == -float(got[1][i])

    def test_atom_validation(self):
        with pytest.raises(DomainError):
            GammaMeasure(atoms=((0.0, 1.0),))
        with pytest.raises(DomainError):
            GammaMeasure(atoms=((1.0, -1.0),))

    def test_non_integrable_density_rejected(self):
        bad = GammaMeasure(density=lambda t: t ** -2.5,
                           density_breakpoints=(1.0,),
                           density_tail_mass=lambda T: (2.0 / 3.0) * T ** -1.5)
        with pytest.raises(InvariantError):
            momfun_of_gamma(bad)


def _stepped_momfun():
    # atoms and a step density: the cubic term (c1 != 0) is live on the cells
    edges = (0.1, 0.5, 1.0, 4.0)
    atoms = ((0.3, 0.5), (2.0, 0.25), (math.inf, 0.1))
    f = momfun_of_gamma(GammaMeasure(atoms=atoms, step_edges=np.array(edges),
                                     step_values=np.array([0.4, 0.2, 0.05])))
    # the piece ends; the last piece is unbounded, sampled up to 1e6
    return f, sorted({0.0, *edges, 0.3, 2.0, 1e6})


def _piecewise_cases():
    cases = []
    for x1 in (0.1, 0.2):
        f = altspline_momfun(AltSplineParams(x1))
        cases.append((f, f.param.breakpoints.tolist()))  # the last one is top
    return cases + [_stepped_momfun()]


PIECEWISE = _piecewise_cases()


class TestFloatPath:
    """A float is evaluated without numpy, an array with it; the two must
    agree bit for bit."""

    @staticmethod
    def _both(fn, x):
        return fn(x), fn(np.array([x]))[0]

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(range(len(PIECEWISE))), st.integers(0, 10 ** 6),
           st.floats(0.0, 1.0), st.sampled_from(["inside", "at", "zero"]),
           st.booleans(), st.booleans())
    def test_matches_array_path(self, case, k, u, where, negative, np_scalar):
        f, ends = PIECEWISE[case]
        j = k % (len(ends) - 1)
        lo, hi = ends[j], ends[j + 1]
        x = {"inside": min(lo + u * (hi - lo), math.nextafter(hi, 0.0)),
             "at": lo, "zero": 0.0}[where]
        x = -x if negative else x
        x = np.float64(x) if np_scalar else x
        for fn in (f.eval, f.deriv, f.second_deriv):
            got, want = self._both(fn, x)
            assert type(got) is float, fn
            assert got.hex() == float(want).hex(), (fn, x)

    def test_nan(self):
        for f, _ in PIECEWISE:
            for fn in (f.eval, f.deriv, f.second_deriv):
                got, want = self._both(fn, math.nan)
                assert math.isnan(got) and math.isnan(want)

    def test_range_guard_on_both_paths(self):
        f = altspline_momfun(AltSplineParams(0.1, max_level=4))
        top = float(f.param.breakpoints[-1])
        for x in (top, -top, math.inf, np.float64(top)):
            for fn in (f.eval, f.deriv, f.second_deriv):
                messages = []
                for arg in (x, np.array([x])):
                    with pytest.raises(DomainError) as err:
                        fn(arg)
                    messages.append(str(err.value))
                assert messages[0] == messages[1]


class TestRoundTrips:
    ATOMIC_TOL = 1e-6   # purely atomic families recover exactly
    DENSITY_TOL = 1e-2  # power families: grid discretization dominates

    def test_atomic_families(self):
        xs = np.geomspace(1e-2, 1e2, 31) * 1.0371
        cases = [
            (extreme_momfun(1.0), np.geomspace(1e-3, 1e3, 400)),
            (extreme_momfun(math.inf), np.geomspace(1e-3, 1e3, 100)),
            (altspline_momfun(AltSplineParams(0.1)), np.geomspace(1e-3, 1e3, 600)),
        ]
        for f, grid in cases:
            r = momfun_of_gamma(gamma_of(f, grid))
            rel = np.abs(np.asarray(r.eval(xs)) / np.asarray(f.eval(xs)) - 1.0)
            assert np.max(rel) < self.ATOMIC_TOL, f.label

    def test_power_families(self):
        # the gamma grid must start far below the evaluation range: mass at
        # clip levels below t contributes a (t/x)^(p-1) relative share
        xs = np.geomspace(0.1, 10.0, 25)
        grid = np.geomspace(1e-9, 1e3, 1500)
        for p in (1.3, 1.7):
            f = power_momfun(p)
            r = momfun_of_gamma(gamma_of(f, grid))
            rel = np.abs(np.asarray(r.eval(xs)) / np.asarray(f.eval(xs)) - 1.0)
            assert np.max(rel) < self.DENSITY_TOL, p

    def test_derivative_round_trip(self):
        f = extreme_momfun(1.0)
        r = momfun_of_gamma(gamma_of(f, np.geomspace(1e-3, 1e3, 400)))
        xs = np.geomspace(1e-2, 1e2, 19) * 1.0371
        for x in xs:
            assert float(r.deriv(x)) == pytest.approx(float(f.deriv(x)), rel=1e-9)
            assert float(r.second_deriv(x)) == pytest.approx(
                float(f.second_deriv(x)), abs=1e-9)


class TestEffectiveExponent:
    def test_limiting_profile_values(self):
        assert limiting_exponent(4.0 / 3.0) == pytest.approx(1.5, abs=1e-15)
        assert limiting_exponent(1.0) == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert limiting_exponent(2.0) == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_block_position_boundary(self):
        params = AltSplineParams(0.1)
        j = 5
        x = (params.breakpoints[j] + 1.0) ** (4.0 / 3.0) - 1.0
        assert block_position(params, x) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_block_position_spans_one_to_two(self):
        params = AltSplineParams(0.1)
        bp = params.breakpoints
        for j in (2, 5, 7):
            just_inside = bp[j] * (1.0 + 1e-12) + 1e-12
            assert block_position(params, just_inside) == pytest.approx(1.0,
                                                                        abs=1e-6)
            assert block_position(params, float(bp[j + 1])) == pytest.approx(
                2.0, rel=1e-12)

    def test_desk_check_midpoints(self):
        params = AltSplineParams(0.1)
        j = 8
        lq = math.log(params.q)
        for frac in (1.0, 4.0 / 3.0, 1.5, 1.75, 2.0):
            x = math.expm1(2.0 ** (j - 1) * lq * frac)
            r = block_position(params, x)
            assert abs(effective_exponent(params, x) - limiting_exponent(r)) <= 0.1

    def test_domain(self):
        params = AltSplineParams(0.1)
        with pytest.raises(DomainError):
            effective_exponent(params, 1.0)
        with pytest.raises(DomainError):
            block_position(params, 0.05)
