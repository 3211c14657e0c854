"""Proof-level kernel identities, nonpositivity sweeps, and ordering counts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from vbesharp import (
    DomainError,
    InvariantError,
    bregman_gap,
    expect_f,
    extreme_momfun,
    power_momfun,
    two_point,
)
from vbesharp.ineqcheck import (
    bracket_margin,
    check_growth_vs_gap,
    cross_gap,
    doubling_margin,
    enumerate_orderings,
    kernel_terms,
    reflection_gap,
    sqrt_concavity_margins,
    sweep_cross_gap,
    sweep_doubling_margin,
    sweep_reflection_gap,
)


class TestKernelTerms:
    def test_square_first_term_is_x_free(self):
        # with quadratic kernels the first term collapses to c (s-c) s
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = float(rng.uniform(0.5, 5.0))
            c = float(rng.uniform(0.01, 0.99)) * s
            x1, x2 = rng.uniform(0.0, s, 2)
            lam1, _, _ = kernel_terms(10.0 * s, s, x1, c)
            lam2, _, _ = kernel_terms(10.0 * s, s, x2, c)
            assert float(lam1) == pytest.approx(c * (s - c) * s, rel=1e-10)
            assert float(lam2) == pytest.approx(float(lam1), rel=1e-10)

    def test_second_term_is_scaled_two_point_moment(self):
        rng = np.random.default_rng(1)
        for t in (0.3, 1.0, 2.7):
            f = extreme_momfun(t)
            for _ in range(10):
                s = float(rng.uniform(0.5, 4.0))
                c = float(rng.uniform(0.05, 0.95)) * s
                _, mu, _ = kernel_terms(t, s, 0.5 * s, c)
                assert float(mu) == pytest.approx(
                    s * expect_f(two_point(c, s - c), f), rel=1e-13)

    def test_third_term_is_bregman_gap(self):
        for t in (0.4, 1.0, 2.0):
            f = extreme_momfun(t)
            for s, x in ((1.0, 0.3), (2.5, 1.9), (0.7, 0.01)):
                _, _, nu = kernel_terms(t, s, x, 0.5 * s)
                assert float(nu) == pytest.approx(float(bregman_gap(f, s, x)),
                                                  rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_terms(-1.0, 1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            kernel_terms(1.0, 1.0, 0.5, 1.5)


class TestCrossGap:
    def test_symmetry_in_levels(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            u, t = rng.uniform(0.05, 2.5, 2)
            x, c = rng.uniform(0.01, 0.99, 2)
            assert float(cross_gap(u, t, x, c)) == pytest.approx(
                float(cross_gap(t, u, x, c)), abs=1e-15)

    def test_vanishes_at_merged_spread(self):
        # the gap tends to 0 as c -> 1
        for c in (1.0 - 1e-4, 1.0 - 1e-6):
            v = float(cross_gap(0.7, 1.3, 0.4, c))
            assert abs(v) <= 10.0 * (1.0 - c)

    def test_sample_point_nonpositive(self):
        assert float(cross_gap(0.3, 1.7, 0.4, 0.8)) <= 0.0

    def test_tagged_sample(self):
        from vbesharp.ineqcheck import cross_gap_sample
        s = cross_gap_sample(0.3, 1.7, 0.4, 0.8)
        assert s.value == pytest.approx(float(cross_gap(0.3, 1.7, 0.4, 0.8)))
        assert sorted(s.ordering_id) == list(range(7))
        z = [1.0, s.x, 1 + s.x - s.c, abs(s.x - s.c), 1 - s.c, s.c, 1 - s.x]
        assert all(z[a] <= z[b] for a, b in
                   zip(s.ordering_id, s.ordering_id[1:]))
        with pytest.raises(DomainError):
            cross_gap_sample(0.3, 1.7, 1.4, 0.8)

    def test_quadratic_levels_give_zero(self):
        # both levels at or beyond 2: every kernel argument is below 2
        assert float(cross_gap(2.2, 2.4, 0.5, 0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_boundary_band(self):
        rng = np.random.default_rng(3)
        n = 10 ** 5
        v = cross_gap(rng.uniform(1e-9, 2.5, n), rng.uniform(1e-9, 2.5, n),
                      rng.uniform(1e-9, 1 - 1e-9, n), rng.uniform(0.999, 1 - 1e-12, n))
        assert float(np.max(v)) <= 1e-9

    def test_near_equality_locus(self):
        # level agreement, small x, spread near 1: the gap closes linearly
        for eps in (1e-3, 1e-5):
            v = float(cross_gap(1.0, 1.0, eps, 1.0 - eps))
            assert abs(v) <= 10.0 * eps


class TestSweeps:
    def test_cross_gap_sweep(self):
        rep = sweep_cross_gap(2 ** 14, seed=101)
        assert rep.passed
        assert rep.max_violation <= 1e-12

    def test_reflection_sweep(self):
        rep = sweep_reflection_gap(2 ** 13, seed=102)
        assert rep.passed

    def test_doubling_sweep(self):
        rep = sweep_doubling_margin(2 ** 13, seed=103)
        assert rep.passed

    def test_seed_determinism(self):
        a = sweep_cross_gap(2 ** 10, seed=7)
        b = sweep_cross_gap(2 ** 10, seed=7)
        assert a == b


class TestReflectionGap:
    def test_balanced_spread_is_zero(self):
        assert float(reflection_gap(0.7, 0.3, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_level_is_zero(self):
        # levels at 2 and beyond: both terms reduce to c(1-c), symmetric
        for c in (0.1, 0.3, 0.49):
            assert float(reflection_gap(2.3, 0.6, c)) == pytest.approx(0.0, abs=1e-13)

    def test_random_sweep_nonpositive(self):
        rng = np.random.default_rng(4)
        n = 10 ** 5
        v = reflection_gap(rng.uniform(1e-9, 2.5, n),
                           rng.uniform(1e-9, 1 - 1e-9, n),
                           rng.uniform(1e-9, 0.5, n))
        assert float(np.max(v)) <= 1e-12


class TestDoublingMargin:
    def test_small_shift_limit(self):
        # as a -> 0 the margin approaches the positive objective at zero
        # shift: 2 U(a) - U(0) -> U(0) > 0
        t, c = 0.8, 0.3
        from vbesharp import centering_objective, extreme_momfun
        u0 = float(centering_objective(extreme_momfun(t), c, 1.0, 0.0))
        assert float(doubling_margin(t, c, 1e-12)) == pytest.approx(u0, rel=1e-9)
        assert u0 > 0.0

    def test_worst_case_at_minimizer(self):
        from vbesharp import centering_argmin
        for t in (0.2, 0.6, 0.95):
            f = extreme_momfun(t)
            for c in (0.1, 0.3, 0.45):
                a = centering_argmin(f, c, 1.0).value
                if 0.0 < a < c:
                    assert float(doubling_margin(t, c, a)) >= -1e-12

    def test_quadratic_identity(self):
        # for t >= all kernel arguments, U(a) = U(0) + a^2, so the margin is
        # U(0) + 2 a^2
        t, c, a = 2.4, 0.3, 0.2
        u0 = c * (1.0 - c) ** 2 + (1.0 - c) * c ** 2
        assert float(doubling_margin(t, c, a)) == pytest.approx(u0 + 2.0 * a * a,
                                                                rel=1e-13)


class TestBracketMargin:
    def test_vanishes_at_two(self):
        assert float(bracket_margin(1.999999)) == pytest.approx(0.0, abs=1e-5)

    def test_half_arithmetic(self):
        assert float(bracket_margin(1.5)) == pytest.approx(
            4.0 * math.sqrt(0.5) - math.sqrt(4.5), rel=1e-15)
        assert float(bracket_margin(1.5)) > 0.0

    def test_positive_on_grid(self):
        ps = np.arange(1.01, 2.0, 0.01)
        assert np.all(bracket_margin(ps) > 0.0)


class TestSqrtConcavity:
    def test_interior_levels(self):
        z = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        for t in (0.1, 0.5, 0.9):
            margins = sqrt_concavity_margins(t, z)
            assert np.max(margins) <= 1e-10

    def test_near_degenerate_level(self):
        z = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        assert np.max(sqrt_concavity_margins(0.999, z)) <= 1e-10

    def test_kink_straddling_grid(self):
        # 1e-9-wide straddles: divided differences stay one-sided and valid,
        # but slope rounding noise scales like eps/spacing
        t = 0.37  # kinks at z = t^2 and z = (1-t)^2
        z = np.sort(np.concatenate([np.linspace(1e-6, 1 - 1e-6, 800),
                                    [t * t - 1e-9, t * t + 1e-9,
                                     (1 - t) ** 2 - 1e-9, (1 - t) ** 2 + 1e-9]]))
        z = np.unique(z)
        assert np.max(sqrt_concavity_margins(t, z)) <= 1e-5


class TestGrowthVsGap:
    def test_square_equality(self):
        rep = check_growth_vs_gap(extreme_momfun(math.inf), 0.5, 1.0, 0.3)
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs == pytest.approx(1.0, rel=1e-12)

    def test_random_sweep(self):
        rng = np.random.default_rng(8)
        f = power_momfun(1.5)
        for _ in range(2000):
            s = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
            x = float(rng.uniform(1e-6, 1 - 1e-6)) * s
            c = float(rng.uniform(1e-6, 1 - 1e-6)) * s
            assert check_growth_vs_gap(f, c, s, x).passed

    def test_gap_closes_as_spread_merges(self):
        f = power_momfun(1.8)
        s, x = 1.0, 0.4
        gaps = [check_growth_vs_gap(f, s * (1 - d), s, x).slack for d in
                (1e-2, 1e-4, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0

    def test_merge_rate_is_spread_to_p_minus_one(self):
        # the zero-location two-point moment carries an f(s-c) term, so the
        # gap to the limiting profile shrinks like (1-c/s)^(p-1): at p = 3/2
        # and relative spread 1e-6 the gap sits near 1.2e-3 (not smaller),
        # and shrinks tenfold per hundredfold spread reduction
        f = power_momfun(1.5)
        s, x = 1.0, 0.3
        g6 = check_growth_vs_gap(f, s * (1 - 1e-6), s, x).slack
        g8 = check_growth_vs_gap(f, s * (1 - 1e-8), s, x).slack
        assert 5e-4 <= g6 <= 3e-3
        assert 0.05 <= g8 / g6 <= 0.2


@pytest.fixture(scope="module")
def exact_orderings():
    return enumerate_orderings()


class TestOrderings:
    def test_counts(self):
        res = enumerate_orderings(10 ** 5, seed=1, grid=500)
        assert (res.count_x_lt_c, res.count_x_gt_c, res.case_count) == (10, 2, 432)

    def test_seed_independence(self):
        a = enumerate_orderings(10 ** 5, seed=1, grid=400)
        b = enumerate_orderings(10 ** 5, seed=999, grid=400)
        assert a.orderings_x_lt_c == b.orderings_x_lt_c
        assert a.orderings_x_gt_c == b.orderings_x_gt_c

    def test_expected_large_x_orderings(self):
        # indices into (1, x, 1+x-c, |x-c|, 1-c, c, 1-x)
        res = enumerate_orderings(10 ** 5, seed=2, grid=500)
        expected = {
            (3, 6, 4, 5, 1, 0, 2),  # |x-c| < 1-x < 1-c < c < x < 1 < 1+x-c
            (6, 3, 4, 5, 1, 0, 2),  # 1-x < |x-c| < 1-c < c < x < 1 < 1+x-c
        }
        assert set(res.orderings_x_gt_c) == expected

    def test_witnesses_reproduce_orderings(self):
        res = enumerate_orderings(10 ** 5, seed=3, grid=400)
        for ordering, (x, c) in res.witnesses.items():
            z = np.array([1.0, x, 1 + x - c, abs(x - c), 1 - c, c, 1 - x])
            assert tuple(np.argsort(z)) == ordering

    def test_witnesses_realise_orderings_exactly(self):
        # the exact rationals of the float witnesses, not the floats' arithmetic
        res = enumerate_orderings()
        assert len(res.witnesses) == 12
        for orders, below in ((res.orderings_x_lt_c, True),
                              (res.orderings_x_gt_c, False)):
            for ordering in orders:
                x, c = res.witnesses[ordering]
                assert 0.0 < x < 1.0 and 0.5 < c < 1.0 and (x < c) == below
                z = _exact_values(Fraction(x), Fraction(c))
                assert all(z[a] < z[b] for a, b in zip(ordering, ordering[1:]))

    def test_key_is_argsort_not_rank(self):
        # values (1, .3, .55, .45, .25, .75, .7) at (x, c) = (3/10, 3/4)
        res = enumerate_orderings()
        assert _exact_order(Fraction(3, 10), Fraction(3, 4)) == (4, 1, 3, 2, 6, 5, 0)
        assert (4, 1, 3, 2, 6, 5, 0) in res.orderings_x_lt_c
        assert (6, 1, 3, 2, 0, 5, 4) not in res.orderings_x_lt_c  # the ranks

    def test_default_call_does_not_sample(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("default enumeration drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        res = enumerate_orderings()
        assert (res.count_x_lt_c, res.count_x_gt_c, res.case_count) == (10, 2, 432)

    def test_incomplete_scan_raises(self):
        # ten points cannot meet all twelve orderings
        with pytest.raises(InvariantError):
            enumerate_orderings(n_samples=10)

    @given(st.fractions(0, 1), st.fractions(Fraction(1, 2), 1))
    def test_every_strict_ordering_is_enumerated(self, exact_orderings, x, c):
        assume(0 < x < 1 and Fraction(1, 2) < c < 1 and x != c)
        z = _exact_values(x, c)
        assume(len(set(z)) == 7)
        res = exact_orderings
        orders = res.orderings_x_lt_c if x < c else res.orderings_x_gt_c
        assert _exact_order(x, c) in orders


def _exact_values(x, c):
    return (Fraction(1), x, 1 + x - c, abs(x - c), 1 - c, c, 1 - x)


def _exact_order(x, c):
    z = _exact_values(x, c)
    return tuple(sorted(range(7), key=z.__getitem__))
