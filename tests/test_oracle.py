"""Exact-expectation engine: distributions, trees, and inequality checks."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vbesharp import (
    DiscreteDist,
    DomainError,
    InvariantError,
    MartingaleTree,
    PreconditionError,
    ResourceLimitError,
    VectorDist,
    check_centering,
    check_concentration,
    check_main_inequality,
    check_spread,
    check_sum_norm,
    check_tree_inequality,
    centering_argmin,
    convolve,
    discrete,
    expect,
    expect_f,
    extreme_momfun,
    growth_ratio,
    near_extremal_probe,
    power_centering_constant,
    power_gap_argmax,
    power_momfun,
    power_sharp_constant,
    tightness_witness,
    tree_from_independent,
    two_point,
)
from vbesharp.oracle import (
    _power_probe_ratio,
    reports_to_csv,
    reports_to_jsonl,
    rows_from_reports,
)

from conftest import probe_rounding_bound


class TestTwoPoint:
    def test_symmetric(self):
        d = two_point(1.0, 1.0)
        np.testing.assert_array_equal(d.support, [-1.0, 1.0])
        np.testing.assert_array_equal(d.probs, [0.5, 0.5])

    def test_skewed(self):
        d = two_point(1.0, 2.0)
        np.testing.assert_allclose(d.probs, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-16)
        assert abs(expect(d)) < 1e-16

    def test_square_moment_is_product(self):
        f = extreme_momfun(math.inf)
        for c, d in ((1.0, 2.0), (0.3, 7.0), (5.0, 0.02)):
            assert expect_f(two_point(c, d), f) == pytest.approx(c * d, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            two_point(0.0, 1.0)
        with pytest.raises(DomainError):
            two_point(1.0, -2.0)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_zero_mean(self, c, d):
        assert abs(expect(two_point(c, d))) <= 1e-15 * max(1.0, c, d)


class TestDiscrete:
    def test_merge_duplicates(self):
        d = discrete([1.0, 1.0, 2.0], [0.25, 0.25, 0.5], merge_tol=0.0)
        np.testing.assert_array_equal(d.support, [1.0, 2.0])
        np.testing.assert_array_equal(d.probs, [0.5, 0.5])

    def test_validation(self):
        with pytest.raises(DomainError):
            DiscreteDist(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            DiscreteDist(np.array([1.0, 2.0]), np.array([0.7, 0.7]))

    def test_rejects_empty_and_mismatched_input(self):
        with pytest.raises(DomainError):
            discrete([], [])
        with pytest.raises(DomainError):
            discrete([1.0, 2.0], [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("points, probs", [
        ([0.0, math.nan], [0.5, 0.5]),
        ([math.nan, 1.0], [0.5, 0.5]),
        ([0.0, 1.0], [math.nan, math.nan]),
        ([-math.inf, 1.0], [0.5, 0.5]),
        ([0.0, math.inf], [0.5, 0.5]),
        ([0.0, 1.0], [math.inf, 0.5]),
    ])
    def test_rejects_non_finite_input(self, points, probs):
        with pytest.raises(DomainError):
            DiscreteDist(np.array(points), np.array(probs))
        with pytest.raises(DomainError):
            discrete(points, probs)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_merge_matches_sequential_walk(self, data):
        scale = data.draw(st.sampled_from(
            [1e-15, 1e-14, 1e-13, 3e-13, 1e-12, 1e-9, 1e-3, 1.0, 1e3]))
        merge_tol = data.draw(st.sampled_from([0.0, 1e-12]))
        # cluster centres a few scale units apart, jittered within a unit,
        # so that runs below 1e-12 chain past it at the smaller scales
        centres = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=40))
        jitter = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(centres),
                                    max_size=len(centres)))
        pts = [scale * (k + j) for k, j in zip(centres, jitter)]
        dups = data.draw(st.lists(st.sampled_from(pts), max_size=10))
        pts = pts + dups
        w = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(pts),
                                        max_size=len(pts))))
        probs = w / w.sum()
        d = discrete(pts, probs, merge_tol=merge_tol)
        ref_x, ref_p = _sequential_merge(pts, probs, merge_tol)
        assert [v.hex() for v in d.support] == [v.hex() for v in ref_x]
        assert [v.hex() for v in d.probs] == [v.hex() for v in ref_p]

    def test_chained_run_compares_with_first_point(self):
        # gaps of 0.6e-12 chain across 1.8e-12: 0 and 0.6e-12 group, then
        # 1.2e-12 is beyond 1e-12 of the group's first point
        d = discrete([0.0, 0.6e-12, 1.2e-12, 1.8e-12], [0.25] * 4, merge_tol=1e-12)
        np.testing.assert_array_equal(d.support, [0.0, 1.2e-12])
        np.testing.assert_array_equal(d.probs, [0.5, 0.5])


def _sequential_merge(points, probs, merge_tol):
    """The point-by-point merge walk that `discrete` must reproduce."""
    pts = np.asarray(points, dtype=float)
    pr = np.asarray(probs, dtype=float)
    order = np.argsort(pts, kind="stable")
    pts, pr = pts[order], pr[order]
    out_x, out_p = [pts[0]], [pr[0]]
    for x, p in zip(pts[1:], pr[1:]):
        if x - out_x[-1] <= merge_tol:
            out_p[-1] += p
        else:
            out_x.append(x)
            out_p.append(p)
    return [float(v) for v in out_x], [float(v) for v in out_p]


class TestBitIdenticalOracle:
    """lhs and rhs pinned as float.hex, so that a rewrite of the merge or the
    reductions that is not bit-identical shows."""

    SPREADS_12 = [(1.0, 1.0), (1.0, 1.0), (0.5, 1.5), (1.5, 0.5), (0.25, 0.75),
                  (2.0, 3.0), (1.0, 1.0), (0.3, 0.7), (0.7, 0.3), (4.0, 0.5),
                  (0.125, 2.0), (1.0, 1.0)]
    SPREADS_SMALL = [(20.0, 30.0), (7.0, 13.0), (11.0, 5.0), (4.0, 6.0), (9.0, 9.0)]

    def test_twelve_law_main_inequality(self):
        f = power_momfun(1.5)
        rep = check_main_inequality(
            f, [two_point(c, d) for c, d in self.SPREADS_12],
            power_sharp_constant(1.5).value)
        assert rep.lhs.hex() == "0x1.9a623337fa24dp+2"
        assert rep.rhs.hex() == "0x1.d5e17b0d7cbb6p+3"

    def test_merging_convolution_at_small_scale(self):
        laws = [two_point(1e-13 * c, 1e-13 * d) for c, d in self.SPREADS_SMALL]
        out = convolve(laws)  # 32 product atoms merge into 8
        assert [v.hex() for v in out.support] == [
            "-0x1.66e16eb1a8a6fp-38", "-0x1.ec94ca210599ep-39",
            "-0x1.de81e8ece0debp-40", "-0x1.19799812dea0fp-41",
            "0x1.faa7ab552a556p-41", "0x1.5fd7fe1796496p-39",
            "0x1.ec94ca21059a0p-39", "0x1.74f44fe5cd624p-38"]
        assert [v.hex() for v in out.probs] == [
            "0x1.f333333333331p-5", "0x1.d28f5c28f5c26p-3",
            "0x1.ae76c8b43957fp-3", "0x1.8b851eb851eb8p-4",
            "0x1.170a3d70a3d70p-3", "0x1.051eb851eb851p-3",
            "0x1.7b645a1cac082p-4", "0x1.8a3d70a3d70a2p-5"]
        rep = check_main_inequality(power_momfun(1.5), laws,
                                    power_sharp_constant(1.5).value)
        assert rep.lhs.hex() == "0x1.4c99ca73cb09fp-58"
        assert rep.rhs.hex() == "0x1.0d2e0a3c1509ap-57"


class TestConvolve:
    def test_two_symmetric(self):
        out = convolve([two_point(1.0, 1.0), two_point(1.0, 1.0)])
        np.testing.assert_array_equal(out.support, [-2.0, 0.0, 2.0])
        np.testing.assert_allclose(out.probs, [0.25, 0.5, 0.25], rtol=1e-16)

    def test_single_identity(self):
        d = two_point(0.3, 0.7)
        out = convolve([d])
        np.testing.assert_array_equal(out.support, d.support)

    def test_sum_of_three_zero_mean(self):
        dists = [two_point(1.0, 2.0), two_point(0.4, 0.1), two_point(3.0, 3.0)]
        assert abs(expect(convolve(dists))) < 1e-14

    def test_size_cap(self):
        big = discrete(np.arange(400.0), np.full(400, 1.0 / 400))
        with pytest.raises(ResourceLimitError):
            convolve([big, big, big], max_support=10 ** 6)

    @given(st.lists(st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
                    min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_total_probability(self, spreads):
        out = convolve([two_point(c, d) for c, d in spreads])
        assert math.fsum(out.probs) == pytest.approx(1.0, abs=1e-12)


class TestExpectations:
    def test_power_moment_symmetric(self):
        assert expect_f(two_point(1.0, 1.0), power_momfun(1.5)) == pytest.approx(1.0)

    def test_square_moment(self):
        assert expect_f(two_point(1.0, 2.0), extreme_momfun(math.inf)) == \
            pytest.approx(2.0, rel=1e-15)

    def test_point_mass_at_zero(self):
        d = DiscreteDist(np.array([0.0]), np.array([1.0]))
        assert expect_f(d, power_momfun(1.3)) == 0.0


class TestMainInequality:
    def test_square_is_equality(self):
        f = extreme_momfun(math.inf)
        rep = check_main_inequality(f, [two_point(1.0, 2.0), two_point(0.5, 3.0)], 1.0)
        assert rep.passed
        assert abs(rep.slack) <= 1e-12 * max(1.0, rep.rhs)

    def test_power_example(self):
        f = power_momfun(1.5)
        rep = check_main_inequality(
            f, [two_point(1.0, 2.0), two_point(0.1, 0.2)],
            power_sharp_constant(1.5).value)
        assert rep.passed

    def test_single_difference_edge(self):
        f = power_momfun(1.5)
        rep = check_main_inequality(f, [two_point(1.0, 2.0)], 123.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-15)

    def test_mean_precondition(self):
        f = power_momfun(1.5)
        shifted = two_point(1.0, 1.0).shift(0.3)
        with pytest.raises(PreconditionError):
            check_main_inequality(f, [two_point(1.0, 1.0), shifted], 2.0)
        with pytest.raises(PreconditionError):
            check_main_inequality(f, [shifted, two_point(1.0, 1.0)], 2.0)
        # the leading difference may opt out of the zero-mean requirement
        rep = check_main_inequality(f, [shifted, two_point(1.0, 1.0)], 2.0,
                                    first_zero_mean=False)
        assert rep.passed

    def test_mean_precondition_at_small_scale(self):
        # mean 1e-13 is not rounding error for a law on the 1e-13 scale
        f = power_momfun(1.5)
        off = discrete([-1e-13, 3e-13], [0.5, 0.5])
        with pytest.raises(PreconditionError):
            check_main_inequality(f, [off, two_point(1.0, 1.0)], 1.5)
        rep = check_main_inequality(f, [two_point(1e-13, 2e-13), two_point(1.0, 1.0)], 1.5)
        assert rep.passed

    @given(st.floats(1.01, 2.0),
           st.lists(st.tuples(st.floats(0.001, 1000.0), st.floats(0.001, 1000.0)),
                    min_size=2, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_sharp_constant_always_suffices(self, p, spreads):
        f = power_momfun(p)
        C = power_sharp_constant(p).value
        diffs = [two_point(c, d) for c, d in spreads]
        assert check_main_inequality(f, diffs, C).passed


class TestTrees:
    def test_depth_one_equality(self):
        tree = MartingaleTree(children=((1.0, 0.5, MartingaleTree()),
                                        (-1.0, 0.5, MartingaleTree())))
        rep = check_tree_inequality(power_momfun(1.5), tree, 7.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-15)

    def test_product_embedding_matches_list(self):
        f = power_momfun(1.5)
        dists = [two_point(1.0, 2.0), two_point(0.5, 0.5), two_point(0.2, 2.2)]
        r_list = check_main_inequality(f, dists, 1.3)
        r_tree = check_tree_inequality(f, tree_from_independent(dists), 1.3)
        assert r_tree.lhs == pytest.approx(r_list.lhs, abs=1e-13)
        assert r_tree.rhs == pytest.approx(r_list.rhs, abs=1e-13)

    def test_sign_dependent_second_step(self):
        # the second difference's conditional law depends on the first step's
        # sign but keeps conditional mean zero
        leaf = MartingaleTree()
        up = MartingaleTree(children=((0.5, 0.4, leaf), (-1.0 / 3.0, 0.6, leaf)))
        down = MartingaleTree(children=((2.0, 0.25, leaf), (-2.0 / 3.0, 0.75, leaf)))
        tree = MartingaleTree(children=((1.0, 0.5, up), (-1.0, 0.5, down)))
        C = power_sharp_constant(1.5).value
        rep = check_tree_inequality(power_momfun(1.5), tree, C)
        assert rep.passed

    def test_conditional_mean_violation(self):
        leaf = MartingaleTree()
        bad = MartingaleTree(children=((1.0, 0.5, leaf), (-0.5, 0.5, leaf)))
        tree = MartingaleTree(children=((1.0, 1.0, bad),))
        with pytest.raises(InvariantError):
            check_tree_inequality(power_momfun(1.5), tree, 2.0)

    def test_conditional_mean_violation_at_small_scale(self):
        off = discrete([-1e-13, 3e-13], [0.5, 0.5])
        with pytest.raises(InvariantError):
            tree_from_independent([two_point(1.0, 1.0), off]).validate()
        tree_from_independent([two_point(1.0, 1.0), two_point(1e-13, 2e-13)]).validate()
        tree_from_independent([two_point(1e-13, 1e-13), two_point(1e-13, 2e-13)]).validate()

    def test_ragged_depth_rejected(self):
        leaf = MartingaleTree()
        deep = MartingaleTree(children=((1.0, 0.5, leaf), (-1.0, 0.5, leaf)))
        tree = MartingaleTree(children=((1.0, 0.5, deep), (-1.0, 0.5, leaf)))
        with pytest.raises(InvariantError):
            check_tree_inequality(power_momfun(1.5), tree, 2.0)

    def test_probability_sum_violation(self):
        leaf = MartingaleTree()
        tree = MartingaleTree(children=((1.0, 0.6, leaf), (-1.0, 0.6, leaf)))
        with pytest.raises(InvariantError):
            check_tree_inequality(power_momfun(1.5), tree, 2.0)

    @pytest.mark.parametrize("bad", [
        ((1.0, math.nan), (-1.0, 1.0)),  # a nan transition probability
        ((math.nan, 0.5), (-1.0, 0.5)),  # a nan difference
    ])
    @pytest.mark.parametrize("at_root", [True, False])
    def test_nan_rejected(self, bad, at_root):
        leaf = MartingaleTree()
        node = MartingaleTree(children=tuple((x, q, leaf) for x, q in bad))
        if at_root:
            tree = node
        else:
            sound = MartingaleTree(children=((1.0, 0.5, leaf), (-1.0, 0.5, leaf)))
            tree = MartingaleTree(children=((1.0, 0.5, sound), (-1.0, 0.5, node)))
        with pytest.raises(InvariantError):
            tree.validate()


class TestGrowthRatio:
    def test_unit_at_origin(self):
        assert growth_ratio(power_momfun(1.5), 0.7, 1.0, 0.0) == 1.0

    def test_square_constant(self):
        f = extreme_momfun(math.inf)
        for x in (-3.0, 0.1, 2.7):
            assert growth_ratio(f, 0.7, 1.0, x) == pytest.approx(1.0, rel=1e-12)

    def test_reflection_identity(self):
        # negating the location swaps the two-pointer's spreads
        f = power_momfun(1.4)
        for c, s, x in ((0.3, 1.0, 0.7), (2.0, 5.0, 1.1), (0.9, 1.0, 0.2)):
            assert growth_ratio(f, c, s, -x) == pytest.approx(
                growth_ratio(f, s - c, s, x), rel=1e-12)

    def test_bounded_by_sharp_constant(self):
        rng = np.random.default_rng(17)
        for p in (1.2, 1.6, 1.95):
            f = power_momfun(p)
            C = power_sharp_constant(p).value
            for _ in range(200):
                s = float(np.exp(rng.uniform(-2.0, 2.0)))
                c = float(rng.uniform(1e-6, 1.0 - 1e-6)) * s
                x = float(rng.uniform(-3.0, 3.0)) * s
                assert growth_ratio(f, c, s, x) <= C + 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            growth_ratio(power_momfun(1.5), 1.0, 1.0, 0.5)


class TestNearExtremalProbe:
    def test_square_always_one(self):
        f = extreme_momfun(math.inf)
        assert near_extremal_probe(f, 10.0, 0.3, 0.5, 1.0) == pytest.approx(1.0,
                                                                            rel=1e-10)

    def test_never_exceeds_sharp_constant(self):
        for p in (1.1, 1.5, 1.9):
            f = power_momfun(p)
            b = power_gap_argmax(p).value
            probe = near_extremal_probe(f, 1e6, b, 1.0 - 1e-6, 1.0)
            assert probe <= power_sharp_constant(p).value + 1e-9

    def test_designed_schedule_attains(self):
        # see the acceptance suite for the full tightness criterion; the
        # approach rate in the spread gap is (1 - c/s)^(p-1)
        for p in (1.5, 1.9):
            f = power_momfun(p)
            b = power_gap_argmax(p).value
            probe = near_extremal_probe(f, 1e6, b, 1.0 - 1e-6, 1.0)
            assert probe >= power_sharp_constant(p).value - 1e-2

    def test_converges_to_growth_ratio(self):
        # growing the first spread pair drives the probe to the growth ratio
        # at the second location
        f = power_momfun(1.5)
        c, s, b = 0.6, 1.0, 0.3
        target = growth_ratio(f, c, s, b)
        gap_small = abs(near_extremal_probe(f, 1e7, b, c, s) - target)
        gap_big = abs(near_extremal_probe(f, 10.0, b, c, s) - target)
        assert gap_small < 1e-6
        assert gap_small < gap_big

    def test_witness_matches_float_probe(self):
        # same ratio at the designed float schedule; the float probe is off
        # by its cancellation error only (about 1e-6 at p = 1.9)
        for p in (1.1, 1.5, 1.9):
            f = power_momfun(p)
            b = power_gap_argmax(p).value
            args = (1e6, b, 1.0 - 1e-6, 1.0)
            probe = near_extremal_probe(f, *args)
            assert abs(tightness_witness(p, 1e-6) - probe) <= probe_rounding_bound(f, *args)

    def test_witness_never_exceeds_sharp_constant(self):
        for p in (1.1, 1.5, 1.9):
            target = power_sharp_constant(p).value
            for eps in (1e-6, 1e-23, 1e-40):
                assert tightness_witness(p, eps) <= target + 1e-9

    def test_witness_precision_follows_arguments(self):
        # at a = 1e30, eps = 1e-40 the cancellation eats more than 60 digits
        import mpmath
        p = 1.9
        b = power_gap_argmax(p).value
        mp = mpmath.MPContext()
        mp.dps = 60
        fixed = float(_power_probe_ratio(mp, p, 1e30, b, 1e-40))
        assert abs(fixed - 1.0538374) > 1e-2
        assert tightness_witness(p, 1e-40, a=1e30) == pytest.approx(1.0538374, abs=1e-7)

    def test_witness_domain(self):
        for p in (1.0, 2.0, 0.5, 2.5, math.nan):
            with pytest.raises(DomainError):
                tightness_witness(p, 1e-6)
        for eps in (0.0, 1.0, -1e-6, 1.5, math.nan):
            with pytest.raises(DomainError):
                tightness_witness(1.5, eps)

    def test_import_leaves_mpmath_unloaded(self):
        code = "import sys, vbesharp; sys.exit('mpmath' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCentering:
    def test_identity_at_zero_shift(self):
        d = two_point(1.0, 2.0)
        rep = check_centering(power_momfun(1.5), d, 0.0, 1.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-15)

    def test_extremal_configuration_is_tight(self):
        p = 1.5
        res = power_centering_constant(p)
        c_star = dict(res.witness)["c_star"]
        f = power_momfun(p)
        d = two_point(c_star, 1.0 - c_star)
        a_star = centering_argmin(f, c_star, 1.0).value
        rep = check_centering(f, d, a_star, res.value)
        assert rep.passed
        assert 0.0 <= rep.slack <= 1e-6

    def test_square_exact_constant(self):
        # E (X+a)^2 = E X^2 + a^2 for zero-mean X, so equality holds exactly
        # at kappa = EX^2 / (EX^2 + a^2)
        f = extreme_momfun(math.inf)
        d = two_point(0.7, 1.3)
        a = 0.4
        m2 = expect_f(d, f)
        rep = check_centering(f, d, a, m2 / (m2 + a * a))
        assert abs(rep.slack) <= 1e-13
        assert check_centering(f, d, a, 1.0 + a * a / m2).passed

    def test_mean_precondition(self):
        with pytest.raises(PreconditionError):
            check_centering(power_momfun(1.5), two_point(1.0, 1.0).shift(0.5),
                            0.1, 2.0)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.floats(-50.0, 50.0))
    @settings(max_examples=200)
    def test_clip_constant_two_suffices(self, c, d, a):
        # the exact supremum of the centering ratio for any clip level is 2
        rep = check_centering(extreme_momfun(1.0), two_point(c, d), a, 2.0)
        assert rep.passed


class TestConcentration:
    def test_coordinate_sum_quadratic(self):
        margs = [DiscreteDist(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
                 for _ in range(3)]
        rep = check_concentration(lambda xs: sum(xs), margs, [0.0, 0.0, 0.0], p=2.0)
        # E S^2 = n against 0 + 1 * 1 * n: exact equality
        assert rep.lhs == pytest.approx(3.0, rel=1e-14)
        assert rep.rhs == pytest.approx(3.0, rel=1e-14)
        assert rep.passed
        assert all(np.allclose(r, 1.0) for r in rep.details["rho"])

    def test_absolute_sum(self):
        margs = [DiscreteDist(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
                 for _ in range(2)]
        rep = check_concentration(lambda xs: abs(xs[0] + xs[1]), margs,
                                  [0.0, 0.0], p=1.5)
        assert rep.passed

    def test_telescoping_and_anchor_gaps(self):
        rng = np.random.default_rng(5)
        margs = [DiscreteDist(np.sort(rng.uniform(-2, 2, 3)),
                              np.array([0.2, 0.5, 0.3])) for _ in range(3)]
        table = rng.uniform(-4, 4, (3, 3, 3))
        anchors = [float(m.support[1]) for m in margs]
        rep = check_concentration(table, margs, anchors, p=1.4)
        assert rep.details["doob_telescope_error"] <= 1e-12
        assert rep.details["eta_bound_margin"] >= -1e-12
        assert rep.passed

    def test_relaxed_costs_never_exceed_strict(self):
        rng = np.random.default_rng(6)
        margs = [DiscreteDist(np.sort(rng.uniform(-2, 2, 3)),
                              np.array([0.3, 0.3, 0.4])) for _ in range(2)]
        table = rng.uniform(-4, 4, (3, 3))
        anchors = [float(m.support[0]) for m in margs]
        strict = check_concentration(table, margs, anchors, p=1.5)
        relaxed = check_concentration(table, margs, anchors, p=1.5, relaxed=True)
        for rs, rr in zip(strict.details["rho"], relaxed.details["rho"]):
            assert np.all(rr <= rs + 1e-14)
        assert relaxed.passed

    def test_power_constants_from_p_match_passed_in(self):
        margs = [DiscreteDist(np.array([-1.0, 2.0]), np.array([0.6, 0.4]))
                 for _ in range(2)]
        table = np.array([[0.0, 1.0], [2.0, 0.5]])
        first = check_concentration(table, margs, [-1.0, 2.0], p=1.5)
        again = check_concentration(table, margs, [-1.0, 2.0], p=1.5)
        passed_in = check_concentration(
            table, margs, [-1.0, 2.0], p=1.5,
            kappa=power_centering_constant(1.5).value,
            sharp=power_sharp_constant(1.5).value)
        assert first == again == passed_in

    def test_anchor_outside_support_needs_callable(self):
        margs = [DiscreteDist(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))]
        with pytest.raises(DomainError):
            check_concentration(np.array([0.0, 1.0]), margs, [0.5], p=1.5)
        rep = check_concentration(lambda xs: abs(xs[0]), margs, [0.5], p=1.5)
        assert rep.passed

    def test_caps(self):
        margs = [DiscreteDist(np.arange(9.0), np.full(9, 1.0 / 9))]
        with pytest.raises(ResourceLimitError):
            check_concentration(lambda xs: xs[0], margs, [0.0], p=1.5)

    def test_callable_relaxed_matches_its_table(self):
        margs = _three_margs()
        anchors = [0.5, -2.0, 1.5]
        table = np.array([[[_g(a, b, c) for c in margs[2].support]
                           for b in margs[1].support] for a in margs[0].support])
        from_g = check_concentration(_g_list, margs, anchors, p=1.5, relaxed=True)
        from_table = check_concentration(table, margs, anchors, p=1.5, relaxed=True)
        assert from_g == from_table
        for rg, rt in zip(from_g.details["rho"], from_table.details["rho"]):
            assert np.array_equal(rg, rt)
        # off the supports too, the relaxed costs never exceed the strict ones
        strict = check_concentration(_g_list, margs, [0.0, 1.0, -0.5], p=1.5)
        relaxed = check_concentration(_g_list, margs, [0.0, 1.0, -0.5], p=1.5,
                                      relaxed=True)
        for rs, rr in zip(strict.details["rho"], relaxed.details["rho"]):
            assert np.all(rr <= rs + 1e-14)  # E over later coordinates rounds
        assert relaxed.passed and relaxed.rhs < strict.rhs

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_callable_called_once_per_point(self, relaxed):
        # the table, then each anchored table once: 12 + (6 + 4 + 6) points
        calls = []

        def g(xs):
            calls.append(list(xs))
            assert all(type(x) is float for x in xs)
            return _g_list(xs)

        check_concentration(g, _three_margs(), [0.0, 1.0, -0.5], p=1.5, relaxed=relaxed)
        assert len(calls) == 12 + 16
        assert calls[:2] == [[-1.0, -2.0, -0.5], [-1.0, -2.0, 1.5]]  # C order
        assert calls[12] == [0.0, -2.0, -0.5]  # coordinate 1 at its anchor

    def test_callable_report_pinned(self):
        # the report's bits: a change here is a change of the check's arithmetic
        rep = check_concentration(_g_list, _three_margs(), [0.0, 1.0, -0.5], p=1.5,
                                  relaxed=True)
        assert _hex_report(rep) == (
            "0x1.df4a81390d847p+2", "0x1.01a2501bf4d5fp+4",
            (("0x1.3333333333330p-2", "0x1.cccccccccccc8p-2"),
             ("0x1.8000000000001p+1", "0x1.0000000000000p+1", "0x1.0000000000000p+2"),
             ("0x0.0p+0", "0x1.0000000000000p+1")),
            ("0x1.11e68f0db3dddp-2", "0x1.42fb90ce765b9p+2", "0x1.21a1851ff630bp+0"),
            "0x1.0000000000000p-51", "0x0.0p+0")

    def test_table_report_pinned(self):
        table = np.array([[[0.0, -2.0], [1.75, 1.25], [6.0, 11.5]],
                          [[11.75, 17.5], [18.5, 25.0], [31.5, 33.25]]])
        rep = check_concentration(table, _three_margs(), [0.5, -2.0, 1.5], p=1.5)
        assert _hex_report(rep) == (
            "0x1.1bd62f2f02891p+6", "0x1.3cbd6d2f767b4p+7",
            (("0x1.9800000000000p+4", "0x0.0p+0"),
             ("0x0.0p+0", "0x1.e000000000000p+2", "0x1.3c00000000000p+4"),
             ("0x1.a000000000000p+2", "0x0.0p+0")),
            ("0x1.01899178056b1p+5", "0x1.7b74fe35c84b2p+4", "0x1.3e2dc6fe4eec3p+3"),
            "0x1.8000000000000p-48", "0x0.0p+0")

    def test_nan_table_rejected(self):
        table = np.array([[0.0, 1.0], [math.nan, 0.5]])
        margs = [DiscreteDist(np.array([-1.0, 2.0]), np.array([0.6, 0.4]))] * 2
        with pytest.raises(DomainError):
            check_concentration(table, margs, [-1.0, 2.0], p=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_g_rejected(self, bad):
        # g is finite on the supports and not finite at the off-support anchor
        margs = [DiscreteDist(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))]
        with pytest.raises(DomainError):
            check_concentration(lambda xs: bad if xs[0] == 0.0 else xs[0], margs,
                                [0.0], p=1.5)


def _three_margs():
    return [DiscreteDist(np.array([-1.0, 0.5]), np.array([0.25, 0.75])),
            DiscreteDist(np.array([-2.0, 0.0, 3.0]), np.array([0.5, 0.3, 0.2])),
            DiscreteDist(np.array([-0.5, 1.5]), np.array([0.6, 0.4]))]


def _g(a, b, c):
    return abs(a - 2.0 * b) + a * c


def _g_list(xs):
    return _g(*xs)


def _hex_report(rep):
    d = rep.details
    return (rep.lhs.hex(), rep.rhs.hex(),
            tuple(tuple(v.hex() for v in r.tolist()) for r in d["rho"]),
            tuple(c.hex() for c in d["cost_moments"]),
            d["doob_telescope_error"].hex(), d["eta_bound_margin"].hex())


class TestSumNorm:
    def test_one_dim_consistency(self):
        margs = [DiscreteDist(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
                 for _ in range(2)]
        vecs = [VectorDist(m.support.reshape(-1, 1), m.probs) for m in margs]
        rc = check_concentration(lambda xs: abs(xs[0] + xs[1]), margs,
                                 [-1.0, -1.0], p=1.5)
        rv = check_sum_norm(vecs, 1.5, [np.array([-1.0]), np.array([-1.0])])
        assert rv.lhs == pytest.approx(rc.lhs, rel=1e-13)
        # the norm cost |X - anchor| coincides with the tight table cost here
        assert rv.rhs == pytest.approx(rc.rhs, rel=1e-13)

    def test_two_dim_unit_vectors(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        vecs = [VectorDist(pts, np.full(4, 0.25)) for _ in range(3)]
        rep = check_sum_norm(vecs, 1.5, [np.zeros(2)] * 3)
        assert rep.passed

    def test_anchor_freedom(self):
        rng = np.random.default_rng(7)
        vecs = [VectorDist(rng.uniform(-1, 1, (3, 2)), np.array([0.2, 0.3, 0.5]))
                for _ in range(2)]
        for anchors in ([np.zeros(2)] * 2,
                        [np.median(v.points, axis=0) for v in vecs]):
            assert check_sum_norm(vecs, 1.7, anchors).passed

    def test_repeated_calls_agree(self):
        rng = np.random.default_rng(11)
        vecs = [VectorDist(rng.uniform(-1, 1, (2, 3)), np.array([0.4, 0.6]))
                for _ in range(3)]
        anchors = [np.zeros(3)] * 3
        first = check_sum_norm(vecs, 1.37, anchors)
        second = check_sum_norm(vecs, 1.37, anchors)
        assert first == second
        assert first.constant_used == (power_centering_constant(1.37).value
                                       * power_sharp_constant(1.37).value)

    @pytest.mark.parametrize("points, probs", [
        ([[0.0], [1.0]], [0.5, math.nan]),
        ([[0.0], [math.inf]], [0.5, 0.5]),
        ([[0.0], [-math.inf]], [0.5, 0.5]),
        ([[0.0, math.nan], [1.0, 0.0]], [0.5, 0.5]),
    ])
    def test_non_finite_rejected(self, points, probs):
        with pytest.raises(DomainError):
            VectorDist(np.array(points), np.array(probs))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_anchor_rejected(self, bad):
        vecs = [VectorDist(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))] * 2
        with pytest.raises(DomainError):
            check_sum_norm(vecs, 1.5, [np.array([bad]), np.zeros(1)])

    def test_dimension_cap(self):
        vecs = [VectorDist(np.zeros((2, 5)) + np.arange(5), np.array([0.5, 0.5]))]
        with pytest.raises(ResourceLimitError):
            check_sum_norm(vecs, 1.5, [np.zeros(5)])


class TestSpread:
    def test_identical_differences(self):
        f = power_momfun(1.5)
        diffs = [two_point(1.0, 2.0)] * 3
        C = power_sharp_constant(1.5).value
        rep = check_spread(f, diffs, 1.0, C=C)
        assert rep.passed
        assert rep.constant_used == pytest.approx(C - (C - 1.0) / 3.0, rel=1e-15)
        assert rep.constant_used <= C

    def test_goodness_violation(self):
        f = power_momfun(1.5)
        diffs = [two_point(0.01, 0.02), two_point(10.0, 20.0)]
        with pytest.raises(PreconditionError):
            check_spread(f, diffs, 1.9, C=1.5)


class TestSerialization:
    def test_csv_and_jsonl(self, tmp_path):
        f = power_momfun(1.5)
        reps = [check_main_inequality(f, [two_point(1.0, 2.0)], 1.0)]
        rows = rows_from_reports("demo", reps, params=["k=1"], seed=77)
        csv_path = tmp_path / "out.csv"
        reports_to_csv(csv_path, rows, header_lines=("tool 0.1.0", "seed=77"))
        text = csv_path.read_text()
        assert text.startswith("# tool 0.1.0\n# seed=77\n")
        assert "check,params,n,lhs,rhs,slack,max_violation,passed,seed" in text
        assert "demo,k=1," in text
        jl_path = tmp_path / "out.jsonl"
        reports_to_jsonl(jl_path, rows)
        row = json.loads(jl_path.read_text().splitlines()[0])
        assert row["check"] == "demo" and row["seed"] == 77
