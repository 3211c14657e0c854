"""Randomized suite invariants at module scale, and report semantics."""

import math

import pytest

from vbesharp import (
    AltSplineParams,
    altspline_momfun,
    convolve,
    expect_f,
    power_momfun,
    two_point,
)
from vbesharp.oracle import make_report
from vbesharp.suites import (
    centering_suite,
    concentration_suite,
    growth_vs_gap_suite,
    main_inequality_suite,
    tree_suite,
)


def test_main_inequality_suite_clean():
    res = main_inequality_suite(500, seed=31)
    assert res.violations == 0
    assert res.min_slack >= -1e-12


def test_tree_suite_includes_alternating_family():
    res = tree_suite(100, seed=32,
                     funcs=[altspline_momfun(AltSplineParams(0.1))])
    assert res.violations == 0


def test_centering_suite_at_contract_scale():
    res = centering_suite(10 ** 3, seed=33)
    assert res.violations == 0


def test_concentration_suite_small():
    res = concentration_suite(40, seed=34)
    assert res.violations == 0


def test_growth_vs_gap_suite_families():
    res = growth_vs_gap_suite(1200, seed=35)
    assert res.violations == 0


@pytest.mark.parametrize("suite, n", [
    (main_inequality_suite, 40), (tree_suite, 30), (centering_suite, 40),
    (concentration_suite, 16), (growth_vs_gap_suite, 60)])
def test_rows_name_their_own_case(suite, n):
    res = suite(n, seed=5, collect=True)
    assert len(res.rows) == n
    worst = min(res.rows, key=lambda r: r["slack"] / max(1.0, abs(r["rhs"])))
    assert res.worst_params == worst["params"]
    if suite is growth_vs_gap_suite:
        assert len({r["params"] for r in res.rows}) == n


def test_suites_are_seed_deterministic():
    a = main_inequality_suite(200, seed=36)
    b = main_inequality_suite(200, seed=36)
    assert (a.violations, a.min_slack, a.worst_params) == \
        (b.violations, b.min_slack, b.worst_params)


def test_finiteness_propagation_smoke():
    # finite per-step moments force a finite mixed moment
    f = power_momfun(1.2)
    diffs = [two_point(1e3, 1e-3), two_point(5.0, 5.0), two_point(0.1, 900.0)]
    lhs = expect_f(convolve(diffs), f)
    assert math.isfinite(lhs)
    assert all(math.isfinite(expect_f(d, f)) for d in diffs)


def test_report_pass_boundary():
    scale = 40.0
    tol = 1e-12 * scale
    assert make_report(scale + 0.5 * tol, scale, 1.0).passed
    assert not make_report(scale + 3.0 * tol, scale, 1.0).passed
    borderline = make_report(2.0, 2.0, 1.0)
    assert borderline.passed and borderline.slack == 0.0
