"""Seeded randomized verification suites.

Each suite draws reproducible random configurations (numpy Generator seeded
from the caller), runs the corresponding exact check, and summarizes the
worst slack.  Violations should never occur: every checked statement is a
theorem; the suites are regression instruments for the implementation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import ineqcheck, oracle
from .constants import (
    bregman_gap,
    centering_constant,
    power_centering_constant,
    power_sharp_constant,
    sharp_constant,
)
from .momfun import AltSplineParams, MomentFunction, altspline_momfun, extreme_momfun, power_momfun

__all__ = [
    "SuiteResult",
    "main_inequality_suite",
    "tree_suite",
    "centering_suite",
    "concentration_suite",
    "growth_vs_gap_suite",
    "growth_limit_suite",
]


@dataclass
class SuiteResult:
    """Summary of one randomized suite run."""

    name: str
    n: int
    seed: int
    violations: int
    min_slack: float
    worst_params: str
    elapsed: float
    rows: list = field(default_factory=list, repr=False)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _run(name: str, n: int, seed: int, draw, collect: bool) -> SuiteResult:
    """Run n cases drawn by draw(rng, i) -> (report, label) from one seeded
    generator.  The label is the case's CSV params and, for the case with the
    least relative slack, the result's worst_params."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    violations = 0
    min_slack = math.inf
    worst = ""
    rows = []
    for i in range(int(n)):
        rep, label = draw(rng, i)
        rel = rep.slack / max(1.0, abs(rep.rhs))
        if rel < min_slack:
            min_slack = rel
            worst = label
        if not rep.passed:
            violations += 1
        if collect:
            rows.extend(oracle.rows_from_reports(name, [rep], params=[label], seed=seed))
    return SuiteResult(name, int(n), seed, violations, min_slack,
                       worst, time.perf_counter() - t0, rows)


def main_inequality_suite(n: int = 10 ** 4, seed: int = 1, collect: bool = False) -> SuiteResult:
    """Random independent two-point difference sequences against the sharp
    power constant: exponent uniform in (1.01, 2], spreads log-uniform in
    [1e-3, 1e3], 2 to 4 differences."""
    def draw(rng, i):
        p = float(rng.uniform(1.01, 2.0))
        f = power_momfun(p)
        C = power_sharp_constant(p).value
        k = int(rng.integers(2, 5))
        diffs = [oracle.two_point(*_log_uniform(rng, 1e-3, 1e3, 2)) for _ in range(k)]
        rep = oracle.check_main_inequality(f, diffs, C)
        return rep, f"p={p:.6g};k={k}"

    return _run("main_inequality", n, seed, draw, collect)


def _random_tree(rng, depth: int, scale: float) -> oracle.MartingaleTree:
    def build(level: int) -> oracle.MartingaleTree:
        if level == depth:
            return oracle.MartingaleTree()
        k = int(rng.integers(2, 4)) if level > 0 else int(rng.integers(1, 4))
        probs = rng.uniform(0.1, 1.0, k)
        probs = probs / math.fsum(probs)
        diffs = rng.uniform(-scale, scale, k)
        if level > 0:
            diffs = diffs - math.fsum(p * d for p, d in zip(probs, diffs))
        children = tuple(
            (float(d), float(p), build(level + 1)) for d, p in zip(diffs, probs))
        return oracle.MartingaleTree(children=children)

    return build(0)


def tree_suite(n: int = 10 ** 3, seed: int = 2, collect: bool = False,
               funcs: Optional[list] = None, allowance: float = 1e-3) -> SuiteResult:
    """Random v-martingale trees (depth <= 3, branching <= 3, arbitrary first
    step) against the computed sharp constant plus a small allowance."""
    if funcs is None:
        funcs = [extreme_momfun(1.0), power_momfun(1.3), power_momfun(1.7)]
    consts = [sharp_constant(f).value + allowance for f in funcs]

    def draw(rng, i):
        f = funcs[i % len(funcs)]
        C = consts[i % len(funcs)]
        depth = int(rng.integers(1, 4))
        scale = float(_log_uniform(rng, 0.1, 10.0))
        tree = _random_tree(rng, depth, scale)
        rep = oracle.check_tree_inequality(f, tree, C)
        return rep, f"f={f.label};depth={depth}"

    return _run("tree_inequality", n, seed, draw, collect)


def _random_zero_mean(rng, k: int, scale: float) -> oracle.DiscreteDist:
    pts = np.sort(rng.uniform(-scale, scale, k))
    while len(np.unique(pts)) < k:
        pts = np.sort(rng.uniform(-scale, scale, k))
    probs = rng.uniform(0.05, 1.0, k)
    probs = probs / math.fsum(probs)
    pts = pts - math.fsum(p * x for p, x in zip(probs, pts))
    return oracle.discrete(pts, probs)


def centering_suite(n: int = 10 ** 3, seed: int = 3, collect: bool = False,
                    allowance: float = 1e-3) -> SuiteResult:
    """Random zero-mean laws and shifts against the computed centering
    constant (certified lower bound) plus an allowance."""
    clip = extreme_momfun(1.0)
    funcs = [power_momfun(1.5), clip]
    kappas = [power_centering_constant(1.5).value + allowance,
              centering_constant(clip).value + allowance]

    def draw(rng, i):
        f = funcs[i % 2]
        kap = kappas[i % 2]
        k = int(rng.integers(2, 5))
        scale = float(_log_uniform(rng, 0.05, 20.0))
        dist = _random_zero_mean(rng, k, scale)
        a = float(rng.uniform(-2.0, 2.0) * scale)
        rep = oracle.check_centering(f, dist, a, kap)
        return rep, f"f={f.label};a={a:.6g}"

    return _run("centering", n, seed, draw, collect)


def concentration_suite(n: int = 200, seed: int = 4, collect: bool = False) -> SuiteResult:
    """Random small product-space instances of the power concentration bound,
    plus the vector sum-norm variant every fourth instance.  Also asserts the
    per-path telescoping of the expansion increments and the anchor-gap
    bounds returned in the diagnostics."""
    def draw(rng, i):
        p = float(rng.uniform(1.01, 2.0))
        nc = int(rng.integers(1, 5))
        if i % 4 == 3:
            dim = int(rng.integers(1, 4))
            vecs = []
            for _ in range(nc):
                k = int(rng.integers(2, 5))
                pts = rng.uniform(-2.0, 2.0, (k, dim))
                pr = rng.uniform(0.05, 1.0, k)
                vecs.append(oracle.VectorDist(pts, pr / math.fsum(pr)))
            anchors = [rng.uniform(-1.0, 1.0, dim) for _ in range(nc)]
            rep = oracle.check_sum_norm(vecs, p, anchors)
            return rep, f"sum_norm p={p:.4g} n={nc} dim={dim}"
        margs = []
        for _ in range(nc):
            k = int(rng.integers(2, 5))
            pts = np.sort(rng.uniform(-3.0, 3.0, k))
            while len(np.unique(pts)) < k:
                pts = np.sort(rng.uniform(-3.0, 3.0, k))
            pr = rng.uniform(0.05, 1.0, k)
            margs.append(oracle.DiscreteDist(pts, pr / math.fsum(pr)))
        table = rng.uniform(-5.0, 5.0, tuple(len(m) for m in margs))
        anchors = [float(m.support[rng.integers(0, len(m))]) for m in margs]
        rep = oracle.check_concentration(table, margs, anchors, p=p,
                                         relaxed=bool(rng.integers(0, 2)))
        if rep.details["doob_telescope_error"] > 1e-10:
            raise AssertionError("telescoping identity failed")
        if rep.details["eta_bound_margin"] < -1e-10:
            raise AssertionError("anchor gap exceeded its cost bound")
        return rep, f"table p={p:.4g} n={nc}"

    return _run("concentration", n, seed, draw, collect)


def _family_pool():
    return [
        extreme_momfun(0.3),
        extreme_momfun(1.0),
        extreme_momfun(3.0),
        power_momfun(1.2),
        power_momfun(1.8),
        altspline_momfun(AltSplineParams(0.1)),
    ]


def growth_vs_gap_suite(n: int = 10 ** 4, seed: int = 5, collect: bool = False) -> SuiteResult:
    """Random (f, c, s, x): the two-point growth ratio never exceeds the
    normalized gap profile."""
    pool = _family_pool()

    def draw(rng, i):
        f = pool[i % len(pool)]
        s = float(_log_uniform(rng, 0.1, 10.0))
        x = float(rng.uniform(1e-6, 1.0 - 1e-6)) * s
        c = float(rng.uniform(1e-6, 1.0 - 1e-6)) * s
        rep = ineqcheck.check_growth_vs_gap(f, c, s, x)
        return rep, f"f={f.label};s={s:.6g};c={c:.6g};x={x:.6g}"

    return _run("growth_vs_gap", n, seed, draw, collect)


def growth_limit_suite(n: int = 100, seed: int = 6, rel_spread: float = 1e-6,
                       tol: float = 1e-4) -> SuiteResult:
    """Consistency of the two-point growth ratio with its limiting profile at
    c = s (1 - rel_spread).

    The approach rate is (1 - c/s)**(p-1) for |.|**p near 0 (the law's f(s-c)
    mass), so the ensemble draws families that are quadratic near the origin
    (clipped squares, the alternating spline) or powers with p >= 1.8, which
    provably meet tol = 1e-4 at rel_spread = 1e-6; smaller exponents approach
    the limit too slowly for that tolerance in double precision."""
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    violations = 0
    worst_gap = 0.0
    worst = ""
    alt = altspline_momfun(AltSplineParams(0.1))
    for _ in range(int(n)):
        pick = int(rng.integers(0, 3))
        if pick == 0:
            f: MomentFunction = extreme_momfun(float(_log_uniform(rng, 0.1, 10.0)))
        elif pick == 1:
            f = power_momfun(float(rng.uniform(1.8, 2.0)))
        else:
            f = alt
        s = float(_log_uniform(rng, 0.3, 3.0))
        x = float(rng.uniform(1e-3, 1.0 - 1e-3)) * s
        c = s * (1.0 - rel_spread)
        gap = abs(oracle.growth_ratio(f, c, s, x)
                  - float(bregman_gap(f, s, x)) / float(f.eval(s)))
        if gap > worst_gap:
            worst_gap = gap
            worst = f"f={f.label} s={s:.4g} x={x:.4g}"
        if gap > tol:
            violations += 1
    return SuiteResult("growth_limit", int(n), seed, violations,
                       tol - worst_gap, worst, time.perf_counter() - t0)
