"""Numerical verification of the piecewise-polynomial proof obligations.

The sharpness argument reduces to comparing two quadratic forms in the
mixing measure; coefficient-wise that is the nonpositivity of the
normalized (unit scale) cross-term gap

    cross_gap(u, t, x, c) = Lam_t(x,c) Psi_u + Lam_u(x,c) Psi_t
                            - M_t(c) N_u(x) - M_u(c) N_t(x)

over 0 < x < 1, 0 < c < 1, u, t > 0, built from the clipped-square kernel
triples.  This module evaluates those objects exactly (piecewise kinks and
all), sweeps them on seeded low-discrepancy samples, and counts the
orderings of the kernel arguments that partition the case analysis.

The ordering counts are exact: they enumerate the cells of a line
arrangement in rational arithmetic.  The sweeps are still sampled, not
certified: the statements are theorems, and the sweeps are regression-grade
numerical confirmation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.stats import qmc

from .constants import bregman_gap
from .errors import DomainError, InvariantError
from .momfun import MomentFunction
from .momfun import _clipped_square as _psi
from .momfun import _clipped_square_slope_odd as _psi_slope_odd
from .oracle import CheckReport, growth_ratio, make_report

__all__ = [
    "kernel_terms",
    "cross_gap",
    "DeltaSample",
    "cross_gap_sample",
    "reflection_gap",
    "doubling_margin",
    "bracket_margin",
    "sqrt_concavity_margins",
    "SweepReport",
    "sweep_cross_gap",
    "sweep_reflection_gap",
    "sweep_doubling_margin",
    "check_growth_vs_gap",
    "OrderingCounts",
    "enumerate_orderings",
]

_VIOL_TOL = 1e-12


def kernel_terms(t, s, x, c):
    """The three clipped-square kernels at clip level t and scale s:

    lam = c psi(x+s-c) + (s-c) psi(x-c) - s psi(x)   (s times the expected
          psi-increase of the (c, s-c) two-pointer at x),
    mu  = lam at x = 0,
    nu  = psi(x-s) - psi(x) + s psi'(x)              (the Bregman gap).

    Scalars or broadcastable arrays.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("clip level must be positive")
    s = np.asarray(s, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(c <= 0.0) or np.any(c >= s):
        raise DomainError("kernel terms need 0 < c < s")
    lam = c * _psi(t, x + s - c) + (s - c) * _psi(t, x - c) - s * _psi(t, x)
    mu = c * _psi(t, s - c) + (s - c) * _psi(t, c)
    nu = _psi(t, x - s) - _psi(t, x) + s * _psi_slope_odd(t, x)
    return lam, mu, nu


def cross_gap(u, t, x, c):
    """The unit-scale cross-term gap; nonpositive on 0<x<1, 0<c<1, u,t>0.

    Symmetric in (u, t); vanishes identically in the limit c -> 1 and when
    both clip levels are at least 2 (where every kernel is quadratic)."""
    u = np.asarray(u, dtype=float)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(u <= 0.0) or np.any(t <= 0.0):
        raise DomainError("clip levels must be positive")
    if np.any(x <= 0.0) or np.any(x >= 1.0) or np.any(c <= 0.0) or np.any(c >= 1.0):
        raise DomainError("cross gap needs x, c in (0, 1)")
    lam_t, mu_t, nu_t = kernel_terms(t, 1.0, x, c)
    lam_u, mu_u, nu_u = kernel_terms(u, 1.0, x, c)
    psi_t1 = _psi(t, 1.0)
    psi_u1 = _psi(u, 1.0)
    return lam_t * psi_u1 + lam_u * psi_t1 - mu_t * nu_u - mu_u * nu_t


def reflection_gap(t, x, c):
    """lam_t(x, c) - lam_t(x, 1-c) at unit scale for c in (0, 1/2];
    nonpositive throughout."""
    c = np.asarray(c, dtype=float)
    if np.any(c <= 0.0) or np.any(c > 0.5):
        raise DomainError("reflection gap needs c in (0, 1/2]")
    lam_c, _, _ = kernel_terms(t, 1.0, x, c)
    lam_r, _, _ = kernel_terms(t, 1.0, x, 1.0 - c)
    return lam_c - lam_r


def doubling_margin(t, c, a):
    """2 U(c, 1, a) - U(c, 1, 0) for the clipped square at level t, with
    U(c, s, a) = c psi(s-c+a) + (s-c) psi(a-c); nonnegative for
    0 < a < c < 1/2 (the centering constant never exceeds 2)."""
    t = np.asarray(t, dtype=float)
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("clip level must be positive")
    if np.any(c <= 0.0) or np.any(c >= 0.5):
        raise DomainError("doubling margin needs c in (0, 1/2)")
    if np.any(a <= 0.0) or np.any(a >= c):
        raise DomainError("doubling margin needs a in (0, c)")

    def U(av):
        return c * _psi(t, 1.0 - c + av) + (1.0 - c) * _psi(t, av - c)

    return 2.0 * U(a) - U(0.0)


def bracket_margin(p):
    """4 (p-1)**(p-1) - (6-p)**(p-1); positive on (1, 2), zero at p = 2.
    Its sign pins the root bracket endpoint signs for the power maximizer."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 1.0) or np.any(p >= 2.0):
        raise DomainError("bracket margin defined for p in (1, 2)")
    return 4.0 * (p - 1.0) ** (p - 1.0) - (6.0 - p) ** (p - 1.0)


def sqrt_concavity_margins(t: float, z_grid) -> np.ndarray:
    """Successive slope differences of z |-> bregman gap at unit scale
    evaluated at x = 1 - sqrt(z), for the clipped square at level t in (0, 1).

    The map is concave on (0, 1), so consecutive chord slopes never increase;
    divided differences make the test valid on nonuniform grids, and a kink
    of the clipped square straddled by grid points only sharpens the drop.
    Returns slope[i+1] - slope[i] per interior point (nonpositive up to
    rounding; on a uniform grid this is the second difference over the
    spacing)."""
    t = float(t)
    if not 0.0 < t < 1.0:
        raise DomainError("concavity check reduction needs t in (0, 1)")
    z = np.asarray(z_grid, dtype=float)
    if np.any(z <= 0.0) or np.any(z >= 1.0) or np.any(np.diff(z) <= 0):
        raise DomainError("z grid must be increasing inside (0, 1)")
    x = 1.0 - np.sqrt(z)
    vals = _psi(t, x - 1.0) - _psi(t, x) + _psi_slope_odd(t, x)
    slopes = np.diff(vals) / np.diff(z)
    return np.diff(slopes)


@dataclass(frozen=True)
class DeltaSample:
    """One evaluated cross-gap sample with its argument-ordering signature.

    ``ordering_id`` is the argsort permutation of the seven kernel arguments
    (1, x, 1+x-c, |x-c|, 1-c, c, 1-x) at (x, c); together with the cells of
    the two clip levels it indexes the piecewise-polynomial case the sample
    falls in."""

    u: float
    t: float
    x: float
    c: float
    value: float
    ordering_id: tuple

    def __post_init__(self):
        if not (0.0 < self.x < 1.0 and 0.0 < self.c < 1.0
                and self.u > 0.0 and self.t > 0.0):
            raise DomainError("sample outside the gap restrictions")


def cross_gap_sample(u: float, t: float, x: float, c: float) -> DeltaSample:
    """Evaluate the cross-term gap at one point, tagged with its ordering."""
    z = np.array([1.0, x, 1.0 + x - c, abs(x - c), 1.0 - c, c, 1.0 - x])
    return DeltaSample(u=float(u), t=float(t), x=float(x), c=float(c),
                       value=float(cross_gap(u, t, x, c)),
                       ordering_id=tuple(int(i) for i in np.argsort(z)))


# --- seeded low-discrepancy sweeps --------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    """Outcome of one nonpositivity sweep: passes iff max violation <= 1e-12."""

    name: str
    n: int
    seed: int
    max_violation: float
    argmax_point: tuple
    passed: bool


def _sobol(n: int, dim: int, seed: int) -> np.ndarray:
    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = max(int(n) - 1, 1).bit_length()  # draw a power of two, keep n
    pts = eng.random(2 ** m)[: int(n)]
    eps = 1e-9  # keep samples strictly inside open boxes
    return pts * (1.0 - 2.0 * eps) + eps


def sweep_cross_gap(n_samples: int, seed: int = 20240901) -> SweepReport:
    """Low-discrepancy sweep of the cross-term gap over (x, c) in (0,1)^2 and
    clip levels in (0, 2.5]^2 -- the gap is constant in each level beyond 2,
    so sampling a margin past 2 covers (0, inf)."""
    pts = _sobol(int(n_samples), 4, seed)
    x = pts[:, 0]
    c = pts[:, 1]
    u = pts[:, 2] * 2.5
    t = pts[:, 3] * 2.5
    vals = cross_gap(u, t, x, c)
    i = int(np.argmax(vals))
    mx = float(vals[i])
    return SweepReport(name="cross_gap", n=int(n_samples), seed=seed,
                       max_violation=max(mx, 0.0),
                       argmax_point=(float(u[i]), float(t[i]), float(x[i]), float(c[i])),
                       passed=bool(mx <= _VIOL_TOL))


def sweep_reflection_gap(n_samples: int, seed: int = 20240902) -> SweepReport:
    """Sweep of the reflection gap over (t, x, c) with c in (0, 1/2]."""
    pts = _sobol(int(n_samples), 3, seed)
    t = pts[:, 0] * 2.5
    x = pts[:, 1]
    c = pts[:, 2] * 0.5
    vals = reflection_gap(t, x, c)
    i = int(np.argmax(vals))
    mx = float(vals[i])
    return SweepReport(name="reflection_gap", n=int(n_samples), seed=seed,
                       max_violation=max(mx, 0.0),
                       argmax_point=(float(t[i]), float(x[i]), float(c[i])),
                       passed=bool(mx <= _VIOL_TOL))


def sweep_doubling_margin(n_samples: int, seed: int = 20240903) -> SweepReport:
    """Sweep of the doubling margin (violations are negative margins)."""
    pts = _sobol(int(n_samples), 3, seed)
    t = pts[:, 0] * 2.5
    c = pts[:, 1] * 0.5
    a = pts[:, 2] * c
    vals = doubling_margin(t, c, a)
    i = int(np.argmin(vals))
    mn = float(vals[i])
    return SweepReport(name="doubling_margin", n=int(n_samples), seed=seed,
                       max_violation=max(-mn, 0.0),
                       argmax_point=(float(t[i]), float(c[i]), float(a[i])),
                       passed=bool(mn >= -_VIOL_TOL))


def check_growth_vs_gap(f: MomentFunction, c: float, s: float, x: float) -> CheckReport:
    """growth_ratio(f, c, s, x) <= bregman_gap(f, s, x) / f(s) for 0 < x < s,
    0 < c < s: the two-point ratio never exceeds its limiting profile."""
    lhs = growth_ratio(f, c, s, x)
    rhs = float(bregman_gap(f, s, x)) / float(f.eval(s))
    return make_report(lhs, rhs, math.nan)


# --- ordering enumeration ------------------------------------------------------

@dataclass(frozen=True)
class OrderingCounts:
    """Feasible strict orderings of the seven kernel arguments
    (1, x, 1+x-c, |x-c|, 1-c, c, 1-x) over 0 < x < 1, 1/2 < c < 1, split by
    the branch x < c versus x > c, with a float (x, c) witness per ordering.

    The domain is the one the case analysis needs: c < 1 is the unit-scale
    two-pointer's c < s, and c <= 1/2 reduces to 1 - c >= 1/2 through the
    nonpositive reflection gap.  The counts depend on that bound: letting c
    run up to 3 gives 18 orderings, not 12.  An ordering is the argsort
    permutation of the seven values (their indices in increasing order), not
    their ranks.  case_count = (total orderings) * 36 level-cell pairs."""

    count_x_lt_c: int
    count_x_gt_c: int
    case_count: int
    orderings_x_lt_c: tuple
    orderings_x_gt_c: tuple
    witnesses: dict


def _strict_order(x, c):
    """The argsort permutation of the seven values at (x, c), evaluated in
    exact rationals, or None when two of them tie."""
    x, c = Fraction(x), Fraction(c)
    z = (Fraction(1), x, 1 + x - c, abs(x - c), 1 - c, c, 1 - x)
    order = tuple(sorted(range(7), key=z.__getitem__))
    if all(z[a] < z[b] for a, b in zip(order, order[1:])):
        return order
    return None


def _arrangement_orderings(below: bool) -> dict:
    """Every strict ordering on one branch (x < c if below, else x > c), each
    with an exact rational point inside one of its cells.

    On a branch each value is affine in (x, c), so each tie is a line, and so
    is each domain edge.  Between consecutive abscissae where two lines cross
    or a line is vertical, no two lines cross; so at the slab's midpoint the
    non-vertical lines, sorted by c, bound every cell the slab meets."""
    sign = -1 if below else 1  # |x-c| = sign * (x - c) on the branch
    coef = ((1, 0, 0), (0, 1, 0), (1, 1, -1), (0, sign, -sign),
            (1, 0, -1), (0, 0, 1), (1, -1, 0))  # (const, x, c) of each value
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    lines = {(half, zero), (one, zero), (zero, one)}  # c = alpha + beta x
    cuts = {zero, one}
    for i, j in itertools.combinations(range(7), 2):
        a, b, d = (p - q for p, q in zip(coef[i], coef[j]))
        if d:
            lines.add((Fraction(-a, d), Fraction(-b, d)))
        elif b:
            cuts.add(Fraction(-a, b))
    for (a1, b1), (a2, b2) in itertools.combinations(lines, 2):
        if b1 != b2:
            cuts.add((a2 - a1) / (b1 - b2))
    xs = sorted(v for v in cuts if 0 <= v <= 1)
    found = {}
    for x in ((l + r) / 2 for l, r in zip(xs, xs[1:])):
        lo, hi = (max(half, x), one) if below else (half, min(one, x))
        cs = sorted({v for v in (a + b * x for a, b in lines) if lo <= v <= hi})
        for c in ((l + r) / 2 for l, r in zip(cs, cs[1:])):
            order = _strict_order(x, c)
            if order is None:
                raise InvariantError(f"tie inside an arrangement cell at ({x}, {c})")
            found.setdefault(order, (x, c))
    return found


def _float_witness(order, point, below: bool) -> tuple:
    """Round an exact cell point to floats and check, in exact rationals at
    those floats, that it still lies in the domain on its branch and realises
    its ordering."""
    x, c = (float(v) for v in point)
    if not (0.0 < x < 1.0 and 0.5 < c < 1.0 and (x < c) == below
            and _strict_order(x, c) == order):
        raise InvariantError(f"float witness ({x!r}, {c!r}) does not realise {order}")
    return x, c


def _z_values(x, c):
    one = np.ones_like(x)
    return np.stack([one, x, 1.0 + x - c, np.abs(x - c), 1.0 - c, c, 1.0 - x], axis=1)


def _scanned_orderings(x, c) -> tuple:
    """The orderings met at the float points (x, c), split by branch."""
    lt = x < c
    return tuple(set(map(tuple, np.argsort(_z_values(x[m], c[m]), axis=1).tolist()))
                 for m in (lt, ~lt))


def enumerate_orderings(n_samples: int = 0, seed: int = 20240904,
                        grid: int = 0) -> OrderingCounts:
    """Count the feasible orderings exactly, by enumerating the cells of the
    line arrangement of all ties in rational arithmetic (see
    ``OrderingCounts`` for the domain 0 < x < 1, 1/2 < c < 1 and the key).

    Counts, orderings and witnesses always come from the exact enumeration.
    A positive ``n_samples`` adds a scan of that many uniform random points
    (seeded by ``seed``), and a positive ``grid`` a scan of a grid x grid
    lattice offset by irrational fractions so that no lattice point lies on a
    tie line; each scan must find exactly the exact orderings, or this raises
    InvariantError."""
    exact = [_arrangement_orderings(below) for below in (True, False)]
    scans = []
    if n_samples > 0:
        rng = np.random.default_rng(seed)
        scans.append(_scanned_orderings(rng.uniform(0.0, 1.0, int(n_samples)),
                                        rng.uniform(0.5, 1.0, int(n_samples))))
    if grid > 0:
        xs = (np.arange(grid) + 0.61803398874989484) / grid
        cs = 0.5 + (np.arange(grid) + 0.41421356237309515) / (2.0 * grid)
        xg, cg = (a.ravel() for a in np.meshgrid(xs, cs, indexing="ij"))
        scans.append(_scanned_orderings(xg, cg))
    for scan in scans:
        if scan != tuple(set(e) for e in exact):
            raise InvariantError("an ordering scan disagrees with the exact enumeration")

    witnesses = {order: _float_witness(order, point, below)
                 for below, found in zip((True, False), exact)
                 for order, point in found.items()}
    n_lt, n_gt = len(exact[0]), len(exact[1])
    # each ordering splits the two clip levels over 8 intervals: 36 cell pairs
    return OrderingCounts(
        count_x_lt_c=n_lt, count_x_gt_c=n_gt,
        case_count=(n_lt + n_gt) * 36,
        orderings_x_lt_c=tuple(sorted(exact[0])),
        orderings_x_gt_c=tuple(sorted(exact[1])),
        witnesses=witnesses,
    )
