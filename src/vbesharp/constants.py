"""Sharp and explicit constants for the extended moment inequalities.

The central object is the Bregman-type gap

    bregman_gap(f, s, x) = f(x - s) - f(x) + s f'(x),    0 < x < s,

whose normalized supremum sup_{0<x<s} gap / f(s) over all scales s is the
best possible factor in  E f(S_n) <= E f(X_1) + C * sum_{j>=2} E f(X_j)  for
v-martingales.  For power functions the supremum collapses by homogeneity to
a one-dimensional root-find; for clipped squares it has a closed form; for
everything else the outer scale sweep yields a certified lower bound.

Also provided: the classical Fourier-side constants D(p) and 1/(1-D(p))_+ of
the original von Bahr-Esseen bound, the centering constants in
E f(X) <= kappa * E f(X + a) for zero-mean X, and the reduced spread factor
for rearranged difference sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BracketError, ConfigurationError, DomainError
from .momfun import MomentFunction

__all__ = [
    "ConstantResult",
    "PowerConstants",
    "golden_max",
    "bregman_gap",
    "bregman_ratio_max",
    "sharp_constant",
    "power_gap",
    "power_gap_argmax",
    "power_sharp_constant",
    "power_constant_bounds",
    "vbe_D",
    "vbe_constant",
    "centering_objective",
    "centering_argmin",
    "centering_constant",
    "power_centering_constant",
    "spread_factor",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ConstantResult:
    """A computed constant with its witness point and method provenance.

    ``witness`` lists (name, value) argmax/argmin coordinates.  ``method`` is
    one of closed_form / root_find / golden_section / grid_sup / nested_opt;
    grid_sup values are certified lower bounds of the true supremum.
    ``attained_in_limit`` marks suprema that are approached, not attained
    (e.g. the clipped-square families).
    """

    value: float
    witness: tuple = ()
    method: str = "closed_form"
    abs_tol: float = 1e-12
    attained_in_limit: bool = False
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise DomainError("abs_tol must be positive")


@dataclass(frozen=True)
class PowerConstants:
    """Sharp power constant with its root and the five explicit bounds."""

    p: float
    x_p: float
    sharp: float
    lower_1: float
    lower_2: float
    upper_1: float
    upper_2: float
    envelope: float  # 2**(2-p)


def golden_max(fn: Callable[[float], float], lo: float, hi: float,
               tol: float, max_iter: int = 400) -> tuple[float, float]:
    """Golden-section maximum of a unimodal fn on [lo, hi], parabolic-refined.

    Termination at interval width ``tol``; a final three-point parabolic fit
    sharpens the value and is kept only when it does not decrease it.
    """
    a, b = float(lo), float(hi)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fn(x1)
    xm = 0.5 * (a + b)
    fm = fn(xm)
    # parabolic refinement through (a, x_m, b)
    fa, fb = fn(a), fn(b)
    denom = (xm - a) * (fm - fb) - (xm - b) * (fm - fa)
    if denom != 0.0:
        xv = xm - 0.5 * ((xm - a) ** 2 * (fm - fb) - (xm - b) ** 2 * (fm - fa)) / denom
        if a < xv < b:
            fv = fn(xv)
            if fv > fm:
                xm, fm = xv, fv
    if f1 > fm:
        xm, fm = x1, f1
    if f2 > fm:
        xm, fm = x2, f2
    return xm, fm


def bregman_gap(f: MomentFunction, s: float, x):
    """f(x-s) - f(x) + s f'(x): the first-order overshoot of f at x-s seen
    from x.  Nonnegative by convexity; defined here for 0 < x < s."""
    s = float(s)
    if not s > 0.0:
        raise DomainError("scale s must be positive")
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0) or np.any(xa >= s):
        raise DomainError("bregman_gap needs 0 < x < s")
    return f.eval(xa - s) - f.eval(xa) + s * f.deriv(xa)


def bregman_ratio_max(f: MomentFunction, s: float) -> ConstantResult:
    """max over x in (0, s) of bregman_gap(f, s, x) / f(s).

    The gap is nondecreasing then nonincreasing in x, so golden section
    applies; the witness carries the argmax.
    """
    s = float(s)
    if not s > 0.0:
        raise DomainError("scale s must be positive")
    fs = float(f.eval(s))
    if fs <= 0.0:
        raise DomainError("f must be positive at s")

    def target(x):
        return float(f.eval(x - s) - f.eval(x) + s * f.deriv(x))

    pad = 1e-13 * s
    xm, val = golden_max(target, pad, s - pad, tol=1e-12 * s)
    return ConstantResult(value=val / fs, witness=(("x_star", xm),),
                          method="golden_section", abs_tol=1e-10 * max(1.0, val / fs))


def sharp_constant(f: MomentFunction, s_max: float = 1e4, n_s: int = 200) -> ConstantResult:
    """Best factor C in E f(S_n) <= E f(X_1) + C sum_{j>=2} E f(X_j).

    Closed forms: clipped squares give 2 (finite clip; approached as the
    scale grows) and the pure square gives 1; powers reduce by homogeneity to
    the one-dimensional problem solved in power_sharp_constant.  Otherwise the
    scale profile is swept on a log grid over (s_f, s_max] with golden
    refinement around the best grid point, and the result is a certified
    lower bound (always within [1, 2]).  The sweep never stops early on a
    decrease: the profile need not be monotone in s.
    """
    if f.kind == "extreme":
        if math.isinf(f.param):
            return ConstantResult(value=1.0, method="closed_form")
        return ConstantResult(value=2.0, method="closed_form", attained_in_limit=True)
    if f.kind == "power":
        if f.param == 2.0:
            return ConstantResult(value=1.0, method="closed_form")
        return power_sharp_constant(f.param)

    if n_s < 8:
        raise ConfigurationError("scale grid needs at least 8 points")
    s_lo = f.s_f + 1e-6 * (1.0 + f.s_f)
    if s_lo >= s_max:
        raise ConfigurationError("s_max must exceed the support infimum")
    grid = np.geomspace(s_lo, s_max, n_s)
    profile = np.array([bregman_ratio_max(f, s).value for s in grid])
    i = int(np.argmax(profile))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, n_s - 1)]
    sm, val = golden_max(lambda ls: bregman_ratio_max(f, math.exp(ls)).value,
                         math.log(lo), math.log(hi), tol=1e-10)
    s_star = math.exp(sm)
    val = max(val, float(profile[i]))
    x_star = bregman_ratio_max(f, s_star).witness[0][1]
    return ConstantResult(
        value=val,
        witness=(("s_star", s_star), ("x_star", x_star)),
        method="grid_sup",
        abs_tol=1e-9 * max(1.0, val),
        attained_in_limit=(i == n_s - 1),
        meta={"s_grid": grid, "profile": profile},
    )


def power_gap(p: float, x):
    """(1-x)**p - x**p + p x**(p-1): the unit-scale gap for |.|**p, x in (0,1)."""
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError(f"exponent must lie in (1, 2], got {p}")
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0.0) or np.any(xa >= 1.0):
        raise DomainError("power_gap needs x in (0, 1)")
    return (1.0 - xa) ** p - xa ** p + p * xa ** (p - 1.0)


def power_gap_argmax(p: float) -> ConstantResult:
    """Unique maximizer of power_gap(p, .): the root in ((p-1)/5, (p-1)/2) of

        (1-x)**(p-1) + x**(p-1) = (p-1) x**(p-2),

    found by bisection on that bracket to full double precision."""
    p = float(p)
    if not 1.0 < p < 2.0:
        raise DomainError(f"exponent must lie in (1, 2), got {p}")

    def resid(x):
        return (1.0 - x) ** (p - 1.0) + x ** (p - 1.0) - (p - 1.0) * x ** (p - 2.0)

    lo, hi = (p - 1.0) / 5.0, (p - 1.0) / 2.0
    rl, rh = resid(lo), resid(hi)
    if not (rl < 0.0 < rh):
        raise BracketError(
            f"bracket sign condition failed at p={p}: resid({lo})={rl}, resid({hi})={rh}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if resid(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return ConstantResult(value=root, witness=(("residual", resid(root)),),
                          method="root_find", abs_tol=1e-12)


def power_sharp_constant(p: float) -> ConstantResult:
    """Sharp factor for |.|**p: 1 exactly at p = 2, else power_gap at its
    maximizer.  Strictly decreasing in p from 2 (at p -> 1+) to 1."""
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError(f"exponent must lie in (1, 2], got {p}")
    if p == 2.0:
        return ConstantResult(value=1.0, method="closed_form")
    xp = power_gap_argmax(p)
    return ConstantResult(value=float(power_gap(p, xp.value)),
                          witness=(("x_p", xp.value),),
                          method="root_find", abs_tol=1e-11)


def power_constant_bounds(p: float) -> PowerConstants:
    """The sharp power constant bracketed by its four explicit bounds and the
    envelope 2**(2-p):  max(lower) < sharp < min(upper) <= upper_2 < envelope
    strictly on (1, 2), with every bound exact at the interval endpoints."""
    p = float(p)
    if not 1.0 < p < 2.0:
        raise DomainError(f"exponent must lie in (1, 2), got {p}")
    q = (p - 1.0) ** (p - 1.0)
    lower_1 = 2.0 ** (-p) * ((3.0 - p) ** p + q * (p + 1.0))
    lower_2 = 5.0 ** (-p) * ((6.0 - p) ** p + q * (4.0 * p + 1.0))
    upper_1 = (2.0 ** (-p) / (50.0 * (3.0 - p))) * (
        q * (150.0 + 181.0 * p - 152.0 * p ** 2 + 21.0 * p ** 3)
        + (3.0 - p) ** (p - 1.0) * (450.0 - 381.0 * p + 152.0 * p ** 2 - 21.0 * p ** 3))
    upper_2 = (5.0 ** (-p) / (8.0 * (6.0 - p))) * (
        4.0 * q * (12.0 - 35.0 * p + 94.0 * p ** 2 - 21.0 * p ** 3)
        + (6.0 - p) ** (p - 1.0) * (288.0 - 15.0 * p - 94.0 * p ** 2 + 21.0 * p ** 3))
    xp = power_gap_argmax(p)
    return PowerConstants(
        p=p, x_p=xp.value, sharp=float(power_gap(p, xp.value)),
        lower_1=lower_1, lower_2=lower_2, upper_1=upper_1, upper_2=upper_2,
        envelope=2.0 ** (2.0 - p),
    )


def _sin_half_pi(p: float) -> float:
    # sin(pi p / 2) with exact zeros at even integer p
    half = p / 2.0
    if half == round(half):
        return 0.0
    return math.sin(math.pi * half)


def vbe_D(p: float) -> float:
    """(2/pi) (13/5)**(2-p) Gamma(p) sin(pi p/2): the classical Fourier-side
    comparison quantity; D(2) = 0 exactly and D(1) = 26/(5 pi)."""
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise DomainError(f"exponent must lie in [1, 2], got {p}")
    return 2.0 / math.pi * (13.0 / 5.0) ** (2.0 - p) * math.gamma(p) * _sin_half_pi(p)


def vbe_constant(p: float) -> float:
    """1 / (1 - D(p))_+ with the convention 1/0 = inf."""
    d = vbe_D(p)
    if d >= 1.0:
        return math.inf
    return 1.0 / (1.0 - d)


def centering_objective(f: MomentFunction, c: float, s: float, a: float):
    """c f(s-c+a) + (s-c) f(a-c): s times the mean of f over the shifted
    zero-mean two-pointer at spread (c, s-c).  Positive for 0 < a < c < s/2."""
    c, s = float(c), float(s)
    if not 0.0 < c < s:
        raise DomainError("centering objective needs 0 < c < s")
    return c * f.eval(s - c + a) + (s - c) * f.eval(a - c)


def centering_argmin(f: MomentFunction, c: float, s: float) -> ConstantResult:
    """Unique minimizer over a of the centering objective; lies in [0, c).

    Clipped squares:  a* = c/(s-c) * (s-c-t)_+  (closed form).
    Powers (via homogeneity to s = 1):
        a* = c - c**(1/(p-1)) / (c**(1/(p-1)) + (1-c)**(1/(p-1))).
    Other kinds: golden-section on [0, c], justified by convexity in a.
    """
    c, s = float(c), float(s)
    if not 0.0 < c < s / 2.0:
        raise DomainError("centering minimizer needs 0 < c < s/2")
    if f.kind == "extreme":
        t = f.param
        a = 0.0 if math.isinf(t) else c / (s - c) * max(s - c - t, 0.0)
        return ConstantResult(value=a, method="closed_form")
    if f.kind == "power":
        p = f.param
        if p == 2.0:
            return ConstantResult(value=0.0, method="closed_form")
        cu = c / s
        e = 1.0 / (p - 1.0)
        au = cu - cu ** e / (cu ** e + (1.0 - cu) ** e)
        return ConstantResult(value=s * au, method="closed_form")
    xm, _ = golden_max(lambda a: -float(centering_objective(f, c, s, a)),
                       0.0, c, tol=1e-13 * max(c, 1.0))
    return ConstantResult(value=min(max(xm, 0.0), c * (1.0 - 1e-15)),
                          method="golden_section", abs_tol=1e-10 * max(1.0, c))


_DEFAULT_RATIOS = (2.5, 4.0, 10.0, 1e2, 1e3)


def centering_constant(f: MomentFunction,
                       c_grid: Optional[Sequence[float]] = None,
                       ratios: Sequence[float] = _DEFAULT_RATIOS) -> ConstantResult:
    """Best kappa in E f(X) <= kappa E f(X+a) over zero-mean X; in [1, 2].

    Equals sup over 0 < c < s/2 and a in (0, c) of the ratio of the centering
    objective at a = 0 to its minimum.  Closed forms: the pure square gives
    1 and clipped squares give 2, a supremum reached only in a double limit.
    Otherwise swept over a log grid of spreads c and scale ratios s/c with
    the exact inner minimizer, then sharpened by two rounds of coordinate
    golden refinement; the result is a certified lower bound.
    """
    if f.kind == "extreme":
        if math.isinf(f.param):
            return ConstantResult(value=1.0, method="closed_form")
        return ConstantResult(value=2.0, method="closed_form", attained_in_limit=True)
    if c_grid is None:
        c_grid = np.geomspace(1e-2, 1e3, 40)
    c_grid = np.asarray(c_grid, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios <= 2.0):
        raise DomainError("scale ratios must exceed 2 (c < s/2)")

    def ratio(c, s):
        a = centering_argmin(f, c, s).value
        num = float(centering_objective(f, c, s, 0.0))
        den = float(centering_objective(f, c, s, a))
        return num / den, a

    best = (1.0, c_grid[0], ratios[0] * c_grid[0], 0.0)
    best_idx = (0, 0)
    for i, c in enumerate(c_grid):
        for j, rho in enumerate(ratios):
            r, a = ratio(c, rho * c)
            if r > best[0]:
                best = (r, c, rho * c, a)
                best_idx = (i, j)
    val, c_star, s_star, a_star = best

    # coordinate refinement in log space around the grid argmax
    for _ in range(2):
        lr, v = golden_max(lambda t: ratio(c_star, math.exp(t) * c_star)[0],
                           math.log(2.0 + 1e-9), math.log(float(ratios[-1])),
                           tol=1e-12)
        if v > val:
            val, s_star = v, math.exp(lr) * c_star
        lc, v = golden_max(lambda t: ratio(math.exp(t), math.exp(t) * s_star / c_star)[0],
                           math.log(c_grid[0]), math.log(c_grid[-1]), tol=1e-12)
        if v > val:
            ratio_keep = s_star / c_star
            c_star = math.exp(lc)
            s_star = c_star * ratio_keep
            val = v
    a_star = centering_argmin(f, c_star, s_star).value
    on_boundary = (
        best_idx[0] in (0, len(c_grid) - 1) or best_idx[1] == len(ratios) - 1)
    if not (1.0 - 1e-12 <= val <= 2.0 + 1e-9):
        raise BracketError(f"centering constant {val} escaped [1, 2]")
    return ConstantResult(
        value=val,
        witness=(("c_star", c_star), ("s_star", s_star), ("a_star", a_star)),
        method="grid_sup", abs_tol=1e-9,
        attained_in_limit=on_boundary,
    )


def power_centering_constant(p: float) -> ConstantResult:
    """Centering constant for |.|**p:

        max over c in [0, 1/2] of
        (c**(p-1) + (1-c)**(p-1)) * (c**(1/(p-1)) + (1-c)**(1/(p-1)))**(p-1).

    Exactly 1 at p = 2; strictly decreasing in p from 2 to 1."""
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError(f"exponent must lie in (1, 2], got {p}")
    if p == 2.0:
        return ConstantResult(value=1.0, witness=(("c_star", 0.0),),
                              method="closed_form")
    e = 1.0 / (p - 1.0)

    def h(c):
        if c <= 0.0:
            return 1.0
        return (c ** (p - 1.0) + (1.0 - c) ** (p - 1.0)) * (
            c ** e + (1.0 - c) ** e) ** (p - 1.0)

    grid = np.linspace(0.0, 0.5, 201)
    vals = np.array([h(c) for c in grid])
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    cm, val = golden_max(h, lo, hi, tol=1e-13)
    return ConstantResult(value=val, witness=(("c_star", cm),),
                          method="golden_section", abs_tol=1e-11)


def spread_factor(C: float, lam: float, n: int) -> float:
    """C - (lam/n)(C - 1): the factor after spreading the leading summand's
    excess over all n terms; never exceeds C."""
    C, lam = float(C), float(lam)
    if C < 1.0:
        raise DomainError("factor must be at least 1")
    if not lam > 0.0:
        raise DomainError("weight share must be positive")
    if not n >= 2:
        raise DomainError("need at least two summands")
    if lam > n:
        raise DomainError("one summand cannot carry more than the total weight")
    return C - lam / n * (C - 1.0)
