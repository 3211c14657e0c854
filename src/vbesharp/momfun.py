"""Moment functions interpolating between |x| and x**2, and their mixing measures.

The admissible class consists of even C^1 functions f with f(0) = 0 whose
derivative is nondecreasing and concave on [0, oo) -- equivalently, whose
(right) second derivative is nonnegative and nonincreasing on (0, oo).  Every
such f is an integral mixture

    f(x) = integral of clipped_square(t, x) over a measure gamma on (0, oo],

where ``clipped_square(t, x) = x**2 - (|x| - t)_+**2`` is the square function
with growth clipped to slope 2t beyond |x| = t, and the mixing measure is
pinned down by ``gamma((x, oo]) = f''(x) / 2``.  This module provides:

* evaluator bundles (``MomentFunction``) for the concrete families: powers
  |x|**p with p in (1, 2], the clipped squares themselves, an alternating
  parabolic-spline family with doubly exponential breakpoints, and functions
  built from a prescribed second derivative;
* the mixing-measure representation in both directions (``gamma_of`` /
  ``momfun_of_gamma``);
* one piecewise-polynomial evaluator behind the alternating spline and the
  moment function of a measure made of atoms and step densities;
* the effective exponent of the alternating spline, which oscillates between
  3/2 and 5/3 far from the origin.

All evaluators accept scalars or numpy arrays and are pure; every object is
immutable after construction.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, InvariantError

__all__ = [
    "clipped_square",
    "clipped_square_slope",
    "MomentFunction",
    "GammaMeasure",
    "AltSplineParams",
    "power_momfun",
    "extreme_momfun",
    "altspline_momfun",
    "from_second_derivative",
    "gamma_of",
    "momfun_of_gamma",
    "effective_exponent",
    "block_position",
    "limiting_exponent",
]

# Absolute tolerance target for the adaptive quadratures in this module.
_QUAD_TOL = 1e-10
# log(x_j + 1) beyond this would overflow a double when exponentiated.
_LOG_CAP = 700.0


def _check_clip_level(t) -> float:
    t = float(t)
    if not t > 0.0:
        raise DomainError(f"clip level must be positive (or inf), got {t}")
    return t


def _clipped_square(t, x):
    # Unchecked kernel of clipped_square; t may be an array.  With m = min(|x|, t)
    # the value m*(2|x| - m) is x**2 exactly up to the clip and t*(2|x| - t)
    # beyond it, so nothing cancels however far |x| lies past t; t = inf needs
    # no branch.
    ax = np.abs(x)
    m = np.minimum(ax, t)
    return m * (2.0 * ax - m)


def clipped_square(t, x):
    """x**2 - (|x| - t)_+**2: the square function linearized beyond |x| = t.

    Equals x**2 for |x| <= t and 2*t*|x| - t**2 beyond; t = inf gives x**2
    for all x.  Accepts scalar or array x.
    """
    return _clipped_square(_check_clip_level(t), x)


def clipped_square_slope(t, x):
    """Right derivative 2*min(t, x) of clipped_square(t, .) at x >= 0."""
    t = _check_clip_level(t)
    if np.any(np.asarray(x) < 0):
        raise DomainError("clipped_square_slope is defined for x >= 0")
    return 2.0 * np.minimum(t, x)


def _clipped_square_slope_odd(t, x):
    # Odd extension used by evaluator bundles; no domain check on x.
    return np.sign(x) * 2.0 * np.minimum(t, np.abs(x))


def _vectorize_scalar(fn):
    """Wrap a scalar-only callable so it also maps over array input."""

    def wrapped(x):
        if np.ndim(x) == 0:
            return fn(float(x))
        flat = np.asarray(x, dtype=float)
        return np.fromiter((fn(float(v)) for v in flat.ravel()), dtype=float,
                           count=flat.size).reshape(flat.shape)

    return wrapped


@dataclass(frozen=True)
class MomentFunction:
    """Evaluator bundle (f, f', f'') for one admissible moment function.

    ``second_deriv`` is the right derivative of ``deriv`` on (0, oo) (left on
    (-oo, 0)); at a breakpoint it returns the right-limit value.  ``s_f`` is
    the infimum of the support of the mixing measure.  ``homogeneous_degree``
    is set for families closed under scaling (p for powers; 2 for clipped
    squares under joint (t, x) scaling).
    """

    eval: Callable
    deriv: Callable
    second_deriv: Callable
    kind: str
    param: object = None
    s_f: float = 0.0
    homogeneous_degree: Optional[float] = None
    label: str = ""

    def __call__(self, x):
        return self.eval(x)


class _Tables(NamedTuple):
    # per-piece coefficients of a piecewise polynomial, indexed by piece
    bp: object
    value: object
    slope: object
    a2: object
    a3: object
    c0: object
    c1: object


def _piecewise_momfun(bp, c0, c1, top=math.inf, **fields) -> MomentFunction:
    """Moment function with f(0) = f'(0) = 0 and, on the piece starting at
    bp[j], f''(x) = c0[j] + c1[j]*(|x| - bp[j]); the last piece ends at top.

    bp increases from bp[0] = 0.  Slope and value at each breakpoint are
    accumulated once; an evaluation finds its piece by binary search and works
    in Horner form in d = |x| - bp[j], so no power of d is formed before it is
    scaled.  A float (np.float64 included) is evaluated on Python lists of the
    tables, without numpy; anything else on the numpy arrays.  Both do the
    same IEEE operations in the same order, so they agree bit for bit.
    |x| >= top raises.  ``fields`` are the MomentFunction fields besides the
    evaluators.
    """
    bp = np.asarray(bp, dtype=float)
    c0 = np.asarray(c0, dtype=float)
    c1 = np.asarray(c1, dtype=float)
    a2, a3 = 0.5 * c0, c1 / 6.0
    h = np.diff(bp)
    slope = np.concatenate([[0.0], np.cumsum(h * (c0[:-1] + h * (0.5 * c1[:-1])))])
    value = np.concatenate(
        [[0.0], np.cumsum(h * (slope[:-1] + h * (a2[:-1] + h * a3[:-1])))])
    arrays = _Tables(bp, value, slope, a2, a3, c0, c1)
    lists = _Tables(*(t.tolist() for t in arrays))

    def _piece(x):
        # (tables, piece index j, d = |x| - bp[j], sign of x)
        if isinstance(x, float):
            x = float(x)
            t, ax, sign = lists, abs(x), (x > 0.0) - (x < 0.0)
            beyond = ax >= top
            j = bisect.bisect_right(t.bp, ax) - 1
        else:
            t, ax, sign = arrays, np.abs(x), np.sign(x)
            beyond = np.any(ax >= top)
            j = np.searchsorted(t.bp, ax, side="right") - 1
        if beyond:
            raise DomainError(
                f"{fields['label']} evaluation supported on |x| < {top:.6g}")
        return t, j, ax - t.bp[j], sign

    def f(x):
        t, j, d, _ = _piece(x)
        return t.value[j] + d * (t.slope[j] + d * (t.a2[j] + d * t.a3[j]))

    def fp(x):
        t, j, d, sign = _piece(x)
        return sign * (t.slope[j] + d * (t.c0[j] + d * (0.5 * t.c1[j])))

    def fpp(x):
        t, j, d, _ = _piece(x)
        return t.c0[j] + t.c1[j] * d

    return MomentFunction(eval=f, deriv=fp, second_deriv=fpp, **fields)


def power_momfun(p: float) -> MomentFunction:
    """|x|**p for p in (1, 2]. p = 1 is excluded (not C^1 at 0)."""
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError(f"power exponent must lie in (1, 2], got {p}")

    def f(x, p=p):
        return np.abs(x) ** p

    def fp(x, p=p):
        return p * np.abs(x) ** (p - 1.0) * np.sign(x)

    def fpp(x, p=p):
        if p == 2.0:
            return 2.0 * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 2.0
        return p * (p - 1.0) * np.abs(x) ** (p - 2.0)

    return MomentFunction(
        eval=f, deriv=fp, second_deriv=fpp, kind="power", param=p,
        s_f=math.inf if p == 2.0 else 0.0, homogeneous_degree=p,
        label=f"power({p:g})",
    )


def extreme_momfun(t: float) -> MomentFunction:
    """clipped_square(t, .), the generator of one extreme ray of the class."""
    t = _check_clip_level(t)

    def f(x, t=t):
        return clipped_square(t, x)

    def fp(x, t=t):
        return _clipped_square_slope_odd(t, x)

    def fpp(x, t=t):
        # right-limit convention: f'' = 2 on [0, t), 0 on [t, oo)
        if math.isinf(t):
            return 2.0 * np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 2.0
        return 2.0 * (np.abs(x) < t)

    return MomentFunction(
        eval=f, deriv=fp, second_deriv=fpp, kind="extreme", param=t,
        s_f=t, homogeneous_degree=2.0,
        label=f"clipped({t:g})",
    )


@dataclass(frozen=True)
class AltSplineParams:
    """Breakpoint ladder x_0 = 0, x_j = q**(2**(j-1)) - 1 with q = x1 + 1.

    Consecutive breakpoints satisfy x_{j+1} + 1 = (x_j + 1)**2 for j >= 1.
    Levels are generated in log space (log(x_j + 1) = 2**(j-1) * log q) and
    capped so x_j stays representable; max_level 12 suffices for every use
    here.
    """

    x1: float
    max_level: int = 12
    breakpoints: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.x1 > 0.0:
            raise DomainError(f"x1 must be positive, got {self.x1}")
        lq = math.log1p(self.x1)
        bps = [0.0]
        j = 1
        while j <= self.max_level and 2.0 ** (j - 1) * lq <= _LOG_CAP:
            bps.append(math.expm1(2.0 ** (j - 1) * lq))
            j += 1
        object.__setattr__(self, "breakpoints", np.asarray(bps))

    @property
    def q(self) -> float:
        return self.x1 + 1.0


def altspline_momfun(params: AltSplineParams) -> MomentFunction:
    """Parabolic spline whose second derivative steps down at each breakpoint.

    On [x_j, x_{j+1}) the second derivative is (x_j + 1)**(-2/3), so it
    alternates between the decay profiles (|x|+1)**(-2/3) and (|x|+1)**(-1/3).
    Evaluation at or beyond the last generated breakpoint raises; raise
    ``max_level`` to extend.
    """
    bp = params.breakpoints
    curv = (bp[:-1] + 1.0) ** (-2.0 / 3.0)          # f'' per segment
    return _piecewise_momfun(
        bp[:-1], curv, np.zeros_like(curv), top=bp[-1],
        kind="altspline", param=params,
        s_f=float(bp[1]),  # f'' is constant on (0, x_1): no measure below x_1
        label=f"altspline(x1={params.x1:g})",
    )


def from_second_derivative(g: Callable, breakpoints: Sequence[float] = (),
                           sample_hi: float = 100.0) -> MomentFunction:
    """Solve f(0) = f'(0) = 0, f'' = g on (0, oo), extended evenly.

    g must be nonnegative, nonincreasing and integrable near 0 (checked on a
    sample grid).  f'(x) = int_0^x g and f(x) = int_0^x (x-u) g(u) du are
    computed by adaptive quadrature with panels split at the supplied
    breakpoints.
    """
    bps = tuple(sorted(float(b) for b in breakpoints))
    sample = np.geomspace(1e-8, sample_hi, 60)
    vals = np.array([g(u) for u in sample], dtype=float)
    if np.any(vals < -1e-12):
        raise InvariantError("second derivative sample is negative")
    if np.any(np.diff(vals) > 1e-9 * (1.0 + np.abs(vals[:-1]))):
        raise InvariantError("second derivative sample is increasing")

    def _pts(x):
        return [b for b in bps if 0.0 < b < x]

    def fp_scalar(x):
        ax = abs(x)
        if ax == 0.0:
            return 0.0
        val, _ = quad(g, 0.0, ax, points=_pts(ax) or None,
                      epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
        return math.copysign(val, x)

    def f_scalar(x):
        ax = abs(x)
        if ax == 0.0:
            return 0.0
        # Fubini: int_0^x int_0^v g = int_0^x (x - u) g(u) du
        val, _ = quad(lambda u: (ax - u) * g(u), 0.0, ax,
                      points=_pts(ax) or None,
                      epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
        return val

    def fpp_scalar(x):
        ax = abs(x)
        return float(g(ax)) if ax > 0.0 else float(g(1e-300))

    return MomentFunction(
        eval=_vectorize_scalar(f_scalar),
        deriv=_vectorize_scalar(fp_scalar),
        second_deriv=_vectorize_scalar(fpp_scalar),
        kind="from_second_deriv", param=g, s_f=0.0,
        label="from_second_deriv",
    )


@dataclass(frozen=True)
class GammaMeasure:
    """Mixing measure over clip levels t in (0, oo]: atoms plus a density.

    The density part is either a piecewise-constant step density (``step_edges``
    holding m+1 cell edges, ``step_values`` the m nonnegative cell values, as
    recovered from a grid) or a callable ``density`` on (0, oo) with declared
    ``density_breakpoints`` and, when its support is unbounded, a closed-form
    ``density_tail_mass`` giving the mass of (T, oo) for T at or beyond the
    last breakpoint.  Atom location inf is allowed and carries the pure-square
    component.
    """

    atoms: tuple = ()
    step_edges: Optional[np.ndarray] = None
    step_values: Optional[np.ndarray] = None
    density: Optional[Callable] = None
    density_breakpoints: tuple = ()
    density_tail_mass: Optional[Callable] = None

    def __post_init__(self):
        for t, w in self.atoms:
            if not (t > 0.0):
                raise DomainError(f"atom location must be positive, got {t}")
            if not (w > 0.0):
                raise DomainError(f"atom weight must be positive, got {w}")
        if (self.step_edges is None) != (self.step_values is None):
            raise DomainError("step_edges and step_values must come together")
        if self.step_edges is not None:
            e = np.asarray(self.step_edges, dtype=float)
            v = np.asarray(self.step_values, dtype=float)
            if len(e) != len(v) + 1 or np.any(np.diff(e) <= 0) or e[0] < 0:
                raise DomainError("malformed step density")
            if np.any(v < 0):
                raise DomainError("negative step density")
        if self.density is not None and self.step_edges is not None:
            raise DomainError("supply either a step density or a callable, not both")

    def clip_integral(self, cap: float = 1.0) -> float:
        """integral of (t ^ cap) d gamma; finite for every valid measure."""
        total = 0.0
        for t, w in self.atoms:
            total += w * min(t, cap)
        if self.step_edges is not None:
            e, v = self.step_edges, self.step_values
            lo = np.minimum(e[:-1], cap)
            hi = np.minimum(e[1:], cap)
            total += float(np.sum(v * (0.5 * (hi * hi - lo * lo)
                                       + cap * (e[1:] - np.maximum(e[:-1], cap)).clip(min=0.0))))
        if self.density is not None:
            T = max([cap, *self.density_breakpoints])
            pts = [b for b in self.density_breakpoints if 0.0 < b < T]
            if cap < T:
                pts.append(cap)
            val, _ = quad(lambda t: min(t, cap) * self.density(t), 0.0, T,
                          points=sorted(set(pts)) or None,
                          epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
            total += val
            if self.density_tail_mass is not None:
                total += cap * self.density_tail_mass(T)
        return total

    def mass_above(self, x: float) -> float:
        """gamma((x, oo]) -- the recovered second derivative over two."""
        total = 0.0
        for t, w in self.atoms:
            if t > x:
                total += w
        if self.step_edges is not None:
            e, v = self.step_edges, self.step_values
            hi = e[1:]
            lo = np.maximum(e[:-1], x)
            total += float(np.sum(v * (hi - lo).clip(min=0.0)))
        if self.density is not None:
            T = max([x, *self.density_breakpoints])
            if x < T:
                pts = [b for b in self.density_breakpoints if x < b < T]
                val, _ = quad(self.density, x, T, points=pts or None,
                              epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
                total += val
            if self.density_tail_mass is not None:
                total += self.density_tail_mass(T)
        return total


def _check_density_integrable(gamma: GammaMeasure):
    # a divergent quadrature can return silently wrong values, so probe the
    # mass near 0 at two cutoffs and require convergence
    if gamma.density is None:
        return
    b0 = min([b for b in gamma.density_breakpoints if 0.0 < b <= 1.0] or [1.0])
    vals = []
    for eps in (1e-6, 1e-10):
        with warnings.catch_warnings():
            # slow convergence here is the very condition being probed
            warnings.simplefilter("ignore", IntegrationWarning)
            v, _ = quad(lambda t: min(t, 1.0) * gamma.density(t), eps, b0,
                        epsabs=_QUAD_TOL, epsrel=1e-10, limit=200)
        vals.append(v)
    if not math.isfinite(vals[1]) or vals[1] < -1e-12 or \
            vals[1] - vals[0] > 0.5 * (1.0 + abs(vals[0])):
        raise InvariantError("density mass near 0 is not integrable")


def momfun_of_gamma(gamma: GammaMeasure) -> MomentFunction:
    """Assemble the moment function of a mixing measure.

    Atoms and a step density give a piecewise polynomial: between consecutive
    finite atom locations and step edges, f''/2 = gamma((|x|, oo]) is linear in
    |x|.  A callable density adds adaptive quadrature split at the density
    breakpoints and at t = |x| (the kink of the clipped square in t), with the
    declared tail mass contributing exactly x**2 (resp. 2x) beyond the
    quadrature range.
    """
    _check_density_integrable(gamma)
    if not math.isfinite(gamma.clip_integral()):
        raise InvariantError("mixing measure fails integrability near 0")

    # the atoms and the step density: f''/2 is linear between these breakpoints
    pieces = replace(gamma, density=None, density_breakpoints=(),
                     density_tail_mass=None)
    support_starts = [t for t, _ in gamma.atoms]
    bp = np.unique([0.0, *(t for t in support_starts if t < math.inf),
                    *(() if gamma.step_edges is None else gamma.step_edges)])
    c1 = np.zeros_like(bp)
    if gamma.step_edges is not None:
        e, v = gamma.step_edges, gamma.step_values
        cell = np.searchsorted(e, bp, side="right") - 1
        inside = (cell >= 0) & (cell < len(v))
        c1[inside] = -2.0 * v[cell[inside]]
        idx = np.nonzero(v > 0.0)[0]
        if len(idx):
            support_starts.append(float(e[idx[0]]))
    if gamma.density is not None:
        support_starts.append(0.0)
    f = _piecewise_momfun(
        bp, [2.0 * pieces.mass_above(b) for b in bp], c1,
        kind="from_gamma", param=gamma,
        s_f=min(support_starts) if support_starts else math.inf,
        label="from_gamma",
    )
    if gamma.density is None:
        return f

    def density_part(kernel, tail):
        # integral of kernel(t, |x|) over the density, plus tail(|x|) times
        # the declared mass beyond the quadrature range
        def part(x):
            v = abs(x)
            if v == 0.0:
                return 0.0
            T = max([v, *gamma.density_breakpoints])
            pts = sorted({b for b in (*gamma.density_breakpoints, v) if 0.0 < b < T})
            val, _ = quad(lambda t: kernel(t, v) * gamma.density(t), 0.0, T,
                          points=pts or None, epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
            if gamma.density_tail_mass is not None:
                val += tail(v) * gamma.density_tail_mass(T)
            return val
        return _vectorize_scalar(part)

    dens_f = density_part(lambda t, v: float(_clipped_square(t, v)), lambda v: v * v)
    dens_fp = density_part(lambda t, v: 2.0 * min(t, v), lambda v: 2.0 * v)
    return replace(
        f, eval=lambda x: f.eval(x) + dens_f(x),
        deriv=lambda x: f.deriv(x) + np.sign(x) * dens_fp(x),
        second_deriv=_vectorize_scalar(lambda x: 2.0 * gamma.mass_above(abs(x))))


# --- mixing-measure recovery -------------------------------------------------

_ATOM_REL = 1e-9     # final-bracket drop above this fraction of local level is an atom
_ATOM_ABS = 1e-12


def _locate_atoms(h, lo, hi, h_lo, h_hi, atoms):
    """Recursively classify the drop of h over [lo, hi] into atoms + residue.

    h is nonincreasing.  Bisection chases the drop into a bracket of relative
    width ~1e-12; a drop surviving at that width is a jump (atom), anything
    else is absolutely continuous.  Flanks of a found atom are rescanned so
    several atoms per cell are recovered.  Returns the residual (non-atomic)
    drop across [lo, hi].
    """
    drop = h_lo - h_hi
    if drop <= _ATOM_ABS:
        return max(drop, 0.0)
    a, b, ha, hb = lo, hi, h_lo, h_hi
    # width tolerance must stay relative to the location: a continuous h with
    # slope ~h/t then drops only ~1e-12*h across the final bracket
    for _ in range(200):
        if b - a <= 1e-12 * a:
            break
        m = 0.5 * (a + b)
        hm = h(m)
        if ha - hm >= hm - hb:
            b, hb = m, hm
        else:
            a, ha = m, hm
    w = ha - hb
    if w > max(_ATOM_REL * abs(ha), _ATOM_ABS):
        atoms.append((0.5 * (a + b), w))
        res = 0.0
        res += _locate_atoms(h, lo, a, h_lo, ha, atoms)
        res += _locate_atoms(h, b, hi, hb, h_hi, atoms)
        return res
    return drop


def gamma_of(f: MomentFunction, grid) -> GammaMeasure:
    """Recover the mixing measure of f, discretized on the given t-grid.

    Atoms are the downward jumps of f''/2 (located by bisection to ~1e-12
    relative accuracy); the absolutely continuous decrease becomes a uniform
    density per grid cell; everything above the last grid point -- including
    a genuine square component -- is folded into the atom at inf with weight
    f''(grid[-1])/2, which is exact for evaluations at |x| <= grid[-1].  The
    grid must start well below the intended evaluation range when f'' has
    unbounded mass near 0 (power functions).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise DomainError("grid must be a sorted positive 1-d array")

    def h(x):
        return 0.5 * float(f.second_deriv(x))

    hv = np.array([h(x) for x in grid])
    rises = hv[1:] - hv[:-1]
    tol = 1e-9 * (1.0 + abs(hv[0]))
    if np.any(rises > tol):
        i = int(np.argmax(rises))
        raise InvariantError(
            f"second derivative increases on the grid near t={grid[i]:.6g}")

    atoms = []
    residues = np.empty(len(grid) - 1)
    for i in range(len(grid) - 1):
        residues[i] = _locate_atoms(h, grid[i], grid[i + 1], hv[i], hv[i + 1], atoms)
    values = residues / np.diff(grid)

    out_atoms = sorted(atoms)
    tail = hv[-1]
    if tail > _ATOM_ABS:
        out_atoms.append((math.inf, tail))

    keep = values > 0.0
    if np.any(keep):
        step_edges, step_values = grid, np.where(keep, values, 0.0)
    else:
        step_edges, step_values = None, None
    return GammaMeasure(atoms=tuple(out_atoms), step_edges=step_edges,
                        step_values=step_values)


# --- effective exponent of the alternating spline ----------------------------

def limiting_exponent(r: float) -> float:
    """max(2 - 2/(3r), 1 + 2/(3r)): the large-x exponent profile over a block.

    Decreases from 5/3 to 3/2 as r runs from 1 to 4/3, then climbs back to
    5/3 at r = 2.
    """
    r = float(r)
    if not r > 0.0:
        raise DomainError("block coordinate must be positive")
    return max(2.0 - 2.0 / (3.0 * r), 1.0 + 2.0 / (3.0 * r))


def block_position(params: AltSplineParams, x: float) -> float:
    """2**(1-j) * log_q(x+1) for x in (x_j, x_{j+1}]: position within its block.

    Runs from 1 (exclusive) to 2 over each breakpoint block with j >= 1.
    """
    x = float(x)
    bp = params.breakpoints
    if not x > bp[1]:
        raise DomainError(f"block position needs x > x_1 = {bp[1]:.6g}")
    j = bisect.bisect_left(bp, x) - 1  # x in (bp[j], bp[j+1]]
    if j + 1 >= len(bp):
        raise DomainError("x beyond generated breakpoints")
    return 2.0 ** (1 - j) * math.log1p(x) / math.log(params.q)


def effective_exponent(params: AltSplineParams, x: float) -> float:
    """log base |x| of the alternating spline: the exponent it locally mimics."""
    x = float(x)
    if not x > 1.0:
        raise DomainError("effective exponent needs x > 1")
    fx = float(altspline_momfun(params).eval(x))
    return math.log(fx) / math.log(x)
