"""Independent references for the benchmark's output checks.

Nothing here imports vbesharp.  Each quantity is written out from its
definition in the paper, in a form different from the program's:

* the unit-scale power gap and the power centering function h(c),
  maximized in mpmath;
* the alternating parabolic spline, from x_j = q**(2**(j-1)) - 1 and
  f'' = (x_j + 1)**(-2/3) on [x_j, x_{j+1}), integrated segment by segment;
* a dense scan of the Bregman gap ratio, and the centering objective;
* the clipped square as its two branches, the proof kernels built on it,
  and exact expectations by enumerating every path of a product law or a
  martingale tree.

Every one-dimensional search brackets from the edge of its domain: the scan
grids crowd geometrically towards both ends, so a maximiser near an end
(the p = 1.01 centering maximiser sits at c ~ 0.0048) is not missed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

DPS = 20


# --- one-dimensional maximization in mpmath ---------------------------------

def edge_grid(n, closest):
    """About n points of (0, 1) crowding geometrically towards both ends; the
    nearest lies `closest` from each end."""
    u = np.geomspace(closest, 0.5, n // 2)
    return np.unique(np.concatenate([u, 1.0 - u]))


def _golden(fn, a, b, width):
    """Golden-section search for a maximum of fn on [a, b], down to a bracket
    of `width`.  Returns the best evaluated (value, x)."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - r * (b - a), a + r * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > width:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + r * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - r * (b - a)
            f1 = fn(x1)
    return max((f1, x1), (f2, x2))


def mp_maximize(fn, lo, hi, include_ends=False, rel_width=1e-11):
    """Maximum of fn on [lo, hi]; fn computes in the type of its argument,
    float or mpf.  A float scan of edge_grid over the interval and float
    golden section on the two cells around the best grid point locate the
    maximiser to 1e-9 (hi - lo), well inside the 1e-6 (hi - lo) that float
    rounding of a flat maximum allows; golden section in mpmath then narrows
    a bracket of 1e-6 (hi - lo) around it to rel_width (hi - lo).  The value's
    error is quadratic in that width.  Returns (x, fn(x)) as mpf.  With
    include_ends the ends are scanned too."""
    pts = [lo + (hi - lo) * float(u) for u in edge_grid(60, 1e-15)]
    if include_ends:
        pts = [lo] + pts + [hi]
    vals = [fn(x) for x in pts]
    i = max(range(len(vals)), key=lambda k: vals[k])
    _, x = _golden(fn, pts[max(i - 1, 0)], pts[min(i + 1, len(pts) - 1)],
                   1e-9 * (hi - lo))
    with mpmath.workdps(DPS):
        half = 1e-6 * (hi - lo)
        a, b = mpmath.mpf(max(x - half, lo)), mpmath.mpf(min(x + half, hi))
        best = max([(fn(mpmath.mpf(pts[i])), mpmath.mpf(pts[i])),
                    _golden(fn, a, b, rel_width * (hi - lo))])
        return best[1], best[0]


def power_gap(p, x):
    """(1-x)**p - x**p + p x**(p-1), in the type of x."""
    if isinstance(x, mpmath.mpf):
        p = mpmath.mpf(p)
    return (1 - x) ** p - x ** p + p * x ** (p - 1)


def power_sharp_ref(p) -> float:
    """max over x in (0, 1) of the unit-scale power gap (1 at p = 2)."""
    return float(mp_maximize(lambda x: power_gap(p, x), 0.0, 1.0)[1])


def power_centering_h(p, c):
    """(c**(p-1) + (1-c)**(p-1)) (c**e + (1-c)**e)**(p-1), e = 1/(p-1), in
    the type of c; h(0) = 1."""
    if c == 0:
        return type(c)(1)
    if isinstance(c, mpmath.mpf):
        p = mpmath.mpf(p)
    e = 1 / (p - 1)
    return (c ** (p - 1) + (1 - c) ** (p - 1)) * (c ** e + (1 - c) ** e) ** (p - 1)


def power_centering_ref(p) -> float:
    """max over c in [0, 1/2] of h(c)."""
    return float(mp_maximize(lambda c: power_centering_h(p, c), 0.0, 0.5,
                             include_ends=True)[1])


# --- moment functions written out --------------------------------------------

def clipped_square(t, x):
    """x**2 up to |x| = t, then 2 t |x| - t**2; t may be inf, or an array."""
    ax = np.abs(np.asarray(x, dtype=float))
    with np.errstate(invalid="ignore"):  # the unused branch at t = inf
        return np.where(ax <= t, ax * ax, 2.0 * t * ax - t * t)


def clipped_square_slope(t, x):
    """Odd derivative of clipped_square(t, .): 2 x inside, +-2 t outside."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(np.abs(x) <= t, 2.0 * x, 2.0 * t * np.sign(x))


class AltSpline:
    """The alternating parabolic spline from its definition.

    Breakpoints x_0 = 0 and x_j = q**(2**(j-1)) - 1 with q = x1 + 1, up to
    x_j <= x_cap.  On [x_j, x_{j+1}) the second derivative is
    (x_j + 1)**(-2/3); f and f' are accumulated segment by segment from
    f(0) = f'(0) = 0 and extended evenly (f' oddly)."""

    def __init__(self, x1, x_cap=1e60):
        q = 1.0 + x1
        bp = [0.0]
        j = 1
        while True:
            xj = q ** (2.0 ** (j - 1)) - 1.0
            if xj > x_cap:
                break
            bp.append(xj)
            j += 1
        self.breakpoints = np.array(bp)
        self.curv = (self.breakpoints + 1.0) ** (-2.0 / 3.0)
        d1, d0 = [0.0], [0.0]          # f'(x_j), f(x_j)
        for j in range(len(bp) - 1):
            h = bp[j + 1] - bp[j]
            d0.append(d0[j] + d1[j] * h + 0.5 * self.curv[j] * h * h)
            d1.append(d1[j] + self.curv[j] * h)
        self.d1, self.d0 = np.array(d1), np.array(d0)

    def _seg(self, ax):
        if np.any(ax >= self.breakpoints[-1]):
            raise ValueError("argument beyond the last breakpoint")
        j = np.searchsorted(self.breakpoints, ax, side="right") - 1
        return j, ax - self.breakpoints[j]

    def f(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        j, h = self._seg(ax)
        return self.d0[j] + self.d1[j] * h + 0.5 * self.curv[j] * h * h

    def fp(self, x):
        x = np.asarray(x, dtype=float)
        j, h = self._seg(np.abs(x))
        return np.sign(x) * (self.d1[j] + self.curv[j] * h)


def power(p):
    """|x|**p."""
    return lambda x: np.abs(x) ** p


# --- the Bregman gap ratio and the centering objective -------------------------

def bregman_ratio(f, fp, s, x):
    """[f(x - s) - f(x) + s f'(x)] / f(s)."""
    return (f(x - s) - f(x) + s * fp(x)) / f(s)


def bregman_scan(f, fp, s_lo, s_hi, n_s=600, n_x=600):
    """Max of bregman_ratio over s in [s_lo, s_hi] (log grid, both ends
    included) and x in (0, s) (grid crowding to both ends).
    Returns (value, s, x)."""
    s = np.geomspace(s_lo, s_hi, n_s)[:, None]
    x = s * edge_grid(n_x, 1e-12)[None, :]
    r = bregman_ratio(f, fp, s, x)
    i, k = np.unravel_index(int(np.argmax(r)), r.shape)
    return float(r[i, k]), float(s[i, 0]), float(x[i, k])


def centering_U(f, c, s, a):
    """c f(s - c + a) + (s - c) f(a - c)."""
    return c * f(s - c + a) + (s - c) * f(a - c)


def centering_ratio(f, c, s, a):
    """U(c, s, 0) / U(c, s, a)."""
    return centering_U(f, c, s, 0.0) / centering_U(f, c, s, a)


def min_over_shift(f, c, s, n_a=400):
    """min over a in [0, c] of U(c, s, a), on a grid with both ends."""
    a = c * np.concatenate([[0.0], edge_grid(n_a, 1e-12), [1.0]])
    return float(np.min(centering_U(f, c, s, a)))


def centering_scan(f, c_lo, c_hi, r_lo, r_hi, n=160):
    """Max of U(c, s, 0) / min_a U(c, s, a) over c in [c_lo, c_hi] and
    s / c in (r_lo, r_hi] (log grids, both ends included), the inner minimum
    on a grid of [0, c] with both ends.  The grid minimum is at least the true
    one, so each grid ratio is at most the objective's value there.
    Returns (value, c, s)."""
    ratios = np.geomspace(r_lo * (1.0 + 1e-9), r_hi, n)[:, None]
    shifts = np.concatenate([[0.0], edge_grid(n, 1e-9), [1.0]])[None, :]
    best = (-math.inf, 0.0, 0.0)
    for c in np.geomspace(c_lo, c_hi, n):
        U = centering_U(f, c, c * ratios, c * shifts)
        r = U[:, 0] / U.min(axis=1)
        j = int(np.argmax(r))
        if r[j] > best[0]:
            best = (float(r[j]), float(c), float(c * ratios[j, 0]))
    return best


# --- exact expectations by path enumeration ------------------------------------

def product_expectation(laws, fn):
    """E fn(X_1 + ... + X_n) for independent finite laws given as
    (values, probs) pairs, summed over every path of the product law."""
    vals = np.zeros(1)
    probs = np.ones(1)
    for v, q in laws:
        vals = (vals[:, None] + np.asarray(v, dtype=float)[None, :]).ravel()
        probs = (probs[:, None] * np.asarray(q, dtype=float)[None, :]).ravel()
    return math.fsum(probs * fn(vals))


def law_expectation(values, probs, fn):
    return math.fsum(np.asarray(probs, dtype=float) * fn(np.asarray(values, dtype=float)))


def two_point_law(c, d):
    """Zero-mean law on {-c, d}."""
    return (-c, d), (d / (c + d), c / (c + d))


def tree_expectations(tree, fn):
    """(E fn(S_n), [E fn(X_j)]) over a tree given as nested
    (difference, probability, subtree) tuples, by walking every path."""
    step = {}
    lhs = []

    def walk(node, prob, total, depth):
        if not node:
            lhs.append(prob * float(fn(total)))
            return
        for x, q, child in node:
            step.setdefault(depth, []).append(prob * q * float(fn(x)))
            walk(child, prob * q, total + x, depth + 1)

    walk(tree, 1.0, 0.0, 0)
    return math.fsum(lhs), [math.fsum(step[j]) for j in sorted(step)]


def concentration_sides(p, supports, probs, table, anchor_idx, kappa, sharp):
    """Both sides of E f(Y) <= f(E Y) + kappa C sum_i E f(rho_i(X_i, x_i))
    for f = |.|**p and a tabulated g, with rho_i(v) the largest change of g
    over all contexts when coordinate i moves from its anchor to v."""
    n = len(supports)
    lhs_terms, mean_terms = [], []
    rho = [np.zeros(len(s)) for s in supports]
    for idx in itertools.product(*(range(len(s)) for s in supports)):
        w = math.prod(probs[i][idx[i]] for i in range(n))
        y = table[idx]
        lhs_terms.append(w * abs(y) ** p)
        mean_terms.append(w * y)
        for i in range(n):
            moved = list(idx)
            moved[i] = anchor_idx[i]
            rho[i][idx[i]] = max(rho[i][idx[i]], abs(y - table[tuple(moved)]))
    mean = math.fsum(mean_terms)
    costs = [math.fsum(probs[i][k] * rho[i][k] ** p for k in range(len(supports[i])))
             for i in range(n)]
    return math.fsum(lhs_terms), abs(mean) ** p + kappa * sharp * math.fsum(costs)


def sum_norm_sides(p, points, probs, anchors, kappa, sharp):
    """Both sides of E ||S||^p <= (E ||S||)^p + kappa C sum_i E ||X_i - x_i||^p
    for the l^p norm, over every combination of the vectors' atoms."""
    def norm(v):
        return sum(abs(t) ** p for t in v) ** (1.0 / p)

    lhs_terms, mean_terms = [], []
    for idx in itertools.product(*(range(len(pt)) for pt in points)):
        w = math.prod(probs[i][k] for i, k in enumerate(idx))
        total = [math.fsum(points[i][k][d] for i, k in enumerate(idx))
                 for d in range(len(points[0][0]))]
        nv = norm(total)
        lhs_terms.append(w * nv ** p)
        mean_terms.append(w * nv)
    costs = [math.fsum(q * norm([a - b for a, b in zip(pt, anc)]) ** p
                       for pt, q in zip(points[i], probs[i]))
             for i, anc in enumerate(anchors)]
    return (math.fsum(lhs_terms),
            math.fsum(mean_terms) ** p + kappa * sharp * math.fsum(costs))


# --- proof kernels at unit scale ----------------------------------------------

def kernel_lam(t, x, c):
    """c psi(x+1-c) + (1-c) psi(x-c) - psi(x)."""
    return (c * clipped_square(t, x + 1.0 - c) + (1.0 - c) * clipped_square(t, x - c)
            - clipped_square(t, x))


def kernel_mu(t, c):
    """lam at x = 0: c psi(1-c) + (1-c) psi(c)."""
    return c * clipped_square(t, 1.0 - c) + (1.0 - c) * clipped_square(t, c)


def kernel_nu(t, x):
    """psi(x-1) - psi(x) + psi'(x): the unit-scale Bregman gap of psi."""
    return clipped_square(t, x - 1.0) - clipped_square(t, x) + clipped_square_slope(t, x)


def cross_gap(u, t, x, c):
    return (kernel_lam(t, x, c) * clipped_square(u, 1.0)
            + kernel_lam(u, x, c) * clipped_square(t, 1.0)
            - kernel_mu(t, c) * kernel_nu(u, x) - kernel_mu(u, c) * kernel_nu(t, x))


def reflection_gap(t, x, c):
    return kernel_lam(t, x, c) - kernel_lam(t, x, 1.0 - c)


def doubling_margin(t, c, a):
    def U(av):
        return c * clipped_square(t, 1.0 - c + av) + (1.0 - c) * clipped_square(t, av - c)
    return 2.0 * U(a) - U(0.0)


# --- exact ordering witnesses -----------------------------------------------------

def ordering_realised(order, x, c) -> bool:
    """True iff 0 < x < 1 < 2c and the seven values
    (1, x, 1+x-c, |x-c|, 1-c, c, 1-x) at the exact rationals of the floats
    x, c are strictly increasing in the index order `order`."""
    x, c = Fraction(x), Fraction(c)
    if not (0 < x < 1 < 2 * c):
        return False
    z = [Fraction(1), x, 1 + x - c, abs(x - c), 1 - c, c, 1 - x]
    return sorted(order) == list(range(7)) and all(
        z[a] < z[b] for a, b in zip(order, order[1:]))
