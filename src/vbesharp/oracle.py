"""Exact expectations over finite-support laws and v-martingale trees.

Everything here is exact enumeration -- no sampling.  Finite-support
distributions convolve exactly; martingale trees enumerate all paths; each
inequality check returns a CheckReport with the signed slack.  Zero-mean
finite-support laws suffice for verification because any zero-mean law is a
mixture of zero-mean two-point laws, and both sides of every inequality are
linear in the distribution.

The canonical two-point law at spread (c, d) puts mass d/(c+d) at -c and
c/(c+d) at d; it is the extremal building block throughout.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Optional, Sequence

import numpy as np

from .constants import (
    centering_constant,
    power_centering_constant,
    power_gap_argmax,
    power_sharp_constant,
    sharp_constant,
    spread_factor,
)
from .errors import DomainError, InvariantError, PreconditionError, ResourceLimitError
from .momfun import MomentFunction, power_momfun

__all__ = [
    "DiscreteDist",
    "discrete",
    "two_point",
    "convolve",
    "expect",
    "expect_f",
    "CheckReport",
    "make_report",
    "check_main_inequality",
    "MartingaleTree",
    "tree_from_independent",
    "check_tree_inequality",
    "growth_ratio",
    "near_extremal_probe",
    "tightness_witness",
    "check_centering",
    "check_concentration",
    "VectorDist",
    "check_sum_norm",
    "check_spread",
    "format_value",
    "write_csv",
    "reports_to_csv",
    "reports_to_jsonl",
]

_PROB_TOL = 1e-14
_MEAN_TOL = 1e-12
_SLACK_TOL = 1e-12
_MERGE_TOL = 1e-12
# caps of the product-space checks, whose exact enumeration is exponential
# in the coordinate count
_MAX_COORDS = 6
_MAX_SUPPORT = 8
_MAX_DIM = 4


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support distribution; support finite and strictly increasing,
    probs sum 1."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if s.ndim != 1 or s.shape != p.shape or len(s) == 0:
            raise DomainError("support and probs must be matching 1-d arrays")
        # a comparison with nan is false, and finite ends bound the rest
        if not ((s[1:] > s[:-1]).all() and math.isfinite(s[0]) and math.isfinite(s[-1])):
            raise DomainError("support must be finite and strictly increasing")
        if (p < 0).any():
            raise DomainError("probabilities must be nonnegative")
        total = math.fsum(p.tolist())
        if not abs(total - 1.0) <= _PROB_TOL * len(p):  # also rejects inf and nan
            raise DomainError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probs", p)

    def __len__(self):
        return len(self.support)

    def shift(self, a: float) -> "DiscreteDist":
        return DiscreteDist(self.support + a, self.probs)


def discrete(points, probs, merge_tol: float = 0.0) -> DiscreteDist:
    """Canonicalize (points, probs): sort stably and merge near-duplicate
    support points by summing their probabilities in index order.

    Walking the sorted points, a point joins the current group iff it lies
    within merge_tol (absolute) of the group's first point -- compared with
    the group's first point, not its last -- and otherwise starts a group at
    itself."""
    pts = np.asarray(points, dtype=float)
    pr = np.asarray(probs, dtype=float)
    if pts.ndim != 1 or pts.shape != pr.shape or len(pts) == 0:
        raise DomainError("support and probs must be matching 1-d arrays")
    order = np.argsort(pts, kind="stable")
    pts, pr = pts[order], pr[order]
    if not (math.isfinite(pts[0]) and math.isfinite(pts[-1])):  # nan sorts last
        raise DomainError("support points must be finite")
    # A gap above merge_tol always starts a group, since x - first >= x - prev
    # (float subtraction is monotone).  A run of smaller gaps is one group when
    # its span is within merge_tol; only a longer (chained) run is walked.
    first = np.empty(len(pts), dtype=bool)
    first[0] = True
    np.greater(pts[1:] - pts[:-1], merge_tol, out=first[1:])
    starts = first.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = len(pts) - 1
    for k in (pts[ends] - pts[starts] > merge_tol).nonzero()[0].tolist():
        g = pts[starts[k]]
        for i in range(starts[k] + 1, ends[k] + 1):
            if pts[i] - g > merge_tol:
                first[i] = True
                g = pts[i]
    return DiscreteDist(pts[first], np.bincount(first.cumsum() - 1, weights=pr))


def two_point(c: float, d: float) -> DiscreteDist:
    """Zero-mean law on {-c, d}: P(-c) = d/(c+d), P(d) = c/(c+d)."""
    c, d = float(c), float(d)
    if not (c > 0.0 and d > 0.0):
        raise DomainError("two_point needs positive spreads")
    return DiscreteDist(np.array([-c, d]), np.array([d / (c + d), c / (c + d)]))


def convolve(dists: Sequence[DiscreteDist], max_support: int = 10 ** 7) -> DiscreteDist:
    """Exact law of the independent sum; canonicalized with merge tolerance
    1e-12 absolute to bound support growth."""
    if len(dists) == 0:
        raise DomainError("convolve needs at least one distribution")
    size = 1
    for d in dists:
        size *= len(d)
        if size > max_support:
            raise ResourceLimitError(f"product support would exceed {max_support}")
    out = dists[0]
    for d in dists[1:]:
        pts = np.add.outer(out.support, d.support).ravel()
        pr = np.multiply.outer(out.probs, d.probs).ravel()
        out = discrete(pts, pr, merge_tol=_MERGE_TOL)
    return out


def expect(dist: DiscreteDist) -> float:
    """Mean, by compensated summation."""
    return math.fsum((dist.probs * dist.support).tolist())


def expect_f(dist: DiscreteDist, f: MomentFunction) -> float:
    """E f(X), by compensated summation."""
    vals = np.asarray(f.eval(dist.support), dtype=float)
    return math.fsum((dist.probs * vals).tolist())


def _off_center(mean: float, points) -> bool:
    """Whether a mean is nonzero beyond rounding, relative to the largest
    |point| (no floor, so the test means the same at every scale)."""
    return abs(mean) > _MEAN_TOL * float(np.max(np.abs(points)))


def _require_zero_mean(dist: DiscreteDist, what: str):
    m = expect(dist)
    if _off_center(m, dist.support):
        raise PreconditionError(f"{what} must be zero-mean (mean={m:.3e})")


@dataclass(frozen=True)
class CheckReport:
    """One inequality check: passes iff slack >= -1e-12 * max(1, |rhs|)."""

    lhs: float
    rhs: float
    slack: float
    constant_used: float
    passed: bool
    details: dict = field(default_factory=dict, repr=False, compare=False)


def make_report(lhs: float, rhs: float, constant_used: float, **details) -> CheckReport:
    slack = rhs - lhs
    return CheckReport(lhs=lhs, rhs=rhs, slack=slack, constant_used=constant_used,
                       passed=bool(slack >= -_SLACK_TOL * max(1.0, abs(rhs))),
                       details=details)


def check_main_inequality(f: MomentFunction, diffs: Sequence[DiscreteDist],
                          C: float, first_zero_mean: bool = True) -> CheckReport:
    """E f(X_1 + ... + X_n) <= E f(X_1) + C sum_{j>=2} E f(X_j) for
    independent differences.  All differences after the first must be
    zero-mean; the first is checked too unless first_zero_mean is False
    (a nonzero-mean leading difference still forms a v-martingale)."""
    if len(diffs) == 0:
        raise DomainError("need at least one difference")
    if first_zero_mean:
        _require_zero_mean(diffs[0], "first difference")
    for j, d in enumerate(diffs[1:], start=2):
        _require_zero_mean(d, f"difference {j}")
    lhs = expect_f(convolve(diffs), f)
    moments = [expect_f(d, f) for d in diffs]
    rhs = moments[0] + C * math.fsum(moments[1:])
    return make_report(lhs, rhs, C, moments=moments)


# --- v-martingale trees ------------------------------------------------------

@dataclass(frozen=True)
class MartingaleTree:
    """Finite tree encoding a v-martingale from S_0 = 0.

    ``children`` holds (difference, transition probability, subtree) triples;
    a node with no children is a leaf.  Root differences (the first step) are
    unconstrained; at every deeper node the children's differences must have
    conditional mean zero.  All leaves must sit at the same depth.
    """

    children: tuple = ()

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + self.children[0][2].depth()

    def validate(self):
        d = self.depth()
        self._validate(depth_left=d, is_root=True)
        return self

    def _validate(self, depth_left: int, is_root: bool):
        if not self.children:
            if depth_left != 0:
                raise InvariantError("leaves must share a common depth")
            return
        if depth_left == 0:
            raise InvariantError("leaves must share a common depth")
        probs = [p for _, p, _ in self.children]
        # written as "not inside" so that nan is rejected too
        if not all(p >= 0 for p in probs):
            raise InvariantError("negative transition probability")
        if not abs(math.fsum(probs) - 1.0) <= _PROB_TOL * len(probs):
            raise InvariantError("transition probabilities must sum to 1")
        if not all(math.isfinite(x) for x, _, _ in self.children):
            raise InvariantError("differences must be finite")
        if not is_root:
            m = math.fsum(p * x for x, p, _ in self.children)
            if _off_center(m, [x for x, _, _ in self.children]):
                raise InvariantError(
                    f"conditional mean {m:.3e} of differences is not zero")
        for _, _, child in self.children:
            child._validate(depth_left - 1, is_root=False)


def tree_from_independent(dists: Sequence[DiscreteDist]) -> MartingaleTree:
    """Embed an independent difference sequence as a product tree."""
    node = MartingaleTree()
    for d in reversed(list(dists)):
        node = MartingaleTree(children=tuple(
            (float(x), float(p), node) for x, p in zip(d.support, d.probs)))
    return node


def _tree_paths(tree: MartingaleTree):
    """Yield (probability, diffs tuple) over all root-to-leaf paths."""
    if not tree.children:
        yield 1.0, ()
        return
    for x, p, child in tree.children:
        for q, rest in _tree_paths(child):
            yield p * q, (x, *rest)


def check_tree_inequality(f: MomentFunction, tree: MartingaleTree, C: float) -> CheckReport:
    """The main inequality on an explicit v-martingale tree, by exact path
    enumeration of E f(S_n) and of each per-step E f(X_j)."""
    tree.validate()
    n = tree.depth()
    if n == 0:
        raise DomainError("tree must have at least one step")
    lhs_terms = []
    step_terms = [[] for _ in range(n)]
    for prob, diffs in _tree_paths(tree):
        lhs_terms.append(prob * float(f.eval(math.fsum(diffs))))
        for j, x in enumerate(diffs):
            step_terms[j].append(prob * float(f.eval(x)))
    lhs = math.fsum(lhs_terms)
    moments = [math.fsum(terms) for terms in step_terms]
    rhs = moments[0] + C * math.fsum(moments[1:])
    return make_report(lhs, rhs, C, moments=moments)


# --- two-point ratio objects --------------------------------------------------

def growth_ratio(f: MomentFunction, c: float, s: float, x: float) -> float:
    """Ratio of the expected f-increase from adding the zero-mean two-point
    noise at spread (c, s-c) at location x to the increase at location 0:

        [E f(x + X) - f(x)] / E f(X),   X = two-pointer on {-c, s-c}.

    Tends to bregman_gap(f, s, x) / f(s) as c increases to s."""
    c, s = float(c), float(s)
    if not 0.0 < c < s:
        raise DomainError("growth_ratio needs 0 < c < s")
    d = s - c

    def g(y):
        return (d * float(f.eval(y - c)) + c * float(f.eval(y + d))) / s - float(f.eval(y))

    g0 = g(0.0)
    if not g0 > 0.0:
        raise DomainError("degenerate two-point law: E f(X) must be positive")
    return g(float(x)) / g0


def near_extremal_probe(f: MomentFunction, a: float, b: float, c: float, s: float) -> float:
    """[E f(X1 + X2) - E f(X1)] / E f(X2) on the exact 4-point product law,
    with X1 the two-pointer at spread (a, b) and X2 at spread (c, s-c).

    As a grows this tends to growth_ratio(f, c, s, b); with b at the
    unit-scale gap maximizer it tends to the sharp constant as c -> s, and it
    never exceeds the sharp constant.

    For |.|**p the deficit decays like (1 - c/s)**(p-1), and this float form
    cannot take 1 - c/s below about 1e-16 (c then rounds to s); the
    difference of expectations in the numerator also cancels in double
    precision.  Near p = 1 it therefore cannot witness tightness: use
    tightness_witness, which evaluates the same ratio in arbitrary
    precision."""
    a, b = float(a), float(b)
    if not (a > 0.0 and b > 0.0):
        raise DomainError("probe spreads must be positive")
    c, s = float(c), float(s)
    if not 0.0 < c < s:
        raise DomainError("probe needs 0 < c < s")
    x1 = two_point(a, b)
    x2 = two_point(c, s - c)
    num = expect_f(convolve([x1, x2]), f) - expect_f(x1, f)
    return num / expect_f(x2, f)


def _power_probe_ratio(mp, p, a, b, eps):
    """near_extremal_probe for |.|**p at spreads (a, b) and (1 - eps, eps),
    in the arithmetic of the mpmath context mp."""
    p, a, b, eps = (mp.mpf(v) for v in (p, a, b, eps))
    c = 1 - eps
    x1 = ((-a, b / (a + b)), (b, a / (a + b)))
    x2 = ((-c, eps), (eps, c))
    x12 = [(x + y, q * r) for x, q in x1 for y, r in x2]

    def moment(law):
        return mp.fsum(q * abs(x) ** p for x, q in law)

    return (moment(x12) - moment(x1)) / moment(x2)


def tightness_witness(p: float, eps: float, a: float = 1e6) -> float:
    """near_extremal_probe for |.|**p, evaluated exactly in high precision.

    X1 is the two-pointer at spread (a, b) with b = power_gap_argmax(p), X2
    the two-pointer at spread (1 - eps, eps), i.e. c = 1 - eps and s = 1.
    The spread gap eps is taken directly, so it may lie far below the double
    rounding unit next to 1; the deficit to power_sharp_constant(p) decays
    like eps**(p-1) (plus a term vanishing as a grows), which at p = 1.1
    needs eps of order 1e-23 or less to come within 1e-2.

    The working precision, ceil(p log10 a + log10(1/eps)) + 20 digits,
    covers the cancellation in E f(X1 + X2) - E f(X1).  The ratio is
    evaluated again at twice that precision; InvariantError if the two
    differ by more than 1e-12.  Returns the higher-precision value."""
    p, eps, a = float(p), float(eps), float(a)
    if not 1.0 < p < 2.0:
        raise DomainError(f"exponent must lie in (1, 2), got {p}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"spread gap must lie in (0, 1), got {eps}")
    if not 0.0 < a < math.inf:
        raise DomainError(f"first spread must be positive and finite, got {a}")
    import mpmath  # kept out of `import vbesharp`

    b = power_gap_argmax(p).value
    dps = math.ceil(p * math.log10(max(a, 1.0)) - math.log10(eps)) + 20
    mp = mpmath.MPContext()
    mp.dps = dps
    value = _power_probe_ratio(mp, p, a, b, eps)
    mp.dps = 2 * dps
    check = _power_probe_ratio(mp, p, a, b, eps)
    if abs(value - check) > 1e-12:
        raise InvariantError(
            f"witness unstable under precision doubling at p={p}, eps={eps}, "
            f"a={a}: {mp.nstr(value, 17)} at {dps} digits vs "
            f"{mp.nstr(check, 17)} at {2 * dps}")
    return float(check)


def check_centering(f: MomentFunction, dist: DiscreteDist, a: float,
                    kappa: float) -> CheckReport:
    """E f(X) <= kappa E f(X + a) for zero-mean X."""
    _require_zero_mean(dist, "centering input")
    lhs = expect_f(dist, f)
    rhs = kappa * expect_f(dist.shift(float(a)), f)
    return make_report(lhs, rhs, kappa)


# --- separately Lipschitz concentration ---------------------------------------

def _resolve_constants(f: Optional[MomentFunction], p: Optional[float],
                       kappa: Optional[float], sharp: Optional[float]):
    if (f is None) == (p is None):
        raise DomainError("supply exactly one of f or p")
    if p is not None:
        f = power_momfun(p)
    if f.kind == "power" and (kappa is None or sharp is None):
        power_kappa, power_sharp = _power_constants(f.param)
        kappa = power_kappa if kappa is None else kappa
        sharp = power_sharp if sharp is None else sharp
    if kappa is None:
        if f.kind != "extreme":
            raise DomainError(
                "the centering constant of this kind is only the best value of "
                "a finite sweep, a lower bound of the supremum; pass kappa")
        kappa = centering_constant(f).value
    if sharp is None:
        if f.kind != "extreme":
            raise DomainError(
                "the sharp constant of this kind is only the best value of "
                "a finite sweep, a lower bound of the supremum; pass sharp")
        sharp = sharp_constant(f).value
    return f, float(kappa), float(sharp)


def _check_size(sizes, dim: int = 1):
    """ResourceLimitError unless there are 1.._MAX_COORDS coordinates, each
    with at most _MAX_SUPPORT atoms in dimension at most _MAX_DIM."""
    if not 1 <= len(sizes) <= _MAX_COORDS:
        raise ResourceLimitError(f"coordinate count {len(sizes)} outside 1..{_MAX_COORDS}")
    if max(sizes) > _MAX_SUPPORT:
        raise ResourceLimitError(f"support size {max(sizes)} exceeds {_MAX_SUPPORT}")
    if dim > _MAX_DIM:
        raise ResourceLimitError(f"dimension {dim} exceeds {_MAX_DIM}")


def _tabulate(g, axes) -> np.ndarray:
    """g at every point of the product of the axes (lists of floats), in C
    order; g is called with a list of floats."""
    shape = tuple(len(a) for a in axes)
    return np.fromiter((g(list(x)) for x in itertools.product(*axes)),
                       dtype=float, count=math.prod(shape)).reshape(shape)


def _expect_after(t: np.ndarray, i: int, probs) -> np.ndarray:
    """E of the table t over the coordinates after i (as many as probs has).
    Each is integrated as the last axis with np.tensordot, and kept at length
    1, so the result broadcasts against t."""
    for k in range(len(probs) - 1, i, -1):
        # the axes after k already have length 1: appending one keeps axis k
        t = np.tensordot(t, probs[k], axes=([k], [0]))[..., None]
    return t


def check_concentration(g, marginals: Sequence[DiscreteDist], anchors,
                        p: Optional[float] = None, f: Optional[MomentFunction] = None,
                        kappa: Optional[float] = None, sharp: Optional[float] = None,
                        relaxed: bool = False) -> CheckReport:
    """Concentration of a separately Lipschitz g of independent coordinates:

        E f(Y) <= f(E Y) + kappa * C * sum_i E f(rho_i(X_i, x_i)),

    where Y = g(X_1..X_n), the x_i are the anchors, and rho_i is the
    tightest admissible per-coordinate cost: the max over all contexts of
    |g(.., v, ..) - g(.., x_i, ..)| (or, with relaxed=True, the max over
    prefix contexts with later coordinates integrated out).

    g may be a callable on coordinate vectors (tabulated here; anchors
    arbitrary) or an ndarray over the support product (anchors must then be
    support members); its values must be finite.  At most 6 coordinates of
    at most 8 atoms each.  Exact enumeration throughout.  The report's
    details expose the per-step expansion increments xi_i of Y around E Y,
    which telescope path-wise, and the centered anchor gaps eta_i with
    |eta_i| <= rho_i(X_i, x_i).
    """
    n = len(marginals)
    _check_size([len(m) for m in marginals])
    if len(anchors) != n:
        raise DomainError("one anchor per coordinate required")
    f, kappa, sharp = _resolve_constants(f, p, kappa, sharp)
    supports = [m.support for m in marginals]
    probs = [m.probs for m in marginals]
    shape = tuple(len(s) for s in supports)

    # table[x] = g(x); anchored[i] = g with coordinate i at its anchor, the
    # axis kept at length 1
    if callable(g):
        axes = [s.tolist() for s in supports]
        table = _tabulate(g, axes)
        anchored = [_tabulate(g, axes[:i] + [[float(a)]] + axes[i + 1:])
                    for i, a in enumerate(anchors)]
    else:
        table = np.asarray(g, dtype=float)
        if table.shape != shape:
            raise DomainError(f"table shape {table.shape} does not match supports {shape}")
        anchored = []
        for i, (s, a) in enumerate(zip(supports, anchors)):
            hits = np.nonzero(s == float(a))[0]
            if len(hits) != 1:
                raise DomainError(
                    f"anchor {a} not in support of coordinate {i + 1}; "
                    "pass g as a callable for off-support anchors")
            anchored.append(np.take(table, hits, axis=i))
    if not all(np.isfinite(t).all() for t in (table, *anchored)):
        raise DomainError("g must be finite on the support product and at the anchors")

    joint = reduce(np.multiply.outer, probs)
    ey = float(np.sum(joint * table))
    lhs = math.fsum((joint * np.asarray(f.eval(table), dtype=float)).ravel())

    # T[k] = E(Y | X_1..X_k), the coordinates from k on kept at length 1
    T = [table]
    for k in range(n - 1, -1, -1):
        T.insert(0, _expect_after(T[0], k - 1, probs[:k + 1]))

    rho = []
    cost_moments = []
    eta_margin = math.inf
    for i in range(n):
        # |eta_i| = |T[i+1] - the anchored table with later coordinates
        # integrated out|; the relaxed cost is its max over prefix contexts
        eta = np.abs(T[i + 1] - _expect_after(anchored[i], i, probs))
        diffs = eta if relaxed else np.abs(table - anchored[i])
        r = diffs.max(axis=tuple(k for k in range(n) if k != i), keepdims=True)
        rho.append(r.ravel())
        cost_moments.append(math.fsum(probs[i] * np.asarray(f.eval(rho[i]), dtype=float)))
        eta_margin = min(eta_margin, float(np.min(r - eta)))

    rhs = float(f.eval(ey)) + kappa * sharp * math.fsum(cost_moments)

    telescoped = sum((T[k + 1] - T[k] for k in range(n)), np.zeros(shape))
    doob_err = float(np.max(np.abs(telescoped - (table - ey))))
    scale = max(1.0, float(np.max(np.abs(table))))
    if doob_err > 1e-10 * scale:
        raise InvariantError(f"per-path telescoping broke: {doob_err:.3e}")
    if eta_margin < -1e-10 * scale:
        raise InvariantError(f"anchor gap exceeded its cost bound by {-eta_margin:.3e}")

    return make_report(lhs, rhs, kappa * sharp,
                       mean=ey, cost_moments=cost_moments, rho=rho,
                       doob_telescope_error=doob_err, eta_bound_margin=eta_margin)


@dataclass(frozen=True)
class VectorDist:
    """Finite-support distribution over points in R^dim."""

    points: np.ndarray  # (k, dim)
    probs: np.ndarray   # (k,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pr = np.asarray(self.probs, dtype=float)
        if pts.shape[0] != len(pr):
            raise DomainError("points and probs must match")
        if not np.isfinite(pts).all():
            raise DomainError("points must be finite")
        # written as "not inside" so that nan is rejected too
        if not ((pr >= 0).all() and abs(math.fsum(pr) - 1.0) <= _PROB_TOL * len(pr)):
            raise DomainError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)


def _lp_norm(v: np.ndarray, p: float) -> np.ndarray:
    return np.sum(np.abs(v) ** p, axis=-1) ** (1.0 / p)


@lru_cache(maxsize=64)
def _power_constants(p: float) -> tuple:
    """(centering, sharp) constant values of |x|**p, computed once per p."""
    return power_centering_constant(p).value, power_sharp_constant(p).value


def check_sum_norm(vectors: Sequence[VectorDist], p: float, anchors) -> CheckReport:
    """Norm concentration of an independent vector sum S = X_1 + ... + X_n:

        E ||S||^p <= (E ||S||)^p + tkappa_p * tC_p * sum_i E ||X_i - x_i||^p,

    with the l^p norm and arbitrary anchor points x_i.  At most 6 vectors of
    at most 8 atoms each, in dimension at most 4.  Exact enumeration."""
    n = len(vectors)
    dims = {v.points.shape[1] for v in vectors}
    _check_size([v.points.shape[0] for v in vectors], max(dims, default=1))
    if len(dims) != 1:
        raise DomainError("all vectors must share one dimension")
    dim = dims.pop()
    anchors = [np.asarray(a, dtype=float).reshape(dim) for a in anchors]
    if not all(np.isfinite(a).all() for a in anchors):
        raise DomainError("anchors must be finite")
    kappa, sharp = _power_constants(float(p))

    shape = tuple(v.points.shape[0] for v in vectors)
    total = np.zeros(shape + (dim,))
    for i, v in enumerate(vectors):
        bshape = (1,) * i + (shape[i],) + (1,) * (n - 1 - i) + (dim,)
        total = total + v.points.reshape(bshape)
    joint = reduce(np.multiply.outer, [v.probs for v in vectors])
    norms = _lp_norm(total, p)
    lhs = math.fsum((joint * norms ** p).ravel())
    mean_norm = math.fsum((joint * norms).ravel())
    costs = [math.fsum(v.probs * _lp_norm(v.points - a, p) ** p)
             for v, a in zip(vectors, anchors)]
    rhs = mean_norm ** p + kappa * sharp * math.fsum(costs)
    return make_report(lhs, rhs, kappa * sharp, mean_norm=mean_norm, costs=costs)


def check_spread(f: MomentFunction, diffs: Sequence[DiscreteDist], lam: float,
                 C: Optional[float] = None) -> CheckReport:
    """E f(S_n) <= K sum_j E f(X_j) with K = C - (lam/n)(C - 1), for
    independent zero-mean differences whose first summand carries at least a
    lam/n share of the total f-moment (checked exactly)."""
    n = len(diffs)
    if n < 2:
        raise DomainError("need at least two differences")
    for j, d in enumerate(diffs, start=1):
        _require_zero_mean(d, f"difference {j}")
    moments = [expect_f(d, f) for d in diffs]
    total = math.fsum(moments)
    if moments[0] < lam / n * total - _SLACK_TOL * max(1.0, total):
        raise PreconditionError(
            f"leading moment {moments[0]:.6g} is below its {lam}/{n} share of {total:.6g}")
    if C is None:
        C = sharp_constant(f).value
    K = spread_factor(C, lam, n)
    lhs = expect_f(convolve(diffs), f)
    rhs = K * total
    return make_report(lhs, rhs, K, moments=moments)


# --- report serialization ------------------------------------------------------

_CSV_COLUMNS = ("check", "params", "n", "lhs", "rhs", "slack",
                "max_violation", "passed", "seed")


def format_value(v) -> str:
    """CSV cell text: floats to 17 significant digits, None empty."""
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def rows_from_reports(name: str, reports, params=None, seed=None):
    """Flatten CheckReports into serialization rows."""
    rows = []
    for i, r in enumerate(reports):
        rows.append({
            "check": name,
            "params": params[i] if params is not None else "",
            "n": None,
            "lhs": r.lhs, "rhs": r.rhs, "slack": r.slack,
            "max_violation": max(0.0, -r.slack),
            "passed": r.passed, "seed": seed,
        })
    return rows


def write_csv(path, columns, rows, header_lines=()):
    """Write sequence rows as CSV: comma separated, '.' decimal point, 17
    significant digits, LF line endings, leading '#' metadata lines."""
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


def reports_to_csv(path, rows, header_lines=()):
    """Write report rows (dicts, see rows_from_reports) with write_csv."""
    write_csv(path, _CSV_COLUMNS,
              ([row.get(c) for c in _CSV_COLUMNS] for row in rows), header_lines)


def reports_to_jsonl(path, rows, header_lines=()):
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(json.dumps({"meta": line}) + "\n")
        for row in rows:
            fh.write(json.dumps(row, default=float) + "\n")
