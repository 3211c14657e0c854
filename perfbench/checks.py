"""Checks of every operation's output against refs.py or a guaranteed property.

`Checker.check(op, out)` returns None when the output is right, or
(cause, message).  A cause of "fault:..." marks a scaled check below unit
scale that one of the two known oracle faults breaks; every other cause is a
wrong output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import refs
from vbesharp import ineqcheck

REL = 1e-9          # exact-check lhs and rhs against path enumeration
POWER_TOL = 1e-11   # power constants against the mpmath maximizations
SWEEP_REL = 1e-9    # sweep constants: witness value, round trip, dense scan
VIOL_TOL = 1e-12    # the sweeps' own pass criterion
S_MAX = 1e4         # the scale range sharp_constant sweeps by default
# the spreads c and scale ratios s / c that centering_constant searches by
# default; its grid-and-refinement search is a lower bound that misses the
# dense scan's maximum by up to 1.0e-2 on some x1 in [0.1, 0.2] (see
# CHANGES.md), so it is held to the scan within three times that
C_RANGE, R_RANGE = (1e-2, 1e3), (2.0, 1e3)
CENTERING_SCAN_TOL = 3e-2
N_KERNEL = 4000     # benchmark-drawn points for the kernel comparison


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Checker:
    """Holds the references of one run; each is computed once."""

    def __init__(self, inp):
        self.inp = inp
        self.power = {}
        self.splines = [refs.AltSpline(x1) for x1 in inp.x1s]
        self.scans = [refs.bregman_scan(s.f, s.fp, 1e-6, S_MAX) for s in self.splines]
        self.centering_scans = [refs.centering_scan(s.f, *C_RANGE, *R_RANGE)
                                for s in self.splines]
        self.alt_values = {}
        self.expected = {}
        self.kernels_checked = False
        self.rng = np.random.default_rng([inp.seed, 99])

    def power_refs(self, p):
        if p not in self.power:
            self.power[p] = (refs.power_sharp_ref(p), refs.power_centering_ref(p))
        return self.power[p]

    def check_inputs(self):
        """The power constants the program computed while building inputs."""
        for p, (_, C, kappa) in self.inp.pset.items():
            sharp, cent = self.power_refs(p)
            if abs(C - sharp) > POWER_TOL or abs(kappa - cent) > POWER_TOL:
                return f"p={p}: constants ({C}, {kappa}) vs mpmath ({sharp}, {cent})"
        return None

    def check(self, op, out):
        if isinstance(out, Exception):
            return "wrong", f"{op.kind} raised {out!r}"
        msg = getattr(self, "_" + op.kind)(op, out)
        if isinstance(msg, tuple):
            return msg
        return None if msg is None else ("wrong", f"{op.kind}: {msg}")

    # --- sweep constants --------------------------------------------------

    def _alt(self, op, out):
        self.alt_values[op.spec["what"], op.spec["index"]] = out.value
        return self._sweep_constant(op, out)

    def _rt(self, op, out):
        msg = self._sweep_constant(op, out)
        alt = self.alt_values.get((op.spec["what"], op.spec["index"]))
        if msg is None and (alt is None or not _close(out.value, alt, SWEEP_REL)):
            msg = f"round-trip {op.spec['what']} {out.value!r} vs array-native {alt!r}"
        return msg

    def _sweep_constant(self, op, out):
        spline = self.splines[op.spec["index"]]
        v = out.value
        if not 1.0 <= v <= 2.0:
            return f"{op.spec['what']} constant {v!r} outside [1, 2]"
        w = dict(out.witness)
        if op.spec["what"] == "sharp":
            at = float(refs.bregman_ratio(spline.f, spline.fp, w["s_star"], w["x_star"]))
            scan = self.scans[op.spec["index"]][0]
            if v < scan * (1.0 - SWEEP_REL):
                return f"sharp {v!r} below the dense scan {scan!r}"
        else:
            c, s, a = w["c_star"], w["s_star"], w["a_star"]
            at = float(refs.centering_ratio(spline.f, c, s, a))
            u_min = refs.min_over_shift(spline.f, c, s)
            if float(refs.centering_U(spline.f, c, s, a)) > u_min * (1.0 + 1e-12):
                return f"centering shift {a!r} is not a minimizer at c={c!r}, s={s!r}"
            scan = self.centering_scans[op.spec["index"]][0]
            if v < scan - CENTERING_SCAN_TOL:
                return f"centering {v!r} below the dense scan {scan!r}"
        if not _close(v, at, SWEEP_REL):
            return f"{op.spec['what']} {v!r} but the objective at its witness is {at!r}"
        return None

    # --- exact checks -----------------------------------------------------

    def _expected(self, op):
        spec = op.spec
        case = spec["case"]
        key = (id(case), spec["scale"], spec["C"])
        if key in self.expected:
            return self.expected[key]
        p = case["p"]
        f = refs.power(p)
        kind = case["kind"]
        if kind == "main":
            laws = [refs.two_point_law(c, d) for c, d in case["spreads"]]
            lhs = refs.product_expectation(laws, f)
            moments = [refs.law_expectation(v, q, f) for v, q in laws]
            rhs = moments[0] + spec["C"] * math.fsum(moments[1:])
            # homogeneity: the scaled check's sides are scale**p times these
            lhs, rhs = (spec["scale"] ** p * v for v in (lhs, rhs))
        elif kind == "tree":
            lhs, moments = refs.tree_expectations(case["tree"], f)
            rhs = moments[0] + spec["C"] * math.fsum(moments[1:])
        elif kind == "centering":
            lhs = refs.law_expectation(case["points"], case["probs"], f)
            rhs = spec["kappa"] * refs.law_expectation(
                np.asarray(case["points"]) + case["shift"], case["probs"], f)
        elif kind == "concentration":
            sharp, cent = self.power_refs(p)
            lhs, rhs = refs.concentration_sides(
                p, case["supports"], case["probs"], case["table"],
                case["anchor_idx"], cent, sharp)
        else:
            sharp, cent = self.power_refs(p)
            lhs, rhs = refs.sum_norm_sides(
                p, case["points"], case["probs"], case["anchors"], cent, sharp)
        # by theorem the check passes with the sharp constants; with C = 0
        # Jensen makes E f(X_1 + ...) exceed E f(X_1), so it fails
        self.expected[key] = (lhs, rhs, spec["C"] != 0.0)
        return self.expected[key]

    def _exact(self, op, out):
        lhs, rhs, verdict = self._expected(op)
        lhs_ok = _close(out.lhs, lhs, REL)
        ok = lhs_ok and _close(out.rhs, rhs, REL) and out.passed == verdict
        if ok:
            return None
        msg = (f"{op.spec['case']['kind']} p={op.spec['case']['p']:.6g} "
               f"scale={op.spec['scale']:g} C={op.spec['C']:.6g}: lhs {out.lhs!r} "
               f"vs {lhs!r}, rhs {out.rhs!r} vs {rhs!r}, passed={out.passed}")
        if op.kind == "scaled" and op.spec["scale"] < 1.0:
            if not lhs_ok:
                return "fault:convolve_merge", msg
            if _close(out.rhs, rhs, REL) and op.spec["C"] == 0.0 and out.passed:
                return "fault:slack_floor", msg
        return "wrong", msg

    _narrow = _wide = _scaled = _exact

    # --- command line -----------------------------------------------------

    @staticmethod
    def _rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))

    def _table(self, op, code):
        if code != 0:
            return f"exit code {code}"
        rows = self._rows(op.spec["path"])
        if len(rows) != 100:
            return f"{len(rows)} rows, expected 100"
        for row in rows:
            p = float(row["p"])
            sharp, cent = self.power_refs(p)
            for col, ref in (("sharp", sharp), ("centering", cent)):
                if abs(float(row[col]) - ref) > POWER_TOL:
                    return f"p={p}: {col} {row[col]} vs mpmath {ref!r}"
        return None

    def _verify(self, op, code):
        if code != 0:
            return f"exit code {code}"
        rows = self._rows(op.spec["path"])
        n = self.inp.verify_samples
        expected = n + 2 * max(n // 10, 1)
        if len(rows) != expected:
            return f"{len(rows)} rows, expected {expected}"
        bad = [r for r in rows if r["passed"] != "True"]
        return f"{len(bad)} rows not passed" if bad else None

    # --- proof sweeps ----------------------------------------------------------

    _SWEEP_REFS = {"cross_gap": refs.cross_gap, "reflection_gap": refs.reflection_gap,
                   "doubling_margin": refs.doubling_margin}

    def _sweep(self, op, out):
        spec = op.spec
        if (out.name, out.n, out.seed) != (spec["name"], spec["n"], spec["seed"]):
            return f"report {out.name}/{out.n}/{out.seed} does not match the request"
        if not out.passed or not out.max_violation <= VIOL_TOL:
            return f"{out.name} max violation {out.max_violation!r}"
        v = float(self._SWEEP_REFS[out.name](*out.argmax_point))
        worst = max(-v, 0.0) if out.name == "doubling_margin" else max(v, 0.0)
        if abs(worst - out.max_violation) > VIOL_TOL:
            return f"{out.name} reports {out.max_violation!r}, reference {worst!r} at its argmax"
        if not self.kernels_checked:
            self.kernels_checked = True
            return self._kernel_sample()
        return None

    def _kernel_sample(self):
        """The program's kernels against refs.py on benchmark-drawn points,
        and the proof's sign conditions on the same points."""
        r = self.rng.uniform(size=(5, N_KERNEL)) * (1 - 2e-9) + 1e-9
        u, t, x, c = 2.5 * r[0], 2.5 * r[1], r[2], r[3]
        half, a = 0.5 * r[3], 0.5 * r[3] * r[4]
        lam, mu, nu = ineqcheck.kernel_terms(t, 1.0, x, c)
        # (program, reference, sign the proof gives the reference: + means <= 0)
        pairs = (
            (ineqcheck.cross_gap(u, t, x, c), refs.cross_gap(u, t, x, c), 1),
            (ineqcheck.reflection_gap(t, x, half), refs.reflection_gap(t, x, half), 1),
            (ineqcheck.doubling_margin(t, half, a), refs.doubling_margin(t, half, a), -1),
            (lam, refs.kernel_lam(t, x, c), 0),
            (mu, refs.kernel_mu(t, c), 0),
            (nu, refs.kernel_nu(t, x), 0),
        )
        for got, ref, sign in pairs:
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            if np.max(err) > VIOL_TOL:
                return f"kernel values differ from the reference by {np.max(err):.3e}"
            if sign and np.max(sign * ref) > VIOL_TOL:
                return f"reference kernel violates its sign by {np.max(sign * ref):.3e}"
        return None

    def _orderings(self, op, out):
        if (out.count_x_lt_c, out.count_x_gt_c, out.case_count) != (10, 2, 432):
            return f"counts ({out.count_x_lt_c}, {out.count_x_gt_c}, {out.case_count})"
        for orders, below in ((out.orderings_x_lt_c, True), (out.orderings_x_gt_c, False)):
            for order in orders:
                x, c = out.witnesses[order]
                if (x < c) != below or not refs.ordering_realised(order, x, c):
                    return f"witness ({x!r}, {c!r}) does not realise {order}"
        if len(out.witnesses) != 12:
            return f"{len(out.witnesses)} witnesses for 12 orderings"
        return None
