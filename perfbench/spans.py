"""Spans around the program's public functions, recorded from outside it.

`Tracer.install()` replaces each function in LAYERS by a wrapper in every
vbesharp namespace that holds it (so `vbesharp.suites.power_sharp_constant`
is wrapped along with `vbesharp.constants.power_sharp_constant`), wraps the
moment-function factories so the evaluators they return are counted, and
counts DiscreteDist constructions.  `uninstall()` puts the originals back.

A span is (name, start, end, parent).  Self time is a span's duration minus
the time its child spans cover; it is accumulated as spans close, so it is
exact however many spans there are.  At most `cap` spans are kept for the
trace file; the rest are counted as dropped.
"""

from __future__ import annotations

import dataclasses
import json
import re
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _atoms_in(args, kwargs):
    return {"oracle.convolve.atoms_in": float(np.prod([len(d) for d in args[0]]))}


def _atoms_out(result):
    return {"oracle.convolve.atoms_out": float(len(result))}


def _samples(args, kwargs):
    return {"ineqcheck.samples": float(args[0])}


def _cases(args, kwargs):
    return {"suites.cases": float(args[0] if args else kwargs["n"])}


# (module, function, span name, counters from the arguments, from the result)
LAYERS = [
    ("constants", "sharp_constant", "constants.sharp_constant", None, None),
    ("constants", "centering_constant", "constants.centering_constant", None, None),
    ("constants", "bregman_ratio_max", "constants.bregman_ratio_max", None, None),
    ("constants", "golden_max", "constants.golden_max", None, None),
    ("constants", "centering_argmin", "constants.centering_argmin", None, None),
    ("constants", "power_sharp_constant", "constants.power_sharp_constant", None, None),
    ("constants", "power_centering_constant", "constants.power_centering_constant",
     None, None),
    ("constants", "power_constant_bounds", "constants.power_constant_bounds", None, None),
    ("oracle", "two_point", "oracle.two_point", None, None),
    ("oracle", "discrete", "oracle.discrete", None, None),
    ("oracle", "convolve", "oracle.convolve", _atoms_in, _atoms_out),
    ("oracle", "expect_f", "oracle.expect_f", None, None),
    ("oracle", "check_main_inequality", "oracle.check_main_inequality", None, None),
    ("oracle", "check_tree_inequality", "oracle.check_tree_inequality", None, None),
    ("oracle", "check_centering", "oracle.check_centering", None, None),
    ("oracle", "check_concentration", "oracle.check_concentration", None, None),
    ("oracle", "check_sum_norm", "oracle.check_sum_norm", None, None),
    ("oracle", "reports_to_csv", "oracle.reports_to_csv", None, None),
    ("ineqcheck", "sweep_cross_gap", "ineqcheck.sweep_cross_gap", _samples, None),
    ("ineqcheck", "sweep_reflection_gap", "ineqcheck.sweep_reflection_gap", _samples, None),
    ("ineqcheck", "sweep_doubling_margin", "ineqcheck.sweep_doubling_margin", _samples, None),
    ("ineqcheck", "kernel_terms", "ineqcheck.kernel_terms", None, None),
    ("ineqcheck", "enumerate_orderings", "ineqcheck.enumerate_orderings", None, None),
    ("suites", "main_inequality_suite", "suites.main_inequality", _cases, None),
    ("suites", "tree_suite", "suites.tree", _cases, None),
    ("suites", "centering_suite", "suites.centering", _cases, None),
]
FACTORIES = ("power_momfun", "extreme_momfun", "altspline_momfun",
             "from_second_derivative", "momfun_of_gamma")

# the per-layer metrics: (name, unit, better); `.s` is self time, the rest
# are counts, all per round
PER_LAYER = (
    [("import.vbesharp.s", "s", "lower"), ("import.scipy_integrate.s", "s", "lower"),
     ("import.scipy_stats.s", "s", "lower")]
    + [(f"momfun.{e}.{m}", "s" if m == "s" else "count", "lower")
       for e in ("eval", "deriv") for m in ("calls", "points", "s")]
    + [("constants.sharp_constant.s", "s", "lower"),
       ("constants.centering_constant.s", "s", "lower")]
    + [(f"constants.{n}.{m}", "s" if m == "s" else "count", "lower")
       for n in ("bregman_ratio_max", "golden_max", "centering_argmin",
                 "power_sharp_constant", "power_centering_constant")
       for m in ("calls", "s")]
    + [("constants.power_constant_bounds.s", "s", "lower"),
       ("oracle.two_point.calls", "count", "lower"),
       ("oracle.DiscreteDist.constructions", "count", "lower"),
       ("oracle.discrete.calls", "count", "lower"), ("oracle.discrete.s", "s", "lower"),
       ("oracle.convolve.calls", "count", "lower"), ("oracle.convolve.s", "s", "lower"),
       ("oracle.convolve.atoms_in", "count", "lower"),
       ("oracle.convolve.atoms_out", "count", "lower"),
       ("oracle.expect_f.calls", "count", "lower"), ("oracle.expect_f.s", "s", "lower")]
    + [(f"oracle.{n}.s", "s", "lower")
       for n in ("check_main_inequality", "check_tree_inequality", "check_centering",
                 "check_concentration", "check_sum_norm", "reports_to_csv")]
    + [("ineqcheck.samples", "count", "higher")]
    + [(f"ineqcheck.{n}.s", "s", "lower")
       for n in ("sweep_cross_gap", "sweep_reflection_gap", "sweep_doubling_margin")]
    + [("ineqcheck.kernel_terms.calls", "count", "lower"),
       ("ineqcheck.kernel_terms.s", "s", "lower"),
       ("ineqcheck.enumerate_orderings.s", "s", "lower"),
       ("suites.cases", "count", "higher")]
    + [(f"suites.{n}.s", "s", "lower") for n in ("main_inequality", "tree", "centering")]
    + [("cli.table.s", "s", "lower"), ("cli.verify.s", "s", "lower"),
       ("trace.overhead", "%", "lower")]
)


class Tracer:
    def __init__(self, cap=100_000):
        self.cap = cap
        self.names, self.ids = [], {}
        self.self_s, self.calls = [], []
        self.counters = defaultdict(float)
        self.stack = []              # [span id, name id, start, child time]
        self.n_spans = 0
        self.rec_name, self.rec_parent = array("i"), array("q")
        self.rec_start, self.rec_end = array("d"), array("d")
        self.patched = []

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self.ids[name]

    def span(self, name, fn, before=None, after=None):
        """fn wrapped in a span; `before(args, kwargs)` and `after(result)`
        return {counter name: amount} to add."""
        nid = self._id(name)
        stack, counters = self.stack, self.counters

        def wrapper(*args, **kwargs):
            if before is not None:
                for k, v in before(args, kwargs).items():
                    counters[k] += v
            sid = self.n_spans
            self.n_spans += 1
            frame = [sid, nid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[2]
                self.self_s[nid] += dur - frame[3]
                self.calls[nid] += 1
                if stack:
                    stack[-1][3] += dur
                if sid < self.cap:
                    self.rec_name.append(nid)
                    self.rec_parent.append(stack[-1][0] if stack else -1)
                    self.rec_start.append(frame[2])
                    self.rec_end.append(end)
            if after is not None:
                for k, v in after(result).items():
                    counters[k] += v
            return result

        return wrapper

    def momfun(self, f):
        """A copy of moment function f whose eval and deriv are spans."""
        def points(name):
            return lambda args, kwargs: {name: float(np.size(args[0]))}
        return dataclasses.replace(
            f, eval=self.span("momfun.eval", f.eval, points("momfun.eval.points")),
            deriv=self.span("momfun.deriv", f.deriv, points("momfun.deriv.points")))

    def _patch_everywhere(self, orig, wrapper):
        for mod in [m for n, m in sys.modules.items()
                    if n == "vbesharp" or n.startswith("vbesharp.")]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self.patched.append((mod, attr, orig))

    def install(self):
        import vbesharp
        for mod_name, fn_name, span_name, before, after in LAYERS:
            orig = getattr(getattr(vbesharp, mod_name), fn_name)
            self._patch_everywhere(orig, self.span(span_name, orig, before, after))
        for fn_name in FACTORIES:
            orig = getattr(vbesharp.momfun, fn_name)
            self._patch_everywhere(orig, lambda *a, _o=orig, **k: self.momfun(_o(*a, **k)))
        dist = vbesharp.oracle.DiscreteDist
        post = dist.__post_init__

        def counted(obj):
            self.counters["oracle.DiscreteDist.constructions"] += 1
            post(obj)

        dist.__post_init__ = counted
        self.patched.append((dist, "__post_init__", post))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched.clear()

    def totals(self):
        """{name.s: self seconds, name.calls: calls} plus the counters."""
        out = dict(self.counters)
        for nid, name in enumerate(self.names):
            out[f"{name}.s"] = self.self_s[nid]
            out[f"{name}.calls"] = float(self.calls[nid])
        return out

    def write(self, path, extra):
        kept = len(self.rec_name)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.n_spans, "kept": kept,
                       "dropped": self.n_spans - kept, **extra}, fh)
            fh.write("\n")
            for i in range(kept):
                fh.write(json.dumps([i, self.names[self.rec_name[i]], self.rec_start[i],
                                     self.rec_end[i], self.rec_parent[i]]) + "\n")


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(env, repeats=3):
    """Cumulative import seconds in a fresh interpreter (`python -X
    importtime -c "import vbesharp.cli"`), median of `repeats`:
    import.vbesharp.s is the whole of it, the package and everything its
    command line imports; the scipy entries are the parts of that."""
    want = {"vbesharp.cli": "import.vbesharp.s",
            "scipy.integrate": "import.scipy_integrate.s",
            "scipy.stats": "import.scipy_stats.s"}
    seen = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vbesharp.cli"],
                              env=env, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(3) in want:
                seen[want[m.group(3)]].append(int(m.group(2)) * 1e-6)
    missing = set(want.values()) - set(seen)
    if missing:
        raise RuntimeError(f"no import time for {sorted(missing)}")
    return {k: statistics.median(v) for k, v in seen.items()}
