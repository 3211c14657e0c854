"""Command-line front end.

Subcommands:

  constants  print every constant at one exponent
  figure     emit the CSV data behind one of the standard figures
  table      batch the power constants over an exponent grid
  verify     run the randomized / low-discrepancy verification suites

Output files are CSV (or JSON lines) with '#' metadata headers recording the
tool version, the seed, and the configuration; identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 verification failure,
2 usage error.  VBESHARP_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, ineqcheck, suites
from .constants import (
    centering_constant,
    power_centering_constant,
    power_constant_bounds,
    power_sharp_constant,
    sharp_constant,
    vbe_D,
    vbe_constant,
)
from .errors import DomainError
from .momfun import (
    AltSplineParams,
    altspline_momfun,
    effective_exponent,
    extreme_momfun,
)
from .oracle import format_value, reports_to_csv, reports_to_jsonl, write_csv

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2


def _out_path(path: str | None, default_name: str) -> str:
    if path is not None:
        return path
    return os.path.join(os.environ.get("VBESHARP_OUT_DIR", "."), default_name)


def _header(args, extra: str = "") -> list:
    cfg = f"subcommand={args.command} {extra}".strip()
    lines = [f"vbesharp {__version__}", cfg]
    if getattr(args, "seed", None) is not None:
        lines.insert(1, f"seed={args.seed}")
    return lines


def _cmd_constants(args) -> int:
    p = args.p
    if (p is None) == (args.t is None):
        print("error: give exactly one of --p (power exponent) or --t (clip level)",
              file=sys.stderr)
        return _EXIT_USAGE
    if args.t is not None:
        t = float(args.t)
        f = extreme_momfun(t)
        rows = [("t", t),
                ("sharp_constant", float(sharp_constant(f).value)),
                ("centering_constant", centering_constant(f).value)]
    else:
        rows = [("p", p), ("sharp_constant", power_sharp_constant(p).value)]
        if p < 2.0:
            b = power_constant_bounds(p)
            rows += [("gap_argmax", b.x_p), ("lower_1", b.lower_1),
                     ("lower_2", b.lower_2), ("upper_1", b.upper_1),
                     ("upper_2", b.upper_2), ("envelope", b.envelope)]
        else:
            rows += [("gap_argmax", math.nan), ("lower_1", 1.0), ("lower_2", 1.0),
                     ("upper_1", 1.0), ("upper_2", 1.0), ("envelope", 1.0)]
        rows += [("vbe_D", vbe_D(p)), ("vbe_constant", vbe_constant(p)),
                 ("centering_constant", power_centering_constant(p).value)]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {format_value(float(value))}")
    if args.out:
        path = _out_path(args.out, "constants.csv")
        name, value = rows[0]
        write_csv(path, ("name", "value"), rows,
                  _header(args, f"{name}={format_value(float(value))}"))
        print(f"wrote {path}")
    return _EXIT_OK


_FIGURES = ("fig1-left", "fig1-right", "fig2", "fig3", "fig4")


def _p_grid(args, default_from=1.01, default_to=1.99):
    lo = args.grid_from if args.grid_from is not None else default_from
    hi = args.grid_to if args.grid_to is not None else default_to
    step = args.step if args.step is not None else 0.01
    if not (lo < hi and step > 0):
        raise DomainError("grid needs from < to and step > 0")
    n = int(math.floor((hi - lo) / step + 1e-9))
    return [round(lo + i * step, 12) for i in range(n + 1)]


def _cmd_figure(args) -> int:
    name = args.name
    x1 = args.x1 if args.x1 is not None else 0.1
    path = _out_path(args.out, f"{name}.csv")
    hdr = _header(args, f"name={name} x1={format_value(float(x1))}")
    if name == "fig1-left":
        lo = args.grid_from if args.grid_from is not None else 0.0
        hi = args.grid_to if args.grid_to is not None else 30.0
        step = args.step if args.step is not None else 0.01
        f = altspline_momfun(AltSplineParams(x1))
        xs = np.arange(lo, hi + 0.5 * step, step)
        rows = [(x, float(f.second_deriv(x)), (x + 1.0) ** (-2.0 / 3.0),
                 (x + 1.0) ** (-1.0 / 3.0)) for x in xs]
        write_csv(path, ("x", "curvature", "decay_23", "decay_13"), rows, hdr)
    elif name == "fig1-right":
        # horizontal axis log2(log_q(x+1)) makes the breakpoints equi-spaced;
        # the default start skips the log-base-1 singularity at x = 1
        lo = args.grid_from if args.grid_from is not None else 3.0
        hi = args.grid_to if args.grid_to is not None else 8.0
        step = args.step if args.step is not None else 0.01
        params = AltSplineParams(x1)
        ws = np.arange(lo, hi + 0.5 * step, step)
        rows = []
        for w in ws:
            x = math.expm1(2.0 ** w * math.log(params.q))
            if x <= 1.0:
                continue
            rows.append((w, effective_exponent(params, x), 1.5, 5.0 / 3.0))
        write_csv(path, ("log2_logq_x1p", "effective_exponent", "low", "high"),
                  rows, hdr)
    elif name == "fig2":
        rows = []
        for p in _p_grid(args):
            b = power_constant_bounds(p)
            w = b.envelope
            rows.append((p, b.sharp / w, b.lower_1 / w, b.lower_2 / w,
                         b.upper_1 / w, b.upper_2 / w, 1.0))
        write_csv(path, ("p", "sharp_ratio", "lower1_ratio", "lower2_ratio",
                         "upper1_ratio", "upper2_ratio", "one"), rows, hdr)
    elif name == "fig3":
        rows = [(p, power_centering_constant(p).value, 1.0)
                for p in _p_grid(args, default_to=2.0)]
        write_csv(path, ("p", "centering_constant", "one"), rows, hdr)
    else:  # fig4, the last name argparse admits
        rows = []
        for p in _p_grid(args, default_to=2.0):
            w = 2.0 ** (2.0 - p)
            rows.append((p, power_sharp_constant(p).value, w,
                         min(2.0, vbe_constant(p)), 1.0))
        write_csv(path, ("p", "sharp_constant", "envelope", "vbe_capped", "one"),
                  rows, hdr)
    print(f"wrote {path}")
    return _EXIT_OK


def _cmd_table(args) -> int:
    path = _out_path(args.out, "power_constants.csv")
    grid = _p_grid(args, default_from=1.01, default_to=2.0)
    columns = ("p", "gap_argmax", "sharp", "lower_1", "lower_2", "upper_1",
               "upper_2", "envelope", "vbe_D", "vbe_constant", "centering")
    rows = []
    for p in grid:
        if p >= 2.0:
            p = 2.0
            row = (p, math.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                   vbe_D(p), vbe_constant(p), 1.0)
        else:
            b = power_constant_bounds(p)
            row = (p, b.x_p, b.sharp, b.lower_1, b.lower_2, b.upper_1,
                   b.upper_2, b.envelope, vbe_D(p), vbe_constant(p),
                   power_centering_constant(p).value)
        rows.append(row)
    write_csv(path, columns, rows, _header(args, f"grid={grid[0]}..{grid[-1]}"))
    sharp = [r[2] for r in rows]
    if not all(b < a for a, b in zip(sharp, sharp[1:])):
        print("error: sharp constant column is not strictly decreasing",
              file=sys.stderr)
        return _EXIT_FAIL
    print(f"wrote {path} ({len(rows)} rows)")
    return _EXIT_OK


def _cmd_verify(args) -> int:
    n = args.samples
    seed = args.seed
    results = []
    sweeps = []
    suite = args.suite
    if suite in ("delta", "all"):
        sweeps.append(ineqcheck.sweep_cross_gap(n, seed=seed))
    if suite in ("sublemma", "all"):
        sweeps.append(ineqcheck.sweep_reflection_gap(max(n // 10, 1), seed=seed + 1))
        sweeps.append(ineqcheck.sweep_doubling_margin(max(n // 10, 1), seed=seed + 2))
    if suite in ("jle", "all"):
        results.append(suites.growth_vs_gap_suite(n, seed=seed + 3,
                                                  collect=bool(args.out)))
    if suite in ("oracle", "all"):
        results.append(suites.main_inequality_suite(n, seed=seed + 4,
                                                    collect=bool(args.out)))
        results.append(suites.tree_suite(max(n // 10, 1), seed=seed + 5,
                                         collect=bool(args.out)))
        results.append(suites.centering_suite(max(n // 10, 1), seed=seed + 6,
                                              collect=bool(args.out)))
    if suite in ("concentration", "all"):
        results.append(suites.concentration_suite(min(n, 1000), seed=seed + 7,
                                                  collect=bool(args.out)))

    failed = False
    rows = []
    for sw in sweeps:
        status = "pass" if sw.passed else "FAIL"
        print(f"{status}  {sw.name:<18} n={sw.n:<9} max_violation={sw.max_violation:.3e} "
              f"argmax={tuple(round(v, 6) for v in sw.argmax_point)}")
        rows.append({"check": sw.name, "params": repr(sw.argmax_point),
                     "n": sw.n, "max_violation": sw.max_violation,
                     "passed": sw.passed, "seed": sw.seed})
        failed |= not sw.passed
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{status}  {res.name:<18} n={res.n:<9} min_slack={res.min_slack:.3e} "
              f"violations={res.violations} worst=[{res.worst_params}] "
              f"({res.elapsed:.2f}s)")
        rows.extend(res.rows)
        failed |= not res.passed
    if args.out:
        path = _out_path(args.out, "verify.csv")
        hdr = _header(args, f"suite={suite} samples={n}")
        if args.format == "jsonl":
            reports_to_jsonl(path, rows, hdr)
        else:
            reports_to_csv(path, rows, hdr)
        print(f"wrote {path}")
    return _EXIT_FAIL if failed else _EXIT_OK


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vbesharp",
        description="Sharp moment-inequality constants and their verification suites.")
    ap.add_argument("--version", action="version", version=f"vbesharp {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, seed_default=20240900):
        sp.add_argument("--out", default=None, help="output file path "
                        "(default name inside VBESHARP_OUT_DIR)")
        sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        sp.add_argument("--seed", type=int, default=seed_default,
                        help="random seed recorded in output headers")
        sp.add_argument("--from", dest="grid_from", type=float, default=None)
        sp.add_argument("--to", dest="grid_to", type=float, default=None)
        sp.add_argument("--step", type=float, default=None)

    sp = sub.add_parser("constants",
                        help="print constants at one exponent or clip level")
    sp.add_argument("--p", type=float, default=None, help="exponent in (1, 2]")
    sp.add_argument("--t", default=None,
                    help="clip level in (0, inf]; 'inf' for the pure square")
    common(sp)

    sp = sub.add_parser("figure", help="emit figure data as CSV")
    sp.add_argument("--name", choices=_FIGURES, required=True)
    sp.add_argument("--x1", type=float, default=None,
                    help="first breakpoint of the alternating spline (default 0.1)")
    common(sp)

    sp = sub.add_parser("table", help="batch power constants over a p grid")
    common(sp)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", required=True,
                    choices=("delta", "sublemma", "jle", "oracle",
                             "concentration", "all"))
    sp.add_argument("--samples", type=_positive_int, default=1000)
    common(sp)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else _EXIT_OK
    try:
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
