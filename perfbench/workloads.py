"""Seeded inputs and the timed operations of the two workloads.

Every end-to-end metric is measured on every workload, so every round holds
operations of every kind; the workloads differ in how much of each kind a
round holds (SIZES):

  constants  three altspline x1 values: six array-native and six
             scalar-only sweep constants.
  oracle     2400 narrow, 120 wide and 560 scaled exact checks, and
             `verify --suite oracle` at 1000 samples; two x1 values.

Each round also runs `vbesharp table` five times, `vbesharp verify` five
times, the three sweeps at least once and enumerate_orderings() once.  The
operations of each kind are spread evenly over the round, so that every
metric averages over the same stretch of machine time.  Input sizes that set
an operation's cost (the number of laws) are stratified rather than drawn
freely, so the cost of a round hardly depends on the seed.

The inputs depend on --seed only, with two exceptions.  The altspline
parameters are the fixed X1_VALUES: the cost of a sweep constant moves
erratically with x1 (0.36 to 0.57 s for one sharp constant over [0.1, 0.2]),
which would read as a change of speed from seed to seed.  The scaled
sub-mix's 40 base cases come from the fixed SCALED_SEED, because two faults
in the program make some of its checks fail, and the number of failures must
not depend on the seed.  This module imports vbesharp but not the
references, so that the set-up probe measures the program's import and input
building alone.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from vbesharp import cli, constants, ineqcheck, momfun, oracle

WORKLOADS = ("constants", "oracle")
LAMBDAS = (1e-15, 1e-10, 1e-5, 1.0, 1e5, 1e10, 1e15)
SCALED_SEED = 20101008
X1_VALUES = (0.15, 0.1, 0.2)
# mixing-measure grid for the round-trip functions: it must reach past every
# argument the centering sweep evaluates (c up to 1e3, s/c up to 1e3)
GAMMA_GRID = np.geomspace(1e-3, 1e7, 400)

SIZES = {
    "constants": dict(x1=3, narrow=600, wide=30, scaled=0, verify=300, sweep_reps=1),
    "oracle": dict(x1=2, narrow=2400, wide=120, scaled=40, verify=1000, sweep_reps=2),
}
SWEEP_SAMPLES = 10 ** 6
# the child-process runs of a round: each is short, so several spread over
# the round give their metric the round's average machine speed
TABLES = 5
VERIFIES = 5
# narrow check kinds, repeated in this proportion
NARROW_MIX = ("main",) * 4 + ("tree",) * 2 + ("centering",) * 2 + ("concentration", "sum_norm")


@dataclass
class Op:
    """One timed operation: `kind` names the metric it feeds, `run` makes the
    call, and `spec` holds what the output check needs."""

    kind: str
    run: object
    spec: dict = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    seed: int
    out_dir: str
    x1s: list
    alt: list           # array-native altspline functions, one per x1
    rt: list            # the same rebuilt through gamma_of / momfun_of_gamma
    pset: dict          # p -> (power MomentFunction, sharp C, centering kappa)
    narrow: list
    wide: list
    scaled: list
    verify_samples: int
    verify_seed: int
    sweep_n: int
    sweep_reps: int
    sweep_seeds: tuple


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _spreads(rng, k, lo=1e-3, hi=1e3):
    return [tuple(float(v) for v in _log_uniform(rng, lo, hi, 2)) for _ in range(k)]


def _tree(rng, depth):
    """Nested (difference, probability, subtree) tuples: an arbitrary first
    step, then at every node its own zero-mean two-point law."""
    def node(level):
        if level == depth:
            return ()
        if level == 0:
            xs = rng.uniform(-2.0, 2.0, 2)
            q = float(rng.uniform(0.1, 0.9))
            return ((float(xs[0]), q, node(1)), (float(xs[1]), 1.0 - q, node(1)))
        c, d = (float(v) for v in _log_uniform(rng, 1e-2, 1e1, 2))
        return ((-c, d / (c + d), node(level + 1)), (d, c / (c + d), node(level + 1)))
    return node(0)


def _narrow_case(rng, kind, k, ps):
    p = float(ps[int(rng.integers(len(ps)))])
    if kind == "main":
        return dict(kind=kind, p=p, spreads=_spreads(rng, k))
    if kind == "tree":
        return dict(kind=kind, p=p, tree=_tree(rng, k))
    if kind == "centering":
        w = rng.uniform(0.1, 1.0, k)
        w = w / math.fsum(w)
        pts, probs = [], []
        for wi, (c, d) in zip(w, _spreads(rng, k, 1e-2, 1e1)):
            pts += [-c, d]
            probs += [wi * d / (c + d), wi * c / (c + d)]
        return dict(kind=kind, p=p, points=pts, probs=probs,
                    shift=float(rng.uniform(-2.0, 2.0)))
    if kind == "concentration":
        supports = [sorted(float(v) for v in rng.uniform(-3.0, 3.0, 2)) for _ in range(k)]
        probs = []
        for _ in range(k):
            q = float(rng.uniform(0.05, 0.95))
            probs.append([q, 1.0 - q])
        return dict(kind=kind, p=p, supports=supports, probs=probs,
                    table=rng.uniform(-5.0, 5.0, (2,) * k),
                    anchor_idx=[int(rng.integers(2)) for _ in range(k)])
    dim = int(rng.integers(1, 4))
    points = [rng.uniform(-2.0, 2.0, (2, dim)).tolist() for _ in range(k)]
    probs = []
    for _ in range(k):
        q = float(rng.uniform(0.05, 0.95))
        probs.append([q, 1.0 - q])
    return dict(kind="sum_norm", p=p, points=points, probs=probs,
                anchors=rng.uniform(-1.0, 1.0, (k, dim)).tolist())


def build(workload: str, seed: int, out_dir: str) -> Inputs:
    """Draw the workload's inputs from `seed` and build the program objects
    they need.  This is the work the set-up time measures, after import."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    x1s = list(X1_VALUES[:size["x1"]])
    alt = [momfun.altspline_momfun(momfun.AltSplineParams(x1)) for x1 in x1s]
    rt = [momfun.momfun_of_gamma(momfun.gamma_of(f, GAMMA_GRID)) for f in alt]

    ps = [float(v) for v in rng.uniform(1.01, 2.0, 8)]
    m = len(NARROW_MIX)
    narrow = [_narrow_case(rng, NARROW_MIX[i % m], 2 + (i // m) % 3, ps)
              for i in range(size["narrow"])]
    wide = [dict(kind="main", p=float(ps[int(rng.integers(len(ps)))]),
                 spreads=_spreads(rng, 10 + i % 3))
            for i in range(size["wide"])]
    fixed = np.random.default_rng(SCALED_SEED)
    scaled = []
    for _ in range(size["scaled"]):
        base = dict(kind="main", p=float(fixed.uniform(1.01, 2.0)),
                    spreads=_spreads(fixed, int(fixed.integers(2, 5))))
        scaled.append(base)

    pset = {}
    for p in sorted({c["p"] for c in narrow + wide + scaled} | set(ps)):
        pset[p] = (momfun.power_momfun(p), constants.power_sharp_constant(p).value,
                   constants.power_centering_constant(p).value)

    return Inputs(
        workload=workload, seed=seed, out_dir=out_dir, x1s=x1s, alt=alt, rt=rt,
        pset=pset, narrow=narrow, wide=wide, scaled=scaled,
        verify_samples=size["verify"], verify_seed=int(rng.integers(1, 2 ** 31)),
        sweep_n=SWEEP_SAMPLES, sweep_reps=size["sweep_reps"],
        sweep_seeds=tuple(int(v) for v in rng.integers(1, 2 ** 31, 3)),
    )


# --- operations ------------------------------------------------------------------

def _tree_obj(node):
    return oracle.MartingaleTree(children=tuple(
        (x, q, _tree_obj(child)) for x, q, child in node))


def _check_call(case, f, C, kappa, scale=1.0):
    kind = case["kind"]
    if kind == "main":
        return lambda: oracle.check_main_inequality(
            f, [oracle.two_point(scale * c, scale * d) for c, d in case["spreads"]], C)
    if kind == "tree":
        return lambda: oracle.check_tree_inequality(f, _tree_obj(case["tree"]), C)
    if kind == "centering":
        return lambda: oracle.check_centering(
            f, oracle.discrete(case["points"], case["probs"]), case["shift"], kappa)
    if kind == "concentration":
        def run():
            margs = [oracle.DiscreteDist(np.array(s), np.array(q))
                     for s, q in zip(case["supports"], case["probs"])]
            anchors = [s[i] for s, i in zip(case["supports"], case["anchor_idx"])]
            return oracle.check_concentration(case["table"], margs, anchors, f=f,
                                              kappa=kappa, sharp=C)
        return run
    return lambda: oracle.check_sum_norm(
        [oracle.VectorDist(np.array(pt), np.array(q))
         for pt, q in zip(case["points"], case["probs"])],
        case["p"], case["anchors"])


class Cli:
    """Runs the vbesharp command line: as a child process (one at a time),
    or in this process when tracing, with its printed lines discarded."""

    def __init__(self, src_dir, in_process=False, span=None):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.env.pop("VBESHARP_OUT_DIR", None)
        self.in_process = in_process
        self.span = span

    def __call__(self, argv):
        if self.in_process:
            call = lambda: cli.main(argv)
            if self.span is not None:
                call = self.span(f"cli.{argv[0]}", call)
            with contextlib.redirect_stdout(io.StringIO()):
                return call()
        proc = subprocess.run([sys.executable, "-m", "vbesharp.cli", *argv],
                              env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"vbesharp {argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")
        return proc.returncode


def make_ops(inp: Inputs, run_cli: Cli, fn=lambda f: f) -> list:
    """The operations of one round.  `fn` maps each moment function the
    benchmark passes in (the traced run instruments them)."""
    kinds = {k: [] for k in ("alt", "rt", "narrow", "wide", "scaled", "table", "verify",
                             "sweep", "orderings")}
    for i in range(len(inp.x1s)):
        for kind, f in (("alt", fn(inp.alt[i])), ("rt", fn(inp.rt[i]))):
            kinds[kind].append(Op(kind, lambda f=f: constants.sharp_constant(f),
                                  dict(what="sharp", index=i)))
            kinds[kind].append(Op(kind, lambda f=f: constants.centering_constant(f),
                                  dict(what="centering", index=i)))

    def check_op(kind, case, scale=1.0, zero=False):
        f, C, kappa = inp.pset[case["p"]]
        C = 0.0 if zero else C
        return Op(kind, _check_call(case, fn(f), C, kappa, scale),
                  dict(case=case, C=C, kappa=kappa, scale=scale))

    kinds["narrow"] = [check_op("narrow", case) for case in inp.narrow]
    kinds["wide"] = [check_op("wide", case) for case in inp.wide]
    kinds["scaled"] = [check_op("scaled", case, lam, zero)
                       for case in inp.scaled for lam in LAMBDAS for zero in (False, True)]

    table_csv = os.path.join(inp.out_dir, f"{inp.workload}-table.csv")
    verify_csv = os.path.join(inp.out_dir, f"{inp.workload}-verify.csv")
    kinds["table"] = [Op("table", lambda: run_cli(["table", "--out", table_csv]),
                         dict(path=table_csv))] * TABLES
    # --suite oracle, not all: the jle suite's growth_vs_gap check fails by
    # rounding on some seeds (one of 900 at 1000 samples; see CHANGES.md)
    kinds["verify"] = [Op("verify", lambda: run_cli(
        ["verify", "--suite", "oracle", "--samples", str(inp.verify_samples),
         "--seed", str(inp.verify_seed), "--out", verify_csv]),
        dict(path=verify_csv))] * VERIFIES
    for _ in range(inp.sweep_reps):
        for name, seed in zip(("cross_gap", "reflection_gap", "doubling_margin"),
                              inp.sweep_seeds):
            kinds["sweep"].append(Op("sweep", lambda name=name, seed=seed: getattr(
                ineqcheck, f"sweep_{name}")(inp.sweep_n, seed=seed),
                dict(name=name, n=inp.sweep_n, seed=seed)))
    kinds["orderings"] = [Op("orderings", lambda: ineqcheck.enumerate_orderings())]

    # the i-th of n operations of a kind sits at (i + 1/2) / n of the round;
    # ties keep the order above, so each rt constant follows its alt twin
    order = list(kinds)
    placed = [((i + 0.5) / len(ops), order.index(kind), op)
              for kind, ops in kinds.items() for i, op in enumerate(ops)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]
