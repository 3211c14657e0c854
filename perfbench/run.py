"""vbesharp benchmark: constant sweeps, exact oracle checks and proof sweeps.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload constants --seed 1 --seconds 20 --trace 0

It imports vbesharp from ./src, draws the workload's inputs from --seed, runs
whole rounds of the workload's operations until the next round would end
after --seconds, checks every output against perfbench/refs.py, prints each
metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the same
rounds run once untraced and once with spans around the program's public
functions (perfbench/spans.py); the metrics are then the per-layer ones, per
round, with the tracing overhead, and the spans go to perfbench/out/.

`failed` counts the scaled oracle checks that two known faults break (see
checks.py); `correct` is false if any other output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join(HERE, "out")
# set-up probes before the rounds and again after them, so that their median
# does not rest on one moment of the machine's speed
SETUP_PROBES = 2

END_TO_END = (
    ("setup_s", "s"), ("table_s", "s"), ("sweep_constants_per_s", "1/s"),
    ("scalar_sweep_constants_per_s", "1/s"), ("checks_per_s", "1/s"),
    ("wide_checks_per_s", "1/s"), ("verify_s", "s"), ("sweep_samples_per_s", "1/s"),
    ("orderings_s", "s"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("constants", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="only import vbesharp and build the inputs (set-up timing)")
    return ap.parse_args(argv)


def round_metrics(results):
    """End-to-end values of one round from its (op, seconds, output) list."""
    by = {}
    for op, dt, _ in results:
        by.setdefault(op.kind, []).append((op, dt))

    def rate(*kinds, work=lambda op: 1.0):
        done = [(work(op), dt) for k in kinds for op, dt in by.get(k, [])]
        return sum(w for w, _ in done) / sum(dt for _, dt in done)

    def median(kind):
        return statistics.median(dt for _, dt in by[kind])

    return {
        "table_s": median("table"),
        "sweep_constants_per_s": rate("alt"),
        "scalar_sweep_constants_per_s": rate("rt"),
        "checks_per_s": rate("narrow", "scaled"),
        "wide_checks_per_s": rate("wide"),
        "verify_s": median("verify"),
        "sweep_samples_per_s": rate("sweep", work=lambda op: op.spec["n"]),
        "orderings_s": median("orderings"),
    }


def run_round(ops, span=None, check=None):
    """Times each operation alone.  With `check`, each output is checked as
    soon as its timing ends and then dropped; otherwise it is kept."""
    results = []
    for op in ops:
        call = op.run if span is None else span(f"bench.{op.kind}", op.run)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a raising operation is a wrong output
            out = exc
        dt = time.perf_counter() - t0
        if check is not None:
            check(op, out)
            out = None
        results.append((op, dt, out))
    return results


class Tally:
    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.causes = {}
        self.wrong = []

    def add(self, op, out):
        self.attempted += 1
        bad = self.checker.check(op, out)
        if bad is not None:
            cause, msg = bad
            self.causes[cause] = self.causes.get(cause, 0) + 1
            if cause == "wrong":
                self.wrong.append(msg)

    @property
    def failed(self):
        return sum(n for c, n in self.causes.items() if c.startswith("fault:"))


def run_rounds(ops, tally, seconds=0.0, rounds=None, tracer=None):
    """Whole rounds until the next would end after `seconds` (at least one),
    or exactly `rounds` of them.  Untraced, each output is checked right after
    its operation; traced, after the round with the wrappers removed.
    Returns (op seconds, metrics) per round."""
    done, t0 = [], time.perf_counter()
    while True:
        if tracer is None:
            results = run_round(ops, check=tally.add)
        else:
            tracer.install()
            try:
                results = run_round(ops, span=tracer.span)
            finally:
                tracer.uninstall()
            for op, _, out in results:
                tally.add(op, out)
        done.append((sum(dt for _, dt, _ in results), round_metrics(results)))
        if rounds is not None:
            if len(done) >= rounds:
                return done
        elif (time.perf_counter() - t0) * (len(done) + 1) / len(done) > seconds:
            return done


def setup_times(args):
    """Wall times of SETUP_PROBES fresh interpreters that import vbesharp and
    build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-setup",
                        "--workload", args.workload, "--seed", str(args.seed)],
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vbesharp", "__init__.py")):
        print(f"error: no vbesharp source under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.probe_setup:
        workloads.build(args.workload, args.seed, OUT)
        return 0

    os.makedirs(OUT, exist_ok=True)
    setup = setup_times(args) if not args.trace else []
    import checks
    import spans

    inp = workloads.build(args.workload, args.seed, OUT)
    checker = checks.Checker(inp)
    bad_inputs = checker.check_inputs()
    tally = Tally(checker)

    if not args.trace:
        ops = workloads.make_ops(inp, workloads.Cli(SRC))
        per_round = [m for _, m in run_rounds(ops, tally, args.seconds)]
        setup += setup_times(args)
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name, _ in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setup)
        units = dict(END_TO_END)
    else:
        tracer = spans.Tracer()
        plain = run_rounds(workloads.make_ops(inp, workloads.Cli(SRC, in_process=True)),
                           tally, args.seconds / 2)
        traced = run_rounds(workloads.make_ops(inp, workloads.Cli(SRC, True, tracer.span),
                                               fn=tracer.momfun),
                            tally, rounds=len(plain), tracer=tracer)
        t_plain, t_traced = (sum(t for t, _ in r) for r in (plain, traced))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        totals = tracer.totals()
        metrics = {name: totals.get(name, 0.0) / len(traced) for name in units}
        metrics.update(spans.import_times(dict(os.environ, PYTHONPATH=SRC)))
        metrics["trace.overhead"] = 100.0 * (t_traced / t_plain - 1.0)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": len(traced), "overhead_pct": metrics["trace.overhead"]})

    correct = bad_inputs is None and not tally.wrong
    for msg in ([bad_inputs] if bad_inputs else []) + tally.wrong[:10]:
        print(f"WRONG  {msg}")
    for cause, n in sorted(tally.causes.items()):
        print(f"{cause}: {n} of {tally.attempted}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
