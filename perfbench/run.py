"""Run one vigap benchmark workload, or all of them, and print its metrics.

    python3 perfbench/run.py --workload dualgap-ba --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

A single workload runs in this process: set-up (import vigap, build the
problems), then whole rounds of the workload's `cli.run_experiment` calls for
at most --seconds (at least one round), untraced with another set-up sample
before each call, then the checks of every result row against
`reference.py`. solve_s is the sum over the round's calls of each call's
median time over the rounds, so a slow spell of the machine that falls on
different calls in different rounds does not move it. Untraced, solve_s and
setup_s are given at a fixed reference speed of the machine, which a
`Speedometer` samples all through the run. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the spans under perfbench/out/. `--workload all` runs every workload untraced and traced,
each in a fresh process, and prints the tracing overhead of each.
vigap is imported from the src/ directory next to this one.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
VIGAP_MODULES = ("core", "gap", "solvers", "bounds", "problems", "cli")

# Speedometer settings: a slice every INTERVAL_S seconds (about 1% of the
# run), the fewest slices a time is scaled by, the slice's two halves, and
# the slice time that defines the reference speed
INTERVAL_S = 0.2
MIN_SLICES = 5
SLICE_NUMPY_ITERS = 100
SLICE_PYTHON_ITERS = 15000
SLICE_REF_S = 2.5e-3


def parse_args(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


class Speedometer:
    """Samples the machine's speed while the workload runs.

    The VM this benchmark was tuned on changes speed by up to 2x for seconds
    to minutes at a time, for any code, so that wall times of one workload
    spread 15-35% from run to run. While started, a SIGALRM handler times a
    slice of fixed work every INTERVAL_S seconds, at the same moments as the
    workload runs: half numpy calls on an 8x3 array and half pure-Python
    integer arithmetic, the two kinds of work vigap's hot paths are made of.
    Of the kernels tried, this mix followed the machine's speed best on both
    workloads: a call's scaled time varied 2-3 times less than its wall
    time. The slice uses no vigap code, so no change to vigap moves it.
    `timed` leaves the slices out of the times it measures, and gives each
    also in seconds at the reference speed, where a slice takes SLICE_REF_S,
    by the slices taken while it ran.
    """

    _A = np.linspace(-1.0, 1.0, 24).reshape(8, 3)

    def __init__(self):
        self.slices, self.spent, self.running = [], 0.0, False

    def _slice(self, signum=None, frame=None):
        a, total, n = self._A, 0.0, 0
        t = perf_counter()
        for _ in range(SLICE_NUMPY_ITERS):
            total += float(np.clip(a - 0.1 * (a @ a.T) @ a, -1.0, 1.0).sum())
        for i in range(SLICE_PYTHON_ITERS):
            n += i * i % 7
        secs = perf_counter() - t
        self.slices.append(secs)
        self.spent += secs

    def start(self):
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def timed(self, fn, *args):
        """fn(*args), its wall time less the slices taken during it, and that
        time at the reference speed (None while stopped)."""
        first, spent, t = len(self.slices), self.spent, perf_counter()
        out = fn(*args)
        secs = perf_counter() - t - (self.spent - spent)
        return out, secs, secs * self._scale(first) if self.running else None

    def _scale(self, first: int) -> float:
        """Wall seconds to reference seconds for a time that has just ended and
        began at slice `first`: by the slices since, or the last MIN_SLICES.

        Work done in a wall time W is W times the mean speed over W, and a
        slice taking s seconds samples the speed as SLICE_REF_S / s of the
        reference: so the factor is the mean of SLICE_REF_S / s. (The median
        of the slices would miss slow spells shorter than half the time.)
        """
        window = self.slices[max(0, min(first, len(self.slices) - MIN_SLICES)):]
        return statistics.fmean(SLICE_REF_S / s for s in window)


def set_up(workload):
    """Import vigap afresh and build the workload's problems; returns (modules, problems)."""
    for name in [m for m in sys.modules if m == "vigap" or m.startswith("vigap.")]:
        del sys.modules[name]
    vigap = {m: importlib.import_module(f"vigap.{m}") for m in VIGAP_MODULES}
    cli = vigap["cli"]
    problems = [cli.load_problem_file(p) if p.endswith(".ini") else cli.get_problem(p)
                for p in workload.problems]
    return vigap, problems


def capture_points(cli, sink):
    """Keep the point and inner-solve status behind each result row.

    sink["points"] maps (call index, eps) to (x, status); status is the
    `OuterRecord.status` of a direct level and None for a dual-gap cell.
    """
    pge, descent = cli.solve_pge, cli.sequential_inexact_descent

    def solve_pge(problem, reg, eps, x0, cfg=None):
        x, trace = pge(problem, reg, eps, x0, cfg)
        sink["points"][(sink["call"], float(eps))] = (x, None)
        return x, trace

    def keep(trace):
        for rec in trace.outer if trace is not None else []:
            sink["points"][(sink["call"], float(rec.epsilon))] = (rec.x, rec.status)

    def sequential_inexact_descent(problem, x0, cfg=None, reg=None):
        try:
            trace, x = descent(problem, x0, cfg, reg)
        except (cli.StepFailureError, cli.MaxIterationsError) as err:
            keep(getattr(err, "partial_trace", None))   # the CLI reports the levels done
            raise
        keep(trace)
        return trace, x

    cli.solve_pge = solve_pge
    cli.sequential_inexact_descent = sequential_inexact_descent


def run_workload(args) -> dict:
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, OUT / "inputs")
    sys.path.insert(0, str(SRC))
    speed = Speedometer()
    if not args.trace:
        speed.start()
    try:
        return _run_rounds(args, workload, speed)
    finally:
        speed.stop()


def _run_rounds(args, workload, speed) -> dict:
    import tracing
    import workloads

    (vigap, problems), *timing = speed.timed(set_up, workload)
    setups = [timing]   # (wall seconds, reference seconds) of each set-up sample
    if not Path(vigap["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"vigap was imported from {vigap['cli'].__file__}, not from {SRC}")
    cli = vigap["cli"]

    metrics = {}
    tracer = None
    if args.trace:
        x0 = workloads.X0_BA if args.workload.endswith("-ba") else np.zeros(problems[0].dimension)
        metrics.update(tracing.micro_metrics(vigap, problems[0], x0))
    sink = {"points": {}, "call": None}
    capture_points(cli, sink)
    run_experiment = cli.run_experiment
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(vigap, tracer)
        run_experiment = tracer.span("cli.run_experiment", cli.run_experiment)
    configs = [cli.ExperimentConfig(problem=p, model=m, regularizer=r, epsilons=e, **extra)
               for p, m, r, e, extra in workload.calls]

    rounds, round_secs, layer_rounds, trace_rounds = [], [], [], []
    call_secs = [[] for _ in configs]   # (wall seconds, reference seconds) of each call
    t_start = perf_counter()
    # whole rounds only: start another while the longest round so far still fits
    while not rounds or (perf_counter() - t_start) + max(round_secs) <= args.seconds:
        t_round = perf_counter()
        sink["points"] = {}
        cells = []
        for i, cfg in enumerate(configs):
            if not args.trace:
                # another set-up sample before every call, so that the samples
                # are spread over the run, as the solve times are
                setups.append(speed.timed(set_up, workload)[1:])
            sink["call"] = i
            rows, *timing = speed.timed(run_experiment, cfg)
            call_secs[i].append(timing)
            points = sink["points"]
            cells += [(workload.calls[i], row, *points.get((i, row.epsilon), (None, None)))
                      for row in rows]
        rounds.append(cells)
        if tracer is not None:
            spans, leaf, counts = tracer.take()
            layer_rounds.append(tracing.layer_metrics(spans, leaf, counts))
            trace_rounds.append({"spans": tracing.spans_json(spans, t_start), "calls": leaf,
                                 "counts": counts})
        round_secs.append(perf_counter() - t_round)
    speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, after the measurement: the references import scipy. Every round
    # is checked, and attempted and failed are those of one round: the number
    # of rounds depends on speed, so run totals would too
    checked = [workloads.check_round(workload, cells) for cells in rounds]
    results = [res for round_results in checked for res in round_results]
    first = [_row_key(cell[1]) for cell in rounds[0]]
    repeatable = all([_row_key(cell[1]) for cell in cells] == first for cells in rounds)
    repeatable &= all([r.status for r in c] == [r.status for r in checked[0]] for c in checked)
    wrong = [r.reason for r in results if r.status == "wrong"]
    failed = [r.reason for r in checked[0] if r.status == "failed"]
    for reason in sorted(set(wrong)):
        print(f"WRONG: {reason}")
    for reason in sorted(failed):
        print(f"FAILED: {reason}")
    if args.trace:
        counts = [{k: v for k, (v, unit) in r.items() if unit == "count"} for r in layer_rounds]
        repeatable &= all(c == counts[0] for c in counts)
    if not repeatable:
        print("WRONG: rounds gave different result rows, check outcomes or layer counts")
    digits = [r.digits for r in results if r.digits is not None]

    if args.trace:
        metrics.update(tracing.median_metrics(layer_rounds))
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "rounds": trace_rounds}))
    else:
        metrics["setup_s"] = (statistics.median(ref for _, ref in setups), "s")
        metrics["solve_s"] = (sum(statistics.median(ref for _, ref in times)
                                  for times in call_secs), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["err_digits"] = (min(digits) if digits else 0.0, "digits")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s) of "
          f"{', '.join(f'{sum(s for s, _ in times):.2f}' for times in zip(*call_secs))} s, "
          f"{len(checked[0])} cells a round, {len(failed)} failed, {len(wrong)} wrong in all")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    if not args.trace:
        wall_solve = sum(statistics.median(s for s, _ in times) for times in call_secs)
        wall_setup = statistics.median(s for s, _ in setups)
        print(f"wall: solve_s {wall_solve:.6g} s, setup_s {wall_setup:.6g} s, "
              f"slice {1e3 * statistics.median(speed.slices):.6g} ms (median of "
              f"{len(speed.slices)}, reference {1e3 * SLICE_REF_S:g} ms)")
    return {"correct": not wrong and repeatable and bool(digits),
            "attempted": len(checked[0]), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _row_key(row):
    d = row.to_dict()
    d.pop("wall_time_s")
    return d


def run_all(args) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        results, outputs = {}, {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} --trace {trace} exited with {proc.returncode}")
            outputs[trace] = proc.stdout.splitlines()
            results[trace] = json.loads(outputs[trace][-1])
            summary["correct"] &= results[trace]["correct"]
            summary["attempted"] += results[trace]["attempted"]
            summary["failed"] += results[trace]["failed"]
            for metric, v in results[trace]["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = v
        # wall times on both sides: the traced run takes no speed samples
        untraced = next(float(line.split()[2]) for line in outputs[0]
                        if line.startswith("wall: solve_s "))
        traced = results[1]["metrics"]["cli.run_experiment.s"]["value"]
        print(f"{name}: solve_s {untraced:.3f} s untraced, {traced:.3f} s traced (wall), "
              f"tracing overhead {100.0 * (traced / untraced - 1.0):+.1f}%\n")
    return summary


def main(argv=None) -> int:
    if not (SRC / "vigap" / "__init__.py").is_file():
        print(f"error: no vigap sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
