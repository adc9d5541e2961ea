"""Per-layer tracing of vigap from outside: wrappers around the functions the
layers call one another through, installed in the benchmark's own process.

Calls at a layer boundary that happen at most a few thousand times per round
(solver entry points, dual-gap evaluations, reference solves, exactness
checks, problem builds) are recorded as spans: name, start, end and parent.
The core callables (F, F on rows, the inner gradient, the projections) run
up to millions of times per round, so each is recorded as a count and a
total time instead, and that time is charged to the enclosing span so self
times stay exact. Spans live in memory until `Tracer.take` hands them over.
"""
from __future__ import annotations

import dataclasses
import statistics
import timeit
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self._reset()

    def _reset(self):
        self.spans = []     # [name, start, end, parent index, time covered by children]
        self.leaf = {}      # name -> [calls, seconds, rows]
        self.counts = dict.fromkeys(
            ("ascent_iters", "converged", "dgap_iters", "backtracks", "inner_records",
             "pge_iters"), 0)
        self._stack = []

    def take(self):
        """Return (spans, leaf totals, counters) recorded so far and start afresh."""
        out = self.spans, self.leaf, self.counts
        self._reset()
        return out

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, perf_counter(), 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += rec[2] - rec[1]
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def leaf_call(self, name, fn, rows_arg=None):
        def wrapper(*args, **kwargs):
            t = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t
            rec = self.leaf.setdefault(name, [0, 0.0, 0])
            rec[0] += 1
            rec[1] += dt
            if rows_arg is not None:
                rec[2] += len(args[rows_arg])
            if self._stack:
                self.spans[self._stack[-1]][4] += dt
            return out
        return wrapper

    # -- results of wrapped calls ------------------------------------------

    def _gap(self, ev):
        self.counts["ascent_iters"] += ev.inner_iterations
        self.counts["converged"] += bool(ev.converged)

    def _inner(self, result):
        trace = result[1]
        self.counts["dgap_iters"] += trace.iterations
        self.counts["inner_records"] += len(trace.records)
        self.counts["backtracks"] += sum(r.m for r in trace.records)

    def _pge(self, result):
        self.counts["pge_iters"] += result[1].iterations


def instrument(vigap, tracer: Tracer):
    """Wrap the layer boundaries of the imported vigap package for `tracer`.

    `vigap` maps module names ("core", "gap", ...) to the imported modules.
    """
    core, gap, solvers, bounds, cli = (vigap[m] for m in ("core", "gap", "solvers", "bounds", "cli"))
    MonotoneMap = core.MonotoneMap
    MonotoneMap.__call__ = tracer.leaf_call("core.F", MonotoneMap.__call__)
    MonotoneMap.rows = tracer.leaf_call("core.F_rows", MonotoneMap.rows)

    def wrap_problem(problem):
        """The same problem with its inner gradient and projections counted."""
        fmap, omega = problem.map, problem.set
        if fmap.inner_gradient is not None:
            fmap = dataclasses.replace(fmap, inner_gradient=tracer.leaf_call(
                "core.inner_gradient", fmap.inner_gradient))
        sets = {"project": tracer.leaf_call("core.project", omega.project)}
        if omega.project_rows is not None:
            sets["project_rows"] = tracer.leaf_call("core.project_rows", omega.project_rows,
                                                    rows_arg=0)
        return dataclasses.replace(problem, map=fmap, set=dataclasses.replace(omega, **sets))

    def traced_build(name, fn):
        traced = tracer.span(name, fn)
        return lambda *a, **k: wrap_problem(traced(*a, **k))

    cli.get_problem = traced_build("problems.build", cli.get_problem)
    cli.load_problem_file = traced_build("cli.load_problem_file", cli.load_problem_file)

    traced_gap = tracer.span("gap.dual_gap", gap.dual_gap, tracer._gap)
    for module in (solvers, bounds, cli):
        module.dual_gap = traced_gap
    solvers.solve_inner = tracer.span("solvers.solve_inner", solvers.solve_inner, tracer._inner)
    solvers.estimate_L_theta = tracer.span("solvers.estimate_L_theta", solvers.estimate_L_theta)
    cli.sequential_inexact_descent = tracer.span("solvers.sequential_inexact_descent",
                                                 cli.sequential_inexact_descent)
    cli.solve_pge = tracer.span("solvers.solve_pge", cli.solve_pge, tracer._pge)
    traced_ref = tracer.span("solvers.reference_solution", cli.reference_solution)
    cli.reference_solution = solvers.reference_solution = traced_ref
    bounds.exactness_check = tracer.span("bounds.exactness_check", bounds.exactness_check)


def layer_metrics(spans, leaf, counts) -> dict:
    """Per-layer metrics of one round, as {name: (value, unit)}."""
    def spans_of(name):
        return [s for s in spans if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for s in spans_of(name))

    def leaf_of(name):
        return leaf.get(name, [0, 0.0, 0])

    def per_call_us(name):
        calls, secs, _ = leaf_of(name)
        return 1e6 * secs / calls if calls else 0.0

    m = {}
    for name in ("F", "project", "F_rows", "inner_gradient", "project_rows"):
        m[f"core.{name}.calls"] = (leaf_of(f"core.{name}")[0], "count")
        m[f"core.{name}.us"] = (per_call_us(f"core.{name}"), "us")
    m["core.project_rows.rows"] = (leaf_of("core.project_rows")[2], "count")

    gaps = spans_of("gap.dual_gap")
    n_gap = len(gaps)
    m["gap.dual_gap.calls"] = (n_gap, "count")
    m["gap.dual_gap.ms"] = (1e3 * total("gap.dual_gap") / n_gap if n_gap else 0.0, "ms")
    m["gap.dual_gap.self_ms"] = (
        1e3 * sum(s[2] - s[1] - s[4] for s in gaps) / n_gap if n_gap else 0.0, "ms")
    m["gap.dual_gap.ascent_iters"] = (counts["ascent_iters"], "count")
    m["gap.dual_gap.converged_ratio"] = (counts["converged"] / n_gap if n_gap else 0.0, "ratio")

    accepted, backtracks = counts["inner_records"], counts["backtracks"]
    m["solvers.dgap.iters"] = (counts["dgap_iters"], "count")
    m["solvers.armijo.backtracks"] = (backtracks, "count")
    m["solvers.armijo.accept_ratio"] = (
        accepted / (accepted + backtracks) if accepted else 0.0, "ratio")
    m["solvers.inner_records"] = (accepted, "count")
    pge_iters = counts["pge_iters"]
    m["solvers.pge.iters"] = (pge_iters, "count")
    m["solvers.pge.us_per_iter"] = (
        1e6 * total("solvers.solve_pge") / pge_iters if pge_iters else 0.0, "us")
    m["solvers.estimate_L_theta.s"] = (total("solvers.estimate_L_theta"), "s")
    m["solvers.reference_solution.calls"] = (len(spans_of("solvers.reference_solution")), "count")
    m["solvers.reference_solution.s"] = (total("solvers.reference_solution"), "s")
    m["bounds.exactness_check.calls"] = (len(spans_of("bounds.exactness_check")), "count")
    m["bounds.exactness_check.s"] = (total("bounds.exactness_check"), "s")
    m["problems.build_s"] = (total("problems.build"), "s")
    m["cli.load_problem_file.s"] = (total("cli.load_problem_file"), "s")
    runs = spans_of("cli.run_experiment")
    m["cli.run_experiment.s"] = (total("cli.run_experiment"), "s")
    m["cli.run_experiment.self_s"] = (sum(s[2] - s[1] - s[4] for s in runs), "s")
    return m


def micro_metrics(vigap, problem, x0) -> dict:
    """Single calls on fixed inputs, each the min over repeats, untraced."""
    core, gap, solvers = vigap["core"], vigap["gap"], vigap["solvers"]
    x = np.asarray(x0, dtype=float)
    n = problem.dimension
    Z = np.random.default_rng(12345).standard_normal((8, n)) * 2.0
    reg = core.tikhonov()
    cfg = solvers.InnerConfig(c=0.05, delta=0.01, L_theta_estimate=1.0)
    d, _ = solvers.li_ng_direction(problem, x, cfg, 0.01, reg)

    def best(fn, number):
        return min(timeit.repeat(fn, number=number, repeat=5)) / number

    return {
        "micro.F.us": (1e6 * best(lambda: problem.map(x), 2000), "us"),
        "micro.project.us": (1e6 * best(lambda: problem.set.project(x + 0.3), 2000), "us"),
        "micro.project_rows.us": (1e6 * best(lambda: core.project_rows(problem.set, Z), 2000), "us"),
        "micro.theta_ab.us": (1e6 * best(
            lambda: gap.theta_ab(problem, x, 1.0, 2.0, 0.01, reg), 1000), "us"),
        "micro.dual_gap.ms": (1e3 * best(lambda: gap.dual_gap(problem, x), 3), "ms"),
        "micro.armijo_step.us": (1e6 * best(
            lambda: solvers.armijo_step(problem, x, d, cfg, 0.01, reg), 500), "us"),
    }


def median_metrics(per_round: list) -> dict:
    """Counts from the first round (rounds repeat them); times as medians over rounds."""
    out = {}
    for name, (value, unit) in per_round[0].items():
        if unit != "count":
            value = statistics.median(r[name][0] for r in per_round)
        out[name] = (value, unit)
    return out


def spans_json(spans, t0):
    return [{"id": i, "name": s[0], "start": s[1] - t0, "end": s[2] - t0, "parent": s[3]}
            for i, s in enumerate(spans)]
