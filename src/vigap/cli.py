"""Command-line front end: experiment sweeps, the two-model comparison
table with machine-readable CSV/JSON output, and the invariant check suites
of `checks`.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import replace
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from . import bounds
from .core import (
    EvaluationError,
    Regularizer,
    ball,
    box,
    halfspace,
    hyperplane,
    l1_regularizer,
    shifted_orthant,
    tikhonov,
)
from .gap import _dual_gap_kernel
from .problems import BUILTIN_PROBLEMS, ProblemInstance, affine_problem, get_problem
from .solvers import (
    DualGapUnreliableError,
    InnerConfig,
    MaxIterationsError,
    OuterConfig,
    StepFailureError,
    reference_solution,
    sequential_inexact_descent,
    solve_pge,
)

if TYPE_CHECKING:   # the check suites are imported by the check command alone
    from .checks import CheckReport

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "table1",
    "check_invariants",
    "rows_to_csv",
    "rows_to_json",
    "load_problem_file",
    "main",
    "CSV_COLUMNS",
]

MODELS = ("direct", "dualgap")
REGULARIZERS = ("l1", "l2")
TABLE1_EPSILONS = (0.5, 0.1, 0.01, 0.005, 0.0001)


class ConfigError(ValueError):
    """Invalid experiment configuration or problem file."""


class ExperimentConfig(NamedTuple):
    """One sweep: a problem, a model, a regularizer and an epsilon list.

    `problem` is a registry name or a path to an INI problem file. `seed`
    draws the random builtin instances; nothing else in a sweep is random.
    """

    problem: str
    model: str
    regularizer: str
    epsilons: tuple
    seed: int = 0
    tau: float = 1e-6
    max_iter: Optional[int] = None
    x0: Optional[tuple] = None
    timing: bool = True
    experimental_nonsmooth: bool = False

    def validate(self):
        if self.model not in MODELS:
            raise ConfigError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.regularizer not in REGULARIZERS:
            raise ConfigError(
                f"regularizer must be one of {REGULARIZERS}, got {self.regularizer!r}")
        if not self.epsilons:
            raise ConfigError("epsilon list must not be empty")
        if not all(0 < e < math.inf for e in self.epsilons):
            raise ConfigError(f"epsilon values must be finite and positive, got {self.epsilons}")
        if self.model == "direct" and self.regularizer == "l1" \
                and not self.experimental_nonsmooth:
            raise ConfigError(
                "direct model with the l1 regularizer is experimental; "
                "pass --experimental-nonsmooth to enable it")
        if not 0 < self.tau < math.inf:
            raise ConfigError("tau must be finite and positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError(f"max_iter must be positive, got {self.max_iter}")


class ResultRow(NamedTuple):
    """One sweep cell of the model-comparison table, plus gap/verdict columns."""

    problem: str
    model: str
    regularizer: str
    epsilon: float
    iterations: int
    wall_time_s: float
    dist_to_reg_solution: Optional[float]
    dist_to_S0: Optional[float]
    final_gap: Optional[float]
    exactness: str

    def to_dict(self) -> dict:
        return self._asdict()


CSV_COLUMNS = list(ResultRow._fields)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _parse_vector(text: str, where: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.replace(",", " ").split()])
    except ValueError as err:
        raise ConfigError(f"{where}: cannot parse vector {text!r} ({err})") from None


def _parse_matrix(text: str, where: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    return np.array([_parse_vector(r, where) for r in rows])


# the keys each section of a problem file may carry; any other key or
# section is a ConfigError, so a misspelt key cannot change a run silently
SECTION_KEYS = {"operator": ("kind", "matrix", "offset"), "set": ("kind",),
                "constants": ("x0",)}
SET_KEYS = {"box": ("lower", "upper"), "orthant": ("lower",), "ball": ("center", "radius"),
            "halfspace": ("normal", "offset"), "hyperplane": ("normal", "offset")}


def _reject_unknown_keys(sec, known):
    for key in sec:
        if key not in known:
            raise ConfigError(f"{sec.name}.{key}: unknown key (known: {', '.join(known)})")


def _build_set(sec):
    """The [set] section's set."""
    kind = sec.get("kind", None)
    if kind is None:
        raise ConfigError("set.kind: missing")
    if kind not in SET_KEYS:
        raise ConfigError(f"set.kind: unknown set kind {kind!r}")
    _reject_unknown_keys(sec, ("kind",) + SET_KEYS[kind])
    try:
        if kind == "box":
            lo = _parse_vector(sec.get("lower", ""), "set.lower")
            hi = _parse_vector(sec.get("upper", ""), "set.upper")
            return box(lo, hi)
        if kind == "orthant":
            return shifted_orthant(_parse_vector(sec.get("lower", ""), "set.lower"))
        if kind == "ball":
            return ball(_parse_vector(sec.get("center", ""), "set.center"),
                        float(sec.get("radius", "nan")))
        normal = _parse_vector(sec.get("normal", ""), "set.normal")
        make = halfspace if kind == "halfspace" else hyperplane
        return make(normal, float(sec.get("offset", "nan")))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"set ({kind}): {err}") from None


def load_problem_file(path: str) -> ProblemInstance:
    """Build the affine VI of an INI problem file with `problems.affine_problem`.

    `[operator]` gives F(x) = Mx + q (kind affine, matrix, offset), `[set]`
    the set (a kind of SET_KEYS with its keys) and `[constants]`, optional,
    the start x0, else P_Omega(0). A ConfigError names what is wrong: a
    section or key outside SECTION_KEYS and SET_KEYS; a `lipschitz` key,
    since L is ||M||_2, computed from the matrix; an indefinite sym(M); a
    set whose dimension is not F's. Whether G is exact follows from the set
    by `affine_problem`'s rule.
    """
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read problem file {path!r}")
    for name in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if name not in SECTION_KEYS:
            raise ConfigError(f"[{name}]: unknown section (known: {', '.join(SECTION_KEYS)})")
    if parser.has_section("operator") and "lipschitz" in parser["operator"]:
        raise ConfigError("operator.lipschitz: not accepted; the Lipschitz constant "
                          "is ||M||_2, computed from the matrix")
    for name in ("operator", "constants"):
        if parser.has_section(name):
            _reject_unknown_keys(parser[name], SECTION_KEYS[name])
    if not parser.has_section("operator") or not parser.has_section("set"):
        raise ConfigError("problem file needs [operator] + [set]")
    op = parser["operator"]
    if op.get("kind", "affine") != "affine":
        raise ConfigError(f"operator.kind: only 'affine' supported, got {op.get('kind')!r}")
    M = _parse_matrix(op.get("matrix", ""), "operator.matrix")
    q = _parse_vector(op.get("offset", ""), "operator.offset")
    feasible = _build_set(parser["set"])
    try:
        inst = affine_problem(str(path), M, q, feasible)
    except ValueError as err:
        raise ConfigError(f"operator: {err}") from None
    if parser.has_section("constants") and parser["constants"].get("x0"):
        x0 = _parse_vector(parser["constants"]["x0"], "constants.x0")
        inst = replace(inst, default_x0=x0)
    return inst


def _resolve_problem(cfg: ExperimentConfig) -> ProblemInstance:
    if cfg.problem in BUILTIN_PROBLEMS:
        return get_problem(cfg.problem, seed=cfg.seed)
    if cfg.problem.endswith(".ini"):
        return load_problem_file(cfg.problem)
    known = ", ".join(sorted(BUILTIN_PROBLEMS))
    raise ConfigError(f"unknown problem {cfg.problem!r} (builtins: {known}; "
                      "or pass a path ending in .ini)")


def _regularizer(kind: str) -> Regularizer:
    return tikhonov() if kind == "l2" else l1_regularizer()


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig) -> list:
    """Run one sweep; one ResultRow per epsilon, deterministic for a fixed seed.

    Direct-model cells run the sequential inexact descent over the epsilon
    list sorted decreasingly (warm starts, as in the sequential algorithm);
    dual-gap cells run independent `solve_pge` solves. Per-cell solver
    failures produce a row with an error marker in the exactness column and
    never abort the sweep.
    """
    config.validate()
    problem = _resolve_problem(config)
    reg = _regularizer(config.regularizer)
    x0 = _start_point(config, problem)

    run = _run_direct if config.model == "direct" else _run_dualgap
    rows = run(config, problem, reg, x0)
    rows.sort(key=lambda r: (r.model, r.regularizer, r.epsilon))
    if not config.timing:
        rows = [r._replace(wall_time_s=0.0) for r in rows]
    return rows


def _start_point(config, problem) -> np.ndarray:
    """config.x0, else the problem's default start, else P_Omega(0)."""
    x0 = config.x0 if config.x0 is not None else problem.default_x0
    if x0 is None:
        return problem.set.project(np.zeros(problem.dimension))
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,) or not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 must be {problem.dimension} finite numbers, got {x0.tolist()}")
    return x0


def _row(cells, problem, e, iterations, wall_time_s, dist_ref, dist_S0, gap, x, bracket=None):
    """A solved cell's row. final_gap is gap (theta_ab or G, >= 0 in exact arithmetic,
    so a negative value is rounding and prints as 0.0); the verdict is `bounds._verdict`
    on the G bracket (value, upper) at x in Omega: the solve's own, else one evaluation
    of G at P_Omega(x)."""
    if bracket is None:
        x = problem.set.project(x)
        bracket = _dual_gap_kernel(problem)(x)[:2]
    return ResultRow(*cells, e, iterations, wall_time_s, dist_ref, dist_S0,
                     0.0 if gap <= 0.0 else gap, bounds._verdict(problem, x, *bracket))


def _run_direct(config, problem, reg, x0) -> list:
    eps_desc = tuple(sorted(set(float(e) for e in config.epsilons), reverse=True))
    inner = InnerConfig(max_iterations=config.max_iter) if config.max_iter else InnerConfig()
    outer = OuterConfig(epsilons=eps_desc, tau=config.tau, inner=inner)
    rows = []
    failure = None
    try:
        trace, _ = sequential_inexact_descent(problem, x0, outer, reg)
        records = trace.outer
    except (StepFailureError, MaxIterationsError) as err:
        failure = err
        records = err.partial_trace.outer
    cells = config.problem, config.model, config.regularizer
    for rec in records:
        dist_ref = None   # no certified reference: the cell stays empty
        if config.regularizer == "l2":
            try:
                ref = reference_solution(problem, rec.epsilon, reg)[0]
            except (ValueError, RuntimeError):
                pass
            else:
                dist_ref = float(np.linalg.norm(rec.x - ref))
        rows.append(_row(cells, problem, rec.epsilon, rec.iterations, rec.wall_time_s,
                         dist_ref, rec.dist_S0, rec.theta_final, rec.x))
    done = {r.epsilon for r in rows}
    error = f"error:{type(failure).__name__}" if failure else "error"
    rows += [ResultRow(*cells, e, 0, 0.0, None, None, None, error)
             for e in eps_desc if e not in done]
    return rows


def _run_dualgap(config, problem, reg, x0) -> list:
    rows = []
    cells = config.problem, config.model, config.regularizer
    oracle = problem.solution_oracle
    for e in sorted(set(float(v) for v in config.epsilons), reverse=True):
        tick = time.perf_counter()
        try:
            x, trace = solve_pge(problem, reg, e, x0, config.max_iter)
        except (DualGapUnreliableError, EvaluationError) as err:  # per-cell isolation
            rows.append(ResultRow(*cells, e, 0, time.perf_counter() - tick, None, None, None,
                                  f"error:{type(err).__name__}"))
            continue
        wall_time_s = time.perf_counter() - tick
        dist_S0 = None if oracle is None else float(oracle.distance_to_S0(x))
        rows.append(_row(cells, problem, e, trace.iterations, wall_time_s, None, dist_S0,
                         trace.gap, x, (trace.gap, trace.gap_upper)))
    return rows


def table1(out_path: Optional[str] = None, fmt: str = "csv",
           timing: bool = True) -> list:
    """All 20 cells (2 models x 2 regularizers x 5 epsilons) of the
    best-approximation benchmark from the initial point (1, -2, 1).

    Per-cell failures are marked inline; returns the rows and, when
    out_path is given, writes them in the requested format.
    """
    rows: list = []
    for model in MODELS:
        for reg in REGULARIZERS:
            cfg = ExperimentConfig(problem="example5_1", model=model, regularizer=reg,
                                   epsilons=TABLE1_EPSILONS,
                                   x0=(1.0, -2.0, 1.0), timing=timing,
                                   experimental_nonsmooth=True)
            rows.extend(run_experiment(cfg))
    if out_path is not None:
        _write_rows(rows, out_path, fmt)
    return rows


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        d = r.to_dict()
        lines.append(",".join(_cell(d[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps([r.to_dict() for r in rows], indent=2) + "\n"


def _write_rows(rows, path: Optional[str], fmt: str):
    """Write rows as CSV or JSON to path, or to stdout when path is None."""
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# invariant check suites
# ---------------------------------------------------------------------------

def check_invariants(suite: str, seed: int = 0) -> CheckReport:
    """Run a named property suite; see `checks.CHECK_SUITES` for the catalogue."""
    from .checks import CHECK_SUITES
    try:
        fn = CHECK_SUITES[suite]
    except KeyError:
        known = ", ".join(sorted(CHECK_SUITES))
        raise ConfigError(f"unknown suite {suite!r}; available: {known}") from None
    return fn(seed)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vigap",
        description="Regularized solvers and diagnostics for monotone "
                    "variational inequalities")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment sweep")
    run.add_argument("--problem", required=True,
                     help="builtin problem name or path to an .ini problem file")
    run.add_argument("--model", required=True, choices=MODELS)
    run.add_argument("--reg", required=True, choices=REGULARIZERS)
    run.add_argument("--eps", required=True,
                     help="comma-separated regularization parameters")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--tau", type=float, default=1e-6,
                     help="inner error tolerance for the direct model")
    run.add_argument("--max-iter", type=int, default=None)
    run.add_argument("--x0", default=None, help="comma-separated start point")
    run.add_argument("--out", default=None, help="output file (default: stdout)")
    run.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    run.add_argument("--no-timing", action="store_true",
                     help="write wall_time_s as 0.0 for byte-identical reruns")
    run.add_argument("--experimental-nonsmooth", action="store_true",
                     help="allow the direct model with the l1 regularizer")

    t1 = sub.add_parser("table1", help="run the full 20-cell comparison table")
    t1.add_argument("--out", default="table1.csv")
    t1.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    t1.add_argument("--no-timing", action="store_true")

    chk = sub.add_parser("check", help="run an invariant check suite")
    chk.add_argument("suite", help="a check suite's name; an unknown name lists them all")
    chk.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            eps = tuple(_parse_vector(args.eps, "--eps").tolist())
            x0 = tuple(_parse_vector(args.x0, "--x0").tolist()) if args.x0 else None
            cfg = ExperimentConfig(
                problem=args.problem, model=args.model, regularizer=args.reg,
                epsilons=eps, seed=args.seed, tau=args.tau,
                max_iter=args.max_iter, x0=x0, timing=not args.no_timing,
                experimental_nonsmooth=args.experimental_nonsmooth)
            _write_rows(run_experiment(cfg), args.out, args.fmt)
            return 0
        if args.command == "table1":
            table1(args.out, fmt=args.fmt, timing=not args.no_timing)
            print(f"wrote {args.out}")
            return 0
        report = check_invariants(args.suite, seed=args.seed)   # the check command
        print(report.render())
        return 0 if report.passed else 1
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
