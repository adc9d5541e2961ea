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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import bounds
from .core import (
    Regularizer,
    affine_map,
    ball,
    box,
    halfspace,
    hyperplane,
    l1_regularizer,
    shifted_orthant,
    tikhonov,
)
from .checks import CHECK_SUITES, CheckReport
from .gap import DualGapConfig, dual_gap
from .problems import BUILTIN_PROBLEMS, ProblemInstance, get_problem
from .solvers import (
    InnerConfig,
    MaxIterationsError,
    OuterConfig,
    StepFailureError,
    SubgradientConfig,
    reference_solution,
    sequential_inexact_descent,
    solve_pge,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRow",
    "CheckReport",
    "run_experiment",
    "table1",
    "check_invariants",
    "rows_to_csv",
    "rows_to_json",
    "load_problem_file",
    "main",
    "CSV_COLUMNS",
    "CHECK_SUITES",
]

MODELS = ("direct", "dualgap")
REGULARIZERS = ("l1", "l2")
TABLE1_EPSILONS = (0.5, 0.1, 0.01, 0.005, 0.0001)

CSV_COLUMNS = ["problem", "model", "regularizer", "epsilon", "iterations",
               "wall_time_s", "dist_to_reg_solution", "dist_to_S0", "final_gap",
               "exactness"]


class ConfigError(ValueError):
    """Invalid experiment configuration or problem file."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a problem, a model, a regularizer and an epsilon list.

    `problem` is a registry name or a path to an INI problem file. `seed`
    draws the random builtin instances and feeds the dual-gap multistarts and
    the exactness probes; the direct D-gap descent draws no random numbers.
    """

    problem: str
    model: str
    regularizer: str
    epsilons: tuple
    seed: int = 0
    tol: float = 1e-6
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
        if not (0 < self.tol < math.inf and 0 < self.tau < math.inf):
            raise ConfigError("tol and tau must be finite and positive")
        if self.max_iter is not None and self.max_iter < 1:
            raise ConfigError(f"max_iter must be positive, got {self.max_iter}")


@dataclass
class ResultRow:
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
        return {c: getattr(self, c) for c in CSV_COLUMNS}


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


def _build_set(sec, dim_hint, where="set"):
    kind = sec.get("kind", None)
    if kind is None:
        raise ConfigError(f"{where}.kind: missing")
    try:
        if kind == "box":
            lo = _parse_vector(sec.get("lower", ""), f"{where}.lower")
            hi = _parse_vector(sec.get("upper", ""), f"{where}.upper")
            return box(lo, hi)
        if kind == "orthant":
            return shifted_orthant(_parse_vector(sec.get("lower", ""), f"{where}.lower"))
        if kind == "ball":
            return ball(_parse_vector(sec.get("center", ""), f"{where}.center"),
                        float(sec.get("radius", "nan")))
        if kind == "halfspace":
            return halfspace(_parse_vector(sec.get("normal", ""), f"{where}.normal"),
                             float(sec.get("offset", "nan")))
        if kind == "hyperplane":
            return hyperplane(_parse_vector(sec.get("normal", ""), f"{where}.normal"),
                              float(sec.get("offset", "nan")))
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{where} ({kind}): {err}") from None
    raise ConfigError(f"{where}.kind: unknown set kind {kind!r}")


def load_problem_file(path: str) -> ProblemInstance:
    """Build a ProblemInstance from an INI problem file.

    Either `[problem] name = <builtin>` or an explicit `[operator]`
    (affine: matrix/offset) plus `[set]` section; `[constants]` may carry
    x0, a declared Lipschitz constant and a bounding box for grid oracles.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read problem file {path!r}")
    if parser.has_section("problem") and parser["problem"].get("name"):
        name = parser["problem"]["name"]
        if name not in BUILTIN_PROBLEMS:
            raise ConfigError(f"problem.name: unknown builtin {name!r}")
        inst = BUILTIN_PROBLEMS[name]()
    else:
        if not parser.has_section("operator") or not parser.has_section("set"):
            raise ConfigError("problem file needs [problem] name or [operator] + [set]")
        op = parser["operator"]
        if op.get("kind", "affine") != "affine":
            raise ConfigError(f"operator.kind: only 'affine' or builtins supported, "
                              f"got {op.get('kind')!r}")
        M = _parse_matrix(op.get("matrix", ""), "operator.matrix")
        q = _parse_vector(op.get("offset", ""), "operator.offset")
        try:
            fmap = affine_map(M, q)
        except ValueError as err:
            raise ConfigError(f"operator: {err}") from None
        if op.get("lipschitz"):
            fmap = replace(fmap, lipschitz_L=float(op["lipschitz"]))
        feasible = _build_set(parser["set"], fmap.dimension)
        if feasible.dimension != fmap.dimension:
            raise ConfigError(
                f"set: dimension {feasible.dimension} does not match operator "
                f"dimension {fmap.dimension}")
        inst = ProblemInstance(
            name=str(path), dimension=fmap.dimension, map=fmap, set=feasible,
            constants={"L": fmap.lipschitz_L, "mu": fmap.mu},
            default_x0=feasible.project(np.zeros(fmap.dimension)))
    if parser.has_section("constants"):
        sec = parser["constants"]
        if sec.get("x0"):
            inst = replace(inst, default_x0=_parse_vector(sec["x0"], "constants.x0"))
        if sec.get("bounding_lower") and sec.get("bounding_upper"):
            inst = replace(inst, bounding_box=(
                _parse_vector(sec["bounding_lower"], "constants.bounding_lower"),
                _parse_vector(sec["bounding_upper"], "constants.bounding_upper")))
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

def _feasible_point(problem, x) -> np.ndarray:
    return problem.set.project(np.asarray(x, dtype=float))


def _exactness_at(problem, x, tol, seed) -> str:
    xin = _feasible_point(problem, x)
    return bounds.exactness_check(problem, xin, tol=tol,
                                  gap_config=DualGapConfig(seed=seed))


def _dist_S0(problem, x) -> Optional[float]:
    if problem.solution_oracle is None:
        return None
    return float(problem.solution_oracle.distance_to_S0(np.asarray(x, dtype=float)))


def run_experiment(config: ExperimentConfig) -> list:
    """Run one sweep; one ResultRow per epsilon, deterministic for a fixed seed.

    Direct-model cells run the sequential inexact descent over the epsilon
    list sorted decreasingly (warm starts, as in the sequential algorithm);
    dual-gap cells run independent subgradient solves. Per-cell solver
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
        for r in rows:
            r.wall_time_s = 0.0
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


def _row_shell(config, problem, eps) -> ResultRow:
    return ResultRow(problem=problem.name if config.problem.endswith(".ini")
                     else config.problem,
                     model=config.model, regularizer=config.regularizer, epsilon=eps,
                     iterations=0, wall_time_s=0.0, dist_to_reg_solution=None,
                     dist_to_S0=None, final_gap=None, exactness="")


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
        records = err.partial_trace.outer if hasattr(err, "partial_trace") else []
    ref_cache: dict = {}
    for rec in records:
        row = _row_shell(config, problem, rec.epsilon)
        row.iterations = rec.inner_iterations
        row.wall_time_s = rec.wall_time_s
        row.final_gap = rec.theta
        row.dist_to_S0 = rec.dist_S0
        if config.regularizer == "l2":
            row.dist_to_reg_solution = _dist_to_reference(
                problem, reg, rec.epsilon, rec.x, ref_cache)
        row.exactness = _exactness_at(problem, rec.x, config.tol, config.seed)
        rows.append(row)
    done = {r.epsilon for r in rows}
    for e in eps_desc:
        if e not in done:
            row = _row_shell(config, problem, e)
            row.exactness = f"error:{type(failure).__name__}" if failure else "error"
            rows.append(row)
    return rows


def _dist_to_reference(problem, reg, eps, x, cache) -> Optional[float]:
    key = (problem.name, eps)
    if key not in cache:
        try:
            cache[key] = reference_solution(problem, eps, reg)[0]
        except (ValueError, RuntimeError):
            cache[key] = None
    ref = cache[key]
    if ref is None:
        return None
    return float(np.linalg.norm(np.asarray(x, dtype=float) - ref))


def _run_dualgap(config, problem, reg, x0) -> list:
    rows = []
    for e in sorted(set(float(v) for v in config.epsilons), reverse=True):
        row = _row_shell(config, problem, e)
        sg = SubgradientConfig(seed=config.seed,
                               **({"max_iterations": config.max_iter}
                                  if config.max_iter else {}))
        tick = time.perf_counter()
        try:
            x, trace = solve_pge(problem, reg, e, x0, sg)
        except Exception as err:  # per-cell isolation
            row.wall_time_s = time.perf_counter() - tick
            row.exactness = f"error:{type(err).__name__}"
            rows.append(row)
            continue
        row.wall_time_s = time.perf_counter() - tick
        row.iterations = trace.iterations
        row.dist_to_S0 = _dist_S0(problem, x)
        row.final_gap = dual_gap(problem, x, DualGapConfig(seed=config.seed)).value
        row.exactness = _exactness_at(problem, x, config.tol, config.seed)
        rows.append(row)
    return rows


def table1(out_path: Optional[str] = None, fmt: str = "csv", seed: int = 0,
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
                                   epsilons=TABLE1_EPSILONS, seed=seed,
                                   x0=(1.0, -2.0, 1.0), timing=timing,
                                   experimental_nonsmooth=True)
            rows.extend(run_experiment(cfg))
    rows.sort(key=lambda r: (r.model, r.regularizer, r.epsilon))
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
    """Run a named property suite; see CHECK_SUITES for the catalogue."""
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
    run.add_argument("--tol", type=float, default=1e-6,
                     help="exactness tolerance on the dual gap")
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
    t1.add_argument("--seed", type=int, default=0)
    t1.add_argument("--no-timing", action="store_true")

    chk = sub.add_parser("check", help="run an invariant check suite")
    chk.add_argument("suite", help=f"one of: {', '.join(sorted(CHECK_SUITES))}")
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
                epsilons=eps, seed=args.seed, tol=args.tol, tau=args.tau,
                max_iter=args.max_iter, x0=x0, timing=not args.no_timing,
                experimental_nonsmooth=args.experimental_nonsmooth)
            _write_rows(run_experiment(cfg), args.out, args.fmt)
            return 0
        if args.command == "table1":
            table1(args.out, fmt=args.fmt, seed=args.seed, timing=not args.no_timing)
            print(f"wrote {args.out}")
            return 0
        if args.command == "check":
            report = check_invariants(args.suite, seed=args.seed)
            print(report.render())
            return 0 if report.passed else 1
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
