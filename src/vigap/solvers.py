"""Descent solvers for the regularized variational inequality models.

Three layers:

* a derivative-free D-gap descent (direction switching between
  y_alpha - y_beta and y_alpha - x, Armijo backtracking on sqrt(theta_ab))
  for VI(T_eps, Omega) with T_eps = F + eps * grad(phi), at the fixed
  constants ALPHA, BETA, GAMMA and MAX_BACKTRACKS below, finished by
  semismooth Newton on the natural residual where the D-gap stopping level
  lies below the floor of theta evaluation;
* a sequential inexact outer loop over a given decreasing eps schedule that
  warm-starts each inner solve and stops it through a computable error
  bound (D-gap or natural residual) at one tolerance tau;
* a projected subgradient method with gap-anchored Polyak steps for the
  regularized dual-gap model min_{Omega} G + eps * phi.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import bounds
from .core import (
    EvaluationError,
    Regularizer,
    Vector,
    as_point,
    grad_or_subgrad,
    regularized_operator,
)
from .gap import DualGapConfig, _theta_ab_kernel, dual_gap

__all__ = [
    "StepFailureError",
    "MaxIterationsError",
    "DualGapUnreliableError",
    "InnerConfig",
    "OuterConfig",
    "SubgradientConfig",
    "InnerRecord",
    "InnerTrace",
    "OuterRecord",
    "SolverTrace",
    "PgeRecord",
    "PgeTrace",
    "estimate_L_theta",
    "li_ng_direction",
    "armijo_step",
    "solve_inner",
    "sequential_inexact_descent",
    "solve_pge",
    "reference_solution",
]

BRANCH_GAP_DIFF = "y_alpha_minus_y_beta"
BRANCH_RESIDUAL = "y_alpha_minus_x"
BRANCH_NEWTON = "newton"

# D-gap descent: the pair 0 < alpha < beta of theta_ab, the Armijo
# backtracking factor and budget, and the relative move below which an
# iterate counts as stagnant
ALPHA = 1.0
BETA = 2.0
GAMMA = 0.9
MAX_BACKTRACKS = 60
STAGNATION_TOL = 1e-13
# semismooth Newton: central-difference step of the generalized Jacobian,
# relative to 1 + ||x||
NEWTON_FD_STEP = 1e-7

# projected subgradient: initial Polyak relaxation as a fraction of |f(x0)|,
# its final value relative to 1 + |f(x0)|, the relative probe step for the
# tangential subgradient, and the largest tolerated share of non-converged
# dual-gap solves
PGE_DELTA0_FRACTION = 0.25
PGE_DELTA_FINAL_REL = 1e-14
PGE_TANGENT_PROBE = 1e-7
PGE_MAX_NONCONVERGED_FRACTION = 0.5


class StepFailureError(RuntimeError):
    """The D-gap descent cannot progress: Armijo backtracking exhausted, or
    (in `solve_inner`, on a level with a certificate, above the floor) a
    vanishing direction or stagnant iterates. Carries the point, direction
    and gap value where the descent failed.
    """

    def __init__(self, message, x=None, d=None, theta=None, backtracks=None):
        super().__init__(message)
        self.x = x
        self.d = d
        self.theta = theta
        self.backtracks = backtracks


class MaxIterationsError(RuntimeError):
    """Iteration budget exhausted; carries the best point and partial trace."""

    def __init__(self, message, x=None, trace=None):
        super().__init__(message)
        self.x = x
        self.trace = trace


class DualGapUnreliableError(RuntimeError):
    """Too many non-converged dual-gap inner solves during solve_pge."""


# ---------------------------------------------------------------------------
# configs and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerConfig:
    """Parameters of the D-gap descent for one regularization level.

    alpha, beta, the Armijo factor gamma and its backtracking budget are
    the module constants ALPHA, BETA, GAMMA and MAX_BACKTRACKS. c and delta
    default to the admissible bounds
    c <= min{1, (beta-alpha)/(2(L_theta+beta))} and
    delta <= min{sqrt((beta-alpha)/2)/2, sqrt(2) c mu / sqrt(beta-alpha)}
    with mu = eps*rho; explicit values are capped at those bounds when a
    solve resolves its constants. The c bound: with d = y_alpha - x and ||J_T|| <= L_theta,
    <grad theta_ab, d> <= -(beta-alpha)||d||^2 + (L_theta+beta)||y_alpha-y_beta|| ||d||,
    so on the y_alpha - x branch, ||y_alpha-y_beta|| < c||d||, it is <= -(beta-alpha)/2 ||d||^2.
    L_theta_estimate=None takes the declared L + eps*M (`estimate_L_theta`).
    floor is the theta value below which the descent cannot tell progress
    from noise; it also picks a level's certificate (see `solve_inner`).
    """

    c: Optional[float] = None
    delta: Optional[float] = None
    max_iterations: int = 400_000
    L_theta_estimate: Optional[float] = None
    floor: float = 1e-16

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class OuterConfig:
    """Schedule for the sequential inexact descent.

    epsilons is the strictly decreasing, positive eps schedule (stored as a
    tuple of floats); tau is the error tolerance every level is certified to.
    """

    epsilons: tuple
    tau: float = 1e-6
    inner: InnerConfig = field(default_factory=InnerConfig)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps or any(e <= 0 for e in eps):
            raise ValueError("epsilon schedule must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "epsilons", eps)


@dataclass(slots=True)
class InnerRecord:
    j: int
    theta: float
    m: int
    branch: str
    step_norm: float


@dataclass
class InnerTrace:
    """One inner solve: status "certified", "floor" or "stagnated" (see
    `solve_inner`), or "max_iterations" on a MaxIterationsError's trace.
    certificate ("dgap" or "residual") and radius (the distance to x_eps it
    certifies, <= tau) are set exactly when the status is "certified".
    iterations is the number of steps taken, len(records)."""

    epsilon: float
    tau: float
    p: float
    c: float
    delta: float
    L_theta: float
    records: list
    status: str
    iterations: int
    theta_final: float
    certificate: Optional[str] = None
    radius: Optional[float] = None


@dataclass
class OuterRecord:
    k: int
    epsilon: float
    x: Vector
    theta: float
    p: float
    radius: Optional[float]
    dist_S0: Optional[float]
    inner_iterations: int
    status: str
    wall_time_s: float = 0.0


@dataclass
class SolverTrace:
    outer: list
    inner: list


@dataclass
class PgeRecord:
    j: int
    objective: float
    gap_value: float
    best_objective: float
    step: float
    inner_converged: bool


@dataclass
class PgeTrace:
    records: list
    iterations: int
    n_nonconverged: int
    best_objective: float


@dataclass(frozen=True)
class SubgradientConfig:
    """Budget and inner dual-gap solves of the projected subgradient solver.

    Its steps are gap-anchored: (f - f_best + delta_j)/||g_T||^2 with a
    geometrically decaying relaxation delta_j and displacement cap
    2 (1 + ||x0||), where g_T is the tangential (projected) part of the
    subgradient. seed overrides gap_config.seed and is varied per iterate.
    """

    max_iterations: int = 1100
    seed: int = 0
    gap_config: DualGapConfig = field(default_factory=DualGapConfig)

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def estimate_L_theta(problem, epsilon: float, reg: Optional[Regularizer] = None) -> float:
    """The declared Lipschitz constant L + eps*M of T_eps = F + eps*grad(phi);
    F's L alone where phi is nonsmooth or absent."""
    M = reg.lipschitz_M if (reg is not None and reg.smooth) else 0.0
    return problem.map.lipschitz_L + epsilon * M


def _resolve_constants(problem, cfg: InnerConfig, epsilon: float,
                       reg: Optional[Regularizer]) -> InnerConfig:
    """Fill in c, delta and L_theta, capping explicit values at their bounds."""
    L_theta = cfg.L_theta_estimate
    if L_theta is None:
        L_theta = estimate_L_theta(problem, epsilon, reg)
    c_bound = min(1.0, (BETA - ALPHA) / (2.0 * (L_theta + BETA)))
    c = c_bound if cfg.c is None else min(cfg.c, c_bound)
    rho = reg.rho if (reg is not None and reg.smooth) else 0.0
    mu = epsilon * rho
    d_bound = min(0.5 * math.sqrt((BETA - ALPHA) / 2.0),
                  math.sqrt(2.0) * c * mu / math.sqrt(BETA - ALPHA))
    delta = d_bound if cfg.delta is None else min(cfg.delta, d_bound)
    return replace(cfg, c=c, delta=delta, L_theta_estimate=L_theta)


# ---------------------------------------------------------------------------
# direction and line search
# ---------------------------------------------------------------------------

def _norm(v: Vector) -> float:
    """Euclidean norm of a real 1-D vector: the sqrt of v.dot(v) that
    np.linalg.norm computes, without its dispatch."""
    return math.sqrt(v.dot(v))


def _direction(x: Vector, ya: Vector, yb: Vector, c: float):
    """Li-Ng switch: (y_alpha - y_beta) when c ||x - y_alpha|| <= ||y_alpha - y_beta||,
    otherwise (y_alpha - x); returns (d, branch)."""
    if c * _norm(x - ya) <= _norm(ya - yb):
        return ya - yb, BRANCH_GAP_DIFF
    return ya - x, BRANCH_RESIDUAL


def li_ng_direction(problem, x: Vector, cfg: InnerConfig, epsilon: float = 0.0,
                    reg: Optional[Regularizer] = None):
    """Descent direction for the D-gap of VI(T_eps, Omega).

    Returns (d, branch) with d = y_alpha - y_beta when
    c ||x - y_alpha|| <= ||y_alpha - y_beta||, otherwise d = y_alpha - x.
    cfg.c is used as given here (no admissibility capping).
    """
    if cfg.c is None:
        raise ValueError("cfg.c must be set for li_ng_direction (resolve constants first)")
    x = as_point(x, problem.map.dimension)
    _, ya, yb = _theta_ab_kernel(problem, ALPHA, BETA, epsilon, reg)(x)
    return _direction(x, ya, yb, cfg.c)


def armijo_step(problem, x: Vector, d: Vector, cfg: InnerConfig, epsilon: float = 0.0,
                reg: Optional[Regularizer] = None):
    """Smallest m >= 0 with sqrt(theta(x + gamma^m d)) - sqrt(theta(x)) <=
    -(delta/4) gamma^m ||d||; returns (m, x_next).

    Raises StepFailureError when MAX_BACKTRACKS is exceeded.
    """
    d = np.asarray(d, dtype=float)
    if float(np.linalg.norm(d)) == 0.0:
        raise ValueError("zero direction")
    x = as_point(x, problem.map.dimension)
    if cfg.delta is None:
        cfg = _resolve_constants(problem, cfg, epsilon, reg)
    theta = _theta_ab_kernel(problem, ALPHA, BETA, epsilon, reg)
    th, _, _ = theta(x)
    m, x_next, _, _, _ = _armijo(theta, x, d, th, cfg)
    return m, x_next


def _armijo(theta, x: Vector, d: Vector, theta_x: float, cfg: InnerConfig,
            max_backtracks: int = MAX_BACKTRACKS):
    """Backtracking core; returns (m, x_next, theta_next, ya_next, yb_next).
    max_backtracks=0 tests the full step alone."""
    nd = _norm(d)
    sq = math.sqrt(max(theta_x, 0.0))
    delta = cfg.delta
    step = 1.0
    for m in range(max_backtracks + 1):
        xn = x + step * d
        tn, ya, yb = theta(xn)
        if math.sqrt(max(tn, 0.0)) - sq <= -(delta / 4.0) * step * nd:
            return m, xn, tn, ya, yb
        step *= GAMMA
    raise StepFailureError(
        f"no Armijo step after {max_backtracks} backtracks "
        f"(theta={theta_x:.3e}, ||d||={nd:.3e}); mis-set constants or tolerance floor",
        x=x, d=d, theta=theta_x, backtracks=max_backtracks)


def _newton_step(theta, x: Vector, h: Vector) -> Vector:
    """Semismooth Newton step s solving J s = -h for the natural residual
    h = H(x) = x - y_alpha(x), J a generalized Jacobian of H by central
    differences of y_alpha from the raw D-gap kernel `theta` (2n
    evaluations). A singular J gives its least-squares step."""
    n = x.shape[0]
    fd = NEWTON_FD_STEP * (1.0 + _norm(x))
    J = np.eye(n)
    e = np.zeros(n)
    for k in range(n):
        e[k] = fd
        J[:, k] -= (theta(x + e)[1] - theta(x - e)[1]) / (2.0 * fd)
        e[k] = 0.0
    try:
        return np.linalg.solve(J, -h)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(J, -h, rcond=None)[0]


def _newton_trial(theta, x: Vector, ya: Vector, theta_x: float, cfg: InnerConfig):
    """The full Newton step from x if accepted, as (x_next, theta_next,
    ya_next, yb_next, step_norm); None if rejected.

    Above cfg.floor the test is the Armijo test on sqrt(theta_ab) of
    `_armijo`. At or below it theta_ab is evaluation noise and cannot judge
    a step, so there the step must halve the natural residual ||H|| instead.
    A trial that leaves F's domain counts as rejected.
    """
    h = x - ya
    try:
        s = _newton_step(theta, x, h)
        ns = _norm(s)
        if not (math.isfinite(ns) and ns > 0.0):
            return None
        if theta_x > cfg.floor:
            _, xn, tn, yan, ybn = _armijo(theta, x, s, theta_x, cfg, max_backtracks=0)
        else:
            xn = x + s
            tn, yan, ybn = theta(xn)
            if _norm(xn - yan) > 0.5 * _norm(h):
                return None
    except (StepFailureError, EvaluationError):
        return None
    return xn, tn, yan, ybn, ns


# ---------------------------------------------------------------------------
# inner solve
# ---------------------------------------------------------------------------

def solve_inner(problem, x0: Vector, epsilon: float, tau: float,
                cfg: Optional[InnerConfig] = None,
                reg: Optional[Regularizer] = None):
    """Approximately solve VI(T_eps, Omega) by D-gap descent.

    Each level has one certificate, chosen once. A smooth phi with rho > 0
    and eps > 0 stops once theta_ab <= p = tau^2 / L_k^2, which certifies
    ||x - x_eps|| <= tau ("dgap"). Where p lies below cfg.floor, the floor of
    theta evaluation, that test cannot fire: the natural-residual bound
    certifies instead ("residual"), and each uncertified iteration first tries
    one full Newton step on H(x) = x - y_alpha(x) (branch "newton"), kept if
    it passes the Armijo test on sqrt(theta_ab) or, at the floor, where that
    test cannot judge, if it halves ||H||; else it takes a D-gap step. Any
    other level (nonsmooth phi, eps = 0 or rho = 0) has no certificate.

    Status "certified" means the certificate holds with radius <= tau. A
    level without a D-gap certificate stops "floor" once theta_ab <=
    cfg.floor (on a residual level, after a rejected Newton trial). One
    stall rule covers a vanishing direction, an exhausted Armijo search and
    three steps that barely move x: "floor" if theta_ab <= 10 cfg.floor,
    else "stagnated" without a certificate, else StepFailureError.

    Returns (x, InnerTrace). Raises MaxIterationsError with the point and
    the partial trace attached.
    """
    cfg = cfg or InnerConfig()
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    x = as_point(x0, problem.map.dimension)

    kind, p = None, 0.0
    if reg is not None and reg.smooth and reg.rho > 0 and epsilon > 0:
        L, M = problem.map.lipschitz_L, reg.lipschitz_M
        p = bounds.stopping_threshold(tau, L, M, reg.rho, ALPHA, BETA, epsilon).radius
        kind = "dgap" if p >= cfg.floor else "residual"

    T = regularized_operator(problem.map, reg, epsilon)
    theta = _theta_ab_kernel(problem, ALPHA, BETA, epsilon, reg)
    th, ya, yb = theta(x)
    records: list = []
    stagnant = 0

    def done(status, rad=None):
        return x, InnerTrace(epsilon=epsilon, tau=tau, p=p, c=cfg.c, delta=cfg.delta,
                             L_theta=cfg.L_theta_estimate, records=records, status=status,
                             iterations=len(records), theta_final=th,
                             certificate=None if rad is None else kind, radius=rad)

    def radius():
        """The distance to x_eps that the level's certificate gives at x, or
        None if there is none or it exceeds tau."""
        if kind == "dgap":
            # radius <= tau is the test theta_ab <= p; theta below the
            # evaluation floor is indistinguishable from the floor, so the
            # radius is floored accordingly
            rad = bounds.dgap_error_bound(max(th, cfg.floor), L, M, reg.rho,
                                          ALPHA, BETA, epsilon).radius
        elif kind == "residual":
            r = _norm(x - ya)
            rad = bounds.residual_error_bound(r, L, M, reg.rho, ALPHA, epsilon).radius
            if rad <= tau:  # only now pay one T(x) for the rounding floor
                rad = bounds.residual_error_bound(r, L, M, reg.rho, ALPHA, epsilon,
                                                  bounds.residual_rounding(x, T(x), ALPHA)).radius
        else:
            return None
        return rad if rad <= tau else None

    def stalled(err):
        """Exit where the descent makes no progress, else raise err."""
        if th <= 10.0 * cfg.floor:
            return done("floor")
        if kind is None:
            return done("stagnated")
        raise err

    cfg = _resolve_constants(problem, cfg, epsilon, reg)

    for j in range(1, cfg.max_iterations + 1):
        if (rad := radius()) is not None:
            return done("certified", rad)
        if kind == "residual":
            trial = _newton_trial(theta, x, ya, th, cfg)
            if trial is not None:
                x, th, ya, yb, ns = trial
                records.append(InnerRecord(j=j, theta=th, m=0, branch=BRANCH_NEWTON,
                                           step_norm=ns))
                continue
        if kind != "dgap" and th <= cfg.floor:
            return done("floor")
        d, branch = _direction(x, ya, yb, cfg.c)
        nd, nx = _norm(d), _norm(x)
        if nd <= 1e-15 * (1.0 + nx):
            return stalled(StepFailureError("the D-gap direction vanished", x=x, d=d, theta=th))
        try:
            m, xn, tn, yan, ybn = _armijo(theta, x, d, th, cfg)
        except StepFailureError as err:
            return stalled(err)
        records.append(InnerRecord(j=j, theta=tn, m=m, branch=branch,
                                   step_norm=(GAMMA ** m) * nd))
        stagnant = stagnant + 1 if _norm(xn - x) <= STAGNATION_TOL * (1.0 + nx) else 0
        x, th, ya, yb = xn, tn, yan, ybn
        if stagnant >= 3:
            return stalled(StepFailureError("the iterates stagnated", x=x, theta=th))
    if (rad := radius()) is not None:
        return done("certified", rad)
    raise MaxIterationsError(
        f"inner solve exhausted {cfg.max_iterations} iterations "
        f"(theta={th:.3e}, threshold={p:.3e})", x=x, trace=done("max_iterations")[1])


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def sequential_inexact_descent(problem, x0: Vector, outer_cfg: OuterConfig,
                               reg: Regularizer):
    """Sequential inexact descent over a decreasing epsilon schedule.

    Each level solves VI(T_eps_k, Omega) by solve_inner warm-started from
    the previous level's point; OuterRecord.radius is the distance to x_eps
    that the level's certificate (D-gap or residual) gives. Returns
    (SolverTrace, x_final); inner failures propagate with the partial trace
    attached to the exception.
    """
    if reg is None:
        raise ValueError("sequential descent needs a regularizer")
    x = as_point(x0, problem.map.dimension)
    outer: list = []
    inner: list = []
    oracle = getattr(problem, "solution_oracle", None)
    icfg = outer_cfg.inner
    for k, e in enumerate(outer_cfg.epsilons):
        tick = time.perf_counter()
        try:
            x, itrace = solve_inner(problem, x, e, outer_cfg.tau, icfg, reg)
        except (StepFailureError, MaxIterationsError) as err:
            err.partial_trace = SolverTrace(outer=outer, inner=inner)
            raise
        elapsed = time.perf_counter() - tick
        inner.append(itrace)
        dist = None
        if oracle is not None:
            dist = float(oracle.distance_to_S0(x))
        outer.append(OuterRecord(k=k, epsilon=e, x=x, theta=itrace.theta_final, p=itrace.p,
                                 radius=itrace.radius, dist_S0=dist,
                                 inner_iterations=itrace.iterations, status=itrace.status,
                                 wall_time_s=elapsed))
    return SolverTrace(outer=outer, inner=inner), x


# ---------------------------------------------------------------------------
# projected subgradient for the dual-gap model
# ---------------------------------------------------------------------------

def solve_pge(problem, regularizer: Regularizer, epsilon: float, x0: Vector,
              sg_config: Optional[SubgradientConfig] = None):
    """Projected subgradient method for min_{Omega} G(x) + eps * phi(x).

    Update x+ = P_Omega(x - t_j (F(ybar(x)) + eps g_phi(x))) with ybar the
    dual-gap inner maximizer; returns the best-so-far iterate by objective
    value together with a per-iterate trace.

    Raises DualGapUnreliableError when more than PGE_MAX_NONCONVERGED_FRACTION
    of the inner solves did not converge.
    """
    cfg = sg_config or SubgradientConfig()
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    omega = problem.set
    F = problem.map
    x = omega.project(as_point(x0, F.dimension))
    phi = regularizer.value

    gcfg = replace(cfg.gap_config, seed=cfg.seed)
    ev = dual_gap(problem, x, gcfg)
    n_bad = 0 if ev.converged else 1
    f = ev.value + epsilon * phi(x)
    ybar = ev.maximizer
    x_best, f_best = x.copy(), f

    scale0 = 1.0 + abs(f)
    delta = max(PGE_DELTA0_FRACTION * abs(f), 1e-12 * scale0)
    rho_decay = (PGE_DELTA_FINAL_REL * scale0 / delta) ** (1.0 / cfg.max_iterations)
    cap = 2.0 * (1.0 + float(np.linalg.norm(x)))

    records: list = []
    j = 0
    for j in range(1, cfg.max_iterations + 1):
        sg = np.asarray(F(ybar), dtype=float) + epsilon * grad_or_subgrad(regularizer, x)
        s = PGE_TANGENT_PROBE * (1.0 + float(np.linalg.norm(x))) \
            / (1.0 + float(np.linalg.norm(sg)))
        g_tan = (x - omega.project(x - s * sg)) / s
        n_tan = float(np.linalg.norm(g_tan))
        if n_tan <= 1e-14:
            break  # subgradient is normal to Omega at x: stationary
        t = min((f - f_best + delta) / n_tan ** 2, cap / n_tan)
        x = omega.project(x - t * sg)
        ev = dual_gap(problem, x, replace(gcfg, seed=cfg.seed + 7919 * j), warm=ybar)
        ybar = ev.maximizer
        if not ev.converged:
            n_bad += 1
        f = ev.value + epsilon * phi(x)
        if f < f_best:
            f_best, x_best = f, x.copy()
        records.append(PgeRecord(j=j, objective=f, gap_value=ev.value,
                                 best_objective=f_best, step=t,
                                 inner_converged=ev.converged))
        delta *= rho_decay
        if j >= 20 and n_bad > PGE_MAX_NONCONVERGED_FRACTION * (j + 1):
            raise DualGapUnreliableError(
                f"{n_bad}/{j + 1} dual-gap inner solves failed to converge; "
                "increase the inner budget or multistarts")
    return x_best, PgeTrace(records=records, iterations=j, n_nonconverged=n_bad,
                            best_objective=f_best)


# ---------------------------------------------------------------------------
# high-accuracy references
# ---------------------------------------------------------------------------

def reference_solution(problem, epsilon: float = 0.0, reg: Optional[Regularizer] = None,
                       tol_residual: float = 1e-12):
    """Solve a strongly monotone VI(T_eps, Omega) to machine-level residual.

    Runs a short `solve_inner` from P_Omega(0), which finishes below-floor
    levels by semismooth Newton and residual-certifies them, then at most 80
    steps of the same Newton step (`_newton_step`), damped by halving until
    the natural residual H(x) = x - P_Omega(x - T(x)/alpha) decreases,
    stopping at ||H|| <= tol_residual.
    A residual r certifies the true theta_ab <= (beta-alpha)/2 * r^2, far
    below anything evaluable in floating point.

    Returns (x, residual_norm). Raises RuntimeError when the residual
    target is not reached.
    """
    F = problem.map
    if epsilon > 0 and (reg is None or not reg.smooth or reg.rho <= 0):
        raise ValueError("regularized reference needs a smooth strongly convex phi")
    if epsilon == 0.0 and F.monotonicity_class != "strongly_monotone":
        raise ValueError("unregularized reference needs a strongly monotone map")
    x = problem.set.project(np.zeros(F.dimension))

    try:
        x, _ = solve_inner(problem, x, epsilon, 1e-6,
                           InnerConfig(max_iterations=3000, floor=1e-15), reg)
    except (StepFailureError, MaxIterationsError) as err:
        if getattr(err, "x", None) is not None:
            x = err.x

    theta = _theta_ab_kernel(problem, ALPHA, BETA, epsilon, reg)
    h = x - theta(x)[1]
    nh = _norm(h)
    for _ in range(80):
        if nh <= tol_residual:
            break
        step = _newton_step(theta, x, h)
        t = 1.0
        for _ in range(40):
            cand = x + t * step
            hc = cand - theta(cand)[1]
            nhc = _norm(hc)
            if nhc < nh:
                x, h, nh = cand, hc, nhc
                break
            t *= 0.5
        else:
            break  # no progress; nh stands
    if nh > tol_residual:
        raise RuntimeError(
            f"reference solve stalled at residual {nh:.3e} (target {tol_residual:.1e})")
    return x, nh
