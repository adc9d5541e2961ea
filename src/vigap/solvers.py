"""Descent solvers for the regularized variational inequality models.

Three layers:

* semismooth Newton on the natural residual for VI(T_eps, Omega) with
  T_eps = F + eps * grad(phi), globalized by the D-gap theta_ab as merit
  function, with a derivative-free D-gap step as the fallback (direction
  switching between y_alpha - y_beta and y_alpha - x, Armijo backtracking on
  sqrt(theta_ab)) at the fixed constants ALPHA, BETA, GAMMA and
  MAX_BACKTRACKS below; levels without a certificate take the D-gap steps
  alone;
* a sequential inexact outer loop over a given decreasing eps schedule that
  warm-starts each inner solve and stops it through a computable error
  bound (D-gap or natural residual) at one tolerance tau;
* for the dual-gap model min_{Omega} G + eps * phi, spectral projected
  gradient, proximal through the set's l1 prox for the l1 norm: stopped on a
  certified radius where G is exact, phi strongly convex and the set has a
  tangent cone, else on the residual of its step.

Results are plain records: one InnerTrace per eps-level (the outer loop's
SolverTrace.outer is a list of them) and one PgeTrace per dual-gap run.
"""
from __future__ import annotations

import math
import time
from typing import NamedTuple, Optional

import numpy as np

from . import bounds
from .core import (
    EvaluationError,
    Regularizer,
    Vector,
    as_point,
    regularized_operator,
)
from .gap import (DUAL_GAP_TOL, _dual_gap_kernel, _non_finite, _residual_jacobian_kernel,
                  _theta_ab_kernel)

__all__ = [
    "StepFailureError",
    "MaxIterationsError",
    "DualGapUnreliableError",
    "InnerConfig",
    "OuterConfig",
    "InnerRecord",
    "InnerTrace",
    "SolverTrace",
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
# theta value below which the descent cannot tell progress from evaluation
# noise; it also picks a level's certificate (see `solve_inner`)
THETA_FLOOR = 1e-16
# semismooth Newton: central-difference step of the generalized Jacobian
# where a problem lacks a Jacobian hook, relative to 1 + ||x||
NEWTON_FD_STEP = 1e-7

# dual-gap route: default iteration budget and the largest tolerated share of
# non-converged dual-gap solves
PGE_MAX_ITERATIONS = 1100
PGE_MAX_NONCONVERGED_FRACTION = 0.5
# spectral projected gradient: nonmonotone memory, Armijo constant, BB step clamp
SPG_MEMORY = 10
SPG_ARMIJO = 1e-4
SPG_SIGMA_MIN, SPG_SIGMA_MAX = 1e-10, 1e10
# natural-residual norm at which `reference_solution` stops
REFERENCE_RESIDUAL = 1e-12


class StepFailureError(RuntimeError):
    """The D-gap descent cannot progress: Armijo backtracking exhausted, or
    (in `solve_inner`, on a level with a certificate, above the floor) a
    vanishing direction or stagnant iterates.
    """


class MaxIterationsError(RuntimeError):
    """Iteration budget exhausted; carries the level's partial trace, whose
    x is the last point."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DualGapUnreliableError(RuntimeError):
    """Too many non-converged dual-gap inner solves during solve_pge."""


# ---------------------------------------------------------------------------
# configs and traces
# ---------------------------------------------------------------------------

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
    """

    __slots__ = ("c", "delta", "max_iterations", "L_theta_estimate")

    def __init__(self, c: Optional[float] = None, delta: Optional[float] = None,
                 max_iterations: int = 400_000, L_theta_estimate: Optional[float] = None):
        if max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        self.c, self.delta = c, delta
        self.max_iterations, self.L_theta_estimate = max_iterations, L_theta_estimate


class OuterConfig:
    """Schedule for the sequential inexact descent.

    epsilons is the strictly decreasing, finite and positive eps schedule
    (stored as a tuple of floats); tau, finite and positive, is the error
    tolerance every level is certified to; inner (default InnerConfig())
    configures every level's inner solve.
    """

    __slots__ = ("epsilons", "tau", "inner")

    def __init__(self, epsilons, tau: float = 1e-6, inner: Optional[InnerConfig] = None):
        eps = tuple(float(e) for e in epsilons)
        if not eps or min(eps) <= 0 or not all(map(math.isfinite, eps)):
            raise ValueError("epsilon schedule must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon schedule must be strictly decreasing")
        if not 0 < tau < math.inf:
            raise ValueError("tau must be positive and finite")
        self.epsilons, self.tau = eps, tau
        self.inner = InnerConfig() if inner is None else inner


class InnerRecord(NamedTuple):
    theta: float
    m: int
    branch: str
    step_norm: float


class InnerTrace(NamedTuple):
    """One inner solve, ending at the point x: status "certified", "floor" or
    "stagnated" (see `solve_inner`), or "max_iterations" on a
    MaxIterationsError's trace. certificate ("dgap" or "residual") and radius
    (the distance to x_eps it certifies, <= tau) are set exactly when the
    status is "certified". `solve_inner` leaves dist_S0 and wall_time_s at
    their defaults; `sequential_inexact_descent` returns each level with
    dist_S0 (from the problem's solution oracle, if any) and wall_time_s."""

    epsilon: float
    p: float
    c: float
    delta: float
    L_theta: float
    records: list
    status: str
    theta_final: float
    x: Vector
    certificate: Optional[str] = None
    radius: Optional[float] = None
    dist_S0: Optional[float] = None
    wall_time_s: float = 0.0

    @property
    def iterations(self) -> int:
        """The number of steps taken."""
        return len(self.records)


class SolverTrace(NamedTuple):
    """The sequential descent's levels in schedule order, one InnerTrace each."""

    outer: list


class PgeTrace(NamedTuple):
    """One `solve_pge` run: the steps taken, the dual-gap brackets wider than
    DUAL_GAP_TOL, and, at the returned point, G + eps*phi, the certified
    distance to x_eps (`bounds.dualgap_radius`; None where no distance is
    certified) and the bracket gap <= G <= gap_upper of the G evaluation the
    solve made there (on the ascent, upper is gap if it converged, else inf)."""

    iterations: int
    n_nonconverged: int
    best_objective: float
    radius: Optional[float] = None
    gap: Optional[float] = None
    gap_upper: Optional[float] = None


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
    return InnerConfig(c, delta, cfg.max_iterations, L_theta)


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
        f"(theta={theta_x:.3e}, ||d||={nd:.3e}); mis-set constants or tolerance floor")


def _newton_step(theta, jac, x: Vector, h: Vector) -> Vector:
    """Semismooth Newton step s solving J s = -h for the natural residual
    h = H(x) = x - y_alpha(x), J an element of the generalized Jacobian of H:
    jac(x) from `gap._residual_jacobian_kernel`, or, where jac is None (a
    map, set or regularizer without a Jacobian hook), central differences of
    y_alpha from the raw D-gap kernel `theta` (2n evaluations). A singular J
    gives its least-squares step."""
    if jac is not None:
        J = jac(x)
    else:
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


def _newton_trial(theta, jac, x: Vector, ya: Vector, theta_x: float, cfg: InnerConfig):
    """The full Newton step from x if accepted, as (x_next, theta_next,
    ya_next, yb_next, step_norm); None if rejected.

    Above THETA_FLOOR the test is the Armijo test on sqrt(theta_ab) of
    `_armijo`. At or below it theta_ab is evaluation noise and cannot judge
    a step, so there the step must halve the natural residual ||H|| instead.
    A trial that leaves F's domain counts as rejected.
    """
    h = x - ya
    try:
        s = _newton_step(theta, jac, x, h)
        ns = _norm(s)
        if not (math.isfinite(ns) and ns > 0.0):
            return None
        if theta_x > THETA_FLOOR:
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
    """Approximately solve VI(T_eps, Omega) by semismooth Newton globalized
    by the D-gap, or by D-gap descent alone on a level without a certificate.

    Each level has one certificate, chosen once. A smooth phi with rho > 0
    and eps > 0 stops once theta_ab <= p = tau^2 / L_k^2, which certifies
    ||x - x_eps|| <= tau ("dgap"). Where p lies below THETA_FLOOR, the floor of
    theta evaluation, that test cannot fire: the natural-residual bound
    certifies instead ("residual"). On either kind of level each uncertified
    iteration first tries one full Newton step on H(x) = x - y_alpha(x)
    (branch "newton"), kept if it passes the Armijo test on sqrt(theta_ab)
    or, at the floor, where that test cannot judge, if it halves ||H||; else
    it takes a D-gap step. Any other level (nonsmooth phi, eps = 0 or
    rho = 0) has no certificate and takes D-gap steps only.

    Status "certified" means the certificate holds with radius <= tau; a
    D-gap radius is taken at max(theta_ab, THETA_FLOOR), since a Newton step
    can land on x_eps, where theta_ab evaluates to <= 0. A level without a
    D-gap certificate stops "floor" once theta_ab <= THETA_FLOOR (on a
    residual level, after a rejected Newton trial). One
    stall rule covers a vanishing direction, an exhausted Armijo search and
    three steps that barely move x: "floor" if theta_ab <= 10 THETA_FLOOR,
    else "stagnated" without a certificate, else StepFailureError.

    Returns (x, InnerTrace). Raises MaxIterationsError with the partial
    trace attached.
    """
    cfg = cfg or InnerConfig()
    T = regularized_operator(problem.map, reg, epsilon)
    x = as_point(x0, problem.map.dimension)

    kind, p = None, 0.0
    if reg is not None and reg.smooth and reg.rho > 0 and epsilon > 0:
        L, M = problem.map.lipschitz_L, reg.lipschitz_M
        p = bounds.stopping_threshold(tau, L, M, reg.rho, ALPHA, BETA, epsilon)
        kind = "dgap" if p >= THETA_FLOOR else "residual"

    theta = _theta_ab_kernel(problem, ALPHA, BETA, epsilon, reg)
    jac = _residual_jacobian_kernel(problem, ALPHA, epsilon, reg)
    th, ya, yb = theta(x)
    records: list = []
    stagnant = 0

    def done(status, rad=None):
        return x, InnerTrace(epsilon=epsilon, p=p, c=cfg.c, delta=cfg.delta,
                             L_theta=cfg.L_theta_estimate, records=records, status=status,
                             theta_final=th, x=x, certificate=None if rad is None else kind,
                             radius=rad)

    def radius():
        """The distance to x_eps that the level's certificate gives at x, or
        None if there is none or it exceeds tau."""
        if kind == "dgap":
            # radius <= tau is the test theta_ab <= p; theta below the
            # evaluation floor is indistinguishable from the floor, so the
            # radius is floored accordingly
            rad = bounds.dgap_error_bound(max(th, THETA_FLOOR), L, M, reg.rho,
                                          ALPHA, BETA, epsilon)
        elif kind == "residual":
            r = _norm(x - ya)
            rad = bounds.residual_error_bound(r, L, M, reg.rho, ALPHA, epsilon)
            if rad <= tau:  # only now pay one T(x) for the rounding floor
                rad = bounds.residual_error_bound(r, L, M, reg.rho, ALPHA, epsilon,
                                                  bounds.residual_rounding(x, T(x), ALPHA))
        else:
            return None
        return rad if rad <= tau else None

    def stalled(err):
        """Exit where the descent makes no progress, else raise err."""
        if th <= 10.0 * THETA_FLOOR:
            return done("floor")
        if kind is None:
            return done("stagnated")
        raise err

    cfg = _resolve_constants(problem, cfg, epsilon, reg)

    for _ in range(cfg.max_iterations):
        if (rad := radius()) is not None:
            return done("certified", rad)
        if kind is not None:
            trial = _newton_trial(theta, jac, x, ya, th, cfg)
            if trial is not None:
                x, th, ya, yb, ns = trial
                records.append(InnerRecord(theta=th, m=0, branch=BRANCH_NEWTON, step_norm=ns))
                continue
        if kind != "dgap" and th <= THETA_FLOOR:
            return done("floor")
        d, branch = _direction(x, ya, yb, cfg.c)
        nd, nx = _norm(d), _norm(x)
        if nd <= 1e-15 * (1.0 + nx):
            return stalled(StepFailureError("the D-gap direction vanished"))
        try:
            m, xn, tn, yan, ybn = _armijo(theta, x, d, th, cfg)
        except StepFailureError as err:
            return stalled(err)
        records.append(InnerRecord(theta=tn, m=m, branch=branch, step_norm=(GAMMA ** m) * nd))
        stagnant = stagnant + 1 if _norm(xn - x) <= STAGNATION_TOL * (1.0 + nx) else 0
        x, th, ya, yb = xn, tn, yan, ybn
        if stagnant >= 3:
            return stalled(StepFailureError("the iterates stagnated"))
    if (rad := radius()) is not None:
        return done("certified", rad)
    raise MaxIterationsError(
        f"inner solve exhausted {cfg.max_iterations} iterations "
        f"(theta={th:.3e}, threshold={p:.3e})", done("max_iterations")[1])


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def sequential_inexact_descent(problem, x0: Vector, outer_cfg: OuterConfig,
                               reg: Regularizer):
    """Sequential inexact descent over a decreasing epsilon schedule.

    Each level solves VI(T_eps_k, Omega) by solve_inner warm-started from
    the previous level's point, and its InnerTrace, copied with dist_S0 and
    wall_time_s set, is the level's record in SolverTrace.outer; its
    radius is the distance to x_eps that the level's certificate (D-gap or
    residual) gives. Returns (SolverTrace, x_final); inner failures propagate
    with the partial trace attached to the exception.
    """
    if reg is None:
        raise ValueError("sequential descent needs a regularizer")
    x = as_point(x0, problem.map.dimension)
    outer: list = []
    oracle = getattr(problem, "solution_oracle", None)
    for e in outer_cfg.epsilons:
        tick = time.perf_counter()
        try:
            x, itrace = solve_inner(problem, x, e, outer_cfg.tau, outer_cfg.inner, reg)
        except (StepFailureError, MaxIterationsError) as err:
            err.partial_trace = SolverTrace(outer=outer)
            raise
        wall_time_s = time.perf_counter() - tick
        dist_S0 = None if oracle is None else float(oracle.distance_to_S0(x))
        outer.append(itrace._replace(dist_S0=dist_S0, wall_time_s=wall_time_s))
    return SolverTrace(outer=outer), x


# ---------------------------------------------------------------------------
# spectral projected gradient for the dual-gap model
# ---------------------------------------------------------------------------

def solve_pge(problem, regularizer: Regularizer, epsilon: float, x0: Vector,
              max_iterations: Optional[int] = None):
    """Minimize G(x) + eps * phi(x) over Omega, G the dual gap, by `_spg` from
    P_Omega(x0) in at most max_iterations (None: PGE_MAX_ITERATIONS) steps;
    returns (x, PgeTrace).

    phi must be smooth, or `l1_regularizer()` (`Regularizer.is_l1`) on a set with
    an `l1_prox`, else ValueError; eps must be nonnegative and finite. x0 is
    validated once; the loop calls phi and the dual-gap kernel raw (the exact
    oracle, or the multistart ascent warm-started from its last maximizer) and
    takes F(ybar) from the kernel, so an exact oracle costs no F call.
    """
    if max_iterations is None:
        max_iterations = PGE_MAX_ITERATIONS
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be nonnegative and finite")
    if not (regularizer.smooth or problem.set.l1_prox):
        raise ValueError("the dual-gap route needs a smooth phi, or l1_regularizer() "
                         "on a set with an l1_prox")
    x = problem.set.project(as_point(x0, problem.map.dimension))
    return _spg(problem, _dual_gap_kernel(problem), regularizer, epsilon, x, max_iterations)


def _spg(problem, G, reg: Regularizer, epsilon: float, x: Vector, max_iterations: int):
    """Spectral projected gradient (Birgin, Martinez & Raydan 2000) on f = G + eps*phi
    from x in Omega: steps along d, sigma the Barzilai-Borwein s.s/s.y of the
    gradients g in [SPG_SIGMA_MIN, SPG_SIGMA_MAX], under a nonmonotone Armijo test
    against the largest f of the last SPG_MEMORY iterates, halving lambda and
    projecting each trial P(x + lambda d).

    * phi smooth: g = F(ybar) + eps*grad(phi)(x), d = P(x - sigma g) - x, Armijo
      slope g.d.
    * phi = ||.||_1 (`Regularizer.is_l1`): proximal SPG (SpaRSA; Wright, Nowak &
      Figueiredo 2009) with g = F(ybar), d = prox_{sigma eps}(x - sigma g) - x through
      the set's `l1_prox` (the projection at eps = 0), and the composite slope
      g.d + eps(phi(x + d) - phi(x)) (Tseng & Yun 2009).

    The stationarity measure is the certified radius `bounds.dualgap_radius`,
    returned as PgeTrace.radius, where G is exact, eps > 0, rho > 0 and the set has
    `tangent_project`; elsewhere the residual ||prox_eps(x - g) - x|| (l1) or
    ||P(x - g) - x||, 0 exactly at a fixed point, so its floor is 0 (radius None).
    After a first step it stops at a measure within 2x its floor (not at tau: the
    radius's floor is a step or two further), after SPG_MEMORY steps without a
    better measure, or at max_iterations steps; returns the least-measure iterate.
    A non-finite g raises EvaluationError, and more than
    PGE_MAX_NONCONVERGED_FRACTION of the G evaluations unconverged raises
    DualGapUnreliableError at the end.
    """
    proj, tangent, l1 = problem.set.project, problem.set.tangent_project, reg.is_l1
    step = problem.set.l1_prox if l1 else lambda v, t: proj(v)   # (v, t) -> the new point
    phi, g_phi, mu = reg.value, reg.gradient, epsilon * reg.rho
    certified = (mu > 0 and tangent is not None
                 and getattr(problem, "dual_gap_exact", None) is not None)
    n_evals = n_bad = 0

    def evaluate(x):   # (f, g, (measure, floor), G bracket) at x
        nonlocal n_evals, n_bad
        value, upper, _, Fy, _ = G(x)
        n_evals, n_bad = n_evals + 1, n_bad + (not upper - value <= DUAL_GAP_TOL)
        g = Fy if l1 else Fy + epsilon * g_phi(x)
        if not math.isfinite(g.dot(g)):
            raise _non_finite(problem, "the subgradient F(ybar) + eps g_phi(x)", x)
        measure = (bounds.dualgap_radius(_norm(tangent(x, -g)), upper - value, mu, epsilon,
                                         Fy, x) if certified else (_norm(step(x - g, epsilon) - x), 0.0))
        return value + epsilon * phi(x), g, measure, (value, upper)

    f, g, (rad, _), bracket = evaluate(x)
    best, recent, sigma, steps, stale = (rad, x, f, bracket), [f], 1.0, 0, 0
    while steps < max_iterations:
        d = step(x - sigma * g, sigma * epsilon) - x
        slope = SPG_ARMIJO * (g.dot(d) + epsilon * (phi(x + d) - phi(x)) if l1 else g.dot(d))
        f_ref, lam = max(recent), 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            xt = proj(x + lam * d)
            ft, gt, (rad, floor), bracket = evaluate(xt)
            # accepted, or the next trial (lam / 2) would move x by rounding only
            if (found := ft <= f_ref + lam * slope) or lam * _norm(d) <= 2.0 ** -51 * _norm(x):
                break
            lam *= 0.5
        if not found:
            break   # the search is exhausted
        s, y = xt - x, gt - g
        sy = s.dot(y)
        sigma = min(max(s.dot(s) / sy, SPG_SIGMA_MIN), SPG_SIGMA_MAX) if sy > 0 else SPG_SIGMA_MAX
        x, g, steps, recent = xt, gt, steps + 1, recent[1 - SPG_MEMORY:] + [ft]
        best, stale = ((rad, x, ft, bracket), 0) if rad < best[0] else (best, stale + 1)
        if rad <= 2.0 * floor or stale >= SPG_MEMORY:
            break
    if n_bad > PGE_MAX_NONCONVERGED_FRACTION * n_evals:
        raise DualGapUnreliableError(
            f"{n_bad}/{n_evals} dual-gap inner solves failed to converge; "
            "give the problem an exact oracle (ProblemInstance.dual_gap_exact)")
    rad, x, f, (value, upper) = best
    return x, PgeTrace(iterations=steps, n_nonconverged=n_bad, best_objective=f,
                       radius=rad if certified else None, gap=value, gap_upper=upper)


# ---------------------------------------------------------------------------
# high-accuracy references
# ---------------------------------------------------------------------------

def reference_solution(problem, epsilon: float = 0.0, reg: Optional[Regularizer] = None):
    """Solve a strongly monotone VI(T_eps, Omega) to machine-level residual.

    Runs at most 80 semismooth Newton steps (`_newton_step`) from
    P_Omega(0), each damped by halving until the natural residual
    H(x) = x - P_Omega(x - T(x)/alpha) decreases, stopping at
    ||H|| <= REFERENCE_RESIDUAL. It does not run the D-gap descent it is used to
    check.
    A residual r certifies the true theta_ab <= (beta-alpha)/2 * r^2, far
    below anything evaluable in floating point.

    Returns (x, residual_norm). Raises RuntimeError when the residual
    target is not reached.
    """
    F = problem.map
    if epsilon > 0 and (reg is None or not reg.smooth or reg.rho <= 0):
        raise ValueError("regularized reference needs a smooth strongly convex phi")
    if epsilon == 0.0 and not F.mu > 0:
        raise ValueError("unregularized reference needs a strongly monotone map")
    x = problem.set.project(np.zeros(F.dimension))
    theta = _theta_ab_kernel(problem, ALPHA, BETA, epsilon, reg)
    jac = _residual_jacobian_kernel(problem, ALPHA, epsilon, reg)
    h = x - theta(x)[1]
    nh = _norm(h)
    for _ in range(80):
        if nh <= REFERENCE_RESIDUAL:
            break
        step = _newton_step(theta, jac, x, h)
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
    if nh > REFERENCE_RESIDUAL:
        raise RuntimeError(
            f"reference solve stalled at residual {nh:.3e} (target {REFERENCE_RESIDUAL:.1e})")
    return x, nh
