"""Computable error bounds and regularization diagnostics.

Every bound returns a float (`dualgap_radius` also its floor). The D-gap bound with
its stopping threshold and the natural-residual bound certify inner solves of
VI(T_eps, Omega), `dualgap_radius` the dual-gap route; the weak-sharpness bound `eps_to_S0_bound`
relates regularized solutions to the unregularized solution set;
exactness_check classifies a candidate point through the dual gap.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Vector, as_point
from .gap import DUAL_GAP_TOL, _dual_gap_kernel, dual_gap

__all__ = [
    "EXACT",
    "NOT_EXACT",
    "INCONCLUSIVE",
    "DegenerateSamplesError",
    "SharpnessModel",
    "dgap_error_bound",
    "stopping_threshold",
    "residual_rounding",
    "residual_error_bound",
    "dualgap_radius",
    "eps_to_S0_bound",
    "order1_inequality",
    "exactness_check",
    "fit_sharpness",
]

EXACT = "exact"
NOT_EXACT = "not_exact"
INCONCLUSIVE = "inconclusive"

# `fit_sharpness` keeps samples whose distance to S0 lies in this window,
# above the numerical noise floor and short of the far field
SHARPNESS_WINDOW = (1e-4, 1.0)


class DegenerateSamplesError(ValueError):
    """Sharpness fit received samples with degenerate distance spread."""


class SharpnessModel:
    """Growth model G(x) >= alpha_sharp * d(x, S0)^gamma on Omega.

    gamma must exceed 1 (the order-1 case is handled by exactness checks
    and `order1_inequality`, not by a radius formula).
    """

    __slots__ = ("gamma", "alpha_sharp", "source")

    def __init__(self, gamma: float, alpha_sharp: float, source: str = "user_declared"):
        if not gamma > 1.0:
            raise ValueError("sharpness order gamma must exceed 1")
        if not alpha_sharp > 0.0:
            raise ValueError("alpha_sharp must be positive")
        self.gamma, self.alpha_sharp, self.source = gamma, alpha_sharp, source


def _check_dgap_inputs(L, M, rho, alpha, beta, epsilon):
    if not rho > 0:
        raise ValueError("rho must be positive")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not (0 < alpha < beta):
        raise ValueError("need 0 < alpha < beta")
    if not (0 <= L < math.inf and 0 <= M < math.inf):
        raise ValueError("Lipschitz constants must be finite and nonnegative")


def dgap_error_bound(theta_ab_value: float, L: float, M: float, rho: float,
                     alpha: float, beta: float, epsilon: float) -> float:
    """Distance bound ||x - x_eps|| <= ((beta+L+eps*M)/(eps*rho)) * sqrt(2 theta/(beta-alpha)).

    theta_ab_value is the D-gap of VI(T_eps, Omega) at x; the bound holds
    for F Lipschitz with constant L, grad(phi) Lipschitz with constant M
    and phi strongly convex with modulus rho.
    """
    _check_dgap_inputs(L, M, rho, alpha, beta, epsilon)
    if not 0 <= theta_ab_value < math.inf:
        raise ValueError("theta_ab_value must be finite and nonnegative")
    factor = (beta + L + epsilon * M) / (epsilon * rho)
    return factor * math.sqrt(2.0 * theta_ab_value / (beta - alpha))


def stopping_threshold(tau: float, L: float, M: float, rho: float,
                       alpha: float, beta: float, epsilon: float) -> float:
    """Implementable inner stopping level p = tau^2 / L_k^2.

    With L_k = ((beta+L+eps*M)/(eps*rho)) * sqrt(2/(beta-alpha)),
    theta_ab(x) <= p guarantees ||x - x_eps|| <= tau.
    """
    _check_dgap_inputs(L, M, rho, alpha, beta, epsilon)
    if not tau > 0:
        raise ValueError("tau must be positive")
    L_k = (beta + L + epsilon * M) / (epsilon * rho) * math.sqrt(2.0 / (beta - alpha))
    return tau ** 2 / L_k ** 2


def residual_rounding(x: Vector, Tx: Vector, alpha: float) -> float:
    """Float64 rounding of H(x) = x - P_Omega(x - T(x)/alpha), about
    n * u * (||x|| + ||T(x)||/alpha) with u the unit roundoff.

    Below this size an evaluated ||H(x)|| says nothing, and H may even
    evaluate to 0 at a point that is not x_eps.
    """
    scale = float(np.linalg.norm(x)) + float(np.linalg.norm(Tx)) / alpha
    return x.shape[0] * np.finfo(float).eps * scale


def residual_error_bound(r: float, L: float, M: float, rho: float, alpha: float,
                         epsilon: float, rounding: float = 0.0) -> float:
    """Distance bound ||x - x_eps|| <= ((L + eps*M + alpha)/(eps*rho)) * ||H(x)||
    from the natural residual H(x) = x - y_alpha(x), y_alpha(x) = P_Omega(x - T(x)/alpha).

    T = F + eps*grad(phi) is Lipschitz with L_T = L + eps*M and strongly
    monotone with mu = eps*rho, on all of R^n. With y = y_alpha(x) and
    x* = x_eps, the projection gives <T(x) - alpha (x - y), x* - y> >= 0 and
    the VI at x* gives <T(x*), y - x*> >= 0. Adding them and writing
    y - x* = (x - x*) - H(x):
        <T(x) - T(x*), x - x*> <= <T(x) - T(x*), H> + alpha <H, x - x*> - alpha ||H||^2,
    so mu ||x - x*||^2 <= (L_T + alpha) ||H|| ||x - x*||, which is the bound
    (Facchinei & Pang 2003, Prop. 6.3.1, at alpha = 1). It holds for every x
    in R^n, not only in Omega.

    r is the evaluated ||H(x)|| and rounding its float64 rounding (see
    `residual_rounding`); the radius uses max(r, rounding), so it stays
    sound where H evaluates to 0.
    """
    _check_dgap_inputs(L, M, rho, alpha, math.inf, epsilon)
    if not (0 <= r < math.inf and 0 <= rounding < math.inf):
        raise ValueError("residual and rounding must be finite and nonnegative")
    factor = (L + epsilon * M + alpha) / (epsilon * rho)
    return factor * max(r, rounding)


def dualgap_radius(a: float, delta: float, mu: float, epsilon: float, Fy: Vector, x: Vector):
    """(r, floor): ||x - x_eps|| <= r for x_eps = argmin_Omega G + eps*phi, floor the r
    of a = 0. mu = eps*rho > 0, a = ||P_{T_Omega(x)}(-g)||, g = F(ybar) + eps*grad(phi)(x)
    and delta = upper - value >= 0. For y in Omega, G(y) >= <F(ybar), y - ybar> >= G(x) -
    delta + <F(ybar), y - x>; with mu-strong convexity, x_eps's optimality and
    <-g, x_eps - x> <= a r (Moreau) this gives mu r^2 - a r - delta <= 0. Rounding of g, a
    and x's membership in Omega adds 4n(ulp(max|F(ybar)|) + eps*ulp(max|x|))/mu + 4*ulp(max|x|).
    """
    if not (mu > 0 and a >= 0 and delta >= 0):
        raise ValueError("need mu > 0 and a, delta nonnegative")
    ux = math.ulp(max(map(abs, x.tolist())))
    rounding = 4.0 * len(x) * (math.ulp(max(map(abs, Fy.tolist()))) + epsilon * ux) / mu + 4.0 * ux
    return ((a + math.sqrt(a * a + 4.0 * mu * delta)) / (2.0 * mu) + rounding,
            math.sqrt(delta / mu) + rounding)


def eps_to_S0_bound(sharp: SharpnessModel, M: float, epsilon: float) -> float:
    """Bound d(x_eps, S0) <= (eps * M / alpha_sharp)^(1/(gamma-1)) on either route.

    The hypothesis differs by route, the formula does not:

    * dual-gap route (x_eps minimizes G + eps*phi): the growth
      G(x) >= alpha_sharp * d(x, S0)^gamma on Omega, with M bounding ||v||
      over v in the phi-subdifferential on S0;
    * direct route (x_eps solves VI(F + eps*grad(phi), Omega)): the pointwise
      growth <F(P_S0(x)), x - P_S0(x)> >= alpha_sharp * d(x, S0)^gamma on
      Omega, a stronger requirement, with M bounding ||grad(phi)|| on S0.

    The bound is usually stated with an unnamed constant tau; the computable
    choice tau = M / alpha_sharp is used here. The order-1 case has no radius
    formula; see `order1_inequality`.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not M >= 0:
        raise ValueError("the (sub)gradient bound M must be nonnegative")
    return (epsilon * M / sharp.alpha_sharp) ** (1.0 / (sharp.gamma - 1.0))


def order1_inequality(alpha_sharp: float, epsilon: float, dist_S0: float,
                      phi_at_projection: float, phi_at_x: float):
    """Order-1 weak-sharpness consequence alpha * d(x_eps, S0) <= eps * (phi(xbar) - phi(x_eps)).

    Returns (lhs, rhs, holds), holds allowing lhs to exceed rhs by 1e-12;
    offered as a checkable inequality when phi values at x_eps and its
    S0-projection are available, replacing a radius for the order-1 case.
    """
    if not alpha_sharp > 0:
        raise ValueError("alpha_sharp must be positive")
    lhs = alpha_sharp * dist_S0
    rhs = epsilon * (phi_at_projection - phi_at_x)
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


def exactness_check(problem, x: Vector, tol: float = 1e-6) -> str:
    """Classify x through the dual gap: exact / not_exact / inconclusive, by
    `_verdict` on one evaluation of G at x. tol must be positive and finite,
    and should exceed DUAL_GAP_TOL by at least 10x to mean anything.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    x = as_point(x, problem.map.dimension)
    value, upper, *_ = _dual_gap_kernel(problem)(x)
    return _verdict(problem, x, value, upper, tol)


def _verdict(problem, x: Vector, value: float, upper: float, tol: float = 1e-6) -> str:
    """The exactness verdict of x from a bracket value <= G(x) <= upper: exact when
    G(x) <= tol and x lies in Omega to 1e-8, not_exact when G(x) > 10*tol and the
    bracket is at most DUAL_GAP_TOL wide (a converged G), else inconclusive."""
    if value <= tol and problem.set.contains(x, 1e-8):
        return EXACT
    if value > 10.0 * tol and upper - value <= DUAL_GAP_TOL:
        return NOT_EXACT
    return INCONCLUSIVE


def fit_sharpness(problem, samples) -> SharpnessModel:
    """Least-squares fit of log G(x) = log alpha_sharp + gamma log d(x, S0).

    Uses only samples whose distance to S0 lies inside SHARPNESS_WINDOW. The
    problem must carry a distance-to-S0 oracle. Raises DegenerateSamplesError
    when the kept distances have no usable spread.
    """
    oracle = getattr(problem, "solution_oracle", None)
    if oracle is None:
        raise ValueError("fit_sharpness needs a problem with a distance-to-S0 oracle")
    lo, hi = SHARPNESS_WINDOW
    logs_d = []
    logs_g = []
    for x in samples:
        x = as_point(x, problem.map.dimension)
        d = float(oracle.distance_to_S0(x))
        if not (lo <= d <= hi):
            continue
        g = dual_gap(problem, x).value
        if g <= 0:
            continue
        logs_d.append(math.log(d))
        logs_g.append(math.log(g))
    if len(logs_d) < 4:
        raise DegenerateSamplesError(
            f"only {len(logs_d)} usable samples in the distance window {SHARPNESS_WINDOW}")
    ld = np.asarray(logs_d)
    lg = np.asarray(logs_g)
    if float(ld.std()) < 1e-6:
        raise DegenerateSamplesError("samples are (numerically) equidistant from S0")
    A = np.column_stack([ld, np.ones_like(ld)])
    sol, *_ = np.linalg.lstsq(A, lg, rcond=None)
    return SharpnessModel(gamma=float(sol[0]), alpha_sharp=float(math.exp(sol[1])),
                          source="fitted")
