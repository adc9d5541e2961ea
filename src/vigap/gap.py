"""Gap functions for VI(F, Omega) and its regularizations.

The regularized gap theta_alpha and the D-gap theta_ab are evaluated through
their closed projection forms; the dual gap G is evaluated numerically by a
multistart projected gradient ascent on y -> <F(y), x - y> over Omega.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .core import (
    EvaluationError,
    FeasibleSet,
    MonotoneMap,
    Regularizer,
    Vector,
    as_point,
    regularized_operator,
)

__all__ = [
    "GapEvaluation",
    "DualGapConfig",
    "y_alpha",
    "theta_alpha",
    "theta_ab",
    "dual_gap",
]


@dataclass
class GapEvaluation:
    """Value of a gap function at a point plus the inner point that produced it.

    For theta_alpha / theta_ab the maximizer is y_alpha(x) (closed form, so
    converged is always True and inner_iterations 0); maximizer_beta
    additionally carries y_beta(x) for the D-gap. For the dual gap the
    maximizer is the inner argmax and converged reflects the inner solve.
    """

    value: float
    maximizer: Vector
    alpha: Optional[float]
    beta: Optional[float]
    epsilon: float
    converged: bool = True
    inner_iterations: int = 0
    maximizer_beta: Optional[Vector] = None


@dataclass(frozen=True)
class DualGapConfig:
    """Budget and tolerances for the dual-gap inner maximization.

    multistarts counts all starts including the query point itself (and a
    warm start when one is passed). The random starts are drawn within
    1.5 * (1 + ||x||) of x, and the (adaptive) ascent step starts at
    1/(1 + L) using the operator's declared Lipschitz constant.
    """

    multistarts: int = 8
    max_iterations: int = 300
    tol: float = 1e-7
    seed: int = 0


# central-difference step (relative to 1 + ||y||) for maps without an
# analytic inner gradient
FD_STEP = 1e-6


def _non_finite(problem, what: str, x: Vector) -> EvaluationError:
    name = problem.map.name or "F"
    return EvaluationError(f"{what} is non-finite at {x} (operator {name})")


def y_alpha(problem, x: Vector, alpha: float, epsilon: float = 0.0,
            reg: Optional[Regularizer] = None) -> Vector:
    """Unique maximizer of the regularized gap: P_Omega(x - T(x)/alpha)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    x = as_point(x, problem.map.dimension)
    Tx = regularized_operator(problem.map, reg, epsilon)(x)
    if not np.all(np.isfinite(Tx)):
        raise _non_finite(problem, "T", x)
    return problem.set.project(x - Tx / alpha)


def theta_alpha(problem, x: Vector, alpha: float, epsilon: float = 0.0,
                reg: Optional[Regularizer] = None) -> GapEvaluation:
    """Regularized gap value <T(x), x-y> - (alpha/2)||y-x||^2 at y = y_alpha(x)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    x = as_point(x, problem.map.dimension)
    Tx = regularized_operator(problem.map, reg, epsilon)(x)
    y = problem.set.project(x - Tx / alpha)
    r = x - y
    val = float(Tx @ r) - 0.5 * alpha * float(r @ r)
    if not math.isfinite(val):
        raise _non_finite(problem, "theta_alpha", x)
    return GapEvaluation(value=val, maximizer=y, alpha=alpha, beta=None, epsilon=epsilon)


def _theta_ab_kernel(problem, alpha: float, beta: float, epsilon: float,
                     reg: Optional[Regularizer]):
    """Closure x -> (theta_ab(x), y_alpha(x), y_beta(x)) at fixed (alpha, beta,
    eps, phi): the D-gap as the descent loop evaluates it.

    x is not validated, and T is F's raw `evaluate`. One scalar check
    replaces a check of T(x): a non-finite entry of T(x) makes theta
    non-finite (its term in Tx @ ra is inf * r, inf * 0 or NaN), and a
    non-finite theta raises EvaluationError.
    """
    T = regularized_operator(problem.map, reg, epsilon)
    proj = problem.set.project

    def theta(x: Vector):
        Tx = T(x)
        ya = proj(x - Tx / alpha)
        yb = proj(x - Tx / beta)
        ra = x - ya
        rb = x - yb
        val = (float(Tx @ ra) - 0.5 * alpha * float(ra @ ra)
               - float(Tx @ rb) + 0.5 * beta * float(rb @ rb))
        if not math.isfinite(val):
            raise _non_finite(problem, "theta_ab", x)
        return val, ya, yb

    return theta


def theta_ab(problem, x: Vector, alpha: float, beta: float, epsilon: float = 0.0,
             reg: Optional[Regularizer] = None) -> GapEvaluation:
    """D-gap value theta_alpha - theta_beta (requires 0 < alpha < beta).

    Nonnegative on all of R^n and zero exactly at solutions of the
    (regularized) variational inequality.
    """
    if not (0 < alpha < beta):
        raise ValueError(f"need 0 < alpha < beta, got alpha={alpha}, beta={beta}")
    x = as_point(x, problem.map.dimension)
    val, ya, yb = _theta_ab_kernel(problem, alpha, beta, epsilon, reg)(x)
    return GapEvaluation(value=val, maximizer=ya, alpha=alpha, beta=beta, epsilon=epsilon,
                         maximizer_beta=yb)


# ---------------------------------------------------------------------------
# dual gap
# ---------------------------------------------------------------------------

def _fd_inner_gradient(F: MonotoneMap, x: Vector, Y: np.ndarray) -> np.ndarray:
    """Central differences of y -> <F(y), x - y>, for maps without an
    analytic inner gradient."""
    G = np.empty_like(Y)
    for i, y in enumerate(Y):
        h = FD_STEP * (1.0 + float(np.linalg.norm(y)))
        for j in range(Y.shape[1]):
            e = np.zeros_like(y)
            e[j] = h
            fp = float(np.asarray(F(y + e)) @ (x - y - e))
            fm = float(np.asarray(F(y - e)) @ (x - y + e))
            G[i, j] = (fp - fm) / (2.0 * h)
    return G


def dual_gap(problem, x: Vector, config: Optional[DualGapConfig] = None,
             warm: Optional[Vector] = None) -> GapEvaluation:
    """Evaluate G(x) = sup_{y in Omega} <F(y), x - y> from below.

    Multistart projected gradient ascent with a per-start adaptive step
    (expand on success, halve on failure). For affine monotone F the inner
    problem is concave, but the fixed budget can still fall short when M is
    ill-conditioned; for general F the solve is a heuristic. Either way a
    failure is flagged through the converged flag, never silently, and
    solve_pge raises DualGapUnreliableError when too many solves fail.

    x and warm are validated once here. The ascent then calls F's rows, the
    inner gradient and the set's row projection raw, and updates its points
    in place, so the set's `project_rows` must return a new float array.

    Parameters
    ----------
    problem : object with `map` (MonotoneMap) and `set` (FeasibleSet)
    x : evaluation point
    config : DualGapConfig, optional
    warm : optional warm-start inner point (used as an extra start)
    """
    cfg = config or DualGapConfig()
    F: MonotoneMap = problem.map
    omega: FeasibleSet = problem.set
    x = as_point(x, F.dimension)
    rng = np.random.default_rng(cfg.seed)
    radius = 1.5 * (1.0 + float(np.linalg.norm(x)))

    F_rows = F.rows
    grad = (F.inner_gradient if F.inner_gradient is not None
            else partial(_fd_inner_gradient, F))
    proj_rows = omega.project_rows
    cap = 4.0 * max(radius, 1.0)

    starts = [x]
    if warm is not None:
        starts.append(as_point(warm, F.dimension))
    n_rand = max(cfg.multistarts - len(starts), 0)
    Y = proj_rows(np.vstack([np.array(starts),
                             x + radius * rng.standard_normal((n_rand, F.dimension))]))
    steps = np.full(len(Y), 1.0 / (1.0 + F.lipschitz_L))

    f = np.einsum("ij,ij->i", F_rows(Y), x - Y)
    f_prev_best = float(f.max())
    collapse = 3e-10 * (1.0 + radius)
    stall = 0
    used = 0
    for it in range(cfg.max_iterations):
        used = it + 1
        cand = proj_rows(Y + steps[:, None] * grad(x, Y))
        fc = np.einsum("ij,ij->i", F_rows(cand), x - cand)
        better = fc > f
        np.copyto(Y, cand, where=better[:, None])
        np.copyto(f, fc, where=better)
        steps *= np.where(better, 1.2, 0.5)
        np.minimum(steps, cap, out=steps)
        if used % 12 == 0:
            fb = float(f.max())
            if fb - f_prev_best <= 1e-17 * (1.0 + abs(fb)):
                stall += 1
                # leave only once the incumbent's step has collapsed, so a
                # kink maximizer can still be flagged as stationary below
                if stall >= 2 and steps[int(np.argmax(f))] <= collapse:
                    break
            else:
                stall = 0
            f_prev_best = fb

    k = int(np.argmax(f))
    ybar = Y[k]
    g = np.asarray(grad(x, ybar[None, :])[0], dtype=float)
    s = 0.1 / (1.0 + float(np.linalg.norm(g)))
    res = float(np.linalg.norm(ybar - omega.project(ybar + s * g))) / s
    converged = (res <= cfg.tol) or (steps[k] <= collapse)
    return GapEvaluation(value=float(f[k]), maximizer=ybar, alpha=None, beta=None,
                         epsilon=0.0, converged=converged, inner_iterations=used)

