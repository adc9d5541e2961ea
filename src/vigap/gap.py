"""Gap functions for VI(F, Omega) and its regularizations.

theta_alpha and the D-gap theta_ab take their maximizers in closed form (a
projection, or the set's l1 prox for the l1 norm). The dual gap G(x) = sup_{y in Omega}
<F(y), x - y> is exact where the problem carries a `dual_gap_exact` oracle:
the closed form of example5_1, and the certified concave box QP of
`affine_box_dual_gap` for affine monotone F on a finite box (the built-in
affine box instances and affine box problem files). Every other problem falls
back to a multistart projected gradient ascent, which bounds G from below:
`solvers.solve_pge` runs one loop on either G, but certifies a distance only
on an exact one.
"""
from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    _clip,
    EvaluationError,
    FeasibleSet,
    MonotoneMap,
    Regularizer,
    Vector,
    as_point,
    least_symmetric_eigenvalue,
    psd_tolerance,
    regularized_operator,
)

__all__ = [
    "GapEvaluation",
    "theta_alpha",
    "theta_ab",
    "dual_gap",
    "affine_box_dual_gap",
]


class GapEvaluation(NamedTuple):
    """Value of a gap function at a point plus the inner point that produced it.

    For theta_alpha / theta_ab the maximizer is y_alpha(x) (closed form, so
    converged is always True and inner_iterations 0); maximizer_beta
    additionally carries y_beta(x) for the D-gap. For the dual gap, built
    once per `dual_gap` call, the maximizer is the inner argmax, converged
    reflects the inner solve, and upper is an exact oracle's certified upper
    bound on G(x), None for the ascent, which only bounds G from below.
    """

    value: float
    maximizer: Vector
    converged: bool = True
    inner_iterations: int = 0
    maximizer_beta: Optional[Vector] = None
    upper: Optional[float] = None


# an evaluation is converged when an exact oracle's bracket [value, upper]
# is at most DUAL_GAP_TOL wide, or when the ascent's projected-gradient
# residual is at most DUAL_GAP_TOL. The ascent runs ASCENT_STARTS starts,
# counting the query point itself and, within one solve, the previous
# maximizer; the others are drawn within 1.5 (1 + ||x||) of x from a
# generator seeded with 0 on every call. Each start takes at most
# ASCENT_MAX_ITER steps of an adaptive step size that begins at 1/(1 + L).
DUAL_GAP_TOL = 1e-7
ASCENT_STARTS = 8
ASCENT_MAX_ITER = 300
# central-difference step (relative to 1 + ||y||) for maps without an
# analytic inner gradient
FD_STEP = 1e-6


def _non_finite(problem, what: str, x: Vector) -> EvaluationError:
    name = problem.map.name or "F"
    return EvaluationError(f"{what} is non-finite at {x} (operator {name})")


def _maximizer(problem, epsilon: float, reg: Optional[Regularizer]):
    """(T, step, psi): theta_gamma(x) = <T(x), x - y> + eps (psi(x) - psi(y))
    - (gamma/2)||x - y||^2 at its maximizer y = step(x - T(x)/gamma, eps/gamma).
    For `l1_regularizer()` at eps > 0, the mixed VI's gap (Solodov 2003): T = F,
    psi = ||.||_1, step the set's `l1_prox`. Else T = F + eps grad(phi), no psi,
    and step projects."""
    T = regularized_operator(problem.map, reg, epsilon)
    if epsilon > 0.0 and reg.is_l1:
        if problem.set.l1_prox is None:
            raise ValueError("the l1 regularizer needs a set with an l1_prox")
        return T, problem.set.l1_prox, reg.value
    proj = problem.set.project
    return T, lambda v, t: proj(v), None


def theta_alpha(problem, x: Vector, alpha: float, epsilon: float = 0.0,
                reg: Optional[Regularizer] = None) -> GapEvaluation:
    """Regularized gap value theta_alpha(x) (see `_maximizer`; for the l1 norm the
    mixed VI's) at its unique maximizer y = y_alpha(x), returned as `maximizer`.

    A non-finite entry of T(x) makes the value non-finite, which raises
    EvaluationError.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    x = as_point(x, problem.map.dimension)
    T, step, psi = _maximizer(problem, epsilon, reg)
    Tx = T(x)
    y = step(x - Tx / alpha, epsilon / alpha)
    r = x - y
    val = float(Tx @ r) - 0.5 * alpha * float(r @ r)
    if psi is not None:
        val += epsilon * (psi(x) - psi(y))
    if not math.isfinite(val):
        raise _non_finite(problem, "theta_alpha", x)
    return GapEvaluation(value=val, maximizer=y)


def _theta_ab_kernel(problem, alpha: float, beta: float, epsilon: float,
                     reg: Optional[Regularizer]):
    """Closure x -> (theta_ab(x), y_alpha(x), y_beta(x)) at fixed (alpha, beta,
    eps, phi): the D-gap as the descent loop evaluates it; psi(x) cancels.

    x is not validated, and T is F's raw `evaluate`. One scalar check
    replaces a check of T(x): a non-finite entry of T(x) makes theta
    non-finite (its term in Tx @ ra is inf * r, inf * 0 or NaN), and a
    non-finite theta raises EvaluationError.
    """
    T, step, psi = _maximizer(problem, epsilon, reg)

    def theta(x: Vector):
        Tx = T(x)
        ya = step(x - Tx / alpha, epsilon / alpha)
        yb = step(x - Tx / beta, epsilon / beta)
        ra = x - ya
        rb = x - yb
        val = (float(Tx @ ra) - 0.5 * alpha * float(ra @ ra)
               - float(Tx @ rb) + 0.5 * beta * float(rb @ rb))
        if psi is not None:
            val += epsilon * (psi(yb) - psi(ya))
        if not math.isfinite(val):
            raise _non_finite(problem, "theta_ab", x)
        return val, ya, yb

    return theta


def _residual_jacobian_kernel(problem, alpha: float, epsilon: float,
                              reg: Optional[Regularizer]):
    """Closure x -> J_H(x), an element of the generalized Jacobian of the
    natural residual H(x) = x - P_Omega(z), z = x - T(x)/alpha, at fixed
    (alpha, eps, phi):

        J_H(x) = I - dP(z) (I - (J_F(x) + eps Hess phi(x)) / alpha),

    from the map's `jacobian`, the set's `project_jacobian` and, for eps > 0,
    phi's `hessian`. None when one of those hooks is missing. x is not
    validated, and z is computed as `_theta_ab_kernel` computes it, so dP is
    taken at the point whose projection is y_alpha(x).
    """
    T = regularized_operator(problem.map, reg, epsilon)
    JF, JP = problem.map.jacobian, problem.set.project_jacobian
    hess = reg.hessian if epsilon != 0.0 else None
    if JF is None or JP is None or (epsilon != 0.0 and hess is None):
        return None
    eye = np.eye(problem.map.dimension)

    def jac(x: Vector) -> np.ndarray:
        JT = JF(x) if hess is None else JF(x) + epsilon * hess(x)
        return eye - JP(x - T(x) / alpha) @ (eye - JT / alpha)

    return jac


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
    return GapEvaluation(value=val, maximizer=ya, maximizer_beta=yb)


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


def _dual_gap_kernel(problem):
    """Raw x -> (value, upper, ybar, F(ybar), steps) of G, converged when
    upper - value <= DUAL_GAP_TOL: the dual gap as solve_pge evaluates it.

    x is not validated. With a `dual_gap_exact` oracle the kernel is the
    oracle. Otherwise it is the multistart ascent on F's rows, the inner
    gradient and the set's row projection, resolved here once; it updates its
    points in place, so `project_rows` must return a new float array. Calls
    after the first also start from the previous maximizer: one kernel per
    solve. The ascent certifies no bound: upper is its value when it passes
    its stationarity test and inf when not. It evaluates F once, at ybar.
    """
    exact = getattr(problem, "dual_gap_exact", None)
    if exact is not None:
        return exact

    F: MonotoneMap = problem.map
    omega: FeasibleSet = problem.set
    F_rows = F.rows
    grad = (F.inner_gradient if F.inner_gradient is not None
            else partial(_fd_inner_gradient, F))
    proj_rows = omega.project_rows
    step0 = 1.0 / (1.0 + F.lipschitz_L)
    warm = None

    def ascent(x: Vector):
        nonlocal warm
        rng = np.random.default_rng(0)
        radius = 1.5 * (1.0 + float(np.linalg.norm(x)))
        cap = 4.0 * max(radius, 1.0)
        starts = [x] if warm is None else [x, warm]
        n_rand = max(ASCENT_STARTS - len(starts), 0)
        Y = proj_rows(np.vstack([np.array(starts),
                                 x + radius * rng.standard_normal((n_rand, F.dimension))]))
        steps = np.full(len(Y), step0)

        f = np.einsum("ij,ij->i", F_rows(Y), x - Y)
        f_prev_best = float(f.max())
        collapse = 3e-10 * (1.0 + radius)
        stall = 0
        used = 0
        for it in range(ASCENT_MAX_ITER):
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
        warm, value = ybar, float(f[k])
        upper = value if (res <= DUAL_GAP_TOL) or (steps[k] <= collapse) else math.inf
        return value, upper, ybar, np.asarray(F.evaluate(ybar), dtype=float), used

    return ascent


def dual_gap(problem, x: Vector) -> GapEvaluation:
    """Evaluate G(x) = sup_{y in Omega} <F(y), x - y>.

    A problem with a `dual_gap_exact` oracle gets the oracle's answer, which
    brackets G between its value and its `upper` bound; it is converged when
    the bracket is at most DUAL_GAP_TOL wide. example5_1 has a closed form, and
    affine monotone F on a finite box a certified concave QP
    (`affine_box_dual_gap`).

    Every other problem gets G from below by a multistart projected gradient
    ascent with a per-start adaptive step (expand on success, halve on
    failure) and a fixed budget. For general F this is a heuristic, so a
    failure is flagged through the converged flag, never silently, and
    solve_pge raises DualGapUnreliableError when too many of a run's solves fail.

    x is validated here; the evaluation is one call of a new raw kernel
    `_dual_gap_kernel`, the one solve_pge calls, so it has no warm start.

    Parameters
    ----------
    problem : object with `map` (MonotoneMap) and `set` (FeasibleSet), and
        optionally `dual_gap_exact` (see ProblemInstance)
    x : evaluation point
    """
    value, upper, ybar, _, steps = _dual_gap_kernel(problem)(as_point(x, problem.map.dimension))
    certified = getattr(problem, "dual_gap_exact", None) is not None
    return GapEvaluation(value=value, maximizer=ybar, converged=upper - value <= DUAL_GAP_TOL,
                         inner_iterations=steps, upper=upper if certified else None)


# Newton iterations and Armijo halvings of the affine box oracle, the Armijo
# constant of its projected path, and the widest band next to a bound, as a
# share of the box's side, in which a bound is held; the QP is solved to
# rounding within a few Newton steps once the bounds at the optimum are found
QP_MAX_ITER = 100
QP_MAX_HALVINGS = 60
QP_ARMIJO = 1e-4
QP_HOLD = 1e-3


def affine_box_dual_gap(M, q, lower, upper):
    """Exact dual-gap oracle x -> (value, upper, ybar, F(ybar), steps), F = My + q, on a box.

    h(y) = <My + q, x - y> is a concave quadratic when the symmetric part of
    M is positive semidefinite, so G(x) = max_{box} h is a concave box QP. It
    is solved by projected Newton (Bertsekas 1982): a Newton step on the
    coordinates not held at a bound (numpy lstsq, since sym(M) may be
    singular, with the face's singular values at rounding level taken as
    zero, plus the part of the gradient in its null space, along which h
    rises linearly up to the box), an Armijo step along the projected path,
    and the bounds within the last projected-gradient step held as active.
    The result ybar is certified by the Frank-Wolfe bracket
    h(ybar) <= G(x) <= h(ybar) + max_{z in box} <grad h(ybar), z - ybar>,
    returned as (value, upper), with F(ybar) = M ybar + q from the last
    evaluation of h, as `core.affine_map` computes it.

    Returns None when the box has an infinite bound (the bracket is then
    infinite) or sym(M) fails `core.least_symmetric_eigenvalue`'s test, the
    one `core.affine_map` makes (h is then not concave and the bracket does
    not bound G), so such problems keep the ascent.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    H = M + M.T   # minus the Hessian of h
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        return None
    try:
        least_symmetric_eigenvalue(M)
    except ValueError:
        return None
    # an eigenvalue of H = 2 sym(M) at most this in size is rounding: the
    # monotonicity test lets one this far below zero pass as zero
    null = 2.0 * psd_tolerance(M)
    reach = float(np.linalg.norm(hi - lo))
    band = QP_HOLD * (hi - lo)

    def h(x, y):
        Fy = M @ y + q
        return float(Fy @ (x - y)), Fy

    def oracle(x: Vector):
        b = M.T @ x - q   # grad h(y) = b - H y
        y = _clip(x, lo, hi)
        hy, Fy = h(x, y)
        steps, held_prev, settled = 0, None, False
        for _ in range(QP_MAX_ITER):
            g = b - H @ y
            # a bound is held when the gradient pushes against it and y lies
            # within the projected-gradient step of it (at most QP_HOLD of the
            # box's side); held coordinates move onto their bound
            near = np.minimum(float(np.linalg.norm(y - _clip(y + g, lo, hi))), band)
            held = ((y <= lo + near) & (g < 0.0)) | ((y >= hi - near) & (g > 0.0))
            if settled and np.array_equal(held, held_prev):
                break   # y maximizes h on this face, and the face is unchanged
            d = np.where(held, np.where(g < 0.0, lo, hi) - y, 0.0)
            free = ~held
            if free.any():
                HF = H[np.ix_(free, free)]
                gF = g[free]
                dF, _, _, sv = np.linalg.lstsq(HF, gF, rcond=None)
                if sv[-1] <= null:   # h is linear along it: solve without it
                    dF = (np.linalg.lstsq(HF, gF, rcond=null / sv[0])[0] if sv[0] > null
                          else np.zeros_like(gF))
                r = gF - HF @ dF   # gradient in null(H_FF): h rises linearly along it
                nr = float(np.linalg.norm(r))
                if nr > 1e-12 * (1.0 + float(np.linalg.norm(gF))):
                    dF = dF + (reach / nr) * r
                d[free] = dF
            alpha = 1.0
            for _ in range(QP_MAX_HALVINGS):
                yn = _clip(y + alpha * d, lo, hi)
                hn, Fn = h(x, yn)
                if hn >= hy + QP_ARMIJO * float(g @ (yn - y)) and hn >= hy:
                    break
                alpha *= 0.5
            else:
                break
            if np.array_equal(yn, y):
                break
            # a full, unclipped Newton step on a face whose held bounds did
            # not move lands on the maximizer of h on that face
            settled = alpha == 1.0 and not d[held].any() and np.array_equal(yn, y + d)
            y, hy, Fy, held_prev = yn, hn, Fn, held
            steps += 1
        g = b - H @ y
        width = float(np.maximum(g * (hi - y), g * (lo - y)).sum())
        return hy, hy + width, y, Fy, steps

    return oracle
