"""Seeded sampling probes that check declared constants on sampled points:
monotonicity and Lipschitz constants of an operator, convexity of a
regularizer; the seeded ill-conditioned 10-D box VI that several test
modules solve; and a projected subgradient reference for the dual-gap route.
Tests import them as `from probes import ...`."""
import math
from typing import Callable

import numpy as np

from vigap.core import FeasibleSet, Regularizer, Vector, as_point, project_rows
from vigap.gap import DUAL_GAP_TOL, _dual_gap_kernel, _non_finite
from vigap.solvers import (PGE_MAX_ITERATIONS, PGE_MAX_NONCONVERGED_FRACTION,
                           DualGapUnreliableError, PgeTrace, _norm)


def sample_in_set(feasible: FeasibleSet, n: int, seed: int = 0,
                  radius: float = 2.0) -> np.ndarray:
    """n seeded sample points in the set: projected Gaussian points about 0."""
    rng = np.random.default_rng(seed)
    return project_rows(feasible, radius * rng.standard_normal((n, feasible.dimension)))


def probe_monotonicity(op: Callable[[Vector], Vector], feasible: FeasibleSet,
                       n_pairs: int = 200, seed: int = 0, radius: float = 2.0,
                       mu: float = 0.0) -> float:
    """Worst sampled margin of <F(x)-F(y), x-y> - mu ||x-y||^2 over pairs in the set.

    Nonnegative (up to tolerance) iff F is monotone with modulus mu on the
    sample.
    """
    X = sample_in_set(feasible, n_pairs, seed=seed, radius=radius)
    Y = sample_in_set(feasible, n_pairs, seed=seed + 1, radius=radius)
    worst = np.inf
    for x, y in zip(X, Y):
        dxy = x - y
        margin = float((np.asarray(op(x)) - np.asarray(op(y))) @ dxy) - mu * float(dxy @ dxy)
        worst = min(worst, margin)
    return worst


def probe_lipschitz(op: Callable[[Vector], Vector], feasible: FeasibleSet,
                    n_pairs: int = 200, seed: int = 0, radius: float = 2.0) -> float:
    """Largest sampled ratio ||F(x)-F(y)|| / ||x-y|| over pairs in the set."""
    X = sample_in_set(feasible, n_pairs, seed=seed, radius=radius)
    Y = sample_in_set(feasible, n_pairs, seed=seed + 1, radius=radius)
    worst = 0.0
    for x, y in zip(X, Y):
        den = float(np.linalg.norm(x - y))
        if den < 1e-14:
            continue
        worst = max(worst, float(np.linalg.norm(np.asarray(op(x)) - np.asarray(op(y)))) / den)
    return worst


def probe_convexity(reg: Regularizer, dimension: int, n_pairs: int = 200, seed: int = 0,
                    radius: float = 2.0) -> tuple[float, float]:
    """Worst margins of the midpoint and subgradient inequalities for phi.

    Returns (midpoint_margin, subgradient_margin); both nonnegative (to
    tolerance) for a convex phi with a valid (sub)gradient.
    """
    rng = np.random.default_rng(seed)
    X = radius * rng.standard_normal((n_pairs, dimension))
    Y = radius * rng.standard_normal((n_pairs, dimension))
    worst_mid = np.inf
    worst_sub = np.inf
    for x, y in zip(X, Y):
        mid = 0.5 * reg.value(x) + 0.5 * reg.value(y) - reg.value(0.5 * (x + y))
        worst_mid = min(worst_mid, float(mid))
        g = reg.gradient(x) if reg.smooth else np.sign(x)   # a subgradient of ||.||_1
        sub = reg.value(y) - reg.value(x) - float(g @ (y - x))
        worst_sub = min(worst_sub, float(sub))
    return worst_mid, worst_sub


def ill_conditioned_box_vi(seed: int):
    """(M, q) of a 10-D affine VI on [-1, 1]^10: symmetric part with condition
    number 100 under a random rotation plus a skew part of norm 1."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    S = Q @ np.diag(np.geomspace(0.1, 10.0, 10)) @ Q.T
    B = rng.standard_normal((10, 10))
    K = (B - B.T) / np.linalg.norm(B - B.T, 2)
    return S + K, rng.standard_normal(10)


# the reference loop's initial Polyak relaxation as a fraction of |f(x0)|, its
# final value relative to 1 + |f(x0)|, and the relative probe step for the
# tangential subgradient
PGE_DELTA0_FRACTION = 0.25
PGE_DELTA_FINAL_REL = 1e-14
PGE_TANGENT_PROBE = 1e-7


def polyak_pge(problem, regularizer: Regularizer, epsilon: float, x0: Vector,
               max_iterations: int = PGE_MAX_ITERATIONS):
    """A reference for `solvers.solve_pge`: max_iterations projected subgradient
    steps x+ = P_Omega(x - t_j g), g = F(ybar(x)) + eps g_phi(x) with ybar the
    dual-gap inner maximizer, t_j = min((f - f_best + delta_j)/||g_T||^2,
    cap/||g_T||), delta_j decaying geometrically, cap = 2 (1 + ||x0||) and g_T
    the tangential part of g; returns the iterate of least objective and a
    PgeTrace. It takes a smooth phi or the l1 norm, whose subgradient is sign(x).
    """
    proj = problem.set.project
    g_phi = regularizer.gradient if regularizer.smooth else np.sign   # l1: the sign subgradient
    phi = regularizer.value
    G = _dual_gap_kernel(problem)
    x = proj(as_point(x0, problem.map.dimension))
    value, upper, _, Fy, _ = G(x)
    n_bad = 0 if upper - value <= DUAL_GAP_TOL else 1
    f = value + epsilon * phi(x)
    x_best, f_best = x.copy(), f

    scale0 = 1.0 + abs(f)
    delta = max(PGE_DELTA0_FRACTION * abs(f), 1e-12 * scale0)
    rho_decay = (PGE_DELTA_FINAL_REL * scale0 / delta) ** (1.0 / max_iterations)
    cap = 2.0 * (1.0 + _norm(x))

    j = 0
    for j in range(1, max_iterations + 1):
        sg = Fy + epsilon * g_phi(x)
        n_sg = _norm(sg)
        if not math.isfinite(n_sg):
            raise _non_finite(problem, "the subgradient F(ybar) + eps g_phi(x)", x)
        s = PGE_TANGENT_PROBE * (1.0 + _norm(x)) / (1.0 + n_sg)
        g_tan = (x - proj(x - s * sg)) / s
        n_tan = _norm(g_tan)
        if n_tan <= 1e-14:
            break  # subgradient is normal to Omega at x: stationary
        t = min((f - f_best + delta) / n_tan ** 2, cap / n_tan)
        x = proj(x - t * sg)
        value, upper, _, Fy, _ = G(x)
        if not upper - value <= DUAL_GAP_TOL:
            n_bad += 1
        f = value + epsilon * phi(x)
        if f < f_best:
            f_best, x_best = f, x.copy()
        delta *= rho_decay
        if j >= 20 and n_bad > PGE_MAX_NONCONVERGED_FRACTION * (j + 1):
            raise DualGapUnreliableError(
                f"{n_bad}/{j + 1} dual-gap inner solves failed to converge; "
                "give the problem an exact oracle (ProblemInstance.dual_gap_exact)")
    return x_best, PgeTrace(iterations=j, n_nonconverged=n_bad, best_objective=f_best)
