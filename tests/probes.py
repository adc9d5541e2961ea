"""Seeded sampling probes that check declared constants on sampled points:
monotonicity and Lipschitz constants of an operator, convexity of a
regularizer; and the seeded ill-conditioned 10-D box VI that several test
modules solve. Tests import them as `from probes import ...`."""
from typing import Callable

import numpy as np

from vigap.core import FeasibleSet, Regularizer, Vector, grad_or_subgrad, project_rows


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
        g = grad_or_subgrad(reg, x)
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
