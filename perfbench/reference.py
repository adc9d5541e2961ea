"""Reference answers for the benchmark, computed without importing vigap.

Example 5.1 (F(x) = x - P_C(x) with C = {x >= (0, -1/4, 1/4)}, on
Omega = {x : x1 <= 1, x2 + x3 = -1}) has closed-form regularized solutions.
The affine box VIs of the `affine10-box` workload have M + M' positive
definite, so F + eps x is strongly monotone: their solutions come from a
projected fixed-point contraction, polished on the active set it settles on,
which gives machine-precision answers. Their dual gap G is a concave box QP,
solved with scipy's bounded-variable least squares and polished the same way.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import lsq_linear

# ---------------------------------------------------------------------------
# example 5.1
# ---------------------------------------------------------------------------

BA_SHIFT = np.array([0.0, -0.25, 0.25])
# the point of the solution segment S0 = {(t, -3/4, -1/4) : t in [0, 1]}
# that every route reaches from the start (1, -2, 1), and both l1 answers
BA_XSTAR = np.array([0.0, -0.75, -0.25])
# G(x) = d(x, S0)^2 / 4 holds on Omega within this distance of S0
BA_GAP_RADIUS = 0.25


def ba_F(x):
    x = np.asarray(x, dtype=float)
    return np.minimum(x - BA_SHIFT, 0.0)


def ba_project(z):
    """Projection onto Omega: clip x1 at 1, move (x2, x3) onto x2 + x3 = -1."""
    z = np.asarray(z, dtype=float)
    s = 0.5 * (z[1] + z[2] + 1.0)
    return np.array([min(z[0], 1.0), z[1] - s, z[2] - s])


def ba_dist_S0(x):
    x = np.asarray(x, dtype=float)
    t = min(max(x[0], 0.0), 1.0)
    return float(np.linalg.norm(x - np.array([t, -0.75, -0.25])))


def ba_solution(model: str, reg: str, eps: float):
    """Regularized solution reached from (1, -2, 1).

    Both l1 routes give BA_XSTAR. With phi = ||x||^2 / 2 the solution is
    (0, -3/4 + t, -1/4 - t) with t = eps / (4 (1 + eps)) on the direct route
    and t = eps / (2 (1 + 2 eps)) on the dual-gap route.
    """
    if reg == "l1":
        return BA_XSTAR.copy()
    if model == "direct":
        t = eps / (4.0 * (1.0 + eps))
    else:
        t = eps / (2.0 * (1.0 + 2.0 * eps))
    return np.array([0.0, -0.75 + t, -0.25 - t])


def ba_dual_gap(x):
    """G(x) = d(x, S0)^2 / 4, valid for x in Omega with d(x, S0) <= BA_GAP_RADIUS."""
    d = ba_dist_S0(x)
    if d > BA_GAP_RADIUS:
        raise ValueError(f"closed form for G holds within {BA_GAP_RADIUS} of S0, not at {d:.3g}")
    return d * d / 4.0


# ---------------------------------------------------------------------------
# shared gap formula
# ---------------------------------------------------------------------------

def dgap(T, project, x, alpha=1.0, beta=2.0):
    """D-gap theta_ab(x) = theta_alpha(x) - theta_beta(x) of the operator T."""
    x = np.asarray(x, dtype=float)
    T = T(x)
    ra = x - project(x - T / alpha)
    rb = x - project(x - T / beta)
    return float(T @ ra - 0.5 * alpha * (ra @ ra) - T @ rb + 0.5 * beta * (rb @ rb))


# ---------------------------------------------------------------------------
# affine VIs on a box
# ---------------------------------------------------------------------------

def _box_qp(H, g, lo, hi):
    """argmin 0.5 y'Hy + g'y over lo <= y <= hi, H symmetric positive definite."""
    L = np.linalg.cholesky(H)                     # H = L L'
    b = -np.linalg.solve(L, g)                    # 0.5 ||L'y - b||^2 = 0.5 y'Hy + g'y + c
    y = np.clip(lsq_linear(L.T, b, bounds=(lo, hi), method="bvls", tol=1e-15).x, lo, hi)
    return _polish(H, g, y, lo, hi)


def _polish(A, q, y, lo, hi):
    """Re-solve A y + q = 0 exactly on the coordinates of y that are off the bounds."""
    free = (y > lo) & (y < hi)
    if free.any():
        rhs = -(q[free] + A[np.ix_(free, ~free)] @ y[~free])
        y = y.copy()
        y[free] = np.clip(np.linalg.solve(A[np.ix_(free, free)], rhs), lo[free], hi[free])
    return y


class BoxAffineVI:
    """VI(Mx + q, [lo, hi]) with M + M' positive definite; M may have a skew part."""

    # the projected fixed-point iteration stops after this many steps at most
    MAX_CONTRACTIONS = 100_000

    def __init__(self, M, q, lo, hi):
        self.M = np.asarray(M, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.S = 0.5 * (self.M + self.M.T)
        if np.linalg.eigvalsh(self.S).min() <= 0.0:
            raise ValueError("reference solves need M + M' positive definite")

    def F(self, x):
        return self.M @ x + self.q

    def project(self, z):
        return np.clip(z, self.lo, self.hi)

    def solution(self, eps: float = 0.0):
        """x* (eps = 0) or the Tikhonov solution x_eps of VI(F + eps * x, box).

        A = M + eps I is strongly monotone with modulus mu (least eigenvalue
        of its symmetric part) and Lipschitz with constant L = ||A||, so
        x <- P(x - (mu / L^2)(A x + q)) contracts by sqrt(1 - mu^2 / L^2) a
        step; it runs until a step moves the iterate by 1e-15 at most, and the
        result is polished on the active set it settled on.
        """
        A = self.M + eps * np.eye(len(self.q))
        mu = float(np.linalg.eigvalsh(0.5 * (A + A.T)).min())
        step = mu / float(np.linalg.norm(A, 2)) ** 2
        x = self.project(np.zeros(len(self.q)))
        for _ in range(self.MAX_CONTRACTIONS):
            x_next = self.project(x - step * (A @ x + self.q))
            moved = float(np.linalg.norm(x_next - x))
            x = x_next
            if moved <= 1e-15:
                break
        polished = _polish(A, self.q, x, self.lo, self.hi)
        if self.natural_residual(polished, eps) <= self.natural_residual(x, eps):
            x = polished
        return x

    def natural_residual(self, x, eps: float = 0.0):
        """||x - P(x - (F(x) + eps x))||, zero exactly at the solution."""
        return float(np.linalg.norm(x - self.project(x - self.F(x) - eps * x)))

    def dual_gap(self, x):
        """G(x) = max over the box of <My + q, x - y>, a concave QP in y."""
        x = np.asarray(x, dtype=float)
        # <My + q, x - y> = -y'Sy + y'(M'x - q) + q'x with S the symmetric part of M
        y = _box_qp(2.0 * self.S, -(self.M.T @ x - self.q), self.lo, self.hi)
        return float((self.M @ y + self.q) @ (x - y))
