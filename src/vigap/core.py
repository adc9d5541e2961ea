"""Domain types for monotone variational inequalities.

Operators, feasible sets with closed-form projections, convex regularizers,
and the regularized operator T = F + eps * grad(phi). Maps and sets are
frozen dataclasses and nothing changes a regularizer after construction;
evaluation and projection are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

try:  # the clip ufunc, without np.clip's Python-level dispatch
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    _clip = np.clip

__all__ = [
    "Vector",
    "DimensionMismatchError",
    "EvaluationError",
    "MonotoneMap",
    "FeasibleSet",
    "Regularizer",
    "as_point",
    "project_rows",
    "box",
    "shifted_orthant",
    "hyperplane",
    "halfspace",
    "ball",
    "psd_tolerance",
    "least_symmetric_eigenvalue",
    "affine_map",
    "tikhonov",
    "l1_regularizer",
    "regularized_operator",
]


class DimensionMismatchError(ValueError):
    """Point dimension does not match the object it is used with."""


class EvaluationError(RuntimeError):
    """An operator produced NaN/Inf output."""


def as_point(x, dim: Optional[int] = None) -> Vector:
    """Validate and return ``x`` as a finite 1-D float64 vector.

    Raises DimensionMismatchError on shape mismatch and ValueError on
    non-finite entries.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite entries")
    return v


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """An evaluable operator F: R^n -> R^n with declared constants.

    The declared Lipschitz constant and modulus are trusted inputs. F is
    evaluated wherever its formula is defined — membership of the argument
    in the feasible set is the caller's contract.

    Calling the map validates: the point must be a finite vector of the
    right dimension, and a non-finite value raises EvaluationError. The
    D-gap descent instead calls `evaluate` raw through
    `regularized_operator` and checks finiteness once per theta_ab value;
    the dual-gap ascent calls it raw once per evaluation, at its maximizer.

    Fields
    ------
    dimension : ambient dimension n
    evaluate : F itself
    lipschitz_L : declared Lipschitz constant on the feasible set
    mu : strong-monotonicity modulus; the map is strongly monotone iff
        mu > 0, merely monotone at mu = 0
    evaluate_rows : optional vectorized form mapping an (m, n) array of
        points to an (m, n) array of values
    inner_gradient : optional y-gradient of y -> <F(y), x - y>, used by the
        dual-gap inner maximization; signature (x, Y_rows) -> rows
    jacobian : optional x -> an (n, n) element of the generalized Jacobian
        of F at x, used by the semismooth Newton step
    """

    dimension: int
    evaluate: Callable[[Vector], Vector]
    lipschitz_L: float
    mu: float = 0.0
    evaluate_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inner_gradient: Optional[Callable[[Vector, np.ndarray], np.ndarray]] = None
    jacobian: Optional[Callable[[Vector], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if self.lipschitz_L < 0:
            raise ValueError("lipschitz_L must be nonnegative")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    def __call__(self, x: Vector) -> Vector:
        v = np.asarray(self.evaluate(as_point(x, self.dimension)), dtype=float)
        if not np.all(np.isfinite(v)):
            raise EvaluationError(f"operator {self.name or 'F'} returned non-finite values at {x}")
        return v

    def rows(self, Y: np.ndarray) -> np.ndarray:
        """Evaluate F on each row of Y."""
        if self.evaluate_rows is not None:
            return np.asarray(self.evaluate_rows(Y), dtype=float)
        return np.array([self.evaluate(y) for y in Y], dtype=float)


def psd_tolerance(A: np.ndarray) -> float:
    """Rounding allowance of a positive-semidefiniteness test built from A:
    a least eigenvalue of sym(A) at or above -psd_tolerance(A) counts as
    nonnegative."""
    return 1e-12 * max(1.0, float(np.abs(A).max()))


def least_symmetric_eigenvalue(M: np.ndarray) -> float:
    """The least eigenvalue of sym(M): the one monotonicity test of an affine
    F = Mx + q. Raises ValueError when it lies below -psd_tolerance(M), since
    sym(M) is then indefinite and F not monotone."""
    least = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    if least < -psd_tolerance(M):
        raise ValueError(f"the symmetric part of the matrix is indefinite (least eigenvalue "
                         f"{least:.3e}): F is not monotone")
    return least


def affine_map(M: np.ndarray, q, name: str = "affine") -> MonotoneMap:
    """F(x) = M x + q with sym(M) positive semidefinite (monotone affine map).

    Raises ValueError when sym(M) has an eigenvalue below -psd_tolerance(M)
    (F is then not monotone). mu is the least eigenvalue of sym(M) when it
    exceeds 1e-12, else 0.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if M.shape != (n, n):
        raise DimensionMismatchError(f"matrix shape {M.shape} does not match offset length {n}")
    least = least_symmetric_eigenvalue(M)
    return MonotoneMap(
        dimension=n,
        evaluate=lambda x: M @ x + q,
        evaluate_rows=lambda Y: Y @ M.T + q,
        inner_gradient=lambda x, Y: (x - Y) @ M - (Y @ M.T + q),
        jacobian=lambda x: M,
        lipschitz_L=float(np.linalg.norm(M, 2)),
        mu=least if least > 1e-12 else 0.0,
        name=name,
    )


# ---------------------------------------------------------------------------
# feasible sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """A closed convex set exposed through a projection oracle.

    `project_rows` projects each row of an (m, n) array (used by the
    vectorized inner solvers) and returns a new float array. A set built
    without one gets a loop over its `project` row by row, bound at
    construction: `replace(s, project_rows=None)` gives the same set with
    that loop, and a `replace` of `project` alone keeps the old rows.
    `project_jacobian`, optional, maps z to an (n, n) element of the
    generalized Jacobian of the projection at z (symmetric, eigenvalues in
    [0, 1]), used by the semismooth Newton step; callers do not modify it.
    `tangent_project`, optional, maps (x, v) to the projection of v onto the
    tangent cone at x, for the dual-gap radius; a bound is active only where x
    lies exactly on it, so a cone errs only larger, which loosens the radius.
    `l1_prox`, optional, maps (v, t) to argmin_z 0.5||z - v||^2 + t||z||_1 over
    the set, the prox step of the dual-gap route's l1 cells.
    `bounds`, set by `box` alone, is the box's (lower, upper) arrays.
    """

    dimension: int
    project: Callable[[Vector], Vector]
    contains: Callable[[Vector, float], bool]
    project_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    project_jacobian: Optional[Callable[[Vector], np.ndarray]] = None
    tangent_project: Optional[Callable[[Vector, Vector], Vector]] = None
    l1_prox: Optional[Callable[[Vector, float], Vector]] = None
    bounds: Optional[tuple] = None

    def __post_init__(self):
        if self.project_rows is None:
            project = self.project
            object.__setattr__(self, "project_rows",
                               lambda Z: np.array([project(z) for z in
                                                   np.asarray(Z, dtype=float)]))


def project_rows(feasible: FeasibleSet, Z: np.ndarray) -> np.ndarray:
    """Project each row of Z onto the set."""
    return feasible.project_rows(np.asarray(Z, dtype=float))


def _soft(v, t):
    """The soft threshold sign(v) max(|v| - t, 0), the prox of t||.||_1."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _plane_multiplier(a, b, v, t):
    """The lam with psi(lam) = <a, soft(v - lam a, t)> = b, which makes
    soft(v - lam a, t) the l1 prox on the plane <a, .> = b: psi falls with lam and
    is linear between the break points (v_i -+ t)/a_i and beyond both ends, so
    lam is interpolated exactly on the piece that brackets b."""
    nz = a != 0
    lam = np.sort(np.concatenate(((v[nz] - t) / a[nz], (v[nz] + t) / a[nz])))
    lam = np.concatenate(([lam[0] - 1.0 - abs(lam[0])], lam, [lam[-1] + 1.0 + abs(lam[-1])]))
    psi = a @ _soft(v[:, None] - a[:, None] * lam, t)
    k = min(max(int(np.searchsorted(-psi, -b)), 1), len(lam) - 1)
    (l0, l1), (p0, p1) = lam[k - 1:k + 1], psi[k - 1:k + 1]
    return l0 + (p0 - b) / (p0 - p1) * (l1 - l0) if p0 > p1 else l0


def box(lower, upper) -> FeasibleSet:
    """Axis-aligned box {l <= x <= u}; ±inf entries drop the constraint."""
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise DimensionMismatchError("box bounds must be 1-D and of equal length")
    if np.any(lo > hi):
        raise ValueError("box has lower > upper")
    # the clip ufunc, not the min/max form: with the bounds broadcast down a
    # single column that form breaks ties between -0.0 and 0.0 unlike np.clip
    clip = lambda z: _clip(z, lo, hi)   # one point or an array of rows alike
    return FeasibleSet(
        dimension=lo.shape[0],
        project=clip,
        project_rows=clip,
        project_jacobian=lambda z: np.diag(((lo < z) & (z < hi)).astype(float)),
        tangent_project=lambda x, v: np.where((x == lo) & (v < 0) | (x == hi) & (v > 0), 0.0, v),
        # separable into 1-D convex pieces, so the box clips the soft threshold
        l1_prox=lambda v, t: _clip(_soft(v, t), lo, hi),
        contains=lambda x, tol=1e-10: bool(np.all(x >= lo - tol) and np.all(x <= hi + tol)),
        bounds=(lo, hi),
    )


def shifted_orthant(lower) -> FeasibleSet:
    """Shifted nonnegative orthant {x >= l} (componentwise)."""
    lo = np.asarray(lower, dtype=float)
    return box(lo, np.full_like(lo, np.inf))


def hyperplane(normal, offset: float) -> FeasibleSet:
    """Affine hyperplane {<a, x> = b}."""
    a = np.asarray(normal, dtype=float)
    b = float(offset)
    nn = float(a @ a)
    if nn <= 0:
        raise ValueError("hyperplane normal must be nonzero")
    J = np.eye(a.shape[0]) - np.outer(a, a) / nn
    proj = lambda z: z - ((a @ z - b) / nn) * a
    return FeasibleSet(
        dimension=a.shape[0],
        project=proj,
        project_rows=lambda Z: Z - ((Z @ a - b) / nn)[:, None] * a,
        project_jacobian=lambda z: J,
        # projected once more, which puts the point on the plane to rounding
        l1_prox=lambda v, t: proj(_soft(v - _plane_multiplier(a, b, v, t) * a, t)),
        contains=lambda x, tol=1e-10: bool(abs(a @ x - b) <= tol * (1.0 + abs(b))),
    )


def halfspace(normal, offset: float) -> FeasibleSet:
    """Halfspace {<a, x> <= b}."""
    a = np.asarray(normal, dtype=float)
    b = float(offset)
    nn = float(a @ a)
    if nn <= 0:
        raise ValueError("halfspace normal must be nonzero")
    inside = np.eye(a.shape[0])
    outside = inside - np.outer(a, a) / nn
    proj = lambda z: z - (max(a @ z - b, 0.0) / nn) * a
    return FeasibleSet(
        dimension=a.shape[0],
        project=proj,
        project_rows=lambda Z: Z - (np.maximum(Z @ a - b, 0.0) / nn)[:, None] * a,
        project_jacobian=lambda z: outside if a @ z > b else inside,
        # the plane's multiplier clipped at 0: soft(v, t) itself where it is feasible
        l1_prox=lambda v, t: proj(_soft(v - max(_plane_multiplier(a, b, v, t), 0.0) * a, t)),
        contains=lambda x, tol=1e-10: bool(a @ x - b <= tol * (1.0 + abs(b))),
    )


def ball(center, radius: float) -> FeasibleSet:
    """Euclidean ball {||x - c|| <= r}."""
    c = np.asarray(center, dtype=float)
    r = float(radius)
    if r < 0:
        raise ValueError("ball radius must be nonnegative")

    def proj(z):
        d = z - c
        nd = np.linalg.norm(d)
        return z if nd <= r else c + (r / nd) * d

    def proj_rows(Z):
        D = Z - c
        nd = np.linalg.norm(D, axis=1)
        scale = np.where(nd <= r, 1.0, r / np.maximum(nd, 1e-300))
        return c + scale[:, None] * D

    def proj_jac(z):
        d = z - c
        nd = np.linalg.norm(d)
        if nd <= r:
            return np.eye(c.shape[0])
        return (r / nd) * (np.eye(c.shape[0]) - np.outer(d, d) / (nd * nd))

    def l1_prox(v, t):
        # z(lam) = soft((v + lam c)/(1 + lam), t/(1 + lam)) minimizes the Lagrangian
        # with multiplier lam of ||z - c||^2 <= r^2, and ||z(lam) - c|| falls with lam:
        # bisect to the sphere, keeping the feasible end
        z = lambda lam: _soft((v + lam * c) / (1.0 + lam), t / (1.0 + lam))
        out = lambda lam: np.linalg.norm(z(lam) - c) > r
        lo, hi = 0.0, 1.0 if out(0.0) else 0.0   # hi = 0: soft(v, t) is feasible
        while out(hi) and hi < 2.0 ** 64:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-15 * (1.0 + hi):   # z depends on lam through 1/(1 + lam)
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if out(mid) else (lo, mid)
        return proj(z(hi))

    return FeasibleSet(
        dimension=c.shape[0],
        project=proj,
        project_rows=proj_rows,
        project_jacobian=proj_jac,
        l1_prox=l1_prox,
        contains=lambda x, tol=1e-10: bool(np.linalg.norm(x - c) <= r + tol),
    )


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

class Regularizer:
    """Convex regularizer phi: a value and a gradient, or ||x||_1.

    phi is smooth exactly when it has a `gradient`, a float array that
    `regularized_operator` uses unwrapped; rho is the strong-convexity modulus
    (0 if merely convex), lipschitz_M the gradient Lipschitz constant (None
    without a gradient). `hessian`, optional, maps x to the (n, n) Hessian of
    phi, for the semismooth Newton step. `is_l1` is True only where phi is
    exactly ||x||_1 (`l1_regularizer`), which both routes take through the
    set's `l1_prox`; without it phi needs a gradient.
    """

    __slots__ = ("value", "gradient", "hessian", "rho", "lipschitz_M", "is_l1")

    def __init__(self, value: Callable[[Vector], float],
                 gradient: Optional[Callable[[Vector], Vector]] = None,
                 hessian: Optional[Callable[[Vector], np.ndarray]] = None,
                 rho: float = 0.0, lipschitz_M: Optional[float] = None, is_l1: bool = False):
        if gradient is None and not is_l1:
            raise ValueError("regularizer needs a gradient, or is_l1")
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        self.value, self.gradient, self.hessian = value, gradient, hessian
        self.rho, self.lipschitz_M, self.is_l1 = rho, lipschitz_M, is_l1

    @property
    def smooth(self) -> bool:
        return self.gradient is not None


def tikhonov() -> Regularizer:
    """phi(x) = 0.5 ||x||^2: strongly convex with rho = 1, grad Lipschitz M = 1."""
    return Regularizer(
        value=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.array(x, dtype=float),
        hessian=lambda x: np.eye(x.shape[0]),
        rho=1.0,
        lipschitz_M=1.0,
    )


def l1_regularizer() -> Regularizer:
    """phi(x) = ||x||_1, taken through the set's `l1_prox` on both routes."""
    return Regularizer(value=lambda x: float(np.abs(x).sum()), is_l1=True)


# ---------------------------------------------------------------------------
# regularized operator
# ---------------------------------------------------------------------------

def regularized_operator(fmap: MonotoneMap, reg: Optional[Regularizer],
                         epsilon: float) -> Callable[[Vector], Vector]:
    """T = F + eps * grad(phi) as a raw callable; T = F for eps = 0 and for the
    l1 norm, whose term the gap kernels take through the set's `l1_prox`.

    eps is checked once here, for every D-gap kernel and entry point: it must be
    nonnegative and finite. The returned callable validates nothing, so its
    caller checks the point beforehand and the result afterwards.
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be nonnegative and finite")
    F = fmap.evaluate
    if epsilon == 0.0 or reg is None or not reg.smooth:
        if reg is None and epsilon != 0.0:
            raise ValueError("epsilon > 0 requires a regularizer")
        return lambda x: np.asarray(F(x), dtype=float)
    g = reg.gradient
    return lambda x: np.asarray(F(x), dtype=float) + epsilon * g(x)
