"""Built-in problem instances with solution oracles and brute-force gap oracles.

A best-approximation benchmark (a monotone, non-strongly-monotone VI with
a segment of solutions), seeded affine monotone VIs, and small strongly
monotone problems with closed-form solutions, each affine one built by
`affine_problem`. Grid oracles cover dimensions one and two for
cross-checking the explicit gap formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    DimensionMismatchError,
    FeasibleSet,
    MonotoneMap,
    Regularizer,
    Vector,
    affine_map,
    as_point,
    ball,
    box,
    project_rows,
    regularized_operator,
)
from .gap import affine_box_dual_gap

__all__ = [
    "SolutionOracle",
    "ProblemInstance",
    "example_5_1",
    "affine_problem",
    "affine_monotone",
    "strongly_monotone_quadratic",
    "sharp_quadratic_ball",
    "brute_force_gap",
    "brute_force_dual_gap",
    "get_problem",
    "BUILTIN_PROBLEMS",
]


class SolutionOracle(NamedTuple):
    """Closed-form (or cached high-accuracy) description of S0."""

    distance_to_S0: Callable[[Vector], float]
    sample_S0: Callable[[int, int], np.ndarray]  # (count, seed) -> rows


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A variational inequality problem: operator, set, and optional oracles.

    The dimension is the map's; the set must have the same. dual_gap_exact,
    when set, replaces the ascent of `gap.dual_gap` and `solvers.solve_pge`:
    a raw x -> (value, upper, ybar, F(ybar), steps) of G(x) with a certified
    upper >= G(x) and F(ybar) bit for bit as F's `evaluate` gives it; for
    affine F, `affine_problem` chooses it from the set. Only its bracket lets
    `solve_pge` certify a radius; on the ascent a dual-gap cell has none.
    """

    name: str
    map: MonotoneMap
    set: FeasibleSet
    solution_oracle: Optional[SolutionOracle] = None
    default_x0: Optional[Vector] = None
    bounding_box: Optional[tuple] = None  # (lower, upper) arrays for grid oracles
    dual_gap_exact: Optional[Callable[[Vector], tuple]] = None

    def __post_init__(self):
        if self.set.dimension != self.map.dimension:
            raise DimensionMismatchError(
                f"set dimension {self.set.dimension} does not match operator "
                f"dimension {self.map.dimension}")

    @property
    def dimension(self) -> int:
        return self.map.dimension


# ---------------------------------------------------------------------------
# best-approximation benchmark
# ---------------------------------------------------------------------------

_BA_SHIFT = np.array([0.0, -0.25, 0.25])


def example_5_1() -> ProblemInstance:
    """Best-approximation instance: F(x) = x - P_C(x) on a half-plane.

    C is the shifted orthant {x >= (0, -1/4, 1/4)} and Omega the set
    {x : x2 + x3 = -1, x1 <= 1}. F is monotone (not strongly) with declared
    Lipschitz constant 2, and the solution set is the segment
    {(t, -3/4, -1/4) : t in [0, 1]}. Its generalized Jacobian element is
    diag(x < s).

    Omega projects in closed form, bit for bit as the product of the box
    x1 <= 1 and the hyperplane x2 + x3 = -1 would: (min(z1, 1), z2 - c,
    z3 - c) with c = (z2 + z3 + 1)/2, whose Jacobian element is
    blockdiag([z1 < 1], I - 11^T/2).

    The prox of t||.||_1 on Omega splits the same way: z1 = min(soft(v1, t), 1),
    and on the line z = (u, -1 - u) it minimizes (u - w)^2 + t(|u| + |1 + u|)
    with w = (v2 - v3 - 1)/2, whose slope term is 2 above u = 0, 0 on
    [-1, 0] and -2 below u = -1: u = w - t for w > t, w + t for w < -1 - t,
    else clip(w, -1, 0).

    G has a closed form: F(y) = min(y - s, 0) is separable, so the inner
    objective <F(y), x - y> splits into a concave quadratic in y1 <= 1,
    peaking at min(x1/2, 0), and, along y = (u, -1 - u) on the hyperplane, a
    continuous function of u made of three concave quadratic pieces split
    at the kinks u = -1.25 and u = -0.25. Each piece's vertex, clamped into
    its interval, is a candidate, and G is the best of the three. The
    oracle evaluates the three candidates on Python floats, summing
    <F(y), x - y> in numpy einsum's order, and builds arrays only for the
    winning ybar and F(ybar); tests/test_gap.py pins it bit for bit to the
    array form (np.clip, F's rows, einsum, argmax).
    """

    def F(x):
        # one expression for a point and for an array of rows
        return x - np.maximum(x, _BA_SHIFT)

    def inner_grad(x, Y):
        # d/dy <F(y), x - y> = J_F(y)(x - y) - F(y), J_F = diag(y < shift) a.e.
        return (Y < _BA_SHIFT).astype(float) * (x - Y) - F(Y)

    F_map = MonotoneMap(
        dimension=3,
        evaluate=F,
        evaluate_rows=F,
        inner_gradient=inner_grad,
        jacobian=lambda x: np.diag((x < _BA_SHIFT).astype(float)),
        lipschitz_L=2.0,
        name="I_minus_P_C",
    )

    def proj(z):
        z1, z2, z3 = np.asarray(z, dtype=float).tolist()
        c = (z2 + z3 + 1.0) / 2.0
        return np.array((min(z1, 1.0), z2 - c, z3 - c))

    def proj_rows(Z):
        Z = np.asarray(Z, dtype=float)
        c = (Z[:, 1] + Z[:, 2] + 1.0) / 2.0
        return np.column_stack((np.minimum(Z[:, 0], 1.0), Z[:, 1] - c, Z[:, 2] - c))

    def proj_jac(z):
        return np.array(((1.0 if z[0] < 1.0 else 0.0, 0.0, 0.0),
                         (0.0, 0.5, -0.5),
                         (0.0, -0.5, 0.5)))

    def tangent(x, v):   # core.box's rule on x1 <= 1, times the plane v2 + v3 = 0
        v1, v2, v3 = v.tolist()
        m = (v2 + v3) / 2.0
        return np.array((0.0 if x[0] == 1.0 and v1 > 0.0 else v1, v2 - m, v3 - m))

    def l1_prox(v, t):
        v1, v2, v3 = v.tolist()
        w = (v2 - v3 - 1.0) / 2.0
        u = w - t if w > t else w + t if w < -1.0 - t else min(max(w, -1.0), 0.0)
        return np.array((min(v1 - t if v1 > t else v1 + t if v1 < -t else 0.0, 1.0), u, -1.0 - u))

    omega = FeasibleSet(
        dimension=3,
        project=proj,
        project_rows=proj_rows,
        project_jacobian=proj_jac,
        tangent_project=tangent,
        l1_prox=l1_prox,
        contains=lambda x, tol=1e-10: bool(x[0] <= 1.0 + tol
                                           and abs(x[1] + x[2] + 1.0) <= 2.0 * tol),
    )

    s1, s2, s3 = _BA_SHIFT.tolist()

    def dual_gap_exact(x):
        # on Python floats, each F component y - max(y, s) as F computes it
        # (s first: np.maximum gives s on a tie of -0.0 with 0.0), and
        # <F(y), x - y> summed in einsum's order for three terms,
        # ((0.0 + p1) + p3) + p2: its sum starts at +0.0, so it is never -0.0
        x1, x2, x3 = x.tolist()
        y1 = min(x1 / 2.0, 0.0)
        f1 = y1 - max(s1, y1)
        p1 = 0.0 + f1 * (x1 - y1)
        g = None
        # each vertex clamped into its interval in np.clip's order, lower
        # bound first; on a tie max(lo, v) and min(hi, v) return the bound,
        # as np.clip does
        for u in (min(-1.25, (x2 - 0.25) / 2.0),
                  min(-0.25, max(-1.25, (x2 - x3 - 2.5) / 4.0)),
                  max(-0.25, -(x3 + 2.25) / 2.0)):
            y3 = -1.0 - u
            f2, f3 = u - max(s2, u), y3 - max(s3, y3)
            h = (p1 + f3 * (x3 - y3)) + f2 * (x2 - u)
            if g is None or h > g:   # the first maximum, as argmax
                g, y, Fy = h, (y1, u, y3), (f1, f2, f3)
        return g, g, np.array(y), np.array(Fy), 0

    def dist_S0(x):
        t = min(max(float(x[0]), 0.0), 1.0)
        r = np.asarray(x, dtype=float) - np.array([t, -0.75, -0.25])
        return math.sqrt(r.dot(r))

    def sample_S0(count, seed=0):
        t = np.random.default_rng(seed).uniform(0.0, 1.0, size=count)
        out = np.tile(np.array([0.0, -0.75, -0.25]), (count, 1))
        out[:, 0] = t
        return out

    return ProblemInstance(
        name="example5_1",
        map=F_map,
        set=omega,
        solution_oracle=SolutionOracle(distance_to_S0=dist_S0, sample_S0=sample_S0),
        default_x0=np.array([1.0, -2.0, 1.0]),
        dual_gap_exact=dual_gap_exact,
    )


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

def _point_oracle(xstar: Vector) -> SolutionOracle:
    """The solution oracle of a problem whose S0 is the single point xstar."""
    return SolutionOracle(
        distance_to_S0=lambda x: math.sqrt((r := np.asarray(x) - xstar).dot(r)),
        sample_S0=lambda count, seed=0: np.tile(xstar, (count, 1)),
    )


def affine_problem(name: str, M, q, omega: FeasibleSet,
                   solution_oracle: Optional[SolutionOracle] = None,
                   bounding_box: Optional[tuple] = None) -> ProblemInstance:
    """The VI of F(x) = Mx + q on omega, starting from P_omega(0).

    `core.affine_map` builds F and raises ValueError when sym(M) is
    indefinite. A box with finite bounds gets the exact dual gap
    `gap.affine_box_dual_gap`, a certified box QP, and those bounds as its
    bounding box for the grid oracles; every other set gets no exact G, so G
    comes from the ascent of `gap.dual_gap`.
    """
    F_map = affine_map(M, q, name=name)
    exact = None if omega.bounds is None else affine_box_dual_gap(M, q, *omega.bounds)
    return ProblemInstance(name, F_map, omega, solution_oracle,
                           default_x0=omega.project(np.zeros(omega.dimension)),
                           bounding_box=omega.bounds if exact is not None else bounding_box,
                           dual_gap_exact=exact)


def affine_monotone(n: int, seed: int = 0) -> ProblemInstance:
    """Seeded affine monotone VI: F(x) = Mx + q with M = A^T A on the box
    Omega = [-1, 1]^n, with the box's exact dual-gap oracle.

    For M positive definite the instance carries a solution oracle obtained
    from a residual-certified high-accuracy solve.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    M = A.T @ A
    q = rng.standard_normal(n)
    inst = affine_problem(f"affine_monotone(n={n}, seed={seed}, box)", M, q,
                          box(-np.ones(n), np.ones(n)))
    if inst.map.mu > 0:
        from .solvers import reference_solution

        xstar, _ = reference_solution(inst, 0.0, None)
        inst = replace(inst, solution_oracle=_point_oracle(xstar))
    return inst


def strongly_monotone_quadratic(n: int = 3, seed: int = 0) -> ProblemInstance:
    """F(x) = x - c on the box [-1, 1]^n; solution P_box(c) in closed form.

    c is seeded with entries in [-2, 2], so some coordinates clamp. With the
    quadratic regularizer the regularized solution is P_box(c / (1 + eps)).
    """
    c = np.random.default_rng(seed).uniform(-2.0, 2.0, size=n)
    return affine_problem(f"strongly_monotone_quadratic(n={n}, seed={seed})",
                          np.eye(n), -c, box(-np.ones(n), np.ones(n)),
                          solution_oracle=_point_oracle(np.clip(c, -1.0, 1.0)))


def sharp_quadratic_ball(n: int = 2) -> ProblemInstance:
    """F(x) = 4x on the unit ball: G(x) = ||x||^2 = d(x, S0)^2 exactly.

    The inner supremum sup_y <4y, x-y> is attained at y = x/2 for ||x|| <= 2,
    giving G(x) = ||x||^2 on the whole ball and S0 = {0}; weakly sharp of
    order 2 with sharpness constant exactly 1.
    """
    return affine_problem(f"sharp_quadratic_ball(n={n})", 4.0 * np.eye(n), np.zeros(n),
                          ball(np.zeros(n), 1.0), solution_oracle=_point_oracle(np.zeros(n)),
                          bounding_box=(-np.ones(n), np.ones(n)))


# ---------------------------------------------------------------------------
# grid oracles (dimensions 1 and 2)
# ---------------------------------------------------------------------------

def _grid_points(problem, grid_resolution):
    n = problem.dimension
    if n > 2:
        raise ValueError("grid oracles support dimensions 1 and 2 only")
    bbox = problem.bounding_box
    if bbox is None:
        raise ValueError("grid oracle needs a bounding box")
    lo = np.asarray(bbox[0], dtype=float)
    hi = np.asarray(bbox[1], dtype=float)
    diam = float(np.linalg.norm(hi - lo))
    h = grid_resolution if grid_resolution is not None else 1e-3 * diam
    axes = [np.arange(lo[i], hi[i] + 0.5 * h, h) for i in range(n)]
    if n == 1:
        Y = axes[0][:, None]
    else:
        g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
        Y = np.column_stack([g0.ravel(), g1.ravel()])
    # keep grid nodes that lie in Omega (within projection tolerance)
    P = project_rows(problem.set, Y)
    keep = np.linalg.norm(P - Y, axis=1) <= 1e-9 * (1.0 + np.linalg.norm(hi - lo))
    if not np.any(keep):
        raise ValueError("bounding box does not intersect the feasible set")
    return Y[keep]


def brute_force_gap(problem, x: Vector, alpha: float, epsilon: float = 0.0,
                    grid_resolution: Optional[float] = None,
                    reg: Optional[Regularizer] = None) -> float:
    """Grid maximization of <T(x), x-y> - (alpha/2)||y-x||^2 over an Omega grid,
    T = F + eps grad(phi); for the l1 norm, of the mixed VI's
    <F(x), x-y> + eps(phi(x) - phi(y)) - (alpha/2)||y-x||^2.

    Independent oracle for the explicit regularized-gap formula; agrees with
    it to within O(grid_resolution). Dimensions 1 and 2 only.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    x = as_point(x, problem.dimension)
    Y = _grid_points(problem, grid_resolution)
    Tx = regularized_operator(problem.map, reg, epsilon)(x)
    diffs = x - Y
    vals = diffs @ Tx - 0.5 * alpha * np.einsum("ij,ij->i", diffs, diffs)
    if epsilon > 0.0 and reg.is_l1:
        vals += epsilon * (np.abs(x).sum() - np.abs(Y).sum(axis=1))
    return float(vals.max())


def brute_force_dual_gap(problem, x: Vector, grid_resolution: Optional[float] = None) -> float:
    """Grid maximization of <F(y), x-y> over an Omega grid (dims 1 and 2)."""
    x = as_point(x, problem.dimension)
    Y = _grid_points(problem, grid_resolution)
    FY = problem.map.rows(Y)
    vals = np.einsum("ij,ij->i", FY, x - Y)
    return float(vals.max())


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

BUILTIN_PROBLEMS = {
    "example5_1": lambda seed=0: example_5_1(),
    "affine1d": lambda seed=0: affine_monotone(1, seed),
    "affine2d": lambda seed=0: affine_monotone(2, seed),
    "affine5d": lambda seed=0: affine_monotone(5, seed),
    "box_quadratic3d": lambda seed=0: strongly_monotone_quadratic(3, seed),
    "sharp_ball2d": lambda seed=0: sharp_quadratic_ball(2),
}


def get_problem(name: str, seed: int = 0) -> ProblemInstance:
    """Look up a built-in instance by registry name."""
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_PROBLEMS))
        raise KeyError(f"unknown problem {name!r}; built-ins: {known}") from None
    return factory(seed=seed)
