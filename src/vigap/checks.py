"""Invariant check suites behind `vigap check`.

Each suite runs seeded property checks against independent oracles and
returns a CheckReport with one PASS/FAIL line and its margin per check.
"""
from __future__ import annotations

import numpy as np

from . import bounds
from .core import ball, box, halfspace, hyperplane, l1_regularizer, shifted_orthant, tikhonov
from .gap import dual_gap, theta_ab, theta_alpha
from .problems import (
    affine_monotone,
    brute_force_dual_gap,
    brute_force_gap,
    example_5_1,
    strongly_monotone_quadratic,
)
from .solvers import (
    ALPHA,
    BETA,
    THETA_FLOOR,
    InnerConfig,
    reference_solution,
    solve_inner,
    solve_pge,
)

__all__ = ["CheckReport", "CHECK_SUITES"]


class CheckReport:
    __slots__ = ("suite", "lines")

    def __init__(self, suite: str):
        self.suite = suite
        self.lines = []  # (name, passed, margin text)

    def record(self, name: str, passed: bool, margin: str):
        self.lines.append((name, bool(passed), margin))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.lines)

    def render(self) -> str:
        out = [f"suite {self.suite}"]
        for name, ok, margin in self.lines:
            out.append(f"{'PASS' if ok else 'FAIL'}  {name}  ({margin})")
        out.append(f"{'all checks passed' if self.passed else 'FAILURES present'}")
        return "\n".join(out)


def _check_core_geometry(seed: int) -> CheckReport:
    report = CheckReport("core-geometry")
    rng = np.random.default_rng(seed)
    sets = {
        "box": box([-1.0, 0.0], [1.0, 2.0]),
        "orthant": shifted_orthant([0.0, -0.25, 0.25]),
        "ball": ball([0.5, -0.5, 0.0], 1.5),
        "halfspace": halfspace([1.0, -2.0, 0.5], 0.25),
        "hyperplane": hyperplane([1.0, 0.0, -2.0], 0.5),
        "example5_1 Omega": example_5_1().set,
    }
    for name, s in sets.items():
        Z = rng.standard_normal((1000, s.dimension)) * 3.0
        W = rng.standard_normal((1000, s.dimension)) * 3.0
        worst_idem = worst_nonexp = 0.0
        all_in = True
        for z, w in zip(Z, W):
            pz, pw = s.project(z), s.project(w)
            worst_idem = max(worst_idem, float(np.linalg.norm(s.project(pz) - pz)))
            worst_nonexp = max(worst_nonexp,
                               float(np.linalg.norm(pz - pw) - np.linalg.norm(z - w)))
            all_in = all_in and s.contains(pz, 1e-10)
        report.record(f"{name}: projection idempotent", worst_idem <= 1e-10,
                      f"worst drift {worst_idem:.2e}")
        report.record(f"{name}: projection nonexpansive", worst_nonexp <= 1e-10,
                      f"worst excess {worst_nonexp:.2e}")
        report.record(f"{name}: projected points feasible", all_in, "1000 points")
        if s.tangent_project is not None:
            report.record(f"{name}: tangent cone", *_tangent_cone_margin(s, rng))
        if s.l1_prox is not None:
            report.record(f"{name}: l1 prox", *_l1_prox_margin(s, rng))
    return report


def _tangent_cone_margin(s, rng):
    """At 200 seeded points x = P(z), many on the faces a clip leaves, and
    seeded directions v: P_T(v) against (P(x + h v) - x)/h at h = 1e-7, the
    worst <v - P_T(v), y - x> over sampled y, |<P_T(v), v - P_T(v)>| and the
    idempotence drift of P_T; returns (passed, margin text)."""
    X, Y = (s.project_rows(3.0 * rng.standard_normal((200, s.dimension))) for _ in range(2))
    worst, faces = np.zeros(4), 0
    for x, v in zip(X, 3.0 * rng.standard_normal(X.shape)):
        pv = s.tangent_project(x, v)
        faces += not np.array_equal(pv, v)
        worst = np.maximum(worst, [np.abs((s.project(x + 1e-7 * v) - x) / 1e-7 - pv).max(),
                                   ((Y - x) @ (v - pv)).max(), abs(pv @ (v - pv)),
                                   np.abs(s.tangent_project(x, pv) - pv).max()])
    ok = faces >= 20 and (worst <= (1e-6, 1e-10, 1e-10, 1e-14)).all()
    return ok, "{} on a face; worst derivative {:.1e}, normal {:.1e}, orthogonality " \
               "{:.1e}, idempotence {:.1e}".format(faces, *worst)


def _l1_prox_margin(s, rng):
    """At 200 seeded (v, t), z = l1_prox(v, t) and 40 points y = P(z + r u), r from
    1e-6 to 3: whether z lies in the set, the worst excess of h(z) + ||y - z||^2/2 over
    h(y) for the 1-strongly convex h = ||. - v||^2/2 + t||.||_1 (a brute-force test of
    the minimizer), and of <v - z, y - z> over t(||y||_1 - ||z||_1) (the optimality
    condition v - z in t d||z||_1 + N(z)), each relative to 1 + ||v||^2; returns
    (passed, margin text)."""
    n, worst, all_in = s.dimension, np.zeros(2), True
    r = np.geomspace(1e-6, 3.0, 40)[:, None]
    for v, t in zip(3.0 * rng.standard_normal((200, n)), rng.uniform(0.0, 2.0, 200)):
        z = s.l1_prox(v, t)
        all_in = all_in and s.contains(z, 1e-15)
        Y = s.project_rows(z + r * rng.standard_normal((40, n)))
        l1_Y, l1_z = np.abs(Y).sum(1), np.abs(z).sum()
        h_Y, h_z = 0.5 * ((Y - v) ** 2).sum(1) + t * l1_Y, 0.5 * (z - v) @ (z - v) + t * l1_z
        worst = np.maximum(worst, np.array([(h_z + 0.5 * ((Y - z) ** 2).sum(1) - h_Y).max(),
                                            ((Y - z) @ (v - z) - t * (l1_Y - l1_z)).max()])
                           / (1.0 + v @ v))
    ok = all_in and (worst <= 1e-13).all()
    return ok, "minimizer {}; worst excess {:.1e}, optimality {:.1e}".format(
        "feasible" if all_in else "INFEASIBLE", *worst)


def _check_gap_oracle(seed: int) -> CheckReport:
    report = CheckReport("gap-oracle")
    rng = np.random.default_rng(seed)
    regs = (l1_regularizer(), tikhonov())
    cases = [affine_monotone(1, seed), affine_monotone(2, seed),
             strongly_monotone_quadratic(2, seed)]
    n_checked = 0
    for problem in cases:
        lo, hi = problem.bounding_box
        h = 1e-3 * float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))
        # grid nodes are feasible, so grid <= G <= upper; a node lies within
        # r = h sqrt(n) of the maximizer ybar, and h(y) = <F(y), x - y> curves
        # by at most 2L, so the grid misses G by at most |grad h(ybar)| r + L r^2
        r = h * np.sqrt(problem.dimension)
        worst = worst_gap = 0.0
        bracket_ok = True
        for _ in range(17):
            x = problem.set.project(rng.uniform(-1.5, 1.5, size=problem.dimension))
            alpha = float(rng.uniform(0.5, 3.0))
            eps = float(rng.choice([0.0, 0.3]))
            reg = regs[int(rng.integers(2))]
            explicit = theta_alpha(problem, x, alpha, eps, reg).value
            grid = brute_force_gap(problem, x, alpha, eps, reg=reg, grid_resolution=h)
            worst = max(worst, abs(explicit - grid))
            ev = dual_gap(problem, x)
            grid_G = brute_force_dual_gap(problem, x, grid_resolution=h)
            slope = float(np.linalg.norm(problem.map.inner_gradient(x, ev.maximizer[None])))
            miss = slope * r + problem.map.lipschitz_L * r * r
            worst_gap = max(worst_gap, (ev.value - grid_G) / miss)
            bracket_ok = bracket_ok and ev.converged and grid_G - 1e-12 <= ev.value <= ev.upper
            n_checked += 1
        report.record(f"{problem.name}: explicit vs grid", worst <= 5 * h,
                      f"worst |diff| {worst:.2e} vs 5h={5 * h:.2e}")
        report.record(f"{problem.name}: exact dual gap vs grid",
                      problem.dual_gap_exact is not None and bracket_ok and worst_gap <= 1.0,
                      f"worst (G - grid) / bound {worst_gap:.2f}")
    report.record("total triples", n_checked >= 50, f"{n_checked} triples")
    return report


def _check_bounds_soundness(seed: int) -> CheckReport:
    report = CheckReport("bounds-soundness")
    problem = example_5_1()
    reg = tikhonov()
    rng = np.random.default_rng(seed)
    taus = {0.5: 1e-6, 0.1: 1e-5, 0.01: 1e-4}
    refs = {e: reference_solution(problem, e, reg)[0] for e in taus}
    ok_p = ok_rad = True
    levels = []  # (trace, tau) of every seeded level
    for e, tau in taus.items():
        for _ in range(4):
            x0 = problem.set.project(rng.uniform(-1.5, 1.5, size=3))
            x, tr = solve_inner(problem, x0, e, tau, InnerConfig(), reg)
            levels.append((tr, tau))
            p = bounds.stopping_threshold(tau, 2.0, 1.0, 1.0, ALPHA, BETA, e)
            ok_p = ok_p and tr.p == p and tr.theta_final <= p
            # theta floored as in `solve_inner`: a level may land on x_eps,
            # where theta evaluates to <= 0 and the unfloored radius is 0
            radius = bounds.dgap_error_bound(max(tr.theta_final, THETA_FLOOR),
                                             2.0, 1.0, 1.0, ALPHA, BETA, e)
            ok_rad = ok_rad and float(np.linalg.norm(x - refs[e])) <= radius <= tau
    report.record("stopping threshold matches and is met", ok_p,
                  "p recomputed bit-for-bit")
    report.record("distance within certified radius", ok_rad, f"{len(levels)} levels")

    # the bound where theta is well above the floor, apart from the solver:
    # seeded points at distance 1e-9..1 from x_eps, on both sides of p
    ok_probe, n_probed, n_below_p, worst_slack = True, 0, 0, np.inf
    probe_rng = np.random.default_rng([seed, 1])
    for e, tau in taus.items():
        p = bounds.stopping_threshold(tau, 2.0, 1.0, 1.0, ALPHA, BETA, e)
        for r in np.repeat(np.geomspace(1e-9, 1.0, 19), 4):
            u = probe_rng.standard_normal(3)
            x = problem.set.project(refs[e] + r * u / np.linalg.norm(u))
            theta = theta_ab(problem, x, ALPHA, BETA, e, reg).value
            if theta > THETA_FLOOR:
                n_probed += 1
                n_below_p += theta <= p
                radius = bounds.dgap_error_bound(theta, 2.0, 1.0, 1.0, ALPHA, BETA, e)
                dist = float(np.linalg.norm(x - refs[e]))
                ok_probe = ok_probe and dist <= radius
                worst_slack = min(worst_slack, radius / dist)
    report.record("distance within the bound at theta above the floor",
                  ok_probe and n_below_p >= 10,
                  f"{n_probed} points, {n_below_p} at or below p, "
                  f"tightest radius/dist {worst_slack:.2f}x")

    # below the floor (p < 1e-16) the level must end residual-certified;
    # x_eps = (0, -3/4 + t, -1/4 - t) with t = eps / (4 (1 + eps)) in closed form
    e, tau = 1e-4, 1e-6
    t = e / (4.0 * (1.0 + e))
    x_eps = np.array([0.0, -0.75 + t, -0.25 - t])
    ok_res = True
    worst_dist = 0.0
    for _ in range(4):
        x0 = problem.set.project(rng.uniform(-1.5, 1.5, size=3))
        x, tr = solve_inner(problem, x0, e, tau, InnerConfig(), reg)
        levels.append((tr, tau))
        dist = float(np.linalg.norm(x - x_eps))
        worst_dist = max(worst_dist, dist)
        ok_res = ok_res and tr.status == "certified" and tr.certificate == "residual"
        ok_res = ok_res and dist <= tr.radius <= tau
    report.record(f"eps={e:g}: residual-certified within tau of the closed form", ok_res,
                  f"worst dist {worst_dist:.2e} vs tau {tau:g}")

    # the dual-gap route's radius: x_eps = (0, -3/4 + t, -1/4 - t) with
    # t = eps / (2 (1 + 2 eps)) in closed form
    ok_dg, widest, farthest = True, 0.0, 0.0
    dg_rng = np.random.default_rng([seed, 2])
    for e in (0.5, 0.01, 1e-4):
        t = e / (2.0 * (1.0 + 2.0 * e))
        for _ in range(4):
            x, tr = solve_pge(problem, reg, e, dg_rng.uniform(-3.0, 3.0, size=3))
            dist = float(np.linalg.norm(x - np.array([0.0, -0.75 + t, -0.25 - t])))
            ok_dg = ok_dg and dist <= tr.radius <= 1e-9
            widest, farthest = max(widest, tr.radius), max(farthest, dist)
    report.record("dual-gap l2: radius holds the closed-form distance", ok_dg,
                  f"12 starts, widest radius {widest:.1e}, farthest {farthest:.1e}")

    # "certified" exactly when a certificate within tau is attached; l1 has
    # none, so its level at x* (theta_ab = 0) must not read certified
    _, tr = solve_inner(problem, np.array([0.0, -0.75, -0.25]), 0.5, 1e-6,
                        InnerConfig(), l1_regularizer())
    report.record("l1 at x*: not certified", tr.status != "certified", f"status {tr.status}")
    levels.append((tr, 1e-6))
    ok_inv = all(lv.status in ("certified", "floor", "stagnated")
                 and (lv.status == "certified") == (lv.certificate in ("dgap", "residual"))
                 and (lv.status != "certified" or lv.radius <= tol) for lv, tol in levels)
    report.record("status/certificate invariant", ok_inv, f"{len(levels)} levels")
    return report


def _check_exactness(seed: int) -> CheckReport:
    report = CheckReport("exactness")
    problem = example_5_1()
    x0 = problem.default_x0
    tol = 1e-7
    for e in (0.5, 0.01):
        x, _ = solve_pge(problem, l1_regularizer(), e, x0)
        verdict = bounds.exactness_check(problem, problem.set.project(x), tol=tol)
        report.record(f"l1 eps={e}: exact", verdict == bounds.EXACT, verdict)
    for e in (0.5, 0.005):
        x, _ = solve_pge(problem, tikhonov(), e, x0)
        verdict = bounds.exactness_check(problem, problem.set.project(x), tol=tol)
        report.record(f"l2 eps={e}: not_exact", verdict == bounds.NOT_EXACT, verdict)
    xs = problem.solution_oracle.sample_S0(3, seed)
    for i, x in enumerate(xs):
        verdict = bounds.exactness_check(problem, x, tol=tol)
        report.record(f"S0 sample {i}: exact", verdict == bounds.EXACT, verdict)
    return report


CHECK_SUITES = {
    "core-geometry": _check_core_geometry,
    "gap-oracle": _check_gap_oracle,
    "bounds-soundness": _check_bounds_soundness,
    "exactness": _check_exactness,
}
