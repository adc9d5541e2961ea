"""Invariant check suites behind `vigap check`.

Each suite runs seeded property checks against independent oracles and
returns a CheckReport with one PASS/FAIL line and its margin per check.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .core import ball, box, l1_regularizer, shifted_orthant, tikhonov
from .gap import theta_alpha
from .problems import affine_monotone, brute_force_gap, example_5_1, strongly_monotone_quadratic
from .solvers import (
    ALPHA,
    BETA,
    InnerConfig,
    SubgradientConfig,
    reference_solution,
    solve_inner,
    solve_pge,
)

__all__ = ["CheckReport", "CHECK_SUITES"]


@dataclass
class CheckReport:
    suite: str
    lines: list = field(default_factory=list)  # (name, passed, margin text)

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
        "plane_box_product": example_5_1().set,
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
    return report


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
        worst = 0.0
        for _ in range(17):
            x = problem.set.project(rng.uniform(-1.5, 1.5, size=problem.dimension))
            alpha = float(rng.uniform(0.5, 3.0))
            eps = float(rng.choice([0.0, 0.3]))
            reg = regs[int(rng.integers(2))]
            explicit = theta_alpha(problem, x, alpha, eps, reg).value
            grid = brute_force_gap(problem, x, alpha, eps, reg=reg, grid_resolution=h)
            worst = max(worst, abs(explicit - grid))
            n_checked += 1
        report.record(f"{problem.name}: explicit vs grid", worst <= 5 * h,
                      f"worst |diff| {worst:.2e} vs 5h={5 * h:.2e}")
    report.record("total triples", n_checked >= 50, f"{n_checked} triples")
    return report


def _check_bounds_soundness(seed: int) -> CheckReport:
    report = CheckReport("bounds-soundness")
    problem = example_5_1()
    reg = tikhonov()
    rng = np.random.default_rng(seed)
    taus = {0.5: 1e-6, 0.1: 1e-5, 0.01: 1e-4}
    refs = {e: reference_solution(problem, e, reg)[0] for e in taus}
    worst_slack = np.inf
    ok_p = ok_rad = True
    levels = []  # (trace, tau) of every seeded level
    for e, tau in taus.items():
        for _ in range(4):
            x0 = problem.set.project(rng.uniform(-1.5, 1.5, size=3))
            x, tr = solve_inner(problem, x0, e, tau, InnerConfig(), reg)
            levels.append((tr, tau))
            p = bounds.stopping_threshold(tau, 2.0, 1.0, 1.0, ALPHA, BETA, e).radius
            ok_p = ok_p and tr.p == p and tr.theta_final <= p
            radius = bounds.dgap_error_bound(max(tr.theta_final, 0.0),
                                             2.0, 1.0, 1.0, ALPHA, BETA, e).radius
            dist = float(np.linalg.norm(x - refs[e]))
            ok_rad = ok_rad and dist <= radius and dist <= tau
            if radius > 0:
                worst_slack = min(worst_slack, radius / max(dist, 1e-300))
    report.record("stopping threshold matches and is met", ok_p,
                  "p recomputed bit-for-bit")
    report.record("distance within certified radius", ok_rad,
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
        x, _ = solve_pge(problem, l1_regularizer(), e, x0, SubgradientConfig(seed=seed))
        verdict = bounds.exactness_check(problem, problem.set.project(x), tol=tol)
        report.record(f"l1 eps={e}: exact", verdict == bounds.EXACT, verdict)
    for e in (0.5, 0.005):
        x, _ = solve_pge(problem, tikhonov(), e, x0, SubgradientConfig(seed=seed))
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
