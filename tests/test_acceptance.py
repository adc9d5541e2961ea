"""Acceptance suite: desk-scale solver targets plus property-based checks.
One pass/fail line is printed per criterion.

All benchmark runs use the best-approximation instance from the initial
point (1, -2, 1) and finish well under a minute each on one core.
"""
import math

import numpy as np
import pytest

from vigap.bounds import (
    NOT_EXACT,
    dgap_error_bound,
    exactness_check,
    fit_sharpness,
    stopping_threshold,
)
from vigap.core import l1_regularizer, sample_in_set, tikhonov
from vigap.gap import dual_gap, theta_ab
from vigap.problems import (
    affine_monotone,
    brute_force_gap,
    example_5_1,
    sharp_quadratic_ball,
    strongly_monotone_quadratic,
)
from vigap.solvers import (
    InnerConfig,
    OuterConfig,
    SubgradientConfig,
    reference_solution,
    sequential_inexact_descent,
    solve_inner,
    solve_pge,
)

X0 = np.array([1.0, -2.0, 1.0])
XSTAR = np.array([0.0, -0.75, -0.25])
EPS_GRID = (0.5, 0.1, 0.01, 0.005, 1e-4)

# target d(.,S0) values: the regularized solutions lie at eps/(sqrt(2)(1+2eps))
# (dual-gap route) and eps/(2 sqrt(2)(1+eps)) (direct route) from S0
PGE_L2_DISTANCES = {0.5: 1.768e-1, 0.1: 5.893e-2, 0.01: 6.931e-3, 0.005: 3.500e-3}
GVIE_L2_DISTANCES = {0.5: 1.179e-1, 0.1: 3.21e-2, 0.01: 3.5e-3, 0.005: 1.8e-3,
                     1e-4: 3.54e-5}


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def ba():
    return example_5_1()


# ---------------------------------------------------------------------------
# 1. exact l1 regularization of the dual-gap model
# ---------------------------------------------------------------------------

def test_criterion_1_exact_l1_dualgap(ba, capsys):
    l1 = l1_regularizer()
    worst_d = worst_x = 0.0
    for eps in EPS_GRID:
        x, _ = solve_pge(ba, l1, eps, X0, SubgradientConfig(seed=0))
        worst_d = max(worst_d, ba.solution_oracle.distance_to_S0(x))
        worst_x = max(worst_x, float(np.linalg.norm(x - XSTAR)))
    ok = worst_d <= 1e-6 and worst_x <= 1e-5
    with capsys.disabled():
        _report("criterion 1 (dual-gap l1 exact)", ok,
                f"worst d(x,S0)={worst_d:.2e} (<=1e-6), "
                f"worst |x-x*|={worst_x:.2e} (<=1e-5)")


# ---------------------------------------------------------------------------
# 2. inexact l2 dual-gap regularization
# ---------------------------------------------------------------------------

def test_criterion_2_l2_dualgap_distances(ba, capsys):
    l2 = tikhonov()
    worst_rel = 0.0
    verdicts = []
    for eps, target in PGE_L2_DISTANCES.items():
        x, _ = solve_pge(ba, l2, eps, X0, SubgradientConfig(seed=0))
        d = ba.solution_oracle.distance_to_S0(x)
        worst_rel = max(worst_rel, abs(d - target) / target)
        verdicts.append(exactness_check(ba, ba.set.project(x), tol=1e-7))
    ok = worst_rel <= 0.20 and all(v == NOT_EXACT for v in verdicts)
    with capsys.disabled():
        _report("criterion 2 (dual-gap l2 inexact)", ok,
                f"worst relative deviation {worst_rel:.1%} (<=20%), "
                f"verdicts {verdicts}")


# ---------------------------------------------------------------------------
# 3. direct l2 regularization via the sequential descent
# ---------------------------------------------------------------------------

def test_criterion_3_direct_l2_schedule(ba, capsys):
    l2 = tikhonov()
    trace, x = sequential_inexact_descent(
        ba, X0, OuterConfig(epsilons=EPS_GRID, tau=1e-6), l2)
    worst_rel = 0.0
    for rec in trace.outer:
        target = GVIE_L2_DISTANCES[rec.epsilon]
        worst_rel = max(worst_rel, abs(rec.dist_S0 - target) / target)
    final = trace.outer[-1]
    ratio = final.dist_S0 / final.epsilon
    ok = worst_rel <= 0.50 and abs(ratio - 0.354) <= 0.15 * 0.354
    with capsys.disabled():
        _report("criterion 3 (direct l2 schedule)", ok,
                f"worst relative deviation {worst_rel:.1%} (<=50%), "
                f"final d/eps={ratio:.4f} (0.354 +/- 15%)")


# ---------------------------------------------------------------------------
# 4. error-bound soundness over seeded runs
# ---------------------------------------------------------------------------

def test_criterion_4_error_bound_soundness(ba, capsys):
    l2 = tikhonov()
    taus = {0.5: 1e-6, 0.1: 1e-5, 0.01: 1e-4}
    refs = {e: reference_solution(ba, e, l2, tol_residual=1e-12)[0] for e in taus}
    rng = np.random.default_rng(123)
    n_runs = 0
    ok = True
    tightest = np.inf
    for eps, tau in taus.items():
        L_k = (4.0 + eps) / eps * math.sqrt(2.0)
        p_expected = tau ** 2 / L_k ** 2
        for _ in range(17):
            x0 = ba.set.project(rng.uniform(-2.0, 2.0, size=3))
            x, tr = solve_inner(ba, x0, eps, tau, InnerConfig(), l2)
            n_runs += 1
            theta = theta_ab(ba, x, 1.0, 2.0, eps, l2).value
            ok = ok and tr.status == "certified" and theta <= p_expected
            ok = ok and tr.p == stopping_threshold(tau, 2.0, 1.0, 1.0,
                                                   1.0, 2.0, eps).radius
            radius = dgap_error_bound(max(theta, 0.0), 2.0, 1.0, 1.0,
                                      1.0, 2.0, eps).radius
            dist = float(np.linalg.norm(x - refs[eps]))
            ok = ok and dist <= radius and dist <= tau
            if dist > 0:
                tightest = min(tightest, radius / dist)
    ok = ok and n_runs >= 50
    with capsys.disabled():
        _report("criterion 4 (error-bound soundness)", ok,
                f"{n_runs} seeded runs, all certified with "
                f"theta <= tau^2/L_k^2 and dist <= radius "
                f"(tightest radius/dist {tightest:.2f}x)")


# ---------------------------------------------------------------------------
# 5. D-gap nonnegativity and zero set
# ---------------------------------------------------------------------------

def test_criterion_5_dgap_sign_and_zero_set(ba, capsys):
    problems = [ba, affine_monotone(2, seed=1), strongly_monotone_quadratic(3, seed=2)]
    worst = np.inf
    ok = True
    for problem in problems:
        rng = np.random.default_rng(55)
        for _ in range(10_000):
            x = rng.uniform(-3.0, 3.0, size=problem.dimension)
            v = theta_ab(problem, x, 1.0, 2.0).value
            worst = min(worst, v)
            if v < -1e-12:
                ok = False
                break
        if problem.solution_oracle is not None:
            for x in problem.solution_oracle.sample_S0(20, 5):
                if theta_ab(problem, x, 1.0, 2.0).value > 1e-10:
                    ok = False
    with capsys.disabled():
        _report("criterion 5 (D-gap sign and zero set)", ok,
                f"min theta_ab over 3x10^4 points {worst:.2e} (>=-1e-12); "
                "oracle samples below 1e-10")


# ---------------------------------------------------------------------------
# 6. brute-force equivalence of the explicit gap formula
# ---------------------------------------------------------------------------

def test_criterion_6_brute_force_equivalence(capsys):
    rng = np.random.default_rng(66)
    regs = (None, tikhonov(), l1_regularizer())
    worst_ratio = 0.0
    n = 0
    for problem in (affine_monotone(1, seed=3), affine_monotone(2, seed=4)):
        lo, hi = problem.bounding_box
        h = 1e-3 * float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))
        for _ in range(25):
            from vigap.gap import theta_alpha

            x = problem.set.project(rng.uniform(-1.2, 1.2, size=problem.dimension))
            alpha = float(rng.uniform(0.5, 3.0))
            reg = regs[int(rng.integers(3))]
            eps = 0.0 if reg is None else float(rng.uniform(0.05, 0.6))
            explicit = theta_alpha(problem, x, alpha, eps, reg).value
            grid = brute_force_gap(problem, x, alpha, eps, reg=reg)
            worst_ratio = max(worst_ratio, abs(explicit - grid) / h)
            n += 1
    ok = worst_ratio <= 5.0 and n == 50
    with capsys.disabled():
        _report("criterion 6 (grid oracle equivalence)", ok,
                f"{n} triples, worst |explicit-grid| = {worst_ratio:.2f}x grid "
                "resolution (<=5x)")


# ---------------------------------------------------------------------------
# 7. dual-gap subgradient validity
# ---------------------------------------------------------------------------

def test_criterion_7_subgradient_validity(capsys):
    problem = affine_monotone(2, seed=8)
    rng = np.random.default_rng(77)
    worst = np.inf
    for _ in range(100):
        x = problem.set.project(rng.uniform(-1.0, 1.0, size=2))
        z = problem.set.project(rng.uniform(-1.0, 1.0, size=2))
        ev = dual_gap(problem, x)
        g = problem.map(ev.maximizer)
        slack = dual_gap(problem, z).value - ev.value - float(g @ (z - x))
        worst = min(worst, slack)
    ok = worst >= -1e-6
    with capsys.disabled():
        _report("criterion 7 (subgradient inequality)", ok,
                f"worst slack over 100 pairs {worst:.2e} (>=-1e-6)")


# ---------------------------------------------------------------------------
# 8. descent certificate on full traces
# ---------------------------------------------------------------------------

def test_criterion_8_descent_certificate(ba, capsys):
    l2 = tikhonov()
    l1 = l1_regularizer()
    runs = [
        solve_inner(ba, X0, 0.5, 1e-6, InnerConfig(), l2),
        solve_inner(ba, X0, 0.1, 1e-5, InnerConfig(), l2),
        solve_inner(ba, X0, 0.5, 1e-6, InnerConfig(), l1),
    ]
    regs = [l2, l2, l1]
    epss = [0.5, 0.1, 0.5]
    worst = np.inf
    ok = True
    for (x, tr), reg, eps in zip(runs, regs, epss):
        prev = math.sqrt(max(theta_ab(ba, X0, 1.0, 2.0, eps, reg).value, 0.0))
        if not tr.records:
            ok = False
        for rec in tr.records:
            cur = math.sqrt(max(rec.theta, 0.0))
            margin = -(tr.delta / 4.0) * rec.step_norm - (cur - prev)
            worst = min(worst, margin)
            ok = ok and margin >= -1e-14
            prev = cur
    with capsys.disabled():
        _report("criterion 8 (Armijo descent certificate)", ok,
                f"worst certificate margin {worst:.2e} (>=-1e-14) across "
                f"{sum(len(t.records) for _, t in runs)} accepted steps")


# ---------------------------------------------------------------------------
# 9. sharpness fit sanity
# ---------------------------------------------------------------------------

def test_criterion_9_sharpness_fit(capsys):
    problem = sharp_quadratic_ball(2)
    samples = sample_in_set(problem.set, 150, seed=9, radius=0.7)
    model = fit_sharpness(problem, samples)
    ok = abs(model.gamma - 2.0) <= 0.02 and abs(model.alpha_sharp - 1.0) <= 0.02
    with capsys.disabled():
        _report("criterion 9 (sharpness fit)", ok,
                f"gamma={model.gamma:.4f} (2 +/- 0.02), "
                f"alpha={model.alpha_sharp:.4f} (1 +/- 0.02)")


# ---------------------------------------------------------------------------
# comparison table (CLI layer): shape and headline cells
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table_rows():
    from vigap.cli import table1

    return table1(None, seed=0, timing=False)


def test_table_has_twenty_rows(table_rows, capsys):
    ok = len(table_rows) == 20
    with capsys.disabled():
        _report("comparison table shape", ok, f"{len(table_rows)} rows (=20)")


def test_cli_cold_direct_run_small_eps(capsys):
    # a single-level direct solve at the smallest parameter, cold from the
    # default start: the D-gap threshold lies below the theta floor, so the
    # level finishes by Newton and is certified by the residual bound
    from vigap.cli import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(problem="example5_1", model="direct", regularizer="l2",
                           epsilons=(1e-4,), x0=(1.0, -2.0, 1.0), timing=False)
    rows = run_experiment(cfg)
    d = rows[0].dist_to_S0
    ok = d is not None and abs(d - 3.54e-5) <= 0.5 * 3.54e-5
    with capsys.disabled():
        _report("cold direct run at eps=1e-4", ok,
                f"d(x,S0)={d:.3e} (3.54e-5 +/- 50%), "
                f"iterations={rows[0].iterations}")


def test_check_suites_pass(capsys):
    from vigap.cli import check_invariants

    gap_ok = check_invariants("gap-oracle", seed=7).passed
    exact_report = check_invariants("exactness", seed=0)
    ok = gap_ok and exact_report.passed
    with capsys.disabled():
        _report("invariant check suites", ok,
                f"gap-oracle(seed=7) passed={gap_ok}; "
                f"exactness verdicts passed={exact_report.passed}")


def test_table_headline_cells(table_rows, capsys):
    def cell(model, reg, eps):
        for r in table_rows:
            if r.model == model and r.regularizer == reg and r.epsilon == eps:
                return r
        raise AssertionError("missing row")

    pge_l2 = cell("dualgap", "l2", 0.5)
    ok = abs(pge_l2.dist_to_S0 - 1.768e-1) <= 0.2 * 1.768e-1
    gvie_l1_ok = all(cell("direct", "l1", e).dist_to_S0 <= 1e-6 for e in EPS_GRID)
    pge_l1_ok = all(cell("dualgap", "l1", e).dist_to_S0 <= 1e-6
                    and cell("dualgap", "l1", e).exactness == "exact"
                    for e in EPS_GRID)
    gvie_l2 = cell("direct", "l2", 1e-4)
    ok3 = abs(gvie_l2.dist_to_S0 - 3.54e-5) <= 0.5 * 3.54e-5
    ok_all = ok and gvie_l1_ok and pge_l1_ok and ok3
    with capsys.disabled():
        _report("comparison table headline cells", ok_all,
                f"dualgap-l2@0.5 d={pge_l2.dist_to_S0:.4e} (~1.768e-1); "
                f"direct-l1 rows <=1e-6: {gvie_l1_ok}; dualgap-l1 exact rows: "
                f"{pge_l1_ok}; direct-l2@1e-4 d={gvie_l2.dist_to_S0:.3e}")
