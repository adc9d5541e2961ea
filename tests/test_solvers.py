"""Direction switching, Armijo steps, inner/outer solves, subgradient solver."""
import math

import numpy as np
import pytest

from vigap.core import EvaluationError, MonotoneMap, affine_map, box
from vigap.gap import DualGapConfig, _theta_ab_kernel, theta_ab, theta_alpha, y_alpha
from vigap.problems import (
    ProblemInstance,
    affine_monotone,
    get_problem,
    strongly_monotone_quadratic,
)
from vigap.solvers import (
    ALPHA,
    BETA,
    BRANCH_GAP_DIFF,
    BRANCH_NEWTON,
    BRANCH_RESIDUAL,
    GAMMA,
    DualGapUnreliableError,
    InnerConfig,
    MaxIterationsError,
    OuterConfig,
    StepFailureError,
    SubgradientConfig,
    _direction,
    _norm,
    _resolve_constants,
    armijo_step,
    li_ng_direction,
    reference_solution,
    sequential_inexact_descent,
    solve_inner,
    solve_pge,
)

X0 = np.array([1.0, -2.0, 1.0])
XSTAR = np.array([0.0, -0.75, -0.25])


def line_problem():
    return ProblemInstance(
        name="line", dimension=1,
        map=affine_map(np.eye(1), np.zeros(1)),
        set=box([-1.0], [1.0]),
        bounding_box=(np.array([-1.0]), np.array([1.0])),
    )


def x_eps_l2(eps):
    """Regularized solution of the best-approximation benchmark, quadratic phi."""
    s = -(3.0 + 2.0 * eps) / (4.0 * (1.0 + eps))
    return np.array([0.0, s, -1.0 - s])


def test_norm_matches_numpy_norm():
    # np.linalg.norm is the reference form of the private _norm
    rng = np.random.default_rng(19)
    vectors = [np.zeros(0), np.zeros(3), np.array([-0.0, 0.0]), np.array([1e-200, -1e-200]),
               np.array([1e200, 1.0]), np.array([np.inf, 1.0]), np.array([np.nan, 1.0])]
    for n in range(1, 13):
        for mag in (1e-200, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e200):
            vectors.append(mag * rng.standard_normal(n))
    vectors += list(10.0 ** rng.uniform(-20, 20, size=(2000, 1)) * rng.standard_normal((2000, 3)))
    with np.errstate(over="ignore", under="ignore"):
        for v in vectors:
            ref = np.linalg.norm(v)
            got = _norm(v)
            assert got == ref or (math.isnan(got) and math.isnan(ref)), v


def test_nan_off_region_raises_evaluation_error(l2):
    # F is defined on x <= 1 only and returns NaN beyond; the descent from 0
    # towards the solution 5 leaves that region on its first trial step
    def F(x):
        return x - 5.0 if x[0] <= 1.0 else np.full(1, np.nan)

    p = ProblemInstance(name="partial", dimension=1,
                        map=MonotoneMap(dimension=1, evaluate=F, lipschitz_L=1.0),
                        set=box([-10.0], [10.0]))
    outside = np.array([2.0])
    with pytest.raises(EvaluationError):
        theta_ab(p, outside, 1.0, 2.0, 0.1, l2)
    with pytest.raises(EvaluationError):
        theta_alpha(p, outside, 1.0, 0.1, l2)
    with pytest.raises(EvaluationError):
        y_alpha(p, outside, 1.0, 0.1, l2)
    x0 = np.zeros(1)
    assert math.isfinite(theta_ab(p, x0, 1.0, 2.0, 0.1, l2).value)
    # both with the declared L + eps*M as L_theta and with a given L_theta
    for cfg in (InnerConfig(), InnerConfig(L_theta_estimate=1.0)):
        with pytest.raises(EvaluationError):
            solve_inner(p, x0, 0.1, 1e-6, cfg, l2)


# ---------------------------------------------------------------------------
# direction
# ---------------------------------------------------------------------------

def test_direction_zero_at_solution(ba_problem, l2):
    eps = 0.5
    d, branch = li_ng_direction(ba_problem, x_eps_l2(eps),
                                InnerConfig(c=0.1), eps, l2)
    assert np.linalg.norm(d) <= 1e-12


def test_direction_switch_small_c():
    p = line_problem()
    d, branch = li_ng_direction(p, np.array([1.0]), InnerConfig(c=0.1))
    assert branch == BRANCH_GAP_DIFF
    np.testing.assert_allclose(d, [-0.5], atol=1e-15)


def test_direction_switch_large_c():
    p = line_problem()
    d, branch = li_ng_direction(p, np.array([1.0]), InnerConfig(c=0.9))
    assert branch == BRANCH_RESIDUAL
    np.testing.assert_allclose(d, [-1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# armijo
# ---------------------------------------------------------------------------

def test_armijo_rejects_zero_direction():
    p = line_problem()
    with pytest.raises(ValueError):
        armijo_step(p, np.array([1.0]), np.array([0.0]), InnerConfig(c=0.1, delta=0.1))


def test_armijo_minimal_m():
    p = line_problem()
    cfg = InnerConfig(c=0.1, delta=0.3)
    x = np.array([1.0])
    d = np.array([-0.5])
    m, x_next = armijo_step(p, x, d, cfg)
    np.testing.assert_allclose(x_next, x + GAMMA ** m * d)

    def decrease_ok(mm):
        t0 = math.sqrt(theta_ab(p, x, 1.0, 2.0).value)
        t1 = math.sqrt(max(theta_ab(p, x + GAMMA ** mm * d, 1.0, 2.0).value, 0.0))
        return t1 - t0 <= -(cfg.delta / 4.0) * GAMMA ** mm * np.linalg.norm(d)

    assert decrease_ok(m)
    if m > 0:
        assert not decrease_ok(m - 1)


def test_armijo_fails_at_noise_floor(ba_problem, l2):
    # theta is below machine noise this close to the regularized solution, so
    # no unit-scale direction can deliver the required sqrt(theta) decrease
    eps = 0.5
    x = x_eps_l2(eps) + 1e-12 * np.array([0.0, 1.0, -1.0])
    with pytest.raises(StepFailureError):
        armijo_step(ba_problem, x, np.array([0.0, -0.1, 0.1]),
                    InnerConfig(c=0.1, delta=0.3), eps, l2)


# ---------------------------------------------------------------------------
# inner solve
# ---------------------------------------------------------------------------

def test_solve_inner_warm_start_short_circuit(ba_problem, l2):
    eps = 0.5
    x, tr = solve_inner(ba_problem, x_eps_l2(eps), eps, 1e-6, InnerConfig(), l2)
    assert tr.status == "certified"
    assert tr.iterations == 0
    assert tr.records == []
    np.testing.assert_allclose(x, x_eps_l2(eps))


def test_solve_inner_certified_run(ba_problem, l2):
    eps = 0.5
    tau = 1e-6
    x, tr = solve_inner(ba_problem, X0, eps, tau, InnerConfig(), l2)
    assert tr.status == "certified"
    # exit threshold holds by re-evaluation
    assert theta_ab(ba_problem, x, 1.0, 2.0, eps, l2).value <= tr.p
    # certified distance; d(x,S0) sits on the regularized-solution path
    assert np.linalg.norm(x - x_eps_l2(eps)) <= tau
    d = ba_problem.solution_oracle.distance_to_S0(x)
    assert 0.059 <= d <= 0.1768


def test_solve_inner_closed_form_quadratic(l2):
    p = strongly_monotone_quadratic(3, seed=4)
    eps = 0.5
    tau = 1e-7
    x, tr = solve_inner(p, np.zeros(3), eps, tau, InnerConfig(), l2)
    x_ref = np.clip(p.constants["c"] / (1.0 + eps), -1.0, 1.0)
    assert tr.status == "certified"
    assert np.linalg.norm(x - x_ref) <= tau


def test_solve_inner_descent_certificate(ba_problem, l2):
    eps = 0.1
    x, tr = solve_inner(ba_problem, X0, eps, 1e-5, InnerConfig(), l2)
    prev = math.sqrt(max(theta_ab(ba_problem, X0, 1.0, 2.0, eps, l2).value, 0.0))
    assert tr.records, "expected accepted steps"
    for rec in tr.records:
        cur = math.sqrt(max(rec.theta, 0.0))
        assert cur - prev <= -(tr.delta / 4.0) * rec.step_norm + 1e-14
        prev = cur


def test_solve_inner_cold_small_eps_finishes_by_newton(ba_problem, l2):
    # at eps = 1e-4 the D-gap stopping level tau^2/L_k^2 lies below the theta
    # floor, so the level finishes by Newton and the residual bound certifies it
    eps, tau = 1e-4, 1e-6
    x, tr = solve_inner(ba_problem, X0, eps, tau, InnerConfig(), l2)
    assert tr.p < InnerConfig().floor
    assert tr.status == "certified" and tr.certificate == "residual"
    assert tr.iterations <= 20
    assert np.linalg.norm(x - x_eps_l2(eps)) <= tr.radius <= tau
    assert any(rec.branch == BRANCH_NEWTON for rec in tr.records)
    # the descent certificate of criterion 8 holds on every record
    prev = math.sqrt(max(theta_ab(ba_problem, X0, 1.0, 2.0, eps, l2).value, 0.0))
    for rec in tr.records:
        cur = math.sqrt(max(rec.theta, 0.0))
        assert -(tr.delta / 4.0) * rec.step_norm - (cur - prev) >= -1e-14
        prev = cur


def test_solve_inner_newton_from_the_noise_band(ba_problem, l2):
    # a warm start 1e-10 from x_eps: theta_ab there is evaluation noise, which
    # cannot judge a step, and the residual bound is still above tau, so the
    # Newton step is accepted by halving ||H|| and then certified
    eps, tau = 1e-4, 1e-6
    x0 = x_eps_l2(eps) + 1e-10 * np.array([0.0, 1.0, -1.0])
    assert theta_ab(ba_problem, x0, 1.0, 2.0, eps, l2).value <= InnerConfig().floor
    x, tr = solve_inner(ba_problem, x0, eps, tau, InnerConfig(), l2)
    assert tr.status == "certified" and tr.certificate == "residual"
    assert [rec.branch for rec in tr.records] == [BRANCH_NEWTON]
    assert np.linalg.norm(x - x_eps_l2(eps)) <= tr.radius <= tau


def test_solve_inner_nonsmooth_mode(ba_problem, l1):
    x, tr = solve_inner(ba_problem, X0, 0.5, 1e-6, InnerConfig(), l1)
    assert tr.status in ("stagnated", "floor")
    assert ba_problem.solution_oracle.distance_to_S0(x) <= 1e-6


# ---------------------------------------------------------------------------
# the exits of solve_inner
# ---------------------------------------------------------------------------

def test_solve_inner_without_certificate_at_x_star_reads_floor(ba_problem, l1):
    # l1 gives no certificate, so theta_ab = 0 at x* is the floor, not "certified"
    x, tr = solve_inner(ba_problem, XSTAR, 0.5, 1e-6, InnerConfig(), l1)
    assert tr.status == "floor" and tr.iterations == 0
    assert tr.certificate is None and tr.radius is None


def test_solve_inner_armijo_exhaustion_without_certificate_stagnates(ba_problem, l1):
    x, tr = solve_inner(ba_problem, np.array([0.3, -0.75, -0.25]), 0.5, 1e-6,
                        InnerConfig(), l1)
    assert tr.status == "stagnated"
    assert tr.theta_final > 10.0 * InnerConfig().floor
    assert tr.certificate is None and tr.radius is None


def test_solve_inner_stall_on_certified_level_raises(l2):
    # a non-monotone affine map on [-1, 1]^2 declared monotone: the Armijo
    # search fails far above the floor of a level that has a D-gap certificate
    rng = np.random.default_rng(0)
    A = 2.0 * rng.standard_normal((2, 2))
    q = rng.standard_normal(2)
    x0 = rng.uniform(-1.0, 1.0, 2)
    p = ProblemInstance(
        name="nonmonotone", dimension=2,
        map=MonotoneMap(dimension=2, evaluate=lambda x: A @ x + q,
                        lipschitz_L=float(np.linalg.norm(A, 2))),
        set=box([-1.0, -1.0], [1.0, 1.0]),
        bounding_box=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
    )
    with pytest.raises(StepFailureError):
        solve_inner(p, x0, 0.1, 1e-6, InnerConfig(), l2)


def test_solve_inner_kink_straddle_stops_at_floor(ba_problem, l2):
    # Records a known fault, not a wanted outcome: the central differences of
    # the Newton step straddle the kink of F at x1 = 0, the Newton trial is
    # rejected at the floor and the level ends uncertified. Once the Newton
    # Jacobian handles the kink this level should read "certified".
    x0 = np.random.default_rng(0).uniform(-2.0, 2.0, 3)
    x, tr = solve_inner(ba_problem, x0, 0.01, 1e-8, InnerConfig(), l2)
    assert tr.p < InnerConfig().floor
    assert tr.status == "floor"
    assert tr.certificate is None and tr.radius is None


def test_solve_inner_status_and_certificate_invariant(ba_problem, l1, l2):
    # over seeded starts, levels and regularizers: three statuses, and
    # "certified" exactly when a certificate within tau is attached
    rng = np.random.default_rng(11)
    seen = set()
    levels = [(l1, 0.5, 1e-6), (l1, 0.1, 1e-6),
              (l2, 0.5, 1e-6), (l2, 0.01, 1e-8), (l2, 1e-4, 1e-6)]
    for reg, eps, tau in levels:
        for _ in range(4):
            x, tr = solve_inner(ba_problem, rng.uniform(-2.0, 2.0, 3), eps, tau,
                                InnerConfig(), reg)
            seen.add((tr.status, tr.certificate))
            assert tr.status in ("certified", "floor", "stagnated")
            certified = tr.status == "certified"
            assert certified == (tr.certificate in ("dgap", "residual"))
            assert certified == (tr.radius is not None)
            if certified:
                assert tr.radius <= tau
                assert np.linalg.norm(x - x_eps_l2(eps)) <= tr.radius
    assert {("certified", "dgap"), ("certified", "residual"), ("floor", None),
            ("stagnated", None)} <= seen


def test_solve_inner_max_iterations(ba_problem, l2):
    with pytest.raises(MaxIterationsError) as err:
        solve_inner(ba_problem, X0, 0.5, 1e-6, InnerConfig(max_iterations=3), l2)
    assert err.value.trace.status == "max_iterations"
    assert err.value.x is not None


def test_solve_constants_capped_at_admissible_bounds(ba_problem, l2):
    # explicit c/delta beyond the admissible formulas are capped at resolve,
    # with L_theta the declared Lipschitz constant L + eps*M of T_eps
    eps = 0.5
    x, tr = solve_inner(ba_problem, X0, eps, 1e-6,
                        InnerConfig(c=5.0, delta=9.0), l2)
    assert tr.L_theta == ba_problem.map.lipschitz_L + eps * l2.lipschitz_M
    c_bound = min(1.0, (2.0 - 1.0) / (2.0 * (tr.L_theta + 2.0)))
    d_bound = min(0.5 * math.sqrt(0.5),
                  math.sqrt(2.0) * tr.c * eps * l2.rho / math.sqrt(1.0))
    assert tr.c == c_bound
    assert tr.delta <= d_bound


@pytest.mark.parametrize("name", ["affine5d", "example5_1"])
@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_dgap_direction_descends_at_the_admissible_rate(name, eps, l2):
    # with c from L + eps*M, the central-difference slope of theta_ab along
    # the Li-Ng direction is <= -(beta-alpha)/2 ||d||^2 on the y_alpha - x
    # branch and <= -eps*rho ||d||^2 on the y_alpha - y_beta branch (met with
    # equality on example5_1 at eps = 0.5, hence the relative tolerance)
    problem = get_problem(name)
    rng = np.random.default_rng(23)
    c = _resolve_constants(problem, InnerConfig(), eps, l2).c
    theta = _theta_ab_kernel(problem, ALPHA, BETA, eps, l2)
    h = 1e-6
    for _ in range(500):
        x = rng.uniform(-2.0, 2.0, problem.dimension)
        _, ya, yb = theta(x)
        d, branch = _direction(x, ya, yb, c)
        slope = (theta(x + h * d)[0] - theta(x - h * d)[0]) / (2.0 * h)
        rate = (BETA - ALPHA) / 2.0 if branch == BRANCH_RESIDUAL else eps * l2.rho
        assert slope <= -(1.0 - 1e-4) * rate * d.dot(d), (x, branch)


# ---------------------------------------------------------------------------
# sequential outer loop
# ---------------------------------------------------------------------------

def test_sequential_distance_trend(ba_problem, l2):
    cfg = OuterConfig(epsilons=(0.5, 0.1, 0.01, 0.005, 1e-4))
    trace, x = sequential_inexact_descent(ba_problem, X0, cfg, l2)
    dists = [r.dist_S0 for r in trace.outer]
    # warm-start trend: distance to S0 non-increasing within 10% slack
    for a, b in zip(dists, dists[1:]):
        assert b <= 1.1 * a
    # levels track the regularized path
    for r in trace.outer:
        expect = r.epsilon / (2.0 * math.sqrt(2.0) * (1.0 + r.epsilon))
        assert abs(r.dist_S0 - expect) <= 0.5 * expect


def test_sequential_radius_from_the_certificate_that_fired(ba_problem, l2):
    # levels with p >= floor stop on the D-gap bound, the others on the
    # residual bound; each level's radius is that certificate's
    cfg = OuterConfig(epsilons=(0.5, 0.1, 0.01, 0.005, 1e-4), tau=1e-6)
    trace, _ = sequential_inexact_descent(ba_problem, X0, cfg, l2)
    assert [t.certificate for t in trace.inner] == \
        ["dgap", "dgap", "residual", "residual", "residual"]
    for rec, itrace in zip(trace.outer, trace.inner):
        assert rec.status == "certified"
        assert rec.radius == itrace.radius <= cfg.tau
        assert np.linalg.norm(rec.x - x_eps_l2(rec.epsilon)) <= rec.radius


def test_sequential_rejects_nondecreasing_schedule(ba_problem, l2):
    with pytest.raises(ValueError):
        sequential_inexact_descent(ba_problem, X0,
                                   OuterConfig(epsilons=(0.1, 0.5)), l2)


def test_sequential_pure_regularizer_limit(l2):
    # zero operator and one huge-epsilon outer step: the solve lands on the
    # phi-minimizer over the set
    n = 2
    p = ProblemInstance(
        name="zero2", dimension=n,
        map=affine_map(np.zeros((n, n)), np.zeros(n)),
        set=box([0.5, 0.5], [2.0, 2.0]),
    )
    trace, x = sequential_inexact_descent(p, np.array([2.0, 1.3]),
                                          OuterConfig(epsilons=(5.0,), tau=1e-8), l2)
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-7)


# ---------------------------------------------------------------------------
# projected subgradient for the dual-gap model
# ---------------------------------------------------------------------------

def test_pge_best_so_far_monotone(ba_problem, l1):
    x, tr = solve_pge(ba_problem, l1, 0.1, X0,
                      SubgradientConfig(max_iterations=60, seed=6))
    best = [r.best_objective for r in tr.records]
    assert all(b <= a + 1e-18 for a, b in zip(best, best[1:]))


def test_pge_unregularized_strongly_monotone(l2):
    p = strongly_monotone_quadratic(2, seed=8)
    x, tr = solve_pge(p, l2, 0.0, np.zeros(2),
                      SubgradientConfig(max_iterations=400, seed=7))
    assert p.solution_oracle.distance_to_S0(x) <= 1e-5


def test_pge_l1_exact_recovery(ba_problem, l1):
    x, tr = solve_pge(ba_problem, l1, 0.1, X0, SubgradientConfig(seed=0))
    assert np.linalg.norm(x - XSTAR) <= 1e-6
    assert ba_problem.solution_oracle.distance_to_S0(x) <= 1e-6


def test_pge_raises_when_dual_gap_unreliable(ba_problem, l1):
    # a one-iteration inner budget cannot reach stationarity, so every dual-gap
    # solve fails and the solver gives up instead of trusting its subgradients
    cfg = SubgradientConfig(gap_config=DualGapConfig(max_iterations=1, tol=1e-14))
    with pytest.raises(DualGapUnreliableError, match="multistarts"):
        solve_pge(ba_problem, l1, 0.1, X0, cfg)


# ---------------------------------------------------------------------------
# reference solutions
# ---------------------------------------------------------------------------

def test_reference_matches_closed_form(ba_problem, l2):
    for eps in (0.5, 0.01, 1e-4):
        x, res = reference_solution(ba_problem, eps, l2)
        assert res <= 1e-12
        assert np.linalg.norm(x - x_eps_l2(eps)) <= 1e-9


def test_reference_matches_projected_fixed_point(l2):
    # affine5d: F = Mx + q with M = A^T A on [-1, 1]^5, so x_eps is the fixed
    # point of x -> clip(x - (Mx + q + eps x)/lambda_max, -1, 1), a
    # contraction with rate 1 - lambda_min/lambda_max
    p = affine_monotone(5, 0)
    q = p.map(np.zeros(5))
    M = np.column_stack([p.map(e) - q for e in np.eye(5)])
    for eps in (0.5, 0.1, 0.01):
        A = M + eps * np.eye(5)
        step = 1.0 / np.linalg.eigvalsh(A)[-1]
        z = np.zeros(5)
        for _ in range(200_000):
            zn = np.clip(z - step * (A @ z + q), -1.0, 1.0)
            if np.max(np.abs(zn - z)) <= 1e-16:
                break
            z = zn
        x, res = reference_solution(p, eps, l2)
        assert res <= 1e-12
        assert np.linalg.norm(x - z) <= 1e-9


def test_reference_unregularized_needs_strong_monotonicity(ba_problem):
    with pytest.raises(ValueError):
        reference_solution(ba_problem, 0.0, None)


def test_reference_affine_pd():
    p = strongly_monotone_quadratic(4, seed=10)
    x, res = reference_solution(p, 0.0, None)
    assert res <= 1e-12
    np.testing.assert_allclose(x, np.clip(p.constants["c"], -1, 1), atol=1e-10)
