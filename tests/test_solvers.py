"""Direction switching, Armijo steps, inner/outer solves, the dual-gap solver."""
import math
from dataclasses import replace

import numpy as np
import pytest

from vigap import gap, problems, solvers
from vigap.cli import TABLE1_EPSILONS, ExperimentConfig, load_problem_file, run_experiment
from vigap.core import (EvaluationError, MonotoneMap, Regularizer, affine_map, box,
                        l1_regularizer)
from vigap.gap import _theta_ab_kernel, dual_gap, theta_ab, theta_alpha
from vigap.problems import (
    ProblemInstance,
    affine_monotone,
    affine_problem,
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
    THETA_FLOOR,
    DualGapUnreliableError,
    InnerConfig,
    MaxIterationsError,
    OuterConfig,
    PGE_MAX_ITERATIONS,
    StepFailureError,
    _direction,
    _newton_step,
    _norm,
    _resolve_constants,
    armijo_step,
    li_ng_direction,
    reference_solution,
    sequential_inexact_descent,
    solve_inner,
    solve_pge,
)
from probes import ill_conditioned_box_vi, polyak_pge

X0 = np.array([1.0, -2.0, 1.0])
XSTAR = np.array([0.0, -0.75, -0.25])


def line_problem():
    return ProblemInstance(
        name="line",
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

    p = ProblemInstance(name="partial",
                        map=MonotoneMap(dimension=1, evaluate=F, lipschitz_L=1.0),
                        set=box([-10.0], [10.0]))
    outside = np.array([2.0])
    with pytest.raises(EvaluationError):
        theta_ab(p, outside, 1.0, 2.0, 0.1, l2)
    with pytest.raises(EvaluationError):
        theta_alpha(p, outside, 1.0, 0.1, l2)
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
    c = -p.map(np.zeros(3))   # F(x) = x - c
    x_ref = np.clip(c / (1.0 + eps), -1.0, 1.0)
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
    assert tr.p < THETA_FLOOR
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
    assert theta_ab(ba_problem, x0, 1.0, 2.0, eps, l2).value <= THETA_FLOOR
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


# a start on S0 with x1 > eps: along x1 the l1 level minimizes eps |x1|, whose
# D-gap is the plateau eps^2/4 for x1 > eps, so no Armijo step shows a decrease
PLATEAU_START, PLATEAU_EPS = np.array([0.9, -0.75, -0.25]), 0.1


def test_solve_inner_armijo_exhaustion_without_certificate_stagnates(ba_problem, l1):
    x, tr = solve_inner(ba_problem, PLATEAU_START, PLATEAU_EPS, 1e-6, InnerConfig(), l1)
    assert tr.status == "stagnated"
    assert tr.theta_final == pytest.approx(PLATEAU_EPS ** 2 / 4.0, rel=1e-12)
    assert tr.records[-1].m > 0 and x[0] > PLATEAU_EPS
    assert tr.certificate is None and tr.radius is None


def test_solve_inner_stall_on_certified_level_raises(l2):
    # a non-monotone affine map on [-1, 1]^2 declared monotone: the Armijo
    # search fails far above the floor of a level that has a D-gap certificate
    rng = np.random.default_rng(0)
    A = 2.0 * rng.standard_normal((2, 2))
    q = rng.standard_normal(2)
    x0 = rng.uniform(-1.0, 1.0, 2)
    p = ProblemInstance(
        name="nonmonotone",
        map=MonotoneMap(dimension=2, evaluate=lambda x: A @ x + q,
                        lipschitz_L=float(np.linalg.norm(A, 2))),
        set=box([-1.0, -1.0], [1.0, 1.0]),
        bounding_box=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
    )
    with pytest.raises(StepFailureError):
        solve_inner(p, x0, 0.1, 1e-6, InnerConfig(), l2)


def shifted_line(b, jacobian=None, bound=1e15, mu=0.0):
    """F(x) = x - b on [-bound, bound], with an optional Jacobian hook."""
    return ProblemInstance(
        name="shifted_line",
        map=MonotoneMap(dimension=1, evaluate=lambda x: x - b, lipschitz_L=1.0, mu=mu,
                        jacobian=jacobian),
        set=box([-bound], [bound]),
    )


@pytest.mark.parametrize("b, offset, status", [
    # at |x| = 2^40 the direction 2^-11 is below 1e-15 (1 + |x|) = 1.1e-3
    # while theta_ab = 2.4e-7 is far above the floor
    (2.0 ** 40, 2.0 ** -10, "stagnated"),
    # at |x| = 2^25 the direction vanishes with theta_ab = 3.6e-16, within
    # 10x the floor
    (2.0 ** 25, 5 * 2.0 ** -27, "floor"),
])
def test_solve_inner_vanishing_direction_stalls(b, offset, status):
    # eps = 0 gives no certificate, so a vanishing direction ends the level
    # by the stall rule although the step along it would pass the Armijo test
    p = shifted_line(b)
    x0 = np.array([b + offset])
    d, _ = li_ng_direction(p, x0, _resolve_constants(p, InnerConfig(), 0.0, None))
    assert _norm(d) <= 1e-15 * (1.0 + abs(x0[0]))
    assert armijo_step(p, x0, d, InnerConfig())[0] == 0
    x, tr = solve_inner(p, x0, 0.0, 1e-6, InnerConfig(), None)
    assert tr.status == status and tr.iterations == 0
    assert tr.theta_final > THETA_FLOOR
    assert tr.certificate is None and tr.radius is None


def test_solve_inner_stagnating_iterates_stall():
    # at |x| = 2^40 the accepted D-gap steps 2^-5, 2^-6 and 2^-7 each move x
    # by less than 1e-13 (1 + |x|) = 0.11, but none of them vanishes; the
    # third ends the level, far above the floor
    b = 2.0 ** 40
    x, tr = solve_inner(shifted_line(b), np.array([b + 2.0 ** -4]), 0.0, 1e-6,
                        InnerConfig(), None)
    assert tr.status == "stagnated"
    assert [r.step_norm for r in tr.records] == [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    assert tr.theta_final > 10.0 * THETA_FLOOR
    assert x[0] == b + 2.0 ** -7


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_newton_trial_rejects_a_non_finite_or_zero_step(entry, l2):
    # a Jacobian hook of NaN makes every Newton step NaN, one of inf makes it
    # -0.0; each trial is rejected and D-gap steps certify the level
    jacobian = lambda x: np.array([[entry]])
    p = shifted_line(0.25, jacobian=jacobian, bound=1.0)
    x0 = np.array([0.9])
    theta = _theta_ab_kernel(p, ALPHA, BETA, 0.5, l2)
    s = _newton_step(theta, gap._residual_jacobian_kernel(p, ALPHA, 0.5, l2), x0,
                     x0 - theta(x0)[1])
    assert not (math.isfinite(_norm(s)) and _norm(s) > 0.0)
    x, tr = solve_inner(p, x0, 0.5, 1e-6, InnerConfig(), l2)
    assert tr.status == "certified" and tr.iterations > 0
    assert all(r.branch != BRANCH_NEWTON for r in tr.records)
    assert abs(x[0] - 0.25 / 1.5) <= tr.radius <= 1e-6


@pytest.mark.parametrize("slope, status", [(3.0, "floor"), (1.0, "certified")])
def test_newton_trial_at_the_floor_must_halve_the_residual(slope, status, l2):
    # F(x) = x at eps = 0.5: H(x) = 1.5x, and a Jacobian hook of 3 (the true
    # one is 1) takes H to (1 - 1.5/3.5) H = 0.57 H, short of halving it. At
    # x0 = 1e-9 theta_ab = 5.6e-19 is below the floor, and tau = 1e-12 needs
    # the residual certificate, whose radius 5 ||H|| = 7.5e-9 exceeds tau;
    # the rejected trial ends the level at the floor, the true hook certifies
    p = shifted_line(0.0, jacobian=lambda x: np.array([[slope]]), bound=1.0)
    x, tr = solve_inner(p, np.array([1e-9]), 0.5, 1e-12, InnerConfig(), l2)
    assert tr.p < THETA_FLOOR
    assert tr.status == status
    if status == "floor":
        assert tr.iterations == 0 and tr.theta_final <= THETA_FLOOR
    else:
        assert [r.branch for r in tr.records] == [BRANCH_NEWTON]
        assert tr.certificate == "residual" and abs(x[0]) <= tr.radius <= 1e-12


def test_solve_inner_kink_starts_are_certified(ba_problem, l2):
    # x_eps lies on the kink of F at x1 = 0; the exact Jacobian element
    # diag(x < s) takes one piece of it, so every start certifies at the
    # smallest tau within two Newton steps of the noise band
    for seed in range(60):
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 3)
        x, tr = solve_inner(ba_problem, x0, 0.01, 1e-8, InnerConfig(), l2)
        assert tr.p < THETA_FLOOR
        assert tr.status == "certified" and tr.certificate == "residual", seed
        assert np.linalg.norm(x - x_eps_l2(0.01)) <= tr.radius <= 1e-8


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_solve_inner_newton_above_the_floor(ba_problem, l2, eps):
    # above the floor the Newton trial runs too, so seeded starts finish on
    # the D-gap certificate in a few steps (D-gap descent alone took up to
    # 55 steps at eps = 0.5 and 306 at eps = 0.1 from these starts)
    tau = 1e-6
    x_ref = reference_solution(ba_problem, eps, l2)[0]
    for seed in range(60):
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 3)
        x, tr = solve_inner(ba_problem, x0, eps, tau, InnerConfig(), l2)
        assert tr.p >= THETA_FLOOR
        assert tr.status == "certified" and tr.certificate == "dgap", seed
        assert tr.iterations <= 5, seed
        assert np.linalg.norm(x - x_ref) <= tau, seed


def test_solve_inner_skew_affine_box_certifies(tmp_path, l2):
    # F(x) = Mx + q with a skew M shrinks the admissible D-gap constant c;
    # D-gap descent alone took 16,838 steps here, Newton takes a few
    path = tmp_path / "skew10.ini"
    path.write_text("[operator]\nkind = affine\nmatrix = 0 10; -10 0\noffset = 3 -2\n"
                    "[set]\nkind = box\nlower = -5 -5\nupper = 5 5\n")
    problem = load_problem_file(str(path))
    eps, tau = 0.5, 0.1
    x, tr = solve_inner(problem, np.array([4.0, -4.0]), eps, tau,
                        InnerConfig(max_iterations=100), l2)
    assert tr.status == "certified"
    assert np.linalg.norm(x - reference_solution(problem, eps, l2)[0]) <= tr.radius <= tau


def test_solve_inner_finite_difference_fallback_certifies(ba_problem, l2):
    # without F's Jacobian hook the Newton step falls back to central
    # differences, which still certify at the default tau
    stripped = replace(ba_problem, map=replace(ba_problem.map, jacobian=None))
    assert gap._residual_jacobian_kernel(stripped, ALPHA, 0.01, l2) is None
    x0 = np.random.default_rng(0).uniform(-2.0, 2.0, 3)
    x, tr = solve_inner(stripped, x0, 0.01, 1e-6, InnerConfig(), l2)
    assert tr.status == "certified" and tr.certificate == "residual"
    assert any(rec.branch == BRANCH_NEWTON for rec in tr.records)
    assert np.linalg.norm(x - x_eps_l2(0.01)) <= tr.radius <= 1e-6


def test_newton_step_evaluates_theta_only_without_hooks(ba_problem, l2):
    # the exact Jacobian costs no theta_ab evaluation; the fallback costs 2n
    eps = 0.01
    theta = _theta_ab_kernel(ba_problem, ALPHA, BETA, eps, l2)
    calls = []

    def counted(x):
        calls.append(x)
        return theta(x)

    x = np.array([0.4, -1.3, 0.2])
    h = x - theta(x)[1]
    jac = gap._residual_jacobian_kernel(ba_problem, ALPHA, eps, l2)
    s_exact = _newton_step(counted, jac, x, h)
    assert calls == []
    s_fd = _newton_step(counted, None, x, h)
    assert len(calls) == 2 * ba_problem.dimension
    np.testing.assert_allclose(s_exact, s_fd, rtol=0.0, atol=1e-6)


def test_newton_step_is_least_squares_for_a_singular_jacobian():
    J = np.array([[1.0, 0.0], [0.0, 0.0]])
    s = _newton_step(None, lambda x: J, np.zeros(2), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(s, [-1.0, 0.0])


@pytest.mark.parametrize("alpha", [ALPHA, 0.5])
@pytest.mark.parametrize("name", ["example5_1", "affine5d", "sharp_ball2d",
                                  "box_quadratic3d"])
def test_residual_jacobian_matches_central_differences(name, alpha, l2):
    # J_H = I - dP(z)(I - J_T/alpha) is the derivative of the natural
    # residual H away from its kinks (where J_H jumps between x - h e_k and
    # x + h e_k), and a missing hook gives None
    problem = get_problem(name)
    eps = 0.1
    theta = _theta_ab_kernel(problem, alpha, BETA, eps, l2)
    jac = gap._residual_jacobian_kernel(problem, alpha, eps, l2)
    rng = np.random.default_rng(41)
    n, h, checked = problem.dimension, 1e-6, 0
    for _ in range(100):
        x = 1.5 * rng.standard_normal(n)
        cols, kink = [], False
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            kink |= np.abs(jac(x + e) - jac(x - e)).max() > 1e-3
            cols.append(((x + e) - theta(x + e)[1] - (x - e) + theta(x - e)[1]) / (2.0 * h))
        if not kink:
            np.testing.assert_allclose(jac(x), np.column_stack(cols), rtol=0.0, atol=1e-6)
            checked += 1
    assert checked >= 90
    assert gap._residual_jacobian_kernel(problem, alpha, eps, l1_regularizer()) is None
    no_set = replace(problem, set=replace(problem.set, project_jacobian=None))
    assert gap._residual_jacobian_kernel(no_set, alpha, eps, l2) is None


def test_solve_inner_status_and_certificate_invariant(ba_problem, l1, l2):
    # over seeded starts, levels and regularizers: three statuses, and
    # "certified" exactly when a certificate within tau is attached
    rng = np.random.default_rng(11)
    seen = set()
    levels = [(l1, 0.5, 1e-6), (l1, 0.1, 1e-6),
              (l2, 0.5, 1e-6), (l2, 0.01, 1e-8), (l2, 1e-4, 1e-6)]
    starts = [(reg, eps, tau, rng.uniform(-2.0, 2.0, 3))
              for reg, eps, tau in levels for _ in range(4)]
    for reg, eps, tau, x0 in starts + [(l1, PLATEAU_EPS, 1e-6, PLATEAU_START)]:
        x, tr = solve_inner(ba_problem, x0, eps, tau, InnerConfig(), reg)
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


def test_solve_inner_l1_floor_exits_lie_at_x_star(ba_problem, l1):
    # seeded starts in [-2, 2]^3 over the l1 levels: the mixed VI's D-gap is
    # continuous and 0 only at x*, so a floor exit lies at x*, and most starts
    # get there (29 of 40; a sign-selection D-gap reaches its floor from 3)
    rng = np.random.default_rng(11)
    floors = 0
    for k in range(40):
        x0, eps = rng.uniform(-2.0, 2.0, 3), (0.5, 0.1, 0.01, 1e-4)[k % 4]
        try:
            x, tr = solve_inner(ba_problem, x0, eps, 1e-6, InnerConfig(max_iterations=3000), l1)
        except MaxIterationsError:
            continue
        if tr.status == "floor":
            floors += 1
            assert np.linalg.norm(x - XSTAR) <= 1e-6
    assert floors >= 25


def test_solve_inner_max_iterations(ba_problem, l2):
    with pytest.raises(MaxIterationsError) as err:
        # a cold eps = 0.5 solve from X0 takes 2 steps
        solve_inner(ba_problem, X0, 0.5, 1e-6, InnerConfig(max_iterations=1), l2)
    assert err.value.trace.status == "max_iterations"
    assert err.value.trace.x is not None and err.value.trace.iterations == 1
    # a budget of exactly the 2 steps it needs certifies after the loop ends
    x, tr = solve_inner(ba_problem, X0, 0.5, 1e-6, InnerConfig(max_iterations=2), l2)
    assert tr.status == "certified" and tr.iterations == 2
    assert np.linalg.norm(x - x_eps_l2(0.5)) <= tr.radius <= 1e-6


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
    assert [rec.certificate for rec in trace.outer] == \
        ["dgap", "dgap", "residual", "residual", "residual"]
    for rec in trace.outer:
        assert rec.status == "certified"
        assert rec.radius <= cfg.tau
        assert np.linalg.norm(rec.x - x_eps_l2(rec.epsilon)) <= rec.radius


def test_sequential_records_one_trace_per_level(ba_problem, l2):
    # each level's record is its inner trace: the point it ended at, its step
    # count, and the distance and time the outer loop fills in
    cfg = OuterConfig(epsilons=(0.5, 0.1, 0.01), tau=1e-6)
    trace, x = sequential_inexact_descent(ba_problem, X0, cfg, l2)
    assert [rec.epsilon for rec in trace.outer] == [0.5, 0.1, 0.01]
    assert trace.outer[-1].x is x
    for rec in trace.outer:
        assert rec.iterations == len(rec.records)
        assert rec.dist_S0 == ba_problem.solution_oracle.distance_to_S0(rec.x)
        assert rec.wall_time_s > 0.0


def test_sequential_rejects_nondecreasing_schedule(ba_problem, l2):
    with pytest.raises(ValueError):
        sequential_inexact_descent(ba_problem, X0,
                                   OuterConfig(epsilons=(0.1, 0.5)), l2)


@pytest.mark.parametrize("kwargs, message", [
    (dict(epsilons=()), "must be positive"),
    (dict(epsilons=(0.5, 0.0)), "must be positive"),
    (dict(epsilons=(0.5, -0.1)), "must be positive"),
    (dict(epsilons=(0.5, 0.5)), "strictly decreasing"),
    (dict(epsilons=(0.5, 0.1, 0.2)), "strictly decreasing"),
    (dict(epsilons=(0.5,), tau=0.0), "tau must be positive"),
    (dict(epsilons=(0.5,), tau=-1e-6), "tau must be positive"),
    (dict(epsilons=(0.5, math.nan)), "must be positive and finite"),
    (dict(epsilons=(math.nan, 0.5)), "must be positive and finite"),
    (dict(epsilons=(math.inf, 0.5)), "must be positive and finite"),
    (dict(epsilons=(0.5,), tau=math.inf), "tau must be positive and finite"),
    (dict(epsilons=(0.5,), tau=math.nan), "tau must be positive and finite"),
])
def test_outer_config_rejects_bad_schedules(kwargs, message):
    with pytest.raises(ValueError, match=message):
        OuterConfig(**kwargs)


def test_outer_config_stores_epsilons_as_floats():
    cfg = OuterConfig(epsilons=[1, np.float32(0.5), 0.25])
    assert cfg.epsilons == (1.0, 0.5, 0.25)
    assert all(type(e) is float for e in cfg.epsilons)
    assert cfg.tau == 1e-6
    assert cfg.inner.max_iterations == InnerConfig().max_iterations
    inner = InnerConfig(max_iterations=7)
    assert OuterConfig(epsilons=(0.5,), inner=inner).inner is inner


def test_inner_config_rejects_zero_iterations():
    with pytest.raises(ValueError, match="max_iterations must be positive"):
        InnerConfig(max_iterations=0)


def test_traces_compare_and_copy_by_field(ba_problem, l2):
    _, tr = solve_inner(ba_problem, X0, 0.5, 1e-6, InnerConfig(), l2)
    twin = tr._replace()
    assert twin == tr and twin is not tr
    moved = tr._replace(wall_time_s=1.5, dist_S0=0.25)
    assert (moved.wall_time_s, moved.dist_S0) == (1.5, 0.25)
    assert (tr.wall_time_s, tr.dist_S0) == (0.0, None)
    assert moved != tr and moved._replace(wall_time_s=0.0, dist_S0=None) == tr
    assert moved.iterations == tr.iterations == len(tr.records)
    pt = solvers.PgeTrace(iterations=3, n_nonconverged=0, best_objective=0.5)
    assert pt == solvers.PgeTrace(3, 0, 0.5)
    assert pt._replace(n_nonconverged=1) != pt
    assert pt._replace(n_nonconverged=1).n_nonconverged == 1


def test_sequential_pure_regularizer_limit(l2):
    # zero operator and one huge-epsilon outer step: the solve lands on the
    # phi-minimizer over the set
    n = 2
    p = ProblemInstance(
        name="zero2",
        map=affine_map(np.zeros((n, n)), np.zeros(n)),
        set=box([0.5, 0.5], [2.0, 2.0]),
    )
    trace, x = sequential_inexact_descent(p, np.array([2.0, 1.3]),
                                          OuterConfig(epsilons=(5.0,), tau=1e-8), l2)
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-7)


# ---------------------------------------------------------------------------
# spectral projected gradient for the dual-gap model
# ---------------------------------------------------------------------------

def test_pge_best_so_far_monotone(ba_problem, l1):
    # the returned point is the best iterate, and best_objective is its G + eps*phi
    eps = 0.1
    x, tr = solve_pge(ba_problem, l1, eps, X0, 60)
    assert tr.best_objective == dual_gap(ba_problem, x).value + eps * l1.value(x)
    x0 = ba_problem.set.project(X0)
    assert tr.best_objective <= dual_gap(ba_problem, x0).value + eps * l1.value(x0)


def test_pge_unregularized_strongly_monotone(l2):
    p = strongly_monotone_quadratic(2, seed=8)
    x, tr = solve_pge(p, l2, 0.0, np.zeros(2), 400)
    assert p.solution_oracle.distance_to_S0(x) <= 1e-5


def test_pge_l1_exact_recovery(ba_problem, l1):
    # l1 is the exact case of example5_1: x_eps = x* = (0, -3/4, -1/4) at every
    # eps. Proximal SPG reaches it from the benchmark start and seeded starts in
    # [-3, 3]^3 within a few steps, and reports no radius (rho = 0)
    rng = np.random.default_rng(11)
    for eps in TABLE1_EPSILONS:
        for x0 in [X0, *rng.uniform(-3.0, 3.0, (40, 3))]:
            x, tr = solve_pge(ba_problem, l1, eps, x0)
            assert tr.radius is None and 1 <= tr.iterations <= 20 and tr.n_nonconverged == 0
            assert float(np.linalg.norm(x - XSTAR)) <= 1e-12
            assert ba_problem.solution_oracle.distance_to_S0(x) <= 1e-12
            assert tr.best_objective == dual_gap(ba_problem, x).value + eps * l1.value(x)


def test_pge_raises_when_dual_gap_unreliable(ba_problem, l1, monkeypatch):
    # a one-iteration inner budget cannot reach stationarity, so every dual-gap
    # solve fails and the solver gives up instead of trusting its subgradients
    # (the ascent, not example5_1's exact oracle, which needs no budget)
    monkeypatch.setattr(gap, "ASCENT_MAX_ITER", 1)
    monkeypatch.setattr(gap, "DUAL_GAP_TOL", 1e-14)
    with pytest.raises(DualGapUnreliableError, match="dual_gap_exact"):
        solve_pge(replace(ba_problem, dual_gap_exact=None), l1, 0.1, X0)


def test_pge_non_finite_map_raises_and_marks_the_cell(ba_problem, l2, monkeypatch):
    # G comes from example5_1's exact oracle, and the NaN map reaches the loop
    # only through the F(ybar) the oracle returns, as the oracle contract
    # has it: the loop's one finiteness check on the subgradient sees the NaN
    nan_map = MonotoneMap(dimension=3, evaluate=lambda x: np.full(3, np.nan),
                          lipschitz_L=2.0, name="nan")

    def nan_oracle(x):
        value, upper, ybar, _, steps = ba_problem.dual_gap_exact(x)
        return value, upper, ybar, nan_map.evaluate(ybar), steps

    p = ProblemInstance(name="nan_map", map=nan_map, set=ba_problem.set,
                        dual_gap_exact=nan_oracle)
    with pytest.raises(EvaluationError, match="nan"):
        solve_pge(p, l2, 0.5, X0)
    monkeypatch.setitem(problems.BUILTIN_PROBLEMS, "nan_map", lambda seed=0: p)
    rows = run_experiment(ExperimentConfig(problem="nan_map", model="dualgap",
                                           regularizer="l2", epsilons=(0.5, 1e-4)))
    assert [r.exactness for r in rows] == ["error:EvaluationError"] * 2


def _run_with_raw_callables(problem, reg, monkeypatch, eps=0.5):
    """solve_pge on example5_1 at eps with a budget of 200, once plain
    and once with every validating entry point raising; returns both runs'
    (x, trace) and the oracle's call log of the second."""
    ref = solve_pge(problem, reg, eps, X0, 200)
    calls = []

    def counted(x):
        calls.append(x)
        return problem.dual_gap_exact(x)

    def validated(*args, **kwargs):
        raise AssertionError("solve_pge called a validating entry point")

    monkeypatch.setattr(MonotoneMap, "__call__", validated)
    monkeypatch.setattr(MonotoneMap, "rows", validated)
    monkeypatch.setattr(gap, "as_point", validated)
    return ref, solve_pge(replace(problem, dual_gap_exact=counted), reg, eps, X0, 200), calls


def test_pge_loop_calls_raw_callables(ba_problem, l2, monkeypatch):
    # x0 is validated once; the loop calls F, phi and the dual-gap kernel raw,
    # so neither the map's validating entry points nor the validation of the
    # public dual_gap is reached. l2 runs the spectral projected gradient:
    # one oracle call at x0 and one per Armijo trial
    (x_ref, tr_ref), (x, tr), calls = _run_with_raw_callables(ba_problem, l2, monkeypatch)
    assert 1 <= tr.iterations < 200 and tr.radius is not None
    assert len(calls) >= tr.iterations + 1
    assert x.tobytes() == x_ref.tobytes() and tr == tr_ref


def test_pge_at_eps_zero_calls_raw_callables(ba_problem, l1, monkeypatch):
    # the same at eps = 0, where the l1 prox step is the projection and the
    # measure the prox residual: no radius, one oracle call per Armijo trial
    (x_ref, tr_ref), (x, tr), calls = _run_with_raw_callables(ba_problem, l1, monkeypatch, 0.0)
    assert 1 <= tr.iterations < 200 and tr.radius is None
    assert len(calls) >= tr.iterations + 1
    assert x.tobytes() == x_ref.tobytes() and tr == tr_ref


# (problem, phi, eps, x0 or None for the default) -> x as float.hex,
# iterations and best_objective as float.hex, at the full default budget.
# The golden CSVs see x only through rounded columns, so a drift of x by a
# few ulps shows here first. example5_1 runs its closed-form oracle, affine5d
# the box QP and sharp_ball2d (a ball, no oracle) the multistart ascent; every
# cell runs the spectral projected gradient (proximal for l1), and sharp_ball2d
# stops at x = 0, a fixed point of its projected-gradient step.
PGE_PINS = [
    (("example5_1", "l1", 0.5, (1.0, -2.0, 1.0)),
     (("0x0.0p+0", "-0x1.8000000000000p-1", "-0x1.0000000000000p-2"),
      4, "0x1.0000000000000p-1")),
    (("example5_1", "l1", 1e-4, (1.0, -2.0, 1.0)),
     (("0x0.0p+0", "-0x1.8000000000000p-1", "-0x1.0000000000000p-2"),
      7, "0x1.a36e2eb1c432dp-14")),
    (("example5_1", "l2", 0.5, (1.0, -2.0, 1.0)),
     (("0x1.0731f2d4be1a4p-57", "-0x1.4000000000001p-1", "-0x1.8000000000000p-2"),
      11, "0x1.2000000000004p-3")),
    (("example5_1", "l2", 1e-4, (1.0, -2.0, 1.0)),
     (("0x0.0p+0", "-0x1.7ff9729d270edp-1", "-0x1.000d1ac5b1e26p-2"),
      8, "0x1.06222e206bbfap-15")),
    (("affine5d", "l2", 0.01, None),
     (("-0x1.0000000000000p+0", "0x1.7f83c2317f530p-2", "0x1.00c83e97651eap-1",
       "0x1.0000000000000p+0", "-0x1.e78c15dd0d194p-2"),
      21, "0x1.ad581cab9e509p-7")),
    (("sharp_ball2d", "l2", 0.01, (0.6, -0.7)),
     (("0x0.0p+0", "0x0.0p+0"), 5, "0x0.0p+0")),
]


@pytest.mark.parametrize("case,pinned", PGE_PINS,
                         ids=["-".join(map(str, case[:3])) for case, _ in PGE_PINS])
def test_pge_is_pinned_bit_for_bit(case, pinned, l1, l2):
    name, reg, eps, x0 = case
    p = get_problem(name)
    x, tr = solve_pge(p, l1 if reg == "l1" else l2, eps,
                      p.default_x0 if x0 is None else np.array(x0))
    assert (tuple(float(v).hex() for v in x), tr.iterations,
            float(tr.best_objective).hex()) == pinned


def _count_F_evaluations(p):
    """The same problem with F's raw `evaluate` counted; returns (problem, calls)."""
    calls = []

    def counted(x):
        calls.append(1)
        return p.map.evaluate(x)

    return replace(p, map=replace(p.map, evaluate=counted)), calls


def test_pge_with_an_exact_oracle_evaluates_no_F(ba_problem, l1):
    # F(ybar) comes from the oracle, so the proximal SPG of an l1 cell makes no
    # F call, at eps = 0 (where its prox is the projection) as at eps > 0; a
    # problem without an oracle evaluates F once per ascent, at its maximizer
    p, calls = _count_F_evaluations(ba_problem)
    _, tr = solve_pge(p, l1, 0.0, X0)
    assert 1 <= tr.iterations < PGE_MAX_ITERATIONS and len(calls) == 0
    _, tr = solve_pge(p, l1, 0.5, X0)
    assert 1 <= tr.iterations < PGE_MAX_ITERATIONS and len(calls) == 0
    p, calls = _count_F_evaluations(get_problem("sharp_ball2d"))
    _, tr = solve_pge(p, l1, 0.01, np.array([0.6, -0.7]), 20)
    assert len(calls) >= 1


def test_pge_rejects_an_empty_budget(ba_problem, l1):
    with pytest.raises(ValueError, match="max_iterations"):
        solve_pge(ba_problem, l1, 0.1, X0, max_iterations=0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.1])
def test_pge_rejects_a_negative_or_non_finite_epsilon(ba_problem, l1, l2, eps):
    # caught at the entry, not as a non-finite subgradient blamed on the operator
    for reg in (l1, l2):
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
            solve_pge(ba_problem, reg, eps, X0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.1])
def test_direct_entry_points_reject_a_negative_or_non_finite_epsilon(ba_problem, l2, eps):
    # caught once, in core.regularized_operator, not as a non-finite theta_ab
    # blamed on the operator
    for call in (lambda: solve_inner(ba_problem, X0, eps, 1e-6, reg=l2),
                 lambda: theta_ab(ba_problem, X0, ALPHA, BETA, eps, l2),
                 lambda: theta_alpha(ba_problem, X0, ALPHA, eps, l2)):
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
            call()


def test_pge_l1_on_affine_boxes_matches_the_subgradient_loop(l1):
    # on seeded 10-D affine box VIs (the box QP's exact G) the proximal SPG's
    # objective is at most 1e-12 above what the projected subgradient reference
    # (`probes.polyak_pge`) reaches in its full budget
    rng = np.random.default_rng(13)
    for seed in (0, 1):
        M, q = ill_conditioned_box_vi(seed)
        p = affine_problem("vi", M, q, box(-np.ones(10), np.ones(10)))
        for eps in (0.1, 1e-4):
            x0 = rng.uniform(-1.0, 1.0, 10)
            _, tr = solve_pge(p, l1, eps, x0)
            _, ref = polyak_pge(p, l1, eps, x0)
            assert tr.iterations < 200 and tr.radius is None and ref.radius is None
            assert tr.best_objective <= ref.best_objective + 1e-12


def test_pge_l2_radius_covers_the_closed_form_error(ba_problem, l2):
    # the dual-gap route's x_eps = (0, -3/4 + t, -1/4 - t), t = eps/(2(1 + 2 eps)):
    # from the benchmark start and seeded starts in [-3, 3]^3, every radius
    # holds the true error and is at most 1e-9
    rng = np.random.default_rng(3)
    for eps in TABLE1_EPSILONS:
        t = eps / (2.0 * (1.0 + 2.0 * eps))
        x_eps = np.array([0.0, -0.75 + t, -0.25 - t])
        for x0 in [X0, *rng.uniform(-3.0, 3.0, (8, 3))]:
            x, tr = solve_pge(ba_problem, l2, eps, x0)
            assert tr.iterations >= 1 and tr.n_nonconverged == 0
            assert float(np.linalg.norm(x - x_eps)) <= tr.radius <= 1e-9


def test_pge_without_a_certificate_stops_on_the_residual(ba_problem, l1, l2):
    # eps = 0, a set without a tangent cone and a problem without an exact
    # oracle get no radius; they stop on the prox or projected-gradient residual
    # well before the budget, on S0 (eps = 0, and l1, whose x_eps = x*) or on the
    # closed-form x_eps = (0, -5/8, -3/8) of l2 at eps = 0.5
    no_cone = replace(ba_problem, set=replace(ba_problem.set, tangent_project=None))
    no_oracle = replace(ba_problem, dual_gap_exact=None)
    x_eps = np.array([0.0, -0.625, -0.375])
    to_S0 = lambda p, x: p.solution_oracle.distance_to_S0(x)
    to_x_eps = lambda p, x: float(np.linalg.norm(x - x_eps))
    ball, x0_ball = get_problem("sharp_ball2d"), np.array([0.6, -0.7])
    for p, reg, eps, x0, dist, tol in [
            (ba_problem, l2, 0.0, X0, to_S0, 1e-12), (ba_problem, l1, 0.0, X0, to_S0, 1e-12),
            (no_cone, l2, 0.5, X0, to_x_eps, 1e-12), (no_oracle, l2, 0.5, X0, to_x_eps, 1e-7),
            (no_oracle, l1, 0.5, X0, to_S0, 1e-7),
            (ball, l2, 0.01, x0_ball, to_S0, 1e-12), (ball, l1, 0.01, x0_ball, to_S0, 1e-12)]:
        x, tr = solve_pge(p, reg, eps, x0)
        assert tr.radius is None and 1 <= tr.iterations <= 50 and tr.n_nonconverged == 0
        assert dist(p, x) <= tol


def test_pge_rejects_a_phi_it_has_no_step_for(ba_problem, l1):
    # a hand-built nonsmooth phi, even one equal to ||.||_1, is refused, and l1
    # on a set without an l1 prox has neither a gradient nor a prox step
    with pytest.raises(ValueError, match="needs a gradient, or is_l1"):
        Regularizer(value=l1.value)
    no_prox = replace(ba_problem, set=replace(ba_problem.set, l1_prox=None))
    for eps in (0.0, 0.5):
        with pytest.raises(ValueError, match="smooth phi, or l1_regularizer"):
            solve_pge(no_prox, l1, eps, X0)
    # the direct route's l1 levels take their maximizers through the same prox
    with pytest.raises(ValueError, match="needs a set with an l1_prox"):
        solve_inner(no_prox, X0, 0.5, 1e-6, InnerConfig(), l1)


# a monotone, not symmetric 3-D affine F on each set kind of a problem file that
# has no exact G: the multistart ascent gives G
ASCENT_SET_KEYS = {
    "ball": "center = 0.5 -0.5 0\nradius = 1.5",
    "halfspace": "normal = 1 -2 0.5\noffset = 0.25",
    "hyperplane": "normal = 1 0 -1\noffset = 0.5",
    "orthant": "lower = 0 -0.25 0.25",
}


@pytest.mark.parametrize("kind", list(ASCENT_SET_KEYS))
def test_pge_on_the_ascent_sets_is_no_worse_than_the_subgradient_loop(kind, tmp_path, l1, l2):
    # every cell stops well before the budget, at an objective at most
    # 1e-12 (1 + |f|) above what the projected subgradient reference reaches in
    # its full budget
    path = tmp_path / f"{kind}.ini"
    path.write_text("[operator]\nkind = affine\nmatrix = 2 1 0; -1 1 0.5; 0 -0.5 0.5\n"
                    f"offset = -1 0.5 0.25\n[set]\nkind = {kind}\n{ASCENT_SET_KEYS[kind]}\n")
    p = load_problem_file(str(path))
    assert p.dual_gap_exact is None
    for reg in (l1, l2):
        _, tr = solve_pge(p, reg, 0.1, X0)
        _, ref = polyak_pge(p, reg, 0.1, X0)
        assert tr.iterations <= 100 and tr.radius is None and tr.n_nonconverged == 0
        assert tr.best_objective <= ref.best_objective + 1e-12 * (1.0 + abs(tr.best_objective))


def test_pge_armijo_search_ends_at_a_rounding_move(tmp_path, l2, monkeypatch):
    # near x_eps on a hyperplane, with G from the ascent, no trial of a search
    # shows the Armijo decrease; ending it once lam ||d|| <= 2^-52 ||x|| leaves
    # 136 G evaluations, where searches of 61 trials each would take 429
    path = tmp_path / "plane.ini"
    path.write_text("[operator]\nkind = affine\nmatrix = 2 1; -1 3\noffset = -1 0\n"
                    "[set]\nkind = hyperplane\nnormal = 1 -1\noffset = 0\n")
    p = load_problem_file(str(path))
    trials = []
    kernel = solvers._dual_gap_kernel

    def counted(problem):
        G = kernel(problem)
        return lambda x: trials.append(x) or G(x)

    monkeypatch.setattr(solvers, "_dual_gap_kernel", counted)
    x, tr = solve_pge(p, l2, 0.01, p.default_x0)
    assert len(trials) <= 150 and tr.n_nonconverged == 0
    assert dual_gap(p, x).value == pytest.approx(3.149407858976281e-06, rel=1e-9)


def test_pge_at_eps_zero_is_no_worse_than_the_subgradient_loop(ba_problem, l1, l2):
    # eps = 0 on example5_1 (f = G, whose minimizers are S0) from the benchmark
    # start and seeded starts in [-3, 3]^3
    rng = np.random.default_rng(17)
    for x0 in [X0, *rng.uniform(-3.0, 3.0, (4, 3))]:
        for reg in (l1, l2):
            _, tr = solve_pge(ba_problem, reg, 0.0, x0)
            _, ref = polyak_pge(ba_problem, reg, 0.0, x0)
            assert tr.iterations < PGE_MAX_ITERATIONS
            assert tr.best_objective <= ref.best_objective + 1e-12 * (1.0 + abs(tr.best_objective))


# ---------------------------------------------------------------------------
# reference solutions
# ---------------------------------------------------------------------------

def test_reference_matches_closed_form(ba_problem, l2):
    for eps in (0.5, 0.01, 1e-4):
        x, res = reference_solution(ba_problem, eps, l2)
        assert res <= 1e-12
        assert np.linalg.norm(x - x_eps_l2(eps)) <= 1e-9


def test_reference_does_not_run_the_descent(ba_problem, l2, monkeypatch):
    # the reference checks the D-gap descent, so it must not depend on it
    def no_descent(*args, **kwargs):
        raise AssertionError("reference_solution ran solve_inner")

    monkeypatch.setattr(solvers, "solve_inner", no_descent)
    for eps in TABLE1_EPSILONS:
        x, res = reference_solution(ba_problem, eps, l2)
        assert res <= 1e-12
        assert np.linalg.norm(x - x_eps_l2(eps)) <= 1e-15


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


@pytest.mark.parametrize("slope", [-1.0, 10.0])
def test_reference_raises_when_the_residual_stalls(slope):
    # F(x) = x - 0.5, mu = 1, with a wrong Jacobian hook: slope -1 points every
    # Newton step uphill, so 40 halvings find no decrease; slope 10 shrinks
    # ||H|| by 0.9 a step and is still near 1e-4 after 80 steps
    p = shifted_line(0.5, jacobian=lambda x: np.array([[slope]]), bound=1.0, mu=1.0)
    with pytest.raises(RuntimeError, match="reference solve stalled"):
        reference_solution(p, 0.0, None)


def test_reference_affine_pd():
    p = strongly_monotone_quadratic(4, seed=10)
    x, res = reference_solution(p, 0.0, None)
    assert res <= 1e-12
    np.testing.assert_allclose(x, np.clip(-p.map(np.zeros(4)), -1, 1), atol=1e-10)
