"""Error-bound formulas, exactness verdicts, sharpness fitting."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigap.bounds import (
    EXACT,
    INCONCLUSIVE,
    NOT_EXACT,
    DegenerateSamplesError,
    SharpnessModel,
    dgap_error_bound,
    dualgap_radius,
    eps_to_S0_bound,
    exactness_check,
    fit_sharpness,
    order1_inequality,
    residual_error_bound,
    residual_rounding,
    stopping_threshold,
    _verdict,
)
from vigap.core import regularized_operator
from vigap.gap import DUAL_GAP_TOL, dual_gap, theta_alpha
from vigap.problems import example_5_1, sharp_quadratic_ball
from probes import sample_in_set


def x_eps_direct(eps):
    """Closed-form solution of VI(F + eps*x, Omega) on the best-approximation set."""
    t = eps / (4.0 * (1.0 + eps))
    return np.array([0.0, -0.75 + t, -0.25 - t])


def x_G_l2(eps):
    """Closed-form minimizer of G + eps*phi2 on the best-approximation set."""
    s = -(3.0 + 4.0 * eps) / (4.0 * (1.0 + 2.0 * eps))
    return np.array([0.0, s, -1.0 - s])


# ---------------------------------------------------------------------------
# D-gap distance bound and stopping threshold
# ---------------------------------------------------------------------------

def test_dgap_bound_zero_at_solution():
    assert dgap_error_bound(0.0, 2.0, 1.0, 1.0, 1.0, 2.0, 0.5) == 0.0


def test_dgap_bound_arithmetic():
    radius = dgap_error_bound(1e-8, L=2.0, M=1.0, rho=1.0, alpha=1.0, beta=2.0,
                              epsilon=0.5)
    # (2 + 2 + 0.5)/0.5 * sqrt(2e-8 / 1) = 9 * 1.41421e-4
    assert radius == (2.0 + 2.0 + 0.5 * 1.0) / (0.5 * 1.0) * math.sqrt(2.0 * 1e-8 / 1.0)
    assert radius == pytest.approx(9.0 * math.sqrt(2e-8), rel=0, abs=1e-18)
    assert radius == pytest.approx(1.2728e-3, rel=1e-4)


@settings(max_examples=80, deadline=None)
@given(st.floats(1e-14, 1e-2), st.floats(0.01, 10.0))
def test_dgap_bound_sqrt_homogeneity(theta, eps):
    r1 = dgap_error_bound(theta, 2.0, 1.0, 1.0, 1.0, 2.0, eps)
    r2 = dgap_error_bound(2.0 * theta, 2.0, 1.0, 1.0, 1.0, 2.0, eps)
    assert r2 == pytest.approx(math.sqrt(2.0) * r1, rel=1e-12)


def test_dgap_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dgap_error_bound(1e-8, 2.0, 1.0, 0.0, 1.0, 2.0, 0.5)   # rho
    with pytest.raises(ValueError):
        dgap_error_bound(1e-8, 2.0, 1.0, 1.0, 1.0, 2.0, 0.0)   # epsilon
    with pytest.raises(ValueError):
        dgap_error_bound(-1e-8, 2.0, 1.0, 1.0, 1.0, 2.0, 0.5)  # theta
    with pytest.raises(ValueError):
        dgap_error_bound(1e-8, 2.0, 1.0, 1.0, 2.0, 1.0, 0.5)   # alpha >= beta
    with pytest.raises(ValueError):
        dgap_error_bound(math.nan, 2.0, 1.0, 1.0, 1.0, 2.0, 0.5)  # theta not a number


def test_stopping_threshold_benchmark_constants():
    # with L=2, M=1, rho=1, alpha=1, beta=2 the constant is (4+eps)/eps*sqrt(2)
    # and p = tau^2 / L_k^2
    for eps in (0.5, 0.1, 0.01, 0.005, 1e-4):
        p = stopping_threshold(1e-6, 2.0, 1.0, 1.0, 1.0, 2.0, eps)
        L_k = (4.0 + eps) / eps * math.sqrt(2.0)
        assert p == pytest.approx(1e-12 / L_k ** 2, rel=1e-14)
    p = stopping_threshold(1e-6, 2.0, 1.0, 1.0, 1.0, 2.0, 0.5)
    assert p == pytest.approx(1e-12 / (9.0 * math.sqrt(2.0)) ** 2, rel=1e-14)
    assert p == pytest.approx(1e-12 / 162.0, rel=1e-12)
    assert p == pytest.approx(6.17e-15, rel=1e-2)


def test_stopping_threshold_monotone_in_tau():
    ps = [stopping_threshold(t, 2.0, 1.0, 1.0, 1.0, 2.0, 0.1)
          for t in (1e-4, 1e-5, 1e-6, 1e-8)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert ps[-1] > 0


# ---------------------------------------------------------------------------
# natural-residual bound
# ---------------------------------------------------------------------------

def test_residual_bound_arithmetic():
    radius = residual_error_bound(1e-3, L=2.0, M=1.0, rho=1.0, alpha=1.0, epsilon=0.5)
    # factor (2 + 0.5 + 1)/0.5 = 7, times the residual
    assert radius == 7.0 * 1e-3
    assert radius == pytest.approx(7e-3, rel=1e-15)
    # the rounding floor takes over where the residual is below it
    assert residual_error_bound(0.0, 2.0, 1.0, 1.0, 1.0, 0.5, rounding=1e-16) \
        == pytest.approx(7e-16, rel=1e-15)
    assert residual_error_bound(1e-3, 2.0, 1.0, 1.0, 1.0, 0.5, rounding=1e-16) == radius


def test_dualgap_radius_arithmetic():
    # the larger root of mu r^2 - a r - delta = 0, plus the rounding term
    x, Fy = np.array([0.5, -1.0]), np.array([2.0, 0.25])
    rounding = 4 * 2 * (math.ulp(2.0) + 0.1 * math.ulp(1.0)) / 0.2 + 4 * math.ulp(1.0)
    r, floor = dualgap_radius(0.3, 0.02, 0.2, 0.1, Fy, x)
    assert r == (0.3 + math.sqrt(0.09 + 4 * 0.2 * 0.02)) / 0.4 + rounding
    assert 0.2 * (r - rounding) ** 2 - 0.3 * (r - rounding) - 0.02 == pytest.approx(0, abs=1e-15)
    assert floor == math.sqrt(0.1) + rounding
    assert floor == pytest.approx(dualgap_radius(0.0, 0.02, 0.2, 0.1, Fy, x)[0], rel=1e-15)
    # an exact oracle (delta = 0): a / mu, and the floor is the rounding alone
    r, floor = dualgap_radius(0.3, 0.0, 0.2, 0.1, Fy, x)
    assert r == pytest.approx(1.5 + rounding, rel=1e-15) and floor == rounding
    for a, delta, mu in [(-1e-3, 0.0, 0.2), (0.3, -1e-16, 0.2), (0.3, 0.0, 0.0)]:
        with pytest.raises(ValueError):
            dualgap_radius(a, delta, mu, 0.1, Fy, x)


def test_residual_rounding_scale():
    x = np.array([3.0, 4.0])
    Tx = np.array([0.0, 10.0])
    assert residual_rounding(x, Tx, 2.0) == 2 * np.finfo(float).eps * (5.0 + 5.0)


def test_residual_bound_rejects_bad_inputs():
    for args in [(1e-3, 2.0, 1.0, 0.0, 1.0, 0.5),     # rho
                 (1e-3, 2.0, 1.0, 1.0, 1.0, 0.0),     # epsilon
                 (1e-3, 2.0, 1.0, 1.0, 0.0, 0.5),     # alpha
                 (1e-3, -2.0, 1.0, 1.0, 1.0, 0.5),    # L
                 (-1e-3, 2.0, 1.0, 1.0, 1.0, 0.5),    # residual
                 (math.inf, 2.0, 1.0, 1.0, 1.0, 0.5)]:  # residual not finite
        with pytest.raises(ValueError):
            residual_error_bound(*args)
    with pytest.raises(ValueError):
        residual_error_bound(1e-3, 2.0, 1.0, 1.0, 1.0, 0.5, rounding=-1.0)


def test_residual_bound_sound_against_closed_form(ba_problem, l2):
    # ||x - x_eps|| <= radius on 200 seeded points per eps, at distances from
    # 1e-15 to 3 of x_eps, and at x = fl(x_eps) itself, where H may evaluate
    # to 0 and only the rounding floor keeps the radius above the true
    # distance |fl(x_eps) - x_eps| <= u ||x_eps||
    rng = np.random.default_rng(41)
    u = np.finfo(float).eps
    for eps in (0.5, 0.01, 1e-4):
        x_e = x_eps_direct(eps)
        T = regularized_operator(ba_problem.map, l2, eps)
        points = [x_e] + [x_e + 10.0 ** rng.uniform(-15.0, 0.5) * rng.standard_normal(3)
                          for _ in range(199)]
        for x in points:
            y = theta_alpha(ba_problem, x, 1.0, eps, l2).maximizer
            r = float(np.linalg.norm(x - y))
            radius = residual_error_bound(r, 2.0, 1.0, 1.0, 1.0, eps,
                                          residual_rounding(x, T(x), 1.0))
            assert float(np.linalg.norm(x - x_e)) + u * np.linalg.norm(x_e) <= radius


# ---------------------------------------------------------------------------
# epsilon error bounds
# ---------------------------------------------------------------------------

def test_eps_bound_zero_at_zero():
    m = SharpnessModel(gamma=2.0, alpha_sharp=1.0)
    assert eps_to_S0_bound(m, 1.0, 0.0) == 0.0


def test_eps_bound_linear_case():
    m = SharpnessModel(gamma=2.0, alpha_sharp=1.0)
    assert eps_to_S0_bound(m, 1.0, 0.01) == pytest.approx(0.01)
    # (eps * M / alpha_sharp)^(1/(gamma-1)) as written
    m = SharpnessModel(gamma=2.5, alpha_sharp=0.7)
    assert eps_to_S0_bound(m, 2.0, 0.1) == (0.1 * 2.0 / 0.7) ** (1.0 / 1.5)


def test_eps_bound_monotone_in_eps():
    m = SharpnessModel(gamma=2.5, alpha_sharp=0.7)
    rads = [eps_to_S0_bound(m, 2.0, e) for e in (0.01, 0.1, 0.5, 1.0)]
    assert all(a < b for a, b in zip(rads, rads[1:]))


def test_sharpness_model_rejects_order_one():
    with pytest.raises(ValueError):
        SharpnessModel(gamma=1.0, alpha_sharp=1.0)
    with pytest.raises(ValueError):
        SharpnessModel(gamma=2.0, alpha_sharp=0.0)


def test_eps_bound_dominates_benchmark_distances():
    # quadratic regularizer on the best-approximation instance: fitted order 2,
    # sharpness constant 1/4, subgradient bound sup ||x|| over the segment
    m = SharpnessModel(gamma=2.0, alpha_sharp=0.25, source="user_declared")
    M = float(np.linalg.norm([1.0, -0.75, -0.25]))
    for eps in (0.5, 0.1, 0.01, 0.005):
        d_dual = eps / (math.sqrt(2.0) * (1.0 + 2.0 * eps))
        d_direct = eps / (2.0 * math.sqrt(2.0) * (1.0 + eps))
        assert eps_to_S0_bound(m, M, eps) >= max(d_dual, d_direct)


def test_eps_bounds_two_sided_on_synthetic():
    # 1-D: F = 2x on [-1, 1] gives G(x) = x^2/2 (alpha_sharp = 1/2, gamma = 2);
    # phi = x^2/2 + x has gradient bound 1 on S0 = {0}. Closed forms:
    # dual-gap minimizer -eps/(1+eps), direct solution -eps/(2+eps). Both
    # bounds are sound; the dual-gap radius is tight to a factor 2(1+eps)
    # (the subgradient linearization loses exactly 2 on a quadratic G), the
    # direct radius to 2(2+eps) (the direct model is stiffer by F's modulus).
    m = SharpnessModel(gamma=2.0, alpha_sharp=0.5)
    eps = 1e-4
    d_dual = eps / (1.0 + eps)
    d_direct = eps / (2.0 + eps)
    r = eps_to_S0_bound(m, 1.0, eps)
    assert d_dual <= r <= 2.001 * d_dual
    assert d_direct <= r
    assert r / d_dual == pytest.approx(2.0 * (1.0 + eps), rel=1e-10)
    assert r / d_direct == pytest.approx(2.0 * (2.0 + eps), rel=1e-10)


def test_order1_inequality():
    lhs, rhs, holds = order1_inequality(1.0, 0.1, 0.05, 1.0, 0.4)
    assert lhs == pytest.approx(0.05)
    assert rhs == pytest.approx(0.06)
    assert holds


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

def test_exactness_on_solution_set(ba_problem):
    for x in ba_problem.solution_oracle.sample_S0(3, seed=1):
        assert exactness_check(ba_problem, x, tol=1e-7) == EXACT


def test_exactness_not_exact_for_quadratic_minimizers(ba_problem):
    for eps in (0.5, 0.1, 0.01, 0.005):
        assert exactness_check(ba_problem, x_G_l2(eps), tol=1e-7) == NOT_EXACT


def test_exactness_inconclusive_between_thresholds(ba_problem):
    # G at this point sits strictly between tol and 10*tol
    x = x_G_l2(0.005)
    g = 0.005 ** 2 / (8.0 * (1.0 + 2 * 0.005) ** 2)
    tol = g / 3.0
    assert exactness_check(ba_problem, x, tol=tol) == INCONCLUSIVE


def test_exactness_requires_membership(ba_problem):
    # off-set point with tiny dual gap value is not declared exact
    x = np.array([0.5, -0.75 + 0.3, -0.25 + 0.3])
    assert exactness_check(ba_problem, x, tol=1e2) != EXACT


def x_eps_l2(eps):
    """Closed-form solution of the directly regularized problem, quadratic phi."""
    s = -(3.0 + 2.0 * eps) / (4.0 * (1.0 + eps))
    return np.array([0.0, s, -1.0 - s])


def test_exactness_verdict_matrix(ba_problem):
    # direct model: the l1 solution coincides with a solution of the original
    # problem at every eps; the quadratic one never does. The smallest
    # regularized gap here is G = 7.7e-7 at eps=0.005, hence tol=5e-8 (still
    # far above the inner solve's value accuracy).
    xstar = np.array([0.0, -0.75, -0.25])
    for eps in (0.5, 0.1, 0.01, 0.005, 1e-4):
        assert exactness_check(ba_problem, xstar, tol=5e-8) == EXACT
    for eps in (0.5, 0.1, 0.01, 0.005):
        assert exactness_check(ba_problem, x_eps_l2(eps), tol=5e-8) == NOT_EXACT
    # dual-gap model minimizers, quadratic regularizer
    for eps in (0.5, 0.1, 0.01, 0.005):
        assert exactness_check(ba_problem, x_G_l2(eps), tol=1e-7) == NOT_EXACT


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-6])
def test_exactness_check_rejects_a_tolerance_that_is_not_positive_and_finite(ba_problem, tol):
    # at tol = inf every point of Omega would read exact, P_Omega(1, -2, 1) among
    # them, which reads not_exact at the default tolerance
    x = ba_problem.set.project(np.array([1.0, -2.0, 1.0]))
    assert exactness_check(ba_problem, x) == NOT_EXACT
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        exactness_check(ba_problem, x, tol=tol)


def test_verdict_rule_branches(ba_problem):
    tol, up = 1e-6, math.nextafter
    xstar = np.array([0.0, -0.75, -0.25])
    assert _verdict(ba_problem, xstar, tol, tol) == EXACT
    assert _verdict(ba_problem, xstar, up(tol, 1.0), up(tol, 1.0)) == INCONCLUSIVE
    assert _verdict(ba_problem, xstar, 10.0 * tol, 10.0 * tol) == INCONCLUSIVE
    g = up(10.0 * tol, 1.0)
    assert _verdict(ba_problem, xstar, g, g) == NOT_EXACT
    assert _verdict(ba_problem, xstar, g, g + DUAL_GAP_TOL / 2) == NOT_EXACT
    # a bracket wider than DUAL_GAP_TOL is no converged G, whatever its value
    assert _verdict(ba_problem, xstar, g, g + 2.0 * DUAL_GAP_TOL) == INCONCLUSIVE
    assert _verdict(ba_problem, xstar, 1.0, math.inf) == INCONCLUSIVE
    assert _verdict(ba_problem, xstar, 0.0, 2.0 * DUAL_GAP_TOL) == EXACT
    # off Omega by more than 1e-8 a zero gap is not exact; within 1e-8 it is
    assert _verdict(ba_problem, xstar + [0.0, 0.0, 3e-8], 0.0, 0.0) == INCONCLUSIVE
    assert _verdict(ba_problem, np.array([1.0 + 2e-8, -0.75, -0.25]), 0.0, 0.0) == INCONCLUSIVE
    assert _verdict(ba_problem, np.array([1.0 + 5e-9, -0.75, -0.25]), 0.0, 0.0) == EXACT


def test_exactness_check_is_the_rule_on_dual_gap():
    # on seeded points of an exact G (example5_1) and of the ascent (a ball)
    verdicts = set()
    for problem in (example_5_1(), sharp_quadratic_ball(2)):
        points = list(sample_in_set(problem.set, 12, seed=3, radius=1.5))
        points += list(problem.solution_oracle.sample_S0(3, seed=4))
        points += [x + 1e-3 for x in points[:3]]   # off example5_1's Omega
        for x in points:
            ev = dual_gap(problem, x)
            upper = ev.upper if ev.upper is not None else ev.value if ev.converged else math.inf
            for tol in (1e-9, 1e-6, 1e-3):
                verdict = exactness_check(problem, x, tol)
                assert verdict == _verdict(problem, x, ev.value, upper, tol)
                verdicts.add(verdict)
    assert verdicts == {EXACT, NOT_EXACT, INCONCLUSIVE}


# ---------------------------------------------------------------------------
# sharpness fitting
# ---------------------------------------------------------------------------

def test_fit_sharpness_recovers_exact_model():
    p = sharp_quadratic_ball(2)
    samples = sample_in_set(p.set, 120, seed=2, radius=0.7)
    model = fit_sharpness(p, samples)
    assert model.gamma == pytest.approx(2.0, abs=0.02)
    assert model.alpha_sharp == pytest.approx(1.0, abs=0.02)
    assert model.source == "fitted"


def test_fit_sharpness_degenerate_spread():
    p = sharp_quadratic_ball(2)
    ring = np.array([[0.3 * math.cos(t), 0.3 * math.sin(t)]
                     for t in np.linspace(0, 2 * math.pi, 24)])
    with pytest.raises(DegenerateSamplesError):
        fit_sharpness(p, ring)


def test_fit_sharpness_benchmark_order_two(ba_problem):
    samples = sample_in_set(ba_problem.set, 200, seed=3, radius=0.8)
    model = fit_sharpness(ba_problem, samples)
    assert 1.8 <= model.gamma <= 2.2
