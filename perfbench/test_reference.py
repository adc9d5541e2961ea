"""The benchmark's references against brute-force numeric minimisation.

Run with `python3 -m pytest perfbench`. Nothing here imports vigap.
"""
import numpy as np
import pytest
from scipy.optimize import minimize

import reference as R
from workloads import AFFINE_SKEW, AFFINE_SPECTRUM, affine_instance

# points of Omega for example 5.1 are (a, s, -1 - s) with a <= 1


def _omega(p):
    return np.array([p[0], p[1], -1.0 - p[1]])


def _argmin_omega(f, starts):
    """Minimise f over Omega from several starts; a <= 1 by a smooth reparametrisation."""
    best = None
    for a, s in starts:
        # a = 1 - u^2 covers a <= 1 without a bound constraint
        res = minimize(lambda v: f(_omega((1.0 - v[0] ** 2, v[1]))),
                       [np.sqrt(max(1.0 - a, 0.0)), s], method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    return _omega((1.0 - best.x[0] ** 2, best.x[1]))


def _half_dist_C_sq(x):
    # F = x - P_C(x) is the gradient of d_C(x)^2 / 2
    return 0.5 * float(np.sum(np.minimum(x - R.BA_SHIFT, 0.0) ** 2))


def _brute_dual_gap(x):
    """sup over Omega of <F(y), x - y>: grid over a window, then local refinement."""
    a = np.linspace(-1.5, 1.0, 126)
    s = np.linspace(-2.5, 1.0, 176)
    A, S = np.meshgrid(a, s, indexing="ij")
    Y = np.stack([A.ravel(), S.ravel(), -1.0 - S.ravel()], axis=1)
    vals = np.einsum("ij,ij->i", np.minimum(Y - R.BA_SHIFT, 0.0), x - Y)
    best = -np.inf
    for k in np.argsort(vals)[-4:]:
        res = minimize(lambda v: -float(R.ba_F(_omega((min(v[0], 1.0), v[1])))
                                        @ (x - _omega((min(v[0], 1.0), v[1])))),
                       Y[k, :2], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 4000})
        best = max(best, -res.fun, vals[k])
    return best


STARTS = [(1.0, -2.0), (0.3, -0.5), (-0.5, -1.0)]


@pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
def test_ba_direct_l2_closed_form(eps):
    x = R.ba_solution("direct", "l2", eps)
    # a VI solution: the natural residual of T = F + eps x vanishes
    T = R.ba_F(x) + eps * x
    assert np.linalg.norm(x - R.ba_project(x - T)) <= 1e-15
    # and the minimiser of d_C^2/2 + eps ||x||^2/2 over Omega
    brute = _argmin_omega(lambda z: _half_dist_C_sq(z) + 0.5 * eps * z @ z, STARTS)
    assert np.linalg.norm(brute - x) <= 1e-6


@pytest.mark.parametrize("eps", [0.5, 1e-4])
def test_ba_direct_l1_is_xstar(eps):
    brute = _argmin_omega(lambda z: _half_dist_C_sq(z) + eps * np.abs(z).sum(), STARTS)
    assert np.linalg.norm(brute - R.ba_solution("direct", "l1", eps)) <= 1e-5


def test_ba_dual_gap_closed_form_near_S0():
    rng = np.random.default_rng(3)
    u = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)
    for _ in range(12):
        t = rng.uniform(-0.1, 1.1)
        p = np.array([min(max(t, 0.0), 1.0), -0.75, -0.25])
        x = np.array([t, -0.75, -0.25]) + rng.uniform(-0.15, 0.15) * u
        x = R.ba_project(x)
        if R.ba_dist_S0(x) > R.BA_GAP_RADIUS:
            continue
        assert abs(_brute_dual_gap(x) - R.ba_dual_gap(x)) <= 1e-9, (x, p)
    with pytest.raises(ValueError):
        R.ba_dual_gap(np.array([0.0, 0.0, -1.0]))


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_ba_dualgap_l2_closed_form(eps):
    x = R.ba_solution("dualgap", "l2", eps)
    brute = _argmin_omega(lambda z: _brute_dual_gap(z) + 0.5 * eps * z @ z,
                          [(0.0, -0.7)])
    assert np.linalg.norm(brute - x) <= 1e-5


def test_ba_dualgap_l1_is_xstar():
    brute = _argmin_omega(lambda z: _brute_dual_gap(z) + 0.5 * np.abs(z).sum(),
                          [(0.1, -0.7)])
    assert np.linalg.norm(brute - R.BA_XSTAR) <= 1e-5


def _spd(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A @ A.T / n + 0.2 * np.eye(n)


def _skew(n, seed, norm):
    B = np.random.default_rng(seed).standard_normal((n, n))
    return norm / np.linalg.norm(B - B.T, 2) * (B - B.T)


def _vi_violation(vi, x, eps):
    """-min over the box of <F(x) + eps x, y - x>: zero at the solution, positive elsewhere."""
    T = vi.F(x) + eps * x
    return -float(np.sum(np.minimum(T * (vi.lo - x), T * (vi.hi - x))))


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_box_solution_matches_numeric_minimisation(eps):
    # with a symmetric M the VI is the optimality condition of a box QP
    n = 6
    M = _spd(n, 1)
    q = np.random.default_rng(2).standard_normal(n) * 0.6
    vi = R.BoxAffineVI(M, q, -np.ones(n), np.ones(n))
    x = vi.solution(eps)
    assert vi.natural_residual(x, eps) <= 1e-14
    H = M + eps * np.eye(n)
    res = minimize(lambda z: 0.5 * z @ H @ z + q @ z, np.zeros(n), jac=lambda z: H @ z + q,
                   bounds=[(-1.0, 1.0)] * n, method="L-BFGS-B",
                   options={"ftol": 1e-15, "gtol": 1e-12})
    assert np.linalg.norm(res.x - x) <= 1e-6
    assert np.any(np.abs(x) == 1.0) and np.any(np.abs(x) < 1.0)


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_box_solution_with_skew_part_solves_the_vi(eps):
    n = 6
    M = _spd(n, 1) + _skew(n, 3, 1.5)
    q = np.random.default_rng(2).standard_normal(n) * 0.6
    vi = R.BoxAffineVI(M, q, -np.ones(n), np.ones(n))
    x = vi.solution(eps)
    assert vi.natural_residual(x, eps) <= 1e-14
    assert _vi_violation(vi, x, eps) <= 1e-14
    assert np.any(np.abs(x) == 1.0) and np.any(np.abs(x) < 1.0)
    # every other point of the box violates the VI
    for y in np.random.default_rng(4).uniform(-1.0, 1.0, (20, n)):
        assert _vi_violation(vi, y, eps) > 0.0
    # the skew part changes the answer: the symmetric part alone gives another point
    sym = R.BoxAffineVI(0.5 * (M + M.T), q, -np.ones(n), np.ones(n))
    assert np.linalg.norm(sym.solution(eps) - x) > 1e-3


@pytest.mark.parametrize("skew", [0.0, 1.0])
def test_box_dual_gap_matches_multistart_maximisation(skew):
    n = 5
    M = _spd(n, 4) + _skew(n, 7, skew)
    q = np.random.default_rng(5).standard_normal(n)
    vi = R.BoxAffineVI(M, q, -np.ones(n), np.ones(n))
    assert abs(vi.dual_gap(vi.solution())) <= 1e-14
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(-1.0, 1.0, n)
        best = -np.inf
        for y0 in rng.uniform(-1.0, 1.0, (6, n)):
            res = minimize(lambda y: -float((M @ y + q) @ (x - y)), y0,
                           jac=lambda y: -(M.T @ (x - y) - (M @ y + q)),
                           bounds=[(-1.0, 1.0)] * n, method="L-BFGS-B",
                           options={"ftol": 1e-15, "gtol": 1e-12})
            best = max(best, -res.fun)
        assert abs(vi.dual_gap(x) - best) <= 1e-9


@pytest.mark.parametrize("seed,index", [(0, 0), (7, 3)])
def test_generated_instance_plants_its_solution(seed, index):
    M, q, x_star = affine_instance(seed, index)
    eig = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert AFFINE_SPECTRUM[0] * (1 - 1e-9) <= eig.min() and eig.max() <= AFFINE_SPECTRUM[1] * (1 + 1e-9)
    assert np.linalg.norm(0.5 * (M - M.T), 2) == pytest.approx(AFFINE_SKEW, rel=1e-12)
    vi = R.BoxAffineVI(M, q, -np.ones(len(q)), np.ones(len(q)))
    assert np.linalg.norm(vi.solution() - x_star) <= 1e-12
    assert vi.natural_residual(x_star) <= 1e-14
