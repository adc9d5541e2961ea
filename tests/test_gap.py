"""Gap function values against hand computations and grid oracles."""
from dataclasses import replace

import numpy as np
import pytest

from vigap import gap
from vigap.cli import load_problem_file
from vigap.core import affine_map, box, l1_regularizer, tikhonov
from vigap.gap import (
    DUAL_GAP_TOL,
    FD_STEP,
    affine_box_dual_gap,
    dual_gap,
    theta_ab,
    theta_alpha,
)
from vigap.problems import (
    ProblemInstance,
    affine_monotone,
    affine_problem,
    brute_force_dual_gap,
    brute_force_gap,
    get_problem,
    strongly_monotone_quadratic,
)
from vigap.solvers import solve_pge
from probes import ill_conditioned_box_vi, sample_in_set

X0 = np.array([1.0, -2.0, 1.0])
XSTAR = np.array([0.0, -0.75, -0.25])


def line_problem():
    """1-D instance F(x) = x on [-1, 1]; solutions at the origin."""
    return ProblemInstance(
        name="line",
        map=affine_map(np.eye(1), np.zeros(1)),
        set=box([-1.0], [1.0]),
        bounding_box=(np.array([-1.0]), np.array([1.0])),
    )


def zero_map_problem(n=3):
    return ProblemInstance(
        name="zero",
        map=affine_map(np.zeros((n, n)), np.zeros(n)),
        set=box(-np.ones(n), np.ones(n)),
        bounding_box=(-np.ones(n), np.ones(n)),
    )


def grid_sup_theta(problem, x, alpha, lo, hi, n=200001):
    """Dense 1-D maximization of <F(x), x-y> - (alpha/2)(y-x)^2."""
    y = np.linspace(lo, hi, n)
    fx = problem.map(x)[0]
    vals = fx * (x[0] - y) - 0.5 * alpha * (y - x[0]) ** 2
    return float(vals.max())


# ---------------------------------------------------------------------------
# y_alpha(x) = P_Omega(x - T(x)/alpha), the maximizer theta_alpha returns
# ---------------------------------------------------------------------------

def test_y_alpha_fixed_point_on_solutions(ba_problem):
    for x in ba_problem.solution_oracle.sample_S0(5, seed=1):
        for alpha in (0.5, 1.0, 3.0):
            np.testing.assert_allclose(theta_alpha(ba_problem, x, alpha).maximizer, x,
                                       atol=1e-12)


def test_y_alpha_hand_value(ba_problem):
    # F(x0) = x0 - clamp(x0) = (0, -7/4, 0); project x0 - F(x0) = (1, -1/4, 1)
    got = theta_alpha(ba_problem, X0, alpha=1.0).maximizer
    z = X0 - ba_problem.map(X0)
    np.testing.assert_allclose(z, [1.0, -0.25, 1.0], atol=1e-15)
    m = (z[1] + z[2] + 1.0) / 2.0
    expect = np.array([min(z[0], 1.0), z[1] - m, z[2] - m])
    np.testing.assert_allclose(got, expect, atol=1e-15)
    np.testing.assert_allclose(got, [1.0, -1.125, 0.125], atol=1e-15)
    # dense nearest-point scan over the parametrized set agrees
    ts = np.linspace(-2.0, 1.0, 1501)
    ss = np.linspace(-3.0, 2.0, 2501)
    tt, sv = np.meshgrid(ts, ss, indexing="ij")
    d2 = (tt - z[0]) ** 2 + (sv - z[1]) ** 2 + (-1.0 - sv - z[2]) ** 2
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    ref = np.array([tt[i, j], sv[i, j], -1.0 - sv[i, j]])
    assert np.linalg.norm(got - ref) < 4e-3


def test_y_alpha_zero_map_projects():
    p = zero_map_problem()
    x = np.array([2.0, -3.0, 0.5])
    np.testing.assert_allclose(theta_alpha(p, x, 1.7).maximizer, p.set.project(x))


def test_y_alpha_rejects_bad_alpha(ba_problem):
    with pytest.raises(ValueError, match="alpha must be positive"):
        theta_alpha(ba_problem, X0, alpha=0.0)


# ---------------------------------------------------------------------------
# theta_alpha / theta_ab
# ---------------------------------------------------------------------------

def test_theta_alpha_line_hand_value():
    p = line_problem()
    ev = theta_alpha(p, np.array([1.0]), alpha=1.0)
    assert ev.value == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(ev.maximizer, [0.0])
    # dense-grid supremum agrees
    assert ev.value == pytest.approx(
        grid_sup_theta(p, np.array([1.0]), 1.0, -1.0, 1.0), abs=1e-9)


def test_theta_ab_line_hand_value():
    p = line_problem()
    ev = theta_ab(p, np.array([1.0]), 1.0, 2.0)
    # theta_1 = 0.5, y_2(1) = 1/2, theta_2 = 1/2 - 1/4 = 0.25
    assert ev.value == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(ev.maximizer_beta, [0.5])


def test_theta_alpha_zero_at_l1_regularized_solution(ba_problem, l1):
    for eps in (0.5, 0.1, 0.01):
        ev = theta_alpha(ba_problem, XSTAR, 1.0, eps, l1)
        assert abs(ev.value) <= 1e-9


def test_l1_d_gap_is_zero_at_x_star_and_continuous_there(ba_problem, l1):
    # the mixed VI's D-gap: 0 at x*, and (beta - alpha)/2 t^2 at x* + t e1 for
    # |t| <= eps, where the sign selection's D-gap jumped to about eps^2/4
    for eps in (0.5, 0.1, 0.01, 1e-4):
        assert theta_ab(ba_problem, XSTAR, 1.0, 2.0, eps, l1).value == 0.0
        for t in (1e-9, -1e-9, 1e-6):
            x = XSTAR + np.array([t, 0.0, 0.0])
            assert theta_ab(ba_problem, x, 1.0, 2.0, eps, l1).value <= t * t


def test_theta_zero_map_on_members():
    p = zero_map_problem()
    x = p.set.project(np.array([0.3, -0.7, 0.2]))
    assert theta_alpha(p, x, 1.0).value == pytest.approx(0.0, abs=1e-15)


def test_theta_ab_zero_iff_solution(ba_problem, l2):
    eps = 0.5
    xe = np.array([0.0, -(3 + 2 * eps) / (4 * (1 + eps)), 0.0])
    xe[2] = -1.0 - xe[1]
    assert theta_ab(ba_problem, xe, 1.0, 2.0, eps, l2).value <= 1e-12
    off = xe + np.array([0.0, 0.05, -0.05])
    assert theta_ab(ba_problem, off, 1.0, 2.0, eps, l2).value > 1e-4


def test_theta_ab_nonnegative_everywhere(ba_problem, l1):
    rng = np.random.default_rng(21)
    for _ in range(500):
        x = rng.uniform(-3, 3, size=3)  # both on and off the feasible set
        assert theta_ab(ba_problem, x, 1.0, 2.0).value >= -1e-12
    # and the l1 levels' D-gap, through the set's l1 prox
    for k in range(500):
        x = rng.uniform(-3, 3, size=3)
        eps = (0.5, 0.1, 0.01, 1e-4)[k % 4]
        assert theta_ab(ba_problem, x, 1.0, 2.0, eps, l1).value >= -1e-12


def test_theta_ab_positive_off_set(ba_problem):
    rng = np.random.default_rng(22)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=3)
        x[1] += 0.5  # push off the hyperplane
        if not ba_problem.set.contains(x, 1e-9):
            assert theta_ab(ba_problem, x, 1.0, 2.0).value > 0.0


def test_theta_ab_rejects_bad_order(ba_problem):
    with pytest.raises(ValueError):
        theta_ab(ba_problem, X0, 2.0, 1.0)
    with pytest.raises(ValueError):
        theta_ab(ba_problem, X0, 1.0, 1.0)


def test_theta_monotone_in_alpha(ba_problem, l2):
    rng = np.random.default_rng(23)
    for _ in range(100):
        x = rng.uniform(-2, 2, size=3)
        a1, a2 = sorted(rng.uniform(0.2, 4.0, size=2))
        if a2 - a1 < 1e-6:
            continue
        t1 = theta_alpha(ba_problem, x, a1, 0.3, l2).value
        t2 = theta_alpha(ba_problem, x, a2, 0.3, l2).value
        assert t1 >= t2 - 1e-12


def test_theta_alpha_matches_grid_oracle_2d():
    p = affine_monotone(2, seed=3)
    rng = np.random.default_rng(24)
    h = 1e-3 * float(np.linalg.norm(np.asarray(p.bounding_box[1])
                                    - np.asarray(p.bounding_box[0])))
    for reg, eps in ((None, 0.0), (tikhonov(), 0.4), (l1_regularizer(), 0.4)):
        x = p.set.project(rng.uniform(-1, 1, size=2))
        explicit = theta_alpha(p, x, 1.3, eps, reg).value
        grid = brute_force_gap(p, x, 1.3, eps, reg=reg)
        assert abs(explicit - grid) <= 5 * h


# ---------------------------------------------------------------------------
# dual gap
# ---------------------------------------------------------------------------

def test_dual_gap_zero_on_solution_set(ba_problem):
    for x in ba_problem.solution_oracle.sample_S0(4, seed=2):
        ev = dual_gap(ba_problem, x)
        assert ev.converged
        assert abs(ev.value) <= 1e-6
        assert ba_problem.set.contains(ev.maximizer, 1e-8)


def test_dual_gap_zero_map():
    p = zero_map_problem()
    ev = dual_gap(p, np.array([0.4, -0.2, 0.9]))
    assert ev.value == pytest.approx(0.0, abs=1e-15)


def test_dual_gap_known_value(ba_problem):
    # default start of the benchmark: the separable pieces give G = 0.75
    ev = dual_gap(ba_problem, X0)
    assert ev.value == pytest.approx(0.75, abs=1e-8)


def test_dual_gap_affine_2d_matches_grid():
    p = affine_monotone(2, seed=7)
    rng = np.random.default_rng(25)
    for _ in range(5):
        x = p.set.project(rng.uniform(-1, 1, size=2))
        ev = dual_gap(p, x)
        grid = brute_force_dual_gap(p, x, grid_resolution=2e-3)
        assert ev.converged
        assert abs(ev.value - grid) <= 1e-4
        assert ev.value >= grid - 1e-9  # grid is itself a lower bound


def test_dual_gap_convex_midpoint(ba_problem):
    rng = np.random.default_rng(26)
    for _ in range(10):
        x, z = (ba_problem.set.project(rng.uniform(-2, 2, size=3)) for _ in range(2))
        gx = dual_gap(ba_problem, x).value
        gz = dual_gap(ba_problem, z).value
        gm = dual_gap(ba_problem, 0.5 * (x + z)).value
        assert gm <= 0.5 * gx + 0.5 * gz + 1e-7


def test_dual_gap_zero_set_separation(ba_problem):
    rng = np.random.default_rng(27)
    oracle = ba_problem.solution_oracle
    n_far = 0
    for _ in range(40):
        x = ba_problem.set.project(rng.uniform(-2, 2, size=3))
        g = dual_gap(ba_problem, x).value
        d = oracle.distance_to_S0(x)
        if d <= 1e-8:
            assert g <= 1e-6
        elif d >= 0.1:
            n_far += 1
            assert g >= 1e-4
    assert n_far > 10


def _inner_points(p, count=4, seed=31):
    rng = np.random.default_rng(seed)
    return [p.default_x0] + [p.set.project(rng.uniform(-2, 2, size=p.dimension))
                             for _ in range(count)]


def ascent_only(p):
    """The same problem without its exact dual-gap oracle: dual_gap runs the ascent."""
    return replace(p, dual_gap_exact=None)


@pytest.mark.parametrize("name", ["affine5d", "example5_1"])
def test_dual_gap_row_projection_fallback_is_bit_identical(name):
    # the set's own project_rows and the row-by-row fallback give the same ascent
    p = ascent_only(get_problem(name))
    fallback = replace(p, set=replace(p.set, project_rows=None))
    for x in _inner_points(p):
        fast, slow = dual_gap(p, x), dual_gap(fallback, x)
        assert fast.value == slow.value
        assert np.array_equal(fast.maximizer, slow.maximizer)
        assert fast.inner_iterations == slow.inner_iterations


def test_dual_gap_central_differences_match_analytic_gradient():
    # y -> <My + q, x - y> is quadratic, so central differences carry only
    # rounding, far below FD_STEP; the maximizers then agree to FD_STEP and,
    # G being stationary there, the values to FD_STEP**2
    p = ascent_only(get_problem("affine5d"))
    fd = replace(p, map=replace(p.map, inner_gradient=None))
    for x in _inner_points(p):
        exact, approx = dual_gap(p, x), dual_gap(fd, x)
        assert abs(exact.value - approx.value) <= FD_STEP ** 2 * (1.0 + abs(exact.value))
        assert np.max(np.abs(exact.maximizer - approx.maximizer)) <= FD_STEP


# ---------------------------------------------------------------------------
# dual gap subgradient
# ---------------------------------------------------------------------------

def test_subgradient_zero_map():
    p = zero_map_problem()
    x = np.array([0.1, 0.2, 0.3])
    np.testing.assert_allclose(p.map(dual_gap(p, x).maximizer), np.zeros(3))


def test_subgradient_inequality_affine_2d():
    p = affine_monotone(2, seed=11)
    rng = np.random.default_rng(28)
    for _ in range(25):
        x = p.set.project(rng.uniform(-1, 1, size=2))
        z = p.set.project(rng.uniform(-1, 1, size=2))
        gx = dual_gap(p, x)
        g = p.map(gx.maximizer)
        gz = dual_gap(p, z).value
        assert gz >= gx.value + g @ (z - x) - 1e-6


def test_subgradient_inequality_on_S0(ba_problem):
    x = np.array([0.5, -0.75, -0.25])
    g = ba_problem.map(dual_gap(ba_problem, x).maximizer)
    rng = np.random.default_rng(29)
    for _ in range(20):
        z = ba_problem.set.project(rng.uniform(-2, 2, size=3))
        gz = dual_gap(ba_problem, z).value
        assert g @ (z - x) <= gz + 1e-6


def test_subgradient_propagates_nonconvergence(ba_problem, monkeypatch):
    # a one-iteration budget cannot reach stationarity away from solutions
    monkeypatch.setattr(gap, "ASCENT_MAX_ITER", 1)
    monkeypatch.setattr(gap, "DUAL_GAP_TOL", 1e-14)
    assert not dual_gap(ascent_only(ba_problem), X0).converged


# ---------------------------------------------------------------------------
# exact dual-gap oracles
# ---------------------------------------------------------------------------

def test_example5_1_oracle_is_d_squared_over_four_near_S0(ba_problem):
    # within 0.25 of S0 on Omega, G = d(x, S0)^2 / 4 in closed form
    rng = np.random.default_rng(41)
    oracle = ba_problem.solution_oracle
    n_checked = 0
    for s in oracle.sample_S0(400, seed=42):
        x = ba_problem.set.project(s + rng.uniform(-0.2, 0.2, size=3))
        d = oracle.distance_to_S0(x)
        if d > 0.25:
            continue
        ev = dual_gap(ba_problem, x)
        assert ev.converged and ev.upper == ev.value
        assert ba_problem.set.contains(ev.maximizer, 1e-12)
        assert abs(ev.value - d * d / 4.0) <= 1e-15
        n_checked += 1
    assert n_checked >= 300


def _example5_1_oracle_reference(F, x):
    """example5_1's closed-form G in its array form: the three clamped vertices
    by np.clip, stacked by np.column_stack; returns G, ybar and F(ybar)."""
    _, x2, x3 = x
    u = np.clip([(x2 - 0.25) / 2.0, (x2 - x3 - 2.5) / 4.0, -(x3 + 2.25) / 2.0],
                [-np.inf, -1.25, -0.25], [-1.25, -0.25, np.inf])
    Y = np.column_stack([np.full(3, min(x[0] / 2.0, 0.0)), u, -1.0 - u])
    FY = F.rows(Y)
    vals = np.einsum("ij,ij->i", FY, x - Y)
    k = int(np.argmax(vals))
    return float(vals[k]), Y[k], FY[k]


def test_example5_1_oracle_is_bit_identical_to_its_array_form(ba_problem):
    # the scalar clamps reproduce np.clip bit for bit, signed zeros included:
    # seeded points of Omega, plus points whose vertices land on the kinks
    # u = -1.25 and u = -0.25 (x2 = -2.25, -1.75, 0.25, 0.75), each with
    # x1 in {0.0, -0.0}, in the l1 peak's range and at its bound 1
    rng = np.random.default_rng(47)
    x1 = np.concatenate([rng.uniform(-3.0, 1.0, 1000), [0.0, -0.0, -1e-300, 0.3, 1.0]])
    x2 = np.concatenate([rng.uniform(-4.0, 3.0, 1000), [-2.25, -1.75, 0.25, 0.75, -0.75]])
    points = [np.array([a, b, -1.0 - b]) for a, b in zip(x1[:1000], x2[:1000])]
    points += [np.array([a, b, -1.0 - b]) for a in x1[1000:] for b in x2[1000:]]
    assert any(np.signbit(p[0]) and p[0] == 0.0 for p in points)
    for x in points:
        ev = dual_gap(ba_problem, x)
        value, maximizer, Fy = _example5_1_oracle_reference(ba_problem.map, x)
        assert ev.value == value and np.signbit(ev.value) == np.signbit(value)
        assert ev.maximizer.tobytes() == maximizer.tobytes(), x
        _, upper, _, raw_Fy, steps = ba_problem.dual_gap_exact(x)
        assert upper == value and np.signbit(upper) == np.signbit(value)
        assert raw_Fy.tobytes() == Fy.tobytes() and steps == 0, x


def test_example5_1_oracle_returns_F_at_its_maximizer(ba_problem):
    # the subgradient loop uses the oracle's F(ybar) in place of F's own
    # evaluate, so the two must agree byte for byte
    for x in sample_in_set(ba_problem.set, 200, seed=48):
        _, _, ybar, Fy, _ = ba_problem.dual_gap_exact(x)
        assert Fy.tobytes() == ba_problem.map.evaluate(ybar).tobytes(), x


def test_example5_1_ascent_never_above_oracle(ba_problem):
    # the ascent evaluates <F(y), x - y> at feasible points, so it bounds G from
    # below: it may fall short of the closed form but never exceed it
    rng = np.random.default_rng(43)
    ascent = ascent_only(ba_problem)
    for _ in range(60):
        x = ba_problem.set.project(rng.uniform(-2.5, 2.5, size=3))
        exact, approx = dual_gap(ba_problem, x), dual_gap(ascent, x)
        assert approx.value <= exact.value + 1e-12
        assert exact.value - approx.value <= 1e-6


def _affine_box_cases():
    """Seeded affine box problems in 1-D and 2-D: the built-in ones, plus a
    rank-one and a zero symmetric part, each with a skew part."""
    cases = [affine_monotone(1, 3), affine_monotone(2, 4), strongly_monotone_quadratic(2, 5)]
    rng = np.random.default_rng(44)
    for rank in (1, 0):
        A = rng.standard_normal((rank, 2))
        M = A.T @ A + np.array([[0.0, 0.7], [-0.7, 0.0]])
        q = rng.standard_normal(2)
        lo, hi = np.array([-1.0, -0.5]), np.array([0.5, 1.0])
        cases.append(affine_problem(f"rank{rank}", M, q, box(lo, hi)))
    return cases


@pytest.mark.parametrize("problem", _affine_box_cases(), ids=lambda p: p.name)
def test_affine_box_oracle_matches_grid_and_brackets_G(problem):
    # grid nodes are feasible, so grid <= G <= upper. The grid holds the box's
    # faces, on which the maximizer of h(y) = <My + q, x - y> is stationary,
    # and a node lies within h sqrt(n) / 2 of it; h curves by at most
    # ||M + M^T|| <= 2L, so the grid misses G by at most L n h^2 / 4
    rng = np.random.default_rng(45)
    h = 2e-3
    for _ in range(8):
        x = rng.uniform(-1.5, 1.5, size=problem.dimension)
        ev = dual_gap(problem, x)
        grid = brute_force_dual_gap(problem, x, grid_resolution=h)
        assert ev.converged
        assert ev.value <= ev.upper <= ev.value + DUAL_GAP_TOL
        assert grid <= ev.upper + 1e-12
        assert ev.value >= grid - 1e-12
        assert ev.value - grid <= problem.map.lipschitz_L * problem.dimension * h * h / 4 + 1e-12
        assert problem.set.contains(ev.maximizer, 0.0)


def test_affine_box_oracle_returns_F_at_its_maximizer(tmp_path):
    # as for example5_1: the oracle's F(ybar) is F's evaluate at ybar, byte for
    # byte, on affine5d and on a skew problem file whose box is not [-1, 1]^n
    path = tmp_path / "skew.ini"
    path.write_text("[operator]\nkind = affine\nmatrix = 1 10; -10 0.5\noffset = 3 -2\n"
                    "[set]\nkind = box\nlower = -5 -1\nupper = 2 5\n")
    for p in (affine_monotone(5, 0), load_problem_file(str(path))):
        for x in sample_in_set(p.set, 200, seed=49, radius=4.0):
            _, _, ybar, Fy, _ = p.dual_gap_exact(x)
            assert Fy.tobytes() == p.map.evaluate(ybar).tobytes(), x


def test_affine_box_oracle_converged_is_the_bracket_width(monkeypatch):
    p = affine_monotone(5, 0)
    x = p.default_x0 + 0.3
    ev = dual_gap(p, x)
    width = ev.upper - ev.value
    assert 0.0 <= width <= 1e-12
    monkeypatch.setattr(gap, "DUAL_GAP_TOL", width)
    assert dual_gap(p, x).converged
    monkeypatch.setattr(gap, "DUAL_GAP_TOL", -1.0)
    assert not dual_gap(p, x).converged


def test_affine_box_oracle_needs_a_concave_inner_problem():
    # no finite box, or an indefinite symmetric part: no oracle, the ascent stays
    M, q = np.eye(2), np.zeros(2)
    assert affine_box_dual_gap(M, q, [-1.0, -np.inf], [1.0, 1.0]) is None
    assert affine_box_dual_gap(np.diag([1.0, -1.0]), q, -np.ones(2), np.ones(2)) is None
    assert get_problem("sharp_ball2d").dual_gap_exact is None   # a ball


@pytest.mark.parametrize("corner", [-1e-13, -0.7e-12])
def test_affine_box_oracle_with_sym_M_just_below_zero(corner):
    # the monotonicity test lets an eigenvalue of sym(M) just below zero pass;
    # the box QP takes it as zero, not as a curvature to step 4e12 against.
    # At x = (0.5, 0.5), h(y) = <My + q, x - y> peaks at the corner (-1, 1)
    M, q = np.array([[corner, 1.0], [-1.0, 0.0]]), np.array([0.3, -0.2])
    p = affine_problem("near_psd", M, q, box(-np.ones(2), np.ones(2)))
    assert p.dual_gap_exact is not None
    x = np.array([0.5, 0.5])
    value, upper, ybar, _, _ = p.dual_gap_exact(x)
    assert abs(value - 1.55) <= 1e-11 and upper == value
    assert np.array_equal(ybar, [-1.0, 1.0])
    assert dual_gap(p, x).converged


def test_ill_conditioned_affine_box_pge_has_no_failed_inner_solve(tmp_path):
    # without the oracle, the ascent with its default budget fails 12
    # of the first 21 solves here (seed 0) and solve_pge raises
    # DualGapUnreliableError
    def row(v):
        return " ".join(repr(float(a)) for a in v)

    for seed in (0, 1):
        M, q = ill_conditioned_box_vi(seed)
        path = tmp_path / f"vi{seed}.ini"
        path.write_text(f"[operator]\nkind = affine\nmatrix = {'; '.join(row(r) for r in M)}\n"
                        f"offset = {row(q)}\n[set]\nkind = box\n"
                        f"lower = {row(-np.ones(10))}\nupper = {row(np.ones(10))}\n")
        problem = load_problem_file(str(path))
        assert problem.dual_gap_exact is not None
        _, trace = solve_pge(problem, tikhonov(), 0.01, np.zeros(10))
        assert trace.n_nonconverged == 0
        assert trace.radius <= 1e-6


def test_ill_conditioned_affine_box_pge_radii_overlap():
    # no reference point: the certified balls around two starts' answers must
    # both hold x_eps, so they meet
    for seed in (0, 1):
        M, q = ill_conditioned_box_vi(seed)
        problem = affine_problem("ill", M, q, box(-np.ones(10), np.ones(10)))
        rng = np.random.default_rng(seed)
        (x1, t1), (x2, t2) = (solve_pge(problem, tikhonov(), 0.1, rng.uniform(-1.0, 1.0, 10))
                              for _ in range(2))
        assert t1.radius <= 1e-6 and t2.radius <= 1e-6
        assert np.linalg.norm(x1 - x2) <= t1.radius + t2.radius
