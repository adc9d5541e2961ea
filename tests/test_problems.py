"""Built-in instances: oracles, constants, and the grid gap oracles."""
import numpy as np
import pytest

from vigap.core import DimensionMismatchError, affine_map, box, l1_regularizer, tikhonov
from vigap.gap import dual_gap, theta_ab
from vigap.problems import (
    ProblemInstance,
    affine_monotone,
    brute_force_dual_gap,
    brute_force_gap,
    get_problem,
    sharp_quadratic_ball,
    strongly_monotone_quadratic,
)
from vigap.solvers import reference_solution


# ---------------------------------------------------------------------------
# best-approximation benchmark
# ---------------------------------------------------------------------------

def test_distance_oracle_values(ba_problem):
    d = ba_problem.solution_oracle.distance_to_S0
    assert d(np.array([0.5, -0.75, -0.25])) == 0.0
    assert d(np.array([2.0, -0.75, -0.25])) == pytest.approx(1.0)
    assert d(np.array([0.0, 0.0, 0.0])) == pytest.approx(np.sqrt(10.0) / 4.0)


def test_distance_oracle_matches_segment_scan(ba_problem):
    # grid-search the segment parameter as an independent check
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 1.0, 20001)
    seg = np.zeros((ts.size, 3))
    seg[:, 0] = ts
    seg[:, 1] = -0.75
    seg[:, 2] = -0.25
    for _ in range(5):
        x = rng.uniform(-2, 2, size=3)
        brute = np.min(np.linalg.norm(seg - x, axis=1))
        assert ba_problem.solution_oracle.distance_to_S0(x) == pytest.approx(
            brute, abs=1e-7)


def test_S0_samples_are_solutions(ba_problem):
    pts = ba_problem.solution_oracle.sample_S0(25, seed=4)
    for x in pts:
        assert theta_ab(ba_problem, x, 1.0, 2.0).value <= 1e-10
        assert abs(dual_gap(ba_problem, x).value) <= 1e-6


def test_declared_constants(ba_problem):
    assert ba_problem.map.lipschitz_L == 2.0
    assert ba_problem.map.mu == 0.0   # monotone, not strongly
    assert ba_problem.dimension == 3
    np.testing.assert_allclose(ba_problem.default_x0, [1.0, -2.0, 1.0])


def test_instance_rejects_a_set_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        ProblemInstance(name="mismatch", map=affine_map(np.eye(2), np.zeros(2)),
                        set=box(-np.ones(3), np.ones(3)))


# ---------------------------------------------------------------------------
# affine instances
# ---------------------------------------------------------------------------

def test_affine_monotone_probe_and_oracle():
    from probes import probe_monotonicity

    for seed in (0, 1, 2):
        p = affine_monotone(3, seed=seed)
        assert probe_monotonicity(p.map, p.set, n_pairs=200, seed=seed) >= -1e-10
        assert p.solution_oracle is not None
        x = p.solution_oracle.sample_S0(1, 0)[0]
        assert theta_ab(p, x, 1.0, 2.0).value <= 1e-10


def test_affine_identity_interior_solution():
    # M = I, q = -c with c interior to the box: the solution set is {c}
    c = np.array([0.2, -0.4])
    p = ProblemInstance(
        name="identity",
        map=affine_map(np.eye(2), -c),
        set=box(-np.ones(2), np.ones(2)),
    )
    x, res = reference_solution(p, 0.0, None)
    np.testing.assert_allclose(x, c, atol=1e-10)


def test_zero_map_every_point_solves():
    # M = 0, q = 0: the solution set is the whole feasible set
    p = ProblemInstance(
        name="null",
        map=affine_map(np.zeros((2, 2)), np.zeros(2)),
        set=box(-np.ones(2), np.ones(2)),
    )
    rng = np.random.default_rng(32)
    for _ in range(10):
        x = p.set.project(rng.uniform(-2, 2, size=2))
        assert theta_ab(p, x, 1.0, 2.0).value <= 1e-14


def test_affine_2d_oracle_matches_grid_zero_set():
    p = affine_monotone(2, seed=5)
    xstar = p.solution_oracle.sample_S0(1, 0)[0]
    # the dual gap vanishes at the oracle solution and grows away from it
    assert brute_force_dual_gap(p, xstar, grid_resolution=1e-3) <= 1e-5
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = p.set.project(xstar + 0.5 * rng.standard_normal(2))
        if np.linalg.norm(x - xstar) >= 0.2:
            assert brute_force_dual_gap(p, x, grid_resolution=1e-3) >= 1e-4


def test_affine_monotone_is_a_function_of_its_seed():
    # each call builds afresh: the same (n, seed) gives the same F and x*
    x = np.array([0.3, -0.2, 0.9])
    a, b, c = (affine_monotone(3, seed) for seed in (9, 9, 10))
    assert a is not b
    assert a.map(x).tobytes() == b.map(x).tobytes() != c.map(x).tobytes()
    xstar = [p.solution_oracle.sample_S0(1)[0].tobytes() for p in (a, b)]
    assert xstar[0] == xstar[1]


# ---------------------------------------------------------------------------
# closed-form instances
# ---------------------------------------------------------------------------

def test_strongly_monotone_quadratic_solution():
    p = strongly_monotone_quadratic(4, seed=6)
    c = -p.map(np.zeros(4))   # F(x) = x - c
    np.testing.assert_allclose(p.solution_oracle.sample_S0(1, 0)[0],
                               np.clip(c, -1, 1))
    assert theta_ab(p, np.clip(c, -1, 1), 1.0, 2.0).value <= 1e-12


def test_sharp_ball_gap_is_squared_distance():
    p = sharp_quadratic_ball(2)
    rng = np.random.default_rng(34)
    for _ in range(6):
        x = p.set.project(0.8 * rng.standard_normal(2))
        g = dual_gap(p, x).value
        assert g == pytest.approx(float(x @ x), abs=1e-8)


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------

def test_brute_force_gap_line_value():
    p = ProblemInstance(
        name="line",
        map=affine_map(np.eye(1), np.zeros(1)),
        set=box([-1.0], [1.0]),
        bounding_box=(np.array([-1.0]), np.array([1.0])),
    )
    val = brute_force_gap(p, np.array([1.0]), alpha=1.0, grid_resolution=1e-4)
    assert val == pytest.approx(0.5, abs=1e-4)
    # at the solution the gap is zero up to grid resolution
    assert brute_force_gap(p, np.array([0.0]), alpha=1.0,
                           grid_resolution=1e-4) <= 1e-4


def test_brute_force_gap_rejects_high_dim(ba_problem):
    with pytest.raises(ValueError):
        brute_force_gap(ba_problem, np.zeros(3), alpha=1.0)


def test_brute_force_agreement_sweep():
    rng = np.random.default_rng(35)
    p1 = affine_monotone(1, seed=12)
    p2 = affine_monotone(2, seed=12)
    regs = (None, tikhonov(), l1_regularizer())
    worst = 0.0
    for problem in (p1, p2):
        lo, hi = problem.bounding_box
        h = 1e-3 * float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)))
        for _ in range(25):
            from vigap.gap import theta_alpha

            x = problem.set.project(rng.uniform(-1.2, 1.2, size=problem.dimension))
            alpha = float(rng.uniform(0.5, 3.0))
            reg = regs[int(rng.integers(3))]
            eps = 0.0 if reg is None else float(rng.uniform(0.0, 0.6))
            explicit = theta_alpha(problem, x, alpha, eps, reg).value
            grid = brute_force_gap(problem, x, alpha, eps, reg=reg)
            worst = max(worst, abs(explicit - grid))
            assert abs(explicit - grid) <= 5 * h
    assert worst > 0  # the sweep exercised nontrivial values


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_lookup():
    assert get_problem("example5_1").name == "example5_1"
    with pytest.raises(KeyError, match="example5_1"):
        get_problem("nope")
