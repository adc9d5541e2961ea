"""Core geometry: projections, operators, regularizers, sampling probes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from vigap.core import (
    DimensionMismatchError,
    EvaluationError,
    MonotoneMap,
    Regularizer,
    affine_map,
    ball,
    box,
    halfspace,
    hyperplane,
    l1_regularizer,
    project_rows,
    regularized_operator,
    shifted_orthant,
    tikhonov,
)
from probes import probe_convexity, probe_lipschitz, probe_monotonicity, sample_in_set

XSTAR = np.array([0.0, -0.75, -0.25])


def grid_project_ba(z, n_t=2001, n_s=4001):
    """Independent nearest-point search on the best-approximation set.

    Parametrizes the set as (t, s, -1-s) with t <= 1 and scans a dense grid;
    used to cross-check the closed-form projection.
    """
    t = np.linspace(-3.0, 1.0, n_t)
    s = np.linspace(-4.0, 3.0, n_s)
    tt, ss = np.meshgrid(t, s, indexing="ij")
    d2 = (tt - z[0]) ** 2 + (ss - z[1]) ** 2 + (-1.0 - ss - z[2]) ** 2
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return np.array([tt[i, j], ss[i, j], -1.0 - ss[i, j]])


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_ba_projection_clamps_and_projects_line(ba_problem):
    got = ba_problem.set.project(np.array([2.0, 0.0, 0.0]))
    np.testing.assert_allclose(got, [1.0, -0.5, -0.5], atol=1e-14)
    # independent dense-grid nearest point agrees to grid resolution
    ref = grid_project_ba(np.array([2.0, 0.0, 0.0]))
    assert np.linalg.norm(got - ref) < 3e-3


def test_ba_projection_grid_agreement_random(ba_problem):
    rng = np.random.default_rng(5)
    for _ in range(4):
        z = rng.uniform(-2, 2, size=3)
        got = ba_problem.set.project(z)
        ref = grid_project_ba(z)
        assert np.linalg.norm(got - ref) < 3e-3


def test_projection_identity_on_members(ba_problem):
    z = np.array([0.3, -0.75, -0.25])
    np.testing.assert_allclose(ba_problem.set.project(z), z, atol=1e-15)


def test_box_projection_clamp():
    s = box(np.zeros(4), np.ones(4))
    np.testing.assert_allclose(s.project(-np.ones(4)), np.zeros(4))


@pytest.mark.parametrize("feasible", [
    box([-1.0, 0.0], [1.0, 2.0]),
    shifted_orthant([0.0, -0.25, 0.25]),
    ball([0.5, -0.5, 0.0], 1.5),
    hyperplane([1.0, 1.0], -1.0),
    halfspace([1.0, -2.0, 0.5], 0.25),
], ids=["box", "shifted_orthant", "ball", "hyperplane", "halfspace"])
def test_projection_invariants_1000_pairs(feasible):
    rng = np.random.default_rng(11)
    Z = 3.0 * rng.standard_normal((1000, feasible.dimension))
    W = 3.0 * rng.standard_normal((1000, feasible.dimension))
    for z, w in zip(Z, W):
        pz = feasible.project(z)
        pw = feasible.project(w)
        assert np.linalg.norm(feasible.project(pz) - pz) <= 1e-10
        assert np.linalg.norm(pz - pw) <= np.linalg.norm(z - w) + 1e-10
        assert feasible.contains(pz, 1e-10)


def _same_floats(got, ref):
    """Exact equality that also tells -0.0 from 0.0 and matches NaN with NaN."""
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_box_projection_matches_clip_on_special_values():
    # np.clip is the reference form of the box projection, of points and of rows
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 2.5]
    bounds = [(lo, hi) for lo in special for hi in special
              if not (np.isnan(lo) or np.isnan(hi)) and lo <= hi]
    cases = [(z, lo, hi) for z in special for lo, hi in bounds]
    z, lo, hi = (np.array(col) for col in zip(*cases))
    rows = np.tile(special, 4)[:, None]
    for n in (1, 3, 8, len(z)):  # short vectors and long enough for SIMD loops
        for start in range(0, len(z), n):
            part = slice(start, start + n)
            s = box(lo[part], hi[part])
            _same_floats(s.project(z[part]), np.clip(z[part], lo[part], hi[part]))
            # every special value in every column
            Z = np.repeat(rows, len(lo[part]), axis=1)
            _same_floats(s.project_rows(Z), np.clip(Z, lo[part], hi[part]))


@pytest.mark.parametrize("kind, shift", [
    (hyperplane, lambda Z, a, b, nn: (Z @ a - b) / nn),
    (halfspace, lambda Z, a, b, nn: np.maximum(Z @ a - b, 0.0) / nn),
], ids=["hyperplane", "halfspace"])
def test_affine_row_projection_matches_outer_form(kind, shift):
    a, b = np.array([1.0, -2.0, 0.5]), 0.25
    feasible = kind(a, b)
    rng = np.random.default_rng(19)
    Z = 3.0 * rng.standard_normal((200, 3))
    Z[:3] = [[np.inf, 0.0, 0.0], [np.nan, 1.0, -1.0], [-0.0, 0.0, -0.0]]
    # np.outer is the reference form; the inf and nan rows give nan on purpose
    with np.errstate(invalid="ignore"):
        _same_floats(feasible.project_rows(Z), Z - np.outer(shift(Z, a, b, float(a @ a)), a))


def _composed_ba_set():
    """example5_1's Omega as the product of the box x1 <= 1 and the hyperplane
    x2 + x3 = -1, each block projected by its own set: the reference form of
    the closed-form projection."""
    b, h = box([-np.inf], [1.0]), hyperplane([1.0, 1.0], -1.0)

    def project(z):
        y = np.empty(np.shape(z))
        y[0:1] = b.project(z[0:1])
        y[1:3] = h.project(z[1:3])
        return y

    def project_rows(Z):
        Y = np.empty(Z.shape)
        Y[:, 0:1] = b.project_rows(Z[:, 0:1])
        Y[:, 1:3] = h.project_rows(Z[:, 1:3])
        return Y

    return project, project_rows


def test_ba_projection_is_bit_identical_to_box_and_hyperplane(ba_problem):
    project, project_rows_ref = _composed_ba_set()
    omega = ba_problem.set
    rng = np.random.default_rng(29)
    Z = 3.0 * rng.standard_normal((10_000, 3))
    Z[:2000, 0] = rng.choice([1.0, 0.0, -0.0, np.nextafter(1.0, 2.0),
                              np.nextafter(1.0, 0.0)], 2000)
    Z[2000:2500, 1] = -1.0 - Z[2000:2500, 2]            # on the hyperplane
    Z[2500:2600] *= 10.0 ** rng.integers(-300, 300, (100, 3))
    Z[2600:2700] = rng.choice([0.0, -0.0, 1e308, -1e308, 5e-324], (100, 3))
    Z_int = rng.integers(-2 ** 62, 2 ** 62, (200, 3))
    Z_int[:100] = rng.integers(-5, 6, (100, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for Zs in (Z, Z_int):
            for z in Zs:
                _same_floats(omega.project(z), project(z))
            _same_floats(omega.project_rows(Zs), project_rows_ref(Zs))


def _central_jacobian(f, x, h=1e-6):
    """Central differences of f at x, or None when a kink lies within h of x
    (a forward and a backward difference then disagree)."""
    fx = np.asarray(f(x), dtype=float)
    J = np.empty((fx.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        fp, fm = np.asarray(f(x + e), dtype=float), np.asarray(f(x - e), dtype=float)
        if np.abs((fp - fx) - (fx - fm)).max() > 1e-6 * h:
            return None
        J[:, k] = (fp - fm) / (2.0 * h)
    return J


def _check_jacobian_hook(f, jac, points):
    """jac matches central differences of f at every point away from a kink;
    returns the number of points checked."""
    checked = 0
    for x in points:
        J_fd = _central_jacobian(f, x)
        if J_fd is not None:
            np.testing.assert_allclose(jac(x), J_fd, rtol=0.0, atol=1e-6)
            checked += 1
    return checked


@pytest.mark.parametrize("feasible", [
    box([-1.0, 0.0], [1.0, 2.0]),
    shifted_orthant([0.0, -0.25, 0.25]),
    ball([0.5, -0.5, 0.0], 1.5),
    hyperplane([1.0, 1.0], -1.0),
    halfspace([1.0, -2.0, 0.5], 0.25),
    "example5_1",
], ids=["box", "shifted_orthant", "ball", "hyperplane", "halfspace", "example5_1"])
def test_projection_jacobian_hook(feasible, ba_problem):
    # an element of the generalized Jacobian of P_Omega: the derivative of
    # the projection away from its kinks, symmetric, eigenvalues in [0, 1]
    if feasible == "example5_1":
        feasible = ba_problem.set
    Z = 3.0 * np.random.default_rng(31).standard_normal((300, feasible.dimension))
    assert _check_jacobian_hook(feasible.project, feasible.project_jacobian, Z) >= 290
    for z in Z:
        J = feasible.project_jacobian(z)
        assert J.shape == (feasible.dimension, feasible.dimension)
        np.testing.assert_array_equal(J, J.T)
        ev = np.linalg.eigvalsh(J)
        assert ev.min() >= -1e-12 and ev.max() <= 1.0 + 1e-12


def test_tangent_cone_closed_forms(ba_problem):
    # a bound is active only where x lies on it; orthant's infinite bound never is
    t = box([-1.0, 0.0], [1.0, 2.0]).tangent_project
    np.testing.assert_array_equal(t(np.array([-1.0, 2.0]), np.array([-1.0, 1.0])), [0.0, 0.0])
    np.testing.assert_array_equal(t(np.array([-1.0, 2.0]), np.array([1.0, -1.0])), [1.0, -1.0])
    np.testing.assert_array_equal(t(np.array([0.5, 1.0]), np.array([-3.0, 4.0])), [-3.0, 4.0])
    t = shifted_orthant([0.0, 0.0]).tangent_project
    np.testing.assert_array_equal(t(np.array([0.0, 5.0]), np.array([-1.0, 3.0])), [0.0, 3.0])
    t = ba_problem.set.tangent_project
    np.testing.assert_array_equal(t(np.array([1.0, -0.5, -0.5]), np.array([1.0, 1.0, 0.0])),
                                  [0.0, 0.5, -0.5])
    np.testing.assert_array_equal(t(np.array([0.5, -0.5, -0.5]), np.array([1.0, 1.0, 0.0])),
                                  [1.0, 0.5, -0.5])
    for feasible in (ball([0.0], 1.0), halfspace([1.0], 0.0), hyperplane([1.0], 0.0)):
        assert feasible.tangent_project is None


@pytest.mark.parametrize("feasible", [
    box([-1.0, 0.0], [1.0, 2.0]),
    shifted_orthant([0.0, -0.25, 0.25]),
    "example5_1",
], ids=["box", "shifted_orthant", "example5_1"])
def test_tangent_cone_properties(feasible, ba_problem):
    # at seeded points on the faces a clip leaves: P_T(v) is the one-sided
    # derivative of the projection along v, v - P_T(v) is normal to the set,
    # the two parts are orthogonal, and P_T is idempotent
    if feasible == "example5_1":
        feasible = ba_problem.set
    rng = np.random.default_rng(41)
    n, s = feasible.dimension, 1e-7
    X, Y, V = (3.0 * rng.standard_normal((300, n)) for _ in range(3))
    X, Y = project_rows(feasible, X), project_rows(feasible, Y)
    on_face = 0
    for x, v in zip(X, V):
        pv = feasible.tangent_project(x, v)
        on_face += not np.array_equal(pv, v)
        np.testing.assert_allclose((feasible.project(x + s * v) - x) / s, pv, rtol=0, atol=1e-6)
        assert float(((Y - x) @ (v - pv)).max()) <= 1e-11 * (1.0 + float(np.linalg.norm(v)))
        assert abs(float(pv @ (v - pv))) <= 1e-12 * (1.0 + float(v @ v))
        np.testing.assert_allclose(feasible.tangent_project(x, pv), pv, rtol=0,
                                   atol=1e-15 * (1.0 + np.abs(v).max()))
    assert on_face >= 50


def test_l1_prox_closed_forms(ba_problem):
    # box: the soft threshold, clipped; a lower bound above 0 and infinite bounds
    prox = box([0.5, -2.0, -np.inf], [2.0, np.inf, 1.0]).l1_prox
    np.testing.assert_array_equal(prox(np.array([0.3, -3.0, 0.5]), 0.25), [0.5, -2.0, 0.25])
    np.testing.assert_array_equal(prox(np.array([3.0, 4.0, -7.0]), 0.5), [2.0, 3.5, -6.5])
    np.testing.assert_array_equal(prox(np.array([1.5, 0.25, -0.25]), 0.5), [1.0, 0.0, 0.0])
    prox = shifted_orthant([0.0, -0.25]).l1_prox
    np.testing.assert_array_equal(prox(np.array([-1.0, -1.0]), 0.5), [0.0, -0.25])
    np.testing.assert_array_equal(prox(np.array([2.0, 0.5]), 0.5), [1.5, 0.0])
    # example5_1's Omega: z1 = min(soft(v1, t), 1), and on z = (u, -1 - u) with
    # w = (v2 - v3 - 1)/2, u = w - t above w = t, w + t below w = -1 - t, else
    # clip(w, -1, 0); at both break points the pieces meet
    prox, t = ba_problem.set.l1_prox, 0.25
    for v1, z1 in [(3.0, 1.0), (0.75, 0.5), (0.25, 0.0), (-0.1, 0.0), (-3.0, -2.75)]:
        assert prox(np.array([v1, -0.5, -0.5]), t)[0] == z1
    for w, u in [(1.0, 0.75), (t, 0.0), (0.125, 0.0), (-0.5, -0.5), (-1.125, -1.0),
                 (-1.0 - t, -1.0), (-2.0, -1.75)]:
        z = prox(np.array([0.0, w + 0.5, -0.5 - w]), t)
        np.testing.assert_array_equal(z, [0.0, u, -1.0 - u])


@pytest.mark.parametrize("feasible", [
    box([0.5, -2.0, -np.inf], [2.0, np.inf, 1.0]),
    shifted_orthant([0.0, -0.25, 0.25]),
    hyperplane([1.0, 0.0, -2.0], 0.5),
    halfspace([1.0, -2.0, 0.5], 0.25),
    ball([0.5, -0.5, 0.0], 1.5),
    "example5_1",
], ids=["box", "shifted_orthant", "hyperplane", "halfspace", "ball", "example5_1"])
def test_l1_prox_is_the_constrained_minimizer(feasible, ba_problem):
    # z = prox(v, t) lies in the set; h = ||. - v||^2/2 + t||.||_1 is 1-strongly
    # convex, so h(y) >= h(z) + ||y - z||^2/2 at seeded y in the set, near z and
    # far (brute force); and v - z in t d||z||_1 + N(z), tested through its
    # equivalent <v - z, y - z> <= t(||y||_1 - ||z||_1). At t = 0 the prox is
    # the projection
    if feasible == "example5_1":
        feasible = ba_problem.set
    rng = np.random.default_rng(47)
    n, r = feasible.dimension, np.geomspace(1e-8, 4.0, 60)[:, None]
    for v, t in zip(3.0 * rng.standard_normal((300, n)), rng.uniform(0.0, 2.0, 300)):
        z = feasible.l1_prox(v, t)
        assert feasible.contains(z, 1e-15)
        Y = project_rows(feasible, z + r * rng.standard_normal((60, n)))
        l1_Y, l1_z = np.abs(Y).sum(1), np.abs(z).sum()
        h_Y = 0.5 * ((Y - v) ** 2).sum(1) + t * l1_Y
        h_z = 0.5 * (z - v) @ (z - v) + t * l1_z
        tol = 1e-14 * (1.0 + v @ v)
        assert (h_z + 0.5 * ((Y - z) ** 2).sum(1) - h_Y).max() <= tol
        assert ((Y - z) @ (v - z) - t * (l1_Y - l1_z)).max() <= tol
        np.testing.assert_allclose(feasible.l1_prox(v, 0.0), feasible.project(v), rtol=0,
                                   atol=1e-14 * (1.0 + np.abs(v).max()))


def test_l1_prox_on_the_halfspace_and_the_ball_takes_both_branches():
    # the soft threshold itself where it is feasible, else a point on the
    # boundary: the hyperplane <a, z> = b, or the sphere ||z - c|| = r
    rng = np.random.default_rng(53)
    V, T = 3.0 * rng.standard_normal((300, 3)), rng.uniform(0.0, 2.0, 300)
    a, b, c, r = np.array([1.0, -2.0, 0.5]), 0.25, np.array([0.5, -0.5, 0.0]), 1.5
    for feasible, boundary in [(halfspace(a, b), lambda z: abs(a @ z - b)),
                               (ball(c, r), lambda z: abs(np.linalg.norm(z - c) - r))]:
        free = 0
        for v, t in zip(V, T):
            soft = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
            z = feasible.l1_prox(v, t)
            if feasible.contains(soft, 0.0):
                free += 1
                np.testing.assert_array_equal(z, soft)
            else:
                assert boundary(z) <= 1e-14 * (1.0 + np.abs(z).max())
        assert 30 <= free <= 270


def test_map_and_regularizer_jacobian_hooks(ba_problem, l2):
    # example5_1's diag(x < s), affine M and the Tikhonov identity are the
    # derivatives of F and of grad(phi) away from kinks
    rng = np.random.default_rng(37)
    X = 2.0 * rng.standard_normal((300, 3))
    assert _check_jacobian_hook(ba_problem.map.evaluate, ba_problem.map.jacobian, X) >= 290
    A = rng.standard_normal((3, 3))
    fmap = affine_map(A.T @ A + (A - A.T), rng.standard_normal(3))
    assert _check_jacobian_hook(fmap.evaluate, fmap.jacobian, X) == len(X)
    assert _check_jacobian_hook(l2.gradient, l2.hessian, X) == len(X)
    assert l1_regularizer().hessian is None


def test_ba_set_projection_invariants(ba_problem):
    rng = np.random.default_rng(13)
    Z = 3.0 * rng.standard_normal((1000, 3))
    W = 3.0 * rng.standard_normal((1000, 3))
    s = ba_problem.set
    for z, w in zip(Z, W):
        pz, pw = s.project(z), s.project(w)
        assert np.linalg.norm(s.project(pz) - pz) <= 1e-10
        assert np.linalg.norm(pz - pw) <= np.linalg.norm(z - w) + 1e-10
        assert s.contains(pz, 1e-10)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=5),
       st.integers(0, 2 ** 31 - 1))
def test_box_projection_idempotent_hypothesis(raw, seed):
    lo = np.sort(np.asarray(raw, dtype=float))[: len(raw) // 2]
    hi = lo + 1.0
    s = box(lo, hi)
    z = np.random.default_rng(seed).uniform(-10, 10, size=len(lo))
    pz = s.project(z)
    np.testing.assert_allclose(s.project(pz), pz, atol=1e-12)
    assert s.contains(pz, 1e-12)


# ---------------------------------------------------------------------------
# operators and the regularized map
# ---------------------------------------------------------------------------

def test_ba_operator_value(ba_problem):
    # P_C of the regularized solution is (0, -1/4, 1/4)
    F = ba_problem.map
    np.testing.assert_allclose(F(XSTAR), [0.0, -0.5, -0.5], atol=1e-15)


def test_evaluate_T_reduces_to_F_at_eps_zero(ba_problem, l1, l2):
    T = regularized_operator(ba_problem.map, l2, 0.0)
    np.testing.assert_allclose(T(XSTAR), ba_problem.map(XSTAR))
    # the l1 term is the prox's at every eps, so T is F
    T = regularized_operator(ba_problem.map, l1, 0.5)
    np.testing.assert_array_equal(T(XSTAR), ba_problem.map(XSTAR))


def test_evaluate_T_quadratic_reg(ba_problem, l2):
    T = regularized_operator(ba_problem.map, l2, 0.5)
    np.testing.assert_allclose(T(XSTAR), [0.0, -0.875, -0.625], atol=1e-15)


def test_evaluate_T_identity_for_zero_map(l2):
    zero = affine_map(np.zeros((3, 3)), np.zeros(3))
    T = regularized_operator(zero, l2, 1.0)
    x = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(T(x), x)


def test_regularized_operator_rejects_bad_epsilon(ba_problem, l2):
    with pytest.raises(ValueError, match="nonnegative"):
        regularized_operator(ba_problem.map, l2, -0.1)
    with pytest.raises(ValueError, match="requires a regularizer"):
        regularized_operator(ba_problem.map, None, 0.1)
    # eps = 0 needs no regularizer: T is F
    T = regularized_operator(ba_problem.map, None, 0.0)
    for x in (XSTAR, np.array([2.0, -3.0, 1.5])):
        np.testing.assert_array_equal(T(x), ba_problem.map(x))


def test_regularized_operator_accepts_list_valued_map(l2):
    fmap = MonotoneMap(dimension=2, evaluate=lambda x: [x[0], 2.0 * x[1]], lipschitz_L=2.0)
    x = np.array([1.0, -1.0])
    np.testing.assert_array_equal(regularized_operator(fmap, None, 0.0)(x), [1.0, -2.0])
    np.testing.assert_array_equal(regularized_operator(fmap, l2, 0.5)(x), [1.5, -2.5])


def test_affine_map_rejects_an_indefinite_symmetric_part():
    with pytest.raises(ValueError, match="indefinite"):
        affine_map(np.diag([1.0, -1.0]), np.zeros(2))
    # singular PSD symmetric part plus a skew part: monotone, not strongly
    M = np.array([[1.0, 2.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    fmap = affine_map(M, np.ones(3))
    assert fmap.mu == 0.0
    assert affine_map(np.diag([2.0, 0.5]), np.zeros(2)).mu == 0.5


def test_operator_errors():
    bad = MonotoneMap(dimension=2, evaluate=lambda x: np.array([np.nan, 0.0]),
                      lipschitz_L=1.0)
    with pytest.raises(EvaluationError):
        bad(np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        bad(np.zeros(3))
    with pytest.raises(ValueError):
        bad(np.array([np.inf, 0.0]))


def test_ba_monotone_and_lipschitz_probes(ba_problem):
    # declared constants: monotone, L = 2; the sampled ratio never exceeds it
    margin = probe_monotonicity(ba_problem.map, ba_problem.set, n_pairs=1000, seed=3)
    assert margin >= -1e-10
    ratio = probe_lipschitz(ba_problem.map, ba_problem.set, n_pairs=1000, seed=4)
    assert ratio <= 2.0 + 1e-9


def test_regularized_map_strong_monotonicity(ba_problem, l2):
    eps = 0.25
    T = regularized_operator(ba_problem.map, l2, eps)
    margin = probe_monotonicity(T, ba_problem.set, n_pairs=400, seed=5, mu=eps * l2.rho)
    assert margin >= -1e-10


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

def test_regularizer_probes():
    for reg in (tikhonov(), l1_regularizer()):
        mid, sub = probe_convexity(reg, dimension=4, n_pairs=400, seed=6)
        assert mid >= -1e-12
        assert sub >= -1e-12


def test_l1_regularizer_is_the_l1_norm_without_a_gradient():
    reg = l1_regularizer()
    assert reg.value(np.array([2.0, 0.0, -3.0])) == 5.0
    assert reg.is_l1 and not reg.smooth and reg.hessian is None and reg.rho == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
       st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
def test_l1_subgradient_inequality_hypothesis(xs, ys):
    n = min(len(xs), len(ys))
    x = np.asarray(xs[:n])
    y = np.asarray(ys[:n])
    reg = l1_regularizer()
    g = np.sign(x)   # a subgradient of ||.||_1 at x
    assert reg.value(y) >= reg.value(x) + g @ (y - x) - 1e-9


def test_tikhonov_strong_convexity_sampled():
    reg = tikhonov()
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, y = rng.standard_normal((2, 3))
        lhs = (reg.gradient(x) - reg.gradient(y)) @ (x - y)
        assert lhs >= reg.rho * np.linalg.norm(x - y) ** 2 - 1e-12


def test_regularizer_rejects_missing_derivative_and_negative_rho():
    with pytest.raises(ValueError, match="needs a gradient, or is_l1"):
        Regularizer(value=lambda x: 0.0)
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        Regularizer(value=lambda x: 0.0, gradient=lambda x: x, rho=-1e-3)
    reg = Regularizer(value=lambda x: 0.0, is_l1=True)
    assert not reg.smooth and reg.rho == 0.0 and reg.lipschitz_M is None


def test_sample_in_set_members(ba_problem):
    pts = sample_in_set(ba_problem.set, 50, seed=9)
    assert all(ba_problem.set.contains(p, 1e-9) for p in pts)
