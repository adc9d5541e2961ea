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
    affine_map,
    ball,
    box,
    halfspace,
    hyperplane,
    l1_regularizer,
    probe_convexity,
    probe_lipschitz,
    probe_monotonicity,
    product_set,
    project_rows,
    regularized_operator,
    sample_in_set,
    shifted_orthant,
    tikhonov,
)

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
], ids=lambda s: s.description["kind"])
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


@pytest.mark.parametrize("feasible, shift", [
    (hyperplane([1.0, -2.0, 0.5], 0.25), lambda Z, a, b, nn: (Z @ a - b) / nn),
    (halfspace([1.0, -2.0, 0.5], 0.25), lambda Z, a, b, nn: np.maximum(Z @ a - b, 0.0) / nn),
], ids=["hyperplane", "halfspace"])
def test_affine_row_projection_matches_outer_form(feasible, shift):
    a = np.array(feasible.description["normal"])
    b = feasible.description["offset"]
    rng = np.random.default_rng(19)
    Z = 3.0 * rng.standard_normal((200, 3))
    Z[:3] = [[np.inf, 0.0, 0.0], [np.nan, 1.0, -1.0], [-0.0, 0.0, -0.0]]
    # np.outer is the reference form; the inf and nan rows give nan on purpose
    with np.errstate(invalid="ignore"):
        _same_floats(feasible.project_rows(Z), Z - np.outer(shift(Z, a, b, float(a @ a)), a))


def _blockwise_projection(blocks, z):
    """The per-block loop the product projection is checked against."""
    y = np.array(z, dtype=float)
    for i, s in blocks:
        y[i] = s.project(z[i])
    return y


def _blockwise_row_projection(blocks, Z):
    """The per-block loop the product row projection is checked against."""
    Y = np.array(Z, dtype=float)
    for i, s in blocks:
        Y[:, i] = project_rows(s, Z[:, i])
    return Y


@pytest.mark.parametrize("blocks", [
    [([0, 2], box([-1.0, 0.0], [1.0, 2.0])), ([1], hyperplane([2.0], 1.0))],
    [([0], box([-np.inf], [1.0])), ([1, 2], hyperplane([1.0, 1.0], -1.0))],
    [([2, 1], ball([0.5, -0.5], 1.0)), ([0], box([0.0], [np.inf]))],
    # a set without project_rows: its rows go through the row-by-row fallback
    [([0], box([-1.0], [1.0])),
     ([2, 1], replace(ball([0.0, 0.0], 1.0), project_rows=None))],
], ids=["non-contiguous", "contiguous", "reversed", "fallback"])
def test_product_projection_matches_blockwise_loop(blocks):
    s = product_set(blocks, dimension=3)
    rng = np.random.default_rng(17)
    Z = 3.0 * rng.standard_normal((200, 3))
    for z in Z:
        _same_floats(s.project(z), _blockwise_projection(blocks, z))
    _same_floats(s.project_rows(Z), _blockwise_row_projection(blocks, Z))
    Z_int = np.array([[3, -2, 5], [0, 1, -4]])
    for got, ref in ((s.project(Z_int[0]), _blockwise_projection(blocks, Z_int[0])),
                     (s.project_rows(Z_int), _blockwise_row_projection(blocks, Z_int))):
        assert got.dtype == np.float64
        _same_floats(got, ref)


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


def test_product_set_requires_partition():
    with pytest.raises(ValueError):
        product_set([([0], box([0.0], [1.0]))], dimension=2)


# ---------------------------------------------------------------------------
# operators and the regularized map
# ---------------------------------------------------------------------------

def test_ba_operator_value(ba_problem):
    # P_C of the regularized solution is (0, -1/4, 1/4)
    F = ba_problem.map
    np.testing.assert_allclose(F(XSTAR), [0.0, -0.5, -0.5], atol=1e-15)


def test_evaluate_T_reduces_to_F_at_eps_zero(ba_problem, l2):
    T = regularized_operator(ba_problem.map, l2, 0.0)
    np.testing.assert_allclose(T(XSTAR), ba_problem.map(XSTAR))


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


def test_l1_subgradient_selection():
    reg = l1_regularizer()
    np.testing.assert_allclose(reg.subgradient_select(np.array([2.0, 0.0, -3.0])),
                               [1.0, 0.0, -1.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6),
       st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=6))
def test_l1_subgradient_inequality_hypothesis(xs, ys):
    n = min(len(xs), len(ys))
    x = np.asarray(xs[:n])
    y = np.asarray(ys[:n])
    reg = l1_regularizer()
    g = reg.subgradient_select(x)
    assert reg.value(y) >= reg.value(x) + g @ (y - x) - 1e-9


def test_tikhonov_strong_convexity_sampled():
    reg = tikhonov()
    rng = np.random.default_rng(8)
    for _ in range(200):
        x, y = rng.standard_normal((2, 3))
        lhs = (reg.gradient(x) - reg.gradient(y)) @ (x - y)
        assert lhs >= reg.rho * np.linalg.norm(x - y) ** 2 - 1e-12


def test_sample_in_set_members(ba_problem):
    pts = sample_in_set(ba_problem.set, 50, seed=9)
    assert all(ba_problem.set.contains(p, 1e-9) for p in pts)
