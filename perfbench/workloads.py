"""The benchmark's workloads: their inputs, their calls into vigap, and the
checks of each result row against the references in `reference.py`.

Nothing here imports vigap at module level; the run passes in the `vigap.cli`
module it imported, so set-up can time that import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

X0_BA = (1.0, -2.0, 1.0)
TABLE1_EPS = (0.5, 0.1, 0.01, 0.005, 0.0001)

# accuracy demanded of a cell marked "exact": d(x, S0) at most this
EXACT_DIST = 1e-6
# inner error tolerance the direct cells ask for (the CLI default --tau); a
# direct-l2 level that does not exit at the floor must be this close to x_eps
TAU = 1e-6
# direct-l1 levels carry no tau certificate (the nonsmooth route is
# experimental, and every level exits at the floor); they must reach x* to
# this accuracy
DIRECT_L1_ACCURACY = 1e-6
# inner-solve statuses of a level that exited at the theta floor, uncertified
FLOOR_EXITS = ("floor", "floor_stall")
# dual-gap cells with a reference point must reach it to this relative error
PGE_ACCURACY = 1e-6
# -log10 of the float64 unit roundoff caps err_digits
DIGITS_CAP = -math.log10(np.finfo(float).eps)

# affine10-box: each run builds AFFINE_INSTANCES VIs from its seed. M is a
# symmetric part with eigenvalues geometric in AFFINE_SPECTRUM under a random
# rotation, plus a random skew part of spectral norm AFFINE_SKEW; x* is
# planted with AFFINE_ACTIVE coordinates on the bounds (multiplier
# AFFINE_MULTIPLIER) and the rest at +-AFFINE_INTERIOR. Fixing these keeps
# the cost of one instance close to that of another, and several instances
# per run average out what is left.
AFFINE_DIM = 10
AFFINE_INSTANCES = 4
AFFINE_SPECTRUM = (0.5, 2.0)
AFFINE_SKEW = 0.5
AFFINE_ACTIVE = 4
AFFINE_INTERIOR = 0.4
AFFINE_MULTIPLIER = 1.0
# direct levels keep the stopping level tau^2 / L_k^2 above the 1e-16 floor,
# and every level leaves G(x_eps) far above the exactness tolerance
AFFINE_DIRECT_EPS = (0.5, 0.2, 0.1)
AFFINE_DUALGAP_EPS = 0.1
# slack allowed in G(x) + eps phi(x) <= eps phi(x*) for the dual-gap cell
AFFINE_OBJECTIVE_TOL = 1e-9


def affine_instance(seed: int, index: int):
    """(M, q, x_star) of instance `index` of a run seeded with `seed`."""
    rng = np.random.default_rng([seed, index])
    n = AFFINE_DIM
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    S = (Q * np.geomspace(*AFFINE_SPECTRUM, n)) @ Q.T
    B = rng.standard_normal((n, n))
    K = B - B.T
    M = 0.5 * (S + S.T) + AFFINE_SKEW / np.linalg.norm(K, 2) * K
    active = rng.permutation(n)[:AFFINE_ACTIVE]
    x_star = rng.choice([-1.0, 1.0], n) * AFFINE_INTERIOR
    x_star[active] = np.sign(x_star[active])
    Fx = np.zeros(n)
    Fx[active] = -AFFINE_MULTIPLIER * x_star[active]   # F(x*) points out of the box
    return M, Fx - M @ x_star, x_star


def _vec(v) -> str:
    return " ".join(repr(float(a)) for a in v)


def write_problem_file(path: Path, M, q):
    n = len(q)
    path.write_text(
        "[operator]\nkind = affine\n"
        f"matrix = {'; '.join(_vec(row) for row in M)}\n"
        f"offset = {_vec(q)}\n"
        "[set]\nkind = box\n"
        f"lower = {_vec(-np.ones(n))}\nupper = {_vec(np.ones(n))}\n")


@dataclass
class Workload:
    # (problem, model, regularizer, epsilons, extra ExperimentConfig fields)
    calls: list
    problems: list            # what set-up builds: builtin names or .ini paths
    references: dict = field(default_factory=dict)   # .ini path -> (M, q, x_star)


def make_workload(name: str, seed: int, input_dir: Path) -> Workload:
    ba = {"x0": X0_BA, "seed": 0}
    if name == "dualgap-ba":
        # one call per cell (the cells are independent solves), so that each
        # cell gets its own median time
        calls = [("example5_1", "dualgap", reg, (eps,), ba)
                 for reg in ("l1", "l2") for eps in (0.5, 1e-4)]
        return Workload(calls, ["example5_1"])
    if name == "direct-ba":
        calls = [("example5_1", "direct", reg, TABLE1_EPS,
                  dict(ba, experimental_nonsmooth=True)) for reg in ("l1", "l2")]
        calls.append(("example5_1", "direct", "l2", (1e-4,), ba))
        return Workload(calls, ["example5_1"])
    if name == "affine10-box":
        input_dir.mkdir(parents=True, exist_ok=True)
        calls, paths, refs = [], [], {}
        for i in range(AFFINE_INSTANCES):
            M, q, x_star = affine_instance(seed, i)
            path = input_dir / f"affine10-box-seed{seed}-{i}.ini"
            write_problem_file(path, M, q)
            paths.append(str(path))
            refs[str(path)] = (M, q, x_star)
            calls.append((str(path), "direct", "l2", AFFINE_DIRECT_EPS, {"seed": 0}))
            calls.append((str(path), "dualgap", "l2", (AFFINE_DUALGAP_EPS,), {"seed": 0}))
        return Workload(calls, paths, refs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dualgap-ba", "direct-ba", "affine10-box")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    status: str          # "ok", "failed" (a named program fault) or "wrong"
    reason: str = ""
    digits: float = None  # accuracy against a reference point, when there is one


class _Ref:
    """The reference view of one problem: projection, S0 distance, solutions."""

    def __init__(self, problem: str, workload: Workload):
        import reference as R   # imports scipy, so only once the measurement is over

        self.R = R
        if problem == "example5_1":
            self.vi = None
            self.F, self.project = R.ba_F, R.ba_project
            self.dist_S0 = R.ba_dist_S0
        else:
            M, q, _ = workload.references[problem]
            n = len(q)
            self.vi = R.BoxAffineVI(M, q, -np.ones(n), np.ones(n))
            self.x_star = self.vi.solution()
            self.F, self.project = self.vi.F, self.vi.project
            self.dist_S0 = lambda x: float(np.linalg.norm(x - self.x_star))
            self._sol = {}

    def solution(self, model, reg, eps):
        if self.vi is None:
            return self.R.ba_solution(model, reg, eps)
        if model == "dualgap":
            return None  # checked through its objective value instead
        if eps not in self._sol:
            self._sol[eps] = self.vi.solution(eps)
        return self._sol[eps]

    def dual_gap(self, x):
        return self.R.ba_dual_gap(x) if self.vi is None else self.vi.dual_gap(x)


def _close(a, b, rel, abs_):
    return a is not None and abs(a - b) <= abs_ + rel * abs(b)


def check_cell(ref: _Ref, model, reg, eps, row, x, status) -> CellResult:
    """Check one result row, the point it was computed from and, for a direct
    level, the status its inner solve ended in."""
    cell = f"{model}-{reg} eps={eps:g}"
    if row.exactness.startswith("error"):
        return CellResult("failed", f"{cell}: the program reports {row.exactness}")
    if x is None:
        return CellResult("wrong", f"{cell}: no solver point was returned for this row")
    x = np.asarray(x, dtype=float)
    xin = ref.project(x)
    wrong = []

    if ref.vi is None:
        if not _close(row.dist_to_S0, ref.dist_S0(x), 0.0, 1e-12):
            wrong.append(f"dist_to_S0 {row.dist_to_S0} != {ref.dist_S0(x)}")
    elif row.dist_to_S0 is not None:
        wrong.append("dist_to_S0 reported for a problem file without an S0 oracle")

    x_ref = ref.solution(model, reg, eps)
    err = None if x_ref is None else float(np.linalg.norm(x - x_ref))
    missed = False     # a direct-l2 level farther than tau from x_eps
    if model == "direct":
        # T = F + eps * grad(phi); the nonsmooth route selects sign(x) from the l1 subdifferential
        grad_phi = (lambda z: z) if reg == "l2" else np.sign
        theta = ref.R.dgap(lambda z: ref.F(z) + eps * grad_phi(z), ref.project, x)
        if not _close(row.final_gap, theta, 1e-6, 1e-14):
            wrong.append(f"final_gap {row.final_gap} != theta_ab {theta}")
        if reg == "l2" and not _close(row.dist_to_reg_solution, err, 0.0, 1e-9):
            wrong.append(f"dist_to_reg_solution {row.dist_to_reg_solution} != {err}")
        if reg == "l2":
            # fault (b) when an uncertified floor exit misses tau; a miss after any other exit is wrong
            missed = err > TAU
            if missed and status not in FLOOR_EXITS:
                wrong.append(f"|x - x_eps| = {err:.3e} above tau = {TAU:g} after status {status}")
        elif err > DIRECT_L1_ACCURACY:
            wrong.append(f"|x - x*| = {err:.3e} above {DIRECT_L1_ACCURACY:g}")
    else:
        try:
            G = ref.dual_gap(x)
        except ValueError as exc:   # outside the region of the closed form
            return CellResult("wrong", f"{cell}: {exc}")
        if not _close(row.final_gap, G, 1e-6, 1e-10):
            wrong.append(f"final_gap {row.final_gap} != G {G}")
        if row.iterations < 1:
            wrong.append("no subgradient iterations")
        if x_ref is None:
            objective = G + eps * 0.5 * float(x @ x)
            bound = eps * 0.5 * float(ref.x_star @ ref.x_star) + AFFINE_OBJECTIVE_TOL
            if objective > bound:
                wrong.append(f"G + eps phi = {objective:.12g} above eps phi(x*) = {bound:.12g}")
        elif err > PGE_ACCURACY * max(1.0, float(np.linalg.norm(x_ref))):
            wrong.append(f"|x - x_eps| = {err:.3e} above {PGE_ACCURACY:g}")

    d = ref.dist_S0(xin)
    in_S0 = x_ref is not None and ref.dist_S0(x_ref) == 0.0
    if in_S0 and row.exactness != "exact":
        wrong.append(f"verdict {row.exactness} for a point of S0")
    if wrong:
        return CellResult("wrong", f"{cell}: " + "; ".join(wrong))

    # the two program faults this benchmark counts
    faults = []
    if row.exactness == "exact" and d > EXACT_DIST:
        faults.append(f"fault (a): verdict exact at d(x, S0) = {d:.2e}")
    if missed:
        faults.append(f"fault (b): status {status} at |x - x_eps| = {err:.2e}, "
                      f"uncertified, above tau = {TAU:g}")
    if faults:
        return CellResult("failed", f"{cell}: " + "; ".join(faults))
    digits = None
    if err is not None:
        rel = err / max(1.0, float(np.linalg.norm(x_ref)))
        digits = DIGITS_CAP if rel == 0.0 else min(DIGITS_CAP, -math.log10(rel))
    return CellResult("ok", digits=digits)


def check_round(workload: Workload, cells) -> list:
    """Check every (call, row, point, status) of one round; returns CellResults."""
    refs = {}
    out = []
    for (problem, model, reg, _eps, _extra), row, x, status in cells:
        if problem not in refs:
            refs[problem] = _Ref(problem, workload)
        out.append(check_cell(refs[problem], model, reg, row.epsilon, row, x, status))
    return out
