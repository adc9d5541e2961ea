"""vigap: gap-function machinery and regularized solvers for monotone
variational inequalities.

Two regularization routes for VI(F, Omega):

* direct — solve VI(F + eps*grad(phi), Omega) in a sequential outer loop
  with computable stopping bounds; on each certified level `solve_inner`
  tries an exact-J_H semismooth Newton step first and a derivative-free
  D-gap descent step when that fails;
* dual-gap — minimize G + eps*phi over Omega, G the dual gap function, by
  spectral projected gradient (proximal for the l1 norm), stopped on a
  certified radius or on the residual of its step.

Plus error bounds returned as floats (D-gap and natural-residual distance
certificates, the weak-sharpness bound `eps_to_S0_bound`),
exact-regularization diagnostics, built-in problem instances and a CLI
(`python -m vigap` or the `vigap` script).
"""
from .core import (
    FeasibleSet,
    MonotoneMap,
    Regularizer,
    affine_map,
    ball,
    box,
    halfspace,
    hyperplane,
    l1_regularizer,
    regularized_operator,
    shifted_orthant,
    tikhonov,
)
from .gap import GapEvaluation, dual_gap, theta_ab, theta_alpha
from .bounds import (
    SharpnessModel,
    dgap_error_bound,
    eps_to_S0_bound,
    exactness_check,
    fit_sharpness,
    residual_error_bound,
    stopping_threshold,
)
from .problems import (
    ProblemInstance,
    SolutionOracle,
    affine_monotone,
    affine_problem,
    brute_force_dual_gap,
    brute_force_gap,
    example_5_1,
    get_problem,
    sharp_quadratic_ball,
    strongly_monotone_quadratic,
)
from .solvers import (
    InnerConfig,
    OuterConfig,
    SolverTrace,
    armijo_step,
    li_ng_direction,
    reference_solution,
    sequential_inexact_descent,
    solve_inner,
    solve_pge,
)

__version__ = "0.1.0"
