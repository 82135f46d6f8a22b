"""Minimal-time and sliding-mode control of semilinear parabolic systems."""

from .grids import BoundaryCondition, Field, Grid, dirichlet, neumann, robin
from .spaces import H1, HMINUS1, L2, L4, NormTag, SpectralLaplacian
from .nonlinearities import pair_fn, scalar_fn
from .operators import (ControlMap, FitzHughNagumo, OperatorSpec, PhaseField, PorousMedia,
                        PotentialDrift, ReactionDiffusion2)
from .forward import Control, StepFailure, Trajectory, solve_forward, step_implicit
from .adjoint import AdjointState, solve_adjoint, solve_variation
from .audit import AuditReport, audit_hypotheses, audit_sign_condition
from .sliding import (
    SaturationError,
    SlidingRun,
    hit_time_bound,
    run_sliding,
    sign_feedback,
    sliding_continuation,
)
from .timeopt import (
    InnerSolution,
    OptimalityReport,
    PenalizedProblem,
    eps_continuation,
    eval_J_eps,
    inner_solve_control,
    outer_minimize,
)
from .oracle import OdeReduction, analytic_min_time_scalar, brute_force_min_time

__version__ = "0.1.0"
