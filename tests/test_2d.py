"""2D grids through the full stack: operators, solver, duality."""

import numpy as np

from mintime import (
    ControlMap,
    Field,
    Grid,
    L2,
    L4,
    PotentialDrift,
    ReactionDiffusion2,
    neumann,
    pair_fn,
    robin,
    scalar_fn,
)
from mintime.adjoint import duality_gap
from mintime.forward import Control, solve_forward


def test_2d_potential_drift_solves_and_transposes():
    g = Grid(extent=(1.0, 1.0), nodes=(8, 8), bcs=(robin(0.6),))
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.4), a1=0.2, b=(0.1, -0.05))
    cm = ControlMap(mode="identity", u_tag=L2)
    rng = np.random.default_rng(0)
    y0 = Field(g, 0.5 * rng.standard_normal(g.size))
    u = Control.zeros(cm, spec, 1e-2, 20, rho=1.0)
    traj = solve_forward(spec, cm, y0, u)
    assert traj.summary()["max_residual"] <= 1e-9
    z = rng.standard_normal(g.size)
    p = rng.standard_normal(g.size)
    # the adjoint's step: the transpose solve of the same factor, in the state metric
    factor = spec.step_factor(y0.values, 1e-2)
    lhs = spec.state_inner(factor.solve(z), p)
    rhs = spec.state_inner(z, spec.metric_solve(factor.solve(spec.metric_apply(p), trans=1)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_2d_reaction_diffusion_duality_identity():
    g = Grid(extent=(1.0, 2.0), nodes=(6, 7), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(g, f=pair_fn("sat_rational", 0.8),
                              g=pair_fn("tanh_pair", 0.3, 0.2))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    rng = np.random.default_rng(1)
    y0 = Field(g, 0.3 * rng.standard_normal(spec.n_dof), 2)
    u = Control(1e-2, 0.2 * rng.standard_normal((5, spec.n_dof)), 1e9, cm.u_tag)
    traj = solve_forward(spec, cm, y0, u)
    v = Control(1e-2, rng.standard_normal((5, spec.n_dof)), 1e9, cm.u_tag)
    term = Field(g, rng.standard_normal(spec.n_dof), 2)
    _, _, gap = duality_gap(spec, cm, traj, v, term)
    assert gap <= 1e-10


def test_2d_spectral_eigenpairs():
    from mintime.spaces import SpectralLaplacian

    g = Grid(extent=(1.0, 1.0), nodes=(9, 9), bcs=(neumann(),))
    s = SpectralLaplacian(g, g.bcs[0], shift=1.0)
    # smallest eigenvalue of I - Lap under Neumann walls is exactly 1
    assert abs(s.eigenvalues[0] - 1.0) <= 1e-10
    for k in (0, 5, 20):
        e = s.eigenvector(k)
        np.testing.assert_allclose(s.apply(e), s.eigenvalues[k] * e,
                                   atol=1e-9 * (1 + s.eigenvalues[k]))
