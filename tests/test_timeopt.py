"""Penalized minimal-time solver: functional, inner fixed point, T-search."""

import numpy as np
import pytest

from mintime import (
    ControlMap,
    Field,
    Grid,
    L2,
    PorousMedia,
    ReactionDiffusion2,
    dirichlet,
    neumann,
    pair_fn,
    scalar_fn,
)
from mintime.forward import Control, solve_forward
from mintime.oracle import analytic_min_time_scalar
from mintime.timeopt import (
    PenalizedProblem,
    eps_continuation,
    eval_J_eps,
    inner_solve_control,
    outer_minimize,
)


def scalar_setup(a=1.0, c=0.5, rho=1.0, dt=1e-3, eps=1e-2, nodes=3, coupling=0.0):
    """Case III instance whose constant solutions solve y' + a y = u."""
    g = Grid(extent=(1.0,), nodes=(nodes,), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(g, d1=1.0, d2=1.0,
                              f=pair_fn("linear2", a, coupling), g=pair_fn("zero2"))
    cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    n = g.size
    y0 = Field(g, np.zeros(2 * n), 2)
    ytar = Field(g, np.concatenate([np.full(n, c), np.zeros(n)]), 2)
    prob = PenalizedProblem(spec, cm, y0, ytar, rho=rho, eps=eps, dt=dt)
    return prob


# ---------------------------------------------------------------------------
# the functional


def test_J_matches_hand_quadrature_on_linear_reduction():
    # constant control on the scalar reduction: closed-form trajectory plus
    # explicit sums reproduce the functional to 1e-8
    a, c, ubar = 1.0, 0.5, 0.3
    prob = scalar_setup(a=a, c=c, eps=0.05, dt=1e-3)
    T = 0.4
    K = round(T / prob.dt)
    dte = T / K
    m = prob.map.control_size(prob.spec)
    uvals = np.zeros((K, m))
    uvals[:, : prob.spec.grid.size] = ubar
    u = Control(dte, uvals, prob.rho)
    got = eval_J_eps(prob, T, u)
    # backward-Euler recursion of the constant-in-space scalar mode
    y = 0.0
    for _ in range(K):
        y = (y + dte * ubar) / (1 + dte * a)
    expected = T + (y - c) ** 2 / (2 * prob.eps) + 0.5 * prob.eps * ubar**2 * K * dte
    assert got == pytest.approx(expected, abs=1e-8)


def test_J_short_horizon_is_dominated_by_miss():
    prob = scalar_setup(eps=1e-2)
    dev = prob.spec.h_norm(prob.map.project_state(
        prob.spec, prob.y0.values - prob.y_tar.values))
    T = 2 * prob.dt
    u = Control(prob.dt, np.zeros((2, prob.map.control_size(prob.spec))), prob.rho)
    J = eval_J_eps(prob, T, u)
    assert J == pytest.approx(dev**2 / (2 * prob.eps) + T, rel=5e-2)


def test_fourth_term_vanishes_when_uref_equals_u():
    from dataclasses import replace

    prob = scalar_setup(eps=0.1)
    T = 0.2
    K = round(T / prob.dt)
    m = prob.map.control_size(prob.spec)
    rng = np.random.default_rng(0)
    uvals = 0.2 * rng.standard_normal((K, m))
    u = Control(T / K, uvals, prob.rho)
    with_ref = replace(prob, u_ref=u)
    assert eval_J_eps(with_ref, T, u) == pytest.approx(eval_J_eps(prob, T, u), abs=1e-14)


def test_eval_grid_mismatch_rejected():
    prob = scalar_setup()
    u = Control(prob.dt, np.zeros((7, prob.map.control_size(prob.spec))), prob.rho)
    with pytest.raises(ValueError, match="grid"):
        eval_J_eps(prob, 0.4, u)


def test_problem_invariants():
    prob = scalar_setup()
    from dataclasses import replace

    with pytest.raises(ValueError, match="eps"):
        replace(prob, eps=0.0)
    with pytest.raises(ValueError, match="trivial"):
        replace(prob, y_tar=prob.y0)
    assert prob.rho_margin() > 0  # rho = 1 > ||A yhat|| = 0.5


# ---------------------------------------------------------------------------
# inner problem


def test_inner_matches_dense_lq_solution_unconstrained():
    # with rho effectively infinite the optimality map is the unconstrained
    # adjoint-gradient condition; cross-check against the dense normal
    # equations of the discretized LQ problem
    prob = scalar_setup(eps=0.5, dt=5e-3, rho=1e6)
    prob.inner_tol = 1e-12
    prob.inner_cap = 3000
    T = 0.1
    K = round(T / prob.dt)
    dte = T / K
    spec, cm = prob.spec, prob.map
    m = cm.control_size(spec)
    nd = spec.n_dof

    def terminal(uflat):
        u = Control(dte, uflat.reshape(K, m), prob.rho)
        return solve_forward(spec, cm, prob.y0, u, T).states[-1]

    base = terminal(np.zeros(K * m))
    G = np.empty((nd, K * m))
    for j in range(K * m):
        e = np.zeros(K * m)
        e[j] = 1.0
        G[:, j] = terminal(e) - base
    # projected state metric and the control-grid weights
    Wp = np.zeros(nd)
    Wp[: spec.grid.size] = spec.weights[: spec.grid.size]
    wu = np.tile(cm.ugrid(spec).component_weights(), K)
    lhs = G.T @ (Wp[:, None] * G) / prob.eps + prob.eps * dte * np.diag(wu)
    rhs = -G.T @ (Wp * (base - prob.y_tar.values)) / prob.eps
    u_kkt = np.linalg.solve(lhs, rhs).reshape(K, m)

    sol = inner_solve_control(prob, T)
    np.testing.assert_allclose(sol.control.values[:, : spec.grid.size],
                               u_kkt[:, : spec.grid.size], atol=1e-6)


def test_inner_large_eps_shrinks_control():
    prob = scalar_setup(eps=50.0)
    sol = inner_solve_control(prob, 0.3)
    assert np.max(np.abs(sol.control.values)) <= 1e-2
    assert sol.converged


def test_inner_saturates_below_minimal_time():
    # T < T*: the control rails at +rho throughout
    prob = scalar_setup(eps=1e-4, dt=1e-3)
    t_star = analytic_min_time_scalar(1.0, 0.0, 0.5, 1.0)
    sol = inner_solve_control(prob, 0.6 * t_star)
    norms = prob.map.u_norms_batch(prob.spec, sol.control.values)
    assert np.all(norms >= 0.999 * prob.rho)
    assert np.all(sol.control.values[:, : prob.spec.grid.size] > 0)


def test_inner_descent_and_feasibility_nonlinear():
    g = Grid(extent=(1.0,), nodes=(10,), bcs=(dirichlet(),))
    spec = PorousMedia(g, beta=scalar_fn("power", 0.6, 0.4, 0.5))
    from mintime import HMINUS1

    cm = ControlMap(mode="identity", u_tag=HMINUS1)
    (x,) = g.coordinates()
    y0 = Field(g, np.sin(np.pi * x))
    ytar = Field(g, 0.25 * np.sin(np.pi * x))
    prob = PenalizedProblem(spec, cm, y0, ytar, rho=3.0, eps=1e-2, dt=5e-3,
                            inner_cap=60)
    sol = inner_solve_control(prob, 0.3)
    norms = prob.map.u_norms_batch(prob.spec, sol.control.values)
    assert np.all(norms <= prob.rho * (1 + 1e-12))
    zero = Control(sol.control.dt, np.zeros_like(sol.control.values), prob.rho)
    assert sol.J <= eval_J_eps(prob, 0.3, zero) + 1e-12
    assert sol.miss < spec.h_norm(y0.values - ytar.values)


# ---------------------------------------------------------------------------
# outer problem and continuation


def test_outer_scalar_oracle():
    prob = scalar_setup(eps=1e-4, dt=1e-3)
    t_star = analytic_min_time_scalar(1.0, 0.0, 0.5, 1.0)
    report, _ = outer_minimize(prob, (0.2, 1.4))
    assert report.T_eps_star == pytest.approx(t_star, abs=1e-2)
    assert not report.boundary_hit


def test_transversality_as_T_stationarity():
    # the J(T) valley has width O(eps); measure the derivative with a step
    # inside the smooth region and a T-search that resolves the minimum
    prob = scalar_setup(eps=1e-2, dt=1e-3)
    prob.golden_tol_factor = 1e-5
    report, sol = outer_minimize(prob, (0.2, 1.4))
    h = 2 * prob.dt
    J_hi = inner_solve_control(prob, report.T_eps_star + h, sol.control).J
    J_lo = inner_solve_control(prob, report.T_eps_star - h, sol.control).J
    assert abs(J_hi - J_lo) / (2 * h) <= 1e-3


def test_outer_boundary_flag():
    prob = scalar_setup(eps=1e-3)
    report, _ = outer_minimize(prob, (1.2, 1.5))  # minimum sits left of the bracket
    assert report.boundary_hit


def test_eps_continuation_matches_oracle_and_decays_miss():
    prob = scalar_setup(eps=1e-1, dt=1e-3)
    t_star = analytic_min_time_scalar(1.0, 0.0, 0.5, 1.0)
    reports = eps_continuation(prob, [1e-1, 1e-2, 1e-3, 1e-4], (0.2, 1.4))
    gaps = [abs(r.T_eps_star - t_star) for r in reports]
    assert gaps[-1] <= 1e-2
    assert gaps[-1] <= gaps[0]
    misses = [r.terminal_miss for r in reports]
    assert all(b < a for a, b in zip(misses, misses[1:]))
    # Theorem 4.2 chain: miss^2 <= 2 eps T* + eps^2 int ||u*||^2 (oracle side)
    c_energy = t_star * prob.rho**2
    for r in reports:
        assert r.terminal_miss <= np.sqrt(2 * r.eps * t_star + r.eps**2 * c_energy) + 1e-12
    final = reports[-1]
    assert final.saturation_fraction >= 0.99
    assert final.g73_residual_avg <= 0.05


def test_eps_schedule_validation():
    prob = scalar_setup()
    with pytest.raises(ValueError, match="decreasing"):
        eps_continuation(prob, [1e-2, 1e-2], (0.2, 1.0))
    with pytest.raises(ValueError, match="positive"):
        eps_continuation(prob, [1e-2, 0.0], (0.2, 1.0))


def test_chained_uref_energy_decreases():
    # feeding the previous level's control as reference: the accumulated-gap
    # energy dies out across the schedule
    prob = scalar_setup(eps=1e-1, dt=2e-3)
    reports = eps_continuation(prob, [1e-1, 1e-2, 1e-3, 1e-4], (0.2, 1.4),
                               chain_u_ref=True)
    href = [r.href_energy for r in reports[1:]]  # first level has no reference
    assert all(e >= 0 for e in href)
    assert href[-1] <= href[0] + 1e-12
    assert href[-1] <= 1e-4


def test_uref_cross_term_is_the_tail_double_sum():
    # chained reference: dt sum_{j>=k} <F(h_j), P u_j> for every k
    from dataclasses import replace

    from mintime.timeopt import _condition_residuals, _href_terms

    prob = replace(scalar_setup(dt=1e-2, eps=0.1), inner_cap=20)
    T = 0.5
    first = inner_solve_control(prob, T)
    ref = Control(first.control.dt, 0.5 * first.control.values, prob.rho)
    chained = replace(prob, eps=0.05, u_ref=ref)
    sol = inner_solve_control(chained, T, first.control)
    K, dte = sol.control.steps, sol.control.dt
    assert K == 50
    spec, cm = chained.spec, chained.map
    _, F_h, _ = _href_terms(chained, sol.control.values, dte)
    pu = cm.project_control_batch(spec, sol.control.values)
    expected = dte * np.array([
        sum(cm.u_pairing(spec, F_h[j], pu[j]) for j in range(k, K)) for k in range(K)
    ])
    assert np.all(expected > 0.0)
    got = _condition_residuals(chained, sol)["cross_terms"]
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_degenerate_unreachable_target_reports_large_miss():
    # rho far below what the target needs: no crash, large residual miss
    prob = scalar_setup(a=1.0, c=0.9, rho=0.3, eps=1e-3, dt=2e-3)
    assert prob.rho_margin() < 0
    report, _ = outer_minimize(prob, (0.2, 2.0))
    assert report.terminal_miss > 0.5
    assert np.isfinite(report.J)


def test_argmin_invariance_under_matched_rescaling():
    # scaling (y0, y_tar, rho) jointly leaves the inner problem equivariant;
    # the T-profile changes only through the O(eps) penalty terms, so the
    # converged horizon moves by O(eps), not by O(1)
    eps = 1e-4
    base = scalar_setup(eps=eps, dt=1e-3)
    scaled = scalar_setup(c=1.5, rho=3.0, eps=eps, dt=1e-3)  # s = 3
    r1, _ = outer_minimize(base, (0.2, 1.4))
    r2, _ = outer_minimize(scaled, (0.2, 1.4))
    assert abs(r1.T_eps_star - r2.T_eps_star) <= 100 * eps + 4 * base.golden_tol_factor * 1.4
