"""Penalized minimal-time solver: functional, inner Newton, T-search."""

from pathlib import Path
from types import SimpleNamespace

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
from mintime.config import load_config
from mintime.forward import Control, solve_forward
from mintime.operators import StepFactor
from mintime.oracle import analytic_min_time_scalar
from mintime import timeopt
from mintime.timeopt import (
    PenalizedProblem,
    _LinearKernel,
    eps_continuation,
    eval_J_eps,
    inner_solve_control,
    outer_minimize,
)


def scalar_setup(a=1.0, c=0.5, rho=1.0, dt=1e-3, eps=1e-2, nodes=3, coupling=0.0):
    """Case III instance whose constant solutions solve y' + a y = u."""
    g = Grid(extent=(1.0,), nodes=(nodes,), bc=neumann(), n_components=2)
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


@pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan")])
def test_nonpositive_golden_tolerance_rejected(tol):
    # the tolerance on |dJ/dT| of the horizon search: zero is met only at an
    # exact root, a negative or nan one never
    from dataclasses import replace

    with pytest.raises(ValueError, match="golden_tol_factor"):
        replace(scalar_setup(), golden_tol_factor=tol)


@pytest.mark.parametrize("field", ["inner_tol", "theta0"])
@pytest.mark.parametrize("value", [0.0, -0.5, float("nan")])
def test_nonpositive_inner_tolerance_and_damping_rejected(field, value):
    # a nonpositive tolerance is never met, so every solve would run to its
    # cap; theta0 is read by no solver, but callers that pass it get the
    # same check
    from dataclasses import replace

    with pytest.raises(ValueError, match=field):
        replace(scalar_setup(), **{field: value})


@pytest.mark.parametrize("field", ["rho", "dt"])
def test_nonpositive_rho_or_step_rejected(field):
    from dataclasses import replace

    with pytest.raises(ValueError, match="rho and dt must be positive"):
        replace(scalar_setup(), **{field: 0.0})


@pytest.mark.parametrize("bracket", [(0.0, 1.0), (0.8, 0.4)])
def test_outer_minimize_refuses_a_bad_bracket(bracket):
    with pytest.raises(ValueError, match="need 0 < T_lo < T_hi"):
        outer_minimize(scalar_setup(), bracket)


def test_negative_inner_cap_rejected():
    # the inner solvers would return before binding their iteration count
    from dataclasses import replace

    prob = scalar_setup()
    with pytest.raises(ValueError, match="inner_cap"):
        replace(prob, inner_cap=-1)
    assert replace(prob, inner_cap=0).inner_cap == 0


@pytest.mark.parametrize("entry, name, value, message", [
    ("problem", "rho", np.inf, None), ("problem", "eps", np.inf, None),
    ("problem", "dt", np.inf, None), ("problem", "inner_tol", np.inf, None),
    ("problem", "golden_tol_factor", np.inf, None),
    ("problem", "inner_cap", 2.5, "an integer >= 0"),
    ("problem", "inner_cap", np.inf, "an integer >= 0"),
    ("bracket", "T_hi", np.inf, None), ("schedule", "eps", np.inf, None)],
    ids=["rho", "eps", "dt", "inner_tol", "golden_tol_factor", "inner_cap_2.5",
         "inner_cap_inf", "bracket_inf", "schedule_inf"])
def test_optimize_entry_points_refuse_a_value_they_cannot_read(entry, name, value, message):
    # dt = inf and inner_tol = inf returned a horizon with every probe
    # converged, eps = inf and the schedule [inf, 0.1] died on the min() of an
    # empty sequence, the bracket (0.2, inf) failed to convert NaN to an
    # integer, and inner_cap = 2.5 raised a TypeError inside the Newton loop
    from dataclasses import replace

    prob = scalar_setup()
    expected = f"{name} must be {message or 'finite'}, got {value!r}"
    with pytest.raises(ValueError) as exc:
        if entry == "problem":
            replace(prob, **{name: value})
        elif entry == "bracket":
            outer_minimize(prob, (0.2, value))
        else:
            eps_continuation(prob, [value, 0.1], (0.2, 1.0))
    assert str(exc.value) == expected


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
    Wp[: spec.grid.size] = spec.grid.component_weights[: spec.grid.size]
    wu = np.tile(cm.ugrid(spec).component_weights, K)
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
    g = Grid(extent=(1.0,), nodes=(10,), bc=dirichlet())
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


@pytest.mark.parametrize("T", [0.69, 0.7, 0.8])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_cold_start_grid_is_stationary_on_the_sequential_scheme(eps, T):
    # T* = ln 2: below it the control saturates, above it it is interior
    prob = scalar_setup(eps=eps)
    sol = inner_solve_control(prob, T)
    assert sol.stop == "converged"
    assert sol.costate is not None
    # On interior rows u = -B*p/eps with p_T = P(y_K - y_tar)/eps, so the
    # roundoff of y_K (about sqrt(K) machine epsilons of ||P y_tar||) reaches
    # the optimality map's gap amplified by 1/eps^2; that floor lies above
    # the tolerance only at eps = 1e-4.
    K = sol.control.steps
    y_tar = prob.spec.h_norm(prob.map.project_state(prob.spec, prob.y_tar.values))
    floor = np.sqrt(K) * np.finfo(float).eps * y_tar / eps**2
    report = timeopt._report_from(prob, T, sol, False, 1)
    assert report.stationarity_residual <= max(prob.inner_tol * prob.rho * np.sqrt(T), floor)


def test_condition_residuals_apply_the_operator_once(monkeypatch):
    # (A_H y_k, p_k) over the whole trajectory is one stacked apply, and the
    # rows B* p_{k-1} are one stack
    from mintime.operators import ControlMap, OperatorSpec

    prob = scalar_setup(eps=1e-2, dt=1e-2)
    sol = inner_solve_control(prob, 0.8)
    sol.trajectory, sol.adjoint  # solved before counting
    calls = {"apply": [], "apply_Bstar": []}
    apply, apply_bstar = OperatorSpec.apply, ControlMap.apply_Bstar

    def counted_apply(self, y):
        calls["apply"].append(np.shape(y))
        return apply(self, y)

    def counted_bstar(self, spec, v):
        calls["apply_Bstar"].append(np.shape(v))
        return apply_bstar(self, spec, v)

    monkeypatch.setattr(OperatorSpec, "apply", counted_apply)
    monkeypatch.setattr(ControlMap, "apply_Bstar", counted_bstar)
    report = timeopt._report_from(prob, 0.8, sol, False, 1)
    K = sol.control.steps
    assert calls == {"apply": [(K, prob.spec.n_dof)], "apply_Bstar": [(K, prob.spec.n_dof)]}
    assert report.g73_residuals.shape == (K,)


def test_kernel_and_sweep_backends_agree(monkeypatch):
    prob = scalar_setup(eps=1e-3, dt=1e-2)
    horizons = (0.5, 0.8)  # saturated and interior
    kernel = [inner_solve_control(prob, T) for T in horizons]
    monkeypatch.setattr(_LinearKernel, "try_build", classmethod(lambda cls, *args: None))
    for T, a in zip(horizons, kernel):
        b = inner_solve_control(prob, T)
        assert a.converged and b.converged
        np.testing.assert_allclose(b.control.values, a.control.values, rtol=0.0, atol=1e-9)


def test_linear_kernel_rows_are_the_metric_transpose():
    # <G u, p>_H = dt sum_k <u_k, C_k p>_U on nonuniform trapezoid weights
    prob = scalar_setup(eps=1e-3, dt=1e-2)
    spec, cm = prob.spec, prob.map
    ker = _LinearKernel(prob, 40, 1e-2)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((40, cm.control_size(spec)))
    p = rng.standard_normal(spec.n_dof)
    lhs = spec.state_inner(ker.propagate(u), p)
    rhs = 1e-2 * float(np.sum(cm.u_pairing(spec, ker.bstar_rows(p), u)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _config_problem(name):
    """The optimize config's problem as the CLI builds it, at its first eps."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml")
    num = cfg.numerics
    return PenalizedProblem(cfg.spec, cfg.map, cfg.y0, cfg.y_tar, rho=cfg.rho,
                            eps=num["eps_schedule"][0], dt=num["dt"])


@pytest.mark.parametrize("K", [1, 7, 200, 800])
@pytest.mark.parametrize("name", ["optimize_scalar", "optimize_pair"])
def test_linear_kernel_products_equal_the_stacked_forms_bit_for_bit(name, K):
    # S^j B is one product on the (K n, n) powers, bit for bit the stacked
    # matmul; G* is one matrix-vector product on the (K m, n) rows, bit for
    # bit the stacked einsum on range P, where every costate Newton forms lies
    prob = _config_problem(name)
    spec, cm = prob.spec, prob.map
    n, dte = spec.n_dof, 0.65 / K
    ker = _LinearKernel(prob, K, dte)
    S = StepFactor(spec, np.zeros(n), dte).solve(np.eye(n))
    pows = np.empty((K, n, n))     # S^(j+1) by the kernel's doubling
    pows[0] = S
    done = 1
    while done < K:
        c = min(done, K - done)
        pows[done:done + c] = pows[done - 1] @ pows[:c]
        done += c
    bmat = cm.apply_B(spec, np.eye(cm.control_size(spec))).T
    np.testing.assert_array_equal(ker.GB, dte * (pows[::-1] @ bmat))
    rng = np.random.default_rng(K)
    for _ in range(50):
        p = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        on_range = cm.project_state(spec, p)
        np.testing.assert_array_equal(ker.bstar_rows(on_range),
                                      np.einsum("kmn,n->km", ker.C, on_range))
        # a full-state costate, which no solve forms, may move in the last bit
        full = np.einsum("kmn,n->km", ker.C, p)
        np.testing.assert_allclose(ker.bstar_rows(p), full, rtol=0.0,
                                   atol=1e-15 * np.abs(full).max())


def test_sweep_backend_reproduces_the_uniform_reduction():
    # 49 Neumann nodes carry 98 dof, above the propagator stacks' size cap;
    # constant data keep the solution uniform, so every node's control row
    # is the 3-node one
    small = inner_solve_control(scalar_setup(eps=1e-3, dt=1e-2), 0.8)
    prob = scalar_setup(eps=1e-3, dt=1e-2, nodes=49)
    assert prob.spec.n_dof == 98
    assert _LinearKernel.try_build(prob, 80, 1e-2) is None
    big = inner_solve_control(prob, 0.8)
    assert big.converged
    np.testing.assert_allclose(big.control.values[:, :49],
                               np.repeat(small.control.values[:, :1], 49, axis=1),
                               rtol=0.0, atol=1e-9)
    np.testing.assert_array_equal(big.control.values[:, 49:], 0.0)


def test_l4_newton_stop_reasons():
    # an L4 control norm takes Newton on the terminal costate too; its
    # reasons reach the report, and the costate is kept as a warm start
    from dataclasses import replace

    from mintime import L4

    prob = scalar_setup(eps=1e-2, dt=1e-2)
    prob = replace(prob, map=ControlMap(mode="first_component", u_tag=L4, projection="first"))
    capped = inner_solve_control(replace(prob, inner_cap=3), 0.8)
    assert (capped.stop, capped.iterations, capped.converged) == ("cap", 3, False)
    assert capped.costate is not None
    assert inner_solve_control(prob, 0.4).stop == "converged"


@pytest.mark.parametrize("change", ["L4"])
def test_every_probe_of_the_scalar_continuation_converges(monkeypatch, change):
    # L4 controls take Newton as well: no probe of any level stalls, and on a
    # first-component control over 3 uniform nodes each level lands on the
    # L2 run's horizon
    from dataclasses import replace

    from mintime import L4

    schedule, bracket = [1e-1, 1e-2, 1e-3, 1e-4], (0.2, 1.4)
    prob = scalar_setup(eps=1e-1, dt=1e-3)
    l2 = eps_continuation(prob, schedule, bracket)
    prob = replace(prob, map=ControlMap(mode="first_component", u_tag=L4, projection="first"))
    stops = []
    solve = timeopt.inner_solve_control

    def recorded(prob, T, warm=None):
        sol = solve(prob, T, warm)
        stops.append(sol.stop)
        return sol

    monkeypatch.setattr(timeopt, "inner_solve_control", recorded)
    reports = eps_continuation(prob, schedule, bracket)
    assert len(stops) >= len(schedule) * timeopt.SCAN_POINTS // 2
    assert stops == ["converged"] * len(stops)
    for a, b in zip(l2, reports, strict=True):
        assert abs(a.T_eps_star - b.T_eps_star) <= 1e-9


def test_importing_mintime_loads_only_scipy_linalg_and_no_yaml():
    # every run pays for what the import loads: scipy.linalg is the one
    # public scipy subpackage the library needs at import, and yaml waits
    # for the first config a run reads
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mintime

    src = str(Path(mintime.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, mintime\n"
            "print(sorted(m for m, mod in list(sys.modules.items())\n"
            "             if m.startswith('scipy.') and m.count('.') == 1\n"
            "             and not m.split('.')[1].startswith('_') and hasattr(mod, '__path__')))\n"
            "print('yaml' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split("\n")[:2] == ["['scipy.linalg']", "False"]


# ---------------------------------------------------------------------------
# dJ/dT: the envelope derivative each inner solve reports


def _central_dJ_dT(prob, T, warm=None, h=1e-6):
    """The solve at T and the central difference of J over T +- h, both
    inside T's K cell."""
    sol = inner_solve_control(prob, T, warm)
    K = sol.control.steps
    assert round((T - h) / prob.dt) == round((T + h) / prob.dt) == K
    J_hi = inner_solve_control(prob, T + h, sol).J
    J_lo = inner_solve_control(prob, T - h, sol).J
    return sol, (J_hi - J_lo) / (2 * h)


@pytest.mark.parametrize("eps, T", [(1e-1, 0.5), (1e-2, 0.5), (1e-3, 0.7), (1e-4, 0.69)])
def test_dJ_dT_matches_central_differences_on_the_kernel_newton(eps, T):
    prob = scalar_setup(eps=eps)
    prob.inner_tol = 1e-12
    assert _LinearKernel.try_build(prob, 700, 1e-3) is not None
    sol, fd = _central_dJ_dT(prob, T)
    assert sol.dJ_dT == pytest.approx(fd, rel=1e-6)


def test_dJ_dT_matches_central_differences_on_the_kernel_l4_newton():
    from dataclasses import replace

    from mintime import L4

    prob = replace(scalar_setup(eps=1e-2, dt=1e-2), inner_tol=1e-12,
                   map=ControlMap(mode="first_component", u_tag=L4, projection="first"))
    sol, fd = _central_dJ_dT(prob, 0.4)
    assert sol.converged
    assert sol.dJ_dT == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("eps", [1e-1, 1e-2])
def test_dJ_dT_matches_central_differences_on_nonlinear_sweeps(eps):
    # the tanh pair reduces to y' + tanh(y) = u on its uniform solution
    from dataclasses import replace

    base = scalar_setup(eps=eps, dt=1e-2)
    spec = ReactionDiffusion2(base.spec.grid, d1=1.0, d2=1.0,
                              f=pair_fn("tanh_pair", 1.0, 1.0), g=pair_fn("zero2"))
    prob = replace(base, spec=spec, inner_tol=1e-12)
    assert _LinearKernel.try_build(prob, 50, 1e-2) is None
    sol, fd = _central_dJ_dT(prob, 0.5)
    assert sol.converged
    assert sol.dJ_dT == pytest.approx(fd, rel=1e-6)


def test_dJ_dT_agrees_across_backends(monkeypatch):
    prob = scalar_setup(eps=1e-3, dt=1e-2)
    kernel = [inner_solve_control(prob, T).dJ_dT for T in (0.5, 0.8)]
    monkeypatch.setattr(_LinearKernel, "try_build", classmethod(lambda cls, *args: None))
    sweeps = [inner_solve_control(prob, T).dJ_dT for T in (0.5, 0.8)]
    np.testing.assert_allclose(sweeps, kernel, rtol=1e-10)


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
    J_hi = inner_solve_control(prob, report.T_eps_star + h, sol).J
    J_lo = inner_solve_control(prob, report.T_eps_star - h, sol).J
    assert abs(J_hi - J_lo) / (2 * h) <= 1e-3


def test_newton_solve_starts_from_the_warm_costate():
    prob = scalar_setup(eps=1e-2, dt=1e-2)
    cold = inner_solve_control(prob, 0.8)
    warm = inner_solve_control(prob, 0.8, cold)
    assert cold.stop == warm.stop == "converged"
    assert warm.iterations < cold.iterations
    assert warm.J == pytest.approx(cold.J, rel=1e-9)


def test_horizon_does_not_depend_on_the_search_history():
    # a cold search and the last continuation level find the same root
    prob = scalar_setup(eps=1e-4, dt=1e-3)
    cold, _ = outer_minimize(prob, (0.2, 1.4))
    reports = eps_continuation(prob, [1e-1, 1e-2, 1e-3, 1e-4], (0.2, 1.4))
    assert abs(cold.T_eps_star - reports[-1].T_eps_star) <= 1e-6
    for r in (cold, *reports):
        assert abs(r.dJ_dT) <= prob.golden_tol_factor
        assert not r.boundary_hit


def test_horizon_search_ends_when_the_tolerance_is_out_of_reach():
    # no |dJ/dT| is at most 1e-300 short of an exact zero: the search stops
    # on the width of its bracket, at the root all the same
    from dataclasses import replace

    prob = replace(scalar_setup(eps=1e-3, dt=1e-2), golden_tol_factor=1e-300)
    report, _ = outer_minimize(prob, (0.2, 1.4))
    assert report.probes <= timeopt.SCAN_POINTS + timeopt.ROOT_CAP
    assert abs(report.dJ_dT) <= 1e-8
    assert not report.boundary_hit


def test_outer_boundary_flag():
    prob = scalar_setup(eps=1e-3)
    report, _ = outer_minimize(prob, (1.2, 1.5))  # minimum sits left of the bracket
    assert report.boundary_hit


def _recorded_searches(monkeypatch):
    """Per horizon search, its bracket and its events in order: ("probe", T,
    J, dJ/dT) for each inner solve and ("candidate", T, J, None) when a probe
    becomes a candidate."""
    searches = []
    solve, root, outer = timeopt.inner_solve_control, timeopt._root, timeopt.outer_minimize

    def recorded_solve(prob, T, warm=None):
        sol = solve(prob, T, warm)
        events = searches[-1][1]
        events.append(("probe", T, sol.J, sol.dJ_dT))
        if len(events) == 1 and sol.dJ_dT >= 0.0:   # T_lo, pointing out
            events.append(("candidate", T, sol.J, None))
        return sol

    def recorded_root(*args):
        T, sol = root(*args)
        searches[-1][1].append(("candidate", T, sol.J, None))
        return T, sol

    def recorded_outer(prob, T_bracket, warm=None):
        searches.append((T_bracket, []))
        report, sol = outer(prob, T_bracket, warm)
        if report.boundary_hit and report.T_eps_star == T_bracket[1]:
            searches[-1][1].append(("candidate", report.T_eps_star, sol.J, None))
        return report, sol

    monkeypatch.setattr(timeopt, "inner_solve_control", recorded_solve)
    monkeypatch.setattr(timeopt, "_root", recorded_root)
    monkeypatch.setattr(timeopt, "outer_minimize", recorded_outer)
    return searches


def test_horizon_scan_stops_right_of_the_best_J(monkeypatch):
    # J_eps(T) >= T for every control: once a candidate attains J*, a scan
    # point T > J* is solved only to close a sign change its left neighbour
    # opened, and the scan ends at the first one that closes none
    searches = _recorded_searches(monkeypatch)
    prob = scalar_setup(eps=1e-3, dt=1e-3)
    reports = [timeopt.outer_minimize(prob, (0.2, 1.4))[0]]
    reports += eps_continuation(prob, [1e-1, 1e-2, 1e-3, 1e-4], (0.2, 1.4))
    assert len(searches) == len(reports) == 5
    for (bracket, events), report in zip(searches, reports):
        scan_points = set(np.linspace(*bracket, timeopt.SCAN_POINTS))
        best, left_slope = np.inf, None
        for kind, T, J, dJ_dT in events:
            if kind == "candidate":
                best = min(best, J)
            elif T in scan_points:
                assert T <= best or left_slope < 0.0
                left_slope = dJ_dT
        assert report.J == pytest.approx(best, rel=1e-9)
        # the scan never reached T_hi = 1.4, far right of every root
        assert max(T for _, T, _, _ in events) < 1.0
        assert report.probes == sum(kind == "probe" for kind, *_ in events)


def test_left_bracket_end_candidate_ends_the_scan():
    # dJ/dT >= 0 at T_lo = 1.2 makes it a candidate with J < 1.275, the next
    # scan point: the search takes one probe
    prob = scalar_setup(eps=1e-3)
    report, _ = outer_minimize(prob, (1.2, 1.5))
    assert report.probes == 1
    assert report.boundary_hit
    assert report.T_eps_star == 1.2


def _synthetic_search(monkeypatch, J, dJ_dT):
    """outer_minimize on the profile J(T), dJ/dT(T) in place of inner solves;
    returns a search of it as (T_eps_star, probes)."""
    def solve(prob, T, warm=None):
        return SimpleNamespace(J=J(T), dJ_dT=dJ_dT(T))

    def report(prob, T, sol, boundary, probes):
        return SimpleNamespace(T_eps_star=T, probes=probes)

    monkeypatch.setattr(timeopt, "inner_solve_control", solve)
    monkeypatch.setattr(timeopt, "_report_from", report)
    prob = SimpleNamespace(golden_tol_factor=1e-8, dt=1e-3)

    def search(T_bracket):
        r, _ = timeopt.outer_minimize(prob, T_bracket)
        return r.T_eps_star, r.probes
    return search


def _full_scan(J, dJ_dT, T_bracket):
    """The horizon a scan of the whole bracket before any refinement picks,
    with the same candidates and root finder as outer_minimize."""
    prob = SimpleNamespace(golden_tol_factor=1e-8, dt=1e-3)

    def solve(T):
        return T, SimpleNamespace(J=J(T), dJ_dT=dJ_dT(T))
    scan = [solve(float(T)) for T in np.linspace(*T_bracket, timeopt.SCAN_POINTS)]
    candidates = [scan[0]] if scan[0][1].dJ_dT >= 0.0 else []
    if scan[-1][1].dJ_dT <= 0.0:
        candidates.append(scan[-1])
    candidates += [timeopt._root(prob, solve, left, right) for left, right in zip(scan, scan[1:])
                   if left[1].dJ_dT < 0.0 <= right[1].dJ_dT]
    return min(candidates, key=lambda probe: probe[1].J)[0]


def test_horizon_scan_keeps_a_root_whose_bracket_straddles_the_best_J(monkeypatch):
    # scan points 0.2/0.5/0.8/1.1/1.4; roots of dJ/dT at 0.35 (J = 0.9) and
    # 0.85 (J = 0.86). The scan point 1.1 lies above J* = 0.9, but dJ/dT < 0
    # at 0.8 opens a sign change that holds the better root
    def J(T):
        return T + (0.55 if T < 0.6 else 0.01)

    def dJ_dT(T):
        return (T - 0.35) * (T - 0.6) * (T - 0.85)

    T_star, probes = _synthetic_search(monkeypatch, J, dJ_dT)((0.2, 1.4))
    assert T_star == _full_scan(J, dJ_dT, (0.2, 1.4))
    assert T_star == pytest.approx(0.85, abs=1e-6)
    assert probes < timeopt.SCAN_POINTS + 2 * timeopt.ROOT_CAP


def test_horizon_scan_picks_the_full_scan_winner(monkeypatch):
    # random piecewise-linear dJ/dT profiles and J = T + a nonnegative lift:
    # the scan that stops right of the best J picks the horizon a scan of the
    # whole bracket picks
    rng = np.random.default_rng(0)
    knots = np.linspace(0.2, 1.4, 13)
    for _ in range(1000):
        slopes = rng.normal(size=knots.size)
        lifts = rng.uniform(0.0, 1.0, knots.size) * np.linspace(1.0, 0.0, knots.size)

        def J(T, lifts=lifts):
            return T + float(np.interp(T, knots, lifts))

        def dJ_dT(T, slopes=slopes):
            return float(np.interp(T, knots, slopes))

        T_star, _ = _synthetic_search(monkeypatch, J, dJ_dT)((0.2, 1.4))
        assert T_star == _full_scan(J, dJ_dT, (0.2, 1.4))


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


def test_continuation_solves_each_level_sequentially_once(monkeypatch):
    calls = {"solve_forward": 0, "solve_adjoint": 0}

    def counted(name):
        fn = getattr(timeopt, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(timeopt, name, counted(name))
    prob = scalar_setup(eps=1e-1, dt=1e-2)
    reports, sol = eps_continuation(prob, [1e-1, 1e-2, 1e-3], (0.2, 1.4),
                                    return_final_solution=True)
    sol.trajectory, sol.adjoint  # the last level's winner, already solved
    assert calls == {"solve_forward": 3, "solve_adjoint": 3}
    assert [r.to_dict()["inner_stop"] for r in reports] == ["converged"] * 3
    assert all(r.inner_converged for r in reports)


def test_eps_schedule_validation():
    prob = scalar_setup()
    with pytest.raises(ValueError, match="decreasing"):
        eps_continuation(prob, [1e-2, 1e-2], (0.2, 1.0))
    with pytest.raises(ValueError, match="positive"):
        eps_continuation(prob, [1e-2, 0.0], (0.2, 1.0))
    # an empty schedule used to return no reports (and no solution), where
    # the config parser refuses it
    with pytest.raises(ValueError, match="nonempty"):
        eps_continuation(prob, [], (0.2, 1.0))
    with pytest.raises(ValueError, match="nonempty"):
        eps_continuation(prob, [], (0.2, 1.0), return_final_solution=True)


def test_chained_reference_is_refused():
    # the history term that chain_u_ref switched on is gone; the parameter
    # stays only for callers that pass False
    with pytest.raises(ValueError, match="chain_u_ref"):
        eps_continuation(scalar_setup(), [1e-2], (0.2, 1.0), chain_u_ref=True)


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
    assert abs(r1.T_eps_star - r2.T_eps_star) <= 100 * eps


def test_report_dict_holds_exactly_the_report_fields():
    from dataclasses import fields

    prob = scalar_setup(eps=1e-1, dt=1e-2)
    (report,) = eps_continuation(prob, [1e-1], (0.2, 1.4))
    d = report.to_dict()
    assert list(d) == [f.name for f in fields(report) if f.repr]
    assert all(type(v) in (float, int, bool, str) for v in d.values())
