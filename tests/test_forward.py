"""Forward solver: fixed points, spectral oracles, convergence order, stability."""

import numpy as np
import pytest
import scipy.linalg

from mintime import (
    ControlMap,
    Field,
    Grid,
    L2,
    L4,
    PorousMedia,
    PotentialDrift,
    ReactionDiffusion2,
    dirichlet,
    neumann,
    pair_fn,
    scalar_fn,
)
from mintime.cli import _write_trajectory
from mintime.forward import Control, solve_forward, step_implicit


def heat_spec(n=32):
    g = Grid(extent=(1.0,), nodes=(n,), bc=dirichlet())
    return PotentialDrift(g, beta=scalar_fn("zero"))


def test_zero_control_zero_state_fixed_point():
    spec = heat_spec(12)
    cm = ControlMap(mode="identity", u_tag=L2)
    y = Field(spec.grid, np.zeros(spec.n_dof))
    u = Field(spec.grid, np.zeros(spec.n_dof))
    out = step_implicit(spec, cm, y, u, dt=0.1)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-14)


def test_linear_heat_one_step_is_scalar_resolvent():
    g = Grid(extent=(1.0,), nodes=(24,), bc=dirichlet())
    spec = PorousMedia(g, beta=scalar_fn("linear", 1.0))
    cm = ControlMap(mode="identity", u_tag=L2)
    s = spec.gamma_op
    k = 3
    lam = s.eigenvalues[k]
    e = Field(g, s.eigenvector(k))
    dt = 0.05
    out = step_implicit(spec, cm, e, Field(g, np.zeros(g.size)), dt)
    np.testing.assert_allclose(out.values, e.values / (1 + dt * lam), rtol=1e-9)


def test_pure_heat_eigenmode_decay():
    spec = heat_spec(32)
    cm = ControlMap(mode="identity", u_tag=L2)
    s = spec.gamma_op
    k = 0
    lam = s.eigenvalues[k]
    y0 = Field(spec.grid, s.eigenvector(k))
    T, dt = 0.05, 1e-4
    u = Control.zeros(cm, spec, dt, round(T / dt), rho=1.0)
    traj = solve_forward(spec, cm, y0, u, T)
    expected = np.exp(-lam * T) * y0.values
    np.testing.assert_allclose(traj.terminal.values, expected, rtol=5e-3)


def test_case3_constants_match_matrix_exponential():
    g = Grid(extent=(1.0,), nodes=(8,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(
        g, f=pair_fn("linear2", 1.0, 0.4), g=pair_fn("linear2", -0.3, 0.7)
    )
    cm = ControlMap(mode="identity", u_tag=L2)
    n = g.size
    y0 = Field(g, np.concatenate([np.full(n, 1.0), np.full(n, 1.0)]), 2)
    T, dt = 0.5, 1e-3
    u = Control.zeros(cm, spec, dt, round(T / dt), rho=1.0)
    traj = solve_forward(spec, cm, y0, u, T)
    M = np.array([[1.0, 0.4], [-0.3, 0.7]])
    exact = scipy.linalg.expm(-M * T) @ np.array([1.0, 1.0])
    got = np.array([traj.terminal.component(0)[0], traj.terminal.component(1)[0]])
    np.testing.assert_allclose(got, exact, atol=2e-3)
    # spatially constant data stays constant
    assert np.ptp(traj.terminal.component(0)) < 1e-10


def test_step_doubling_first_order():
    spec = PotentialDrift(
        Grid(extent=(1.0,), nodes=(16,), bc=dirichlet()),
        beta=scalar_fn("cubic", 0.3),
    )
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    T = 0.05
    rng = np.random.default_rng(1)
    uconst = 0.4 * np.sin(2 * np.pi * x)

    def terminal(dt):
        steps = round(T / dt)
        u = Control(dt, np.tile(uconst, (steps, 1)), rho=10.0)
        return solve_forward(spec, cm, y0, u, T).terminal.values

    ref = terminal(T / 2048)
    errs = [np.linalg.norm(terminal(T / m) - ref) for m in (64, 128, 256)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for r in ratios:
        assert 1.7 <= r <= 2.3


def test_lipschitz_stability_in_control():
    spec = heat_spec(16)
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    T, dt = 0.2, 1e-3
    steps = round(T / dt)
    rng = np.random.default_rng(5)
    base = rng.standard_normal((steps, spec.n_dof)) * 0.2
    w = spec.grid.component_weights
    gaps = []
    for delta in (1e-2, 1e-3):
        pert = base + delta * rng.standard_normal((steps, spec.n_dof))
        ua = Control(dt, base, rho=100.0)
        ub = Control(dt, pert, rho=100.0)
        ta = solve_forward(spec, cm, y0, ua, T)
        tb = solve_forward(spec, cm, y0, ub, T)
        sup_gap = max(
            np.sqrt(np.dot(w, (a - b) ** 2)) for a, b in zip(ta.states, tb.states)
        )
        du = np.sqrt(dt * sum(np.dot(w, (a - b) ** 2) for a, b in zip(ua.values, ub.values)))
        gaps.append(sup_gap / du)
    # constant C estimated once per spec: ratios agree across perturbation sizes
    assert gaps[0] == pytest.approx(gaps[1], rel=0.2)
    assert gaps[0] < 2.0


def test_dissipative_decay_zero_control():
    spec = heat_spec(24)
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x))
    u = Control.zeros(cm, spec, 1e-3, 100, rho=1.0)
    traj = solve_forward(spec, cm, y0, u)
    assert np.all(np.diff(traj.h_norms) <= 1e-12)


def test_discrete_energy_inequality_linear_heat():
    # 1/2||y+||^2 - 1/2||y||^2 <= dt(<Bu, y+> + a2||y+||_H^2 - a1||y+||_V^2),
    # exact for the heat operator with a1 = 1, a2 = 0
    spec = heat_spec(16)
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    dt, steps = 1e-3, 50
    rng = np.random.default_rng(9)
    uvals = 0.5 * rng.standard_normal((steps, spec.n_dof))
    u = Control(dt, uvals, rho=100.0)
    traj = solve_forward(spec, cm, y0, u)
    w = spec.grid.component_weights
    for k in range(steps):
        yk, yk1 = traj.states[k], traj.states[k + 1]
        lhs = 0.5 * np.dot(w, yk1**2) - 0.5 * np.dot(w, yk**2)
        bu = cm.apply_B(spec, uvals[k])
        rhs = dt * (np.dot(w, bu * yk1) - spec.v_norms(yk1) ** 2)
        assert lhs <= rhs + 1e-10


def test_admissibility_enforced():
    spec = heat_spec(8)
    cm = ControlMap(mode="identity", u_tag=L2)
    y0 = Field(spec.grid, np.zeros(spec.n_dof))
    u = Control(0.01, np.full((3, spec.n_dof), 10.0), rho=0.1)
    with pytest.raises(ValueError, match="admissible"):
        solve_forward(spec, cm, y0, u)


@pytest.mark.parametrize("dt, values, rho, message", [
    (0.0, [[0.0]], 1.0, "time step must be positive"),
    (0.1, [[0.0]], 0.0, "control radius must be positive"),
    (0.1, [[np.inf]], 1.0, "control values must be finite"),
])
def test_control_refusals(dt, values, rho, message):
    with pytest.raises(ValueError, match=message):
        Control(dt, values, rho)


def test_step_and_solve_refuse_a_bad_step_or_start():
    spec = heat_spec(8)
    cm = ControlMap(mode="identity", u_tag=L2)
    y = Field(spec.grid, np.zeros(spec.n_dof))
    with pytest.raises(ValueError, match="dt must be positive"):
        step_implicit(spec, cm, y, y, dt=0.0)
    other = Field(heat_spec(9).grid, np.zeros(9))
    with pytest.raises(ValueError, match="initial state does not match the operator"):
        solve_forward(spec, cm, other, Control.zeros(cm, spec, 0.01, 3, rho=1.0))


def test_horizon_mismatch_rejected():
    spec = heat_spec(8)
    cm = ControlMap(mode="identity", u_tag=L2)
    y0 = Field(spec.grid, np.zeros(spec.n_dof))
    u = Control.zeros(cm, spec, 0.01, 10, rho=1.0)
    with pytest.raises(ValueError, match="horizon"):
        solve_forward(spec, cm, y0, u, T=0.5)


def test_porous_media_nonlinear_solve_and_diagnostics():
    g = Grid(extent=(1.0,), nodes=(20,), bc=dirichlet())
    spec = PorousMedia(g, beta=scalar_fn("power", 0.5, 0.5, 0.5))
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = g.coordinates()
    y0 = Field(g, np.sin(np.pi * x))
    u = Control.zeros(cm, spec, 1e-3, 50, rho=1.0)
    traj = solve_forward(spec, cm, y0, u)
    summ = traj.summary()
    assert np.all(np.isfinite(traj.states))
    assert summ["max_residual"] <= 1e-9
    assert np.all(np.diff(traj.h_norms) <= 1e-12)  # zero control, monotone A


def test_trajectory_csv_roundtrip(tmp_path):
    spec = heat_spec(8)
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    u = Control.zeros(cm, spec, 0.01, 5, rho=1.0)
    traj = solve_forward(spec, cm, y0, u)
    path = tmp_path / "traj.csv"
    _write_trajectory(path, traj, values=True)
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["t"], traj.times)
    np.testing.assert_allclose(data["h_norm"], traj.h_norms)
    np.testing.assert_allclose(data["y0"], traj.states[:, 0])


def test_step_implicit_substeps_like_solve_forward(monkeypatch):
    import mintime.forward as forward

    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann())
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.0))
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = g.coordinates()
    y0 = Field(g, 30.0 * np.cos(np.pi * x))
    u = Field(g, np.random.default_rng(5).standard_normal(g.size))
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 4)
    traj = solve_forward(spec, cm, y0, Control(0.05, u.values[None, :], rho=1e9))
    assert traj.substeps[0] > 1
    out = step_implicit(spec, cm, y0, u, 0.05)
    np.testing.assert_array_equal(out.values, traj.states[1])


def test_newton_cap_counts_the_last_update(monkeypatch):
    # a nonlinear solve that needs n updates returns with n when the cap is
    # exactly n, and fails with the same residual check when the cap is n - 1
    import mintime.forward as forward

    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann())
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.0))
    (x,) = g.coordinates()
    y = 3.0 * np.cos(np.pi * x)
    x_ref, _, n, res = forward._implicit_solve(spec, y, y, 0.05)
    assert n >= 2 and res <= forward.NEWTON_TOL * (1.0 + forward._wnorm(spec, y))
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", n)
    x_cap, _, n_cap, res_cap = forward._implicit_solve(spec, y, y, 0.05)
    assert n_cap == n and res_cap == res
    np.testing.assert_array_equal(x_cap, x_ref)
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", n - 1)
    with pytest.raises(forward.StepFailure) as exc:
        forward._implicit_solve(spec, y, y, 0.05)
    assert exc.value.residual > forward.NEWTON_TOL * (1.0 + forward._wnorm(spec, y))
    # one interval sub-steps instead of failing
    _, _, iters, _, nsub = forward._step_with_refinement(spec, y, np.zeros_like(y), 0.05, 0)
    assert nsub > 1 and iters > 0


def test_substepped_interval_leaves_the_callers_state_alone(monkeypatch):
    # every refinement level restarts from the caller's y and A_H(y), which
    # no level copies: none may be written to, and the interval must come
    # out as it does from private copies of them
    import mintime.forward as forward

    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann())
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.0))
    (x,) = g.coordinates()
    y = 3.0 * np.cos(np.pi * x)
    a_y, bu = spec.apply(y), 2.0 * np.sin(np.pi * x)
    keep = y.copy(), a_y.copy(), bu.copy()
    _, _, n, _ = forward._implicit_solve(spec, y + 0.05 * bu, y, 0.05)
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", n - 1)
    out = forward._step_with_refinement(spec, y, bu, 0.05, 0, a_y)
    assert out[4] > 1
    for arr, kept in zip((y, a_y, bu), keep):
        assert arr.tobytes() == kept.tobytes()
    ref = forward._step_with_refinement(spec, keep[0].copy(), keep[2].copy(), 0.05, 0,
                                        keep[1].copy())
    assert out[0].tobytes() == ref[0].tobytes() and out[1].tobytes() == ref[1].tobytes()
    assert out[2:] == ref[2:]


def _record_factors(monkeypatch) -> tuple[list, list]:
    """The (state, dt) of every step factor the stepping loop makes, and the
    number made before each interval starts."""
    import mintime.forward as forward

    made, starts = [], []

    class Recorded(forward.StepFactor):
        def __init__(self, spec, y, dt):
            made.append((y.copy(), dt))
            super().__init__(spec, y, dt)

    step = forward._step_with_refinement

    def recorded(*args):
        starts.append(len(made))
        return step(*args)

    monkeypatch.setattr(forward, "StepFactor", Recorded)
    monkeypatch.setattr(forward, "_step_with_refinement", recorded)
    return made, starts


def test_intervals_of_two_updates_keep_no_factor(monkeypatch):
    # the operator and map of bench/gradient_2d.yaml on 6x6 at its dt 1e-2:
    # every interval needs a second update, so none hands its factor on and
    # each update factors at its own iterate
    g = Grid(extent=(1.0, 1.0), nodes=(6, 6), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    x, y = g.coordinates()
    y0 = Field(g, np.concatenate([0.5 * np.cos(np.pi * x) * np.cos(np.pi * y),
                                  np.full(g.size, 0.2)]), 2)
    row = np.concatenate([np.cos(np.pi * x), np.zeros(g.size)])
    u = Control(1e-2, np.tile(5.0 * row / cm.u_norms_batch(spec, row), (20, 1)), 10.0, L4)
    made, starts = _record_factors(monkeypatch)
    traj = solve_forward(spec, cm, y0, u)
    assert np.all(traj.newton_iters == 2)
    assert len(made) == int(traj.newton_iters.sum()) == 40
    for k, first in enumerate(starts):
        np.testing.assert_array_equal(made[first][0], traj.states[k])


def test_substepped_interval_factors_at_its_own_substeps(monkeypatch):
    # with one update allowed, each interval of dt 1e-2 is carried by 4
    # sub-steps that converge after one update each: every sub-step must
    # factor at its own start, and the interval must hand no factor of the
    # sub-step's dt to the next one
    import mintime.forward as forward

    spec = tanh_pair_spec()
    cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.concatenate([0.5 * np.cos(np.pi * x), np.full(16, 0.2)]), 2)
    row = np.concatenate([5.0 * np.cos(np.pi * x), np.zeros(16)])
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 1)
    made, starts = _record_factors(monkeypatch)
    traj = solve_forward(spec, cm, y0, Control(1e-2, np.tile(row, (3, 1)), rho=1e9))
    assert traj.substeps[0] == traj.newton_iters[0] == 4
    carried = [dt for _, dt in made[starts[0]:starts[1]] if dt == 1e-2 / 4]
    assert len(carried) == 4
    for k in (1, 2):
        state, dt = made[starts[k]]
        assert dt == 1e-2
        np.testing.assert_array_equal(state, traj.states[k])


# ---------------------------------------------------------------------------
# work per interval: A_H(y) carried across intervals, linear residuals on read


def tanh_pair_spec(n=16):
    g = Grid(extent=(1.0,), nodes=(n,), bc=neumann(), n_components=2)
    return ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))


def _pair_run(spec, steps=12, dt=0.02, seed=3):
    rng = np.random.default_rng(seed)
    cm = ControlMap(mode="identity", u_tag=L2)
    y0 = Field(spec.grid, rng.standard_normal(spec.n_dof), spec.n_components)
    u = Control(dt, 3.0 * rng.standard_normal((steps, spec.n_dof)), rho=1e9)
    return cm, y0, u


def _count_apply(monkeypatch, spec) -> list:
    calls = []
    apply = spec.apply

    def counted(y):
        calls.append(np.shape(y))
        return apply(y)

    monkeypatch.setattr(spec, "apply", counted, raising=False)
    return calls


def test_nonlinear_solve_is_the_chain_of_single_steps():
    # the carried A_H(y_k) is the one each step_implicit evaluates afresh
    spec = tanh_pair_spec(16)
    cm, y0, u = _pair_run(spec)
    traj = solve_forward(spec, cm, y0, u)
    assert np.all(traj.newton_iters >= 1)
    y = y0
    for k in range(u.steps):
        y = step_implicit(spec, cm, y, Field(spec.grid, u.values[k], 2), u.dt)
        assert np.array_equal(y.values, traj.states[k + 1])


def test_nonlinear_solve_applies_once_per_newton_iterate(monkeypatch):
    spec = tanh_pair_spec(16)
    cm, y0, u = _pair_run(spec)
    calls = _count_apply(monkeypatch, spec)
    traj = solve_forward(spec, cm, y0, u)
    assert len(calls) == 1 + int(traj.newton_iters.sum())
    traj.residuals  # kept from the solve: no further apply
    assert len(calls) == 1 + int(traj.newton_iters.sum())


def _linear_specs():
    g1 = Grid(extent=(1.0,), nodes=(12,), bc=dirichlet())
    g2 = Grid(extent=(1.0,), nodes=(10,), bc=neumann(), n_components=2)
    return {
        "heat": PotentialDrift(g1, beta=scalar_fn("linear", 0.3), a1=0.2, b=0.4),
        "porous": PorousMedia(g1, beta=scalar_fn("linear", 1.5)),
        "rd2": ReactionDiffusion2(g2, f=pair_fn("linear2", 1.0, 0.4),
                                  g=pair_fn("linear2", -0.3, 0.7)),
    }


@pytest.mark.parametrize("name", sorted(_linear_specs()))
def test_linear_residuals_are_computed_on_read(monkeypatch, name):
    spec = _linear_specs()[name]
    cm, y0, u = _pair_run(spec, steps=9, dt=0.01, seed=4)
    calls = _count_apply(monkeypatch, spec)
    traj = solve_forward(spec, cm, y0, u)
    assert calls == []
    # the eager formula: x + dt A_H(x) - (y + dt B u) at each step, one
    # state at a time, measured with the solver's weighted norm
    expected = []
    for k in range(u.steps):
        x, y = traj.states[k + 1], traj.states[k]
        r = x + u.dt * spec.apply(x) - (y + u.dt * cm.apply_B(spec, u.values[k]))
        expected.append(float(np.sqrt(np.dot(spec.grid.component_weights, r * r))))
    del calls[:]
    assert np.array_equal(traj.residuals, np.array(expected))
    assert calls == [(u.steps, spec.n_dof)]       # one stacked apply, kept
    traj.residuals  # a second read is the kept array
    assert len(calls) == 1
    assert 0.0 < np.max(traj.residuals) < 1e-10


def test_linear_solve_is_the_chain_of_single_steps():
    # the march of an open-loop solve against the per-interval loop that a
    # single step takes, on the first-component pair of the optimize configs
    spec = _linear_specs()["rd2"]
    cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    _, y0, u = _pair_run(spec, steps=9, dt=0.01, seed=4)
    traj = solve_forward(spec, cm, y0, u)
    y = y0
    for k in range(u.steps):
        y = step_implicit(spec, cm, y, Field(spec.grid, u.values[k], 2), u.dt)
        assert np.array_equal(y.values, traj.states[k + 1])


def test_linear_open_loop_solve_factors_once_and_applies_B_once(monkeypatch):
    import mintime.operators as operators

    spec = _linear_specs()["rd2"]
    cm, y0, u = _pair_run(spec, steps=9, dt=0.01, seed=4)
    made, shapes = [], []

    class Counted(operators.StepFactor):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    apply_B = ControlMap.apply_B

    def counted_apply_B(self, spec, u):
        shapes.append(np.shape(u))
        return apply_B(self, spec, u)

    monkeypatch.setattr(operators, "StepFactor", Counted)
    monkeypatch.setattr(ControlMap, "apply_B", counted_apply_B)
    solve_forward(spec, cm, y0, u)
    assert len(made) == 1
    assert shapes == [(u.steps, cm.control_size(spec))]


def test_linear_trajectory_without_steps_has_no_residuals():
    import mintime.forward as forward

    spec = heat_spec(8)
    cm = ControlMap(mode="identity", u_tag=L2)
    traj, rows = forward._integrate(spec, cm, np.ones(8), 0.01, 0, lambda k, y: y)
    assert traj.steps == 0 and rows.shape == (0, 8)
    assert traj.residuals.shape == (0,)


def test_interval_fails_with_its_index_after_every_halving(monkeypatch):
    # with no Newton update allowed, an interval whose start is not already
    # its solution fails at dt and at each of the MAX_HALVINGS halvings
    import mintime.forward as forward

    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann())
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.0))
    cm = ControlMap(mode="identity", u_tag=L2)
    tried = []
    solve = forward._implicit_solve

    def recorded(spec, rhs, guess, dt, *args):
        tried.append(dt)
        return solve(spec, rhs, guess, dt, *args)

    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 0)
    monkeypatch.setattr(forward, "_implicit_solve", recorded)
    u = np.zeros((4, g.size))
    u[2] = 1.0   # zero state and control solve the first two intervals as they stand
    with pytest.raises(forward.StepFailure, match="at step 2") as exc:
        solve_forward(spec, cm, Field(g, np.zeros(g.size)), Control(0.05, u, rho=1e9))
    assert exc.value.step == 2
    assert tried == [0.05, 0.05] + [0.05 / 2**level for level in range(forward.MAX_HALVINGS + 1)]
