"""Variation system and discrete adjoint: superposition, duality, gradients."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrs

from mintime import (
    ControlMap,
    Field,
    FitzHughNagumo,
    Grid,
    L2,
    L4,
    HMINUS1,
    PhaseField,
    PorousMedia,
    PotentialDrift,
    ReactionDiffusion2,
    dirichlet,
    neumann,
    pair_fn,
    robin,
    scalar_fn,
)
from mintime.adjoint import duality_gap, solve_adjoint, solve_variation
from mintime.forward import Control, solve_forward
from mintime.operators import StepFactor


def _diffusionless_pair(g):
    """A nonlinear pair whose second component does not diffuse (d2 = 0)."""
    return ReactionDiffusion2(g, d1=0.7, d2=0.0, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))


def _instances(n=16):
    g1d = Grid(extent=(1.0,), nodes=(n,), bc=dirichlet())
    g1r = Grid(extent=(1.0,), nodes=(n,), bc=robin(0.8))
    g2 = Grid(extent=(1.0,), nodes=(n,), bc=neumann(), n_components=2)
    return [
        (
            PotentialDrift(g1r, beta=scalar_fn("cubic", 0.5), a1=0.3, b=0.2),
            ControlMap(mode="identity", u_tag=L2),
        ),
        (
            PorousMedia(g1d, beta=scalar_fn("power", 0.6, 0.4, 0.5)),
            ControlMap(mode="identity", u_tag=HMINUS1),
        ),
        (
            ReactionDiffusion2(
                g2, d1=1.0, d2=0.5,
                f=pair_fn("sat_rational", 1.0), g=pair_fn("tanh_pair", 0.5, 0.2),
            ),
            ControlMap(mode="first_component", u_tag=L4, projection="first"),
        ),
        (
            FitzHughNagumo(g2, alpha0=1.0, sigma=0.8, gamma=0.4),
            ControlMap(mode="first_component", u_tag=L2, projection="first"),
        ),
        (
            PhaseField(g2, k=1.0, l=0.4, nu=1.0, gamma=0.7),
            ControlMap(mode="first_component", u_tag=L2, projection="first"),
        ),
        (
            _diffusionless_pair(g2),
            ControlMap(mode="first_component", u_tag=L2, projection="first"),
        ),
    ]


def _random_traj(spec, cm, rng, steps=8, dt=1e-2, scale=0.5):
    y0 = Field(spec.grid, scale * rng.standard_normal(spec.n_dof), spec.n_components)
    uv = scale * rng.standard_normal((steps, cm.control_size(spec)))
    u = Control(dt, uv, rho=1e6, u_tag=cm.u_tag)
    return y0, u, solve_forward(spec, cm, y0, u)


def test_zero_variation_source():
    spec, cm = _instances(10)[0]
    rng = np.random.default_rng(0)
    _, _, traj = _random_traj(spec, cm, rng)
    v = Control.zeros(cm, spec, 1e-2, traj.steps, rho=1.0)
    Y = solve_variation(spec, cm, traj, v)
    np.testing.assert_allclose(Y.states, 0.0, atol=1e-14)


def test_zero_terminal_adjoint():
    spec, cm = _instances(10)[2]
    rng = np.random.default_rng(1)
    _, _, traj = _random_traj(spec, cm, rng)
    p = solve_adjoint(spec, traj, Field(spec.grid, np.zeros(spec.n_dof), 2))
    np.testing.assert_allclose(p.values, 0.0, atol=1e-14)
    assert p.steps == traj.steps


def test_linear_superposition_exact():
    spec, cm = _instances(12)[3]  # FitzHugh-Nagumo is linear
    rng = np.random.default_rng(2)
    y0, u, traj = _random_traj(spec, cm, rng)
    vv = 0.3 * rng.standard_normal(u.values.shape)
    v = Control(u.dt, vv, rho=1e6)
    Y = solve_variation(spec, cm, traj, v)
    upv = Control(u.dt, u.values + vv, rho=1e6)
    t2 = solve_forward(spec, cm, y0, upv)
    np.testing.assert_allclose(t2.states - traj.states, Y.states, atol=1e-9)


def test_variation_is_first_order_limit():
    spec, cm = _instances(12)[0]  # cubic potential, nonlinear
    rng = np.random.default_rng(3)
    y0, u, traj = _random_traj(spec, cm, rng, steps=12, dt=5e-3)
    vv = rng.standard_normal(u.values.shape)
    v = Control(u.dt, vv, rho=1e9)
    Y = solve_variation(spec, cm, traj, v)
    w = spec.grid.component_weights
    errs = []
    for lam in (1e-2, 1e-3, 1e-4):
        ul = Control(u.dt, u.values + lam * vv, rho=1e9)
        tl = solve_forward(spec, cm, y0, ul)
        diff = (tl.states[-1] - traj.states[-1]) / lam - Y.states[-1]
        errs.append(np.sqrt(np.dot(w, diff**2)))
    # O(lambda) convergence of the difference quotient
    assert errs[1] <= 0.2 * errs[0]
    assert errs[2] <= 0.2 * errs[1]


def test_selfadjoint_heat_adjoint_decays_like_forward():
    g = Grid(extent=(1.0,), nodes=(24,), bc=dirichlet())
    spec = PotentialDrift(g, beta=scalar_fn("zero"))
    cm = ControlMap(mode="identity", u_tag=L2)
    s = spec.gamma_op
    k = 2
    lam = s.eigenvalues[k]
    dt, steps = 1e-4, 200
    y0 = Field(g, s.eigenvector(0))
    u = Control.zeros(cm, spec, dt, steps, rho=1.0)
    traj = solve_forward(spec, cm, y0, u)
    p = solve_adjoint(spec, traj, Field(g, s.eigenvector(k)))
    # p(T - s) = e^{-lam s} e_k for the autonomous self-adjoint operator;
    # the sweep realizes its backward-Euler analogue (1 + dt lam)^-m exactly
    for back in (50, 100, 200):
        np.testing.assert_allclose(
            p.values[steps - back],
            (1 + dt * lam) ** (-back) * s.eigenvector(k),
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            p.values[steps - back],
            np.exp(-lam * back * dt) * s.eigenvector(k),
            rtol=2e-2,
            atol=1e-8,
        )


@pytest.mark.parametrize("idx", range(6))
def test_duality_identity_every_kind(idx):
    spec, cm = _instances(16)[idx]
    rng = np.random.default_rng(10 + idx)
    _, _, traj = _random_traj(spec, cm, rng)
    vv = rng.standard_normal((traj.steps, cm.control_size(spec)))
    v = Control(traj.times[1] - traj.times[0], vv, rho=1e9, u_tag=cm.u_tag)
    terminal = Field(spec.grid, rng.standard_normal(spec.n_dof), spec.n_components)
    lhs, rhs, gap = duality_gap(spec, cm, traj, v, terminal)
    assert gap <= 1e-10


@pytest.mark.parametrize("idx", [0, 2])
def test_terminal_gradient_matches_central_differences(idx):
    """d/dlam (1/2)||P y(T; u + lam v) - P ytar||_H^2 = sum dt <B* p, v>."""
    spec, cm = _instances(12)[idx]
    rng = np.random.default_rng(20 + idx)
    y0, u, traj = _random_traj(spec, cm, rng, steps=10, dt=5e-3, scale=0.3)
    ytar = 0.2 * rng.standard_normal(spec.n_dof)
    vv = rng.standard_normal(u.values.shape)

    def terminal_cost(lam):
        ul = Control(u.dt, u.values + lam * vv, rho=1e9)
        yT = solve_forward(spec, cm, y0, ul).states[-1]
        d = cm.project_state(spec, yT - ytar)
        return 0.5 * spec.state_inner(d, d)

    pT = cm.project_state(spec, traj.states[-1] - ytar)
    p = solve_adjoint(spec, traj, Field(spec.grid, pT, spec.n_components))
    dt = u.dt
    grad = sum(
        dt * cm.u_pairing(spec, cm.apply_Bstar(spec, p.values[k - 1]), vv[k - 1])
        for k in range(1, traj.steps + 1)
    )
    h = 1e-5
    fd = (terminal_cost(h) - terminal_cost(-h)) / (2 * h)
    assert grad == pytest.approx(fd, rel=1e-4)


def _refinement_setup():
    """Cubic drift-free diffusion from a steep start: with a 4-iteration Newton
    cap the first interval of dt = 0.05 needs 64 sub-steps."""
    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann())
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.0))
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = g.coordinates()
    y0 = Field(g, 30.0 * np.cos(np.pi * x))
    rng = np.random.default_rng(5)
    u = Control(0.05, rng.standard_normal((4, g.size)), rho=1e9)
    v = Control(0.05, rng.standard_normal((4, g.size)), rho=1e9)
    return spec, cm, y0, u, v


def test_adjoint_of_substepped_interval_raises(monkeypatch):
    import mintime.forward as forward

    spec, cm, y0, u, v = _refinement_setup()
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 4)
    traj = solve_forward(spec, cm, y0, u)
    assert traj.substeps[0] > 1 and np.all(traj.substeps[1:] == 1)
    terminal = Field(spec.grid, traj.states[-1], 1)
    for call in (lambda: solve_adjoint(spec, traj, terminal),
                 lambda: solve_variation(spec, cm, traj, v),
                 lambda: duality_gap(spec, cm, traj, v, terminal)):
        with pytest.raises(ValueError, match="interval 0 was integrated in"):
            call()


def test_inner_solver_refuses_a_substepped_forward_solve(monkeypatch):
    # the inner solve's sweeps linearize along its latest forward solve, so
    # a sub-stepped one is refused as soon as it is made
    import mintime.forward as forward
    from mintime.timeopt import PenalizedProblem, inner_solve_control

    spec, cm, y0, _, _ = _refinement_setup()
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 4)
    prob = PenalizedProblem(spec, cm, y0, Field(spec.grid, np.zeros(spec.n_dof)),
                            rho=1.0, eps=0.1, dt=0.05)
    with pytest.raises(ValueError, match="interval 0 was integrated in"):
        inner_solve_control(prob, 0.2)


@pytest.mark.parametrize("which", [0, 3], ids=["cubic_drift", "fitzhugh_nagumo"])
def test_zero_step_trajectory_has_one_row(monkeypatch, which):
    # a control without a step leaves the start: the variation is the zero
    # row, the adjoint the terminal row and the duality gap zero, with no
    # step factor made
    import mintime.operators as operators

    spec, cm = _instances()[which]
    rng = np.random.default_rng(31)
    y0 = Field(spec.grid, rng.standard_normal(spec.n_dof), spec.n_components)
    u = Control(1e-2, np.zeros((0, cm.control_size(spec))), rho=1.0, u_tag=cm.u_tag)
    traj = solve_forward(spec, cm, y0, u)
    assert traj.states.shape == (1, spec.n_dof)
    terminal = Field(spec.grid, rng.standard_normal(spec.n_dof), spec.n_components)
    monkeypatch.setattr(operators, "StepFactor", None)
    np.testing.assert_array_equal(solve_variation(spec, cm, traj, u).states,
                                  np.zeros((1, spec.n_dof)))
    np.testing.assert_array_equal(solve_adjoint(spec, traj, terminal).values,
                                  terminal.values[None])
    assert duality_gap(spec, cm, traj, u, terminal) == (0.0, 0.0, 0.0)


def test_unrefined_steep_start_gradient_matches_central_differences():
    spec, cm, y0, u, v = _refinement_setup()
    traj = solve_forward(spec, cm, y0, u)
    assert np.all(traj.substeps == 1)

    def terminal_cost(lam):
        yT = solve_forward(spec, cm, y0, Control(u.dt, u.values + lam * v.values,
                                                  rho=1e9)).states[-1]
        return 0.5 * spec.state_inner(yT, yT)

    p = solve_adjoint(spec, traj, Field(spec.grid, traj.states[-1], 1))
    grad = u.dt * float(np.sum(cm.u_pairing(spec, cm.apply_Bstar(spec, p.values[:-1]),
                                            v.values)))
    h = 1e-5
    fd = (terminal_cost(h) - terminal_cost(-h)) / (2 * h)
    assert grad == pytest.approx(fd, rel=1e-6)


# criterion 1 over the size ladder: 1D 3/32/128 nodes, 2D 16^2/24^2/48^2
_LADDER = [(3,), (32,), (128,), (16, 16), (24, 24), (48, 48)]


@pytest.mark.parametrize("nodes", _LADDER, ids=lambda n: "x".join(map(str, n)))
@pytest.mark.parametrize("kind", ["reaction_diffusion2", "diffusionless_pair", "phase_field"])
def test_duality_identity_size_ladder(kind, nodes):
    g = Grid(extent=(1.0,) * len(nodes), nodes=nodes, bc=neumann(), n_components=2)
    if kind == "reaction_diffusion2":
        spec = ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                                  g=pair_fn("tanh_pair", -0.2, 0.6))
        cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    elif kind == "diffusionless_pair":
        spec = _diffusionless_pair(g)
        cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    else:
        spec = PhaseField(g, k=1.0, l=0.4, nu=1.0, gamma=0.7)
        cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    rng = np.random.default_rng(len(nodes) * 1000 + g.size)
    _, _, traj = _random_traj(spec, cm, rng, steps=4, dt=1e-2)
    vv = rng.standard_normal((traj.steps, cm.control_size(spec)))
    v = Control(traj.times[1] - traj.times[0], vv, rho=1e9, u_tag=cm.u_tag)
    terminal = Field(spec.grid, rng.standard_normal(spec.n_dof), spec.n_components)
    _, _, gap = duality_gap(spec, cm, traj, v, terminal)
    assert gap <= 1e-10


def test_sweeps_hold_one_step_factor_at_a_time():
    # each sweep factors a step when it reaches it, so its memory stays at a
    # few factors however many steps it takes (20 here)
    g = Grid(extent=(1.0, 1.0), nodes=(16, 16), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    rng = np.random.default_rng(16)
    _, u, traj = _random_traj(spec, cm, rng, steps=20, dt=1e-2)
    terminal = Field(spec.grid, rng.standard_normal(spec.n_dof), spec.n_components)
    factor_bytes = StepFactor(spec, traj.states[1], 1e-2).lu.nbytes
    for sweep in (lambda: solve_adjoint(spec, traj, terminal),
                  lambda: solve_variation(spec, cm, traj, u)):
        tracemalloc.start()
        try:
            sweep()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * factor_bytes


@pytest.mark.parametrize("dt", [1e-3, 1e-4])
def test_forward_solve_holds_one_step_factor_at_a_time(monkeypatch, dt):
    # the forward loop keeps a factor across intervals while one update with
    # it converges, and drops it before it factors anew: at dt 1e-3 every
    # interval takes two updates, at dt 1e-4 most reuse the kept factor and
    # some refactor, and the memory stays below that of two live factors
    import mintime.forward as forward

    g = Grid(extent=(1.0, 1.0), nodes=(16, 16), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    x, y = g.coordinates()
    y0 = Field(g, np.concatenate([0.5 * np.cos(np.pi * x) * np.cos(np.pi * y),
                                  np.full(g.size, 0.2)]), 2)
    row = np.concatenate([np.cos(np.pi * x), np.zeros(g.size)])
    u = Control(dt, np.tile(5.0 * row / cm.u_norms_batch(spec, row), (20, 1)), 10.0, L4)
    factor_bytes = StepFactor(spec, y0.values, dt).lu.nbytes
    made = []

    class Counted(StepFactor):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(forward, "StepFactor", Counted)
    tracemalloc.start()
    try:
        traj = solve_forward(spec, cm, y0, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    updates = int(traj.newton_iters.sum())
    if dt == 1e-3:
        assert len(made) == updates == 40
    else:
        assert 1 < len(made) < updates
    assert peak < 2.5 * factor_bytes


def test_variation_and_adjoint_refuse_another_grid_or_size():
    g = Grid(extent=(1.0,), nodes=(8,), bc=dirichlet())
    spec = PotentialDrift(g, beta=scalar_fn("zero"))
    cm = ControlMap(mode="identity", u_tag=L2)
    traj = solve_forward(spec, cm, Field(g, np.zeros(8)), Control.zeros(cm, spec, 0.01, 4, 1.0))
    with pytest.raises(ValueError, match="variation control must share the trajectory's time"):
        solve_variation(spec, cm, traj, Control.zeros(cm, spec, 0.01, 5, 1.0))
    other = Grid(extent=(1.0,), nodes=(9,), bc=dirichlet())
    with pytest.raises(ValueError, match="terminal payload does not match the operator"):
        solve_adjoint(spec, traj, Field(other, np.zeros(9)))


# ---------------------------------------------------------------------------
# the march: every kind's sweeps, bit for bit the per-step loop


def _sweep_cases():
    g3 = Grid(extent=(1.0,), nodes=(3,), bc=neumann(), n_components=2)
    g12 = Grid(extent=(1.0,), nodes=(12,), bc=dirichlet())
    g4x4 = Grid(extent=(1.0, 1.0), nodes=(4, 4), bc=neumann(), n_components=2)
    first = ControlMap(mode="first_component", u_tag=L2, projection="first")

    def pair(g, f=pair_fn("linear2", 1.0, 0.4), h=pair_fn("linear2", -0.3, 0.7)):
        return ReactionDiffusion2(g, d1=1.0, d2=0.5, f=f, g=h)

    # no repo kind has a non-diagonal metric and several components, so one
    # pair is given the H^-1 metric by hand: its node order is not the identity
    hminus1_pair = pair(Grid(extent=(1.0,), nodes=(5,), bc=dirichlet(), n_components=2))
    hminus1_pair.state_tag = HMINUS1
    identity = ControlMap(mode="identity", u_tag=L2)
    hminus1 = ControlMap(mode="identity", u_tag=HMINUS1)
    return {
        "pair_3_nodes": (pair(g3), first),
        "pair_hminus1_metric": (hminus1_pair, first),
        "drift_dirichlet": (PotentialDrift(g12, beta=scalar_fn("linear", 0.3), a1=0.2, b=0.4),
                            identity),
        "porous": (PorousMedia(g12, beta=scalar_fn("linear", 1.5)), hminus1),
        "pair_4x4": (pair(g4x4), first),
        # the nonlinear kinds: each step factors at the trajectory's state
        "tanh_pair_3_nodes": (pair(g3, pair_fn("tanh_pair", 0.5, 0.4),
                                   pair_fn("tanh_pair", -0.2, 0.6)), first),
        "tanh_sat_pair_4x4": (pair(g4x4, pair_fn("tanh_pair", 0.5, 0.4),
                                   pair_fn("sat_rational", 0.8)), first),
        "porous_power": (PorousMedia(g12, beta=scalar_fn("power", 0.6, 0.4, 0.5)), hminus1),
        "phase_field": (PhaseField(g3, k=1.0, l=0.4, nu=1.0, gamma=0.7), first),
        "drift_cubic": (PotentialDrift(g12, beta=scalar_fn("cubic", 0.5), a1=0.2, b=0.4),
                        identity),
    }


def _forward_loop(spec, cm, y0, u):
    """A linear kind's forward states, each step one solve with its one factor."""
    factor = StepFactor(spec, y0, u.dt)
    ys = [y0]
    for k in range(u.steps):
        ys.append(factor.solve(ys[-1] + u.dt * cm.apply_B(spec, u.values[k])))
    return np.array(ys)


def _sweep_loop(spec, cm, traj, v, p_K):
    """The per-step reference of the sweeps: the variation states and the
    adjoint values, step k one solve with a factor made at the trajectory's
    state k; the transpose solve is a bare ``dgbtrs`` in node-major order."""
    dt, order, bw = v.dt, spec.node_order, spec.bandwidth
    Ys, ps = [np.zeros(spec.n_dof)], [p_K]
    for k in range(1, traj.steps + 1):
        factor = StepFactor(spec, traj.states[k], dt)
        Ys.append(factor.solve(Ys[-1] + dt * cm.apply_B(spec, v.values[k - 1])))
    for k in range(traj.steps, 0, -1):
        factor = StepFactor(spec, traj.states[k], dt)
        q = np.empty(spec.n_dof)
        q[order] = dgbtrs(factor.lu, bw, bw, spec.metric_apply(ps[-1])[order], factor.piv,
                          trans=1)[0]
        ps.append(spec.metric_solve(q))
    return np.array(Ys), np.array(ps[::-1])


@pytest.mark.parametrize("name", sorted(_sweep_cases()))
def test_linear_sweeps_march_bit_for_bit_like_the_step_loop(name):
    spec, cm = _sweep_cases()[name]
    rng = np.random.default_rng(11)
    K, dt, m = 25, 1e-2, cm.control_size(spec)
    y0, p_K = rng.standard_normal(spec.n_dof), rng.standard_normal(spec.n_dof)
    u = Control(dt, rng.standard_normal((K, m)), rho=1e9, u_tag=cm.u_tag)
    v = Control(dt, rng.standard_normal((K, m)), rho=1e9, u_tag=cm.u_tag)

    traj = solve_forward(spec, cm, Field(spec.grid, y0), u)
    if spec.is_linear:
        assert np.array_equal(traj.states, _forward_loop(spec, cm, y0, u))
    Ys, ps = _sweep_loop(spec, cm, traj, v, p_K)
    terminal = Field(spec.grid, p_K)
    assert np.array_equal(solve_variation(spec, cm, traj, v).states, Ys)
    assert np.array_equal(solve_adjoint(spec, traj, terminal).values, ps)
    assert duality_gap(spec, cm, traj, v, terminal)[2] <= 1e-12


def test_linear_sweeps_refuse_a_substepped_trajectory():
    # a linear interval is never subdivided, so the mark is made by hand
    spec, cm = _sweep_cases()["pair_3_nodes"]
    u = Control.zeros(cm, spec, 1e-2, 6, 1.0)
    traj = solve_forward(spec, cm, Field(spec.grid, np.ones(spec.n_dof)), u)
    traj.substeps[2] = 2
    terminal = Field(spec.grid, np.ones(spec.n_dof))
    for call in (lambda: solve_adjoint(spec, traj, terminal),
                 lambda: solve_variation(spec, cm, traj, u),
                 lambda: duality_gap(spec, cm, traj, u, terminal)):
        with pytest.raises(ValueError, match="interval 2 was integrated in 2 sub-steps"):
            call()


def test_nonlocal_march_moves_only_in_the_last_bits():
    # the march applies B to the whole stack at once; a nonlocal B is a
    # matrix product, whose stacked rows may differ from the row-by-row
    # products in the last bit
    g = Grid(extent=(1.0,), nodes=(16,), bc=dirichlet())
    gc = Grid(extent=(1.0,), nodes=(4,), bc=dirichlet())
    (x,), (z,) = g.coordinates(), gc.coordinates()
    cm = ControlMap(mode="nonlocal", u_tag=L2, control_grid=gc,
                    kernel=np.exp(-((x[:, None] - z[None, :]) ** 2) / 0.02))
    spec = PotentialDrift(g, beta=scalar_fn("linear", 0.3), a1=0.2)
    rng = np.random.default_rng(12)
    y0, p_K = np.sin(np.pi * x), rng.standard_normal(g.size)
    u = Control(1e-2, rng.standard_normal((30, gc.size)), rho=1e9)
    v = Control(1e-2, rng.standard_normal((30, gc.size)), rho=1e9)
    traj = solve_forward(spec, cm, Field(g, y0), u)
    Ys, ps = _sweep_loop(spec, cm, traj, v, p_K)
    for got, want in ((traj.states, _forward_loop(spec, cm, y0, u)),
                      (solve_variation(spec, cm, traj, v).states, Ys)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
    assert np.array_equal(solve_adjoint(spec, traj, Field(g, p_K)).values, ps)
