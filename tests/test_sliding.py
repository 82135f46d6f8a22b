"""Sign feedback, hit times and their bound, manifold invariance."""

from pathlib import Path

import numpy as np
import pytest

import mintime.forward as forward
import mintime.operators as operators
from mintime import (
    ControlMap,
    Field,
    Grid,
    L2,
    L4,
    PotentialDrift,
    ReactionDiffusion2,
    dirichlet,
    neumann,
    pair_fn,
    scalar_fn,
)
from mintime.audit import _metric_state, _projection_matrix, projection_constant
from mintime.config import load_config
from mintime.forward import NEWTON_TOL, step_implicit
from mintime.sliding import (
    SaturationError,
    hit_time_bound,
    run_sliding,
    sign_feedback,
    sliding_continuation,
)


def heat(n=32):
    g = Grid(extent=(1.0,), nodes=(n,), bcs=(dirichlet(),))
    return PotentialDrift(g, beta=scalar_fn("zero")), ControlMap(mode="identity", u_tag=L2)


def case1_spec(n=16):
    g = Grid(extent=(1.0,), nodes=(n,), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(
        g, d1=1.0, d2=0.8,
        f=pair_fn("tanh_pair", 0.5, 0.4), g=pair_fn("tanh_pair", -0.2, 0.6),
    )
    return spec, ControlMap(mode="first_component", u_tag=L4, projection="first")


# ---------------------------------------------------------------------------
# the feedback law


def test_feedback_zero_selection_at_target():
    spec, cm = heat(12)
    y = Field(spec.grid, 0.3 * np.ones(12))
    u = sign_feedback(cm, spec, y, y, rho=2.0)
    np.testing.assert_allclose(u.values, 0.0)


def test_feedback_scalar_sign():
    # one effective node: y - ytar = 0.3, rho = 2 gives u = -2
    g = Grid(extent=(1.0,), nodes=(3,), bcs=(neumann(),))
    spec = PotentialDrift(g)
    cm = ControlMap(mode="identity", u_tag=L2)
    y = Field(g, np.full(3, 0.8))
    ytar = Field(g, np.full(3, 0.5))
    u = sign_feedback(cm, spec, y, ytar, rho=2.0)
    np.testing.assert_allclose(u.values, -2.0, rtol=1e-12)
    assert cm.u_norms_batch(spec, u.values) == pytest.approx(2.0, rel=1e-12)


def test_feedback_l4_norm_and_direction():
    spec, cm = case1_spec(12)
    rng = np.random.default_rng(0)
    y = Field(spec.grid, rng.standard_normal(spec.n_dof), 2)
    ytar = Field(spec.grid, np.zeros(spec.n_dof), 2)
    rho = 1.7
    u = sign_feedback(cm, spec, y, ytar, rho)
    assert cm.u_norms_batch(spec, u.values) == pytest.approx(rho, rel=1e-10)
    v = cm.apply_Bstar(spec, cm.project_state(spec, y.values))
    direction = -cm.F_inverse_batch(spec, v) / cm.ustar_norms_batch(spec, v)
    np.testing.assert_allclose(u.values, rho * direction, rtol=1e-10)
    # second control component is untouched
    np.testing.assert_allclose(u.values[spec.grid.size:], 0.0)


# ---------------------------------------------------------------------------
# the hit-time bound


def test_hit_time_bound_limits():
    assert hit_time_bound(10.0, 0.0, 0.0, 0.7071) == pytest.approx(0.07071, rel=1e-4)
    # C1 -> 0 limit is continuous
    t_small = hit_time_bound(10.0, 0.0, 1e-9, 0.7071)
    assert t_small == pytest.approx(0.07071, rel=1e-3)
    # explicit log form
    t = hit_time_bound(2.0, 0.5, 1.0, 0.5)
    assert t == pytest.approx(np.log(1.5 / 1.0), rel=1e-12)
    # infeasible rho
    assert hit_time_bound(1.0, 0.9, 1.0, 0.5) is None


# ---------------------------------------------------------------------------
# closed-loop runs


def test_heat_hits_within_linear_bound():
    # the explicit feedback resolves the manifold only to O(rho dt), so the
    # hit tolerance must dominate rho*dt
    spec, cm = heat(32)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    ytar = Field(spec.grid, np.zeros(spec.grid.size))
    dt = 1e-4
    run = run_sliding(spec, cm, y0, ytar, rho=10.0, T_max=0.2, dt=dt, hit_tol=2e-3)
    assert run.hit
    d0 = 1.0 / np.sqrt(2.0)
    assert run.hit_time <= d0 / 10.0 + 5 * dt
    # the audited bound is valid here (C1 = 0, A ytar = 0) and respected
    assert run.t_star_valid
    assert run.hit_time <= run.t_star + 5 * dt
    # the reported fields reproduce the reported bound (with identity L2
    # controls the feedback gain constant is exactly 1)
    assert run.t_star == pytest.approx(
        hit_time_bound(run.rho, run.a_norm_surrogate, run.c1, run.deviations[0])
    )
    assert isinstance(run.summary()["A_norm_surrogate"], float)
    # strict decrease of the deviation up to the hit
    pre = run.deviations[: run.hit_index + 1]
    assert np.all(np.diff(pre) < 0)


def test_hit_time_monotone_in_rho():
    spec, cm = heat(24)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    ytar = Field(spec.grid, np.zeros(spec.grid.size))
    hits = []
    hit_tol = 2e-3
    for rho in (5.0, 10.0, 20.0, 40.0):
        dt = hit_tol / (2 * rho)  # keep the chatter amplitude inside the tolerance
        run = run_sliding(spec, cm, y0, ytar, rho=rho, T_max=0.5, dt=dt,
                          hit_tol=hit_tol, continue_after_hit=False)
        assert run.hit
        hits.append(run.hit_time)
    assert all(b <= a + 1e-12 for a, b in zip(hits, hits[1:]))


def test_small_rho_reports_no_hit():
    # a nonequilibrium target with rho below the A-norm surrogate: the
    # deviation need not decrease and the run ends without a hit
    spec, cm = heat(16)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, 0.8 * np.sin(np.pi * x))
    ytar = Field(spec.grid, np.sin(np.pi * x))   # -Lap ytar is large
    run = run_sliding(spec, cm, y0, ytar, rho=0.5, T_max=0.05, dt=1e-3, hit_tol=1e-4)
    assert not run.hit
    assert run.hit_time is None
    assert not run.t_star_valid
    assert run.a_norm_surrogate > run.rho


def test_feedback_admissibility_along_run():
    spec, cm = heat(16)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    ytar = Field(spec.grid, np.zeros(spec.grid.size))
    rho = 8.0
    run = run_sliding(spec, cm, y0, ytar, rho=rho, T_max=0.12, dt=1e-3, hit_tol=2e-3)
    for nu in run.control_norms:
        assert nu <= rho * (1 + 1e-12)
        assert nu == pytest.approx(rho, rel=1e-9) or nu == 0.0


# ---------------------------------------------------------------------------
# sliding continuation


def test_trivial_continuation_constant_target_no_reaction():
    g = Grid(extent=(1.0,), nodes=(12,), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(g, f=pair_fn("zero2"), g=pair_fn("zero2"))
    cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    n = g.size
    ytar = Field(g, np.concatenate([np.full(n, 0.4), np.zeros(n)]), 2)
    start = Field(g, np.concatenate([np.full(n, 0.4), 0.3 * np.ones(n)]), 2)
    traj, _ = sliding_continuation(spec, cm, start, ytar, T_extra=0.5, dt=1e-2, rho=1.0)
    # f = 0 and a harmonic (constant) target: the equivalent control is zero
    # and the manifold is exactly invariant
    dev = np.max(np.abs(traj.states[:, :n] - 0.4))
    assert dev <= 1e-12


def test_case1_continuation_deviation_bound():
    spec, cm = case1_spec(16)
    n = spec.grid.size
    (x,) = spec.grid.coordinates()
    y1tar = 0.3 + 0.05 * np.cos(np.pi * x)
    ytar = Field(spec.grid, np.concatenate([y1tar, np.zeros(n)]), 2)
    dt, hit_tol = 1e-3, 2e-3
    start_vals = np.concatenate([y1tar + hit_tol * np.cos(np.pi * x), 0.2 * np.ones(n)])
    start = Field(spec.grid, start_vals, 2)
    traj, _ = sliding_continuation(spec, cm, start, ytar, T_extra=1.0, dt=dt, rho=10.0,
                                   hit_tol=2 * hit_tol)
    dev = [spec.h_norm(cm.project_state(spec, s - ytar.values)) for s in traj.states]
    assert max(dev) <= 5 * (dt + hit_tol)


def test_case3_equivalent_control_matches_linear_formula():
    g = Grid(extent=(1.0,), nodes=(12,), bcs=(neumann(), neumann()))
    a1, b1 = 0.8, 0.5
    spec = ReactionDiffusion2(g, d1=1.3, d2=0.7,
                              f=pair_fn("linear2", a1, b1), g=pair_fn("linear2", 0.2, 0.4))
    cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    n = g.size
    (x,) = g.coordinates()
    y1tar = 0.2 + 0.1 * np.cos(np.pi * x)
    ytar = Field(g, np.concatenate([y1tar, np.zeros(n)]), 2)
    z0 = 0.3 * np.ones(n)
    start = Field(g, np.concatenate([y1tar, z0]), 2)
    lap = spec.gamma_op  # shifted; use the raw Laplacian instead
    from mintime.spaces import SpectralLaplacian

    raw = SpectralLaplacian(g, g.bcs[0], shift=0.0)
    # hand-coded linear-case equivalent control at the first step:
    # u = -D1 Lap y1tar + a1 y1tar + b1 z
    expected = spec.d1 * raw.apply(y1tar) + a1 * y1tar + b1 * z0
    traj, unorms = sliding_continuation(spec, cm, start, ytar, 5e-3, 5e-3)
    # first-component projection: target in y, the running z kept
    yhat = cm.auxiliary_state(spec, start.values, ytar.values)
    np.testing.assert_array_equal(yhat, np.concatenate([y1tar, z0]))
    # full projection: the target itself
    full = ControlMap(mode="identity", u_tag=L2, projection="full")
    np.testing.assert_array_equal(full.auxiliary_state(spec, start.values, ytar.values),
                                  ytar.values)
    got = spec.apply(yhat)[:n]
    np.testing.assert_allclose(got, expected, atol=1e-11)
    assert len(unorms) == 1
    u_expected = np.concatenate([expected, np.zeros(n)])
    assert unorms[0] == pytest.approx(cm.u_norms_batch(spec, u_expected), rel=1e-10)


def test_saturation_error_when_rho_too_small():
    spec, cm = case1_spec(12)
    n = spec.grid.size
    (x,) = spec.grid.coordinates()
    y1tar = 2.0 * np.sin(2 * np.pi * x)  # large curvature: big equivalent control
    ytar = Field(spec.grid, np.concatenate([y1tar, np.zeros(n)]), 2)
    start = Field(spec.grid, np.concatenate([y1tar, 0.1 * np.ones(n)]), 2)
    with pytest.raises(SaturationError):
        sliding_continuation(spec, cm, start, ytar, T_extra=0.1, dt=1e-2, rho=0.05)


def _record_intervals(monkeypatch) -> list:
    """The B u row of every interval the stepping loop advances."""
    stepped = []
    step = forward._step_with_refinement

    def recorded(spec, y, bu, *args):
        stepped.append(bu.copy())
        return step(spec, y, bu, *args)

    monkeypatch.setattr(forward, "_step_with_refinement", recorded)
    return stepped


def _first_saturation(spec, cm, start, ytar, dt, steps, rho):
    """Step and norm of the first out-of-ball equivalent control, stepping
    one interval at a time with the control taken at its head."""
    y = start
    for k in range(steps):
        u = cm.project_state(spec, spec.apply(cm.auxiliary_state(spec, y.values, ytar.values)))
        nu = float(cm.u_norms_batch(spec, u))
        if nu > rho * (1 + 1e-9):
            return k, nu
        y = step_implicit(spec, cm, y, Field(spec.grid, u, spec.n_components), dt)
    return None, None


@pytest.mark.parametrize("projection", ["full", "first"])
def test_saturation_raises_before_an_out_of_ball_interval(monkeypatch, projection):
    g = Grid(extent=(1.0,), nodes=(12,), bcs=(neumann(), neumann()))
    n = g.size
    (x,) = g.coordinates()
    if projection == "full":
        # A(y_tar) is large and the same at every step: step 0 saturates
        spec = ReactionDiffusion2(g, f=pair_fn("tanh_pair", 0.5, 0.4),
                                  g=pair_fn("tanh_pair", -0.2, 0.6))
        cm = ControlMap(mode="identity", u_tag=L2, projection="full")
        ytar = Field(g, np.concatenate([2.0 * np.cos(np.pi * x), np.cos(2 * np.pi * x)]), 2)
        start, rho = ytar, 1.0
    else:
        # the running second component grows (g = -5 tanh z) and feeds the
        # first equation (f = tanh z): the control leaves the ball later on
        spec = ReactionDiffusion2(g, f=pair_fn("tanh_pair", 0.0, 1.0),
                                  g=pair_fn("tanh_pair", 0.0, -5.0))
        cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
        ytar = Field(g, np.zeros(2 * n), 2)
        start, rho = Field(g, np.concatenate([np.zeros(n), 0.05 * np.ones(n)]), 2), 0.2
    dt, steps = 1e-2, 60
    k, nu = _first_saturation(spec, cm, start, ytar, dt, steps, rho)
    assert (k == 0) == (projection == "full") and k is not None
    stepped = _record_intervals(monkeypatch)
    with pytest.raises(SaturationError) as exc:
        sliding_continuation(spec, cm, start, ytar, T_extra=steps * dt, dt=dt, rho=rho)
    assert str(exc.value) == (
        f"equivalent control norm {nu:.4e} exceeds rho = {rho:.4e} at step {k}")
    # every interval stepped held an admissible control; the saturated one
    # was never stepped
    assert len(stepped) == k
    assert all(cm.u_norms_batch(spec, bu) <= rho * (1 + 1e-9) for bu in stepped)


def test_off_manifold_start_rejected():
    spec, cm = case1_spec(10)
    n = spec.grid.size
    ytar = Field(spec.grid, np.zeros(spec.n_dof), 2)
    start = Field(spec.grid, np.concatenate([np.ones(n), np.zeros(n)]), 2)
    with pytest.raises(ValueError, match="manifold"):
        sliding_continuation(spec, cm, start, ytar, T_extra=0.1, dt=1e-2, hit_tol=1e-3)


def test_post_hit_chattering_bounded():
    spec, cm = heat(24)
    (x,) = spec.grid.coordinates()
    y0 = Field(spec.grid, np.sin(np.pi * x))
    ytar = Field(spec.grid, np.zeros(spec.grid.size))
    hit_tol = 2e-3
    run = run_sliding(spec, cm, y0, ytar, rho=10.0, T_max=0.3, dt=1e-4, hit_tol=hit_tol)
    assert run.hit
    post = run.deviations[run.hit_index:]
    assert np.max(post) <= 10 * hit_tol


# ---------------------------------------------------------------------------
# both phases step through the forward solver's loop


def test_nonlinear_sliding_trajectories_carry_newton_counts():
    spec, cm = case1_spec(16)
    n = spec.grid.size
    y0 = Field(spec.grid, np.concatenate([np.zeros(n), 0.2 * np.ones(n)]), 2)
    ytar = Field(spec.grid, np.concatenate([0.3 * np.ones(n), np.zeros(n)]), 2)
    dt = 1e-3
    run = run_sliding(spec, cm, y0, ytar, rho=10.0, T_max=0.1, dt=dt, hit_tol=1e-2)
    assert run.hit and run.continuation is not None
    for traj in (run.approach, run.continuation):
        assert np.all(traj.newton_iters >= 1)
        assert np.any(traj.residuals > 0.0)   # Newton can land exactly
        assert np.all(traj.substeps == 1)
        # the step solved y+ + dt A(y+) = rhs, so rhs is recovered from y+
        ends = traj.states[1:]
        rhs = ends + dt * np.array([spec.apply(y) for y in ends])
        scale = 1.0 + np.sqrt((rhs * rhs) @ spec.weights)
        assert np.all(traj.residuals <= NEWTON_TOL * scale * (1 + 1e-6))


def test_sliding_interval_substeps_when_newton_fails(monkeypatch):
    import mintime.forward as forward

    # cubic drift from a steep start: with a 4-iteration Newton cap the
    # first interval of dt = 0.05 needs sub-steps, the later ones do not
    g = Grid(extent=(1.0,), nodes=(16,), bcs=(neumann(),))
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.0))
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = g.coordinates()
    y0 = Field(g, 30.0 * np.cos(np.pi * x))
    ytar = Field(g, np.zeros(g.size))
    monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 4)
    run = run_sliding(spec, cm, y0, ytar, rho=5.0, T_max=0.5, dt=0.05, hit_tol=0.5,
                      audit_samples=20)
    assert run.hit
    assert run.approach.substeps[0] > 1
    assert np.all(run.approach.substeps[1:] == 1)
    assert run.approach.newton_iters[0] > forward.NEWTON_MAX_ITER


def test_lp_gain_constant_is_the_lightest_node_spike_bound():
    # L4 controls on an L2 state: C = w_min^(1/4 - 1/2), attained by a spike
    # on a half-weight wall node (w_min = 1/30 on 16 Neumann nodes), so T_*
    # is a certified bound
    spec, cm = case1_spec(16)
    c = projection_constant(spec, cm, _projection_matrix(spec, cm), _metric_state(spec))
    assert c == pytest.approx(30.0 ** 0.25, rel=1e-15)
    n = spec.grid.size
    y0 = Field(spec.grid, np.concatenate([np.zeros(n), np.full(n, 0.2)]), 2)
    ytar = Field(spec.grid, np.concatenate([np.full(n, 0.3), np.zeros(n)]), 2)
    run = run_sliding(spec, cm, y0, ytar, rho=10.0, T_max=0.05, dt=1e-4, hit_tol=2e-3,
                      continue_after_hit=False)
    assert run.hit and run.t_star_valid
    assert run.t_star == hit_time_bound(10.0 / c, run.a_norm_surrogate, run.c1,
                                        run.deviations[0])
    assert run.hit_time <= run.t_star


def test_rank_deficient_nonlocal_map_has_no_gain_constant():
    # 4 Gaussian control nodes over 16 state nodes: B* has a 12-dimensional
    # kernel, so no finite C gives ||P v||_H <= C ||B* v||_U*, and T_* is no
    # bound (the largest ratio over smooth samples is only 5.79)
    g = Grid(extent=(1.0,), nodes=(16,), bcs=(dirichlet(),))
    gc = Grid(extent=(1.0,), nodes=(4,), bcs=(dirichlet(),))
    (x,), (z,) = g.coordinates(), gc.coordinates()
    cm = ControlMap(mode="nonlocal", u_tag=L2, control_grid=gc,
                    kernel=np.exp(-((x[:, None] - z[None, :]) ** 2) / 0.02))
    spec = PotentialDrift(g, beta=scalar_fn("zero"))
    c = projection_constant(spec, cm, _projection_matrix(spec, cm), _metric_state(spec))
    assert c == np.inf
    run = run_sliding(spec, cm, Field(g, np.sin(np.pi * x)), Field(g, np.zeros(16)),
                      rho=10.0, T_max=1.0, dt=1e-3, hit_tol=2e-3, continue_after_hit=False)
    assert run.hit
    assert run.t_star is None and not run.t_star_valid


@pytest.mark.parametrize("name, apply_cap", [("slide_heat", 9),
                                             ("slide_reaction_diffusion", 9703)])
def test_sliding_runs_apply_only_where_numbers_need_it(monkeypatch, name, apply_cap):
    # linear intervals apply nothing, nonlinear ones once per Newton iterate
    # (A_H(y) carried across intervals), and the full projection's equivalent
    # control is evaluated once; one factor per Newton iterate (one shared
    # factor for a linear kind)
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml")
    spec = cfg.spec
    calls, factors = [], []
    apply = spec.apply

    def counted(y):
        calls.append(1)
        return apply(y)

    monkeypatch.setattr(spec, "apply", counted, raising=False)

    class Counted(operators.StepFactor):
        def __init__(self, *args):
            factors.append(1)
            super().__init__(*args)

    monkeypatch.setattr(operators, "StepFactor", Counted)
    num = cfg.numerics
    run = run_sliding(spec, cfg.map, cfg.y0, cfg.y_tar, cfg.rho, num["T_max"], num["dt"],
                      num["hit_tol"])
    assert run.hit and run.continuation is not None
    assert len(calls) <= apply_cap
    trajs = (run.approach, run.continuation)
    newton = sum(int(t.newton_iters.sum()) for t in trajs)
    assert len(factors) == (1 if spec.is_linear else newton)
