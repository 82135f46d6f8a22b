"""Cross-checked minimal-time oracles on the ODE reductions."""

from pathlib import Path

import numpy as np
import pytest

from mintime.config import load_config
from mintime.oracle import (HIT_TOL_DT, INFEASIBLE, N_SLOTS, OdeReduction, _sequences,
                            analytic_min_time_scalar, brute_force_min_time)


def test_scalar_reference_instance():
    # a = 1, y0 = 0, c = 1/2, rho = 1: T* = ln 2
    assert analytic_min_time_scalar(1.0, 0.0, 0.5, 1.0) == pytest.approx(np.log(2.0), rel=1e-12)


def test_scalar_trivial_and_limits():
    assert analytic_min_time_scalar(1.0, 0.3, 0.3, 1.0) == 0.0
    # monotone decreasing in rho, to 0
    ts = [analytic_min_time_scalar(1.0, 0.0, 0.5, rho) for rho in (1.0, 2.0, 8.0, 64.0)]
    assert all(b < a for a, b in zip(ts, ts[1:]))
    assert ts[-1] < 0.01
    # a = 0 linear growth case
    assert analytic_min_time_scalar(0.0, 0.0, 0.5, 2.0) == pytest.approx(0.25, rel=1e-12)


def test_scalar_infeasible_flag():
    # equilibrium of the saturated dynamics sits before the target
    assert analytic_min_time_scalar(2.0, 0.0, 1.0, 1.0) == INFEASIBLE


def test_cross_oracle_agreement_scalar():
    dt = 1e-3
    for a, y0, c, rho in [(1.0, 0.0, 0.5, 1.0), (0.5, -0.2, 0.4, 1.5), (2.0, 0.1, -0.3, 3.0)]:
        red = OdeReduction(matrix=[[a]], rho=rho, y0=[y0], target=[c])
        t_bf = brute_force_min_time(red, dt, switch_budget=0, t_max=2.0)
        t_an = analytic_min_time_scalar(a, y0, c, rho)
        assert abs(t_bf - t_an) <= 2 * dt


def test_grid_consistency_under_refinement():
    red = OdeReduction(matrix=[[1.0]], rho=1.0, y0=[0.0], target=[0.5])
    dt = 2e-3
    t1 = brute_force_min_time(red, dt, switch_budget=0, t_max=2.0)
    t2 = brute_force_min_time(red, dt / 2, switch_budget=0, t_max=2.0)
    assert abs(t1 - t2) <= 2 * dt


def test_target_equals_initial():
    red = OdeReduction(matrix=[[1.0]], rho=1.0, y0=[0.4], target=[0.4])
    assert brute_force_min_time(red, 1e-3, 0, t_max=1.0) == 0.0


def test_2d_first_component_target():
    # mild coupling: minimal time close to the uncoupled scalar answer
    m = np.array([[1.0, 0.1], [0.0, 1.0]])
    red = OdeReduction(matrix=m, rho=1.0, y0=[0.0, 0.0], target=[0.5],
                       target_first_only=True)
    t = brute_force_min_time(red, 1e-3, switch_budget=1, t_max=3.0)
    assert t == pytest.approx(np.log(2.0), abs=0.05)


def test_2d_infeasible_returns_inf():
    m = np.eye(2)
    red = OdeReduction(matrix=m, rho=0.25, y0=[0.0, 0.0], target=[0.9],
                       target_first_only=True)
    assert brute_force_min_time(red, 1e-3, 1, t_max=2.0) == INFEASIBLE


def test_budget_guard():
    red = OdeReduction(matrix=[[1.0]], rho=1.0, y0=[0.0], target=[0.5])
    with pytest.raises(ValueError):
        brute_force_min_time(red, 1e-3, switch_budget=4)


def test_negative_budget_rejected():
    # a negative budget used to fail with an IndexError inside the search
    red = OdeReduction(matrix=[[1.0]], rho=1.0, y0=[0.0], target=[0.5])
    with pytest.raises(ValueError, match="0 to 3"):
        brute_force_min_time(red, 1e-3, switch_budget=-1)


@pytest.mark.parametrize("change, message", [
    ({"matrix": np.eye(3), "y0": [0.0] * 3, "target": [0.5] * 3}, "dimension must be 1 or 2"),
    ({"y0": [0.0, 0.0]}, "initial state dimension mismatch"),
    ({"target": [0.5, 0.5]}, "target dimension mismatch"),
    ({"rho": 0.0}, "control bound must be positive"),
    ({"matrix": [[np.nan]]}, "reduction data must be finite"),
], ids=["dimension", "y0", "target", "rho", "finite"])
def test_reduction_refusals(change, message):
    scalar = {"matrix": [[1.0]], "rho": 1.0, "y0": [0.0], "target": [0.5]}
    with pytest.raises(ValueError, match=message):
        OdeReduction(**{**scalar, **change})


def test_oracles_refuse_a_nonpositive_rho_or_a_grid_without_a_step():
    with pytest.raises(ValueError, match="rho must be positive"):
        analytic_min_time_scalar(1.0, 0.0, 0.5, 0.0)
    red = OdeReduction(matrix=[[1.0]], rho=1.0, y0=[0.0], target=[0.5])
    with pytest.raises(ValueError, match="need 0 < dt < t_max"):
        brute_force_min_time(red, 1.0, switch_budget=0, t_max=1.0)


def _drift_free_pair(rho, y0, target):
    # M = 0: y1' = u and y2 stays at y0_2
    return OdeReduction(matrix=np.zeros((2, 2)), rho=rho, y0=y0, target=target)


@pytest.mark.parametrize("budget", [0, 1])
@pytest.mark.parametrize("rho, expected", [(1.0, 0.498), (2.0, 0.248)])
def test_full_state_target_is_reached_at_the_tolerance_ball(budget, rho, expected):
    # the full-state search reports the time the distance reaches
    # hit_tol = 2 dt max(rho, 1), here (|c1 - y0_1| - hit_tol) / rho
    red = _drift_free_pair(rho, [0.0, 0.2], [0.5, 0.2])
    assert brute_force_min_time(red, 1e-3, budget) == expected


def test_full_state_target_off_the_uncontrolled_component_is_infeasible():
    red = _drift_free_pair(1.0, [0.0, 0.2], [0.5, 0.3])
    assert brute_force_min_time(red, 1e-3, 1, t_max=1.0) == INFEASIBLE


@pytest.mark.parametrize("budget", [0, 1])
def test_full_state_start_inside_the_tolerance_ball_hits_at_zero(budget):
    red = _drift_free_pair(1.0, [0.001, 0.2], [0.0, 0.2])
    assert brute_force_min_time(red, 1e-3, budget) == 0.0


# ---------------------------------------------------------------------------
# the bang search against its per-step reference


def _per_step_min_time(red, dt, switch_budget=1, t_max=5.0):
    """The bang search as one loop over the RK4 steps, rebuilding the forcing
    and testing for hits at every step: the reference the search must equal."""
    steps = int(np.ceil(t_max / dt))
    n_slots = max(2, min(N_SLOTS, steps))
    slot_dt = t_max / n_slots
    pats = _sequences(n_slots, switch_budget)
    m = red.matrix
    rho = red.rho
    d = red.dimension
    hit_tol = HIT_TOL_DT * dt * max(rho, float(np.abs(m).max()), 1.0)

    y = np.tile(red.y0, (len(pats), 1))
    e1 = np.zeros(d)
    e1[0] = 1.0

    signed = red.target_first_only or d == 1

    def dist(states):
        if signed:
            return states[:, 0] - red.target[0]
        return np.linalg.norm(states - red.target[None, :], axis=1)

    def rhs(states, uvals):
        return -(states @ m.T) + uvals[:, None] * e1[None, :]

    prev_dist = dist(y)
    if np.any(np.abs(prev_dist) <= 1e-14):
        return 0.0

    t = 0.0
    for k in range(steps):
        slot = min(int(t / slot_dt), n_slots - 1)
        uvals = rho * pats[:, slot]
        k1 = rhs(y, uvals)
        k2 = rhs(y + 0.5 * dt * k1, uvals)
        k3 = rhs(y + 0.5 * dt * k2, uvals)
        k4 = rhs(y + dt * k3, uvals)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        cur = dist(y)
        hits = (np.sign(cur) != np.sign(prev_dist)) | (cur == 0.0) if signed else cur <= hit_tol
        if np.any(hits):
            before, after = prev_dist[hits], cur[hits]
            if signed:
                frac = np.abs(before) / (np.abs(before) + np.abs(after))
            else:
                frac = np.clip((before - hit_tol) / np.maximum(before - after, 1e-300), 0.0, 1.0)
            return float(((t - dt) + frac * dt).min())
        prev_dist = cur
    return INFEASIBLE


def _random_reduction(rng, d, first_only):
    matrix = rng.uniform(-2.0, 2.0, (d, d))
    y0 = rng.uniform(-0.5, 0.5, d)
    if first_only or d == 1:
        target = y0[:1] + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.8)
    else:  # a full state: some draws lie out of every sequence's reach
        target = y0 + rng.uniform(-0.6, 0.6, d)
    return OdeReduction(matrix=matrix, rho=float(rng.uniform(0.3, 3.0)), y0=y0,
                        target=target, target_first_only=first_only and d == 2)


@pytest.mark.parametrize("budget", [0, 1, 2])
@pytest.mark.parametrize("d, first_only", [(1, False), (2, True), (2, False)],
                         ids=["scalar", "pair_first", "pair_full"])
def test_bang_search_equals_the_per_step_reference(d, first_only, budget):
    rng = np.random.default_rng(100 * d + 10 * first_only + budget)
    found = 0
    for _ in range(10):
        red = _random_reduction(rng, d, first_only)
        dt = float(rng.choice([2e-3, 5e-3, 7e-3]))
        t_max = float(rng.uniform(0.5, 2.0))
        t = brute_force_min_time(red, dt, budget, t_max=t_max)
        assert t == _per_step_min_time(red, dt, budget, t_max=t_max)
        found += t < INFEASIBLE
    assert found > 0


@pytest.mark.parametrize("name", ["oracle_scalar", "oracle_pair"])
def test_bang_search_of_the_repo_configs_equals_the_reference(name):
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / f"{name}.yaml")
    block = cfg.oracle_block
    args = (cfg.reduction, block["dt"], block["switch_budget"])
    t = brute_force_min_time(*args, t_max=block["t_max"])
    assert t < INFEASIBLE
    assert t == _per_step_min_time(*args, t_max=block["t_max"])


@pytest.mark.parametrize("red, dt, budget, t_max", [
    # unreachable: the saturated equilibrium 0.25 lies before the target
    (OdeReduction(matrix=[[1.0]], rho=0.25, y0=[0.0], target=[0.9]), 1e-2, 1, 1.5),
    (OdeReduction(matrix=np.eye(2), rho=0.25, y0=[0.0, 0.0], target=[0.9],
                  target_first_only=True), 1e-2, 2, 1.5),
    (OdeReduction(matrix=np.zeros((2, 2)), rho=1.0, y0=[0.0, 0.2], target=[0.5, 0.3]),
     1e-2, 1, 1.0),
    # a hit on the first step of a slot: the target sits at the first step's
    # reach, and in slot 3's first step, which runs from t = 0.16 to 0.17
    # (slot_dt = 0.05, dt = 0.01: the accumulated t reads 0.15 as slot 2)
    (OdeReduction(matrix=[[0.0]], rho=1.0, y0=[0.0], target=[0.01]), 1e-2, 0, 2.0),
    (OdeReduction(matrix=[[0.0]], rho=1.0, y0=[0.0], target=[0.1605]), 1e-2, 0, 2.0),
    (OdeReduction(matrix=np.zeros((2, 2)), rho=1.0, y0=[0.0, 0.2], target=[0.1805, 0.2]),
     1e-2, 1, 2.0),
    # t_max not a multiple of dt: the last step overruns the horizon
    (OdeReduction(matrix=[[0.5]], rho=1.0, y0=[0.0], target=[0.4]), 3e-3, 1, 0.9995),
    (OdeReduction(matrix=[[0.3, 1.0], [-1.0, 0.2]], rho=1.2, y0=[0.1, 0.0], target=[-0.3],
                  target_first_only=True), 7e-3, 2, 1.2345),
], ids=["scalar_inf", "pair_first_inf", "pair_full_inf", "first_step", "slot_first_step",
        "full_slot_first_step", "ragged_scalar", "ragged_pair"])
def test_bang_search_edge_cases_equal_the_reference(red, dt, budget, t_max):
    assert brute_force_min_time(red, dt, budget, t_max=t_max) == \
        _per_step_min_time(red, dt, budget, t_max=t_max)


def test_bang_search_with_more_patterns_than_a_block_equals_the_reference():
    # budget 3 on 40 slots: 19,840 patterns, so blocks of three steps within
    # slots of ten
    red = OdeReduction(matrix=[[0.0, 3.0], [-3.0, 0.0]], rho=1.0, y0=[0.0, 0.0],
                       target=[0.3], target_first_only=True)
    assert brute_force_min_time(red, 2e-3, 3, t_max=0.8) == \
        _per_step_min_time(red, 2e-3, 3, t_max=0.8)
