"""Cross-checked minimal-time oracles on the ODE reductions."""

import numpy as np
import pytest

from mintime.oracle import INFEASIBLE, OdeReduction, analytic_min_time_scalar, brute_force_min_time


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
