"""First-order variation system and the discrete adjoint sweep.

The adjoint step is the algebraic transpose, in the example's state inner
product, of the linearized forward step frozen at the trajectory's states.
With S_k = (I + dt A'(y_k))^-1 the forward variation is
Y_k = S_k (Y_{k-1} + dt B v_k) and the backward sweep p_{k-1} = S_k^* p_k
makes the discrete duality identity

    (Y_K, p_K)_H = sum_k dt <B v_k, p_{k-1}>_H = sum_k dt <v_k, B* p_{k-1}>

hold to machine precision, which is this module's definition of correctness.
Both sweeps solve with banded step factors (``StepFactor``, the adjoint with
the transpose), each made as the sweep reaches its step, once for a linear
kind. A sub-stepped trajectory is refused before any is made: its map is
not one step of size dt per interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forward import Control, Trajectory
from .grids import Field
from .operators import ControlMap, OperatorSpec, StepFactor

__all__ = ["AdjointState", "solve_variation", "solve_adjoint", "duality_gap"]


@dataclass
class AdjointState:
    """Adjoint values on a trajectory's time grid; values[k] is p(t_k)."""

    times: np.ndarray
    values: np.ndarray  # (steps+1, n_dof)

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def _sweep_factors(spec: OperatorSpec, traj: Trajectory) -> Callable[[int], StepFactor]:
    """The factor of I + dt A'(y_k) at step k, made when a sweep asks for it
    (a linear kind's one factor, made here, at every k)."""
    refined = np.flatnonzero(traj.substeps > 1)
    if refined.size:
        k = int(refined[0])
        raise ValueError(
            f"interval {k} was integrated in {int(traj.substeps[k])} sub-steps; "
            "the one-step linearization is not the derivative of that map")
    dt = float(traj.times[1] - traj.times[0])
    if spec.is_linear:
        factor = StepFactor(spec, traj.states[0], dt)
        return lambda k: factor
    return lambda k: StepFactor(spec, traj.states[k], dt)


def solve_variation(spec: OperatorSpec, map: ControlMap, traj: Trajectory,
                    v: Control) -> Trajectory:
    """Solve Y' + A'(y*(t)) Y = Bv, Y(0) = 0 with the trajectory's scheme."""
    if v.steps != traj.steps:
        raise ValueError("variation control must share the trajectory's time grid")
    dt = float(traj.times[1] - traj.times[0])
    factor_at = _sweep_factors(spec, traj)
    K = traj.steps
    states = np.zeros((K + 1, spec.n_dof))
    for k in range(1, K + 1):
        rhs = states[k - 1] + dt * map.apply_B(spec, v.values[k - 1])
        states[k] = factor_at(k).solve(rhs)
    return Trajectory(spec, traj.times.copy(), states, np.ones(K, dtype=int), np.zeros(K))


def solve_adjoint(spec: OperatorSpec, traj: Trajectory, terminal: Field) -> AdjointState:
    """Backward sweep of -p' + (A'(y*(t)))* p = 0 ending at ``terminal``.

    Each step solves (I + dt A'(y_k))^(*H) p_{k-1} = p_k, the exact state
    metric transpose of the forward linearized step.
    """
    if terminal.values.size != spec.n_dof:
        raise ValueError("terminal payload does not match the operator")
    factor_at = _sweep_factors(spec, traj)
    K = traj.steps
    values = np.zeros((K + 1, spec.n_dof))
    values[K] = terminal.values
    for k in range(K, 0, -1):
        q = factor_at(k).solve(spec.metric_apply(values[k]), trans=1)
        values[k - 1] = spec.metric_solve(q)
    return AdjointState(traj.times.copy(), values)


def duality_gap(spec: OperatorSpec, map: ControlMap, traj: Trajectory,
                v: Control, terminal: Field) -> tuple[float, float, float]:
    """Evaluate both sides of the discrete duality identity.

    Returns (lhs, rhs, relative gap) with lhs = (Y(T), p(T))_H and
    rhs = sum_k dt <v_k, B* p_{k-1}>.
    """
    Y = solve_variation(spec, map, traj, v)
    p = solve_adjoint(spec, traj, terminal)
    lhs = spec.state_inner(Y.states[-1], terminal.values)
    dt = float(traj.times[1] - traj.times[0])
    rhs = dt * float(np.sum(map.u_pairing(spec, map.apply_Bstar(spec, p.values[:-1]), v.values)))
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, abs(lhs - rhs) / denom
