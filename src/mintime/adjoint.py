"""First-order variation system and the discrete adjoint sweep.

The adjoint step is the algebraic transpose, in the example's state inner
product, of the linearized forward step frozen at the trajectory's states.
With S_k = (I + dt A'(y_k))^-1 the forward variation is
Y_k = S_k (Y_{k-1} + dt B v_k) and the backward sweep p_{k-1} = S_k^* p_k
makes the discrete duality identity

    (Y_K, p_K)_H = sum_k dt <B v_k, p_{k-1}>_H = sum_k dt <v_k, B* p_{k-1}>

hold to machine precision, which is this module's definition of correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .forward import Control, Trajectory
from .grids import Field
from .operators import ControlMap, OperatorSpec

__all__ = ["AdjointState", "solve_variation", "solve_adjoint", "duality_gap"]


@dataclass
class AdjointState:
    """Adjoint values on a trajectory's time grid; values[k] is p(t_k)."""

    times: np.ndarray
    values: np.ndarray  # (steps+1, n_dof)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def _frozen_lu(spec: OperatorSpec, traj: Trajectory, dt: float):
    """LU factors of I + dt A'(y_k) for k = 1..K (shared when linear)."""
    if spec.is_linear:
        j = spec.jacobian(traj.states[0])
        lu = scipy.linalg.lu_factor(np.eye(spec.n_dof) + dt * j)
        return lambda k: lu
    factors = [
        scipy.linalg.lu_factor(np.eye(spec.n_dof) + dt * spec.jacobian(traj.states[k]))
        for k in range(1, traj.steps + 1)
    ]
    return lambda k: factors[k - 1]


def solve_variation(spec: OperatorSpec, map: ControlMap, traj: Trajectory,
                    v: Control) -> Trajectory:
    """Solve Y' + A'(y*(t)) Y = Bv, Y(0) = 0 with the trajectory's scheme."""
    if v.steps != traj.steps:
        raise ValueError("variation control must share the trajectory's time grid")
    dt = float(traj.times[1] - traj.times[0])
    lu_at = _frozen_lu(spec, traj, dt)
    K = traj.steps
    states = np.zeros((K + 1, spec.n_dof))
    for k in range(1, K + 1):
        rhs = states[k - 1] + dt * map.apply_B(spec, v.values[k - 1])
        states[k] = scipy.linalg.lu_solve(lu_at(k), rhs)
    return Trajectory(spec, traj.times.copy(), states, np.ones(K, dtype=int), np.zeros(K))


def solve_adjoint(spec: OperatorSpec, traj: Trajectory, terminal: Field) -> AdjointState:
    """Backward sweep of -p' + (A'(y*(t)))* p = 0 ending at ``terminal``.

    Each step solves (I + dt A'(y_k))^(*H) p_{k-1} = p_k, the exact state
    metric transpose of the forward linearized step.
    """
    if terminal.values.size != spec.n_dof:
        raise ValueError("terminal payload does not match the operator")
    dt = float(traj.times[1] - traj.times[0])
    lu_at = _frozen_lu(spec, traj, dt)
    K = traj.steps
    values = np.zeros((K + 1, spec.n_dof))
    values[K] = terminal.values
    for k in range(K, 0, -1):
        w = spec.metric_apply(values[k])
        try:
            q = scipy.linalg.lu_solve(lu_at(k), w, trans=1)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise RuntimeError(f"adjoint linear solve singular at step {k}") from exc
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
