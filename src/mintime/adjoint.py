"""First-order variation system and the discrete adjoint sweep.

The adjoint step is the algebraic transpose, in the example's state inner
product, of the linearized forward step frozen at the trajectory's states.
With S_k = (I + dt A'(y_k))^-1 the forward variation is
Y_k = S_k (Y_{k-1} + dt B v_k) and the backward sweep p_{k-1} = S_k^* p_k
makes the discrete duality identity

    (Y_K, p_K)_H = sum_k dt <B v_k, p_{k-1}>_H = sum_k dt <v_k, B* p_{k-1}>

hold to machine precision, which is this module's definition of correctness.
Each sweep is one march of ``operators`` on every kind (``march`` and
``march_adjoint``): B meets the variation's stack once, and step k solves
with the banded factor of I + dt A'(y_k) (a linear kind's, state-free, made
once), the adjoint with its transpose between the state metric and its
inverse. A sub-stepped trajectory is refused before any factor is made: its
map is not one step of size dt per interval. A trajectory without a step
has the one row: the zero variation, p_K and a zero gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import Control, Trajectory
from .grids import Field
from .operators import ControlMap, OperatorSpec, march, march_adjoint

__all__ = ["AdjointState", "solve_variation", "solve_adjoint", "duality_gap"]


@dataclass
class AdjointState:
    """Adjoint values on a trajectory's time grid; values[k] is p(t_k)."""

    times: np.ndarray
    values: np.ndarray  # (steps+1, n_dof)

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def _step_dt(traj: Trajectory) -> float:
    """The trajectory's step (0 without one), refused when an interval was
    sub-stepped."""
    refined = np.flatnonzero(traj.substeps > 1)
    if refined.size:
        k = int(refined[0])
        raise ValueError(
            f"interval {k} was integrated in {int(traj.substeps[k])} sub-steps; "
            "the one-step linearization is not the derivative of that map")
    return float(traj.times[1] - traj.times[0]) if traj.steps else 0.0


def solve_variation(spec: OperatorSpec, map: ControlMap, traj: Trajectory,
                    v: Control) -> Trajectory:
    """Solve Y' + A'(y*(t)) Y = Bv, Y(0) = 0 with the trajectory's scheme."""
    if v.steps != traj.steps:
        raise ValueError("variation control must share the trajectory's time grid")
    dt = _step_dt(traj)
    K = traj.steps
    states = march(spec, traj.states, dt, np.zeros(spec.n_dof), dt * map.apply_B(spec, v.values))
    return Trajectory(spec, traj.times.copy(), states, np.ones(K, dtype=int), np.zeros(K))


def solve_adjoint(spec: OperatorSpec, traj: Trajectory, terminal: Field) -> AdjointState:
    """Backward sweep of -p' + (A'(y*(t)))* p = 0 ending at ``terminal``.

    Each step solves (I + dt A'(y_k))^(*H) p_{k-1} = p_k, the exact state
    metric transpose of the forward linearized step.
    """
    if terminal.values.size != spec.n_dof:
        raise ValueError("terminal payload does not match the operator")
    values = march_adjoint(spec, traj.states, _step_dt(traj), terminal.values)
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
    dt = _step_dt(traj)
    rhs = dt * float(np.sum(map.u_pairing(spec, map.apply_Bstar(spec, p.values[:-1]), v.values)))
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, abs(lhs - rhs) / denom
