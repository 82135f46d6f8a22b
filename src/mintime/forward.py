"""Backward-Euler time integration of y' + A_H y = Bu by Newton's method.

One stepping loop, ``_integrate``, carries every solve: open-loop controls
(``solve_forward``) and feedback laws (the sliding approach and its post-hit
continuation) alike take a control row at the head of each interval and hold
it over the interval. Every step solves with the banded LU factors of
I + dt A'(y), a ``StepFactor``: a linear kind is factored once per loop
that takes a step. An open-loop control meets B once, as one stack, and on
a linear kind it then runs the variation's sweep (``operators.march``) on
that one factor, each state bit for bit the state the loop would reach. A
nonlinear interval's first Newton update reuses the factor of the loop's
previous interval if that one converged after exactly one update; every
other update factors at its iterate.
On Newton failure the control interval is retried on up to 6 binary
subdivisions before giving up; the trajectory records the Newton
iterations, last residual and sub-steps of each interval.

Each interval applies the operator only where its numbers need it. A
nonlinear solve carries A_H(y) across intervals: the converged residual of
interval k evaluates A_H(y_{k+1}), which is the first residual's A_H(guess)
of interval k + 1, so a solve applies the operator 1 + (total Newton
iterations) times. A linear interval is one factored solve and applies
nothing; its residual is computed on first read of ``Trajectory.residuals``
from the stored states and B u rows, with the same operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grids import Field
from .operators import ControlMap, OperatorSpec, StepFactor, march
from .spaces import NormTag, L2

__all__ = ["Control", "Trajectory", "StepFailure", "step_implicit", "solve_forward"]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 30
MAX_HALVINGS = 6


class StepFailure(RuntimeError):
    """Newton did not converge; carries the last residual norm."""

    def __init__(self, residual: float, step: int | None = None):
        self.residual = residual
        self.step = step
        where = "" if step is None else f" at step {step}"
        super().__init__(f"implicit step failed{where}; residual {residual:.3e}")


@dataclass
class Control:
    """A time-sampled control: values[k] acts on the interval (k dt, (k+1) dt].

    ``values`` has shape (steps, control dof). Admissibility in the U-ball of
    radius rho is validated against a control map by ``check_admissible``.
    """

    dt: float
    values: np.ndarray
    rho: float
    u_tag: NormTag = L2

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if not self.dt > 0.0:
            raise ValueError("time step must be positive")
        if not self.rho > 0.0:
            raise ValueError("control radius must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("control values must be finite")

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def check_admissible(self, map: ControlMap, spec: OperatorSpec) -> None:
        tol = self.rho * (1.0 + 1e-12)
        norms = map.u_norms_batch(spec, self.values)
        bad = np.nonzero(norms > tol)[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"control step {k} leaves the admissible ball: "
                f"||u||_U = {norms[k]:.6e} > rho = {self.rho:.6e}"
            )

    @classmethod
    def zeros(cls, map: ControlMap, spec: OperatorSpec, dt: float, steps: int,
              rho: float) -> "Control":
        return cls(dt, np.zeros((steps, map.control_size(spec))), rho, map.u_tag)


@dataclass
class Trajectory:
    """States and per-step solver counts of one solve on its time grid.

    ``substeps[k]`` is the number of backward-Euler sub-steps that carried
    interval k (1 unless Newton failed and the interval was subdivided).
    The state norms are evaluated on first read and kept. So are the
    residuals of a linear solve: its trajectory is built with ``_residuals``
    None and the B u row of each interval in ``forcing``, and ``residuals``
    evaluates x + dt A_H(x) - rhs at every step from them.
    """

    spec: OperatorSpec
    times: np.ndarray
    states: np.ndarray              # (steps+1, n_dof)
    newton_iters: np.ndarray        # (steps,)
    _residuals: np.ndarray | None   # (steps,), or None to compute from ``forcing``
    substeps: np.ndarray | None = None  # (steps,), ones by default
    forcing: np.ndarray | None = None   # (steps, n_dof) B u rows of a linear solve

    def __post_init__(self):
        if self.substeps is None:
            self.substeps = np.ones(len(self.times) - 1, dtype=int)

    @cached_property
    def residuals(self) -> np.ndarray:
        """The last Newton residual of each interval, (steps,)."""
        if self._residuals is not None:
            return self._residuals
        # a linear interval is one step of dt = times[1] (times are dt * k),
        # solved against rhs = y_k + dt B u_k; the stacked apply is bit for
        # bit the per-state one, and each row is measured as the solve did
        dt = self.times[1] if self.steps else 0.0
        x = self.states[1:]
        r = x + dt * self.spec.apply(x) - (self.states[:-1] + dt * self.forcing)
        return np.array([_wnorm(self.spec, row) for row in r])

    @cached_property
    def h_norms(self) -> np.ndarray:
        return self.spec.h_norm(self.states)

    @cached_property
    def v_norms(self) -> np.ndarray:
        return self.spec.v_norms(self.states)

    @cached_property
    def a_norms(self) -> np.ndarray:
        """||A_H y||_H at every grid time."""
        return self.spec.h_norm(self.spec.apply(self.states))

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def terminal(self) -> Field:
        return Field(self.spec.grid, self.states[-1].copy())

    def summary(self) -> dict:
        dt = float(self.times[1] - self.times[0]) if self.steps else 0.0
        return {
            "T": float(self.times[-1]),
            "steps": self.steps,
            "max_h_norm": float(np.max(self.h_norms)),
            "max_v_norm": float(np.max(self.v_norms)),
            "int_a_norm_sq": float(np.trapezoid(self.a_norms**2, self.times)),
            "max_newton_iters": int(np.max(self.newton_iters)) if self.steps else 0,
            "max_residual": float(np.max(self.residuals)) if self.steps else 0.0,
            "dt": dt,
        }


def _wnorm(spec: OperatorSpec, r: np.ndarray) -> float:
    return math.sqrt(np.dot(spec.grid.component_weights, r * r))


def _implicit_solve(spec: OperatorSpec, rhs: np.ndarray, guess: np.ndarray, dt: float,
                    a_guess: np.ndarray | None = None, held: list | None = None,
                    ) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Solve x + dt A_H(x) = rhs for a nonlinear kind by Newton from
    ``guess``, whose A_H is ``a_guess`` when the caller has it; returns
    (x, A_H(x), iters, residual). The first update solves with the factor
    of this dt in the list ``held`` if the caller keeps one there, and every
    other update factors at its iterate, dropping the old factor first; on
    return ``held`` keeps the factor of a solve that took exactly one update."""
    w = spec.grid.component_weights  # the norms are _wnorm's, on weights read once
    tol = NEWTON_TOL * (1.0 + math.sqrt(np.dot(w, rhs * rhs)))
    factor = held.pop() if held else None
    x = guess
    ax = spec.apply(x) if a_guess is None else a_guess
    for it in range(NEWTON_MAX_ITER + 1):
        r = dt * ax  # x + dt A_H(x) - rhs, formed in place
        r += x
        r -= rhs
        res = math.sqrt(np.dot(w, r * r))
        if res <= tol:
            if it == 1 and held is not None:
                held.append(factor)
            return x, ax, it, res
        if it == NEWTON_MAX_ITER:
            raise StepFailure(res)
        if it or factor is None:
            factor = None  # the old factor goes before the new one is made
            factor = StepFactor(spec, x, dt)
        x = x - factor.solve(r)
        ax = spec.apply(x)


def step_implicit(spec: OperatorSpec, map: ControlMap, y: Field, u_step: Field,
                  dt: float) -> Field:
    """One backward-Euler interval y+ + dt A_H(y+) = y + dt B u, sub-stepped
    on Newton failure like every interval of ``solve_forward``."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    traj, _ = _integrate(spec, map, y.values, dt, 1, lambda k, x: u_step.values)
    return Field(spec.grid, traj.states[1])


def _step_with_refinement(spec: OperatorSpec, y: np.ndarray, bu: np.ndarray, dt: float,
                          step_index: int, a_y: np.ndarray | None = None,
                          held: list | None = None,
                          ) -> tuple[np.ndarray, np.ndarray, int, float, int]:
    """Advance one nonlinear interval, halving the internal step on failure.

    ``a_y`` is A_H(y) when the caller has it (else the first Newton residual
    evaluates it); every retry starts from y, so it serves each of them.
    ``held`` (see ``_implicit_solve``) serves the whole step; sub-steps
    factor on their own and leave it empty. Neither y nor a_y is written
    to. Returns (state, its A_H, Newton iterations, last residual, sub-steps
    taken)."""
    rhs = dt * bu
    rhs += y
    try:  # the whole interval at once, the one try that may use ``held``
        x, ax, iters, res = _implicit_solve(spec, rhs, y, dt, a_y, held)
        return x, ax, iters, res, 1
    except StepFailure as exc:
        last = exc
    for level in range(1, MAX_HALVINGS + 1):
        nsub = 2**level
        sub_dt = dt / nsub
        x, ax = y, a_y
        iters = 0
        try:
            for _ in range(nsub):
                rhs = sub_dt * bu
                rhs += x
                x, ax, it, res = _implicit_solve(spec, rhs, x, sub_dt, ax)
                iters += it
            return x, ax, iters, res, nsub
        except StepFailure as exc:
            last = exc
    raise StepFailure(last.residual, step_index)


def _integrate(spec: OperatorSpec, map: ControlMap, y0: np.ndarray, dt: float,
               steps: int, control_at: np.ndarray | Callable[[int, np.ndarray], np.ndarray],
               stop: Callable[[np.ndarray], bool] | None = None,
               ) -> tuple[Trajectory, np.ndarray]:
    """The stepping loop of every solve, open-loop or feedback.

    ``control_at`` is the (steps, m) rows of an open-loop control, or a
    feedback law: interval k holds the row ``control_at(k, y_k)`` taken at
    its head. With ``stop``, the loop ends after the first interval whose end
    state meets it. Returns the trajectory and the (steps taken, m) rows.

    On a linear kind, open-loop rows meet B once, as one stack, and run the
    variation's sweep (``operators.march``) on the loop's one factor, each
    step bit for bit the loop's: the one linear branch beside the loop. A
    feedback law needs each state before its next row, and a nonlinear
    interval its Newton solve, so both step interval by interval.
    """
    if not callable(control_at):
        values = control_at
        if spec.is_linear:
            forcing = map.apply_B(spec, values)
            states = march(spec, y0[None], dt, y0, dt * forcing)
            return Trajectory(spec, dt * np.arange(steps + 1), states, np.ones(steps, dtype=int),
                              None, forcing=forcing), values
        control_at = lambda k, y: values[k]
    states = np.empty((steps + 1, spec.n_dof))
    states[0] = y0
    rows = np.empty((steps, map.control_size(spec)))
    newton_iters = np.ones(steps, dtype=int)
    substeps = np.ones(steps, dtype=int)
    # a linear interval is one solve with the loop's one factor; it keeps its
    # B u row and leaves its residual to the trajectory's first read
    linear = spec.is_linear
    factor = StepFactor(spec, y0, dt) if linear and steps else None
    held = []  # a nonlinear interval's kept factor, see _implicit_solve
    residuals = None if linear else np.zeros(steps)
    forcing = np.empty((steps, spec.n_dof)) if linear else None
    bu = None if linear else np.empty(spec.n_dof)  # each interval's B u, written over

    y, a_y = states[0].copy(), None
    K = steps
    for k in range(steps):
        rows[k] = u = control_at(k, y)
        bu = map.apply_B(spec, u, forcing[k] if linear else bu)
        if linear:
            y = factor.solve(y + dt * bu)
        else:
            y, a_y, newton_iters[k], residuals[k], substeps[k] = _step_with_refinement(
                spec, y, bu, dt, k, a_y, held)
        states[k + 1] = y
        if stop is not None and stop(y):
            K = k + 1
            break

    if K < steps:  # a loop that stopped keeps no buffer of the rows it left unfilled
        states, rows = states[:K + 1].copy(), rows[:K].copy()
        if linear:
            forcing = forcing[:K].copy()
    traj = Trajectory(spec, dt * np.arange(K + 1), states[:K + 1], newton_iters[:K],
                      None if linear else residuals[:K], substeps[:K],
                      forcing[:K] if linear else None)
    return traj, rows[:K]


def solve_forward(spec: OperatorSpec, map: ControlMap, y0: Field, u: Control,
                  T: float | None = None) -> Trajectory:
    """Integrate the controlled system over the control's time grid.

    ``T``, when given, must match the control horizon; the control value of
    step k is held on (t_k, t_{k+1}].
    """
    if y0.values.size != spec.n_dof:
        raise ValueError("initial state does not match the operator")
    if T is not None and abs(T - u.horizon) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"horizon {T} does not match the control grid {u.horizon}")
    u.check_admissible(map, spec)
    traj, _ = _integrate(spec, map, y0.values, u.dt, u.steps, u.values)
    return traj
