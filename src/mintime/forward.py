"""Backward-Euler time integration of y' + A_H y = Bu with full Newton.

Linear operator kinds reuse one LU factorization per step size; nonlinear
kinds assemble the Jacobian I + dt A'(y) each Newton iteration. On Newton
failure the step is retried on up to 6 binary subdivisions before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .grids import Field, Grid
from .operators import ControlMap, OperatorSpec
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

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

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

    The state norms are evaluated on first read and kept.
    """

    spec: OperatorSpec
    times: np.ndarray
    states: np.ndarray              # (steps+1, n_dof)
    newton_iters: np.ndarray        # (steps,)
    residuals: np.ndarray           # (steps,)

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    @property
    def n_components(self) -> int:
        return self.spec.n_components

    @cached_property
    def h_norms(self) -> np.ndarray:
        return np.array([self.spec.h_norm(s) for s in self.states])

    @cached_property
    def v_norms(self) -> np.ndarray:
        return np.array([self.spec.v_norm(s) for s in self.states])

    @cached_property
    def a_norms(self) -> np.ndarray:
        """||A_H y||_H at every grid time."""
        return np.array([self.spec.a_norm(s) for s in self.states])

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def state(self, k: int) -> Field:
        return Field(self.grid, self.states[k].copy(), self.n_components)

    @property
    def terminal(self) -> Field:
        return self.state(self.steps)

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

    def to_csv(self, path, include_values: bool = False) -> None:
        cols = ["t", "h_norm", "v_norm", "a_norm"]
        if include_values:
            cols += [f"y{j}" for j in range(self.states.shape[1])]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k in range(len(self.times)):
                row = [self.times[k], self.h_norms[k], self.v_norms[k], self.a_norms[k]]
                if include_values:
                    row += list(self.states[k])
                fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _wnorm(spec: OperatorSpec, r: np.ndarray) -> float:
    return float(np.sqrt(np.dot(spec.weights, r * r)))


def _linear_lu(spec: OperatorSpec, dt: float):
    cache = getattr(spec, "_lu_cache", None)
    if cache is None:
        cache = {}
        spec._lu_cache = cache
    key = round(dt, 15)
    if key not in cache:
        j = spec.jacobian(np.zeros(spec.n_dof))
        shift = spec.apply(np.zeros(spec.n_dof))  # A0 = 0 for the catalog
        cache[key] = (scipy.linalg.lu_factor(np.eye(spec.n_dof) + dt * j), shift)
    return cache[key]


def _implicit_solve(spec: OperatorSpec, rhs: np.ndarray, guess: np.ndarray,
                    dt: float) -> tuple[np.ndarray, int, float]:
    """Solve x + dt A_H(x) = rhs by Newton, returning (x, iters, residual)."""
    scale = 1.0 + _wnorm(spec, rhs)
    if spec.is_linear:
        lu, shift = _linear_lu(spec, dt)
        x = scipy.linalg.lu_solve(lu, rhs - dt * shift)
        res = _wnorm(spec, x + dt * spec.apply(x) - rhs)
        return x, 1, res
    x = guess.copy()
    res = np.inf
    for it in range(NEWTON_MAX_ITER):
        r = x + dt * spec.apply(x) - rhs
        res = _wnorm(spec, r)
        if res <= NEWTON_TOL * scale:
            return x, it, res
        jac = np.eye(spec.n_dof) + dt * spec.jacobian(x)
        x = x - scipy.linalg.solve(jac, r)
    r = x + dt * spec.apply(x) - rhs
    res = _wnorm(spec, r)
    if res <= NEWTON_TOL * scale:
        return x, NEWTON_MAX_ITER, res
    raise StepFailure(res)


def step_implicit(spec: OperatorSpec, map: ControlMap, y: Field, u_step: Field,
                  dt: float) -> Field:
    """One backward-Euler step y+ + dt A_H(y+) = y + dt B u."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    bu = map.apply_B(spec, u_step.values)
    rhs = y.values + dt * bu
    x, _, _ = _implicit_solve(spec, rhs, y.values, dt)
    return Field(spec.grid, x, spec.n_components)


def _step_with_refinement(spec: OperatorSpec, y: np.ndarray, bu: np.ndarray,
                          dt: float, step_index: int) -> tuple[np.ndarray, int, float]:
    """Advance one control interval, halving the internal step on failure."""
    for level in range(MAX_HALVINGS + 1):
        nsub = 2**level
        sub_dt = dt / nsub
        x = y.copy()
        iters = 0
        res = 0.0
        try:
            for _ in range(nsub):
                x, it, res = _implicit_solve(spec, x + sub_dt * bu, x, sub_dt)
                iters += it
            return x, iters, res
        except StepFailure as exc:
            last = exc
    raise StepFailure(last.residual, step_index)


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

    K = u.steps
    dt = u.dt
    states = np.empty((K + 1, spec.n_dof))
    states[0] = y0.values
    newton_iters = np.zeros(K, dtype=int)
    residuals = np.zeros(K)

    y = states[0].copy()
    for k in range(K):
        bu = map.apply_B(spec, u.values[k])
        y, iters, res = _step_with_refinement(spec, y, bu, dt, k)
        states[k + 1] = y
        newton_iters[k] = iters
        residuals[k] = res

    return Trajectory(spec, dt * np.arange(K + 1), states, newton_iters, residuals)
