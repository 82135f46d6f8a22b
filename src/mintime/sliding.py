"""Sign feedback, finite-time manifold hitting, and sliding continuation.

The closed loop applies u = -rho Sign(B* P(y - y_tar)) with the zero
selection at the origin, evaluated explicitly at each step head and held over
the step. The hit-time bound follows the feedback analysis: integrating
d/dt dev <= C1 dev - (rho - a) gives

    T_* = (1/C1) ln[(rho - a) / (rho - (a + C1 dev0))],   a = ||A_H yhat||_H,

with the C1 -> 0 limit dev0/(rho - a); it applies when rho > a + C1 dev0 and
the constant C1 is only ever an audited surrogate, so the bound is reported
together with a validity flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audit import audit_sign_condition
from .forward import Trajectory, step_implicit
from .grids import Field
from .operators import ControlMap, OperatorSpec

__all__ = [
    "SlidingRun",
    "SaturationError",
    "sign_feedback",
    "hit_time_bound",
    "run_sliding",
    "sliding_continuation",
]


class SaturationError(RuntimeError):
    """The equivalent control left the admissible ball: rho is too small for
    the sliding phase (the largeness conditions on rho are violated)."""


@dataclass
class SlidingRun:
    times: np.ndarray
    deviations: np.ndarray          # ||P(y - y_tar)||_H at every grid time
    control_norms: np.ndarray       # ||u_k||_U per step
    hit_time: float | None
    hit_index: int | None
    t_star: float | None
    t_star_valid: bool
    rho: float
    hit_tol: float
    c1: float
    a_norm_surrogate: float
    approach: Trajectory
    continuation: Trajectory | None = None

    @property
    def hit(self) -> bool:
        return self.hit_time is not None

    def summary(self) -> dict:
        return {
            "rho": self.rho,
            "hit_tol": self.hit_tol,
            "hit": self.hit,
            "T_hit": None if self.hit_time is None else float(self.hit_time),
            "T_star": None if self.t_star is None else float(self.t_star),
            "T_star_valid": bool(self.t_star_valid),
            "C1": float(self.c1),
            "A_norm_surrogate": float(self.a_norm_surrogate),
            "final_deviation": float(self.deviations[-1]),
            "max_post_hit_deviation": (
                None if self.hit_index is None
                else float(np.max(self.deviations[self.hit_index:]))
            ),
        }


def sign_feedback(map: ControlMap, spec: OperatorSpec, y: Field, y_tar: Field,
                  rho: float) -> Field:
    """u = -rho Sign(B* P(y - y_tar)); the zero selection when the argument
    vanishes. The returned control has ||u||_U = rho or 0."""
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    diff = map.project_state(spec, y.values - y_tar.values)
    v = map.apply_Bstar(spec, diff)
    nv = float(map.ustar_norms_batch(spec, v))
    g = map.ugrid(spec)
    if nv == 0.0:
        return Field(g, np.zeros(map.control_size(spec)), g.n_components)
    u = -rho * map.F_inverse_batch(spec, v) / nv
    return Field(g, u, g.n_components)


def hit_time_bound(rho: float, a_norm: float, c1: float, dev0: float) -> float | None:
    """The feedback hit-time bound; None when rho is not large enough."""
    if dev0 <= 0.0:
        return 0.0
    gap = rho - a_norm - c1 * dev0
    if gap <= 0.0:
        return None
    if c1 <= 1e-12:
        return dev0 / (rho - a_norm)
    return float(np.log((rho - a_norm) / gap) / c1)


def _feedback_gain_constant(spec: OperatorSpec, map: ControlMap, samples: int,
                            seed: int) -> float:
    """Audited constant C with ||P v||_H <= C ||B* v||_U* on smooth samples.

    For Hilbert-identified controls (B = I or a component selection with
    U = L2) this is exactly 1; for Lp controls it is the grid-level reverse
    embedding constant that scales the feedback's worst-case decrement."""
    from .audit import smooth_sample

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(50, samples // 2)):
        v = smooth_sample(spec, rng)
        pv = map.project_state(spec, v)
        num = spec.h_norm(pv)
        den = map.ustar_norms_batch(spec, map.apply_Bstar(spec, pv))
        if den > 1e-14:
            worst = max(worst, num / den)
    return max(worst, 1e-12)


def run_sliding(
    spec: OperatorSpec,
    map: ControlMap,
    y0: Field,
    y_tar: Field,
    rho: float,
    T_max: float,
    dt: float,
    hit_tol: float,
    audit_samples: int = 150,
    seed: int = 0,
    continue_after_hit: bool = True,
) -> SlidingRun:
    """Closed-loop sign-feedback run with hit detection and continuation.

    No hit before ``T_max`` is an outcome, not an error. The reported T_*
    bound uses the audited sign-condition constant and is flagged invalid
    when the rho-largeness premise fails.
    """
    if not (hit_tol > 0.0 and dt > 0.0 and T_max > 0.0):
        raise ValueError("T_max, dt and hit_tol must be positive")

    entry = audit_sign_condition(spec, map, y_tar.values, samples=audit_samples, rng=seed)
    c1 = float(entry.constants["C1"])
    gain_c = _feedback_gain_constant(spec, map, audit_samples, seed)
    dev0 = spec.h_norm(map.project_state(spec, y0.values - y_tar.values))
    a_sup = spec.h_norm(spec.apply(map.auxiliary_state(spec, y0.values, y_tar.values)))

    steps = int(np.ceil(T_max / dt - 1e-12))
    times = [0.0]
    devs = [dev0]
    unorms: list[float] = []
    states = [y0.values.copy()]
    hit_time = None
    hit_index = None

    y = y0.copy()
    for k in range(steps):
        if devs[-1] <= hit_tol:
            hit_index = k
            hit_time = times[-1]
            break
        u = sign_feedback(map, spec, y, y_tar, rho)
        y = step_implicit(spec, map, y, u, dt)
        unorms.append(float(map.u_norms_batch(spec, u.values)))
        states.append(y.values.copy())
        times.append((k + 1) * dt)
        dev = spec.h_norm(map.project_state(spec, y.values - y_tar.values))
        devs.append(dev)
        if map.projection == "first":
            # the bound's premise holds along the whole approach, so the
            # auxiliary-state surrogate tracks the running second component
            # (under the full projection yhat is y_tar throughout)
            yhat = map.auxiliary_state(spec, y.values, y_tar.values)
            a_sup = max(a_sup, spec.h_norm(spec.apply(yhat)))
        if dev <= hit_tol:
            hit_index = k + 1
            # linear interpolation of the tolerance crossing inside the step
            d0, d1 = devs[-2], devs[-1]
            frac = 1.0 if d0 == d1 else np.clip((d0 - hit_tol) / (d0 - d1), 0.0, 1.0)
            hit_time = times[-2] + frac * dt
            break

    t_star = hit_time_bound(rho / gain_c, a_sup, c1, dev0)

    nstep = len(states) - 1
    approach = Trajectory(spec, np.asarray(times), np.asarray(states),
                          np.ones(nstep, dtype=int), np.zeros(nstep))

    continuation = None
    full_times = np.asarray(times)
    if hit_time is not None and continue_after_hit:
        extra = int(np.floor((T_max - times[-1]) / dt + 1e-12))
        if extra > 0:
            continuation, cont_unorms = _continuation_with_controls(
                spec, map, Field(spec.grid, states[-1], spec.n_components),
                y_tar, extra * dt, dt, rho=rho,
            )
            cont_times = times[-1] + dt * np.arange(1, continuation.steps + 1)
            full_times = np.concatenate([full_times, cont_times])
            devs += [
                spec.h_norm(map.project_state(spec, s - y_tar.values))
                for s in continuation.states[1:]
            ]
            unorms += cont_unorms

    return SlidingRun(
        times=full_times,
        deviations=np.asarray(devs),
        control_norms=np.asarray(unorms),
        hit_time=hit_time,
        hit_index=hit_index,
        t_star=t_star,
        t_star_valid=t_star is not None,
        rho=rho,
        hit_tol=hit_tol,
        c1=c1,
        a_norm_surrogate=a_sup,
        approach=approach,
        continuation=continuation,
    )


def _continuation_with_controls(
    spec: OperatorSpec,
    map: ControlMap,
    state_at_hit: Field,
    y_tar: Field,
    T_extra: float,
    dt: float,
    rho: float | None,
) -> tuple[Trajectory, list[float]]:
    if map.mode == "nonlocal":
        raise NotImplementedError("sliding continuation needs a pointwise control map")
    steps = int(np.round(T_extra / dt))
    if steps < 1:
        raise ValueError("T_extra must cover at least one step")
    y = state_at_hit.values.copy()
    states = [y.copy()]
    unorms = []
    ug = map.ugrid(spec)
    for k in range(steps):
        # equivalent control from the manifold-restricted dynamics at the
        # current uncontrolled state, then an honest implicit step
        yhat = map.auxiliary_state(spec, y, y_tar.values)
        u = map.project_state(spec, spec.apply(yhat))
        nu = float(map.u_norms_batch(spec, u))
        if rho is not None and nu > rho * (1 + 1e-9):
            raise SaturationError(
                f"equivalent control norm {nu:.4e} exceeds rho = {rho:.4e} at step {k}"
            )
        unorms.append(nu)
        ynew = step_implicit(
            spec, map, Field(spec.grid, y, spec.n_components),
            Field(ug, u, ug.n_components), dt,
        )
        y = ynew.values
        states.append(y.copy())
    traj = Trajectory(spec, dt * np.arange(steps + 1), np.asarray(states),
                      np.ones(steps, dtype=int), np.zeros(steps))
    return traj, unorms


def sliding_continuation(
    spec: OperatorSpec,
    map: ControlMap,
    state_at_hit: Field,
    y_tar: Field,
    T_extra: float,
    dt: float,
    rho: float | None = None,
    hit_tol: float | None = None,
) -> Trajectory:
    """Evolve past the hit with the equivalent control that pins the
    controlled components to the target manifold.

    Each step evaluates u from the manifold-restricted dynamics (for the
    two-component systems: the first equation frozen at the target with the
    current uncontrolled state) and advances the true system with it. The
    control must stay inside the rho-ball when ``rho`` is given; leaving it
    raises SaturationError, the sign that the largeness conditions on rho do
    not hold along this trajectory.
    """
    if hit_tol is not None:
        dev = spec.h_norm(map.project_state(spec, state_at_hit.values - y_tar.values))
        if dev > hit_tol * (1 + 1e-9):
            raise ValueError(
                f"state is not on the manifold: deviation {dev:.3e} > hit_tol {hit_tol:.3e}"
            )
    traj, _ = _continuation_with_controls(spec, map, state_at_hit, y_tar, T_extra, dt, rho)
    return traj
