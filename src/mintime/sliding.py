"""Sign feedback, finite-time manifold hitting, and sliding continuation.

The closed loop applies u = -rho Sign(B* P(y - y_tar)), the eps = 0 ball
resolvent of -B* P(y - y_tar) with its zero selection at the origin,
evaluated explicitly at each step head and held over the step; past the
hit, the equivalent control holds the manifold. Both phases run on the
forward solver's stepping loop, so their intervals are sub-stepped on
Newton failure like every other solve, and their trajectories carry the
true Newton and sub-step counts. The feedback law maps a state row to a
control row; ``Field`` appears only where a run takes its initial and
target states.

The hit-time bound follows the feedback analysis: integrating
d/dt dev <= C1 dev - (rho - a) gives

    T_* = (1/C1) ln[(rho - a) / (rho - (a + C1 dev0))],   a = ||A_H yhat||_H,

with the C1 -> 0 limit dev0/(rho - a), where rho is read as rho / C for the
gain constant C of ||P v||_H <= C ||B* v||_U*. It applies when
rho > a + C1 dev0. C is certified: exact for L2, H^1 and H^-1 controls and
for pointwise Lp maps on an L2 state, an upper bound otherwise. C1 is only
ever a sampled surrogate, so the bound is reported together with a validity
flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audit import (_metric_state, _projection_matrix, audit_sign_condition,
                    projection_constant)
from .forward import Trajectory, _integrate
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


def sign_feedback(map: ControlMap, spec: OperatorSpec, y: np.ndarray, y_tar: np.ndarray,
                  rho: float) -> np.ndarray:
    """The control row u = -rho Sign(B* P(y - y_tar)) at the state row y: the
    eps = 0 resolvent of -B* P(y - y_tar), zero where the argument vanishes.
    ||u||_U is rho or 0."""
    z = map.apply_Bstar(spec, map.project_state(spec, y - y_tar, copy=False))
    np.negative(z, out=z)
    return map.resolvent_batch(spec, z, 0.0, rho)


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


def _require_pointwise(map: ControlMap) -> None:
    """Refuse a nonlocal map: the equivalent control past the hit is pointwise."""
    if map.mode == "nonlocal":
        raise ValueError("control mode 'nonlocal' cannot hold the manifold past the hit")


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
    when the rho-largeness premise fails, which it does when no finite gain
    constant exists (B* has a kernel that P does not annihilate).
    """
    if not (hit_tol > 0.0 and dt > 0.0 and T_max > 0.0):
        raise ValueError("T_max, dt and hit_tol must be positive")
    if continue_after_hit:
        _require_pointwise(map)

    entry = audit_sign_condition(spec, map, y_tar.values, audit_samples,
                                 np.random.default_rng(seed))
    c1 = float(entry.constants["C1"])
    # C of ||P v||_H <= C ||B* v||_U*, which scales the feedback's decrement
    gain_c = projection_constant(spec, map, _projection_matrix(spec, map), _metric_state(spec))

    def deviation(y: np.ndarray) -> np.ndarray:
        # one state or a stack: y - y_tar is formed once and projected in place
        return spec.h_norm(map.project_state(spec, y - y_tar.values, copy=False))

    dev0 = deviation(y0.values)
    a_sup = spec.h_norm(spec.apply(map.auxiliary_state(spec, y0.values, y_tar.values)))

    def law(k: int, y: np.ndarray) -> np.ndarray:
        return sign_feedback(map, spec, y, y_tar.values, rho)

    # a start on the manifold takes no approach step and hits at t = 0
    steps = 0 if dev0 <= hit_tol else int(np.ceil(T_max / dt - 1e-12))
    approach, rows = _integrate(spec, map, y0.values, dt, steps, law,
                                stop=lambda y: deviation(y) <= hit_tol)
    devs = np.concatenate([[dev0], deviation(approach.states[1:])])
    unorms = map.u_norms_batch(spec, rows)
    if map.projection == "first":
        # the bound's premise holds along the whole approach, so the
        # auxiliary-state surrogate tracks the running second component
        # (under the full projection yhat is y_tar throughout)
        yhat = map.auxiliary_state(spec, approach.states[1:], y_tar.values)
        a_sup = np.max(spec.h_norm(spec.apply(yhat)), initial=a_sup)

    times = approach.times
    hit_time = None
    hit_index = None
    # the verdict the stop test reached, on the same single-row deviation: a
    # stacked norm of the same state may differ from it in the last bit, so
    # the hit row reports the value the stop test saw
    last = deviation(approach.states[-1])
    if last <= hit_tol:
        hit_index = approach.steps
        hit_time = times[-1]
        devs[hit_index] = last
        if hit_index:
            # linear interpolation of the tolerance crossing inside the step
            d0, d1 = devs[-2], devs[-1]
            frac = 1.0 if d0 == d1 else np.clip((d0 - hit_tol) / (d0 - d1), 0.0, 1.0)
            hit_time = times[-2] + frac * dt

    t_star = hit_time_bound(rho / gain_c, a_sup, c1, dev0)

    continuation = None
    full_times = times
    if hit_time is not None and continue_after_hit:
        extra = int(np.floor((T_max - times[-1]) / dt + 1e-12))
        if extra > 0:
            continuation, cont_unorms = sliding_continuation(
                spec, map, approach.terminal, y_tar, extra * dt, dt, rho=rho,
            )
            full_times = np.concatenate([times, times[-1] + continuation.times[1:]])
            devs = np.concatenate([devs, deviation(continuation.states[1:])])
            unorms = np.concatenate([unorms, cont_unorms])

    return SlidingRun(
        times=full_times,
        deviations=devs,
        control_norms=unorms,
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


def sliding_continuation(
    spec: OperatorSpec,
    map: ControlMap,
    state_at_hit: Field,
    y_tar: Field,
    T_extra: float,
    dt: float,
    rho: float,
    hit_tol: float | None = None,
) -> tuple[Trajectory, np.ndarray]:
    """Evolve past the hit with the equivalent control that pins the
    controlled components to the target manifold; returns the trajectory and
    the ||u_k||_U of each step's equivalent control.

    Each step evaluates u from the manifold-restricted dynamics (for the
    two-component systems: the first equation frozen at the target with the
    current uncontrolled state) and advances the true system with it; under
    the full projection that state is the target itself, so u is evaluated
    once. The control must stay inside the rho-ball; leaving it raises
    SaturationError, the sign that the largeness conditions on rho do not
    hold along this trajectory.
    """
    if hit_tol is not None:
        dev = spec.h_norm(map.project_state(spec, state_at_hit.values - y_tar.values,
                                            copy=False))
        if dev > hit_tol * (1 + 1e-9):
            raise ValueError(
                f"state is not on the manifold: deviation {dev:.3e} > hit_tol {hit_tol:.3e}"
            )
    _require_pointwise(map)
    steps = int(np.round(T_extra / dt))
    if steps < 1:
        raise ValueError("T_extra must cover at least one step")

    target, cap = y_tar.values, rho * (1 + 1e-9)

    def law(k: int, y: np.ndarray) -> np.ndarray:
        # equivalent control from the manifold-restricted dynamics at the
        # current uncontrolled state, held over an honest implicit step
        u = map.project_state(spec, spec.apply(map.auxiliary_state(spec, y, target)),
                              copy=False)
        nu = float(map.u_norms_batch(spec, u))
        if nu > cap:
            raise SaturationError(
                f"equivalent control norm {nu:.4e} exceeds rho = {rho:.4e} at step {k}"
            )
        return u

    control_at = law
    if map.projection == "full":
        # yhat is y_tar at every step, so the control is one row: evaluated
        # and checked once, at step 0, before any interval is stepped
        u_eq = law(0, state_at_hit.values)

        def control_at(k: int, y: np.ndarray) -> np.ndarray:
            return u_eq

    traj, rows = _integrate(spec, map, state_at_hit.values, dt, steps, control_at)
    return traj, map.u_norms_batch(spec, rows)
