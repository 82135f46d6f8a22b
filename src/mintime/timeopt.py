"""Penalized minimal-time solver.

The inner problem (fixed horizon T) iterates the optimality map: solve the
state forward, load the terminal miss into the adjoint, sweep backward, and
re-evaluate the control through the exact ball resolvent

    u_k <- (eps F + N_K)^-1 ( -B* p_{k-1} - sum_{j>=k} dt F(h_j) ),

damped and with monotone-descent backtracking on the penalized functional.
The outer problem golden-sections the horizon. Driving eps -> 0 through a
schedule, with warm starts, reproduces minimal-time optima; the final report
carries the limit-condition residuals (the feedback inclusion and the
transversality identity) along the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import AdjointState, solve_adjoint
from .forward import Control, Trajectory, solve_forward
from .grids import Field
from .operators import ControlMap, OperatorSpec

__all__ = [
    "PenalizedProblem",
    "OptimalityReport",
    "InnerSolution",
    "eval_J_eps",
    "inner_solve_control",
    "outer_minimize",
    "eps_continuation",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# inner iterations without a 1% gap improvement before the fixed point
# counts as stalled at its attainable accuracy
PLATEAU_PATIENCE = 200


@dataclass
class PenalizedProblem:
    """One penalized instance: operator, control map, data and solver knobs.

    ``u_ref`` switches on the functional's history term (the integral of
    F of the accumulated control gap); by default it is absent, since the
    exact reference control is unknown outside of chained continuation runs.
    """

    spec: OperatorSpec
    map: ControlMap
    y0: Field
    y_tar: Field
    rho: float
    eps: float
    dt: float
    u_ref: Control | None = None
    inner_tol: float = 1e-8
    inner_cap: int = 500
    theta0: float = 0.5
    golden_tol_factor: float = 1e-4

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not (self.rho > 0.0 and self.dt > 0.0):
            raise ValueError("rho and dt must be positive")
        dev = self.spec.h_norm(
            self.map.project_state(self.spec, self.y0.values - self.y_tar.values)
        )
        if dev <= 1e-14:
            raise ValueError("P y0 == P y_tar: the minimal-time problem is trivial")

    def rho_margin(self) -> float:
        """rho minus the ||A_H yhat||_H surrogate of the reachability bound."""
        yhat = self.map.auxiliary_state(self.spec, self.y0.values, self.y_tar.values)
        return self.rho - self.spec.h_norm(self.spec.apply(yhat))


@dataclass
class InnerSolution:
    control: Control
    trajectory: Trajectory
    adjoint: AdjointState
    J: float
    miss: float
    stationarity_residual: float
    iterations: int
    converged: bool
    theta_final: float
    control_energy: float  # integral of ||P u||_U^2


@dataclass
class OptimalityReport:
    eps: float
    T_eps_star: float
    J: float
    terminal_miss: float
    stationarity_residual: float
    transversality_residual: float
    g73_residual_avg: float
    g72_residual_avg: float
    g72_skipped_steps: int
    saturation_fraction: float
    control_energy: float
    href_energy: float
    inner_iterations: int
    inner_converged: bool
    boundary_hit: bool
    probes: int
    times: np.ndarray = field(repr=False, default=None)
    u_norms: np.ndarray = field(repr=False, default=None)
    bstar_p_norms: np.ndarray = field(repr=False, default=None)
    g73_residuals: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "eps": float(self.eps),
            "T_eps_star": float(self.T_eps_star),
            "J": float(self.J),
            "terminal_miss": float(self.terminal_miss),
            "stationarity_residual": float(self.stationarity_residual),
            "transversality_residual": float(self.transversality_residual),
            "g73_residual_avg": float(self.g73_residual_avg),
            "g72_residual_avg": float(self.g72_residual_avg),
            "g72_skipped_steps": int(self.g72_skipped_steps),
            "saturation_fraction": float(self.saturation_fraction),
            "control_energy": float(self.control_energy),
            "href_energy": float(self.href_energy),
            "inner_iterations": int(self.inner_iterations),
            "inner_converged": bool(self.inner_converged),
            "boundary_hit": bool(self.boundary_hit),
            "probes": int(self.probes),
        }


# ---------------------------------------------------------------------------
# helpers


class _LinearKernel:
    """Precomputed step propagators of a linear operator at fixed (T, K).

    With S = (I + dt A')^-1 constant, the inner loop only ever needs
    y_K(u) = S^K y0 + dt sum_k S^(K-k+1) B u_k and the rows B* p_{k-1} =
    B* (S*)^(K-k+1) p_K, so both become one einsum per iteration. The final
    trajectory and adjoint are re-solved sequentially once at the end.
    """

    # assembled propagators get large quickly; gate on problem size
    MAX_BUILD_FLOPS = 4e8

    def __init__(self, prob: PenalizedProblem, K: int, dte: float):
        import scipy.linalg as sla

        spec, cmap = prob.spec, prob.map
        n = spec.n_dof
        m = cmap.control_size(spec)
        eye = np.eye(n)
        lu = sla.lu_factor(eye + dte * spec.jacobian(np.zeros(n)))
        S = sla.lu_solve(lu, eye)
        # B and B* as matrices; S* is the state-metric transpose M^-1 S^T M
        bmat = cmap.apply_B(spec, np.eye(m)).T
        rmat = cmap.apply_Bstar(spec, eye).T  # (m, n)
        mcols = np.column_stack([spec.metric_apply(col) for col in eye])
        minv = np.column_stack([spec.metric_solve(col) for col in eye])
        Sstar = minv @ S.T @ mcols

        self.GB = np.empty((K, n, m))   # dt S^(K-k+1) B  at slot k-1
        self.C = np.empty((K, m, n))    # B* (S*)^(K-k+1) at slot k-1
        powB = S @ bmat
        powS = Sstar.copy()
        for p in range(1, K + 1):
            k = K - p + 1
            self.GB[k - 1] = dte * powB
            self.C[k - 1] = rmat @ powS
            if p < K:
                powB = S @ powB
                powS = Sstar @ powS
        yc = prob.y0.values.copy()
        for _ in range(K):
            yc = S @ yc
        self.y_const = yc

    @classmethod
    def try_build(cls, prob: PenalizedProblem, K: int, dte: float):
        spec = prob.spec
        if not spec.is_linear:
            return None
        if K * spec.n_dof**3 > cls.MAX_BUILD_FLOPS or spec.n_dof > 96:
            return None
        return cls(prob, K, dte)

    def terminal_state(self, uvals: np.ndarray) -> np.ndarray:
        return self.y_const + np.einsum("kim,km->i", self.GB, uvals)

    def bstar_rows(self, p_terminal: np.ndarray) -> np.ndarray:
        """B* p_{k-1} for k = 1..K as rows."""
        return np.einsum("kmn,n->km", self.C, p_terminal)


def _resample_steps(values: np.ndarray, dt_old: float, steps_new: int,
                    dt_new: float) -> np.ndarray:
    """Piecewise-constant resampling of per-step values onto a new grid,
    extending by the last value."""
    K_old = values.shape[0]
    mids = (np.arange(steps_new) + 0.5) * dt_new
    idx = np.minimum((mids / dt_old).astype(int), K_old - 1)
    return values[idx]


# ---------------------------------------------------------------------------
# the functional


def _grid_for(prob: PenalizedProblem, T: float) -> tuple[int, float]:
    K = max(1, round(T / prob.dt))
    return K, T / K


def _href_terms(prob: PenalizedProblem, uvals: np.ndarray, dte: float):
    """Accumulated control gap h_k, its F-values and the optimality map's
    tail dt sum_{j>=k} F(h_j), or (None, None, None) without ``u_ref``."""
    if prob.u_ref is None:
        return None, None, None
    K = uvals.shape[0]
    ref = _resample_steps(prob.u_ref.values, prob.u_ref.dt, K, dte)
    gap = prob.map.project_control_batch(prob.spec, uvals - ref)
    h = dte * np.cumsum(gap, axis=0)
    F_h = prob.map.F_batch(prob.spec, h)
    return h, F_h, dte * (np.cumsum(F_h[::-1], axis=0)[::-1])


def _j_parts(prob: PenalizedProblem, T: float, uvals: np.ndarray, dte: float,
             y_terminal: np.ndarray) -> tuple[float, float, float, float]:
    """(J, miss, control energy, href energy) from the terminal state."""
    spec, cmap = prob.spec, prob.map
    miss_vec = cmap.project_state(spec, y_terminal - prob.y_tar.values)
    miss = spec.h_norm(miss_vec)
    pu = cmap.project_control_batch(spec, uvals)
    energy = float(dte * np.sum(cmap.u_norms_batch(spec, pu) ** 2))
    href_energy = 0.0
    h, _, _ = _href_terms(prob, uvals, dte)
    if h is not None:
        href_energy = float(dte * np.sum(cmap.u_norms_batch(spec, h) ** 2))
    J = T + miss**2 / (2 * prob.eps) + 0.5 * prob.eps * energy + 0.5 * href_energy
    return J, miss, energy, href_energy


def eval_J_eps(prob: PenalizedProblem, T: float, u: Control) -> float:
    """The penalized functional at (T, u); u must live on the matching grid."""
    K, dte = _grid_for(prob, T)
    if u.steps != K or abs(u.dt - dte) > 1e-12 * max(1.0, dte):
        raise ValueError("control grid does not match the horizon discretization")
    traj = solve_forward(prob.spec, prob.map, prob.y0, u, T)
    return _j_parts(prob, T, u.values, dte, traj.states[-1])[0]


# ---------------------------------------------------------------------------
# inner problem: fixed horizon


def _candidate(prob: PenalizedProblem, bstar_rows: np.ndarray, uvals: np.ndarray,
               dte: float) -> np.ndarray:
    """The optimality map (eps F + N_K)^-1(-B* p_{k-1} - tail_k) at the
    current control, from the rows B* p_{k-1}, k = 1..K."""
    Z = -bstar_rows
    _, _, tail = _href_terms(prob, uvals, dte)
    if tail is not None:
        Z = Z - tail
    return prob.map.resolvent_batch(prob.spec, Z, prob.eps, prob.rho)


def inner_solve_control(prob: PenalizedProblem, T: float,
                        u0: Control | None = None) -> InnerSolution:
    """Damped fixed-point iteration on the optimality map at fixed horizon.

    Descent of the functional is enforced by halving the damping weight; a
    capped non-converged iterate is returned flagged, not raised. Linear
    operators run on precomputed step propagators; the returned trajectory
    and adjoint are always re-solved with the generic scheme.
    """
    spec, cmap = prob.spec, prob.map
    K, dte = _grid_for(prob, T)
    m = cmap.control_size(spec)
    if u0 is None:
        uvals = np.zeros((K, m))
    else:
        uvals = _resample_steps(u0.values, u0.dt, K, dte)

    kernel = _LinearKernel.try_build(prob, K, dte)
    scratch: dict = {}

    def fwd(vals: np.ndarray) -> Trajectory:
        return solve_forward(spec, cmap, prob.y0,
                             Control(dte, vals, prob.rho, cmap.u_tag), T)

    def adjoint_of(traj: Trajectory) -> AdjointState:
        p_term = cmap.project_state(spec, traj.states[-1] - prob.y_tar.values) / prob.eps
        return solve_adjoint(spec, traj, Field(spec.grid, p_term, spec.n_components))

    def terminal_of(vals: np.ndarray) -> np.ndarray:
        if kernel is not None:
            return kernel.terminal_state(vals)
        scratch["traj"] = fwd(vals)
        return scratch["traj"].states[-1]

    def candidate_of(vals: np.ndarray, y_term: np.ndarray) -> np.ndarray:
        if kernel is not None:
            p_term = cmap.project_state(spec, y_term - prob.y_tar.values) / prob.eps
            rows = kernel.bstar_rows(p_term)
        else:
            # scratch holds the trajectory that produced y_term
            rows = cmap.apply_Bstar(spec, adjoint_of(scratch["traj"]).values[:-1])
        return _candidate(prob, rows, vals, dte)

    y_term = terminal_of(uvals)
    J, *_ = _j_parts(prob, T, uvals, dte, y_term)
    theta = prob.theta0
    converged = False
    iterations = 0
    unorm_scale = prob.rho * math.sqrt(T)
    best_gap = np.inf
    since_best = 0

    for it in range(prob.inner_cap):
        iterations = it + 1
        cand = candidate_of(uvals, y_term)
        gap = cand - uvals
        rel_gap = math.sqrt(dte * float(np.sum(cmap.u_norms_batch(spec, gap) ** 2)))
        if rel_gap <= prob.inner_tol * unorm_scale:
            converged = True
            break
        if rel_gap < 0.99 * best_gap:
            best_gap = rel_gap
            since_best = 0
        else:
            since_best += 1
            if since_best >= PLATEAU_PATIENCE:
                break
        accepted = False
        while theta >= 1e-4:
            u_try = uvals + theta * gap
            y_try = terminal_of(u_try)
            J_try, *_ = _j_parts(prob, T, u_try, dte, y_try)
            if J_try <= J + 1e-12 * (1.0 + abs(J)):
                uvals, y_term, J = u_try, y_try, J_try
                theta = min(1.0, 1.6 * theta)
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            # descent stalled at the damping floor: accept the tiny step and
            # let the gap criterion decide
            uvals = uvals + theta * gap
            y_term = terminal_of(uvals)
            J, *_ = _j_parts(prob, T, uvals, dte, y_term)
            theta = prob.theta0

    # final artifacts always come from the generic sequential scheme
    traj = fwd(uvals)
    adj = adjoint_of(traj)
    gap = _candidate(prob, cmap.apply_Bstar(spec, adj.values[:-1]), uvals, dte) - uvals
    stat = math.sqrt(dte * float(np.sum(cmap.u_norms_batch(spec, gap) ** 2)))
    J, miss, energy, href_energy = _j_parts(prob, T, uvals, dte, traj.states[-1])
    return InnerSolution(
        control=Control(dte, uvals, prob.rho, cmap.u_tag),
        trajectory=traj,
        adjoint=adj,
        J=J,
        miss=miss,
        stationarity_residual=stat,
        iterations=iterations,
        converged=converged or stat <= prob.inner_tol * unorm_scale,
        theta_final=theta,
        control_energy=energy,
    )


# ---------------------------------------------------------------------------
# residuals of the optimality conditions


def _condition_residuals(prob: PenalizedProblem, sol: InnerSolution) -> dict:
    spec, cmap = prob.spec, prob.map
    uvals = sol.control.values
    dte = sol.control.dt
    K = uvals.shape[0]
    p = sol.adjoint.values
    states = sol.trajectory.states

    bstar = cmap.apply_Bstar(spec, p[:-1])            # B* p_{k-1}
    bstar_norms = cmap.ustar_norms_batch(spec, bstar)
    pu = cmap.project_control_batch(spec, uvals)
    pu_norms = cmap.u_norms_batch(spec, pu)
    ay_p = np.array([
        spec.state_inner(spec.apply(states[k]), p[k]) for k in range(K)
    ])

    h, F_h, tail = _href_terms(prob, uvals, dte)
    if F_h is not None:
        # dt sum_{j>=k} <F(h_j), P u_j> as a reversed cumulative sum
        cross = dte * np.cumsum(cmap.u_pairing(spec, F_h, pu)[::-1])[::-1]
        h_T_norm = float(cmap.u_norms_batch(spec, h[-1]))
        rhs = 1.0 + 0.5 * h_T_norm**2
    else:
        tail = np.zeros_like(bstar)
        cross = np.zeros(K)
        rhs = 1.0

    Fpu = cmap.F_batch(spec, pu)
    arg = bstar + tail + prob.eps * Fpu
    arg_norms = cmap.ustar_norms_batch(spec, arg)
    g42 = np.abs(prob.rho * arg_norms + ay_p + cross + 0.5 * prob.eps * pu_norms**2 - rhs)
    g73 = np.abs(prob.rho * bstar_norms + ay_p - 1.0)

    # (g72): u = rho F^-1(-B*p)/||B*p|| on steps with a usable dual direction
    live = bstar_norms > 1e-9 * max(1.0, float(bstar_norms.max(initial=0.0)))
    ideal = prob.rho * cmap.F_inverse_batch(spec, -bstar[live]) / bstar_norms[live, None]
    g72_vals = cmap.u_norms_batch(spec, pu[live] - ideal)
    g72_avg = float(np.mean(g72_vals)) if live.any() else float("nan")

    saturation = float(np.mean(pu_norms >= 0.99 * prob.rho))
    return {
        "transversality_residual": float(np.mean(g42)),
        "g73_residual_avg": float(np.mean(g73)),
        "g73_residuals": g73,
        "g72_residual_avg": g72_avg,
        "g72_skipped_steps": int(K - live.sum()),
        "saturation_fraction": saturation,
        "u_norms": pu_norms,
        "bstar_p_norms": bstar_norms,
        "cross_terms": cross,
    }


def _report_from(prob: PenalizedProblem, T: float, sol: InnerSolution,
                 boundary: bool, probes: int) -> OptimalityReport:
    res = _condition_residuals(prob, sol)
    _, _, _, href_energy = _j_parts(prob, T, sol.control.values, sol.control.dt,
                                    sol.trajectory.states[-1])
    times = sol.trajectory.times[:-1]
    return OptimalityReport(
        eps=prob.eps,
        T_eps_star=T,
        J=sol.J,
        terminal_miss=sol.miss,
        stationarity_residual=sol.stationarity_residual,
        transversality_residual=res["transversality_residual"],
        g73_residual_avg=res["g73_residual_avg"],
        g72_residual_avg=res["g72_residual_avg"],
        g72_skipped_steps=res["g72_skipped_steps"],
        saturation_fraction=res["saturation_fraction"],
        control_energy=sol.control_energy,
        href_energy=href_energy,
        inner_iterations=sol.iterations,
        inner_converged=sol.converged,
        boundary_hit=boundary,
        probes=probes,
        times=times,
        u_norms=res["u_norms"],
        bstar_p_norms=res["bstar_p_norms"],
        g73_residuals=res["g73_residuals"],
    )


# ---------------------------------------------------------------------------
# outer problem: horizon search


def outer_minimize(prob: PenalizedProblem, T_bracket: tuple[float, float],
                   u_warm: Control | None = None) -> tuple[OptimalityReport, InnerSolution]:
    """Golden-section search of the horizon with warm-started inner solves."""
    T_lo, T_hi = float(T_bracket[0]), float(T_bracket[1])
    if not 0.0 < T_lo < T_hi:
        raise ValueError("need 0 < T_lo < T_hi")
    tol = prob.golden_tol_factor * T_hi
    cache: dict[float, InnerSolution] = {}
    warm = {"u": u_warm}
    probes = 0

    def phi(T: float) -> InnerSolution:
        nonlocal probes
        key = round(T, 12)
        if key not in cache:
            sol = inner_solve_control(prob, T, warm["u"])
            warm["u"] = sol.control
            cache[key] = sol
            probes += 1
        return cache[key]

    a, b = T_lo, T_hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = phi(c).J, phi(d).J
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = phi(c).J
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = phi(d).J
    T_star = c if fc <= fd else d
    sol = phi(T_star)
    # the endpoints as solved may still beat the interior probe
    for key, s in cache.items():
        if s.J < sol.J:
            T_star, sol = key, s
    boundary = (T_star - T_lo) <= 2 * tol or (T_hi - T_star) <= 2 * tol
    report = _report_from(prob, T_star, sol, boundary, probes)
    return report, sol


def eps_continuation(
    prob: PenalizedProblem,
    eps_schedule: list[float],
    T_bracket: tuple[float, float],
    chain_u_ref: bool = False,
    return_final_solution: bool = False,
):
    """Warm-started sweep of the penalization parameter toward zero.

    ``chain_u_ref`` feeds each level's converged control in as the next
    level's reference, activating the functional's history term. After a
    level whose horizon is interior, the bracket narrows to
    [0.55, 1.7] T_eps_star within ``T_bracket``. Returns the
    per-level reports, plus the last level's inner solution when
    ``return_final_solution`` is set.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if any(not e > 0.0 for e in eps_schedule):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")

    reports: list[OptimalityReport] = []
    u_warm: Control | None = None
    sol: InnerSolution | None = None
    bracket = (float(T_bracket[0]), float(T_bracket[1]))
    current = prob
    for eps in eps_schedule:
        current = replace(current, eps=eps)
        if chain_u_ref and u_warm is not None:
            current = replace(current, u_ref=u_warm)
        report, sol = outer_minimize(current, bracket, u_warm)
        reports.append(report)
        u_warm = sol.control
        if not report.boundary_hit:
            t = report.T_eps_star
            lo = max(T_bracket[0], 0.55 * t)
            hi = min(T_bracket[1], 1.7 * t)
            if hi - lo > 20 * prob.dt:
                bracket = (lo, hi)
    if return_final_solution:
        return reports, sol
    return reports
