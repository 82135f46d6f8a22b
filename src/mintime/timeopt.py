"""Penalized minimal-time solver.

At a fixed horizon T the inner problem is the optimality system of J_eps:
solve the state forward, load the terminal miss into the adjoint, sweep
backward, and evaluate the control through the exact ball resolvent

    u_k = (eps F + N_K)^-1 ( -B* p_{k-1} - sum_{j>=k} dt F(h_j) ).

For a linear operator with a Hilbert U-norm and no reference control ``u_ref``
the control depends on the terminal costate p_T alone, and the inner problem
is the n_dof equation

    p_T = P (y_K(u(p_T)) - y_tar) / eps    on range(P),

solved by semismooth Newton: the generalized derivative of the radial clamp
gives the Jacobian, and conjugate gradients in the state metric solve the
Newton step. Nonlinear kinds, Lp control norms and ``u_ref`` (whose history
term makes u depend on itself) iterate the optimality map as a damped fixed
point with monotone-descent backtracking instead. Both solvers reach the
state only through G: u -> y_K and G*: p_T -> (B* p_{k-1})_k, taken from
precomputed step propagators on small linear problems and from forward,
variation and adjoint sweeps over the banded step factor otherwise.

The outer problem reads the horizon off the transversality condition, which
for J_eps is dJ/dT = 0. At fixed K (dt = T/K) and a stationary inner solve
the envelope theorem gives

    dJ/dT = 1 + (sum_k <p_{k-1}, B u_k - A(y_k)>_H + (eps/2) sum_k ||P u_k||^2)/K
            [+ (3/2) href_energy / T with u_ref],

which each solve evaluates from the G/G* backend it already holds. The sign
of dJ/dT is scanned over the whole bracket, each - to + change is refined by
a safeguarded interpolation on the probes left of the root, and the root with
the lowest J wins. Each probe warm-starts from the previous one, and only the
winner's trajectory and adjoint are solved sequentially (on first read).
Driving eps -> 0 through a schedule, with warm starts, reproduces minimal-time
optima; the final report carries the limit-condition residuals (the feedback
inclusion and the transversality identity) along the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .adjoint import AdjointState, solve_adjoint, solve_variation
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

# points of the sign scan of dJ/dT over the horizon bracket
SCAN_POINTS = 5
# J is piecewise in T (K = round(T/dt)): a sign change of dJ/dT narrower than
# this many dt straddles a cell boundary and holds no root
ROOT_WIDTH = 1e-6
# root-finder probes per sign change, whatever the tolerance
ROOT_CAP = 60
# inner iterations without a 1% gap improvement before the fixed point
# counts as stalled at its attainable accuracy
PLATEAU_PATIENCE = 200
# relative state-metric residual at which CG ends a Newton step
CG_RTOL = 1e-10
# Newton line search: sufficient decrease of ||F||_H and the smallest step
ARMIJO = 1e-4
MIN_STEP = 1e-8


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
    golden_tol_factor: float = 1e-4  # tolerance on |dJ/dT| of the horizon search

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not (self.rho > 0.0 and self.dt > 0.0):
            raise ValueError("rho and dt must be positive")
        if not self.golden_tol_factor > 0.0:
            raise ValueError("golden_tol_factor must be positive")
        if self.inner_cap < 0:
            raise ValueError("inner_cap must be nonnegative")
        dev = self.spec.h_norm(
            self.map.project_state(self.spec, self.y0.values - self.y_tar.values)
        )
        if dev <= 1e-14:
            raise ValueError("P y0 == P y_tar: the minimal-time problem is trivial")

    def rho_margin(self) -> float:
        """rho minus the ||A_H yhat||_H surrogate of the reachability bound."""
        yhat = self.map.auxiliary_state(self.spec, self.y0.values, self.y_tar.values)
        return self.rho - self.spec.h_norm(self.spec.apply(yhat))

    @property
    def takes_newton(self) -> bool:
        """Whether u depends on p_T alone, so that the inner solve is Newton."""
        return self.spec.is_linear and self.map.u_tag.is_hilbert and self.u_ref is None


@dataclass
class InnerSolution:
    """One fixed-horizon solve.

    ``J``, ``miss`` and ``dJ_dT`` come from the solver's own terminal
    state; ``stop`` says why it ended ("converged", "plateau" or "cap").
    ``costate`` is the Newton iterate p, kept as the next solve's warm start
    (None from the fixed point). The stop test measures the control gap, not
    p - P(y_K - y_tar)/eps, and a saturated control has a zero gap whatever
    the scale of p; so ``costate`` need not be the terminal costate of the
    returned control. The trajectory and adjoint are solved sequentially on
    first read, and the stationarity residual is measured on them.
    """

    prob: PenalizedProblem = field(repr=False)
    control: Control
    J: float
    miss: float
    iterations: int
    stop: str
    control_energy: float  # integral of ||P u||_U^2
    dJ_dT: float           # envelope derivative of J in the horizon, at fixed K
    costate: np.ndarray | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    @cached_property
    def trajectory(self) -> Trajectory:
        p = self.prob
        return solve_forward(p.spec, p.map, p.y0, self.control)

    @cached_property
    def adjoint(self) -> AdjointState:
        p = self.prob
        traj = self.trajectory
        p_term = p.map.project_state(p.spec, traj.states[-1] - p.y_tar.values) / p.eps
        return solve_adjoint(p.spec, traj, Field(p.spec.grid, p_term, p.spec.n_components))

    @cached_property
    def stationarity_residual(self) -> float:
        """U-norm of the optimality map's gap at the control, on the
        sequential adjoint."""
        p, u = self.prob, self.control
        rows = p.map.apply_Bstar(p.spec, self.adjoint.values[:-1])
        return _u_l2(p, _candidate(p, rows, u.values, u.dt) - u.values, u.dt)


@dataclass
class OptimalityReport:
    eps: float
    T_eps_star: float
    J: float
    terminal_miss: float
    stationarity_residual: float
    transversality_residual: float
    dJ_dT: float
    g73_residual_avg: float
    g72_residual_avg: float
    g72_skipped_steps: int
    saturation_fraction: float
    control_energy: float
    href_energy: float
    inner_iterations: int
    inner_converged: bool
    inner_stop: str
    boundary_hit: bool
    probes: int
    times: np.ndarray = field(repr=False, default=None)
    u_norms: np.ndarray = field(repr=False, default=None)
    bstar_p_norms: np.ndarray = field(repr=False, default=None)
    g73_residuals: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        """The report fields (``repr=True``) as plain Python values, each cast
        to its declared type."""
        return {f.name: _PLAIN[f.type](getattr(self, f.name))
                for f in fields(self) if f.repr}


_PLAIN = {"float": float, "int": int, "bool": bool, "str": str}


# ---------------------------------------------------------------------------
# G and G*: the two maps the inner solvers use


class _LinearKernel:
    """Precomputed step propagators of a linear operator at fixed (T, K).

    With S = (I + dt A')^-1 constant, y_K(u) = S^K y0 + dt sum_k S^(K-k+1) B u_k
    and the rows B* p_{k-1} = B* (S*)^(K-k+1) p_K are each one einsum. Since
    A S = (I - S)/dt, the horizon pairing is one more:

        sum_k <p_{k-1}, A y_k>_H = <p_K, K (I - S) S^K y0 / dt
                                   + sum_j (K-j+1) (I - S) S^(K-j+1) B u_j>_H.
    """

    # assembled propagators get large quickly; gate on problem size
    MAX_BUILD_FLOPS = 4e8

    def __init__(self, prob: PenalizedProblem, K: int, dte: float):
        spec, cmap = prob.spec, prob.map
        n = spec.n_dof
        m = cmap.control_size(spec)
        eye = np.eye(n)
        S = spec.step_factor(np.zeros(n), dte).solve(eye)
        bmat = cmap.apply_B(spec, np.eye(m)).T
        metric = spec.metric_apply(eye).T       # M with (a, b)_H = a^T M b
        wu = cmap.ugrid(spec).component_weights()

        # S^p for p = 1..K by doubling: pows[j] = S^(j+1)
        pows = np.empty((K, n, n))
        pows[0] = S
        done = 1
        while done < K:
            c = min(done, K - done)
            pows[done:done + c] = pows[done - 1] @ pows[:c]
            done += c
        SB = pows[::-1] @ bmat          # S^(K-k+1) B at slot k-1
        self.GB = dte * SB
        # B* (S*)^(K-k+1) = W_u^-1 (S^(K-k+1) B)^T M, the exact transpose of
        # G in the state metric
        self.C = SB.transpose(0, 2, 1) @ metric / wu[:, None]
        self.y_const = pows[-1] @ prob.y0.values
        # sum_k <p_{k-1}, B u_k - A y_k>_H = <p_K, h_const + sum_j HB_j u_j>_H
        reps = np.arange(K, 0, -1)[:, None, None]       # K - j + 1 at slot j-1
        self.HB = SB - reps * (SB - S @ SB)
        self.h_const = -K * (self.y_const - S @ self.y_const) / dte
        self.spec = spec

    @classmethod
    def try_build(cls, prob: PenalizedProblem, K: int, dte: float):
        spec = prob.spec
        if not spec.is_linear:
            return None
        if K * spec.n_dof**3 > cls.MAX_BUILD_FLOPS or spec.n_dof > 96:
            return None
        return cls(prob, K, dte)

    def propagate(self, vals: np.ndarray) -> np.ndarray:
        """The linear part of G: dt sum_k S^(K-k+1) B v_k."""
        return np.einsum("kim,km->i", self.GB, vals)

    def terminal_state(self, uvals: np.ndarray) -> np.ndarray:
        return self.y_const + self.propagate(uvals)

    def bstar_rows(self, p_terminal: np.ndarray) -> np.ndarray:
        """B* p_{k-1} for k = 1..K as rows."""
        return np.einsum("kmn,n->km", self.C, p_terminal)

    def horizon_pairing(self, uvals: np.ndarray, p_terminal: np.ndarray) -> float:
        """sum_k <p_{k-1}, B u_k - A y_k>_H along the control's trajectory."""
        return float(self.spec.state_inner(
            p_terminal, self.h_const + np.einsum("kim,km->i", self.HB, uvals)))


class _Sweeps:
    """G and G* from sequential sweeps over the banded step factor: the
    forward solve of the latest control, and the variation and adjoint
    linearized along it. Before the first forward solve the linearization
    point is zero, which serves a linear kind: its factor is state-free."""

    def __init__(self, prob: PenalizedProblem, K: int, dte: float):
        self.prob, self.dte = prob, dte
        spec = prob.spec
        self.traj = Trajectory(spec, dte * np.arange(K + 1), np.zeros((K + 1, spec.n_dof)),
                               np.zeros(K, dtype=int), np.zeros(K))
        self.traj_control = None

    def _control(self, vals: np.ndarray) -> Control:
        return Control(self.dte, vals, self.prob.rho, self.prob.map.u_tag)

    def propagate(self, vals: np.ndarray) -> np.ndarray:
        p = self.prob
        return solve_variation(p.spec, p.map, self.traj, self._control(vals)).states[-1]

    def terminal_state(self, uvals: np.ndarray) -> np.ndarray:
        p = self.prob
        self.traj = solve_forward(p.spec, p.map, p.y0, self._control(uvals))
        self.traj_control = uvals
        return self.traj.states[-1]

    def bstar_rows(self, p_terminal: np.ndarray) -> np.ndarray:
        return self.prob.map.apply_Bstar(self.prob.spec, self._adjoint(p_terminal))

    def _adjoint(self, p_terminal: np.ndarray) -> np.ndarray:
        """p_{k-1} for k = 1..K along the latest forward solve."""
        spec = self.prob.spec
        adj = solve_adjoint(spec, self.traj, Field(spec.grid, p_terminal, spec.n_components))
        return adj.values[:-1]

    def horizon_pairing(self, uvals: np.ndarray, p_terminal: np.ndarray) -> float:
        """sum_k <p_{k-1}, B u_k - A(y_k)>_H: one adjoint sweep and one
        stacked apply along the control's trajectory."""
        p, spec = self.prob, self.prob.spec
        if self.traj_control is not uvals:   # a rejected Newton trial came last
            self.terminal_state(uvals)
        adj = self._adjoint(p_terminal)
        bu = p.map.u_pairing(spec, p.map.apply_Bstar(spec, adj), uvals)
        ay = spec.state_inner(spec.apply(self.traj.states[1:]), adj)
        return float(np.sum(bu) - np.sum(ay))


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


def _u_l2(prob: PenalizedProblem, rows: np.ndarray, dte: float) -> float:
    """The L2-in-time U-norm sqrt(dt sum_k ||row_k||_U^2)."""
    return math.sqrt(dte * float(np.sum(prob.map.u_norms_batch(prob.spec, rows) ** 2)))


def _cg(apply, b: np.ndarray, spec: OperatorSpec) -> np.ndarray:
    """Conjugate gradients for apply(x) = b, ``apply`` symmetric positive
    definite in the state metric, from x = 0."""
    x = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    rr = spec.state_inner(r, r)
    stop = (CG_RTOL**2) * rr
    for _ in range(spec.n_dof):
        if rr <= stop:
            break
        q = apply(d)
        alpha = rr / spec.state_inner(d, q)
        x += alpha * d
        r -= alpha * q
        rr, rr_old = spec.state_inner(r, r), rr
        d = r + (rr / rr_old) * d
    return x


def _newton(prob: PenalizedProblem, maps, T: float, dte: float,
            warm: InnerSolution | None):
    """Semismooth Newton on F(p) = p - P(y_K(u(p)) - y_tar)/eps from the warm
    costate (else zero), with backtracking on ||F||_H. Returns (u, y_K, p_T,
    iterations, stop)."""
    spec, cmap = prob.spec, prob.map
    eps, rho = prob.eps, prob.rho
    tol = prob.inner_tol * rho * math.sqrt(T)

    def state_at(p):
        Z = -maps.bstar_rows(p)
        u = cmap.resolvent_batch(spec, Z, eps, rho)
        y_term = maps.terminal_state(u)
        return Z, u, y_term, p - cmap.project_state(spec, y_term - prob.y_tar.values) / eps

    def jacobian(Z):
        return lambda d: d + cmap.project_state(spec, maps.propagate(
            cmap.resolvent_derivative_batch(spec, Z, maps.bstar_rows(d), eps, rho))) / eps

    p = (np.zeros(spec.n_dof) if warm is None or warm.costate is None
         else cmap.project_state(spec, warm.costate))
    Z, u, y_term, F = state_at(p)
    F_norm = spec.h_norm(F)
    stop = "cap"
    for it in range(prob.inner_cap + 1):
        # the optimality map at u's own costate p - F
        gap = cmap.resolvent_batch(spec, Z + maps.bstar_rows(F), eps, rho) - u
        if _u_l2(prob, gap, dte) <= tol:
            stop = "converged"
            break
        if it == prob.inner_cap:
            break
        delta = _cg(jacobian(Z), -F, spec)
        t = 1.0
        while t >= MIN_STEP:
            trial = state_at(p + t * delta)
            trial_norm = spec.h_norm(trial[3])
            if trial_norm <= (1.0 - ARMIJO * t) * F_norm:
                break
            t *= 0.5
        else:
            stop = "plateau"  # no step decreases ||F||_H
            break
        p = p + t * delta
        Z, u, y_term, F = trial
        F_norm = trial_norm
    return u, y_term, p, min(it + 1, prob.inner_cap), stop


def _fixed_point(prob: PenalizedProblem, maps, T: float, K: int, dte: float,
                 warm: InnerSolution | None):
    """Damped fixed point of the optimality map from the warm control (else
    zero), with monotone-descent backtracking. Returns (u, y_K, iterations,
    stop)."""
    spec, cmap = prob.spec, prob.map
    if warm is None:
        uvals = np.zeros((K, cmap.control_size(spec)))
    else:
        uvals = _resample_steps(warm.control.values, warm.control.dt, K, dte)

    def candidate_of(vals, y_term):
        # y_term is the latest forward solve, which sweeps linearize along
        p_term = cmap.project_state(spec, y_term - prob.y_tar.values) / prob.eps
        return _candidate(prob, maps.bstar_rows(p_term), vals, dte)

    y_term = maps.terminal_state(uvals)
    J, *_ = _j_parts(prob, T, uvals, dte, y_term)
    theta = prob.theta0
    tol = prob.inner_tol * prob.rho * math.sqrt(T)
    best_gap = np.inf
    since_best = 0
    stop = "cap"

    for it in range(prob.inner_cap + 1):
        gap = candidate_of(uvals, y_term) - uvals
        rel_gap = _u_l2(prob, gap, dte)
        if rel_gap <= tol:
            stop = "converged"
            break
        if it == prob.inner_cap:
            break
        if rel_gap < 0.99 * best_gap:
            best_gap = rel_gap
            since_best = 0
        else:
            since_best += 1
            if since_best >= PLATEAU_PATIENCE:
                stop = "plateau"
                break
        accepted = False
        while theta >= 1e-4:
            u_try = uvals + theta * gap
            y_try = maps.terminal_state(u_try)
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
            y_term = maps.terminal_state(uvals)
            J, *_ = _j_parts(prob, T, uvals, dte, y_term)
            theta = prob.theta0
    return uvals, y_term, min(it + 1, prob.inner_cap), stop


def inner_solve_control(prob: PenalizedProblem, T: float,
                        warm: InnerSolution | None = None) -> InnerSolution:
    """Solve the optimality system of J_eps at the fixed horizon T.

    Linear kinds with a Hilbert U-norm and no ``u_ref`` take semismooth
    Newton on the terminal costate, started from ``warm.costate`` (else
    zero). Nonlinear kinds, Lp control norms and ``u_ref`` take the damped
    fixed point of the optimality map, started from ``warm.control`` (else
    zero). A solve that stalls or hits ``inner_cap`` returns flagged, not
    raised.
    Small linear problems run on precomputed step propagators; the
    returned trajectory and adjoint always come from the sequential scheme.
    """
    spec, cmap = prob.spec, prob.map
    K, dte = _grid_for(prob, T)
    maps = _LinearKernel.try_build(prob, K, dte) or _Sweeps(prob, K, dte)
    costate = None
    if prob.takes_newton:
        uvals, y_term, costate, iterations, stop = _newton(prob, maps, T, dte, warm)
    else:
        uvals, y_term, iterations, stop = _fixed_point(prob, maps, T, K, dte, warm)
    J, miss, energy, href_energy = _j_parts(prob, T, uvals, dte, y_term)
    # the envelope derivative (module docstring), with p_K from the terminal
    # state: exact at a stationary control
    p_term = cmap.project_state(spec, y_term - prob.y_tar.values) / prob.eps
    dJ_dT = (1.0 + maps.horizon_pairing(uvals, p_term) / K
             + prob.eps * energy / (2.0 * T) + 1.5 * href_energy / T)
    return InnerSolution(
        prob=prob,
        control=Control(dte, uvals, prob.rho, cmap.u_tag),
        J=J,
        miss=miss,
        iterations=iterations,
        stop=stop,
        control_energy=energy,
        dJ_dT=dJ_dT,
        costate=costate,
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
    ay_p = spec.state_inner(spec.apply(states[:-1]), p[:-1])

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
    J, miss, _, href_energy = _j_parts(prob, T, sol.control.values, sol.control.dt,
                                       sol.trajectory.states[-1])
    times = sol.trajectory.times[:-1]
    return OptimalityReport(
        eps=prob.eps,
        T_eps_star=T,
        J=J,
        terminal_miss=miss,
        stationarity_residual=sol.stationarity_residual,
        transversality_residual=res["transversality_residual"],
        dJ_dT=sol.dJ_dT,
        g73_residual_avg=res["g73_residual_avg"],
        g72_residual_avg=res["g72_residual_avg"],
        g72_skipped_steps=res["g72_skipped_steps"],
        saturation_fraction=res["saturation_fraction"],
        control_energy=sol.control_energy,
        href_energy=href_energy,
        inner_iterations=sol.iterations,
        inner_converged=sol.converged,
        inner_stop=sol.stop,
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
                   warm: InnerSolution | None = None) -> tuple[OptimalityReport, InnerSolution]:
    """The horizon as a root of dJ/dT over the whole bracket.

    dJ/dT is sampled at ``SCAN_POINTS`` equispaced horizons, and each - to +
    sign change is refined (``_root``) to |dJ/dT| <= ``golden_tol_factor``,
    to a bracket of ``ROOT_WIDTH`` dt or for ``ROOT_CAP`` probes. A bracket
    end is a candidate too when dJ/dT points out of the bracket there (>= 0
    at T_lo, <= 0 at T_hi). The candidate with the lowest J wins, and
    ``boundary_hit`` says that it is a bracket end. Each inner solve starts
    from the previous probe's solution (the first from ``warm``); only the
    winner's trajectory and adjoint are solved, for its report.
    """
    T_lo, T_hi = float(T_bracket[0]), float(T_bracket[1])
    if not 0.0 < T_lo < T_hi:
        raise ValueError("need 0 < T_lo < T_hi")
    probes: list[tuple[float, InnerSolution]] = []

    def solve(T: float) -> tuple[float, InnerSolution]:
        probes.append((T, inner_solve_control(prob, T, probes[-1][1] if probes else warm)))
        return probes[-1]

    scan = [solve(float(T)) for T in np.linspace(T_lo, T_hi, SCAN_POINTS)]
    candidates = [scan[0]] if scan[0][1].dJ_dT >= 0.0 else []
    if scan[-1][1].dJ_dT <= 0.0:
        candidates.append(scan[-1])
    candidates += [_root(prob, solve, left, right) for left, right in zip(scan, scan[1:])
                   if left[1].dJ_dT < 0.0 <= right[1].dJ_dT]
    T_star, sol = min(candidates, key=lambda probe: probe[1].J)
    report = _report_from(prob, T_star, sol, T_star in (T_lo, T_hi), len(probes))
    return report, sol


def _root(prob: PenalizedProblem, solve, left, right):
    """The zero of dJ/dT between probes with dJ/dT < 0 at ``left`` and >= 0
    at ``right``; returns the last probe.

    Left of the root the miss term makes dJ/dT steep and smooth. Right of it
    J grows like T, so dJ/dT flattens toward 1 and says little about where
    the root is. Each step therefore evaluates at dJ/dT = 0 the polynomial
    T(dJ/dT) through the latest (up to three) probes left of the root: a
    secant, then inverse quadratic interpolation. It bisects the bracket
    instead when that is undefined or leaves the bracket.
    """
    (a, sol_a), (b, _) = left, right
    lefts = [(a, sol_a.dJ_dT)]
    last = right
    for _ in range(ROOT_CAP):
        if abs(last[1].dJ_dT) <= prob.golden_tol_factor or b - a <= ROOT_WIDTH * prob.dt:
            break
        T = _inverse_interpolation(lefts[-3:])
        if not a < T < b:
            T = 0.5 * (a + b)
        last = solve(T)
        if last[1].dJ_dT < 0.0:
            a = T
            lefts.append((T, last[1].dJ_dT))
        else:
            b = T
    return last


def _inverse_interpolation(points: list[tuple[float, float]]) -> float:
    """T at f = 0 on the polynomial T(f) through the (T, f) points; nan
    unless there are two or more and f increases along them."""
    fs = [f for _, f in points]
    if len(fs) < 2 or any(f0 >= f1 for f0, f1 in zip(fs, fs[1:])):
        return math.nan
    return sum(T * math.prod(fj / (fj - fi) for j, fj in enumerate(fs) if j != i)
               for i, (T, fi) in enumerate(points))


def eps_continuation(
    prob: PenalizedProblem,
    eps_schedule: list[float],
    T_bracket: tuple[float, float],
    chain_u_ref: bool = False,
    return_final_solution: bool = False,
):
    """Warm-started sweep of the penalization parameter toward zero.

    Every level searches the whole ``T_bracket`` and starts from the previous
    level's solution. ``chain_u_ref`` feeds each level's control in as the
    next level's reference, activating the functional's history term.
    Returns the per-level reports, plus the last level's inner solution when
    ``return_final_solution`` is set.
    """
    eps_schedule = [float(e) for e in eps_schedule]
    if any(not e > 0.0 for e in eps_schedule):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")

    reports: list[OptimalityReport] = []
    sol: InnerSolution | None = None
    current = prob
    for eps in eps_schedule:
        current = replace(current, eps=eps)
        if chain_u_ref and sol is not None:
            current = replace(current, u_ref=sol.control)
        report, sol = outer_minimize(current, T_bracket, sol)
        reports.append(report)
    if return_final_solution:
        return reports, sol
    return reports
