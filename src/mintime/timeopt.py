"""Penalized minimal-time solver.

At a fixed horizon T the inner problem is the optimality system of J_eps:
solve the state forward, load the terminal miss into the adjoint, sweep
backward, and evaluate the control through the exact ball resolvent

    u_k = (eps F + N_K)^-1 ( -B* p_{k-1} - sum_{j>=k} dt F(h_j) ).

Semismooth Newton solves it, with the generalized derivative of the radial
clamp as the Jacobian. Without a reference control ``u_ref`` the control
depends on the terminal costate p_T alone, and the unknown is p_T in the
n_dof equation

    p_T = P (y_K(u(p_T)) - y_tar) / eps    on range(P),

each step solved by conjugate gradients in the state metric; a nonlinear
kind linearizes G and G* along the latest forward sweep. With ``u_ref`` the
history tail makes u depend on itself, and the unknown is the resolvent
argument Z, with the residual Z - Z(u(Z)) and each step one restarted GMRES
cycle. Both forms stop on one gap, the optimality map at the control's own
terminal costate minus the control, and reach the state only through
G: u -> y_K and G*: p_T -> (B* p_{k-1})_k, taken from precomputed step
propagators on small linear problems and from forward, variation and
adjoint sweeps over the banded step factor otherwise.

The outer problem reads the horizon off the transversality condition, which
for J_eps is dJ/dT = 0. At fixed K (dt = T/K) and a stationary inner solve
the envelope theorem gives

    dJ/dT = 1 + (sum_k <p_{k-1}, B u_k - A(y_k)>_H + (eps/2) sum_k ||P u_k||^2)/K
            [+ (3/2) href_energy / T with u_ref],

which each solve evaluates from the G/G* backend it already holds. The sign
of dJ/dT is scanned across the bracket from left to right, each - to + change
is refined at once by a safeguarded interpolation on the probes left of the
root, and the root with the lowest J wins. Since every term of J_eps but T
is nonnegative, J_eps(T) >= T for every control: a horizon above the lowest
J found so far cannot win. The scan stops at the first such point whose
left neighbour has dJ/dT >= 0, so no sign change it skips can hold a
better root. Each probe warm-starts from the previous one, and only the
winner's trajectory and adjoint are solved sequentially, for its report.
Driving eps -> 0 through a schedule, with warm starts, reproduces minimal-time
optima; the final report carries the limit-condition residuals (the feedback
inclusion and the transversality identity) along the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .adjoint import AdjointState, _step_dt, solve_adjoint
from .forward import Control, Trajectory, solve_forward
from .grids import Field
from .operators import ControlMap, OperatorSpec, StepFactor, march, march_adjoint

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
# relative residual at which CG (state metric) or GMRES ends a Newton step
CG_RTOL = 1e-10
# Krylov vectors of the one GMRES cycle of a Newton step on Z
GMRES_RESTART = 30
# Newton line search: sufficient decrease of the residual norm and the smallest step
ARMIJO = 1e-4
MIN_STEP = 1e-8


@dataclass
class PenalizedProblem:
    """One penalized instance: operator, control map, data and solver knobs.

    ``u_ref`` switches on the functional's history term (the integral of
    F of the accumulated control gap); by default it is absent, since the
    exact reference control is unknown outside of chained continuation runs.
    ``theta0`` is read by no solver; it is kept for callers that pass it.
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
        for name in ("inner_tol", "theta0", "golden_tol_factor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
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


@dataclass
class InnerSolution:
    """One fixed-horizon solve.

    ``J``, ``miss`` and ``dJ_dT`` come from the solver's own terminal
    state; ``stop`` says why it ended ("converged", "plateau" or "cap").
    ``costate`` is the next solve's warm start. Without ``u_ref`` it is the
    Newton iterate p; the stop test measures the control gap, not
    p - P(y_K - y_tar)/eps, and a saturated control has a zero gap whatever
    the scale of p, so it need not be the terminal costate of the returned
    control. With ``u_ref`` it is that terminal costate. The trajectory and
    adjoint are solved sequentially on first read.
    """

    prob: PenalizedProblem = field(repr=False)
    control: Control
    J: float
    miss: float
    iterations: int
    stop: str
    control_energy: float  # integral of ||P u||_U^2
    dJ_dT: float           # envelope derivative of J in the horizon, at fixed K
    costate: np.ndarray = field(repr=False)

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
        return solve_adjoint(p.spec, traj,
                             Field(p.spec.grid, _terminal_costate(p, traj.states[-1])))


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
# G and G*: the two maps the inner solver uses


class _LinearKernel:
    """Precomputed step propagators of a linear operator at fixed (T, K).

    With S = (I + dt A')^-1 constant, y_K(u) = S^K y0 + dt sum_k S^(K-k+1) B u_k
    is one einsum, and the rows B* p_{k-1} = B* (S*)^(K-k+1) p_K are one
    matrix-vector product on the contiguous (K m, n) rows of C. On range P,
    where every costate ``_newton`` forms lies, that product equals the
    stacked einsum bit for bit on the repo's optimize kernels; a full-state
    costate, which no solve forms, may move in the last bit. Since
    A S = (I - S)/dt, the horizon pairing is one more einsum:

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
        S = StepFactor(spec, np.zeros(n), dte).solve(eye)
        bmat = cmap.apply_B(spec, np.eye(m)).T
        metric = spec.metric_apply(eye).T       # M with (a, b)_H = a^T M b
        wu = cmap.ugrid(spec).component_weights

        # S^p for p = 1..K by doubling: pows[j] = S^(j+1)
        pows = np.empty((K, n, n))
        pows[0] = S
        done = 1
        while done < K:
            c = min(done, K - done)
            pows[done:done + c] = pows[done - 1] @ pows[:c]
            done += c
        # S^(K-k+1) B at slot k-1: one product on the stacked powers, reversed
        SB = (pows.reshape(K * n, n) @ bmat).reshape(K, n, m)[::-1]
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
        K, m, n = self.C.shape
        return (self.C.reshape(K * m, n) @ p_terminal).reshape(K, m)

    def horizon_pairing(self, uvals: np.ndarray, p_terminal: np.ndarray) -> float:
        """sum_k <p_{k-1}, B u_k - A y_k>_H along the control's trajectory."""
        return float(self.spec.state_inner(
            p_terminal, self.h_const + np.einsum("kim,km->i", self.HB, uvals)))


class _Sweeps:
    """G and G* from sweeps over the banded step factor, on the state stack
    of the latest forward solve (on exit, the one ``_newton`` returns): G is
    one ``march`` of the variation and G* one ``march_adjoint``, linearized
    along that stack, zeros before any forward solve, which serves a linear
    kind: its factor is state-free. A sub-stepped forward solve is refused
    as soon as it is made, since no sweep along it is its derivative."""

    def __init__(self, prob: PenalizedProblem, K: int, dte: float):
        self.prob, self.dte = prob, dte
        self.states = np.zeros((K + 1, prob.spec.n_dof))

    def propagate(self, vals: np.ndarray) -> np.ndarray:
        p, dte = self.prob, self.dte
        return march(p.spec, self.states, dte, np.zeros(p.spec.n_dof),
                     dte * p.map.apply_B(p.spec, vals))[-1]

    def terminal_state(self, uvals: np.ndarray) -> np.ndarray:
        p = self.prob
        traj = solve_forward(p.spec, p.map, p.y0, Control(self.dte, uvals, p.rho, p.map.u_tag))
        _step_dt(traj)
        self.states = traj.states
        return self.states[-1]

    def bstar_rows(self, p_terminal: np.ndarray) -> np.ndarray:
        return self.prob.map.apply_Bstar(self.prob.spec, self._adjoint(p_terminal))

    def _adjoint(self, p_terminal: np.ndarray) -> np.ndarray:
        """p_{k-1} for k = 1..K along the latest forward solve."""
        return march_adjoint(self.prob.spec, self.states, self.dte, p_terminal)[:-1]

    def horizon_pairing(self, uvals: np.ndarray, p_terminal: np.ndarray) -> float:
        """sum_k <p_{k-1}, B u_k - A(y_k)>_H: one adjoint sweep and one
        stacked apply along the control's trajectory."""
        p, spec = self.prob, self.prob.spec
        adj = self._adjoint(p_terminal)
        bu = p.map.u_pairing(spec, p.map.apply_Bstar(spec, adj), uvals)
        ay = spec.state_inner(spec.apply(self.states[1:]), adj)
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


def _terminal_costate(prob: PenalizedProblem, y_K: np.ndarray) -> np.ndarray:
    """p_K = P(y_K - y_tar)/eps, the terminal costate of the end state y_K."""
    return prob.map.project_state(prob.spec, y_K - prob.y_tar.values) / prob.eps


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


def _gap(prob: PenalizedProblem, maps, uvals: np.ndarray, y_K: np.ndarray,
         dte: float) -> np.ndarray:
    """The optimality map at the costate of uvals' end state y_K (the latest
    forward solve of ``maps``) minus uvals: the inner solver's stop test."""
    bstar = maps.bstar_rows(_terminal_costate(prob, y_K))
    return _candidate(prob, bstar, uvals, dte) - uvals


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
    """Semismooth Newton from the warm costate (else zero), with
    backtracking on the residual norm. Without ``u_ref`` the unknown is the
    terminal costate and the residual F(p) = p - P(y_K(u(p)) - y_tar)/eps;
    with it, the resolvent argument and F(Z) = Z + B* p_{k-1}(u(Z)) + tail(u(Z)).
    Returns (u, y_K, p_T, iterations, stop); every exit leaves u's forward solve
    the latest in ``maps`` (a plateau, which ends on a rejected trial, solves u again)."""
    spec, cmap = prob.spec, prob.map
    eps, rho = prob.eps, prob.rho
    tol = prob.inner_tol * rho * math.sqrt(T)
    p = np.zeros(spec.n_dof) if warm is None else cmap.project_state(spec, warm.costate)
    on_costate = prob.u_ref is None

    def state_at(x):
        Z = -maps.bstar_rows(x) if on_costate else x
        u = cmap.resolvent_batch(spec, Z, eps, rho)
        y_term = maps.terminal_state(u)
        p_term = _terminal_costate(prob, y_term)
        if on_costate:
            return Z, u, y_term, x - p_term
        return Z, u, y_term, x + maps.bstar_rows(p_term) + _href_terms(prob, u, dte)[2]

    def step(Z, u, F):
        if on_costate:
            return _cg(lambda d: d + cmap.project_state(spec, maps.propagate(
                cmap.resolvent_derivative_batch(spec, Z, maps.bstar_rows(d), eps, rho))) / eps,
                -F, spec)
        from scipy.sparse.linalg import LinearOperator, gmres  # only u_ref solves need it
        h = _href_terms(prob, u, dte)[0]

        def jacobian(flat):
            dZ = flat.reshape(Z.shape)
            du = cmap.resolvent_derivative_batch(spec, Z, dZ, eps, rho)
            dp = cmap.project_state(spec, maps.propagate(du)) / eps
            dh = dte * np.cumsum(cmap.project_control_batch(spec, du), axis=0)
            dtail = dte * np.cumsum(cmap.F_derivative_batch(spec, h, dh)[::-1], axis=0)[::-1]
            return (dZ + maps.bstar_rows(dp) + dtail).ravel()

        op = LinearOperator((Z.size, Z.size), matvec=jacobian, dtype=float)
        delta, _ = gmres(op, -F.ravel(), rtol=CG_RTOL, restart=GMRES_RESTART, maxiter=1)
        return delta.reshape(Z.shape)

    norm = spec.h_norm if on_costate else (lambda F: _u_l2(prob, F, dte))
    x = p if on_costate else -maps.bstar_rows(p)
    if not on_costate:  # Z(u) at the control of the warm costate
        x = x - _href_terms(prob, cmap.resolvent_batch(spec, x, eps, rho), dte)[2]
    Z, u, y_term, F = state_at(x)
    F_norm = norm(F)
    stop = "cap"
    for it in range(prob.inner_cap + 1):
        if _u_l2(prob, _gap(prob, maps, u, y_term, dte), dte) <= tol:
            stop = "converged"
            break
        if it == prob.inner_cap:
            break
        delta = step(Z, u, F)
        t = 1.0
        while t >= MIN_STEP:
            trial = state_at(x + t * delta)
            trial_norm = norm(trial[3])
            if trial_norm <= (1.0 - ARMIJO * t) * F_norm:
                break
            t *= 0.5
        else:
            stop = "plateau"  # no step decreases the residual norm
            maps.terminal_state(u)
            break
        x = x + t * delta
        Z, u, y_term, F = trial
        F_norm = trial_norm
    costate = x if on_costate else _terminal_costate(prob, y_term)
    return u, y_term, costate, min(it + 1, prob.inner_cap), stop


def inner_solve_control(prob: PenalizedProblem, T: float,
                        warm: InnerSolution | None = None) -> InnerSolution:
    """Solve the optimality system of J_eps at the fixed horizon T.

    Semismooth Newton (``_newton``) starts from ``warm.costate`` (else
    zero): on the terminal costate without ``u_ref``, on the resolvent
    argument -B* p_{k-1} - tail_k with it. A solve that stalls or hits
    ``inner_cap`` returns flagged, not raised.
    Small linear problems run on precomputed step propagators; the
    returned trajectory and adjoint always come from the sequential scheme.
    """
    K, dte = _grid_for(prob, T)
    maps = _LinearKernel.try_build(prob, K, dte) or _Sweeps(prob, K, dte)
    uvals, y_term, costate, iterations, stop = _newton(prob, maps, T, dte, warm)
    J, miss, energy, href_energy = _j_parts(prob, T, uvals, dte, y_term)
    # the envelope derivative (module docstring), with p_K from the terminal
    # state: exact at a stationary control
    dJ_dT = (1.0 + maps.horizon_pairing(uvals, _terminal_costate(prob, y_term)) / K
             + prob.eps * energy / (2.0 * T) + 1.5 * href_energy / T)
    return InnerSolution(
        prob=prob,
        control=Control(dte, uvals, prob.rho, prob.map.u_tag),
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


def _report_from(prob: PenalizedProblem, T: float, sol: InnerSolution,
                 boundary: bool, probes: int) -> OptimalityReport:
    """The level report of the winner ``sol`` at T: its functional and the
    residuals of the optimality conditions, all on the sequential trajectory
    and adjoint and on one stack of rows B* p_{k-1}."""
    spec, cmap, eps, rho = prob.spec, prob.map, prob.eps, prob.rho
    uvals, dte = sol.control.values, sol.control.dt
    states = sol.trajectory.states
    p = sol.adjoint.values[:-1]                       # p_{k-1}, k = 1..K
    J, miss, _, href_energy = _j_parts(prob, T, uvals, dte, states[-1])

    bstar = cmap.apply_Bstar(spec, p)
    bstar_norms = cmap.ustar_norms_batch(spec, bstar)
    pu = cmap.project_control_batch(spec, uvals)
    pu_norms = cmap.u_norms_batch(spec, pu)
    ay_p = spec.state_inner(spec.apply(states[:-1]), p)

    h, F_h, tail = _href_terms(prob, uvals, dte)
    if F_h is None:
        tail = cross = 0.0
        rhs = 1.0
    else:
        # dt sum_{j>=k} <F(h_j), P u_j> as a reversed cumulative sum
        cross = dte * np.cumsum(cmap.u_pairing(spec, F_h, pu)[::-1])[::-1]
        rhs = 1.0 + 0.5 * float(cmap.u_norms_batch(spec, h[-1])) ** 2
    arg_norms = cmap.ustar_norms_batch(spec, bstar + tail + eps * cmap.F_batch(spec, pu))
    g42 = np.abs(rho * arg_norms + ay_p + cross + 0.5 * eps * pu_norms**2 - rhs)
    g73 = np.abs(rho * bstar_norms + ay_p - 1.0)

    # (g72): u is the bang-bang law, the eps = 0 resolvent of -B*p, on steps
    # with a usable dual direction
    live = bstar_norms > 1e-9 * max(1.0, float(bstar_norms.max(initial=0.0)))
    ideal = cmap.resolvent_batch(spec, -bstar[live], 0.0, rho)
    g72 = cmap.u_norms_batch(spec, pu[live] - ideal)

    return OptimalityReport(
        eps=eps,
        T_eps_star=T,
        J=J,
        terminal_miss=miss,
        stationarity_residual=_u_l2(prob, _candidate(prob, bstar, uvals, dte) - uvals, dte),
        transversality_residual=float(np.mean(g42)),
        dJ_dT=sol.dJ_dT,
        g73_residual_avg=float(np.mean(g73)),
        g72_residual_avg=float(np.mean(g72)) if live.any() else float("nan"),
        g72_skipped_steps=int(live.size - live.sum()),
        saturation_fraction=float(np.mean(pu_norms >= 0.99 * rho)),
        control_energy=sol.control_energy,
        href_energy=href_energy,
        inner_iterations=sol.iterations,
        inner_converged=sol.converged,
        inner_stop=sol.stop,
        boundary_hit=boundary,
        probes=probes,
        times=sol.trajectory.times[:-1],
        u_norms=pu_norms,
        bstar_p_norms=bstar_norms,
        g73_residuals=g73,
    )


# ---------------------------------------------------------------------------
# outer problem: horizon search


def outer_minimize(prob: PenalizedProblem, T_bracket: tuple[float, float],
                   warm: InnerSolution | None = None) -> tuple[OptimalityReport, InnerSolution]:
    """The horizon as a root of dJ/dT over the whole bracket.

    dJ/dT is sampled at ``SCAN_POINTS`` equispaced horizons from left to
    right, and each - to + sign change is refined (``_root``) as soon as the
    scan finds it, to |dJ/dT| <= ``golden_tol_factor``, to a bracket of
    ``ROOT_WIDTH`` dt or for ``ROOT_CAP`` probes. A bracket end is a
    candidate too when dJ/dT points out of the bracket there (>= 0 at T_lo,
    <= 0 at T_hi). The candidate with the lowest J wins, and
    ``boundary_hit`` says that it is a bracket end.

    J_eps(T) >= T for every control, and a candidate's J is attained by its
    own control. So once a candidate attains J*, a root or bracket end above
    J* cannot win. The scan stops at the first point T > J* whose left
    neighbour has dJ/dT >= 0: no sign change lies between them, and all that
    follows lies above J*. (After a neighbour with dJ/dT < 0 it probes T on,
    since a root left of J* may lie in that interval.) T_hi is a candidate
    only when the scan reaches it. The candidates that can win are those of a
    full scan; only the warm starts of the root probes differ. Each inner
    solve starts from the previous probe's solution (the first from
    ``warm``); only the winner's trajectory and adjoint are solved, for its
    report.
    """
    T_lo, T_hi = float(T_bracket[0]), float(T_bracket[1])
    if not 0.0 < T_lo < T_hi:
        raise ValueError("need 0 < T_lo < T_hi")
    probes: list[tuple[float, InnerSolution]] = []

    def solve(T: float) -> tuple[float, InnerSolution]:
        probes.append((T, inner_solve_control(prob, T, probes[-1][1] if probes else warm)))
        return probes[-1]

    candidates: list[tuple[float, InnerSolution]] = []
    left = None
    for T in np.linspace(T_lo, T_hi, SCAN_POINTS):
        if candidates and left[1].dJ_dT >= 0.0 and T > min(sol.J for _, sol in candidates):
            # no root in (left, T), and J >= T > J* from T on: nothing can win
            break
        right = solve(float(T))
        if left is None:
            if right[1].dJ_dT >= 0.0:
                candidates.append(right)
        elif left[1].dJ_dT < 0.0 <= right[1].dJ_dT:
            candidates.append(_root(prob, solve, left, right))
        left = right
    else:
        if left[1].dJ_dT <= 0.0:
            candidates.append(left)
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
