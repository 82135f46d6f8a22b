"""Independent minimal-time ground truth on 1D/2D ODE reductions.

Spatially constant Neumann solutions of the example systems reduce to small
ODEs; these oracles solve their minimal-time problems without touching the
PDE machinery: a closed form for the saturated scalar problem, and a dense
search over bang control sequences integrated with RK4 for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = ["OdeReduction", "analytic_min_time_scalar", "brute_force_min_time"]

INFEASIBLE = float("inf")
# the bang search puts switch instants on at most N_SLOTS slots of the horizon,
# and counts a full-state target hit within HIT_TOL_DT * dt * max(rho, max|M|, 1)
N_SLOTS = 40
HIT_TOL_DT = 2.0


@dataclass
class OdeReduction:
    """y' + M y = e1 u with |u| <= rho; the control acts on the first
    coordinate. ``target`` is the full state or its first coordinate only."""

    matrix: np.ndarray
    rho: float
    y0: np.ndarray
    target: np.ndarray
    target_first_only: bool = False

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        self.target = np.atleast_1d(np.asarray(self.target, dtype=float))
        d = self.matrix.shape[0]
        if d not in (1, 2) or self.matrix.shape != (d, d):
            raise ValueError("reduction dimension must be 1 or 2")
        if self.y0.size != d:
            raise ValueError("initial state dimension mismatch")
        want = 1 if self.target_first_only else d
        if self.target.size != want:
            raise ValueError("target dimension mismatch")
        if not self.rho > 0.0:
            raise ValueError("control bound must be positive")
        if not (np.all(np.isfinite(self.matrix)) and np.all(np.isfinite(self.y0))
                and np.all(np.isfinite(self.target))):
            raise ValueError("reduction data must be finite")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def analytic_min_time_scalar(a: float, y0: float, c: float, rho: float) -> float:
    """Exact minimal time of y' + a y = u, |u| <= rho, from y0 to c.

    The time-optimal control is constant at the saturation toward the
    target, giving T = -(1/a) ln[(c - u/a)/(y0 - u/a)] with u = rho sign(c - y0)
    (and the a -> 0 limit |c - y0|/rho). Unreachable targets return inf.
    """
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    if c == y0:
        return 0.0
    u = rho * np.sign(c - y0)
    if abs(a) < 1e-14:
        return abs(c - y0) / rho
    ratio = (c - u / a) / (y0 - u / a)
    if ratio <= 0.0:
        return INFEASIBLE
    t = -np.log(ratio) / a
    return float(t) if t > 0.0 else INFEASIBLE


def _sequences(n_slots: int, budget: int) -> np.ndarray:
    """All bang patterns: sign per slot, up to ``budget`` switches."""
    patterns = []
    boundaries = range(1, n_slots)
    for nsw in range(budget + 1):
        for cuts in combinations(boundaries, nsw):
            for s0 in (1.0, -1.0):
                pat = np.empty(n_slots)
                sign = s0
                prev = 0
                for cut in (*cuts, n_slots):
                    pat[prev:cut] = sign
                    sign = -sign
                    prev = cut
                patterns.append(pat)
    return np.asarray(patterns)


def brute_force_min_time(
    red: OdeReduction,
    dt: float,
    switch_budget: int = 1,
    t_max: float = 5.0,
) -> float:
    """Smallest hitting time over bang sequences, or inf when none hits.

    Switch instants live on a coarse slot grid (at most ``N_SLOTS`` slots over
    the horizon) while the integration runs on the fine RK4 grid; all
    sequences advance together as one batched state array, and the search
    returns at the first step where any of them hits.
    """
    if not 0 <= switch_budget <= 3:
        raise ValueError(f"switch budget must be 0 to 3, got {switch_budget}")
    if not (dt > 0.0 and t_max > dt):
        raise ValueError("need 0 < dt < t_max")
    steps = int(np.ceil(t_max / dt))
    n_slots = max(2, min(N_SLOTS, steps))
    slot_dt = t_max / n_slots
    pats = _sequences(n_slots, switch_budget)
    m = red.matrix
    rho = red.rho
    d = red.dimension
    hit_tol = HIT_TOL_DT * dt * max(rho, float(np.abs(m).max()), 1.0)

    y = np.tile(red.y0, (len(pats), 1))
    e1 = np.zeros(d)
    e1[0] = 1.0

    signed = red.target_first_only or d == 1

    def dist(states: np.ndarray) -> np.ndarray:
        if signed:
            return states[:, 0] - red.target[0]
        return np.linalg.norm(states - red.target[None, :], axis=1)

    def rhs(states: np.ndarray, uvals: np.ndarray) -> np.ndarray:
        return -(states @ m.T) + uvals[:, None] * e1[None, :]

    prev_dist = dist(y)
    if np.any(np.abs(prev_dist) <= 1e-14):
        return 0.0

    t = 0.0
    for k in range(steps):
        slot = min(int(t / slot_dt), n_slots - 1)
        uvals = rho * pats[:, slot]
        k1 = rhs(y, uvals)
        k2 = rhs(y + 0.5 * dt * k1, uvals)
        k3 = rhs(y + 0.5 * dt * k2, uvals)
        k4 = rhs(y + dt * k3, uvals)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        cur = dist(y)
        # the signed first-component distance crosses zero transversally
        hits = (np.sign(cur) != np.sign(prev_dist)) | (cur == 0.0) if signed else cur <= hit_tol
        if np.any(hits):
            before, after = prev_dist[hits], cur[hits]
            if signed:  # before is nonzero: a zero distance is a hit where it is reached
                frac = np.abs(before) / (np.abs(before) + np.abs(after))
            else:
                frac = np.clip((before - hit_tol) / np.maximum(before - after, 1e-300), 0.0, 1.0)
            # time only moves forward: the first batch hit is minimal
            return float(((t - dt) + frac * dt).min())
        prev_dist = cur
    return INFEASIBLE
