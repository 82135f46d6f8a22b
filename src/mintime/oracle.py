"""Independent minimal-time ground truth on 1D/2D ODE reductions.

Spatially constant Neumann solutions of the example systems reduce to small
ODEs; these oracles solve their minimal-time problems without touching the
PDE machinery: a closed form for the saturated scalar problem, and a dense
search over bang control sequences integrated with RK4 for everything else.
The search builds each slot's forcing once and returns at the first step
where any sequence hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = ["OdeReduction", "analytic_min_time_scalar", "brute_force_min_time",
           "radial_hit_time"]

INFEASIBLE = float("inf")
# the bang search puts switch instants on at most N_SLOTS slots of the horizon,
# and counts a full-state target hit within HIT_TOL_DT * dt * max(rho, max|M|, 1)
N_SLOTS = 40
HIT_TOL_DT = 2.0
# distances the bang search holds before it checks them for hits (512 KiB)
HIT_BLOCK = 2**16


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


def radial_hit_time(lam: float, r0: float, rho: float, dt: float,
                    tol: float) -> tuple[float, float, float]:
    """The sliding hit of a start on one eigenvector (eigenvalue ``lam``) of
    a symmetric kind under the identity map, where the radial sign feedback
    keeps the state: the discrete deviation r_k = |r_{k-1} - rho dt|/(1 + lam dt)
    from r0, with ``run_sliding``'s linear interpolation inside the step that
    crosses ``tol``. Returns (T_hit, the deviation at the hit step, the
    continuous hit time ln((r0 + rho/lam)/(tol + rho/lam))/lam, or its
    lam -> 0 limit (r0 - tol)/rho). A start within ``tol`` hits at 0. With
    rho dt <= 2 tol no step jumps past the tol ball, so the first step into
    it is the hit (a larger step may chatter around the target for ever)."""
    if not (np.all(np.isfinite([lam, r0, rho, dt, tol])) and lam >= 0.0 and r0 >= 0.0
            and rho > 0.0 and dt > 0.0 and tol > 0.0 and rho * dt <= 2.0 * tol):
        raise ValueError("radial hit needs finite lam >= 0, r0 >= 0, rho, dt, tol > 0 "
                         "and rho dt <= 2 tol")
    if r0 <= tol:
        return 0.0, float(r0), 0.0
    k, r = 0, r0
    while r > tol:
        k, prev, r = k + 1, r, abs(r - rho * dt) / (1.0 + lam * dt)
    t_hit = (k - 1) * dt + (prev - tol) / (prev - r) * dt
    if lam < 1e-14:
        return t_hit, r, (r0 - tol) / rho
    return t_hit, r, float(np.log((r0 + rho / lam) / (tol + rho / lam)) / lam)


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
    sequences advance together as one batched state array, under a forcing
    built once per slot. The distances to the target are stacked over blocks
    of steps within one slot, at most ``HIT_BLOCK`` pattern-steps each (one
    step when there are more patterns), and each block is checked for hits
    once: the search returns the time of the first step where any sequence
    hits.
    """
    if not 0 <= switch_budget <= 3:
        raise ValueError(f"switch budget must be 0 to 3, got {switch_budget}")
    if not (dt > 0.0 and t_max > dt):
        raise ValueError("need 0 < dt < t_max")
    steps = int(np.ceil(t_max / dt))
    n_slots = max(2, min(N_SLOTS, steps))
    slot_dt = t_max / n_slots
    pats = _sequences(n_slots, switch_budget)
    mt = red.matrix.T
    rho = red.rho
    d = red.dimension
    hit_tol = HIT_TOL_DT * dt * max(rho, float(np.abs(red.matrix).max()), 1.0)

    y = np.tile(red.y0, (len(pats), 1))
    e1 = np.zeros(d)
    e1[0] = 1.0
    signed = red.target_first_only or d == 1
    # a block ends with its slot, so it needs no more rows than a slot has steps
    rows = max(1, min(HIT_BLOCK // len(pats), int(np.ceil(slot_dt / dt)) + 1))
    dists = np.empty((rows + 1, len(pats)))    # row 0: the distances before the block

    def dist(states: np.ndarray, out: np.ndarray) -> None:
        if signed:
            np.subtract(states[:, 0], red.target[0], out=out)
        else:
            out[:] = np.linalg.norm(states - red.target[None, :], axis=1)

    def first_hit(times: list[float]) -> float | None:
        """The hit time of the block's first step where any sequence hits."""
        block = dists[:len(times) + 1]
        if signed:  # the signed first-component distance crosses zero transversally
            side = np.sign(block)
            hits = side[1:] != side[:-1]
        else:
            hits = block[1:] <= hit_tol
        hit_rows = hits.any(axis=1)
        if not hit_rows.any():
            return None
        r = int(hit_rows.argmax())
        before, after = block[r][hits[r]], block[r + 1][hits[r]]
        if signed:  # before is nonzero: a zero distance is a hit where it is reached
            frac = np.abs(before) / (np.abs(before) + np.abs(after))
        else:
            frac = np.clip((before - hit_tol) / np.maximum(before - after, 1e-300), 0.0, 1.0)
        # time only moves forward: the first batch hit is minimal
        return float(((times[r] - dt) + frac * dt).min())

    dist(y, dists[0])
    if np.any(np.abs(dists[0]) <= 1e-14):
        return 0.0

    t = 0.0
    slot = -1
    times: list[float] = []     # the accumulated t after each step of the block
    for _ in range(steps):
        now = min(int(t / slot_dt), n_slots - 1)
        if now != slot or len(times) == rows:
            hit = first_hit(times)
            if hit is not None:
                return hit
            dists[0] = dists[len(times)]
            times = []
            if now != slot:
                slot = now
                force = (rho * pats[:, slot])[:, None] * e1[None, :]
        # each stage is -(y M^T) + force to the bit: IEEE a - b is a + (-b)
        k1 = force - y @ mt
        k2 = force - (y + 0.5 * dt * k1) @ mt
        k3 = force - (y + 0.5 * dt * k2) @ mt
        k4 = force - (y + dt * k3) @ mt
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        times.append(t)
        dist(y, dists[len(times)])
    hit = first_hit(times)
    return INFEASIBLE if hit is None else hit
