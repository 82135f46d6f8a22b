"""The benchmark's three workloads, built from a seed.

``build(name, seed)`` parses the workload's configs and constructs every
input; that is the set-up. It returns a ``Pass``: the operations of one run
over all inputs, each one library entry-point call (one config's command)
with the check of its answer and a digest of its deterministic outputs.

Operations call the library through its module attributes
(``timeopt.eps_continuation``, ``sliding.run_sliding``, ...), so that the
tracer's rebinding of those names sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mintime import adjoint, audit, config, forward, oracle, sliding, timeopt
from mintime.grids import Field

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GRADIENT_CONFIG = Path(__file__).resolve().parent / "gradient_2d.yaml"

# acceptance thresholds, as pinned in tests/test_acceptance.py
T_GAP_LIMIT = 1e-2            # criterion 4: |T_eps* - analytic T|
HEAT_HIT_REFERENCE = 0.0707   # criterion 7: heat hit-time reference at rho = 10
ALPHA1_FLOOR = 0.45           # criterion 9: porous-medium monotonicity
DUALITY_LIMIT = 1e-10         # criterion 1: relative duality residual


@dataclass
class Op:
    """One entry-point call: ``call()`` runs it, ``check(out)`` returns a
    failure message or None, ``digest(out)`` its deterministic outputs."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], Any]


@dataclass
class Pass:
    ops: list[Op]
    specs: list = field(default_factory=list)  # operator instances the ops use


def _load(path: Path, seed: int) -> config.RunConfig:
    cfg = config.load_config(path)
    cfg.seed = seed                 # as `mintime <command> --seed` overrides it
    cfg.raw["seed"] = seed
    return cfg


def _array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def pass_digest(parts: list) -> str:
    """sha256 of the operations' digests; equal inputs must give equal digests."""
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scalar_optimize: configs/oracle_scalar.yaml, then configs/optimize_scalar.yaml


def _scalar_optimize(seed: int) -> Pass:
    ocfg = _load(CONFIGS / "oracle_scalar.yaml", seed)
    cfg = _load(CONFIGS / "optimize_scalar.yaml", seed)

    block = ocfg.oracle_block
    a, y0, c = float(block.get("a", 0.0)), float(block.get("y0", 0.0)), float(block["target"])
    orho = float(block["rho"])
    odt = float(block.get("dt", 1e-3))
    budget = int(block.get("switch_budget", 1))
    t_max = float(block.get("t_max", 5.0))
    red = oracle.OdeReduction(matrix=[[a]], rho=orho, y0=[y0], target=[c])

    # the problem exactly as the CLI's optimize command builds it
    num = cfg.numerics
    rho = float(cfg.raw["control"]["rho"])
    schedule = [float(e) for e in num["eps_schedule"]]
    prob = timeopt.PenalizedProblem(
        cfg.spec, cfg.map, cfg.y0, cfg.y_tar, rho=rho, eps=schedule[0],
        dt=float(num["dt"]),
        inner_tol=float(num.get("inner_tol", 1e-8)),
        inner_cap=int(num.get("inner_cap", 500)),
        theta0=float(num.get("theta0", 0.5)),
        golden_tol_factor=float(num.get("golden_tol", 1e-4)),
    )
    bracket = tuple(num["T_bracket"])
    chain = bool(num.get("chain_u_ref", False))
    reference: dict = {}

    def run_oracle():
        out = {"analytic_T": oracle.analytic_min_time_scalar(a, y0, c, orho),
               "brute_force_T": oracle.brute_force_min_time(red, odt, budget, t_max=t_max)}
        reference.update(out)
        return out

    def check_oracle(out):
        gap = abs(out["brute_force_T"] - out["analytic_T"])
        if not gap <= 2 * odt:
            return f"brute-force T {out['brute_force_T']:.6f} vs analytic " \
                   f"{out['analytic_T']:.6f}: gap {gap:.2e} > 2 dt"
        return None

    def run_optimize():
        return timeopt.eps_continuation(prob, schedule, bracket, chain_u_ref=chain,
                                        return_final_solution=True)

    def check_optimize(out):
        reports, _ = out
        t_ref = reference.get("analytic_T")
        if t_ref is None:
            return "no analytic reference: the oracle operation failed"
        gap = abs(reports[-1].T_eps_star - t_ref)
        if not gap <= T_GAP_LIMIT:
            return f"T_eps* = {reports[-1].T_eps_star:.6f}, |gap| {gap:.2e} > {T_GAP_LIMIT}"
        for r in reports:
            # criterion 5: miss <= sqrt(2 eps T + eps^2 int ||P u*||^2), u* saturated
            bound = math.sqrt(2 * r.eps * t_ref + r.eps**2 * t_ref * rho**2)
            if not r.terminal_miss <= bound:
                return f"eps={r.eps:.0e}: terminal miss {r.terminal_miss:.3e} > {bound:.3e}"
        return None

    return Pass(
        ops=[
            Op("oracle_scalar", run_oracle, check_oracle, lambda out: out),
            Op("optimize_scalar", run_optimize, check_optimize,
               lambda out: [r.to_dict() for r in out[0]]),
        ],
        specs=[cfg.spec],
    )


# ---------------------------------------------------------------------------
# slide_1d: two sliding runs and the porous-medium audit


def _slide_op(name: str, cfg: config.RunConfig, check) -> Op:
    num = cfg.numerics
    rho = float(cfg.raw["control"]["rho"])

    def call():
        return sliding.run_sliding(
            cfg.spec, cfg.map, cfg.y0, cfg.y_tar, rho,
            T_max=float(num["T_max"]), dt=float(num["dt"]),
            hit_tol=float(num["hit_tol"]),
            audit_samples=int(num.get("audit_samples", 150)),
            seed=cfg.seed,
        )

    return Op(name, call, check, lambda out: out.summary())


def _slide_1d(seed: int) -> Pass:
    heat = _load(CONFIGS / "slide_heat.yaml", seed)
    rd = _load(CONFIGS / "slide_reaction_diffusion.yaml", seed)
    porous = _load(CONFIGS / "audit_porous.yaml", seed)

    heat_dt = float(heat.numerics["dt"])
    heat_bound = HEAT_HIT_REFERENCE + 5 * heat_dt   # criterion 7

    def check_heat(out):
        if not out.hit:
            return "heat run did not hit the target"
        if not out.hit_time <= heat_bound:
            return f"T_hit {out.hit_time:.5f} > bound {heat_bound:.5f}"
        return None

    rd_bound = 5 * (float(rd.numerics["dt"]) + float(rd.numerics["hit_tol"]))  # criterion 8

    def check_rd(out):
        if not out.hit:
            return "reaction-diffusion run did not reach the manifold"
        dev = out.summary()["max_post_hit_deviation"]
        if not dev <= rd_bound:
            return f"post-hit deviation {dev:.3e} > {rd_bound:.3e}"
        return None

    pnum = porous.numerics

    def run_audit():
        return audit.audit_hypotheses(
            porous.spec, porous.map,
            samples=int(pnum.get("audit_samples", 200)),
            seed=porous.seed,
            y_tar=porous.y_tar.values if porous.y_tar is not None else None,
            alpha=float(pnum.get("fractional_alpha", 0.5)),
        )

    def check_audit(rep):
        a1 = rep.constant("monotonicity_g5", "alpha1")
        return None if a1 >= ALPHA1_FLOOR else f"alpha1 = {a1:.4f} < {ALPHA1_FLOOR}"

    return Pass(
        ops=[
            _slide_op("slide_heat", heat, check_heat),
            _slide_op("slide_reaction_diffusion", rd, check_rd),
            Op("audit_porous", run_audit, check_audit, lambda rep: rep.to_dict()),
        ],
        specs=[heat.spec, rd.spec, porous.spec],
    )


# ---------------------------------------------------------------------------
# gradient_2d: one forward solve and one adjoint sweep at 1152 dof


def _smooth(grid, component: int, rng: np.random.Generator, modes: int = 4) -> np.ndarray:
    """Random Neumann cosine series with decaying coefficients, max |.| = 1."""
    x, y = grid.coordinates(component)
    ex, ey = grid.extent
    out = np.zeros(grid.size)
    for i in range(modes):
        for j in range(modes):
            out += rng.standard_normal() / (1 + i + j) ** 2 \
                * np.cos(i * np.pi * x / ex) * np.cos(j * np.pi * y / ey)
    return out / np.max(np.abs(out))


def _control_rows(spec, cmap, rho: float, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth control rows with U-norms drawn in [0.3 rho, 0.9 rho]."""
    ug = cmap.ugrid(spec)
    rows = np.stack([
        np.concatenate([_smooth(ug, c, rng) for c in range(ug.n_components)])
        for _ in range(steps)
    ])
    scale = rho * rng.uniform(0.3, 0.9, steps) / cmap.u_norms_batch(spec, rows)
    return rows * scale[:, None]


def _gradient_2d(seed: int) -> Pass:
    cfg = _load(GRADIENT_CONFIG, seed)
    spec, cmap = cfg.spec, cfg.map
    grid = spec.grid
    rng = np.random.default_rng(seed)
    dt = float(cfg.numerics["dt"])
    T = float(cfg.simulate_block["T"])
    steps = round(T / dt)
    rho = float(cfg.raw["control"]["rho"])

    y0 = Field(grid, np.concatenate([
        0.5 * _smooth(grid, c, rng) for c in range(spec.n_components)
    ]), spec.n_components)
    u = forward.Control(dt, _control_rows(spec, cmap, rho, steps, rng), rho, cmap.u_tag)
    direction = forward.Control(dt, _control_rows(spec, cmap, rho, steps, rng), rho, cmap.u_tag)
    y_tar = cfg.y_tar.values
    held: dict = {}

    def run_forward():
        held["traj"] = forward.solve_forward(spec, cmap, y0, u, T)
        return held["traj"]

    def check_forward(traj):
        return None if np.all(np.isfinite(traj.states)) else "non-finite state"

    def run_adjoint():
        if "traj" not in held:
            raise RuntimeError("no trajectory: the forward solve of this pass failed")
        traj = held.pop("traj")
        miss = cmap.project_state(spec, traj.states[-1] - y_tar)
        terminal = Field(grid, miss, spec.n_components)
        return traj, terminal, adjoint.solve_adjoint(spec, traj, terminal)

    def check_adjoint(out):
        # criterion 1 against solve_variation in the seeded direction:
        # (Y_K, p_K)_H = sum_k dt <v_k, B* p_{k-1}>
        traj, terminal, p = out
        Y = adjoint.solve_variation(spec, cmap, traj, direction)
        lhs = spec.state_inner(Y.states[-1], terminal.values)
        rhs = sum(
            dt * cmap.u_pairing(spec, cmap.apply_Bstar(spec, p.values[k - 1]),
                                direction.values[k - 1])
            for k in range(1, traj.steps + 1)
        )
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        return None if gap <= DUALITY_LIMIT else f"duality residual {gap:.2e} > {DUALITY_LIMIT}"

    return Pass(
        ops=[
            Op("solve_forward", run_forward, check_forward,
               lambda traj: _array_digest(traj.states[-1])),
            Op("solve_adjoint", run_adjoint, check_adjoint,
               lambda out: _array_digest(out[0].states, out[2].values)),
        ],
        specs=[spec],
    )


WORKLOADS = {
    "scalar_optimize": _scalar_optimize,
    "slide_1d": _slide_1d,
    "gradient_2d": _gradient_2d,
}


def build(name: str, seed: int) -> Pass:
    return WORKLOADS[name](seed)
