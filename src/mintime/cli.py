"""Batch front end: simulate / slide / optimize / audit / oracle.

Every run writes its manifest (resolved config + version + seed) before any
computation, then the command's report JSON and CSV artifacts into the
output directory. Reals are written with full round-trip precision so
reports are byte-reproducible given the same config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .audit import audit_hypotheses
from .config import ConfigError, RunConfig, load_config
from .forward import Control, Trajectory, solve_forward
from .oracle import analytic_min_time_scalar, brute_force_min_time
from .sliding import run_sliding
from .timeopt import PenalizedProblem, eps_continuation

__all__ = ["main", "run"]


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_trajectory(path: Path, traj: Trajectory, values: bool = False) -> None:
    """Time and the H, V and A_H norms of each state, then with ``values``
    the state's nodal values."""
    nodal = [f"y{j}" for j in range(traj.states.shape[1])] if values else []
    _write_csv(path, ["t", "h_norm", "v_norm", "a_norm"] + nodal,
               zip(traj.times, traj.h_norms, traj.v_norms, traj.a_norms,
                   *(traj.states.T if values else ())))


def _finite_or_null(x):
    """The payload with every non-finite float (an unreachable time, an
    infinite constant, an average over nothing) as None, written null."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_simulate(cfg: RunConfig, outdir: Path) -> dict:
    sim = cfg.simulate_block
    T = sim["T"]
    steps = max(1, round(T / cfg.numerics["dt"]))
    u = Control(T / steps, np.tile(sim["u"].values, (steps, 1)), cfg.rho, cfg.map.u_tag)
    traj = solve_forward(cfg.spec, cfg.map, cfg.y0, u, T)
    _write_trajectory(outdir / "trajectory.csv", traj, sim["write_values"])
    return {"summary": traj.summary()}


def _cmd_slide(cfg: RunConfig, outdir: Path) -> dict:
    num = cfg.numerics
    run_out = run_sliding(
        cfg.spec, cfg.map, cfg.y0, cfg.y_tar, cfg.rho,
        T_max=num["T_max"], dt=num["dt"], hit_tol=num["hit_tol"],
        audit_samples=num["audit_samples"], seed=cfg.seed,
    )
    rows = []
    for k, t in enumerate(run_out.times):
        unorm = run_out.control_norms[k - 1] if 0 < k <= len(run_out.control_norms) else 0.0
        rows.append((t, run_out.deviations[k], unorm,
                     1.0 if run_out.deviations[k] <= run_out.hit_tol else 0.0))
    _write_csv(outdir / "residuals.csv", ["t", "deviation", "u_norm", "hit"], rows)
    _write_csv(outdir / "control.csv", ["t", "u_norm"],
               [(run_out.times[k + 1], nu) for k, nu in enumerate(run_out.control_norms)])
    _write_trajectory(outdir / "trajectory.csv", run_out.approach)
    return {"summary": run_out.summary()}


def _cmd_optimize(cfg: RunConfig, outdir: Path) -> dict:
    num = cfg.numerics
    schedule = num["eps_schedule"]
    prob = PenalizedProblem(
        cfg.spec, cfg.map, cfg.y0, cfg.y_tar, rho=cfg.rho, eps=schedule[0], dt=num["dt"],
        inner_tol=num["inner_tol"], inner_cap=num["inner_cap"],
        golden_tol_factor=num["golden_tol"],
    )
    bracket = tuple(num["T_bracket"])
    reports, final_sol = eps_continuation(prob, schedule, bracket, return_final_solution=True)
    final = reports[-1]
    _write_csv(outdir / "control.csv", ["t", "u_norm"],
               zip(final.times, final.u_norms))
    _write_csv(outdir / "residuals.csv",
               ["t", "u_norm", "bstar_p_norm", "g73_residual"],
               zip(final.times, final.u_norms, final.bstar_p_norms, final.g73_residuals))
    _write_trajectory(outdir / "trajectory.csv", final_sol.trajectory)
    return {
        "rho": cfg.rho,
        "rho_margin": prob.rho_margin(),
        "T_bracket": list(bracket),
        "levels": [r.to_dict() for r in reports],
        "final": final.to_dict(),
    }


def _cmd_audit(cfg: RunConfig, outdir: Path) -> dict:
    num = cfg.numerics
    report = audit_hypotheses(
        cfg.spec, cfg.map, samples=num["audit_samples"], seed=cfg.seed,
        y_tar=cfg.y_tar.values if cfg.y_tar is not None else None,
        alpha=num["fractional_alpha"],
    )
    return {"audit": report.to_dict()}


def _cmd_oracle(cfg: RunConfig, outdir: Path) -> dict:
    block, red = cfg.oracle_block, cfg.reduction
    dt, budget = block["dt"], block["switch_budget"]
    out: dict = {"rho": cfg.rho, "dt": dt, "switch_budget": budget,
                 "brute_force_T": brute_force_min_time(red, dt, budget, t_max=block["t_max"])}
    if red.dimension == 1:
        out["analytic_T"] = analytic_min_time_scalar(
            float(red.matrix[0, 0]), float(red.y0[0]), float(red.target[0]), cfg.rho)
    return {"oracle": out}


_DISPATCH = {
    "simulate": _cmd_simulate,
    "slide": _cmd_slide,
    "optimize": _cmd_optimize,
    "audit": _cmd_audit,
    "oracle": _cmd_oracle,
}


def run(config_path, outdir, seed: int | None = None, command: str | None = None) -> int:
    """Execute one config; returns the process exit code."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        cfg = load_config(config_path)
        if command is not None and cfg.command != command:
            raise ConfigError("command", f"config says {cfg.command!r}, CLI asked for {command!r}")
        if seed is not None:
            if seed < 0:
                raise ConfigError("seed", f"must be nonnegative, got {seed!r}")
            cfg.seed = cfg.raw["seed"] = int(seed)
    except (ConfigError, OSError) as exc:  # OSError: an --out or a config it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_json(outdir / "manifest.json", {"tool": "mintime", "version": __version__,
                                           "command": cfg.command, "seed": cfg.seed,
                                           "config": cfg.raw})
    try:
        payload = _DISPATCH[cfg.command](cfg, outdir)
    except Exception as exc:  # numerical failure: serialize and signal
        _write_json(outdir / "report.json", {
            "command": cfg.command,
            "seed": cfg.seed,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        })
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1
    payload = {"command": cfg.command, "seed": cfg.seed, **payload}
    _write_json(outdir / "report.json", payload)
    return 0


def _sweep(config_dir, outdir) -> int:
    """Run every config of a directory, one after another, each into its own
    output directory."""
    config_dir = Path(config_dir)
    outdir = Path(outdir)
    found = config_dir.iterdir() if config_dir.is_dir() else ()
    paths = sorted(p for p in found if p.suffix in (".yaml", ".yml"))
    if not paths:
        print(f"error: no .yaml configs under {config_dir}", file=sys.stderr)
        return 2
    codes = [run(p, outdir / p.stem) for p in paths]
    for p, code in zip(paths, codes):
        print(f"{p.name}: exit {code}")
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mintime",
        description="Minimal-time and sliding-mode control of semilinear parabolic systems",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name, help=f"run a {name} config")
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p = sub.add_parser("sweep", help="run every config in a directory")
    p.add_argument("--sweep", required=True, metavar="DIR", help="directory of configs")
    p.add_argument("--out", default="out", help="root output directory")
    args = parser.parse_args(argv)
    if args.cmd == "sweep":
        return _sweep(args.sweep, args.out)
    return run(args.config, args.out, seed=args.seed, command=args.cmd)


if __name__ == "__main__":
    sys.exit(main())
