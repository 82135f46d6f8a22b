"""Run configuration: one YAML file describes one experiment.

The file is a nested key-value document with blocks for the grid, the
operator, the control map, targets/initial data, and the numerics of the
chosen command. Everything needed to reproduce a run lands in the manifest,
so no configuration is read from the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import yaml

from .grids import BoundaryCondition, Field, Grid
from .nonlinearities import PAIR_FAMILIES, SCALAR_FAMILIES, pair_fn, scalar_fn
from .operators import (
    ControlMap,
    FitzHughNagumo,
    OperatorSpec,
    PhaseField,
    PorousMedia,
    PotentialDrift,
    ReactionDiffusion2,
)
from .spaces import HMINUS1, L2, L4

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]

COMMANDS = ("simulate", "slide", "optimize", "audit", "oracle")
NORM_TAGS = {"L2": L2, "L4": L4, "Hminus1": HMINUS1}
OPERATOR_KINDS = (
    "potential_drift",
    "porous_media",
    "reaction_diffusion2",
    "fitzhugh_nagumo",
    "phase_field",
)


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _need(block: dict, key: str, where: str) -> Any:
    if key not in block:
        raise ConfigError(f"{where}.{key}", "missing")
    return block[key]


def _as_float(val, where: str) -> float:
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(where, f"expected a number, got {val!r}") from None


def _as_positive(val, where: str) -> float:
    x = _as_float(val, where)
    if not x > 0.0:
        raise ConfigError(where, f"must be positive, got {x}")
    return x


@dataclass
class RunConfig:
    """Parsed and validated configuration plus the built objects."""

    command: str
    seed: int
    raw: dict
    grid: Grid | None = None
    spec: OperatorSpec | None = None
    map: ControlMap | None = None
    y0: Field | None = None
    y_tar: Field | None = None
    numerics: dict = field(default_factory=dict)
    oracle_block: dict = field(default_factory=dict)
    simulate_block: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# profiles


def _profile_values(profile: Any, grid: Grid, component: int, where: str) -> np.ndarray:
    """Nodal values of one named analytic profile (or an explicit node list)."""
    n = grid.size
    if isinstance(profile, (int, float)):
        return np.full(n, float(profile))
    if isinstance(profile, list):
        arr = np.asarray(profile, dtype=float)
        if arr.size != n:
            raise ConfigError(where, f"node list has {arr.size} values, grid has {n}")
        return arr
    if not isinstance(profile, dict):
        raise ConfigError(where, f"expected a profile mapping, got {profile!r}")
    kind = _need(profile, "profile", where)
    coords = grid.coordinates(component)
    x = coords[0]
    scale = _as_float(profile.get("scale", 1.0), f"{where}.scale")
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, _as_float(_need(profile, "value", where), f"{where}.value"))
    if kind == "sin_pi":
        vals = np.sin(np.pi * x / grid.extent[0])
        if grid.dimension == 2:
            vals = vals * np.sin(np.pi * coords[1] / grid.extent[1])
        return scale * vals
    if kind == "cos_pi":
        vals = np.cos(np.pi * x / grid.extent[0])
        if grid.dimension == 2:
            vals = vals * np.cos(np.pi * coords[1] / grid.extent[1])
        return scale * vals
    if kind == "gauss":
        center = _as_float(profile.get("center", 0.5), f"{where}.center")
        width = _as_positive(profile.get("width", 0.1), f"{where}.width")
        r2 = (x - center * grid.extent[0]) ** 2
        if grid.dimension == 2:
            r2 = r2 + (coords[1] - center * grid.extent[1]) ** 2
        return scale * np.exp(-r2 / (2 * width**2))
    raise ConfigError(where, f"unknown profile {kind!r}")


def _field_from_block(block: Any, grid: Grid, where: str) -> Field:
    """A state field from one profile (all components) or a per-component list."""
    ncomp = grid.n_components
    if isinstance(block, list) and block and isinstance(block[0], (dict, list)):
        if len(block) != ncomp:
            raise ConfigError(where, f"need {ncomp} component profiles, got {len(block)}")
        parts = [_profile_values(b, grid, c, f"{where}[{c}]") for c, b in enumerate(block)]
        return Field(grid, np.concatenate(parts), ncomp)
    vals = _profile_values(block, grid, 0, where)
    return Field(grid, np.tile(vals, ncomp), ncomp)


# ---------------------------------------------------------------------------
# blocks


def _build_grid(block: dict, n_components: int) -> Grid:
    dim = int(block.get("dimension", 1))
    if dim not in (1, 2):
        raise ConfigError("grid.dimension", f"must be 1 or 2, got {dim}")
    extent = block.get("extent", 1.0)
    if isinstance(extent, (int, float)):
        extent = [extent] * dim
    nodes = _need(block, "nodes", "grid")
    if isinstance(nodes, int):
        nodes = [nodes] * dim
    if len(extent) != dim or len(nodes) != dim:
        raise ConfigError("grid.nodes", "extent/nodes must match the dimension")
    bc_kind = block.get("bc", "neumann")
    if bc_kind not in ("dirichlet", "neumann", "robin"):
        raise ConfigError("grid.bc", f"unknown boundary condition {bc_kind!r}")
    gamma = _as_float(block.get("robin_gamma", 0.0), "grid.robin_gamma")
    try:
        bc = BoundaryCondition(bc_kind, gamma if bc_kind == "robin" else 0.0)
        return Grid(
            extent=tuple(float(e) for e in extent),
            nodes=tuple(int(n) for n in nodes),
            bcs=(bc,) * n_components,
        )
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None


def _scalar_from(block: Any, where: str):
    if block is None:
        return scalar_fn("zero")
    if not isinstance(block, dict) or "family" not in block:
        raise ConfigError(where, "expected {family: ..., params: [...]}")
    fam = block["family"]
    if fam not in SCALAR_FAMILIES:
        raise ConfigError(f"{where}.family", f"unknown scalar family {fam!r}")
    try:
        return scalar_fn(fam, *[float(p) for p in block.get("params", [])])
    except TypeError as exc:
        raise ConfigError(f"{where}.params", str(exc)) from None


def _pair_from(block: Any, where: str):
    if block is None:
        return pair_fn("zero2")
    if not isinstance(block, dict) or "family" not in block:
        raise ConfigError(where, "expected {family: ..., params: [...]}")
    fam = block["family"]
    if fam not in PAIR_FAMILIES:
        raise ConfigError(f"{where}.family", f"unknown pair family {fam!r}")
    try:
        return pair_fn(fam, *[float(p) for p in block.get("params", [])])
    except TypeError as exc:
        raise ConfigError(f"{where}.params", str(exc)) from None


def _build_operator(block: dict, grid_block: dict) -> tuple[OperatorSpec, Grid]:
    kind = _need(block, "kind", "operator")
    if kind not in OPERATOR_KINDS:
        raise ConfigError("operator.kind", f"unknown kind {kind!r}; have {OPERATOR_KINDS}")
    ncomp = 1 if kind in ("potential_drift", "porous_media") else 2
    grid = _build_grid(grid_block, ncomp)
    try:
        if kind == "potential_drift":
            spec = PotentialDrift(
                grid,
                beta=_scalar_from(block.get("beta"), "operator.beta"),
                a1=_as_float(block.get("a1", 0.0), "operator.a1"),
                b=_as_float(block.get("b", 0.0), "operator.b"),
            )
        elif kind == "porous_media":
            spec = PorousMedia(grid, beta=_scalar_from(block.get("beta"), "operator.beta"))
        elif kind == "reaction_diffusion2":
            spec = ReactionDiffusion2(
                grid,
                d1=_as_positive(block.get("d1", 1.0), "operator.d1"),
                d2=_as_positive(block.get("d2", 1.0), "operator.d2"),
                f=_pair_from(block.get("f"), "operator.f"),
                g=_pair_from(block.get("g"), "operator.g"),
            )
        elif kind == "fitzhugh_nagumo":
            spec = FitzHughNagumo(
                grid,
                alpha0=_as_float(block.get("alpha0", 1.0), "operator.alpha0"),
                sigma=_as_float(block.get("sigma", 1.0), "operator.sigma"),
                gamma=_as_float(block.get("gamma", 1.0), "operator.gamma"),
                d1=_as_positive(block.get("d1", 1.0), "operator.d1"),
            )
        else:
            spec = PhaseField(
                grid,
                k=_as_positive(block.get("k", 1.0), "operator.k"),
                l=_as_float(block.get("l", 1.0), "operator.l"),
                nu=_as_positive(block.get("nu", 1.0), "operator.nu"),
                gamma=_as_float(block.get("gamma", 1.0), "operator.gamma"),
                beta=_scalar_from(block.get("beta", {"family": "cubic", "params": [0.0]}),
                                  "operator.beta"),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("operator", str(exc)) from None
    return spec, grid


def _build_control(block: dict, spec: OperatorSpec) -> ControlMap:
    mode = block.get("mode", "identity")
    norm_name = block.get("norm", "L2")
    if norm_name not in NORM_TAGS:
        raise ConfigError("control.norm", f"unknown norm tag {norm_name!r}")
    if "rho" not in block:
        raise ConfigError("control.rho", "missing")
    _as_positive(block["rho"], "control.rho")
    projection = block.get("projection")
    if projection is None:
        projection = "first" if mode == "first_component" else "full"
    kernel = None
    control_grid = None
    if mode == "nonlocal":
        kblock = _need(block, "kernel", "control")
        nodes = _need(kblock, "nodes", "control.kernel")
        try:
            control_grid = Grid(extent=spec.grid.extent, nodes=tuple(int(n) for n in nodes),
                                bcs=(BoundaryCondition("neumann"),))
        except (TypeError, ValueError) as exc:
            raise ConfigError("control.kernel.nodes", f"{nodes!r}: {exc}") from None
        row = _profile_values(_need(kblock, "row_profile", "control.kernel"),
                              spec.grid, 0, "control.kernel.row_profile")
        col = _profile_values(_need(kblock, "col_profile", "control.kernel"),
                              control_grid, 0, "control.kernel.col_profile")
        kernel = np.outer(row, col)
    try:
        return ControlMap(mode=mode, u_tag=NORM_TAGS[norm_name], projection=projection,
                          kernel=kernel, control_grid=control_grid)
    except ValueError as exc:
        raise ConfigError("control", str(exc)) from None


# ---------------------------------------------------------------------------
# entry points


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be a mapping")
    command = _need(doc, "command", "<root>")
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}; have {COMMANDS}")
    seed = int(doc.get("seed", 0))
    cfg = RunConfig(command=command, seed=seed, raw=doc)

    if command == "oracle":
        block = _need(doc, "oracle", "<root>")
        cfg.oracle_block = dict(block)
        _as_positive(block.get("rho", 0), "oracle.rho")
        return cfg

    spec, grid = _build_operator(_need(doc, "operator", "<root>"),
                                 _need(doc, "grid", "<root>"))
    cfg.spec, cfg.grid = spec, grid
    cfg.map = _build_control(_need(doc, "control", "<root>"), spec)

    init = doc.get("initial", {"y0": {"profile": "zero"}})
    cfg.y0 = _field_from_block(_need(init, "y0", "initial"), grid, "initial.y0")
    targets = doc.get("targets")
    if command in ("slide", "optimize") or (targets and "y_tar" in targets):
        if not targets or "y_tar" not in targets:
            raise ConfigError("targets.y_tar", "missing")
        cfg.y_tar = _field_from_block(targets["y_tar"], grid, "targets.y_tar")

    num = dict(doc.get("numerics", {}))
    num.setdefault("dt", 1e-3)
    _as_positive(num["dt"], "numerics.dt")
    if command == "slide":
        num.setdefault("T_max", 1.0)
        num.setdefault("hit_tol", 1e-3)
        _as_positive(num["T_max"], "numerics.T_max")
        _as_positive(num["hit_tol"], "numerics.hit_tol")
    if command == "optimize":
        sched = num.get("eps_schedule", [1e-1, 1e-2, 1e-3, 1e-4])
        if not isinstance(sched, list) or not sched:
            raise ConfigError("numerics.eps_schedule", "must be a nonempty list")
        num["eps_schedule"] = [
            _as_positive(e, "numerics.eps_schedule") for e in sched
        ]
        bracket = num.get("T_bracket")
        if (not isinstance(bracket, (list, tuple)) or len(bracket) != 2
                or not 0 < float(bracket[0]) < float(bracket[1])):
            raise ConfigError("numerics.T_bracket", "need [T_lo, T_hi] with 0 < T_lo < T_hi")
        num["T_bracket"] = [float(bracket[0]), float(bracket[1])]
    if command == "audit":
        num.setdefault("audit_samples", 200)
        if int(num["audit_samples"]) < 100:
            raise ConfigError("numerics.audit_samples", "need at least 100 samples")
    cfg.numerics = num
    cfg.simulate_block = dict(doc.get("simulate", {}))
    if command == "simulate":
        cfg.simulate_block.setdefault("T", num.get("T_max", 1.0))
        _as_positive(cfg.simulate_block["T"], "simulate.T")
        if "rho" not in doc.get("control", {}):
            raise ConfigError("control.rho", "missing")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"no such config file: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError("<file>", f"not valid YAML: {exc}") from None
    return parse_config(doc)
