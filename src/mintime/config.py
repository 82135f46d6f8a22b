"""Run configuration: one YAML file describes one experiment.

The file is a nested key-value document with blocks for the grid, the
operator, the control map, targets/initial data, and the numerics of the
chosen command. Each block declares its keys once, as ``key: (parser,
default)``; any other key, or a value of the wrong type, is a ConfigError
naming ``<block>.<key>``. Defaults are written as in the YAML and parsed
like given values; an absent key without one is left out (an absent
operator key takes the class default), and ``null`` reads as absent.
Everything needed to reproduce a run lands in the manifest, so no
configuration is read from the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
import yaml

from .grids import BoundaryCondition, Field, Grid
from .nonlinearities import PAIR_FAMILIES, SCALAR_FAMILIES, pair_fn, scalar_fn
from .operators import (ControlMap, FitzHughNagumo, OperatorSpec, PhaseField, PorousMedia,
                        PotentialDrift, ReactionDiffusion2)
from .oracle import OdeReduction
from .spaces import HMINUS1, L2, L4

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]

NORM_TAGS = {"L2": L2, "L4": L4, "Hminus1": HMINUS1}
_REQUIRED = object()  # the default of a key that must be given


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"config field '{field_name}': {message}")


@dataclass
class RunConfig:
    """Parsed and validated configuration plus the built objects. The blocks
    hold every key of the command's table, parsed, defaults filled in; ``raw``
    is the document as read, which the manifest records."""

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
    rho: float | None = None                 # control.rho, or oracle.rho
    reduction: OdeReduction | None = None    # the oracle command's ODE


# ---------------------------------------------------------------------------
# value parsers: (value, where) -> parsed value, or ConfigError naming `where`


def _join(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _converted(convert: Callable, what: str):
    def parse(val, where: str):
        try:
            return convert(val)
        except (TypeError, ValueError, KeyError, OverflowError):
            raise ConfigError(where, f"expected {what}, got {val!r}") from None
    return parse


def _integral(val) -> int:
    if isinstance(val, float) and not val.is_integer():
        raise ValueError(val)
    return int(val)


_float = _converted(float, "a number")
_int = _converted(_integral, "an integer")
_array = _converted(lambda val: np.asarray(val, dtype=float), "numbers")
_bool = _converted(lambda val: {0: False, 1: True}[val], "true or false")  # True == 1


def _list(parse):
    def each(val, where: str) -> list:
        if not isinstance(val, (list, tuple)):
            raise ConfigError(where, f"expected a list, got {val!r}")
        return [parse(v, f"{where}[{i}]") for i, v in enumerate(val)]
    return each


def _one_or_list(parse):
    return lambda val, where: (_list(parse) if isinstance(val, list) else parse)(val, where)


def _checked(parse, ok: Callable[[Any], bool], message: str):
    """``parse``, then the condition ``ok`` on its result."""
    def checked(val, where: str):
        x = parse(val, where)
        if not ok(x):
            raise ConfigError(where, f"{message}, got {val!r}")
        return x
    return checked


_positive = _checked(_float, lambda x: x > 0.0, "must be positive")
_samples = _checked(_int, lambda n: n >= 100, "need at least 100 samples")
_str = _checked(lambda val, where: val, lambda val: isinstance(val, str), "expected a string")


def _choice(*options):
    return _checked(_str, lambda val: val in options, f"must be one of {list(options)}")


def _mapping(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(where or "<root>", f"expected a mapping, got {block!r}")
    return block


def _block(table: dict):
    """The parser of a mapping whose keys are declared in ``table``."""
    def parse(block, where: str) -> dict:
        for key in _mapping(block, where):
            if key not in table:
                raise ConfigError(_join(where, key), f"unknown key; have {list(table)}")
        out = {}
        for key, (parse_value, default) in table.items():
            value = default if block.get(key) is None else block[key]
            if value is _REQUIRED:
                raise ConfigError(_join(where, key), "missing")
            if value is not None:
                out[key] = parse_value(value, _join(where, key))
        return out
    return parse


def _kind(block, key: str, kinds: dict, where: str) -> str:
    """The value of ``key``, which selects the other keys of the mapping ``block``."""
    if _mapping(block, where).get(key) is None:
        raise ConfigError(_join(where, key), "missing")
    return _choice(*kinds)(block[key], _join(where, key))


def _build(where: str, make: Callable[[], Any]):
    """``make()``, with a ValueError of the library as a ConfigError on ``where``."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None


# ---------------------------------------------------------------------------
# nonlinearities and profiles

_FAMILY = {"family": (_str, _REQUIRED), "params": (_list(_float), [])}


def _family(families: dict, make: Callable, leading: int):
    """The parser of a {family, params} block; a family's value function takes
    ``leading`` arguments before its parameters."""
    def parse(block, where: str):
        b = _block(_FAMILY)(block, where)
        name, params = _choice(*families)(b["family"], f"{where}.family"), b["params"]
        want = families[name][0].__code__.co_argcount - leading
        if len(params) != want:
            raise ConfigError(f"{where}.params",
                              f"{name} takes {want} parameters, got {len(params)}")
        return make(name, *params)
    return parse


_scalar = _family(SCALAR_FAMILIES, scalar_fn, 1)
_pair = _family(PAIR_FAMILIES, pair_fn, 2)


def _product(trig):
    """scale * prod_i trig(pi x_i / L_i) over the grid's axes."""
    return lambda grid, coords, p: p["scale"] * np.prod(
        [trig(np.pi * x / ext) for x, ext in zip(coords, grid.extent)], axis=0)


def _gauss(grid: Grid, coords, p: dict) -> np.ndarray:
    r2 = np.sum([(x - p["center"] * ext) ** 2 for x, ext in zip(coords, grid.extent)], axis=0)
    return p["scale"] * np.exp(-r2 / (2 * p["width"] ** 2))


_SCALE = {"scale": (_float, 1.0)}
# profile -> (its keys besides `profile`, nodal values from (grid, coordinates, keys))
_PROFILES = {
    "zero": ({}, lambda grid, coords, p: np.zeros(grid.size)),
    "constant": ({"value": (_float, _REQUIRED)},
                 lambda grid, coords, p: np.full(grid.size, p["value"])),
    "sin_pi": (_SCALE, _product(np.sin)),
    "cos_pi": (_SCALE, _product(np.cos)),
    "gauss": ({**_SCALE, "center": (_float, 0.5), "width": (_positive, 0.1)}, _gauss),
}


def _profile(val, where: str) -> Callable[[Grid, int], np.ndarray]:
    """One component's profile (a number, a node list or a named profile
    mapping), parsed to its nodal values as a function of (grid, component)."""
    if isinstance(val, (int, float)):
        val = {"profile": "constant", "value": val}
    if isinstance(val, list):
        nodes = _array(val, where)

        def node_list(grid: Grid, c: int) -> np.ndarray:
            if nodes.size != grid.size:
                raise ConfigError(where, f"node list has {nodes.size} values, grid has {grid.size}")
            return nodes
        return node_list
    keys, values = _PROFILES[_kind(val, "profile", _PROFILES, where)]
    p = _block({"profile": (_str, _REQUIRED), **keys})(val, where)
    return lambda grid, c: values(grid, grid.coordinates(c), p)


def _field(val, where: str) -> Callable[[Grid], Field]:
    """A state field (one profile for all components, or a list of one per
    component), parsed to a function of the grid it lives on."""
    if isinstance(val, list) and val and isinstance(val[0], (dict, list)):
        parts = [_profile(v, f"{where}[{c}]") for c, v in enumerate(val)]
    else:
        parts = _profile(val, where)

    def on(grid: Grid) -> Field:
        ncomp = grid.n_components
        profiles = parts if isinstance(parts, list) else [parts] * ncomp
        if len(profiles) != ncomp:
            raise ConfigError(where, f"need {ncomp} component profiles, got {len(profiles)}")
        return Field(grid, np.concatenate([p(grid, c) for c, p in enumerate(profiles)]), ncomp)
    return on


_GRID = {
    "dimension": (_checked(_int, lambda d: d in (1, 2), "must be 1 or 2"), 1),
    "extent": (_one_or_list(_float), 1.0),
    "nodes": (_one_or_list(_int), _REQUIRED),
    "bc": (_choice("dirichlet", "neumann", "robin"), "neumann"),
    "robin_gamma": (_float, 0.0),
}

# kind -> (class, state components, {key: parser}); an absent key takes the class default
OPERATOR_KINDS = {
    "potential_drift": (PotentialDrift, 1, {"beta": _scalar, "a1": _float, "b": _float}),
    "porous_media": (PorousMedia, 1, {"beta": _scalar}),
    "reaction_diffusion2": (ReactionDiffusion2, 2,
                            {"d1": _positive, "d2": _positive, "f": _pair, "g": _pair}),
    "fitzhugh_nagumo": (FitzHughNagumo, 2,
                        {"alpha0": _float, "sigma": _float, "gamma": _float, "d1": _positive}),
    "phase_field": (PhaseField, 2, {"k": _positive, "l": _float, "nu": _positive,
                                    "gamma": _float, "beta": _scalar}),
}


def _operator(block, where: str) -> tuple[type, int, dict]:
    cls, ncomp, keys = OPERATOR_KINDS[_kind(block, "kind", OPERATOR_KINDS, where)]
    table = {"kind": (_str, _REQUIRED), **{key: (parse, None) for key, parse in keys.items()}}
    return cls, ncomp, {k: v for k, v in _block(table)(block, where).items() if k != "kind"}


_KERNEL = {"nodes": (_list(_int), _REQUIRED), "row_profile": (_profile, _REQUIRED),
           "col_profile": (_profile, _REQUIRED)}
_CONTROL = {
    "mode": (_str, "identity"),
    "norm": (_choice(*NORM_TAGS), "L2"),
    "rho": (_positive, _REQUIRED),
    "projection": (_str, None),
    "kernel": (_block(_KERNEL), None),
}
_INITIAL = {"y0": (_field, {"profile": "zero"})}
_TARGETS = {"y_tar": (_field, None)}

_DT = {"dt": (_positive, 1e-3)}
_NUMERICS = {
    "simulate": {**_DT, "T_max": (_float, 1.0)},
    "slide": {**_DT, "T_max": (_positive, 1.0), "hit_tol": (_positive, 1e-3),
              "audit_samples": (_samples, 150)},
    "optimize": {
        **_DT,
        "eps_schedule": (_checked(_list(_positive), bool, "must be a nonempty list"),
                         [1e-1, 1e-2, 1e-3, 1e-4]),
        "T_bracket": (_checked(_list(_float), lambda b: len(b) == 2 and 0 < b[0] < b[1],
                               "need [T_lo, T_hi] with 0 < T_lo < T_hi"), _REQUIRED),
        "inner_tol": (_positive, 1e-8),
        "inner_cap": (_checked(_int, lambda n: n >= 0, "must be nonnegative"), 500),
        "theta0": (_positive, 0.5), "golden_tol": (_positive, 1e-4),
        "chain_u_ref": (_bool, False),
    },
    "audit": {
        "audit_samples": (_samples, 200),
        "fractional_alpha": (_float, 0.5),
    },
}
_SIMULATE = {"T": (_positive, None), "u": (_field, {"profile": "zero"}),
             "write_values": (_bool, False)}

_ORACLE = {"rho": (_positive, _REQUIRED), "dt": (_float, 1e-3), "switch_budget": (_int, 1),
           "t_max": (_float, 5.0), "target_first_only": (_bool, False)}
# the scalar reduction y' + a y = u, or a 1- or 2-state one given by its matrix
_ORACLE_SCALAR = {**_ORACLE, "a": (_float, 0.0), "y0": (_float, 0.0),
                  "target": (_float, _REQUIRED)}
_ORACLE_MATRIX = {
    **_ORACLE,
    "matrix": (_checked(_array, lambda m: m.ndim == 2 and m.shape[0] == m.shape[1],
                        "expected a square matrix"), _REQUIRED),
    "y0": (_array, [0.0, 0.0]),
    "target": (_array, _REQUIRED),
}


def _oracle(block, where: str) -> dict:
    matrix = "matrix" in _mapping(block, where)
    return _block(_ORACLE_MATRIX if matrix else _ORACLE_SCALAR)(block, where)


# command -> the keys of the document's root
_ROOT = {"command": (_str, _REQUIRED), "seed": (_int, 0)}
_PDE_ROOT = {
    **_ROOT,
    "grid": (_block(_GRID), _REQUIRED),
    "operator": (_operator, _REQUIRED),
    "control": (_block(_CONTROL), _REQUIRED),
    "targets": (_block(_TARGETS), {}),
}
_RUN_ROOT = {**_PDE_ROOT, "initial": (_block(_INITIAL), {})}  # the commands that evolve y0
COMMANDS = {
    "simulate": {**_RUN_ROOT, "numerics": (_block(_NUMERICS["simulate"]), {}),
                 "simulate": (_block(_SIMULATE), {})},
    **{command: {**_RUN_ROOT, "numerics": (_block(_NUMERICS[command]), {})}
       for command in ("slide", "optimize")},
    "audit": {**_PDE_ROOT, "numerics": (_block(_NUMERICS["audit"]), {})},
    "oracle": {**_ROOT, "oracle": (_oracle, _REQUIRED)},
}


def _grid(g: dict, n_components: int) -> Grid:
    dim = g["dimension"]
    extent, nodes = (v if isinstance(v, list) else [v] * dim for v in (g["extent"], g["nodes"]))
    if len(extent) != dim or len(nodes) != dim:
        raise ConfigError("grid.nodes", "extent/nodes must match the dimension")
    gamma = g["robin_gamma"] if g["bc"] == "robin" else 0.0
    return _build("grid", lambda: Grid(extent=tuple(extent), nodes=tuple(nodes),
                                       bcs=(BoundaryCondition(g["bc"], gamma),) * n_components))


def _control(c: dict, spec: OperatorSpec) -> ControlMap:
    projection = c.get("projection", "first" if c["mode"] == "first_component" else "full")
    kernel = control_grid = None
    if c["mode"] == "nonlocal":
        if "kernel" not in c:
            raise ConfigError("control.kernel", "missing")
        k = c["kernel"]
        control_grid = _build("control.kernel.nodes", lambda: Grid(
            extent=spec.grid.extent, nodes=tuple(k["nodes"]),
            bcs=(BoundaryCondition("neumann"),)))
        kernel = np.outer(k["row_profile"](spec.grid, 0), k["col_profile"](control_grid, 0))
    return _build("control", lambda: ControlMap(
        mode=c["mode"], u_tag=NORM_TAGS[c["norm"]], projection=projection,
        kernel=kernel, control_grid=control_grid))


def parse_config(doc: dict) -> RunConfig:
    command = _kind(doc, "command", COMMANDS, "")
    top = _block(COMMANDS[command])(doc, "")
    cfg = RunConfig(command=command, seed=top["seed"], raw=doc)

    if command == "oracle":
        ob = cfg.oracle_block = top["oracle"]
        cfg.rho = ob["rho"]
        cfg.reduction = _build("oracle", lambda: OdeReduction(
            matrix=ob.get("matrix", ob.get("a")), rho=ob["rho"], y0=ob["y0"],
            target=ob["target"], target_first_only=ob["target_first_only"]))
        return cfg

    cls, ncomp, kwargs = top["operator"]
    cfg.grid = _grid(top["grid"], ncomp)
    cfg.spec = _build("operator", lambda: cls(cfg.grid, **kwargs))
    cfg.rho = top["control"]["rho"]
    cfg.map = _control(top["control"], cfg.spec)
    if "initial" in top:
        cfg.y0 = top["initial"]["y0"](cfg.grid)
    y_tar = top["targets"].get("y_tar")
    if y_tar is None and command in ("slide", "optimize"):
        raise ConfigError("targets.y_tar", "missing")
    if y_tar is not None:
        cfg.y_tar = y_tar(cfg.grid)
    cfg.numerics = top["numerics"]
    if command == "simulate":
        sim = cfg.simulate_block = top["simulate"]
        sim["T"] = sim.get("T") or _positive(cfg.numerics["T_max"], "simulate.T")
        sim["u"] = sim["u"](cfg.map.ugrid(cfg.spec))
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
