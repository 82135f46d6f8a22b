"""Structured grids and nodal fields.

Grids are uniform on a 1D interval or a 2D rectangle. Degrees of freedom live
at the free nodes: for Dirichlet conditions the boundary values are fixed to
zero and not stored, for Neumann/Robin the boundary nodes are stored. The
discrete measure is the trapezoid rule, so stored boundary nodes carry half
weight and inner products are second-order accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["BoundaryCondition", "Grid", "Field", "dirichlet", "neumann", "robin"]


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition of one state component: dirichlet, neumann or robin.

    ``gamma`` is the Robin coefficient (d/dnu y + gamma*y = 0) and must be
    strictly positive when kind == "robin".
    """

    kind: str
    gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann", "robin"):
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind == "robin" and not self.gamma > 0.0:
            raise ValueError("robin boundary condition needs gamma > 0")
        if self.kind != "robin" and self.gamma != 0.0:
            raise ValueError(f"gamma is only meaningful for robin, got {self.gamma}")


def dirichlet() -> BoundaryCondition:
    return BoundaryCondition("dirichlet")


def neumann() -> BoundaryCondition:
    return BoundaryCondition("neumann")


def robin(gamma: float) -> BoundaryCondition:
    return BoundaryCondition("robin", float(gamma))


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0, extent) or (0, extent_x) x (0, extent_y).

    ``nodes`` counts the stored nodes per axis (>= 3). For Dirichlet the
    stored nodes are the interior ones, mesh width h = extent/(nodes+1);
    otherwise boundary nodes are stored and h = extent/(nodes-1).
    ``bcs`` holds one boundary condition per state component.
    """

    extent: tuple[float, ...]
    nodes: tuple[int, ...]
    bcs: tuple[BoundaryCondition, ...] = field(default=(BoundaryCondition("neumann"),))

    def __post_init__(self):
        if len(self.extent) != len(self.nodes):
            raise ValueError("extent and nodes must have the same length")
        if self.dimension not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if any(n < 3 for n in self.nodes):
            raise ValueError("need at least 3 nodes per axis")
        if any(not e > 0.0 for e in self.extent):
            raise ValueError("extents must be positive")
        if len(self.bcs) < 1:
            raise ValueError("need at least one component boundary condition")

    @property
    def dimension(self) -> int:
        return len(self.nodes)

    @property
    def n_components(self) -> int:
        return len(self.bcs)

    @cached_property
    def size(self) -> int:
        """Stored nodes of one component."""
        return int(np.prod(self.nodes))

    def spacing(self, bc: BoundaryCondition) -> tuple[float, ...]:
        if bc.kind == "dirichlet":
            return tuple(e / (n + 1) for e, n in zip(self.extent, self.nodes))
        return tuple(e / (n - 1) for e, n in zip(self.extent, self.nodes))

    def axis_coordinates(self, bc: BoundaryCondition) -> tuple[np.ndarray, ...]:
        """Per-axis coordinates of the stored nodes."""
        out = []
        for e, n, h in zip(self.extent, self.nodes, self.spacing(bc)):
            if bc.kind == "dirichlet":
                out.append(h * np.arange(1, n + 1))
            else:
                out.append(h * np.arange(n))
        return tuple(out)

    def coordinates(self, component: int = 0) -> tuple[np.ndarray, ...]:
        """Meshgrid coordinates (flattened, C order) of one component's nodes."""
        axes = self.axis_coordinates(self.bcs[component])
        if self.dimension == 1:
            return (axes[0].copy(),)
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return X.ravel(), Y.ravel()

    def axis_weights(self, bc: BoundaryCondition) -> tuple[np.ndarray, ...]:
        """Trapezoid quadrature weights per axis."""
        out = []
        for n, h in zip(self.nodes, self.spacing(bc)):
            w = np.full(n, h)
            if bc.kind != "dirichlet":
                w[0] = w[-1] = h / 2.0
            out.append(w)
        return tuple(out)

    @cached_property
    def _weights_cache(self) -> tuple[np.ndarray, ...]:
        out = []
        for c in range(self.n_components):
            axes = self.axis_weights(self.bcs[c])
            if self.dimension == 1:
                out.append(axes[0])
            else:
                out.append(np.outer(axes[0], axes[1]).ravel())
        return tuple(out)

    def weights(self, component: int = 0) -> np.ndarray:
        """Flattened trapezoid weights of one component's nodes."""
        return self._weights_cache[component]

    @cached_property
    def _component_weights_cache(self) -> np.ndarray:
        return np.concatenate(self._weights_cache)

    def component_weights(self) -> np.ndarray:
        """Weights of the full multi-component dof vector (concatenated)."""
        return self._component_weights_cache


@dataclass
class Field:
    """Nodal values of ``n_components`` state components on a grid.

    ``values`` is the flat concatenation of the per-component nodal vectors
    (C order for 2D grids). All values must be finite.
    """

    grid: Grid
    values: np.ndarray
    n_components: int = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.n_components < 1:
            raise ValueError("need n_components >= 1")
        if self.values.size != self.n_components * self.grid.size:
            raise ValueError(
                f"field has {self.values.size} values, expected "
                f"{self.n_components} x {self.grid.size}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def component(self, i: int) -> np.ndarray:
        n = self.grid.size
        if not 0 <= i < self.n_components:
            raise IndexError(f"component {i} of {self.n_components}")
        return self.values[i * n : (i + 1) * n]

    def _check_compatible(self, other: "Field") -> None:
        if other.grid is not self.grid and other.grid != self.grid:
            raise ValueError("fields live on different grids")
        if other.n_components != self.n_components:
            raise ValueError("fields have different component counts")
