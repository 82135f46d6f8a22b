"""The nonlinear evolution operators and control maps of the example catalog.

Each operator kind realizes one configuration A_H of the abstract equation
y' + A_H y = Bu on its own functional frame: the diffusion equation with
potential and drift, the porous medium equation (state space H^-1), the
two-component reaction-diffusion systems (including FitzHugh-Nagumo with a
diffusionless second component) and the Caginalp phase-field system.

Linearizations are assembled as dense nodal Jacobians; the adjoint of the
linearization is always the exact transpose with respect to the discrete
inner products, never a separate discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import Field, Grid
from .nonlinearities import PairFn, ScalarFn, scalar_fn
from .spaces import (
    HMINUS1,
    L2,
    NormTag,
    SpectralLaplacian,
    duality_rows,
    inner_rows,
    norm_rows,
    resolvent_rows,
)

__all__ = [
    "OperatorSpec",
    "PotentialDrift",
    "PorousMedia",
    "ReactionDiffusion2",
    "FitzHughNagumo",
    "PhaseField",
    "ControlMap",
    "apply_A",
    "apply_Aprime",
    "apply_Aprime_adjoint",
]


class OperatorSpec:
    """Base class: a configured A_H with its derivative and inner products.

    Subclasses define ``apply`` (nodal A_H y), ``jacobian`` (dense nodal
    derivative) and the norms of their functional frame. ``state_tag`` is the
    H of the example: L2 except for the porous medium, whose H is H^-1.
    """

    grid: Grid
    state_tag: NormTag = L2
    is_linear: bool = False

    @property
    def n_components(self) -> int:
        return self.grid.n_components

    @property
    def n_dof(self) -> int:
        return self.grid.size * self.n_components

    @cached_property
    def weights(self) -> np.ndarray:
        return self.grid.component_weights()

    @cached_property
    def gamma_op(self) -> SpectralLaplacian:
        """The canonical isomorphism Gamma_H used for V-norms and powers:
        -Lap on the first component's walls, shifted by the identity under
        Neumann walls so that it is invertible."""
        bc = self.grid.bcs[0]
        return SpectralLaplacian(self.grid, bc, shift=1.0 if bc.kind == "neumann" else 0.0)

    @cached_property
    def _lap(self) -> np.ndarray:
        """Dense nodal matrix of the unshifted -Lap on the first component's walls."""
        return SpectralLaplacian(self.grid, self.grid.bcs[0], shift=0.0).matrix

    # -- to be provided by subclasses ---------------------------------------

    def apply(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- state (H) inner product --------------------------------------------

    def state_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        if self.state_tag.kind == "L2":
            return float(np.dot(self.weights * a, b))
        # H^-1 state space (porous medium): (a, b)_H = <Gamma^-1 a, b>_L2
        return float(np.dot(self.weights * self.gamma_op.apply_inverse(a), b))

    def h_norm(self, y: np.ndarray) -> float:
        return float(np.sqrt(max(self.state_inner(y, y), 0.0)))

    def metric_apply(self, v: np.ndarray) -> np.ndarray:
        """M v with <a, b>_H = a^T M b."""
        if self.state_tag.kind == "L2":
            return self.weights * v
        return self.weights * self.gamma_op.apply_inverse(v)

    def metric_solve(self, v: np.ndarray) -> np.ndarray:
        if self.state_tag.kind == "L2":
            return v / self.weights
        return self.gamma_op.apply(v / self.weights)

    # -- V norm and its dual -------------------------------------------------

    def v_norm(self, y: np.ndarray) -> float:
        """||y||_V via <Gamma y, y>, per component."""
        n = self.grid.size
        acc = 0.0
        w = self.grid.weights(0)
        for c in range(self.n_components):
            yc = y[c * n : (c + 1) * n]
            acc += float(np.dot(w * self.gamma_op.apply(yc), yc))
        return float(np.sqrt(max(acc, 0.0)))

    def vstar_norm(self, v: np.ndarray) -> float:
        n = self.grid.size
        acc = 0.0
        w = self.grid.weights(0)
        for c in range(self.n_components):
            vc = v[c * n : (c + 1) * n]
            acc += float(np.dot(w * self.gamma_op.apply_inverse(vc), vc))
        return float(np.sqrt(max(acc, 0.0)))

    def a_norm(self, y: np.ndarray) -> float:
        """||A_H y||_H."""
        return self.h_norm(self.apply(y))

    def _check_dof(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        if y.size != self.n_dof:
            raise ValueError(f"expected {self.n_dof} dof, got {y.size}")
        return y


@dataclass
class PotentialDrift(OperatorSpec):
    """Diffusion with potential and drift: A y = -Lap y + beta(y) + a1 y - div(b y).

    One component; the grid's boundary condition (Robin in the canonical
    setup, Dirichlet/Neumann also allowed) is built into the Laplacian.
    ``a1`` is a constant or nodal array; ``b`` a per-axis constant or nodal
    array, reflected at boundary nodes so the discrete drift carries no
    boundary flux.
    """

    grid: Grid
    beta: ScalarFn = scalar_fn("zero")
    a1: float | np.ndarray = 0.0
    b: float | tuple | np.ndarray = 0.0

    def __post_init__(self):
        if self.grid.n_components != 1:
            raise ValueError("PotentialDrift is a one-component operator")
        if self.beta.monotone_floor < 0.0:
            raise ValueError("beta must be nondecreasing (beta' >= a0 >= 0)")
        self.state_tag = L2
        self.is_linear = self.beta.name in ("zero", "linear")

    @cached_property
    def _drift(self) -> np.ndarray:
        """Matrix of -div(b .), centered differences, zero boundary rows.

        Under Dirichlet walls the stored nodes are interior and (b y)
        vanishes on the wall, so every row keeps its stencil; otherwise the
        wall rows stay zero (b.nu = 0 by reflection). In 2D the 1D stencil
        acts along each axis of the C-ordered node array.
        """
        g = self.grid
        bc = g.bcs[0]
        b = self.b
        baxes = b if isinstance(b, (tuple, list)) else (b,) * g.dimension
        d = np.zeros((g.size, g.size))
        for axis, (n, h) in enumerate(zip(g.nodes, g.spacing(bc))):
            stencil = np.eye(n, k=-1) - np.eye(n, k=1)
            if bc.kind != "dirichlet":
                stencil[[0, -1]] = 0.0
            if g.dimension == 2:
                nx, ny = g.nodes
                stencil = (np.kron(stencil, np.eye(ny)) if axis == 0
                           else np.kron(np.eye(nx), stencil))
            braw = np.asarray(baxes[axis], dtype=float)
            barr = np.full(g.size, float(braw)) if braw.ndim == 0 else braw.ravel()
            d += stencil * barr[None, :] / (2 * h)
        return d

    @cached_property
    def _a1_arr(self) -> np.ndarray:
        arr = np.asarray(self.a1, dtype=float)
        if arr.ndim == 0:
            return np.full(self.grid.size, float(arr))
        return arr.ravel()

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dof(y)
        return self._lap @ y + self.beta(y) + self._a1_arr * y + self._drift @ y

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dof(y)
        j = self._lap + self._drift
        j = j + np.diag(self.beta.d(y) + self._a1_arr)
        return j


@dataclass
class PorousMedia(OperatorSpec):
    """Porous medium equation A y = -Lap beta(y), Dirichlet walls, H = H^-1.

    beta' must be bounded below by a0 > 0 and grow no faster than |r|^kappa
    with kappa < 1 (slow diffusion).
    """

    grid: Grid
    beta: ScalarFn = scalar_fn("linear", 1.0)

    def __post_init__(self):
        if self.grid.n_components != 1:
            raise ValueError("PorousMedia is a one-component operator")
        if self.grid.bcs[0].kind != "dirichlet":
            raise ValueError("PorousMedia uses Dirichlet boundary conditions")
        if not self.beta.monotone_floor > 0.0:
            raise ValueError("porous medium needs beta' >= a0 > 0")
        if not self.beta.growth_exponent < 1.0:
            raise ValueError("porous medium is the slow diffusion case: kappa < 1")
        self.state_tag = HMINUS1
        self.is_linear = self.beta.name == "linear"

    def apply(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dof(y)
        return self._lap @ self.beta(y)

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        y = self._check_dof(y)
        return self._lap * self.beta.d(y)[None, :]

    def v_norm(self, y: np.ndarray) -> float:
        # V = L2 in the porous-medium frame
        return float(np.sqrt(np.dot(self.weights, y * y)))

    def vstar_norm(self, v: np.ndarray) -> float:
        gi = self.gamma_op.apply_inverse(v)
        return float(np.sqrt(np.dot(self.weights, gi * gi)))


class _TwoComponent(OperatorSpec):
    """Shared plumbing of the two-component reaction-diffusion kinds."""

    def _split(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.grid.size
        return w[:n], w[n:]


@dataclass
class ReactionDiffusion2(_TwoComponent):
    """Two coupled reaction-diffusion equations with Neumann walls.

    A(y, z) = (-D1 Lap y + f(y, z), -D2 Lap z + g(y, z)). The canonical
    isomorphism is I - Lap per component, as required for invertibility
    under Neumann conditions.
    """

    grid: Grid
    d1: float = 1.0
    d2: float = 1.0
    f: PairFn = PairFn("zero2")
    g: PairFn = PairFn("zero2")

    def __post_init__(self):
        if self.grid.n_components != 2:
            raise ValueError("ReactionDiffusion2 has two components")
        if len({bc.kind for bc in self.grid.bcs}) != 1:
            raise ValueError("both components must share the boundary condition")
        if not (self.d1 > 0.0 and self.d2 > 0.0):
            raise ValueError("diffusivities must be positive (use FitzHughNagumo for D2 = 0)")
        self.state_tag = L2
        self.is_linear = self.f.is_linear and self.g.is_linear

    def apply(self, w: np.ndarray) -> np.ndarray:
        w = self._check_dof(w)
        y, z = self._split(w)
        return np.concatenate([
            self.d1 * (self._lap @ y) + self.f(y, z),
            self.d2 * (self._lap @ z) + self.g(y, z),
        ])

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        w = self._check_dof(w)
        y, z = self._split(w)
        n = self.grid.size
        j = np.zeros((2 * n, 2 * n))
        j[:n, :n] = self.d1 * self._lap + np.diag(self.f.dy(y, z))
        j[:n, n:] = np.diag(self.f.dz(y, z))
        j[n:, :n] = np.diag(self.g.dy(y, z))
        j[n:, n:] = self.d2 * self._lap + np.diag(self.g.dz(y, z))
        return j


@dataclass
class FitzHughNagumo(_TwoComponent):
    """FitzHugh-Nagumo: f = alpha0 y + z, g = -sigma y + gamma z, D2 = 0.

    The second component carries no Laplacian; its space is plain L2,
    so V = H^1 x L2.
    """

    grid: Grid
    alpha0: float = 1.0
    sigma: float = 1.0
    gamma: float = 1.0
    d1: float = 1.0

    def __post_init__(self):
        if self.grid.n_components != 2:
            raise ValueError("FitzHughNagumo has two components")
        if not self.d1 > 0.0:
            raise ValueError("first diffusivity must be positive")
        self.state_tag = L2
        self.is_linear = True

    def apply(self, w: np.ndarray) -> np.ndarray:
        w = self._check_dof(w)
        y, z = self._split(w)
        return np.concatenate([
            self.d1 * (self._lap @ y) + self.alpha0 * y + z,
            -self.sigma * y + self.gamma * z,
        ])

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        self._check_dof(w)
        n = self.grid.size
        eye = np.eye(n)
        j = np.zeros((2 * n, 2 * n))
        j[:n, :n] = self.d1 * self._lap + self.alpha0 * eye
        j[:n, n:] = eye
        j[n:, :n] = -self.sigma * eye
        j[n:, n:] = self.gamma * eye
        return j

    def v_norm(self, w: np.ndarray) -> float:
        y, z = self._split(w)
        wq = self.grid.weights(0)
        vy = float(np.dot(wq * self.gamma_op.apply(y), y))
        vz = float(np.dot(wq, z * z))
        return float(np.sqrt(max(vy + vz, 0.0)))

    def vstar_norm(self, v: np.ndarray) -> float:
        p, q = self._split(v)
        wq = self.grid.weights(0)
        vp = float(np.dot(wq * self.gamma_op.apply_inverse(p), p))
        vq = float(np.dot(wq, q * q))
        return float(np.sqrt(max(vp + vq, 0.0)))


@dataclass
class PhaseField(_TwoComponent):
    """Caginalp phase-field system for (energy, phase) = (sigma, phi):

        sigma' - k Lap sigma + k l Lap phi           = u
        phi'   - nu Lap phi + beta(phi) + pi(phi)    = gamma sigma - gamma l phi

    with the double-well split beta(r) = r^3, pi(r) = -r by default.
    """

    grid: Grid
    k: float = 1.0
    l: float = 1.0
    nu: float = 1.0
    gamma: float = 1.0
    beta: ScalarFn = scalar_fn("cubic", 0.0)
    pi: ScalarFn = scalar_fn("linear", -1.0)

    def __post_init__(self):
        if self.grid.n_components != 2:
            raise ValueError("PhaseField has two components")
        if not (self.k > 0.0 and self.nu > 0.0):
            raise ValueError("diffusivities k, nu must be positive")
        self.state_tag = L2
        self.is_linear = False

    def apply(self, w: np.ndarray) -> np.ndarray:
        w = self._check_dof(w)
        sig, phi = self._split(w)
        lap = self._lap
        return np.concatenate([
            self.k * (lap @ sig) - self.k * self.l * (lap @ phi),
            self.nu * (lap @ phi) + self.beta(phi) + self.pi(phi)
            + self.gamma * self.l * phi - self.gamma * sig,
        ])

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        w = self._check_dof(w)
        _, phi = self._split(w)
        n = self.grid.size
        lap = self._lap
        j = np.zeros((2 * n, 2 * n))
        j[:n, :n] = self.k * lap
        j[:n, n:] = -self.k * self.l * lap
        j[n:, :n] = -self.gamma * np.eye(n)
        j[n:, n:] = self.nu * lap + np.diag(
            self.beta.d(phi) + self.pi.d(phi) + self.gamma * self.l
        )
        return j


# ---------------------------------------------------------------------------
# Field-level operator surface


def apply_A(spec: OperatorSpec, y: Field) -> Field:
    return Field(y.grid, spec.apply(y.values), y.n_components)


def apply_Aprime(spec: OperatorSpec, y: Field, z: Field) -> Field:
    y._check_compatible(z)
    return Field(y.grid, spec.jacobian(y.values) @ z.values, y.n_components)


def apply_Aprime_adjoint(spec: OperatorSpec, y: Field, p: Field) -> Field:
    """Exact transpose of the linearization in the weighted L2 pairing."""
    y._check_compatible(p)
    j = spec.jacobian(y.values)
    w = spec.weights
    return Field(y.grid, (j.T @ (w * p.values)) / w, y.n_components)


# ---------------------------------------------------------------------------
# Control maps


@dataclass
class ControlMap:
    """The control operator B with its adjoint, projection P and U-norm.

    Modes: "identity" (B = I on the state grid), "first_component"
    (B(u1, u2) = (u1, 0), paired with P = first component), and "nonlocal"
    (a kernel integral operator from a one-component control grid).
    U*-elements are represented nodally with the weighted L2 pairing.
    """

    mode: str = "identity"
    u_tag: NormTag = L2
    projection: str = "full"
    kernel: np.ndarray | None = None
    control_grid: Grid | None = None

    def __post_init__(self):
        if self.mode not in ("identity", "first_component", "nonlocal"):
            raise ValueError(f"unknown control mode {self.mode!r}")
        if self.projection not in ("full", "first"):
            raise ValueError(f"unknown projection {self.projection!r}")
        if self.mode == "first_component" and self.projection != "first":
            raise ValueError("first_component control pairs with the first-component projection")
        if self.mode == "nonlocal":
            if self.kernel is None or self.control_grid is None:
                raise ValueError("nonlocal mode needs a kernel and a control grid")
            if self.control_grid.n_components != 1:
                raise ValueError("nonlocal control grid has one component")
            if self.u_tag.kind == "Hminus1":
                raise ValueError("Hminus1 control norms require the state grid")
            self.kernel = np.asarray(self.kernel, dtype=float)

    # -- shapes ---------------------------------------------------------------

    def ugrid(self, spec: OperatorSpec) -> Grid:
        return self.control_grid if self.mode == "nonlocal" else spec.grid

    def control_size(self, spec: OperatorSpec) -> int:
        g = self.ugrid(spec)
        return g.size * g.n_components

    def _uspace(self, spec: OperatorSpec) -> tuple[Grid, NormTag, SpectralLaplacian | None]:
        """The grid, norm tag and spectral operator of U, as the row kernels take them."""
        g = self.ugrid(spec)
        if not self.u_tag.needs_spectral:
            return g, self.u_tag, None
        if g is not spec.grid:
            raise ValueError("spectral control norms require the state grid")
        return g, self.u_tag, spec.gamma_op

    # -- B and B* -------------------------------------------------------------

    def apply_B(self, spec: OperatorSpec, u: np.ndarray) -> np.ndarray:
        """B u for one control (m,) or a stack of them (rows, m)."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.control_size(spec):
            raise ValueError(f"expected {self.control_size(spec)} control dof, got {u.shape[-1]}")
        if self.mode == "identity":
            return u.copy()
        if self.mode == "first_component":
            out = np.zeros((*u.shape[:-1], spec.n_dof))
            out[..., : spec.grid.size] = u[..., : spec.grid.size]
            return out
        wq = self.control_grid.weights(0)
        if self.kernel.shape != (spec.grid.size, self.control_grid.size):
            raise ValueError(
                f"kernel shape {self.kernel.shape} does not match state x control "
                f"({spec.grid.size} x {self.control_grid.size})"
            )
        return (u * wq) @ self.kernel.T

    def apply_Bstar(self, spec: OperatorSpec, v: np.ndarray) -> np.ndarray:
        """B* v as a U*-element, <u, B*v> = (Bu, v)_H exactly, for one state
        (n_dof,) or a stack of them (rows, n_dof)."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != spec.n_dof:
            raise ValueError(f"expected {spec.n_dof} state dof, got {v.shape[-1]}")
        if self.mode == "nonlocal":
            return (v * spec.grid.weights(0)) @ self.kernel
        if spec.state_tag.kind == "L2":
            out = v.copy()
        else:
            out = spec.metric_apply(v) / spec.weights
        if self.mode == "first_component":
            out[..., spec.grid.size:] = 0.0
        return out

    # -- projections ------------------------------------------------------------

    def project_state(self, spec: OperatorSpec, v: np.ndarray) -> np.ndarray:
        if self.projection == "full":
            return np.asarray(v, dtype=float).copy()
        out = np.zeros_like(np.asarray(v, dtype=float))
        out[: spec.grid.size] = v[: spec.grid.size]
        return out

    def auxiliary_state(self, spec: OperatorSpec, y: np.ndarray,
                        y_tar: np.ndarray) -> np.ndarray:
        """yhat: the target on the controlled components, the running value
        elsewhere (the paper's choice of the second component)."""
        if self.projection == "full":
            return np.asarray(y_tar, dtype=float).copy()
        out = np.asarray(y, dtype=float).copy()
        out[: spec.grid.size] = y_tar[: spec.grid.size]
        return out

    # -- U-space geometry: one control is one row of a (rows, m) stack ----------

    def u_norms_batch(self, spec: OperatorSpec, U: np.ndarray) -> np.ndarray:
        return norm_rows(U, *self._uspace(spec))

    def ustar_norms_batch(self, spec: OperatorSpec, Z: np.ndarray) -> np.ndarray:
        return norm_rows(Z, *self._uspace(spec), dual=True)

    def F_batch(self, spec: OperatorSpec, U: np.ndarray) -> np.ndarray:
        return duality_rows(U, *self._uspace(spec))

    def F_inverse_batch(self, spec: OperatorSpec, Z: np.ndarray) -> np.ndarray:
        return duality_rows(Z, *self._uspace(spec), inverse=True)

    def resolvent_batch(self, spec: OperatorSpec, Z: np.ndarray, eps: float,
                        rho: float) -> np.ndarray:
        g, tag, s = self._uspace(spec)
        return resolvent_rows(Z, g, tag, eps, rho, s)

    def u_pairing(self, spec: OperatorSpec, zeta: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Row-wise duality pairing <zeta, u> of U* against U."""
        return inner_rows(zeta, u, self.ugrid(spec))

    def project_control_batch(self, spec: OperatorSpec, U: np.ndarray) -> np.ndarray:
        if self.projection == "full" or self.mode == "nonlocal":
            return U
        out = U.copy()
        out[..., self.ugrid(spec).size:] = 0.0
        return out
