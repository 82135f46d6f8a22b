"""Discrete function spaces: spectral Laplacians, norms and duality maps.

The canonical isomorphism of the discrete V onto V* is realized by a second
order finite-difference Laplacian (optionally shifted by the identity, as in
the reaction-diffusion examples where it is I - Laplacian). All fractional
powers, inverses and Yosida approximants go through one dense symmetric
eigendecomposition taken with respect to the trapezoid inner product, so the
spectral identities hold to essentially machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg

from .grids import BoundaryCondition, Field, Grid

__all__ = [
    "NormTag",
    "SpectralLaplacian",
    "SpectralSingularityError",
    "IndeterminateSelectionError",
    "inner_product",
    "norm",
    "dual_norm",
    "pairing",
    "gamma_apply",
    "yosida_apply",
    "gamma_power",
    "duality_map_F",
    "duality_map_F_inverse",
    "resolvent_eF_NK",
    "inner_rows",
    "norm_rows",
    "duality_rows",
    "resolvent_rows",
    "resolvent_derivative_rows",
]


class SpectralSingularityError(ValueError):
    """Negative power requested of an operator with a zero eigenvalue."""


class IndeterminateSelectionError(ValueError):
    """Pure normal-cone inverse evaluated at zero: every ball point solves it."""


@dataclass(frozen=True)
class NormTag:
    """Role of a space: L2, H1, H1dual, Lp(p) or Hminus1.

    Lp supports p in {2, 4}; Lp(2) is canonicalized to L2. Hminus1 is the
    H^-1 norm through a Dirichlet Laplacian.
    """

    kind: str
    p: float | None = None

    _KINDS = ("L2", "H1", "H1dual", "Lp", "Hminus1")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown norm tag {self.kind!r}")
        if self.kind == "Lp":
            if self.p not in (2, 4):
                raise ValueError("Lp tags support p in {2, 4}")
            if self.p == 2:
                object.__setattr__(self, "kind", "L2")
                object.__setattr__(self, "p", None)
        elif self.p is not None:
            raise ValueError("p is only meaningful for Lp tags")

    @property
    def is_hilbert(self) -> bool:
        return self.kind != "Lp"

    @property
    def needs_spectral(self) -> bool:
        return self.kind in ("H1", "H1dual", "Hminus1")


L2 = NormTag("L2")
H1 = NormTag("H1")
H1DUAL = NormTag("H1dual")
HMINUS1 = NormTag("Hminus1")
L4 = NormTag("Lp", 4)


def _laplacian_matrix_1d(n: int, h: float, bc: BoundaryCondition) -> np.ndarray:
    """Dense 1D (-Laplacian) with the boundary condition built in by ghost
    node elimination. Self-adjoint w.r.t. the trapezoid weights."""
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = 2.0 / h**2
    m[idx[:-1], idx[:-1] + 1] = -1.0 / h**2
    m[idx[1:], idx[1:] - 1] = -1.0 / h**2
    if bc.kind == "neumann":
        m[0, 1] = -2.0 / h**2
        m[-1, -2] = -2.0 / h**2
    elif bc.kind == "robin":
        m[0, 1] = -2.0 / h**2
        m[-1, -2] = -2.0 / h**2
        m[0, 0] += 2.0 * bc.gamma / h
        m[-1, -1] += 2.0 * bc.gamma / h
    return m


@dataclass(frozen=True)
class _Axis:
    eigenvalues: np.ndarray   # ascending, no shift
    eigenvectors: np.ndarray  # columns, orthonormal w.r.t. the axis weights
    weights: np.ndarray
    matrix: np.ndarray


class SpectralLaplacian:
    """Eigendecomposition of (shift*I - Laplacian) on one component's nodes.

    2D grids use the tensor-product structure: per-axis decompositions,
    eigenvalues lambda_ij = lambda_i + lambda_j + shift. Eigenvectors are
    orthonormal in the discrete (trapezoid) L2 inner product.
    """

    def __init__(self, grid: Grid, bc: BoundaryCondition, shift: float = 0.0):
        self.grid = grid
        self.bc = bc
        self.shift = float(shift)
        axes = []
        hs = grid.spacing(bc)
        ws = grid.axis_weights(bc)
        for n, h, w in zip(grid.nodes, hs, ws):
            m = _laplacian_matrix_1d(n, h, bc)
            sqw = np.sqrt(w)
            sym = (sqw[:, None] * m) / sqw[None, :]
            sym = 0.5 * (sym + sym.T)
            evals, q = scipy.linalg.eigh(sym)
            evals = np.where(np.abs(evals) < 1e-12, 0.0, evals)
            vecs = q / sqw[:, None]
            axes.append(_Axis(evals, vecs, w, m))
        self._axes = tuple(axes)

    @property
    def n(self) -> int:
        return self.grid.size

    @property
    def weights(self) -> np.ndarray:
        if self.grid.dimension == 1:
            return self._axes[0].weights
        return np.outer(self._axes[0].weights, self._axes[1].weights).ravel()

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues (shift included), ascending."""
        if self.grid.dimension == 1:
            lam = self._axes[0].eigenvalues + self.shift
            return lam
        lx = self._axes[0].eigenvalues
        ly = self._axes[1].eigenvalues
        return np.sort((lx[:, None] + ly[None, :] + self.shift).ravel())

    @cached_property
    def _pair_order(self) -> np.ndarray:
        lx = self._axes[0].eigenvalues
        ly = self._axes[1].eigenvalues
        flat = (lx[:, None] + ly[None, :]).ravel()
        return np.argsort(flat, kind="stable")

    def eigenvector(self, k: int) -> np.ndarray:
        """k-th eigenvector (matching ``eigenvalues`` order), flat nodal values."""
        if self.grid.dimension == 1:
            return self._axes[0].eigenvectors[:, k].copy()
        ny = self.grid.nodes[1]
        flat_idx = self._pair_order[k]
        i, j = divmod(flat_idx, ny)
        return np.outer(
            self._axes[0].eigenvectors[:, i], self._axes[1].eigenvectors[:, j]
        ).ravel()

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense nodal matrix of (shift*I - Laplacian)."""
        if self.grid.dimension == 1:
            m = self._axes[0].matrix.copy()
        else:
            ax, ay = self._axes
            m = np.kron(ax.matrix, np.eye(self.grid.nodes[1])) + np.kron(
                np.eye(self.grid.nodes[0]), ay.matrix
            )
        return m + self.shift * np.eye(self.n)

    def apply_fn(self, values: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Apply fn(operator) spectrally along the last axis: one component's
        nodal values, shape (n,), or a stack of them, shape (rows, n)."""
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} nodal values, got {v.shape[-1]}")
        if self.grid.dimension == 1:
            ax = self._axes[0]
            coef = (v.reshape(-1, self.n) * ax.weights) @ ax.eigenvectors
            out = (fn(ax.eigenvalues + self.shift) * coef) @ ax.eigenvectors.T
            return out.reshape(v.shape)
        ax, ay = self._axes
        V = v.reshape(-1, *self.grid.nodes)
        coef = ax.eigenvectors.T @ (ax.weights[:, None] * V * ay.weights[None, :]) @ ay.eigenvectors
        lam = ax.eigenvalues[:, None] + ay.eigenvalues[None, :] + self.shift
        return (ax.eigenvectors @ (fn(lam) * coef) @ ay.eigenvectors.T).reshape(v.shape)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.apply_fn(values, lambda lam: lam)

    def apply_power(self, values: np.ndarray, alpha: float) -> np.ndarray:
        if not -1.0 <= alpha <= 1.0:
            raise ValueError("power must lie in [-1, 1]")
        if alpha < 0.0 and self.min_eigenvalue <= 0.0:
            raise SpectralSingularityError(
                "negative power of an operator with a zero eigenvalue; "
                "configure an identity shift"
            )
        return self.apply_fn(values, lambda lam: np.power(lam, alpha))

    def apply_inverse(self, values: np.ndarray) -> np.ndarray:
        return self.apply_power(values, -1.0)

    def apply_yosida(self, values: np.ndarray, nu: float) -> np.ndarray:
        if not nu > 0.0:
            raise ValueError("Yosida parameter must be positive")
        return self.apply_fn(values, lambda lam: lam / (1.0 + nu * lam))


# ---------------------------------------------------------------------------
# Row kernels. Values live on a grid as (n_components * n,) or
# (rows, n_components * n) arrays, each component a contiguous block of n
# nodes; every kernel works along the last axis, so one element is one row.

# The spectral power a of each Hilbert tag: ||u||^2 = <Gamma^a u, u>, F = Gamma^a.
_GAMMA_POWER = {"L2": 0, "H1": 1, "H1dual": -1, "Hminus1": -1}


def _require_spectral(tag: NormTag, s: SpectralLaplacian | None) -> SpectralLaplacian:
    if s is None:
        raise ValueError(f"norm tag {tag.kind} needs a SpectralLaplacian")
    if tag.kind == "Hminus1":
        if s.bc.kind != "dirichlet":
            raise ValueError("Hminus1 requires a Dirichlet Laplacian")
        if s.shift != 0.0:
            raise ValueError("Hminus1 uses the unshifted Dirichlet Laplacian")
    return s


def _rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    size = grid.size * grid.n_components
    if v.shape[-1] != size:
        raise ValueError(f"expected {size} values per row, got {v.shape[-1]}")
    return v


def _blocks(v: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(..., components, nodes) view of the values and the (components, nodes) weights."""
    w = grid.component_weights().reshape(grid.n_components, grid.size)
    return v.reshape(*v.shape[:-1], *w.shape), w


def _blockwise(values: np.ndarray, s: SpectralLaplacian,
               op: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A spectral map of s applied to every component block of every row."""
    return op(values.reshape(-1, s.n)).reshape(values.shape)


def _gamma_rows(v: np.ndarray, tag: NormTag, s: SpectralLaplacian | None,
                sign: int = 1) -> np.ndarray:
    """Gamma^(sign * a) per component block, a the tag's spectral power; the
    input itself when a = 0."""
    power = sign * _GAMMA_POWER[tag.kind]
    if power == 0:
        return v
    s = _require_spectral(tag, s)
    return _blockwise(v, s, s.apply if power > 0 else s.apply_inverse)


def _lp_map(values: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """Duality map of Lp along the last axis, ||v||^(2-p) sign(v) |v|^(p-1);
    zero on zero rows."""
    nrm = np.sum(weights * np.abs(values) ** p, axis=-1, keepdims=True) ** (1.0 / p)
    nrm = np.where(nrm > 0.0, nrm, 1.0)  # sign(v) = 0 on zero rows
    return nrm ** (2.0 - p) * np.sign(values) * np.abs(values) ** (p - 1.0)


def inner_rows(a: np.ndarray, b: np.ndarray, grid: Grid, tag: NormTag = L2,
               s: SpectralLaplacian | None = None) -> np.ndarray:
    """Row-wise inner product under a Hilbert norm tag. Under L2 this is the
    duality pairing <zeta, u>, the weighted nodal product, which realizes
    every (U*, U) pairing used here (L2, Lp, H^-1 against H^1_0)."""
    if not tag.is_hilbert:
        raise ValueError(f"{tag.kind} is not an inner-product norm")
    a, b = _rows(a, grid), _rows(b, grid)
    return (_gamma_rows(a, tag, s) * b) @ grid.component_weights()


def norm_rows(values: np.ndarray, grid: Grid, tag: NormTag = L2,
              s: SpectralLaplacian | None = None, dual: bool = False) -> np.ndarray:
    """Row-wise ||.||_U, or with ``dual`` the norm of U* for the U of ``tag``.
    Lp norms of several components combine as the l2 norm of the
    per-component norms."""
    v = _rows(values, grid)
    if tag.kind == "Lp":
        blocks, w = _blocks(v, grid)
        p = tag.p / (tag.p - 1.0) if dual else tag.p
        comp = np.add.reduce(w * np.abs(blocks) ** p, axis=-1) ** (1.0 / p)
        return np.sqrt(np.add.reduce(np.square(comp), axis=-1))
    gv = _gamma_rows(v, tag, s, -1 if dual else 1)
    return np.sqrt(np.maximum((gv * v) @ grid.component_weights(), 0.0))


def duality_rows(values: np.ndarray, grid: Grid, tag: NormTag,
                 s: SpectralLaplacian | None = None, inverse: bool = False) -> np.ndarray:
    """Row-wise duality mapping F of U: <F(u), u> = ||u||_U^2 and
    ||F(u)||_U* = ||u||_U; with ``inverse``, F^-1, the duality mapping of U*.

    F is the identity on L2, the power nonlinearity on Lp, the spectral
    Laplacian on H^1 and its inverse on H^-1 (whose dual pairing is the
    extended L2 pairing).
    """
    v = _rows(values, grid)
    if tag.kind == "Lp":
        blocks, w = _blocks(v, grid)
        q = tag.p / (tag.p - 1.0) if inverse else tag.p
        return _lp_map(blocks, w, q).reshape(v.shape)
    return np.array(_gamma_rows(v, tag, s, -1 if inverse else 1))


def resolvent_rows(values: np.ndarray, grid: Grid, tag: NormTag, eps: float, rho: float,
                   s: SpectralLaplacian | None = None) -> np.ndarray:
    """Row-wise exact resolvent (eps*F + N_K)^-1 zeta on the ball K = {||u||_U <= rho}.

    Positive homogeneity of F collapses the inclusion to a radial clamp:
    u = F^-1(zeta) * min(1/eps, rho/||zeta||_U*), and 0 at zeta = 0. For
    eps = 0 this is the normal-cone inverse rho F^-1(zeta)/||zeta||,
    undefined at zeta = 0.
    """
    if not rho > 0.0:
        raise ValueError("ball radius must be positive")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    nz = norm_rows(values, grid, tag, s, dual=True)
    if eps == 0.0:
        if np.any(nz == 0.0):
            raise IndeterminateSelectionError(
                "N_K^-1(0) is the whole ball; the caller must pick a selection"
            )
        scale = rho / nz
    else:
        scale = np.where(nz > 0.0, np.minimum(1.0 / eps, rho / np.maximum(nz, 1e-300)), 0.0)
    return duality_rows(values, grid, tag, s, inverse=True) * np.asarray(scale)[..., None]


def resolvent_derivative_rows(values: np.ndarray, directions: np.ndarray, grid: Grid,
                              tag: NormTag, eps: float, rho: float,
                              s: SpectralLaplacian | None = None) -> np.ndarray:
    """Row-wise generalized derivative D of the radial clamp ``resolvent_rows``
    at zeta, applied to dzeta, for a Hilbert tag (F linear).

    On rows with ||zeta||_* <= rho eps the clamp is F^-1/eps; on the others
    it is rho F^-1(zeta)/n with n = ||zeta||_*, whose derivative is
    (rho/n)(F^-1 dzeta - F^-1 zeta <F^-1 zeta, dzeta>/n^2). D is symmetric
    and nonnegative in the duality pairing.
    """
    if not tag.is_hilbert:
        raise ValueError(f"{tag.kind} has a nonlinear duality map")
    if not (rho > 0.0 and eps > 0.0):
        raise ValueError("rho and eps must be positive")
    z, dz = _rows(values, grid), _rows(directions, grid)
    w = grid.component_weights()
    fz = _gamma_rows(z, tag, s, -1)
    fdz = _gamma_rows(dz, tag, s, -1)
    nz = np.sqrt(np.maximum((fz * z) @ w, 0.0))  # as norm_rows(dual=True) forms it
    inside = np.asarray(nz <= rho * eps)
    n = np.where(inside, 1.0, nz)
    radial = (rho / n)[..., None] * (fdz - fz * (((fz * dz) @ w) / n**2)[..., None])
    return np.where(inside[..., None], fdz / eps, radial)


# ---------------------------------------------------------------------------
# Field-level operations: the one-row case of the kernels above


def _like(field: Field, values: np.ndarray) -> Field:
    return Field(field.grid, values, field.n_components)


def pairing(zeta: Field, u: Field) -> float:
    """Duality pairing <zeta, u>, the weighted nodal product."""
    return float(inner_rows(zeta.values, u.values, u.grid))


def inner_product(a: Field, b: Field, tag: NormTag = L2, s: SpectralLaplacian | None = None) -> float:
    """Inner product of two fields under a Hilbert norm tag."""
    a._check_compatible(b)
    return float(inner_rows(a.values, b.values, a.grid, tag, s))


def norm(a: Field, tag: NormTag = L2, s: SpectralLaplacian | None = None) -> float:
    return float(norm_rows(a.values, a.grid, tag, s))


def dual_norm(zeta: Field, tag: NormTag, s: SpectralLaplacian | None = None) -> float:
    """Norm of a U*-element for the U described by ``tag``."""
    return float(norm_rows(zeta.values, zeta.grid, tag, s, dual=True))


def gamma_apply(y: Field, s: SpectralLaplacian) -> Field:
    """Canonical isomorphism: (shift*I - Laplacian) y, applied per component."""
    return _like(y, _gamma_rows(_rows(y.values, y.grid), H1, s))


def yosida_apply(y: Field, s: SpectralLaplacian, nu: float) -> Field:
    """Yosida approximation Gamma (I + nu Gamma)^-1 y."""
    return _like(y, _blockwise(_rows(y.values, y.grid), s, lambda v: s.apply_yosida(v, nu)))


def gamma_power(y: Field, s: SpectralLaplacian, alpha: float) -> Field:
    """Spectral fractional power Gamma^alpha y, alpha in [-1, 1]."""
    return _like(y, _blockwise(_rows(y.values, y.grid), s, lambda v: s.apply_power(v, alpha)))


def duality_map_F(u: Field, tag: NormTag, s: SpectralLaplacian | None = None) -> Field:
    """Duality mapping F of U (see ``duality_rows``)."""
    return _like(u, duality_rows(u.values, u.grid, tag, s))


def duality_map_F_inverse(zeta: Field, tag: NormTag, s: SpectralLaplacian | None = None) -> Field:
    """F^-1, which is the duality mapping of U*."""
    return _like(zeta, duality_rows(zeta.values, zeta.grid, tag, s, inverse=True))


def resolvent_eF_NK(zeta: Field, tag: NormTag, eps: float, rho: float,
                    s: SpectralLaplacian | None = None) -> Field:
    """Exact resolvent (eps*F + N_K)^-1 zeta on the ball (see ``resolvent_rows``)."""
    return _like(zeta, resolvent_rows(zeta.values, zeta.grid, tag, eps, rho, s))
