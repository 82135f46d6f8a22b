"""Discrete function spaces: spectral Laplacians, norms and duality maps.

The canonical isomorphism of the discrete V onto V* is realized by a second
order finite-difference Laplacian (optionally shifted by the identity, as in
the reaction-diffusion examples where it is I - Laplacian). Every function
of it, powers and the inverse included, goes through one spectral calculus,
``SpectralLaplacian.apply_fn``, on one dense symmetric eigendecomposition
taken with respect to the trapezoid inner product, so the spectral
identities hold to essentially machine precision.

Each operation has one entry point. The ``SpectralLaplacian`` methods act on
one component's nodal values; the row kernels (``inner_rows``,
``norm_rows``, ``duality_rows``, ``duality_derivative_rows``,
``resolvent_rows`` and ``resolvent_derivative_rows``) give the norms,
duality maps and ball resolvent of a norm tag (L2, H1, L4 or Hminus1) and
their derivatives, on one row of values or a stack of rows. At
eps = 0 the resolvent is the bang-bang law, with the zero selection at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

import numpy as np
import scipy.linalg

from .grids import BoundaryCondition, Grid

__all__ = [
    "NormTag",
    "SpectralLaplacian",
    "SpectralSingularityError",
    "inner_rows",
    "norm_rows",
    "duality_rows",
    "duality_derivative_rows",
    "resolvent_rows",
    "resolvent_derivative_rows",
]


class SpectralSingularityError(ValueError):
    """Inverse requested of an operator with a zero eigenvalue."""


@dataclass(frozen=True)
class NormTag:
    """Role of a space: L2, H1, L4 or Hminus1.

    L4 is the one non-Hilbert tag, with the Lp formulas at p = 4. Hminus1 is
    the H^-1 norm through a Dirichlet Laplacian.
    """

    kind: str

    _KINDS = ("L2", "H1", "L4", "Hminus1")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown norm tag {self.kind!r}")

    @property
    def p(self) -> int | None:
        """The Lebesgue exponent of a non-Hilbert tag: 4 for L4, else None."""
        return 4 if self.kind == "L4" else None

    @property
    def is_hilbert(self) -> bool:
        return self.kind != "L4"

    @property
    def needs_spectral(self) -> bool:
        return self.kind in ("H1", "Hminus1")


L2 = NormTag("L2")
H1 = NormTag("H1")
HMINUS1 = NormTag("Hminus1")
L4 = NormTag("L4")


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
    """Eigendecomposition of (shift*I - Laplacian) on one component's nodes,
    under the grid's walls.

    2D grids use the tensor-product structure: per-axis decompositions,
    eigenvalues lambda_ij = lambda_i + lambda_j + shift. Eigenvectors are
    orthonormal in the discrete (trapezoid) L2 inner product.
    """

    def __init__(self, grid: Grid, shift: float = 0.0):
        self.grid = grid
        self.shift = float(shift)
        axes = []
        for n, h, w in zip(grid.nodes, grid.spacing(), grid.axis_weights()):
            m = _laplacian_matrix_1d(n, h, grid.bc)
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

    @cached_property
    def _lam(self) -> np.ndarray:
        """Unshifted eigenvalues, shape grid.nodes: the sums of the axis eigenvalues."""
        return reduce(np.add.outer, (ax.eigenvalues for ax in self._axes))

    @cached_property
    def _order(self) -> np.ndarray:
        """Flat indices of ``_lam`` in ascending order, ties kept in index order."""
        return np.argsort(self._lam.ravel(), kind="stable")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues (shift included), ascending."""
        return (self._lam.ravel() + self.shift)[self._order]

    def eigenvector(self, k: int) -> np.ndarray:
        """k-th eigenvector (matching ``eigenvalues`` order), flat nodal values."""
        idx = np.unravel_index(self._order[k], self.grid.nodes)
        return reduce(np.multiply.outer, (
            ax.eigenvectors[:, i] for ax, i in zip(self._axes, idx))).ravel().copy()

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense nodal matrix of (shift*I - Laplacian), the axis matrices' Kronecker sum."""
        eyes = [np.eye(n) for n in self.grid.nodes]
        return sum(reduce(np.kron, eyes[:k] + [ax.matrix] + eyes[k + 1:])
                   for k, ax in enumerate(self._axes)) + self.shift * np.eye(self.n)

    def apply_fn(self, values: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Apply fn(operator) spectrally along the last axis: one component's
        nodal values, shape (n,), or a stack of them, shape (rows, n); fn maps
        the shifted eigenvalues to the multipliers of the eigenvector coefficients."""
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.n:
            raise ValueError(f"expected {self.n} nodal values, got {v.shape[-1]}")
        mult = fn(self._lam + self.shift)
        if self.grid.dimension == 1:
            ax = self._axes[0]
            coef = (v.reshape(-1, self.n) * ax.weights) @ ax.eigenvectors
            return ((mult * coef) @ ax.eigenvectors.T).reshape(v.shape)
        ax, ay = self._axes
        V = v.reshape(-1, *self.grid.nodes)
        coef = ax.eigenvectors.T @ (ax.weights[:, None] * V * ay.weights[None, :]) @ ay.eigenvectors
        return (ax.eigenvectors @ (mult * coef) @ ay.eigenvectors.T).reshape(v.shape)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.apply_fn(values, lambda lam: lam)

    def apply_inverse(self, values: np.ndarray) -> np.ndarray:
        if self.min_eigenvalue <= 0.0:
            raise SpectralSingularityError("inverse of an operator with a zero eigenvalue; "
                                           "configure an identity shift")
        return self.apply_fn(values, lambda lam: np.power(lam, -1.0))


# ---------------------------------------------------------------------------
# Row kernels. Values live on a grid as (n_components * n,) or
# (rows, n_components * n) arrays, each component a contiguous block of n
# nodes; every kernel works along the last axis, so one element is one row.

# The spectral power a of each Hilbert tag: ||u||^2 = <Gamma^a u, u>, F = Gamma^a.
_GAMMA_POWER = {"L2": 0, "H1": 1, "Hminus1": -1}


def _require_spectral(tag: NormTag, s: SpectralLaplacian | None) -> SpectralLaplacian:
    if s is None:
        raise ValueError(f"norm tag {tag.kind} needs a SpectralLaplacian")
    if tag.kind == "Hminus1":
        if s.grid.bc.kind != "dirichlet":
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
    shape = (grid.n_components, grid.size)
    return v.reshape(v.shape[:-1] + shape), grid.component_weights.reshape(shape)


def _gamma_rows(v: np.ndarray, tag: NormTag, s: SpectralLaplacian | None,
                sign: int = 1) -> np.ndarray:
    """Gamma^(sign * a) per component block, a the tag's spectral power; the
    input itself when a = 0."""
    power = sign * _GAMMA_POWER[tag.kind]
    if power == 0:
        return v
    s = _require_spectral(tag, s)
    return (s.apply if power > 0 else s.apply_inverse)(v.reshape(-1, s.n)).reshape(v.shape)


def _lp_norms(values: np.ndarray, weights: np.ndarray, p: float) -> np.ndarray:
    """Lp norms along the last axis, kept as a length-1 axis:
    (sum w |v|^p)^(1/p), formed on one temporary."""
    t = np.abs(values)
    np.power(t, p, out=t)
    t *= weights
    return np.add.reduce(t, axis=-1, keepdims=True) ** (1.0 / p)


def _lp_combine(nrm: np.ndarray) -> np.ndarray:
    """The l2 norm of per-component Lp norms (..., components, 1)."""
    return np.sqrt(np.add.reduce(np.square(nrm[..., 0]), axis=-1))


def _lp_map(values: np.ndarray, weights: np.ndarray, p: float,
            nrm: np.ndarray | None = None) -> np.ndarray:
    """Duality map of Lp along the last axis, ||v||^(2-p) sign(v) |v|^(p-1);
    zero on zero rows. ``nrm`` is ``_lp_norms`` of the values, if known."""
    nrm = _lp_norms(values, weights, p) if nrm is None else nrm
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
    return (_gamma_rows(a, tag, s) * b) @ grid.component_weights


def norm_rows(values: np.ndarray, grid: Grid, tag: NormTag = L2,
              s: SpectralLaplacian | None = None, dual: bool = False) -> np.ndarray:
    """Row-wise ||.||_U, or with ``dual`` the norm of U* for the U of ``tag``.
    Lp norms of several components combine as the l2 norm of the
    per-component norms."""
    v = _rows(values, grid)
    if tag.kind == "L4":
        blocks, w = _blocks(v, grid)
        return _lp_combine(_lp_norms(blocks, w, tag.p / (tag.p - 1.0) if dual else tag.p))
    gv = _gamma_rows(v, tag, s, -1 if dual else 1)
    return np.sqrt(np.maximum((gv * v) @ grid.component_weights, 0.0))


def duality_rows(values: np.ndarray, grid: Grid, tag: NormTag,
                 s: SpectralLaplacian | None = None, inverse: bool = False) -> np.ndarray:
    """Row-wise duality mapping F of U: <F(u), u> = ||u||_U^2 and
    ||F(u)||_U* = ||u||_U; with ``inverse``, F^-1, the duality mapping of U*.

    F is the identity on L2, the power nonlinearity on Lp, the spectral
    Laplacian on H^1 and its inverse on H^-1 (whose dual pairing is the
    extended L2 pairing).
    """
    v = _rows(values, grid)
    if tag.kind == "L4":
        blocks, w = _blocks(v, grid)
        q = tag.p / (tag.p - 1.0) if inverse else tag.p
        return _lp_map(blocks, w, q).reshape(v.shape)
    return np.array(_gamma_rows(v, tag, s, -1 if inverse else 1))


def duality_derivative_rows(values: np.ndarray, directions: np.ndarray, grid: Grid,
                            tag: NormTag, s: SpectralLaplacian | None = None,
                            inverse: bool = False) -> np.ndarray:
    """Row-wise derivative of ``duality_rows`` at ``values``, applied to
    ``directions``: DF, or with ``inverse`` DF^-1.

    A Hilbert tag's F is linear, so this is F (or F^-1) of the directions.
    On Lp the map of a component block v is ||v||^(2-q) s with
    s = sign(v) |v|^(q-1) (q = p, or p/(p-1) for F^-1), and its derivative is
    ||v||^(2-q) ((q-1) |v|^(q-2) dv + (2-q) s <s, dv>/||v||^q). A zero block
    takes the map at dv, the directional derivative of an odd, positively
    1-homogeneous map; a zero entry of a nonzero block, where |v|^(q-2) is
    unbounded for q < 2, takes 0 for that term.
    """
    v, dv = _rows(values, grid), _rows(directions, grid)
    if tag.kind != "L4":
        return np.array(_gamma_rows(dv, tag, s, -1 if inverse else 1))
    (blocks, w), dblocks = _blocks(v, grid), _blocks(dv, grid)[0]
    q = tag.p / (tag.p - 1.0) if inverse else tag.p
    a = np.abs(blocks)
    nrm = _lp_norms(blocks, w, q)
    zero = nrm == 0.0
    nrm = np.where(zero, 1.0, nrm)
    sv = np.sign(blocks) * a ** (q - 1.0)
    diag = np.where(a > 0.0, a, 1.0) ** (q - 2.0) * (a > 0.0)
    sdv = np.sum(w * sv * dblocks, axis=-1, keepdims=True)
    out = nrm ** (2.0 - q) * ((q - 1.0) * diag * dblocks + (2.0 - q) * sv * sdv / nrm**q)
    out = np.where(zero, _lp_map(dblocks, w, q), out)
    return out.reshape(*out.shape[:-2], -1)


def resolvent_rows(values: np.ndarray, grid: Grid, tag: NormTag, eps: float, rho: float,
                   s: SpectralLaplacian | None = None) -> np.ndarray:
    """Row-wise exact resolvent (eps*F + N_K)^-1 zeta on the ball K = {||u||_U <= rho}.

    Positive homogeneity of F collapses the inclusion to a radial clamp:
    u = F^-1(zeta) * min(1/eps, rho/||zeta||_U*), and 0 at zeta = 0. At
    eps = 0 it is the bang-bang law rho F^-1(zeta)/||zeta||_U*, with the
    zero selection at zeta = 0 (where N_K^-1(0) is the whole ball).
    """
    if not rho > 0.0:
        raise ValueError("ball radius must be positive")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if tag.kind == "L4":  # the dual norm and F^-1 share the component norms
        v = _rows(values, grid)
        blocks, w = _blocks(v, grid)
        q = tag.p / (tag.p - 1.0)
        comp = _lp_norms(blocks, w, q)
        nz = _lp_combine(comp)
        finv = _lp_map(blocks, w, q, comp).reshape(v.shape)
    else:
        nz = norm_rows(values, grid, tag, s, dual=True)
        finv = duality_rows(values, grid, tag, s, inverse=True)   # F^-1(0) = 0
    if eps == 0.0:
        finv *= rho
        finv /= np.maximum(nz, 1e-300)[..., None]
        return finv
    return finv * np.minimum(1.0 / eps, rho / np.maximum(nz, 1e-300))[..., None]


def resolvent_derivative_rows(values: np.ndarray, directions: np.ndarray, grid: Grid,
                              tag: NormTag, eps: float, rho: float,
                              s: SpectralLaplacian | None = None) -> np.ndarray:
    """Row-wise generalized derivative D of the radial clamp ``resolvent_rows``
    at zeta, applied to dzeta.

    On rows with ||zeta||_* <= rho eps the clamp is F^-1/eps, with derivative
    DF^-1(zeta)/eps; on the others it is rho F^-1(zeta)/n with
    n = ||zeta||_*, and since dn = <F^-1 zeta, dzeta>/n its derivative is
    (rho/n)(DF^-1(zeta) dzeta - F^-1 zeta <F^-1 zeta, dzeta>/n^2). D is
    symmetric and nonnegative in the duality pairing: it is the derivative
    of the gradient of a convex function.
    """
    if not (rho > 0.0 and eps > 0.0):
        raise ValueError("rho and eps must be positive")
    z, dz = _rows(values, grid), _rows(directions, grid)
    w = grid.component_weights
    fz = duality_rows(z, grid, tag, s, inverse=True)
    fdz = duality_derivative_rows(z, dz, grid, tag, s, inverse=True)
    nz = np.sqrt(np.maximum((fz * z) @ w, 0.0))  # ||zeta||_*^2 = <F^-1 zeta, zeta>
    inside = np.asarray(nz <= rho * eps)
    n = np.where(inside, 1.0, nz)
    radial = (rho / n)[..., None] * (fdz - fz * (((fz * dz) @ w) / n**2)[..., None])
    return np.where(inside[..., None], fdz / eps, radial)
