"""The nonlinear evolution operators and control maps of the example catalog.

Each operator kind realizes one configuration A_H of the abstract equation
y' + A_H y = Bu on its own functional frame: the diffusion equation with
potential and drift, the porous medium equation (state space H^-1), the
two-component reaction-diffusion systems (FitzHugh-Nagumo is the linear pair
whose second component does not diffuse, d2 = 0) and the Caginalp
phase-field system.

Every A_H is a nearest-neighbour stencil (the Laplacian and the drift) plus
a nodal reaction, so in node-major order (the components of one node
adjacent) its linearization A'(y) is banded. Each kind writes its stencils
once, in LAPACK band storage: a cached y-independent band built from the
per-axis 1D stencils, plus the y-dependent nodal diagonals, the derivative
of the nodal reaction written beside it. ``apply`` is that cached band times
y (``dgbmv``) plus the reaction. ``StepFactor`` factors I + dt A'(y) from
the same band with ``dgbtrf``, where the forward Newton step updates (its
first one may reuse the previous interval's) and where a sweep steps: one
``march`` (the variation, and a linear kind's open-loop forward solve) and
one ``march_adjoint`` (the exact transpose, ``dgbtrs`` with ``trans=1``,
never a separate discretization) serve every kind, a linear one on one
factor. No operator holds a factor or a dense n_dof x n_dof matrix.

States follow the row convention of ``spaces``: ``apply``, ``state_inner``,
``h_norm``, ``metric_apply``/``metric_solve`` and the V-norms take one state
(n_dof,) or a stack of them (rows, n_dof) and work along the last axis. The
H geometry is the row kernels under ``state_tag`` (``inner_rows``,
``norm_rows``, ``duality_rows``). A stacked ``apply`` permutes and pads the
whole stack once and collects each row's ``dgbmv`` in one buffer; each row
is bit for bit the single-state product, as each step of a march is the
solve of its right-hand side with its step's factor. Every return from
node-major to component-major order is one gather on ``node_back``, the
inverse of ``node_order`` that each operator caches once: ``np.take`` along
the rows of a stack, a fancy index on one state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .grids import Grid
from .nonlinearities import PAIR_FAMILIES, PairFn, ScalarFn, pair_fn, scalar_fn
from .spaces import (
    H1,
    HMINUS1,
    L2,
    NormTag,
    SpectralLaplacian,
    _laplacian_matrix_1d,
    duality_rows,
    inner_rows,
    norm_rows,
    resolvent_derivative_rows,
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
    "StepFactor",
    "march",
    "march_adjoint",
]

# Node diagonals: a one-component nodal matrix M as {s: d}, d[j] = M[j - s, j]
# over the flat C-ordered node index j (s > 0 above the diagonal).


def _axis_diagonals(m: np.ndarray) -> dict[int, np.ndarray]:
    """Node diagonals of a tridiagonal 1D matrix."""
    n = m.shape[0]
    up, down = np.zeros(n), np.zeros(n)
    up[1:] = np.diagonal(m, 1)
    down[:-1] = np.diagonal(m, -1)
    return {0: np.diagonal(m).copy(), 1: up, -1: down}


def _lift(grid: Grid, m: np.ndarray, axis: int) -> dict[int, np.ndarray]:
    """Node diagonals of the 1D matrix ``m`` acting along ``axis`` of the node
    array (kron(m, I) or kron(I, m) in 2D)."""
    shape = [1] * grid.dimension
    shape[axis] = -1
    stride = int(np.prod(grid.nodes[axis + 1:]))
    return {s * stride: np.broadcast_to(d.reshape(shape), grid.nodes).ravel()
            for s, d in _axis_diagonals(m).items()}


def _add_diagonals(*parts: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    for part in parts:
        for s, d in part.items():
            out[s] = out[s] + d if s in out else d
    return out


def _scaled(c: float, diags: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    return {s: c * d for s, d in diags.items()}


class StepFactor:
    """LU factors of I + dt A'(y), from LAPACK ``dgbtrf`` on the node-major band.

    ``solve(r)`` returns (I + dt A'(y))^-1 r on component-major vectors.
    """

    def __init__(self, spec: "OperatorSpec", y: np.ndarray, dt: float):
        bw = spec.bandwidth
        # dgbtrf factors in place and needs bw extra rows on top for the fill
        ab = np.zeros((3 * bw + 1, spec.n_dof), order="F")
        ab[bw:] = dt * spec.band(y)
        ab[2 * bw] += 1.0
        self.lu, self.piv, info = dgbtrf(ab, bw, bw, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"I + dt A'(y) is singular (dgbtrf info {info}) at dt = {dt!r}")
        self.bw = bw
        self.order, self.back = spec.node_order, spec.node_back

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = dgbtrs(self.lu, self.bw, self.bw, rhs[self.order], self.piv, overwrite_b=1)
        return x[self.back]


def march(spec: "OperatorSpec", at: np.ndarray, dt: float, x0: np.ndarray,
          forcing: np.ndarray) -> np.ndarray:
    """The states x_k = S_k (x_{k-1} + f_k), k = 1..K, from x0 (n_dof,) and
    the rows f_k of ``forcing`` (K, n_dof), as the rows x_0 .. x_K. Step k
    factors S_k = (I + dt A'(at[k]))^-1 when the march reaches it (a linear
    kind once, at at[0]: its factor is state-free) and solves with one bare
    ``dgbtrs`` in node-major order, bit for bit the solve of its step."""
    bw, order = spec.bandwidth, spec.node_order
    linear = StepFactor(spec, at[0], dt) if spec.is_linear and len(forcing) else None
    xs = np.empty((len(forcing) + 1, order.size))
    x = xs[0] = x0[order]
    np.take(forcing, order, axis=1, out=xs[1:], mode="clip")  # "clip": out= unbuffered
    for k in range(1, len(xs)):
        f = linear or StepFactor(spec, at[k], dt)
        x = xs[k] = dgbtrs(f.lu, bw, bw, x + xs[k], f.piv, overwrite_b=1)[0]
        del f  # the next step's factor is made without this one alive
    return np.take(xs, spec.node_back, axis=1)


def march_adjoint(spec: "OperatorSpec", at: np.ndarray, dt: float,
                  p_K: np.ndarray) -> np.ndarray:
    """The adjoint rows p_{k-1} = M^-1 S_k^T M p_k, k = K..1, with S_k as in
    ``march``, K = len(at) - 1 and M the state metric (<a, b>_H = a^T M b),
    from p_K (n_dof,); returned as the rows p_0 .. p_K."""
    bw, order, back = spec.bandwidth, spec.node_order, spec.node_back
    linear = StepFactor(spec, at[0], dt) if spec.is_linear and len(at) > 1 else None
    l2 = spec.state_tag == L2
    w = spec.grid.component_weights[order]  # M under L2, node-major alike
    ps = np.empty((len(at), order.size))
    p = ps[-1] = p_K[order]
    for k in range(len(at) - 1, 0, -1):
        f = linear or StepFactor(spec, at[k], dt)
        if l2:
            q = dgbtrs(f.lu, bw, bw, w * p, f.piv, trans=1, overwrite_b=1)[0]
            p = ps[k - 1] = q / w
        else:  # M acts on component-major states: each step permutes to it and back
            q = dgbtrs(f.lu, bw, bw, spec.metric_apply(p[back])[order], f.piv, trans=1,
                       overwrite_b=1)[0]
            p = ps[k - 1] = spec.metric_solve(q[back])[order]
        del f
    return np.take(ps, back, axis=1)


class OperatorSpec:
    """Base class: a configured A_H with its derivative and inner products.

    Subclasses define the blocks of their linearization as (row component,
    column component, values) triples (``_base_blocks()``, the y-independent
    node diagonals; ``_nodal_blocks(y)``, the node diagonal at y), the nodal
    reaction that ``_nodal_blocks`` linearizes (``_reaction``) and the
    components that V measures with Gamma_H (``v_gamma``). ``state_tag`` is
    the H of the example: L2 except for the porous medium, whose H is H^-1.
    """

    grid: Grid
    state_tag: NormTag = L2
    is_linear: bool = False

    @cached_property
    def n_components(self) -> int:
        return self.grid.n_components

    @cached_property
    def n_dof(self) -> int:
        return self.grid.size * self.n_components

    @cached_property
    def gamma_op(self) -> SpectralLaplacian:
        """The canonical isomorphism Gamma_H used for V-norms and powers:
        -Lap on the grid's walls, shifted by the identity under Neumann walls
        so that it is invertible."""
        return SpectralLaplacian(self.grid, shift=1.0 if self.grid.bc.kind == "neumann" else 0.0)

    @cached_property
    def _lap_diagonals(self) -> dict[int, np.ndarray]:
        """Node diagonals of the unshifted -Lap on the grid's walls."""
        g = self.grid
        return _add_diagonals(*(
            _lift(g, _laplacian_matrix_1d(n, h, g.bc), axis)
            for axis, (n, h) in enumerate(zip(g.nodes, g.spacing()))))

    @property
    def v_gamma(self) -> tuple[bool, ...]:
        """Per component: whether V measures it with Gamma_H (else with L2)."""
        return (True,) * self.n_components

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Nodal A_H y of a state (n_dof,) or of each row of a stack
        (rows, n_dof): the y-independent band times y plus the reaction."""
        y = self._check_dof(y)
        out = self._band_dot(self._band_apply, y)
        out += self._reaction(y)
        return out

    def held_block_apply(self, yhat: np.ndarray,
                         free: int) -> Callable[[np.ndarray], np.ndarray]:
        """A_H(yhat) with its free block, from index ``free`` on, zeroed, as
        a function of that block: ``at(z)`` is the row for yhat[free:] = z.
        yhat (n_dof,) is the method's to write; the row may be one buffer,
        rewritten at each call. Here ``at`` writes z into yhat, applies and
        zeroes; a kind whose held rows need less may compute only those."""
        def at(z: np.ndarray) -> np.ndarray:
            yhat[free:] = z
            out = self.apply(yhat)
            out[free:] = 0.0
            return out

        return at

    # -- the linearization in band storage ----------------------------------

    @cached_property
    def bandwidth(self) -> int:
        """Half-bandwidth of A'(y) in node-major order."""
        nc = self.n_components
        return nc * int(np.prod(self.grid.nodes[1:])) + nc - 1

    @cached_property
    def node_order(self) -> np.ndarray:
        """The component-major dof index at each node-major position."""
        return np.arange(self.n_dof).reshape(self.n_components, -1).T.ravel()

    @cached_property
    def node_back(self) -> np.ndarray:
        """The node-major position of each component-major dof, the inverse of
        ``node_order``: every return to component-major order gathers on it."""
        return np.argsort(self.node_order)

    @cached_property
    def _band_base(self) -> np.ndarray:
        # Fortran order, as dgbmv takes it without a copy; the (a, b) block's
        # node diagonal s lies on band row bw - (s nc + b - a), columns b::nc
        nc, bw = self.n_components, self.bandwidth
        ab = np.zeros((2 * bw + 1, self.n_dof), order="F")
        for a, b, diags in self._base_blocks():
            for s, d in diags.items():
                ab[bw - (s * nc + b - a), b::nc] += d
        return ab

    @cached_property
    def _band_apply(self) -> np.ndarray:
        """``_band_base`` with the zero columns that ``_band_dot`` needs, made once."""
        ab, pad = self._band_base, max(0, 2 * self.bandwidth + 1 - self.n_dof)
        return np.asfortranarray(np.pad(ab, ((0, 0), (0, pad)))) if pad else ab

    def _band_dot(self, ab: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The product of a band in the storage of ``band``, widened by zero
        columns to the m = max(n, 2 bw + 1) that scipy's dgbmv requires (as
        ``_band_apply``), with a component-major vector, or with each row of a
        stack of them, returned component-major. One state, as each Newton
        iterate, is one ``dgbmv`` on its node-major copy, padded when m > n.
        A stack is permuted and padded once, and each row's ``dgbmv`` goes
        into one buffer."""
        order, back, bw = self.node_order, self.node_back, self.bandwidth
        n, m = order.size, ab.shape[1]
        if x.ndim == 1:
            xs = x[order] if m == n else np.concatenate([x[order], np.zeros(m - n)])
            return dgbmv(m, m, bw, bw, 1.0, ab, xs)[back]
        xs = np.zeros((x.size // n, m))
        xs[:, :n] = x.reshape(-1, n)[:, order]
        ys = np.array([dgbmv(m, m, bw, bw, 1.0, ab, row) for row in xs]).reshape(-1, m)
        return np.take(ys, back, axis=1).reshape(x.shape)

    def band(self, y: np.ndarray) -> np.ndarray:
        """A'(y) in band storage, ab[bw + i - j, j] = A'[i, j], for node-major
        indices i, j (``node_order`` maps them to component-major ones)."""
        y = self._check_dof(y)
        nc, bw = self.n_components, self.bandwidth
        ab = self._band_base.copy(order="F")
        for a, b, vals in self._nodal_blocks(y):  # node diagonal s = 0
            ab[bw - (b - a), b::nc] += vals
        return ab

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        """Dense component-major A'(y): the expansion of ``band``."""
        ab = self.band(y)
        bw, n = self.bandwidth, self.n_dof
        j = np.broadcast_to(np.arange(n), ab.shape)
        i = j + np.arange(-bw, bw + 1)[:, None]
        keep = (i >= 0) & (i < n)
        out = np.zeros((n, n))
        order = self.node_order
        out[order[i[keep]], order[j[keep]]] = ab[keep]
        return out

    # -- state (H) geometry: the row kernels under state_tag -----------------

    def state_inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(a, b)_H of two states (n_dof,), or row-wise over stacks (rows, n_dof)."""
        return inner_rows(a, b, self.grid, self.state_tag, self.gamma_op)

    def h_norm(self, y: np.ndarray) -> np.ndarray:
        """||y||_H of a state (n_dof,) or of each row of a stack (rows, n_dof)."""
        return norm_rows(y, self.grid, self.state_tag, self.gamma_op)

    def metric_apply(self, v: np.ndarray) -> np.ndarray:
        """M v with <a, b>_H = a^T M b, on a state or on each row of a stack."""
        g = self.grid
        return g.component_weights * duality_rows(v, g, self.state_tag, self.gamma_op)

    def metric_solve(self, v: np.ndarray) -> np.ndarray:
        """M^-1 v, on a state or on each row of a stack."""
        g = self.grid
        return duality_rows(v / g.component_weights, g, self.state_tag, self.gamma_op,
                            inverse=True)

    # -- V norm and its dual -------------------------------------------------

    def v_norms(self, y: np.ndarray) -> np.ndarray:
        """||y||_V of a state (n_dof,) or of each row of a stack (rows, n_dof):
        <Gamma_H y_c, y_c> on the components ``v_gamma`` marks, L2 on the rest."""
        return self._v_rows(y, dual=False)

    def vstar_norms(self, v: np.ndarray) -> np.ndarray:
        """||v||_V* for V* the dual of V in the state pairing: the dual V-norm
        of the H-Riesz image of v (v itself in L2, Gamma^-1 v in H^-1)."""
        return self._v_rows(duality_rows(v, self.grid, self.state_tag, self.gamma_op),
                            dual=True)

    def _v_rows(self, y: np.ndarray, dual: bool) -> np.ndarray:
        gam = np.repeat(self.v_gamma, self.grid.size)
        return np.hypot(norm_rows(np.where(gam, y, 0.0), self.grid, H1, self.gamma_op, dual),
                        norm_rows(np.where(gam, 0.0, y), self.grid))

    def _check_dof(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 0 or y.shape[-1] != self.n_dof:
            raise ValueError(f"expected {self.n_dof} dof per row, got shape {y.shape}")
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
        self.is_linear = self.beta.name in ("zero", "linear")

    @cached_property
    def _drift_diagonals(self) -> dict[int, np.ndarray]:
        """Node diagonals of -div(b .), centered differences, zero boundary rows.

        Under Dirichlet walls the stored nodes are interior and (b y)
        vanishes on the wall, so every row keeps its stencil; otherwise the
        wall rows stay zero (b.nu = 0 by reflection). In 2D the 1D stencil
        acts along each axis of the C-ordered node array.
        """
        g = self.grid
        b = self.b
        baxes = b if isinstance(b, (tuple, list)) else (b,) * g.dimension
        parts = []
        for axis, (n, h) in enumerate(zip(g.nodes, g.spacing())):
            stencil = np.eye(n, k=-1) - np.eye(n, k=1)
            if g.bc.kind != "dirichlet":
                stencil[[0, -1]] = 0.0
            braw = np.asarray(baxes[axis], dtype=float)
            barr = np.full(g.size, float(braw)) if braw.ndim == 0 else braw.ravel()
            parts.append({s: d * barr / (2 * h) for s, d in _lift(g, stencil, axis).items()})
        return _add_diagonals(*parts)

    @cached_property
    def _a1_arr(self) -> np.ndarray:
        arr = np.asarray(self.a1, dtype=float)
        if arr.ndim == 0:
            return np.full(self.grid.size, float(arr))
        return arr.ravel()

    def _base_blocks(self):
        return [(0, 0, self._lap_diagonals), (0, 0, self._drift_diagonals)]

    def _reaction(self, y):
        return self.beta(y) + self._a1_arr * y

    def _nodal_blocks(self, y):
        return [(0, 0, self.beta.d(y) + self._a1_arr)]


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
        if self.grid.bc.kind != "dirichlet":
            raise ValueError("PorousMedia uses Dirichlet boundary conditions")
        if not self.beta.monotone_floor > 0.0:
            raise ValueError("porous medium needs beta' >= a0 > 0")
        if not self.beta.growth_exponent < 1.0:
            raise ValueError("porous medium is the slow diffusion case: kappa < 1")
        self.is_linear = self.beta.name == "linear"

    # H = H^-1 and V = L2 in the porous-medium frame
    state_tag = HMINUS1
    v_gamma = (False,)

    def _base_blocks(self):
        return [(0, 0, self._lap_diagonals)]

    def apply(self, y: np.ndarray) -> np.ndarray:
        # -Lap beta(y): the Laplacian's band applied to beta(y)
        return self._band_dot(self._band_apply, self.beta(self._check_dof(y)))

    def band(self, y: np.ndarray) -> np.ndarray:
        # -Lap beta'(y): column j of the Laplacian scaled by beta'(y_j)
        return self._band_base * self.beta.d(self._check_dof(y))[None, :]


class _TwoComponent(OperatorSpec):
    """Shared plumbing of the two-component reaction-diffusion kinds."""

    def _split(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.grid.size
        return w[..., :n], w[..., n:]


@dataclass
class ReactionDiffusion2(_TwoComponent):
    """Two coupled reaction-diffusion equations with Neumann walls.

    A(y, z) = (-D1 Lap y + f(y, z), -D2 Lap z + g(y, z)). The canonical
    isomorphism is I - Lap per component, as required for invertibility
    under Neumann conditions. D1 > 0 and D2 >= 0: a second component without
    diffusion (D2 = 0) is measured in plain L2, so V = H^1 x L2.
    """

    grid: Grid
    d1: float = 1.0
    d2: float = 1.0
    f: PairFn = PairFn("zero2")
    g: PairFn = PairFn("zero2")

    def __post_init__(self):
        if self.grid.n_components != 2:
            raise ValueError("ReactionDiffusion2 has two components")
        if not (self.d1 > 0.0 and self.d2 >= 0.0):
            raise ValueError("diffusivities need d1 > 0 and d2 >= 0")
        self.is_linear = self.f.is_linear and self.g.is_linear

    @property
    def v_gamma(self) -> tuple[bool, ...]:
        return (True, self.d2 > 0.0)

    def _base_blocks(self):
        return [(0, 0, _scaled(self.d1, self._lap_diagonals)),
                (1, 1, _scaled(self.d2, self._lap_diagonals))]

    @cached_property
    def _family_columns(self) -> tuple[tuple, list[np.ndarray]] | None:
        """When f and g share a family with parameters: the family's functions
        and each parameter as the (2, 1) column [f's, g's]: one call evaluates
        both on a stack, with tanh and cosh once a point (one state: ``_family_flat``)."""
        f, g = self.f, self.g
        if f.name != g.name or not f.params:
            return None
        return PAIR_FAMILIES[f.name], [np.array([[a], [b]]) for a, b in zip(f.params, g.params)]

    @cached_property
    def _family_flat(self) -> tuple:
        """One state's form of ``_family_columns`` (fewer ufunc calls than the
        columns' broadcast): the value, the gathers of each dof's (y, z) and
        each parameter per dof, [f's] * n + [g's] * n."""
        (fns, cols), n = self._family_columns, self.grid.size
        iy = np.tile(np.arange(n), 2)
        return fns[0], iy, iy + n, [np.repeat(c.ravel(), n) for c in cols]

    def _fg(self, which: int, y: np.ndarray, z: np.ndarray):
        """(f, g), (f_y, g_y) or (f_z, g_z) at (y, z) for ``which`` 0, 1, 2:
        f's at index 0 and g's at index 1 of a pair or of a (2, ...) array."""
        if self._family_columns is None:
            part = (PairFn.__call__, PairFn.dy, PairFn.dz)[which]
            return part(self.f, y, z), part(self.g, y, z)
        fns, cols = self._family_columns
        if y.ndim > 1:  # (2, 1, ..., 1) columns against a stack of rows
            cols = [c.reshape((2,) + (1,) * y.ndim) for c in cols]
        return fns[which](y, z, *cols)

    def _reaction(self, w):
        if w.ndim == 1 and self._family_columns is not None:
            fn, iy, iz, params = self._family_flat  # one state's [f, g] in one call
            return fn(w[iy], w[iz], *params)
        fg = self._fg(0, *self._split(w))
        return np.concatenate(fg, axis=-1)

    def held_block_apply(self, yhat, free):
        """With the second component free, the first rows of A_H(yhat) are
        -D1 Lap y + f(y, z) at the held y: the base band has no (0, 1) block,
        so the band rows read z only through zero entries, which leave each
        row's ``dgbmv`` sum as it is (a sum from +0.0 is never -0.0). They are
        taken once, and each call adds f(y, z) on the n first dofs alone,
        bit for bit the rows of ``apply`` with z in yhat; the free block of
        the returned buffer stays +0.0, as P leaves it."""
        n = self.grid.size
        if free != n:
            return super().held_block_apply(yhat, free)
        out = np.zeros(self.n_dof)
        head, y = out[:n], yhat[:n].copy()
        band_rows = self._band_dot(self._band_apply, yhat)[:n]
        fn, params = PAIR_FAMILIES[self.f.name][0], self.f.params

        def at(z: np.ndarray) -> np.ndarray:
            np.add(band_rows, fn(y, z, *params), out=head)
            return out

        return at

    def _nodal_blocks(self, w):
        y, z = self._split(w)
        d_y, d_z = self._fg(1, y, z), self._fg(2, y, z)
        return [(0, 0, d_y[0]), (0, 1, d_z[0]), (1, 0, d_y[1]), (1, 1, d_z[1])]


def FitzHughNagumo(grid: Grid, alpha0: float = 1.0, sigma: float = 1.0, gamma: float = 1.0,
                   d1: float = 1.0) -> ReactionDiffusion2:
    """FitzHugh-Nagumo: the pair f = alpha0 y + z, g = -sigma y + gamma z
    whose second component does not diffuse (D2 = 0, V = H^1 x L2)."""
    return ReactionDiffusion2(grid, d1, 0.0, pair_fn("linear2", alpha0, 1.0),
                              pair_fn("linear2", -sigma, gamma))


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

    def _base_blocks(self):
        lap = self._lap_diagonals
        return [(0, 0, _scaled(self.k, lap)), (0, 1, _scaled(-self.k * self.l, lap)),
                (1, 0, {0: np.full(self.grid.size, -self.gamma)}),
                (1, 1, _scaled(self.nu, lap))]

    def _reaction(self, w):
        _, phi = self._split(w)
        return np.concatenate([np.zeros_like(phi),
                               self.beta(phi) + self.pi(phi) + self.gamma * self.l * phi],
                              axis=-1)

    def _nodal_blocks(self, w):
        _, phi = self._split(w)
        return [(1, 1, self.beta.d(phi) + self.pi.d(phi) + self.gamma * self.l)]


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
            if self.u_tag.needs_spectral:
                raise ValueError("spectral control norms require the state grid")
            self.kernel = np.asarray(self.kernel, dtype=float)

    # -- shapes ---------------------------------------------------------------

    def ugrid(self, spec: OperatorSpec) -> Grid:
        return self.control_grid if self.mode == "nonlocal" else spec.grid

    def control_size(self, spec: OperatorSpec) -> int:
        g = self.ugrid(spec)
        return g.size * g.n_components

    def _uspace(self, spec: OperatorSpec) -> tuple[Grid, NormTag, SpectralLaplacian | None]:
        """The grid, norm tag and spectral operator of U, as the row kernels
        take them (a spectral tag lives on the state grid)."""
        return self.ugrid(spec), self.u_tag, spec.gamma_op if self.u_tag.needs_spectral else None

    # -- B and B* -------------------------------------------------------------

    def _kernel(self, spec: OperatorSpec) -> np.ndarray:
        """The nonlocal kernel, which maps onto the nodes of a one-component state."""
        if spec.n_components != 1:
            raise ValueError(f"a nonlocal control acts on 1 component, not {spec.n_components}")
        if self.kernel.shape != (spec.grid.size, self.control_grid.size):
            raise ValueError(f"kernel shape {self.kernel.shape} does not match state x control "
                             f"({spec.grid.size} x {self.control_grid.size})")
        return self.kernel

    def apply_B(self, spec: OperatorSpec, u: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """B u for one control (m,) or a stack of them (rows, m), in a fresh
        array or written into ``out`` (a stepping loop's buffer)."""
        u = np.asarray(u, dtype=float)
        # control_size, without its calls: a pointwise control has n_dof entries
        m = self.control_grid.size if self.mode == "nonlocal" else spec.n_dof
        if u.shape[-1] != m:
            raise ValueError(f"expected {m} control dof, got {u.shape[-1]}")
        if self.mode == "nonlocal":
            return np.matmul(u * self.control_grid.weights, self._kernel(spec).T, out=out)
        out = np.empty(u.shape) if out is None else out
        out[...] = u
        if self.mode == "first_component":
            out[..., spec.grid.size:].fill(0.0)
        return out

    def apply_Bstar(self, spec: OperatorSpec, v: np.ndarray) -> np.ndarray:
        """B* v as a U*-element, <u, B*v> = (Bu, v)_H exactly, for one state
        (n_dof,) or a stack of them (rows, n_dof)."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != spec.n_dof:
            raise ValueError(f"expected {spec.n_dof} state dof, got {v.shape[-1]}")
        if self.mode == "nonlocal":
            return (v * spec.grid.component_weights) @ self._kernel(spec)
        # the H-Riesz image of v: v itself in L2, Gamma^-1 v in H^-1
        out = duality_rows(v, spec.grid, spec.state_tag, spec.gamma_op)
        if self.mode == "first_component":
            out[..., spec.grid.size:].fill(0.0)
        return out

    # -- projections ------------------------------------------------------------

    def project_state(self, spec: OperatorSpec, v: np.ndarray, copy: bool = True) -> np.ndarray:
        """P v for a state (n_dof,) or each row of a stack: a fresh array, or
        with ``copy`` False a float array v itself, projected in place."""
        out = np.asarray(v, dtype=float)
        if copy:
            out = out.copy()
        if self.projection == "first":
            out[..., spec.grid.size:].fill(0.0)
        return out

    def auxiliary_state(self, spec: OperatorSpec, y: np.ndarray,
                        y_tar: np.ndarray) -> np.ndarray:
        """yhat: the target on the controlled components, the running value
        elsewhere (the paper's choice of the second component)."""
        y = np.asarray(y, dtype=float)
        if self.projection == "full":
            return np.broadcast_to(np.asarray(y_tar, dtype=float), y.shape).copy()
        out = y.copy()
        out[..., : spec.grid.size] = np.asarray(y_tar)[..., : spec.grid.size]
        return out

    # -- U-space geometry: one control is one row of a (rows, m) stack ----------

    def u_norms_batch(self, spec: OperatorSpec, U: np.ndarray) -> np.ndarray:
        return norm_rows(U, *self._uspace(spec))

    def u_norm_sup_bound(self, spec: OperatorSpec) -> float | None:
        """K with ||u||_U <= K max|u| for every control row u under an Lp
        norm (L2, L4): each component's norm is at most max|u| W_c^(1/p), W_c
        its weight total, and the components combine in l2, so
        K = sqrt(sum_c W_c^(2/p)). None under a spectral norm."""
        if self.u_tag.needs_spectral:
            return None
        g = self.ugrid(spec)
        totals = g.component_weights.reshape(g.n_components, g.size).sum(axis=1)
        return float(np.sqrt(np.sum(totals ** (2.0 / (self.u_tag.p or 2)))))

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

    def resolvent_derivative_batch(self, spec: OperatorSpec, Z: np.ndarray, dZ: np.ndarray,
                                   eps: float, rho: float) -> np.ndarray:
        """The clamp derivative of ``resolvent_batch`` at the rows Z, applied
        to the rows dZ."""
        g, tag, s = self._uspace(spec)
        return resolvent_derivative_rows(Z, dZ, g, tag, eps, rho, s)

    def u_pairing(self, spec: OperatorSpec, zeta: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Row-wise duality pairing <zeta, u> of U* against U."""
        return inner_rows(zeta, u, self.ugrid(spec))

    def project_control_batch(self, spec: OperatorSpec, U: np.ndarray) -> np.ndarray:
        if self.projection == "full" or self.mode == "nonlocal":
            return U
        out = U.copy()
        out[..., self.ugrid(spec).size:] = 0.0
        return out
