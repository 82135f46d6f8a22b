"""Operator catalog: values, exact linearizations, adjoints, control maps."""

import re

import numpy as np
import pytest

from mintime import (
    ControlMap,
    Field,
    FitzHughNagumo,
    Grid,
    H1,
    L2,
    L4,
    HMINUS1,
    PhaseField,
    PorousMedia,
    PotentialDrift,
    ReactionDiffusion2,
    dirichlet,
    neumann,
    pair_fn,
    robin,
    scalar_fn,
)
from mintime.adjoint import solve_adjoint
from mintime.forward import Control, Trajectory, solve_forward
from mintime.nonlinearities import PAIR_FAMILIES
from mintime.operators import StepFactor, march_adjoint
from mintime.spaces import SpectralLaplacian


def grid1(n=16, bc=None):
    return Grid(extent=(1.0,), nodes=(n,), bc=bc or dirichlet())


def grid2(n=16, bc=None):
    b = bc or neumann()
    return Grid(extent=(1.0,), nodes=(n,), bc=b, n_components=2)


def all_specs(n=16):
    """One configured instance per operator kind, C^2 nonlinearities."""
    drift = 0.3 * np.sin(np.pi * np.linspace(0, 1, n + 2)[1:-1])
    return {
        "potential_drift": PotentialDrift(
            grid1(n, robin(0.8)), beta=scalar_fn("cubic", 0.5), a1=0.7, b=drift
        ),
        "porous_media": PorousMedia(grid1(n), beta=scalar_fn("power", 0.5, 0.5, 0.5)),
        "reaction_diffusion2": ReactionDiffusion2(
            grid2(n), d1=1.0, d2=0.5,
            f=pair_fn("sat_rational", 1.0), g=pair_fn("tanh_pair", 0.4, 0.3),
        ),
        "fitzhugh_nagumo": FitzHughNagumo(grid2(n), alpha0=1.0, sigma=0.8, gamma=0.5, d1=1.0),
        "phase_field": PhaseField(grid2(n), k=1.0, l=0.5, nu=1.0, gamma=0.9),
    }


def rand_field(spec, rng, scale=1.0):
    return scale * rng.standard_normal(spec.n_dof)


def aprime(spec, y, z):
    """A'(y) z: the full band at y times z."""
    return spec._band_dot(spec.band(y), z)


# ---------------------------------------------------------------------------
# values


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_A_of_zero_is_zero(name):
    spec = all_specs(12)[name]
    np.testing.assert_allclose(spec.apply(np.zeros(spec.n_dof)), 0.0, atol=1e-12)


def test_porous_media_linear_beta_is_heat_operator():
    g = grid1(256)
    spec = PorousMedia(g, beta=scalar_fn("linear", 1.0))
    (x,) = g.coordinates()
    y = np.sin(np.pi * x)
    out = spec.apply(y)
    np.testing.assert_allclose(out, np.pi**2 * y, rtol=2e-4)


def test_case3_linear_constants_on_neumann():
    g = grid2(10)
    spec = ReactionDiffusion2(
        g, d1=1.0, d2=1.0,
        f=pair_fn("linear2", 1.5, 0.5), g=pair_fn("linear2", -0.25, 2.0),
    )
    out = spec.apply(np.ones(20))
    np.testing.assert_allclose(out[:10], 1.5 + 0.5, atol=1e-10)
    np.testing.assert_allclose(out[10:], -0.25 + 2.0, atol=1e-10)


def _drift_reference(g, b):
    """Index-loop assembly of -div(b .), the reference for the stencil form."""
    n = g.size
    d = np.zeros((n, n))
    bc = g.bc
    hs = g.spacing()
    if g.dimension == 1:
        baxes = (b if isinstance(b, (tuple, list)) else (b,))
    else:
        baxes = b if isinstance(b, (tuple, list)) else (b, b)
    for axis, h in enumerate(hs):
        braw = np.asarray(baxes[axis], dtype=float)
        barr = np.full(n, float(braw)) if braw.ndim == 0 else braw.ravel()
        if g.dimension == 1:
            for i in range(n):
                interior = 0 < i < n - 1
                if bc.kind == "dirichlet":
                    # stored nodes are interior; (by) vanishes on the wall
                    if i + 1 < n:
                        d[i, i + 1] -= barr[i + 1] / (2 * h)
                    if i - 1 >= 0:
                        d[i, i - 1] += barr[i - 1] / (2 * h)
                elif interior:
                    d[i, i + 1] -= barr[i + 1] / (2 * h)
                    d[i, i - 1] += barr[i - 1] / (2 * h)
                # boundary rows stay zero: b.nu = 0 by reflection
        else:
            nx, ny = g.nodes
            for i in range(nx):
                for jj in range(ny):
                    row = i * ny + jj
                    if axis == 0:
                        if 0 < i < nx - 1 or bc.kind == "dirichlet":
                            if i + 1 < nx:
                                d[row, (i + 1) * ny + jj] -= barr[(i + 1) * ny + jj] / (2 * h)
                            if i - 1 >= 0:
                                d[row, (i - 1) * ny + jj] += barr[(i - 1) * ny + jj] / (2 * h)
                    else:
                        if 0 < jj < ny - 1 or bc.kind == "dirichlet":
                            if jj + 1 < ny:
                                d[row, i * ny + jj + 1] -= barr[i * ny + jj + 1] / (2 * h)
                            if jj - 1 >= 0:
                                d[row, i * ny + jj - 1] += barr[i * ny + jj - 1] / (2 * h)
    return d


@pytest.mark.parametrize("bform", ["scalar", "tuple", "nodal"])
@pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.8)], ids=lambda bc: bc.kind)
@pytest.mark.parametrize("dim", [1, 2])
def test_drift_stencil_matches_index_loop(dim, bc, bform):
    nodes = (7,) if dim == 1 else (5, 4)
    g = Grid(extent=(1.0,) * dim, nodes=nodes, bc=bc)
    rng = np.random.default_rng(11)
    b = {
        "scalar": -0.7,
        "tuple": (0.4,) if dim == 1 else (0.4, rng.standard_normal(nodes)),
        "nodal": rng.standard_normal(g.size),
    }[bform]
    spec = PotentialDrift(g, beta=scalar_fn("linear", 1.0), b=b)
    drift = np.zeros((g.size, g.size))
    for s, d in spec._drift_diagonals.items():  # d[j] = drift[j - s, j]
        for j in range(max(s, 0), min(g.size, g.size + s)):
            drift[j - s, j] = d[j]
    assert np.array_equal(drift, _drift_reference(g, b))


# ---------------------------------------------------------------------------
# the band is the Jacobian


def _apply_reference(spec, w):
    """The dense per-kind formulas of A_H w, component-major, built from the
    dense Laplacian matrix and the index-loop drift."""
    n = spec.grid.size
    lap = SpectralLaplacian(spec.grid, shift=0.0).matrix
    y, z = w[:n], w[n:]
    if isinstance(spec, PotentialDrift):
        return lap @ y + spec.beta(y) + spec._a1_arr * y + _drift_reference(spec.grid, spec.b) @ y
    if isinstance(spec, PorousMedia):
        return lap @ spec.beta(y)
    if isinstance(spec, ReactionDiffusion2):
        return np.concatenate([spec.d1 * (lap @ y) + spec.f(y, z),
                               spec.d2 * (lap @ z) + spec.g(y, z)])
    return np.concatenate([
        spec.k * (lap @ y) - spec.k * spec.l * (lap @ z),
        spec.nu * (lap @ z) + spec.beta(z) + spec.pi(z) + spec.gamma * spec.l * z - spec.gamma * y,
    ])


def _jacobian_reference(spec, w):
    """The dense per-kind formulas of A'(w), component-major, built from the
    dense Laplacian matrix and the index-loop drift."""
    n = spec.grid.size
    lap = SpectralLaplacian(spec.grid, shift=0.0).matrix
    eye = np.eye(n)
    y, z = w[:n], w[n:]
    if isinstance(spec, PotentialDrift):
        return lap + _drift_reference(spec.grid, spec.b) + np.diag(spec.beta.d(y) + spec._a1_arr)
    if isinstance(spec, PorousMedia):
        return lap * spec.beta.d(y)[None, :]
    j = np.zeros((2 * n, 2 * n))
    if isinstance(spec, ReactionDiffusion2):
        j[:n, :n] = spec.d1 * lap + np.diag(spec.f.dy(y, z))
        j[:n, n:] = np.diag(spec.f.dz(y, z))
        j[n:, :n] = np.diag(spec.g.dy(y, z))
        j[n:, n:] = spec.d2 * lap + np.diag(spec.g.dz(y, z))
    else:
        j[:n, :n] = spec.k * lap
        j[:n, n:] = -spec.k * spec.l * lap
        j[n:, :n] = -spec.gamma * eye
        j[n:, n:] = spec.nu * lap + np.diag(spec.beta.d(z) + spec.pi.d(z) + spec.gamma * spec.l)
    return j


_WALLS = {"dirichlet": dirichlet(), "neumann": neumann(), "robin": robin(0.8)}
_BAND_CASES = [
    (kind, dim, wall)
    for kind in ("potential_drift", "porous_media", "reaction_diffusion2",
                 "fitzhugh_nagumo", "phase_field")
    for dim in (1, 2)
    for wall in (("dirichlet",) if kind == "porous_media" else tuple(_WALLS))
]
# a pair whose second component does not diffuse, under a nonlinear coupling
_DIFFUSIONLESS_CASES = [("diffusionless_pair", dim, wall) for dim in (1, 2) for wall in _WALLS]


def _band_spec(kind, dim, wall, rng, nodes=None):
    nodes = nodes or ((7,) if dim == 1 else (5, 4))  # unequal axes catch a swapped stride
    n_c = 1 if kind in ("potential_drift", "porous_media") else 2
    g = Grid(extent=(1.0,) * dim, nodes=nodes, bc=_WALLS[wall], n_components=n_c)
    if kind == "potential_drift":
        return PotentialDrift(g, beta=scalar_fn("cubic", 0.5), a1=rng.standard_normal(g.size),
                              b=(0.3,) + (rng.standard_normal(g.size),) * (dim - 1))
    if kind == "porous_media":
        return PorousMedia(g, beta=scalar_fn("power", 0.5, 0.5, 0.5))
    if kind == "reaction_diffusion2":
        return ReactionDiffusion2(g, d1=1.0, d2=0.5, f=pair_fn("sat_rational", 1.0),
                                  g=pair_fn("tanh_pair", 0.4, 0.3))
    if kind == "fitzhugh_nagumo":
        return FitzHughNagumo(g, alpha0=0.5, sigma=1.5, gamma=0.25, d1=0.7)
    if kind == "diffusionless_pair":
        return ReactionDiffusion2(g, d1=0.7, d2=0.0, f=pair_fn("tanh_pair", 0.5, 0.4),
                                  g=pair_fn("tanh_pair", -0.2, 0.6))
    return PhaseField(g, k=1.0, l=0.5, nu=0.8, gamma=0.9)


@pytest.mark.parametrize("kind,dim,wall", _BAND_CASES + _DIFFUSIONLESS_CASES)
def test_band_is_the_jacobian(kind, dim, wall):
    rng = np.random.default_rng(31)
    spec = _band_spec(kind, dim, wall, rng)
    w = rng.standard_normal(spec.n_dof)
    ref = _jacobian_reference(spec, w)
    assert np.array_equal(spec.jacobian(w), ref)
    # the half-bandwidth bound of node-major order: 2 n_c - 1 in 1D, n_c ny + n_c - 1 in 2D
    n_c = spec.n_components
    assert spec.bandwidth == (2 * n_c - 1 if dim == 1 else n_c * spec.grid.nodes[1] + n_c - 1)

    dt = 0.05
    step = np.eye(spec.n_dof) + dt * ref
    r = rng.standard_normal(spec.n_dof)
    # the solve, and the adjoint's one step: the transpose in the state metric
    for got, exact in (
            (StepFactor(spec, w, dt).solve(r), np.linalg.solve(step, r)),
            (march_adjoint(spec, np.stack([w, w]), dt, r)[0],
             spec.metric_solve(np.linalg.solve(step.T, spec.metric_apply(r))))):
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-12 * np.max(np.abs(exact)))


# three nodes of two components: 6 dof, fewer than the kl + ku + 1 = 7 rows
# that scipy's dgbmv demands of its matrix
_APPLY_CASES = [case + ((),) for case in _BAND_CASES] + [
    (kind, 1, "neumann", (3,))
    for kind in ("reaction_diffusion2", "fitzhugh_nagumo", "phase_field")] + [
    case + ((),) for case in _DIFFUSIONLESS_CASES] + [("diffusionless_pair", 1, "neumann", (3,))]


@pytest.mark.parametrize("kind,dim,wall,nodes", _APPLY_CASES)
def test_apply_matches_dense_formulas(kind, dim, wall, nodes):
    rng = np.random.default_rng(37)
    spec = _band_spec(kind, dim, wall, rng, nodes)
    for _ in range(3):
        w = rng.standard_normal(spec.n_dof)
        ref = _apply_reference(spec, w)
        got = spec.apply(w)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        z = rng.standard_normal(spec.n_dof)
        jz = _jacobian_reference(spec, w) @ z
        got = aprime(spec, w, z)
        assert np.max(np.abs(got - jz)) <= 1e-14 * np.max(np.abs(jz))


@pytest.mark.parametrize("kind,dim,wall,nodes", _APPLY_CASES)
def test_state_geometry_on_stacks_matches_rows(kind, dim, wall, nodes):
    rng = np.random.default_rng(47)
    spec = _band_spec(kind, dim, wall, rng, nodes)
    Y = rng.standard_normal((5, spec.n_dof))
    Z = rng.standard_normal((5, spec.n_dof))

    # every row of a stacked apply is bit for bit the single-state product
    AY = spec.apply(Y)
    assert AY.shape == Y.shape
    assert np.array_equal(AY, [spec.apply(y) for y in Y])
    assert np.array_equal(spec.apply(Y.reshape(5, 1, -1))[:, 0], AY)
    assert np.array_equal(spec.apply(Y[:4].reshape(2, 2, -1)).reshape(4, -1), AY[:4])
    with pytest.raises(ValueError):
        spec.apply(Y[:, :-1])

    def close(got, want):
        want = np.asarray(want)
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(want)))

    close(spec.state_inner(Y, Z), [spec.state_inner(y, z) for y, z in zip(Y, Z)])
    close(spec.h_norm(Y), [spec.h_norm(y) for y in Y])
    close(spec.metric_apply(Y), [spec.metric_apply(y) for y in Y])
    close(spec.metric_solve(Y), [spec.metric_solve(y) for y in Y])
    close(spec.metric_solve(spec.metric_apply(Y)), Y)


@pytest.mark.parametrize("dim", [1, 2])
def test_porous_state_inner_is_the_inverse_laplacian_pairing(dim):
    # (a, b)_H = <Gamma^-1 a, b>_L2 with Gamma the Dirichlet -Lap, row by row
    rng = np.random.default_rng(53)
    spec = _band_spec("porous_media", dim, "dirichlet", rng)
    lap = SpectralLaplacian(spec.grid)
    A = rng.standard_normal((4, spec.n_dof))
    B = rng.standard_normal((4, spec.n_dof))
    want = [np.dot(spec.grid.weights * lap.apply_inverse(a), b) for a, b in zip(A, B)]
    np.testing.assert_allclose(spec.state_inner(A, B), want, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(want)))
    np.testing.assert_allclose(spec.h_norm(A) ** 2, spec.state_inner(A, A), rtol=1e-13)


@pytest.mark.parametrize("name", sorted(PAIR_FAMILIES))
def test_same_family_pair_is_the_separate_calls(name):
    # f and g of one family are evaluated in one call with (2, 1) parameter
    # columns; every value and partial derivative keeps its bits
    rng = np.random.default_rng(len(name))
    arity = PAIR_FAMILIES[name][0].__code__.co_argcount - 2
    f = pair_fn(name, *rng.uniform(-1.0, 1.0, arity))
    g = pair_fn(name, *rng.uniform(-1.0, 1.0, arity))
    spec = ReactionDiffusion2(grid2(9), d1=1.0, d2=0.6, f=f, g=g)
    assert (spec._family_columns is None) == (arity == 0)
    for w in (rng.standard_normal(spec.n_dof), rng.standard_normal((4, spec.n_dof)),
              rng.standard_normal((3, 2, spec.n_dof))):
        y, z = w[..., :9], w[..., 9:]
        reaction = spec._reaction(w)
        assert reaction.shape == w.shape
        assert np.array_equal(reaction, np.concatenate([f(y, z), g(y, z)], axis=-1))
        blocks = spec._nodal_blocks(w)
        expected = [(0, 0, f.dy(y, z)), (0, 1, f.dz(y, z)),
                    (1, 0, g.dy(y, z)), (1, 1, g.dz(y, z))]
        assert [blk[:2] for blk in blocks] == [blk[:2] for blk in expected]
        for (_, _, got), (_, _, want) in zip(blocks, expected):
            assert got.shape == want.shape == y.shape
            assert np.array_equal(got, want)


@pytest.mark.parametrize("f, g", [
    (("tanh_pair", 0.5, 0.4), ("tanh_pair", -0.2, 0.6)),   # one family: the column path
    (("sat_rational", 1.0), ("tanh_pair", 0.4, 0.3)),      # mixed families
    (("linear2", 1.0, 1.0), ("linear2", -0.8, 0.5)),
], ids=["tanh_pair", "mixed", "linear2"])
def test_apply_on_one_state_keeps_the_bits_of_the_concatenated_formula(f, g):
    # one state's apply adds the reaction to the band product in place, and a
    # shared family's (2, n) result [f, g] stands for their concatenation:
    # every value, signed zeros included, is the split-and-concatenate
    # formula's and the row of a stacked apply, and no call writes to its
    # input or hands out an array that a later call returns
    f, g = pair_fn(*f), pair_fn(*g)
    spec = ReactionDiffusion2(grid2(16), d1=1.0, d2=0.8, f=f, g=g)
    n = spec.grid.size
    rng = np.random.default_rng(32)
    Y = rng.standard_normal((5, spec.n_dof))
    Y[1] = 0.0
    Y[2, n:] = -0.0
    keep = Y.copy()
    stacked = spec.apply(Y)
    for y, row in zip(Y, stacked):
        one = spec.apply(y)
        old = spec._band_dot(spec._band_base, y) + np.concatenate([f(y[:n], y[n:]),
                                                                   g(y[:n], y[n:])])
        assert one.shape == (spec.n_dof,)
        assert one.tobytes() == old.tobytes() == row.tobytes()
        one[:] = np.nan
        assert spec.apply(y).tobytes() == old.tobytes()
    assert Y.tobytes() == keep.tobytes()


@pytest.mark.parametrize("projection", ["full", "first"])
def test_projection_auxiliary_state_and_B_return_fresh_arrays(projection):
    # each makes one copy and one slice write: writing to the result leaves
    # the input alone, and a list target serves as an array; without a
    # copy, the projection works on the caller's float array itself
    spec = ReactionDiffusion2(grid2(3), d1=1.0, d2=0.5)
    mode = "first_component" if projection == "first" else "identity"
    cm = ControlMap(mode=mode, u_tag=L2, projection=projection)
    rng = np.random.default_rng(15)
    y_tar = rng.standard_normal(spec.n_dof)
    tar_keep = y_tar.copy()
    for v in (rng.standard_normal(spec.n_dof), rng.standard_normal((4, spec.n_dof))):
        keep = v.copy()
        projected = cm.project_state(spec, v)
        aux = cm.auxiliary_state(spec, v, y_tar)
        bu = cm.apply_B(spec, v)
        np.testing.assert_array_equal(cm.auxiliary_state(spec, v, list(y_tar)), aux)
        for out in (projected, aux, bu):
            assert out is not v and not np.shares_memory(out, v)
            out[...] = np.nan
        np.testing.assert_array_equal(v, keep)
        np.testing.assert_array_equal(y_tar, tar_keep)
        inplace = v.copy()
        assert cm.project_state(spec, inplace, copy=False) is inplace
        np.testing.assert_array_equal(inplace, cm.project_state(spec, keep))
        if projection == "first":
            np.testing.assert_array_equal(inplace[..., 3:], 0.0)
            np.testing.assert_array_equal(cm.apply_B(spec, keep), inplace)


def test_linear2_derivatives_are_the_constant_coefficients():
    y, z = np.array([-0.0, 1.5, -2.0]), np.array([3.0, -0.0, 0.25])
    lin = pair_fn("linear2", -0.0, 0.7)
    assert np.array_equal(lin.dy(y, z), np.full_like(y, -0.0))
    assert np.signbit(lin.dy(y, z)).all()
    assert np.array_equal(lin.dz(y, z), np.full_like(y, 0.7))


def _cached_arrays(obj, seen=None):
    """Every ndarray reachable from obj through instance attributes and
    containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _cached_arrays(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _cached_arrays(v, seen)
    elif hasattr(obj, "__dict__"):
        yield from _cached_arrays(vars(obj), seen)


def test_no_dense_matrix_cached_at_48x48():
    g = Grid(extent=(1.0, 1.0), nodes=(48, 48), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.5, f=pair_fn("tanh_pair", 0.4, 0.3),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    w = 0.1 * np.random.default_rng(43).standard_normal(spec.n_dof)
    spec.apply(w)
    spec.band(w)
    StepFactor(spec, w, 1e-2).solve(w)
    spec.v_norms(np.vstack([w, -w]))
    sizes = [a.size for a in _cached_arrays(spec)]
    assert sizes and max(sizes) < g.size**2


def test_linear_factor_is_state_free_and_made_once_per_solve(monkeypatch):
    # a linear kind's factor is the same at every state, so a forward solve,
    # an adjoint sweep and a variation sweep each make exactly one
    import mintime.adjoint as adjoint
    import mintime.operators as operators

    spec = all_specs(8)["fitzhugh_nagumo"]
    assert spec.is_linear
    zero, y = np.zeros(spec.n_dof), np.ones(spec.n_dof)
    at_zero, at_y = StepFactor(spec, zero, 0.1), StepFactor(spec, y, 0.1)
    assert np.array_equal(at_zero.lu, at_y.lu) and np.array_equal(at_zero.piv, at_y.piv)

    made = []

    class Counted(StepFactor):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(operators, "StepFactor", Counted)
    rng = np.random.default_rng(8)
    cm = ControlMap(mode="identity", u_tag=L2)
    u = Control(0.1, rng.standard_normal((6, spec.n_dof)), rho=1e9)
    traj = solve_forward(spec, cm, Field(spec.grid, y, spec.n_components), u)
    assert len(made) == 1
    adjoint.solve_adjoint(spec, traj, Field(spec.grid, y, spec.n_components))
    assert len(made) == 2
    adjoint.solve_variation(spec, cm, traj, u)
    assert len(made) == 3


def test_singular_step_matrix_raises():
    # h = 1/2, a1 = -4, dt = 1/4: I + dt A' = [[2,-2,0],[-1,2,-1],[0,-2,2]], exactly singular
    g = grid1(3, neumann())
    spec = PotentialDrift(g, a1=-4.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        StepFactor(spec, np.zeros(3), 0.25)
    cm = ControlMap(mode="identity", u_tag=L2)
    with pytest.raises(np.linalg.LinAlgError):
        solve_forward(spec, cm, Field(g, np.ones(3)), Control.zeros(cm, spec, 0.25, 2, rho=1.0))


def test_linear_solve_without_steps_factors_nothing():
    # the singular step of test_singular_step_matrix_raises: a control of 0
    # steps takes none, so no factor is made and y0 comes back
    g = grid1(3, neumann())
    spec = PotentialDrift(g, a1=-4.0)
    cm = ControlMap(mode="identity", u_tag=L2)
    traj = solve_forward(spec, cm, Field(g, np.ones(3)), Control.zeros(cm, spec, 0.25, 0, rho=1.0))
    assert traj.steps == 0
    assert np.array_equal(traj.states, np.ones((1, 3)))


# ---------------------------------------------------------------------------
# Gateaux derivative


def test_linear_spec_derivative_is_affine_difference():
    g = grid2(12)
    spec = ReactionDiffusion2(g, f=pair_fn("linear2", 1.0, 2.0), g=pair_fn("linear2", 0.5, -1.0))
    rng = np.random.default_rng(2)
    y, z = rand_field(spec, rng), rand_field(spec, rng)
    lhs = aprime(spec, y, z)
    rhs = spec.apply(z) - spec.apply(np.zeros(spec.n_dof))
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_derivative_direction_zero(name):
    spec = all_specs(10)[name]
    rng = np.random.default_rng(3)
    y = rand_field(spec, rng)
    np.testing.assert_allclose(aprime(spec, y, np.zeros(spec.n_dof)), 0.0, atol=1e-13)


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_derivative_matches_central_differences(name):
    spec = all_specs(16)[name]
    rng = np.random.default_rng(4)
    y = rand_field(spec, rng, 0.7)
    z = rand_field(spec, rng, 0.7)
    h = 1e-6
    fd = (spec.apply(y + h * z) - spec.apply(y - h * z)) / (2 * h)
    an = aprime(spec, y, z)
    assert np.linalg.norm(fd - an) <= 1e-5 * max(1.0, np.linalg.norm(an))


def test_example1_cubic_forward_difference_quotient():
    spec = PotentialDrift(grid1(20, robin(1.0)), beta=scalar_fn("cubic", 0.0), a1=0.0, b=0.0)
    rng = np.random.default_rng(5)
    y, z = rand_field(spec, rng), rand_field(spec, rng)
    h = 1e-6
    fd = (spec.apply(y + h * z) - spec.apply(y)) / h
    an = aprime(spec, y, z)
    assert np.linalg.norm(fd - an) <= 1e-5 * max(1.0, np.linalg.norm(an))


# ---------------------------------------------------------------------------
# adjoints


def _adjoint_step(spec, y, dt, p):
    """One step of ``solve_adjoint`` frozen at y: (I + dt A'(y))^-* p, the
    transpose in the state metric."""
    traj = Trajectory(spec, np.array([0.0, dt]), np.vstack([np.zeros(spec.n_dof), y]),
                      np.ones(1, dtype=int), np.zeros(1))
    return solve_adjoint(spec, traj, Field(spec.grid, p, spec.n_components)).values[0]


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_adjoint_pairing_identity_machine_exact(name):
    # (S^-1 z, p)_H = (z, S^-* p)_H for the step S = I + dt A'(y)
    spec = all_specs(16)[name]
    rng = np.random.default_rng(6)
    dt = 0.05
    for _ in range(5):
        y, z, p = (rng.standard_normal(spec.n_dof) for _ in range(3))
        lhs = spec.state_inner(StepFactor(spec, y, dt).solve(z), p)
        rhs = spec.state_inner(z, _adjoint_step(spec, y, dt, p))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_self_adjoint_when_drift_vanishes():
    spec = PotentialDrift(grid1(14, robin(0.6)), beta=scalar_fn("cubic", 0.2), a1=0.4, b=0.0)
    rng = np.random.default_rng(7)
    y, p = rng.standard_normal(spec.n_dof), rng.standard_normal(spec.n_dof)
    dt = 0.05
    np.testing.assert_allclose(_adjoint_step(spec, y, dt, p),
                               StepFactor(spec, y, dt).solve(p), atol=1e-9)


def test_fitzhugh_nagumo_adjoint_is_dense_transpose():
    sigma = 1.5
    spec = FitzHughNagumo(grid2(10), alpha0=0.5, sigma=sigma, gamma=0.25)
    assert isinstance(spec, ReactionDiffusion2) and spec.d2 == 0.0 and spec.is_linear
    rng = np.random.default_rng(8)
    y = rng.standard_normal(spec.n_dof)
    dt, n, w = 0.05, spec.grid.size, spec.grid.component_weights
    eye = np.eye(spec.n_dof)
    adj = np.column_stack([_adjoint_step(spec, y, dt, e) for e in eye])
    # W^-1 (I + dt J)^-T W, the transpose in the weighted L2 metric
    expected = np.linalg.solve((eye + dt * spec.jacobian(y)).T, np.diag(w)) / w[:, None]
    np.testing.assert_allclose(adj, expected, atol=1e-13)
    # the adjoint's generator W^-1 J^T W: coupling constants in transposed positions
    astar = (np.linalg.inv(adj) - eye) / dt
    np.testing.assert_allclose(np.diag(astar[:n, n:]), -sigma, atol=1e-10)
    np.testing.assert_allclose(np.diag(astar[n:, :n]), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# control maps


def test_identity_map_roundtrip():
    spec = all_specs(10)["potential_drift"]
    cm = ControlMap(mode="identity", u_tag=L2)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(spec.n_dof)
    np.testing.assert_allclose(cm.apply_B(spec, u), u)
    np.testing.assert_allclose(cm.apply_Bstar(spec, u), u)


def test_first_component_map():
    spec = all_specs(10)["reaction_diffusion2"]
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    rng = np.random.default_rng(10)
    u = rng.standard_normal(spec.n_dof)
    bu = cm.apply_B(spec, u)
    n = spec.grid.size
    np.testing.assert_allclose(bu[:n], u[:n])
    np.testing.assert_allclose(bu[n:], 0.0)


@pytest.mark.parametrize("projection", ["full", "first"])
def test_projection_of_a_stack_is_its_rows_projected(projection):
    spec = ReactionDiffusion2(grid2(3), d1=1.0, d2=0.5)
    mode = "first_component" if projection == "first" else "identity"
    cm = ControlMap(mode=mode, u_tag=L2, projection=projection)
    rng = np.random.default_rng(14)
    V = rng.standard_normal((4, spec.n_dof))
    y_tar = rng.standard_normal(spec.n_dof)
    np.testing.assert_array_equal(cm.project_state(spec, V),
                                  [cm.project_state(spec, v) for v in V])
    np.testing.assert_array_equal(cm.auxiliary_state(spec, V, y_tar),
                                  [cm.auxiliary_state(spec, v, y_tar) for v in V])
    if projection == "first":
        np.testing.assert_array_equal(cm.project_state(spec, np.ones((4, 6))),
                                      np.tile([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], (4, 1)))


def test_first_component_requires_first_projection():
    with pytest.raises(ValueError):
        ControlMap(mode="first_component", u_tag=L2, projection="full")


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_bstar_pairing_exact(name):
    spec = all_specs(12)[name]
    mode = "first_component" if spec.n_components == 2 else "identity"
    proj = "first" if mode == "first_component" else "full"
    tag = HMINUS1 if name == "porous_media" else L2
    cm = ControlMap(mode=mode, u_tag=tag, projection=proj)
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(cm.control_size(spec))
        v = rng.standard_normal(spec.n_dof)
        lhs = spec.state_inner(cm.apply_B(spec, u), v)
        rhs = cm.u_pairing(spec, cm.apply_Bstar(spec, v), u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_nonlocal_rank_one_kernel():
    spec = all_specs(12)["potential_drift"]
    gs = spec.grid
    gc = Grid(extent=(1.0,), nodes=(9,), bc=neumann())
    (xs,) = gs.coordinates()
    (xc,) = gc.coordinates()
    k1 = 1.0 + xs
    k2 = np.cos(np.pi * xc)
    cm = ControlMap(mode="nonlocal", u_tag=L2, kernel=np.outer(k1, k2), control_grid=gc)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(9)
    bu = cm.apply_B(spec, u)
    wq = gc.weights
    np.testing.assert_allclose(bu, k1 * np.dot(wq, k2 * u), atol=1e-13)
    v = rng.standard_normal(gs.size)
    lhs = spec.state_inner(bu, v)
    rhs = cm.u_pairing(spec, cm.apply_Bstar(spec, v), u)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("tag", [H1, HMINUS1], ids=lambda t: t.kind)
def test_nonlocal_map_with_a_spectral_norm_is_refused_when_built(tag):
    # a spectral U-norm lives on the state grid; a nonlocal control grid has none
    with pytest.raises(ValueError, match="spectral control norms require the state grid"):
        ControlMap(mode="nonlocal", u_tag=tag, kernel=np.ones((9, 5)),
                   control_grid=Grid((1.0,), (5,)))


def test_B_and_Bstar_shapes_on_rows_and_stacks():
    spec = all_specs(10)["porous_media"]
    cm = ControlMap(mode="identity", u_tag=HMINUS1)
    rng = np.random.default_rng(13)
    u = rng.standard_normal(spec.grid.size)
    bu = cm.apply_B(spec, u)
    bstar = cm.apply_Bstar(spec, bu)
    assert bu.shape == (spec.n_dof,)
    assert bstar.shape == (cm.control_size(spec),)
    stack = np.vstack([u, 2.0 * u, -u])
    assert cm.apply_B(spec, stack).shape == (3, spec.n_dof)
    assert cm.apply_Bstar(spec, cm.apply_B(spec, stack)).shape == (3, cm.control_size(spec))


def _row_case(case):
    """(spec, map, spectral operator of U) for one U-norm tag and control mode,
    on Dirichlet walls so that H^-1 control norms are defined."""
    tag_name, mode = case
    tag = {"L2": L2, "L4": L4, "Hminus1": HMINUS1}[tag_name]
    if mode == "first_component":
        spec = ReactionDiffusion2(grid2(9, dirichlet()), d1=1.0, d2=0.5)
        cm = ControlMap(mode=mode, u_tag=tag, projection="first")
    elif mode == "nonlocal":
        spec = PotentialDrift(grid1(9))
        gc = Grid(extent=(1.0,), nodes=(7,), bc=neumann())
        kernel = np.random.default_rng(3).standard_normal((9, 7))
        cm = ControlMap(mode=mode, u_tag=tag, kernel=kernel, control_grid=gc)
    else:
        spec = PotentialDrift(grid1(9))
        cm = ControlMap(mode=mode, u_tag=tag)
    return spec, cm, (spec.gamma_op if tag.needs_spectral else None)


ROW_CASES = [(t, m) for t in ("L2", "L4", "Hminus1") for m in ("identity", "first_component")]
ROW_CASES.append(("L2", "nonlocal"))


@pytest.mark.parametrize("case", ROW_CASES, ids=["-".join(c) for c in ROW_CASES])
def test_control_map_rows_match_single_rows_and_fields(case):
    """Each batch method on a stack is itself row by row, and the direct
    call of the row kernel it wraps on one row."""
    import warnings

    from mintime import spaces

    spec, cm, s = _row_case(case)
    ug = cm.ugrid(spec)
    m = cm.control_size(spec)
    rng = np.random.default_rng(41)
    U = rng.standard_normal((6, m)) * rng.uniform(0.05, 20.0, (6, 1))
    U[2] = 0.0
    Z = rng.standard_normal((6, m))
    Z[4] = 0.0
    eps, rho = 0.3, 1.0

    def close(got, want):
        want = np.asarray(want)
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(want), initial=0.0))

    row_maps = {
        "u_norms": (lambda X: cm.u_norms_batch(spec, X),
                    lambda r: spaces.norm_rows(r, ug, cm.u_tag, s)),
        "ustar_norms": (lambda X: cm.ustar_norms_batch(spec, X),
                        lambda r: spaces.norm_rows(r, ug, cm.u_tag, s, dual=True)),
        "F": (lambda X: cm.F_batch(spec, X),
              lambda r: spaces.duality_rows(r, ug, cm.u_tag, s)),
        "F_inverse": (lambda X: cm.F_inverse_batch(spec, X),
                      lambda r: spaces.duality_rows(r, ug, cm.u_tag, s, inverse=True)),
        "resolvent": (lambda X: cm.resolvent_batch(spec, X, eps, rho),
                      lambda r: spaces.resolvent_rows(r, ug, cm.u_tag, eps, rho, s)),
        "project": (lambda X: cm.project_control_batch(spec, X), None),
        "B": (lambda X: cm.apply_B(spec, X), None),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, (batch, spaces_fn) in row_maps.items():
            for X in (U, Z):
                stacked = batch(X)
                close(stacked, [batch(row) for row in X])
                if spaces_fn is not None:
                    close(stacked, [spaces_fn(row) for row in X])
        for X in (U, Z):
            close(cm.u_pairing(spec, Z, X), [cm.u_pairing(spec, z, x) for z, x in zip(Z, X)])
            close(cm.u_pairing(spec, Z, X),
                  [spaces.inner_rows(z, x, ug) for z, x in zip(Z, X)])
        V = rng.standard_normal((6, spec.n_dof))
        close(cm.apply_Bstar(spec, V), [cm.apply_Bstar(spec, v) for v in V])

        # the zero row: zero norms, zero F, the zero resolvent
        for name in ("u_norms", "ustar_norms", "F", "F_inverse", "resolvent"):
            assert np.all(row_maps[name][0](U)[2] == 0.0), name

        # (B u_k, v_k)_H = <u_k, B* v_k> on every row
        lhs = [spec.state_inner(bu, v) for bu, v in zip(cm.apply_B(spec, U), V)]
        rhs = cm.u_pairing(spec, cm.apply_Bstar(spec, V), U)
        np.testing.assert_allclose(rhs, lhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(lhs)))

        # eps = 0: the bang-bang law, with the zero selection on a zero row
        live = np.delete(Z, 4, axis=0)
        close(cm.u_norms_batch(spec, cm.resolvent_batch(spec, live, 0.0, rho)), np.full(5, rho))
        assert np.all(cm.resolvent_batch(spec, Z, 0.0, rho)[4] == 0.0)


# ---------------------------------------------------------------------------
# construction guards


def test_porous_media_guards():
    with pytest.raises(ValueError):
        PorousMedia(grid1(8), beta=scalar_fn("power", 0.5, 0.5, 1.5))  # kappa >= 1
    with pytest.raises(ValueError):
        PorousMedia(grid1(8), beta=scalar_fn("zero"))  # a0 = 0
    with pytest.raises(ValueError):
        PorousMedia(grid1(8, neumann()))  # needs Dirichlet walls


_ONE_COMPONENT = grid1(8)
_TWO_COMPONENTS = grid2(8)
_NONLOCAL = dict(mode="nonlocal", u_tag=L2, kernel=np.ones((8, 5)),
                 control_grid=Grid((1.0,), (5,)))
# case -> (call, message) of a ValueError
REFUSALS = {
    "potential-drift-two-components": (lambda: PotentialDrift(_TWO_COMPONENTS),
                                       "PotentialDrift is a one-component operator"),
    "potential-drift-decreasing-beta": (
        lambda: PotentialDrift(_ONE_COMPONENT, beta=scalar_fn("linear", -1.0)),
        "beta must be nondecreasing (beta' >= a0 >= 0)"),
    "porous-media-two-components": (lambda: PorousMedia(grid2(8, dirichlet())),
                                    "PorousMedia is a one-component operator"),
    "reaction-diffusion2-one-component": (lambda: ReactionDiffusion2(_ONE_COMPONENT),
                                          "ReactionDiffusion2 has two components"),
    "phase-field-one-component": (lambda: PhaseField(_ONE_COMPONENT),
                                  "PhaseField has two components"),
    "phase-field-zero-k": (lambda: PhaseField(_TWO_COMPONENTS, k=0.0),
                           "diffusivities k, nu must be positive"),
    "control-map-unknown-mode": (lambda: ControlMap(mode="pointwise"),
                                 "unknown control mode 'pointwise'"),
    "control-map-unknown-projection": (lambda: ControlMap(projection="second"),
                                       "unknown projection 'second'"),
    "nonlocal-without-kernel": (lambda: ControlMap(**{**_NONLOCAL, "kernel": None}),
                                "nonlocal mode needs a kernel and a control grid"),
    "nonlocal-without-grid": (lambda: ControlMap(**{**_NONLOCAL, "control_grid": None}),
                              "nonlocal mode needs a kernel and a control grid"),
    "nonlocal-two-component-grid": (
        lambda: ControlMap(**{**_NONLOCAL, "control_grid": Grid((1.0,), (5,), n_components=2)}),
        "nonlocal control grid has one component"),
    "apply-B-control-size": (
        lambda: ControlMap().apply_B(PotentialDrift(_ONE_COMPONENT), np.zeros(9)),
        "expected 8 control dof, got 9"),
    "apply-Bstar-state-size": (
        lambda: ControlMap().apply_Bstar(PotentialDrift(_ONE_COMPONENT), np.zeros(9)),
        "expected 8 state dof, got 9"),
    "nonlocal-kernel-shape": (
        lambda: ControlMap(**{**_NONLOCAL, "kernel": np.ones((7, 5))}).apply_B(
            PotentialDrift(_ONE_COMPONENT), np.zeros(5)),
        "kernel shape (7, 5) does not match state x control (8 x 5)"),
    # the kernel maps onto one component's nodes; on a pair B and B* used to
    # fail inside numpy (an index past the state, a broadcast mismatch)
    "nonlocal-B-two-component-operator": (
        lambda: ControlMap(**_NONLOCAL).apply_B(ReactionDiffusion2(_TWO_COMPONENTS),
                                                np.zeros(5)),
        "a nonlocal control acts on 1 component, not 2"),
    "nonlocal-Bstar-two-component-operator": (
        lambda: ControlMap(**_NONLOCAL).apply_Bstar(ReactionDiffusion2(_TWO_COMPONENTS),
                                                    np.zeros(16)),
        "a nonlocal control acts on 1 component, not 2"),
    "unknown-scalar-family": (lambda: scalar_fn("quartic"), "unknown scalar family 'quartic'"),
    "unknown-pair-family": (lambda: pair_fn("quartic2"), "unknown pair family 'quartic2'"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_rd2_needs_positive_d1_and_nonnegative_d2():
    for d1, d2 in ((1.0, -0.1), (0.0, 1.0)):
        with pytest.raises(ValueError):
            ReactionDiffusion2(grid2(8), d1=d1, d2=d2)
    # a second component without diffusion is measured in L2: V = H^1 x L2
    assert ReactionDiffusion2(grid2(8), d1=1.0, d2=0.0).v_gamma == (True, False)
    assert ReactionDiffusion2(grid2(8), d1=1.0, d2=0.5).v_gamma == (True, True)


def test_component_mismatch_rejected():
    spec = all_specs(8)["potential_drift"]
    with pytest.raises(ValueError):
        spec.apply(np.zeros(spec.n_dof + 1))
