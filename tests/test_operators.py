"""Operator catalog: values, exact linearizations, adjoints, control maps."""

import numpy as np
import pytest

from mintime import (
    ControlMap,
    Field,
    FitzHughNagumo,
    Grid,
    L2,
    L4,
    HMINUS1,
    PhaseField,
    PorousMedia,
    PotentialDrift,
    ReactionDiffusion2,
    apply_A,
    apply_Aprime,
    dirichlet,
    neumann,
    pair_fn,
    robin,
    scalar_fn,
)
from mintime.adjoint import solve_adjoint
from mintime.forward import Control, Trajectory, solve_forward
from mintime.nonlinearities import PAIR_FAMILIES
from mintime.spaces import IndeterminateSelectionError, SpectralLaplacian


def grid1(n=16, bc=None):
    return Grid(extent=(1.0,), nodes=(n,), bcs=(bc or dirichlet(),))


def grid2(n=16, bc=None):
    b = bc or neumann()
    return Grid(extent=(1.0,), nodes=(n,), bcs=(b, b))


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
    return Field(spec.grid, scale * rng.standard_normal(spec.n_dof), spec.n_components)


# ---------------------------------------------------------------------------
# values


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_A_of_zero_is_zero(name):
    spec = all_specs(12)[name]
    zero = Field(spec.grid, np.zeros(spec.n_dof), spec.n_components)
    np.testing.assert_allclose(apply_A(spec, zero).values, 0.0, atol=1e-12)


def test_porous_media_linear_beta_is_heat_operator():
    g = grid1(256)
    spec = PorousMedia(g, beta=scalar_fn("linear", 1.0))
    (x,) = g.coordinates()
    y = Field(g, np.sin(np.pi * x))
    out = apply_A(spec, y)
    np.testing.assert_allclose(out.values, np.pi**2 * y.values, rtol=2e-4)


def test_case3_linear_constants_on_neumann():
    g = grid2(10)
    spec = ReactionDiffusion2(
        g, d1=1.0, d2=1.0,
        f=pair_fn("linear2", 1.5, 0.5), g=pair_fn("linear2", -0.25, 2.0),
    )
    w = Field(g, np.concatenate([np.ones(10), np.ones(10)]), 2)
    out = apply_A(spec, w)
    np.testing.assert_allclose(out.component(0), 1.5 + 0.5, atol=1e-10)
    np.testing.assert_allclose(out.component(1), -0.25 + 2.0, atol=1e-10)


def _drift_reference(g, b):
    """Index-loop assembly of -div(b .), the reference for the stencil form."""
    n = g.size
    d = np.zeros((n, n))
    bc = g.bcs[0]
    hs = g.spacing(bc)
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
    g = Grid(extent=(1.0,) * dim, nodes=nodes, bcs=(bc,))
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
    lap = SpectralLaplacian(spec.grid, spec.grid.bcs[0], shift=0.0).matrix
    y, z = w[:n], w[n:]
    if isinstance(spec, PotentialDrift):
        return lap @ y + spec.beta(y) + spec._a1_arr * y + _drift_reference(spec.grid, spec.b) @ y
    if isinstance(spec, PorousMedia):
        return lap @ spec.beta(y)
    if isinstance(spec, ReactionDiffusion2):
        return np.concatenate([spec.d1 * (lap @ y) + spec.f(y, z),
                               spec.d2 * (lap @ z) + spec.g(y, z)])
    if isinstance(spec, FitzHughNagumo):
        return np.concatenate([spec.d1 * (lap @ y) + spec.alpha0 * y + z,
                               -spec.sigma * y + spec.gamma * z])
    return np.concatenate([
        spec.k * (lap @ y) - spec.k * spec.l * (lap @ z),
        spec.nu * (lap @ z) + spec.beta(z) + spec.pi(z) + spec.gamma * spec.l * z - spec.gamma * y,
    ])


def _jacobian_reference(spec, w):
    """The dense per-kind formulas of A'(w), component-major, built from the
    dense Laplacian matrix and the index-loop drift."""
    n = spec.grid.size
    lap = SpectralLaplacian(spec.grid, spec.grid.bcs[0], shift=0.0).matrix
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
    elif isinstance(spec, FitzHughNagumo):
        j[:n, :n] = spec.d1 * lap + spec.alpha0 * eye
        j[:n, n:] = eye
        j[n:, :n] = -spec.sigma * eye
        j[n:, n:] = spec.gamma * eye
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


def _band_spec(kind, dim, wall, rng, nodes=None):
    nodes = nodes or ((7,) if dim == 1 else (5, 4))  # unequal axes catch a swapped stride
    n_c = 1 if kind in ("potential_drift", "porous_media") else 2
    g = Grid(extent=(1.0,) * dim, nodes=nodes, bcs=(_WALLS[wall],) * n_c)
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
    return PhaseField(g, k=1.0, l=0.5, nu=0.8, gamma=0.9)


@pytest.mark.parametrize("kind,dim,wall", _BAND_CASES)
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
    factor = spec.step_factor(w, dt)
    r = rng.standard_normal(spec.n_dof)
    for trans, mat in ((0, step), (1, step.T)):
        exact = np.linalg.solve(mat, r)
        np.testing.assert_allclose(factor.solve(r, trans=trans), exact,
                                   rtol=0, atol=1e-12 * np.max(np.abs(exact)))


# three nodes of two components: 6 dof, fewer than the kl + ku + 1 = 7 rows
# that scipy's dgbmv demands of its matrix
_APPLY_CASES = [case + ((),) for case in _BAND_CASES] + [
    (kind, 1, "neumann", (3,))
    for kind in ("reaction_diffusion2", "fitzhugh_nagumo", "phase_field")]


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
        got = apply_Aprime(spec, Field(spec.grid, w, spec.n_components),
                           Field(spec.grid, z, spec.n_components)).values
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
    lap = SpectralLaplacian(spec.grid, dirichlet())
    A = rng.standard_normal((4, spec.n_dof))
    B = rng.standard_normal((4, spec.n_dof))
    want = [np.dot(spec.grid.weights(0) * lap.apply_inverse(a), b) for a, b in zip(A, B)]
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
    g = Grid(extent=(1.0, 1.0), nodes=(48, 48), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.5, f=pair_fn("tanh_pair", 0.4, 0.3),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    w = 0.1 * np.random.default_rng(43).standard_normal(spec.n_dof)
    spec.apply(w)
    spec.band(w)
    spec.step_factor(w, 1e-2).solve(w)
    spec.v_norms(np.vstack([w, -w]))
    sizes = [a.size for a in _cached_arrays(spec)]
    assert sizes and max(sizes) < g.size**2


def test_linear_kind_shares_one_factor_per_dt():
    spec = all_specs(8)["fitzhugh_nagumo"]
    zero, y = np.zeros(spec.n_dof), np.ones(spec.n_dof)
    assert spec.step_factor(zero, 0.1) is spec.step_factor(y, 0.1)
    assert spec.step_factor(zero, 0.2) is not spec.step_factor(zero, 0.1)


def test_singular_step_matrix_raises():
    # h = 1/2, a1 = -4, dt = 1/4: I + dt A' = [[2,-2,0],[-1,2,-1],[0,-2,2]], exactly singular
    g = grid1(3, neumann())
    spec = PotentialDrift(g, a1=-4.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        spec.step_factor(np.zeros(3), 0.25)
    cm = ControlMap(mode="identity", u_tag=L2)
    with pytest.raises(np.linalg.LinAlgError):
        solve_forward(spec, cm, Field(g, np.ones(3)), Control.zeros(cm, spec, 0.25, 2, rho=1.0))


# ---------------------------------------------------------------------------
# Gateaux derivative


def test_linear_spec_derivative_is_affine_difference():
    g = grid2(12)
    spec = ReactionDiffusion2(g, f=pair_fn("linear2", 1.0, 2.0), g=pair_fn("linear2", 0.5, -1.0))
    rng = np.random.default_rng(2)
    y, z = rand_field(spec, rng), rand_field(spec, rng)
    zero = Field(g, np.zeros(spec.n_dof), 2)
    lhs = apply_Aprime(spec, y, z).values
    rhs = apply_A(spec, z).values - apply_A(spec, zero).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_derivative_direction_zero(name):
    spec = all_specs(10)[name]
    rng = np.random.default_rng(3)
    y = rand_field(spec, rng)
    z = Field(spec.grid, np.zeros(spec.n_dof), spec.n_components)
    np.testing.assert_allclose(apply_Aprime(spec, y, z).values, 0.0, atol=1e-13)


@pytest.mark.parametrize("name", list(all_specs(8)))
def test_derivative_matches_central_differences(name):
    spec = all_specs(16)[name]
    rng = np.random.default_rng(4)
    y = rand_field(spec, rng, 0.7)
    z = rand_field(spec, rng, 0.7)
    h = 1e-6
    yp = Field(spec.grid, y.values + h * z.values, spec.n_components)
    ym = Field(spec.grid, y.values - h * z.values, spec.n_components)
    fd = (apply_A(spec, yp).values - apply_A(spec, ym).values) / (2 * h)
    an = apply_Aprime(spec, y, z).values
    assert np.linalg.norm(fd - an) <= 1e-5 * max(1.0, np.linalg.norm(an))


def test_example1_cubic_forward_difference_quotient():
    spec = PotentialDrift(grid1(20, robin(1.0)), beta=scalar_fn("cubic", 0.0), a1=0.0, b=0.0)
    rng = np.random.default_rng(5)
    y, z = rand_field(spec, rng), rand_field(spec, rng)
    h = 1e-6
    yp = Field(spec.grid, y.values + h * z.values)
    fd = (apply_A(spec, yp).values - apply_A(spec, y).values) / h
    an = apply_Aprime(spec, y, z).values
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
        lhs = spec.state_inner(spec.step_factor(y, dt).solve(z), p)
        rhs = spec.state_inner(z, _adjoint_step(spec, y, dt, p))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_self_adjoint_when_drift_vanishes():
    spec = PotentialDrift(grid1(14, robin(0.6)), beta=scalar_fn("cubic", 0.2), a1=0.4, b=0.0)
    rng = np.random.default_rng(7)
    y, p = rng.standard_normal(spec.n_dof), rng.standard_normal(spec.n_dof)
    dt = 0.05
    np.testing.assert_allclose(_adjoint_step(spec, y, dt, p),
                               spec.step_factor(y, dt).solve(p), atol=1e-9)


def test_fitzhugh_nagumo_adjoint_is_dense_transpose():
    spec = FitzHughNagumo(grid2(10), alpha0=0.5, sigma=1.5, gamma=0.25)
    rng = np.random.default_rng(8)
    y = rng.standard_normal(spec.n_dof)
    dt, n, w = 0.05, spec.grid.size, spec.weights
    eye = np.eye(spec.n_dof)
    adj = np.column_stack([_adjoint_step(spec, y, dt, e) for e in eye])
    # W^-1 (I + dt J)^-T W, the transpose in the weighted L2 metric
    expected = np.linalg.solve((eye + dt * spec.jacobian(y)).T, np.diag(w)) / w[:, None]
    np.testing.assert_allclose(adj, expected, atol=1e-13)
    # the adjoint's generator W^-1 J^T W: coupling constants in transposed positions
    astar = (np.linalg.inv(adj) - eye) / dt
    np.testing.assert_allclose(np.diag(astar[:n, n:]), -spec.sigma, atol=1e-10)
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
    gc = Grid(extent=(1.0,), nodes=(9,), bcs=(neumann(),))
    (xs,) = gs.coordinates()
    (xc,) = gc.coordinates()
    k1 = 1.0 + xs
    k2 = np.cos(np.pi * xc)
    cm = ControlMap(mode="nonlocal", u_tag=L2, kernel=np.outer(k1, k2), control_grid=gc)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(9)
    bu = cm.apply_B(spec, u)
    wq = gc.weights(0)
    np.testing.assert_allclose(bu, k1 * np.dot(wq, k2 * u), atol=1e-13)
    v = rng.standard_normal(gs.size)
    lhs = spec.state_inner(bu, v)
    rhs = cm.u_pairing(spec, cm.apply_Bstar(spec, v), u)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


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
        gc = Grid(extent=(1.0,), nodes=(7,), bcs=(neumann(),))
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

    def field(row):
        return Field(ug, row, ug.n_components)

    row_maps = {
        "u_norms": (lambda X: cm.u_norms_batch(spec, X),
                    lambda r: spaces.norm(field(r), cm.u_tag, s)),
        "ustar_norms": (lambda X: cm.ustar_norms_batch(spec, X),
                        lambda r: spaces.dual_norm(field(r), cm.u_tag, s)),
        "F": (lambda X: cm.F_batch(spec, X),
              lambda r: spaces.duality_map_F(field(r), cm.u_tag, s).values),
        "F_inverse": (lambda X: cm.F_inverse_batch(spec, X),
                      lambda r: spaces.duality_map_F_inverse(field(r), cm.u_tag, s).values),
        "resolvent": (lambda X: cm.resolvent_batch(spec, X, eps, rho),
                      lambda r: spaces.resolvent_eF_NK(field(r), cm.u_tag, eps, rho, s).values),
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
                  [spaces.pairing(field(z), field(x)) for z, x in zip(Z, X)])
        V = rng.standard_normal((6, spec.n_dof))
        close(cm.apply_Bstar(spec, V), [cm.apply_Bstar(spec, v) for v in V])

        # the zero row: zero norms, zero F, the zero resolvent
        for name in ("u_norms", "ustar_norms", "F", "F_inverse", "resolvent"):
            assert np.all(row_maps[name][0](U)[2] == 0.0), name

        # (B u_k, v_k)_H = <u_k, B* v_k> on every row
        lhs = [spec.state_inner(bu, v) for bu, v in zip(cm.apply_B(spec, U), V)]
        rhs = cm.u_pairing(spec, cm.apply_Bstar(spec, V), U)
        np.testing.assert_allclose(rhs, lhs, rtol=1e-12, atol=1e-12 * np.max(np.abs(lhs)))

        # eps = 0: the normal-cone inverse, indeterminate only on a zero row
        live = np.delete(Z, 4, axis=0)
        close(cm.u_norms_batch(spec, cm.resolvent_batch(spec, live, 0.0, rho)), np.full(5, rho))
    with pytest.raises(IndeterminateSelectionError):
        cm.resolvent_batch(spec, Z, 0.0, rho)


# ---------------------------------------------------------------------------
# construction guards


def test_porous_media_guards():
    with pytest.raises(ValueError):
        PorousMedia(grid1(8), beta=scalar_fn("power", 0.5, 0.5, 1.5))  # kappa >= 1
    with pytest.raises(ValueError):
        PorousMedia(grid1(8), beta=scalar_fn("zero"))  # a0 = 0
    with pytest.raises(ValueError):
        PorousMedia(grid1(8, neumann()))  # needs Dirichlet walls


def test_rd2_needs_positive_diffusivities():
    with pytest.raises(ValueError):
        ReactionDiffusion2(grid2(8), d1=1.0, d2=0.0)


def test_component_mismatch_rejected():
    spec = all_specs(8)["potential_drift"]
    with pytest.raises(ValueError):
        spec.apply(np.zeros(spec.n_dof + 1))
