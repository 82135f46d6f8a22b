"""Discrete space layer: inner products, spectral calculus, duality maps."""

import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mintime import (BoundaryCondition, Field, Grid, L2, L4, H1, HMINUS1, NormTag,
                     SpectralLaplacian, dirichlet, neumann, robin)
from mintime.spaces import (
    duality_derivative_rows,
    duality_rows,
    inner_rows,
    norm_rows,
    resolvent_derivative_rows,
    resolvent_rows,
)


def unit_interval(n=64, bc=None):
    return Grid(extent=(1.0,), nodes=(n,), bc=bc or dirichlet())


def sin_field(grid):
    (x,) = grid.coordinates()
    return np.sin(np.pi * x)


def random_field(grid, rng, scale=1.0):
    return scale * rng.standard_normal(grid.size * grid.n_components)


# ---------------------------------------------------------------------------
# inner products and norms


def test_constant_one_has_unit_l2_norm():
    g = unit_interval(32, neumann())
    one = np.ones(32)
    assert inner_rows(one, one, g, L2) == pytest.approx(1.0, abs=1e-14)


def test_sin_l2_norm_is_inverse_sqrt2():
    # trapezoid sums of sin^2(pi k h) telescope exactly on the uniform grid
    g = unit_interval(64)
    a = sin_field(g)
    assert norm_rows(a, g, L2) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_zero_field_inner_product_any_tag():
    g = unit_interval(16)
    s = SpectralLaplacian(g)
    z = np.zeros(16)
    a = sin_field(g)
    for tag in (L2, H1, HMINUS1):
        assert inner_rows(a, z, g, tag, s) == 0.0


def test_grid_mismatch_raises():
    # a row of 17 values does not live on a 16-node grid
    with pytest.raises(ValueError):
        inner_rows(np.ones(16), np.ones(17), unit_interval(16), L2)


@pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.7)], ids=lambda bc: bc.kind)
@pytest.mark.parametrize("nodes", [(9,), (5, 4)])
def test_coordinates_are_shared_by_every_component(nodes, bc):
    g = Grid(extent=(1.0,) * len(nodes), nodes=nodes, bc=bc, n_components=2)
    first, second = g.coordinates(0), g.coordinates(1)
    assert len(first) == len(second) == len(nodes)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(g.component_weights, np.concatenate([g.weights] * 2))
    for c in (2, -1):
        with pytest.raises(IndexError):
            g.coordinates(c)


def test_field_takes_its_component_count_from_the_grid():
    g = Grid(extent=(1.0,), nodes=(6,), bc=neumann(), n_components=2)
    assert Field(g, np.zeros(12)).n_components == 2
    assert Field(g, np.zeros(12), 2).n_components == 2
    for count in (0, 1, 3):
        with pytest.raises(ValueError, match="components"):
            Field(g, np.zeros(6 * count), count)


def test_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(7)
    g = unit_interval(24, neumann())
    s = SpectralLaplacian(g, shift=1.0)
    a, b, c = (random_field(g, rng) for _ in range(3))
    for tag in (L2, H1):
        assert inner_rows(a, b, g, tag, s) == pytest.approx(inner_rows(b, a, g, tag, s), rel=1e-12)
        lhs = inner_rows(a + 2.5 * c, b, g, tag, s)
        rhs = inner_rows(a, b, g, tag, s) + 2.5 * inner_rows(c, b, g, tag, s)
        assert lhs == pytest.approx(rhs, rel=1e-11)


# ---------------------------------------------------------------------------
# the canonical isomorphism and its spectral calculus


def test_gamma_of_constant_is_zero_neumann():
    g = unit_interval(20, neumann())
    s = SpectralLaplacian(g)
    out = s.apply(np.ones(20))
    np.testing.assert_allclose(out, 0.0, atol=1e-11)


def test_gamma_sin_dirichlet_eigenpair():
    g = unit_interval(256)
    s = SpectralLaplacian(g)
    y = sin_field(g)
    out = s.apply(y)
    np.testing.assert_allclose(out, np.pi**2 * y, rtol=2e-4)


def test_gamma_on_exact_eigenvectors():
    g = unit_interval(32)
    s = SpectralLaplacian(g)
    for k in (0, 3, 17):
        e = s.eigenvector(k)
        out = s.apply(e)
        np.testing.assert_allclose(out, s.eigenvalues[k] * e,
                                   atol=1e-10 * (1 + s.eigenvalues[k]))


def test_eigenvectors_orthonormal_in_weighted_l2():
    for bc in (dirichlet(), neumann(), robin(0.7)):
        g = unit_interval(24, bc)
        s = SpectralLaplacian(g)
        E = np.column_stack([s.eigenvector(k) for k in range(g.size)])
        gram = E.T @ (s.grid.weights[:, None] * E)
        np.testing.assert_allclose(gram, np.eye(g.size), atol=1e-10)


def test_gamma_symmetric_nonnegative_random_pairs():
    rng = np.random.default_rng(11)
    for bc in (dirichlet(), neumann(), robin(1.3)):
        g = unit_interval(20, bc)
        s = SpectralLaplacian(g)
        for _ in range(25):
            a, b = random_field(g, rng), random_field(g, rng)
            gab = inner_rows(s.apply(a), b, g, L2)
            gba = inner_rows(a, s.apply(b), g, L2)
            assert abs(gab - gba) <= 1e-10 * max(1.0, norm_rows(a, g) * norm_rows(b, g))
            assert inner_rows(s.apply(a), a, g, L2) >= -1e-12


def test_gamma_is_v_norm_square():
    # <Gamma v, v> = ||v||_V^2 identity, Robin case
    rng = np.random.default_rng(3)
    g = unit_interval(30, robin(0.5))
    s = SpectralLaplacian(g)
    v = random_field(g, rng)
    assert inner_rows(s.apply(v), v, g, L2) == pytest.approx(
        norm_rows(v, g, H1, s) ** 2, rel=1e-11
    )


def test_2d_gamma_and_weights():
    g = Grid(extent=(1.0, 2.0), nodes=(9, 7), bc=neumann())
    s = SpectralLaplacian(g)
    assert s.grid.weights.sum() == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(s.apply(np.ones(g.size)), 0.0, atol=1e-10)
    # spectral application agrees with the dense matrix
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.size)
    np.testing.assert_allclose(s.apply(v), s.matrix @ v, atol=1e-9)


def yosida(s, values, nu):
    """The Yosida approximant Gamma (I + nu Gamma)^-1 through the spectral calculus."""
    return s.apply_fn(values, lambda lam: lam / (1.0 + nu * lam))


def power(s, values, alpha):
    return s.apply_fn(values, lambda lam: lam**alpha)


def test_yosida_spectral_values():
    g = unit_interval(32)
    s = SpectralLaplacian(g)
    k = 4
    lam = s.eigenvalues[k]
    e = s.eigenvector(k)
    out = yosida(s, e, nu=1.0)
    np.testing.assert_allclose(out, lam / (1 + lam) * e, atol=1e-10)
    # nu -> 0 recovers Gamma on the domain
    out_small = yosida(s, e, nu=1e-12)
    np.testing.assert_allclose(out_small, lam * e, rtol=1e-9)


def test_yosida_dominated_by_gamma_and_monotone_in_nu():
    rng = np.random.default_rng(13)
    g = unit_interval(24, neumann())
    s = SpectralLaplacian(g, shift=1.0)
    y = random_field(g, rng)
    gy = norm_rows(s.apply(y), g, L2)
    prev = np.inf
    for nu in (1e-4, 1e-2, 0.5, 2.0, 10.0):
        ny = norm_rows(yosida(s, y, nu), g, L2)
        assert ny <= gy * (1 + 1e-12)
        assert ny <= prev * (1 + 1e-12)
        prev = ny


def test_gamma_power_identity_consistency_and_group_law():
    g = unit_interval(24)
    s = SpectralLaplacian(g)
    rng = np.random.default_rng(17)
    y = random_field(g, rng)
    np.testing.assert_allclose(power(s, y, 0.0), y, atol=1e-12)
    np.testing.assert_allclose(power(s, y, 1.0), s.apply(y), atol=1e-9)
    # round trip alpha then -alpha
    for alpha in (0.25, 0.5, 1.0):
        back = power(s, power(s, y, alpha), -alpha)
        np.testing.assert_allclose(back, y, atol=1e-8)
    # group law on eigenvectors
    e = s.eigenvector(2)
    lam = s.eigenvalues[2]
    ab = power(s, power(s, e, 0.5), 0.25)
    np.testing.assert_allclose(ab, lam**0.75 * e, atol=1e-8)


def test_gamma_power_sqrt_eigenvalue():
    g = unit_interval(16)
    s = SpectralLaplacian(g)
    e = s.eigenvector(3)
    out = power(s, e, 0.5)
    np.testing.assert_allclose(out, np.sqrt(s.eigenvalues[3]) * e, atol=1e-9)


def test_negative_power_rejected_on_singular_operator():
    from mintime.spaces import SpectralSingularityError

    g = unit_interval(12, neumann())
    s = SpectralLaplacian(g)  # zero eigenvalue, no shift
    with pytest.raises(SpectralSingularityError):
        s.apply_inverse(np.ones(12))


def reshaped_formula(s, values, fn):
    """fn(operator) with the values reshaped to a flat stack of rows (1D, one
    matrix product over the whole stack) or of node arrays (2D)."""
    mult = fn(s._lam + s.shift)
    if s.grid.dimension == 1:
        (ax,) = s._axes
        coef = (values.reshape(-1, s.n) * ax.weights) @ ax.eigenvectors
        return ((mult * coef) @ ax.eigenvectors.T).reshape(values.shape)
    ax, ay = s._axes
    V = values.reshape(-1, *s.grid.nodes)
    coef = ax.eigenvectors.T @ (ax.weights[:, None] * V * ay.weights[None, :]) @ ay.eigenvectors
    return (ax.eigenvectors @ (mult * coef) @ ay.eigenvectors.T).reshape(values.shape)


@pytest.mark.parametrize("grid", [
    unit_interval(3, neumann()), unit_interval(16), unit_interval(32, robin(0.8)),
    Grid(extent=(1.0, 1.0), nodes=(8, 8), bc=neumann()),
    Grid(extent=(1.0, 2.0), nodes=(16, 12), bc=dirichlet()),
], ids=["neumann3", "dirichlet16", "robin32", "neumann8x8", "dirichlet16x12"])
def test_apply_fn_keeps_the_one_row_bits_by_shape(grid):
    # one row (n,) and a stack of single rows (rows, 1, n) give every row the
    # bits of its own one-row product; a flat stack (rows, n) keeps the bits
    # of one product over the whole stack, on a 2D grid those of each row
    s = SpectralLaplacian(grid, shift=1.0)
    fn = lambda lam: 1.0 / (1.0 + lam)  # noqa: E731
    V = np.random.default_rng(35).standard_normal((300, s.n))
    keep = V.copy()
    one = np.array([s.apply_fn(v, fn) for v in V])
    want = np.array([reshaped_formula(s, v, fn) for v in V])
    single = s.apply_fn(V[:, None, :], fn)
    flat = s.apply_fn(V, fn)
    assert one.shape == flat.shape == V.shape and single.shape == (300, 1, s.n)
    assert one.tobytes() == want.tobytes()
    assert single.tobytes() == want.tobytes()
    assert flat.tobytes() == reshaped_formula(s, V, fn).tobytes()
    if grid.dimension == 2:
        assert flat.tobytes() == want.tobytes()
    assert V.tobytes() == keep.tobytes()


# ---------------------------------------------------------------------------
# duality mappings


def test_duality_map_l2_is_identity():
    rng = np.random.default_rng(19)
    g = unit_interval(10, neumann())
    u = random_field(g, rng)
    np.testing.assert_allclose(duality_rows(u, g, L2), u)


def test_duality_map_l4_constant_field():
    g = unit_interval(12, neumann())
    one = np.ones(12)
    out = duality_rows(one, g, L4)
    np.testing.assert_allclose(out, one, rtol=1e-12)


def test_duality_map_l4_two_node_example():
    # u = (2, 0) on two equal-weight nodes of a unit-measure grid:
    # ||u||_4 = 2 * 2^(-1/4), F(u) = ||u||_4^(-2) * (8, 0)
    from mintime.spaces import _lp_map

    w = np.array([0.5, 0.5])
    u = np.array([2.0, 0.0])
    nrm4 = (w @ np.abs(u) ** 4) ** 0.25
    assert nrm4 == pytest.approx(2 * 2 ** (-0.25), rel=1e-14)
    f = _lp_map(u, w, 4.0)
    np.testing.assert_allclose(f, nrm4 ** (-2.0) * np.array([8.0, 0.0]), rtol=1e-13)
    # both contract identities under the weighted pairing
    assert w @ (f * u) == pytest.approx(nrm4**2, rel=1e-13)
    assert (w @ np.abs(f) ** (4 / 3)) ** 0.75 == pytest.approx(nrm4, rel=1e-13)


@pytest.mark.parametrize("tag_name", ["L2", "L4", "Hminus1"])
def test_duality_map_contract_random_fields(tag_name):
    rng = np.random.default_rng(23)
    g = unit_interval(16)
    s = SpectralLaplacian(g)
    tag = {"L2": L2, "L4": L4, "Hminus1": HMINUS1}[tag_name]
    for _ in range(200):
        u = random_field(g, rng, scale=rng.uniform(0.1, 10))
        f = duality_rows(u, g, tag, s)
        nu = norm_rows(u, g, tag, s)
        assert inner_rows(f, u, g) == pytest.approx(nu**2, rel=1e-9)
        assert norm_rows(f, g, tag, s, dual=True) == pytest.approx(nu, rel=1e-9)
        # F^-1 inverts F
        back = duality_rows(f, g, tag, s, inverse=True)
        np.testing.assert_allclose(back, u, rtol=1e-8, atol=1e-10 * nu)


def test_duality_map_zero_field():
    g = unit_interval(8)
    s = SpectralLaplacian(g)
    z = np.zeros(8)
    for tag in (L2, L4, HMINUS1):
        np.testing.assert_allclose(duality_rows(z, g, tag, s), 0.0)


# ---------------------------------------------------------------------------
# the ball resolvent


def test_resolvent_interior_branch():
    g = unit_interval(6, neumann())
    rng = np.random.default_rng(29)
    eps, rho = 0.4, 1.0
    zeta = random_field(g, rng, scale=0.01)
    nz = norm_rows(zeta, g, L2, dual=True)
    assert nz < eps * rho
    u = resolvent_rows(zeta, g, L2, eps, rho)
    np.testing.assert_allclose(u, zeta / eps, rtol=1e-12)


def test_resolvent_saturated_branch():
    g = unit_interval(6, neumann())
    rng = np.random.default_rng(31)
    eps, rho = 0.01, 2.0
    zeta = random_field(g, rng, scale=50.0)
    u = resolvent_rows(zeta, g, L2, eps, rho)
    assert norm_rows(u, g, L2) == pytest.approx(rho, rel=1e-12)
    np.testing.assert_allclose(u, rho * zeta / norm_rows(zeta, g, L2, dual=True), rtol=1e-12)


def test_resolvent_hand_example_two_unit_nodes():
    # L2, eps = 0.1, rho = 1, zeta = (0.3, 0.4) on two unit-weight nodes:
    # ||zeta|| = 0.5 > eps*rho, so u = zeta/||zeta|| = (0.6, 0.8)
    w = np.ones(2)
    zeta = np.array([0.3, 0.4])
    nz = np.sqrt(w @ zeta**2)
    assert nz == pytest.approx(0.5, rel=1e-15)
    scale = min(1 / 0.1, 1.0 / nz)
    u = scale * zeta
    np.testing.assert_allclose(u, [0.6, 0.8], rtol=1e-14)
    # cross-check against constrained minimization of eps/2||u||^2 - <zeta,u>
    res = scipy.optimize.minimize(
        lambda v: 0.05 * (w @ v**2) - w @ (zeta * v),
        x0=np.zeros(2),
        constraints=[{"type": "ineq", "fun": lambda v: 1.0 - np.sqrt(w @ v**2 + 1e-300)}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 200},
    )
    np.testing.assert_allclose(res.x, u, atol=1e-6)


def test_resolvent_eps_zero_and_indeterminacy():
    g = unit_interval(6, neumann())
    zeta = np.linspace(0.5, 1.0, 6)
    u = resolvent_rows(zeta, g, L2, 0.0, rho=3.0)
    assert norm_rows(u, g, L2) == pytest.approx(3.0, rel=1e-12)
    assert np.all(resolvent_rows(np.zeros(6), g, L2, 0.0, rho=1.0) == 0.0)


@pytest.mark.parametrize("tag_name", ["L2", "L4", "H1", "Hminus1"])
def test_resolvent_eps_zero_is_the_bang_bang_law_with_the_zero_selection(tag_name):
    # rho F^-1(zeta)/||zeta||_* on every nonzero row, whatever its scale, and
    # exactly 0 on a zero row, without a 0/0 (RuntimeWarnings are errors)
    tag = {"L2": L2, "L4": L4, "H1": H1, "Hminus1": HMINUS1}[tag_name]
    g = unit_interval(7)
    s = SpectralLaplacian(g) if tag.needs_spectral else None
    Z = np.random.default_rng(44).standard_normal((4, 7)) * np.array([[1e-8], [1.0], [1e8], [1.0]])
    Z[3] = 0.0
    U = resolvent_rows(Z, g, tag, 0.0, rho=2.5, s=s)
    assert np.all(U[3] == 0.0)
    np.testing.assert_allclose(norm_rows(U[:3], g, tag, s), 2.5, rtol=1e-12)
    direction = duality_rows(Z[:3], g, tag, s, inverse=True)
    np.testing.assert_allclose(U[:3] / np.abs(U[:3]).max(axis=1, keepdims=True),
                               direction / np.abs(direction).max(axis=1, keepdims=True),
                               rtol=1e-12, atol=1e-14)
    assert np.all(resolvent_rows(Z[3], g, tag, 0.0, rho=2.5, s=s) == 0.0)


def _l4_rows(components):
    """Rows of one- and two-component L4 values over six decades, with a zero
    row and a zero (negative-zero) block."""
    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann(), n_components=components)
    rng = np.random.default_rng(40 + components)
    V = rng.standard_normal((6, g.size * components)) * 10.0 ** rng.integers(-3, 3, (6, 1))
    V[1] = 0.0
    V[2, :16] = -0.0
    return g, V


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("components", [1, 2])
def test_l4_norm_of_one_row_keeps_its_bits_alone_and_in_a_stack(components, dual):
    # the Lp chain runs in place on one temporary: each row's norm is the
    # three-temporary formula's to the bit, alone and inside a stack, and the
    # input is left as it was
    g, V = _l4_rows(components)
    keep = V.copy()
    p = 4.0 / 3.0 if dual else 4.0
    w = g.component_weights.reshape(components, 16)
    stacked = norm_rows(V, g, L4, dual=dual)
    for v, row in zip(V, stacked):
        comp = np.add.reduce(w * np.abs(v.reshape(components, 16)) ** p, axis=-1) ** (1.0 / p)
        old = np.sqrt(np.add.reduce(np.square(comp), axis=-1))
        assert norm_rows(v, g, L4, dual=dual).tobytes() == old.tobytes() == row.tobytes()
    assert V.tobytes() == keep.tobytes()


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("components", [1, 2])
def test_l4_resolvent_keeps_the_bits_of_its_dual_norm_and_inverse_map(components, eps):
    # the L4 resolvent shares one set of component norms between ||zeta||_*
    # and F^-1(zeta), and scales F^-1 in place: on a stack and on each row it
    # is the formula on norm_rows and duality_rows to the bit
    g, Z = _l4_rows(components)
    keep = Z.copy()
    for z in (Z, *Z):
        nz = np.maximum(norm_rows(z, g, L4, dual=True), 1e-300)[..., None]
        finv = duality_rows(z, g, L4, inverse=True)
        old = 2.5 * finv / nz if eps == 0.0 else finv * np.minimum(1.0 / eps, 2.5 / nz)
        assert resolvent_rows(z, g, L4, eps, 2.5).tobytes() == old.tobytes()
    assert Z.tobytes() == keep.tobytes()


@pytest.mark.parametrize("tag_name", ["L2", "L4", "H1", "Hminus1"])
def test_resolvent_derivative_matches_central_differences(tag_name):
    """The clamp derivative D against central differences of the resolvent,
    on an interior and a saturated row away from the kink ||zeta||_* = rho eps."""
    tag = {"L2": L2, "L4": L4, "H1": H1, "Hminus1": HMINUS1}[tag_name]
    g = unit_interval(7)
    s = SpectralLaplacian(g) if tag.needs_spectral else None
    rng = np.random.default_rng(43)
    eps, rho = 0.1, 2.0
    base = rng.standard_normal((2, 7))
    Z = base * (np.array([0.3, 3.0]) * rho * eps / norm_rows(base, g, tag, s, dual=True))[:, None]
    dZ = rng.standard_normal((2, 7))
    got = resolvent_derivative_rows(Z, dZ, g, tag, eps, rho, s)
    # L4's F^-1 (|v|^(1/3)) curves sharply at the interior row's smallest
    # entry, so the step is small
    h = 1e-6 * np.linalg.norm(Z, axis=1, keepdims=True) / np.linalg.norm(dZ, axis=1, keepdims=True)
    fd = (resolvent_rows(Z + h * dZ, g, tag, eps, rho, s)
          - resolvent_rows(Z - h * dZ, g, tag, eps, rho, s)) / (2 * h)
    for row in range(2):
        assert np.linalg.norm(got[row] - fd[row]) <= 1e-7 * np.linalg.norm(got[row])
    # a zero row lies inside the ball: D = F^-1/eps, with no division warning
    # (on L4, F^-1 at dzeta: the directional derivative of the 1-homogeneous
    # F^-1 at zero)
    zero = resolvent_derivative_rows(np.zeros(7), dZ[0], g, tag, eps, rho, s)
    inside = (resolvent_derivative_rows(1e-3 * Z[0], dZ[0], g, tag, eps, rho, s)
              if tag.is_hilbert else duality_rows(dZ[0], g, tag, inverse=True) / eps)
    np.testing.assert_allclose(zero, inside, rtol=1e-14)


@pytest.mark.parametrize("tag_name", ["L2", "L4"])
@pytest.mark.parametrize("inverse", [False, True])
def test_duality_derivative_matches_central_differences(tag_name, inverse):
    """DF and DF^-1 against central differences of the duality maps, per
    component block, on two-component rows whose second block is zero, as a
    first-component control's rows are (RuntimeWarnings are errors)."""
    tag = {"L2": L2, "L4": L4}[tag_name]
    g = Grid(extent=(1.0,), nodes=(7,), bc=neumann(), n_components=2)
    rng = np.random.default_rng(53)
    V = rng.standard_normal((3, 14)) * np.array([[1e-3], [1.0], [1e3]])
    dV = rng.standard_normal((3, 14))
    V[:, 7:] = 0.0
    got = duality_derivative_rows(V, dV, g, tag, inverse=inverse)
    h = 1e-6 * np.linalg.norm(V, axis=1, keepdims=True) / np.linalg.norm(dV, axis=1, keepdims=True)
    fd = (duality_rows(V + h * dV, g, tag, inverse=inverse)
          - duality_rows(V - h * dV, g, tag, inverse=inverse)) / (2 * h)
    for row in range(3):
        assert np.linalg.norm(got[row] - fd[row]) <= 1e-7 * np.linalg.norm(got[row])
    # on the zero block the map is odd and 1-homogeneous: its value at dV
    np.testing.assert_allclose(got[:, 7:], duality_rows(dV, g, tag, inverse=inverse)[:, 7:],
                               rtol=1e-14)


@pytest.mark.parametrize("tag_name", ["L2", "L4", "H1", "Hminus1"])
def test_resolvent_derivative_is_symmetric_and_nonnegative(tag_name):
    """<dZ1, D dZ2> = <dZ2, D dZ1> and <dZ, D dZ> >= 0 in the duality pairing,
    on a row inside and a row outside the ball: conjugate gradients on the
    Newton step of the inner solve need both. The first direction is the row
    itself, along which the clamp is flat outside the ball."""
    tag = {"L2": L2, "L4": L4, "H1": H1, "Hminus1": HMINUS1}[tag_name]
    g = unit_interval(7)
    s = SpectralLaplacian(g) if tag.needs_spectral else None
    w = g.component_weights
    rng = np.random.default_rng(47)
    eps, rho = 0.1, 2.0
    for radius in (0.3, 3.0):  # ||zeta||_* in units of rho eps
        base = rng.standard_normal(7)
        z = base * (radius * rho * eps / norm_rows(base, g, tag, s, dual=True))
        dZ = np.vstack([z, rng.standard_normal((6, 7))])
        D = resolvent_derivative_rows(np.tile(z, (7, 1)), dZ, g, tag, eps, rho, s)
        pairing = (dZ * w) @ D.T  # [i, j] = <dZ_i, D dZ_j>
        scale = np.abs(pairing).max()
        np.testing.assert_allclose(pairing, pairing.T, rtol=0.0, atol=1e-12 * scale)
        assert np.linalg.eigvalsh(pairing).min() >= -1e-12 * scale


@pytest.mark.parametrize("tag_name", ["L2", "L4"])
def test_resolvent_is_ball_constrained_argmin(tag_name):
    """(eps F + N_K)^-1 zeta minimizes eps/2 ||u||_U^2 - <zeta, u> over the ball."""
    tag = {"L2": L2, "L4": L4}[tag_name]
    g = Grid(extent=(1.0,), nodes=(7,), bc=neumann())
    w = g.weights
    rng = np.random.default_rng(37)

    def unorm(v):
        if tag.kind == "L2":
            return np.sqrt(w @ v**2)
        return (w @ np.abs(v) ** 4) ** 0.25

    for eps, rho, scale in [(0.5, 1.0, 0.1), (0.1, 1.0, 2.0), (0.05, 2.5, 30.0)]:
        zeta = scale * rng.standard_normal(7)
        u = resolvent_rows(zeta, g, tag, eps, rho)
        assert unorm(u) <= rho * (1 + 1e-12)

        def objective(v):
            return 0.5 * eps * unorm(v) ** 2 - w @ (zeta * v)

        best = None
        for trial in range(4):
            x0 = rng.standard_normal(7) * rho / 4 if trial else u * 0.9
            res = scipy.optimize.minimize(
                objective,
                x0=x0,
                constraints=[{"type": "ineq", "fun": lambda v: rho - unorm(v)}],
                method="SLSQP",
                options={"ftol": 1e-16, "maxiter": 500},
            )
            if best is None or res.fun < best.fun:
                best = res
        assert objective(u) <= best.fun + 1e-6
        np.testing.assert_allclose(u, best.x, atol=2e-4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["L2", "L4", "Hminus1"]))
def test_duality_contract_property(seed, tag_name):
    rng = np.random.default_rng(seed)
    g = unit_interval(12)
    s = SpectralLaplacian(g)
    tag = {"L2": L2, "L4": L4, "Hminus1": HMINUS1}[tag_name]
    u = rng.uniform(0.05, 5.0) * rng.standard_normal(12)
    f = duality_rows(u, g, tag, s)
    nu = norm_rows(u, g, tag, s)
    assert inner_rows(f, u, g) == pytest.approx(nu**2, rel=1e-9)
    assert norm_rows(f, g, tag, s, dual=True) == pytest.approx(nu, rel=1e-9)


def test_hminus1_requires_dirichlet():
    g = unit_interval(8, neumann())
    s = SpectralLaplacian(g)
    with pytest.raises(ValueError):
        norm_rows(np.ones(8), g, HMINUS1, s)


def test_lp_tag_validation():
    with pytest.raises(ValueError):
        NormTag("Lp")


# ---------------------------------------------------------------------------
# the refusals of the grid and space layer: case -> (call, exception, message)

_LINE = unit_interval(8)
REFUSALS = {
    "bc-unknown-kind": (lambda: BoundaryCondition("periodic"), ValueError,
                        "unknown boundary condition kind 'periodic'"),
    "bc-robin-without-gamma": (lambda: BoundaryCondition("robin"), ValueError,
                               "robin boundary condition needs gamma > 0"),
    "bc-gamma-off-robin": (lambda: BoundaryCondition("neumann", 0.5), ValueError,
                           "gamma is only meaningful for robin"),
    "grid-extent-and-nodes-lengths": (lambda: Grid((1.0,), (8, 8)), ValueError,
                                      "extent and nodes must have the same length"),
    "grid-3-axes": (lambda: Grid((1.0,) * 3, (4,) * 3), ValueError,
                    "only 1D and 2D grids are supported"),
    "grid-zero-extent": (lambda: Grid((0.0,), (8,)), ValueError, "extents must be positive"),
    "grid-no-components": (lambda: Grid((1.0,), (8,), n_components=0), ValueError,
                           "need n_components >= 1"),
    "field-value-count": (lambda: Field(_LINE, np.zeros(9)), ValueError,
                          "field has 9 values, expected 1 x 8"),
    "field-non-finite": (lambda: Field(_LINE, np.full(8, np.nan)), ValueError,
                         "field values must be finite"),
    "field-component-out-of-range": (lambda: Field(_LINE, np.zeros(8)).component(1), IndexError,
                                     "component 1 of 1"),
    "apply-fn-value-count": (lambda: SpectralLaplacian(_LINE).apply_fn(np.zeros(9), np.sqrt),
                             ValueError, "expected 8 nodal values, got 9"),
    "spectral-tag-without-laplacian": (lambda: norm_rows(np.ones(8), _LINE, H1), ValueError,
                                       "norm tag H1 needs a SpectralLaplacian"),
    "hminus1-on-a-shifted-laplacian": (
        lambda: norm_rows(np.ones(8), _LINE, HMINUS1, SpectralLaplacian(_LINE, 1.0)),
        ValueError, "Hminus1 uses the unshifted Dirichlet Laplacian"),
    "inner-rows-under-l4": (lambda: inner_rows(np.ones(8), np.ones(8), _LINE, L4), ValueError,
                            "L4 is not an inner-product norm"),
    "resolvent-zero-rho": (lambda: resolvent_rows(np.ones(8), _LINE, L2, 0.1, 0.0), ValueError,
                           "ball radius must be positive"),
    "resolvent-negative-eps": (lambda: resolvent_rows(np.ones(8), _LINE, L2, -0.1, 1.0),
                               ValueError, "eps must be nonnegative"),
    "resolvent-derivative-zero-eps": (
        lambda: resolvent_derivative_rows(np.ones(8), np.ones(8), _LINE, L2, 0.0, 1.0),
        ValueError, "rho and eps must be positive"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, exc, message = REFUSALS[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()
