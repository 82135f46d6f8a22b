"""Discrete space layer: inner products, spectral calculus, duality maps."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from mintime import (
    Field,
    Grid,
    L2,
    L4,
    H1,
    HMINUS1,
    NormTag,
    SpectralLaplacian,
    dirichlet,
    dual_norm,
    duality_map_F,
    duality_map_F_inverse,
    gamma_apply,
    gamma_power,
    inner_product,
    neumann,
    norm,
    resolvent_eF_NK,
    robin,
    yosida_apply,
)
from mintime.spaces import (
    IndeterminateSelectionError,
    norm_rows,
    pairing,
    resolvent_derivative_rows,
    resolvent_rows,
)


def unit_interval(n=64, bc=None):
    return Grid(extent=(1.0,), nodes=(n,), bcs=(bc or dirichlet(),))


def sin_field(grid):
    (x,) = grid.coordinates()
    return Field(grid, np.sin(np.pi * x))


def random_field(grid, rng, scale=1.0):
    return Field(grid, scale * rng.standard_normal(grid.size * grid.n_components),
                 n_components=grid.n_components)


# ---------------------------------------------------------------------------
# inner products and norms


def test_constant_one_has_unit_l2_norm():
    g = unit_interval(32, neumann())
    one = Field(g, np.ones(32))
    assert inner_product(one, one, L2) == pytest.approx(1.0, abs=1e-14)


def test_sin_l2_norm_is_inverse_sqrt2():
    # trapezoid sums of sin^2(pi k h) telescope exactly on the uniform grid
    g = unit_interval(64)
    a = sin_field(g)
    assert norm(a, L2) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_zero_field_inner_product_any_tag():
    g = unit_interval(16)
    s = SpectralLaplacian(g, g.bcs[0])
    z = Field(g, np.zeros(16))
    a = sin_field(g)
    for tag in (L2, H1, HMINUS1):
        assert inner_product(a, z, tag, s) == 0.0


def test_grid_mismatch_raises():
    a = Field(unit_interval(16), np.ones(16))
    b = Field(unit_interval(17), np.ones(17))
    with pytest.raises(ValueError):
        inner_product(a, b, L2)


def test_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(7)
    g = unit_interval(24, neumann())
    s = SpectralLaplacian(g, g.bcs[0], shift=1.0)
    a, b, c = (random_field(g, rng) for _ in range(3))
    for tag in (L2, H1):
        assert inner_product(a, b, tag, s) == pytest.approx(inner_product(b, a, tag, s), rel=1e-12)
        lhs = inner_product(Field(g, a.values + 2.5 * c.values), b, tag, s)
        rhs = inner_product(a, b, tag, s) + 2.5 * inner_product(c, b, tag, s)
        assert lhs == pytest.approx(rhs, rel=1e-11)


# ---------------------------------------------------------------------------
# the canonical isomorphism and its spectral calculus


def test_gamma_of_constant_is_zero_neumann():
    g = unit_interval(20, neumann())
    s = SpectralLaplacian(g, g.bcs[0])
    out = gamma_apply(Field(g, np.ones(20)), s)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-11)


def test_gamma_sin_dirichlet_eigenpair():
    g = unit_interval(256)
    s = SpectralLaplacian(g, g.bcs[0])
    y = sin_field(g)
    out = gamma_apply(y, s)
    np.testing.assert_allclose(out.values, np.pi**2 * y.values, rtol=2e-4)


def test_gamma_on_exact_eigenvectors():
    g = unit_interval(32)
    s = SpectralLaplacian(g, g.bcs[0])
    for k in (0, 3, 17):
        e = Field(g, s.eigenvector(k))
        out = gamma_apply(e, s)
        np.testing.assert_allclose(out.values, s.eigenvalues[k] * e.values,
                                   atol=1e-10 * (1 + s.eigenvalues[k]))


def test_eigenvectors_orthonormal_in_weighted_l2():
    for bc in (dirichlet(), neumann(), robin(0.7)):
        g = unit_interval(24, bc)
        s = SpectralLaplacian(g, bc)
        E = np.column_stack([s.eigenvector(k) for k in range(g.size)])
        gram = E.T @ (s.weights[:, None] * E)
        np.testing.assert_allclose(gram, np.eye(g.size), atol=1e-10)


def test_gamma_symmetric_nonnegative_random_pairs():
    rng = np.random.default_rng(11)
    for bc in (dirichlet(), neumann(), robin(1.3)):
        g = unit_interval(20, bc)
        s = SpectralLaplacian(g, bc)
        for _ in range(25):
            a, b = random_field(g, rng), random_field(g, rng)
            gab = inner_product(gamma_apply(a, s), b, L2)
            gba = inner_product(a, gamma_apply(b, s), L2)
            assert abs(gab - gba) <= 1e-10 * max(1.0, norm(a, L2) * norm(b, L2))
            assert inner_product(gamma_apply(a, s), a, L2) >= -1e-12


def test_gamma_is_v_norm_square():
    # <Gamma v, v> = ||v||_V^2 identity, Robin case
    rng = np.random.default_rng(3)
    g = unit_interval(30, robin(0.5))
    s = SpectralLaplacian(g, g.bcs[0])
    v = random_field(g, rng)
    assert inner_product(gamma_apply(v, s), v, L2) == pytest.approx(
        norm(v, H1, s) ** 2, rel=1e-11
    )


def test_2d_gamma_and_weights():
    g = Grid(extent=(1.0, 2.0), nodes=(9, 7), bcs=(neumann(),))
    s = SpectralLaplacian(g, g.bcs[0])
    assert s.weights.sum() == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(s.apply(np.ones(g.size)), 0.0, atol=1e-10)
    # spectral application agrees with the dense matrix
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.size)
    np.testing.assert_allclose(s.apply(v), s.matrix @ v, atol=1e-9)


def test_yosida_spectral_values():
    g = unit_interval(32)
    s = SpectralLaplacian(g, g.bcs[0])
    k = 4
    lam = s.eigenvalues[k]
    e = Field(g, s.eigenvector(k))
    out = yosida_apply(e, s, nu=1.0)
    np.testing.assert_allclose(out.values, lam / (1 + lam) * e.values, atol=1e-10)
    # nu -> 0 recovers Gamma on the domain
    out_small = yosida_apply(e, s, nu=1e-12)
    np.testing.assert_allclose(out_small.values, lam * e.values, rtol=1e-9)


def test_yosida_dominated_by_gamma_and_monotone_in_nu():
    rng = np.random.default_rng(13)
    g = unit_interval(24, neumann())
    s = SpectralLaplacian(g, g.bcs[0], shift=1.0)
    y = random_field(g, rng)
    gy = norm(gamma_apply(y, s), L2)
    prev = np.inf
    for nu in (1e-4, 1e-2, 0.5, 2.0, 10.0):
        ny = norm(yosida_apply(y, s, nu), L2)
        assert ny <= gy * (1 + 1e-12)
        assert ny <= prev * (1 + 1e-12)
        prev = ny


def test_gamma_power_identity_consistency_and_group_law():
    g = unit_interval(24)
    s = SpectralLaplacian(g, g.bcs[0])
    rng = np.random.default_rng(17)
    y = random_field(g, rng)
    np.testing.assert_allclose(gamma_power(y, s, 0.0).values, y.values, atol=1e-12)
    np.testing.assert_allclose(
        gamma_power(y, s, 1.0).values, gamma_apply(y, s).values, atol=1e-9
    )
    # round trip alpha then -alpha
    for alpha in (0.25, 0.5, 1.0):
        back = gamma_power(gamma_power(y, s, alpha), s, -alpha)
        np.testing.assert_allclose(back.values, y.values, atol=1e-8)
    # group law on eigenvectors
    e = Field(g, s.eigenvector(2))
    lam = s.eigenvalues[2]
    ab = gamma_power(gamma_power(e, s, 0.5), s, 0.25)
    np.testing.assert_allclose(ab.values, lam**0.75 * e.values, atol=1e-8)


def test_gamma_power_sqrt_eigenvalue():
    g = unit_interval(16)
    s = SpectralLaplacian(g, g.bcs[0])
    e = Field(g, s.eigenvector(3))
    out = gamma_power(e, s, 0.5)
    np.testing.assert_allclose(out.values, np.sqrt(s.eigenvalues[3]) * e.values, atol=1e-9)


def test_negative_power_rejected_on_singular_operator():
    from mintime.spaces import SpectralSingularityError

    g = unit_interval(12, neumann())
    s = SpectralLaplacian(g, g.bcs[0])  # zero eigenvalue, no shift
    y = Field(g, np.ones(12))
    with pytest.raises(SpectralSingularityError):
        gamma_power(y, s, -0.5)


# ---------------------------------------------------------------------------
# duality mappings


def test_duality_map_l2_is_identity():
    rng = np.random.default_rng(19)
    g = unit_interval(10, neumann())
    u = random_field(g, rng)
    np.testing.assert_allclose(duality_map_F(u, L2).values, u.values)


def test_duality_map_l4_constant_field():
    g = unit_interval(12, neumann())
    one = Field(g, np.ones(12))
    out = duality_map_F(one, L4)
    np.testing.assert_allclose(out.values, one.values, rtol=1e-12)


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
    s = SpectralLaplacian(g, g.bcs[0])
    tag = {"L2": L2, "L4": L4, "Hminus1": HMINUS1}[tag_name]
    for _ in range(200):
        u = random_field(g, rng, scale=rng.uniform(0.1, 10))
        f = duality_map_F(u, tag, s)
        nu = norm(u, tag, s)
        assert pairing(f, u) == pytest.approx(nu**2, rel=1e-9)
        assert dual_norm(f, tag, s) == pytest.approx(nu, rel=1e-9)
        # F^-1 inverts F
        back = duality_map_F_inverse(f, tag, s)
        np.testing.assert_allclose(back.values, u.values, rtol=1e-8, atol=1e-10 * nu)


def test_duality_map_zero_field():
    g = unit_interval(8)
    s = SpectralLaplacian(g, g.bcs[0])
    z = Field(g, np.zeros(8))
    for tag in (L2, L4, HMINUS1):
        np.testing.assert_allclose(duality_map_F(z, tag, s).values, 0.0)


# ---------------------------------------------------------------------------
# the ball resolvent


def test_resolvent_interior_branch():
    g = unit_interval(6, neumann())
    rng = np.random.default_rng(29)
    eps, rho = 0.4, 1.0
    zeta = random_field(g, rng, scale=0.01)
    nz = dual_norm(zeta, L2)
    assert nz < eps * rho
    u = resolvent_eF_NK(zeta, L2, eps, rho)
    np.testing.assert_allclose(u.values, zeta.values / eps, rtol=1e-12)


def test_resolvent_saturated_branch():
    g = unit_interval(6, neumann())
    rng = np.random.default_rng(31)
    eps, rho = 0.01, 2.0
    zeta = random_field(g, rng, scale=50.0)
    u = resolvent_eF_NK(zeta, L2, eps, rho)
    assert norm(u, L2) == pytest.approx(rho, rel=1e-12)
    np.testing.assert_allclose(u.values, rho * zeta.values / dual_norm(zeta, L2), rtol=1e-12)


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
    zeta = Field(g, np.linspace(0.5, 1.0, 6))
    u = resolvent_eF_NK(zeta, L2, 0.0, rho=3.0)
    assert norm(u, L2) == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(IndeterminateSelectionError):
        resolvent_eF_NK(Field(g, np.zeros(6)), L2, 0.0, rho=1.0)


@pytest.mark.parametrize("tag_name", ["L2", "H1", "Hminus1"])
def test_resolvent_derivative_matches_central_differences(tag_name):
    """The clamp derivative D against central differences of the resolvent,
    on an interior and a saturated row away from the kink ||zeta||_* = rho eps."""
    tag = {"L2": L2, "H1": H1, "Hminus1": HMINUS1}[tag_name]
    g = unit_interval(7)
    s = SpectralLaplacian(g, dirichlet()) if tag.needs_spectral else None
    rng = np.random.default_rng(43)
    eps, rho = 0.1, 2.0
    base = rng.standard_normal((2, 7))
    Z = base * (np.array([0.3, 3.0]) * rho * eps / norm_rows(base, g, tag, s, dual=True))[:, None]
    dZ = rng.standard_normal((2, 7))
    got = resolvent_derivative_rows(Z, dZ, g, tag, eps, rho, s)
    h = 1e-5 * np.linalg.norm(Z, axis=1, keepdims=True) / np.linalg.norm(dZ, axis=1, keepdims=True)
    fd = (resolvent_rows(Z + h * dZ, g, tag, eps, rho, s)
          - resolvent_rows(Z - h * dZ, g, tag, eps, rho, s)) / (2 * h)
    for row in range(2):
        assert np.linalg.norm(got[row] - fd[row]) <= 1e-7 * np.linalg.norm(got[row])
    # a zero row lies inside the ball: D = F^-1/eps, with no division warning
    zero = resolvent_derivative_rows(np.zeros(7), dZ[0], g, tag, eps, rho, s)
    np.testing.assert_allclose(zero, resolvent_derivative_rows(1e-3 * Z[0], dZ[0], g, tag,
                                                               eps, rho, s), rtol=1e-14)
    with pytest.raises(ValueError, match="nonlinear"):
        resolvent_derivative_rows(Z, dZ, g, L4, eps, rho)


@pytest.mark.parametrize("tag_name", ["L2", "L4"])
def test_resolvent_is_ball_constrained_argmin(tag_name):
    """(eps F + N_K)^-1 zeta minimizes eps/2 ||u||_U^2 - <zeta, u> over the ball."""
    tag = {"L2": L2, "L4": L4}[tag_name]
    g = Grid(extent=(1.0,), nodes=(7,), bcs=(neumann(),))
    w = g.weights(0)
    rng = np.random.default_rng(37)

    def unorm(v):
        if tag.kind == "L2":
            return np.sqrt(w @ v**2)
        return (w @ np.abs(v) ** 4) ** 0.25

    for eps, rho, scale in [(0.5, 1.0, 0.1), (0.1, 1.0, 2.0), (0.05, 2.5, 30.0)]:
        zeta = Field(g, scale * rng.standard_normal(7))
        u = resolvent_eF_NK(zeta, tag, eps, rho)
        assert unorm(u.values) <= rho * (1 + 1e-12)

        def objective(v):
            return 0.5 * eps * unorm(v) ** 2 - w @ (zeta.values * v)

        best = None
        for trial in range(4):
            x0 = rng.standard_normal(7) * rho / 4 if trial else u.values * 0.9
            res = scipy.optimize.minimize(
                objective,
                x0=x0,
                constraints=[{"type": "ineq", "fun": lambda v: rho - unorm(v)}],
                method="SLSQP",
                options={"ftol": 1e-16, "maxiter": 500},
            )
            if best is None or res.fun < best.fun:
                best = res
        assert objective(u.values) <= best.fun + 1e-6
        np.testing.assert_allclose(u.values, best.x, atol=2e-4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["L2", "L4", "Hminus1"]))
def test_duality_contract_property(seed, tag_name):
    rng = np.random.default_rng(seed)
    g = unit_interval(12)
    s = SpectralLaplacian(g, g.bcs[0])
    tag = {"L2": L2, "L4": L4, "Hminus1": HMINUS1}[tag_name]
    u = Field(g, rng.uniform(0.05, 5.0) * rng.standard_normal(12))
    f = duality_map_F(u, tag, s)
    nu = norm(u, tag, s)
    assert pairing(f, u) == pytest.approx(nu**2, rel=1e-9)
    assert dual_norm(f, tag, s) == pytest.approx(nu, rel=1e-9)


def test_hminus1_requires_dirichlet():
    g = unit_interval(8, neumann())
    s = SpectralLaplacian(g, g.bcs[0])
    u = Field(g, np.ones(8))
    with pytest.raises(ValueError):
        norm(u, HMINUS1, s)


def test_lp_tag_validation():
    with pytest.raises(ValueError):
        NormTag("Lp", 3)
    assert NormTag("Lp", 2).kind == "L2"
