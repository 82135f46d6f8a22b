"""Hypothesis audit: recovered constants and exact projection bounds."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mintime import (
    ControlMap,
    FitzHughNagumo,
    Grid,
    H1,
    L2,
    L4,
    HMINUS1,
    PorousMedia,
    PotentialDrift,
    ReactionDiffusion2,
    dirichlet,
    neumann,
    pair_fn,
    robin,
    scalar_fn,
)
from mintime.audit import (
    _best_lower_constant,
    _dense,
    _gamma_blocks,
    _metric_state,
    _metric_ustar,
    _metric_vstar,
    _projection_matrix,
    _samples,
    audit_hypotheses,
    audit_sign_condition,
    projection_constant,
)


def test_porous_media_recovers_monotonicity_floor():
    g = Grid(extent=(1.0,), nodes=(16,), bc=dirichlet())
    spec = PorousMedia(g, beta=scalar_fn("power", 0.5, 0.5, 0.5))
    cm = ControlMap(mode="identity", u_tag=HMINUS1)
    rep = audit_hypotheses(spec, cm, samples=300, seed=1)
    a1 = rep.constant("monotonicity_g5", "alpha1")
    # beta' >= 0.5 puts the sampled constant at or above 0.45
    assert a1 >= 0.45
    assert rep.entries["monotonicity_g5"].passed


@pytest.mark.parametrize("kind", ["reaction_diffusion2", "fitzhugh_nagumo"])
def test_identity_map_full_projection_cstar_is_one(kind):
    if kind == "reaction_diffusion2":
        # Gamma = I - Lap has lambda_min = 1, so sup ||v||_V*/||v||_L2 = 1 exactly
        g = Grid(extent=(1.0,), nodes=(12,), bc=neumann(), n_components=2)
        spec = ReactionDiffusion2(g, f=pair_fn("linear2", 1.0, 0.0), g=pair_fn("zero2"))
    else:
        # V* = H^-1 x L2: the diffusionless second component attains 1
        g = Grid(extent=(1.0,), nodes=(12,), bc=dirichlet(), n_components=2)
        spec = FitzHughNagumo(g)
    cm = ControlMap(mode="identity", u_tag=L2)
    rep = audit_hypotheses(spec, cm, samples=100, seed=2)
    assert rep.constant("projection_bound_g74_2", "Cstar") == pytest.approx(1.0, abs=1e-9)
    # the audited metric and the operator's own V* norm agree
    v = np.random.default_rng(9).standard_normal((4, spec.n_dof))
    np.testing.assert_allclose(np.einsum("ri,ij,rj->r", v, _metric_vstar(spec), v),
                               spec.vstar_norms(v) ** 2, rtol=1e-12)


def test_reaction_diffusion_monotonicity_is_the_per_row_formula():
    # the audit applies A to a (samples, 2, n_dof) stack of pairs; its
    # constants equal those of one apply per sampled state
    g = Grid(extent=(1.0,), nodes=(10,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    cm = ControlMap(mode="identity", u_tag=L2)
    rep = audit_hypotheses(spec, cm, samples=100, seed=4)
    pairs = _samples(spec, np.random.default_rng(4), 200).reshape(100, 2, spec.n_dof)
    ay = np.array([[spec.apply(y) for y in pair] for pair in pairs])
    d = pairs[:, 0] - pairs[:, 1]
    a1, a2 = _best_lower_constant(spec.state_inner(ay[:, 0] - ay[:, 1], d),
                                  spec.v_norms(d) ** 2, spec.h_norm(d) ** 2)
    assert rep.entries["monotonicity_g5"].constants == {"alpha1": a1, "alpha2": a2}


def one_sample(spec, rng, scale=1.0):
    """One smooth sample alone: per component, standard normal noise smoothed
    by (1 + Gamma)^-1 as a one-row stack, then one amplitude draw, the
    product normalized in the weighted L2 norm."""
    n = spec.grid.size
    out = np.empty(spec.n_dof)
    for c in range(spec.n_components):
        noise = rng.standard_normal(n)
        out[c * n : (c + 1) * n] = spec.gamma_op.apply_fn(noise[None, :],
                                                          lambda lam: 1.0 / (1.0 + lam))[0]
    amp = scale * rng.uniform(0.3, 3.0)
    l2 = np.sqrt(np.dot(spec.grid.component_weights, out * out))
    return amp * out / max(l2, 1e-300)


def _sampled_spec(dims, bc, components):
    g = Grid(extent=(1.0,) * len(dims), nodes=dims, bc=bc, n_components=components)
    if components == 1:
        return PotentialDrift(g)
    return ReactionDiffusion2(g)


@pytest.mark.bitpin
@pytest.mark.parametrize("count", [1, 300])
@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("dims, bc, components", [
    ((16,), dirichlet(), 1), ((16,), dirichlet(), 2), ((32,), neumann(), 1),
    ((3,), neumann(), 2), ((14,), robin(0.8), 1), ((10,), robin(0.8), 2),
    ((8, 8), neumann(), 2), ((16, 12), dirichlet(), 2),
], ids=["dirichlet16x1", "dirichlet16x2", "neumann32x1", "neumann3x2", "robin14x1",
        "robin10x2", "neumann8x8x2", "dirichlet16x12x2"])
def test_stacked_samples_keep_the_bits_of_one_draw_at_a_time(dims, bc, components, scale,
                                                             count):
    # the draws keep their order and each row its one-sample bits, so the
    # generator is left where one draw at a time leaves it and every later
    # draw of an audit is the same
    spec = _sampled_spec(dims, bc, components)
    rng, ref = np.random.default_rng(count), np.random.default_rng(count)
    got = _samples(spec, rng, count, scale)
    want = np.array([one_sample(spec, ref, scale) for _ in range(count)])
    assert got.shape == (count, spec.n_dof)
    assert np.array_equal(got, want)
    assert rng.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()


def test_best_lower_constant_without_a_lead_or_a_positive_constant():
    # no sample with a leading term gives no constants
    nan_pair = _best_lower_constant(np.ones(3), np.array([0.0, 1e-14, -1.0]), np.ones(3))
    assert np.isnan(nan_pair).all()
    # a1(a2) = 1% quantile of (-2 + a2, -1 - a2) is negative on the whole grid
    # and largest at a2 = 10^-0.25, the grid point nearest the crossing 0.5
    a1, a2 = _best_lower_constant(np.array([-2.0, -1.0]), np.ones(2), np.array([1.0, -1.0]))
    assert a2 == pytest.approx(10.0 ** -0.25, rel=1e-12)
    lo, hi = -1.0 - a2, -2.0 + a2
    assert a1 == pytest.approx(lo + 0.01 * (hi - lo), rel=1e-12)


def test_potential_drift_audit_passes():
    g = Grid(extent=(1.0,), nodes=(14,), bc=robin(0.8))
    spec = PotentialDrift(g, beta=scalar_fn("cubic", 0.5), a1=0.3, b=0.1)
    cm = ControlMap(mode="identity", u_tag=L2)
    rep = audit_hypotheses(spec, cm, samples=200, seed=3)
    assert rep.entries["monotonicity_g5"].passed
    assert rep.entries["domain_estimate_A0H"].passed
    assert np.isfinite(rep.constant("fractional_bound_g74", "C"))
    d = rep.to_dict()
    assert d["entries"]["monotonicity_g5"]["constants"]["alpha1"] > 0


def test_case2_sign_condition_constant_is_zero():
    # f = y z^2/(1+z^2) with first-component target zero: the sign condition
    # holds with C1 = 0 on every sample
    g = Grid(extent=(1.0,), nodes=(12,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=1.0,
                              f=pair_fn("sat_rational", 1.0), g=pair_fn("zero2"))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    entry = audit_sign_condition(spec, cm, np.zeros(spec.n_dof), samples=200,
                                 rng=np.random.default_rng(4))
    assert entry.constants["C1"] == pytest.approx(0.0, abs=1e-12)


def test_lp_control_bound_is_sampled_not_spectral():
    # an L4 control norm does not take the bare L2 eigenvalue as C*: the
    # certified bound is finite, above the L2 value, and bounds every sampled
    # ratio of ||P v||_{V*} to ||B* v||_{U*}
    g = Grid(extent=(1.0,), nodes=(10,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, f=pair_fn("zero2"), g=pair_fn("zero2"))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    rep = audit_hypotheses(spec, cm, samples=120, seed=5)
    entry = rep.entries["projection_bound_g74_2"]
    cstar = rep.constant("projection_bound_g74_2", "Cstar")
    assert np.isfinite(cstar)
    assert entry.notes == "Lp: certified bound, not exact"
    l2 = ControlMap(mode="first_component", u_tag=L2, projection="first")
    assert cstar > audit_hypotheses(spec, l2, samples=120, seed=5).constant(
        "projection_bound_g74_2", "Cstar")
    V = _samples(spec, np.random.default_rng(5), 120)
    ratios = (spec.vstar_norms(V @ _projection_matrix(spec, cm).T)
              / cm.ustar_norms_batch(spec, cm.apply_Bstar(spec, V)))
    assert np.all(ratios <= cstar * (1.0 + 1e-12))


def test_nonlocal_kernel_coercivity_reported():
    g = Grid(extent=(1.0,), nodes=(10,), bc=neumann())
    spec = PotentialDrift(g, beta=scalar_fn("linear", 1.0))
    rng = np.random.default_rng(6)
    # identity-dominant kernel: koef(x,z) ~ delta-ish, coercive
    kern = np.eye(10) / g.weights + 0.05 * rng.random((10, 10))
    cm = ControlMap(mode="nonlocal", u_tag=L2, kernel=kern, control_grid=g)
    rep = audit_hypotheses(spec, cm, samples=100, seed=6)
    assert rep.entries["kernel_coercivity"].passed


def test_rank_deficient_nonlocal_map_fails_kernel_coercivity():
    # 4 Gaussian control nodes over 16 state nodes: B* annihilates a
    # 12-dimensional subspace, so inf ||B* v|| / ||v||_H is exactly 0 (smooth
    # samples saw 0.12)
    g = Grid(extent=(1.0,), nodes=(16,), bc=dirichlet())
    gc = Grid(extent=(1.0,), nodes=(4,), bc=dirichlet())
    (x,), (z,) = g.coordinates(), gc.coordinates()
    cm = ControlMap(mode="nonlocal", u_tag=L2, control_grid=gc,
                    kernel=np.exp(-((x[:, None] - z[None, :]) ** 2) / 0.02))
    rep = audit_hypotheses(PotentialDrift(g, beta=scalar_fn("zero")), cm, samples=200, seed=0)
    entry = rep.entries["kernel_coercivity"]
    assert entry.constants["gamma"] == 0.0
    assert not entry.passed


def test_min_samples_guard():
    g = Grid(extent=(1.0,), nodes=(8,), bc=dirichlet())
    spec = PotentialDrift(g)
    cm = ControlMap(mode="identity", u_tag=L2)
    with pytest.raises(ValueError):
        audit_hypotheses(spec, cm, samples=10)


def test_sign_condition_needs_a_full_state_target():
    g = Grid(extent=(1.0,), nodes=(8,), bc=dirichlet())
    cm = ControlMap(mode="identity", u_tag=L2)
    with pytest.raises(ValueError, match="target must be a full state vector"):
        audit_sign_condition(PotentialDrift(g), cm, np.zeros(7), 100, np.random.default_rng(0))


def _dense_map_cases():
    porous = PorousMedia(Grid(extent=(1.0,), nodes=(9,), bc=dirichlet()),
                         beta=scalar_fn("power", 0.5, 0.5, 0.5))
    g2 = Grid(extent=(1.0,), nodes=(7,), bc=neumann(), n_components=2)
    rd = ReactionDiffusion2(g2, f=pair_fn("linear2", 1.0, 0.0), g=pair_fn("zero2"))
    gd = Grid(extent=(1.0,), nodes=(8,), bc=robin(0.8))
    gc = Grid(extent=(1.0,), nodes=(5,), bc=neumann())
    kernel = np.random.default_rng(12).standard_normal((8, 5))
    return {
        "porous-identity-Hminus1": (porous, ControlMap(mode="identity", u_tag=HMINUS1)),
        "rd2-first-L2": (rd, ControlMap(mode="first_component", u_tag=L2, projection="first")),
        "rd2-identity-H1": (rd, ControlMap(mode="identity", u_tag=H1)),
        "drift-nonlocal-L2": (PotentialDrift(gd), ControlMap(mode="nonlocal", u_tag=L2,
                                                             kernel=kernel, control_grid=gc)),
    }


@pytest.mark.parametrize("case", list(_dense_map_cases()))
def test_dense_matrices_are_the_row_maps_on_the_identity(case):
    spec, cm = _dense_map_cases()[case]
    n = spec.n_dof
    cols = np.eye(n)

    def column_loop(fn, size=n):
        # the column-by-column assembly the audit used to run
        return np.column_stack([fn(np.eye(size)[:, j]) for j in range(size)])

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))

    s = spec.gamma_op
    fn = lambda lam: 1.0 / (1.0 + lam)  # noqa: E731
    block = _dense(lambda v: s.apply_fn(v, fn), s.n)
    close(block, column_loop(lambda c: s.apply_fn(c, fn), s.n))
    # the per-component blocks are the one-component matrix on the diagonal, bit for bit
    assert np.array_equal(_gamma_blocks(spec, fn),
                          scipy.linalg.block_diag(*[block] * spec.n_components))
    close(_metric_state(spec), column_loop(spec.metric_apply))
    bstar = lambda v: cm.apply_Bstar(spec, v)  # noqa: E731
    close(_dense(bstar, n), column_loop(bstar))
    p = cols.copy()
    if cm.projection == "first":
        p[spec.grid.size:, spec.grid.size:] = 0.0
    assert np.array_equal(_projection_matrix(spec, cm), p)

    # the dense metric is the row H-norm's quadratic form
    v = np.random.default_rng(13).standard_normal((4, n))
    np.testing.assert_allclose(np.einsum("ri,ij,rj->r", v, _metric_state(spec), v),
                               spec.h_norm(v) ** 2, rtol=1e-12)
    # and the dense U* metric the row U* norm's
    z = np.random.default_rng(14).standard_normal((4, cm.control_size(spec)))
    mus, k = _metric_ustar(spec, cm)
    assert k == 1.0
    np.testing.assert_allclose(np.sqrt(np.einsum("ri,ij,rj->r", z, mus, z)),
                               cm.ustar_norms_batch(spec, z), rtol=1e-12)


_BCS = {"dirichlet": dirichlet, "neumann": neumann, "robin": lambda: robin(0.8)}


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["identity", "first_component", "nonlocal"]),
       norm=st.sampled_from(["L2", "H1", "Hminus1"]), nodes=st.integers(3, 24),
       control_nodes=st.integers(3, 24), bc=st.sampled_from(sorted(_BCS)),
       seed=st.integers(0, 2**16))
def test_quadratic_projection_constant_bounds_every_sample(mode, norm, nodes, control_nodes,
                                                           bc, seed):
    # C of ||P v||_H <= C ||B* v||_U* is the exact supremum for quadratic U*
    # norms: no smooth sample exceeds it, and a Hilbert-identified control
    # (B* = P in L2) attains exactly 1
    assume(norm != "Hminus1" or bc == "dirichlet")  # H^-1 is the Dirichlet Laplacian's
    tag = {"L2": L2, "H1": H1, "Hminus1": HMINUS1}[norm]
    if mode == "first_component":
        g = Grid(extent=(1.0,), nodes=(nodes,), bc=_BCS[bc](), n_components=2)
        spec = ReactionDiffusion2(g, f=pair_fn("zero2"), g=pair_fn("zero2"))
        cm = ControlMap(mode=mode, u_tag=tag, projection="first")
    else:
        spec = PotentialDrift(Grid(extent=(1.0,), nodes=(nodes,), bc=_BCS[bc]()))
        cm = ControlMap(mode="identity", u_tag=tag)
    if mode == "nonlocal":
        assume(norm == "L2")  # spectral control norms live on the state grid
        gc = Grid(extent=(1.0,), nodes=(control_nodes,), bc=neumann())
        kernel = np.random.default_rng(seed).random((nodes, control_nodes))
        cm = ControlMap(mode=mode, u_tag=tag, kernel=kernel, control_grid=gc)
    p = _projection_matrix(spec, cm)
    c = projection_constant(spec, cm, p, _metric_state(spec))
    V = _samples(spec, np.random.default_rng(seed), 50)
    ratios = spec.h_norm(V @ p.T) / cm.ustar_norms_batch(spec, cm.apply_Bstar(spec, V))
    assert np.all(ratios <= c * (1.0 + 1e-12))
    if norm == "L2" and mode != "nonlocal":
        assert c == 1.0


def test_l4_bounds_keep_their_samples_and_notes():
    # U* = L^(4/3): the L2 eigenproblem (1 here, up to its rounding) times
    # w_min^(1/4 - 1/2), with w_min = h/2 = 1/30 on 16 Neumann nodes; no
    # samples are drawn
    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    rep = audit_hypotheses(spec, cm, samples=200, seed=3)
    cstar, cd1 = rep.entries["projection_bound_g74_2"], rep.entries["fractional_bound_g74"]
    assert cstar.constants["Cstar"] == 2.3403473193207165
    assert cd1.constants["C"] == 2.3403473193207165
    assert cstar.constants["Cstar"] == pytest.approx(30.0 ** 0.25, rel=1e-15)
    for entry in (cstar, cd1):
        assert (entry.method, entry.samples, entry.notes) == (
            "spectral", 0, "Lp: certified bound, not exact")


def _l4_case(kind, dim, bc, nodes, control_nodes, seed):
    extent, shape = (1.0,) * dim, (nodes,) * dim
    if kind == "porous":
        g = Grid(extent=extent, nodes=shape, bc=dirichlet())
        return (PorousMedia(g, beta=scalar_fn("power", 0.5, 0.5, 0.5)),
                ControlMap(mode="identity", u_tag=L4))
    if kind in ("first_component", "identity_first"):
        g = Grid(extent=extent, nodes=shape, bc=_BCS[bc](), n_components=2)
        mode = "identity" if kind == "identity_first" else kind
        return (ReactionDiffusion2(g, f=pair_fn("zero2"), g=pair_fn("zero2")),
                ControlMap(mode=mode, u_tag=L4, projection="first"))
    spec = PotentialDrift(Grid(extent=extent, nodes=shape, bc=_BCS[bc]()))
    if kind == "identity":
        return spec, ControlMap(mode="identity", u_tag=L4)
    gc = Grid(extent=(1.0,), nodes=(control_nodes,), bc=neumann())
    kernel = np.random.default_rng(seed).random((spec.grid.size, control_nodes))
    return spec, ControlMap(mode="nonlocal", u_tag=L4, kernel=kernel, control_grid=gc)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["identity", "first_component", "identity_first", "nonlocal",
                             "porous"]),
       dim=st.sampled_from([1, 2]), bc=st.sampled_from(sorted(_BCS)),
       nodes=st.integers(3, 16), control_nodes=st.integers(3, 24),
       seed=st.integers(0, 2**16))
def test_l4_projection_constants_bound_every_sample(kind, dim, bc, nodes, control_nodes, seed):
    # the gain, C* and C_d1 bound every smooth, Gaussian and nodal-spike ratio;
    # pointwise maps on an L2 state attain the gain with a lightest-node spike
    if dim == 2:
        nodes = min(nodes, 5)
    spec, cm = _l4_case(kind, dim, bc, nodes, control_nodes, seed)
    rng = np.random.default_rng(seed)
    n = spec.n_dof
    V = np.vstack([_samples(spec, rng, 100), rng.standard_normal((100, n)), np.eye(n)])
    den = cm.ustar_norms_batch(spec, cm.apply_Bstar(spec, V))
    p = _projection_matrix(spec, cm)
    cases = {"gain": (p, _metric_state(spec), spec.h_norm),
             "Cstar": (p, _metric_vstar(spec), spec.vstar_norms)}
    if spec.gamma_op.min_eigenvalue > 0.0:
        half = _dense(lambda v: spec.gamma_op.apply_fn(v, lambda lam: lam ** -0.25),
                      spec.grid.size)
        cases["C_d1"] = (p @ scipy.linalg.block_diag(*[half] * spec.n_components),
                         _metric_state(spec), spec.h_norm)
    for name, (t, metric, norms) in cases.items():
        c = projection_constant(spec, cm, t, metric)
        if c == np.inf:
            continue
        num = norms(V @ t.T)
        live = den > 0.0
        assert np.all(num[~live] == 0.0), name
        assert np.all(num[live] / den[live] <= c * (1.0 + 1e-12)), name
        if name == "gain" and kind in ("identity", "first_component", "identity_first"):
            spikes = num[-n:][live[-n:]] / den[-n:][live[-n:]]
            assert spikes.max() >= c * (1.0 - 1e-12)
