"""Hypothesis audit: recovered constants and exact projection bounds."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mintime import (
    ControlMap,
    FitzHughNagumo,
    Grid,
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
    _bstar_matrix,
    _dense_fn_matrix,
    _metric_state,
    _metric_vstar,
    _projection_matrix,
    _samples,
    audit_hypotheses,
    audit_sign_condition,
    projection_constant,
)


def test_porous_media_recovers_monotonicity_floor():
    g = Grid(extent=(1.0,), nodes=(16,), bcs=(dirichlet(),))
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
        g = Grid(extent=(1.0,), nodes=(12,), bcs=(neumann(), neumann()))
        spec = ReactionDiffusion2(g, f=pair_fn("linear2", 1.0, 0.0), g=pair_fn("zero2"))
    else:
        # V* = H^-1 x L2: the diffusionless second component attains 1
        g = Grid(extent=(1.0,), nodes=(12,), bcs=(dirichlet(), dirichlet()))
        spec = FitzHughNagumo(g)
    cm = ControlMap(mode="identity", u_tag=L2)
    rep = audit_hypotheses(spec, cm, samples=100, seed=2)
    assert rep.constant("projection_bound_g74_2", "Cstar") == pytest.approx(1.0, abs=1e-9)
    # the audited metric and the operator's own V* norm agree
    v = np.random.default_rng(9).standard_normal((4, spec.n_dof))
    np.testing.assert_allclose(np.einsum("ri,ij,rj->r", v, _metric_vstar(spec), v),
                               spec.vstar_norms(v) ** 2, rtol=1e-12)


def test_potential_drift_audit_passes():
    g = Grid(extent=(1.0,), nodes=(14,), bcs=(robin(0.8),))
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
    g = Grid(extent=(1.0,), nodes=(12,), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(g, d1=1.0, d2=1.0,
                              f=pair_fn("sat_rational", 1.0), g=pair_fn("zero2"))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    entry = audit_sign_condition(spec, cm, np.zeros(spec.n_dof), samples=200, rng=4)
    assert entry.constants["C1"] == pytest.approx(0.0, abs=1e-12)


def test_lp_control_bound_is_sampled_not_spectral():
    g = Grid(extent=(1.0,), nodes=(10,), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(g, f=pair_fn("zero2"), g=pair_fn("zero2"))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    rep = audit_hypotheses(spec, cm, samples=120, seed=5)
    assert rep.entries["projection_bound_g74_2"].method == "sampling"
    assert np.isfinite(rep.constant("projection_bound_g74_2", "Cstar"))


def test_nonlocal_kernel_coercivity_reported():
    g = Grid(extent=(1.0,), nodes=(10,), bcs=(neumann(),))
    spec = PotentialDrift(g, beta=scalar_fn("linear", 1.0))
    rng = np.random.default_rng(6)
    # identity-dominant kernel: koef(x,z) ~ delta-ish, coercive
    kern = np.eye(10) / g.weights(0) + 0.05 * rng.random((10, 10))
    cm = ControlMap(mode="nonlocal", u_tag=L2, kernel=kern, control_grid=g)
    rep = audit_hypotheses(spec, cm, samples=100, seed=6)
    assert rep.entries["kernel_coercivity"].passed


def test_min_samples_guard():
    g = Grid(extent=(1.0,), nodes=(8,), bcs=(dirichlet(),))
    spec = PotentialDrift(g)
    cm = ControlMap(mode="identity", u_tag=L2)
    with pytest.raises(ValueError):
        audit_hypotheses(spec, cm, samples=10)


def _dense_map_cases():
    porous = PorousMedia(Grid(extent=(1.0,), nodes=(9,), bcs=(dirichlet(),)),
                         beta=scalar_fn("power", 0.5, 0.5, 0.5))
    g2 = Grid(extent=(1.0,), nodes=(7,), bcs=(neumann(), neumann()))
    rd = ReactionDiffusion2(g2, f=pair_fn("linear2", 1.0, 0.0), g=pair_fn("zero2"))
    gd = Grid(extent=(1.0,), nodes=(8,), bcs=(robin(0.8),))
    gc = Grid(extent=(1.0,), nodes=(5,), bcs=(neumann(),))
    kernel = np.random.default_rng(12).standard_normal((8, 5))
    return {
        "porous-identity-Hminus1": (porous, ControlMap(mode="identity", u_tag=HMINUS1)),
        "rd2-first-L2": (rd, ControlMap(mode="first_component", u_tag=L2, projection="first")),
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
    close(_dense_fn_matrix(s, fn), column_loop(lambda c: s.apply_fn(c, fn), s.n))
    close(_metric_state(spec), column_loop(spec.metric_apply))
    close(_bstar_matrix(spec, cm), column_loop(lambda c: cm.apply_Bstar(spec, c)))
    p = cols.copy()
    if cm.projection == "first":
        p[spec.grid.size:, spec.grid.size:] = 0.0
    assert np.array_equal(_projection_matrix(spec, cm), p)

    # the dense metric is the row H-norm's quadratic form
    v = np.random.default_rng(13).standard_normal((4, n))
    np.testing.assert_allclose(np.einsum("ri,ij,rj->r", v, _metric_state(spec), v),
                               spec.h_norm(v) ** 2, rtol=1e-12)


_BCS = {"dirichlet": dirichlet, "neumann": neumann, "robin": lambda: robin(0.8)}


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["identity", "first_component", "nonlocal"]),
       norm=st.sampled_from(["L2", "Hminus1"]), nodes=st.integers(3, 24),
       control_nodes=st.integers(3, 24), bc=st.sampled_from(sorted(_BCS)),
       seed=st.integers(0, 2**16))
def test_quadratic_projection_constant_bounds_every_sample(mode, norm, nodes, control_nodes,
                                                           bc, seed):
    # C of ||P v||_H <= C ||B* v||_U* is the exact supremum for quadratic U*
    # norms: no smooth sample exceeds it, and a Hilbert-identified control
    # (B* = P in L2) attains exactly 1
    assume(norm == "L2" or bc == "dirichlet")  # H^-1 is the Dirichlet Laplacian's
    tag = {"L2": L2, "Hminus1": HMINUS1}[norm]
    if mode == "first_component":
        g = Grid(extent=(1.0,), nodes=(nodes,), bcs=(_BCS[bc](),) * 2)
        spec = ReactionDiffusion2(g, f=pair_fn("zero2"), g=pair_fn("zero2"))
        cm = ControlMap(mode=mode, u_tag=tag, projection="first")
    else:
        spec = PotentialDrift(Grid(extent=(1.0,), nodes=(nodes,), bcs=(_BCS[bc](),)))
        cm = ControlMap(mode="identity", u_tag=tag)
    if mode == "nonlocal":
        assume(norm == "L2")  # H^-1 control norms live on the state grid
        gc = Grid(extent=(1.0,), nodes=(control_nodes,), bcs=(neumann(),))
        kernel = np.random.default_rng(seed).random((nodes, control_nodes))
        cm = ControlMap(mode=mode, u_tag=tag, kernel=kernel, control_grid=gc)
    p = _projection_matrix(spec, cm)
    c, drawn = projection_constant(spec, cm, p, _metric_state(spec), spec.h_norm,
                                   np.random.default_rng(seed), 100)
    assert drawn == 0
    V = _samples(spec, np.random.default_rng(seed), 50)
    ratios = spec.h_norm(V @ p.T) / cm.ustar_norms_batch(spec, cm.apply_Bstar(spec, V))
    assert np.all(ratios <= c * (1.0 + 1e-12))
    if norm == "L2" and mode != "nonlocal":
        assert c == 1.0


def test_l4_bounds_keep_their_samples_and_notes():
    # the sampled path draws from the audit's own rng in the old order
    g = Grid(extent=(1.0,), nodes=(16,), bcs=(neumann(), neumann()))
    spec = ReactionDiffusion2(g, d1=1.0, d2=0.8, f=pair_fn("tanh_pair", 0.5, 0.4),
                              g=pair_fn("tanh_pair", -0.2, 0.6))
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    rep = audit_hypotheses(spec, cm, samples=200, seed=3)
    cstar, cd1 = rep.entries["projection_bound_g74_2"], rep.entries["fractional_bound_g74"]
    assert cstar.constants["Cstar"] == 0.9999537357392249
    assert cd1.constants["C"] == 0.9999905121919009
    assert (cstar.method, cstar.samples, cstar.notes) == (
        "sampling", 200, "U* norm is not quadratic; empirical supremum")
    assert (cd1.method, cd1.samples, cd1.notes) == ("sampling", 200, "U* norm is not quadratic")
