"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Tolerances are pinned here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest
import scipy.optimize
import yaml

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
    dirichlet,
    neumann,
    pair_fn,
    robin,
    scalar_fn,
)
from mintime.adjoint import duality_gap
from mintime.audit import audit_hypotheses
from mintime.cli import run as cli_run
from mintime.forward import Control, solve_forward
from mintime.grids import Field
from mintime.oracle import (OdeReduction, analytic_min_time_scalar, brute_force_min_time,
                            radial_hit_time)
from mintime.sliding import run_sliding, sliding_continuation
from mintime.spaces import SpectralLaplacian, duality_rows, inner_rows, norm_rows, resolvent_rows
from mintime.timeopt import PenalizedProblem, eps_continuation


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _instance(kind: str, n: int, rng) -> tuple:
    if kind == "potential_drift":
        g = Grid(extent=(1.0,), nodes=(n,), bc=robin(0.5 + rng.uniform(0, 1)))
        spec = PotentialDrift(g, beta=scalar_fn("cubic", rng.uniform(0.1, 1.0)),
                              a1=rng.uniform(-0.3, 0.7), b=rng.uniform(-0.3, 0.3))
        cm = ControlMap(mode="identity", u_tag=L2)
    elif kind == "porous_media":
        g = Grid(extent=(1.0,), nodes=(n,), bc=dirichlet())
        spec = PorousMedia(g, beta=scalar_fn("power", rng.uniform(0.3, 1.0),
                                             rng.uniform(0.1, 0.6), rng.uniform(0.2, 0.8)))
        cm = ControlMap(mode="identity", u_tag=HMINUS1)
    elif kind == "reaction_diffusion2":
        g = Grid(extent=(1.0,), nodes=(n,), bc=neumann(), n_components=2)
        spec = ReactionDiffusion2(
            g, d1=rng.uniform(0.5, 1.5), d2=rng.uniform(0.3, 1.0),
            f=pair_fn("sat_rational", rng.uniform(0.3, 1.2)),
            g=pair_fn("tanh_pair", rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
        )
        cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    elif kind == "fitzhugh_nagumo":
        g = Grid(extent=(1.0,), nodes=(n,), bc=neumann(), n_components=2)
        spec = FitzHughNagumo(g, alpha0=rng.uniform(0.2, 1.5), sigma=rng.uniform(0.2, 1.5),
                              gamma=rng.uniform(0.1, 1.0), d1=rng.uniform(0.5, 1.5))
        cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    else:
        g = Grid(extent=(1.0,), nodes=(n,), bc=neumann(), n_components=2)
        spec = PhaseField(g, k=rng.uniform(0.5, 1.5), l=rng.uniform(0.2, 0.8),
                          nu=rng.uniform(0.5, 1.5), gamma=rng.uniform(0.3, 1.0))
        cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    return spec, cm


KINDS = ("potential_drift", "porous_media", "reaction_diffusion2",
         "fitzhugh_nagumo", "phase_field")


def test_criterion_1_adjoint_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for kind in KINDS:
        for _ in range(20):
            n = int(rng.integers(16, 65))
            spec, cm = _instance(kind, n, rng)
            y0 = Field(spec.grid, 0.3 * rng.standard_normal(spec.n_dof), spec.n_components)
            steps = 5
            u = Control(1e-2, 0.3 * rng.standard_normal((steps, cm.control_size(spec))),
                        rho=1e9, u_tag=cm.u_tag)
            traj = solve_forward(spec, cm, y0, u)
            v = Control(1e-2, rng.standard_normal((steps, cm.control_size(spec))),
                        rho=1e9, u_tag=cm.u_tag)
            terminal = Field(spec.grid, rng.standard_normal(spec.n_dof), spec.n_components)
            _, _, gap = duality_gap(spec, cm, traj, v, terminal)
            worst = max(worst, gap)
    elapsed = time.time() - t0
    _verdict(1, worst <= 1e-10 and elapsed < 10.0,
             f"(g53) duality identity, worst relative residual {worst:.2e} "
             f"over 100 instances in {elapsed:.1f} s (limits 1e-10, 10 s)")


def test_criterion_2_derivative_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for kind in KINDS:
        for _ in range(6):
            spec, _ = _instance(kind, 20, rng)
            y = 0.6 * rng.standard_normal(spec.n_dof)
            z = 0.6 * rng.standard_normal(spec.n_dof)
            h = 1e-6
            fd = (spec.apply(y + h * z) - spec.apply(y - h * z)) / (2 * h)
            ab, n = spec.band(y), spec.n_dof  # widened to the columns dgbmv needs
            wide = np.zeros((ab.shape[0], max(n, 2 * spec.bandwidth + 1)), order="F")
            wide[:, :n] = ab
            an = spec._band_dot(wide, z)
            worst = max(worst, np.linalg.norm(fd - an) / max(1.0, np.linalg.norm(an)))
    elapsed = time.time() - t0
    _verdict(2, worst <= 1e-5 and elapsed < 5.0,
             f"Gateaux derivative vs central differences, worst relative error "
             f"{worst:.2e} in {elapsed:.1f} s (limits 1e-5, 5 s)")


def test_criterion_3_duality_contract_and_resolvent():
    rng = np.random.default_rng(303)
    g = Grid(extent=(1.0,), nodes=(16,), bc=dirichlet())
    s = SpectralLaplacian(g)
    worst = 0.0
    for tag in (L2, L4, HMINUS1):
        for _ in range(1000):
            u = rng.uniform(0.05, 8.0) * rng.standard_normal(16)
            f = duality_rows(u, g, tag, s)
            nu = norm_rows(u, g, tag, s)
            worst = max(worst, abs(inner_rows(f, u, g) - nu**2) / nu**2)
            worst = max(worst, abs(norm_rows(f, g, tag, s, dual=True) - nu) / nu)

    g8 = Grid(extent=(1.0,), nodes=(7,), bc=neumann())
    w = g8.weights
    worst_res = 0.0
    for tag in (L2, L4):
        def unorm(v):
            if tag.kind == "L2":
                return np.sqrt(w @ v**2)
            return (w @ np.abs(v) ** 4) ** 0.25

        for trial in range(6):
            eps = rng.uniform(0.02, 0.5)
            rho = rng.uniform(0.5, 2.0)
            zeta = rng.uniform(0.2, 5.0) * rng.standard_normal(7)
            u = resolvent_rows(zeta, g8, tag, eps, rho)

            def objective(v):
                return 0.5 * eps * unorm(v) ** 2 - w @ (zeta * v)

            best = None
            for k in range(5):
                x0 = u * 0.9 if k == 0 else rng.standard_normal(7) * rho / 3
                res = scipy.optimize.minimize(
                    objective, x0=x0, method="SLSQP",
                    constraints=[{"type": "ineq", "fun": lambda v: rho - unorm(v)}],
                    options={"ftol": 1e-16, "maxiter": 600},
                )
                if best is None or res.fun < best.fun:
                    best = res
            worst_res = max(worst_res, float(np.max(np.abs(u - best.x))))
    ok = worst <= 1e-9 and worst_res <= 1e-6
    _verdict(3, ok,
             f"duality contract worst relative error {worst:.2e} over 3000 fields "
             f"(limit 1e-9); resolvent vs ball-constrained minimization "
             f"max deviation {worst_res:.2e} (limit 1e-6)")


# ---------------------------------------------------------------------------
# the shared scalar-oracle continuation (criteria 4 and 5)


@pytest.fixture(scope="module")
def scalar_continuation():
    g = Grid(extent=(1.0,), nodes=(3,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=1.0,
                              f=pair_fn("linear2", 1.0, 0.0), g=pair_fn("zero2"))
    cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    n = g.size
    y0 = Field(g, np.zeros(2 * n), 2)
    ytar = Field(g, np.concatenate([np.full(n, 0.5), np.zeros(n)]), 2)
    prob = PenalizedProblem(spec, cm, y0, ytar, rho=1.0, eps=1e-1, dt=1e-3)
    t0 = time.time()
    reports = eps_continuation(prob, [1e-1, 1e-2, 1e-3, 1e-4], (0.2, 1.4))
    elapsed = time.time() - t0
    return reports, elapsed


def test_criterion_4_minimal_time_oracle_equivalence(scalar_continuation):
    reports, elapsed = scalar_continuation
    t_star = analytic_min_time_scalar(1.0, 0.0, 0.5, 1.0)
    t_eps = reports[-1].T_eps_star
    gap = abs(t_eps - t_star)
    _verdict(4, gap <= 1e-2 and elapsed < 60.0,
             f"scalar oracle: T_eps* = {t_eps:.5f} vs ln 2 = {t_star:.5f}, "
             f"|gap| = {gap:.2e} (limit 1e-2) in {elapsed:.1f} s (limit 60 s)")


def test_criterion_5_terminal_miss_scaling(scalar_continuation):
    reports, _ = scalar_continuation
    t_or = analytic_min_time_scalar(1.0, 0.0, 0.5, 1.0)
    c_energy = t_or * 1.0**2  # int ||P u*||^2 of the saturated oracle control
    details = []
    ok = True
    for r in reports:
        bound = np.sqrt(2 * r.eps * t_or + r.eps**2 * c_energy)
        ok = ok and (r.terminal_miss <= bound)
        details.append(f"eps={r.eps:.0e}: {r.terminal_miss:.2e} <= {bound:.2e}")
    _verdict(5, ok, "terminal miss within the continuation bound at every eps "
             f"({'; '.join(details)})")


def test_criterion_6_maximum_principle_residuals(scalar_continuation):
    reports, _ = scalar_continuation
    scalar_final = reports[-1]

    # the 2-component linear instance with genuine coupling
    g = Grid(extent=(1.0,), nodes=(3,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(g, d1=1.0, d2=1.0,
                              f=pair_fn("linear2", 1.0, 0.3),
                              g=pair_fn("linear2", -0.2, 0.5))
    cm = ControlMap(mode="first_component", u_tag=L2, projection="first")
    n = g.size
    y0 = Field(g, np.zeros(2 * n), 2)
    ytar = Field(g, np.concatenate([np.full(n, 0.5), np.zeros(n)]), 2)
    prob = PenalizedProblem(spec, cm, y0, ytar, rho=1.0, eps=1e-1, dt=1e-3)
    reports2 = eps_continuation(prob, [1e-1, 1e-2, 1e-3, 1e-4], (0.2, 1.4))
    coupled_final = reports2[-1]

    # cross-check the coupled horizon against the bang-sequence oracle
    red = OdeReduction(matrix=np.array([[1.0, 0.3], [-0.2, 0.5]]), rho=1.0,
                       y0=[0.0, 0.0], target=[0.5], target_first_only=True)
    t_bf = brute_force_min_time(red, 1e-3, switch_budget=1, t_max=2.0)
    rel_gap = abs(coupled_final.T_eps_star - t_bf) / t_bf

    ok = True
    details = []
    for name, rep in (("scalar", scalar_final), ("coupled", coupled_final)):
        ok = ok and rep.g73_residual_avg <= 0.05 and rep.saturation_fraction >= 0.95
        details.append(f"{name}: g73 avg {rep.g73_residual_avg:.3f}, "
                       f"saturation {rep.saturation_fraction:.3f}")
    ok = ok and rel_gap <= 0.05
    details.append(f"coupled T vs oracle gap {rel_gap:.3f} (limit 0.05)")
    _verdict(6, ok, "; ".join(details))


def test_criterion_7_sliding_controllability():
    t0 = time.time()
    g = Grid(extent=(1.0,), nodes=(32,), bc=dirichlet())
    spec = PotentialDrift(g, beta=scalar_fn("zero"))
    cm = ControlMap(mode="identity", u_tag=L2)
    (x,) = g.coordinates()
    y0 = Field(g, np.sin(np.pi * x))
    ytar = Field(g, np.zeros(g.size))
    dt = 1e-4
    run10 = run_sliding(spec, cm, y0, ytar, rho=10.0, T_max=0.2, dt=dt,
                        hit_tol=2e-3, continue_after_hit=False)
    bound = 0.0707 * (1.0 + 5 * dt / 0.0707)
    ok = run10.hit and run10.hit_time <= bound
    # sin(pi x) is an eigenvector of the discrete Dirichlet Laplacian: the
    # hit is the radial recurrence's, and near the continuous one
    lam = SpectralLaplacian(g).eigenvalues[0]
    t_hit, r_hit, t_cont = radial_hit_time(lam, float(spec.h_norm(y0.values)), 10.0, dt, 2e-3)
    exact = (run10.hit and abs(run10.hit_time - t_hit) <= 1e-12 * t_hit
             and abs(run10.summary()["max_post_hit_deviation"] - r_hit) <= 1e-10 * r_hit
             and abs(run10.hit_time - t_cont) <= dt)

    # the same on the first eigenvector of a 2D Dirichlet rectangle, where
    # the hit falls strictly with rho
    g2 = Grid(extent=(1.0, 2.0), nodes=(12, 10), bc=dirichlet())
    spec2 = PotentialDrift(g2, beta=scalar_fn("zero"))
    lap2 = SpectralLaplacian(g2)
    e0 = lap2.eigenvector(0)
    y2 = Field(g2, 0.5 * e0 / spec2.h_norm(e0))
    hits2 = []
    for rho in (5.0, 10.0, 20.0):
        r = run_sliding(spec2, cm, y2, Field(g2, np.zeros(g2.size)), rho=rho, T_max=0.2,
                        dt=dt, hit_tol=2e-3, continue_after_hit=False)
        t_hit2 = radial_hit_time(lap2.eigenvalues[0], 0.5, rho, dt, 2e-3)[0]
        exact = exact and r.hit and abs(r.hit_time - t_hit2) <= 1e-12 * t_hit2
        hits2.append(r.hit_time if r.hit else np.inf)
    exact = exact and all(b < a for a, b in zip(hits2, hits2[1:]))

    hit_tol = 2e-3
    hits = []
    for rho in (5.0, 10.0, 20.0, 40.0):
        r = run_sliding(spec, cm, y0, ytar, rho=rho, T_max=0.5,
                        dt=hit_tol / (2 * rho), hit_tol=hit_tol,
                        continue_after_hit=False)
        ok = ok and r.hit
        hits.append(r.hit_time)
    mono = all(b <= a + 1e-12 for a, b in zip(hits, hits[1:]))
    elapsed = time.time() - t0
    _verdict(7, ok and mono and exact and elapsed < 10.0,
             f"heat hit at {run10.hit_time:.5f} <= {bound:.5f}, radial recurrence "
             f"{t_hit:.5f}, continuous {t_cont:.5f}; 2D eigenvector hits "
             f"{['%.5f' % h for h in hits2]} exact and falling = {exact}; hit times over "
             f"rho grid {['%.4f' % h for h in hits]} nonincreasing = {mono}; "
             f"{elapsed:.1f} s (limit 10 s)")


def test_criterion_8_manifold_invariance():
    g = Grid(extent=(1.0,), nodes=(16,), bc=neumann(), n_components=2)
    spec = ReactionDiffusion2(
        g, d1=1.0, d2=0.8,
        f=pair_fn("tanh_pair", 0.5, 0.4), g=pair_fn("tanh_pair", -0.2, 0.6),
    )
    cm = ControlMap(mode="first_component", u_tag=L4, projection="first")
    n = g.size
    (x,) = g.coordinates()
    y1tar = 0.3 + 0.05 * np.cos(np.pi * x)
    ytar = Field(g, np.concatenate([y1tar, np.zeros(n)]), 2)
    y0 = Field(g, np.concatenate([np.zeros(n), 0.2 * np.ones(n)]), 2)
    dt, hit_tol, rho = 1e-4, 2e-3, 10.0

    run_out = run_sliding(spec, cm, y0, ytar, rho=rho, T_max=0.2, dt=dt,
                          hit_tol=hit_tol, continue_after_hit=False)
    assert run_out.hit, "approach phase must reach the manifold first"
    # the audited rho-largeness bound for the continuation
    rho_bound = run_out.a_norm_surrogate + run_out.c1 * hit_tol
    state = Field(g, run_out.approach.states[-1], 2)
    traj, _ = sliding_continuation(spec, cm, state, ytar, T_extra=1.0, dt=dt,
                                   rho=rho, hit_tol=2 * hit_tol)
    devs = [spec.h_norm(cm.project_state(spec, s - ytar.values)) for s in traj.states]
    bound = 5 * (dt + hit_tol)
    ok = max(devs) <= bound and rho > rho_bound
    _verdict(8, ok,
             f"post-hit first-component deviation max {max(devs):.2e} <= {bound:.2e} "
             f"over one time unit; rho = {rho} above audited bound {rho_bound:.3f}")


def test_criterion_9_hypothesis_audit_recovery():
    g = Grid(extent=(1.0,), nodes=(16,), bc=dirichlet())
    spec = PorousMedia(g, beta=scalar_fn("power", 0.5, 0.5, 0.5))
    cm = ControlMap(mode="identity", u_tag=HMINUS1)
    rep = audit_hypotheses(spec, cm, samples=300, seed=99)
    a1 = rep.constant("monotonicity_g5", "alpha1")

    g2 = Grid(extent=(1.0,), nodes=(12,), bc=neumann(), n_components=2)
    spec2 = ReactionDiffusion2(g2, f=pair_fn("linear2", 1.0, 0.0), g=pair_fn("zero2"))
    cm2 = ControlMap(mode="identity", u_tag=L2)
    rep2 = audit_hypotheses(spec2, cm2, samples=150, seed=99)
    cstar = rep2.constant("projection_bound_g74_2", "Cstar")

    ok = a1 >= 0.45 and abs(cstar - 1.0) <= 1e-9
    _verdict(9, ok,
             f"porous-medium monotonicity alpha1 = {a1:.4f} (limit >= 0.45); "
             f"identity-map C* = {cstar:.12f} (exactly 1)")


def test_criterion_10_determinism(tmp_path):
    doc = {
        "command": "optimize",
        "seed": 12345,
        "grid": {"dimension": 1, "extent": 1.0, "nodes": 3, "bc": "neumann"},
        "operator": {"kind": "reaction_diffusion2", "d1": 1.0, "d2": 1.0,
                     "f": {"family": "linear2", "params": [1.0, 0.0]},
                     "g": {"family": "zero2"}},
        "control": {"mode": "first_component", "norm": "L2", "rho": 1.0},
        "initial": {"y0": {"profile": "zero"}},
        "targets": {"y_tar": [{"profile": "constant", "value": 0.5},
                              {"profile": "zero"}]},
        "numerics": {"dt": 2e-3, "eps_schedule": [1e-1, 1e-2, 1e-3],
                     "T_bracket": [0.2, 1.4]},
    }
    cfg_path = tmp_path / "opt.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    assert cli_run(cfg_path, tmp_path / "r1") == 0
    assert cli_run(cfg_path, tmp_path / "r2") == 0
    b1 = (tmp_path / "r1" / "report.json").read_bytes()
    b2 = (tmp_path / "r2" / "report.json").read_bytes()
    _verdict(10, b1 == b2,
             f"repeated optimize runs byte-identical: {len(b1)} bytes each")
