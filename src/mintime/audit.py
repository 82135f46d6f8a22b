"""Empirical audit of the structural hypotheses behind the optimality theory.

The projection bounds ||t v||_X <= C ||B* v||_U* (C*, the fractional C_d1,
the sliding feedback's gain and, inverted, the nonlocal kernel's
coercivity) come from one routine, ``projection_constant``, which draws
nothing. For Hilbert U* norms both sides are quadratic forms, and C is the
exact supremum of a generalized symmetric eigenproblem. For Lp controls the
same eigenproblem on the weighted L2 U* metric, scaled by the
norm-equivalence factor w_min^(1/p - 1/2), is a certified upper bound.
Inequalities involving the nonlinear operator are sampled over random smooth
fields and the best constants fitted over the inequality slacks; "pass"
means a positive leading constant with nonnegative slack on at least 99% of
the samples.

Samples are drawn in a fixed rng order and smoothed in one spectral
transform of the whole stack, each row with the bits of its own transform;
every operator, norm and pairing is then one call on the stack. Every dense
matrix comes from ``_dense``: the row map it stands for, applied to the
identity and transposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg

from .operators import ControlMap, OperatorSpec
from .spaces import H1, duality_rows

__all__ = ["AuditEntry", "AuditReport", "audit_hypotheses", "audit_sign_condition",
           "projection_constant"]

_ALPHA2_GRID = np.concatenate([[0.0], np.logspace(-3, 4, 29)])


@dataclass
class AuditEntry:
    hypothesis: str
    constants: dict
    passed: bool
    method: str
    samples: int
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "constants": {k: float(v) for k, v in self.constants.items()},
            "passed": bool(self.passed),
            "method": self.method,
            "samples": int(self.samples),
            "notes": self.notes,
        }


@dataclass
class AuditReport:
    seed: int
    samples: int
    entries: dict = dataclass_field(default_factory=dict)

    def add(self, entry: AuditEntry) -> None:
        self.entries[entry.hypothesis] = entry

    def constant(self, hypothesis: str, name: str) -> float:
        return float(self.entries[hypothesis].constants[name])

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries.values())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "passed": self.passed,
            "entries": {k: e.to_dict() for k, e in sorted(self.entries.items())},
        }


# ---------------------------------------------------------------------------
# sampling helpers


def _samples(spec: OperatorSpec, rng: np.random.Generator, count: int,
             scale: float = 1.0) -> np.ndarray:
    """``count`` random fields, one per row: per component, noise with
    spectrally decaying coefficients, each row normalized to a random
    amplitude in the weighted L2 norm.

    The draws keep a fixed order, per sample one standard normal per
    component and then its amplitude; the smoothing is one ``apply_fn`` on
    the stack of single rows, so each row has the bits of its own transform."""
    n, nc = spec.grid.size, spec.n_components
    noise = np.empty((count, nc, n))
    amp = np.empty(count)
    for i in range(count):
        for c in range(nc):
            noise[i, c] = rng.standard_normal(n)
        amp[i] = rng.uniform(0.3, 3.0)
    out = spec.gamma_op.apply_fn(noise.reshape(-1, 1, n),
                                 lambda lam: 1.0 / (1.0 + lam)).reshape(count, nc * n)
    l2 = np.sqrt(np.matmul((out * out)[:, None, :], spec.grid.component_weights[:, None]))
    return (scale * amp)[:, None] * out / np.maximum(l2[:, 0], 1e-300)


def _best_lower_constant(num: np.ndarray, lead: np.ndarray, comp: np.ndarray) -> tuple[float, float]:
    """Constants (a1, a2) with num + a2*comp >= a1*lead on 99% of samples.

    The compensation a2 is the smallest grid value that makes the leading
    constant positive (unbounded a2 would inflate a1 meaninglessly); a1 is
    then the 1% quantile of the compensated ratios.
    """
    ok = lead > 1e-14
    num, lead, comp = num[ok], lead[ok], comp[ok]
    if num.size == 0:
        return np.nan, np.nan
    fallback = None
    for a2 in _ALPHA2_GRID:
        a1 = float(np.quantile((num + a2 * comp) / lead, 0.01))
        if fallback is None or a1 > fallback[0]:
            fallback = (a1, a2)
        if a1 > 0.0:
            return a1, float(a2)
    return fallback


# ---------------------------------------------------------------------------
# exact quadratic-form audits


def _dense(rowmap, n: int) -> np.ndarray:
    """The matrix of a linear map of stacked n-vector rows: the map on the identity, transposed."""
    return rowmap(np.eye(n)).T


def _gamma_blocks(spec: OperatorSpec, fn) -> np.ndarray:
    """fn(Gamma) on every component block of a state: a block-diagonal matrix."""
    s = spec.gamma_op
    return _dense(lambda v: s.apply_fn(v.reshape(-1, s.n), fn).reshape(v.shape), spec.n_dof)


def _metric_vstar(spec: OperatorSpec) -> np.ndarray:
    """Matrix M with ||v||_V*^2 = v^T M v, for the V* of ``spec.vstar_norms``:
    Gamma^-1 on the components that V measures with Gamma, L2 on the rest,
    after the H-Riesz map (Gamma^-1 in the H^-1 frame)."""
    ginv = _gamma_blocks(spec, lambda lam: 1.0 / lam)
    gam = np.repeat(spec.v_gamma, spec.grid.size)
    wm = spec.grid.component_weights[:, None] * np.where(gam[:, None], ginv, np.eye(spec.n_dof))
    m = 0.5 * (wm + wm.T)
    if spec.state_tag.kind == "Hminus1":
        m = ginv.T @ (m @ ginv)
    return m


def _metric_state(spec: OperatorSpec) -> np.ndarray:
    return _dense(spec.metric_apply, spec.n_dof)


def _projection_matrix(spec: OperatorSpec, map: ControlMap) -> np.ndarray:
    return _dense(lambda v: map.project_state(spec, v), spec.n_dof)


def _metric_ustar(spec: OperatorSpec, map: ControlMap) -> tuple[np.ndarray, float]:
    """Matrix M and factor k with ||zeta||_U* >= sqrt(zeta^T M zeta) / k, an
    equality with k = 1 for the Hilbert norms (L2, H^1, H^-1).

    For a Hilbert norm ||zeta||_U*^2 = <F^-1 zeta, zeta>, so M is the weighted
    F^-1 on the identity, symmetrized. For Lp controls U* = Lq with
    q = p/(p-1) <= 2, M is the weighted L2 metric diag(w), and
    ||z||_Lq,w >= w_min^(1/2 - 1/p) ||z||_L2,w, with equality for a spike on
    a lightest node.
    """
    w = map.ugrid(spec).component_weights
    if map.u_tag.kind == "L4":
        return np.diag(w), float(np.min(w)) ** (1.0 / map.u_tag.p - 0.5)
    wf = w[:, None] * _dense(lambda z: map.F_inverse_batch(spec, z), w.size)
    return 0.5 * (wf + wf.T), 1.0


def _sup_ratio_quadratic(q1: np.ndarray, q2: np.ndarray) -> float:
    """sup_v sqrt(v^T q1 v / v^T q2 v), +inf when q1 has mass outside range(q2)."""
    q1 = 0.5 * (q1 + q1.T)
    q2 = 0.5 * (q2 + q2.T)
    if np.array_equal(q1, q2):
        return 1.0  # exact, where the eigenproblem would round to within an ulp of 1
    evals, vecs = scipy.linalg.eigh(q2)
    tol = max(1e-12 * max(evals.max(), 1.0), 1e-300)
    keep = evals > tol
    if not np.all(keep):
        null = vecs[:, ~keep]
        if np.max(np.abs(null.T @ q1 @ null)) > 1e-10 * max(1.0, np.abs(q1).max()):
            return np.inf
    v = vecs[:, keep] / np.sqrt(evals[keep])[None, :]
    reduced = v.T @ q1 @ v
    top = scipy.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1]
    return float(np.sqrt(max(top, 0.0)))


def projection_constant(spec: OperatorSpec, map: ControlMap, t: np.ndarray,
                        metric: np.ndarray) -> float:
    """C = sup_v ||t v||_X / ||B* v||_U* for the state matrix ``t`` into X,
    given by its dense metric (||x||_X^2 = x^T metric x); +inf when t does not
    vanish on the kernel of B*.

    Exact for Hilbert U* norms (the generalized eigenproblem). For Lp
    controls it is the weighted L2 supremum times w_min^(1/p - 1/2): a
    certified upper bound, attained when a spike on a lightest node attains
    the L2 supremum (pointwise maps on an L2 state).
    """
    mus, k = _metric_ustar(spec, map)
    r = _dense(lambda v: map.apply_Bstar(spec, v), spec.n_dof)
    return k * _sup_ratio_quadratic(t.T @ metric @ t, r.T @ mus @ r)


# ---------------------------------------------------------------------------
# the audits


def audit_hypotheses(
    spec: OperatorSpec,
    map: ControlMap,
    samples: int = 200,
    seed: int = 0,
    y_tar: np.ndarray | None = None,
    alpha: float = 0.5,
) -> AuditReport:
    """Estimate the constants of the structural inequalities for one setup.

    Reports the monotonicity pair (alpha1, alpha2), the domain estimate pair
    (alpha3, alpha4), the projection constants C* and C_d1 (and a nonlocal
    map's coercivity), unsampled, and, when a target is supplied, the
    sign-condition constant shared by the sliding feedback analysis.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful audit")
    rng = np.random.default_rng(seed)
    report = AuditReport(seed=seed, samples=samples)

    # (g5): <Ay - Ay', y - y'> >= a1 ||y-y'||_V^2 - a2 ||y-y'||_H^2
    pairs = _samples(spec, rng, 2 * samples).reshape(samples, 2, spec.n_dof)
    ay = spec.apply(pairs)
    d = pairs[:, 0] - pairs[:, 1]
    num = spec.state_inner(ay[:, 0] - ay[:, 1], d)
    a1, a2 = _best_lower_constant(num, spec.v_norms(d) ** 2, spec.h_norm(d) ** 2)
    report.add(AuditEntry(
        "monotonicity_g5", {"alpha1": a1, "alpha2": a2},
        passed=bool(np.isfinite(a1) and a1 > 0.0), method="sampling", samples=samples,
    ))

    # (A0H): (A_H y, Gamma_H y)_H >= a3 ||Gamma_H y||_H^2 - a4 ||y||_V^2
    Y = _samples(spec, rng, samples)
    gy = duality_rows(Y, spec.grid, H1, spec.gamma_op)
    num = spec.state_inner(spec.apply(Y), gy)
    a3, a4 = _best_lower_constant(num, spec.h_norm(gy) ** 2, spec.v_norms(Y) ** 2)
    report.add(AuditEntry(
        "domain_estimate_A0H", {"alpha3": a3, "alpha4": a4},
        passed=bool(np.isfinite(a3) and a3 > 0.0), method="sampling", samples=samples,
    ))

    # (g74-2): ||P v||_V* <= C* ||B* v||_U*
    notes = "" if map.u_tag.is_hilbert else "Lp: certified bound, not exact"
    p = _projection_matrix(spec, map)
    cstar = projection_constant(spec, map, p, _metric_vstar(spec))
    report.add(AuditEntry(
        "projection_bound_g74_2", {"Cstar": cstar},
        passed=bool(np.isfinite(cstar)), method="spectral", samples=0, notes=notes,
    ))

    # (g74): ||P Gamma^(-alpha/2) v||_H <= C ||B* v||_U*
    if spec.gamma_op.min_eigenvalue > 0.0:
        t = p @ _gamma_blocks(spec, lambda lam: np.power(lam, -alpha / 2.0))
        cd1 = projection_constant(spec, map, t, _metric_state(spec))
        report.add(AuditEntry(
            "fractional_bound_g74", {"C": cd1, "alpha": alpha},
            passed=bool(np.isfinite(cd1)), method="spectral", samples=0, notes=notes,
        ))

    # kernel coercivity ||B* v||_U* >= gamma ||v||_H for nonlocal maps
    if map.mode == "nonlocal":
        gam = 1.0 / projection_constant(spec, map, np.eye(spec.n_dof), _metric_state(spec))
        report.add(AuditEntry(
            "kernel_coercivity", {"gamma": gam},
            passed=bool(gam > 1e-10), method="spectral", samples=0, notes=notes,
        ))

    if y_tar is not None:
        report.add(audit_sign_condition(spec, map, y_tar, samples, rng))
    return report


def audit_sign_condition(spec: OperatorSpec, map: ControlMap, y_tar: np.ndarray, samples: int,
                         rng: np.random.Generator) -> AuditEntry:
    """Constant C1 of (A_H y - A_H yhat, P(y - yhat))_H >= -C1 ||P(y - yhat)||_H^2.

    For the first-component projection, yhat carries the target in the
    controlled component and the sample's own value in the uncontrolled one
    (the paper's running choice of the auxiliary state).
    """
    y_tar = np.asarray(y_tar, dtype=float).ravel()
    if y_tar.size != spec.n_dof:
        raise ValueError("target must be a full state vector")
    Y = _samples(spec, rng, samples, scale=2.0)
    yhat = map.auxiliary_state(spec, Y, y_tar)
    d = map.project_state(spec, Y - yhat)
    dsq = spec.state_inner(d, d)
    live = dsq >= 1e-16
    num = spec.state_inner(spec.apply(Y[live]) - spec.apply(yhat[live]), d[live])
    worst = float(np.max(-num / dsq[live], initial=0.0))
    return AuditEntry(
        "sign_condition_g5_000", {"C1": worst},
        passed=True, method="sampling", samples=samples,
        notes="C1 also bounds (g12-10) for the sliding hit-time estimate",
    )
