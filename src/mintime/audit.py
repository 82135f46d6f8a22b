"""Empirical audit of the structural hypotheses behind the optimality theory.

Inequalities that are quadratic forms in the state (the projection and
fractional-power bounds) are certified exactly through a generalized
symmetric eigenproblem. Inequalities involving the nonlinear operator are
sampled over random smooth fields and the best constants fitted over the
inequality slacks; "pass" means a positive leading constant with
nonnegative slack on at least 99% of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.linalg

from .operators import ControlMap, OperatorSpec
from .spaces import SpectralLaplacian

__all__ = ["AuditEntry", "AuditReport", "audit_hypotheses", "audit_sign_condition"]

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


def smooth_sample(spec: OperatorSpec, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random field with spectrally decaying coefficients, per component,
    normalized to a random amplitude in the weighted L2 norm."""
    n = spec.grid.size
    s = spec.gamma_op
    out = np.empty(spec.n_dof)
    for c in range(spec.n_components):
        noise = rng.standard_normal(n)
        out[c * n : (c + 1) * n] = s.apply_fn(noise, lambda lam: 1.0 / (1.0 + lam))
    amp = scale * rng.uniform(0.3, 3.0)
    l2 = np.sqrt(np.dot(spec.weights, out * out))
    return amp * out / max(l2, 1e-300)


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


def _dense_fn_matrix(s: SpectralLaplacian, fn) -> np.ndarray:
    cols = np.eye(s.n)
    out = np.empty((s.n, s.n))
    for j in range(s.n):
        out[:, j] = s.apply_fn(cols[:, j], fn)
    return out


def _blockdiag_per_component(spec: OperatorSpec, block: np.ndarray) -> np.ndarray:
    blocks = [block] * spec.n_components
    return scipy.linalg.block_diag(*blocks)


def _metric_vstar(spec: OperatorSpec) -> np.ndarray:
    """Matrix M with ||v||_V*^2 = v^T M v."""
    w = spec.grid.weights(0)
    if spec.state_tag.kind == "Hminus1":
        # porous-medium frame: ||v||_V* = ||Gamma^-1 v||_L2
        ginv = _dense_fn_matrix(spec.gamma_op, lambda lam: 1.0 / lam)
        m1 = ginv.T @ (w[:, None] * ginv)
    else:
        ginv = _dense_fn_matrix(spec.gamma_op, lambda lam: 1.0 / lam)
        m1 = 0.5 * (w[:, None] * ginv + (w[:, None] * ginv).T)
    return _blockdiag_per_component(spec, m1)


def _metric_state(spec: OperatorSpec) -> np.ndarray:
    cols = np.eye(spec.n_dof)
    return np.column_stack([spec.metric_apply(cols[:, j]) for j in range(spec.n_dof)])


def _bstar_matrix(spec: OperatorSpec, map: ControlMap) -> np.ndarray:
    # column by column: one stacked apply rounds the H^-1 metric differently
    # and moves the audited constants in their last bits
    cols = np.eye(spec.n_dof)
    return np.column_stack([map.apply_Bstar(spec, cols[:, j]) for j in range(spec.n_dof)])


def _bstar_samples(spec: OperatorSpec, map: ControlMap, rng: np.random.Generator,
                   samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Smooth state samples v, one per row, and their ||B* v||_U*."""
    V = np.array([smooth_sample(spec, rng) for _ in range(samples)])
    return V, map.ustar_norms_batch(spec, map.apply_Bstar(spec, V))


def _metric_ustar(spec: OperatorSpec, map: ControlMap) -> np.ndarray | None:
    """Matrix M with ||zeta||_U*^2 = zeta^T M zeta, or None if not quadratic."""
    g = map.ugrid(spec)
    w = g.component_weights()
    if map.u_tag.kind == "L2":
        return np.diag(w)
    if map.u_tag.kind == "Hminus1":
        _, _, s = map._uspace(spec)
        gm = _dense_fn_matrix(s, lambda lam: lam)
        m1 = 0.5 * (g.weights(0)[:, None] * gm + (g.weights(0)[:, None] * gm).T)
        return _blockdiag_per_component(spec, m1) if g.n_components > 1 else m1
    return None


def _sup_ratio_quadratic(q1: np.ndarray, q2: np.ndarray) -> float:
    """sup_v sqrt(v^T q1 v / v^T q2 v), +inf when q1 has mass outside range(q2)."""
    q1 = 0.5 * (q1 + q1.T)
    q2 = 0.5 * (q2 + q2.T)
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


def _projection_matrix(spec: OperatorSpec, map: ControlMap) -> np.ndarray:
    p = np.eye(spec.n_dof)
    if map.projection == "first":
        p[spec.grid.size :, spec.grid.size :] = 0.0
    return p


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
    (alpha3, alpha4), the exact projection constants C* and C_d1, and, when a
    target is supplied, the sign-condition constant shared by the sliding
    feedback analysis.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples for a meaningful audit")
    rng = np.random.default_rng(seed)
    report = AuditReport(seed=seed, samples=samples)

    # (g5): <Ay - Ay', y - y'> >= a1 ||y-y'||_V^2 - a2 ||y-y'||_H^2
    num = np.empty(samples)
    lead = np.empty(samples)
    comp = np.empty(samples)
    for i in range(samples):
        y = smooth_sample(spec, rng)
        yb = smooth_sample(spec, rng)
        d = y - yb
        num[i] = spec.state_inner(spec.apply(y) - spec.apply(yb), d)
        lead[i] = spec.v_norm(d) ** 2
        comp[i] = spec.h_norm(d) ** 2
    a1, a2 = _best_lower_constant(num, lead, comp)
    report.add(AuditEntry(
        "monotonicity_g5", {"alpha1": a1, "alpha2": a2},
        passed=bool(np.isfinite(a1) and a1 > 0.0), method="sampling", samples=samples,
    ))

    # (A0H): (A_H y, Gamma_H y)_H >= a3 ||Gamma_H y||_H^2 - a4 ||y||_V^2
    n = spec.grid.size
    s = spec.gamma_op
    for i in range(samples):
        y = smooth_sample(spec, rng)
        gy = np.concatenate([s.apply(y[c * n : (c + 1) * n]) for c in range(spec.n_components)])
        num[i] = spec.state_inner(spec.apply(y), gy)
        lead[i] = spec.h_norm(gy) ** 2
        comp[i] = spec.v_norm(y) ** 2
    a3, a4 = _best_lower_constant(num, lead, comp)
    report.add(AuditEntry(
        "domain_estimate_A0H", {"alpha3": a3, "alpha4": a4},
        passed=bool(np.isfinite(a3) and a3 > 0.0), method="sampling", samples=samples,
    ))

    # (g74-2): ||P v||_V* <= C* ||B* v||_U*
    p = _projection_matrix(spec, map)
    mvs = _metric_vstar(spec)
    q1 = p.T @ mvs @ p
    mus = _metric_ustar(spec, map)
    r = _bstar_matrix(spec, map)
    if mus is not None:
        q2 = r.T @ mus @ r
        cstar = _sup_ratio_quadratic(q1, q2)
        report.add(AuditEntry(
            "projection_bound_g74_2", {"Cstar": cstar},
            passed=bool(np.isfinite(cstar)), method="spectral", samples=0,
        ))
    else:
        V, den = _bstar_samples(spec, map, rng, samples)
        ratios = [spec.vstar_norm(map.project_state(spec, v)) / d
                  for v, d in zip(V, den) if d > 1e-14]
        cstar = float(np.max(ratios)) if ratios else np.nan
        report.add(AuditEntry(
            "projection_bound_g74_2", {"Cstar": cstar},
            passed=bool(np.isfinite(cstar)), method="sampling", samples=samples,
            notes="U* norm is not quadratic; empirical supremum",
        ))

    # (g74): ||P Gamma^(-alpha/2) v||_H <= C ||B* v||_U*
    if spec.gamma_op.min_eigenvalue > 0.0:
        half = _dense_fn_matrix(spec.gamma_op, lambda lam: np.power(lam, -alpha / 2.0))
        t = p @ _blockdiag_per_component(spec, half)
        mh = _metric_state(spec)
        q1f = t.T @ mh @ t
        if mus is not None:
            cd1 = _sup_ratio_quadratic(q1f, r.T @ mus @ r)
            method, nsamp, notes = "spectral", 0, ""
        else:
            V, den = _bstar_samples(spec, map, rng, samples)
            ratios = [spec.h_norm(t @ v) / d for v, d in zip(V, den) if d > 1e-14]
            cd1 = float(np.max(ratios)) if ratios else np.nan
            method, nsamp, notes = "sampling", samples, "U* norm is not quadratic"
        report.add(AuditEntry(
            "fractional_bound_g74", {"C": cd1, "alpha": alpha},
            passed=bool(np.isfinite(cd1)), method=method, samples=nsamp, notes=notes,
        ))

    # kernel coercivity ||B* v|| >= gamma ||v|| for nonlocal maps
    if map.mode == "nonlocal":
        V, den = _bstar_samples(spec, map, rng, samples)
        gam = float(np.min(den / np.array([spec.h_norm(v) for v in V])))
        report.add(AuditEntry(
            "kernel_coercivity", {"gamma": gam},
            passed=bool(gam > 1e-10), method="sampling", samples=samples,
        ))

    if y_tar is not None:
        report.add(audit_sign_condition(spec, map, y_tar, samples, rng))
    return report


def audit_sign_condition(
    spec: OperatorSpec,
    map: ControlMap,
    y_tar: np.ndarray,
    samples: int = 200,
    rng: np.random.Generator | int = 0,
) -> AuditEntry:
    """Constant C1 of (A_H y - A_H yhat, P(y - yhat))_H >= -C1 ||P(y - yhat)||_H^2.

    For the first-component projection, yhat carries the target in the
    controlled component and the sample's own value in the uncontrolled one
    (the paper's running choice of the auxiliary state).
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    y_tar = np.asarray(y_tar, dtype=float).ravel()
    if y_tar.size != spec.n_dof:
        raise ValueError("target must be a full state vector")
    worst = 0.0
    for _ in range(samples):
        y = smooth_sample(spec, rng, scale=2.0)
        yhat = map.auxiliary_state(spec, y, y_tar)
        d = map.project_state(spec, y - yhat)
        dsq = spec.state_inner(d, d)
        if dsq < 1e-16:
            continue
        num = spec.state_inner(spec.apply(y) - spec.apply(yhat), d)
        worst = max(worst, -num / dsq)
    return AuditEntry(
        "sign_condition_g5_000", {"C1": worst},
        passed=True, method="sampling", samples=samples,
        notes="C1 also bounds (g12-10) for the sliding hit-time estimate",
    )
