"""Closed catalog of analytic reaction nonlinearities with exact derivatives.

Scalar families serve as the monotone potential beta(r); two-argument
families serve as the coupling terms f(y, z), g(y, z) of the two-component
systems. Derivatives are hand-coded so the linearization tests are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ScalarFn", "PairFn", "scalar_fn", "pair_fn", "SCALAR_FAMILIES", "PAIR_FAMILIES"]


@dataclass(frozen=True)
class ScalarFn:
    """A scalar function r -> beta(r) with derivative, beta(0) = 0."""

    name: str
    params: tuple[float, ...] = ()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return SCALAR_FAMILIES[self.name][0](np.asarray(r, dtype=float), *self.params)

    def d(self, r: np.ndarray) -> np.ndarray:
        return SCALAR_FAMILIES[self.name][1](np.asarray(r, dtype=float), *self.params)

    @property
    def monotone_floor(self) -> float:
        """A guaranteed lower bound on beta'."""
        return SCALAR_FAMILIES[self.name][2](*self.params)

    @property
    def growth_exponent(self) -> float:
        """kappa with beta'(r) <= c1 |r|^kappa + c2."""
        return SCALAR_FAMILIES[self.name][3](*self.params)


# name -> (value, derivative, monotone floor a0, growth exponent kappa)
SCALAR_FAMILIES = {
    "zero": (
        lambda r: np.zeros_like(r),
        lambda r: np.zeros_like(r),
        lambda: 0.0,
        lambda: 0.0,
    ),
    "linear": (
        lambda r, a: a * r,
        lambda r, a: np.full_like(r, a),
        lambda a: a,
        lambda a: 0.0,
    ),
    # r^3 + a r, the Allen-Cahn style cubic
    "cubic": (
        lambda r, a: r**3 + a * r,
        lambda r, a: 3.0 * r**2 + a,
        lambda a: a,
        lambda a: 2.0,
    ),
    # a0 r + c |r|^kappa r: sublinear-derivative growth for the porous medium
    "power": (
        lambda r, a0, c, kappa: a0 * r + c * np.abs(r) ** kappa * r,
        lambda r, a0, c, kappa: a0 + c * (kappa + 1.0) * np.abs(r) ** kappa,
        lambda a0, c, kappa: a0,
        lambda a0, c, kappa: kappa,
    ),
    # a r + c tanh(r): bounded saturating perturbation of a linear potential
    "tanh": (
        lambda r, a, c: a * r + c * np.tanh(r),
        lambda r, a, c: a + c / np.cosh(r) ** 2,
        lambda a, c: a if c >= 0 else a + c,
        lambda a, c: 0.0,
    ),
}


@dataclass(frozen=True)
class PairFn:
    """A coupling term (y, z) -> f(y, z) with both partial derivatives."""

    name: str
    params: tuple[float, ...] = ()

    def __call__(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return PAIR_FAMILIES[self.name][0](y, z, *self.params)

    def dy(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return PAIR_FAMILIES[self.name][1](y, z, *self.params)

    def dz(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return PAIR_FAMILIES[self.name][2](y, z, *self.params)

    @property
    def is_linear(self) -> bool:
        return self.name in ("zero2", "linear2")


# name -> (value, d/dy, d/dz, phi); all vanish at the origin. Every family
# with parameters broadcasts them against y and z, so parameter arrays of
# shape (2, 1, ...) evaluate two members of one family in a single call.
# phi is the elementwise map of a separable family, whose value is
# a phi(y) + b phi(z) with the operands in that order, and None for a family
# that is not separable. phi acts value by value, so phi taken once over a
# state and gathered for y and z keeps the bits of the value: one state's
# reaction and the held rows of the sliding law take tanh once a point.
PAIR_FAMILIES = {
    "zero2": (
        lambda y, z: np.zeros_like(y),
        lambda y, z: np.zeros_like(y),
        lambda y, z: np.zeros_like(y),
        None,
    ),
    # a y + b z
    "linear2": (
        lambda y, z, a, b: a * y + b * z,
        lambda y, z, a, b: a * np.ones_like(y),
        lambda y, z, a, b: b * np.ones_like(y),
        lambda r: r,
    ),
    # c y z^2/(1+z^2): the saturating interaction of the sliding example
    "sat_rational": (
        lambda y, z, c: c * y * z**2 / (1.0 + z**2),
        lambda y, z, c: c * z**2 / (1.0 + z**2),
        lambda y, z, c: c * y * 2.0 * z / (1.0 + z**2) ** 2,
        None,
    ),
    # a tanh(y) + b tanh(z): globally bounded gradient
    "tanh_pair": (
        lambda y, z, a, b: a * np.tanh(y) + b * np.tanh(z),
        lambda y, z, a, b: a / np.cosh(y) ** 2,
        lambda y, z, a, b: b / np.cosh(z) ** 2,
        np.tanh,
    ),
}


def scalar_fn(name: str, *params: float) -> ScalarFn:
    if name not in SCALAR_FAMILIES:
        raise ValueError(f"unknown scalar family {name!r}; have {sorted(SCALAR_FAMILIES)}")
    return ScalarFn(name, tuple(float(p) for p in params))


def pair_fn(name: str, *params: float) -> PairFn:
    if name not in PAIR_FAMILIES:
        raise ValueError(f"unknown pair family {name!r}; have {sorted(PAIR_FAMILIES)}")
    return PairFn(name, tuple(float(p) for p in params))
