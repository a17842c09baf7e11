"""Thermodynamic-limit free energies and derived observables.

All integrals are smooth periodic double integrals evaluated on a midpoint
(half-offset) trapezoidal tensor grid over [0, 2pi)^2.  The half offset
means the (0, 0) node -- where the integrand develops its integrable log
singularity at criticality -- is never sampled, so one code path covers the
critical point too.  Away from criticality the rule converges spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, DomainError, K_CRIT, log_cosh

MAX_POINTS = 4096   # points per axis; the grid holds MAX_POINTS^2 float64 nodes


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_axis: int = 256

    def __post_init__(self):
        if self.points_per_axis < 16:
            raise DomainError("quadrature needs at least 16 points per axis")
        if self.points_per_axis > MAX_POINTS:
            raise CapacityError(
                f"{self.points_per_axis} quadrature points per axis exceed the {MAX_POINTS} ceiling")


_DEFAULT_Q = QuadratureSpec()


def _midpoint_grid(points: int) -> np.ndarray:
    return 2.0 * np.pi * (np.arange(points) + 0.5) / points


def _mean_log_bracket(q: QuadratureSpec, bracket) -> float:
    w1 = _midpoint_grid(q.points_per_axis)[:, None]
    w2 = _midpoint_grid(q.points_per_axis)[None, :]
    return float(np.mean(np.log(bracket(w1, w2))))


def onsager_free_energy(k1: float, k2: float, q: QuadratureSpec = _DEFAULT_Q) -> float:
    """-beta f per site of the anisotropic square lattice:

    ln 2 + (1/2) (2 pi)^{-2} int int ln[cosh 2k1 cosh 2k2
                                        - sinh 2k1 cos w1 - sinh 2k2 cos w2]
    """
    if not (k1 > 0 and k2 > 0):
        raise DomainError("couplings must be positive")
    c = math.cosh(2 * k1) * math.cosh(2 * k2)
    s1, s2 = math.sinh(2 * k1), math.sinh(2 * k2)
    mean = _mean_log_bracket(q, lambda w1, w2: c - s1 * np.cos(w1) - s2 * np.cos(w2))
    return math.log(2.0) + 0.5 * mean


def fermionic_free_energy(k: float, q: QuadratureSpec = _DEFAULT_Q) -> float:
    """Isotropic -beta f from the quadratic-form determinant:

    ln 2 + 2 ln cosh k + (1/2) (2 pi)^{-2} int int
        ln[(1+z^2)^2 + 2 z (1-z^2)(cos p + cos q)],   z = tanh k.

    The + sign on the cosine terms is immaterial under full-period
    integration; equality with the Onsager form is asserted by tests rather
    than normalized away here.
    """
    if not k > 0:
        raise DomainError("coupling must be positive")
    z = math.tanh(k)
    a = (1.0 + z * z) ** 2
    b = 2.0 * z * (1.0 - z * z)
    mean = _mean_log_bracket(q, lambda p, r: a + b * (np.cos(p) + np.cos(r)))
    return math.log(2.0) + 2.0 * log_cosh(k) + 0.5 * mean


def dirac_free_energy(theta: float, q: QuadratureSpec = _DEFAULT_Q) -> float:
    """Isotropic -beta f in the x = tanh theta parametrization:

    ln 2 - ln(1 - x^2) + (1/8 pi^2) int int
        ln[(1+x^2)^2 - 2 x (1-x^2)(cos p + cos q)]
    """
    if not theta > 0:
        raise DomainError("coupling must be positive")
    x = math.tanh(theta)
    a = (1.0 + x * x) ** 2
    b = 2.0 * x * (1.0 - x * x)
    mean = _mean_log_bracket(q, lambda p, r: a - b * (np.cos(p) + np.cos(r)))
    return math.log(2.0) - math.log1p(-x * x) + 0.5 * mean


def triangular_free_energy(k1: float, k2: float, k3: float,
                           q: QuadratureSpec = _DEFAULT_Q) -> float:
    """-beta f per site of the anisotropic triangular lattice:

    ln 2 + (1/8 pi^2) int int ln[cosh 2k1 cosh 2k2 cosh 2k3
        + sinh 2k1 sinh 2k2 sinh 2k3 - sinh 2k1 cos w1 - sinh 2k2 cos w2
        - sinh 2k3 cos(w1 + w2)]

    k3 = 0 reduces to the square-lattice form term by term.
    """
    if k1 < 0 or k2 < 0 or k3 < 0:
        raise DomainError("couplings must be non-negative")
    if k1 == 0 and k2 == 0 and k3 == 0:
        return math.log(2.0)
    c = math.cosh(2 * k1) * math.cosh(2 * k2) * math.cosh(2 * k3) \
        + math.sinh(2 * k1) * math.sinh(2 * k2) * math.sinh(2 * k3)
    s1, s2, s3 = (math.sinh(2 * k1), math.sinh(2 * k2), math.sinh(2 * k3))
    mean = _mean_log_bracket(
        q, lambda w1, w2: c - s1 * np.cos(w1) - s2 * np.cos(w2) - s3 * np.cos(w1 + w2))
    return math.log(2.0) + 0.5 * mean


def critical_point_square() -> float:
    """Root of sinh(2K) = 1 by bisection to 1e-14 (equals ln(1+sqrt 2)/2)."""
    lo, hi = 0.1, 1.0
    f = lambda k: math.sinh(2.0 * k) - 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def internal_energy(k: float, dk: float = 1e-4,
                    q: QuadratureSpec = _DEFAULT_Q) -> float:
    """d(-beta f)/dk of the isotropic square lattice by central differences,
    varying both couplings together.  This is the (positive) energy per site
    in units of the bond strength."""
    if not (k - dk > 0):
        raise DomainError("k - dk must stay positive")
    up = onsager_free_energy(k + dk, k + dk, q)
    dn = onsager_free_energy(k - dk, k - dk, q)
    return (up - dn) / (2.0 * dk)


def specific_heat(k: float, dk: float = 1e-4,
                  q: QuadratureSpec = _DEFAULT_Q) -> float:
    """k^2 d^2(-beta f)/dk^2 by central second differences; grows
    logarithmically as k -> K_CRIT."""
    if not (k - dk > 0):
        raise DomainError("k - dk must stay positive")
    mid = onsager_free_energy(k, k, q)
    up = onsager_free_energy(k + dk, k + dk, q)
    dn = onsager_free_energy(k - dk, k - dk, q)
    return k * k * (up - 2.0 * mid + dn) / (dk * dk)

