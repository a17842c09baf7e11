"""Thermodynamic-limit free energies and derived observables.

Each free energy is a double integral over [0, 2pi)^2 whose inner integral
has the closed form

    (1/2pi) int ln(A - B cos w) dw = ln((A + sqrt(A^2 - B^2)) / 2),  A >= |B|,

so what remains is a smooth periodic integral over one angle, evaluated by
the midpoint rule (nodes 2pi (j + 1/2) / N).  The half offset means the
node w = 0 -- where the integrand develops its integrable log singularity at
criticality -- is never sampled, so one code path covers the critical point
too.  Away from criticality the rule converges spectrally.  A - B is always
formed as a sum of non-negative terms, so it does not cancel near
criticality, and large couplings are scaled out before any cosh or sinh
could overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (CapacityError, DomainError, _bracket, _check_couplings, angle_grid, finite,
                   log_cosh)

MAX_POINTS = 4096   # quadrature nodes on the one remaining axis


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_axis: int = 256   # nodes of the midpoint rule on the outer angle

    def __post_init__(self):
        if self.points_per_axis < 16:
            raise DomainError("quadrature needs at least 16 points per axis")
        if self.points_per_axis > MAX_POINTS:
            raise CapacityError(
                f"{self.points_per_axis} quadrature points per axis exceed the {MAX_POINTS} ceiling")


_DEFAULT_Q = QuadratureSpec()


def _half_angles(q: QuadratureSpec) -> np.ndarray:
    """w/2 at the midpoint nodes w = 2pi (j + 1/2) / N, the half grid."""
    return 0.5 * angle_grid("half", q.points_per_axis)


def _mean_log_root(lo: np.ndarray, hi: np.ndarray) -> float:
    """Mean over the nodes of ln((A + sqrt(A^2 - B^2)) / 2), from lo = A - |B|
    and hi = A + |B|.  A + sqrt(A^2 - B^2) = (sqrt lo + sqrt hi)^2 / 2, so the
    root never cancels against A."""
    return 2.0 * float(np.mean(np.log(0.5 * (np.sqrt(lo) + np.sqrt(hi)))))


def onsager_free_energy(k1: float, k2: float, q: QuadratureSpec = _DEFAULT_Q) -> float:
    """-beta f per site of the anisotropic square lattice:

    ln 2 + (1/2) (2 pi)^{-2} int int ln[cosh 2k1 cosh 2k2
                                        - sinh 2k1 cos w1 - sinh 2k2 cos w2]

    The w2 integral is closed (A = c - s1 cos w1, B = s2); the rule runs over
    the angle of the weaker coupling, where the integrand is smoothest, which
    also makes the value symmetric in (k1, k2) bit for bit.  c, s1, s2 are
    taken in units of e^{2(k1+k2)}/4, in which c - s1 - s2 = (1 - t1 - t2 -
    t1 t2)^2 with t = e^{-2k}: a square that vanishes on the critical line
    sinh 2k1 sinh 2k2 = 1.
    """
    _check_couplings(k1, k2)
    k1, k2 = sorted((k1, k2))
    t1, t2 = math.exp(-2.0 * k1), math.exp(-2.0 * k2)
    s1 = -2.0 * t2 * math.expm1(-4.0 * k1)
    s2 = -2.0 * t1 * math.expm1(-4.0 * k2)
    gap = (1.0 - t1 - t2 - t1 * t2) ** 2
    lo = gap + 2.0 * s1 * np.sin(_half_angles(q)) ** 2
    return finite(k1 + k2 + 0.5 * _mean_log_root(lo, lo + 2.0 * s2), "-beta f")


def _isotropic_mean(y: float, half_angle_sq: np.ndarray) -> float:
    """The closed inner integral of ln[(1+y^2)^2 -+ 2y(1-y^2)(cos p + cos r)]
    over r, averaged over the nodes p.  With b = 2y(1-y^2), A - |B| is the
    bracket's minimum (y^2 + 2y - 1)^2 plus 2b times half_angle_sq: cos^2(p/2)
    for the + sign, sin^2(p/2) for the - sign."""
    b = 2.0 * y * (1.0 - y * y)
    lo = (y * y + 2.0 * y - 1.0) ** 2 + 2.0 * b * half_angle_sq
    return _mean_log_root(lo, lo + 2.0 * b)


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
    return finite(math.log(2.0) + 2.0 * log_cosh(k) + 0.5 * _isotropic_mean(
        math.tanh(k), np.cos(_half_angles(q)) ** 2), "-beta f")


def dirac_free_energy(theta: float, q: QuadratureSpec = _DEFAULT_Q) -> float:
    """Isotropic -beta f in the x = tanh theta parametrization:

    ln 2 - ln(1 - x^2) + (1/8 pi^2) int int
        ln[(1+x^2)^2 - 2 x (1-x^2)(cos p + cos q)]

    with -ln(1 - x^2) taken as 2 ln cosh theta, which stays finite where x
    rounds to 1.
    """
    if not theta > 0:
        raise DomainError("coupling must be positive")
    return finite(math.log(2.0) + 2.0 * log_cosh(theta)
                  + 0.5 * _isotropic_mean(math.tanh(theta), np.sin(_half_angles(q)) ** 2),
                  "-beta f")


def triangular_free_energy(k1: float, k2: float, k3: float,
                           q: QuadratureSpec = _DEFAULT_Q) -> float:
    """-beta f per site of the anisotropic triangular lattice:

    ln 2 + (1/8 pi^2) int int ln[cosh 2k1 cosh 2k2 cosh 2k3
        + sinh 2k1 sinh 2k2 sinh 2k3 - sinh 2k1 cos w1 - sinh 2k2 cos w2
        - sinh 2k3 cos(w1 + w2)]

    k3 = 0 reduces to the square-lattice form term by term.  The bracket is
    symmetric in the three couplings; the rule runs over the angle of the
    weakest.  With s2 cos w2 + s3 cos(w1 + w2) = R cos(w2 + phi),
    R^2 = s2^2 + s3^2 + 2 s2 s3 cos w1, the w2 integral is closed with
    A = c - s1 cos w1 and B = R.  In units of e^{2(k1+k2+k3)}/4 the bracket
    is core._bracket's, gap + sum 2 s_i sin^2(w_i/2), with t = e^{-2k}.
    """
    if k1 < 0 or k2 < 0 or k3 < 0:
        raise DomainError("couplings must be non-negative")
    k1, k2, k3 = sorted((k1, k2, k3))
    gap, slopes = _bracket([math.exp(-2.0 * k) for k in (k1, k2, k3)],
                           [-math.expm1(-4.0 * k) for k in (k1, k2, k3)])
    s1, s2, s3 = (0.5 * s for s in slopes)
    sin2 = np.sin(_half_angles(q)) ** 2
    r = np.sqrt((s2 + s3) ** 2 - 4.0 * s2 * s3 * sin2)
    # A - R = gap + 2 s1 sin^2(w1/2) + (s2 + s3 - R), the last term rationalized
    lo = gap + 2.0 * s1 * sin2
    if s2 * s3 > 0.0:
        lo = lo + 4.0 * s2 * s3 * sin2 / (s2 + s3 + r)
    return finite(k1 + k2 + k3 + 0.5 * _mean_log_root(lo, lo + 2.0 * r), "-beta f")


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


def _difference_step(k: float, dk: float, q: QuadratureSpec) -> tuple[float, float]:
    """The isotropic -beta f at k + dk and at k - dk, both couplings varied
    together, for the central differences; k - dk must stay positive."""
    if not (k - dk > 0):
        raise DomainError("k - dk must stay positive")
    return onsager_free_energy(k + dk, k + dk, q), onsager_free_energy(k - dk, k - dk, q)


def internal_energy(k: float, dk: float = 1e-4,
                    q: QuadratureSpec = _DEFAULT_Q) -> float:
    """d(-beta f)/dk of the isotropic square lattice by central differences,
    varying both couplings together.  This is the (positive) energy per site
    in units of the bond strength."""
    up, dn = _difference_step(k, dk, q)
    return (up - dn) / (2.0 * dk)


def specific_heat(k: float, dk: float = 1e-4,
                  q: QuadratureSpec = _DEFAULT_Q) -> float:
    """k^2 d^2(-beta f)/dk^2 by central second differences; grows
    logarithmically as k -> K_CRIT."""
    up, dn = _difference_step(k, dk, q)
    return k * k * (up - 2.0 * onsager_free_energy(k, k, q) + dn) / (dk * dk)

