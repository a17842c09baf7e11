"""Shared domain types and reduced-unit conventions.

Everything downstream works in dimensionless couplings K = beta*J.  No
absolute temperature or interaction strength appears anywhere else in the
library; callers convert once at the boundary.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Self-dual coupling of the isotropic square lattice: sinh(2 K_c) = 1.
K_CRIT = 0.5 * math.log(1.0 + math.sqrt(2.0))

GEOMETRIES = ("chain", "square", "triangular", "honeycomb")
BOUNDARIES = ("free", "cylinder_h", "cylinder_v", "torus")

_LOG_MAX = math.log(sys.float_info.max)


class DomainError(ValueError):
    """Invalid argument (outside the mathematical domain of an operation)."""


class CapacityError(RuntimeError):
    """Problem size exceeds the hard limits of an exact method."""


class SelfCheckError(DomainError):
    """A route's own consistency check failed (a Pfaffian^2 that misses its
    determinant, a signed sum that lost positivity, a broken star-triangle
    invariant): the route is wrong there, not merely out of its domain."""


def log_sum(log_terms, weights=1.0, what: str = "the sum") -> float:
    """ln sum_i w_i e^{l_i}, shifted by the largest l_i of nonzero weight.

    The weights are real and may be negative (the signed four-term sums of
    the torus routes).  An exact cancellation or an empty sum is -inf; a
    non-finite largest term (inf, nan, or -inf when every term is -inf) is
    returned as is, for the caller's finite() to judge; a negative sum is a
    SelfCheckError naming `what`."""
    log_terms = np.asarray(log_terms, dtype=np.float64)
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), log_terms.shape)
    live = weights != 0.0
    if not live.all():
        log_terms, weights = log_terms[live], weights[live]
    if log_terms.size == 0:
        return -math.inf
    top = log_terms.max()
    if not np.isfinite(top):
        return float(top)
    total = np.sum(weights * np.exp(log_terms - top))
    if total < 0.0:
        raise SelfCheckError(f"{what} lost positivity: the signed sum is negative")
    return -math.inf if total == 0.0 else float(top + np.log(total))


def angle_grid(parity: str, length: int) -> np.ndarray:
    """The length angles 2 pi r / length ('integer') or pi (2r + 1) / length
    ('half'), r = 0 .. length - 1."""
    return _grid_angles(parity, length, np.arange(length))


def _grid_angles(parity: str, length: int, r: np.ndarray) -> np.ndarray:
    """The angles of angle_grid(parity, length) at the indices r, each the
    same float as in the whole grid."""
    if parity == "integer":
        return 2.0 * np.pi * r / length
    return np.pi * (2.0 * r + 1.0) / length


def finite(value: float, what: str) -> float:
    """value, refused once it is outside the float range."""
    if not math.isfinite(value):
        raise DomainError(f"{what} = {value!r} is outside the float range")
    return value


def _check_couplings(k_h: float, k_v: float) -> None:
    """DomainError unless both couplings are positive, the one domain check
    of the square lattice's two-coupling routes: the Kac-Ward products, the
    Pfaffian torus, Onsager's integral and the correlation energy."""
    if not (k_h > 0 and k_v > 0):
        raise DomainError("couplings must be positive")


def exp_finite(log_value: float, what: str) -> float:
    """e^log_value, refused once it is past the float range."""
    if not log_value <= _LOG_MAX:
        raise DomainError(f"{what} = e^{log_value!r} is past the float range")
    return math.exp(log_value)


def _dimer_count(log_count: float, m: int, n: int, w: "MatchingWeights") -> float:
    """e^log_count as the dimer count of the free or toroidal m x n grid,
    refused past the float range, and below its normal range (0 included)
    whenever the grid has a perfect matching: z1 dimers tile it when m is
    even, z2 dimers when n is even.  Such a count has lost its digits; a
    grid with no matching keeps its exact 0."""
    count = exp_finite(log_count, "the dimer count")
    if count < sys.float_info.min and ((w.z1 > 0.0 and m % 2 == 0)
                                       or (w.z2 > 0.0 and n % 2 == 0)):
        raise DomainError(f"the dimer count = {count!r} is below the normal float range, "
                          "though the grid has a perfect matching")
    return count


def log_cosh(x: float) -> float:
    """ln cosh x without overflow for large |x|."""
    return abs(x) + math.log1p(math.exp(-2.0 * abs(x))) - math.log(2.0)


def _log_2sinh_abs(x: np.ndarray) -> np.ndarray:
    """log(2 |sinh x|) = |x| + ln(1 - e^{-2|x|}), with 1 - e^{-2|x|} taken by
    expm1 so tiny |x| keeps its digits; -inf at x = 0."""
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        return ax + np.log(-np.expm1(-2.0 * ax))


def _bracket(t, one_minus_t_sq) -> tuple[float, tuple[float, float, float]]:
    """The critical bracket of the square and triangular lattices,

        g^2 + S_1 sin^2(w_1/2) + S_2 sin^2(w_2/2) + S_3 sin^2(w_3/2),
        g = 1 - t_1 t_2 - t_2 t_3 - t_3 t_1,   S_i = 4 t_j t_k (1 - t_i^2),

    as (g^2, (S_1, S_2, S_3)), from t and the 1 - t_i^2 the caller takes
    without cancelling.  Each term is non-negative for 0 <= t <= 1, so the
    bracket never cancels: it vanishes only where g does, at w = 0, and near
    there it keeps the digits the cosine form A - sum B_i cos w_i loses.
    tanh K = e^{-2K*} (the duality sinh 2K sinh 2K* = 1), so one polynomial
    serves both the fugacities t = (tanh K_h, tanh K_v, 1) of the Kac-Ward
    product and the t = e^{-2K} of the triangular sum and integral, where
    it is their bracket in units of e^{2(K_1 + K_2 + K_3)}/4."""
    t1, t2, t3 = t
    u1, u2, u3 = one_minus_t_sq
    return ((1.0 - t1 * t2 - t2 * t3 - t3 * t1) ** 2,
            (4.0 * t2 * t3 * u1, 4.0 * t3 * t1 * u2, 4.0 * t1 * t2 * u3))


def dual_coupling(k: float) -> float:
    """Map a coupling to its dual: sinh(2k) * sinh(2k*) = 1.

    Equivalently k* = -(1/2) ln tanh k = (1/2) ln(1 + 2/(e^{2k} - 1)), taken
    as log1p of 2e^{-2k} / (1 - e^{-2k}) so that neither tiny nor huge k
    loses digits or overflows.  The map is a strictly decreasing involution
    on (0, inf) with fixed point K_CRIT; it exchanges the high- and
    low-temperature sides of the square-lattice model.
    """
    if not math.isfinite(k) or k <= 0.0:
        raise DomainError(f"dual_coupling requires a finite positive coupling, got {k!r}")
    return 0.5 * math.log1p(-2.0 * math.exp(-2.0 * k) / math.expm1(-2.0 * k))


@dataclass(frozen=True)
class ReducedCouplings:
    """Dimensionless couplings per bond direction.

    k_d is the diagonal coupling of the triangular lattice (and doubles as
    the third edge-class coupling on the honeycomb lattice).
    """

    k_h: float
    k_v: float
    k_d: Optional[float] = None

    def __post_init__(self):
        for name in ("k_h", "k_v"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.k_d is not None and not math.isfinite(self.k_d):
            raise DomainError(f"k_d must be finite, got {self.k_d!r}")


@dataclass(frozen=True)
class MatchingWeights:
    """z1 weights bonds along the row index (i -> i+1), z2 along the column
    index (j -> j+1)."""

    z1: float = 1.0
    z2: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.z1 < math.inf and 0.0 <= self.z2 < math.inf):
            raise DomainError("matching weights must be finite and non-negative")


@dataclass(frozen=True)
class LatticeSpec:
    rows: int
    cols: int
    geometry: str = "square"
    boundary: str = "torus"

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DomainError("lattice sides must be positive: rows and cols must be positive, "
                              f"got {self.rows} x {self.cols}")
        if self.geometry not in GEOMETRIES:
            raise DomainError(f"unknown geometry {self.geometry!r}")
        if self.boundary not in BOUNDARIES:
            raise DomainError(f"unknown boundary {self.boundary!r}")
        if self.geometry == "chain" and self.rows != 1:
            raise DomainError("chain geometry forces rows = 1")


@dataclass(frozen=True)
class MethodResult:
    """ln Z, the producing method, and the numerical settings needed to
    reproduce the value bit-for-bit."""

    log_z: float
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.log_z):
            raise DomainError("log_z must be finite")
