"""Pfaffians and oriented dimer matrices.

pfaffian()             -- dense skew-symmetric Pfaffian (blocked Parlett-Reid
                          tridiagonalization with partial pivoting and
                          deferred rank-2 updates, sign + log magnitude)
build_dimer_matrix()   -- oriented adjacency matrices of the m x n grid for
                          free, cylinder and the four toroidal sign choices
dimer_count_torus()    -- the four-Pfaffian combination for torus matchings
ising_pfaffian_torus() -- ln Z of the Ising torus through the 4-site-block
                          dimer construction

Pfaffians are evaluated directly with their sign (never as +-sqrt(det)), so
the temperature-dependent sign pattern of the four-term combination emerges
instead of being guessed.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .core import (CapacityError, DomainError, LatticeSpec, exp_finite, finite, log_cosh,
                   signed_logsumexp)
from .oracle import MatchingWeights
from .spectral import _kacward_log_product

MAX_DIM = 4096
_BLOCK = 32   # elimination steps whose trailing updates are applied at once

# The four torus matrices: wrap signs (s1, s2) and weight in the
# combination 1/2 (-Pf A1 + Pf A2 + Pf A3 + Pf A4)
_TORUS_TERMS = {"torus1": (1.0, 1.0, -0.5), "torus2": (1.0, -1.0, 0.5),
                "torus3": (-1.0, 1.0, 0.5), "torus4": (-1.0, -1.0, 0.5)}
TORUS_VARIANTS = tuple(_TORUS_TERMS)
VARIANTS = ("free", "cylinder_a", "cylinder_b") + TORUS_VARIANTS


def pfaffian(a: np.ndarray) -> Tuple[int, float]:
    """Pfaffian of a real antisymmetric matrix as (sign, log magnitude).

    Parlett-Reid skew-symmetric tridiagonalization with partial pivoting,
    blocked after M. Wimmer, "Efficient numerical computation of the
    Pfaffian for dense and banded skew-symmetric matrices", ACM TOMS 38:30
    (2012).  The rank-2 trailing update of each elimination step is
    deferred: the pivot column and the next column are rebuilt from the
    stored matrix plus the pending updates, and every _BLOCK steps the
    pending updates are applied to the trailing block as one matrix
    product.  Every row/column interchange flips the sign.  A structurally
    singular matrix returns (0, -inf).
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise DomainError("pfaffian needs a square matrix")
    if n % 2:
        raise DomainError("pfaffian needs even dimension")
    if n > MAX_DIM:
        raise CapacityError(f"dimension {n} exceeds the {MAX_DIM} ceiling")
    if n == 0:
        return (1, 0.0)
    scale = float(np.abs(a).max())
    if not np.allclose(a, -a.T, atol=1e-12 * max(scale, 1.0)):
        raise DomainError("matrix is not antisymmetric")
    if scale == 0.0:
        return (0, -math.inf)

    sign = 1
    log_mag = 0.0
    # pending trailing update L R^T: step j of the block appends the column
    # pairs (tau, w) to L and (w, -tau) to R, so L R^T = sum tau w^T - w tau^T
    left = np.zeros((n, 2 * _BLOCK))
    right = np.zeros((n, 2 * _BLOCK))
    c = 0
    for k in range(0, n - 1, 2):
        # live column k: stored entries plus the updates still pending
        col = a[k + 1:, k] + left[k + 1:, :c] @ right[k, :c]
        i = int(np.abs(col).argmax())
        if abs(col[i]) <= 1e-12 * scale:
            return (0, -math.inf)
        if i:
            kp = k + 1 + i
            _swap(a, k + 1, kp)
            _swap(a.T, k + 1, kp)
            _swap(left, k + 1, kp)
            _swap(right, k + 1, kp)
            col[0], col[i] = col[i], col[0]
            sign = -sign
        piv = -col[0]   # a[k, k+1] by antisymmetry
        sign *= 1 if piv > 0 else -1
        log_mag += math.log(abs(piv))
        if k + 2 < n:
            tau = col[1:] / col[0]   # a[k, k+2:] / piv by antisymmetry
            w = a[k + 2:, k + 1] + left[k + 2:, :c] @ right[k + 1, :c]
            left[k + 2:, c] = tau
            left[k + 2:, c + 1] = w
            right[k + 2:, c] = w
            right[k + 2:, c + 1] = -tau
            c += 2
            if c == 2 * _BLOCK:
                t = k + 2
                a[t:, t:] += left[t:] @ right[t:].T
                c = 0
    return (sign, log_mag)


def _swap(x: np.ndarray, i: int, j: int) -> None:
    """Interchange rows i and j of x in place."""
    row = x[i].copy()
    x[i] = x[j]
    x[j] = row


def pfaffian_value(a: np.ndarray) -> float:
    """Pfaffian as a plain float; DomainError past the float range."""
    sign, log_mag = pfaffian(a)
    return 0.0 if sign == 0 else sign * exp_finite(log_mag, "|Pf|")


# ---------------------------------------------------------------------------
# oriented grid matrices
# ---------------------------------------------------------------------------

def _shift(length: int, corner: float) -> np.ndarray:
    """+1 on the superdiagonal and `corner` in the (last, first) slot."""
    h = np.eye(length, k=1)
    h[length - 1, 0] = corner
    return h


def build_dimer_matrix(spec: LatticeSpec, w: MatchingWeights,
                       variant: str = "free") -> np.ndarray:
    """Oriented adjacency matrix of the m x n grid.

    Site (i, j) maps to p = j*m + i (row index runs fastest).  Bonds along
    the row index carry z1, bonds along the column index carry (-1)^(i+1) z2
    (the alternation that makes every elementary face odd).  Boundary
    variants:

      free        no wraps
      cylinder_a  wrap in the column direction (alternating z2 entries with
                  the odd-parity corner sign)
      cylinder_b  wrap in the row direction with entry -z1 (requires an even
                  row count; the counting helpers transpose odd grids)
      torus1..4   both wraps with sign choices (+,+), (+,-), (-,+), (-,-)
                  multiplying the z1 / z2 wrap entries
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    m, n = spec.rows, spec.cols
    if (m * n) % 2:
        raise DomainError("odd site count has no perfect matching")
    if m * n > MAX_DIM:
        raise CapacityError("grid too large for a dense Pfaffian")
    s1 = s2 = 0.0
    if variant == "cylinder_b":
        s1 = -1.0
    elif variant == "cylinder_a":
        s2 = -1.0
    elif variant in TORUS_VARIANTS:
        s1, s2, _ = _TORUS_TERMS[variant]
    h_m = _shift(m, s1)
    h_n = _shift(n, s2)
    q_m = h_m - h_m.T
    q_n = h_n - h_n.T
    f_m = np.diag((-1.0) ** (np.arange(m) + 1))
    return w.z1 * np.kron(np.eye(n), q_m) + w.z2 * np.kron(q_n, f_m)


def dimer_count_free(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Matching generating function of the free grid as a single Pfaffian."""
    spec = LatticeSpec(m, n, "square", "free")
    return pfaffian_value(build_dimer_matrix(spec, w, "free"))


def dimer_count_torus(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Matching generating function of the toroidal grid:
    (1/2) (-Pf A1 + Pf A2 + Pf A3 + Pf A4).

    The alternating-sign direction must have even length; odd-row grids are
    transposed first (the torus count is orientation-invariant).  A count
    past the float range is a DomainError."""
    if (m * n) % 2:
        return 0.0
    z1, z2 = w.z1, w.z2
    if m % 2:
        m, n, z1, z2 = n, m, z2, z1
    spec = LatticeSpec(m, n, "square", "torus")
    w = MatchingWeights(z1, z2)
    terms = []
    for variant, (_, _, weight) in _TORUS_TERMS.items():
        sign, log_mag = pfaffian(build_dimer_matrix(spec, w, variant))
        terms.append(_weighted_term(weight, sign, log_mag))
    total_log, total_sign = signed_logsumexp(terms)
    return 0.0 if total_sign == 0 else total_sign * exp_finite(total_log, "the dimer count")


def _weighted_term(weight: float, sign: int, log_mag: float) -> Tuple[float, int]:
    """weight * sign * e^log_mag as a (log-magnitude, sign) pair."""
    return (log_mag + math.log(abs(weight)), sign * (1 if weight > 0 else -1))


# ---------------------------------------------------------------------------
# Ising partition function through the 4-site dimer clusters
# ---------------------------------------------------------------------------

_A0 = np.array([
    [0.0, 1.0, -1.0, -1.0],
    [-1.0, 0.0, 1.0, -1.0],
    [1.0, -1.0, 0.0, 1.0],
    [1.0, 1.0, -1.0, 0.0],
])


def _ising_block_matrix(m: int, n: int, z1: float, z2: float,
                        s1: float, s2: float) -> np.ndarray:
    """4mn-dimensional antisymmetric matrix of the cluster construction:
    each site carries a 4-site internal cluster (R, L, U, D); z1 connects
    (R, L) of row-neighboring clusters, z2 connects (U, D) of
    column-neighboring clusters, with wrap signs (s1, s2)."""
    e1 = np.zeros((4, 4)); e1[0, 1] = 1.0          # (R, L)
    e2 = np.zeros((4, 4)); e2[2, 3] = 1.0          # (U, D)
    h_m = _shift(m, s1)
    h_n = _shift(n, s2)
    i_m = np.eye(m)
    i_n = np.eye(n)
    a = np.kron(i_n, np.kron(i_m, _A0))
    a += np.kron(i_n, np.kron(h_m, z1 * e1) + np.kron(h_m.T, -z1 * e1.T))
    a += np.kron(h_n, np.kron(i_m, z2 * e2)) + np.kron(h_n.T, np.kron(i_m, -z2 * e2.T))
    return a


def ising_torus_logdet(m: int, n: int, z1: float, z2: float,
                       s1: float, s2: float) -> float:
    """Closed-form log determinant of a cluster matrix:

        det = prod_{t1} prod_{t2} [(1+z1^2)(1+z2^2) - 2 z1 (1-z2^2) cos t1
                                   - 2 z2 (1-z1^2) cos t2]

    with t on the integer grid 2 pi r / L for wrap sign +1 and the
    half-integer grid pi (2r+1) / L for wrap sign -1.  This is the Kac-Ward
    double product with x = z2, y = z1; -inf when a factor vanishes."""
    return _kacward_log_product(m, n, z2, z1, "integer" if s1 > 0 else "half",
                                "integer" if s2 > 0 else "half")


def ising_pfaffian_torus(m: int, n: int, k_h: float, k_v: float) -> float:
    """ln Z of the m x n Ising torus via dimers:

        Z = (2 cosh k_h cosh k_v)^{mn} * 1/2 (-Pf A1 + Pf A2 + Pf A3 + Pf A4)

    where the A_i are the four cluster matrices with wrap-sign choices
    (+,+), (+,-), (-,+), (-,-) and bond fugacities z = tanh k.  Each
    Pfaffian is cross-checked against the closed-form determinant of the
    same matrix.
    """
    if m < 2 or n < 2:
        raise DomainError("torus needs both sides >= 2")
    if not (k_h > 0 and k_v > 0):
        raise DomainError("couplings must be positive")
    if 4 * m * n > MAX_DIM:
        raise CapacityError(f"cluster matrix dimension {4*m*n} exceeds {MAX_DIM}")
    z1 = math.tanh(k_v)   # row-direction bonds couple neighboring rows
    z2 = math.tanh(k_h)
    variants = []
    for s1, s2, weight in _TORUS_TERMS.values():
        sign, log_mag = pfaffian(_ising_block_matrix(m, n, z1, z2, s1, s2))
        log_det = ising_torus_logdet(m, n, z1, z2, s1, s2)
        variants.append((weight, sign, log_mag, log_det))
    top = max(lm for _, s, lm, _ in variants if s != 0)
    terms = []
    for weight, sign, log_mag, log_det in variants:
        # near criticality one wrap-sign matrix is almost singular; its
        # Pfaffian is pure roundoff and its term is negligible, so the
        # determinant cross-check only applies to contributing variants
        if sign != 0 and log_mag > top - 15.0 and not math.isclose(
                2.0 * log_mag, log_det, rel_tol=1e-8, abs_tol=1e-8):
            raise AssertionError("Pfaffian^2 disagrees with the closed-form determinant")
        terms.append(_weighted_term(weight, sign, log_mag))
    log_sum, total_sign = signed_logsumexp(terms)
    if (m * n) % 2:
        # odd site count flips the global Pfaffian sign (site-ordering
        # permutation parity); the relative sign pattern is unchanged
        total_sign = -total_sign
    if total_sign <= 0:
        raise DomainError("four-Pfaffian combination lost positivity")
    pref = m * n * (math.log(2.0) + log_cosh(k_h) + log_cosh(k_v))
    return finite(pref + log_sum, "ln Z")

