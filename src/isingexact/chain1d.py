"""One-dimensional chains: three independent routes to the same ln Z.

transfer_closed   -- eigenvalues of the 2x2 transfer matrix (closed chain)
recursive_open    -- the alpha/beta recursion for the open chain in a field
induction_closed  -- the block-diagonal 4x4 recurrence on boundary-resolved
                     partial partition functions (closed chain)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, log_cosh


@dataclass(frozen=True)
class ChainParams:
    n_spins: int
    k: float = 0.0
    h: float = 0.0
    closed: bool = True

    def __post_init__(self):
        if self.n_spins < 1:
            raise DomainError("n_spins must be positive")
        if not (math.isfinite(self.k) and math.isfinite(self.h)):
            raise DomainError("couplings must be finite")


def transfer_closed(p: ChainParams) -> float:
    """ln(lambda_1^N + lambda_2^N) with
    lambda_{1,2} = e^k [cosh h +- sqrt(sinh^2 h + e^{-4k})].

    Computed in log space by factoring out the dominant eigenvalue, so N can
    be arbitrarily large.  The N = 2 closed chain carries a doubled bond
    (both directions around the ring), consistent with the enumeration
    oracle's multi-edge convention.
    """
    if not p.closed:
        raise DomainError("transfer_closed expects a closed chain")
    k, h, n = p.k, p.h, p.n_spins
    root = math.sqrt(math.sinh(h) ** 2 + math.exp(-4.0 * k))
    lam1 = math.cosh(h) + root          # both in units of e^k
    lam2 = math.cosh(h) - root
    ratio = lam2 / lam1
    return n * (k + math.log(lam1)) + math.log1p(ratio ** n)


def recursive_open(p: ChainParams) -> float:
    """Open chain of S spins in a field via the two-term recursion

        alpha_{i+1} = alpha_i + beta_i * w_h
        beta_{i+1}  = beta_i * w_J + alpha_i * w_J * w_h

    started from alpha_1 = 1, beta_1 = w_J * w_h, with w_J = tanh k and
    w_h = tanh h.  Then ln Z = S ln 2 + (S-1) ln cosh k + S ln cosh h
    + ln alpha_S.  The recursion is iterated numerically (never replaced by
    its eigenvalue closed form, which degenerates as h -> 0); the iterate is
    renormalized each step to keep it O(1).
    """
    if p.closed:
        raise DomainError("recursive_open expects an open chain")
    if p.n_spins < 2:
        raise DomainError("the recursion needs at least two spins")
    s = p.n_spins
    w_j = math.tanh(p.k)
    w_h = math.tanh(p.h)
    alpha, beta = 1.0, w_j * w_h
    log_scale = 0.0
    for _ in range(s - 1):
        alpha, beta = alpha + beta * w_h, beta * w_j + alpha * w_j * w_h
        norm = abs(alpha) + abs(beta)
        if norm > 0.0:
            alpha /= norm
            beta /= norm
            log_scale += math.log(norm)
    return (s * math.log(2.0) + (s - 1) * log_cosh(p.k) + s * log_cosh(p.h)
            + log_scale + math.log(alpha))


def induction_closed(p: ChainParams) -> float:
    """Closed chain by induction on the boundary-resolved vector
    (Z^{++}, Z^{+-}, Z^{-+}, Z^{--}): inserting a spin between the ends acts
    as a fixed block-diagonal 4x4 recurrence matrix M, so
    z_N = M^{N-1} z_1 and Z = sum(z_N)."""
    if not p.closed:
        raise DomainError("induction_closed expects a closed chain")
    if p.n_spins < 2:
        raise DomainError("induction needs at least two spins")
    k, h = p.k, p.h
    m = np.array([
        [math.exp(k + h), math.exp(k + h), 0.0, 0.0],
        [math.exp(-(3.0 * k + h)), math.exp(k - h), 0.0, 0.0],
        [0.0, 0.0, math.exp(k + h), math.exp(-(3.0 * k - h))],
        [0.0, 0.0, math.exp(k - h), math.exp(k - h)],
    ])
    z = np.array([math.exp(k + h), 0.0, 0.0, math.exp(k - h)])
    log_scale = 0.0
    for _ in range(p.n_spins - 1):
        z = m @ z
        norm = z.sum()
        z /= norm
        log_scale += math.log(norm)
    return log_scale + math.log(z.sum())

