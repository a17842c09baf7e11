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

from .core import DomainError, finite, log_cosh


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

    Computed in log space: both eigenvalues are taken in units of e^{k+c},
    c = max(|h|, -2k) the larger of the scales of cosh h and of the root,
    so no exp overflows and N can be arbitrarily large.  For k < 0 and odd N,
    lambda_2^N < 0 cancels lambda_1^N down to the frustrated ground states;
    there Z = (lambda_1 + lambda_2) sum_{j<N} lambda_1^j |lambda_2|^{N-1-j},
    with lambda_1 + lambda_2 = 2 e^k cosh h and 1 - |lambda_2|/lambda_1 =
    2 cosh h e^{k}/lambda_1 taken directly.  The N = 2 closed chain carries
    a doubled bond (both directions around the ring), consistent with the
    enumeration oracle's multi-edge convention.
    """
    if not p.closed:
        raise DomainError("transfer_closed expects a closed chain")
    k, h, n = p.k, p.h, p.n_spins
    ah = abs(h)
    c = max(ah, -2.0 * k)
    cosh_h = 0.5 * math.exp(ah - c) * (1.0 + math.exp(-2.0 * ah))
    sinh_h = -0.5 * math.exp(ah - c) * math.expm1(-2.0 * ah)
    root = math.sqrt(sinh_h ** 2 + math.exp(-4.0 * k - 2.0 * c))
    lam1 = cosh_h + root          # both in units of e^{k+c}
    lam2 = cosh_h - root
    if k < 0.0 and n % 2:
        d = 2.0 * cosh_h / lam1   # 1 - |lambda_2| / lambda_1
        # the geometric sum (1 - (1 - d)^N) / d is N once N d is below roundoff
        if n * d < 1e-16:
            geometric = float(n)
        elif d < 1.0:
            geometric = -math.expm1(n * math.log1p(-d)) / d
        else:                     # lambda_2 rounds to 0
            geometric = 1.0
        return finite(math.log(2.0) + k + log_cosh(h) + (n - 1) * (k + c + math.log(lam1))
                      + math.log(geometric), "ln Z")
    return finite(n * (k + c + math.log(lam1)) + math.log1p((lam2 / lam1) ** n), "ln Z")


def recursive_open(p: ChainParams) -> float:
    """Open chain of S spins in a field via the two-term recursion

        alpha_{i+1} = alpha_i + beta_i * w_h
        beta_{i+1}  = beta_i * w_J + alpha_i * w_J * w_h

    started from alpha_1 = 1, beta_1 = w_J * w_h, with w_J = tanh k and
    w_h = tanh h.  Then ln Z = S ln 2 + (S-1) ln cosh k + S ln cosh h
    + ln alpha_S.  The recursion is iterated numerically (never replaced by
    its eigenvalue closed form, which degenerates as h -> 0).

    It runs in the basis u = alpha + beta, v = alpha - beta:

        u_{i+1} = u_i (1 + w_J)(1 + w_h)/2 + v_i (1 - w_J)(1 - w_h)/2
        v_{i+1} = u_i (1 - w_J)(1 + w_h)/2 + v_i (1 + w_J)(1 - w_h)/2

    where every coefficient is positive, (1 +- w_J)/2 = e^{+-k} / 2cosh k and
    1 +- w_h = e^{+-h} / cosh h, so the recursion runs on ln u and ln v by
    np.logaddexp with no cancelling, where in alpha and beta it cancels once
    tanh k rounds to -1.  alpha_1, beta_1 is one step from alpha = 1,
    beta = 0, that is u = v = 1.
    """
    if p.closed:
        raise DomainError("recursive_open expects an open chain")
    s, k, h = p.n_spins, p.k, p.h
    # ln((1 +- w_J)/2) = -ln(1 + e^{-+2k}),  ln(1 +- w_h) = ln 2 - ln(1 + e^{-+2h})
    j_plus, j_minus = -np.logaddexp(0.0, -2.0 * k), -np.logaddexp(0.0, 2.0 * k)
    h_plus = math.log(2.0) - np.logaddexp(0.0, -2.0 * h)
    h_minus = math.log(2.0) - np.logaddexp(0.0, 2.0 * h)
    from_u = np.array([j_plus + h_plus, j_minus + h_plus])
    from_v = np.array([j_minus + h_minus, j_plus + h_minus])
    log_uv = np.zeros(2)
    # a coupling or field near the float range makes ln Z inf or nan,
    # which finite() refuses
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            log_uv = np.logaddexp(from_u + log_uv[0], from_v + log_uv[1])
        # alpha_S = (u_S + v_S) / 2
        log_z = (s * math.log(2.0) + (s - 1) * log_cosh(k) + s * log_cosh(h)
                 + np.logaddexp(log_uv[0], log_uv[1]) - math.log(2.0))
    return finite(float(log_z), "ln Z")


def induction_closed(p: ChainParams) -> float:
    """Closed chain by induction on the boundary-resolved vector
    (Z^{++}, Z^{+-}, Z^{-+}, Z^{--}): inserting a spin between the ends acts
    as a fixed block-diagonal 4x4 recurrence matrix M, so
    z_N = M^{N-1} z_1 and Z = sum(z_N).

    Each row of M has two nonzero entries e^{x}, so the recurrence runs on
    ln z by np.logaddexp, which shifts each pair by its larger term: the
    components may differ by more than the float range (e^{1600} between
    Z^{++} and Z^{+-} of a ring at k = -400), and none is lost.  ln z is
    shifted by its largest component each step, as z was renormalized."""
    if not p.closed:
        raise DomainError("induction_closed expects a closed chain")
    k, h = p.k, p.h
    # row i of M: e^{x1[i]} at column cols1[i], e^{x2[i]} at column cols2[i]
    x1 = np.array([k + h, -(3.0 * k + h), k + h, k - h])
    x2 = np.array([k + h, k - h, -(3.0 * k - h), k - h])
    cols1, cols2 = [0, 0, 2, 2], [1, 1, 3, 3]
    log_z = np.array([k + h, -np.inf, -np.inf, k - h])
    log_scale = 0.0
    # as in recursive_open, inf or nan past the float range is refused
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(p.n_spins - 1):
            log_z = np.logaddexp(x1 + log_z[cols1], x2 + log_z[cols2])
            top = log_z.max()
            log_z -= top
            log_scale += top
        log_z = log_scale + np.logaddexp(np.logaddexp(log_z[0], log_z[1]),
                                         np.logaddexp(log_z[2], log_z[3]))
    return finite(float(log_z), "ln Z")
