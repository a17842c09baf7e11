"""Closed-form finite-lattice partition functions from hyperbolic spectra.

Four families of exact products:

* the four-product torus formula built on the gamma spectrum,
* the four grid-parity double products and their signed combination,
* the free-boundary dimer product (cosine double product),
* the triangular-torus double sum (per-site log Z proxy).

All products are accumulated in log space; raw products overflow already
around 40 x 40.  A parity-product factor depends on its two angles only
through their cosines, and each grid is closed under theta -> -theta, so the
Kac-Ward route takes the log of each distinct factor once, about
(m/2 + 1)(n/2 + 1) of them, and weights it by its multiplicity; no product
over phi is done in closed form, which would turn it into the gamma route.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (CapacityError, DomainError, LatticeSpec, MatchingWeights, ReducedCouplings,
                   _dimer_count, _log_2sinh_abs, angle_grid, dual_coupling, finite, log_cosh,
                   log_sum)


@dataclass(frozen=True)
class GridParity:
    """Angle-grid selector per axis: 'integer' -> {2 pi r / L},
    'half' -> {(2r+1) pi / L}."""

    parity_v: str = "integer"   # grid paired with the row direction
    parity_h: str = "integer"   # grid paired with the column direction

    def __post_init__(self):
        for p in (self.parity_v, self.parity_h):
            if p not in ("integer", "half"):
                raise DomainError(f"unknown parity {p!r}")


def gamma_spectrum(n: int, k_t: float, k_s: float) -> np.ndarray:
    """The 2n hyperbolic angles of an n-column transfer direction:
    gamma_k = arccosh(cosh 2k_t* cosh 2k_s - cos(pi k/n) sinh 2k_t* sinh 2k_s)
    for k >= 1, all non-negative, and gamma_0 = 2 (k_t* - k_s), signed (it
    changes sign at the self-dual point).

    k_t is the coupling along the transfer direction (whose dual k_t*
    appears), k_s the in-row coupling.  The arccosh argument is taken
    through cosh gamma - 1 = 2 sinh^2(a - b) + 2 sin^2(theta/2) sinh 2a sinh 2b
    (a = k_t*, b = k_s), a sum of non-negative terms, as sinh(gamma/2) =
    e^{a+b} w with w free of overflow.  From a + b = 700 on, where e^{a+b}
    nears overflow and arcsinh x equals ln 2x to double precision, gamma is
    2 (a + b + ln 2w).
    """
    LatticeSpec(1, n)   # rejects n < 1
    if not (k_t > 0.0 and math.isfinite(k_t)):
        raise DomainError("k_t must be positive (its dual enters the spectrum)")
    if not (k_s >= 0.0 and math.isfinite(k_s)):
        raise DomainError("k_s must be non-negative")
    kd = dual_coupling(k_t)
    if not math.isfinite(2.0 * (kd + k_s)):
        raise DomainError(f"the gamma spectrum at k_t = {k_t!r}, k_s = {k_s!r} "
                          "is past the float range")
    theta = angle_grid("integer", 2 * n)
    w = 0.5 * np.sqrt(math.exp(-4.0 * min(kd, k_s)) * math.expm1(-2.0 * abs(kd - k_s)) ** 2
                      + np.sin(0.5 * theta) ** 2 * (math.expm1(-4.0 * kd)
                                                   * math.expm1(-4.0 * k_s)))
    if kd + k_s < 700.0:
        gamma = 2.0 * np.arcsinh(math.exp(kd + k_s) * w)
    else:
        with np.errstate(divide="ignore"):
            gamma = 2.0 * (kd + k_s + np.log(2.0 * w))
    gamma[0] = 2.0 * (kd - k_s)
    return gamma


def kaufman_partition(m: int, n: int, k_t: float, k_s: float) -> float:
    """ln Z of the m x n torus from the four spectral products:

    Z = 1/2 (2 sinh 2k_t)^{mn/2} [ prod 2cosh(m g_odd/2) + prod 2sinh(m g_odd/2)
        + prod 2cosh(m g_even/2) - prod 2sinh(m g_even/2) ]

    with the even-index sinh product carrying the signed gamma_0, so the
    final term changes sign with 2(k_t* - k_s) and one code path is valid on
    both sides of the critical point: core.log_sum adds the four log
    products with weights (1, 1, 1, -sign gamma_0).
    """
    LatticeSpec(m, n)   # rejects sides < 1
    if not (k_s > 0.0):
        raise DomainError("k_s must be positive")
    half_m = 0.5 * m * gamma_spectrum(n, k_t, k_s)
    odd = half_m[1::2]
    even = half_m[0::2]
    # ln 2cosh x = |x| + ln(1 + e^{-2|x|}); np.logaddexp(x, -x) calls libm's
    # exp and rounds differently from numpy's vector exp on some hosts
    ax = np.abs(half_m)
    log_2cosh = ax + np.log1p(np.exp(-2.0 * ax))
    terms = [log_2cosh[1::2].sum(), _log_2sinh_abs(odd).sum(),
             log_2cosh[0::2].sum(), _log_2sinh_abs(even).sum()]
    return finite(-math.log(2.0)
                  + 0.5 * m * n * float(_log_2sinh_abs(2.0 * k_t))
                  + log_sum(terms, (1.0, 1.0, 1.0, -np.sign(half_m[0])), "the spectral sum"),
                  "ln Z")


def kacward_products(m: int, n: int, k_h: float, k_v: float,
                     gp: GridParity) -> float:
    """log of the double product over the chosen parity grids of

        (1+x^2)(1+y^2) - 2y(1-x^2) cos theta - 2x(1-y^2) cos phi

    with x = tanh k_h, y = tanh k_v, theta on the row-direction grid
    (parity_v, size m) and phi on the column-direction grid (parity_h,
    size n).  Each factor is non-negative; it vanishes only at the critical
    manifold on the integer/integer grid, where the log is -inf rather than
    an exception.  The factors at theta and -theta (and at phi and -phi)
    are equal, so the logs of the (floor(m/2) + 1) x (floor(n/2) + 1)
    distinct factors at most are taken once and summed with the
    multiplicities of their angles.
    """
    if not (k_h > 0 and k_v > 0):
        raise DomainError("couplings must be positive")
    return _kacward_log_product(m, n, math.tanh(k_h), math.tanh(k_v),
                                gp.parity_v, gp.parity_h)


# 4096 x 4096 factors, of which at most 2049 x 2049 are distinct: 32 MiB of
# float64 per product
MAX_KACWARD_FACTORS = 1 << 24


def _folded_grid(parity: str, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The angles of angle_grid(parity, length) that are distinct under
    theta -> 2 pi - theta, with their multiplicities: 2 for each, 1 for the
    self-reflected 0 (on the integer grid) and pi (on the integer grid of
    even length and the half grid of odd length).  The multiplicities sum
    to length."""
    count = length // 2 + 1 if parity == "integer" else (length + 1) // 2
    weights = np.full(count, 2.0)
    if parity == "integer":
        weights[0] = 1.0
    if (parity == "integer") == (length % 2 == 0):
        weights[-1] = 1.0
    return angle_grid(parity, length)[:count], weights


def _kacward_log_product(m: int, n: int, x: float, y: float,
                         parity_v: str, parity_h: str) -> float:
    """log of the double product of kacward_products in the fugacities
    x, y; -inf when a factor vanishes (below 1e-300).  Only the factors on
    the folded grids are formed; their logs are summed as
    w_theta . log F . w_phi."""
    LatticeSpec(m, n)   # rejects sides < 1
    if m * n > MAX_KACWARD_FACTORS:
        raise CapacityError(
            f"{m} x {n} = {m * n} Kac-Ward factors exceed the {MAX_KACWARD_FACTORS} ceiling")
    theta, w_theta = _folded_grid(parity_v, m)
    phi, w_phi = _folded_grid(parity_h, n)
    factors = (((1.0 + x * x) * (1.0 + y * y) - 2.0 * y * (1.0 - x * x) * np.cos(theta))[:, None]
               - 2.0 * x * (1.0 - y * y) * np.cos(phi))
    if float(factors.min()) < 1e-300:
        return -math.inf
    return float(w_theta @ np.log(factors, out=factors) @ w_phi)


def kacward_log_z(m: int, n: int, k_h: float, k_v: float) -> float:
    """ln Z of the m x n torus from the four parity products:

        Z = 1/2 (2 cosh k_h cosh k_v)^{mn} (s sqrt(P_ii) + sqrt(P_ih)
            + sqrt(P_hi) + sqrt(P_hh))

    where s = sign(sinh 2k_h sinh 2k_v - 1), taken as the sign of
    ln(2 sinh 2k_h) + ln(2 sinh 2k_v) - ln 4 so that large couplings do not
    overflow.  The integer/integer product is the square of the signed sinh
    term of the spectral four-product, so its square root must re-enter with
    that temperature-dependent sign; at the critical manifold the product
    vanishes and the term drops out.  core.log_sum adds the four half-logs
    with weights (s, 1, 1, 1).
    """
    parities = [GridParity("integer", "integer"), GridParity("integer", "half"),
                GridParity("half", "integer"), GridParity("half", "half")]
    s1 = float(_log_2sinh_abs(2.0 * k_h) + _log_2sinh_abs(2.0 * k_v)) - 2.0 * math.log(2.0)
    half_logs = [0.5 * kacward_products(m, n, k_h, k_v, gp) for gp in parities]
    pref = m * n * (math.log(2.0) + log_cosh(k_h) + log_cosh(k_v))
    return finite(-math.log(2.0) + pref
                  + log_sum(half_logs, (np.sign(s1), 1.0, 1.0, 1.0), "the parity-product sum"),
                  "ln Z")


def dimer_count_free(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Number (generating function) of dimer coverings of the free m x n grid:

        prod_{k=1}^{m/2} prod_{j=1}^{n} 2 sqrt(z1^2 cos^2(pi k/(m+1))
                                               + z2^2 cos^2(pi j/(n+1)))

    evaluated in log space.  An odd m is handled by reorienting the grid;
    odd m and odd n means no perfect matching (returns 0).  The cosine at
    j = (n+1)/2 of an odd n is exactly 0, so a zero z1 there gives an exact
    0.  z = max(z1, z2) is factored out before squaring, so no weight
    overflows a term.  A count past the float range is a DomainError, and
    so is one below the normal range, or with a factor whose squares both
    underflowed, on a grid that has a matching.
    """
    LatticeSpec(m, n, "square", "free")   # rejects sides < 1
    z1, z2 = w.z1, w.z2
    if m % 2 == 1:
        if n % 2 == 1:
            return 0.0
        m, n, z1, z2 = n, m, z2, z1
    z = max(z1, z2)
    if z == 0.0:
        return 0.0
    k = np.arange(1, m // 2 + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    cos_j = np.cos(np.pi * j / (n + 1))
    if n % 2:
        cos_j[0, n // 2] = 0.0   # j = (n+1)/2, where the float cosine is 6e-17
    terms = (z1 / z * np.cos(np.pi * k / (m + 1))) ** 2 + (z2 / z * cos_j) ** 2
    if float(terms.min()) < sys.float_info.min:
        # no matching, or a factor whose squares both underflowed
        log_count = -math.inf
    else:
        log_count = float((math.log(2.0) + math.log(z) + 0.5 * np.log(terms)).sum())
    return _dimer_count(log_count, m, n, MatchingWeights(z1, z2))


def triangular_log_z_per_site(m: int, n: int, c: ReducedCouplings) -> float:
    """Finite double-sum proxy for ln Z per site of the triangular torus:

        ln 2 + (1/2mn) sum_{k,l} ln[ cosh 2H cosh 2H' cosh 2H3
            + sinh 2H sinh 2H' sinh 2H3 - sinh 2H cos w1 - sinh 2H' cos w2
            - sinh 2H3 cos(w1 + w2) ]

    on the integer grid w1 = 2 pi k/m, w2 = 2 pi l/n, with (H, H', H3) =
    (k_h, k_v, k_d).  k_d = 0 reduces term by term to the square-lattice
    double sum; the value converges to the thermodynamic integral as the
    grid refines.  The bracket is taken in units of e^{2(H+H'+H3)}, with
    cosh 2k and sinh 2k as e^{2k} (1 +- t) / 2, t = e^{-4k}, so large
    couplings do not overflow.
    """
    LatticeSpec(m, n, "triangular")   # rejects sides < 1
    kd = c.k_d if c.k_d is not None else 0.0
    for v in (c.k_h, c.k_v, kd):
        if v < 0:
            raise DomainError("triangular couplings must be non-negative")
    if c.k_h == 0.0 and c.k_v == 0.0 and kd == 0.0:
        return math.log(2.0)
    w1 = angle_grid("integer", m)[:, None]
    w2 = angle_grid("integer", n)[None, :]
    kh, kv = c.k_h, c.k_v
    t = [math.exp(-4.0 * k) for k in (kh, kv, kd)]
    u = [-math.expm1(-4.0 * k) for k in (kh, kv, kd)]   # 1 - t, no cancelling at tiny k
    s1 = 0.5 * u[0] * math.exp(-2.0 * (kv + kd))
    s2 = 0.5 * u[1] * math.exp(-2.0 * (kh + kd))
    s3 = 0.5 * u[2] * math.exp(-2.0 * (kh + kv))
    bracket = (0.125 * ((1.0 + t[0]) * (1.0 + t[1]) * (1.0 + t[2]) + u[0] * u[1] * u[2])
               - s1 * np.cos(w1) - s2 * np.cos(w2) - s3 * np.cos(w1 + w2))
    if float(bracket.min()) <= 0.0:
        raise DomainError("a grid point hits a vanishing factor (critical manifold)")
    return finite(math.log(2.0) + kh + kv + kd + float(np.log(bracket).sum()) / (2.0 * m * n),
                  "ln Z per site")

