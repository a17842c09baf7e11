"""Star-triangle transform, the universal modulus k, complete elliptic
integrals, and the correlation functional f(K, k).

Conventions.  A star with couplings (L1, L2, L3) attached to outer spins
(s1, s2, s3) decimates to a triangle whose coupling K_i sits on the edge
*opposite* vertex i:

    R exp(K1 s2 s3 + K2 s3 s1 + K3 s1 s2) = 2 cosh(L1 s1 + L2 s2 + L3 s3)

which fixes both the coupling map and the scale factor R, and pairs the
couplings so that sinh 2K_i sinh 2L_i is the same for all i (its common
value is 1/k).

The correlation integrals A(K, k) and B(K, k) are evaluated in the angle
tan(alpha) = sinh(x), where both integrands are analytic on [0, pi/2] for
every k > 0; a fixed 128-node Gauss-Legendre rule integrates them to
roundoff, on one panel for k <= 1 and on panels two decades wide past the
knee at alpha = 1/k for k > 1.  Past K_c, where the upper limit
phi = arctan(sinh 2K) passes pi/4, the part above pi/4 is integrated in
beta = pi/2 - alpha, on panels graded from pi/2 - phi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import K_CRIT, DomainError, exp_finite, finite, log_cosh
from .spectral import _log_2sinh_abs


@dataclass(frozen=True)
class EllipticPair:
    K_val: float
    E_val: float


@dataclass(frozen=True)
class StarTriangleMap:
    K: Tuple[float, float, float]
    R: float
    k_modulus: float


def complete_elliptic(k: float) -> EllipticPair:
    """K(k) and E(k) by the arithmetic-geometric mean (modulus convention:
    K(k) = int_0^{pi/2} dt / sqrt(1 - k^2 sin^2 t)):
    E = K (1 - sum_{n>=0} 2^{n-1} c_n^2), c_0 = k."""
    if not (0.0 <= k < 1.0):
        raise DomainError("complete_elliptic needs 0 <= k < 1")
    big_k, tail = _agm(k)
    return EllipticPair(K_val=big_k, E_val=big_k * (1.0 - (0.5 * k * k + tail)))


def _agm(k: float) -> Tuple[float, float]:
    """K(k) and the tail sum_{n>=1} 2^{n-1} c_n^2 of the arithmetic-geometric
    mean of 1 and k' = sqrt(1 - k^2), c_{n+1} = (a_n - b_n)/2.  c_1 is taken
    as k^2 / (2 (1 + k')), which does not cancel at small k.  Once c_n <
    1e-8 a_n the next term is below roundoff and a_n has converged; iterating
    further would add 2^n times the one-ulp noise of a_n - b_n."""
    kp = math.sqrt(1.0 - k * k)
    a, b, c = 0.5 * (1.0 + kp), math.sqrt(kp), k * k / (2.0 * (1.0 + kp))
    tail = c * c
    pow2 = 1.0
    for _ in range(60):
        if c < 1e-8 * a:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        tail += pow2 * c * c
    return math.pi / (2.0 * a), tail


def elliptic_k_series(k: float, terms: int = 60) -> float:
    """Hypergeometric series K(k) = (pi/2) sum ((2n-1)!!/(2^n n!))^2 k^{2n};
    converges usefully for k <= ~0.8.  Kept as an independent check on the
    AGM iteration."""
    total = 0.0
    coeff = 1.0
    k2 = k * k
    power = 1.0
    for n in range(terms):
        total += coeff * coeff * power
        power *= k2
        coeff *= (2 * n + 1) / (2.0 * (n + 1))
    return 0.5 * math.pi * total


def _edge_coupling(l_a: float, l_b: float, l_c: float) -> float:
    """The triangle coupling on the edge (a, b), opposite vertex c:

        e^{4K} = 1 + 2 sinh 2L_a sinh 2L_b / (cosh 2(L_a - L_b) + cosh 2L_c)

    whose terms are all positive, taken in logs so that it neither cancels
    at small couplings nor overflows at large ones.  Past 2L ~ 1.8e308 it is
    nan, which modulus_k refuses."""
    with np.errstate(invalid="ignore"):
        log_ratio = (_log_2sinh_abs(2.0 * l_a) + _log_2sinh_abs(2.0 * l_b) - math.log(2.0)
                     - np.logaddexp(log_cosh(2.0 * (l_a - l_b)), log_cosh(2.0 * l_c)))
        return float(np.logaddexp(0.0, log_ratio)) / 4.0


def star_to_triangle(l1: float, l2: float, l3: float) -> StarTriangleMap:
    """Triangle couplings, scale factor R and modulus k for a star
    (L1, L2, L3).

    Every quantity is taken in log form, so no coupling overflows: each K_i
    from its sum of positive terms (_edge_coupling), ln R =
    ln 2 + ln cosh(L1 + L2 + L3) - (K1 + K2 + K3), and the stored
    invariants sinh 2K_i sinh 2L_i = 1/k and R^2 = 2k prod sinh 2L_i, which
    are verified to 1e-10 before the map is returned.  A failed invariant,
    or an R or k outside the float range, is a DomainError."""
    for l in (l1, l2, l3):
        if not (l > 0 and math.isfinite(l)):
            raise DomainError("star couplings must be positive")
    k1, k2, k3 = _edge_coupling(l2, l3, l1), _edge_coupling(l3, l1, l2), _edge_coupling(l1, l2, l3)
    log_r = math.log(2.0) + log_cosh(l1 + l2 + l3) - (k1 + k2 + k3)
    mod = modulus_k(k1, k2, k3)
    if mod == 0.0:
        raise DomainError(f"the modulus k of the star {(l1, l2, l3)!r} is below the float range")

    # invariant checks, in log form
    log_mod = math.log(mod)
    log_sinh = [float(_log_2sinh_abs(2.0 * x)) - math.log(2.0) for x in (k1, k2, k3, l1, l2, l3)]
    for ka, lb in zip(log_sinh[:3], log_sinh[3:]):
        if not abs(ka + lb + log_mod) <= 1e-10:
            raise DomainError("sinh 2K sinh 2L = 1/k violated")
    if not abs(2.0 * log_r - (math.log(2.0) + log_mod + sum(log_sinh[3:]))) <= 1e-10:
        raise DomainError("R^2 identity violated")
    return StarTriangleMap(K=(k1, k2, k3), R=exp_finite(log_r, "the scale factor R"),
                           k_modulus=mod)


def modulus_k(k1: float, k2: float, k3: float) -> float:
    """k = (1-v1^2)(1-v2^2)(1-v3^2) /
           (4 sqrt((1+v1v2v3)(v1+v2v3)(v2+v1v3)(v3+v1v2))),  v_r = tanh K_r.

    1 - v^2 = sech^2 K is taken as 4t / (1 + t)^2, t = e^{-2K}, which does
    not cancel at large K (it underflows to k = 0 past K1 + K2 + K3 ~ 370).
    Degenerate triples (two couplings at zero) make the square root vanish;
    that limit is flagged rather than evaluated."""
    for k in (k1, k2, k3):
        if not (k >= 0 and math.isfinite(k)):
            raise DomainError("couplings must be non-negative")
    v1, v2, v3 = math.tanh(k1), math.tanh(k2), math.tanh(k3)
    inner = (1 + v1 * v2 * v3) * (v1 + v2 * v3) * (v2 + v1 * v3) * (v3 + v1 * v2)
    if inner <= 0.0:
        raise DomainError("degenerate coupling triple (modulus undefined)")
    t1, t2, t3 = math.exp(-2.0 * k1), math.exp(-2.0 * k2), math.exp(-2.0 * k3)
    return (4.0 * t1 / (1.0 + t1) ** 2 * (4.0 * t2 / (1.0 + t2) ** 2)
            * (4.0 * t3 / (1.0 + t3) ** 2) / (4.0 * math.sqrt(inner)))


# ---------------------------------------------------------------------------
# correlation functional
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre() -> tuple:
    """The 128-node Gauss-Legendre rule on [-1, 1], built on first use: the
    eigenvalue solve behind it is not paid by processes that never take a
    correlation integral."""
    return np.polynomial.legendre.leggauss(128)


def _panels(lo: float, hi: float, knee: float) -> list:
    """Panel edges on [lo, hi]: split at the knee and then every two decades
    past it, at the splits that fall inside (lo, hi)."""
    edges = [lo]
    while knee < hi:
        if knee > lo:
            edges.append(knee)
        knee *= 100.0
    edges.append(hi)
    return edges


def _gauss_panels(edges: list):
    """The 128-node Gauss-Legendre nodes and weights on each panel."""
    nodes, weights = _gauss_legendre()
    lo = np.array(edges[:-1])[:, None]
    half = 0.5 * (np.array(edges[1:])[:, None] - lo)
    return (lo + half * (nodes + 1.0)).ravel(), (half * weights).ravel()


def _angle_rule(k_arg: float, k: float):
    """sin^2 alpha and cos^2 alpha at the Gauss-Legendre nodes on [0, phi],
    phi = arctan(sinh 2K), and the node weights times
    1/sqrt(1 - (1-k^2) sin^2 alpha) = 1/sqrt(cos^2 + k^2 sin^2).

    For k > 1 the kernel falls from 1 to ~1/(k alpha) around the knee
    alpha = 1/k, so the alpha range is split there and then every two
    decades: the rule is applied on [0, 1/k], [1/k, 100/k], ...  Up to K_c,
    phi = 2 arctan(tanh K) is at most pi/4 and the alpha range is [0, phi].
    Past it, near pi/2 the kernel is ~1/sqrt(beta^2 + k^2) in beta =
    pi/2 - alpha, and beta carries no digits as pi/2 - alpha: [0, pi/4] is
    integrated in alpha as above, and [beta_0, pi/4] in beta from
    beta_0 = pi/2 - phi = 2 arctan(e^{-2K}), on panels split at
    max(k, beta_0) and then every two decades."""
    if not math.isfinite(k):
        raise DomainError(f"the modulus must be finite, got {k!r}")
    knee = 1.0 / k if k > 0.0 else math.inf
    alpha, w_alpha = _gauss_panels(_panels(0.0, min(2.0 * math.atan(math.tanh(k_arg)),
                                                    0.25 * math.pi), knee))
    sin_a, cos_a = np.sin(alpha), np.cos(alpha)
    # hypot: k^2 overflows past k ~ 1e154, and sin^2 alpha underflows below
    # the knee of such a k
    kernel = w_alpha / np.hypot(cos_a, k * sin_a)
    sin2, cos2 = sin_a ** 2, cos_a ** 2
    if k_arg <= K_CRIT:
        return sin2, cos2, kernel
    beta_0 = 2.0 * math.atan(math.exp(-2.0 * k_arg))
    if max(k, beta_0) == 0.0:
        raise DomainError(f"A and B at k = 0 need pi/2 - phi > 0; at K = {k_arg!r} "
                          "it is below the float range")
    beta, w_beta = _gauss_panels(_panels(beta_0, 0.25 * math.pi, max(k, beta_0)))
    sin_b, cos_b = np.sin(beta), np.cos(beta)
    # hypot as above: sin^2 beta underflows where beta_0 < 1e-154
    return (np.concatenate((sin2, cos_b ** 2)), np.concatenate((cos2, sin_b ** 2)),
            np.concatenate((kernel, w_beta / np.hypot(sin_b, k * cos_b))))


def integral_a(k_arg: float, k: float) -> float:
    """A(K, k) = int_0^{2K} dx / sqrt(1 + k^2 sinh^2 x)
               = int_0^phi dalpha / sqrt(1 - (1-k^2) sin^2 alpha)

    under tan(alpha) = sinh(x), with phi = arctan(sinh 2K); 128-node
    Gauss-Legendre panels on [0, phi] (see _angle_rule).  The infinite
    integral is the complete elliptic integral of the complementary
    modulus, A(inf, k) = K(k')."""
    _, _, kernel = _angle_rule(k_arg, k)
    return float(kernel.sum())


def integral_b(k_arg: float, k: float) -> float:
    """B(K, k) = int_0^{2K} tanh^2 x dx / sqrt(1 + k^2 sinh^2 x)
               = int_0^phi sin^2 alpha dalpha / sqrt(1 - (1-k^2) sin^2 alpha)

    (tanh x = sin alpha) by the same rule as integral_a;
    B(inf, k) = (K(k') - E(k')) / k'^2."""
    sin2, _, kernel = _angle_rule(k_arg, k)
    return float(sin2 @ kernel)


def ab_coefficients(k: float) -> Tuple[float, float]:
    """The modulus-only coefficients of f = a A - b B.

    k < 1 (low temperature):   a = (2/pi) E(k),  b = (2/pi) (1-k^2) K(k)
                               (a = b = 1 at k = 0)
    k > 1 (high temperature), with l = 1/k:
        a = (2/pi) (E(l) - (1-l^2) K(l)) / l,   b = -(2/pi) (1-l^2) K(l) / l

    E(l) - (1-l^2) K(l) vanishes like l^2; it is taken from the AGM sums as
    K(l) (l^2/2 - sum_{n>=1} 2^{n-1} c_n^2), which does not cancel.
    """
    lam = 2.0 / math.pi
    if not k >= 0:
        raise DomainError("modulus must be non-negative")
    if k == 1.0:
        raise DomainError("modulus k = 1 is the critical point (singular)")
    if k < 1.0:
        ell = complete_elliptic(k)
        return lam * ell.E_val, lam * (1.0 - k * k) * ell.K_val
    l = 1.0 / k
    big_k, tail = _agm(l)
    return (lam * big_k * (0.5 * l * l - tail) / l,
            -lam * (1.0 - l * l) * big_k / l)


def correlation_f(k_arg: float, k: float) -> float:
    """f(K, k) = a(k) A(K, k) - b(k) B(K, k): 0 at K = 0, monotone in K,
    and 1 at K = inf on both sides of the critical modulus; tanh 2K at
    k = 0.

    Every term is non-negative: for k < 1, where A and B both grow like 2K
    while f stays below 1, f is taken as (a - b) A + b (A - B), with A - B
    integrated directly from its own integrand cos^2 alpha / sqrt(...); for
    k > 1, b < 0."""
    if not (k_arg >= 0):
        raise DomainError("argument must be non-negative")
    a, b = ab_coefficients(k)
    if k_arg == 0.0:
        return 0.0
    if k == 0.0:
        return math.tanh(2.0 * k_arg)
    sin2, cos2, kernel = _angle_rule(k_arg, k)
    if k > 1.0:
        return float(a * kernel.sum() - b * (sin2 @ kernel))
    return float((a - b) * kernel.sum() + b * (cos2 @ kernel))


def b_near_critical(k: float) -> float:
    """Asymptotic form of b(k) near the critical modulus:
    b(k) ~ ((1-k^2)/pi) ln(16/|1-k^2|)."""
    d = 1.0 - k * k
    if d == 0.0:
        return 0.0
    return (d / math.pi) * math.log(16.0 / abs(d))


def square_lattice_energy(k_h: float, k_v: float) -> float:
    """Internal energy (in bond units, positive convention) of the
    anisotropic square lattice through the correlation functional:

        u = coth 2K f(K, k) + coth 2L f(L, k),  k = 1/(sinh 2K sinh 2L)

    Each term is the nearest-neighbor correlation weighted by its bond.  The
    modulus is taken as 4 e^{-2K-2L} / ((1 - e^{-4K})(1 - e^{-4L})), which
    does not overflow at large couplings; it underflows to k = 0, the
    zero-temperature limit, where f(K, 0) = tanh 2K.  At tiny couplings the
    integrals need k^2, refused once it is past the float range."""
    if not (k_h > 0 and k_v > 0):
        raise DomainError("couplings must be positive")
    den = math.expm1(-4.0 * k_h) * math.expm1(-4.0 * k_v)
    mod = 4.0 * math.exp(-2.0 * (k_h + k_v)) / den if den else math.inf
    finite(mod * mod, "the squared modulus k^2")
    return (correlation_f(k_h, mod) / math.tanh(2 * k_h)
            + correlation_f(k_v, mod) / math.tanh(2 * k_v))


def landen_descending(k: float) -> float:
    """The ascending-modulus companion k1 = 2 sqrt(k)/(1+k) used by the
    Landen identities K(k) = K(k1)/(1+k) and
    E(k) = E(k1)(1+k)/2 + (1-k) K(k1)/2."""
    if not (0.0 <= k < 1.0):
        raise DomainError("needs 0 <= k < 1")
    return 2.0 * math.sqrt(k) / (1.0 + k)
