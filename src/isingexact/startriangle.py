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
knee at alpha = 1/k for k > 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import DomainError, finite


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


def star_to_triangle(l1: float, l2: float, l3: float) -> StarTriangleMap:
    """Triangle couplings, scale factor R and modulus k for a star
    (L1, L2, L3).  All stored invariants are verified to 1e-10 before the
    map is returned."""
    for l in (l1, l2, l3):
        if not (l > 0 and math.isfinite(l)):
            raise DomainError("star couplings must be positive")
    c_all = math.cosh(l1 + l2 + l3)
    # pairwise sums 2(K_a + K_b) from the three log-ratio relations
    s12 = math.log(c_all / math.cosh(l1 + l2 - l3))
    s23 = math.log(c_all / math.cosh(l2 + l3 - l1))
    s31 = math.log(c_all / math.cosh(l3 + l1 - l2))
    k1 = (s12 + s31 - s23) / 4.0
    k2 = (s12 + s23 - s31) / 4.0
    k3 = (s23 + s31 - s12) / 4.0
    r = 2.0 * c_all / math.exp(k1 + k2 + k3)
    mod = modulus_k(k1, k2, k3)

    # invariant checks
    prods = [math.sinh(2 * ka) * math.sinh(2 * lb)
             for ka, lb in zip((k1, k2, k3), (l1, l2, l3))]
    for p in prods:
        if abs(p * mod - 1.0) > 1e-10:
            raise AssertionError("sinh 2K sinh 2L = 1/k violated")
    r2 = 2.0 * mod * math.sinh(2 * l1) * math.sinh(2 * l2) * math.sinh(2 * l3)
    if abs(r * r / r2 - 1.0) > 1e-10:
        raise AssertionError("R^2 identity violated")
    return StarTriangleMap(K=(k1, k2, k3), R=r, k_modulus=mod)


def modulus_k(k1: float, k2: float, k3: float) -> float:
    """k = (1-v1^2)(1-v2^2)(1-v3^2) /
           (4 sqrt((1+v1v2v3)(v1+v2v3)(v2+v1v3)(v3+v1v2))),  v_r = tanh K_r.

    Degenerate triples (two couplings at zero) make the square root vanish;
    that limit is flagged rather than evaluated."""
    for k in (k1, k2, k3):
        if not (k >= 0 and math.isfinite(k)):
            raise DomainError("couplings must be non-negative")
    v1, v2, v3 = math.tanh(k1), math.tanh(k2), math.tanh(k3)
    inner = (1 + v1 * v2 * v3) * (v1 + v2 * v3) * (v2 + v1 * v3) * (v3 + v1 * v2)
    if inner <= 0.0:
        raise DomainError("degenerate coupling triple (modulus undefined)")
    return ((1 - v1 * v1) * (1 - v2 * v2) * (1 - v3 * v3)
            / (4.0 * math.sqrt(inner)))


# ---------------------------------------------------------------------------
# correlation functional
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_legendre() -> tuple:
    """The 128-node Gauss-Legendre rule on [-1, 1], built on first use: the
    eigenvalue solve behind it is not paid by processes that never take a
    correlation integral."""
    return np.polynomial.legendre.leggauss(128)


def _angle_rule(k_arg: float, k: float):
    """sin^2(alpha) at the Gauss-Legendre nodes on [0, phi], phi =
    arctan(sinh 2K), and the node weights times 1/sqrt(1 - (1-k^2) sin^2 alpha).

    phi is evaluated as 2 arctan(tanh K), which is finite for every K and
    equals pi/2 at K = inf; the square root as cos^2 + k^2 sin^2, which does
    not cancel near alpha = pi/2 for small k.  For k > 1 the kernel falls
    from 1 to ~1/(k alpha) around the knee alpha = 1/k, so [0, phi] is split
    there and then every two decades: the rule is applied on [0, 1/k],
    [1/k, 100/k], [100/k, 10^4/k], ... (one panel while phi <= 1/k)."""
    nodes, weights = _gauss_legendre()
    phi = 2.0 * math.atan(math.tanh(k_arg))
    edges = [0.0]
    knee = 1.0 / k if k > 0.0 else math.inf
    while knee < phi:
        edges.append(knee)
        knee *= 100.0
    edges.append(phi)
    lo = np.array(edges[:-1])[:, None]
    half = 0.5 * (np.array(edges[1:])[:, None] - lo)
    alpha = (lo + half * (nodes + 1.0)).ravel()
    sin2 = np.sin(alpha) ** 2
    return sin2, (half * weights).ravel() / np.sqrt(np.cos(alpha) ** 2 + k * k * sin2)


def integral_a(k_arg: float, k: float) -> float:
    """A(K, k) = int_0^{2K} dx / sqrt(1 + k^2 sinh^2 x)
               = int_0^phi dalpha / sqrt(1 - (1-k^2) sin^2 alpha)

    under tan(alpha) = sinh(x), with phi = arctan(sinh 2K); 128-node
    Gauss-Legendre panels on [0, phi], split past the knee at 1/k.  The infinite integral is the complete
    elliptic integral of the complementary modulus, A(inf, k) = K(k')."""
    _, kernel = _angle_rule(k_arg, k)
    return float(kernel.sum())


def integral_b(k_arg: float, k: float) -> float:
    """B(K, k) = int_0^{2K} tanh^2 x dx / sqrt(1 + k^2 sinh^2 x)
               = int_0^phi sin^2 alpha dalpha / sqrt(1 - (1-k^2) sin^2 alpha)

    (tanh x = sin alpha) by the same rule as integral_a;
    B(inf, k) = (K(k') - E(k')) / k'^2."""
    sin2, kernel = _angle_rule(k_arg, k)
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
    and 1 at K = inf on both sides of the critical modulus."""
    if not (k_arg >= 0):
        raise DomainError("argument must be non-negative")
    a, b = ab_coefficients(k)
    if k_arg == 0.0:
        return 0.0
    return a * integral_a(k_arg, k) - b * integral_b(k_arg, k)


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
