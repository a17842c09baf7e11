import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ellipe, ellipk

from isingexact.core import K_CRIT, DomainError, LatticeSpec, ReducedCouplings
from isingexact.oracle import build_lattice_graph, enumerate_partition_graph
from isingexact.startriangle import (
    ab_coefficients,
    b_near_critical,
    complete_elliptic,
    correlation_f,
    elliptic_k_series,
    integral_a,
    integral_b,
    landen_descending,
    modulus_k,
    square_lattice_energy,
    star_to_triangle,
)
from isingexact.thermo import internal_energy


# ------------------------------------------------------------- elliptic

# at 0.6 and 0.979 a_n and b_n settle one ulp apart
@pytest.mark.parametrize("k", [0.01, 0.1, 0.3, 0.5, 0.6, 0.7, 0.9, 0.979, 0.99, 0.9999])
def test_agm_matches_scipy(k):
    # scipy parametrizes by m = k^2
    ep = complete_elliptic(k)
    assert ep.K_val == pytest.approx(ellipk(k * k), abs=5e-15)
    assert ep.E_val == pytest.approx(ellipe(k * k), abs=5e-15)


def test_agm_matches_hypergeometric_series():
    for k in (0.1, 0.4, 0.6):
        assert elliptic_k_series(k) == pytest.approx(complete_elliptic(k).K_val, abs=1e-14)


@pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
def test_legendre_relation(k):
    kp = math.sqrt(1 - k * k)
    a, b = complete_elliptic(k), complete_elliptic(kp)
    lhs = a.E_val * b.K_val + b.E_val * a.K_val - a.K_val * b.K_val
    assert lhs == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("k", [0.1, 0.4, 0.7])
def test_landen_identities(k):
    k1 = landen_descending(k)
    e0, e1 = complete_elliptic(k), complete_elliptic(k1)
    assert e0.K_val == pytest.approx(e1.K_val / (1 + k), abs=1e-12)
    assert e0.E_val == pytest.approx(
        e1.E_val * (1 + k) / 2 + (1 - k) * e1.K_val / 2, abs=1e-12)


def test_elliptic_domain():
    with pytest.raises(DomainError):
        complete_elliptic(1.0)
    with pytest.raises(DomainError):
        complete_elliptic(-0.2)


# ---------------------------------------------------------- star-triangle

@given(st.tuples(st.floats(min_value=0.2, max_value=1.5),
                 st.floats(min_value=0.2, max_value=1.5),
                 st.floats(min_value=0.2, max_value=1.5)))
@settings(max_examples=100, deadline=None)
def test_star_triangle_invariants(ls):
    # star_to_triangle verifies sinh 2K_i sinh 2L_i = 1/k and the R^2
    # identity to 1e-10 internally; re-assert them here explicitly
    m = star_to_triangle(*ls)
    for ka, lb in zip(m.K, ls):
        assert math.sinh(2 * ka) * math.sinh(2 * lb) == pytest.approx(
            1.0 / m.k_modulus, rel=1e-10)
    r2 = 2 * m.k_modulus * math.prod(math.sinh(2 * l) for l in ls)
    assert m.R ** 2 == pytest.approx(r2, rel=1e-10)


def test_modulus_symmetric_in_arguments():
    assert modulus_k(0.3, 0.7, 1.1) == pytest.approx(modulus_k(1.1, 0.3, 0.7), rel=1e-14)


# large stars, stars with a small coupling, where a difference of ln cosh
# cancels, and log-uniform random stars in [1e-8, 300]^3
EXTREME_STARS = [(20.0, 20.0, 20.0), (150.0, 150.0, 150.0), (100.0, 100.0, 0.01),
                 (1e-8, 1e-8, 1e-8), (1e-5, 1e-5, 3.0), (50.0, 0.1, 0.1),
                 (7.494e-07, 0.05063, 0.0007864), (7.617e-05, 5.23e-05, 1.916),
                 (30.43, 7.214e-07, 0.06907), (1.335e-05, 135.2, 43.39),
                 (0.04593, 0.77, 0.002496)]


@pytest.mark.parametrize("ls", EXTREME_STARS)
def test_star_triangle_at_large_couplings(ls):
    # sinh 2K sinh 2L and R^2 are past the float range or lose the modulus
    # to cancellation; the map checks both in log form
    m = star_to_triangle(*ls)
    for ka, lb in zip(m.K, ls):
        log_sinh = [2.0 * x + math.log(-math.expm1(-4.0 * x)) - math.log(2.0) for x in (ka, lb)]
        assert sum(log_sinh) == pytest.approx(-math.log(m.k_modulus), rel=1e-10)
    assert m.k_modulus == pytest.approx(modulus_k(*m.K), rel=0, abs=0)


@pytest.mark.parametrize("ls", EXTREME_STARS)
def test_star_triangle_against_high_precision(ls):
    # K on the edge (a, b) opposite c: e^{4K} = cosh(L_a + L_b + L_c)
    # cosh(L_a + L_b - L_c) / (cosh(L_a - L_b + L_c) cosh(L_a - L_b - L_c))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(800):
        l1, l2, l3 = (mpmath.mpf(x) for x in ls)
        for got, (la, lb, lc) in zip(star_to_triangle(*ls).K, [(l2, l3, l1), (l3, l1, l2), (l1, l2, l3)]):
            want = mpmath.log(mpmath.cosh(la + lb + lc) * mpmath.cosh(la + lb - lc)
                              / (mpmath.cosh(la - lb + lc) * mpmath.cosh(la - lb - lc))) / 4
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_star_triangle_past_the_float_range_is_refused():
    # k = 4 e^{-1200} underflows
    with pytest.raises(DomainError):
        star_to_triangle(400.0, 400.0, 400.0)
    # K3 underflows to 0; 2 L3 overflows, so K3 is nan
    for star in ((1.0, 1.0, 1e200), (1.0, 1.0, 1e308)):
        with pytest.raises(DomainError, match="float range"):
            star_to_triangle(*star)


@pytest.mark.parametrize("ks", [(10.0, 10.0, 10.0), (15.0, 0.3, 0.3), (0.3, 0.7, 1.1),
                                (30.0, 30.0, 1e-3), (1e-5, 0.3, 0.2)])
def test_modulus_against_high_precision(ks):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        v = [mpmath.tanh(mpmath.mpf(x)) for x in ks]
        want = (mpmath.fprod(1 - t * t for t in v)
                / (4 * mpmath.sqrt((1 + v[0] * v[1] * v[2]) * (v[0] + v[1] * v[2])
                                   * (v[1] + v[0] * v[2]) * (v[2] + v[0] * v[1]))))
        assert modulus_k(*ks) == pytest.approx(float(want), rel=1e-14, abs=0.0)


def test_partition_functions_related_by_scale_factor():
    # decimating the 9 star centers of the 18-site wrapped honeycomb cell
    # leaves a 3x3 triangular torus, up to R per star
    l1, l2, l3 = 0.7, 0.9, 1.1
    m = star_to_triangle(l1, l2, l3)
    k1, k2, k3 = m.K
    hspec = LatticeSpec(3, 3, geometry="honeycomb", boundary="torus")
    lzh = enumerate_partition_graph(
        build_lattice_graph(hspec, ReducedCouplings(k_h=l1, k_v=l2, k_d=l3)))
    tspec = LatticeSpec(3, 3, geometry="triangular", boundary="torus")
    lzt = enumerate_partition_graph(
        build_lattice_graph(tspec, ReducedCouplings(k_h=k3, k_v=k1, k_d=k2)))
    assert lzh == pytest.approx(9 * math.log(m.R) + lzt, rel=1e-12)


# ------------------------------------------------------------ correlation

_UPPER_INF = 45.0   # the x-space integrands decay like e^{-x}


def reference_integral_a(k_arg, k):
    """A(K, k) by adaptive quadrature in the original variable x."""
    upper = _UPPER_INF if math.isinf(k_arg) else 2.0 * k_arg
    val, _ = quad(lambda x: 1.0 / math.sqrt(1.0 + (k * math.sinh(x)) ** 2),
                  0.0, upper, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def reference_integral_b(k_arg, k):
    """B(K, k) by adaptive quadrature in the original variable x."""
    upper = _UPPER_INF if math.isinf(k_arg) else 2.0 * k_arg
    val, _ = quad(lambda x: math.tanh(x) ** 2 / math.sqrt(1.0 + (k * math.sinh(x)) ** 2),
                  0.0, upper, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


@pytest.mark.parametrize("k", [0.01, 0.1, 0.5, 0.999, 1.001, 2.2, 33.0, 100.0])
@pytest.mark.parametrize("k_arg", [0.05, K_CRIT, 0.9, 22.0, math.inf])
def test_integrals_match_adaptive_quadrature(k_arg, k):
    assert integral_a(k_arg, k) == pytest.approx(reference_integral_a(k_arg, k), rel=1e-11)
    assert integral_b(k_arg, k) == pytest.approx(reference_integral_b(k_arg, k), rel=1e-11)


@pytest.mark.parametrize("k_arg,k", [(1e-5, 2.5e9), (1e-3, 2.5e5)])
def test_integrals_past_the_knee_at_large_modulus(k_arg, k):
    # the kernel falls from 1 to ~1/(k alpha) within alpha ~ 1/k of the origin
    phi = 2.0 * math.atan(math.tanh(k_arg))

    def reference(weight):
        val, _ = quad(lambda t: weight(t) / math.sqrt(math.cos(t) ** 2 + (k * math.sin(t)) ** 2),
                      0.0, phi, points=[1.0 / k, 10.0 / k, 100.0 / k], epsabs=0.0,
                      epsrel=1e-13, limit=400)
        return val

    assert integral_a(k_arg, k) == pytest.approx(reference(lambda t: 1.0), rel=1e-12, abs=0.0)
    assert integral_b(k_arg, k) == pytest.approx(reference(lambda t: math.sin(t) ** 2),
                                                 rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k_arg", [0.3, 3.0])
def test_integrals_where_the_squared_modulus_overflows(k_arg):
    # k^2 is past the float range: A = F(phi | 1 - k^2) and
    # B = (F - E)(phi | 1 - k^2) / (1 - k^2), incomplete elliptic integrals
    mpmath = pytest.importorskip("mpmath")
    k = 1e200
    with mpmath.workdps(50):
        phi = mpmath.atan(mpmath.sinh(2 * mpmath.mpf(k_arg)))
        m = 1 - mpmath.mpf(k) ** 2
        f, e = mpmath.ellipf(phi, m), mpmath.ellipe(phi, m)
        want_a, want_b = float(f), float((f - e) / m)
    assert integral_a(k_arg, k) == pytest.approx(want_a, rel=1e-12, abs=0.0)
    assert integral_b(k_arg, k) == pytest.approx(want_b, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k_arg", [4.0, 6.0, 12.0])
def test_integrals_at_low_temperature(k_arg):
    # with the energy's own modulus, phi = pi/2 - 2 arctan(e^{-2K}) nears the
    # kernel's near-singularity at pi/2: integrate in beta = pi/2 - alpha from
    # beta_0 = 2 arctan(e^{-2K}), with break points graded from it
    k = 1.0 / math.sinh(2.0 * k_arg) ** 2
    beta_0 = 2.0 * math.atan(math.exp(-2.0 * k_arg))
    edges = [beta_0 * 10.0 ** j for j in range(40) if beta_0 * 10.0 ** j < 0.5 * math.pi]

    def reference(weight):
        return math.fsum(quad(lambda t: weight(t) / math.hypot(math.sin(t), k * math.cos(t)),
                              lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(edges, edges[1:] + [0.5 * math.pi]))

    assert integral_a(k_arg, k) == pytest.approx(reference(lambda t: 1.0), rel=1e-12, abs=0.0)
    assert integral_b(k_arg, k) == pytest.approx(reference(lambda t: math.cos(t) ** 2),
                                                 rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [1e-8, 0.3, 3.0, 50.0, 1e4, 1e8])
@pytest.mark.parametrize("k_arg", [0.05, 0.3, 0.6, 4.0, 12.0, 50.0])
def test_integrals_and_correlation_against_mpmath(k_arg, k):
    # A = F(phi | 1 - k^2) and B = (F - E)(phi | 1 - k^2) / (1 - k^2); the
    # bounds are the worst case measured on this grid, 3.5e-15 (B at K = 0.3,
    # k = 1e-8) and 8.9e-16 (f at K = 12, k = 1e-8).  Panels two decades wide
    # past the knee were 4.7e-14 off.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        big_k, mod = mpmath.mpf(k_arg), mpmath.mpf(k)
        phi = mpmath.atan(mpmath.sinh(2 * big_k))
        m = 1 - mod ** 2
        f, e = mpmath.ellipf(phi, m), mpmath.ellipe(phi, m)
        want_a, want_b = f, (f - e) / m
        if k < 1.0:
            a = 2 / mpmath.pi * mpmath.ellipe(mod ** 2)
            b = 2 / mpmath.pi * m * mpmath.ellipk(mod ** 2)
        else:
            l2 = 1 / mod ** 2
            a = 2 * mod / mpmath.pi * (mpmath.ellipe(l2) - (1 - l2) * mpmath.ellipk(l2))
            b = -2 * mod / mpmath.pi * (1 - l2) * mpmath.ellipk(l2)
        want_f = a * want_a - b * want_b
    assert integral_a(k_arg, k) == pytest.approx(float(want_a), rel=4e-15, abs=0.0)
    assert integral_b(k_arg, k) == pytest.approx(float(want_b), rel=4e-15, abs=0.0)
    assert correlation_f(k_arg, k) == pytest.approx(float(want_f), rel=1e-15, abs=0.0)


def test_integrals_at_zero_modulus_past_the_float_range():
    # A(K, 0) = 2K, but pi/2 - phi = 2 arctan(e^{-2K}) underflows past K ~ 372
    assert integral_a(300.0, 0.0) == pytest.approx(600.0, rel=1e-13)
    assert integral_b(300.0, 0.0) == pytest.approx(599.0, rel=1e-13)
    with pytest.raises(DomainError):
        integral_a(400.0, 0.0)
    assert correlation_f(400.0, 0.0) == 1.0


@pytest.mark.parametrize("k", [0.2, 0.5, 0.8, 1.5, 2.2])
def test_infinite_argument_normalization(k):
    a, b = ab_coefficients(k)
    assert a * integral_a(math.inf, k) - b * integral_b(math.inf, k) == pytest.approx(
        1.0, abs=1e-9)


def test_infinite_integrals_reduce_to_elliptic():
    for k in (0.2, 0.5, 0.8):
        kp = math.sqrt(1 - k * k)
        ep = complete_elliptic(kp)
        assert integral_a(math.inf, k) == pytest.approx(ep.K_val, abs=1e-10)
        assert integral_b(math.inf, k) == pytest.approx(
            (ep.K_val - ep.E_val) / (kp * kp), abs=1e-10)


def test_correlation_limits_and_monotonicity():
    for k in (0.5, 2.0):
        xs = [0.0, 0.2, 0.5, 1.0, 3.0, math.inf]
        vals = [correlation_f(x, k) for x in xs]
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert all(a < b for a, b in zip(vals, vals[1:]))
    # K = 0 is the rule on the empty panel [0, 0], on both sides of k = 1
    for k in (1e-8, 3.0, 1e200):
        f = correlation_f(0.0, k)
        assert f == 0.0 and math.copysign(1.0, f) == 1.0


def test_critical_modulus_is_flagged():
    with pytest.raises(DomainError):
        ab_coefficients(1.0)


def test_b_coefficient_asymptotics():
    for k in (0.999, 1.001):
        _, b = ab_coefficients(k)
        assert b == pytest.approx(b_near_critical(k), rel=5e-3)


@pytest.mark.parametrize("l", [1e-5, 1e-3, 0.17, 0.6])
def test_high_temperature_coefficient_does_not_cancel(l):
    # a = (2/pi) D / l with D = E(l) - (1 - l^2) K(l)
    #   = l^2 int_0^{pi/2} cos^2 t / sqrt(1 - l^2 sin^2 t) dt, which does not cancel
    k = 1.0 / l
    a, _ = ab_coefficients(k)
    want, _ = quad(lambda t: math.cos(t) ** 2 / math.sqrt(1.0 - (l * math.sin(t)) ** 2),
                   0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1.5e-14)
    l = 1.0 / k
    assert 0.5 * math.pi * a * l == pytest.approx(l * l * want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("k_c", [0.3, 0.55])
def test_energy_against_quadrature_derivative(k_c):
    assert square_lattice_energy(k_c, k_c) == pytest.approx(
        internal_energy(k_c), abs=1e-4)


ONSAGER_KS = [0.05, 0.1, 0.2, 0.3, 0.4, K_CRIT - 1e-3, K_CRIT + 1e-3, 0.5, 0.6, 0.8, 1.0, 1.5,
              2.0, 3.0, 6.0, 12.0, 30.0, 100.0]


@pytest.mark.parametrize("k", ONSAGER_KS)
def test_energy_against_onsager_closed_form(k):
    # u = coth 2K [1 + (2/pi)(2 tanh^2 2K - 1) K(kappa)], kappa = 2 sinh 2K / cosh^2 2K
    # (Onsager 1944); scipy's ellipk takes the parameter kappa^2
    kappa = 2.0 * math.sinh(2.0 * k) / math.cosh(2.0 * k) ** 2
    want = (1.0 + 2.0 / math.pi * (2.0 * math.tanh(2.0 * k) ** 2 - 1.0) * ellipk(kappa * kappa)) \
        / math.tanh(2.0 * k)
    assert square_lattice_energy(k, k) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_energy_at_large_coupling():
    # the modulus underflows to 0, or A and B both grow like 2K, and u -> 2
    # (both bonds of a site ordered)
    for k_h, k_v in ((400.0, 400.0), (400.0, 250.0), (1e5, 0.9), (30.0, 30.0), (100.0, 100.0),
                     (180.0, 180.0)):
        assert square_lattice_energy(k_h, k_v) == pytest.approx(2.0, rel=1e-14, abs=0.0)


def test_energy_at_tiny_couplings():
    # k = 1 / (sinh 2K sinh 2L): k^2 is past the float range at both points
    for k_h, k_v in ((1e-300, 1e-300), (1e-200, 0.3)):
        with pytest.raises(DomainError, match="float range"):
            square_lattice_energy(k_h, k_v)
    # high-temperature series u = 2v + 4v^3 (1 - v^2) + O(v^5), v = tanh K
    v = math.tanh(1e-8)
    assert square_lattice_energy(1e-8, 1e-8) == pytest.approx(
        2.0 * v + 4.0 * v ** 3 * (1.0 - v * v), rel=1e-15, abs=0.0)
    # at K = 1e-5 the modulus is 2.5e9, and A needs the knee at 1/k resolved
    v = math.tanh(1e-5)
    assert square_lattice_energy(1e-5, 1e-5) == pytest.approx(
        2.0 * v + 4.0 * v ** 3 * (1.0 - v * v), rel=1e-13, abs=0.0)
