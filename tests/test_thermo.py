import itertools
import math

import numpy as np
import pytest

from isingexact.core import CapacityError, DomainError, K_CRIT
from isingexact.spectral import kaufman_partition
from isingexact.thermo import (
    MAX_POINTS,
    QuadratureSpec,
    critical_point_square,
    dirac_free_energy,
    fermionic_free_energy,
    internal_energy,
    onsager_free_energy,
    specific_heat,
    triangular_free_energy,
)

# -beta f at K_CRIT: (1/2) ln 2 + 2G/pi, G Catalan's constant
CRITICAL_FREE_ENERGY = 0.5 * math.log(2.0) + 2.0 * 0.91596559417721901505 / math.pi


def _mean_log_bracket(points, bracket):
    """Reference rule: the mean of ln bracket(w1, w2) on the N x N midpoint
    grid over [0, 2pi)^2, with no inner integral closed."""
    w = 2.0 * np.pi * (np.arange(points) + 0.5) / points
    return float(np.mean(np.log(bracket(w[:, None], w[None, :]))))


def _reference_free_energies(k1, k2, k3, points=256):
    """The four free-energy forms on the 2D grid: (onsager(k1, k2),
    fermionic(k1), dirac(k1), triangular(k1, k2, k3))."""
    c = math.cosh(2 * k1) * math.cosh(2 * k2)
    s1, s2 = math.sinh(2 * k1), math.sinh(2 * k2)
    onsager = math.log(2.0) + 0.5 * _mean_log_bracket(
        points, lambda w1, w2: c - s1 * np.cos(w1) - s2 * np.cos(w2))
    z = math.tanh(k1)
    a, b = (1.0 + z * z) ** 2, 2.0 * z * (1.0 - z * z)
    fermionic = math.log(2.0) + 2.0 * math.log(math.cosh(k1)) + 0.5 * _mean_log_bracket(
        points, lambda p, r: a + b * (np.cos(p) + np.cos(r)))
    dirac = math.log(2.0) - math.log1p(-z * z) + 0.5 * _mean_log_bracket(
        points, lambda p, r: a - b * (np.cos(p) + np.cos(r)))
    c3 = c * math.cosh(2 * k3) + s1 * s2 * math.sinh(2 * k3)
    s3 = math.sinh(2 * k3)
    triangular = math.log(2.0) + 0.5 * _mean_log_bracket(
        points, lambda w1, w2: c3 - s1 * np.cos(w1) - s2 * np.cos(w2) - s3 * np.cos(w1 + w2))
    return onsager, fermionic, dirac, triangular


# away from both critical manifolds, where the 256 x 256 grid has converged
@pytest.mark.parametrize("k1,k2,k3", [(0.2, 0.2, 0.2), (0.2, 0.4, 0.05), (0.6, 0.35, 0.25),
                                      (0.9, 0.7, 0.4), (1.2, 0.15, 0.6), (0.35, 0.35, 0.0)])
def test_one_dimensional_forms_match_the_2d_grid(k1, k2, k3):
    onsager, fermionic, dirac, triangular = _reference_free_energies(k1, k2, k3)
    assert abs(onsager_free_energy(k1, k2) - onsager) < 1e-13
    assert abs(fermionic_free_energy(k1) - fermionic) < 1e-13
    assert abs(dirac_free_energy(k1) - dirac) < 1e-13
    assert abs(triangular_free_energy(k1, k2, k3) - triangular) < 1e-13


def test_critical_free_energy_anchor():
    q = QuadratureSpec(points_per_axis=MAX_POINTS)
    for f in (onsager_free_energy(K_CRIT, K_CRIT, q), fermionic_free_energy(K_CRIT, q),
              dirac_free_energy(K_CRIT, q)):
        assert abs(f - CRITICAL_FREE_ENERGY) < 2e-8


def test_large_couplings_stay_finite():
    # -beta f -> k1 + k2 (k1 + k2 + k3 on the triangular lattice) as k grows
    assert onsager_free_energy(400.0, 400.0) == pytest.approx(800.0, rel=1e-15)
    assert fermionic_free_energy(400.0) == pytest.approx(800.0, rel=1e-15)
    assert dirac_free_energy(400.0) == pytest.approx(800.0, rel=1e-15)
    assert triangular_free_energy(400.0, 400.0, 400.0) == pytest.approx(1200.0, rel=1e-15)
    assert onsager_free_energy(400.0, 0.3) == pytest.approx(400.3, rel=1e-15)


def test_free_energy_past_the_float_range_is_refused():
    # -beta f -> k1 + k2 overflows; a single 1e308 coupling stays finite
    assert onsager_free_energy(1e308, 0.3) == pytest.approx(1e308, rel=1e-15)
    for f in (lambda: onsager_free_energy(1e308, 1e308), lambda: fermionic_free_energy(1e308),
              lambda: dirac_free_energy(1e308), lambda: triangular_free_energy(1e308, 1e308, 0.3)):
        with pytest.raises(DomainError, match="float range"):
            f()


def test_triangular_is_symmetric_in_its_couplings():
    values = {triangular_free_energy(*ks) for ks in itertools.permutations((0.2, 0.5, 0.9))}
    assert len(values) == 1


# frozen by an independent high-resolution run (4096 points per axis)
ONSAGER_REFERENCE = {
    0.2: 0.73453081227632633,
    0.3: 0.79055907095126265,
    0.6: 1.2101323882884123,
    0.9: 1.8007900930167553,
}


@pytest.mark.parametrize("k,want", sorted(ONSAGER_REFERENCE.items()))
def test_onsager_regression_values(k, want):
    assert onsager_free_energy(k, k) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("k", [0.2, 0.3, 0.6, 0.9])
def test_three_integral_forms_agree(k):
    f0 = onsager_free_energy(k, k)
    assert fermionic_free_energy(k) == pytest.approx(f0, abs=1e-10)
    assert dirac_free_energy(k) == pytest.approx(f0, abs=1e-10)


def test_three_forms_agree_at_criticality():
    f0 = onsager_free_energy(K_CRIT, K_CRIT)
    assert fermionic_free_energy(K_CRIT) == pytest.approx(f0, abs=1e-8)
    assert dirac_free_energy(K_CRIT) == pytest.approx(f0, abs=1e-8)


def test_quadrature_self_convergence_off_critical():
    for k in (0.2, 0.3, 0.7):
        a = onsager_free_energy(k, k, QuadratureSpec(points_per_axis=256))
        b = onsager_free_energy(k, k, QuadratureSpec(points_per_axis=512))
        assert abs(a - b) < 1e-9


def test_quadrature_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(points_per_axis=8)
    assert QuadratureSpec(points_per_axis=MAX_POINTS).points_per_axis == MAX_POINTS
    with pytest.raises(CapacityError):
        QuadratureSpec(points_per_axis=MAX_POINTS + 1)


def test_anisotropic_symmetry():
    assert onsager_free_energy(0.3, 0.8) == pytest.approx(
        onsager_free_energy(0.8, 0.3), rel=1e-15)


def test_triangular_reduces_to_square():
    assert triangular_free_energy(0.3, 0.5, 0.0) == pytest.approx(
        onsager_free_energy(0.3, 0.5), abs=1e-12)


def test_zero_coupling_entropy():
    # the bracket is 4 with zero slopes, so the rule gives ln 2 bitwise
    for points in (16, 17, 256):
        q = QuadratureSpec(points_per_axis=points)
        assert triangular_free_energy(0.0, 0.0, 0.0, q) == math.log(2.0)


def test_finite_lattice_density_approaches_integral():
    for k in (0.3, 0.6):
        per_site = kaufman_partition(128, 128, k, k) / 128 ** 2
        assert per_site == pytest.approx(onsager_free_energy(k, k), abs=1e-4)


def test_critical_point_value():
    kc = critical_point_square()
    assert kc == pytest.approx(K_CRIT, abs=1e-14)
    assert math.sinh(2 * kc) == pytest.approx(1.0, abs=1e-13)


def test_internal_energy_continuous_through_transition():
    below = internal_energy(K_CRIT - 1e-3)
    above = internal_energy(K_CRIT + 1e-3)
    assert abs(above - below) < 5e-2


def test_internal_energy_known_value_at_criticality():
    # u = coth(2 K_c) = sqrt(2) per site in these units (f' of the isotropic lattice)
    want = 1.0 / math.tanh(2.0 * K_CRIT)
    assert internal_energy(K_CRIT) == pytest.approx(want, abs=1e-4)


def test_specific_heat_grows_logarithmically():
    q = QuadratureSpec(points_per_axis=1024)
    c_far = specific_heat(K_CRIT - 1e-2, q=q)
    c_near = specific_heat(K_CRIT - 1e-3, q=q)
    c_nearer = specific_heat(K_CRIT - 1e-4, dk=1e-5, q=q)
    assert c_nearer > c_near > c_far > 0
    # logarithmic, not power-law: another decade adds only O(1)
    assert c_nearer - c_near < 2.0 * (c_near - c_far)


def test_domain_validation():
    with pytest.raises(DomainError):
        onsager_free_energy(-0.1, 0.3)
    with pytest.raises(DomainError):
        fermionic_free_energy(0.0)
    with pytest.raises(DomainError):
        internal_energy(1e-5)
