"""End-to-end acceptance gates.

Each test covers one release criterion and prints a single PASS/FAIL line
(on the real stdout, so it survives pytest's capture) with its wall time.
"""

import itertools
import math
import sys
import time

import conftest
import numpy as np

from isingexact import (
    K_CRIT,
    ChainParams,
    LatticeSpec,
    MatchingWeights,
    QuadratureSpec,
    ReducedCouplings,
    ab_coefficients,
    build_lattice_graph,
    complete_elliptic,
    count_matchings,
    count_matchings_dp,
    critical_point_square,
    dimer_count_free,
    dirac_free_energy,
    enumerate_partition_graph,
    fermionic_free_energy,
    gamma_spectrum,
    induction_closed,
    internal_energy,
    ising_pfaffian_torus,
    kacward_log_z,
    kaufman_partition,
    log_z_torus,
    onsager_free_energy,
    pfaffian,
    recursive_open,
    square_lattice_energy,
    star_to_triangle,
    transfer_closed,
)
from isingexact.pfaffian import dimer_count_free as dimer_count_free_pf
from isingexact.startriangle import integral_a, integral_b, landen_descending


class _Gate:
    """Context manager printing `criterion N (<name>): PASS|FAIL [t]`."""

    def __init__(self, num, name, budget_s=None):
        self.num, self.name, self.budget = num, name, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"criterion {self.num} ({self.name}): {verdict} [{dt:.2f}s]"
        print(line, file=sys.__stdout__, flush=True)
        conftest.record_criterion(line)
        if exc_type is None and self.budget is not None:
            assert dt < self.budget, f"runtime {dt:.1f}s exceeds {self.budget}s budget"
        return False


def _oracle_torus(m, n, kh, kv):
    g = build_lattice_graph(LatticeSpec(m, n), ReducedCouplings(k_h=kh, k_v=kv))
    return enumerate_partition_graph(g)


def test_criterion_1_cross_method_exactness():
    iso = (0.2, 0.44068679, 0.9, K_CRIT * (1.0 - 1e-6), K_CRIT * (1.0 + 1e-6))
    couplings = [(k, k) for k in iso] + list(itertools.combinations(iso, 2))
    shapes = [(m, n) for m in range(2, 5) for n in range(m, 13) if m * n <= 24]
    with _Gate(1, "cross-method log Z agreement", budget_s=60):
        for (m, n), (kh, kv) in itertools.product(shapes, couplings):
            ref = _oracle_torus(m, n, kh, kv)
            others = (
                log_z_torus(m, n, kh, kv),
                kaufman_partition(m, n, kv, kh),
                ising_pfaffian_torus(m, n, kh, kv),
                kacward_log_z(m, n, kh, kv),
            )
            for val in others:
                assert abs(val - ref) / abs(ref) < 1e-8, (m, n, kh, kv, val, ref)


def test_criterion_2_dimer_counts():
    cases = {(2, 2): 2, (2, 3): 3, (4, 4): 36, (8, 8): 12988816}
    with _Gate(2, "dimer count triple agreement", budget_s=5):
        w = MatchingWeights()
        for (m, n), want in cases.items():
            assert round(dimer_count_free(m, n, w)) == want          # product
            assert round(dimer_count_free_pf(m, n, w)) == want       # pfaffian
            if m * n <= 36:
                assert round(count_matchings(m, n, w)) == want       # backtracking
            else:
                assert round(count_matchings_dp(m, n)) == want       # profile DP


def test_criterion_3_critical_point():
    with _Gate(3, "critical coupling"):
        kc = critical_point_square()
        assert f"{kc:.10f}" == "0.4406867935"
        assert abs(kc - K_CRIT) < 1e-12
        assert abs(math.tanh(kc) - (math.sqrt(2.0) - 1.0)) < 1e-14


def test_criterion_4_thermodynamic_limit_consistency():
    with _Gate(4, "limit integrals + finite-size approach", budget_s=30):
        for k in (0.2, 0.3, 0.6, 0.9):
            f0 = onsager_free_energy(k, k)
            assert abs(fermionic_free_energy(k) - f0) < 1e-8
            assert abs(dirac_free_energy(k) - f0) < 1e-8
        fc = onsager_free_energy(K_CRIT, K_CRIT)
        assert abs(fermionic_free_energy(K_CRIT) - fc) < 1e-6
        assert abs(dirac_free_energy(K_CRIT) - fc) < 1e-6
        for k in (0.3, 0.6):
            per_site = kaufman_partition(128, 128, k, k) / 128 ** 2
            assert abs(per_site - onsager_free_energy(k, k)) < 1e-4


def test_criterion_5_star_triangle_end_to_end():
    with _Gate(5, "star-triangle partition identity"):
        l1, l2, l3 = 0.7, 0.9, 1.1
        mapping = star_to_triangle(l1, l2, l3)
        k1, k2, k3 = mapping.K
        hspec = LatticeSpec(3, 3, geometry="honeycomb", boundary="torus")
        lzh = enumerate_partition_graph(
            build_lattice_graph(hspec, ReducedCouplings(k_h=l1, k_v=l2, k_d=l3)))
        tspec = LatticeSpec(3, 3, geometry="triangular", boundary="torus")
        lzt = enumerate_partition_graph(
            build_lattice_graph(tspec, ReducedCouplings(k_h=k3, k_v=k1, k_d=k2)))
        assert abs(lzh - (9 * math.log(mapping.R) + lzt)) / abs(lzh) < 1e-9

        rng = np.random.default_rng(2024)
        for _ in range(100):
            ls = rng.uniform(0.2, 1.4, size=3)
            m = star_to_triangle(*ls)
            for ka, lb in zip(m.K, ls):
                assert abs(math.sinh(2 * ka) * math.sinh(2 * lb) * m.k_modulus - 1.0) < 1e-10
            r2 = 2 * m.k_modulus * math.prod(math.sinh(2 * l) for l in ls)
            assert abs(m.R ** 2 / r2 - 1.0) < 1e-10


def test_criterion_6_elliptic_machinery():
    with _Gate(6, "elliptic identities"):
        for k in (0.3, 0.6, 0.9):
            kp = math.sqrt(1 - k * k)
            a, b = complete_elliptic(k), complete_elliptic(kp)
            legendre = a.E_val * b.K_val + b.E_val * a.K_val - a.K_val * b.K_val
            assert abs(legendre - math.pi / 2) < 1e-12
            k1 = landen_descending(k)
            e1 = complete_elliptic(k1)
            assert abs(a.K_val - e1.K_val / (1 + k)) < 1e-12
            assert abs(a.E_val - (e1.E_val * (1 + k) / 2 + (1 - k) * e1.K_val / 2)) < 1e-12
        for k in (0.2, 0.5, 0.8):
            a, b = ab_coefficients(k)
            norm = a * integral_a(math.inf, k) - b * integral_b(math.inf, k)
            assert abs(norm - 1.0) < 1e-9


def test_criterion_7_internal_energy_cross_check():
    with _Gate(7, "correlation-route internal energy"):
        for k in (0.3, 0.55):
            assert abs(square_lattice_energy(k, k) - internal_energy(k)) < 1e-4


def test_criterion_8_one_dimensional_triple_agreement():
    with _Gate(8, "1D method agreement"):
        k_grid = (0.05, 0.3, 0.8, 1.5)
        h_grid = (0.0, 0.1, 0.7, -0.4)
        for n in range(2, 21):
            for k, h in itertools.product(k_grid, h_grid):
                gc = build_lattice_graph(
                    LatticeSpec(1, n, geometry="chain", boundary="torus"),
                    ReducedCouplings(k_h=k, k_v=0.0))
                ref_closed = enumerate_partition_graph(gc, h=h)
                pc = ChainParams(n_spins=n, k=k, h=h, closed=True)
                assert abs(transfer_closed(pc) - ref_closed) < 1e-11
                assert abs(induction_closed(pc) - ref_closed) < 1e-11
                go = build_lattice_graph(
                    LatticeSpec(1, n, geometry="chain", boundary="free"),
                    ReducedCouplings(k_h=k, k_v=0.0))
                ref_open = enumerate_partition_graph(go, h=h)
                po = ChainParams(n_spins=n, k=k, h=h, closed=False)
                assert abs(recursive_open(po) - ref_open) < 1e-11
        # zero-field open chain: ln Z = S ln 2 + (S-1) ln cosh K exactly
        for n, k in itertools.product((2, 7, 20), k_grid):
            want = n * math.log(2.0) + (n - 1) * math.log(math.cosh(k))
            got = recursive_open(ChainParams(n_spins=n, k=k, h=0.0, closed=False))
            assert abs(got - want) < 1e-13


def test_criterion_9_property_suites():
    with _Gate(9, "structural property suites"):
        rng = np.random.default_rng(777)
        for dim in range(2, 65, 2):
            a = rng.normal(size=(dim, dim))
            a = a - a.T
            sign, log_mag = pfaffian(a)
            assert abs(2 * log_mag - np.linalg.slogdet(a)[1]) < 1e-8 * max(1, abs(log_mag))
            assert sign in (-1, 1)
        for n, kt, ks in [(4, 0.3, 0.5), (7, 0.9, 0.2), (10, 0.44, 0.44)]:
            g = gamma_spectrum(n, kt, ks)
            for k in range(1, n):
                assert abs(g[k] - g[2 * n - k]) < 1e-12 * max(1.0, g[k])
        for (m, n, a_, b_) in [(3, 4, 0.3, 0.7), (2, 6, 0.9, 0.2), (5, 5, 0.5, 0.6)]:
            lhs = kaufman_partition(m, n, a_, b_)
            rhs = kaufman_partition(n, m, b_, a_)
            assert abs(lhs - rhs) / abs(lhs) < 1e-12
        for k in (0.2, 0.3, 0.7, 0.9):
            f1 = onsager_free_energy(k, k, QuadratureSpec(points_per_axis=256))
            f2 = onsager_free_energy(k, k, QuadratureSpec(points_per_axis=512))
            assert abs(f1 - f2) < 1e-9
