import importlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isingexact.chain1d import ChainParams, induction_closed, recursive_open, transfer_closed
from isingexact.core import (
    K_CRIT,
    CapacityError,
    DomainError,
    LatticeSpec,
    MethodResult,
    ReducedCouplings,
    SelfCheckError,
    dual_coupling,
    log_cosh,
    log_sum,
)
from isingexact.oracle import (MatchingWeights, WeightedGraph, build_lattice_graph,
                               count_matchings, count_matchings_dp, count_matchings_graph,
                               enumerate_partition_graph, hafnian)
from isingexact.pfaffian import (build_dimer_matrix, dimer_count_free as dimer_count_free_pf,
                                 dimer_count_torus, ising_pfaffian_torus, pfaffian)
from isingexact.spectral import (GridParity, dimer_count_free as dimer_count_free_product,
                                 gamma_spectrum, kacward_log_z, kacward_products,
                                 kaufman_partition, triangular_log_z_per_site)
from isingexact.startriangle import (ab_coefficients, b_near_critical, correlation_f,
                                     integral_a, landen_descending, modulus_k,
                                     square_lattice_energy, star_to_triangle)
from isingexact.thermo import (dirac_free_energy, internal_energy, onsager_free_energy,
                               specific_heat)
from isingexact.transfer2d import build_transfer, log_z_torus, partition_torus_transfer

# the package re-exports pfaffian() under the module's name
pfaffian_module = importlib.import_module("isingexact.pfaffian")
startriangle_module = importlib.import_module("isingexact.startriangle")


def test_critical_coupling_identities():
    assert math.sinh(2.0 * K_CRIT) == pytest.approx(1.0, abs=1e-15)
    assert math.tanh(K_CRIT) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)
    assert K_CRIT == pytest.approx(0.5 * math.log(1.0 + math.sqrt(2.0)), abs=0)


@given(st.floats(min_value=0.02, max_value=5.0, allow_nan=False))
def test_dual_is_an_involution(k):
    assert dual_coupling(dual_coupling(k)) == pytest.approx(k, rel=1e-12)


def test_dual_is_an_involution_from_tiny_to_large_couplings():
    for k in [10.0 ** e for e in range(-300, 3)] + [0.02 * 1.25 ** i for i in range(40)]:
        assert dual_coupling(dual_coupling(k)) == pytest.approx(k, rel=1e-14)


def test_dual_of_a_tiny_coupling():
    # -(1/2) ln tanh k -> (1/2) ln(1/k) as k -> 0; the artanh form hit artanh(1.0)
    assert dual_coupling(1e-300) == pytest.approx(0.5 * math.log(1e300), rel=1e-15)
    assert dual_coupling(1e3) == 0.0          # e^{-2000} underflows, nothing overflows


@given(st.floats(min_value=0.02, max_value=5.0))
def test_dual_product_identity(k):
    assert math.sinh(2 * k) * math.sinh(2 * dual_coupling(k)) == pytest.approx(1.0, rel=1e-12)


def test_dual_fixed_point_and_monotonicity():
    assert dual_coupling(K_CRIT) == pytest.approx(K_CRIT, abs=1e-15)
    ks = [0.1, 0.3, K_CRIT, 0.7, 1.5]
    duals = [dual_coupling(k) for k in ks]
    assert duals == sorted(duals, reverse=True)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_dual_rejects_out_of_domain(bad):
    with pytest.raises(DomainError):
        dual_coupling(bad)


def test_log_sum_basic():
    assert log_sum([math.log(3.0), math.log(1.0)]) == pytest.approx(math.log(4.0))
    # a signed sum: 3 - 1 = 2
    assert log_sum([math.log(1.0), math.log(3.0)], [-1.0, 1.0]) == pytest.approx(math.log(2.0))
    # weights other than +-1 scale their terms
    assert log_sum([0.0, 0.0], [0.5, 2.0]) == pytest.approx(math.log(2.5))


def test_log_sum_degenerate_cases():
    assert log_sum([]) == -math.inf
    assert log_sum([0.0, 0.0], [1.0, -1.0]) == -math.inf
    # a zero weight drops its term, whatever its log
    assert log_sum([0.5, 0.0], [0.0, 1.0]) == 0.0
    assert log_sum([math.inf, 0.0], [0.0, 1.0]) == 0.0
    assert log_sum([-math.inf, -math.inf]) == -math.inf
    # a -inf term contributes nothing
    assert log_sum([-math.inf, 1.5], [-1.0, 1.0]) == 1.5


def test_log_sum_refuses_a_negative_sum():
    with pytest.raises(DomainError, match="the test sum lost positivity"):
        log_sum([math.log(1.0), math.log(3.0)], [1.0, -1.0], "the test sum")


@pytest.mark.parametrize("top", [math.inf, math.nan])
def test_log_sum_passes_a_non_finite_top_through(top):
    # returned as is, for finite() to judge
    got = log_sum([0.0, top], [1.0, -1.0])
    assert got == top or (math.isnan(top) and math.isnan(got))


@given(st.lists(st.tuples(st.floats(min_value=-40.0, max_value=40.0),
                          st.floats(min_value=-4.0, max_value=4.0)),
                min_size=1, max_size=12))
def test_log_sum_matches_an_exact_sum(pairs):
    # against math.fsum of the same shifted terms: the answer is within the
    # rounding of an n-term float sum, or refused when the sum is negative
    logs = [l for l, _ in pairs]
    weights = [w for _, w in pairs]
    live = [l for l, w in pairs if w != 0.0]
    if not live:
        assert log_sum(logs, weights) == -math.inf
        return
    top = max(live)
    terms = [w * math.exp(l - top) for l, w in pairs if w != 0.0]
    exact = math.fsum(terms)
    slack = 4.0 * len(terms) * 2.0 ** -52 * math.fsum(abs(t) for t in terms)
    if exact > slack:
        # a relative error slack / exact in the sum, plus the rounding of top + ln(sum)
        assert log_sum(logs, weights) == pytest.approx(
            top + math.log(exact), rel=0.0, abs=slack / exact + 4.0 * 2.0 ** -52 * (abs(top) + 1.0))
    elif exact < -slack:
        with pytest.raises(DomainError):
            log_sum(logs, weights)


def test_lattice_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec(0, 3)
    with pytest.raises(DomainError):
        LatticeSpec(2, 2, geometry="kagome")
    with pytest.raises(DomainError):
        LatticeSpec(2, 2, boundary="moebius")
    with pytest.raises(DomainError):
        LatticeSpec(2, 5, geometry="chain")


@pytest.mark.parametrize("side", [0, -1])
@pytest.mark.parametrize("call", [
    lambda s: gamma_spectrum(s, 0.3, 0.4),
    lambda s: triangular_log_z_per_site(s, 3, ReducedCouplings(k_h=0.3, k_v=0.4, k_d=0.2)),
    lambda s: dimer_count_free_product(3, s),
    lambda s: dimer_count_free_pf(s, 3),
    lambda s: dimer_count_torus(3, s),
    lambda s: count_matchings(s, 3),
    lambda s: count_matchings_dp(3, s),
    lambda s: build_transfer(s, 0.3, 0.4),
    lambda s: log_z_torus(3, s, 0.3, 0.4),
    lambda s: kaufman_partition(s, 3, 0.4, 0.3),
    lambda s: ising_pfaffian_torus(s, 3, 0.3, 0.4),
], ids=["gamma_spectrum", "triangular_log_z_per_site", "dimer_count_free_product",
        "dimer_count_free_pf", "dimer_count_torus", "count_matchings", "count_matchings_dp",
        "build_transfer", "log_z_torus", "kaufman_partition", "ising_pfaffian_torus"])
def test_sides_below_one_are_domain_errors(call, side):
    # the other side is odd, so an odd site count cannot answer 0 first
    with pytest.raises(DomainError, match="rows and cols must be positive"):
        call(side)


def test_couplings_must_be_finite():
    with pytest.raises(DomainError):
        ReducedCouplings(k_h=math.nan, k_v=0.1)
    with pytest.raises(DomainError):
        ReducedCouplings(k_h=0.1, k_v=0.1, k_d=math.inf)


@pytest.mark.parametrize("call", [
    lambda: count_matchings_dp(4, 4, MatchingWeights(1e200, 1.0)),
    lambda: enumerate_partition_graph(build_lattice_graph(
        LatticeSpec(3, 3), ReducedCouplings(k_h=1e308, k_v=1e308))),
    lambda: gamma_spectrum(4, 1e308, 1e308),
    lambda: log_z_torus(4, 4, 1e308, 1e308),
    lambda: kaufman_partition(4, 4, 1e308, 1e308),
], ids=["count_matchings_dp", "enumerate_partition_graph", "gamma_spectrum", "log_z_torus",
        "kaufman_partition"])
def test_past_the_float_range_is_refused_without_a_warning(call):
    # a library caller sees the DomainError alone, with no RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


# every guard that no other test reaches: (call, error type, message fragment)
_REFUSALS = {
    "ChainParams sites": (lambda: ChainParams(0), DomainError, "n_spins must be positive"),
    "ChainParams finite": (lambda: ChainParams(3, k=math.nan), DomainError,
                           "couplings must be finite"),
    "transfer_closed open": (lambda: transfer_closed(ChainParams(3, 0.3, 0.1, closed=False)),
                             DomainError, "expects a closed chain"),
    "recursive_open closed": (lambda: recursive_open(ChainParams(3, 0.3, 0.1, closed=True)),
                              DomainError, "expects an open chain"),
    "induction_closed open": (lambda: induction_closed(ChainParams(3, 0.3, 0.1, closed=False)),
                              DomainError, "expects a closed chain"),
    "MethodResult": (lambda: MethodResult(math.inf, "oracle"), DomainError,
                     "log_z must be finite"),
    "WeightedGraph sites": (lambda: WeightedGraph(0, ()), DomainError, "at least one site"),
    "WeightedGraph range": (lambda: WeightedGraph(2, ((0, 2, 0.3),)), DomainError,
                            "out of range"),
    "WeightedGraph finite": (lambda: WeightedGraph(2, ((0, 1, math.nan),)), DomainError,
                             "edge coupling must be finite"),
    "field": (lambda: enumerate_partition_graph(WeightedGraph(2, ((0, 1, 0.3),)), math.inf),
              DomainError, "field must be finite"),
    "honeycomb k_d": (lambda: build_lattice_graph(LatticeSpec(2, 2, "honeycomb"),
                                                  ReducedCouplings(0.3, 0.3)),
                      DomainError, "needs all three couplings"),
    "honeycomb free": (lambda: build_lattice_graph(LatticeSpec(2, 2, "honeycomb", "free"),
                                                   ReducedCouplings(0.3, 0.3, 0.3)),
                       DomainError, "on the torus only"),
    "triangular k_d": (lambda: build_lattice_graph(LatticeSpec(2, 2, "triangular"),
                                                   ReducedCouplings(0.3, 0.3)),
                       DomainError, "needs k_d"),
    "backtracker sites": (lambda: count_matchings_graph(38, ()), CapacityError,
                          "limited to 36 sites"),
    "hafnian odd": (lambda: hafnian(np.ones((3, 3))), DomainError, "even dimension"),
    "hafnian oblong": (lambda: hafnian(np.ones((2, 4))), DomainError, "square matrix"),
    "hafnian scalar": (lambda: hafnian(1.0), DomainError, "square matrix"),
    "hafnian size": (lambda: hafnian(np.ones((14, 14))), CapacityError, "dimension 12"),
    "hafnian asymmetric": (lambda: hafnian([[0.0, 1.0], [2.0, 0.0]]), DomainError,
                           "symmetric"),
    # two normal pairings that cancel to 2^-52 of 1e-300, a subnormal
    "hafnian cancelled": (lambda: hafnian([[0.0, 1e-300, -1e-300, 0.0],
                                           [1e-300, 0.0, 0.0, 1.0],
                                           [-1e-300, 0.0, 0.0, 1.0 + 2.0 ** -52],
                                           [0.0, 1.0, 1.0 + 2.0 ** -52, 0.0]]),
                          DomainError, "below the normal float range"),
    "pfaffian oblong": (lambda: pfaffian(np.zeros((2, 4))), DomainError, "square matrix"),
    "pfaffian scalar": (lambda: pfaffian(1.0), DomainError, "square matrix"),
    "pfaffian odd": (lambda: pfaffian(np.zeros((3, 3))), DomainError, "even dimension"),
    "pfaffian symmetric": (lambda: pfaffian([[0.0, 1.0], [1.0, 0.0]]), DomainError,
                           "not antisymmetric"),
    "dimer variant": (lambda: build_dimer_matrix(LatticeSpec(2, 2), MatchingWeights(),
                                                 "torus5"), DomainError, "unknown variant"),
    "dimer odd": (lambda: build_dimer_matrix(LatticeSpec(3, 3), MatchingWeights()),
                  DomainError, "odd site count"),
    "dimer size": (lambda: build_dimer_matrix(LatticeSpec(2, 2049), MatchingWeights()),
                   CapacityError, "too large"),
    "ising_pfaffian_torus coupling": (lambda: ising_pfaffian_torus(4, 4, -0.3, 0.3),
                                      DomainError, "couplings must be positive"),
    "gamma_spectrum k_t": (lambda: gamma_spectrum(3, 0.0, 0.3), DomainError,
                           "k_t must be positive"),
    "gamma_spectrum k_s": (lambda: gamma_spectrum(3, 0.3, -0.1), DomainError,
                           "k_s must be non-negative"),
    "kacward_products": (lambda: kacward_products(3, 3, 0.0, 0.3, GridParity()), DomainError,
                         "couplings must be positive"),
    "kacward_log_z": (lambda: kacward_log_z(3, 3, 0.3, -0.3), DomainError,
                      "couplings must be positive"),
    "kaufman_partition k_s": (lambda: kaufman_partition(3, 3, 0.3, 0.0), DomainError,
                              "k_s must be positive"),
    "triangular sign": (lambda: triangular_log_z_per_site(
        3, 3, ReducedCouplings(-0.3, 0.3, 0.2)), DomainError, "non-negative"),
    # the gap of the bracket at w = 0 rounds to exactly 0 one ulp above K_CRIT
    "triangular critical": (lambda: triangular_log_z_per_site(
        4, 4, ReducedCouplings(math.nextafter(K_CRIT, 1.0), math.nextafter(K_CRIT, 1.0), 0.0)),
                            DomainError, "vanishing factor"),
    "star_to_triangle": (lambda: star_to_triangle(0.0, 0.3, 0.3), DomainError,
                         "star couplings must be positive"),
    "modulus_k sign": (lambda: modulus_k(-0.1, 0.3, 0.3), DomainError, "non-negative"),
    "modulus_k degenerate": (lambda: modulus_k(0.0, 0.0, 0.5), DomainError, "degenerate"),
    "integral_a modulus": (lambda: integral_a(0.3, math.inf), DomainError,
                           "modulus must be finite"),
    "ab_coefficients sign": (lambda: ab_coefficients(-0.1), DomainError,
                             "modulus must be non-negative"),
    "ab_coefficients infinite": (lambda: ab_coefficients(math.inf), DomainError,
                                 "modulus must be non-negative and finite"),
    "correlation_f": (lambda: correlation_f(-0.1, 0.3), DomainError,
                      "argument must be non-negative"),
    "square_lattice_energy": (lambda: square_lattice_energy(0.0, 0.3), DomainError,
                              "couplings must be positive"),
    "landen_descending": (lambda: landen_descending(1.0), DomainError, "needs 0 <= k < 1"),
    "dirac_free_energy": (lambda: dirac_free_energy(0.0), DomainError,
                          "coupling must be positive"),
    "onsager_free_energy": (lambda: onsager_free_energy(0.3, math.nan), DomainError,
                            "couplings must be positive"),
    "internal_energy": (lambda: internal_energy(1e-4), DomainError,
                        "k - dk must stay positive"),
    "specific_heat": (lambda: specific_heat(1e-5), DomainError, "k - dk must stay positive"),
    "build_transfer": (lambda: build_transfer(3, math.nan, 0.3), DomainError,
                       "couplings must be finite"),
    "partition_torus_transfer": (lambda: partition_torus_transfer(0, build_transfer(2, 0.3, 0.4)),
                                 DomainError, "m must be positive"),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_guard_refuses_with_its_type_and_message(name):
    call, error, fragment = _REFUSALS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_pfaffian_past_its_dimension_is_a_capacity_error(monkeypatch):
    # a matrix past MAX_DIM would take 134 MB; the ceiling is lowered instead
    monkeypatch.setattr(pfaffian_module, "MAX_DIM", 2)
    with pytest.raises(CapacityError, match="exceeds the 2 ceiling"):
        pfaffian(np.zeros((4, 4)))


@pytest.mark.parametrize("patch,fragment", [
    # a modulus off by 1e-9 relative breaks sinh 2K sinh 2L = 1/k
    (("modulus_k", lambda *k: (1.0 + 1e-9) * modulus_k(*k)), "1/k violated"),
    # ln R off by 1e-9 breaks R^2 = 2k prod sinh 2L alone: it is the only
    # log_cosh at L1 + L2 + L3 (the couplings take it at 2L and 2(La - Lb))
    (("log_cosh", lambda x: log_cosh(x) + (1e-9 if x == 0.3 + 0.4 + 0.5 else 0.0)),
     "R^2 identity violated"),
])
def test_star_triangle_invariant_failure_is_a_self_check_error(monkeypatch, patch, fragment):
    monkeypatch.setattr(startriangle_module, *patch)
    with pytest.raises(SelfCheckError, match=re.escape(fragment)):
        star_to_triangle(0.3, 0.4, 0.5)


def test_edge_cases_return_exact_values():
    assert pfaffian(np.zeros((0, 0))) == (1, 0.0)
    # all-zero column blocks: the sweep is singular at once, and no weight
    # means no matching
    assert dimer_count_free_pf(2, 2, MatchingWeights(0.0, 0.0)) == 0.0
    assert dimer_count_torus(2, 2, MatchingWeights(0.0, 0.0)) == 0.0
    assert triangular_log_z_per_site(3, 3, ReducedCouplings(0.0, 0.0, 0.0)) == math.log(2.0)
    assert b_near_critical(1.0) == 0.0
