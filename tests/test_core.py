import math
import warnings

import pytest
from hypothesis import given, strategies as st

from isingexact.core import (
    K_CRIT,
    DomainError,
    LatticeSpec,
    ReducedCouplings,
    dual_coupling,
    log_sum,
)
from isingexact.oracle import (MatchingWeights, build_lattice_graph, count_matchings,
                               count_matchings_dp, enumerate_partition_graph)
from isingexact.pfaffian import dimer_count_free as dimer_count_free_pf, dimer_count_torus
from isingexact.spectral import (dimer_count_free as dimer_count_free_product, gamma_spectrum,
                                 kaufman_partition, triangular_log_z_per_site)
from isingexact.transfer2d import build_transfer, log_z_torus


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
], ids=["gamma_spectrum", "triangular_log_z_per_site", "dimer_count_free_product",
        "dimer_count_free_pf", "dimer_count_torus", "count_matchings", "count_matchings_dp",
        "build_transfer"])
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
