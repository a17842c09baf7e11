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
    signed_logsumexp,
)
from isingexact.oracle import (MatchingWeights, build_lattice_graph, count_matchings_dp,
                               enumerate_partition_graph)
from isingexact.spectral import gamma_spectrum, kaufman_partition
from isingexact.transfer2d import log_z_torus


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


def test_signed_logsumexp_basic():
    log_abs, sign = signed_logsumexp([(math.log(3.0), 1), (math.log(1.0), 1)])
    assert sign == 1
    assert log_abs == pytest.approx(math.log(4.0))
    log_abs, sign = signed_logsumexp([(math.log(1.0), 1), (math.log(3.0), -1)])
    assert sign == -1
    assert log_abs == pytest.approx(math.log(2.0))


def test_signed_logsumexp_degenerate_cases():
    assert signed_logsumexp([]) == (-math.inf, 0)
    assert signed_logsumexp([(0.0, 1), (0.0, -1)]) == (-math.inf, 0)
    assert signed_logsumexp([(0.5, 0), (0.0, 1)]) == (0.0, 1)


def test_lattice_spec_validation():
    with pytest.raises(DomainError):
        LatticeSpec(0, 3)
    with pytest.raises(DomainError):
        LatticeSpec(2, 2, geometry="kagome")
    with pytest.raises(DomainError):
        LatticeSpec(2, 2, boundary="moebius")
    with pytest.raises(DomainError):
        LatticeSpec(2, 5, geometry="chain")


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
