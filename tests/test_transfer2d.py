import math

import numpy as np
import pytest

from isingexact.core import CapacityError, DomainError, K_CRIT, LatticeSpec, ReducedCouplings
from isingexact.oracle import build_lattice_graph, enumerate_partition_graph
from isingexact.spectral import gamma_spectrum, kaufman_partition
import isingexact.transfer2d as transfer2d
from isingexact.transfer2d import MAX_COLS, build_transfer, log_z_torus, partition_torus_transfer


def reference_transfer_entries(n, k_a, k_b):
    """T from explicit spin vectors: inter-row sums as spins @ spins.T."""
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    spins = 1.0 - 2.0 * bits
    inter = spins @ spins.T
    intra = np.einsum("ij,ij->i", spins, np.roll(spins, -1, axis=1))
    return np.exp(k_a * inter) * np.exp(k_b * intra)[None, :]


def reference_symmetrised(n, k_a, k_b):
    """T_s = D^(1/2) V D^(1/2) = D^(1/2) T D^(-1/2) from the reference
    T = V D; the diagonal of V is constant, so D is diag(T) up to a factor
    that cancels."""
    t = reference_transfer_entries(n, k_a, k_b)
    root = np.sqrt(np.diag(t))
    return t * root[:, None] / root[None, :]


def reference_log_trace_power(m, n, k_a, k_b):
    return math.log(np.trace(np.linalg.matrix_power(reference_transfer_entries(n, k_a, k_b), m)))


@pytest.mark.parametrize("n", range(1, 11))
def test_build_matches_spin_reference(n):
    for k_a, k_b in [(0.3, 0.6), (-0.5, 0.7), (0.9, -0.2), (-1.3, -2.1),
                     (K_CRIT, K_CRIT)]:
        t = build_transfer(n, k_a, k_b)
        want = np.linalg.eigvalsh(reference_symmetrised(n, k_a, k_b))
        got = np.sort(t.eigenvalues) * math.exp(t.log_shift)
        assert got.shape == want.shape == (1 << n,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _oracle_torus(m, n, kh, kv):
    g = build_lattice_graph(LatticeSpec(m, n), ReducedCouplings(k_h=kh, k_v=kv))
    return enumerate_partition_graph(g)


# every torus with sides <= 6 and at most 24 sites, 1 x n strips included,
# under every sign pattern: the cut is chosen by the signs and parity alone
_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 8), (1, 5), (5, 1)]
_SHAPES += [(m, n) for m in range(1, 7) for n in range(1, 7)
            if m * n <= 24 and (m, n) not in _SHAPES]


@pytest.mark.parametrize("m,n", _SHAPES)
@pytest.mark.parametrize("kh,kv", [(0.3, 0.3), (0.3, 0.6), (0.9, 0.2), (-0.3, -0.3),
                                   (-1.3, 0.4), (0.5, -1.3), (-1.3, -2.1), (0.0, 0.4),
                                   (1e-300, 1e-300), (80.0, 80.0), (400.0, -400.0)])
def test_torus_against_oracle(m, n, kh, kv):
    assert log_z_torus(m, n, kh, kv) == pytest.approx(_oracle_torus(m, n, kh, kv), rel=1e-12)


@pytest.mark.parametrize("m,n", [(3, 3), (3, 5), (5, 5)])
def test_fully_frustrated_torus_against_oracle(m, n):
    # both couplings < 0 and both sides odd: every spectral sum may cancel
    # (the direct sum is refused), the dense product of positive entries does not
    assert log_z_torus(m, n, -5.0, -5.0) == pytest.approx(_oracle_torus(m, n, -5.0, -5.0),
                                                          rel=1e-14)
    with pytest.raises(DomainError, match="not a sign-safe cut"):
        partition_torus_transfer(m, build_transfer(n, -5.0, -5.0))


def test_unsafe_cut_is_refused_and_safe_cuts_are_accurate():
    # k_a < 0 with an odd row count may cancel, so it is refused; the same
    # operator at an even row count, and the k_a > 0 operator at the odd one,
    # are within 1e-10 of the direct power of the reference matrix
    for n in range(1, 8):
        for m in (1, 3, 5, 7):
            for k_a in (-0.02, -0.3, -1.3, -5.0):
                for k_b in (0.4, 0.0, -1.0):
                    t = build_transfer(n, k_a, k_b)
                    with pytest.raises(DomainError, match="not a sign-safe cut"):
                        partition_torus_transfer(m, t)
                    for rows, safe in ((m + 1, t), (m, build_transfer(n, -k_a, k_b))):
                        got = partition_torus_transfer(rows, safe)
                        want = reference_log_trace_power(rows, n, safe.k_a, k_b)
                        assert abs(got - want) < 1e-10


def test_operator_dimension():
    t = build_transfer(5, 0.2, 0.3)
    assert t.dim == 32
    assert t.eigenvalues.shape == (32,)
    # width 2 has an empty block (q = 1, z = +1), which adds no eigenvalue
    t = build_transfer(2, 0.2, 0.3)
    assert t.eigenvalues.shape == (4,) and t.eigenvalues.dtype == np.float64


def test_trace_power_matches_direct_power():
    t = build_transfer(4, 0.4, 0.25)
    direct = reference_log_trace_power(5, 4, 0.4, 0.25)
    assert partition_torus_transfer(5, t) == pytest.approx(direct, rel=1e-12)


def test_column_capacity_limit():
    with pytest.raises(CapacityError):
        build_transfer(MAX_COLS + 1, 0.3, 0.3)
    # both sides wider than MAX_COLS: no cut fits
    with pytest.raises(CapacityError):
        log_z_torus(MAX_COLS + 1, MAX_COLS + 1, 0.3, 0.3)


def test_narrow_cut_of_a_wide_torus_against_kaufman():
    # 2 x 15 is cut at width 2
    assert log_z_torus(2, MAX_COLS + 1, 0.3, 0.6) == pytest.approx(
        kaufman_partition(2, MAX_COLS + 1, 0.6, 0.3), rel=1e-12)


@pytest.mark.parametrize("side", [13, 14])
def test_widest_tori_at_criticality_against_kaufman(side):
    assert log_z_torus(side, side, K_CRIT, K_CRIT) == pytest.approx(
        kaufman_partition(side, side, K_CRIT, K_CRIT), rel=1e-12)


@pytest.mark.parametrize("k_a,k_b", [(0.3, 0.6), (K_CRIT, K_CRIT), (0.9, 0.2)])
def test_largest_eigenvalue_against_kaufman(k_a, k_b):
    # ln lambda_max = (n/2) ln(2 sinh 2k_a) + (1/2) sum of the odd gammas
    for n in range(3, 13):
        t = build_transfer(n, k_a, k_b)
        got = t.log_shift + math.log(float(t.eigenvalues.max()))
        gamma = gamma_spectrum(n, k_t=k_a, k_s=k_b)
        want = 0.5 * n * math.log(2.0 * math.sinh(2.0 * k_a)) + 0.5 * float(gamma[1::2].sum())
        assert got == pytest.approx(want, rel=1e-13), n


def test_large_coupling_does_not_overflow():
    # ln Z -> 2 m n K + ln 2: the two ordered states
    assert log_z_torus(4, 4, 80.0, 80.0) == pytest.approx(2560.6931471805597, rel=1e-15)
    assert log_z_torus(4, 4, 400.0, 400.0) == pytest.approx(12800.69314718056, rel=1e-15)


def test_transpose_symmetry():
    # the torus does not care which direction transfers: 3 rows of width 5
    # and 5 rows of width 3, each coupling kept on its bonds
    assert partition_torus_transfer(3, build_transfer(5, 0.7, 0.4)) == pytest.approx(
        partition_torus_transfer(5, build_transfer(3, 0.4, 0.7)), rel=1e-12)


@pytest.mark.parametrize("m,n,kh,kv", [(15, 3, 0.3, -0.3), (3, 15, -0.3, 0.3),
                                       (15, 4, -0.3, -0.3)])
def test_cut_too_wide_for_the_spectrum_takes_the_dense_product(m, n, kh, kv, monkeypatch):
    # the narrow cut has an odd row count and a negative coupling between
    # rows; the sign-safe cut is 15 columns wide, so no spectrum is built
    def refuse(*args):
        raise AssertionError("spectrum built")

    monkeypatch.setattr(transfer2d, "build_transfer", refuse)
    rows, width = max(m, n), min(m, n)
    k_a, k_b = (kv, kh) if width == n else (kh, kv)
    assert log_z_torus(m, n, kh, kv) == pytest.approx(
        reference_log_trace_power(rows, width, k_a, k_b), rel=1e-12)


def test_wide_safe_cut_within_capacity_takes_the_spectrum():
    # 13 x 3 with k_v < 0: the width-13 spectrum, not the width-3 product
    assert log_z_torus(13, 3, 0.3, -0.3) == pytest.approx(
        reference_log_trace_power(13, 3, -0.3, 0.3), rel=1e-12)


def test_dense_product_underflow_is_a_domain_error():
    # the trace is below the normal range relative to the shift: e^-900 on
    # the fully frustrated 3 x 3 torus, 10 e^-800 on 15 x 1
    for m, n, kh, kv in ((3, 3, -150.0, -150.0), (15, 1, 400.0, -400.0)):
        with pytest.raises(DomainError, match="underflows"):
            log_z_torus(m, n, kh, kv)


def test_shift_past_the_float_range_is_refused_before_any_eigensolve(monkeypatch):
    def refuse(*args):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    with pytest.raises(DomainError, match="float range"):
        log_z_torus(4, 4, 1e308, 1e308)
    with pytest.raises(DomainError, match="float range"):
        log_z_torus(3, 3, -1e308, -1e308)   # the dense product


def test_log_z_past_the_float_range_is_a_domain_error():
    # the shift 8e307 is finite; ln Z = 3.2e308 is not
    with pytest.raises(DomainError, match="ln Z"):
        log_z_torus(4, 4, 1e307, 1e307)


def test_dense_product_stops_at_twelve_columns():
    # 4^13 entries per array would be 512 MiB: refused before any allocation
    with pytest.raises(CapacityError):
        log_z_torus(13, 13, -0.3, -0.3)
    # one row at width 12 is the trace of T: e^{n k_a} times the ring sum
    k_a, k_b = 0.3, -0.2
    want = 12 * k_a + math.log((2 * math.cosh(k_b)) ** 12 + (2 * math.sinh(k_b)) ** 12)
    assert transfer2d._dense_log_trace(1, 12, k_a, k_b) == pytest.approx(want, rel=1e-14)
