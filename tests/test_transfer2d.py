import math

import numpy as np
import pytest

from isingexact.core import CapacityError, K_CRIT, LatticeSpec, ReducedCouplings
from isingexact.oracle import build_lattice_graph, enumerate_partition_graph
from isingexact.transfer2d import MAX_COLS, build_transfer, log_z_torus, partition_torus_transfer


def reference_transfer_entries(n, k_a, k_b):
    """T from explicit spin vectors: inter-row sums as spins @ spins.T."""
    idx = np.arange(1 << n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    spins = 1.0 - 2.0 * bits
    inter = spins @ spins.T
    intra = np.einsum("ij,ij->i", spins, np.roll(spins, -1, axis=1))
    return np.exp(k_a * inter) * np.exp(k_b * intra)[None, :]


@pytest.mark.parametrize("n", range(1, 11))
def test_build_matches_spin_reference(n):
    for k_a, k_b in [(0.3, 0.6), (-0.5, 0.7), (0.9, -0.2), (-1.3, -2.1),
                     (K_CRIT, K_CRIT)]:
        got = build_transfer(n, k_a, k_b).entries
        assert np.array_equal(got, reference_transfer_entries(n, k_a, k_b))


def _oracle_torus(m, n, kh, kv):
    g = build_lattice_graph(LatticeSpec(m, n), ReducedCouplings(k_h=kh, k_v=kv))
    return enumerate_partition_graph(g)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 8), (1, 5), (5, 1)])
@pytest.mark.parametrize("kh,kv", [(0.3, 0.3), (0.3, 0.6), (0.9, 0.2)])
def test_torus_against_oracle(m, n, kh, kv):
    assert log_z_torus(m, n, kh, kv) == pytest.approx(_oracle_torus(m, n, kh, kv), rel=1e-12)


def test_operator_dimension():
    t = build_transfer(5, 0.2, 0.3)
    assert t.dim == 32
    assert t.entries.shape == (32, 32)


def test_trace_power_matches_direct_power():
    t = build_transfer(4, 0.4, 0.25)
    direct = math.log(np.trace(np.linalg.matrix_power(t.entries, 5)))
    assert partition_torus_transfer(5, t) == pytest.approx(direct, rel=1e-12)


def test_column_capacity_limit():
    with pytest.raises(CapacityError):
        build_transfer(MAX_COLS + 1, 0.3, 0.3)
    with pytest.raises(CapacityError):
        log_z_torus(2, MAX_COLS + 1, 0.3, 0.3)


def test_transpose_symmetry():
    # the torus does not care which direction transfers
    assert log_z_torus(3, 5, 0.4, 0.7) == pytest.approx(
        log_z_torus(5, 3, 0.7, 0.4), rel=1e-12)
