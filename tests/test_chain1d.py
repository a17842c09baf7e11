import itertools
import math
import warnings

import pytest

from isingexact.chain1d import ChainParams, induction_closed, recursive_open, transfer_closed
from isingexact.core import DomainError, LatticeSpec, ReducedCouplings
from isingexact.oracle import build_lattice_graph, enumerate_partition_graph


def _oracle_chain(n, k, h, closed):
    spec = LatticeSpec(1, n, geometry="chain", boundary="torus" if closed else "free")
    g = build_lattice_graph(spec, ReducedCouplings(k_h=k, k_v=0.0))
    return enumerate_partition_graph(g, h=h)


K_GRID = (0.05, 0.3, 0.8, 1.5)
H_GRID = (0.0, 0.1, 0.7, -0.4)


# a ring of one spin carries its self-bond, as a side-1 torus does
@pytest.mark.parametrize("n", range(1, 21))
def test_closed_chain_against_oracle(n):
    for k, h in itertools.product(K_GRID, H_GRID):
        want = _oracle_chain(n, k, h, closed=True)
        p = ChainParams(n_spins=n, k=k, h=h, closed=True)
        assert transfer_closed(p) == pytest.approx(want, abs=1e-11)
        assert induction_closed(p) == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("n", range(1, 21))
def test_open_chain_against_oracle(n):
    for k, h in itertools.product(K_GRID, H_GRID):
        want = _oracle_chain(n, k, h, closed=False)
        p = ChainParams(n_spins=n, k=k, h=h, closed=False)
        assert recursive_open(p) == pytest.approx(want, abs=1e-11)


def test_transfer_and_induction_agree_closely():
    for n in (1, 2, 5, 13, 20):
        for k, h in itertools.product(K_GRID, H_GRID):
            p = ChainParams(n_spins=n, k=k, h=h, closed=True)
            assert transfer_closed(p) == pytest.approx(induction_closed(p), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 20])
@pytest.mark.parametrize("k", K_GRID)
def test_open_chain_zero_field_closed_form(n, k):
    # Z = 2^S cosh^{S-1} K, exactly, in log form
    p = ChainParams(n_spins=n, k=k, h=0.0, closed=False)
    want = n * math.log(2.0) + (n - 1) * math.log(math.cosh(k))
    assert recursive_open(p) == pytest.approx(want, rel=1e-14)


def test_closed_chain_zero_field_closed_form():
    # Z = (2 cosh K)^N + (2 sinh K)^N
    n, k = 12, 0.6
    want = math.log((2 * math.cosh(k)) ** n + (2 * math.sinh(k)) ** n)
    p = ChainParams(n_spins=n, k=k, h=0.0, closed=True)
    assert transfer_closed(p) == pytest.approx(want, rel=1e-14)


def test_large_chain_does_not_overflow():
    p = ChainParams(n_spins=100000, k=1.2, h=0.5, closed=True)
    lz = transfer_closed(p)
    assert math.isfinite(lz)
    q = ChainParams(n_spins=100000, k=1.2, h=0.5, closed=False)
    assert recursive_open(q) == pytest.approx(lz, rel=1e-4)  # same bulk density


@pytest.mark.parametrize("k,h", [(400.0, 0.1), (0.3, 400.0), (-400.0, 0.0),
                                 (-20.0, 20.0), (-20.0, -30.0), (-400.0, 400.0), (-400.0, -600.0),
                                 (-10.0, 10.0), (-3.0, 400.0), (20.0, -20.0), (0.3, 0.2),
                                 (-1e308, 0.0), (1e308, 0.0), (0.3, 1e308), (0.3, -1e308)])
def test_every_route_at_large_coupling_or_field(k, h):
    # e^{4|k|} or cosh h is past the float range: each route shifts by its
    # largest scale before any exp, and no RuntimeWarning is raised on the way.
    # From k = -20 on tanh k rounds to -1, where the open chain's recursion in
    # alpha and beta cancelled (log(0) at (-20, 20), 5.9e-10 off at (-10, 10)).
    # At |k| or |h| = 1e308 ln Z itself is past the float range, and every
    # route refuses it, as the oracle does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for closed, routes in ((True, (transfer_closed, induction_closed)),
                               (False, (recursive_open,))):
            p = ChainParams(n_spins=5, k=k, h=h, closed=closed)
            if max(abs(k), abs(h)) >= 1e308:
                for route in (lambda _: _oracle_chain(5, k, h, closed),) + routes:
                    with pytest.raises(DomainError, match="float range"):
                        route(p)
                continue
            want = _oracle_chain(5, k, h, closed)
            for route in routes:
                assert route(p) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_frustrated_ring_against_its_ground_states():
    # an odd antiferromagnetic ring: lambda_2^N nearly cancels lambda_1^N;
    # at k = -400 only the 2N one-defect ground states count, Z = 2N e^{(N-2)|k|}
    for n in (3, 5, 11, 101):
        p = ChainParams(n_spins=n, k=-400.0, h=0.0, closed=True)
        want = (n - 2) * 400.0 + math.log(2 * n)
        assert transfer_closed(p) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert induction_closed(p) == pytest.approx(want, rel=1e-15, abs=0.0)
