"""The enumeration oracle is the trust anchor for every closed-form method,
so it gets its own independent cross-check: a deliberately naive pure-Python
sum over all spin configurations, written with none of the vectorized
machinery the production path uses."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingexact import oracle
from isingexact.core import CapacityError, DomainError, LatticeSpec, ReducedCouplings
from isingexact.pfaffian import dimer_count_free as dimer_count_free_pf
from isingexact.spectral import dimer_count_free as dimer_count_free_product
from isingexact.oracle import (
    MatchingWeights,
    WeightedGraph,
    build_lattice_graph,
    count_matchings,
    count_matchings_dp,
    count_matchings_graph,
    enumerate_partition_graph,
    hafnian,
    _density_of_states,
    _enumerate_direct,
    _group_edges,
)


def naive_log_z(g: WeightedGraph, h: float = 0.0) -> float:
    total = 0.0
    for spins in itertools.product((-1, 1), repeat=g.num_sites):
        e = sum(k * spins[i] * spins[j] for i, j, k in g.edges)
        e += h * sum(spins)
        total += math.exp(e)
    return math.log(total)


def reference_density_of_states(num_sites, edge_groups):
    """Per-bond reference for the oracle's density of states: one numpy pass
    per bond over every configuration, no split and no spin-flip mirror."""
    dims = [len(g) + 1 for g in edge_groups]
    total_bins = int(np.prod(dims, dtype=np.int64))
    dos = np.zeros(total_bins, dtype=np.int64)
    n_conf = 1 << num_sites
    chunk = min(n_conf, 1 << 20)
    for start in range(0, n_conf, chunk):
        idx = np.arange(start, start + chunk, dtype=np.uint64)
        key = np.zeros(idx.shape, dtype=np.uint64)
        stride = 1
        for g, edges in enumerate(edge_groups):
            acc = np.zeros(idx.shape, dtype=np.uint64)
            for a, b in edges:
                acc += ((idx >> np.uint64(a)) ^ (idx >> np.uint64(b))) & np.uint64(1)
            key += acc * np.uint64(stride)
            stride *= dims[g]
        dos += np.bincount(key.astype(np.int64), minlength=total_bins)
    return dos


def _edge_structure(edges):
    return tuple(pairs for _, _, pairs in _group_edges(edges))


@st.composite
def spin_graphs(draw):
    """Graphs on 1-18 sites with couplings drawn from a small set, so groups
    repeat, plus parallel edges and self-loops."""
    n = draw(st.integers(1, 18))
    site = st.integers(0, n - 1)
    edge = st.tuples(site, site, st.sampled_from((0.3, -0.5, 0.7)))
    edges = draw(st.lists(edge, max_size=min(3 * n, 30)))
    return n, tuple(edges)


@settings(max_examples=60, deadline=None)
@given(graph=spin_graphs(), with_field=st.booleans(),
       low_bits=st.sampled_from((3, 8, oracle._LOW_BITS)))
def test_density_of_states_matches_per_bond_reference(graph, with_field, low_bits):
    n, edges = graph
    structure = _edge_structure(edges)
    if with_field:
        # the field's ghost graph: one more group, bonds from every site to site n
        structure += (tuple((i, n) for i in range(n)),)
    sites = n + 1 if with_field else n
    with mock.patch.object(oracle, "_LOW_BITS", low_bits):
        dos = _density_of_states(sites, structure)
    ref = reference_density_of_states(sites, structure)
    assert dos.dtype == np.int64
    np.testing.assert_array_equal(dos, ref)
    assert dos.sum() == 2 ** sites
    if with_field:
        # flipping every real spin maps c antiparallel ghost bonds to n - c
        by_ghost_count = dos.reshape(n + 1, -1)
        np.testing.assert_array_equal(by_ghost_count, by_ghost_count[::-1])


@pytest.mark.parametrize("k_v", [0.31, 0.57])
def test_density_of_states_twenty_site_torus(k_v):
    # 20 sites leave six high bits past the default split
    g = build_lattice_graph(LatticeSpec(4, 5), ReducedCouplings(k_h=0.31, k_v=k_v))
    structure = _edge_structure(g.edges)
    np.testing.assert_array_equal(_density_of_states(20, structure),
                                  reference_density_of_states(20, structure))


def test_single_bond():
    g = WeightedGraph(2, ((0, 1, 0.7),))
    assert enumerate_partition_graph(g) == pytest.approx(math.log(4 * math.cosh(0.7)), rel=1e-14)


def test_single_bond_with_field():
    g = WeightedGraph(2, ((0, 1, 0.4),))
    # Z = 2 e^k cosh 2h + 2 e^{-k}
    h = 0.3
    expected = 2 * math.exp(0.4) * math.cosh(2 * h) + 2 * math.exp(-0.4)
    assert enumerate_partition_graph(g, h=h) == pytest.approx(math.log(expected), rel=1e-14)


def test_self_loop_contributes_constant():
    # an edge from a site to itself has parity 0: it multiplies Z by e^k
    g0 = WeightedGraph(2, ((0, 1, 0.5),))
    g1 = WeightedGraph(2, ((0, 1, 0.5), (0, 0, 0.9)))
    assert enumerate_partition_graph(g1) == pytest.approx(
        enumerate_partition_graph(g0) + 0.9, rel=1e-14)


@pytest.mark.parametrize("geometry,boundary,rows,cols", [
    ("square", "torus", 2, 3),
    ("square", "free", 3, 3),
    ("square", "cylinder_h", 2, 4),
    ("square", "cylinder_v", 3, 2),
    ("triangular", "torus", 3, 3),
    ("triangular", "free", 2, 4),
    ("honeycomb", "torus", 2, 3),
    ("chain", "free", 1, 7),
    ("chain", "torus", 1, 6),
])
def test_lattice_graphs_agree_with_naive_sum(geometry, boundary, rows, cols):
    spec = LatticeSpec(rows, cols, geometry=geometry, boundary=boundary)
    c = ReducedCouplings(k_h=0.31, k_v=0.57, k_d=0.23)
    g = build_lattice_graph(spec, c)
    assert g.num_sites == (2 if geometry == "honeycomb" else 1) * rows * cols
    assert enumerate_partition_graph(g) == pytest.approx(naive_log_z(g), rel=1e-12)


def test_field_path_agrees_with_naive_sum():
    spec = LatticeSpec(2, 3, boundary="torus")
    g = build_lattice_graph(spec, ReducedCouplings(k_h=0.4, k_v=0.25))
    for h in (0.0, 0.2, -0.6):
        assert enumerate_partition_graph(g, h=h) == pytest.approx(naive_log_z(g, h), rel=1e-12)


@st.composite
def field_graphs(draw):
    """Graphs on 1-16 sites (the ghost crosses the low/high split from 14 on)
    with a field drawn from the bond couplings, their negatives and other
    values, so h can equal a coupling or be negative."""
    n, edges = draw(spin_graphs().filter(lambda g: g[0] <= 16))
    h = draw(st.sampled_from((0.3, -0.5, 0.7, -0.3, 0.5, 1e-3, -1.9, 2.4)))
    return WeightedGraph(n, edges), h


@settings(max_examples=60, deadline=None)
@given(graph_and_field=field_graphs())
def test_ghost_spin_field_matches_direct_sum(graph_and_field):
    g, h = graph_and_field
    assert enumerate_partition_graph(g, h) == pytest.approx(_enumerate_direct(g, h), rel=1e-12)


def test_ghost_past_the_split_matches_direct_sum():
    # 16 sites and two bond groups: the ghost is past the low/high split and
    # its group's stride is 17^2.  Both fields read one cached density of
    # states
    g = build_lattice_graph(LatticeSpec(4, 4), ReducedCouplings(k_h=0.31, k_v=0.57))
    with mock.patch.dict(oracle._DOS_CACHE, clear=True):
        for h in (0.3, -0.7):
            assert enumerate_partition_graph(g, h) == pytest.approx(
                _enumerate_direct(g, h), rel=1e-12)
        assert len(oracle._DOS_CACHE) == 1


def test_direct_fallback_matches_binned_path():
    rng = np.random.default_rng(3)
    edges = tuple((int(i), int(j), float(rng.uniform(0.1, 0.8)))
                  for i, j in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4), (4, 5), (5, 0)])
    g = WeightedGraph(6, edges)
    assert _enumerate_direct(g, 0.13) == pytest.approx(
        enumerate_partition_graph(g, h=0.13), rel=1e-12)


def test_direct_fallback_past_the_bin_limit_matches_naive_sum():
    # 23 edges with distinct couplings on 12 sites: 2^23 density-of-states
    # bins, past the 2^22 limit, so the sum takes the direct energies
    rng = np.random.default_rng(5)
    pairs = list(itertools.combinations(range(12), 2))
    picks = rng.choice(len(pairs), size=23, replace=False)
    g = WeightedGraph(12, tuple((*pairs[i], float(rng.uniform(-0.8, 0.8))) for i in picks))
    with mock.patch.object(oracle, "_enumerate_direct", wraps=_enumerate_direct) as direct, \
            mock.patch.dict(oracle._DOS_CACHE, clear=True):
        for h in (0.0, 0.37):
            assert enumerate_partition_graph(g, h) == pytest.approx(naive_log_z(g, h), rel=1e-12)
        assert direct.call_count == 2 and not oracle._DOS_CACHE


def test_matching_counts_small_grids():
    assert count_matchings(2, 2) == 2
    assert count_matchings(2, 3) == 3
    assert count_matchings(4, 4) == 36
    assert count_matchings(3, 3) == 0
    assert count_matchings(1, 6) == 1


def test_matching_dp_agrees_with_backtracking():
    for m, n in [(2, 2), (2, 5), (4, 4), (3, 4), (5, 4), (6, 6)]:
        assert count_matchings_dp(m, n) == pytest.approx(
            count_matchings(m, n, MatchingWeights()), rel=1e-12)


def test_matching_dp_eight_by_eight():
    assert count_matchings_dp(8, 8) == pytest.approx(12988816, rel=1e-12)


@pytest.mark.parametrize("z1,z2", [(1.0, 1.0), (0.7, 1.3), (3.0, 0.2)])
def test_matching_dp_against_both_closed_forms(z1, z2):
    # every even shape up to 14 x 14, the widest the work ceiling accepts:
    # Kasteleyn's Pfaffian and the Temperley-Fisher cosine product
    w = MatchingWeights(z1, z2)
    for m, n in itertools.product(range(1, 15), repeat=2):
        if (m * n) % 2 == 0:
            count = count_matchings_dp(m, n, w)
            assert count == pytest.approx(dimer_count_free_pf(m, n, w), rel=1e-12)
            assert count == pytest.approx(dimer_count_free_product(m, n, w), rel=1e-12)


def test_weighted_matchings():
    # 2x2 grid: one all-horizontal and one all-vertical covering
    w = MatchingWeights(z1=2.0, z2=3.0)
    total = count_matchings(2, 2, w)
    assert total == pytest.approx(count_matchings_dp(2, 2, w), rel=1e-13)
    # the two coverings contribute z^2 each, one per orientation
    assert total == pytest.approx(2.0 ** 2 + 3.0 ** 2, rel=1e-13)


def test_generic_matching_enumeration_and_hafnian():
    # K4 has 3 perfect matchings; weight them unequally
    edges = [(0, 1, 2.0), (2, 3, 5.0), (0, 2, 1.0), (1, 3, 7.0), (0, 3, 1.0), (1, 2, 3.0)]
    a = np.zeros((4, 4))
    for i, j, wt in edges:
        a[i, j] = a[j, i] = wt
    expected = 2.0 * 5.0 + 1.0 * 7.0 + 1.0 * 3.0
    assert count_matchings_graph(4, edges) == pytest.approx(expected, rel=1e-13)
    assert hafnian(a) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("z1,z2", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_matching_weights_must_be_finite(z1, z2):
    with pytest.raises(DomainError, match="finite"):
        MatchingWeights(z1, z2)


def test_matching_dp_profile_runs_along_the_shorter_side():
    # a 40-column profile would exceed the work ceiling
    assert count_matchings_dp(2, 40) == count_matchings_dp(40, 2) == 165580141
    assert count_matchings_dp(3, 4, MatchingWeights(0.7, 1.3)) == pytest.approx(
        count_matchings(3, 4, MatchingWeights(0.7, 1.3)), rel=1e-15)
    assert count_matchings_dp(3, 4, MatchingWeights(0.7, 1.3)) == count_matchings_dp(
        4, 3, MatchingWeights(1.3, 0.7))


@pytest.mark.parametrize("m,n", [(16, 15), (24, 24), (14, 15), (10 ** 6, 10 ** 6),
                                 (7_000_000, 2), (2, 7_000_000), (3_000_000, 1)])
def test_matching_dp_refuses_work_past_its_ceiling(m, n):
    with pytest.raises(CapacityError, match="ceiling"):
        count_matchings_dp(m, n)


def test_matching_dp_past_the_float_range_is_a_domain_error():
    # z1^4 alone overflows; the count is refused rather than inf
    with pytest.raises(DomainError, match="float range"):
        count_matchings_dp(4, 4, MatchingWeights(1e200, 1.0))


def test_enumeration_past_the_float_range_is_a_domain_error():
    g = build_lattice_graph(LatticeSpec(4, 4), ReducedCouplings(k_h=1e308, k_v=1e308))
    with pytest.raises(DomainError, match="float range"):
        enumerate_partition_graph(g)
