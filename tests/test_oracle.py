"""The enumeration oracle is the trust anchor for every closed-form method,
so it gets its own independent cross-check: a deliberately naive pure-Python
sum over all spin configurations, written with none of the vectorized
machinery the production path uses."""

import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import peak_bytes
from isingexact import oracle
from isingexact.core import BOUNDARIES, CapacityError, DomainError, LatticeSpec, ReducedCouplings
from isingexact.pfaffian import dimer_count_free as dimer_count_free_pf
from isingexact.chain1d import ChainParams, transfer_closed
from isingexact.spectral import dimer_count_free as dimer_count_free_product, kaufman_partition
from isingexact.oracle import (
    MatchingWeights,
    WeightedGraph,
    build_lattice_graph,
    count_matchings,
    count_matchings_dp,
    count_matchings_graph,
    enumerate_partition_graph,
    hafnian,
    _count_through,
    _density_of_states,
    _enumerate_direct,
    _group_edges,
    _plan,
    _separator,
    _split_plan,
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
    return tuple(pairs for _, pairs in _group_edges(edges))


def split_kernel(num_sites, edge_groups):
    """The density of states by the low/high split, whatever the plan would be."""
    return _count_through(num_sites, edge_groups, _split_plan(num_sites))


def _torus_structure(m, n, k_h, k_v):
    g = build_lattice_graph(LatticeSpec(m, n), ReducedCouplings(k_h=k_h, k_v=k_v))
    return g.num_sites, _edge_structure(g.edges)


def _field_structure(n, edges):
    # the graph's groups and then the field's ghost group, site n
    return n + 1, _edge_structure(edges) + (tuple((i, n) for i in range(n)),)


def _chain_field_structure(n, closed):
    spec = LatticeSpec(1, n, geometry="chain", boundary="torus" if closed else "free")
    return _field_structure(n, build_lattice_graph(spec, ReducedCouplings(k_h=0.4, k_v=0.0)).edges)


def _plan_keys(plan):
    """The keys a build through plan (S, A, B) counts: 2^(|S| - 1) (2^|A| + 2^|B|)."""
    sep, side_a, side_b = plan
    return 2 ** (len(sep) - 1) * (2 ** len(side_a) + 2 ** len(side_b))


def _assert_separates(plan, num_sites, edge_groups):
    """S, A and B partition the sites, S is not empty and no bond joins A to B."""
    sep, side_a, side_b = plan
    assert sep and sorted(sep + side_a + side_b) == list(range(num_sites))
    in_a, in_b = set(side_a), set(side_b)
    for pairs in edge_groups:
        for a, b in pairs:
            assert not ({a, b} & in_a and {a, b} & in_b), (a, b)


@st.composite
def spin_graphs(draw):
    """Graphs on 1-18 sites with couplings drawn from a small set, so groups
    repeat, plus parallel edges and self-loops."""
    n = draw(st.integers(1, 18))
    site = st.integers(0, n - 1)
    edge = st.tuples(site, site, st.sampled_from((0.3, -0.5, 0.7)))
    edges = draw(st.lists(edge, max_size=min(3 * n, 30)))
    return n, tuple(edges)


def _chunk_bits(rows_per_chunk, sites, low_bits):
    """_CHUNK_BITS for one or two high states per chunk, or the default (None)."""
    if rows_per_chunk is None:
        return oracle._CHUNK_BITS
    return min(sites - 1, low_bits) + rows_per_chunk - 1


def _ring(n):
    """n sites in a ring of 0.3 bonds, with -0.5 bonds to the next but one,
    a doubled bond and a self-loop."""
    edges = [(i, (i + 1) % n, 0.3) for i in range(n)]
    edges += [(i, (i + 2) % n, -0.5) for i in range(0, n, 3)]
    return n, tuple(edges + [(0, n - 1, 0.7), (0, n - 1, 0.7), (n // 2, n // 2, 0.7)])


@settings(max_examples=60, deadline=None)
@given(graph=spin_graphs(), with_field=st.booleans(),
       low_bits=st.sampled_from((3, 8, oracle._LOW_BITS)),
       rows_per_chunk=st.sampled_from((1, 2, None)))
# every site but the top one fits in the low half at the default split
@example(graph=(1, ((0, 0, 0.3),)), with_field=False, low_bits=oracle._LOW_BITS,
         rows_per_chunk=None)
@example(graph=(1, ((0, 0, 0.3),)), with_field=True, low_bits=oracle._LOW_BITS,
         rows_per_chunk=None)
@example(graph=_ring(2), with_field=False, low_bits=oracle._LOW_BITS, rows_per_chunk=None)
@example(graph=_ring(2), with_field=True, low_bits=oracle._LOW_BITS, rows_per_chunk=None)
@example(graph=_ring(13), with_field=False, low_bits=oracle._LOW_BITS, rows_per_chunk=None)
@example(graph=_ring(13), with_field=True, low_bits=oracle._LOW_BITS, rows_per_chunk=None)
@example(graph=_ring(14), with_field=False, low_bits=oracle._LOW_BITS, rows_per_chunk=None)
@example(graph=_ring(14), with_field=True, low_bits=oracle._LOW_BITS, rows_per_chunk=None)
def test_density_of_states_matches_per_bond_reference(graph, with_field, low_bits,
                                                      rows_per_chunk):
    n, edges = graph
    structure = _edge_structure(edges)
    if with_field:
        # the field's ghost graph: one more group, bonds from every site to site n
        structure += (tuple((i, n) for i in range(n)),)
    sites = n + 1 if with_field else n
    with mock.patch.object(oracle, "_LOW_BITS", low_bits), \
            mock.patch.object(oracle, "_CHUNK_BITS",
                              _chunk_bits(rows_per_chunk, sites, low_bits)):
        dos = split_kernel(sites, structure)
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
    # 20 sites leave six high bits past the default split (the plan would
    # take a separator)
    g = build_lattice_graph(LatticeSpec(4, 5), ReducedCouplings(k_h=0.31, k_v=k_v))
    structure = _edge_structure(g.edges)
    np.testing.assert_array_equal(split_kernel(20, structure),
                                  reference_density_of_states(20, structure))


def _past_the_uint16_keys():
    # nine groups of three bonds on 16 sites: 4^9 bins, more than the 2^16
    # keys of a chunk
    rng = np.random.default_rng(11)
    pairs = list(itertools.combinations(range(16), 2))
    picks = rng.choice(len(pairs), size=27, replace=False)
    structure = tuple(tuple(sorted(pairs[i] for i in picks[g:g + 3])) for g in range(0, 27, 3))
    assert math.prod(len(g) + 1 for g in structure) > 1 << 16
    return 16, structure


def _one_high_state():
    # 15 sites: the top spin is the only high site, and it is fixed down
    g = build_lattice_graph(LatticeSpec(3, 5), ReducedCouplings(k_h=0.31, k_v=0.57))
    assert g.num_sites == oracle._LOW_BITS + 1
    return 15, _edge_structure(g.edges)


def _group_across_the_split_in_two_layers():
    # with 4 low sites, group 1 crosses the split by (0, 5), (0, 6) and
    # (2, 7): (0, 5) and (0, 6) share their low endpoint, so the changes of
    # two high spins both flip a bond at low site 0
    structure = (((0, 1), (4, 5), (3, 7)), ((0, 5), (0, 6), (2, 7), (1, 2)), ((6, 7),))
    assert [b for a, b in structure[1] if a == 0] == [5, 6]
    return 8, structure


@pytest.mark.parametrize("rows_per_chunk", [1, 2, None])
@pytest.mark.parametrize("case,low_bits", [
    (_past_the_uint16_keys, oracle._LOW_BITS),
    (_one_high_state, oracle._LOW_BITS),
    (_group_across_the_split_in_two_layers, 4),
])
def test_density_of_states_kernel_cases(case, low_bits, rows_per_chunk):
    sites, structure = case()
    with mock.patch.object(oracle, "_LOW_BITS", low_bits), \
            mock.patch.object(oracle, "_CHUNK_BITS",
                              _chunk_bits(rows_per_chunk, sites, low_bits)):
        dos = split_kernel(sites, structure)
    assert dos.dtype == np.int64
    np.testing.assert_array_equal(dos, reference_density_of_states(sites, structure))


def test_density_of_states_peak_memory():
    # one split build on the 4 x 5 and the 4 x 6 torus (two bond groups)
    # lives in a few cache-sized chunk buffers and key tables of the low
    # half, ~1.9 MiB at 24 sites; int64 keys for 2^20 states alone would
    # take 8 MiB, and one chunk of 2^23 keys 64 MiB
    for m, n in ((4, 5), (4, 6)):
        sites, structure = _torus_structure(m, n, 0.31, 0.57)
        peak, dos = peak_bytes(lambda: split_kernel(sites, structure))
        assert peak < 4 << 20
        assert dos.sum() == 2 ** sites


def test_split_build_takes_chunks_of_two_to_the_sixteen_keys():
    # the 4 x 6 torus by the split: 2^23 keys, as S's last spin is fixed, in
    # 128 chunks of 2^16, one histogram each; the last bincount is the flat DOS
    sites, structure = _torus_structure(4, 6, 0.31, 0.57)
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
        split_kernel(sites, structure)
    assert [call.args[0].size for call in bincount.call_args_list[:-1]] == [2 ** 16] * 128


def test_separator_build_peak_memory():
    # the two-group 4 x 6 torus through its separator: per-S-state histograms
    # in each side's own count space, in chunks, and the join of the two
    sites, structure = _torus_structure(4, 6, 0.31, 0.57)
    assert _plan(sites, structure)[2]
    peak, dos = peak_bytes(lambda: _density_of_states(sites, structure))
    assert peak < 4 << 20
    assert dos.sum() == 2 ** 24


def _square_tori():
    # every square torus of at most 24 sites, both ways round
    return [(m, n) for m in range(1, 25) for n in range(1, 25) if m * n <= 24]


@pytest.mark.parametrize("m,n", _square_tori())
def test_density_of_states_of_every_torus_matches_the_split(m, n):
    # one group (two where a side of 2 doubles a bond) and two groups
    for k_h, k_v in ((0.3, 0.3), (0.3, 0.5)):
        sites, structure = _torus_structure(m, n, k_h, k_v)
        np.testing.assert_array_equal(_density_of_states(sites, structure),
                                      split_kernel(sites, structure))


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_density_of_states_of_every_field_chain_matches_the_split(closed):
    for n in range(2, 21):
        sites, structure = _chain_field_structure(n, closed)
        np.testing.assert_array_equal(_density_of_states(sites, structure),
                                      split_kernel(sites, structure))


# the keys of the plan each crossval torus takes, against the split's 2^23
# (2^17 on 3 x 6).  On 3 x 6 at two couplings a plan of 5 120 keys would
# join 9 504 bins, against 4 800, in four times the multiply-adds
_CROSSVAL_PLAN_KEYS = {(2, 12, 0.3): 34_816, (2, 12, 0.5): 34_816, (3, 8, 0.3): 69_632,
                       (3, 8, 0.5): 69_632, (4, 6, 0.3): 264_192, (4, 6, 0.5): 264_192,
                       (3, 6, 0.5): 32_832}


@pytest.mark.parametrize("m,n,k_v", list(_CROSSVAL_PLAN_KEYS))
def test_the_largest_crossval_tori_take_a_separator(m, n, k_v):
    g = build_lattice_graph(LatticeSpec(m, n), ReducedCouplings(k_h=0.3, k_v=k_v))
    with mock.patch.object(oracle, "_count_through", wraps=_count_through) as count, \
            mock.patch.object(oracle, "_split_plan", wraps=_split_plan) as split, \
            mock.patch.dict(oracle._DOS_CACHE, clear=True):
        enumerate_partition_graph(g)
    assert count.call_count == 1 and not split.called
    sites, structure, plan = count.call_args.args
    _, side_a, side_b = plan
    assert side_a and side_b
    _assert_separates(plan, sites, structure)
    assert _plan_keys(plan) == _CROSSVAL_PLAN_KEYS[m, n, k_v]


@settings(max_examples=60, deadline=None)
@given(graph=spin_graphs(), with_field=st.booleans())
@example(graph=_ring(13), with_field=True)
@example(graph=(1, ((0, 0, 0.3),)), with_field=True)
def test_separator_engine_matches_per_bond_reference(graph, with_field):
    n, edges = graph
    sites, structure = _field_structure(n, edges) if with_field else (n, _edge_structure(edges))
    # no separator within the planner's bounds (no bond but self-loops, say)
    # leaves the split
    best = _separator(sites, structure)
    plan = _split_plan(sites) if best is None else best[1]
    _assert_separates(plan, sites, structure)
    if with_field:
        assert n in plan[0]
    np.testing.assert_array_equal(_count_through(sites, structure, plan),
                                  reference_density_of_states(sites, structure))


def test_planner_on_a_disconnected_graph():
    # two rings of ten sites: one site of the first ring separates it from
    # the second, which needs no separator of its own
    edges = [(i, (i + 1) % 10, 0.3) for i in range(10)]
    edges += [(10 + i, 10 + (i + 1) % 10, 0.3) for i in range(10)]
    structure = _edge_structure(edges)
    plan = _plan(20, structure)
    _assert_separates(plan, 20, structure)
    assert _plan_keys(plan) <= 2 ** 12
    np.testing.assert_array_equal(_density_of_states(20, structure), split_kernel(20, structure))


def test_planner_with_self_loops_and_parallel_edges():
    # a ring of 18 sites with a self-loop on every third site, a doubled bond
    # and one pair in two groups.  The self-loops are in no group, so they
    # never reach the planner
    edges = [(i, (i + 1) % 18, 0.3) for i in range(18)]
    edges += [(i, i, 0.7) for i in range(0, 18, 3)] + [(4, 5, 0.3), (7, 8, -0.5)]
    structure = _edge_structure(edges)
    plan = _plan(18, structure)
    assert plan[2]
    _assert_separates(plan, 18, structure)
    np.testing.assert_array_equal(_density_of_states(18, structure),
                                  reference_density_of_states(18, structure))


@pytest.mark.parametrize("n,closed", [(17, False), (20, True)])
def test_planner_keeps_the_field_ghost_in_the_separator(n, closed):
    sites, structure = _chain_field_structure(n, closed)
    plan = _plan(sites, structure)
    assert n in plan[0] and plan[2]
    _assert_separates(plan, sites, structure)


def test_complete_graph_takes_the_split():
    # every site is bonded to every other: S would be every site
    structure = _edge_structure([(a, b, 0.3) for a, b in itertools.combinations(range(16), 2)])
    assert _separator(16, structure) is None
    assert _plan(16, structure) == _split_plan(16)
    np.testing.assert_array_equal(_density_of_states(16, structure),
                                  reference_density_of_states(16, structure))


def test_no_separator_within_the_bounds_takes_the_split():
    # the 20-site cocktail-party graph, K_20 less a perfect matching: no site
    # is universal, and from every root the BFS layers are the root, its 18
    # neighbours and its partner, so every separator breaks a bound
    structure = _edge_structure([(a, b, 0.3) for a, b in itertools.combinations(range(20), 2)
                                 if a // 2 != b // 2])
    assert _separator(20, structure) is None
    assert _plan(20, structure) == _split_plan(20)
    # of the ten unbonded pairs, `up` have both spins up and `split` one: u =
    # 2 up + split spins are up, and u (20 - u) - split bonds antiparallel
    want = np.zeros(181, dtype=np.int64)
    for up, split in itertools.product(range(11), repeat=2):
        if up + split <= 10:
            u = 2 * up + split
            want[u * (20 - u) - split] += math.comb(10, up) * math.comb(10 - up, split) << split
    np.testing.assert_array_equal(_density_of_states(20, structure), want)


def test_repeated_bonds_stay_in_their_couplings_group():
    # a 24-site open chain, bond i repeated i + 1 times: one coupling, so one
    # group of 276 bonds and 277 bins, counted through the separator.  A group
    # per multiplicity would take 2^23 bins, past the direct fallback's limit
    k = 0.3
    edges = tuple((i, i + 1, k) for i in range(23) for _ in range(i + 1))
    with mock.patch.object(oracle, "_enumerate_direct", side_effect=AssertionError), \
            mock.patch.dict(oracle._DOS_CACHE, clear=True):
        log_z = enumerate_partition_graph(WeightedGraph(24, edges))
        ((sites, structure),) = oracle._DOS_CACHE
    assert sites == 24 and len(structure) == 1 and len(structure[0]) == 276
    want = math.log(2) + math.fsum(math.log(2 * math.cosh((i + 1) * k)) for i in range(23))
    assert log_z == pytest.approx(want, rel=1e-15)


def test_isotropic_side_two_torus_has_one_group():
    # 2 x 12 at k_h = k_v: 24 horizontal bonds and 12 doubled vertical ones,
    # all in one group of 48 bonds
    k = 0.37
    g = build_lattice_graph(LatticeSpec(2, 12), ReducedCouplings(k_h=k, k_v=k))
    with mock.patch.dict(oracle._DOS_CACHE, clear=True):
        log_z = enumerate_partition_graph(g)
        (((sites, structure), dos),) = oracle._DOS_CACHE.items()
    assert sites == 24 and len(structure) == 1 and len(dos) == 49
    assert log_z == pytest.approx(kaufman_partition(2, 12, k, k), rel=1e-13)


def test_side_one_torus_keeps_its_self_loops_out_of_the_count_space():
    # 1 x 20 in a field: the vertical wraps are self-loops, each a factor e^k_v.
    # The count space is the ring's 20 bonds and the ghost's 20: 21^2 bins
    k_h, k_v, h = 0.4, -0.7, 0.25
    g = build_lattice_graph(LatticeSpec(1, 20), ReducedCouplings(k_h=k_h, k_v=k_v))
    with mock.patch.dict(oracle._DOS_CACHE, clear=True):
        log_z = enumerate_partition_graph(g, h)
        (((sites, structure), dos),) = oracle._DOS_CACHE.items()
    assert sites == 21 and len(dos) == 21 ** 2
    assert all(a != b for pairs in structure for a, b in pairs)
    ring = transfer_closed(ChainParams(n_spins=20, k=k_h, h=h, closed=True))
    assert log_z == pytest.approx(ring + 20 * k_v, rel=1e-14)


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
] + [("chain", boundary, 1, cols) for boundary in BOUNDARIES for cols in (1, 2, 3)])
def test_lattice_graphs_agree_with_naive_sum(geometry, boundary, rows, cols):
    spec = LatticeSpec(rows, cols, geometry=geometry, boundary=boundary)
    c = ReducedCouplings(k_h=0.31, k_v=0.57, k_d=0.23)
    g = build_lattice_graph(spec, c)
    assert g.num_sites == (2 if geometry == "honeycomb" else 1) * rows * cols
    if geometry == "chain":
        # k_h bonds to the next site, and from the last to the first where
        # the row wraps; a ring of one spin is a self-loop, of two a doubled bond
        bonds = cols if boundary in ("torus", "cylinder_h") else cols - 1
        assert g.edges == tuple((j, (j + 1) % cols, c.k_h) for j in range(bonds))
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


def test_one_dos_per_torus_whatever_the_coupling_order():
    # 3 x 4 at (0.3, 0.5) and at (0.5, 0.3): one canonical group order, so the
    # second call reads the first one's density of states
    spec = LatticeSpec(3, 4)
    first = build_lattice_graph(spec, ReducedCouplings(k_h=0.3, k_v=0.5))
    swapped = build_lattice_graph(spec, ReducedCouplings(k_h=0.5, k_v=0.3))
    with mock.patch.dict(oracle._DOS_CACHE, clear=True):
        enumerate_partition_graph(first)
        log_z = enumerate_partition_graph(swapped)
        assert len(oracle._DOS_CACHE) == 1
        oracle._DOS_CACHE.clear()
        assert enumerate_partition_graph(swapped) == log_z
    assert log_z == pytest.approx(naive_log_z(swapped), rel=1e-12)


def test_dos_cache_evicts_the_oldest_past_its_byte_bound(monkeypatch):
    # four tori, m n bonds in each of two groups: (m n + 1)^2 int64 bins.
    # A bound of the two newest entries must evict the two oldest
    specs = [LatticeSpec(3, 3), LatticeSpec(3, 4), LatticeSpec(3, 5), LatticeSpec(4, 4)]
    graphs = [build_lattice_graph(spec, ReducedCouplings(k_h=0.3, k_v=0.5)) for spec in specs]
    sizes = [8 * (spec.rows * spec.cols + 1) ** 2 for spec in specs]
    bound = sizes[-1] + sizes[-2]
    monkeypatch.setattr(oracle, "_DOS_CACHE_BYTES", bound)
    with mock.patch.dict(oracle._DOS_CACHE, clear=True):
        for g, size in zip(graphs, sizes):
            assert enumerate_partition_graph(g) == pytest.approx(_enumerate_direct(g, 0.0),
                                                                 rel=1e-12)
            held = [dos.nbytes for dos in oracle._DOS_CACHE.values()]
            assert size in held and sum(held) <= bound
        assert sorted(held) == sizes[-2:]


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


@pytest.mark.parametrize("count", [count_matchings_dp, count_matchings],
                         ids=["row transfer", "backtracker"])
def test_matching_counts_refuse_a_partial_count_below_the_float_range(count):
    # 4 x 5 at (z1, z2) = (1e-200, 1e13) counts 9 z1^2 z2^8 = 9e-296, a
    # normal float, but labeling weights and partial products on the way are
    # not: the row transfer gave 4.0e-296 and the backtracker 9.0138e-296.
    # 4 x 2 at 1e-100 (count 5e-400) gave 0, though every labeling weight is
    # normal; 2 x 1 has a subnormal weight
    for m, n, w in ((4, 5, MatchingWeights(1e-200, 1e13)), (5, 4, MatchingWeights(1e13, 1e-200)),
                    (4, 2, MatchingWeights(1e-100, 1e-100)), (2, 1, MatchingWeights(1e-310, 1.0))):
        with pytest.raises(DomainError, match="below the normal float range"):
            count(m, n, w)
    # a zero weight keeps its exact 0, and a count whose partial counts stay
    # normal is answered
    assert count(2, 3, MatchingWeights(0.0, 1.0)) == 0.0
    assert count(3, 2, MatchingWeights(1.0, 0.0)) == 0.0
    assert count(4, 4, MatchingWeights(1e-40, 1.0)) == 1.0


def test_matching_dp_checks_rows_once_its_bound_passes_below_the_float_range():
    # the least labeling weight is 1/4, so after ~510 rows the bound of the
    # partial counts is below the range: each such row is checked, and the
    # bound reset from the partial counts, with the count unchanged
    w = MatchingWeights(0.5, 1.0)
    assert count_matchings_dp(1000, 2, w) == pytest.approx(dimer_count_free_product(1000, 2, w),
                                                           rel=1e-12)


@pytest.mark.parametrize("m,n", [(967_555, 2), (2, 967_555)])
def test_matching_dp_refuses_an_overflowed_strip_early(m, n):
    # Fibonacci growth passes the float range after ~1480 of the ~1e6 rows
    start = time.perf_counter()
    with pytest.raises(DomainError, match="float range"):
        count_matchings_dp(m, n)
    assert time.perf_counter() - start < 0.1


def test_enumeration_past_the_float_range_is_a_domain_error():
    g = build_lattice_graph(LatticeSpec(4, 4), ReducedCouplings(k_h=1e308, k_v=1e308))
    with pytest.raises(DomainError, match="float range"):
        enumerate_partition_graph(g)
