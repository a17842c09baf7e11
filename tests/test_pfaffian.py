import collections
import functools
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_kacward_product_against_mpmath
from isingexact.core import CapacityError, DomainError, K_CRIT, LatticeSpec, ReducedCouplings
from isingexact.oracle import (
    MatchingWeights,
    build_lattice_graph,
    count_matchings,
    count_matchings_dp,
    count_matchings_graph,
    enumerate_partition_graph,
)
from isingexact.pfaffian import (
    _A0,
    _column_sweep,
    _dimer_blocks,
    _ising_blocks,
    _TORUS_TERMS,
    TORUS_VARIANTS,
    build_dimer_matrix,
    dimer_count_free,
    dimer_count_torus,
    ising_pfaffian_torus,
    ising_torus_logdet,
    pfaffian,
    pfaffian_value,
)
from isingexact.spectral import dimer_count_free as dimer_product
from isingexact.spectral import GridParity, kacward_log_z, kacward_products, kaufman_partition


def _random_skew(dim, rng):
    a = rng.normal(size=(dim, dim))
    return a - a.T


def reference_pfaffian(a):
    """Unblocked Parlett-Reid: every rank-2 update is applied at its step."""
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    scale = float(np.abs(a).max())
    if scale == 0.0:
        return (0, -math.inf)
    sign = 1
    log_mag = 0.0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if abs(a[kp, k]) <= 1e-12 * scale:
            return (0, -math.inf)
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            sign = -sign
        piv = a[k, k + 1]
        sign *= 1 if piv > 0 else -1
        log_mag += math.log(abs(piv))
        if k + 2 < n:
            tau = a[k, k + 2:] / piv
            w = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, w) - np.outer(w, tau)
    return (sign, log_mag)


def _ising_block_matrix(m, n, z1, z2, s1, s2):
    """4mn-dimensional antisymmetric matrix of the cluster construction,
    built densely: each site carries a 4-node cluster (R, L, U, D); z1
    connects (R, L) of row-neighboring clusters, z2 connects (U, D) of
    column-neighboring clusters, with wrap signs (s1, s2)."""
    e1 = np.zeros((4, 4)); e1[0, 1] = 1.0          # (R, L)
    e2 = np.zeros((4, 4)); e2[2, 3] = 1.0          # (U, D)
    h_m = np.eye(m, k=1); h_m[m - 1, 0] = s1
    h_n = np.eye(n, k=1); h_n[n - 1, 0] = s2
    i_m = np.eye(m)
    i_n = np.eye(n)
    a = np.kron(i_n, np.kron(i_m, _A0))
    a += np.kron(i_n, np.kron(h_m, z1 * e1) + np.kron(h_m.T, -z1 * e1.T))
    a += np.kron(h_n, np.kron(i_m, z2 * e2)) + np.kron(h_n.T, np.kron(i_m, -z2 * e2.T))
    return a


def _assert_matches_reference(a):
    sign, log_mag = pfaffian(a)
    ref_sign, ref_log_mag = reference_pfaffian(a)
    assert sign == ref_sign
    assert log_mag == pytest.approx(ref_log_mag, rel=1e-10)


def test_canonical_block_matrix():
    # Pf of the direct sum of [[0, a], [-a, 0]] blocks is the product of the a's
    vals = [2.0, -3.0, 0.5]
    a = np.zeros((6, 6))
    for i, v in enumerate(vals):
        a[2 * i, 2 * i + 1] = v
        a[2 * i + 1, 2 * i] = -v
    assert pfaffian_value(a) == pytest.approx(math.prod(vals), rel=1e-13)


@pytest.mark.parametrize("dim", list(range(2, 65, 2)) + [66, 96, 128, 130, 200])
def test_pfaffian_squared_equals_determinant(dim):
    rng = np.random.default_rng(1234 + dim)
    a = _random_skew(dim, rng)
    sign, log_mag = pfaffian(a)
    logdet = np.linalg.slogdet(a)[1]
    assert sign in (-1, 1)
    assert 2.0 * log_mag == pytest.approx(logdet, rel=1e-8)


def test_singular_matrix_flagged():
    a = np.zeros((4, 4))
    sign, log_mag = pfaffian(a)
    assert sign == 0 and log_mag == -math.inf


# dimensions on both sides of the pending-update flushes (every 32 steps)
@pytest.mark.parametrize("dim", [2, 62, 64, 66, 126, 128, 130, 258])
def test_blocked_matches_reference(dim):
    _assert_matches_reference(_random_skew(dim, np.random.default_rng(77 + dim)))


@pytest.mark.parametrize("side", [2, 4, 6, 8])
@pytest.mark.parametrize("s1,s2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_cluster_matrices_match_reference_at_criticality(side, s1, s2):
    # at K_c the (+, +) variant is singular up to roundoff
    z = math.tanh(K_CRIT)
    _assert_matches_reference(_ising_block_matrix(side, side, z, z, s1, s2))


def test_singular_mid_block():
    a = np.zeros((80, 80))
    a[:10, :10] = _random_skew(10, np.random.default_rng(3))
    assert pfaffian(a) == (0, -math.inf)


def test_singular_only_after_pending_updates():
    # rank 10: the stored columns stay nonzero after five steps, and only
    # the deferred updates cancel them
    rng = np.random.default_rng(4)
    b = rng.normal(size=(80, 10))
    j = np.kron(np.eye(5), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    x = b @ j @ b.T
    a = x - x.T
    assert pfaffian(a) == (0, -math.inf)
    assert reference_pfaffian(a) == (0, -math.inf)


@given(st.permutations(range(6)))
@settings(max_examples=50, deadline=None)
def test_permutation_transforms_by_parity(perm):
    rng = np.random.default_rng(99)
    a = _random_skew(6, rng)
    p = np.eye(6)[list(perm)]
    parity = round(np.linalg.det(p))
    s0, m0 = pfaffian(a)
    s1, m1 = pfaffian(p @ a @ p.T)
    assert s1 == parity * s0
    assert m1 == pytest.approx(m0, rel=1e-10)


def test_congruence_scaling():
    # Pf(B A B^T) = det(B) Pf(A)
    rng = np.random.default_rng(5)
    a = _random_skew(8, rng)
    b = rng.normal(size=(8, 8))
    lhs = pfaffian_value(b @ a @ b.T)
    assert lhs == pytest.approx(np.linalg.det(b) * pfaffian_value(a), rel=1e-9)


# ---------------------------------------------------------------- dimers

@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4), (4, 4), (4, 5), (6, 6)])
def test_free_dimer_count_matches_enumeration(m, n):
    w = MatchingWeights(z1=1.0, z2=1.0)
    assert dimer_count_free(m, n, w) == pytest.approx(count_matchings(m, n, w), rel=1e-10)
    assert dimer_count_free(m, n, w) == pytest.approx(dimer_product(m, n, w), rel=1e-10)


def test_free_dimer_count_weighted():
    w = MatchingWeights(z1=1.7, z2=0.4)
    for m, n in [(2, 4), (4, 3), (4, 4)]:
        assert dimer_count_free(m, n, w) == pytest.approx(count_matchings(m, n, w), rel=1e-10)


def _wrapped_grid_edges(m, n, z1, z2):
    edges = []
    for j in range(n):
        for i in range(m):
            edges.append((j * m + i, j * m + (i + 1) % m, z1))
            edges.append((j * m + i, ((j + 1) % n) * m + i, z2))
    # a side of length 2 wraps onto an existing bond: the doubled edge acts
    # as a single edge whose matching weight is the sum of the two copies
    seen = {}
    for a, b, w in edges:
        key = (min(a, b), max(a, b))
        if key[0] != key[1]:
            seen[key] = seen.get(key, 0.0) + w
    return [(a, b, w) for (a, b), w in seen.items()]


@pytest.mark.parametrize("m,n", [(2, 3), (4, 3), (3, 4), (4, 4), (2, 4)])
def test_torus_dimer_count_matches_enumeration(m, n):
    w = MatchingWeights(z1=1.0, z2=1.0)
    edges = _wrapped_grid_edges(m, n, 1.0, 1.0)
    want = count_matchings_graph(m * n, edges)
    assert dimer_count_torus(m, n, w) == pytest.approx(want, rel=1e-9)


def test_torus_dimer_count_odd_odd_is_zero():
    assert dimer_count_torus(3, 5) == 0.0


def _matchings_by_z1_dimers(num_sites, edges):
    """Exact integer counts of the perfect matchings by their number of z1
    dimers, by backtracking; edges (a, b, is_z1), parallel edges distinct."""
    adj = [[] for _ in range(num_sites)]
    for a, b, is_z1 in edges:
        adj[a].append((b, is_z1))
        adj[b].append((a, is_z1))
    full = (1 << num_sites) - 1

    @functools.lru_cache(maxsize=None)
    def rec(cov):
        if cov == full:
            return ((0, 1),)
        p = (~cov & (cov + 1)).bit_length() - 1
        counts = collections.Counter()
        for q, is_z1 in adj[p]:
            if not cov >> q & 1:
                for t, c in rec(cov | 1 << p | 1 << q):
                    counts[t + is_z1] += c
        return tuple(counts.items())

    return dict(rec(0)) if num_sites % 2 == 0 else {}


def _grid_edges_by_kind(m, n, wrap):
    """Bonds of the m x n grid (site i * n + j), z1 along i; on the torus
    a side of length 2 doubles its bonds."""
    edges = []
    for i in range(m):
        for j in range(n):
            if i + 1 < m or wrap:
                edges.append((i * n + j, (i + 1) % m * n + j, 1))
            if j + 1 < n or wrap:
                edges.append((i * n + j, i * n + (j + 1) % n, 0))
    return edges


_RATIO_EXPONENTS = [s * e for e in (3, 6, 9, 12, 13, 15, 20, 25, 30) for s in (1, -1)]


@pytest.mark.parametrize("bc,m,n", [("free", m, n) for m in range(1, 7) for n in range(1, 7)]
                         + [("torus", m, n) for m, n in [(2, 3), (4, 3), (3, 4), (4, 4), (2, 4)]])
def test_dimer_counts_at_extreme_weight_ratios_are_right_or_refused(bc, m, n):
    # z1 / z2 = 1e+-3 ... 1e+-30: each route agrees with the exact counts by
    # number of z1 dimers, summed in log space, to 1e-12, or raises a
    # DomainError.  Past a ratio of ~1e12 the sweeps' singular test and the
    # product's midpoint cosine used to return 0 or a wrong count
    counts = _matchings_by_z1_dimers(m * n, _grid_edges_by_kind(m, n, bc == "torus"))
    routes = ((dimer_count_free, dimer_product) if bc == "free" else (dimer_count_torus,))
    for e in _RATIO_EXPONENTS:
        z1, z2 = 10.0 ** (e / 2), 10.0 ** (-e / 2)
        logs = [math.log(c) + t * math.log(z1) + (m * n // 2 - t) * math.log(z2)
                for t, c in counts.items()]
        for route in routes:
            try:
                got = route(m, n, MatchingWeights(z1, z2))
            except DomainError:
                continue
            if not counts:
                assert got == 0.0
                continue
            top = max(logs)
            want = top + math.log(math.fsum(math.exp(x - top) for x in logs))
            assert got > 0.0 and abs(math.log(got) - want) <= 1e-12, (route, e, got)


@pytest.mark.parametrize("route", [dimer_count_free, dimer_count_torus, dimer_product])
def test_dimer_count_below_the_float_range_is_a_domain_error(route):
    # the count 1e-1600, and a 2 x 3 grid whose sweep is singular and whose
    # product factor squares underflow; a zero weight keeps its exact 0
    for m, n, w in ((4, 4, MatchingWeights(1e-200, 1e-200)), (2, 3, MatchingWeights(1e-160, 1.0)),
                    (2, 2, MatchingWeights(0.0, 1e-200))):
        with pytest.raises(DomainError, match="below the normal float range"):
            route(m, n, w)
    assert route(2, 3, MatchingWeights(0.0, 1.0)) == 0.0
    assert route(3, 2, MatchingWeights(1.0, 0.0)) == 0.0


@pytest.mark.parametrize("m,n,w", [(16, 24, MatchingWeights(0.6, 1.2)),
                                   (20, 32, MatchingWeights(1.1, 0.7))])
def test_large_torus_dimer_count_against_reference_pfaffians(m, n, w):
    # the reference is 1/2 (-Pf A1 + Pf A2 + Pf A3 + Pf A4) of the dense
    # build_dimer_matrix variants by the unblocked reference_pfaffian, which
    # shares no code with the sweep; both orientations of the route are checked
    spec = LatticeSpec(m, n, "square", "torus")
    terms = [reference_pfaffian(build_dimer_matrix(spec, w, variant))
             for variant in ("torus1", "torus2", "torus3", "torus4")]
    top = max(log_mag for _, log_mag in terms)
    want = top + math.log(math.fsum(weight * sign * math.exp(log_mag - top)
                                    for weight, (sign, log_mag)
                                    in zip((-0.5, 0.5, 0.5, 0.5), terms)))
    assert math.log(dimer_count_torus(m, n, w)) == pytest.approx(want, rel=0.0, abs=1e-12)
    assert math.log(dimer_count_torus(n, m, MatchingWeights(w.z2, w.z1))) == pytest.approx(
        want, rel=0.0, abs=1e-12)


def reference_skew_shift(length, corner):
    """Skew shift matrix: +1 on the superdiagonal, antisymmetric completion,
    and `corner` in the (last, first) slot for wrapped boundaries."""
    q = np.zeros((length, length))
    for i in range(length - 1):
        q[i, i + 1] = 1.0
        q[i + 1, i] = -1.0
    if corner != 0.0 and length > 1:
        q[length - 1, 0] += corner
        q[0, length - 1] += -corner
    return q


_REFERENCE_WRAP_SIGNS = {
    "free": (0.0, 0.0), "cylinder_a": (0.0, -1.0), "cylinder_b": (-1.0, 0.0),
    "torus1": (1.0, 1.0), "torus2": (1.0, -1.0), "torus3": (-1.0, 1.0), "torus4": (-1.0, -1.0),
}


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 4), (4, 4), (4, 5), (6, 3)])
@pytest.mark.parametrize("variant", list(_REFERENCE_WRAP_SIGNS))
def test_dimer_matrix_matches_reference(m, n, variant):
    w = MatchingWeights(1.7, 0.4)
    s1, s2 = _REFERENCE_WRAP_SIGNS[variant]
    f_m = np.diag((-1.0) ** (np.arange(m) + 1))
    want = (w.z1 * np.kron(np.eye(n), reference_skew_shift(m, s1))
            + w.z2 * np.kron(reference_skew_shift(n, s2), f_m))
    got = build_dimer_matrix(LatticeSpec(m, n), w, variant)
    assert np.array_equal(got, want)


def test_dimer_matrix_is_skew():
    spec = LatticeSpec(4, 4)
    for variant in ("free", "cylinder_a", "torus1", "torus4"):
        km = build_dimer_matrix(spec, MatchingWeights(1.0, 2.0), variant)
        assert np.allclose(km, -km.T)


# ------------------------------------------------------------ ising via pfaffians

def _oracle_torus(m, n, kh, kv):
    g = build_lattice_graph(LatticeSpec(m, n), ReducedCouplings(k_h=kh, k_v=kv))
    return enumerate_partition_graph(g)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 5), (3, 1), (2, 2), (2, 3), (3, 3),
                                 (3, 4), (4, 4), (3, 5)])
@pytest.mark.parametrize("kh,kv", [(0.3, 0.3), (0.3, 0.6), (0.9, 0.2)])
def test_ising_pfaffian_against_oracle(m, n, kh, kv):
    assert ising_pfaffian_torus(m, n, kh, kv) == pytest.approx(
        _oracle_torus(m, n, kh, kv), rel=1e-9)


def test_closed_form_determinant_cross_check():
    # log det from the momentum grids equals twice the Pfaffian log-magnitude;
    # ising_pfaffian_torus asserts this internally, so a finite return suffices
    z1, z2 = math.tanh(0.4), math.tanh(0.7)
    for s1, s2 in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]:
        assert math.isfinite(ising_torus_logdet(4, 3, z1, z2, s1, s2))
    assert math.isfinite(ising_pfaffian_torus(4, 3, 0.7, 0.4))


_PARITY = {1.0: "integer", -1.0: "half"}


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 5), (4, 4), (5, 7)])
@pytest.mark.parametrize("kh,kv", [(0.3, 0.6), (0.9, 0.2), (K_CRIT, K_CRIT)])
def test_closed_form_determinant_is_the_kacward_product(m, n, kh, kv):
    z1, z2 = math.tanh(kv), math.tanh(kh)
    for s1, s2 in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]:
        log_p = kacward_products(m, n, kh, kv, GridParity(_PARITY[s1], _PARITY[s2]))
        assert ising_torus_logdet(m, n, z1, z2, s1, s2) == log_p


def test_closed_form_determinant_vanishes_at_criticality():
    # at the float K_CRIT the determinant is tiny, not zero; it vanishes
    # where the float gap 1 - z2 z1 - z1 - z2 does, as at (z1, z2) = (1, 0)
    # or at the couplings (0.4, 0.4838591725683765)
    z = math.tanh(K_CRIT)
    for m, n in [(2, 2), (3, 4), (5, 7)]:
        assert_kacward_product_against_mpmath(ising_torus_logdet(m, n, z, z, 1.0, 1.0),
                                              m, n, z, z, "integer", "integer")
        assert ising_torus_logdet(m, n, 1.0, 0.0, 1.0, 1.0) == -math.inf
        assert kacward_products(m, n, 0.4, 0.4838591725683765, GridParity()) == -math.inf


@pytest.mark.parametrize("kh,kv", [(K_CRIT, K_CRIT), (0.3, 0.6)])
def test_large_torus_against_spectral_routes(kh, kv):
    # four Pfaffians of dimension 1600
    got = ising_pfaffian_torus(20, 20, kh, kv)
    assert got == pytest.approx(kaufman_partition(20, 20, kv, kh), rel=1e-9)
    assert got == pytest.approx(kacward_log_z(20, 20, kh, kv), rel=1e-9)


def test_counts_past_the_float_range_are_domain_errors():
    for count in (dimer_count_free, dimer_count_torus):
        with pytest.raises(DomainError, match="float range"):
            count(4, 4, MatchingWeights(1e200, 1.0))
    with pytest.raises(DomainError, match="float range"):
        pfaffian_value(1e200 * np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(DomainError, match="float range"):
        ising_pfaffian_torus(4, 4, 1e308, 1e308)


# ------------------------------------------------------------ column-front sweep

def _block_matrix(d, c, n, wrap):
    """The dense n-column matrix I (x) D + H (x) C - H^T (x) C^T of a sweep."""
    h = np.eye(n, k=1)
    h[n - 1, 0] += wrap
    return np.kron(np.eye(n), d) + np.kron(h, c) - np.kron(h.T, c.T)


def _assert_same_pfaffian(got, want):
    assert got[0] == want[0], (got, want)
    if want[0]:
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-11)
    else:
        assert got == want == (0, -math.inf)


_SWEEP_COUPLINGS = [1e-300, 1e-8, 0.3, K_CRIT, 1.2, 2.0, 5.0, 10.0, 18.0, 80.0, 400.0]


@pytest.mark.parametrize("m,n", [(3, 5), (5, 3), (5, 7), (2, 12), (12, 2), (6, 6),
                                 (2, 8), (3, 8), (4, 8), (2, 16)])
@pytest.mark.parametrize("k", _SWEEP_COUPLINGS)
def test_sweep_matches_dense_cluster_pfaffian(m, n, k):
    # 6 x 6 at K = 2 and 3 x 5 at K = 5 break a sweep whose pivots need only
    # clear an absolute 1e-12; large K breaks pivoting within one column
    for z1, z2 in ((math.tanh(k), math.tanh(k)), (math.tanh(0.6 * k), math.tanh(k))):
        for s1, s2, _ in _TORUS_TERMS.values():
            d, c = _ising_blocks(m, z1, z2, s1)
            assert np.array_equal(_block_matrix(d, c, n, s2),
                                  _ising_block_matrix(m, n, z1, z2, s1, s2))
            _assert_same_pfaffian(_column_sweep(d, c, n, (s2,))[0],
                                  pfaffian(_ising_block_matrix(m, n, z1, z2, s1, s2)))


@pytest.mark.parametrize("m,n", [(2, 12), (12, 2), (4, 7), (6, 5), (3, 4), (4, 1), (1, 6), (2, 2),
                                 (2, 8), (4, 8), (2, 16)])
@pytest.mark.parametrize("z1,z2", [(1.0, 1.0), (1.7, 0.4), (0.2, 3.0), (1e-8, 1.0), (0.7, 0.0)])
def test_sweep_matches_dense_dimer_pfaffian(m, n, z1, z2):
    w = MatchingWeights(z1, z2)
    spec = LatticeSpec(m, n)
    # the free grid and the cylinders are the sweeps with a zero wrap
    cases = [("free", 0.0, 0.0), ("cylinder_a", 0.0, -1.0), ("cylinder_b", -1.0, 0.0)]
    cases += [(v, s1, s2) for v, (s1, s2, _) in _TORUS_TERMS.items()]
    for variant, s1, wrap in cases:
        d, c = _dimer_blocks(m, w, s1)
        want = build_dimer_matrix(spec, w, variant)
        assert np.array_equal(_block_matrix(d, c, n, wrap), want)
        got, = _column_sweep(d, c, n, (wrap,))
        _assert_same_pfaffian(got, pfaffian(want))


def _delaying_local_column():
    """Blocks (D, C) of 4 nodes whose local nodes 0 and 1 each peak at a
    coupled node (2 and 3), so the local step delays both."""
    d = np.zeros((4, 4))
    d[0, 1], d[0, 2], d[1, 3], d[2, 3] = 0.1, 1.0, 1.0, 0.5
    c = np.zeros((4, 4))
    c[2, 3] = 0.7
    return d - d.T, c


def _ising_sweep(m, k, s1=1.0):
    return _ising_blocks(m, math.tanh(0.6 * k), math.tanh(k), s1)


# (blocks, columns, wraps, [(step, nodes in, nodes out or None if refused)])
_SWEEP_BRANCHES = {
    "no local nodes": (_dimer_blocks(2, MatchingWeights(1.0, 1.0), -1.0), 8, (1.0, -1.0),
                       [("local", 2, None), ("halve", 2, 2), ("halve", 2, 2)]),
    "local elimination refused": (_delaying_local_column(), 4, (1.0, -1.0),
                                  [("local", 4, None), ("halve", 4, 4)]),
    "level refused": (_ising_sweep(2, 18.0), 4, (1.0, -1.0),
                      [("local", 8, 6), ("halve", 6, None)]),
    "merge": (_dimer_blocks(2, MatchingWeights(0.2, 3.0), 1.0), 8, (1.0, -1.0),
              [("local", 2, None), ("halve", 2, None), ("halve", 4, 4)]),
    "merge refused": (_ising_sweep(2, 2.0), 8, (1.0, -1.0),
                      [("local", 8, 6), ("halve", 6, None), ("halve", 12, None)]),
    "reduction down to one close front": (_ising_sweep(2, 0.3), 16, (1.0, -1.0),
                                          [("local", 8, 6)] + [("halve", 6, 6)] * 3),
    # a free sweep is a chain: an even one loses its first column, an odd
    # one its interior odd columns
    "free sweep": (_ising_sweep(2, 0.3), 16, (0.0,),
                   [("local", 8, 6)] + [("first", 6, 6), ("halve", 6, 6)] * 3),
    # the merged torus halves once, then its next level is refused: a sweep
    # merges at most once
    "merge once": (_dimer_blocks(6, MatchingWeights(0.8, 1.1), 1.0), 32, (1.0, -1.0),
                   [("local", 6, None), ("halve", 6, None), ("halve", 12, 12),
                    ("halve", 12, None)]),
    # an uncoupled column of even size is all local nodes, eliminated whole
    "uncoupled even column": (_dimer_blocks(4, MatchingWeights(1.0, 0.0), 0.0), 6, (0.0,),
                              [("local", 4, 0)]),
    # zero blocks: every step meets a singular column, and the closes are singular
    "zero column": ((np.zeros((4, 4)), np.zeros((4, 4))), 1, (0.0, 1.0, -1.0),
                    [("local", 4, None)]),
    "zero torus": ((np.zeros((4, 4)), np.zeros((4, 4))), 6, (1.0, -1.0),
                   [("local", 4, None), ("halve", 4, None), ("halve", 8, None)]),
    "free chain, odd count": (_ising_sweep(2, 0.3), 9, (0.0,),
                              [("local", 8, 6)] + [("halve", 6, 6)] * 3),
    "free chain, even count": (_dimer_blocks(2, MatchingWeights(1.0, 0.5), 0.0), 6, (0.0,),
                               [("local", 2, None), ("first", 2, 2), ("halve", 2, 2),
                                ("halve", 2, 2)]),
    # 10 -> 5 by the periodic level, then 5 -> 3 -> 2 as a chain whose ends
    # the wrap ties
    "odd torus after halving": (_ising_sweep(2, 0.3), 10, (1.0, -1.0),
                                [("local", 8, 6)] + [("halve", 6, 6)] * 3),
    "odd torus loses its first column": (_ising_sweep(2, 0.3), 7, (1.0, -1.0),
                                         [("local", 8, 6), ("halve", 6, 6), ("first", 6, 6),
                                          ("halve", 6, 6)]),
    # every node peaks at the next column: the merged chain of 6 loses its
    # first column, then halves twice
    "chain merge": (_dimer_blocks(2, MatchingWeights(0.2, 3.0), 0.0), 12, (0.0,),
                    [("local", 2, None), ("first", 2, None), ("first", 4, 4), ("halve", 4, 4),
                     ("halve", 4, 4)]),
    "chain merge of a torus": (_dimer_blocks(2, MatchingWeights(0.2, 3.0), 1.0), 6, (1.0, -1.0),
                               [("local", 2, None), ("halve", 2, None), ("halve", 4, 4)]),
    # the second level is refused, and the front loop sweeps the 5 columns
    # left, whose ends differ from the interior ones
    "chain level refused": (_ising_blocks(2, math.tanh(0.24), math.tanh(1.2), 1.0), 9, (1.0, -1.0),
                            [("local", 8, 6), ("halve", 6, 6), ("halve", 6, None)]),
    "chain merge refused": (_ising_blocks(2, math.tanh(0.24), math.tanh(1.2), 1.0), 11, (1.0, -1.0),
                            [("local", 8, 6), ("halve", 6, 6), ("first", 6, None),
                             ("halve", 12, None)]),
    # strong coupling: every level steps aside, on a torus and a free chain
    "strong odd torus": (_ising_sweep(2, 18.0), 9, (1.0, -1.0),
                         [("local", 8, 6), ("halve", 6, None)]),
    "strong free chain": (_ising_sweep(2, 18.0), 12, (0.0,),
                          [("local", 8, 6), ("first", 6, None), ("first", 12, None)]),
}


@pytest.mark.parametrize("branch", list(_SWEEP_BRANCHES))
def test_sweep_reductions_take_each_branch(branch, monkeypatch):
    # the sweep steps through its reductions as listed, and each close is
    # the dense Pfaffian of its matrix
    (d, c), n, wraps, want_steps = _SWEEP_BRANCHES[branch]
    module = importlib.import_module("isingexact.pfaffian")
    steps = []

    def spy(name, step):
        def traced(d, *args):
            out = step(d, *args)
            steps.append((name, len(d), None if out is None else len(out[2])))
            return out
        return traced

    monkeypatch.setattr(module, "_local_nodes", spy("local", module._local_nodes))
    monkeypatch.setattr(module, "_halve", spy("halve", module._halve))
    monkeypatch.setattr(module, "_first_column", spy("first", module._first_column))
    closes = _column_sweep(d, c, n, wraps)
    assert steps == want_steps
    for wrap, got in zip(wraps, closes):
        _assert_same_pfaffian(got, pfaffian(_block_matrix(d, c, n, wrap)))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sweep_of_one_column_wraps_onto_itself(m):
    # H = [[wrap]]: U and D of each cluster are joined by wrap * z2
    for s1, s2, _ in _TORUS_TERMS.values():
        d, c = _ising_blocks(m, 0.4, 0.7, s1)
        want = _ising_block_matrix(m, 1, 0.4, 0.7, s1, s2)
        assert np.array_equal(_block_matrix(d, c, 1, s2), want)
        _assert_same_pfaffian(_column_sweep(d, c, 1, (s2,))[0], pfaffian(want))


@pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (5, 7), (8, 8), (4, 12)])
def test_sweep_singular_at_criticality(m, n):
    # the (+, +) cluster matrix is exactly singular at K_c; the (+, -) close
    # of the same sweep is not, and a singular sibling must not poison it
    z = math.tanh(K_CRIT)
    plus, minus = _column_sweep(*_ising_blocks(m, z, z, 1.0), n, (1.0, -1.0))
    assert plus == (0, -math.inf)
    assert minus[0] != 0 and math.isfinite(minus[1])
    _assert_same_pfaffian(minus, pfaffian(_ising_block_matrix(m, n, z, z, 1.0, -1.0)))


@pytest.mark.parametrize("m,n", [(3, 5), (5, 3), (2, 12), (6, 6), (2, 2), (3, 1),
                                 (2, 8), (3, 8), (4, 8), (2, 16), (3, 9), (2, 11), (4, 7),
                                 (3, 15)])
@pytest.mark.parametrize("k", [1e-8, 0.3, K_CRIT, 2.0, 18.0, 400.0])
def test_both_closes_of_one_sweep(m, n, k):
    # one sweep per s1 closed for s2 = +1 and -1 equals the dense Pfaffian of
    # each matrix, and bitwise the sweep closed for that s2 alone
    z1, z2 = math.tanh(0.6 * k), math.tanh(k)
    for s1 in (1.0, -1.0):
        d, c = _ising_blocks(m, z1, z2, s1)
        closes = _column_sweep(d, c, n, (1.0, -1.0))
        for s2, got in zip((1.0, -1.0), closes):
            assert got == _column_sweep(d, c, n, (s2,))[0]
            _assert_same_pfaffian(got, pfaffian(_ising_block_matrix(m, n, z1, z2, s1, s2)))


@pytest.mark.parametrize("m,n,kh,kv", [(3, 5, 0.3, 0.6), (2, 7, 0.9, 0.2), (4, 6, K_CRIT, 0.5),
                                        (5, 8, 2.0, 0.1), (12, 2, 0.4, 0.4)])
def test_ising_pfaffian_transpose(m, n, kh, kv):
    got = ising_pfaffian_torus(m, n, kh, kv)
    assert ising_pfaffian_torus(n, m, kv, kh) == pytest.approx(got, rel=1e-13)
    assert got == pytest.approx(kacward_log_z(m, n, kh, kv), rel=1e-11)


@pytest.mark.parametrize("n", [47, 48, 64, 99])
@pytest.mark.parametrize("k_long", [2.0, 18.0, 80.0, 400.0])
@pytest.mark.parametrize("transpose", [False, True])
def test_long_two_row_torus_with_a_strong_long_side(n, k_long, transpose):
    # many delayed pivots; entries grow along the sweep unless every
    # pivot is its column's largest entry
    m, kh, kv = 2, k_long, 0.3
    if transpose:
        m, n, kh, kv = n, m, kv, kh
    got = ising_pfaffian_torus(m, n, kh, kv)
    assert got == pytest.approx(kacward_log_z(m, n, kh, kv), rel=1e-12)
    assert got == pytest.approx(kaufman_partition(m, n, kv, kh), rel=1e-12)


@pytest.mark.parametrize("kh,kv", [(K_CRIT, K_CRIT), (0.3, 0.6)])
def test_torus_past_the_dense_ceiling(kh, kv):
    # two sweeps of 64 fronts of dimension 768: the cluster matrix would
    # have dimension 16384, four times the dense ceiling
    got = ising_pfaffian_torus(64, 64, kh, kv)
    assert got == pytest.approx(kaufman_partition(64, 64, kv, kh), rel=1e-9)
    assert got == pytest.approx(kacward_log_z(64, 64, kh, kv), rel=1e-9)


@pytest.mark.parametrize("m,n", [(16, 1024), (4, 1024), (8, 512)])
@pytest.mark.parametrize("kh,kv", [(K_CRIT, K_CRIT), (0.3, 0.6), (18.0, 0.3)])
def test_long_torus_against_spectral_routes(m, n, kh, kv):
    # cyclic reduction halves the columns down to a few; at (18, 0.3) its
    # first level is refused and the front loop sweeps every column
    got = ising_pfaffian_torus(m, n, kh, kv)
    assert got == pytest.approx(kaufman_partition(m, n, kv, kh), rel=1e-12)
    assert got == pytest.approx(kacward_log_z(m, n, kh, kv), rel=1e-12)


@pytest.mark.parametrize("w", [MatchingWeights(1.1, 0.7), MatchingWeights(0.6, 1.2)])
def test_long_torus_dimer_count_against_dense_pfaffians(w):
    # 256 columns of 4 sites, halved down to 2 with a merge on the s1 = +1
    # sweep; the four dense Pfaffians have dimension 1024
    spec = LatticeSpec(4, 256, "square", "torus")
    terms = [pfaffian(build_dimer_matrix(spec, w, variant)) for variant in TORUS_VARIANTS]
    top = max(log_mag for _, log_mag in terms)
    want = top + math.log(math.fsum(weight * sign * math.exp(log_mag - top)
                                    for (_, _, weight), (sign, log_mag)
                                    in zip(_TORUS_TERMS.values(), terms)))
    assert math.log(dimer_count_torus(4, 256, w)) == pytest.approx(want, rel=1e-12)


def test_sweep_capacity_is_refused_up_front():
    with pytest.raises(CapacityError, match="sweep ceiling"):
        ising_pfaffian_torus(65, 65, 0.3, 0.3)
    with pytest.raises(CapacityError, match="sweep ceiling"):
        ising_pfaffian_torus(2, 10 ** 9, 0.3, 0.3)
    with pytest.raises(CapacityError, match="sweep ceiling"):
        dimer_count_free(1000, 1000)


def _kernel_calls(monkeypatch, wrong_by=0.0):
    """Record each torus of pfaffian's calls of the Kac-Ward kernel, and
    return its four products each off by wrong_by.  isingexact.pfaffian is
    the re-exported function; patch the module."""
    module = importlib.import_module("isingexact.pfaffian")
    calls, kernel = [], module._kacward_log_products

    def spy(*args):
        calls.append(args)
        return {pair: log_p + wrong_by for pair, log_p in kernel(*args).items()}

    monkeypatch.setattr(module, "_kacward_log_products", spy)
    return calls


@pytest.mark.parametrize("m,n", [(4, 4), (3, 5), (6, 2)])
def test_pfaffian_self_check_makes_one_kernel_call(m, n, monkeypatch):
    # the four determinants are one call of the kernel, and a second call
    # on the same torus makes its own: no cache answers it
    calls = _kernel_calls(monkeypatch)
    first = ising_pfaffian_torus(m, n, 0.3, 0.6)
    assert len(calls) == 1
    assert ising_pfaffian_torus(m, n, 0.3, 0.6) == first
    assert len(calls) == 2 and calls[0] == calls[1]


def test_determinant_cross_check_failure_is_a_domain_error(monkeypatch):
    _kernel_calls(monkeypatch, wrong_by=1e-6)
    with pytest.raises(DomainError, match=r"torus1: Pfaffian\^2 gives log det .*, the closed form"):
        ising_pfaffian_torus(4, 4, 0.3, 0.3)


def test_free_dimer_count_is_positive_for_every_site_order():
    # the free Pfaffian is -count for odd m and n = 2 mod 4 in this site order
    for m, n, want in [(3, 2, 3.0), (1, 2, 1.0), (3, 6, 41.0), (2, 3, 3.0), (5, 2, 8.0)]:
        assert dimer_count_free(m, n) == pytest.approx(want, rel=1e-12)
        assert dimer_count_free(m, n) == pytest.approx(count_matchings(m, n), rel=1e-12)


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("z1,z2", [(0.7, 1.3), (1.3, 0.7)])
def test_free_dimer_chain_at_every_column_count(m, z1, z2):
    # columns 1 ... 41: every mix of first-column and odd-column levels, and
    # with z2 > z1 the merge, against the row transfer and the product
    w = MatchingWeights(z1, z2)
    for n in range(1, 42):
        got = dimer_count_free(m, n, w)
        assert got == pytest.approx(count_matchings_dp(m, n, w), rel=1e-12), n
        assert got == pytest.approx(dimer_product(m, n, w), rel=1e-12), n


def _free_ising_log_z(m, n, kh, kv):
    """ln Z of the free m x n Ising grid as one cluster Pfaffian, swept as a
    free chain: Z = 2^(mn) prod_bonds cosh K * Pf, whose sign is -1 exactly
    when the site count is odd."""
    blocks = _ising_blocks(m, math.tanh(kv), math.tanh(kh), 0.0)
    (sign, log_mag), = _column_sweep(*blocks, n, (0.0,))
    assert sign == (-1 if m * n % 2 else 1)
    return (m * n * math.log(2.0) + (m - 1) * n * math.log(math.cosh(kv))
            + m * (n - 1) * math.log(math.cosh(kh)) + log_mag)


@pytest.mark.parametrize("kh,kv", [(0.3, 0.3), (K_CRIT, K_CRIT), (0.9, 0.2), (-0.4, 0.7)])
def test_free_ising_grid_through_the_sweep(kh, kv):
    # every free grid of up to 24 sites, against the oracle: the chain levels
    # on cluster columns that keep local nodes
    for m in range(1, 25):
        for n in range(1, 24 // m + 1):
            g = build_lattice_graph(LatticeSpec(m, n, "square", "free"), ReducedCouplings(kh, kv))
            assert _free_ising_log_z(m, n, kh, kv) == pytest.approx(
                enumerate_partition_graph(g), rel=1e-13), (m, n)


def _sweep_work(monkeypatch):
    """Record the size of each elimination and the column count each
    sweep's front loop starts from."""
    module = importlib.import_module("isingexact.pfaffian")
    fronts, loops = [], []
    eliminate, sweep_fronts = module._eliminate, module._sweep_fronts

    def traced_eliminate(a, *args):
        fronts.append(len(a))
        return eliminate(a, *args)

    def traced_fronts(chain, *args):
        loops.append(chain.n)
        return sweep_fronts(chain, *args)

    monkeypatch.setattr(module, "_eliminate", traced_eliminate)
    monkeypatch.setattr(module, "_sweep_fronts", traced_fronts)
    return fronts, loops


@pytest.mark.parametrize("z1,z2", [(0.7, 1.1), (1.1, 0.7), (0.2, 3.0), (3.0, 0.2)])
def test_free_dimer_sweep_takes_a_few_fronts(z1, z2, monkeypatch):
    # 40 -> 39 -> 20 -> 19 -> 10 -> 9 -> 5 -> 3 -> 2 and one close, where the
    # front loop took one front per column; with z2 > z1 the first level
    # is refused and the merged chain of 20 takes it
    fronts, loops = _sweep_work(monkeypatch)
    w = MatchingWeights(z1, z2)
    _column_sweep(*_dimer_blocks(32, w, 0.0), 40, (0.0,))
    assert len(fronts) <= 10 and loops == [2]
    fronts.clear()
    assert dimer_count_free(24, 32, w) == pytest.approx(dimer_product(24, 32, w), rel=1e-12)
    assert len(fronts) <= 10 and loops == [2, 2]


@pytest.mark.parametrize("side", [9, 14])
@pytest.mark.parametrize("kh,kv", [(0.3, 0.6), (0.6, 0.3), (0.4, 0.4), (0.2, 0.85), (0.85, 0.2)])
def test_odd_torus_sweeps_take_no_front_loop(side, kh, kv, monkeypatch):
    # 9 -> 5 -> 3 -> 2 and 14 -> 7 -> 4 -> 3 -> 2: both sweeps close at most
    # three columns whole, so the front loop sweeps none
    _, loops = _sweep_work(monkeypatch)
    got = ising_pfaffian_torus(side, side, kh, kv)
    assert len(loops) == 2 and max(loops) <= 3
    assert got == pytest.approx(kacward_log_z(side, side, kh, kv), rel=1e-13)


@pytest.mark.parametrize("side,kh,kv,left,fronts", [(9, 0.7, 0.7, 3, 12),
                                                     (9, 0.811487, 0.811487, 5, 14),
                                                     (14, 0.842017, 0.559882, 4, 15),
                                                     (14, 0.7, 0.7, 4, 15)])
def test_ordered_torus_sweeps_leave_a_few_columns(side, kh, kv, left, fronts, monkeypatch):
    # deep in the ordered phase each level strengthens the couplings between
    # columns until a pivot would be delayed, and the s1 = +1 sweep keeps up
    # to `left` columns: 3 are closed whole, once per wrap (2 x 6 fronts in
    # all at 9 x 9), and 4 or 5 go to the front loop.  `left` and `fronts`
    # are ceilings: a sweep that reduces further passes
    seen, loops = _sweep_work(monkeypatch)
    got = ising_pfaffian_torus(side, side, kh, kv)
    assert len(loops) == 2 and max(loops) <= left and len(seen) <= fronts
    assert got == pytest.approx(kacward_log_z(side, side, kh, kv), rel=1e-13)
