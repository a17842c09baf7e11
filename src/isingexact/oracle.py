"""Brute-force ground truth.

Two exhaustive engines live here: the spin-configuration sum over arbitrary
weighted graphs (up to 26 sites) and exact perfect-matching counters (plain
backtracking, a row transfer over one row's labelings, and the hafnian,
which is the backtracker on the complete graph).
Every closed-form module in the package is validated against these.

The configuration sum does not loop over 2^N states in Python.  Spins map to
bits, a bond is (anti)parallel according to the XOR of its two bits, and
bonds sharing a coupling value are grouped so that only the *number* of
antiparallel bonds per group matters.  A field h is one more group: bonds of
strength h from every site to a ghost spin (site N).  Summing the ghost over
both signs gives 2 Z(h), so ln Z is the ghost graph's ln Z - ln 2.  Every
configuration still gets its own key in a density of states over the group
counts, but most of the per-bond work is done once:

* the sites split into a low half (the first min(N - 1, 14) sites) and a
  high half, which always holds the top spin.  One table over the low
  states holds the weighted counts of the bonds inside the low half; one
  scalar per high state holds those of the bonds inside the high half;
* bonds crossing the split are grouped into layers whose low endpoints are
  distinct, so a whole layer is a single popcount of the low state XOR-ed
  with the high partners' spins;
* flipping every spin keeps every bond count, so in every build only
  states with the top spin down are enumerated and the density is doubled;
* a chunk of ~2^16 states (a few high states by every low state) is
  keyed in the narrowest unsigned type that holds every bin index (uint16
  up to 65 536 bins, uint32 past that), in key, XOR and popcount buffers
  allocated once per build and filled in place, so a build's working set
  stays in L2 cache.

The partition function is then a max-shifted log-sum-exp over the occupied
bins, each bin's energy read off its group counts.  The density of states
is structural (independent of the coupling values), so it is cached per
graph shape.

The matching row transfer builds the Pell(width) ways to label the cells of
one row once (covered from above, starting a dimer down, or half of a dimer
along the row) and maps the profile of dimers protruding into the next row
by one weighted bincount per row.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .core import (CapacityError, DomainError, LatticeSpec, MatchingWeights, ReducedCouplings,
                   finite, log_sum)

MAX_ENUM_SITES = 26
# sites in the low half of the DOS split (low states are held as uint16)
_LOW_BITS = 14
# log2 of the configurations handled per numpy chunk: 2^16 narrow keys and
# their scratch buffers stay in L2 cache, reused by every chunk of a build
_CHUNK_BITS = 16

# structural density-of-states cache: key -> flat int64 array, oldest first.
# Past _DOS_CACHE_BYTES the oldest entries are evicted (a criterion-1 entry
# is a few KB; the largest, 2^22 bins, is 32 MiB)
_DOS_CACHE: Dict[tuple, np.ndarray] = {}
_DOS_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class WeightedGraph:
    """num_sites spins, edges (a, b, k_e).  Multi-edges are kept distinct;
    torus wraps on side-2 lattices legitimately double a bond."""

    num_sites: int
    edges: Tuple[Tuple[int, int, float], ...]

    def __post_init__(self):
        if self.num_sites < 1:
            raise DomainError("graph needs at least one site")
        for a, b, k in self.edges:
            if not (0 <= a < self.num_sites and 0 <= b < self.num_sites):
                raise DomainError(f"edge ({a},{b}) out of range")
            if not math.isfinite(k):
                raise DomainError("edge coupling must be finite")


# ---------------------------------------------------------------------------
# exhaustive spin sums
# ---------------------------------------------------------------------------

def _group_edges(edges) -> List[Tuple[float, int, Tuple[Tuple[int, int], ...]]]:
    """Collapse identical parallel edges into multiplicities, then group by
    (coupling, multiplicity).  Returns [(k, mult, ((a,b), ...)), ...]."""
    mult = Counter()
    for a, b, k in edges:
        if a > b:
            a, b = b, a
        mult[(a, b, k)] += 1
    grouped: Dict[Tuple[float, int], List[Tuple[int, int]]] = {}
    for (a, b, k), c in sorted(mult.items()):
        grouped.setdefault((k, c), []).append((a, b))
    return [(k, c, tuple(pairs)) for (k, c), pairs in sorted(grouped.items())]


def _bond_counts(states: np.ndarray, offset: int, width: int,
                 edge_groups: Sequence[Tuple[Tuple[int, int], ...]],
                 strides: Sequence[int]) -> np.ndarray:
    """Partial keys of `states`, the bit patterns of sites offset..offset+width-1:
    stride-weighted antiparallel counts of the bonds with both ends inside
    that window."""
    key = np.zeros(states.shape, dtype=np.int64)
    for stride, edges in zip(strides, edge_groups):
        acc = np.zeros(states.shape, dtype=np.int64)
        for a, b in edges:
            if offset <= min(a, b) and max(a, b) < offset + width:
                acc += ((states >> (a - offset)) ^ (states >> (b - offset))) & 1
        key += stride * acc
    return key


def _cross_layers(n_low: int, edges) -> List[List[Tuple[int, int]]]:
    """Split the (low, high) bonds crossing the split into layers in which no
    two bonds share a low endpoint."""
    layers: List[List[Tuple[int, int]]] = []
    for a, b in edges:
        a, b = min(a, b), max(a, b)
        if not a < n_low <= b:
            continue
        for layer in layers:
            if all(a != x for x, _ in layer):
                layer.append((a, b))
                break
        else:
            layers.append([(a, b)])
    return layers


def _density_of_states(num_sites: int,
                       edge_groups: Sequence[Tuple[Tuple[int, int], ...]]) -> np.ndarray:
    """Joint histogram over the antiparallel-bond count per group, flat
    with group 0 varying fastest.  Built by the low/high split and spin-flip
    symmetry described in the module docstring."""
    strides = [1]
    for g in edge_groups:
        strides.append(strides[-1] * (len(g) + 1))
    total_bins = strides[-1]
    # the top spin is always high, so spin flip halves every build
    n_low = min(num_sites - 1, _LOW_BITS)
    n_high = num_sites - n_low

    lo = np.arange(1 << n_low, dtype=np.int64)
    key_low = _bond_counts(lo, 0, n_low, edge_groups, strides)
    # top spin fixed down: 2^(n_high - 1) high states
    hi = np.arange(1 << (n_high - 1), dtype=np.int64)
    key_high = _bond_counts(hi, n_low, n_high, edge_groups, strides)
    lo16 = lo.astype(np.uint16)
    cross = []
    for stride, edges in zip(strides, edge_groups):
        for layer in _cross_layers(n_low, edges):
            mask = sum(1 << a for a, _ in layer)
            flip = sum(((hi >> (b - n_low)) & 1) << a for a, b in layer)
            cross.append((stride, lo16 & np.uint16(mask), flip.astype(np.uint16)))

    # every partial key is at most total_bins - 1, so the narrowest key type
    # cannot wrap; a chunk of `rows` high states by every low state is one
    # set of buffers, filled in place.  rows and len(hi) are powers of two,
    # so every chunk is full
    key_type = np.uint16 if total_bins <= 1 << 16 else np.uint32
    key_low = key_low.astype(key_type)
    key_high = key_high.astype(key_type)
    rows = min(1 << max(_CHUNK_BITS - n_low, 0), len(hi))
    key = np.empty((rows, len(lo)), dtype=key_type)
    xor = np.empty(key.shape, dtype=np.uint16)
    count = np.empty(key.shape, dtype=np.uint16)
    product = np.empty(key.shape, dtype=key_type)
    dos = np.zeros(total_bins, dtype=np.int64)
    for start in range(0, len(hi), rows):
        block = slice(start, start + rows)
        np.add(key_low, key_high[block, None], out=key)
        for stride, low_bits, flip in cross:
            np.bitwise_xor(low_bits, flip[block, None], out=xor)
            # popcount byte by byte (numpy's uint8 popcount is ~3.5x faster
            # than its uint16 one on x86-64); an entry's byte counts
            # b0 + 256 b1 become b0 + b1 in place, as
            # (b0 + 256 b1) * 257 = b0 + 256 (b0 + b1) mod 2^16
            np.bitwise_count(xor.view(np.uint8), out=count.view(np.uint8))
            count *= 257
            count >>= 8
            if stride == 1:
                key += count
            else:
                key += np.multiply(count, key_type(stride), out=product)
        dos += np.bincount(key.ravel(), minlength=total_bins)
    return 2 * dos


def enumerate_partition_graph(g: WeightedGraph, h: float = 0.0) -> float:
    """ln sum_{sigma in {+-1}^N} exp(sum_e k_e s_a s_b + h sum_i s_i).

    Exact for any graph with at most 26 sites.  Accumulation happens in
    log-space; the result is independent of enumeration order.  A ln Z past
    the float range is a DomainError.
    """
    if g.num_sites > MAX_ENUM_SITES:
        raise CapacityError(
            f"{g.num_sites} sites exceeds the {MAX_ENUM_SITES}-site enumeration ceiling")
    if not math.isfinite(h):
        raise DomainError("field must be finite")
    n = g.num_sites
    groups = _group_edges(g.edges)
    if h != 0.0:
        # the field as bonds to a ghost spin, site n
        groups.append((h, 1, tuple((i, n) for i in range(n))))
        n += 1

    # dimensionality guard: fall back to direct energies for pathological
    # graphs where nearly every edge has its own coupling value
    if math.prod(len(pairs) + 1 for _, _, pairs in groups) > (1 << 22):
        return finite(_enumerate_direct(g, h), "ln Z")

    structure = tuple(pairs for _, _, pairs in groups)
    dos = _DOS_CACHE.get((n, structure))
    if dos is None:
        dos = _DOS_CACHE[(n, structure)] = _density_of_states(n, structure)
        held = sum(d.nbytes for d in _DOS_CACHE.values())
        for key in list(_DOS_CACHE):
            if held <= _DOS_CACHE_BYTES:
                break
            held -= _DOS_CACHE.pop(key).nbytes

    # energy of each occupied bin: a group with n_g bonds of strength k
    # (multiplicity c) and c_g antiparallel bonds contributes k*c*(n_g - 2 c_g),
    # and c_g is peeled off the flat index, group 0 fastest
    # (an energy past the float range is inf or nan, which finite() refuses)
    occupied = np.flatnonzero(dos)
    energy = np.zeros(occupied.shape)
    rest = occupied
    with np.errstate(over="ignore", invalid="ignore"):
        for k, c, pairs in groups:
            rest, count = np.divmod(rest, len(pairs) + 1)
            energy += k * c * (len(pairs) - 2.0 * count)
    log_z = log_sum(energy, dos[occupied])
    return finite(log_z - math.log(2.0) if h != 0.0 else log_z, "ln Z")


def _enumerate_direct(g: WeightedGraph, h: float) -> float:
    """Chunked direct energy evaluation (no histogram); rarely taken.  Its
    per-configuration field term is the reference for the ghost-spin group."""
    n = g.num_sites
    n_conf = 1 << n
    chunk = min(n_conf, 1 << _CHUNK_BITS)
    chunk_log_sums = []
    for start in range(0, n_conf, chunk):
        idx = np.arange(start, start + chunk, dtype=np.uint64)
        e = np.zeros(idx.shape, dtype=np.float64)
        for a, b, k in g.edges:
            par = ((idx >> np.uint64(a)) ^ (idx >> np.uint64(b))) & np.uint64(1)
            e += k * (1.0 - 2.0 * par)
        if h != 0.0:
            e += h * (n - 2.0 * np.bitwise_count(idx).astype(np.float64))
        chunk_log_sums.append(log_sum(e))
    return log_sum(chunk_log_sums)


# ---------------------------------------------------------------------------
# lattice graph construction
# ---------------------------------------------------------------------------

def build_lattice_graph(spec: LatticeSpec, c: ReducedCouplings) -> WeightedGraph:
    """Edge list for the requested geometry/boundary.

    Square: 4-neighbor bonds (k_h along columns, k_v along rows).
    Triangular: square bonds plus the (i,j)-(i+1,j+1) diagonal with k_d.
    Honeycomb (torus): brick-wall embedding; sites 0..mn-1 form the m x n
    cell grid and site mn + cell is the star center of cell (i,j), attached
    with the three edge-class couplings (k_h, k_v, k_d) to the cells (i,j),
    (i,j+1), (i+1,j+1).
    Torus and ring wraps use modular neighbors; a side of length 2 therefore
    carries doubled bonds and a side of length 1 (a ring of one spin too)
    carries self-loops, matching the bond-count conventions of the
    closed-form products.
    """
    m, n = spec.rows, spec.cols
    wrap = spec.boundary == "torus"
    wrap_h = wrap or spec.boundary == "cylinder_h"
    wrap_v = wrap or spec.boundary == "cylinder_v"
    if spec.geometry == "chain":
        edges = []
        for j in range(n - 1):
            edges.append((j, j + 1, c.k_h))
        if wrap_h:
            edges.append((n - 1, 0, c.k_h))
        return WeightedGraph(n, tuple(edges))

    if spec.geometry == "honeycomb":
        if c.k_d is None:
            raise DomainError("honeycomb lattice needs all three couplings (k_h, k_v, k_d)")
        if spec.boundary != "torus":
            raise DomainError("honeycomb embedding is implemented on the torus only")
        edges = []
        site = lambda i, j: (i % m) * n + (j % n)
        for i in range(m):
            for j in range(n):
                star = m * n + i * n + j
                edges.append((star, site(i, j), c.k_h))
                edges.append((star, site(i, j + 1), c.k_v))
                edges.append((star, site(i + 1, j + 1), c.k_d))
        return WeightedGraph(2 * m * n, tuple(edges))

    if spec.geometry == "triangular" and c.k_d is None:
        raise DomainError("triangular lattice needs k_d")

    edges = []
    site = lambda i, j: (i % m) * n + (j % n)
    for i in range(m):
        for j in range(n):
            if j + 1 < n or wrap_h:
                edges.append((site(i, j), site(i, j + 1), c.k_h))
            if i + 1 < m or wrap_v:
                edges.append((site(i, j), site(i + 1, j), c.k_v))
            if spec.geometry == "triangular" and ((i + 1 < m and j + 1 < n) or wrap):
                edges.append((site(i, j), site(i + 1, j + 1), c.k_d))
    return WeightedGraph(m * n, tuple(edges))


# ---------------------------------------------------------------------------
# exhaustive matching counts
# ---------------------------------------------------------------------------

def count_matchings(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Perfect-matching generating function of the free m x n grid by
    exhaustive backtracking: sum over matchings of z1^#row-bonds z2^#col-bonds.

    Odd site count returns 0 (no perfect matching exists)."""
    LatticeSpec(m, n, "square", "free")   # rejects sides < 1

    def edges():
        # row-major, right (z2) before down (z1): the backtracker sums in
        # edge order.  Lazy, so the site-count ceiling is checked first.
        for p in range(m * n):
            i, j = divmod(p, n)
            if j + 1 < n:
                yield (p, p + 1, w.z2)
            if i + 1 < m:
                yield (p, p + n, w.z1)

    return count_matchings_graph(m * n, edges())


# a nonzero dimer weight, partial product or partial count below the normal
# float range has lost digits to underflow
_TINY = sys.float_info.min
_UNDERFLOW = "a partial dimer count is below the normal float range, where its digits are lost"


def count_matchings_graph(num_sites: int,
                          edges: Iterable[Tuple[int, int, float]]) -> float:
    """Generating function over perfect matchings of an arbitrary weighted
    graph (backtracking); parallel edges count as distinct dimer slots.
    A product of two nonzero factors, or a nonzero partial count, below the
    normal float range is a DomainError; a zero weight keeps its exact 0."""
    if num_sites > 36:
        raise CapacityError("backtracking counter is limited to 36 sites")
    if num_sites % 2:
        return 0.0
    adj: List[List[Tuple[int, float]]] = [[] for _ in range(num_sites)]
    for a, b, z in edges:
        adj[a].append((b, z))
        adj[b].append((a, z))
    full = (1 << num_sites) - 1

    def rec(cov: int) -> float:
        if cov == full:
            return 1.0
        p = (~cov & -~cov).bit_length() - 1
        total = 0.0
        for q, z in adj[p]:
            if q != p and not cov >> q & 1:
                sub = rec(cov | 1 << p | 1 << q)
                term = z * sub
                if -_TINY < term < _TINY and z and sub:
                    raise DomainError(_UNDERFLOW)
                total += term
        if total and -_TINY < total < _TINY:
            raise DomainError(_UNDERFLOW)
        return total

    return rec(0)


# profile-DP work ceiling on the accepted shapes, rows * (3^width + 16 * 2^width)
# at most its value at 14 x 14.  The row transfer itself costs rows * Pell(width);
# 14 x 14, the widest accepted shape, takes ~15 ms and the longest accepted
# strip, 2 018 044 x 1, ~2 s (2-vCPU x86-64).
_PROFILE_WORK = 14 * (3 ** 14 + 16 * 2 ** 14)
# rows between checks of the matching row transfer for a count past the
# float range; even, so the rows so far have an even site count
_OVERFLOW_ROWS = 1024


def count_matchings_dp(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Row-transfer dynamic program for the free m x n grid.

    State after each row: bitmask of columns where a z1-bond (row-direction
    dimer) protrudes into the next row.  A row's labelings are built once,
    cell by cell: each cell is covered from above, starts a z1 dimer down,
    or is the right half of a z2 dimer with its left neighbor, so there are
    a(j) = 2 a(j-1) + a(j-2) of them for j cells (Pell numbers, 195 025 at
    width 14).  A row then maps the state by one weighted bincount, and the
    count is the state with nothing protruding past the last row.
    The profile runs along the shorter side, by count(m, n, z1, z2) =
    count(n, m, z2, z1).  Independent of the backtracking counter.  Past
    rows * (3^width + 16 * 2^width) at 14 x 14, width the shorter side, it
    is a CapacityError.  A count past the float range is a DomainError, and
    so is a nonzero labeling weight or partial product (hence partial count)
    below the normal range, whose digits are lost; a zero weight keeps its
    exact 0.  A row needs that check only once the least nonzero labeling
    weight times a lower bound of the nonzero partial counts is below it.
    """
    LatticeSpec(m, n, "square", "free")   # rejects sides < 1
    if (m * n) % 2:
        return 0.0
    z1, z2 = w.z1, w.z2
    if n > m:
        m, n, z1, z2 = n, m, z2, z1
    if n > 14 or m * (3 ** n + 16 * 2 ** n) > _PROFILE_WORK:   # m >= n: n > 14 is past it
        raise CapacityError(f"a {m} x {n} profile DP exceeds the work ceiling "
                            f"rows * (3^width + 16 * 2^width) = {_PROFILE_WORK}")
    # a weight past the float range makes a product inf (or 0 * inf nan),
    # which finite() refuses
    with np.errstate(over="ignore", invalid="ignore"):
        # (inc, out, weight) of the labelings of the first j - 1 and j cells
        # (none and one at j = 0): the cells covered from above, the cells
        # starting a z1 dimer down, and the product of the dimer weights.
        # Cell j is covered from above, starts a z1 dimer, or closes a z2
        # dimer on a labeling of the first j - 1 cells
        before = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.ones(0))
        labels = (np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1))
        # the least nonzero weight of the labelings of the first j - 1 and j
        # cells: every labeling keeps its weight in the next cell (covered
        # from above), and rounding is monotone, so the last one is the least
        # nonzero weight of every labeling built
        least_before, least = math.inf, 1.0
        for j in range(n):
            (inc, out, weight), (inc2, out2, weight2) = labels, before
            before, labels = labels, (np.concatenate((inc | 1 << j, inc, inc2)),
                                      np.concatenate((out, out | 1 << j, out2)),
                                      np.concatenate((weight, weight * z1, weight2 * z2)))
            least_before, least = least, min(least, least * z1 if z1 > 0.0 else math.inf,
                                             least_before * z2 if z2 > 0.0 else math.inf)
        if least < _TINY:
            raise DomainError(_UNDERFLOW)
        inc, out, weight = labels
        bound = 1.0   # no nonzero partial count is below it
        state = np.zeros(1 << n)
        state[0] = 1.0
        for row in range(m):
            products = weight * state[inc]
            bound *= least
            if bound < _TINY and np.any((products < _TINY) & (weight > 0.0) & (state[inc] > 0.0)):
                raise DomainError(_UNDERFLOW)
            state = np.bincount(out, weights=products, minlength=1 << n)
            if bound < _TINY:
                bound = float(np.min(state, where=state > 0.0, initial=math.inf))
            # an inf or nan count of the rows so far is one of the whole grid:
            # each labeling feeds its bin whatever its weight (0 * inf is
            # nan), and the rows left have a matching
            if row % _OVERFLOW_ROWS == _OVERFLOW_ROWS - 1 and not math.isfinite(state[0]):
                break
    return finite(float(state[0]), "the dimer count")


def hafnian(a: np.ndarray) -> float:
    """Hafnian of a symmetric even-dimensional matrix, the sum over perfect
    pairings of the index set of the product of entries: the matching
    backtracker on the complete graph with edge weights a[i, j], i < j."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or len(a) % 2:
        raise DomainError("hafnian needs a square matrix of even dimension")
    dim = len(a)
    if dim > 12:
        raise CapacityError("the hafnian is limited to dimension 12")
    if not np.allclose(a, a.T):
        raise DomainError("hafnian needs a symmetric matrix")
    return count_matchings_graph(dim, ((i, j, float(a[i, j]))
                                       for i in range(dim) for j in range(i + 1, dim)))
