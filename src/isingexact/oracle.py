"""Brute-force ground truth.

Two exhaustive engines live here: the spin-configuration sum over arbitrary
weighted graphs (up to 26 sites) and exact perfect-matching counters (plain
backtracking, a broken-profile DP, and the Hafnian).  Every closed-form
module in the package is validated against these.

The configuration sum does not loop over 2^N states in Python.  Spins map to
bits, a bond is (anti)parallel according to the XOR of its two bits, and
bonds sharing a coupling value are grouped so that only the *number* of
antiparallel bonds per group matters.  Every configuration still gets its
own key in a density of states over those group counts (plus magnetization
when a field is present), but most of the per-bond work is done once:

* the sites split into a low half (the first min(N, 14) sites) and a high
  half.  One table over the low states holds the weighted counts of the
  bonds inside the low half; one scalar per high state holds those of the
  bonds inside the high half;
* bonds crossing the split are grouped into layers whose low endpoints are
  distinct, so a whole layer is a single popcount of the low state XOR-ed
  with the high partners' spins;
* flipping every spin keeps every bond count and maps the popcount p to
  N - p, so only states with the top spin down are enumerated and the other
  half is mirrored in.

The partition function is then a max-shifted log-sum-exp over the occupied
bins.  The density of states is structural (independent of the coupling
values), so it is cached per graph shape.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import CapacityError, DomainError, LatticeSpec, ReducedCouplings

MAX_ENUM_SITES = 26
# sites in the low half of the DOS split (low states are held as uint16)
_LOW_BITS = 14
# log2 of the configurations handled per numpy chunk; bounds chunk memory
_CHUNK_BITS = 20

# structural density-of-states cache: key -> flat int64 array
_DOS_CACHE: Dict[tuple, np.ndarray] = {}


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


@dataclass(frozen=True)
class MatchingWeights:
    """z1 weights bonds along the row index (i -> i+1), z2 along the column
    index (j -> j+1)."""

    z1: float = 1.0
    z2: float = 1.0

    def __post_init__(self):
        if self.z1 < 0 or self.z2 < 0:
            raise DomainError("matching weights must be non-negative")


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
                 strides: Sequence[int], with_field: bool) -> np.ndarray:
    """Partial keys of `states`, the bit patterns of sites offset..offset+width-1:
    stride-weighted antiparallel counts of the bonds with both ends inside
    that window, plus the stride-weighted popcount when a field is present."""
    key = np.zeros(states.shape, dtype=np.int64)
    for stride, edges in zip(strides, edge_groups):
        acc = np.zeros(states.shape, dtype=np.int64)
        for a, b in edges:
            if offset <= min(a, b) and max(a, b) < offset + width:
                acc += ((states >> (a - offset)) ^ (states >> (b - offset))) & 1
        key += stride * acc
    if with_field:
        key += strides[-1] * np.bitwise_count(states).astype(np.int64)
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
                       edge_groups: Sequence[Tuple[Tuple[int, int], ...]],
                       with_field: bool) -> np.ndarray:
    """Joint histogram over (antiparallel-bond count per group[, popcount]),
    flat with group 0 varying fastest and the popcount slowest.  Built by
    the low/high split and spin-flip mirror described in the module
    docstring."""
    dims = [len(g) + 1 for g in edge_groups]
    strides = [1]
    for d in dims:
        strides.append(strides[-1] * d)
    if with_field:
        dims.append(num_sites + 1)
    total_bins = int(np.prod(dims, dtype=np.int64))
    n_low = min(num_sites, _LOW_BITS)
    n_high = num_sites - n_low

    lo = np.arange(1 << n_low, dtype=np.int64)
    key_low = _bond_counts(lo, 0, n_low, edge_groups, strides, with_field)
    if n_high == 0:
        return np.bincount(key_low, minlength=total_bins)

    # top spin fixed down: 2^(n_high - 1) high states
    hi = np.arange(1 << (n_high - 1), dtype=np.int64)
    key_high = _bond_counts(hi, n_low, n_high, edge_groups, strides, with_field)
    lo16 = lo.astype(np.uint16)
    cross = []
    for stride, edges in zip(strides, edge_groups):
        for layer in _cross_layers(n_low, edges):
            mask = sum(1 << a for a, _ in layer)
            flip = sum(((hi >> (b - n_low)) & 1) << a for a, b in layer)
            cross.append((stride, lo16 & np.uint16(mask), flip.astype(np.uint16)))

    dos = np.zeros(total_bins, dtype=np.int64)
    rows = 1 << max(_CHUNK_BITS - n_low, 0)
    for start in range(0, len(hi), rows):
        block = slice(start, start + rows)
        key = key_low + key_high[block, None]
        for stride, low_bits, flip in cross:
            count = np.bitwise_count(low_bits ^ flip[block, None])
            key += count if stride == 1 else count * np.int64(stride)
        dos += np.bincount(key.ravel(), minlength=total_bins)

    if not with_field:
        return 2 * dos
    by_popcount = dos.reshape(num_sites + 1, -1)
    return (by_popcount + by_popcount[::-1]).ravel()


def enumerate_partition_graph(g: WeightedGraph, h: float = 0.0) -> float:
    """ln sum_{sigma in {+-1}^N} exp(sum_e k_e s_a s_b + h sum_i s_i).

    Exact for any graph with at most 26 sites.  Accumulation happens in
    log-space; the result is independent of enumeration order.
    """
    if g.num_sites > MAX_ENUM_SITES:
        raise CapacityError(
            f"{g.num_sites} sites exceeds the {MAX_ENUM_SITES}-site enumeration ceiling")
    if not math.isfinite(h):
        raise DomainError("field must be finite")
    n = g.num_sites
    groups = _group_edges(g.edges)
    with_field = h != 0.0

    # dimensionality guard: fall back to direct energies for pathological
    # graphs where nearly every edge has its own coupling value
    dims = [len(pairs) + 1 for _, _, pairs in groups]
    if with_field:
        dims = dims + [n + 1]
    n_bins = int(np.prod(dims, dtype=np.int64)) if dims else 1
    if n_bins > (1 << 22):
        return _enumerate_direct(g, h)

    structure = tuple(pairs for _, _, pairs in groups)
    cache_key = (n, structure, with_field)
    dos = _DOS_CACHE.get(cache_key)
    if dos is None:
        dos = _density_of_states(n, structure, with_field)
        _DOS_CACHE[cache_key] = dos

    # energy of each bin: a group with n_g bonds of strength k (multiplicity
    # c) and c_g antiparallel bonds contributes k*c*(n_g - 2 c_g)
    energy = np.zeros(n_bins, dtype=np.float64).reshape(dims or (1,))
    for axis, (k, c, pairs) in enumerate(groups):
        n_g = len(pairs)
        contrib = k * c * (n_g - 2.0 * np.arange(n_g + 1))
        shape = [1] * energy.ndim
        shape[axis] = n_g + 1
        energy += contrib.reshape(shape)
    if with_field:
        axis = energy.ndim - 1
        contrib = h * (n - 2.0 * np.arange(n + 1))
        shape = [1] * energy.ndim
        shape[axis] = n + 1
        energy += contrib.reshape(shape)

    # Fortran order: group 0 varies fastest, matching the key construction
    flat_energy = energy.flatten(order="F")
    occupied = dos > 0
    e = flat_energy[occupied]
    top = e.max()
    return float(top + np.log(np.sum(dos[occupied] * np.exp(e - top))))


def _enumerate_direct(g: WeightedGraph, h: float) -> float:
    """Chunked direct energy evaluation (no histogram); rarely taken."""
    n = g.num_sites
    n_conf = 1 << n
    chunk = min(n_conf, 1 << _CHUNK_BITS)
    run_max = -np.inf
    run_sum = 0.0
    for start in range(0, n_conf, chunk):
        idx = np.arange(start, start + chunk, dtype=np.uint64)
        e = np.zeros(idx.shape, dtype=np.float64)
        for a, b, k in g.edges:
            par = ((idx >> np.uint64(a)) ^ (idx >> np.uint64(b))) & np.uint64(1)
            e += k * (1.0 - 2.0 * par)
        if h != 0.0:
            e += h * (n - 2.0 * np.bitwise_count(idx).astype(np.float64))
        m = float(e.max())
        s = float(np.exp(e - m).sum())
        if m > run_max:
            run_sum = run_sum * math.exp(run_max - m) + s
            run_max = m
        else:
            run_sum += s * math.exp(m - run_max)
    return run_max + math.log(run_sum)


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
    Torus wraps use modular neighbors; a side of length 2 therefore carries
    doubled bonds and a side of length 1 carries self-loops, matching the
    bond-count conventions of the closed-form products.
    """
    m, n = spec.rows, spec.cols
    wrap = spec.boundary == "torus"
    wrap_h = wrap or spec.boundary == "cylinder_h"
    wrap_v = wrap or spec.boundary == "cylinder_v"
    if spec.geometry == "chain":
        edges = []
        for j in range(n - 1):
            edges.append((j, j + 1, c.k_h))
        if wrap_h and n > 1:
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
    if m * n > 36:
        raise CapacityError("backtracking counter is limited to 36 sites")
    if (m * n) % 2:
        return 0.0
    full = (1 << (m * n)) - 1

    def cell(i, j):
        return i * n + j

    def rec(cov: int) -> float:
        if cov == full:
            return 1.0
        # lowest uncovered cell
        p = (~cov & (cov + 1)).bit_length() - 1
        i, j = divmod(p, n)
        total = 0.0
        if j + 1 < n and not cov >> cell(i, j + 1) & 1:
            total += w.z2 * rec(cov | 1 << p | 1 << cell(i, j + 1))
        if i + 1 < m and not cov >> cell(i + 1, j) & 1:
            total += w.z1 * rec(cov | 1 << p | 1 << cell(i + 1, j))
        return total

    return rec(0)


def count_matchings_graph(num_sites: int,
                          edges: Sequence[Tuple[int, int, float]]) -> float:
    """Generating function over perfect matchings of an arbitrary weighted
    graph (backtracking); parallel edges count as distinct dimer slots."""
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
                total += z * rec(cov | 1 << p | 1 << q)
        return total

    return rec(0)


def count_matchings_dp(m: int, n: int, z1: float = 1.0, z2: float = 1.0) -> float:
    """Broken-profile dynamic program for the free m x n grid.

    State after each row: bitmask of columns where a z1-bond (row-direction
    dimer) protrudes into the next row.  Within a row, cells not covered by
    protrusions must tile exactly with z2-bonds (adjacent column pairs).
    Independent of the backtracking counter; handles 8 x 8 instantly.
    """
    if (m * n) % 2:
        return 0.0
    if n > 24:
        raise CapacityError("profile width limited to 24 columns")

    def row_weight(free_mask: int) -> Optional[float]:
        """Tile the free cells of one row with horizontal (z2) dominoes."""
        weight = 1.0
        j = 0
        while j < n:
            if free_mask >> j & 1:
                if j + 1 >= n or not free_mask >> (j + 1) & 1:
                    return None
                weight *= z2
                j += 2
            else:
                j += 1
        return weight

    size = 1 << n
    state = np.zeros(size, dtype=np.float64)
    state[0] = 1.0
    for row in range(m):
        nxt = np.zeros(size, dtype=np.float64)
        last = row == m - 1
        for incoming in range(size):
            amp = state[incoming]
            if amp == 0.0:
                continue
            avail = (~incoming) & (size - 1)
            if last:
                w = row_weight(avail)
                if w is not None:
                    nxt[0] += amp * w
                continue
            # enumerate subsets of avail as new protrusions
            out = avail
            while True:
                w = row_weight(avail & ~out)
                if w is not None:
                    nxt[out] += amp * w * z1 ** out.bit_count()
                if out == 0:
                    break
                out = (out - 1) & avail
        state = nxt
    return float(state[0])


def hafnian(a: np.ndarray) -> float:
    """Hafnian of a symmetric even-dimensional matrix by recursive pairing:
    sum over perfect pairings of the index set of the product of entries."""
    a = np.asarray(a, dtype=np.float64)
    dim = a.shape[0]
    if a.shape != (dim, dim) or dim % 2:
        raise DomainError("hafnian needs a square matrix of even dimension")
    if dim > 12:
        raise CapacityError("recursive hafnian is limited to dimension 12")
    if not np.allclose(a, a.T):
        raise DomainError("hafnian needs a symmetric matrix")

    def rec(idx: Tuple[int, ...]) -> float:
        if not idx:
            return 1.0
        first, rest = idx[0], idx[1:]
        total = 0.0
        for pos, j in enumerate(rest):
            total += a[first, j] * rec(rest[:pos] + rest[pos + 1:])
        return total

    return rec(tuple(range(dim)))
