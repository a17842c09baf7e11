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
both signs gives 2 Z(h), so ln Z is the ghost graph's ln Z - ln 2.  The
density of states (DOS) over the group counts is counted through a vertex
separator, the idea behind nested dissection (George 1973):

* a plan (S, A, B) is a set S of sites whose removal leaves two sides, A
  and B, with no bond between them.  Flipping every spin keeps every bond
  count, so S's last spin is fixed down and the density is doubled;
* given S's spins, each side's keys live in the side's own count space: its
  own bonds and its bonds to S, with S's own bonds riding with A.  A side's
  keys for a chunk of S states are its keys with every S spin down plus one
  change table per S spin, doubled over the chunk's spins: one add per key.
  Consecutive chunks differ in one S spin (Gray code);
* each side is histogrammed per S state, and the sides meet in one matrix
  product over S's states and one bincount into the flat DOS.  Every count
  is an integer below 2^27, so float64 keeps it exact;
* the planner tries, from every site, an S of one or two BFS layers, with A
  the layers between them; a site bonded to every other site (the field's
  ghost) is always in S.  It takes the cheapest such separator when its cost
  (2^(|S| - 1) (2^|A| + 2^|B|) keys, the histogram bins and the product's
  multiply-adds) beats the split's 2^(N - 1) keys, and the split otherwise,
  or when the split is at most one chunk (2^16 keys);
* the low/high split is the same engine with A the first min(N - 1, 14)
  sites, S the rest (the top spin among them) and B empty: A's rows then
  share one histogram.

On the 24-site tori of criterion 1 a separator counts 34 816 (2 x 12),
69 632 (3 x 8) and 264 192 (4 x 6) keys against the split's 8 388 608, and
a build takes 1-2 ms where the split takes 20-25 ms (2-vCPU x86-64).  A
chunk holds at most 2^16 int64 keys per side, and a build's allocations peak
at 0.6-1.3 MiB on those tori and at ~2 MiB for a split of 24 sites or more.

The partition function is then a max-shifted log-sum-exp over the occupied
bins, each bin's energy read off its group counts.  The density of states
is structural (independent of the coupling values), so it is cached per
graph shape, with its groups in one canonical order.

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
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (CapacityError, DomainError, LatticeSpec, MatchingWeights, ReducedCouplings,
                   finite, log_sum)

MAX_ENUM_SITES = 26
# sites in the low half of the DOS split, and the most on either side of a
# separator plan: a side's tables hold at most 2^14 int64 keys each
_LOW_BITS = 14
# log2 of the keys per numpy chunk of a side: 2^16 int64 keys and their
# histogram rows stay in L2 cache, in buffers reused by every chunk of a
# build.  A build of at most one chunk of split keys is not planned
_CHUNK_BITS = 16
# a separator's join of its two sides: at most this many (A bin, B bin)
# pairs, and the cost of one multiply-add of its product against one key
# (~3 ns a key, 2-vCPU x86-64)
_JOIN_BINS = 1 << 16
_MAC_COST = 1 / 8

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
    (coupling, multiplicity).  Returns [(k, mult, ((a,b), ...)), ...], each
    group's pairs sorted; enumerate_partition_graph puts the groups in its
    one canonical order."""
    mult = Counter()
    for a, b, k in edges:
        if a > b:
            a, b = b, a
        mult[(a, b, k)] += 1
    grouped: Dict[Tuple[float, int], List[Tuple[int, int]]] = {}
    for (a, b, k), c in sorted(mult.items()):
        grouped.setdefault((k, c), []).append((a, b))
    return [(k, c, tuple(pairs)) for (k, c), pairs in grouped.items()]


# a plan (S, A, B) of a DOS build: sites S whose removal leaves A and B with
# no bond between them
_Plan = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


def _split_plan(num_sites: int) -> _Plan:
    """The low/high split as a plan: A the first min(N - 1, _LOW_BITS)
    sites, S the rest (the top spin among them), B empty."""
    n_low = min(num_sites - 1, _LOW_BITS)
    return tuple(range(n_low, num_sites)), tuple(range(n_low)), ()


def _separator(num_sites: int,
               edge_groups: Sequence[Tuple[Tuple[int, int], ...]]) -> Optional[Tuple[float, _Plan]]:
    """(cost, plan) of the cheapest separator made of one or two BFS layers
    from some site, or None when none is within the bounds below.

    Sites bonded to every other site (the field's ghost) are always in S, and
    the BFS runs around them.  With root r and layers L_d, L_e (d < e; L_0 is
    empty, so d = 0 is a single layer), S is L_d and L_e, A the layers
    between them and B the rest: a bond joins sites at most one layer apart,
    so none joins A to B.  A plan's cost counts its keys 2^(|S| - 1)
    (2^|A| + 2^|B|), its histogram bins per S state, the multiply-adds of
    the product that joins the two sides, and the join's bins.  Each side
    holds at most _LOW_BITS sites, S at most _CHUNK_BITS + 1, and the join
    at most _JOIN_BINS bins."""
    n = num_sites
    ends = [(a, b, g) for g, pairs in enumerate(edge_groups) for a, b in pairs if a != b]
    if not ends:
        return None
    a, b, group = np.array(ends).T
    adj = np.zeros((n, n), dtype=bool)
    adj[a, b] = adj[b, a] = True
    universal = adj.sum(axis=1) == n - 1
    roots = np.flatnonzero(~universal)
    if not len(roots):
        return None
    # BFS around U from every root at once: layer[r, u] = 1 + the distance
    # from root r to site u, `top` past its reach and -1 in U
    step = adj & ~universal & ~universal[:, None]
    np.fill_diagonal(step, True)
    step = step.astype(np.float64)
    reach = np.eye(n)[roots]
    layer = np.where(reach > 0, 1, 0)
    for depth in range(2, n + 1):
        reach = (reach @ step > 0).astype(np.float64)
        grown = (reach > 0) & (layer == 0)
        if not grown.any():
            break
        layer[grown] = depth
    top = int(layer.max()) + 1
    layer[layer == 0] = top
    layer[:, universal] = -1
    size = top + 1
    # each bond by the layers (lo, hi) of its ends, an end in U taking the
    # other end's, and (top, 0) inside U.  A's count space holds the bonds
    # with lo >= d and hi <= e: those with hi <= e less those with lo < d,
    # as lo < d <= e puts hi <= lo + 1 <= e
    la, lb = layer[:, a], layer[:, b]
    lo = np.minimum(np.where(la < 0, top, la), np.where(lb < 0, top, lb))
    hi = np.maximum(la, lb).clip(0)
    groups, cells = len(edge_groups), len(roots) * size
    cell = (group * len(roots) + np.arange(len(roots))[:, None]) * size
    ends_at = lambda layers: np.bincount((cell + layers).ravel(), minlength=groups * cells)
    below_hi = ends_at(hi).reshape(groups, len(roots), size).cumsum(axis=2)
    below_lo = ends_at(lo).reshape(groups, len(roots), size).cumsum(axis=2)
    # every (d, e) with d < e, per root
    d, e = np.triu_indices(size, 1)
    in_a = below_hi[:, :, e] - below_lo[:, :, d - 1] * (d > 0)
    bonds = np.bincount(group, minlength=groups)[:, None, None]
    bins_a = np.prod(in_a + 1.0, axis=0)
    bins_b = np.prod(bonds - in_a + 1.0, axis=0)
    # sites per layer, then |S|, |A| and |B|
    count = np.bincount((np.arange(len(roots))[:, None] * size + layer[:, roots]).ravel(),
                        minlength=cells).reshape(len(roots), size)
    below = count.cumsum(axis=1)
    n_a = below[:, e - 1] - below[:, d]
    n_s = count[:, d] + count[:, e] + universal.sum()
    n_b = n - n_s - n_a
    pow2 = 2.0 ** np.arange(-1, n + 1)
    join = bins_a * bins_b
    cost = (pow2[n_a + 1] + pow2[n_b + 1] + bins_a + bins_b + join * _MAC_COST) * pow2[n_s] + join
    cost[(n_s < 1) | (n_s > _CHUNK_BITS + 1) | (n_a > _LOW_BITS) | (n_b > _LOW_BITS)
         | (join > _JOIN_BINS)] = np.inf
    r, pair = np.unravel_index(np.argmin(cost), cost.shape)
    if not math.isfinite(cost[r, pair]):
        return None
    d, e = d[pair], e[pair]
    row = layer[r]
    sites = lambda where: tuple(int(u) for u in np.flatnonzero(where))
    return float(cost[r, pair]), (sites((row < 0) | (row == d) | (row == e)),
                                  sites((row > d) & (row < e)),
                                  sites((row >= 0) & ((row < d) | (row > e))))


def _plan(num_sites: int, edge_groups: Sequence[Tuple[Tuple[int, int], ...]]) -> _Plan:
    """The plan of a DOS build: the planner's separator when its cost beats
    the split's 2^(N - 1) keys, else the split.  A build of at most one
    chunk of split keys is not planned."""
    if num_sites - 1 > _CHUNK_BITS:
        best = _separator(num_sites, edge_groups)
        if best is not None and best[0] < 2.0 ** (num_sites - 1):
            return best[1]
    return _split_plan(num_sites)


def _linear(weights: Sequence[int], out: np.ndarray) -> np.ndarray:
    """out[x] = sum_i weights[i] * (bit i of x) for every x < 2^len(weights),
    by doubling: the states with bit i up are those below 2^i plus weights[i]."""
    out[0] = 0
    for i, w in enumerate(weights):
        np.add(out[:1 << i], w, out=out[1 << i:2 << i])
    return out


def _parities(n_bits: int, bonds) -> np.ndarray:
    """Weighted antiparallel count of `bonds` [(weight, i, j)] for every
    pattern of n_bits spins; an end j = -1 is a spin fixed down.  Level i
    fills the patterns with spin i up and every higher spin down from those
    below 2^i: each bond to a higher spin turns antiparallel, and each bond
    to a lower spin flips its parity."""
    out = np.zeros(1 << n_bits, dtype=np.int64)
    lower = [[0] * i for i in range(n_bits)]
    turned = [0] * n_bits
    for w, i, j in bonds:
        i, j = max(i, j), min(i, j)
        turned[i] += w
        if j >= 0:
            turned[j] += w
            lower[i][j] -= 2 * w
    for i in range(n_bits):
        up = _linear(lower[i], out[1 << i:2 << i])
        up += out[:1 << i]
        up += turned[i]
    return out


class _Side(NamedTuple):
    """One side of a plan, in its own count space."""
    bins: int                     # bins of the count space
    offsets: np.ndarray           # flat DOS index of each bin
    base: np.ndarray              # key per side state with every S spin down
    change: list                  # key change per side state as S spin j goes up
    inner: Optional[np.ndarray]   # key of S's own bonds per S state, on A's side


def _side(sites, sep, group_pairs, strides) -> _Side:
    """The side `sites` of a plan with separator `sep`; group_pairs are the
    bonds of its count space, strides the flat DOS's.  S's last spin is fixed
    down."""
    bit = {site: i for i, site in enumerate(sites)}
    free = len(sep) - 1
    s_bit = {site: j if j < free else -1 for j, site in enumerate(sep)}
    own, inner = [], []
    to_s = [[0] * len(sites) for _ in range(free)]
    offsets = np.zeros(1, dtype=np.int64)
    stride = 1
    for pairs, dos_stride in zip(group_pairs, strides):
        for a, b in pairs:
            if a in s_bit and b in s_bit:
                inner.append((stride, s_bit[a], s_bit[b]))
            elif a in s_bit or b in s_bit:
                s, x = (a, b) if a in s_bit else (b, a)
                # antiparallel while S spin s is down iff x is up
                own.append((stride, bit[x], -1))
                if s_bit[s] >= 0:
                    to_s[s_bit[s]][bit[x]] += stride
            else:
                own.append((stride, bit[a], bit[b]))
        offsets = np.add.outer(np.arange(len(pairs) + 1) * dos_stride, offsets).ravel()
        stride *= len(pairs) + 1
    change: list = [0] * free
    for j, weights in enumerate(to_s):
        if any(weights):
            # S spin j up flips the parity of each of its bonds to the side
            change[j] = _linear([-2 * w for w in weights],
                                np.empty(1 << len(sites), dtype=np.int64)) + sum(weights)
    return _Side(stride, offsets, _parities(len(sites), own), change,
                 _parities(free, inner) if inner else None)


def _count_through(num_sites: int, edge_groups: Sequence[Tuple[Tuple[int, int], ...]],
                   plan: _Plan) -> np.ndarray:
    """The density of states counted through `plan` (S, A, B).

    S's last spin is fixed down (spin flip) and its other 2^(|S| - 1) states
    go in chunks of 2^low: a chunk's keys on a side are its first row doubled
    over the chunk's low S spins, and consecutive chunks differ in one high S
    spin (Gray code).  Each side histograms its keys per S state in its own
    count space, and the sides meet in one matrix product over S's states,
    exact in float64 as every count is below 2^27.  With B empty, A's rows
    share one histogram: the low/high split."""
    sep, side_a, side_b = plan
    strides = [1]
    for g in edge_groups:
        strides.append(strides[-1] * (len(g) + 1))
    in_b = set(side_b)
    # a self-loop is never antiparallel and counts nowhere; a bond with an end
    # in B counts on B's side, every other one (S's own too) on A's
    on_a = [[(a, b) for a, b in g if a != b and a not in in_b and b not in in_b]
            for g in edge_groups]
    on_b = [[(a, b) for a, b in g if a != b and (a in in_b or b in in_b)] for g in edge_groups]
    halves = [(side_a, on_a), (side_b, on_b)] if side_b else [(side_a, on_a)]
    sides = [_side(sites, sep, pairs, strides) for sites, pairs in halves]
    # a chunk holds at most 2^_CHUNK_BITS keys, and histogram bins, a side
    span = max(max(len(side.base), side.bins if side_b else 1) for side in sides)
    free = len(sep) - 1
    low = min(free, max(_CHUNK_BITS - (span - 1).bit_length(), 0))
    rows = 1 << low if side_b else 1
    for side in sides:
        for j in range(low if side_b else 0):
            # each S state of a chunk keeps a histogram row of its own
            side.change[j] = side.change[j] + (side.bins << j)
    tops = [side.base.copy() for side in sides]
    keys = [np.empty((1 << low, len(side.base)), dtype=np.int64) for side in sides]
    joined = np.zeros([side.bins for side in sides])
    for chunk in range(1 << (free - low)):
        gray = chunk ^ (chunk >> 1)
        if chunk:
            j = low + (chunk & -chunk).bit_length() - 1
            step = np.add if gray >> (j - low) & 1 else np.subtract
            for top, side in zip(tops, sides):
                step(top, side.change[j], out=top)
        hists = []
        for key, top, side in zip(keys, tops, sides):
            key[0] = top
            for j in range(low):
                np.add(key[:1 << j], side.change[j], out=key[1 << j:2 << j])
            if side.inner is not None:
                key += side.inner[gray << low:(gray + 1) << low, None]
            hists.append(np.bincount(key.ravel(), minlength=rows * side.bins)
                         .reshape(rows, side.bins).astype(np.float64))
        joined += hists[0].T @ hists[1] if side_b else hists[0][0]
    index = sides[0].offsets
    if side_b:
        index = np.add.outer(index, sides[1].offsets)
    dos = np.bincount(index.ravel(), weights=joined.ravel(), minlength=strides[-1])
    return 2 * dos.astype(np.int64)


def _density_of_states(num_sites: int,
                       edge_groups: Sequence[Tuple[Tuple[int, int], ...]]) -> np.ndarray:
    """Joint histogram over the antiparallel-bond count per group, flat
    with group 0 varying fastest, counted through the plan `_plan` picks."""
    return _count_through(num_sites, edge_groups, _plan(num_sites, edge_groups))


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

    # one canonical group order, by their pairs, keys and stores the DOS, so a
    # torus at (k_h, k_v) and at (k_v, k_h) shares one
    groups.sort(key=lambda group: group[2])
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
