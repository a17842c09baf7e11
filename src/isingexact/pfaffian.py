"""Pfaffians and oriented dimer matrices.

pfaffian()             -- dense skew-symmetric Pfaffian (blocked Parlett-Reid
                          tridiagonalization with partial pivoting and
                          deferred rank-2 updates, sign + log magnitude)
build_dimer_matrix()   -- oriented adjacency matrices of the m x n grid for
                          free, cylinder and the four toroidal sign choices
dimer_count_free()     -- the free-grid matching count as one Pfaffian
dimer_count_torus()    -- the four-Pfaffian combination for torus matchings
ising_pfaffian_torus() -- ln Z of the Ising torus through the 4-site-block
                          dimer construction, each Pf^2 checked against its
                          determinant: the four are one call of spectral's
                          Kac-Ward kernel, which ising_torus_logdet reads too

Pfaffians are evaluated directly with their sign (never as +-sqrt(det)), so
the temperature-dependent sign pattern of the four-term combination emerges
instead of being guessed.

The counting routes never form their matrices: `_column_sweep` eliminates
a column block matrix one front of about three columns at a time (Wimmer's
banded case), and it shares the one elimination loop, `_eliminate`, with
pfaffian(): partial pivoting with delayed pivots, where a node whose
column peaks at a node the front cannot eliminate waits for the next
front.  Only the last front sees the column wrap: the free grid is its
close with wrap 0, and each torus route makes one sweep per row-wrap sign
s1 and closes its last front twice, once per column-wrap sign s2.

Every column is the same block, so the sweep first eliminates each
translation-invariant block once and raises its factor to a power: the
column-local nodes, which no other column touches (an Ising cluster's R
and L nodes), and then, on a torus, the odd columns by cyclic reduction
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 627 (1970)), which
halves the column count while it is even and >= 4.  Both follow the
pivot rule: the local step keeps the nodes it delays in the column, and a
level steps aside when its front would delay a pivot, so every pair they
eliminate is the one the rule picks; the front loop sweeps what is left.
The free grid has only the first, which finds no local node in a dimer
column.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (CapacityError, DomainError, LatticeSpec, MatchingWeights, SelfCheckError,
                   _dimer_count, exp_finite, finite, log_cosh, log_sum)
from .spectral import _kacward_log_products

MAX_DIM = 4096
_BLOCK = 32   # elimination steps whose trailing updates are applied at once
_MAX_SWEEP_WORK = 64 * 256 * 768 ** 2   # columns * b * front^2 of the 64 x 64 Ising torus

# The four torus matrices: wrap signs (s1, s2) and weight in the
# combination 1/2 (-Pf A1 + Pf A2 + Pf A3 + Pf A4)
_TORUS_TERMS = {"torus1": (1.0, 1.0, -0.5), "torus2": (1.0, -1.0, 0.5),
                "torus3": (-1.0, 1.0, 0.5), "torus4": (-1.0, -1.0, 0.5)}
TORUS_VARIANTS = tuple(_TORUS_TERMS)
_WRAP_SIGNS = (1.0, -1.0)
VARIANTS = ("free", "cylinder_a", "cylinder_b") + TORUS_VARIANTS


def pfaffian(a: np.ndarray) -> Tuple[int, float]:
    """Pfaffian of a real antisymmetric matrix as (sign, log magnitude).

    Parlett-Reid skew-symmetric tridiagonalization with partial pivoting,
    blocked after M. Wimmer, "Efficient numerical computation of the
    Pfaffian for dense and banded skew-symmetric matrices", ACM TOMS 38:30
    (2012): `_eliminate` with every node eligible.  A structurally singular
    matrix returns (0, -inf).
    """
    a = np.array(a, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("pfaffian needs a square matrix")
    n = len(a)
    if n % 2:
        raise DomainError("pfaffian needs even dimension")
    if n > MAX_DIM:
        raise CapacityError(f"dimension {n} exceeds the {MAX_DIM} ceiling")
    if n == 0:
        return (1, 0.0)
    scale = float(np.abs(a).max())
    if not np.allclose(a, -a.T, atol=1e-12 * max(scale, 1.0)):
        raise DomainError("matrix is not antisymmetric")
    if scale == 0.0:
        return (0, -math.inf)
    sign, log_mag, _ = _eliminate(a, n, scale)
    return (sign, log_mag)


def _eliminate(a: np.ndarray, eligible: int, scale: float) -> Tuple[int, float, int]:
    """Eliminate the first `eligible` nodes of the antisymmetric `a` in pairs,
    in place: Pf(a) = sign * e^log_mag * Pf(a[rest:, rest:]) for the returned
    (sign, log_mag, rest), the Schur complement on the delayed nodes and then
    the others in their order.  sign 0: an eligible column is below
    1e-12 * scale, so a is singular.

    Step k pairs the node at k with the node of largest entry in its
    column, moved to k+1 (each interchange flips the sign), if that node is
    eligible; else the node at k is delayed behind the eligible ones
    (partial pivoting with delayed pivots, Duff & Reid, ACM TOMS 9:302
    (1983)).  With every node eligible no node is delayed.  Rank-2 updates
    are deferred: the two columns of a step are rebuilt from the stored
    matrix plus the pending updates, which are applied every _BLOCK steps
    as one matrix product."""
    n = a.shape[0]
    sign = 1
    log_mag = 0.0
    # pending trailing update L R^T: step j of the block appends the column
    # pairs (tau, w) to L and (w, -tau) to R, so L R^T = sum tau w^T - w tau^T
    left = np.zeros((n, 2 * _BLOCK))
    right = np.zeros((n, 2 * _BLOCK))
    c = 0
    k = 0
    end = eligible   # nodes k..end-1 are eligible and not yet eliminated
    while k < end:
        # live column k: stored entries plus the updates still pending
        col = a[k + 1:, k] + left[k + 1:, :c] @ right[k, :c]
        i = int(np.abs(col).argmax())
        if abs(col[i]) <= 1e-12 * scale:
            return (0, -math.inf, k)
        if i >= end - k - 1:   # the largest entry is not an eligible node's
            end -= 1
            if end != k:
                _interchange(a, left, right, k, end)
                sign = -sign
            continue
        if i:
            _interchange(a, left, right, k + 1, k + 1 + i)
            col[0], col[i] = col[i], col[0]
            sign = -sign
        piv = -col[0]   # a[k, k+1] by antisymmetry
        sign *= 1 if piv > 0 else -1
        log_mag += math.log(abs(piv))
        if k + 2 < n:
            tau = np.divide(col[1:], col[0], out=left[k + 2:, c])   # a[k, k+2:] / piv
            w = np.add(a[k + 2:, k + 1], left[k + 2:, :c] @ right[k + 1, :c],
                       out=left[k + 2:, c + 1])
            right[k + 2:, c] = w
            np.negative(tau, out=right[k + 2:, c + 1])
            c += 2
            if c == 2 * _BLOCK:
                t = k + 2
                a[t:, t:] += left[t:] @ right[t:].T
                c = 0
        k += 2
    if c and k < n:
        a[k:, k:] += left[k:, :c] @ right[k:, :c].T
    return (sign, log_mag, k)


def _column_sweep(d: np.ndarray, c: np.ndarray, n: int,
                  wraps: Sequence[float]) -> List[Tuple[int, float]]:
    """Pf(A) as (sign, log magnitude) of A = I_n (x) D + H (x) C - H^T (x) C^T
    for each wrap in `wraps`, H the n x n shift with the wrap in its
    (n-1, 0) corner (0: the free grid), without forming A.

    Every column is the same block, so two reductions eliminate one
    representative and raise its factor to a power.  First
    `_local_nodes` eliminates the column-local nodes, those with no entry
    in C or C^T, from one D: Pf(D_local)^n, and each column keeps its
    delayed local nodes and its coupled ones (an Ising cluster column
    shrinks from 4m to about 2m nodes).  It steps aside when it can
    eliminate no node.  Then, on a torus whose wraps are all +-1 and while
    n is even and >= 4, `_halve` eliminates the odd columns by cyclic
    reduction: one front [odd column, right neighbor, left neighbor]
    gives Pf^(n/2) and the n/2-column torus with the same wrap.  When that
    front would delay a pivot, two adjacent columns are merged into one of
    2b nodes, at most once per sweep and only if the merged torus can
    itself be halved, and the level is retried; a refused retry undoes the
    merge.  Either step also steps aside at a singular column, so every
    pair it eliminates is the one the pivot rule picks in the full matrix,
    and the work ceiling is judged before either.  A free sweep (wrap 0)
    runs only the first.

    What is left is swept one front at a time.  Column 0 is the separator
    the wrap couples to; the front [delayed nodes, column j, column j+1,
    separator] eliminates the first two groups, whose couplings are all in
    it.  The wrap enters only the last front, so columns 1 .. n-2 are
    swept once and a copy of the last front is closed for each wrap; one
    column (H = [[wrap]]) is closed as D + wrap (C - C^T).  Pivots are
    judged against the largest entry of A, so a last front of roundoff is
    singular, as in pfaffian()."""
    b = len(d)
    # work ~ columns * eliminated nodes * front^2, judged on the unreduced
    # sweep so the reductions refuse exactly the inputs a plain sweep
    # would; the largest front it lets through is 3b = 2124 nodes (36 MB),
    # a 708 x 3 dimer torus's.  A merged column's front, 6b, is smaller on
    # every route, as each sweeps along its longer side
    if n * b * (3 * b) ** 2 > _MAX_SWEEP_WORK:
        raise CapacityError(f"{n} columns of {b} nodes exceed the Pfaffian sweep ceiling")
    singular = [(0, -math.inf)] * len(wraps)
    scale = float(max(np.abs(d).max(), np.abs(c).max()))
    if scale == 0.0:
        return singular
    sign, log_mag = 1, 0.0
    local = _local_nodes(d, c, n, scale)
    if local is not None:
        sign, log_mag, d, c = local
    merged = False
    while all(wrap * wrap == 1.0 for wrap in wraps) and n >= 4 and n % 2 == 0:
        level = _halve(d, c, scale)
        if level is None and not merged and n % 4 == 0 and n >= 8:
            # a node that peaks at the next column pairs with it inside the
            # merged column
            merged = True
            z = np.zeros_like(c)
            pair = np.block([[d, c], [-c.T, d]]), np.block([[z, z], [c, z]])
            level = _halve(*pair, scale)
            if level is not None:
                d, c, n = *pair, n // 2
        if level is None:
            break
        # the odd columns move ahead of the even ones: sum_t (t + 1) block
        # interchanges of len(d) nodes each
        half = n // 2
        step_sign, step_log, d, c = level
        sign *= step_sign ** half * (-1) ** (len(d) * half * (half + 1) // 2 % 2)
        log_mag += half * step_log
        n = half
    b = len(d)
    if n == 1:
        closes = []
        for wrap in wraps:
            last_sign, last_log, _ = _eliminate(d + wrap * (c - c.T), b, scale)
            closes.append((sign * last_sign, log_mag + last_log))
        return closes
    # the front is kept in the order [delayed, column j, separator]; moving
    # a column past the separator is b * b interchanges
    flip = -1 if b % 2 else 1
    sign *= flip
    f = np.block([[d, -c.T], [c, d]])   # column 1, then the separator
    for j in range(1, n - 1):
        h = len(f) - b   # the delayed nodes and column j
        cur = slice(h - b, h)
        g = np.zeros((h + 2 * b, h + 2 * b))
        nxt = slice(h, h + b)
        g[:h, :h] = f[:h, :h]
        g[:h, h + b:] = f[:h, h:]
        g[h + b:, :h] = f[h:, :h]
        g[h + b:, h + b:] = f[h:, h:]
        g[nxt, nxt] = d
        g[cur, nxt] = c
        g[nxt, cur] = -c.T
        sign *= flip
        step_sign, step_log, rest = _eliminate(g, h, scale)
        if step_sign == 0:
            return singular
        sign *= step_sign
        log_mag += step_log
        f = g[rest:, rest:]
    h = len(f) - b   # the delayed nodes and column n-1
    cur = slice(h - b, h)
    closes = []
    for wrap in wraps:
        g = f.copy()
        g[cur, h:] += wrap * c
        g[h:, cur] -= wrap * c.T
        last_sign, last_log, _ = _eliminate(g, len(g), scale)
        closes.append((sign * last_sign, log_mag + last_log))
    return closes


def _local_nodes(d: np.ndarray, c: np.ndarray, n: int,
                 scale: float) -> Optional[Tuple[int, float, np.ndarray, np.ndarray]]:
    """Eliminate the column-local nodes (no entry in C or C^T) of all n
    columns at once: (sign, log magnitude, D', C') with Pf(A) = sign *
    e^log_mag * Pf(A'), A' the sweep of the nodes left in each column, the
    delayed local nodes and then the coupled ones, with the Schur
    complement D' and C' the C on them (zero on the delayed nodes).  None
    when no local node can be eliminated or one D meets a singular
    column."""
    local = ~(c.any(axis=0) | c.any(axis=1))
    k = int(local.sum())
    b = len(d)
    if k == 0 or (k == b and b % 2):
        # no local node, or an uncoupled column of odd size, whose last node
        # has no partner: the front loop finds A singular
        return None
    order = np.concatenate([np.flatnonzero(local), np.flatnonzero(~local)])
    g = d[np.ix_(order, order)]
    sign, log_mag, rest = _eliminate(g, k, scale)
    if sign == 0 or rest == 0:
        return None
    # each column's nodes go to `order` (the interchanges of the
    # elimination are in its sign), then every column's eliminated nodes
    # ahead of all the others: n (n-1) / 2 interchanges of rest x (b - rest)
    inversions = int(np.cumsum(~local)[local].sum())
    parity = (n * inversions + rest * (b - rest) * (n * (n - 1) // 2)) % 2
    kept = np.zeros((b - rest, b - rest))
    kept[k - rest:, k - rest:] = c[np.ix_(~local, ~local)]
    return (sign ** n * (-1) ** parity, n * log_mag, g[rest:, rest:].copy(), kept)


def _halve(d: np.ndarray, c: np.ndarray,
           scale: float) -> Optional[Tuple[int, float, np.ndarray, np.ndarray]]:
    """One level of cyclic reduction of a torus with wrap +-1: (sign, log
    magnitude, D', C') from eliminating one odd column in the front
    [odd column, right neighbor, left neighbor], with Pf(D) = sign *
    e^log_mag and D' = D + T_rr + T_ll, C' = T_lr from the Schur complement
    T on its neighbors; the wrap's square is 1, so the wrapping odd column
    gives the same D' and carries the wrap onto C'.  None when the
    elimination would delay a pivot or meets a singular column."""
    b = len(d)
    z = np.zeros_like(d)
    g = np.block([[d, c, -c.T], [-c.T, z, z], [c, z, z]])
    sign, log_mag, rest = _eliminate(g, b, scale)
    if sign == 0 or rest != b:
        return None
    t = g[b:, b:]
    return sign, log_mag, d + t[:b, :b] + t[b:, b:], t[b:, :b].copy()


def _torus_closes(blocks: Callable[[float], Tuple[np.ndarray, np.ndarray]],
                  n: int) -> List[Tuple[int, float]]:
    """Pf of the four torus matrices as (sign, log magnitude), in
    _TORUS_TERMS order, from one sweep per row-wrap sign s1 (column blocks
    blocks(s1)) closed for both column-wrap signs s2."""
    closes = {(s1, s2): pf for s1 in _WRAP_SIGNS for s2, pf in
              zip(_WRAP_SIGNS, _column_sweep(*blocks(s1), n, _WRAP_SIGNS))}
    return [closes[s1, s2] for s1, s2, _ in _TORUS_TERMS.values()]


def _interchange(a: np.ndarray, left: np.ndarray, right: np.ndarray, i: int, j: int) -> None:
    """Interchange nodes i and j of a and of the pending update factors."""
    _swap(a, i, j)
    _swap(a.T, i, j)
    _swap(left, i, j)
    _swap(right, i, j)


def _swap(x: np.ndarray, i: int, j: int) -> None:
    """Interchange rows i and j of x in place."""
    row = x[i].copy()
    x[i] = x[j]
    x[j] = row


def pfaffian_value(a: np.ndarray) -> float:
    """Pfaffian as a plain float; DomainError past the float range."""
    sign, log_mag = pfaffian(a)
    return 0.0 if sign == 0 else sign * exp_finite(log_mag, "|Pf|")


# ---------------------------------------------------------------------------
# oriented grid matrices
# ---------------------------------------------------------------------------

def _shift(length: int, corner: float) -> np.ndarray:
    """+1 on the superdiagonal and `corner` in the (last, first) slot."""
    h = np.eye(length, k=1)
    h[length - 1, 0] = corner
    return h


def build_dimer_matrix(spec: LatticeSpec, w: MatchingWeights,
                       variant: str = "free") -> np.ndarray:
    """Oriented adjacency matrix of the m x n grid.

    Site (i, j) maps to p = j*m + i (row index runs fastest).  Bonds along
    the row index carry z1, bonds along the column index carry (-1)^(i+1) z2
    (the alternation that makes every elementary face odd).  Boundary
    variants:

      free        no wraps
      cylinder_a  wrap in the column direction (alternating z2 entries with
                  the odd-parity corner sign)
      cylinder_b  wrap in the row direction with entry -z1 (requires an even
                  row count)
      torus1..4   both wraps with sign choices (+,+), (+,-), (-,+), (-,-)
                  multiplying the z1 / z2 wrap entries
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    m, n = spec.rows, spec.cols
    if (m * n) % 2:
        raise DomainError("odd site count has no perfect matching")
    if m * n > MAX_DIM:
        raise CapacityError("grid too large for a dense Pfaffian")
    s1 = s2 = 0.0
    if variant == "cylinder_b":
        s1 = -1.0
    elif variant == "cylinder_a":
        s2 = -1.0
    elif variant in TORUS_VARIANTS:
        s1, s2, _ = _TORUS_TERMS[variant]
    d, c = _dimer_blocks(m, w, s1)
    h_n = _shift(n, s2)
    return np.kron(np.eye(n), d) + np.kron(h_n - h_n.T, c)


def _dimer_blocks(m: int, w: MatchingWeights, s1: float) -> Tuple[np.ndarray, np.ndarray]:
    """Column blocks (D, C) of build_dimer_matrix: z1 along the column with
    wrap sign s1 (0: free), and z2 times (-1)^(i+1) to the next column."""
    h = _shift(m, s1)
    return w.z1 * (h - h.T), w.z2 * np.diag((-1.0) ** (np.arange(m) + 1))


def dimer_count_free(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Matching generating function of the free grid as |Pf| of the free
    build_dimer_matrix, swept along the longer side; 0 for an odd site
    count, which has no perfect matching.  A count past the float range is
    a DomainError, and so is one below its normal range (a singular sweep
    included) on a grid that has a matching."""
    LatticeSpec(m, n, "square", "free")   # rejects sides < 1
    if (m * n) % 2:
        return 0.0
    if m > n:
        m, n, w = n, m, MatchingWeights(w.z2, w.z1)
    # Kasteleyn: the Pfaffian is the count up to a sign that depends only
    # on the site order (negative for odd m and n = 2 mod 4)
    (sign, log_mag), = _column_sweep(*_dimer_blocks(m, w, 0.0), n, (0.0,))
    return _dimer_count(log_mag if sign else -math.inf, m, n, w)


def dimer_count_torus(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Matching generating function of the toroidal grid:
    (1/2) (-Pf A1 + Pf A2 + Pf A3 + Pf A4).

    The alternating-sign direction must have even length: odd-row grids are
    transposed first, and so are even ones with more rows than columns,
    to sweep along the longer side (the torus count is
    orientation-invariant).  A count past the float range is a DomainError,
    and so is one below its normal range on a grid that has a matching."""
    LatticeSpec(m, n, "square", "torus")   # rejects sides < 1
    if (m * n) % 2:
        return 0.0
    if m % 2 or (m > n and n % 2 == 0):
        m, n, w = n, m, MatchingWeights(w.z2, w.z1)
    closes = _torus_closes(lambda s1: _dimer_blocks(m, w, s1), n)
    weights = [weight * sign for (_, _, weight), (sign, _) in zip(_TORUS_TERMS.values(), closes)]
    return _dimer_count(log_sum([log_mag for _, log_mag in closes], weights, "the dimer count"),
                        m, n, w)


# ---------------------------------------------------------------------------
# Ising partition function through the 4-site dimer clusters
# ---------------------------------------------------------------------------

_A0 = np.array([
    [0.0, 1.0, -1.0, -1.0],
    [-1.0, 0.0, 1.0, -1.0],
    [1.0, -1.0, 0.0, 1.0],
    [1.0, 1.0, -1.0, 0.0],
])


def _grid(wrap: float) -> str:
    """The angle grid of wrap sign +1 (any s > 0) or -1."""
    return "integer" if wrap > 0 else "half"


def ising_torus_logdet(m: int, n: int, z1: float, z2: float,
                       s1: float, s2: float) -> float:
    """Closed-form log determinant of a cluster matrix:

        det = prod_{t1} prod_{t2} [(1 - z2 z1 - z1 - z2)^2
                                   + 4 z1 (1-z2^2) sin^2(t1/2) + 4 z2 (1-z1^2) sin^2(t2/2)]

    with t on the integer grid 2 pi r / L for wrap sign +1 and the
    half-integer grid pi (2r+1) / L for wrap sign -1.  This is the Kac-Ward
    double product with x = z2, y = z1, in its sum-of-squares form, read
    from the kernel's four; -inf when a factor vanishes."""
    return _kacward_log_products(m, n, z2, z1)[_grid(s1), _grid(s2)]


def _ising_blocks(m: int, z1: float, z2: float, s1: float) -> Tuple[np.ndarray, np.ndarray]:
    """Column blocks (D, C) of the cluster matrix with m sites per column:
    D holds the 4-node clusters (R, L, U, D) of one column and the z1 bonds
    from R of site i to L of site i+1 (wrap sign s1 on the last); C couples
    U of each site to D of the same site in the next column with z2."""
    b = 4 * m
    sites = np.arange(m)
    d = np.zeros((b, b))
    d.reshape(m, 4, m, 4)[sites, :, sites, :] = _A0
    r, l = 4 * sites, 4 * ((sites + 1) % m) + 1
    bond = np.full(m, z1)
    bond[-1] *= s1
    d[r, l] += bond
    d[l, r] -= bond
    c = np.zeros((b, b))
    c[4 * sites + 2, 4 * sites + 3] = z2
    return d, c


def ising_pfaffian_torus(m: int, n: int, k_h: float, k_v: float) -> float:
    """ln Z of the m x n Ising torus via dimers:

        Z = (2 cosh k_h cosh k_v)^{mn} * 1/2 (-Pf A1 + Pf A2 + Pf A3 + Pf A4)

    where the A_i are the four cluster matrices with wrap-sign choices
    (+,+), (+,-), (-,+), (-,-) and bond fugacities z = tanh k.  Each
    Pfaffian is cross-checked against the closed-form determinant of the
    same matrix (ising_torus_logdet), all four from one call of the
    Kac-Ward kernel; a miss is a SelfCheckError.  core.log_sum adds the four
    log magnitudes, each weighted by its coefficient above, the Pfaffian's
    sign and -1 for an odd site count.
    """
    LatticeSpec(m, n)   # rejects sides < 1
    if not (k_h > 0 and k_v > 0):
        raise DomainError("couplings must be positive")
    if m > n:
        # the torus transposed: columns of min(m, n) sites make the fronts small
        m, n, k_h, k_v = n, m, k_v, k_h
    z1 = math.tanh(k_v)   # row-direction bonds couple neighboring rows
    z2 = math.tanh(k_h)
    closes = _torus_closes(lambda s1: _ising_blocks(m, z1, z2, s1), n)
    log_dets = _kacward_log_products(m, n, z2, z1)
    # an odd site count flips the global Pfaffian sign (site-ordering
    # permutation parity); the relative sign pattern is unchanged
    parity = -1.0 if (m * n) % 2 else 1.0
    variants = [(variant, parity * weight * sign, log_mag, log_dets[_grid(s1), _grid(s2)])
                for (variant, (s1, s2, weight)), (sign, log_mag)
                in zip(_TORUS_TERMS.items(), closes)]
    top = max(lm for _, w, lm, _ in variants if w != 0)
    for variant, w, log_mag, log_det in variants:
        # near criticality one wrap-sign matrix is almost singular; its
        # Pfaffian is pure roundoff and its term is negligible, so the
        # determinant cross-check only applies to contributing variants
        if w != 0 and log_mag > top - 15.0 and not math.isclose(
                2.0 * log_mag, log_det, rel_tol=1e-8, abs_tol=1e-8):
            raise SelfCheckError(f"{variant}: Pfaffian^2 gives log det {2.0 * log_mag!r}, "
                                 f"the closed form {log_det!r}")
    pref = m * n * (math.log(2.0) + log_cosh(k_h) + log_cosh(k_v))
    return finite(pref + log_sum([lm for _, _, lm, _ in variants],
                                 [w for _, w, _, _ in variants], "the four-Pfaffian sum"),
                  "ln Z")

