"""Closed-form finite-lattice partition functions from hyperbolic spectra.

Four families of exact products:

* the four-product torus formula built on the gamma spectrum,
* the four grid-parity double products and their signed combination,
* the free-boundary dimer product (cosine double product),
* the triangular-torus double sum (per-site log Z proxy).

All products are accumulated in log space; raw products overflow already
around 40 x 40.  The Kac-Ward factor and the triangular bracket are
core._bracket's critical bracket, a squared gap plus sin^2 terms with
non-negative slopes, so neither cancels near its critical manifold.

The Kac-Ward route has one kernel, _kacward_log_products, which returns
the four parity products of a torus on every call; kacward_products,
kacward_log_z and the Pfaffian's self-check each read its dict.  A
parity-product factor depends on its two angles only through sin^2 of
their halves, and each grid is closed under theta -> -theta, so the kernel
forms each distinct factor once, about (m/2 + 1)(n/2 + 1) of them, and
weights it by its multiplicity.  The factors of up to 8 adjacent angles
phi_j of one multiplicity make a run, whose product
prod_j (r + c_j) = sum_p e_p r^p has coefficients e_p >= 0: one matrix
product of the row terms' powers [1 r ... r^8] by the runs' coefficients
gives every run's product without cancellation, and one log serves the
run.  All four products take one such pass, from two tables kept per
side: the stacked rows and the stacked runs of both parity grids.  A
product whose least factor could take a run out of the normal range, or
with a side past those tables, takes its factors a block at a time.  A
run is expanded from its own factors, not from an identity over the whole
phi grid, so every factor still enters and the route shares nothing with
the gamma spectrum, which is that identity.

The three double products (Kac-Ward, free dimers, triangular) share one
blocked loop, _blocked_log_sum: it forms at most _BLOCK factors at a time
in one reused buffer, from the parts of the one-dimensional grids that the
block needs, checks the block against its floor before taking its log, and
adds the block's share of the sum, so a product's memory is a few blocks,
whatever its shape.  A product that fits in one block is its one-shot
expression, bitwise.  Past MAX_KACWARD_FACTORS factors, and past
_MAX_SPECTRUM columns of a gamma spectrum, a route is a CapacityError
before it allocates.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (CapacityError, DomainError, LatticeSpec, MatchingWeights, ReducedCouplings,
                   _bracket, _dimer_count, _grid_angles, _log_2sinh_abs, angle_grid,
                   dual_coupling, finite, log_cosh, log_sum)


@dataclass(frozen=True)
class GridParity:
    """Angle-grid selector per axis: 'integer' -> {2 pi r / L},
    'half' -> {(2r+1) pi / L}."""

    parity_v: str = "integer"   # grid paired with the row direction
    parity_h: str = "integer"   # grid paired with the column direction

    def __post_init__(self):
        for p in (self.parity_v, self.parity_h):
            if p not in ("integer", "half"):
                raise DomainError(f"unknown parity {p!r}")


# columns of a gamma spectrum: 2n angles are 4 MiB of float64 per array, and
# kaufman_partition peaks near 18 MiB, at 128 times a 2048-wide torus
_MAX_SPECTRUM = 1 << 18


def gamma_spectrum(n: int, k_t: float, k_s: float) -> np.ndarray:
    """The 2n hyperbolic angles of an n-column transfer direction:
    gamma_k = arccosh(cosh 2k_t* cosh 2k_s - cos(pi k/n) sinh 2k_t* sinh 2k_s)
    for k >= 1, all non-negative, and gamma_0 = 2 (k_t* - k_s), signed (it
    changes sign at the self-dual point).

    k_t is the coupling along the transfer direction (whose dual k_t*
    appears), k_s the in-row coupling.  The arccosh argument is taken
    through cosh gamma - 1 = 2 sinh^2(a - b) + 2 sin^2(theta/2) sinh 2a sinh 2b
    (a = k_t*, b = k_s), a sum of non-negative terms, as sinh(gamma/2) =
    e^{a+b} w with w free of overflow.  From a + b = 700 on, where e^{a+b}
    nears overflow and arcsinh x equals ln 2x to double precision, gamma is
    2 (a + b + ln 2w).
    """
    LatticeSpec(1, n)   # rejects n < 1
    if n > _MAX_SPECTRUM:
        raise CapacityError(f"a gamma spectrum of {n} columns exceeds the "
                            f"{_MAX_SPECTRUM}-column ceiling")
    if not (k_t > 0.0 and math.isfinite(k_t)):
        raise DomainError("k_t must be positive (its dual enters the spectrum)")
    if not (k_s >= 0.0 and math.isfinite(k_s)):
        raise DomainError("k_s must be non-negative")
    kd = dual_coupling(k_t)
    if not math.isfinite(2.0 * (kd + k_s)):
        raise DomainError(f"the gamma spectrum at k_t = {k_t!r}, k_s = {k_s!r} "
                          "is past the float range")
    theta = angle_grid("integer", 2 * n)
    w = 0.5 * np.sqrt(math.exp(-4.0 * min(kd, k_s)) * math.expm1(-2.0 * abs(kd - k_s)) ** 2
                      + np.sin(0.5 * theta) ** 2 * (math.expm1(-4.0 * kd)
                                                   * math.expm1(-4.0 * k_s)))
    if kd + k_s < 700.0:
        gamma = 2.0 * np.arcsinh(math.exp(kd + k_s) * w)
    else:
        with np.errstate(divide="ignore"):
            gamma = 2.0 * (kd + k_s + np.log(2.0 * w))
    gamma[0] = 2.0 * (kd - k_s)
    return gamma


def kaufman_partition(m: int, n: int, k_t: float, k_s: float) -> float:
    """ln Z of the m x n torus from the four spectral products:

    Z = 1/2 (2 sinh 2k_t)^{mn/2} [ prod 2cosh(m g_odd/2) + prod 2sinh(m g_odd/2)
        + prod 2cosh(m g_even/2) - prod 2sinh(m g_even/2) ]

    with the even-index sinh product carrying the signed gamma_0, so the
    final term changes sign with 2(k_t* - k_s) and one code path is valid on
    both sides of the critical point: core.log_sum adds the four log
    products with weights (1, 1, 1, -sign gamma_0).
    """
    LatticeSpec(m, n)   # rejects sides < 1
    if not (k_s > 0.0):
        raise DomainError("k_s must be positive")
    half_m = 0.5 * m * gamma_spectrum(n, k_t, k_s)
    odd = half_m[1::2]
    even = half_m[0::2]
    # ln 2cosh x = |x| + ln(1 + e^{-2|x|}); np.logaddexp(x, -x) calls libm's
    # exp and rounds differently from numpy's vector exp on some hosts
    ax = np.abs(half_m)
    log_2cosh = ax + np.log1p(np.exp(-2.0 * ax))
    terms = [log_2cosh[1::2].sum(), _log_2sinh_abs(odd).sum(),
             log_2cosh[0::2].sum(), _log_2sinh_abs(even).sum()]
    return finite(-math.log(2.0)
                  + 0.5 * m * n * float(_log_2sinh_abs(2.0 * k_t))
                  + log_sum(terms, (1.0, 1.0, 1.0, -np.sign(half_m[0])), "the spectral sum"),
                  "ln Z")


def kacward_products(m: int, n: int, k_h: float, k_v: float,
                     gp: GridParity) -> float:
    """log of the double product over the chosen parity grids of

        (1+x^2)(1+y^2) - 2y(1-x^2) cos theta - 2x(1-y^2) cos phi
          = (1 - xy - y - x)^2 + 4y(1-x^2) sin^2(theta/2) + 4x(1-y^2) sin^2(phi/2)

    with x = tanh k_h, y = tanh k_v, theta on the row-direction grid
    (parity_v, size m) and phi on the column-direction grid (parity_h,
    size n): the gp product of the kernel, _kacward_log_products, which
    makes all four.  Each factor is taken in the second form,
    core._bracket's at t = (x, y, 1): a sum of non-negative terms, so near
    the critical manifold, where the gap is small, it keeps its digits.
    -inf where a factor is below 1e-300 (at theta = phi = 0 on the
    integer/integer grid, where the float gap is 0).
    """
    _check_couplings(k_h, k_v)
    return _kacward_log_products(m, n, math.tanh(k_h), math.tanh(k_v))[gp.parity_v, gp.parity_h]


def _check_couplings(k_h: float, k_v: float) -> None:
    if not (k_h > 0 and k_v > 0):
        raise DomainError("couplings must be positive")


# factors of one double product (Kac-Ward, free dimers, triangular sum), a
# 4096 x 4096 grid.  The blocks bound the memory, so this bounds the work:
# at the ceiling the four Kac-Ward products take 0.01 s (4096 x 4096) or
# ~0.9 s (1 x 2^24), and the triangular sum up to ~0.7 s (2 vCPUs)
MAX_KACWARD_FACTORS = 1 << 24
# factors per block of a double product: 256 KiB of float64, which fits in L2
_BLOCK = 1 << 15


def _refuse_past_ceiling(rows: int, cols: int, what: str) -> None:
    if rows * cols > MAX_KACWARD_FACTORS:
        raise CapacityError(f"{rows} x {cols} = {rows * cols} {what} factors exceed "
                            f"the {MAX_KACWARD_FACTORS} ceiling")


def _blocked_log_sum(rows: int, cols: int, row_terms, col_terms, fill, reduce,
                     floor: float | None):
    """Sum of the logs of the rows x cols factors F, a block at a time.  A
    block is whole rows of at most _BLOCK factors, or one row's run of
    _BLOCK columns.  For the slices r and c of its rows and columns,
    row = row_terms(r) and col = col_terms(c) are what the block needs of
    them (the column runs are the outer loop, so each run's are built
    once); fill(row, col, out) writes F[r, c] into out, a view of one
    buffer that every block reuses; and reduce(row, col, log F[r, c]) is
    the block's share of the sum, a float or an array.  So a product holds
    a few blocks' worth of arrays at most, whatever its shape.  -inf once a
    factor is below floor, checked before the block's log is taken, so a
    vanishing factor raises no RuntimeWarning; a floor of None is no check.
    A product that fits in one block is one pass of the loop: bitwise its
    one-shot expression."""
    step = max(1, _BLOCK // cols)    # rows per block
    width = min(cols, _BLOCK)        # columns per block: all of them, or one row's run
    buffer = np.empty(min(rows * cols, _BLOCK))
    total = 0.0
    for c0 in range(0, cols, width):
        c1 = min(c0 + width, cols)
        col = col_terms(slice(c0, c1))
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            row = row_terms(slice(r0, r1))
            block = fill(row, col, buffer[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0))
            if floor is not None and block.min() < floor:
                return -math.inf
            total += reduce(row, col, np.log(block, out=block))
    return total


def _folded_count(parity: str, length: int) -> int:
    """How many angles of angle_grid(parity, length) are distinct under
    theta -> 2 pi - theta."""
    return length // 2 + 1 if parity == "integer" else (length + 1) // 2


def _folded_grid(parity: str, length: int, start: int = 0,
                 stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The angles of angle_grid(parity, length) that are distinct under
    theta -> 2 pi - theta, with their multiplicities: 2 for each, 1 for the
    self-reflected 0 (on the integer grid) and pi (on the integer grid of
    even length and the half grid of odd length).  The multiplicities sum
    to length.  Only those from start to stop (all by default) are built."""
    count = _folded_count(parity, length)
    stop = count if stop is None else stop
    weights = np.full(stop - start, 2.0)
    if parity == "integer" and start == 0:
        weights[0] = 1.0
    if (parity == "integer") == (length % 2 == 0) and stop == count:
        weights[-1] = 1.0
    return _grid_angles(parity, length, np.arange(start, stop)), weights


def _grid_sin_sq(parity: str, length: int, start: int = 0, stop: int | None = None):
    """sin^2(angle/2) of the folded grid of angle_grid(parity, length) from
    start to stop (all by default), and the multiplicities there."""
    angles, weights = _folded_grid(parity, length, start, stop)
    return np.sin(0.5 * angles) ** 2, weights


def _read_only(arrays: tuple) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return arrays


# the stacked rows and runs of sides up to 4096 (at most ~100 KiB each) are
# kept, as building them cost a small product as much as its sum, and the
# torus's four products share them; past it a run pass would rebuild its
# runs' coefficients on every call
_CACHED_SIDE = 4096


# angles per run of the Kac-Ward kernel.  A run's product of at most 8
# factors, each <= 12 (g^2 <= 4, S_i <= 4) and >= _LEAST_RUN_FACTOR, is a
# normal float: 12^8 < 2^29 and 2^-1000 > 2^-1022
_RUN = 8
_LEAST_RUN_FACTOR = 2.0 ** -125
_PARITIES = ("integer", "half")
_PAIRS = tuple(itertools.product(_PARITIES, repeat=2))


def _run_coefficients(terms: np.ndarray) -> np.ndarray:
    """The coefficients e_p of prod_j (r + c_j) = sum_p e_p r^p for each
    column c of terms (_RUN x runs, NaN past a run's end), e_p in row p:
    the place of r^p in _powers.  Every c_j is >= 0, so every e_p is a sum
    of non-negative products, and nothing cancels."""
    steps = ~np.isnan(terms)
    factors = np.where(steps, terms, 1.0)   # past a run's end: times 1
    coefficients = np.zeros((_RUN + 1, terms.shape[1]))
    coefficients[0] = 1.0
    for k in range(_RUN):
        # times (r + c): e_p -> c e_p + e_{p-1}; the degree is at most k
        shifted = coefficients[:k + 1] * steps[k]
        coefficients[:k + 2] *= factors[k]
        coefficients[1:k + 2] += shifted
    return coefficients


@functools.lru_cache(maxsize=64)
def _stacked_rows(length: int) -> tuple:
    """sin^2(angle/2) of the folded grids of angle_grid(p, length), p in
    _PARITIES, laid end to end, and their multiplicities as a matrix with
    one row per grid, zero off its own angles."""
    grids = [_grid_sin_sq(parity, length) for parity in _PARITIES]
    weights = np.zeros((len(grids), sum(len(sin_sq) for sin_sq, _ in grids)))
    offset = 0
    for i, (sin_sq, multiplicities) in enumerate(grids):
        weights[i, offset:offset + len(sin_sq)] = multiplicities
        offset += len(sin_sq)
    return _read_only((np.concatenate([sin_sq for sin_sq, _ in grids]), weights))


@functools.lru_cache(maxsize=64)
def _stacked_runs(length: int) -> tuple:
    """The runs of the folded grids of angle_grid(p, length), p in
    _PARITIES, laid end to end.  A grid's runs, in its order: each
    multiplicity-1 end (0 on the integer grid, and pi where the grid is
    folded onto it) alone, and the multiplicity-2 angles between them in
    runs of _RUN, the last one short.  Returns the _run_coefficients of
    each run's sin^2(angle/2), a column each, the degree of each
    coefficient in them, and the runs' multiplicities as a matrix with one
    row per grid, zero off its own runs."""
    coefficients, degrees, weights = [], [], []
    for i, parity in enumerate(_PARITIES):
        sin_sq, multiplicities = _grid_sin_sq(parity, length)
        count = len(sin_sq)
        head = 1 if parity == "integer" else 0
        tail = 1 if (parity == "integer") == (length % 2 == 0) and count > head else 0
        first = np.concatenate([[0] * head, np.arange(head, count - tail, _RUN),
                                [count - 1] * tail]).astype(int)
        last = np.append(first[1:], count)
        # the places past a run's end point at a NaN after the grid
        index = first + np.arange(_RUN)[:, None]
        terms = np.append(sin_sq, np.nan)[np.where(index < last, index, count)]
        coefficients.append(_run_coefficients(terms))
        # e_p of a run of length L is of degree L - p
        degrees.append(np.maximum(last - first - np.arange(_RUN + 1)[:, None], 0))
        weights.append(np.zeros((len(_PARITIES), len(first))))
        weights[-1][i] = multiplicities[first]
    return _read_only((np.concatenate(coefficients, axis=1), np.concatenate(degrees, axis=1),
                       np.concatenate(weights, axis=1)))


def _powers(r: np.ndarray) -> np.ndarray:
    """[1 r ... r^8] of each r, in the rows, each power the last times r."""
    powers = np.empty((_RUN + 1, len(r)))
    powers[0] = 1.0
    powers[1] = r
    for p in range(2, _RUN + 1):
        np.multiply(powers[p - 1], r, out=powers[p])
    return powers


def _run_pass(m: int, n: int, terms) -> np.ndarray:
    """The logs of the four parity products of an m x n torus with sides up
    to _CACHED_SIDE, P[v, h] with v and h the indices of the row and column
    parities in _PARITIES, in one blocked pass whose rows are both row
    grids' folded angles end to end and whose columns are both column
    grids' runs.  terms = (gap, s_theta, s_phi): a row's term is
    r = gap + s_theta sin^2(theta/2), a column's c = s_phi sin^2(phi/2).  A
    block is the _powers of its rows times its runs' coefficients, one
    matrix product whose entries are the runs' products prod_j (r + c_j),
    so its log is one log per run.  Its share is W_r (log block) W_run^T,
    with the multiplicities of each grid's rows and runs in that grid's row
    of W_r and W_run."""
    gap, s_theta, s_phi = terms
    sin_sq, row_weights = _stacked_rows(m)
    # the runs' coefficients are those of sin^2, and e_k(s c) = s^k e_k(c)
    coefficients, degrees, run_weights = _stacked_runs(n)
    coefficients = coefficients * (s_phi ** np.arange(_RUN + 1))[degrees]
    return _blocked_log_sum(len(sin_sq), coefficients.shape[1],
                            lambda part: (_powers(gap + s_theta * sin_sq[part]),
                                          row_weights[:, part]),
                            lambda part: (coefficients[:, part], run_weights[:, part]),
                            lambda row, col, out: np.matmul(row[0].T, col[0], out=out),
                            lambda row, col, logs: (row[1] @ logs) @ col[1].T, None)


def _factor_pass(m: int, n: int, terms, parity_v: str, parity_h: str) -> float:
    """The log of one parity product a block of factors r + c at a time,
    summed as sum(w_theta * (log F . w_phi)) so the rows of a tall block add
    pairwise; -inf once a factor is below 1e-300.  A block builds only its
    part of each folded grid."""
    gap, s_theta, s_phi = terms

    def row_terms(part: slice):
        sin_sq, weights = _grid_sin_sq(parity_v, m, part.start, part.stop)
        return gap + s_theta * sin_sq, weights

    def col_terms(part: slice):
        sin_sq, weights = _grid_sin_sq(parity_h, n, part.start, part.stop)
        return s_phi * sin_sq, weights

    return float(_blocked_log_sum(_folded_count(parity_v, m), _folded_count(parity_h, n),
                                  row_terms, col_terms,
                                  lambda row, col, out: np.add(row[0][:, None], col[0], out=out),
                                  lambda row, col, logs: np.sum(row[1] * (logs @ col[1])),
                                  1e-300))


def _kacward_log_products(m: int, n: int, x: float, y: float) -> dict:
    """The Kac-Ward kernel: the logs of the double products of
    kacward_products in the fugacities x, y on the four (parity_v,
    parity_h) grid pairs, keyed by pair in _PAIRS order; -inf where a
    factor vanishes (below 1e-300).  Only the factors on the folded grids
    are formed.  Both terms of a factor grow along the folded grids, so a
    product's least factor is its first row term plus its first column
    term, and it decides before any log is taken.  Where all four least
    factors are at least _LEAST_RUN_FACTOR and both sides are at most
    _CACHED_SIDE, one _run_pass makes the four products.  Else each is -inf
    below 1e-300 and a _factor_pass otherwise: below _LEAST_RUN_FACTOR a
    run's product could leave the normal range, and past _CACHED_SIDE a run
    pass would rebuild its runs' coefficients on every call, which costs
    more than the runs save when the other side is short (1 x 2^24: ~2 s
    for the four products, against ~0.9 s)."""
    LatticeSpec(m, n)   # rejects sides < 1
    _refuse_past_ceiling(m, n, "Kac-Ward")
    gap, (s_theta, s_phi, _) = _bracket((x, y, 1.0), (1.0 - x * x, 1.0 - y * y, 0.0))
    terms = gap, s_theta, s_phi
    least = {(parity_v, parity_h): (gap + s_theta * _least_sin_sq(parity_v, m))
             + s_phi * _least_sin_sq(parity_h, n) for parity_v, parity_h in _PAIRS}
    if max(m, n) <= _CACHED_SIDE and min(least.values()) >= _LEAST_RUN_FACTOR:
        logs = _run_pass(m, n, terms)
        return {pair: float(logs[_PARITIES.index(pair[0]), _PARITIES.index(pair[1])])
                for pair in _PAIRS}
    return {pair: -math.inf if least[pair] < 1e-300 else _factor_pass(m, n, terms, *pair)
            for pair in _PAIRS}


def _least_sin_sq(parity: str, length: int) -> float:
    """sin^2(angle/2) of the first angle of the folded grid, its least: 0
    on the integer grid, sin^2(pi/2L) on the half grid."""
    return 0.0 if parity == "integer" else math.sin(0.5 * math.pi / length) ** 2


def kacward_log_z(m: int, n: int, k_h: float, k_v: float) -> float:
    """ln Z of the m x n torus from the four parity products:

        Z = 1/2 (2 cosh k_h cosh k_v)^{mn} (s sqrt(P_ii) + sqrt(P_ih)
            + sqrt(P_hi) + sqrt(P_hh))

    where s = sign(sinh 2k_h sinh 2k_v - 1), taken as the sign of
    ln(2 sinh 2k_h) + ln(2 sinh 2k_v) - ln 4 so that large couplings do not
    overflow.  The integer/integer product is the square of the signed sinh
    term of the spectral four-product, so its square root must re-enter with
    that temperature-dependent sign; near the critical manifold the product
    carries the square of a small gap and the term drops out.  core.log_sum
    adds the four half-logs with weights (s, 1, 1, 1).  The four products
    are one call of the kernel.
    """
    s1 = float(_log_2sinh_abs(2.0 * k_h) + _log_2sinh_abs(2.0 * k_v)) - 2.0 * math.log(2.0)
    _check_couplings(k_h, k_v)
    half_logs = [0.5 * log_p
                 for log_p in _kacward_log_products(m, n, math.tanh(k_h), math.tanh(k_v)).values()]
    pref = m * n * (math.log(2.0) + log_cosh(k_h) + log_cosh(k_v))
    return finite(-math.log(2.0) + pref
                  + log_sum(half_logs, (np.sign(s1), 1.0, 1.0, 1.0), "the parity-product sum"),
                  "ln Z")


def dimer_count_free(m: int, n: int, w: MatchingWeights = MatchingWeights()) -> float:
    """Number (generating function) of dimer coverings of the free m x n grid:

        prod_{k=1}^{m/2} prod_{j=1}^{n} 2 sqrt(z1^2 cos^2(pi k/(m+1))
                                               + z2^2 cos^2(pi j/(n+1)))

    evaluated in log space.  An odd m is handled by reorienting the grid;
    odd m and odd n means no perfect matching (returns 0).  The cosine at
    j = (n+1)/2 of an odd n is exactly 0, so a zero z1 there gives an exact
    0.  z = max(z1, z2) is factored out before squaring, so no weight
    overflows a term.  A count past the float range is a DomainError, and
    so is one below the normal range, or with a factor whose squares both
    underflowed, on a grid that has a matching.
    """
    LatticeSpec(m, n, "square", "free")   # rejects sides < 1
    z1, z2 = w.z1, w.z2
    if m % 2 == 1:
        if n % 2 == 1:
            return 0.0
        m, n, z1, z2 = n, m, z2, z1
    _refuse_past_ceiling(m // 2, n, "dimer-product")
    z = max(z1, z2)
    if z == 0.0:
        return 0.0
    log_2z = math.log(2.0) + math.log(z)

    def row_terms(part):
        k = np.arange(part.start + 1, part.stop + 1)
        return (z1 / z * np.cos(np.pi * k / (m + 1))) ** 2

    def col_terms(part):
        cos_j = np.cos(np.pi * np.arange(part.start + 1, part.stop + 1) / (n + 1))
        if n % 2 and part.start <= n // 2 < part.stop:
            cos_j[n // 2 - part.start] = 0.0   # j = (n+1)/2, where the float cosine is 6e-17
        return (z2 / z * cos_j) ** 2

    def log_factors(row, col, logs):
        # log 2z + log(terms) / 2, summed
        logs *= 0.5
        logs += log_2z
        return logs.sum()

    # a term below the normal range: no matching, or a factor whose squares
    # both underflowed
    log_count = float(_blocked_log_sum(m // 2, n, row_terms, col_terms,
                                       lambda row, col, out: np.add(row[:, None], col, out=out),
                                       log_factors, sys.float_info.min))
    return _dimer_count(log_count, m, n, MatchingWeights(z1, z2))


def triangular_log_z_per_site(m: int, n: int, c: ReducedCouplings) -> float:
    """Finite double-sum proxy for ln Z per site of the triangular torus:

        ln 2 + (1/2mn) sum_{k,l} ln[ cosh 2H cosh 2H' cosh 2H3
            + sinh 2H sinh 2H' sinh 2H3 - sinh 2H cos w1 - sinh 2H' cos w2
            - sinh 2H3 cos(w1 + w2) ]

    on the integer grid w1 = 2 pi k/m, w2 = 2 pi l/n, with (H, H', H3) =
    (k_h, k_v, k_d).  k_d = 0 reduces term by term to the square-lattice
    double sum; the value converges to the thermodynamic integral as the
    grid refines.  The bracket is core._bracket's, in units of
    e^{2(H+H'+H3)}/4 with t = e^{-2k}:

        g^2 + S_1 sin^2(w1/2) + S_2 sin^2(w2/2) + S_3 sin^2((w1 + w2)/2),

    a sum of non-negative terms, so it keeps its digits near the critical
    manifold and no coupling overflows it; ln Z per site is
    H + H' + H3 + (1/2mn) sum ln(bracket).  A bracket that rounds to 0 (g
    exactly 0 in floats, at w1 = w2 = 0) is a DomainError.
    """
    LatticeSpec(m, n, "triangular")   # rejects sides < 1
    kd = c.k_d if c.k_d is not None else 0.0
    for v in (c.k_h, c.k_v, kd):
        if v < 0:
            raise DomainError("triangular couplings must be non-negative")
    if c.k_h == 0.0 and c.k_v == 0.0 and kd == 0.0:
        return math.log(2.0)
    _refuse_past_ceiling(m, n, "triangular")
    kh, kv = c.k_h, c.k_v
    gap, (s1, s2, s3) = _bracket([math.exp(-2.0 * k) for k in (kh, kv, kd)],
                                 [-math.expm1(-4.0 * k) for k in (kh, kv, kd)])

    # each side's terms carry its half angles, w/2
    def row_terms(part):
        half_w1 = 0.5 * _grid_angles("integer", m, np.arange(part.start, part.stop))
        return half_w1, gap + s1 * np.sin(half_w1) ** 2

    def col_terms(part):
        half_w2 = 0.5 * _grid_angles("integer", n, np.arange(part.start, part.stop))
        return half_w2, s2 * np.sin(half_w2) ** 2

    def bracket(row, col, out):
        (half_w1, row_term), (half_w2, col_term) = row, col
        np.add(row_term[:, None], col_term, out=out)
        # sin^2((w1 + w2)/2) is no row term plus column term: a second, temporary block
        diagonal = np.add(half_w1[:, None], half_w2)
        np.sin(diagonal, out=diagonal)
        diagonal *= diagonal
        diagonal *= s3
        out += diagonal
        return out

    # the least positive float as the floor refuses exactly a bracket of 0
    log_sum = float(_blocked_log_sum(m, n, row_terms, col_terms, bracket,
                                     lambda row, col, logs: logs.sum(), math.ulp(0.0)))
    if log_sum == -math.inf:
        raise DomainError("a grid point hits a vanishing factor (critical manifold)")
    return finite(kh + kv + kd + log_sum / (2.0 * m * n), "ln Z per site")
