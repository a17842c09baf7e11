import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_kacward_product_against_mpmath, peak_bytes
from isingexact.core import (CapacityError, DomainError, K_CRIT, LatticeSpec, ReducedCouplings,
                             _dimer_count, angle_grid, dual_coupling)
from isingexact.oracle import MatchingWeights, build_lattice_graph, count_matchings, enumerate_partition_graph
import isingexact.spectral as spectral
from isingexact.spectral import (
    MAX_KACWARD_FACTORS,
    GridParity,
    _folded_grid,
    _grid_sin_sq,
    _kacward_log_products,
    _least_sin_sq,
    _stacked_runs,
    dimer_count_free,
    gamma_spectrum,
    kacward_log_z,
    kacward_products,
    kaufman_partition,
    triangular_log_z_per_site,
)
from isingexact.pfaffian import (dimer_count_free as dimer_count_free_pf, ising_pfaffian_torus,
                                 ising_torus_logdet)
from isingexact.thermo import onsager_free_energy, triangular_free_energy
from isingexact.transfer2d import MAX_COLS, log_z_torus


def _oracle_torus(m, n, kh, kv):
    g = build_lattice_graph(LatticeSpec(m, n), ReducedCouplings(k_h=kh, k_v=kv))
    return enumerate_partition_graph(g)


# --------------------------------------------------------------- spectrum

@given(st.integers(min_value=2, max_value=12),
       st.floats(min_value=0.05, max_value=1.5),
       st.floats(min_value=0.05, max_value=1.5))
@settings(max_examples=60, deadline=None)
def test_spectrum_reflection_symmetry(n, kt, ks):
    g = gamma_spectrum(n, kt, ks)
    for k in range(1, n):
        assert g[k] == pytest.approx(g[2 * n - k], rel=1e-12)


def test_spectrum_signed_zero_mode():
    # gamma_0 = 2(k_t* - k_s): positive below the dual-matching point, negative above
    assert gamma_spectrum(4, 0.3, 0.2)[0] > 0
    assert gamma_spectrum(4, 0.3, 1.0)[0] < 0
    iso = gamma_spectrum(4, K_CRIT, K_CRIT)[0]
    assert abs(iso) < 1e-14


def test_spectrum_monotone_in_angle():
    g = gamma_spectrum(8, 0.4, 0.4)
    assert np.all(np.diff(g[1:9]) > 0)  # increasing up to the antipode


# ----------------------------------------------------------------- kaufman

@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (2, 6)])
@pytest.mark.parametrize("kh,kv", [(0.3, 0.3), (0.3, 0.6), (0.9, 0.2), (K_CRIT, K_CRIT)])
def test_kaufman_against_oracle(m, n, kh, kv):
    assert kaufman_partition(m, n, kv, kh) == pytest.approx(
        _oracle_torus(m, n, kh, kv), rel=1e-12)


@pytest.mark.parametrize("k", [400.0, 1000.0])
def test_every_route_at_large_coupling(k):
    # ln Z -> 2 m n K + ln 2 on the 4 x 4 torus (12800.69314718056 at K = 400);
    # at K = 1000 the gamma spectrum takes its logarithmic branch
    routes = [_oracle_torus(4, 4, k, k), log_z_torus(4, 4, k, k), kaufman_partition(4, 4, k, k),
              ising_pfaffian_torus(4, 4, k, k), kacward_log_z(4, 4, k, k)]
    for value in routes:
        assert value == pytest.approx(2 * 16 * k + math.log(2.0), rel=1e-15)


def test_kaufman_transpose_duality():
    for (m, n, a, b) in [(3, 4, 0.3, 0.7), (2, 5, 0.9, 0.2), (4, 4, 0.5, 0.5)]:
        assert kaufman_partition(m, n, a, b) == pytest.approx(
            kaufman_partition(n, m, b, a), rel=1e-12)


def test_kaufman_large_lattice_finite():
    lz = kaufman_partition(64, 64, 0.4, 0.4)
    assert math.isfinite(lz)
    # per-site density is already close to the thermodynamic limit
    assert lz / 64 ** 2 == pytest.approx(onsager_free_energy(0.4, 0.4), abs=1e-3)


# ---------------------------------------------------------------- kac-ward

# couplings where the gap 1 - x - y - xy of x = tanh k_h, y = tanh k_v rounds
# to exactly 0: no such pair lies within 40 ulps of (K_CRIT, K_CRIT)
ZERO_GAP_COUPLINGS = (0.4, 0.4838591725683765)


def test_parity_products_nonnegative_and_zero_flag():
    assert math.isfinite(kacward_products(4, 4, 0.3, 0.3, GridParity("half", "half")))
    # at the float K_CRIT the integer/integer product is tiny, not zero
    x = math.tanh(K_CRIT)
    assert_kacward_product_against_mpmath(
        kacward_products(4, 4, K_CRIT, K_CRIT, GridParity("integer", "integer")),
        4, 4, x, x, "integer", "integer")
    # it vanishes exactly where the float gap does
    assert kacward_products(4, 4, *ZERO_GAP_COUPLINGS,
                            GridParity("integer", "integer")) == -math.inf


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 4), (4, 4), (2, 7)])
@pytest.mark.parametrize("kh,kv", [(0.3, 0.3), (0.3, 0.6), (0.9, 0.2), (K_CRIT, K_CRIT)])
def test_kacward_against_oracle(m, n, kh, kv):
    assert kacward_log_z(m, n, kh, kv) == pytest.approx(
        _oracle_torus(m, n, kh, kv), rel=1e-10)


def _mp_kacward_log_z(m, n, kh, kv):
    """kacward_log_z's four parity products at 80 digits, on the float
    couplings, each column product in closed form: with the row term
    A_r = (1 + x^2)(1 + y^2) - 2y(1 - x^2) cos theta_r, d = 2x(1 - y^2) > 0
    and cosh u = A_r / d (A_r >= d, as every factor is >= 0),

        prod_c (A_r - d cos(2 pi (c + delta) / n)) = (d/2)^n (2 cosh nu - 2 cos 2 pi delta)

    for the column grid's offset delta, 0 or 1/2.  So a product is m terms.
    Near K_c the integer/integer zero mode A_0 - d is ~1e-32, of which 80
    digits keep ~48."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        kh, kv = mpmath.mpf(kh), mpmath.mpf(kv)
        x, y = mpmath.tanh(kh), mpmath.tanh(kv)
        a, b, d = (1 + x * x) * (1 + y * y), 2 * y * (1 - x * x), 2 * x * (1 - y * y)
        offset = {"integer": 0, "half": mpmath.mpf(1) / 2}
        logs = {}
        for parity_v in offset:
            # 2 cosh nu of each row serves both column grids
            rows = [2 * mpmath.cosh(n * mpmath.acosh(
                (a - b * mpmath.cospi(2 * (r + offset[parity_v]) / m)) / d)) for r in range(m)]
            for parity_h in offset:
                logs[parity_v, parity_h] = m * n * mpmath.log(d / 2) + mpmath.fsum(
                    mpmath.log(row - 2 * mpmath.cospi(2 * offset[parity_h])) for row in rows)
        signs = (mpmath.sign(mpmath.sinh(2 * kh) * mpmath.sinh(2 * kv) - 1), 1, 1, 1)
        total = mpmath.fsum(sign * mpmath.exp(logs[parities] / 2)
                            for sign, parities in zip(signs, PARITY_PAIRS))
        return float(m * n * mpmath.log(2 * mpmath.cosh(kh) * mpmath.cosh(kv))
                     + mpmath.log(total / 2))


# K_c(1 +- 10^-k), k = 1 ... 15, and the anisotropic critical line
# k_h = k_v* (1 +- 10^-6)
NEAR_CRITICAL_COUPLINGS = (
    [(K_CRIT * (1.0 + sign * 10.0 ** -k),) * 2 for k in range(1, 16) for sign in (1, -1)]
    + [(dual_coupling(kv) * (1.0 + sign * 1e-6), kv) for kv in (1.0, 2.0, 3.0, 5.0)
       for sign in (1, -1)])


# 34 x 34 and 20 x 40 are past the transfer route's widths, and their
# Kac-Ward products take full runs of 8 angles
@pytest.mark.parametrize("m,n", [(8, 8), (4, 6), (6, 10), (34, 34), (20, 40)])
def test_every_torus_route_near_criticality(m, n):
    # the Kac-Ward factor in its cosine form cancelled here: the route was
    # up to 7.6e-10 off, and the Pfaffian's determinant check against it
    # failed from K_c(1 +- 1e-5) on
    for kh, kv in NEAR_CRITICAL_COUPLINGS:
        want = _mp_kacward_log_z(m, n, kh, kv)
        routes = (kacward_log_z(m, n, kh, kv), kaufman_partition(m, n, kv, kh),
                  ising_pfaffian_torus(m, n, kh, kv))
        if min(m, n) <= MAX_COLS:
            routes += (log_z_torus(m, n, kh, kv),)
        for got in routes:
            assert abs(got - want) <= 1e-15 * abs(want), (kh, kv, routes, want)


def test_kacward_refuses_oversized_products_before_allocating():
    with pytest.raises(CapacityError):
        kacward_log_z(100000, 100000, 0.3, 0.3)
    with pytest.raises(CapacityError):
        kacward_products(4097, 4096, 0.3, 0.3, GridParity())


@pytest.mark.parametrize("call", [
    lambda: dimer_count_free(200000, 200000),
    lambda: dimer_count_free(2, 10 ** 9),
    lambda: triangular_log_z_per_site(200000, 200000, ReducedCouplings(0.3, 0.5, 0.2)),
    lambda: kaufman_partition(2, 10 ** 12, 0.3, 0.4),
    lambda: gamma_spectrum((1 << 18) + 1, 0.3, 0.4),
], ids=["dimer square", "dimer strip", "triangular", "kaufman", "gamma_spectrum"])
def test_oversized_products_are_refused_before_allocating(call):
    # one-shot, the dimer strip asked numpy for 8 GB per array, and the
    # Kaufman spectrum for 16 TB
    def refused():
        with pytest.raises(CapacityError, match="ceiling"):
            call()

    peak, _ = peak_bytes(refused)
    assert peak < 64 << 10


def test_widest_gamma_spectrum_is_accepted():
    # 2^18 columns, 128 times a 2048-wide torus; the Kac-Ward product of
    # MAX_KACWARD_FACTORS factors is test_widest_product_matches_the_unfolded_one
    assert math.isfinite(kaufman_partition(2, 1 << 18, 0.3, 0.4))


def _kacward_factor_terms(x, y, theta, phi):
    """The factor (1 - xy - y - x)^2 + 4y(1 - x^2) sin^2(theta/2)
    + 4x(1 - y^2) sin^2(phi/2) as its theta part and its phi part.  The gap
    is summed in core._bracket's order: near the critical manifold any two
    orders differ by its rounding, which
    conftest.assert_kacward_product_against_mpmath bounds."""
    return ((1.0 - x * y - y - x) ** 2 + 4.0 * y * (1.0 - x * x) * np.sin(0.5 * theta) ** 2,
            4.0 * x * (1.0 - y * y) * np.sin(0.5 * phi) ** 2)


def reference_kacward_log_product(m, n, x, y, parity_v, parity_h):
    """The unfolded double product: the log of every one of the m x n
    factors, summed, a chunk of at most 2^20 factors at a time, so that a
    1 x 2^24 product fits in memory.  Also returns the sum of the logs'
    magnitudes, the scale of the sum's rounding error."""
    row, col = _kacward_factor_terms(x, y, angle_grid(parity_v, m)[:, None],
                                     angle_grid(parity_h, n))
    width = max(1, (1 << 20) // m)
    total = scale = 0.0
    for c0 in range(0, n, width):
        factors = row + col[c0:c0 + width]
        if float(factors.min()) < 1e-300:
            return -math.inf, math.inf
        logs = np.log(factors)
        total += float(logs.sum())
        scale += float(np.abs(logs).sum())
    return total, scale


def _reference_runs(sin_sq, weights):
    """The runs of one folded grid, from its multiplicities alone: each
    multiplicity-1 angle a run of its own, the multiplicity-2 angles
    between them in runs of 8, the last one short."""
    runs = []
    for value, weight in zip(sin_sq, weights):
        if weight == 2.0 and runs and runs[-1][1] == 2.0 and len(runs[-1][0]) < 8:
            runs[-1][0].append(float(value))
        else:
            runs.append(([float(value)], float(weight)))
    return runs


def _expanded(values):
    """The coefficients of prod_j (r + c_j) over values, ascending in r."""
    coefficients = [1.0] + [0.0] * 8
    for c in values:
        coefficients = [c * coefficients[0]] + [c * coefficients[p] + coefficients[p - 1]
                                                for p in range(1, 9)]
    return coefficients


def one_shot_kacward_log_product(m, n, x, y, parity_v, parity_h):
    """The folded product with its whole grids at once: a product that fits
    in one block must be this, bitwise.  When the least factor (the first)
    of each of the four products is at least 2^-125, the rows are both
    folded row grids end to end, the columns the runs of both folded column
    grids, each run's product prod_j (r + s_phi sin^2(phi_j/2)) is
    [1 r ... r^8] times the coefficients of its sin^2 terms scaled by
    powers of s_phi, one matrix product, and the block's logs are summed
    with the rows' and runs' multiplicities.  Else the product is
    sum(w_theta * (log F . w_phi)) over its factors F."""
    grids = {(parity, length): _folded_grid(parity, length)
             for parity in ("integer", "half") for length in (m, n)}
    sin_sq = {key: (np.sin(0.5 * angles) ** 2, weights) for key, (angles, weights) in grids.items()}
    gap, s_theta, s_phi = (1.0 - x * y - y - x) ** 2, 4.0 * y * (1.0 - x * x), 4.0 * x * (1.0 - y * y)
    least = {(v, h): (gap + s_theta * sin_sq[v, m][0][0]) + s_phi * sin_sq[h, n][0][0]
             for v, h in PARITY_PAIRS}
    if least[parity_v, parity_h] < 1e-300:
        return -math.inf
    if min(least.values()) < 2.0 ** -125:
        theta, w_theta = grids[parity_v, m]
        phi, w_phi = grids[parity_h, n]
        row, col = _kacward_factor_terms(x, y, theta, phi)
        factors = row[:, None] + col
        return float(np.sum(w_theta * (np.log(factors, out=factors) @ w_phi)))
    r = gap + s_theta * np.concatenate([sin_sq["integer", m][0], sin_sq["half", m][0]])
    row_weights = np.zeros((2, len(r)))
    row_weights[0, :len(sin_sq["integer", m][1])] = sin_sq["integer", m][1]
    row_weights[1, len(sin_sq["integer", m][1]):] = sin_sq["half", m][1]
    powers = np.empty((9, len(r)))
    powers[0], powers[1] = 1.0, r
    for p in range(2, 9):
        powers[p] = powers[p - 1] * r
    scale = s_phi ** np.arange(9)
    columns, run_weights = [], []
    for i, parity in enumerate(("integer", "half")):
        for values, weight in _reference_runs(*sin_sq[parity, n]):
            coefficients = _expanded(values)
            columns.append([coefficients[p] * scale[max(len(values) - p, 0)] for p in range(9)])
            run_weights.append([weight, 0.0] if i == 0 else [0.0, weight])
    logs = np.log(np.matmul(powers.T, np.ascontiguousarray(np.array(columns).T)))
    total = (row_weights @ logs) @ np.ascontiguousarray(np.array(run_weights).T).T
    return float(total[("integer", "half").index(parity_v), ("integer", "half").index(parity_h)])


PARITY_PAIRS = [(a, b) for a in ("integer", "half") for b in ("integer", "half")]
FOLD_COUPLINGS = (1e-300, 0.05, 0.3, K_CRIT, 0.9, 5.0, 400.0)
# past one block of 2^15 folded factors: 2047 x 2048 (a ragged last block
# of rows), 3 x 65536 (each row in runs of columns, the integer grid's last
# run a single column) and 65536 x 3 (blocks of 16384 rows of two factors,
# summed pairwise); and extreme aspect ratios
FOLD_SHAPES = ([(m, n) for m in range(1, 10) for n in range(1, 10)]
               + [(16, 33), (2048, 2048), (2047, 2048), (4096, 9), (9, 4096), (1, 4096),
                  (4096, 1), (3, 65536), (65536, 3)])


@pytest.mark.parametrize("m,n", FOLD_SHAPES)
def test_folded_product_matches_the_unfolded_one(m, n):
    # each unfolded 2048 x 2048 reference takes ~60 ms: there only x = y
    pairs = (itertools.product(FOLD_COUPLINGS, FOLD_COUPLINGS) if m * n < 10 ** 4
             else zip(FOLD_COUPLINGS, FOLD_COUPLINGS))
    for kh, kv in pairs:
        x, y = math.tanh(kh), math.tanh(kv)
        products = _kacward_log_products(m, n, x, y)
        for parity_v, parity_h in PARITY_PAIRS:
            want, scale = reference_kacward_log_product(m, n, x, y, parity_v, parity_h)
            got = products[parity_v, parity_h]
            if want == -math.inf:
                assert got == -math.inf
            else:
                # at small couplings ln P cancels far below its terms, where
                # both sums are roundoff of the terms' magnitudes: so the
                # tolerance is relative to sum |ln F|, which is |ln P| itself
                # wherever the terms do not cancel
                assert abs(got - want) <= 1e-13 * scale, (kh, kv, parity_v, parity_h)


@pytest.mark.parametrize("parity_v,parity_h", PARITY_PAIRS)
def test_widest_product_matches_the_unfolded_one(parity_v, parity_h):
    # 1 x 2^24, the ceiling: 2^23 + 1 (integer grid) or 2^23 folded factors
    # in blocks of one row's run of 2^15 columns, the integer grid's last
    # block a single column
    assert MAX_KACWARD_FACTORS == 1 << 24
    x, y = math.tanh(0.3), math.tanh(0.9)
    want, scale = reference_kacward_log_product(1, 1 << 24, x, y, parity_v, parity_h)
    # each run of columns builds its own part of the grids, so the four
    # products hold a few blocks, ~1.6 MiB
    peak, got = peak_bytes(lambda: _kacward_log_products(1, 1 << 24, x, y)[parity_v, parity_h])
    assert peak < 3 << 20
    assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("call", [
    lambda: _kacward_log_products(1 << 24, 1, math.tanh(0.3), math.tanh(0.9))["half", "integer"],
    # z = 1/golden ratio keeps the strip's count near 1
    lambda: dimer_count_free(2, 1 << 24, MatchingWeights(0.6180339887, 0.6180339887)),
    lambda: triangular_log_z_per_site(1 << 24, 1, ReducedCouplings(0.3, 0.5, 0.2)),
], ids=["kacward", "dimer", "triangular"])
def test_products_at_extreme_aspect_ratios_hold_a_few_blocks(call):
    # 1.5 to 1.8 MiB: the block, and block-sized parts of the grids
    peak, got = peak_bytes(call)
    assert peak < 3 << 20
    assert math.isfinite(got) and got != 0.0


@pytest.mark.parametrize("parity", ["integer", "half"])
def test_folded_grid_parts_are_the_whole_grid_sliced(parity):
    # each block of the factor pass builds its own part of a grid
    for length in (1, 2, 3, 7, 8, 2048, 2049, 5000, 5001):
        angles, weights = _folded_grid(parity, length)
        count = len(angles)
        for start, stop in ((0, count), (0, 1), (count - 1, count), (count // 3, count // 2 + 1)):
            part_angles, part_weights = _folded_grid(parity, length, start, stop)
            assert np.array_equal(part_angles, angles[start:stop])
            assert np.array_equal(part_weights, weights[start:stop])


@pytest.mark.parametrize("m", range(1, 65))
def test_single_block_product_is_the_one_shot_expression(m):
    # all 49 coupling pairs up to 8 x 8, and past it one pair per shape,
    # cycling through the 49
    pairs = list(itertools.product(FOLD_COUPLINGS, FOLD_COUPLINGS))
    for n in range(1, 65):
        for kh, kv in (pairs if max(m, n) <= 8 else [pairs[(64 * m + n) % len(pairs)]]):
            x, y = math.tanh(kh), math.tanh(kv)
            products = _kacward_log_products(m, n, x, y)
            for parity_v, parity_h in PARITY_PAIRS:
                assert products[parity_v, parity_h] == \
                    one_shot_kacward_log_product(m, n, x, y, parity_v, parity_h), (n, kh, kv)


def _spy(monkeypatch, name):
    """Record the arguments and result of each call of spectral.<name>."""
    calls, function = [], getattr(spectral, name)

    def spy(*args):
        calls.append((args, function(*args)))
        return calls[-1][1]

    monkeypatch.setattr(spectral, name, spy)
    return calls


@pytest.mark.parametrize("m,n", FOLD_SHAPES)
def test_kacward_log_z_products_are_the_single_products(m, n, monkeypatch):
    # kacward_log_z takes its four products from one call of the kernel;
    # each must be bitwise the product kacward_products selects alone
    calls = _spy(monkeypatch, "_kacward_log_products")
    pairs = (itertools.product(FOLD_COUPLINGS, FOLD_COUPLINGS) if m * n < 10 ** 4
             else zip(FOLD_COUPLINGS, FOLD_COUPLINGS))
    for kh, kv in pairs:
        calls.clear()
        kacward_log_z(m, n, kh, kv)
        assert len(calls) == 1
        products = calls[0][1]
        for parity_v, parity_h in PARITY_PAIRS:
            assert kacward_products(m, n, kh, kv, GridParity(parity_v, parity_h)) == \
                products[parity_v, parity_h], (kh, kv, parity_v, parity_h)


# (length, multiplicity) of each run of the folded grid of n columns: only
# the multiplicity-1 ends, full runs of 8, and a short last run
RUN_LAYOUTS = {
    ("integer", 1): [(1, 1)], ("half", 1): [(1, 1)],
    ("integer", 2): [(1, 1), (1, 1)], ("half", 2): [(1, 2)],
    ("integer", 3): [(1, 1), (1, 2)], ("half", 3): [(1, 2), (1, 1)],
    ("integer", 17): [(1, 1), (8, 2)], ("half", 17): [(8, 2), (1, 1)],
    ("integer", 18): [(1, 1), (8, 2), (1, 1)], ("half", 18): [(8, 2), (1, 2)],
    ("integer", 33): [(1, 1), (8, 2), (8, 2)], ("half", 33): [(8, 2), (8, 2), (1, 1)],
}


@pytest.mark.parametrize("parity,n", RUN_LAYOUTS)
def test_runs_cover_the_folded_grid(parity, n):
    # the integer grid's runs come first, each grid's multiplicities in its row
    grid = ("integer", "half").index(parity)
    coefficients, degrees, weights = _stacked_runs(n)
    own = weights[grid] > 0
    coefficients, degrees = coefficients[:, own], degrees[:, own]
    # a run of length L has e_0 = 1 at degree L in its terms
    assert list(zip(degrees[0].tolist(), weights[grid, own].tolist())) == RUN_LAYOUTS[parity, n]
    # each run's coefficients are its product, expanded: at r in [0, 8]
    angles, _ = _folded_grid(parity, n)
    terms = np.sin(0.5 * angles) ** 2
    r = np.linspace(0.0, 8.0, 9)
    first = 0
    for run, length in enumerate(degrees[0]):
        want = np.prod(r[:, None] + terms[first:first + length], axis=1)
        got = np.polynomial.polynomial.polyval(r, coefficients[:, run])
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        first += length
    assert first == len(angles)
    # and the products on them, both alone and in one pass of the four
    for m in (1, 2, 7, 18):
        for kh, kv in ((0.3, 0.9), (K_CRIT, K_CRIT), (5.0, 0.05)):
            x, y = math.tanh(kh), math.tanh(kv)
            products = _kacward_log_products(m, n, x, y)
            for parity_v in ("integer", "half"):
                want, scale = reference_kacward_log_product(m, n, x, y, parity_v, parity)
                got = products[parity_v, parity]
                assert abs(got - want) <= 1e-13 * scale, (m, kh, kv, parity_v)


@pytest.mark.parametrize("m,n", [(4, 4), (7, 9), (16, 33)])
def test_products_below_the_run_floor_take_factors(m, n, monkeypatch):
    # at (k_h, k_v) = (1e-25, 20), x = 1e-25 and y = 1.0: the float gap is
    # (1e-25)^2 = 1e-50 < 2^-125 and the column terms are 0, so the least
    # factor of the products on the integer row grid is the gap, and a run
    # of 8 such factors would underflow: the one call of the kernel takes
    # each of the four products factor by factor
    x, y = math.tanh(1e-25), math.tanh(20.0)
    assert (x, y) == (1e-25, 1.0)
    factors, runs = _spy(monkeypatch, "_factor_pass"), _spy(monkeypatch, "_run_pass")
    products = _kacward_log_products(m, n, x, y)
    assert [args[3:] for args, _ in factors] == PARITY_PAIRS
    assert not runs
    for parity_v, parity_h in PARITY_PAIRS:
        want, scale = reference_kacward_log_product(m, n, x, y, parity_v, parity_h)
        assert abs(products[parity_v, parity_h] - want) <= 1e-13 * scale, (parity_v, parity_h)


def test_kacward_log_z_peak_allocation():
    # its 2049 x 9 powers (147 KiB), one block, and the runs' coefficients
    peak, got = peak_bytes(lambda: kacward_log_z(2048, 2048, 0.3, 0.3))
    assert peak < 1 << 20
    assert math.isfinite(got)


def test_kacward_product_peak_allocation():
    # the one-shot 2048 x 2048 product allocated its 1025 x 1024 folded grid
    # at once, 8.4 MiB; blocked, it holds one block of 2^15 factors
    x = math.tanh(0.3)
    peak, got = peak_bytes(lambda: _kacward_log_products(2048, 2048, x, x)["integer", "half"])
    assert peak < 1 << 20
    want, scale = reference_kacward_log_product(2048, 2048, x, x, "integer", "half")
    assert abs(got - want) <= 1e-13 * scale


@pytest.mark.parametrize("m,n", FOLD_SHAPES)
def test_folded_product_vanishes_at_criticality(m, n):
    # the fugacities (x, y) = (0, 1) are on the critical manifold, and their
    # gap is exactly 0: every factor at theta = 0 vanishes, and no other
    products = _kacward_log_products(m, n, 0.0, 1.0)
    for parity_v, parity_h in PARITY_PAIRS:
        got = products[parity_v, parity_h]
        want, scale = reference_kacward_log_product(m, n, 0.0, 1.0, parity_v, parity_h)
        if parity_v == "integer":
            assert got == want == -math.inf
        else:
            assert abs(got - want) <= 1e-13 * scale
    # at the float K_CRIT the gap is ~2e-16, not 0: the product keeps its
    # true magnitude
    x = math.tanh(K_CRIT)
    got = _kacward_log_products(m, n, x, x)["integer", "integer"]
    want, scale = reference_kacward_log_product(m, n, x, x, "integer", "integer")
    assert abs(got - want) <= 1e-13 * scale
    if m * n <= 100:
        assert_kacward_product_against_mpmath(got, m, n, x, x, "integer", "integer")


@pytest.mark.parametrize("parity", ["integer", "half"])
def test_folded_grid_multiplicities(parity):
    # each folded cosine repeated by its multiplicity is the full grid's
    # cosines, so the multiplicities sum to the grid length
    for length in list(range(1, 70)) + [2048, 2049]:
        angles, weights = _folded_grid(parity, length)
        assert weights.sum() == length
        folded = np.repeat(np.cos(angles), weights.astype(int))
        assert np.sort(folded) == pytest.approx(np.sort(np.cos(angle_grid(parity, length))),
                                                abs=1e-14)


@pytest.mark.parametrize("parity", ["integer", "half"])
def test_least_sin_sq_is_the_folded_grids_first(parity):
    # the kernel takes each product's least factor in closed form, not from
    # the grid: 0 on the integer grid, sin^2(pi / 2L) on the half grid
    for length in range(1, 4097):
        (first,), _ = _grid_sin_sq(parity, length, 0, 1)
        assert abs(_least_sin_sq(parity, length) - first) <= math.ulp(first), length


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 4), (7, 9), (16, 33)])
def test_closed_form_determinant_matches_the_unfolded_product(m, n):
    for z1, z2 in [(0.3, 0.6), (math.tanh(K_CRIT), 0.05), (0.99, 0.2)]:
        for s1, s2 in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]:
            want, scale = reference_kacward_log_product(
                m, n, z2, z1, "integer" if s1 > 0 else "half", "integer" if s2 > 0 else "half")
            assert abs(ising_torus_logdet(m, n, z1, z2, s1, s2) - want) <= 1e-13 * scale


def test_grid_parity_validation():
    with pytest.raises(DomainError):
        GridParity("thirds", "integer")


# ------------------------------------------------------------ dimer product

def test_dimer_product_known_counts():
    assert dimer_count_free(2, 2) == pytest.approx(2, rel=1e-12)
    assert dimer_count_free(2, 3) == pytest.approx(3, rel=1e-12)
    assert dimer_count_free(4, 4) == pytest.approx(36, rel=1e-12)
    assert dimer_count_free(8, 8) == pytest.approx(12988816, rel=1e-10)
    assert dimer_count_free(3, 3) == 0.0
    assert dimer_count_free(5, 7) == 0.0


def test_dimer_product_matches_enumeration_weighted():
    w = MatchingWeights(z1=1.3, z2=0.7)
    for m, n in [(2, 4), (3, 4), (4, 5), (2, 7)]:
        assert dimer_count_free(m, n, w) == pytest.approx(
            count_matchings(m, n, w), rel=1e-11)


def test_dimer_product_with_a_weight_past_the_root_of_the_float_range():
    # z1^2 alone overflows, the count 1e200 does not
    w = MatchingWeights(1e200, 1.0)
    assert dimer_count_free(2, 1, w) == pytest.approx(dimer_count_free_pf(2, 1, w), rel=1e-12)
    assert dimer_count_free(2, 2, MatchingWeights(0.0, 0.0)) == 0.0


def test_dimer_product_midpoint_cosine_of_an_odd_side_is_zero():
    # cos(pi j/(n+1)) at j = (n+1)/2 rounds to 6e-17: a grid with no matching
    # counted 2.4e-16, and a small weight was 2e-4 off
    for m in (2, 4, 6):
        for n in (1, 3, 5, 7):
            assert dimer_count_free(m, n, MatchingWeights(0.0, 1.0)) == 0.0
            assert dimer_count_free(n, m, MatchingWeights(1.0, 0.0)) == 0.0
    assert dimer_count_free(3, 4, MatchingWeights(1.0, 1e-14)) == pytest.approx(4e-28, rel=1e-14)


def one_shot_dimer_log_count(m, n, z1, z2):
    """ln of the free dimer product of an even m with its whole m/2 x n
    grid of terms at once: a product that fits in one block must be this,
    bitwise.  -inf once a term is below the normal float range."""
    z = max(z1, z2)
    k = np.arange(1, m // 2 + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    cos_j = np.cos(np.pi * j / (n + 1))
    if n % 2:
        cos_j[0, n // 2] = 0.0
    terms = (z1 / z * np.cos(np.pi * k / (m + 1))) ** 2 + (z2 / z * cos_j) ** 2
    if float(terms.min()) < sys.float_info.min:
        return -math.inf
    return float((math.log(2.0) + math.log(z) + 0.5 * np.log(terms)).sum())


@pytest.mark.parametrize("z1,z2", [(1.0, 1.0), (0.6, 1.2), (1.3, 0.7), (1.0, 1e-14), (0.0, 1.0)])
def test_single_block_dimer_product_is_the_one_shot_sum(z1, z2):
    for m in range(1, 33):
        for n in range(1, 41):
            if m % 2 and n % 2:
                continue
            # the product reorients an odd m
            a, b, w1, w2 = (m, n, z1, z2) if m % 2 == 0 else (n, m, z2, z1)
            try:
                want = _dimer_count(one_shot_dimer_log_count(a, b, w1, w2), a, b,
                                    MatchingWeights(w1, w2))
            except DomainError:
                with pytest.raises(DomainError):
                    dimer_count_free(m, n, MatchingWeights(z1, z2))
                continue
            assert dimer_count_free(m, n, MatchingWeights(z1, z2)) == want, (m, n)


def test_dimer_product_peak_allocation():
    # 512 x 512 is 256 x 512 terms, four blocks (2.0 MiB one-shot); z = 0.558
    # keeps the count (e^-188.6) in the float range
    w = MatchingWeights(0.558, 0.558)
    peak, got = peak_bytes(lambda: dimer_count_free(512, 512, w))
    assert peak < 1 << 20
    assert math.log(got) == pytest.approx(one_shot_dimer_log_count(512, 512, 0.558, 0.558),
                                          rel=1e-13)


# ------------------------------------------------------- triangular lattice

def reference_triangular_log_z_per_site(m, n, kh, kv, kd):
    """The double sum with cosh and sinh taken as written."""
    w1 = 2.0 * np.pi * np.arange(m)[:, None] / m
    w2 = 2.0 * np.pi * np.arange(n)[None, :] / n
    c1, s1 = math.cosh(2 * kh), math.sinh(2 * kh)
    c2, s2 = math.cosh(2 * kv), math.sinh(2 * kv)
    c3, s3 = math.cosh(2 * kd), math.sinh(2 * kd)
    bracket = (c1 * c2 * c3 + s1 * s2 * s3
               - s1 * np.cos(w1) - s2 * np.cos(w2) - s3 * np.cos(w1 + w2))
    return math.log(2.0) + float(np.log(bracket).sum()) / (2.0 * m * n)


# 256 x 200 is two blocks of rows, the last ragged; 3 x 40000 is six
# blocks, each row in two runs of columns
@pytest.mark.parametrize("m,n", [(4, 4), (5, 7), (16, 16), (256, 200), (3, 40000)])
@pytest.mark.parametrize("kh,kv,kd", [(0.3, 0.5, 0.2), (0.05, 0.9, 0.4), (1.2, 0.7, 0.0),
                                      (2.0, 3.0, 1.0), (1e-3, 2e-3, 0.0)])
def test_triangular_double_sum_matches_the_direct_bracket(m, n, kh, kv, kd):
    assert triangular_log_z_per_site(m, n, ReducedCouplings(kh, kv, kd)) == pytest.approx(
        reference_triangular_log_z_per_site(m, n, kh, kv, kd), rel=1e-13, abs=0.0)


def test_triangular_double_sum_peak_allocation():
    # 256 x 256 is two blocks; the one-shot bracket peaked at 1.5 MiB
    c = ReducedCouplings(0.3, 0.5, 0.2)
    peak, got = peak_bytes(lambda: triangular_log_z_per_site(256, 256, c))
    assert peak < 1 << 20
    assert got == pytest.approx(reference_triangular_log_z_per_site(256, 256, 0.3, 0.5, 0.2),
                                rel=1e-13, abs=0.0)


def _mp_triangular_log_z_per_site(m, n, kh, kv, kd):
    """The double sum at 50 digits, with cosh and sinh as written."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        k = [mpmath.mpf(v) for v in (kh, kv, kd)]
        c, s = [mpmath.cosh(2 * v) for v in k], [mpmath.sinh(2 * v) for v in k]
        total = mpmath.fsum(
            mpmath.log(c[0] * c[1] * c[2] + s[0] * s[1] * s[2] - s[0] * mpmath.cos(w1)
                       - s[1] * mpmath.cos(w2) - s[2] * mpmath.cos(w1 + w2))
            for w1 in (2 * mpmath.pi * a / m for a in range(m))
            for w2 in (2 * mpmath.pi * b / n for b in range(n)))
        return float(mpmath.log(2) + total / (2 * m * n))


@pytest.mark.parametrize("critical", [(math.log(3.0) / 4.0,) * 3, (K_CRIT, K_CRIT, 0.0)],
                         ids=["triangular", "square"])
def test_triangular_double_sum_near_its_critical_manifolds(critical):
    # in the cosine form the bracket cancelled here: at 10^-7 the sum was
    # 4.6e-4 (triangular) and 1.1e-3 (square) off; from 10^-8 on it was a
    # DomainError or up to 2.2 relative off.  From 10^-8 on, the error is
    # the bracket's own condition number, ~10^-16 / g^2
    for k in range(1, 14):
        for sign in (1, -1):
            ks = [v * (1.0 + sign * 10.0 ** -k) for v in critical]
            got = triangular_log_z_per_site(6, 6, ReducedCouplings(*ks))
            if k <= 7:
                want = _mp_triangular_log_z_per_site(6, 6, *ks)
                assert abs(got - want) <= 1e-9 * abs(want), (k, sign, got, want)


def test_triangular_double_sum_at_large_coupling():
    # -> ln 2 + (1/2)(2 (k_h + k_v + k_d) - 2 ln 2): 1200 at 400 each
    assert triangular_log_z_per_site(4, 4, ReducedCouplings(400.0, 400.0, 400.0)) == \
        pytest.approx(1200.0, rel=1e-15, abs=0.0)


def test_triangular_double_sum_reduces_to_square():
    c3 = ReducedCouplings(k_h=0.3, k_v=0.5, k_d=0.0)
    c2 = ReducedCouplings(k_h=0.3, k_v=0.5)
    assert triangular_log_z_per_site(64, 64, c3) == pytest.approx(
        triangular_log_z_per_site(64, 64, c2), rel=1e-14)


def test_triangular_double_sum_converges_to_integral():
    c = ReducedCouplings(k_h=0.25, k_v=0.3, k_d=0.2)
    coarse = triangular_log_z_per_site(128, 128, c)
    want = triangular_free_energy(0.25, 0.3, 0.2)
    assert coarse == pytest.approx(want, abs=1e-10)


def test_kacward_needs_positive_sides():
    for m, n in ((0, 4), (4, -1)):
        with pytest.raises(DomainError, match="lattice sides must be positive"):
            kacward_log_z(m, n, 0.3, 0.3)


def test_routes_past_the_float_range_are_domain_errors():
    # ln Z = 2 m n K + ln 2 is 3.2e309 on the 4 x 4 torus at K = 1e308
    for route in (lambda: kaufman_partition(4, 4, 1e308, 1e308),
                  lambda: kacward_log_z(4, 4, 1e308, 1e308),
                  lambda: triangular_log_z_per_site(4, 4, ReducedCouplings(1e308, 1e308, 1e308))):
        with pytest.raises(DomainError):
            route()


@pytest.mark.parametrize("m,n,w", [(100, 100, MatchingWeights()),
                                   (4, 4, MatchingWeights(1e200, 1.0))])
def test_dimer_product_past_the_float_range_is_a_domain_error(m, n, w):
    # refused from the log count: no overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="dimer count"):
            dimer_count_free(m, n, w)


def _critical_torus_amplitude(tau_im):
    """ln[(theta_2 + theta_3 + theta_4) / (2 eta)] at tau = i tau_im, as
    q-series in the nome q = e^{i pi tau} = e^{-pi tau_im} (Ferdinand & Fisher,
    Phys. Rev. 185, 832 (1969))."""
    q = math.exp(-math.pi * tau_im)
    theta2 = 2.0 * sum(q ** ((j + 0.5) ** 2) for j in range(10))
    theta3 = 1.0 + 2.0 * sum(q ** (j * j) for j in range(1, 10))
    theta4 = 1.0 + 2.0 * sum((-1) ** j * q ** (j * j) for j in range(1, 10))
    eta = q ** (1.0 / 12.0) * math.prod(1.0 - q ** (2 * j) for j in range(1, 20))
    return math.log((theta2 + theta3 + theta4) / (2.0 * eta))


@pytest.mark.parametrize("route", [kaufman_partition, kacward_log_z])
def test_critical_torus_amplitude(route):
    # at K_c, ln Z_{L x aL} - a L^2 (ln 2 / 2 + 2G/pi) -> the tau = a i
    # amplitude, with a clean 1/L^2 correction: one Richardson step from
    # L = 128 and 256.  What is left is -3.2e-10 at a = 1 and -5.4e-10
    # (Kaufman) and -5.2e-10 (Kac-Ward) at a = 2
    catalan = 0.915965594177219015054603514932384110774
    free_energy = 0.5 * math.log(2.0) + 2.0 * catalan / math.pi
    for aspect, want in ((1, 0.6399119471916227), (2, 0.712469269252626)):
        amplitude = _critical_torus_amplitude(aspect)
        assert amplitude == pytest.approx(want, abs=1e-15)
        # the amplitude is modular invariant: tau and -1/tau are one torus
        assert _critical_torus_amplitude(1.0 / aspect) == pytest.approx(amplitude, abs=1e-15)
        rest = {size: route(size, aspect * size, K_CRIT, K_CRIT)
                - aspect * size * size * free_energy for size in (128, 256)}
        assert (4.0 * rest[256] - rest[128]) / 3.0 == pytest.approx(amplitude, abs=1e-9), aspect
