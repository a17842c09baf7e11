"""Row-to-row transfer route for the 2D torus, as a spectrum.

Z of the m x n torus is Tr(T^m) = sum_i lambda_i^m over the 2^n eigenvalues
of the symmetrised transfer matrix T_s = D^(1/2) V D^(1/2): V = (x)_nu
(e^{k_a} I + e^{-k_a} sigma^x) carries the bonds between two rows and the
diagonal D the cyclic bonds within a row.  T_s commutes with the cyclic
translation of a row and with the global spin flip, so in the momentum
states of Sandvik (AIP Conf. Proc. 1297, 135, 2010) it splits into one
Hermitian block per momentum q and flip parity z, of size about 2^n / 2n,
built directly from the orbit representatives; each block is one eigvalsh.
Every weight is shifted by the exact largest entry of T_s, so no finite
coupling overflows, and ln Z = m ln(largest entry) plus a max-shifted
ln sum_i lambda_i^m.

partition_torus_transfer sums only sign-safe cuts, where no lambda_i^m is
negative: the coupling between rows is >= 0 (then V >= 0, so every
lambda_i >= 0), or the row count m is even.  Any other cut may cancel, and
is a DomainError.  log_z_torus cuts the torus into rows along the side that
gives the narrower transfer matrix, width min(m, n), among the sign-safe
cuts of at most MAX_COLS columns.  A torus with both couplings negative and
both sides odd has no such cut; it takes products of the dense T = V D at
width min(m, n) instead, whose entries are all positive, and so does a
torus whose only such cut is wider than MAX_COLS.  The dense product holds
4^n entries per array, so it stops at 12 columns (2^24 entries, 128 MiB of
float64) with a CapacityError.  Where a product or the trace falls below
the normal float range relative to the shift (|K| in the hundreds), that
route is a DomainError, and so is a shift or ln Z past the float range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import CapacityError, DomainError, LatticeSpec, finite

MAX_COLS = 14
_MAX_DENSE_COLS = 12


@dataclass(frozen=True)
class TransferOperator:
    n_cols: int
    k_a: float  # inter-row coupling
    log_shift: float          # ln of the largest entry of T_s
    eigenvalues: np.ndarray   # the 2^n eigenvalues of T_s / exp(log_shift)

    @property
    def dim(self) -> int:
        return 1 << self.n_cols


def _check(n: int, k_a: float, k_b: float) -> None:
    LatticeSpec(1, n)   # rejects n < 1
    if n > MAX_COLS:
        raise CapacityError(f"transfer matrix supports 1..{MAX_COLS} columns, got {n}")
    if not (math.isfinite(k_a) and math.isfinite(k_b)):
        raise DomainError("couplings must be finite")


def _sign_safe(rows: int, k_a: float) -> bool:
    """Whether no lambda_i^rows can be negative: k_a >= 0 or rows even."""
    return k_a >= 0.0 or rows % 2 == 0


def _rotate(states: np.ndarray, n: int) -> np.ndarray:
    """Row states shifted cyclically by one site."""
    return ((states << 1) | (states >> (n - 1))) & ((1 << n) - 1)


def _row_bonds(states: np.ndarray, n: int, k_a: float, k_b: float) -> tuple:
    """k_b times the cyclic in-row bond sum of each row state, less its
    largest value over all rows, and the log shift n |k_a| plus that largest
    value, refused past the float range."""
    with np.errstate(over="ignore"):   # an infinite largest value is refused below
        b = k_b * (n - 2.0 * np.bitwise_count(states ^ _rotate(states, n)))
    top = float(b.max())
    shift = finite(n * abs(k_a) + top, "the transfer shift")
    return b - top, shift


def _inter_row_exponents(n: int, k_a: float) -> np.ndarray:
    """k_a times the inter-row bond sum at each Hamming distance 0..n of the
    two rows (n - 2 * distance)."""
    return k_a * (n - 2.0 * np.arange(n + 1))


def build_transfer(n: int, k_a: float, k_b: float) -> TransferOperator:
    """The spectrum of T_s for rows of n spins, block by block.

    Row states are n-bit integers, spin nu in bit (n - 1 - nu).  The
    intra-row product is cyclic: n = 1 contributes a constant self-bond
    factor exp(k_b) and n = 2 a doubled bond, consistent with the
    enumeration oracle's wrap conventions.

    The 2n symmetries h are the rotations by r sites, with or without the
    flip; the block of momentum q and flip parity z has character
    chi(h) = e^{2 pi i q r / n} z^flip and holds the representatives a whose
    stabiliser S_a it is trivial on.  Its entries are

        M[a, b] = (|S_a| |S_b|)^(-1/2) sum_h conj(chi(h)) T_s(a, h b),

    where T_s(a, h b) = d_a d_b exp(k_a * inter-row sum) and the flip only
    negates the inter-row sum, so the sum over h is a phase contraction of
    the weights e^{x} + z e^{-x} over the n rotations.  The blocks of q and
    n - q are complex conjugates and share their eigenvalues.
    """
    _check(n, k_a, k_b)
    dim = 1 << n
    states = np.arange(dim, dtype=np.int64)
    rotations = [states]
    for _ in range(n - 1):
        rotations.append(_rotate(rotations[-1], n))
    rotations = np.stack(rotations)
    images = np.concatenate([rotations, rotations ^ (dim - 1)])   # (2n, 2^n): h s
    reps = np.flatnonzero(images.min(axis=0) == states)
    fixes = images[:, reps] == reps                     # (2n, R): h fixes rep a
    row, log_shift = _row_bonds(reps, n, k_a, k_b)
    d = np.exp(0.5 * row) / np.sqrt(fixes.sum(axis=0))  # |S_a| = count of fixes

    # e^{x} +- e^{-x} over e^{n |k_a|}, each without cancellation
    x = _inter_row_exponents(n, k_a)
    top = np.exp(np.abs(x) - n * abs(k_a))
    weights = {1: top * (1.0 + np.exp(-2.0 * np.abs(x))),
               -1: np.sign(x) * top * -np.expm1(-2.0 * np.abs(x))}
    # (n, R, R): Hamming distance of rep a to rep b rotated by r sites
    distance = np.bitwise_count(reps[None, :, None] ^ images[:n, reps][:, None, :])

    r = np.arange(n)
    qs = np.arange(n // 2 + 1)
    angle = (2.0 * np.pi / n) * ((qs[:, None] * r[None, :]) % n)
    h_rot, h_flip = np.tile(r, 2), np.repeat([0, 1], n)
    size = len(reps)
    eigenvalues = []
    for z, w in weights.items():
        g = w[distance].reshape(n, -1)
        re = np.cos(angle) @ g
        im = -(np.sin(angle) @ g)
        for q in qs:
            # chi(h) = 1 iff 2 q r + n [flip and z = -1] = 0 mod 2n
            trivial = (2 * q * h_rot + n * h_flip * (z < 0)) % (2 * n) == 0
            keep = ~(fixes & ~trivial[:, None]).any(axis=0)
            block = re[q].reshape(size, size)[np.ix_(keep, keep)]
            paired = 0 < 2 * q < n
            if paired:
                block = block + 1j * im[q].reshape(size, size)[np.ix_(keep, keep)]
            dk = d[keep]
            lam = np.linalg.eigvalsh(dk[:, None] * block * dk[None, :])
            eigenvalues.extend([lam, lam] if paired else [lam])
    return TransferOperator(n_cols=n, k_a=k_a, log_shift=log_shift,
                            eigenvalues=np.concatenate(eigenvalues))


def partition_torus_transfer(m: int, t: TransferOperator) -> float:
    """ln Tr(T^m) = m log_shift + ln sum_i lambda_i^m, the sum shifted by the
    largest |lambda_i|.  A cut that is not sign-safe (k_a < 0 with m odd),
    whose sum may cancel, is a DomainError."""
    if m < 1:
        raise DomainError("m must be positive")
    if not _sign_safe(m, t.k_a):
        raise DomainError(f"{m} rows at k_a = {t.k_a!r} are not a sign-safe cut: "
                          "the spectral sum may cancel")
    top = float(np.abs(t.eigenvalues).max())
    total = float(np.sum((t.eigenvalues / top) ** m))
    return m * (t.log_shift + math.log(top)) + math.log(total)


def _dense_log_trace(m: int, n: int, k_a: float, k_b: float) -> float:
    """ln Tr(T^m) from products of the dense 2^n x 2^n matrix T = V D,
    shifted by the same largest entry as T_s and rescaled by its maximum
    after every product.  All entries are positive, so nothing cancels.
    The final product is never formed: Tr(X T) is contracted elementwise."""
    _check(n, k_a, k_b)
    if n > _MAX_DENSE_COLS:
        raise CapacityError(f"the dense transfer product supports 1..{_MAX_DENSE_COLS} "
                            f"columns, got {n}")
    states = np.arange(1 << n, dtype=np.uint16)
    row, log_shift = _row_bonds(states, n, k_a, k_b)
    a = np.exp(_inter_row_exponents(n, k_a) - n * abs(k_a))[
        np.bitwise_count(states[:, None] ^ states[None, :])]
    a *= np.exp(row)
    log_scale = m * log_shift

    def log(value: float) -> float:
        # a product or trace below the normal range has lost its digits
        if not value >= sys.float_info.min:
            raise DomainError(f"the dense transfer product of {m} rows underflows at "
                              f"k_a = {k_a!r}, k_b = {k_b!r}")
        return math.log(value)

    if m == 1:
        return log_scale + log(float(np.trace(a)))
    x = a
    for _ in range(m - 2):
        x = x @ a
        norm = float(x.max())
        log_scale += log(norm)
        x /= norm
    return log_scale + log(float(np.einsum("ij,ji->", x, a)))


def log_z_torus(m: int, n: int, k_h: float, k_v: float) -> float:
    """ln Z of the m x n torus with horizontal coupling k_h (within rows)
    and vertical coupling k_v (between rows), by the spectrum at the
    narrowest sign-safe cut of at most MAX_COLS columns, else by the dense
    product at the narrowest cut (see the module docstring)."""
    LatticeSpec(m, n)   # rejects sides < 1
    # (rows, width, coupling between rows, coupling within a row), narrowest first
    cuts = sorted([(m, n, k_v, k_h), (n, m, k_h, k_v)], key=lambda c: c[1])
    safe = [c for c in cuts if c[1] <= MAX_COLS and _sign_safe(c[0], c[2])]
    if safe:
        rows, width, k_a, k_b = safe[0]
        log_z = partition_torus_transfer(rows, build_transfer(width, k_a, k_b))
    else:
        log_z = _dense_log_trace(*cuts[0])
    return finite(log_z, "ln Z")
