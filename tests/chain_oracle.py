"""Reference routes for `chain_traces`: the real-space chain and the per-cell loop.

A chain cut out of a 2D Gaussian state at fixed transverse momentum has the
L x L (L = p N) correlation matrix

    M[(j,lam),(j',lam')] = <c^dag_{j lam} c_{j' lam'}>,  j-major ordering,

whose `gaussian_trace_diagonal_unitary` with `momentum_shift_angles` is the
chain's EGP trace. Building it costs O(N^2 p^2) time and memory and the
determinant O((N p)^3); the package takes the same trace in momentum space.
The tests use this route as the reference for it.

`chain_traces_loop` is the momentum-space elimination `chain_traces` used
before block cyclic reduction: one Householder QR per block column, N - 2
Python iterations per chain. `chain_traces_qr` is the block cyclic
reduction `chain_traces` ran before it moved to entry planes: the same
levels, each one batched LAPACK QR with det Q from an LU. Both are kept
unchanged as references for the closed-form reflectors. `_fermi_lines` is
the route the scan's chains took from the line-spectrum cache before the
package built them as entry planes: hfict samples (..., N, p, p) for
`chain_traces`.
"""

import numpy as np

from mixedtopo.egp import PIVOT_FLOOR
from mixedtopo.gaussian import hfict_lines
from mixedtopo.model import _matrices, fermi_weights, spectral_sum


def _fermi_lines(lines, n_cells: int, beta, mu: float) -> np.ndarray:
    """Thermal hfict (T, n_cells, p, p) on the n_cells-sample chains of a line-spectrum cache.

    `beta` may also be a 1-d array of inverse temperatures: the lines of each come
    along a new leading axis, (len(beta), T, n_cells, p, p), from one spectrum.
    hfict = [V f V^dag]^T, transposed by a copy.
    """
    energies, vectors = lines(n_cells)
    weights = fermi_weights(np.moveaxis(energies, 0, -1), beta, mu)
    return np.swapaxes(spectral_sum(_matrices(vectors), weights), -1, -2).copy()


def correlation_from_hfict_line(line: np.ndarray) -> np.ndarray:
    """Real-space chain correlation matrix from hfict samples on the chain BZ.

    M[(j,lam),(j',lam')] = (1/N) sum_k e^{-ik(j-j')} hfict[lam,lam'](k) with the
    composite index j-major. With k_m = -pi + 2 pi m / N the block for
    d = j - j' is (-1)^d c[d mod N], where c is one DFT of the samples over
    k: the matrix is block circulant up to that sign.
    """
    line = np.asarray(line, dtype=complex)
    n = line.shape[0]
    p = line.shape[-1]
    c = np.fft.fft(line, axis=0) / n
    d = np.subtract.outer(np.arange(n), np.arange(n))
    blocks = c[d % n] * np.where(d % 2 == 0, 1.0, -1.0)[:, :, None, None]  # (n, n, p, p)
    return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * p)


def chain_correlation_matrix(spec, direction: str, transverse_k: float,
                             n_cells: int) -> np.ndarray:
    """L x L correlation matrix of the chain cut out of a 2D Gaussian state."""
    return correlation_from_hfict_line(hfict_lines(spec, direction, [transverse_k], n_cells)[0])


def chain_traces_loop(lines) -> tuple[np.ndarray, np.ndarray]:
    """(phase, log magnitude) of det[1 - n + n S] for stacked chains.

    `lines` holds hfict samples (..., N, p, p) on the chain momenta
    k_m = -pi + 2 pi m / N; the result equals `gaussian_trace_diagonal_unitary`
    of the chain's real-space correlation matrix with `momentum_shift_angles`.
    The N p x N p matrix is block bidiagonal, diagonal blocks 1 - n_m and
    superdiagonal blocks n_m, plus the corner block n_{N-1} at (N-1, 0); it is
    never formed. Each step takes a Householder QR of block column m, stacked
    from block row m and the p "spike" rows carried up from the corner, and
    carries the bottom p rows of Q^dag (rest) on as the next spike, which lives
    in column m + 1 and the border column N - 1. Unitary row operations keep
    the spike bounded, so the elimination is backward stable at any
    temperature, projector blocks included. A closing 2p x 2p slogdet ends it.
    An exactly vanishing determinant gives log magnitude -inf and phase 0.
    """
    lines = np.asarray(lines, dtype=complex)
    n_cells, p = lines.shape[-3], lines.shape[-1]
    if n_cells < 2:
        raise ValueError(f"need n_cells >= 2, got {n_cells}")
    eye = np.eye(p)
    spike_col = lines[..., -1, :, :]
    spike_border = eye - lines[..., -1, :, :]
    log_magnitude = np.zeros(lines.shape[:-3])
    unit = np.ones(lines.shape[:-3], dtype=complex)
    # a zero pivot makes log|r| = -inf and r / |r| = nan; both are resolved below
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(n_cells - 2):
            n_m = lines[..., m, :, :]
            q, r = np.linalg.qr(np.concatenate([eye - n_m, spike_col], axis=-2), mode="complete")
            carry = q[..., p:].conj().swapaxes(-1, -2)
            spike_col = carry[..., :p] @ n_m
            spike_border = carry[..., p:] @ spike_border
            pivots = np.diagonal(r, axis1=-2, axis2=-1)
            moduli = np.abs(pivots)
            log_magnitude += np.log(moduli).sum(axis=-1)
            unit *= np.linalg.det(q) * (pivots / moduli).prod(axis=-1)
        n_m = lines[..., -2, :, :]
        closing = np.concatenate([np.concatenate([eye - n_m, n_m], axis=-1),
                                  np.concatenate([spike_col, spike_border], axis=-1)], axis=-2)
        sign, logdet = np.linalg.slogdet(closing)
    log_magnitude = log_magnitude + logdet
    phase = np.where(np.isfinite(log_magnitude), np.angle(unit * sign), 0.0)
    return phase, log_magnitude


def chain_traces_qr(lines) -> tuple[np.ndarray, np.ndarray]:
    """(phase, log magnitude) of det[1 - n + n S] for stacked chains.

    `lines` holds hfict samples (..., N, p, p) on the chain momenta
    k_m = -pi + 2 pi m / N; the result equals `gaussian_trace_diagonal_unitary`
    of the chain's real-space correlation matrix with `momentum_shift_angles`.
    The N p x N p matrix is block-cyclic bidiagonal, A_i = 1 - n_i at (i, i)
    and B_i = n_i at (i, i + 1 mod N); it is never formed. Each level of block
    cyclic reduction pairs rows (j - 1, j) for odd j, takes one batched
    Householder QR of the columns [B_{j-1}; A_j] and keeps the bottom p rows of
    Q^dag times the pair, (Q^dag)[p:, :p] A_{j-1} and (Q^dag)[p:, p:] B_j: the
    system of half the size. Each pair adds det Q (-1)^p prod r_ii to the
    determinant; an odd count carries its last row on unpaired. A 2p x 2p QR
    closes at two blocks. The row operations are unitary, so the reduction is
    backward stable at any temperature, projector blocks included. A pivot
    |r_ii| bounds the smallest singular value from above: one below
    PIVOT_FLOOR N p eps times the largest block norm marks a determinant that
    rounding cannot tell from 0, reported as log magnitude -inf and phase 0.
    """
    lines = np.asarray(lines, dtype=complex)
    n_cells, p, batch = lines.shape[-3], lines.shape[-1], lines.shape[:-3]
    if n_cells < 2:
        raise ValueError(f"need n_cells >= 2, got {n_cells}")
    diag, upper = np.moveaxis(np.eye(p) - lines, -3, 0), np.moveaxis(lines, -3, 0)  # cells first
    floor = PIVOT_FLOOR * n_cells * p * np.finfo(float).eps * np.linalg.norm(
        np.stack([diag, upper]), axis=(-2, -1)).max(axis=(0, 1))
    log_magnitude, smallest = np.zeros(batch), np.full(batch, np.inf)
    unit = np.full(batch, (-1.0) ** (p * n_cells), dtype=complex)  # (-1)^p per pair, N - 2 pairs

    def factor(columns, mode="reduced"):
        """Q of a QR stacked (pairs, *batch, ...); det Q and the pivots r_ii go into the result."""
        q, r = np.linalg.qr(columns, mode=mode)
        pivots = np.diagonal(r, axis1=-2, axis2=-1)
        moduli = np.abs(pivots)
        np.minimum(smallest, moduli.min(axis=(0, -1)), out=smallest)
        log_magnitude[...] += np.log(moduli).sum(axis=(0, -1))
        unit[...] *= (np.linalg.det(q) * (pivots / moduli).prod(axis=-1)).prod(axis=0)
        return q

    # a zero pivot makes log|r| = -inf and r / |r| = nan; the floor below masks both
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(diag) > 2:
            tail = len(diag) - len(diag) % 2  # an odd count's unpaired last row
            q = factor(np.concatenate([upper[:-1:2], diag[1::2]], axis=-2), "complete")
            rest = q[..., p:].conj().swapaxes(-1, -2)  # bottom p rows of Q^dag
            diag = np.concatenate([rest[..., :p] @ diag[:-1:2], diag[tail:]])
            upper = np.concatenate([rest[..., p:] @ upper[1::2], upper[tail:]])
        factor(np.block([[diag[0], upper[0]], [upper[1], diag[1]]])[None])
    exact_zero = smallest < floor
    return np.where(exact_zero, 0.0, np.angle(unit)), np.where(exact_zero, -np.inf, log_magnitude)

