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
Python iterations per chain. It is kept unchanged as the reference for the
log-depth reduction.
"""

import numpy as np

from mixedtopo.gaussian import hfict_line


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
    return correlation_from_hfict_line(hfict_line(spec, direction, transverse_k, n_cells))


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
