"""Real-space chain route: the dense correlation matrix `chain_traces` replaced.

A chain cut out of a 2D Gaussian state at fixed transverse momentum has the
L x L (L = p N) correlation matrix

    M[(j,lam),(j',lam')] = <c^dag_{j lam} c_{j' lam'}>,  j-major ordering,

whose `gaussian_trace_diagonal_unitary` with `momentum_shift_angles` is the
chain's EGP trace. Building it costs O(N^2 p^2) time and memory and the
determinant O((N p)^3); the package takes the same trace in momentum space.
The tests use this route as the reference for it.
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
