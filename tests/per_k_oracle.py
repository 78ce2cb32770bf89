"""Per-k reference evaluation: the loop the array-native paths replaced.

Each function calls its matrix function once per momentum with scalar
arguments and stacks the results, so it does not depend on how the package
broadcasts. The array-native code must reproduce it bitwise.
"""

import numpy as np

from mixedtopo.model import band_systems


def stack_per_k(matrix_fn, kxs, kys) -> np.ndarray:
    """matrix_fn(kx, ky) at every point of the broadcast momentum arrays, stacked."""
    kxs, kys = np.broadcast_arrays(kxs, kys)
    blocks = [np.asarray(matrix_fn(kxs[idx], kys[idx]), dtype=complex)
              for idx in np.ndindex(kxs.shape)]
    return np.stack(blocks).reshape(kxs.shape + blocks[0].shape)


def frames_per_k(matrix_fn, kx_values, ky_values) -> np.ndarray:
    """Gauge-fixed eigenvector frames (nx, ny, p, p) from per-k matrices on the ij mesh."""
    kxs, kys = np.meshgrid(kx_values, ky_values, indexing="ij")
    _, vectors = band_systems(stack_per_k(matrix_fn, kxs, kys))
    return vectors
