"""References for the Uhlmann transport: the SVD polar factor and an extended-precision loop.

`svd_polar_unitary` is the route the closed-form 2 x 2 polar factor replaced.
`qwz_phases_extended` evaluates the same discretized Uhlmann phases of the
default qwz model in long double (64-bit mantissa on x86), from closed-form
amplitudes sqrt(rho) = a + b d.sigma/|d| and exact link determinants, so
that it shows which double-precision route is closer to the exact value of
the discretized loop.
"""

import numpy as np

from mixedtopo.model import momentum_line

EXTENDED = np.finfo(np.longdouble).eps < 1e-18


def svd_polar_unitary(products: np.ndarray) -> np.ndarray:
    """U = W Z^dag from the batched SVD M = W S Z^dag."""
    w, _, zh = np.linalg.svd(products)
    return w @ zh


def qwz_phases_extended(beta: float, direction: str, transverse, n_points: int) -> np.ndarray:
    """Uhlmann phases of the default qwz model (mu = 0) on n_points-point loops."""
    along = momentum_line(n_points).astype(np.longdouble)[None, :]
    across = np.asarray(transverse, dtype=float).astype(np.longdouble)[:, None]
    kx, ky = (along, across) if direction == "x" else (across, along)
    dx = np.sin(kx) + 0 * ky
    dy = 3 * np.sin(ky) + 0 * kx
    dz = 1 - np.cos(kx) - np.cos(ky)
    r = np.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
    upper = np.exp(-2 * beta * r) / (1 + np.exp(-2 * beta * r))  # Boltzmann weight of +|d|
    lower = 1 / (1 + np.exp(-2 * beta * r))
    a = (np.sqrt(lower) + np.sqrt(upper)) / 2
    b = (np.sqrt(upper) - np.sqrt(lower)) / 2
    amplitudes = np.empty(r.shape + (2, 2), dtype=np.clongdouble)
    amplitudes[..., 0, 0] = a + b * dz / r
    amplitudes[..., 1, 1] = a - b * dz / r
    amplitudes[..., 0, 1] = b * (dx - 1j * dy) / r
    amplitudes[..., 1, 0] = b * (dx + 1j * dy) / r
    root_dets = np.sqrt(lower * upper)

    products = np.roll(amplitudes, -1, axis=-3) @ amplitudes
    dets = np.roll(root_dets, -1, axis=-1) * root_dets  # real and positive
    adj_dagger = products.conj()[..., ::-1, ::-1] * np.array([[1, -1], [-1, 1]])
    norm2 = (products * products.conj()).real.sum(axis=(-2, -1))
    links = (products + adj_dagger) / np.sqrt(norm2 + 2 * dets)[..., None, None]

    holonomy = np.broadcast_to(np.eye(2, dtype=np.clongdouble), links.shape[:1] + (2, 2))
    for i in range(n_points):
        holonomy = links[:, i] @ holonomy
    rho0 = amplitudes[:, 0] @ amplitudes[:, 0]
    trace = np.einsum("tij,tji->t", rho0, holonomy)
    return np.arctan2(trace.imag, trace.real).astype(float)
