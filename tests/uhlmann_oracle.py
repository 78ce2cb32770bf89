"""References for the Uhlmann transport: the matmul kernel, the SVD polar factor and an
extended-precision loop.

`transport` is the Uhlmann transport written with batched matmul and einsum
on (..., M, p, p) stacks, which the entry-plane kernel of `mixedtopo.uhlmann`
replaced; it raises the same errors at the same thresholds. `polar_unitary`
is its closed-form 2 x 2 polar factor and `svd_polar_unitary` the route that
closed form replaced.

`qwz_phases_extended` evaluates the same discretized Uhlmann phases of the
default qwz model in long double (64-bit mantissa on x86), from closed-form
amplitudes sqrt(rho) = a + b d.sigma/|d| and exact link determinants, so
that it shows which double-precision route is closer to the exact value of
the discretized loop.
"""

from typing import Optional

import numpy as np

from mixedtopo.errors import PhaseUndefinedError, UnderResolvedError
from mixedtopo.model import momentum_line, spectral_sum
from mixedtopo.uhlmann import LINK_IDENTITY_MAX

EXTENDED = np.finfo(np.longdouble).eps < 1e-18


def svd_polar_unitary(products: np.ndarray) -> np.ndarray:
    """U = W Z^dag from the batched SVD M = W S Z^dag."""
    w, _, zh = np.linalg.svd(products)
    return w @ zh


def polar_unitary(products: np.ndarray, det: Optional[np.ndarray] = None) -> np.ndarray:
    """Unitary factor U of the polar decompositions M = U sqrt(M^dag M), on (..., p, p).

    For p = 2, U = (M + (|d| / conj d) adj(M)^dag) / sqrt(||M||_F^2 + 2|d|)
    with d = det M (the caller's `det` if given), and the phase 1 where d is
    exactly 0. Other p go through the SVD.
    """
    if products.shape[-1] != 2:
        return svd_polar_unitary(products)
    if det is None:
        det = products[..., 0, 0] * products[..., 1, 1] - products[..., 0, 1] * products[..., 1, 0]
    det = np.asarray(det, dtype=complex)
    modulus = np.abs(det)
    phase = np.divide(det, modulus, out=np.ones_like(det), where=modulus > 0)
    norm2 = (np.einsum("...ij,...ij->...", products.real, products.real)
             + np.einsum("...ij,...ij->...", products.imag, products.imag))
    unitary = np.conj(products[..., ::-1, ::-1], order="C")
    unitary[..., 0, 1] *= -1
    unitary[..., 1, 0] *= -1
    unitary *= phase[..., None, None]
    unitary += products
    unitary /= np.sqrt(norm2 + 2 * modulus)[..., None, None]
    return unitary


def loop_links(vectors: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes sqrt(rho_i) and links, the polar factors of sqrt(rho_{i+1}) sqrt(rho_i).

    vectors (..., M, p, p), weights (..., M, p); i + 1 wraps to 0.
    """
    roots = np.sqrt(weights)
    amplitudes = spectral_sum(vectors, roots)
    root_dets = roots.prod(axis=-1)
    links = polar_unitary(np.roll(amplitudes, -1, axis=-3) @ amplitudes,
                          np.roll(root_dets, -1, axis=-1) * root_dets)
    return amplitudes, links


def ordered_product_reversed(links: np.ndarray) -> np.ndarray:
    """V_M ... V_1 by pairwise reduction along the path axis (-3)."""
    prod = links
    while prod.shape[-3] > 1:
        m = prod.shape[-3]
        combined = prod[..., 1:m:2, :, :] @ prod[..., 0:m - 1:2, :, :]
        if m % 2 == 1:
            combined = np.concatenate([combined, prod[..., m - 1:m, :, :]], axis=-3)
        prod = combined
    return prod[..., 0, :, :]


def transport(vectors: np.ndarray, weights: np.ndarray,
              transverse: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray, float]:
    """(holonomies (..., p, p), phases, max link deviation) from (..., M, p, p) spectra."""
    amplitudes, links = loop_links(vectors, weights)
    p = links.shape[-1]
    dev = float(np.linalg.norm((links - np.eye(p)) @ amplitudes, axis=(-2, -1)).max())
    if dev >= LINK_IDENTITY_MAX:
        raise UnderResolvedError(
            f"transport link deviates from identity by {dev:.3f} >= {LINK_IDENTITY_MAX}: "
            "refine the path discretization")
    holonomies = ordered_product_reversed(links)
    rho0 = spectral_sum(vectors[..., 0, :, :], weights[..., 0, :])
    traces = np.einsum("...ij,...ji->...", rho0, holonomies)
    moduli = np.abs(traces)
    if moduli.min() < 1e-12:
        where = "" if transverse is None else f" at transverse_k={transverse[moduli.argmin()]:.6f}"
        raise PhaseUndefinedError(f"|Tr[rho(0) H]| = {moduli.min():.3e} < 1e-12{where}: "
                                  "Uhlmann phase undefined")
    return holonomies, np.angle(traces), dev


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
