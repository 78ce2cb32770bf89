"""Reference computations made apart from mixedtopo, with numpy alone.

The benchmark checks every CLI output against these. Nothing here imports
the package under test, so a fault in the program cannot hide in its own
reference.
"""

from __future__ import annotations

import math

import numpy as np

# Chern numbers that `chern` reports for the covariance bands of a two-band
# state whose filled (occupation > 1/2) frame has Chern number C, as
# multiples of C, lowest occupation first. The covariance is read in the
# transposed index order, so its eigenvectors are complex conjugates of the
# frame's: the filled band shows -C and the empty band +C. The thermal case
# (filled frame = lower band of h) fixes this once; the benchmark's tests
# confirm it on a thermal `chern` run.
HFICT_BAND_SIGNS = (1, -1)


def momentum_line(n: int) -> np.ndarray:
    """-pi + 2 pi j / n, the sampling the program documents."""
    return -np.pi + 2 * np.pi * np.arange(n) / n


def qwz_d(kx, ky, alpha=1.0, gamma=3.0, mass=1.0) -> np.ndarray:
    """d(k) = (alpha sin kx, gamma sin ky, m - cos kx - cos ky), last axis."""
    kx, ky = np.broadcast_arrays(np.asarray(kx, float), np.asarray(ky, float))
    return np.stack([alpha * np.sin(kx), gamma * np.sin(ky),
                     mass - np.cos(kx) - np.cos(ky)], axis=-1)


def bloch_from_d(d: np.ndarray) -> np.ndarray:
    """d . sigma for d stacked on the last axis -> (..., 2, 2)."""
    h = np.empty(d.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = d[..., 2]
    h[..., 1, 1] = -d[..., 2]
    h[..., 0, 1] = d[..., 0] - 1j * d[..., 1]
    h[..., 1, 0] = d[..., 0] + 1j * d[..., 1]
    return h


def gap_of_d(d: np.ndarray) -> float:
    """Direct gap of d . sigma at mu = 0: twice the smallest |d|."""
    return float(2 * np.linalg.norm(d, axis=-1).min())


def fhs_chern(frames: np.ndarray) -> int:
    """Fukui-Hatsugai-Suzuki lattice Chern number of one band on a periodic grid.

    `frames` is (nx, ny, p): one normalised vector per grid point. The
    plaquette phase is arg[U_x(k) U_y(k+x) U_x(k+y)^* U_y(k)^*] with
    U_mu(k) = <u(k)|u(k+mu)>; the sum over plaquettes is 2 pi C exactly on
    a grid that resolves the gap.
    """
    ux = np.einsum("xyp,xyp->xy", frames.conj(), np.roll(frames, -1, axis=0))
    uy = np.einsum("xyp,xyp->xy", frames.conj(), np.roll(frames, -1, axis=1))
    flux = np.angle(ux * np.roll(uy, -1, axis=0) * np.roll(ux, -1, axis=1).conj() * uy.conj())
    total = flux.sum() / (2 * np.pi)
    c = int(np.rint(total))
    if abs(total - c) > 1e-6:
        raise ValueError(f"plaquette sum / 2pi = {total} is not an integer")
    return c


def band_cherns(h: np.ndarray) -> list[int]:
    """FHS Chern number of each band of h (nx, ny, p, p), ascending energy."""
    _, vectors = np.linalg.eigh(h)
    return [fhs_chern(vectors[..., band]) for band in range(h.shape[-1])]


def thermal_hfict(h: np.ndarray, beta: float) -> np.ndarray:
    """Covariance [f(h)]^T at mu = 0; beta = inf fills the bands below 0."""
    energies, vectors = np.linalg.eigh(h)
    if math.isinf(beta):
        occ = (energies < 0).astype(float)
    else:
        occ = 0.5 * (1.0 - np.tanh(0.5 * beta * energies))
    f = np.einsum("...ij,...j,...kj->...ik", vectors, occ, vectors.conj())
    return np.swapaxes(f, -1, -2)


def chain_egp_phase(n: np.ndarray) -> float:
    """EGP phase of a chain from its covariance samples n(k_m), m = 0..N-1.

    Momentum-space form of det[1 + M(D - 1)]: with F the unitary Fourier
    transform over cells, F^dag M F = diag(n(k_m)) and F^dag D F = S, the
    cyclic block shift k_m -> k_{m+1}. The determinant is therefore
    det[1 - n + n S], built here directly as a block matrix.
    """
    cells, p = n.shape[0], n.shape[-1]
    a = np.eye(cells * p, dtype=complex)
    for m in range(cells):
        row = slice(m * p, (m + 1) * p)
        nxt = (m + 1) % cells
        a[row, row] -= n[m]
        a[row, nxt * p:(nxt + 1) * p] += n[m]
    sign, _ = np.linalg.slogdet(a)
    if sign == 0:
        raise ValueError("EGP amplitude vanishes")
    return float(np.angle(sign))


def chain_line(direction: str, transverse_k: float, cells: int):
    """(kx, ky) arrays of a chain's N momenta at fixed transverse momentum."""
    ks = momentum_line(cells)
    fixed = np.full_like(ks, transverse_k)
    return (ks, fixed) if direction == "x" else (fixed, ks)


def gauge_deviation(d_fn, beta: float, direction: str, transverse_k: float,
                    cells: int) -> float:
    """|phi_EGP(beta, N) - phi_EGP(inf, N)| on the principal branch."""
    h = bloch_from_d(d_fn(*chain_line(direction, transverse_k, cells)))
    diff = chain_egp_phase(thermal_hfict(h, beta)) - chain_egp_phase(thermal_hfict(h, math.inf))
    return abs(math.remainder(diff, 2 * math.pi))


def ness_state(rng: np.random.Generator, size: int):
    """A seeded non-equilibrium covariance grid and its generating frame.

    The filled frame is the lower band of a seeded two-band d-vector (mass
    well inside a topological phase, sign drawn), rotated by a fixed random
    unitary. Its occupation varies with k between 0.66 and 0.90 and the
    empty band's between 0.10 and 0.30, so the state is not a Fermi function
    of any h and stays clear of the 1/2 gap. Returns (hfict (size, size,
    2, 2) in the transposed covariance order, filled frames (size, size, 2)).
    """
    a, b = rng.uniform(0.8, 1.6, size=2)
    mass = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4)
    phi = rng.uniform(0, 2 * np.pi, size=4)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rotation, _ = np.linalg.qr(z)

    kx, ky = np.meshgrid(momentum_line(size), momentum_line(size), indexing="ij")
    _, vectors = np.linalg.eigh(bloch_from_d(qwz_d(kx, ky, a, b, mass)))
    vectors = rotation @ vectors
    filled = 0.78 + 0.12 * np.cos(kx + phi[0]) * np.cos(ky + phi[1])
    empty = 0.20 + 0.10 * np.sin(kx + phi[2]) * np.sin(ky + phi[3])
    occ = np.stack([filled, empty], axis=-1)
    f = np.einsum("...ij,...j,...kj->...ik", vectors, occ, vectors.conj())
    f = 0.5 * (f + np.swapaxes(f, -1, -2).conj())
    return np.swapaxes(f, -1, -2), vectors[..., 0]


def write_matrix_grid(path, values: np.ndarray):
    """The documented matrix-grid text layout: 'p nx ny', then rows of re im pairs."""
    nx, ny, p, _ = values.shape
    flat = np.stack([values.real, values.imag], axis=-1).reshape(nx * ny * p, 2 * p)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{p} {nx} {ny}\n")
        np.savetxt(f, flat, fmt="%.17g")
