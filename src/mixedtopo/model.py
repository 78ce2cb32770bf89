"""Bloch Hamiltonians on a discretized 2D Brillouin zone.

Units: lattice constant a = 1, hbar = 1, energies in units of the hopping
amplitude. Momenta live on [-pi, pi) and every built-in evaluator is
2pi-periodic in both components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GapError, NonHermitianError, RankDeficiencyError

HERMITICITY_ATOL = 1e-12
FERMI_DEGENERACY_ATOL = 1e-9
GRID_SAMPLE_ATOL = 1e-12


def wrap_momentum(k):
    """Reduce a momentum component modulo 2pi into [-pi, pi)."""
    return (np.asarray(k) + np.pi) % (2 * np.pi) - np.pi


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform periodic grid: kx_j = -pi + 2pi*j/nx (j = 0..nx-1), same for ky.

    +pi is excluded; index nx wraps to 0 in all loop constructions.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")

    def kx_values(self) -> np.ndarray:
        return momentum_line(self.nx)

    def ky_values(self) -> np.ndarray:
        return momentum_line(self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(kxs, kys) of shape (nx, ny) on the "ij" mesh: kxs[ix, iy] = kx_ix."""
        return np.meshgrid(self.kx_values(), self.ky_values(), indexing="ij")


def momentum_line(n: int) -> np.ndarray:
    """n uniform samples of a closed BZ line, -pi inclusive, +pi excluded."""
    if n < 2:
        raise ValueError("need at least 2 momentum samples")
    return -np.pi + 2 * np.pi * np.arange(n) / n


def qwz_d_vector(kx, ky, alpha: float = 1.0, gamma: float = 3.0, m: float = 1.0) -> np.ndarray:
    """d-vector of the asymmetric two-band model.

    d = (alpha sin kx, gamma sin ky, m - cos kx - cos ky); the defaults
    (1, 3, 1) give the asymmetric band structure used throughout.
    """
    return np.array([alpha * np.sin(kx), gamma * np.sin(ky), m - np.cos(kx) - np.cos(ky)])


def bloch_matrix_from_d(d) -> np.ndarray:
    """d . sigma = [[dz, dx - i dy], [dx + i dy, -dz]], stacked over broadcast components."""
    dx, dy, dz = d
    out = np.empty(np.broadcast(dx, dy, dz).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = dz
    out[..., 0, 1] = dx - 1j * dy
    out[..., 1, 0] = dx + 1j * dy
    out[..., 1, 1] = -dz
    return out


def line_momenta(direction: str, along, across):
    """(kx, ky) of straight BZ lines along `direction` at transverse momenta `across`."""
    if direction == "x":
        return along, across
    if direction == "y":
        return across, along
    raise ValueError(f"direction must be 'x' or 'y', got {direction!r}")


@dataclass(frozen=True)
class BlochModel:
    """p internal states and an array-native map (kx, ky) -> Hermitian Bloch matrices.

    The evaluator receives momentum arrays of one broadcast shape S and returns
    (*S, p, p) matrices, or one p x p matrix for a k-independent model.
    """

    p: int
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "custom"

    def matrix(self, kx, ky) -> np.ndarray:
        """Bloch matrices (*S, p, p) at momenta broadcast to shape S, in one evaluator call.

        A non-Hermitian (or non-finite) result raises NonHermitianError naming k.
        """
        kx, ky = np.broadcast_arrays(kx, ky)
        h = np.broadcast_to(np.asarray(self.evaluator(kx, ky), dtype=complex),
                            kx.shape + (self.p, self.p))
        _check_hermitian(h, what=f"Bloch matrix of model {self.name!r}", momenta=(kx, ky))
        return h


def qwz_model(alpha: float = 1.0, gamma: float = 3.0, m: float = 1.0) -> BlochModel:
    def evaluate(kx, ky):
        return bloch_matrix_from_d(qwz_d_vector(kx, ky, alpha, gamma, m))

    return BlochModel(p=2, evaluator=evaluate, name="qwz")


def atomic_model(d=(0.0, 0.0, 1.0)) -> BlochModel:
    """k-independent two-band model (atomic limit); all invariants vanish."""
    h = bloch_matrix_from_d(d)

    def evaluate(kx, ky):
        return h  # BlochModel.matrix broadcasts it over the momenta

    return BlochModel(p=2, evaluator=evaluate, name="atomic")


def tabulated_model(grid: MomentumGrid, values: np.ndarray, name: str = "tabulated") -> BlochModel:
    """Model backed by matrices sampled on `grid`; momenta must hit grid points."""
    values = np.asarray(values, dtype=complex)
    p = values.shape[-1]
    if values.shape != (grid.nx, grid.ny, p, p):
        raise ValueError(f"expected values of shape ({grid.nx}, {grid.ny}, p, p), "
                         f"got {values.shape}")

    def evaluate(kx, ky):
        return grid_lookup(grid, values, kx, ky)

    return BlochModel(p=p, evaluator=evaluate, name=name)


def _grid_index(k, n: int, axis: str) -> np.ndarray:
    """Indices of momenta among the n uniform samples -pi + 2pi j/n along `axis`.

    Raises ValueError naming the axis, the first off-grid (or non-finite)
    momentum and n.
    """
    k = np.asarray(k, dtype=float)
    j = np.rint((k + np.pi) * n / (2 * np.pi)) % n
    off = ~(np.abs(wrap_momentum(k - (-np.pi + 2 * np.pi * j / n))) <= GRID_SAMPLE_ATOL)
    if off.any():
        raise ValueError(f"{axis} = {float(k[off][0])!r} is not a grid sample: the stored "
                         f"grid has {n} samples along {axis}")
    return j.astype(int)


def grid_lookup(grid: MomentumGrid, values: np.ndarray, kx, ky) -> np.ndarray:
    """Stored samples values[ix, iy] at broadcast momenta that hit `grid` points."""
    return values[_grid_index(kx, grid.nx, "kx"), _grid_index(ky, grid.ny, "ky")]


def _check_hermitian(h: np.ndarray, what: str = "matrix", momenta=None):
    """Raise NonHermitianError at the first stacked matrix off by more than HERMITICITY_ATOL
    (or NaN).

    `momenta` = (kx, ky) arrays of the stack shape name the offending k.
    """
    dev = np.abs(h - np.swapaxes(h, -1, -2).conj()).max(axis=(-2, -1))
    bad = ~(dev <= HERMITICITY_ATOL)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        where = f" at index {idx}" if idx else ""
        if momenta is not None:
            where = f" at k=({momenta[0][idx]:.6f}, {momenta[1][idx]:.6f})"
        raise NonHermitianError(f"{what} is not Hermitian{where}: max |h - h^dagger| = "
                                f"{dev[idx]:.3e} > {HERMITICITY_ATOL:.0e}")


def _gauge_fix(vectors: np.ndarray) -> np.ndarray:
    """Rephase each column so its largest-|.| component (first on ties) is real positive."""
    idx = np.argmax(np.abs(vectors), axis=-2)
    pivot = np.take_along_axis(vectors, idx[..., None, :], axis=-2)
    phase = pivot / np.abs(pivot)
    return vectors * phase.conj()


def band_systems(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(energies (..., p), states (..., p, p)) of Hermitian matrices (..., p, p) with a
    deterministic gauge; states[..., :, n] is the n-th band vector.

    Eigenvalues ascend; each eigenvector is rephased so its largest-magnitude
    component (lowest index on ties) is real and positive, making repeated
    calls bitwise reproducible.
    """
    hs = np.asarray(hs, dtype=complex)
    _check_hermitian(hs, what="band_systems input")
    energies, vectors = _eigh(hs)
    return energies, _gauge_fix(vectors)


def _eigh(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What np.linalg.eigh returns for Hermitian stacks (..., p, p): ascending energies
    (..., p) and orthonormal column vectors (..., p, p); in closed form for p = 2.

    Like LAPACK, the closed form reads the real diagonal and b = h[1, 0]. With
    a = (h00 + h11)/2, dz = (h00 - h11)/2 and r = |(b, dz)| the energies are
    a -/+ r. The lower vector is the null vector of the row of h - (a - r)
    whose diagonal entry is |dz| + r, so nothing cancels: (-conj(b), dz + r)
    for dz > 0, else (r - dz, -b), taken as (1, 0) at r = 0 so that the basis
    is then the identity. The upper vector is its orthogonal complement. (b, dz)
    is first scaled by a power of two to a largest component in [1/2, 1),
    exactly, so no norm overflows or loses subnormal digits. Other p go to
    LAPACK.
    """
    hs = np.asarray(hs)
    if hs.shape[-2:] != (2, 2):
        return np.linalg.eigh(hs)
    top, bottom, b = hs[..., 0, 0].real, hs[..., 1, 1].real, hs[..., 1, 0]
    dz = top / 2 - bottom / 2
    _, exponent = np.frexp(np.maximum(np.maximum(np.abs(b.real), np.abs(b.imag)), np.abs(dz)))
    re, im, z = (np.ldexp(part, -exponent) for part in (b.real, b.imag, dz))
    modulus = np.hypot(re, im)
    rho = np.hypot(modulus, z)
    mean, r = top / 2 + bottom / 2, np.ldexp(rho, exponent)
    energies = np.stack([mean - r, mean + r], axis=-1)

    diagonal = np.where(rho == 0, 1.0, np.abs(z) + rho)
    norm = np.hypot(modulus, diagonal)
    u, diagonal = (re + 1j * im) / norm, diagonal / norm
    up = z > 0
    x, y = np.where(up, -u.conj(), diagonal), np.where(up, diagonal, -u)
    vectors = np.empty(np.shape(b) + (2, 2), dtype=complex)
    vectors[..., 0, 0], vectors[..., 1, 0] = x, y
    vectors[..., 0, 1], vectors[..., 1, 1] = -y.conj(), x.conj()
    return energies, vectors


def bands_below(energies: np.ndarray, mu: float, kxs, kys) -> int:
    """Number of bands below mu, which must be the same at every grid point.

    `energies` (nx, ny, p) belong to the momenta kxs, kys (nx, ny). GapError
    names the first k where an eigenvalue sits within FERMI_DEGENERACY_ATOL of
    mu or where the count changes (mu inside a band), and mu outside the whole
    spectrum.
    """
    close = np.abs(energies - mu) <= FERMI_DEGENERACY_ATOL
    if close.any():
        ix, iy = np.argwhere(close.any(axis=-1))[0]
        raise GapError(f"eigenvalue within {FERMI_DEGENERACY_ATOL:.0e} of mu={mu} "
                       f"at k=({kxs[ix, iy]:.6f}, {kys[ix, iy]:.6f})")

    below = (energies < mu).sum(axis=-1)
    n0 = int(below.flat[0])
    if n0 == 0 or n0 == energies.shape[-1]:
        raise GapError(f"mu={mu} lies below/above the entire spectrum at "
                       f"k=({kxs.flat[0]:.6f}, {kys.flat[0]:.6f})")
    if (below != n0).any():
        ix, iy = np.argwhere(below != n0)[0]
        raise GapError(
            f"mu={mu} lies inside a band: occupation count changes at "
            f"k=({kxs[ix, iy]:.6f}, {kys[ix, iy]:.6f})")
    return n0


def band_gap(model: BlochModel, grid: MomentumGrid, mu: float) -> float:
    """Minimum over the grid of the direct gap straddling mu (see bands_below)."""
    kxs, kys = grid.mesh()
    return _gap_at(np.linalg.eigvalsh(model.matrix(kxs, kys)), mu, kxs, kys)


def _gap_at(energies: np.ndarray, mu: float, kxs, kys) -> float:
    """band_gap from the energies (nx, ny, p) already computed at the momenta kxs, kys."""
    n0 = bands_below(energies, mu, kxs, kys)
    return float((energies[..., n0] - energies[..., n0 - 1]).min())


# ------------------------------------------------------------ spectral layer
#
# Every thermal quantity is V diag(w) V^dag over one eigh of the Bloch
# matrices (`_eigh`): Fermi occupations give the covariance (EGP, Chern),
# Boltzmann weights the density matrix (Uhlmann).

def fermi_weights(energies: np.ndarray, beta, mu: float) -> np.ndarray:
    """Occupations 1/(e^{beta (e - mu)} + 1); beta = inf fills strictly below mu.

    `beta` may also be a 1-d array of inverse temperatures, broadcast along a
    new leading axis of the occupations, as in `boltzmann_weights`. The form
    is overflow safe for either sign of the exponent, and at beta = inf it
    gives exactly 0 and 1. There an eigenvalue within FERMI_DEGENERACY_ATOL of
    mu raises the GapError of `_projector_gap`.
    """
    energies, betas = np.asarray(energies, dtype=float), np.asarray(beta, dtype=float)
    if np.isinf(betas).any() and (error := _projector_gap(energies, mu)) is not None:
        raise error
    x = betas.reshape(betas.shape + (1,) * energies.ndim) * (energies - mu)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, e / (1.0 + e), 1.0 / (1.0 + e))


def _projector_gap(energies: np.ndarray, mu: float) -> Optional[GapError]:
    """The GapError that refuses beta = inf occupations of these energies, or None."""
    if np.abs(energies - mu).min() <= FERMI_DEGENERACY_ATOL:
        return GapError(f"beta = inf with an eigenvalue within {FERMI_DEGENERACY_ATOL:.0e} "
                        f"of mu={mu}: gapless projector limit")
    return None


def boltzmann_weights(energies: np.ndarray, beta, mu: float) -> np.ndarray:
    """Normalized e^{-beta (e - mu)} over the last axis; finite beta only.

    `beta` may also be a 1-d array of inverse temperatures, broadcast along a
    new leading axis of the weights. beta = inf, and a weight that underflows
    to zero, raise RankDeficiencyError for the first beta where one does: the
    state is numerically pure and its density matrix rank deficient.
    """
    weights, pure = _boltzmann(energies, np.atleast_1d(beta), mu)
    if pure.any():
        raise _pure_state(np.atleast_1d(beta)[pure.argmax()])
    return weights if np.ndim(beta) else weights[0]


def _boltzmann(energies: np.ndarray, betas: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """(weights, pure): boltzmann_weights of each beta of `betas` along a new leading axis,
    with `pure` flagging, instead of raising for, beta = inf (its weights are void) and the
    betas whose weights underflow. A beta not above 0 raises ValueError."""
    if not (betas > 0).all():
        raise ValueError(f"need beta > 0, got {betas[np.argmin(betas > 0)]}")
    cold = np.isinf(betas)
    finite = np.where(cold, 1.0, betas)
    logw = -finite.reshape(finite.shape + (1,) * np.ndim(energies)) * (energies - mu)
    logw -= logw.max(axis=-1, keepdims=True)
    weights = np.exp(logw)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights, cold | (weights <= 0.0).any(axis=tuple(range(1, weights.ndim)))


def _pure_state(beta: float) -> RankDeficiencyError:
    """The RankDeficiencyError of a numerically pure thermal state at `beta`."""
    if math.isinf(beta):
        return RankDeficiencyError("beta = inf gives a rank-deficient density matrix; "
                                   "probe low temperature at large finite beta instead")
    return RankDeficiencyError(
        f"Boltzmann weight underflowed at beta = {beta:g}: state numerically pure")


def spectral_sum(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """V diag(w) V^dag per stacked eigenbasis: vectors (..., p, p), weights (..., p)."""
    return np.einsum("...ij,...j,...kj->...ik", vectors, weights, vectors.conj())


def _planes(matrices: np.ndarray) -> np.ndarray:
    """(..., p, p) matrices as a contiguous copy in (p, p, ...) entry planes."""
    return np.moveaxis(matrices, (-2, -1), (0, 1)).copy()


def _matrices(planes: np.ndarray) -> np.ndarray:
    """(p, p, ...) entry planes as a (..., p, p) view."""
    return np.moveaxis(planes, (0, 1), (-2, -1))


class _LineSpectra:
    """Spectra of h(k) on the straight lines along `direction` at the transverse momenta.

    The one cache of h(k) spectra on BZ lines: the Uhlmann loops take their
    Boltzmann weights from it and the EGP chains their Fermi occupations, so
    one instance serves every temperature. The spectra are kept as entry
    planes, energies (p, T, M) and vectors (p, p, T, M), the Uhlmann
    transport kernel's layout. Only the last line asked for is kept: asked
    for again it is served as it is, and a line of twice its points
    diagonalizes only the new odd points. The even points need no check:
    momentum_line(2M)[::2] is momentum_line(M) bit for bit, since doubling
    both the index and the count scales the quotient by a power of two.
    """

    def __init__(self, model: BlochModel, direction: str, transverse: np.ndarray):
        self.model, self.direction, self.transverse = model, direction, transverse
        self._energies = self._vectors = None

    def _eigh(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        kxs, kys = line_momenta(self.direction, ks[None, :], self.transverse[:, None])
        energies, vectors = _eigh(self.model.matrix(kxs, kys))
        return np.ascontiguousarray(np.moveaxis(energies, -1, 0)), _planes(vectors)

    def __call__(self, n_points: int) -> tuple[np.ndarray, np.ndarray]:
        """(energies (p, T, M), vectors (p, p, T, M)) on the n_points-sample lines, as planes."""
        ks = momentum_line(n_points)
        stored = 0 if self._energies is None else self._energies.shape[-1]
        if n_points == 2 * stored:
            odd_energies, odd_vectors = self._eigh(ks[1::2])
            self._energies = _interleave(self._energies, odd_energies)
            self._vectors = _interleave(self._vectors, odd_vectors)
        elif n_points != stored:
            self._energies, self._vectors = self._eigh(ks)
        return self._energies, self._vectors


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """(..., M) samples at the even and odd points of a (..., 2M) line."""
    return np.stack([even, odd], axis=-1).reshape(*even.shape[:-1], -1)
