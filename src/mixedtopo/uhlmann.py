"""Uhlmann holonomy and phase for single-particle thermal density matrices.

The parallel transport of purification amplitudes w = sqrt(rho) U along a
closed density-matrix loop is discretized by the unitary polar factors of
sqrt(rho_{i+1}) sqrt(rho_i); the holonomy is their ordered product,
H = V_M ... V_1, and the phase is Im ln Tr[rho_1 H]. Unlike the EGP, the
windings of this phase in x and y need not agree at intermediate
temperatures; that asymmetry is the point of the comparison scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .egp import egp_windings
from .errors import (
    MixedTopoError,
    PhaseUndefinedError,
    RankDeficiencyError,
    UnderResolvedError,
)
from .gaussian import GaussianStateSpec
from .geometry import (
    PhaseProfile,
    berry_curvature_plaquette,
    chern_number,
    winding_of_phase_profile,
)
from .model import (
    BlochModel,
    MomentumGrid,
    band_systems,
    bands_below,
    boltzmann_weights,
    line_momenta,
    momentum_line,
    spectral_sum,
)

# Below this floor an assembled density matrix is indistinguishable from an
# exactly pure one at double precision: the polar transport factor would be
# basis dependent in the near-null subspace, so raw-matrix input is refused.
# Thermal entry points avoid assembly altogether: they carry exact spectral
# weights (representable down to ~1e-308), which is what keeps deep-cold
# scans usable.
RANK_NOISE_FLOOR = 1e-14
LINK_IDENTITY_MAX = 0.5
PATH_POINTS_DEFAULT = 512
PATH_POINTS_CAP = 8192
CAUCHY_TOL = 1e-4


def thermal_density_k(model: BlochModel, beta: float, mu: float, kx, ky) -> np.ndarray:
    """rho(k) = e^{-beta (h(k) - mu)} / Tr[...] at broadcast momenta; finite beta only."""
    energies, vectors = np.linalg.eigh(model.matrix(kx, ky))
    return spectral_sum(vectors, boltzmann_weights(energies, beta, mu))


@dataclass(frozen=True)
class DensityMatrixPath:
    """Closed loop of density matrices; rho(M+1) is rho(1).

    The spectrum of every point is taken once, at construction, and kept as
    entry planes in the transport kernel's layout; the holonomy and the phase
    read it and diagonalize nothing again.
    """

    parameters: np.ndarray
    rhos: np.ndarray  # (M, p, p)
    # (vectors (p, p, M), weights (p, M)) as entry planes
    _spectrum: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rhos = np.asarray(self.rhos, dtype=complex)
        params = np.asarray(self.parameters, dtype=float)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("rhos must be (M, p, p)")
        if params.shape != (rhos.shape[0],):
            raise ValueError("parameters must match the number of path points")
        # `not dev <= tol` refuses NaN entries too
        trace_dev = np.abs(np.einsum("kii->k", rhos) - 1).max()
        if not trace_dev <= 1e-12:
            raise ValueError(f"path matrices must have unit trace "
                             f"(worst deviation {trace_dev:.3e})")
        if not np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max() <= 1e-12:
            raise ValueError("path matrices must be Hermitian")
        weights, vectors = np.linalg.eigh(rhos)
        if not weights.min() >= -1e-12:
            raise ValueError(f"path matrices must be positive semi-definite "
                             f"(min eigenvalue {weights.min():.3e})")
        object.__setattr__(self, "rhos", rhos)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "_spectrum", (_planes(vectors), np.ascontiguousarray(weights.T)))

    def __len__(self) -> int:
        return self.rhos.shape[0]


@dataclass(frozen=True)
class UhlmannHolonomy:
    """Path-ordered product of transport unitaries, with link diagnostics."""

    matrix: np.ndarray
    n_points: int
    max_link_deviation: float = math.nan


def _full_rank_spectrum(path: DensityMatrixPath) -> tuple[np.ndarray, np.ndarray]:
    """The stored (vector, weight) planes of a path; refused at the rank noise floor."""
    vectors, weights = path._spectrum
    smallest = weights[0].min()
    if smallest <= RANK_NOISE_FLOOR:
        raise RankDeficiencyError(
            f"density matrix numerically rank deficient (min eigenvalue {smallest:.3e} "
            f"<= {RANK_NOISE_FLOOR:.0e}); mixed-state holonomy undefined at exact purity. "
            "For cold thermal states use the thermal entry points, which work with exact "
            "weights")
    return vectors, weights


# ------------------------------------------------------------ entry planes
#
# The transport kernel keeps a stack of p x p matrices as entry planes: an
# array (p, p, ..., M) whose [i, j] is entry (i, j) of every matrix, one
# contiguous array per entry. Every product is a multiply-add of whole planes
# over explicit loops on the entry indices, which numpy runs several times
# faster than batched matmul or einsum on (..., p, p) stacks of small p.
# Eigenvalues and weights are planes (p, ..., M) in the same way. The path
# axis stays last and is never reduced away inside the kernel, so a plane is
# at least 1-d even for one unbatched loop.

def _planes(matrices: np.ndarray) -> np.ndarray:
    """(..., p, p) matrices as a contiguous copy in (p, p, ...) entry planes."""
    return np.moveaxis(matrices, (-2, -1), (0, 1)).copy()


def _matrices(planes: np.ndarray) -> np.ndarray:
    """(p, p, ...) entry planes as a (..., p, p) view."""
    return np.moveaxis(planes, (0, 1), (-2, -1))


def _plane_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, k] = sum_j a[i, j] b[j, k] over entry planes; out must not overlap a or b."""
    p = a.shape[0]
    scratch = np.empty(out.shape[2:], dtype=out.dtype)
    for i in range(p):
        for k in range(p):
            np.multiply(a[i, 0], b[0, k], out=out[i, k])
            for j in range(1, p):
                out[i, k] += np.multiply(a[i, j], b[j, k], out=scratch)
    return out


def _spectral_planes(vectors: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = V diag(w) V^dag over vector planes (p, p, ...) and weight planes (p, ...).

    The result is Hermitian: the diagonal is summed in real arithmetic and the
    lower triangle is the conjugate of the upper one.
    """
    p = vectors.shape[0]
    scaled = np.empty(out.shape[2:], dtype=complex)
    scratch = np.empty(out.shape[2:], dtype=complex)
    for i in range(p):
        out[i, i] = 0.0
        diagonal = out[i, i].real
        for j in range(p):
            entry = vectors[i, j]
            diagonal += (np.square(entry.real) + np.square(entry.imag)) * weights[j]
        for k in range(i + 1, p):
            out[i, k] = 0.0
            for j in range(p):
                np.multiply(vectors[i, j], weights[j], out=scaled)
                out[i, k] += np.multiply(scaled, np.conj(vectors[k, j], out=scratch), out=scaled)
            np.conj(out[i, k], out=out[k, i])
    return out


def _polar_unitary(products: np.ndarray, det: Optional[np.ndarray] = None) -> np.ndarray:
    """Unitary factors U of the polar decompositions M = U sqrt(M^dag M), in place.

    `products` are entry planes (p, p, ...) and are overwritten by U. For
    p = 2, Cayley-Hamilton for P = sqrt(M^dag M) gives, with d = det M,
    U = (M + (|d| / conj d) adj(M)^dag) / sqrt(||M||_F^2 + 2|d|). Where d is
    exactly 0 (a rank-1 product, as in deep-cold rows) any unit phase gives a
    polar factor; 1 is used. `det` passes d when the caller knows it better
    than the entries do: from the entries its relative error grows with the
    condition number of M. Other p go through the SVD M = W S Z^dag, U = W Z^dag.
    """
    if products.shape[0] != 2:
        w, _, zh = np.linalg.svd(_matrices(products))
        products[...] = np.moveaxis(w @ zh, (-2, -1), (0, 1))
        return products
    m00, m01, m10, m11 = products[0, 0], products[0, 1], products[1, 0], products[1, 1]
    if det is None:
        det = m00 * m11 - m01 * m10
    modulus = np.abs(det)
    if np.isrealobj(det) and not (det < 0).any():
        phase = 1.0  # d / |d| where d > 0, and the choice 1 where d = 0
    else:
        det = np.asarray(det, dtype=complex)
        phase = np.divide(det, modulus, out=np.ones_like(det), where=modulus > 0)
    norm2 = 2 * modulus
    for entry in (m00, m01, m10, m11):
        norm2 += np.square(entry.real)
        norm2 += np.square(entry.imag)
    # adj(M)^dag = [[conj m11, -conj m10], [-conj m01, conj m00]]
    for first, second, factor in ((m00, m11, phase), (m01, m10, -phase)):
        new_first = first + factor * np.conj(second)
        second += factor * np.conj(first)
        first[...] = new_first
    products *= 1 / np.sqrt(norm2)
    return products


def _loop_links(vectors: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes sqrt(rho_i) and links V_i, the polar factors of sqrt(rho_{i+1}) sqrt(rho_i).

    vectors (p, p, ..., M) and weights (p, ..., M) are the spectra of the M
    points of each closed loop (i + 1 wraps to 0), as planes. The amplitudes
    come back with M + 1 points, the last a copy of the first, so that
    [..., 1:] is the following point of [..., :-1] without a rolled copy.
    det sqrt(rho) is the product of sqrt(w), which the spectrum gives exactly;
    the link determinants use it.
    """
    p, m = vectors.shape[0], vectors.shape[-1]
    roots = np.sqrt(weights)
    amplitudes = np.empty(vectors.shape[:-1] + (m + 1,), dtype=complex)
    _spectral_planes(vectors, roots, amplitudes[..., :m])
    amplitudes[..., m] = amplitudes[..., 0]
    root_dets = roots.prod(axis=0)
    products = _plane_product(amplitudes[..., 1:], amplitudes[..., :m],
                              np.empty((p, p) + roots.shape[1:], dtype=complex))
    links = _polar_unitary(products, np.roll(root_dets, -1, axis=-1) * root_dets)
    return amplitudes, links


def _link_deviation(links: np.ndarray, amplitudes: np.ndarray) -> float:
    """max over links of ||(V_i - 1) sqrt(rho_i)||_F, accumulated entry by entry."""
    p = links.shape[0]
    total = np.zeros(links.shape[2:])
    entry = np.empty(links.shape[2:], dtype=complex)
    scratch = np.empty(links.shape[2:], dtype=complex)
    for i in range(p):
        for k in range(p):
            np.negative(amplitudes[i, k], out=entry)
            for j in range(p):
                entry += np.multiply(links[i, j], amplitudes[j, k], out=scratch)
            total += np.square(entry.real)
            total += np.square(entry.imag)
    return float(np.sqrt(total.max()))


def uhlmann_link(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Discrete parallel-transport unitary from rho_a to rho_b.

    V = W Z^dag from the SVD sqrt(rho_b) sqrt(rho_a) = W S Z^dag; equivalently
    the unitary maximizing Re Tr[V^dag sqrt(rho_b) sqrt(rho_a)], which is the
    w_b^dag w_a > 0 transport condition. The pair is validated as a
    two-point DensityMatrixPath.
    """
    pair = DensityMatrixPath(np.arange(2.0), np.stack([rho_a, rho_b]))
    _, links = _loop_links(*_full_rank_spectrum(pair))
    return links[..., 0].copy()


def _ordered_product_reversed(links: np.ndarray) -> np.ndarray:
    """V_M ... V_1 for link planes (p, p, ..., M) in path order, as planes (p, p, ..., 1).

    Pairwise reduction with a fixed combination order: deterministic and
    O(log M) plane products.
    """
    prod = links
    while prod.shape[-1] > 1:
        m = prod.shape[-1]
        combined = np.empty(prod.shape[:-1] + ((m + 1) // 2,), dtype=prod.dtype)
        # later path point acts on the left
        _plane_product(prod[..., 1:m:2], prod[..., 0:m - 1:2], combined[..., :m // 2])
        if m % 2 == 1:
            combined[..., -1] = prod[..., -1]
        prod = combined
    return prod


def _transport(vectors: np.ndarray, weights: np.ndarray,
               transverse: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray, float]:
    """(holonomies, phases, max link deviation) of closed loops given by their spectra.

    vectors (p, p, ..., M) and weights (p, ..., M) are the eigenbases and
    eigenvalues of the M points of each loop, as entry planes; the holonomies
    come back as (..., p, p) matrices. The amplitudes
    sqrt(rho) = V diag(sqrt w) V^dag give the links, H = V_M ... V_1 and
    phi_U = Im ln Tr[rho(0) H]. The near-identity diagnostic is
    ||(V_i - 1) sqrt(rho_i)||_F: for nearly pure states the polar factor is
    numerically arbitrary (and physically irrelevant) on the vanishing-weight
    subspace, so the deviation is weighted by the amplitude each link
    actually transports. `transverse` (one momentum per loop) names the loop
    whose phase is undefined.
    """
    amplitudes, links = _loop_links(vectors, weights)
    dev = _link_deviation(links, amplitudes[..., :-1])
    del amplitudes
    if dev >= LINK_IDENTITY_MAX:
        raise UnderResolvedError(
            f"transport link deviates from identity by {dev:.3f} >= {LINK_IDENTITY_MAX}: "
            "refine the path discretization")
    holonomies = _ordered_product_reversed(links)
    p = holonomies.shape[0]
    rho0 = _spectral_planes(vectors[..., :1], weights[..., :1], np.empty_like(holonomies))
    traces = sum(rho0[i, j] * holonomies[j, i] for i in range(p) for j in range(p))[..., 0]
    moduli = np.abs(traces)
    if moduli.min() < 1e-12:
        where = "" if transverse is None else f" at transverse_k={transverse[moduli.argmin()]:.6f}"
        raise PhaseUndefinedError(f"|Tr[rho(0) H]| = {moduli.min():.3e} < 1e-12{where}: "
                                  "Uhlmann phase undefined")
    return _matrices(holonomies[..., 0]), np.angle(traces), dev


def uhlmann_holonomy(path: DensityMatrixPath) -> UhlmannHolonomy:
    """H = V_M ... V_1 along the closed path; refuses badly resolved paths.

    Raises PhaseUndefinedError where Tr[rho(0) H] vanishes, like uhlmann_phase.
    """
    holonomy, _, dev = _transport(*_full_rank_spectrum(path))
    return UhlmannHolonomy(matrix=holonomy, n_points=len(path), max_link_deviation=dev)


def uhlmann_phase(path: DensityMatrixPath) -> float:
    """phi_U = Im ln Tr[rho(0) H] on the principal branch."""
    _, phase, _ = _transport(*_full_rank_spectrum(path))
    return float(phase)


def bz_loop_path(model: BlochModel, beta: float, mu: float, direction: str,
                 transverse_k: float, n_points: int) -> DensityMatrixPath:
    """Thermal density matrices along a straight BZ loop at fixed transverse k.

    Note: assembling explicit matrices caps the usable coldness at the
    double-precision noise floor; the profile/winding entry points go through
    exact spectral weights instead and reach much larger beta.
    """
    ks = momentum_line(n_points)
    rhos = thermal_density_k(model, beta, mu, *line_momenta(direction, ks, transverse_k))
    return DensityMatrixPath(parameters=ks, rhos=rhos)


class _LoopSpectra:
    """Spectra of h(k) on the straight loops along `direction` at the transverse momenta.

    The spectra are kept as entry planes, the transport kernel's layout, so
    each diagonalization is transposed once and no temperature transposes
    again. Only the finest path diagonalized so far is kept. A coarser path whose
    momenta are bitwise a stride of it is served as a strided view, and a path
    of twice the points diagonalizes only its new odd points. Only the
    Boltzmann weights depend on beta, so one instance serves a whole scan.
    """

    def __init__(self, model: BlochModel, direction: str, transverse: np.ndarray):
        self.model, self.direction, self.transverse = model, direction, transverse
        self._ks = None  # momenta of the stored path
        self._energies = self._vectors = None

    def _eigh(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        kxs, kys = line_momenta(self.direction, ks[None, :], self.transverse[:, None])
        energies, vectors = np.linalg.eigh(self.model.matrix(kxs, kys))
        return np.ascontiguousarray(np.moveaxis(energies, -1, 0)), _planes(vectors)

    def __call__(self, n_points: int) -> tuple[np.ndarray, np.ndarray]:
        """(energies (p, T, M), vectors (p, p, T, M)) of the n_points-point loops, as planes."""
        ks = momentum_line(n_points)
        stored = 0 if self._ks is None else len(self._ks)
        stride = stored // n_points
        if stride and _same_bits(self._ks[::stride], ks):
            return self._energies[..., ::stride], self._vectors[..., ::stride]
        if n_points == 2 * stored and _same_bits(ks[::2], self._ks):
            odd_energies, odd_vectors = self._eigh(ks[1::2])
            energies = _interleave(self._energies, odd_energies)
            vectors = _interleave(self._vectors, odd_vectors)
        else:
            energies, vectors = self._eigh(ks)
        if n_points > stored:
            self._ks, self._energies, self._vectors = ks, energies, vectors
        return energies, vectors


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _interleave(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """(..., M) samples at the even and odd points of a (..., 2M) path."""
    return np.stack([even, odd], axis=-1).reshape(*even.shape[:-1], -1)


def _refined_phases(spectra: _LoopSpectra, beta: float, mu: float, n_points: int,
                    refine: bool) -> tuple[np.ndarray, int]:
    """(Uhlmann phases over the transverse momenta, path points used).

    Each pass evaluates the loops of m points, batched over (transverse,
    path), and transports them. The spectra keep their exact Boltzmann
    weights: no density matrix is assembled, so no rank floor applies. The
    weights of the energy planes (p, T, M) are normalized over p through a
    (T, M, p) view, which leaves them as planes in memory. With `refine`, m
    doubles until the phases change pointwise by less than CAUCHY_TOL.
    """
    m, previous = n_points, None
    while True:
        energies, vectors = spectra(m)
        weights = np.moveaxis(boltzmann_weights(np.moveaxis(energies, 0, -1), beta, mu), -1, 0)
        _, phases, _ = _transport(vectors, weights, spectra.transverse)
        if not refine or (previous is not None and np.abs(
                (phases - previous + np.pi) % (2 * np.pi) - np.pi).max() < CAUCHY_TOL):
            return phases, m
        if 2 * m > PATH_POINTS_CAP:
            raise UnderResolvedError(
                f"Uhlmann path not Cauchy-converged below {PATH_POINTS_CAP} points")
        previous, m = phases, 2 * m


def uhlmann_phase_bz(model: BlochModel, beta: float, mu: float, direction: str,
                     transverse_k: float, n_points: int = PATH_POINTS_DEFAULT,
                     refine: bool = True) -> tuple[float, int]:
    """phi_U for one straight Brillouin-zone loop; returns (phase, points used)."""
    spectra = _LoopSpectra(model, direction, np.array([float(transverse_k)]))
    phases, m = _refined_phases(spectra, beta, mu, n_points, refine)
    return float(phases[0]), m


def uhlmann_phase_profile(model: BlochModel, beta: float, mu: float, direction: str,
                          transverse: np.ndarray, n_points: int = PATH_POINTS_DEFAULT,
                          refine: bool = True) -> tuple[PhaseProfile, int]:
    """Profile of phi_U over the transverse BZ with automatic path refinement.

    The path resolution doubles until the profile changes pointwise by less
    than CAUCHY_TOL (Cauchy criterion), capped at PATH_POINTS_CAP points.
    """
    spectra = _LoopSpectra(model, direction, np.asarray(transverse, dtype=float))
    return _uhlmann_profile(spectra, beta, mu, n_points, refine)


def _uhlmann_profile(spectra: _LoopSpectra, beta: float, mu: float, n_points: int,
                     refine: bool = True) -> tuple[PhaseProfile, int]:
    phases, m = _refined_phases(spectra, beta, mu, n_points, refine)
    profile = PhaseProfile(parameters=spectra.transverse, phases=phases, label="uhlmann",
                           direction=spectra.direction, temperature=1.0 / beta)
    return profile, m


def uhlmann_windings(model: BlochModel, beta: float, mu: float, grid: MomentumGrid,
                     n_points: int = PATH_POINTS_DEFAULT) -> tuple[int, int]:
    """(C_x^U, C_y^U): windings of phi_U_x over ky and -(phi_U_y over kx).

    No equality is asserted; directional disagreement at intermediate
    temperature is a physical finding, not an error.
    """
    return _uhlmann_windings(_grid_loops(model, grid), beta, mu, n_points)


def _grid_loops(model: BlochModel, grid: MomentumGrid) -> tuple[_LoopSpectra, _LoopSpectra]:
    """The x loops (over ky) and the y loops (over kx) of the grid."""
    return (_LoopSpectra(model, "x", grid.ky_values()),
            _LoopSpectra(model, "y", grid.kx_values()))


def _uhlmann_windings(loops: tuple[_LoopSpectra, _LoopSpectra], beta: float, mu: float,
                      n_points: int) -> tuple[int, int]:
    prof_x, _ = _uhlmann_profile(loops[0], beta, mu, n_points)
    prof_y, _ = _uhlmann_profile(loops[1], beta, mu, n_points)
    return winding_of_phase_profile(prof_x), -winding_of_phase_profile(prof_y)


@dataclass(frozen=True)
class InvariantReport:
    """Per-temperature record of every invariant the scan compares."""

    temperature: float
    beta: float
    cx_uhlmann: Optional[int]
    cy_uhlmann: Optional[int]
    cx_egp: Optional[int]
    cy_egp: Optional[int]
    c_ground: Optional[int]
    status: str = "ok"

    @property
    def uhlmann_asymmetric(self) -> bool:
        return (self.cx_uhlmann is not None and self.cy_uhlmann is not None
                and self.cx_uhlmann != self.cy_uhlmann)


def ground_state_chern(model: BlochModel, mu: float, grid: MomentumGrid) -> int:
    """Chern number of the filled frame of h (all bands below mu).

    Frames and the filled-band count come from one batched spectrum; mu
    inside a band anywhere on the grid raises GapError naming k.
    """
    kxs, kys = grid.mesh()
    energies, frames = band_systems(model.matrix(kxs, kys))
    n_filled = bands_below(energies, mu, kxs, kys)
    return chern_number(berry_curvature_plaquette(frames[..., :n_filled]))


def uhlmann_temperature_scan(model: BlochModel, mu: float, temperatures,
                             grid: MomentumGrid, n_points: int = PATH_POINTS_DEFAULT,
                             n_cells: int = 10,
                             egp_transverse: Optional[int] = None) -> list[InvariantReport]:
    """Uhlmann vs EGP windings across a temperature sweep.

    Per-row failures are recorded in `status` and the scan continues; the
    ground-state Chern number is computed once and repeated per row. The EGP
    profiles may need a finer transverse grid than the Uhlmann ones at the
    hot end of a sweep (near-pi kinks develop toward maximal mixing), hence
    the separate `egp_transverse` resolution.
    """
    if egp_transverse is None:
        egp_transverse = max(grid.nx, grid.ny)
    c_ground = ground_state_chern(model, mu, grid)
    loops = _grid_loops(model, grid)  # h(k) spectra shared by every temperature
    reports = []
    for t in np.asarray(temperatures, dtype=float):
        beta = 1.0 / t
        errors = []
        cx_u = cy_u = cx_e = cy_e = None
        try:
            cx_u, cy_u = _uhlmann_windings(loops, beta, mu, n_points)
        except MixedTopoError as exc:
            errors.append(f"uhlmann: {exc}")
        try:
            spec = GaussianStateSpec.thermal(beta, mu, model)
            cx_e, cy_e = egp_windings(spec, n_cells, egp_transverse)
        except MixedTopoError as exc:
            errors.append(f"egp: {exc}")
        reports.append(InvariantReport(
            temperature=float(t), beta=float(beta),
            cx_uhlmann=cx_u, cy_uhlmann=cy_u, cx_egp=cx_e, cy_egp=cy_e,
            c_ground=c_ground, status="; ".join(errors) if errors else "ok"))
    return reports
