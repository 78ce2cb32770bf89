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
    """Closed loop of full-rank density matrices; rho(M+1) is rho(1)."""

    parameters: np.ndarray
    rhos: np.ndarray  # (M, p, p)

    def __post_init__(self):
        rhos = np.asarray(self.rhos, dtype=complex)
        params = np.asarray(self.parameters, dtype=float)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("rhos must be (M, p, p)")
        if params.shape != (rhos.shape[0],):
            raise ValueError("parameters must match the number of path points")
        traces = np.einsum("kii->k", rhos)
        if np.abs(traces - 1).max() > 1e-12:
            raise ValueError(f"path matrices must have unit trace "
                             f"(worst deviation {np.abs(traces - 1).max():.3e})")
        if np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max() > 1e-12:
            raise ValueError("path matrices must be Hermitian")
        eig = np.linalg.eigvalsh(rhos)
        if eig.min() < -1e-12:
            raise ValueError(f"path matrices must be positive semi-definite "
                             f"(min eigenvalue {eig.min():.3e})")
        object.__setattr__(self, "rhos", rhos)
        object.__setattr__(self, "parameters", params)

    def __len__(self) -> int:
        return self.rhos.shape[0]


@dataclass(frozen=True)
class UhlmannHolonomy:
    """Path-ordered product of transport unitaries, with link diagnostics."""

    matrix: np.ndarray
    n_points: int
    max_link_deviation: float = math.nan
    metadata: dict = field(default_factory=dict)


def _sqrt_psd_batch(rhos: np.ndarray) -> np.ndarray:
    eig, vec = np.linalg.eigh(rhos)
    return spectral_sum(vec, np.sqrt(np.clip(eig, 0.0, None)))


def _check_rank(rhos: np.ndarray, floor: float = RANK_NOISE_FLOOR):
    smallest = np.linalg.eigvalsh(rhos)[..., 0].min()
    if smallest <= floor:
        raise RankDeficiencyError(
            f"density matrix numerically rank deficient (min eigenvalue {smallest:.3e} "
            f"<= {floor:.0e}); mixed-state holonomy undefined at exact purity. For cold "
            "thermal states use the thermal entry points, which work with exact weights")


def _polar_unitary(products: np.ndarray) -> np.ndarray:
    w, _, zh = np.linalg.svd(products)
    return w @ zh


def uhlmann_link(rho_a: np.ndarray, rho_b: np.ndarray,
                 rank_floor: float = RANK_NOISE_FLOOR) -> np.ndarray:
    """Discrete parallel-transport unitary from rho_a to rho_b.

    V = W Z^dag from the SVD sqrt(rho_b) sqrt(rho_a) = W S Z^dag; equivalently
    the unitary maximizing Re Tr[V^dag sqrt(rho_b) sqrt(rho_a)], which is the
    w_b^dag w_a > 0 transport condition.
    """
    pair = np.stack([np.asarray(rho_a, dtype=complex), np.asarray(rho_b, dtype=complex)])
    _check_rank(pair, rank_floor)
    sq = _sqrt_psd_batch(pair)
    return _polar_unitary(sq[1] @ sq[0])


def _ordered_product_reversed(links: np.ndarray) -> np.ndarray:
    """V_M ... V_1 for links stacked along the leading axis in path order.

    Pairwise reduction with a fixed combination order: deterministic and
    O(log M) batched matmuls.
    """
    prod = links
    while prod.shape[-3] > 1:
        m = prod.shape[-3]
        even = prod[..., 0:m - 1:2, :, :]
        odd = prod[..., 1:m:2, :, :]
        combined = odd @ even  # later path point acts on the left
        if m % 2 == 1:
            combined = np.concatenate([combined, prod[..., m - 1:m, :, :]], axis=-3)
        prod = combined
    return prod[..., 0, :, :]


def _holonomy_from_sqrts(sqrts: np.ndarray) -> tuple[np.ndarray, float]:
    """Holonomy (and max transport-link deviation) from stacked sqrt(rho).

    Works batched: sqrts has shape (..., M, p, p). The near-identity
    diagnostic is ||(V_i - 1) sqrt(rho_i)||_F: for nearly pure states the
    polar factor is numerically arbitrary (and physically irrelevant) on the
    vanishing-weight subspace, so the deviation is weighted by the amplitude
    each link actually transports.
    """
    nxt = np.roll(sqrts, -1, axis=-3)
    links = _polar_unitary(nxt @ sqrts)
    p = links.shape[-1]
    dev = np.linalg.norm((links - np.eye(p)) @ sqrts, axis=(-2, -1)).max()
    return _ordered_product_reversed(links), float(dev)


def uhlmann_holonomy(path: DensityMatrixPath) -> UhlmannHolonomy:
    """H = V_M ... V_1 along the closed path; refuses badly resolved paths."""
    _check_rank(path.rhos)
    holonomy, dev = _holonomy_from_sqrts(_sqrt_psd_batch(path.rhos))
    if dev >= LINK_IDENTITY_MAX:
        raise UnderResolvedError(
            f"transport link deviates from identity by {dev:.3f} >= {LINK_IDENTITY_MAX}: "
            "refine the path discretization")
    return UhlmannHolonomy(matrix=holonomy, n_points=len(path), max_link_deviation=dev)


def uhlmann_phase(path: DensityMatrixPath) -> float:
    """phi_U = Im ln Tr[rho(0) H] on the principal branch."""
    hol = uhlmann_holonomy(path)
    trace = np.trace(path.rhos[0] @ hol.matrix)
    if abs(trace) < 1e-12:
        raise PhaseUndefinedError(f"|Tr[rho(0) H]| = {abs(trace):.3e} < 1e-12: "
                                  "Uhlmann phase undefined")
    return float(np.angle(trace))


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


def _uhlmann_profile_raw(model: BlochModel, beta: float, mu: float, direction: str,
                         transverse: np.ndarray, n_points: int) -> np.ndarray:
    """Uhlmann phases over transverse momenta, batched over (transverse, path)."""
    kxs, kys = line_momenta(direction, momentum_line(n_points)[None, :], transverse[:, None])
    energies, vectors = np.linalg.eigh(model.matrix(kxs, kys))
    weights = boltzmann_weights(energies, beta, mu)
    holonomies, dev = _holonomy_from_sqrts(spectral_sum(vectors, np.sqrt(weights)))
    if dev >= LINK_IDENTITY_MAX:
        raise UnderResolvedError(
            f"transport link deviates from identity by {dev:.3f} >= {LINK_IDENTITY_MAX}: "
            "refine the path discretization")
    rho0 = spectral_sum(vectors[:, 0], weights[:, 0])
    traces = np.einsum("tij,tji->t", rho0, holonomies)
    if np.abs(traces).min() < 1e-12:
        k_bad = transverse[np.argmin(np.abs(traces))]
        raise PhaseUndefinedError(f"|Tr[rho H]| < 1e-12 at transverse_k={k_bad:.6f}")
    return np.angle(traces)


def _refined_phases(model: BlochModel, beta: float, mu: float, direction: str,
                    transverse: np.ndarray, n_points: int, refine: bool,
                    cauchy_tol: float, n_cap: int) -> tuple[np.ndarray, int]:
    m = n_points
    phases = _uhlmann_profile_raw(model, beta, mu, direction, transverse, m)
    while refine:
        if 2 * m > n_cap:
            raise UnderResolvedError(
                f"Uhlmann path not Cauchy-converged below {n_cap} points")
        refined = _uhlmann_profile_raw(model, beta, mu, direction, transverse, 2 * m)
        delta = np.abs((refined - phases + np.pi) % (2 * np.pi) - np.pi).max()
        phases, m = refined, 2 * m
        if delta < cauchy_tol:
            break
    return phases, m


def uhlmann_phase_bz(model: BlochModel, beta: float, mu: float, direction: str,
                     transverse_k: float, n_points: int = PATH_POINTS_DEFAULT,
                     refine: bool = True, cauchy_tol: float = CAUCHY_TOL,
                     n_cap: int = PATH_POINTS_CAP) -> tuple[float, int]:
    """phi_U for one straight Brillouin-zone loop; returns (phase, points used)."""
    phases, m = _refined_phases(model, beta, mu, direction,
                                np.array([float(transverse_k)]), n_points,
                                refine, cauchy_tol, n_cap)
    return float(phases[0]), m


def uhlmann_phase_profile(model: BlochModel, beta: float, mu: float, direction: str,
                          transverse: np.ndarray, n_points: int = PATH_POINTS_DEFAULT,
                          refine: bool = True, cauchy_tol: float = CAUCHY_TOL,
                          n_cap: int = PATH_POINTS_CAP) -> tuple[PhaseProfile, int]:
    """Profile of phi_U over the transverse BZ with automatic path refinement.

    The path resolution doubles until the profile changes pointwise by less
    than `cauchy_tol` (Cauchy criterion), capped at `n_cap` points.
    """
    transverse = np.asarray(transverse, dtype=float)
    phases, m = _refined_phases(model, beta, mu, direction, transverse, n_points,
                                refine, cauchy_tol, n_cap)
    profile = PhaseProfile(parameters=transverse, phases=phases, label="uhlmann",
                           direction=direction, temperature=1.0 / beta)
    return profile, m


def uhlmann_windings(model: BlochModel, beta: float, mu: float, grid: MomentumGrid,
                     n_points: int = PATH_POINTS_DEFAULT, refine: bool = True) -> tuple[int, int]:
    """(C_x^U, C_y^U): windings of phi_U_x over ky and -(phi_U_y over kx).

    No equality is asserted; directional disagreement at intermediate
    temperature is a physical finding, not an error.
    """
    prof_x, _ = uhlmann_phase_profile(model, beta, mu, "x", grid.ky_values(), n_points, refine)
    prof_y, _ = uhlmann_phase_profile(model, beta, mu, "y", grid.kx_values(), n_points, refine)
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
    kxs, kys = np.meshgrid(grid.kx_values(), grid.ky_values(), indexing="ij")
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
    from .egp import egp_windings

    if egp_transverse is None:
        egp_transverse = max(grid.nx, grid.ny)
    c_ground = ground_state_chern(model, mu, grid)
    reports = []
    for t in np.asarray(temperatures, dtype=float):
        beta = 1.0 / t
        errors = []
        cx_u = cy_u = cx_e = cy_e = None
        try:
            cx_u, cy_u = uhlmann_windings(model, beta, mu, grid, n_points)
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
