"""References for the Uhlmann transport: the assembled-matrix route, the Cauchy
refinement, the matmul kernel, the SVD polar factor, an extended-precision loop and
the per-temperature scan.

The assembled-matrix route (`thermal_density_k`, `DensityMatrixPath`,
`uhlmann_link`, `uhlmann_holonomy`, `uhlmann_phase`, `bz_loop_path`) takes
explicit density matrices, validates them, diagonalizes each path once and
hands its spectrum to the entry-plane kernel `mixedtopo.uhlmann._transport`.
It refuses a path whose smallest eigenvalue is at or below RANK_NOISE_FLOOR;
the package's thermal loops carry exact Boltzmann weights and need no floor.

`cauchy_phases` is the refinement the Uhlmann phase functions once stopped
on: the path doubles until the phases change pointwise by less than
CAUCHY_TOL. `fixed_phases` and `loop_phase` evaluate the same
`mixedtopo.uhlmann._phases_at` at one path, raising what refuses it.

`transport` is the Uhlmann transport written with batched matmul and einsum
on (..., M, p, p) stacks, which the entry-plane kernel of `mixedtopo.uhlmann`
replaced; like the kernel it returns per loop the link deviation and
|Tr[rho(0) H]| and refuses nothing. `polar_unitary` is its closed-form 2 x 2
polar factor and `svd_polar_unitary` the route that closed form replaced.

`qwz_phases_extended` evaluates the same discretized Uhlmann phases of the
default qwz model in long double (64-bit mantissa on x86), from closed-form
amplitudes sqrt(rho) = a + b d.sigma/|d| and exact link determinants, so
that it shows which double-precision route is closer to the exact value of
the discretized loop.

`temperature_scan` is `uhlmann_temperature_scan` as it was before the
certified Uhlmann windings and the EGP chains were batched over temperature:
one temperature at a time, each with its own transport passes and its own
`chain_traces` call per direction, raising at the first failure of a pass.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from mixedtopo import model, uhlmann
from mixedtopo.egp import _egp_windings, _line_profile
from mixedtopo.errors import (MixedTopoError, PhaseUndefinedError, RankDeficiencyError,
                              UnderResolvedError)
from mixedtopo.gaussian import GaussianStateSpec
from mixedtopo.geometry import JUMP_MARGIN, PhaseProfile, winding_of_phase_profile
from mixedtopo.model import (BlochModel, _LineSpectra, _planes, boltzmann_weights, line_momenta,
                             momentum_line, spectral_sum)

# Below this floor an assembled density matrix is indistinguishable from an
# exactly pure one at double precision: the polar transport factor would be
# basis dependent in the near-null subspace, so raw-matrix input is refused.
# The thermal loops of the package avoid assembly altogether: they carry exact
# spectral weights (representable down to ~1e-308), which is what keeps
# deep-cold scans usable.
RANK_NOISE_FLOOR = 1e-14
CAUCHY_TOL = 1e-4
EXTENDED = np.finfo(np.longdouble).eps < 1e-18



def thermal_density_k(bloch: BlochModel, beta: float, mu: float, kx, ky) -> np.ndarray:
    """rho(k) = e^{-beta (h(k) - mu)} / Tr[...] at broadcast momenta; finite beta only."""
    energies, vectors = model._eigh(bloch.matrix(kx, ky))
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
        weights, vectors = model._eigh(rhos)
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


def uhlmann_link(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Discrete parallel-transport unitary from rho_a to rho_b.

    V = W Z^dag from the SVD sqrt(rho_b) sqrt(rho_a) = W S Z^dag; equivalently
    the unitary maximizing Re Tr[V^dag sqrt(rho_b) sqrt(rho_a)], which is the
    w_b^dag w_a > 0 transport condition. The pair is validated as a
    two-point DensityMatrixPath.
    """
    pair = DensityMatrixPath(np.arange(2.0), np.stack([rho_a, rho_b]))
    _, links = uhlmann._loop_links(*_full_rank_spectrum(pair))
    return links[..., 0].copy()


def _checked_transport(path: DensityMatrixPath) -> tuple[np.ndarray, np.ndarray, float]:
    """(holonomy, phase, link deviation) of a path, raising what `_transport_error` finds."""
    holonomy, phase, deviation, modulus = uhlmann._transport(*_full_rank_spectrum(path))
    error = uhlmann._transport_error(deviation, modulus)
    if error is not None:
        raise error
    return holonomy, phase, float(deviation)


def uhlmann_holonomy(path: DensityMatrixPath) -> UhlmannHolonomy:
    """H = V_M ... V_1 along the closed path; refuses badly resolved paths.

    Raises PhaseUndefinedError where Tr[rho(0) H] vanishes, like uhlmann_phase.
    """
    holonomy, _, dev = _checked_transport(path)
    return UhlmannHolonomy(matrix=holonomy, n_points=len(path), max_link_deviation=dev)


def uhlmann_phase(path: DensityMatrixPath) -> float:
    """phi_U = Im ln Tr[rho(0) H] on the principal branch."""
    return float(_checked_transport(path)[1])


def bz_loop_path(bloch: BlochModel, beta: float, mu: float, direction: str,
                 transverse_k: float, n_points: int) -> DensityMatrixPath:
    """Thermal density matrices along a straight BZ loop at fixed transverse k.

    Assembling explicit matrices caps the usable coldness at the
    double-precision noise floor; the package's thermal loops go through
    exact spectral weights instead and reach much larger beta.
    """
    ks = momentum_line(n_points)
    rhos = thermal_density_k(bloch, beta, mu, *line_momenta(direction, ks, transverse_k))
    return DensityMatrixPath(parameters=ks, rhos=rhos)


def fixed_phases(spectra: _LineSpectra, beta: float, mu: float, m: int) -> np.ndarray:
    """Uhlmann phases of one temperature on the m-point loops of a line-spectrum cache,
    by `mixedtopo.uhlmann._phases_at`; raises the error that refuses them."""
    [phases] = uhlmann._phases_at(spectra, np.array([beta], dtype=float), mu, m)
    if isinstance(phases, MixedTopoError):
        raise phases
    return phases


def loop_phase(bloch: BlochModel, beta: float, mu: float, direction: str,
               transverse_k: float, n_points: int) -> float:
    """phi_U of one straight BZ loop of n_points points."""
    spectra = _LineSpectra(bloch, direction, np.array([float(transverse_k)]))
    return float(fixed_phases(spectra, beta, mu, n_points)[0])


def cauchy_phases(bloch: BlochModel, beta: float, mu: float, direction: str,
                  transverse, n_points: int) -> tuple[np.ndarray, int]:
    """(Uhlmann phases over `transverse`, path points used), Cauchy-converged.

    m doubles from n_points until the phases change pointwise by less than
    CAUCHY_TOL from the previous pass. A pass whose links fail the
    LINK_IDENTITY_MAX check is not converged yet and doubles too; past
    PATH_POINTS_CAP, UnderResolvedError names the direction, the points and
    why the last pass failed. Any other error of a pass is raised.
    """
    spectra = _LineSpectra(bloch, direction, np.asarray(transverse, dtype=float))
    m, previous = n_points, None
    while True:
        [phases] = uhlmann._phases_at(spectra, np.array([beta], dtype=float), mu, m)
        if isinstance(phases, UnderResolvedError):  # a link too far from the identity
            reason, phases = str(phases), None
        elif isinstance(phases, MixedTopoError):
            raise phases
        elif previous is None:
            reason = (f"the {m // 2}-point pass failed the link check" if m > n_points
                      else "no coarser pass to compare with")
        else:
            change = np.abs((phases - previous + np.pi) % (2 * np.pi) - np.pi).max()
            if change < CAUCHY_TOL:
                return phases, m
            reason = f"pointwise change {change:.3e} >= {CAUCHY_TOL:.0e}: not Cauchy-converged"
        if 2 * m > uhlmann.PATH_POINTS_CAP:
            raise UnderResolvedError(f"Uhlmann {spectra.direction} path unresolved at {m} points "
                                     f"(cap {uhlmann.PATH_POINTS_CAP}): {reason}")
        previous, m = phases, 2 * m


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


def transport(vectors: np.ndarray,
              weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(holonomies (..., p, p), phases, link deviations, |Tr[rho(0) H]|) from (..., M, p, p)
    spectra, the last three per loop."""
    amplitudes, links = loop_links(vectors, weights)
    p = links.shape[-1]
    deviations = np.linalg.norm((links - np.eye(p)) @ amplitudes, axis=(-2, -1)).max(axis=-1)
    holonomies = ordered_product_reversed(links)
    rho0 = spectral_sum(vectors[..., 0, :, :], weights[..., 0, :])
    traces = np.einsum("...ij,...ji->...", rho0, holonomies)
    return holonomies, np.angle(traces), deviations, np.abs(traces)


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


def _checked_phases(spectra: _LineSpectra, beta: float, mu: float, m: int) -> np.ndarray:
    """Phases of the m-point loops at one temperature; raises at the batch's worst link and
    then at its smallest |Tr[rho(0) H]|."""
    energies, vectors = spectra(m)
    weights = np.moveaxis(boltzmann_weights(np.moveaxis(energies, 0, -1), beta, mu), -1, 0)
    _, phases, deviations, moduli = uhlmann._transport(vectors, weights)
    dev = float(deviations.max())
    if dev >= uhlmann.LINK_IDENTITY_MAX:
        raise UnderResolvedError(
            f"transport link deviates from identity by {dev:.3f} >= "
            f"{uhlmann.LINK_IDENTITY_MAX}: refine the path discretization")
    if moduli.min() < 1e-12:
        raise PhaseUndefinedError(
            f"|Tr[rho(0) H]| = {moduli.min():.3e} < 1e-12 at "
            f"transverse_k={spectra.transverse[moduli.argmin()]:.6f}: Uhlmann phase undefined")
    return phases


def certified_profile(spectra: _LineSpectra, beta: float, mu: float) -> tuple[np.ndarray, int]:
    """(phases, path points) of one temperature's certified Uhlmann winding, by the rule of
    `mixedtopo.uhlmann._refinement`, from PATH_POINTS_START points."""
    def phases_at(m: int) -> tuple[Optional[np.ndarray], str]:
        try:
            return _checked_phases(spectra, beta, mu, m), ""
        except UnderResolvedError as exc:  # a link too far from the identity
            return None, str(exc)

    m, previous, coarse = uhlmann.PATH_POINTS_START, None, 0
    if m >= 4:
        coarse = m // 2
        previous, _ = phases_at(coarse)
    while True:
        phases, reason = phases_at(m)
        if phases is not None and previous is None:
            reason = (f"the {coarse}-point pass failed the link check" if coarse
                      else "no coarser pass to compare with")
        elif phases is not None:
            change = np.abs((phases - previous + np.pi) % (2 * np.pi) - np.pi).max()
            error = change / ((m / coarse) ** 2 - 1)
            steps = np.abs(PhaseProfile(spectra.transverse, phases).jumps())
            worst = steps.argmax()
            if steps[worst] + 2 * error < np.pi - JUMP_MARGIN:
                return phases, m
            reason = (f"max step {steps[worst]:.3f} + 2e {2 * error:.3e} rad >= pi - "
                      f"{JUMP_MARGIN} at transverse_k={spectra.transverse[worst]:.6f}")
            if steps[worst] - 2 * error >= np.pi - JUMP_MARGIN:
                raise UnderResolvedError(
                    f"Uhlmann {spectra.direction} profile at {m} points: {reason}, and so is "
                    "max step - 2e: only a finer transverse grid can certify the winding")
            reason += ": winding not certified"
        if 2 * m > uhlmann.PATH_POINTS_CAP:
            raise UnderResolvedError(f"Uhlmann {spectra.direction} path unresolved at {m} points "
                                     f"(cap {uhlmann.PATH_POINTS_CAP}): {reason}")
        previous, coarse, m = phases, m, 2 * m


def temperature_scan(model, mu: float, temperatures, grid, n_cells: int = 10,
                     egp_transverse: Optional[int] = None) -> list:
    """The InvariantReport rows of `uhlmann_temperature_scan`, one temperature at a time."""
    if egp_transverse is None:
        egp_transverse = max(grid.nx, grid.ny)
    c_ground = uhlmann.ground_state_chern(model, mu, grid)
    loops = (_LineSpectra(model, "x", grid.ky_values()), _LineSpectra(model, "y", grid.kx_values()))
    chains = {d: _LineSpectra(model, d, momentum_line(egp_transverse)) for d in "xy"}
    reports = []
    for t in np.asarray(temperatures, dtype=float):
        beta = 1.0 / t
        errors = []
        cx_u = cy_u = cx_e = cy_e = points = None
        try:
            (phases_x, m_x), (phases_y, m_y) = (certified_profile(spectra, beta, mu)
                                                for spectra in loops)
            cx_u = winding_of_phase_profile(PhaseProfile(loops[0].transverse, phases_x))
            cy_u = -winding_of_phase_profile(PhaseProfile(loops[1].transverse, phases_y))
            points = max(m_x, m_y)
        except MixedTopoError as exc:
            errors.append(f"uhlmann: {exc}")
        try:
            spec = GaussianStateSpec.thermal(beta, mu, model)
            cx_e, cy_e = _egp_windings(lambda d: _line_profile(spec, chains[d], n_cells))
        except MixedTopoError as exc:
            errors.append(f"egp: {exc}")
        reports.append(uhlmann.InvariantReport(
            temperature=float(t), beta=float(beta),
            cx_uhlmann=cx_u, cy_uhlmann=cy_u, cx_egp=cx_e, cy_egp=cy_e,
            c_ground=c_ground, status="; ".join(errors) if errors else "ok",
            uhlmann_path_points=points))
    return reports
