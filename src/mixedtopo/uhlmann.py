"""Uhlmann holonomy and phase for single-particle thermal density matrices.

The parallel transport of purification amplitudes w = sqrt(rho) U along a
closed density-matrix loop is discretized by the unitary polar factors of
sqrt(rho_{i+1}) sqrt(rho_i); the holonomy is their ordered product,
H = V_M ... V_1, and the phase is Im ln Tr[rho_1 H]. Unlike the EGP, the
windings of this phase in x and y need not agree at intermediate
temperatures; that asymmetry is the point of the comparison scan.

Every loop comes from one spectrum of h(k) per point and the exact Boltzmann
weights; no density matrix is assembled. The route through assembled density
matrices (a validated path, its holonomy and phase, refused at a rank noise
floor) is a reference in `tests/uhlmann_oracle.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .egp import _chain_windings
from .errors import (
    MixedTopoError,
    PhaseUndefinedError,
    RankDeficiencyError,
    UnderResolvedError,
)
from .geometry import (
    JUMP_MARGIN,
    PhaseProfile,
    berry_curvature_plaquette,
    chern_number,
    winding_of_phase_profile,
)
from .model import (
    BlochModel,
    MomentumGrid,
    _boltzmann,
    _LineSpectra,
    _matrices,
    _require_finite_beta,
    _underflow,
    band_systems,
    bands_below,
    momentum_line,
)

LINK_IDENTITY_MAX = 0.5
PATH_POINTS_START = 32
PATH_POINTS_CAP = 8192


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


def _link_deviations(links: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Per loop, max over its links of ||(V_i - 1) sqrt(rho_i)||_F, accumulated entry by entry."""
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
    return np.sqrt(total.max(axis=-1))


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


def _transport(vectors: np.ndarray,
               weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(holonomies, phases, link deviations, |Tr[rho(0) H]|) of closed loops given by their
    spectra.

    vectors (p, p, ..., M) and weights (p, ..., M) are the eigenbases and
    eigenvalues of the M points of each loop, as entry planes; the holonomies
    come back as (..., p, p) matrices and the rest as (...) arrays, one value
    per loop. The amplitudes sqrt(rho) = V diag(sqrt w) V^dag give the links,
    H = V_M ... V_1 and phi_U = Im ln Tr[rho(0) H]. The near-identity
    diagnostic of a loop is max_i ||(V_i - 1) sqrt(rho_i)||_F: for nearly pure
    states the polar factor is numerically arbitrary (and physically
    irrelevant) on the vanishing-weight subspace, so the deviation is weighted
    by the amplitude each link actually transports. Nothing is refused here:
    `_transport_error` judges the loops, so that one batch can hold loops that
    fail beside loops that pass.
    """
    amplitudes, links = _loop_links(vectors, weights)
    deviations = _link_deviations(links, amplitudes[..., :-1])
    del amplitudes
    holonomies = _ordered_product_reversed(links)
    p = holonomies.shape[0]
    rho0 = _spectral_planes(vectors[..., :1], weights[..., :1], np.empty_like(holonomies))
    traces = sum(rho0[i, j] * holonomies[j, i] for i in range(p) for j in range(p))[..., 0]
    return _matrices(holonomies[..., 0]), np.angle(traces), deviations, np.abs(traces)


def _transport_error(deviations: np.ndarray, moduli: np.ndarray,
                     transverse: Optional[np.ndarray] = None) -> Optional[MixedTopoError]:
    """The error that refuses a batch of loops with these `_transport` diagnostics, or None.

    A link deviating from the identity by LINK_IDENTITY_MAX or more gives
    UnderResolvedError; past that check, |Tr[rho(0) H]| below 1e-12 gives
    PhaseUndefinedError, naming the loop's momentum in `transverse` (one per
    loop) when given.
    """
    dev = deviations.max()
    if dev >= LINK_IDENTITY_MAX:
        return UnderResolvedError(
            f"transport link deviates from identity by {dev:.3f} >= {LINK_IDENTITY_MAX}: "
            "refine the path discretization")
    if moduli.min() < 1e-12:
        where = "" if transverse is None else f" at transverse_k={transverse[moduli.argmin()]:.6f}"
        return PhaseUndefinedError(f"|Tr[rho(0) H]| = {moduli.min():.3e} < 1e-12{where}: "
                                   "Uhlmann phase undefined")
    return None


def _phases_at(spectra: _LineSpectra, betas: np.ndarray, mu: float, m: int,
               step: int = 1) -> list:
    """Per beta of `betas`: the Uhlmann phases of the loops through every `step`-th point of
    the m-point lines, or the error refusing them.

    One `_transport` call takes the loops of every temperature, batched over
    (temperature, transverse, path). The spectra keep their exact Boltzmann
    weights: no density matrix is assembled, so no rank floor applies. The
    weights come from one call of the `boltzmann_weights` core on a (T, M, p)
    view of the energy planes (p, T, M), with beta along a new leading axis,
    and are taken as planes (p, n_T, T, M); the cached eigenvector planes are
    broadcast over the temperature axis, not copied. A temperature whose
    weights underflow gets the RankDeficiencyError `boltzmann_weights` would
    raise and stays out of the transport; each other one gets what
    `_transport_error` finds on its own loops, or its phases.
    """
    energies, vectors = (planes[..., ::step] for planes in spectra(m))
    weights, pure = _boltzmann(np.moveaxis(energies, 0, -1), betas, mu)
    results = [_underflow(beta) if underflowed else None for beta, underflowed in zip(betas, pure)]
    mixed = np.flatnonzero(~pure)
    if len(mixed):
        if len(mixed) < len(betas):
            weights = weights[mixed]
        shared = np.broadcast_to(vectors[:, :, None],
                                 vectors.shape[:2] + (len(mixed),) + vectors.shape[2:])
        _, phases, deviations, moduli = _transport(shared, np.moveaxis(weights, -1, 0))
        for i, row in enumerate(mixed):
            error = _transport_error(deviations[i], moduli[i], spectra.transverse)
            results[row] = phases[i] if error is None else error
    return results


def _refinement(spectra: _LineSpectra, betas: np.ndarray, mu: float) -> list:
    """Per beta of `betas`: (Uhlmann phases over the transverse momenta, path points used)
    once the winding of the profile is certified, or the MixedTopoError that stops them.

    Each pass makes one `_phases_at` call for every temperature still open,
    and m doubles from PATH_POINTS_START until the certificate holds. The path
    error of the m-point phases falls as m^-2, so it is estimated as
    e = max |phi_m - phi_c| / ((m/c)^2 - 1) from a coarse pass of c = m / 2
    points: every second point of the m-point loops on the first pass, the
    previous pass after that. The profile of the exact path then steps by
    less than max step + 2e, and the winding is certified when that is below
    pi - JUMP_MARGIN, the bound `winding_of_phase_profile` enforces. Where
    max step - 2e is not below it, no path can certify the winding, and
    UnderResolvedError stops the temperature at once. This is the only stop
    rule; the Cauchy rule (pointwise change below 1e-4) that the phase
    functions once stopped on is a reference in `tests/uhlmann_oracle.py`.

    A pass whose links fail the LINK_IDENTITY_MAX check is not yet converged,
    and doubles like any other; the temperatures that double do so together,
    as a smaller batch. Past PATH_POINTS_CAP, UnderResolvedError names the
    direction, the points and why the last pass failed.
    """
    results = [None] * len(betas)
    previous = [None] * len(betas)  # per temperature, the phases of m / 2 points
    m = PATH_POINTS_START
    for row, phases in enumerate(_phases_at(spectra, betas, mu, m, step=2)):
        if not isinstance(phases, MixedTopoError):
            previous[row] = phases
        elif not isinstance(phases, UnderResolvedError):  # a failed link check only doubles
            results[row] = phases
    rows = [row for row, result in enumerate(results) if result is None]
    while rows:
        doubling = []
        for row, phases in zip(rows, _phases_at(spectra, betas[rows], mu, m)):
            results[row], reason = _stop_rule(spectra, phases, previous[row], m)
            if results[row] is not None:
                continue
            if 2 * m > PATH_POINTS_CAP:
                results[row] = UnderResolvedError(
                    f"Uhlmann {spectra.direction} path unresolved at {m} points "
                    f"(cap {PATH_POINTS_CAP}): {reason}")
            else:
                previous[row] = None if isinstance(phases, MixedTopoError) else phases
                doubling.append(row)
        rows, m = doubling, 2 * m
    return results


def _stop_rule(spectra: _LineSpectra, phases, previous: Optional[np.ndarray],
               m: int) -> tuple[object, str]:
    """(what one temperature's pass of m points ends with, or None; why it doubles).

    `phases` is the temperature's result from `_phases_at`, and `previous` its
    phases of m / 2 points, None where there are none; see `_refinement`.
    """
    if isinstance(phases, UnderResolvedError):  # a link too far from the identity
        return None, str(phases)
    if isinstance(phases, MixedTopoError):
        return phases, ""
    if previous is None:
        return None, f"the {m // 2}-point pass failed the link check"
    change = np.abs((phases - previous + np.pi) % (2 * np.pi) - np.pi).max()
    error = change / 3  # (m / c)^2 - 1 at c = m / 2
    steps = np.abs(PhaseProfile(spectra.transverse, phases).jumps())
    worst = steps.argmax()
    if steps[worst] + 2 * error < np.pi - JUMP_MARGIN:
        return (phases, m), ""
    reason = (f"max step {steps[worst]:.3f} + 2e {2 * error:.3e} rad >= pi - "
              f"{JUMP_MARGIN} at transverse_k={spectra.transverse[worst]:.6f}")
    if steps[worst] - 2 * error >= np.pi - JUMP_MARGIN:
        return UnderResolvedError(
            f"Uhlmann {spectra.direction} profile at {m} points: {reason}, and so is "
            "max step - 2e: only a finer transverse grid can certify the winding"), ""
    return None, reason + ": winding not certified"


def uhlmann_phase_profile(model: BlochModel, beta: float, mu: float, direction: str,
                          transverse: np.ndarray, n_points: int) -> PhaseProfile:
    """Profile of phi_U over the transverse BZ on loops of exactly n_points points.

    Raises what `_phases_at` finds: RankDeficiencyError where the Boltzmann
    weights underflow, UnderResolvedError where a link deviates from the
    identity by LINK_IDENTITY_MAX or more, PhaseUndefinedError where
    |Tr[rho(0) H]| vanishes. The windings pick their own path instead; see
    `uhlmann_windings`.
    """
    spectra = _LineSpectra(model, direction, np.asarray(transverse, dtype=float))
    [phases] = _phases_at(spectra, np.array([beta], dtype=float), mu, n_points)
    if isinstance(phases, MixedTopoError):
        raise phases
    return PhaseProfile(parameters=spectra.transverse, phases=phases, label="uhlmann",
                        direction=spectra.direction, temperature=1.0 / beta)


def uhlmann_windings(model: BlochModel, beta: float, mu: float,
                     grid: MomentumGrid) -> tuple[int, int]:
    """(C_x^U, C_y^U): windings of phi_U_x over ky and -(phi_U_y over kx).

    Each winding is certified rather than Cauchy-converged, and the
    certificate picks the path: it starts at PATH_POINTS_START points, its
    error e is estimated from the phases at half the points, and the path
    doubles only while the largest transverse step plus 2e is not below
    pi - JUMP_MARGIN or a link fails the LINK_IDENTITY_MAX check. Past
    PATH_POINTS_CAP points, or at once where the step less 2e is not below
    it either (a transverse grid too coarse for any path), UnderResolvedError
    names the direction, the points, the step and 2e, and the transverse_k of
    the worst line. No equality is asserted; directional disagreement at
    intermediate temperature is a physical finding, not an error.
    """
    [result] = _uhlmann_windings(_grid_loops(model, grid), np.array([beta], dtype=float), mu)
    if isinstance(result, MixedTopoError):
        raise result
    cx, cy, _ = result
    return cx, cy


def _grid_loops(model: BlochModel, grid: MomentumGrid) -> tuple[_LineSpectra, _LineSpectra]:
    """The x loops (over ky) and the y loops (over kx) of the grid."""
    return (_LineSpectra(model, "x", grid.ky_values()),
            _LineSpectra(model, "y", grid.kx_values()))


def _uhlmann_windings(loops: tuple[_LineSpectra, _LineSpectra], betas: np.ndarray,
                      mu: float) -> list:
    """Per beta of `betas`: (C_x^U, C_y^U, path points of the more refined direction), or
    the MixedTopoError that stops them.

    The x windings of every temperature are certified together, then the y
    windings of those whose x windings were.
    """
    results = [None] * len(betas)
    for row, beta in enumerate(betas):
        try:
            _require_finite_beta(beta)
        except RankDeficiencyError as exc:  # beta = inf
            results[row] = exc
    certified = {}
    for spectra in loops:
        rows = [row for row, result in enumerate(results) if result is None]
        if not rows:
            break
        for row, result in zip(rows, _refinement(spectra, betas[rows], mu)):
            if isinstance(result, MixedTopoError):
                results[row] = result
            else:
                certified.setdefault(row, []).append(result)
    for row, result in enumerate(results):
        if result is None:
            (phases_x, m_x), (phases_y, m_y) = certified[row]
            results[row] = (winding_of_phase_profile(PhaseProfile(loops[0].transverse, phases_x)),
                            -winding_of_phase_profile(PhaseProfile(loops[1].transverse, phases_y)),
                            max(m_x, m_y))
    return results


@dataclass(frozen=True)
class InvariantReport:
    """Per-temperature record of every invariant the scan compares.

    `uhlmann_path_points` is the path the Uhlmann windings of the row were
    certified at (the larger of x and y); None where they were not, and in
    reports read back from CSV, which does not carry it.
    """

    temperature: float
    beta: float
    cx_uhlmann: Optional[int]
    cy_uhlmann: Optional[int]
    cx_egp: Optional[int]
    cy_egp: Optional[int]
    c_ground: Optional[int]
    status: str = "ok"
    uhlmann_path_points: Optional[int] = None

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
                             grid: MomentumGrid, n_cells: int = 10,
                             egp_transverse: Optional[int] = None) -> list[InvariantReport]:
    """Uhlmann vs EGP windings across a temperature sweep.

    Per-row failures are recorded in `status` and the scan continues; the
    ground-state Chern number is computed once and repeated per row. The
    Uhlmann windings of every row are certified as in `uhlmann_windings`, from
    PATH_POINTS_START points, in one pass per direction across all
    temperatures: each certificate pass makes one transport of the loops of
    every row still open, and the rows that must double do so together. The
    scan diagonalizes each loop point once, on the finest path any row
    needed; each row records the path points it was certified at, and a row
    that cannot be certified says why. The EGP windings of every row are taken
    per direction in chunks of temperatures, one `_plane_traces` call each, by
    `egp._chain_windings`. The EGP profiles may need a finer transverse grid
    than the Uhlmann ones at the hot end of a sweep (near-pi kinks develop
    toward maximal mixing), hence the separate `egp_transverse` resolution.
    """
    if egp_transverse is None:
        egp_transverse = max(grid.nx, grid.ny)
    c_ground = ground_state_chern(model, mu, grid)
    temperatures = np.asarray(temperatures, dtype=float)
    betas = 1.0 / temperatures
    # h(k) spectra shared by every temperature
    uhlmann = _uhlmann_windings(_grid_loops(model, grid), betas, mu)
    chains = tuple(_LineSpectra(model, d, momentum_line(egp_transverse)) for d in "xy")
    reports = []
    for t, beta, windings, egp in zip(temperatures, betas, uhlmann,
                                      _chain_windings(chains, betas, mu, n_cells)):
        errors = [f"{name}: {result}" for name, result in (("uhlmann", windings), ("egp", egp))
                  if isinstance(result, MixedTopoError)]
        cx_u, cy_u, points = (None,) * 3 if isinstance(windings, MixedTopoError) else windings
        cx_e, cy_e = (None,) * 2 if isinstance(egp, MixedTopoError) else egp
        reports.append(InvariantReport(
            temperature=float(t), beta=float(beta),
            cx_uhlmann=cx_u, cy_uhlmann=cy_u, cx_egp=cx_e, cy_egp=cy_e,
            c_ground=c_ground, status="; ".join(errors) if errors else "ok",
            uhlmann_path_points=points))
    return reports
