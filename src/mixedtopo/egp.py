"""Ensemble geometric phase of Gaussian states via the determinant trace formula.

The trace of rho times the collective momentum-shift unitary reduces, for any
Gaussian state with correlation matrix M, to det[1 + M(D - 1)] with
D = diag(e^{i theta}); `gaussian_trace_diagonal_unitary` evaluates that
dense form for any correlation matrix.

A chain cut out of a translation-invariant state is diagonal in momentum:
the Fourier transform over cells turns M into the block diagonal n of the
covariance samples hfict(k_m) and D into the cyclic block shift
S: k_m -> k_{m+1}, so the trace is det[1 - n + n S]. `chain_traces` takes
that determinant by block cyclic reduction, about log2 N batched Householder
QRs in O(N p^3) time and O(N p^2) memory per chain, batched over any leading
axes; every chain EGP in this module goes through it. Determinants are kept
in log space (phase + log-magnitude) so long chains cannot under- or overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import AmplitudeZeroError, WindingMismatchError
from .gaussian import GaussianStateSpec, _fermi_lines, hfict_line, hfict_lines
from .geometry import PhaseProfile, principal_branch, winding_of_phase_profile
from .model import _LineSpectra, momentum_line

PIVOT_FLOOR = 10.0  # pivot floor of `chain_traces`, in units of N p eps times the largest block


class GaussianTrace(NamedTuple):
    """det[1 + M(D-1)] kept as phase + log magnitude to survive huge chains."""

    phase: float
    log_magnitude: float

    @property
    def magnitude(self) -> float:
        return math.exp(self.log_magnitude) if math.isfinite(self.log_magnitude) else 0.0

    @property
    def value(self) -> complex:
        return self.magnitude * complex(math.cos(self.phase), math.sin(self.phase))


def momentum_shift_angles(n_cells: int, p: int) -> np.ndarray:
    """theta_(j, lam) = 2 pi j / N in j-major composite order.

    The shift couples to the unit-cell index only: all lam within a cell
    share one angle (intracell positions are disregarded).
    """
    return np.repeat(2 * np.pi * np.arange(n_cells) / n_cells, p)


def gaussian_trace_diagonal_unitary(correlation, thetas: np.ndarray) -> GaussianTrace:
    """Tr[rho exp(i sum_a theta_a n_a)] = det[1 + M(D - 1)] in log space.

    `correlation` is any L x L array of <c^dag_a c_b>, translation invariant
    or not; the determinant is transpose invariant, so the covariance index
    convention cannot change the result. A vanishing determinant is
    legitimate and simply reported with log magnitude -inf.
    """
    matrix = np.asarray(correlation)
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (matrix.shape[0],):
        raise ValueError(f"need {matrix.shape[0]} angles, got {thetas.shape}")
    a = np.eye(matrix.shape[0], dtype=complex) + matrix * (np.exp(1j * thetas) - 1.0)[None, :]
    sign, logabs = np.linalg.slogdet(a)
    if sign == 0:
        return GaussianTrace(phase=0.0, log_magnitude=-math.inf)
    return GaussianTrace(phase=float(np.angle(sign)), log_magnitude=float(logabs))


def chain_traces(lines) -> tuple[np.ndarray, np.ndarray]:
    """(phase, log magnitude) of det[1 - n + n S] for stacked chains.

    `lines` holds hfict samples (..., N, p, p) on the chain momenta
    k_m = -pi + 2 pi m / N; the result equals `gaussian_trace_diagonal_unitary`
    of the chain's real-space correlation matrix with `momentum_shift_angles`.
    The N p x N p matrix is block-cyclic bidiagonal, A_i = 1 - n_i at (i, i)
    and B_i = n_i at (i, i + 1 mod N); it is never formed. Each level of block
    cyclic reduction pairs rows (j - 1, j) for odd j, takes one batched
    Householder QR of the columns [B_{j-1}; A_j] and keeps the bottom p rows of
    Q^dag times the pair, (Q^dag)[p:, :p] A_{j-1} and (Q^dag)[p:, p:] B_j: the
    system of half the size. Each pair adds det Q (-1)^p prod r_ii to the
    determinant; an odd count carries its last row on unpaired. A 2p x 2p QR
    closes at two blocks. The row operations are unitary, so the reduction is
    backward stable at any temperature, projector blocks included. A pivot
    |r_ii| bounds the smallest singular value from above: one below
    PIVOT_FLOOR N p eps times the largest block norm marks a determinant that
    rounding cannot tell from 0, reported as log magnitude -inf and phase 0.
    """
    lines = np.asarray(lines, dtype=complex)
    n_cells, p, batch = lines.shape[-3], lines.shape[-1], lines.shape[:-3]
    if n_cells < 2:
        raise ValueError(f"need n_cells >= 2, got {n_cells}")
    diag, upper = np.moveaxis(np.eye(p) - lines, -3, 0), np.moveaxis(lines, -3, 0)  # cells first
    floor = PIVOT_FLOOR * n_cells * p * np.finfo(float).eps * np.linalg.norm(
        np.stack([diag, upper]), axis=(-2, -1)).max(axis=(0, 1))
    log_magnitude, smallest = np.zeros(batch), np.full(batch, np.inf)
    unit = np.full(batch, (-1.0) ** (p * n_cells), dtype=complex)  # (-1)^p per pair, N - 2 pairs

    def factor(columns, mode="reduced"):
        """Q of a QR stacked (pairs, *batch, ...); det Q and the pivots r_ii go into the result."""
        q, r = np.linalg.qr(columns, mode=mode)
        pivots = np.diagonal(r, axis1=-2, axis2=-1)
        moduli = np.abs(pivots)
        np.minimum(smallest, moduli.min(axis=(0, -1)), out=smallest)
        log_magnitude[...] += np.log(moduli).sum(axis=(0, -1))
        unit[...] *= (np.linalg.det(q) * (pivots / moduli).prod(axis=-1)).prod(axis=0)
        return q

    # a zero pivot makes log|r| = -inf and r / |r| = nan; the floor below masks both
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(diag) > 2:
            tail = len(diag) - len(diag) % 2  # an odd count's unpaired last row
            q = factor(np.concatenate([upper[:-1:2], diag[1::2]], axis=-2), "complete")
            rest = q[..., p:].conj().swapaxes(-1, -2)  # bottom p rows of Q^dag
            diag = np.concatenate([rest[..., :p] @ diag[:-1:2], diag[tail:]])
            upper = np.concatenate([rest[..., p:] @ upper[1::2], upper[tail:]])
        factor(np.block([[diag[0], upper[0]], [upper[1], diag[1]]])[None])
    exact_zero = smallest < floor
    return np.where(exact_zero, 0.0, np.angle(unit)), np.where(exact_zero, -np.inf, log_magnitude)


@dataclass(frozen=True)
class EgpResult:
    """Phase and amplitude of Tr[rho e^{(2 pi i / N) X}] for one chain."""

    phase: float
    log_magnitude: float
    n_cells: int
    direction: str
    transverse_k: float
    beta: Optional[float]
    mu: Optional[float]

    @property
    def magnitude(self) -> float:
        return math.exp(self.log_magnitude) if math.isfinite(self.log_magnitude) else 0.0


def _require_amplitude(log_magnitudes, transverse_ks, context: str = ""):
    """AmplitudeZeroError at the first chain whose determinant vanished."""
    bad = ~np.isfinite(np.atleast_1d(log_magnitudes))
    if bad.any():
        tk = np.broadcast_to(transverse_ks, bad.shape)[np.argmax(bad)]
        raise AmplitudeZeroError(f"EGP undefined (zero amplitude) at transverse_k={tk:.6f}"
                                 f"{context}: generalized gap condition violated")


def _cells_for(spec: GaussianStateSpec, direction: str, n_cells: Optional[int]) -> int:
    """Chain length: as requested for thermal specs, grid-fixed for tabulated ones."""
    if spec.is_thermal:
        if n_cells is None:
            raise ValueError("thermal specs need an explicit n_cells")
        return n_cells
    fixed = spec.hfict_grid.grid.nx if direction == "x" else spec.hfict_grid.grid.ny
    if n_cells is not None and n_cells != fixed:
        raise ValueError(f"tabulated spec fixes n_cells = {fixed} for {direction} chains")
    return fixed


def _transverse_for(spec: GaussianStateSpec, direction: str, count: Optional[int]) -> int:
    """Transverse samples: as requested, or by default the stored grid's for tabulated specs."""
    if count is not None:
        return count
    if spec.is_thermal:
        raise ValueError("thermal specs need an explicit transverse_count")
    return spec.hfict_grid.grid.ny if direction == "x" else spec.hfict_grid.grid.nx


def egp_component(spec: GaussianStateSpec, direction: str, transverse_k: float,
                  n_cells: int) -> EgpResult:
    """EGP of one chain: phi = Im ln Tr[rho e^{(2 pi i / N) X}] at fixed transverse k."""
    n_cells = _cells_for(spec, direction, n_cells)
    if n_cells < 2:
        raise ValueError(f"need n_cells >= 2, got {n_cells}")
    phase, log_magnitude = chain_traces(hfict_line(spec, direction, transverse_k, n_cells))
    _require_amplitude(log_magnitude, transverse_k)
    return EgpResult(phase=float(phase), log_magnitude=float(log_magnitude),
                     n_cells=n_cells, direction=direction, transverse_k=float(transverse_k),
                     beta=spec.beta, mu=spec.mu if spec.is_thermal else None)


def egp_profile(spec: GaussianStateSpec, direction: str, n_cells: Optional[int],
                transverse_count: Optional[int]) -> PhaseProfile:
    """Sample the EGP over the transverse Brillouin zone.

    All chains of the profile go through one `chain_traces` call. Tabulated
    specs fix n_cells and default transverse_count to their stored grid.
    Returns a PhaseProfile whose `log_moduli` carry log|z| per sample (the
    gauge-reduction diagnostic), finite however small |z| gets.
    """
    n_cells = _cells_for(spec, direction, n_cells)
    transverse = momentum_line(_transverse_for(spec, direction, transverse_count))
    return _profile(spec, direction, transverse, hfict_lines(spec, direction, transverse, n_cells))


def _profile(spec: GaussianStateSpec, direction: str, transverse: np.ndarray,
             lines: np.ndarray) -> PhaseProfile:
    phases, log_magnitudes = chain_traces(lines)
    _require_amplitude(log_magnitudes, transverse)
    temperature = 1.0 / spec.beta if spec.is_thermal else None  # 0.0 at beta = inf
    return PhaseProfile(parameters=transverse, phases=phases, log_moduli=log_magnitudes,
                        label="egp", direction=direction, temperature=temperature)


def egp_windings(spec: GaussianStateSpec, n_cells: Optional[int],
                 transverse_count: Optional[int]) -> tuple[int, int]:
    """(C_x, C_y) from the EGP profile windings; equality is asserted.

    C_x = winding of phi_x over ky, C_y = -(winding of phi_y over kx). For a
    valid Gaussian state both integers must agree; disagreement signals
    under-resolution or a generalized-gap violation and raises.
    """
    return _egp_windings(lambda direction: egp_profile(spec, direction, n_cells, transverse_count))


def _egp_windings(profile_of) -> tuple[int, int]:
    cx = winding_of_phase_profile(profile_of("x"))
    cy = -winding_of_phase_profile(profile_of("y"))
    if cx != cy:
        raise WindingMismatchError(
            f"EGP Chern inconsistency: C_x = {cx} != C_y = {cy}")
    return cx, cy


def _line_profile(spec: GaussianStateSpec, lines: _LineSpectra, n_cells: int) -> PhaseProfile:
    """egp_profile of a thermal spec on the chains of a line-spectrum cache."""
    return _profile(spec, lines.direction, lines.transverse,
                    _fermi_lines(lines, n_cells, spec.beta, spec.mu))


def gauge_reduction_deviation(spec: GaussianStateSpec, direction: str, transverse_k: float,
                              n_list: Sequence[int]) -> list[tuple[int, float]]:
    """|phi_EGP(N) - phi_EGP(beta=inf, N)| for strictly ascending chain lengths.

    The pure-state value at the same N is the polarization phase of the
    fictitious-Hamiltonian ground state, i.e. its Wilson-loop Zak phase up to
    the exact (-1)^(N-1) closure factor of the N-fermion momentum shift; using
    it as the reference makes the deviation measure gauge reduction alone.
    Both chains of each N come from one spectrum of h(k).
    """
    if not spec.is_thermal:
        raise ValueError("gauge reduction needs a thermal spec (beta = inf reference)")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    chains = _LineSpectra(spec.model, direction, np.array([float(transverse_k)]))
    out = []
    for n in n_list:
        lines = np.concatenate([_fermi_lines(chains, n, beta, spec.mu)
                                for beta in (spec.beta, math.inf)])
        (phi, phi_ref), log_magnitudes = chain_traces(lines)
        _require_amplitude(log_magnitudes, transverse_k, f", N={n}")
        out.append((int(n), float(abs(principal_branch(phi - phi_ref)))))
    return out


def gauge_reduction_exponent(deviations: Sequence[tuple[int, float]]) -> float:
    """Log-log slope of deviation vs N (reported estimate of the decay power)."""
    ns = np.array([n for n, _ in deviations], dtype=float)
    ds = np.array([d for _, d in deviations], dtype=float)
    if (ds <= 0).any():
        return -math.inf
    slope = np.polyfit(np.log(ns), np.log(ds), 1)[0]
    return float(slope)

