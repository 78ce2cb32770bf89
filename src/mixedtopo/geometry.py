"""Gauge-invariant discrete differential geometry on the Brillouin zone.

Wilson-loop phases, plaquette field strengths and integer windings. The
Wilson loop of a band u returns Im ln prod <u_i|u_{i+1}>, which is the
*negative* of the connection integral oint i<u|du>; winding-to-Chern
conversions below compensate for that so all reported integers follow the
single convention in which the lower band of the built-in asymmetric
two-band model carries Chern number +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PhaseUndefinedError, QuantizationError, UnderResolvedError

OVERLAP_MIN_MODULUS = 1e-8
JUMP_MARGIN = 0.1
CHERN_RESIDUE_ATOL = 1e-6


def principal_branch(x):
    """Map angles to (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    out = -((-x + np.pi) % (2 * np.pi) - np.pi)
    return out


@dataclass
class PhaseProfile:
    """Geometric-phase samples over a uniformly spaced closed parameter loop."""

    parameters: np.ndarray
    phases: np.ndarray
    label: str = ""
    direction: str = ""
    temperature: Optional[float] = None
    log_moduli: Optional[np.ndarray] = None  # diagnostic side channel, e.g. EGP log|z|

    def __post_init__(self):
        self.parameters = np.asarray(self.parameters, dtype=float)
        self.phases = principal_branch(self.phases)
        if self.parameters.shape != self.phases.shape or self.parameters.ndim != 1:
            raise ValueError("parameters and phases must be matching 1D arrays")
        if len(self.phases) < 2:
            raise ValueError("need at least 2 samples")

    def jumps(self) -> np.ndarray:
        """Principal-value increments around the closed loop (wraps last to first)."""
        diffs = np.diff(np.append(self.phases, self.phases[0]))
        return principal_branch(diffs)

    def max_jump(self) -> float:
        return float(np.abs(self.jumps()).max())

    def under_resolved(self) -> bool:
        return self.max_jump() >= np.pi - JUMP_MARGIN


@dataclass
class CurvatureField:
    """Per-plaquette field-strength phases on an nx x ny plaquette grid."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("curvature values must be a 2D array")

    def total(self) -> float:
        return float(self.values.sum())


def _first_false(mask: np.ndarray) -> list:
    """The grid index of the first False entry of `mask`."""
    return [int(i) for i in np.argwhere(~mask)[0]]


def _frames_on_grid(states: np.ndarray, ndim_grid: int) -> np.ndarray:
    """(*grid, p, nb) frames from states on a rank-`ndim_grid` grid; one band gets nb = 1.

    A state with a non-finite entry raises PhaseUndefinedError naming its grid
    index, before any overlap determinant is taken.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim == ndim_grid + 1:
        frames = states[..., None]
    elif states.ndim == ndim_grid + 2:
        frames = states
    else:
        raise ValueError(f"expected grid states of rank {ndim_grid + 1} or {ndim_grid + 2}, "
                         f"got rank {states.ndim}")
    finite = np.isfinite(frames).all(axis=(-2, -1))
    if not finite.all():
        raise PhaseUndefinedError(f"state at grid index {_first_false(finite)} is not finite: "
                                  "geometric phase undefined")
    return frames


def _link_determinants(frames_a: np.ndarray, frames_b: np.ndarray) -> np.ndarray:
    """det of the overlap matrix U_a^dag U_b per grid point; checks conditioning."""
    overlap = np.einsum("...pi,...pj->...ij", frames_a.conj(), frames_b)
    dets = np.linalg.det(overlap)
    worst = np.abs(dets).min()
    if worst < OVERLAP_MIN_MODULUS:
        raise UnderResolvedError(
            f"overlap determinant modulus {worst:.3e} < {OVERLAP_MIN_MODULUS:.0e}: "
            "loop ill-conditioned (grid too coarse or gap closing)")
    return dets


def zak_phase_wilson(states: np.ndarray) -> float:
    """Wilson-loop phase Im ln prod_i det<u_i|u_{i+1}> around a closed k-line.

    `states` is (M, p) for a single band or (M, p, nb) for a filled frame;
    the loop closes periodically (u_{M+1} = u_1), so the periodic-gauge
    closure factor is included. Gauge invariant; result in (-pi, pi].
    """
    frames = _frames_on_grid(states, 1)
    if frames.shape[0] < 2:
        raise ValueError("need at least 2 states around the loop")
    dets = _link_determinants(frames, np.roll(frames, -1, axis=0))
    return float(principal_branch(np.angle(dets).sum()))


def berry_curvature_plaquette(state_grid: np.ndarray) -> CurvatureField:
    """Field strength per plaquette from states on a full periodic grid.

    F(k) = Im ln [<u(k)|u(k+ex)><u(k+ex)|u(k+ex+ey)><u(k+ex+ey)|u(k+ey)><u(k+ey)|u(k)>]
    on the principal branch, with overlap determinants for multiband frames.
    """
    frames = _frames_on_grid(state_grid, 2)
    ux = _link_determinants(frames, np.roll(frames, -1, axis=0))
    uy = _link_determinants(frames, np.roll(frames, -1, axis=1))
    loop = (ux * np.roll(uy, -1, axis=0) *
            np.roll(ux, -1, axis=1).conj() * uy.conj())
    return CurvatureField(values=np.angle(loop))


def chern_number(curvature: CurvatureField) -> int:
    """Round the plaquette sum / 2pi to an integer; large residue means trouble.

    A non-finite plaquette phase raises PhaseUndefinedError naming its grid index.
    """
    finite = np.isfinite(curvature.values)
    if not finite.all():
        raise PhaseUndefinedError(f"plaquette phase at grid index {_first_false(finite)} is "
                                  "not finite: Chern number undefined")
    total = curvature.total() / (2 * np.pi)
    rounded = int(np.rint(total))
    residue = abs(total - rounded)
    if residue > CHERN_RESIDUE_ATOL:
        raise QuantizationError(
            f"plaquette sum / 2pi = {total:.9f} misses an integer by {residue:.3e} "
            "(gap closing or under-resolved grid)")
    return rounded


def winding_of_phase_profile(profile: PhaseProfile) -> int:
    """Integer winding (1/2pi) sum of principal-value steps around the loop.

    A non-finite phase raises PhaseUndefinedError naming its parameter.
    """
    finite = np.isfinite(profile.phases)
    if not finite.all():
        raise PhaseUndefinedError(f"phase at parameter {profile.parameters[np.argmin(finite)]:.6f} "
                                  "is not finite: winding undefined")
    if profile.under_resolved():
        raise UnderResolvedError(
            f"max phase step {profile.max_jump():.3f} rad >= pi - {JUMP_MARGIN}: "
            "profile under-resolved; refine the parameter grid")
    total = profile.jumps().sum() / (2 * np.pi)
    rounded = int(np.rint(total))
    if abs(total - rounded) > 1e-6:
        raise QuantizationError(f"winding sum {total:.9f} is not an integer")
    return rounded


def chern_from_zak_windings(zak_x_profile: PhaseProfile,
                            zak_y_profile: PhaseProfile) -> tuple[int, int]:
    """Chern numbers from the windings of the two Wilson-loop Zak profiles.

    The Wilson value is minus the connection integral, hence
    C_x = -winding(phi_x over ky) and C_y = +winding(phi_y over kx); the two
    must agree for any gapped pure state.
    """
    cx = -winding_of_phase_profile(zak_x_profile)
    cy = winding_of_phase_profile(zak_y_profile)
    return cx, cy
