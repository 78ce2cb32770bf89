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
PINNED_SINE_MAX = 1e-6


def principal_branch(x):
    """Map angles to (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    return -((-x + np.pi) % (2 * np.pi) - np.pi)


@dataclass
class PhaseProfile:
    """Geometric-phase samples over a uniformly spaced closed parameter loop."""

    parameters: np.ndarray
    phases: np.ndarray
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
        return principal_branch(np.diff(np.append(self.phases, self.phases[0])))

    def max_jump(self) -> float:
        return float(np.abs(self.jumps()).max())

    def under_resolved(self) -> bool:
        return self.max_jump() >= np.pi - JUMP_MARGIN


def _first_false(mask: np.ndarray) -> list:
    """The grid index of the first False entry of `mask`."""
    return [int(i) for i in np.argwhere(~mask)[0]]


def _frames_on_grid(states: np.ndarray, ndim_grid: int) -> np.ndarray:
    """(*grid, p, nb) frames from states on a rank-`ndim_grid` grid; one band gets nb = 1.

    A state with a non-finite entry raises PhaseUndefinedError naming its grid
    index, before any link is taken.
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
    """Link variable per grid point; checks conditioning.

    One band (nb = 1): the overlap <u_a|u_b>, a single contraction over p.
    A multiband frame: det of the overlap matrix U_a^dag U_b.
    """
    if frames_a.shape[-1] == 1:
        links = np.einsum("...p,...p->...", frames_a[..., 0].conj(), frames_b[..., 0])
    else:
        links = np.linalg.det(np.einsum("...pi,...pj->...ij", frames_a.conj(), frames_b))
    worst = np.abs(links).min()
    if worst < OVERLAP_MIN_MODULUS:
        raise UnderResolvedError(
            f"overlap determinant modulus {worst:.3e} < {OVERLAP_MIN_MODULUS:.0e}: "
            "loop ill-conditioned (grid too coarse or gap closing)")
    return links


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


def berry_curvature_plaquette(state_grid: np.ndarray) -> np.ndarray:
    """Field strength per plaquette, an (nx, ny) array, from states on a full periodic grid.

    F(k) = Im ln [<u(k)|u(k+ex)><u(k+ex)|u(k+ex+ey)><u(k+ex+ey)|u(k+ey)><u(k+ey)|u(k)>]
    on the principal branch. A one-band link is the overlap itself; the links
    of a multiband (p, nb) frame are the determinants of the nb x nb overlaps.
    """
    frames = _frames_on_grid(state_grid, 2)
    ux = _link_determinants(frames, np.roll(frames, -1, axis=0))
    uy = _link_determinants(frames, np.roll(frames, -1, axis=1))
    loop = (ux * np.roll(uy, -1, axis=0) *
            np.roll(ux, -1, axis=1).conj() * uy.conj())
    return np.angle(loop)


def chern_number(curvature: np.ndarray) -> int:
    """Round the sum / 2pi of (nx, ny) plaquette phases to an integer; large residue means trouble.

    A non-finite plaquette phase raises PhaseUndefinedError naming its grid index.
    """
    curvature = np.asarray(curvature, dtype=float)
    if curvature.ndim != 2:
        raise ValueError("curvature values must be a 2D array")
    finite = np.isfinite(curvature)
    if not finite.all():
        raise PhaseUndefinedError(f"plaquette phase at grid index {_first_false(finite)} is "
                                  "not finite: Chern number undefined")
    total = float(curvature.sum()) / (2 * np.pi)
    rounded = int(np.rint(total))
    residue = abs(total - rounded)
    if residue > CHERN_RESIDUE_ATOL:
        raise QuantizationError(
            f"plaquette sum / 2pi = {total:.9f} misses an integer by {residue:.3e} "
            "(gap closing or under-resolved grid)")
    return rounded


def _pinned_error(parameters, phases, where: str, at: str) -> Optional[UnderResolvedError]:
    """UnderResolvedError for phases pinned to {0, pi} (max |sin phi| < PINNED_SINE_MAX), which
    step by pi on every grid, so that no grid defines their winding; None otherwise."""
    sine = np.abs(np.sin(phases)).max()
    if not sine < PINNED_SINE_MAX:
        return None
    steps = np.abs(PhaseProfile(parameters, phases).jumps())
    worst = steps.argmax()
    return UnderResolvedError(
        f"{where}phase pinned to 0 or pi (max |sin phi| = {sine:.3e}), stepping by "
        f"{steps[worst]:.3f} rad at {at}{parameters[worst]:.6f}: winding undefined")


def winding_of_phase_profile(profile: PhaseProfile) -> int:
    """Integer winding (1/2pi) sum of principal-value steps around the loop.

    A non-finite phase raises PhaseUndefinedError naming its parameter, a step of
    pi - JUMP_MARGIN or more UnderResolvedError (which says so if the profile is pinned).
    """
    finite = np.isfinite(profile.phases)
    if not finite.all():
        raise PhaseUndefinedError(f"phase at parameter {profile.parameters[np.argmin(finite)]:.6f} "
                                  "is not finite: winding undefined")
    if profile.under_resolved():
        pinned = _pinned_error(profile.parameters, profile.phases, "", "parameter ")
        raise pinned or UnderResolvedError(
            f"max phase step {profile.max_jump():.3f} rad >= pi - {JUMP_MARGIN}: "
            "profile under-resolved; refine the parameter grid")
    total = profile.jumps().sum() / (2 * np.pi)
    rounded = int(np.rint(total))
    if abs(total - rounded) > CHERN_RESIDUE_ATOL:
        raise QuantizationError(f"winding sum {total:.9f} is not an integer")
    return rounded


def chern_from_zak_windings(zak_x_profile: PhaseProfile,
                            zak_y_profile: PhaseProfile) -> tuple[int, int]:
    """Chern numbers from the windings of the two Wilson-loop Zak profiles.

    The Wilson value is minus the connection integral, hence
    C_x = -winding(phi_x over ky) and C_y = +winding(phi_y over kx); the two
    must agree for any gapped pure state.
    """
    return -winding_of_phase_profile(zak_x_profile), winding_of_phase_profile(zak_y_profile)
