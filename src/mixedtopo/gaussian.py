"""Gaussian-state data: g(k), the fictitious Hamiltonian, and its chain samples.

A number-conserving Gaussian state is fixed by a p x p Hermitian matrix g(k);
its covariance matrix of single-particle correlations

    hfict[mu, nu](k) = <c^dag_mu(k) c_nu(k)>

is the spectral Fermi function of g(k) read in transposed index order. That
transpose is fixed here once and honored everywhere downstream; thermal
invariants do not feel it, user-supplied non-equilibrium grids do.

`hfict_lines` samples hfict along the chains of tabulated specs and of
`egp.egp_component`, whose EGP `egp.chain_traces` takes in momentum space; no
real-space chain correlation matrix is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GapError
from .model import (
    BlochModel,
    MomentumGrid,
    _check_hermitian,
    _eigh,
    fermi_weights,
    grid_lookup,
    line_momenta,
    momentum_line,
)

OCCUPATION_ATOL = 1e-10
HALF_MARGIN = 1e-3


@dataclass(frozen=True)
class FictitiousHamiltonianGrid:
    """p x p Hermitian matrices with spectrum in [0, 1] on a momentum grid."""

    grid: MomentumGrid
    values: np.ndarray  # (nx, ny, p, p)
    _half_margin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        p = values.shape[-1]
        if values.shape != (self.grid.nx, self.grid.ny, p, p):
            raise ValueError(f"values shape {values.shape} does not match grid "
                             f"({self.grid.nx}, {self.grid.ny}, p, p)")
        _check_hermitian(values, what="fictitious Hamiltonian grid")
        occ, _ = _eigh(values)
        if occ.min() < -OCCUPATION_ATOL or occ.max() > 1 + OCCUPATION_ATOL:
            raise ValueError(
                f"occupation spectrum outside [0, 1]: [{occ.min():.3e}, {occ.max():.3e}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_half_margin", float(np.abs(occ - 0.5).min()))

    @property
    def p(self) -> int:
        return self.values.shape[-1]

    def half_margin(self) -> float:
        """Distance of the occupation spectrum from 1/2 (generalized gap).

        Taken from the spectrum checked at construction; the grid is immutable.
        """
        return self._half_margin

    def require_generalized_gap(self):
        got = self.half_margin()
        if got <= HALF_MARGIN:
            raise GapError(
                f"occupation spectrum approaches 1/2 within {got:.3e} <= margin {HALF_MARGIN:.0e}; "
                "generalized gap condition violated")


def save_matrix_grid(path, grid: MomentumGrid, values: np.ndarray):
    """Text matrix-grid file: header 'p nx ny', then row-major complex entries.

    Outer loop ix (kx = -pi + 2pi ix/nx), inner iy; per grid point the p matrix
    rows follow, each as p (re, im) decimal pairs. '#' starts a comment.
    """
    v = np.asarray(values, dtype=complex)
    p = v.shape[-1]
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{p} {grid.nx} {grid.ny}\n")
        for ix in range(grid.nx):
            for iy in range(grid.ny):
                for r in range(p):
                    f.write(" ".join(f"{v[ix, iy, r, c].real:.17g} {v[ix, iy, r, c].imag:.17g}"
                                     for c in range(p)) + "\n")


def load_matrix_grid(path) -> tuple[MomentumGrid, np.ndarray]:
    """Parse a matrix-grid file; see save_matrix_grid for the layout."""
    with open(path, encoding="utf-8") as f:
        tokens = re.sub("#[^\n]*", "", f.read()).split()
    if len(tokens) < 3:
        raise ValueError(f"{path}: missing 'p nx ny' header")
    p, nx, ny = (int(t) for t in tokens[:3])
    if p < 1 or nx < 2 or ny < 2:
        raise ValueError(f"{path}: header 'p nx ny' = '{p} {nx} {ny}' needs p >= 1, nx >= 2 "
                         "and ny >= 2")
    data = np.array(tokens[3:], dtype=float)  # float() of each token, in C
    expected = nx * ny * p * p * 2
    if data.size != expected:
        raise ValueError(f"{path}: expected {expected} numbers after header, got {data.size}")
    values = data.reshape(nx, ny, p, p, 2)
    finite = np.isfinite(values).all(axis=(2, 3, 4))
    if not finite.all():
        ix, iy = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite entry at grid point (ix, iy) = ({ix}, {iy})")
    return MomentumGrid(nx, ny), values[..., 0] + 1j * values[..., 1]


@dataclass(frozen=True)
class GaussianStateSpec:
    """Thermal state (beta, mu, model) or a directly tabulated hfict grid.

    beta = math.inf marks the pure-state (projector) limit.
    """

    beta: Optional[float] = None
    mu: float = 0.0
    model: Optional[BlochModel] = None
    hfict_grid: Optional[FictitiousHamiltonianGrid] = None

    def __post_init__(self):
        if (self.model is None) == (self.hfict_grid is None):
            raise ValueError("specify exactly one of model (thermal) or hfict_grid (tabulated)")
        if self.model is not None:
            if self.beta is None or not self.beta > 0:
                raise ValueError(f"thermal spec needs beta > 0 (or inf), got {self.beta}")

    @classmethod
    def thermal(cls, beta: float, mu: float, model: BlochModel) -> "GaussianStateSpec":
        return cls(beta=beta, mu=mu, model=model)

    @classmethod
    def from_grid(cls, hfict_grid: FictitiousHamiltonianGrid) -> "GaussianStateSpec":
        return cls(hfict_grid=hfict_grid)

    @property
    def is_thermal(self) -> bool:
        return self.model is not None

    @property
    def p(self) -> int:
        return self.model.p if self.is_thermal else self.hfict_grid.p


def g_matrix(spec: GaussianStateSpec, kx, ky) -> np.ndarray:
    """g(k) = beta (h(k) - mu) at broadcast momenta; finite temperature only."""
    if not spec.is_thermal:
        raise ValueError("g_matrix requires a thermal spec")
    if math.isinf(spec.beta):
        raise ValueError("beta = inf has no finite g; use the projector path "
                         "of fictitious_hamiltonian")
    return spec.beta * (spec.model.matrix(kx, ky) - spec.mu * np.eye(spec.p))


def fictitious_hamiltonian(spec: GaussianStateSpec, kx, ky) -> np.ndarray:
    """hfict(k) (..., p, p) at broadcast momenta, in the covariance index order.

    Thermal specs take the Fermi function of g(k) from one eigh of the Bloch
    matrices: hfict = [V f V^dag]^T. For beta = inf this is the transpose of
    the projector onto the bands of h(k) below mu; an eigenvalue of h within
    1e-9 of mu raises GapError. Tabulated specs look the momenta up in the
    stored grid and raise ValueError for the first one off it.
    """
    if not spec.is_thermal:
        return grid_lookup(spec.hfict_grid.grid, spec.hfict_grid.values, kx, ky)
    return _fermi_covariance(*_eigh(spec.model.matrix(kx, ky)), spec.beta, spec.mu)


def _fermi_covariance(energies, vectors, beta, mu: float) -> np.ndarray:
    """Thermal hfict [V f V^dag]^T from a spectrum of h; only f depends on beta, which may be
    a 1-d array along a new leading axis, as in `fermi_weights`. The transpose is in the
    subscripts, so the result is contiguous with no copy."""
    return np.einsum("...ij,...j,...kj->...ki", vectors, fermi_weights(energies, beta, mu),
                     vectors.conj())


def fictitious_grid(spec: GaussianStateSpec, grid: MomentumGrid) -> FictitiousHamiltonianGrid:
    """Tabulate hfict over a full momentum grid."""
    if not spec.is_thermal:
        if (spec.hfict_grid.grid.nx, spec.hfict_grid.grid.ny) != (grid.nx, grid.ny):
            raise ValueError("requested grid does not match the tabulated one")
        return spec.hfict_grid
    return FictitiousHamiltonianGrid(grid, fictitious_hamiltonian(spec, *grid.mesh()))


def hfict_lines(spec: GaussianStateSpec, direction: str, transverse_ks,
                n_cells: int) -> np.ndarray:
    """hfict samples (len(transverse_ks), n_cells, p, p) along parallel chains.

    `fictitious_hamiltonian` on the (transverse, chain) mesh of n_cells uniform
    chain samples: one eigh of the mesh for thermal specs. Tabulated specs fix
    n_cells to the stored grid's length along `direction`, need every
    transverse momentum on the grid, and must keep their occupation spectrum
    away from 1/2 (no thermal gap information exists for them, so the
    generalized gap is checked directly).
    """
    transverse_ks = np.asarray(transverse_ks, dtype=float)
    kxs, kys = line_momenta(direction, momentum_line(n_cells)[None, :], transverse_ks[:, None])
    if not spec.is_thermal:
        grid = spec.hfict_grid.grid
        fixed = grid.nx if direction == "x" else grid.ny
        if n_cells != fixed:
            raise ValueError(f"tabulated spec fixes n_cells = {fixed} for {direction} chains")
        spec.hfict_grid.require_generalized_gap()
    return fictitious_hamiltonian(spec, kxs, kys)


def filled_band_count(occupations: np.ndarray) -> int:
    """Number of occupation eigenvalues above 1/2; rejects spectra near 1/2."""
    occupations = np.asarray(occupations)
    if np.abs(occupations - 0.5).min() <= HALF_MARGIN:
        raise GapError(f"occupation within {HALF_MARGIN:.0e} of 1/2: filled frame ill-defined")
    return int((occupations > 0.5).sum())
