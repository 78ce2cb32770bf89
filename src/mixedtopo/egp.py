"""Ensemble geometric phase of Gaussian states via the determinant trace formula.

The trace of rho times the collective momentum-shift unitary reduces, for any
Gaussian state with correlation matrix M, to det[1 + M(D - 1)] with
D = diag(e^{i theta}); `tests/chain_oracle.py` evaluates that dense form as
the reference for this module. Fourier transformed over the cells of a chain,
M is the block diagonal n of the covariance samples hfict(k_m) and D the
cyclic block shift S: k_m -> k_{m+1}, so the trace is det[1 - n + n S]. Every
chain EGP goes through `_plane_traces`, which takes that determinant by block
cyclic reduction on entry planes (p, p, N, batch) in O(N p^3) time with no
LAPACK call per matrix. Thermal chains skip the matrices: `_thermal_traces`
writes hfict from line-spectrum caches straight into planes, for the scan,
the profiles and the gauge reduction alike. The public `chain_traces` takes
stacked hfict matrices as a strided view. Determinants
are kept in log space (phase + log-magnitude) so long chains cannot under- or
overflow.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import AmplitudeZeroError, MixedTopoError, WindingMismatchError
from .gaussian import GaussianStateSpec, hfict_lines
from .geometry import PhaseProfile, _xy_windings, principal_branch, winding_of_phase_profile
from .model import _LineSpectra, _projector_gap, fermi_weights, momentum_line

PIVOT_FLOOR = 10.0  # pivot floor of `chain_traces`, in units of N p eps times the largest block
CHAIN_CELL_BUDGET = 5120  # chain cells (N times chains) per kernel call of `_thermal_traces`


def _reflect(work: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Householder triangularization, in place, of the first `steps` columns of
    entry planes `work` (rows, cols, ...): (norms, phases), each (steps, ...).

    Column c below row c, a, is zeroed by H = 1 - 2 u u^dag / (u^dag u) with
    u = a - alpha e_0 and alpha = -e^{i arg a_0} ||a||, applied to rows c + 1
    onwards of all later columns at once, one whole-block multiply-add per
    row; row c of R is never read, so it is not written. Each applied
    reflector has det H = -1 and pivot r_cc = alpha, so it contributes
    |r_cc| = ||a|| and the unit det(H) r_cc / |r_cc| = e^{i arg a_0}. Where
    |a_0| is 0 or subnormal, any unit phase keeps H stable and
    e^{i arg a_0} = 1 is used. An exactly zero column gets no reflector
    (det 1) and reports norm 0 and phase 1, with no 0 / 0.
    """
    shape, tiny = (steps,) + work.shape[2:], np.finfo(float).tiny
    norms, phases = np.empty(shape), np.ones(shape, dtype=complex)
    for c in range(steps):
        u, norm, phase = work[c:, c], norms[c], phases[c]
        np.sqrt((np.square(u.real) + np.square(u.imag)).sum(axis=0), out=norm)
        modulus = np.abs(u[0])
        np.divide(u[0], modulus, out=phase, where=modulus >= tiny)  # 1 / subnormal overflows
        u[0] += phase * norm
        scale = norm * (norm + modulus)  # u^dag u / 2, zero only for a zero column
        np.divide(1.0, scale, out=scale, where=scale > 0)
        rest, dual = work[c:, c + 1:], np.conj(u) * scale
        weight = dual[0] * rest[0]
        for row in range(1, len(u)):
            weight += dual[row] * rest[row]
        for row in range(1, len(u)):
            rest[row] -= u[row] * weight
    return norms, phases


def chain_traces(lines) -> tuple[np.ndarray, np.ndarray]:
    """(phase, log magnitude) of det[1 - n + n S] for stacked chains.

    `lines` holds hfict samples (..., N, p, p) on the chain momenta
    k_m = -pi + 2 pi m / N; the result equals det[1 + M(D - 1)] of the chain's
    real-space correlation matrix M, the dense trace of `tests/chain_oracle.py`.
    The samples go to `_plane_traces` as a strided (p, p, N, batch) view of
    entry planes, with no copy; see there for the reduction.
    """
    lines = np.asarray(lines, dtype=complex)
    n_cells, p, batch = lines.shape[-3], lines.shape[-1], lines.shape[:-3]
    phases, log_magnitudes = _plane_traces(
        lines.reshape(math.prod(batch), n_cells, p, p).transpose(2, 3, 1, 0))
    return phases.reshape(batch), log_magnitudes.reshape(batch)


def _fresh(slot: str, shape: tuple) -> np.ndarray:
    """A new array for each request: the level buffers of a one-off chain stack."""
    return np.empty(shape, dtype=complex)


class _Buffers:
    """Complex scratch arrays by slot, kept across calls: each slot holds one flat
    buffer, grown when a larger shape is asked for, and hands out its head as a
    contiguous array whose old contents are void. The chunks of a scan reuse them
    instead of freeing and faulting in fresh memory for every call."""

    def __init__(self):
        self._flat = {}

    def __call__(self, slot: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        if slot not in self._flat or self._flat[slot].size < size:
            self._flat.pop(slot, None)  # the smaller buffer goes before the larger comes
            self._flat[slot] = np.empty(size, dtype=complex)
        return self._flat[slot][:size].reshape(shape)


def _plane_traces(upper: np.ndarray, buffers=_fresh) -> tuple[np.ndarray, np.ndarray]:
    """(phase, log magnitude), each of shape batch, of det[1 - n + n S] for the chains
    whose hfict samples n are the entry planes `upper` (p, p, N, *batch).

    The N p x N p matrix is block-cyclic bidiagonal, A_i = 1 - n_i at (i, i)
    and B_i = n_i at (i, i + 1 mod N); it is never formed. Each level of block
    cyclic reduction pairs rows (j - 1, j) for odd j and zeroes the column block
    [B_{j-1}; A_j] with p closed-form Householder reflectors (`_reflect`),
    applied to the payloads [A_{j-1}; 0] and [0; B_j]; their bottom p rows are
    the system of half the size. Each pair adds (-1)^p det Q prod r_ii to the
    determinant, with det Q exactly -1 per applied reflector; an odd count
    carries its last row on unpaired. 2p reflectors close the 2p x 2p system at
    two blocks. No LAPACK routine runs per matrix. The row operations are
    unitary, so the reduction is backward stable at any temperature, projector
    blocks included. A pivot |r_ii| bounds the smallest singular value from
    above: one below `_pivot_floor`, or an exactly zero column, marks a
    determinant that rounding cannot tell from 0, reported as -inf and phase 0.

    `upper` is only read. The A blocks and each level come from
    `buffers(slot, shape)`: the A blocks and the even levels from one slot, the
    odd levels from another, as each level reads only the one before it. A level
    is built uninitialized, with only the two zero blocks the reflectors read
    written as zeros.
    """
    p, n_cells, batch = upper.shape[0], upper.shape[2], upper.shape[3:]
    if n_cells < 2:
        raise ValueError(f"need n_cells >= 2, got {n_cells}")
    size = math.prod(batch)
    width = 2 if size == 1 else size  # paired with itself, a lone chain reduces as in any batch
    upper = np.broadcast_to(upper.reshape(p, p, n_cells, size), (p, p, n_cells, width))
    floor = _pivot_floor(upper)
    diag = np.negative(upper, out=buffers("even", upper.shape))
    for i in range(p):
        diag[i, i] += 1.0
    factors, slots = [], ("odd", "even")
    while diag.shape[2] > 2:
        pairs, odd = divmod(diag.shape[2], 2)
        # column blocks [B_{j-1} A_{j-1} 0; A_j 0 B_j], and the unpaired row in a last slot
        work = buffers(slots[len(factors) % 2], (2 * p, 3 * p, pairs + odd, width))
        work[:p, :p, :pairs], work[p:, :p, :pairs] = upper[:, :, :-1:2], diag[:, :, 1::2]
        work[:p, p:2 * p, :pairs], work[p:, 2 * p:, :pairs] = diag[:, :, :-1:2], upper[:, :, 1::2]
        work[p:, p:2 * p, :pairs] = work[:p, 2 * p:, :pairs] = 0.0
        if odd:
            work[p:, p:2 * p, pairs], work[p:, 2 * p:, pairs] = diag[:, :, -1], upper[:, :, -1]
        diag, upper = work[p:, p:2 * p], work[p:, 2 * p:]  # the previous level is dropped first
        factors.append(_reflect(work[:, :, :pairs], p))
    closing = buffers(slots[len(factors) % 2], (2 * p, 2 * p, 1, width))
    closing[:p, :p], closing[:p, p:] = diag[:, :, :1], upper[:, :, :1]
    closing[p:, :p], closing[p:, p:] = upper[:, :, 1:], diag[:, :, 1:]
    factors.append(_reflect(closing, 2 * p))
    exact_zero = np.min([norms.min(axis=(0, 1)) for norms, _ in factors], axis=0) < floor
    with np.errstate(divide="ignore"):  # log 0 = -inf at a zero column; masked below
        log_magnitude = np.sum([np.log(norms).sum(axis=(0, 1)) for norms, _ in factors], axis=0)
    unit = (-1.0) ** (p * n_cells) * np.prod(  # (-1)^p per pair, N - 2 pairs
        [phases.prod(axis=(0, 1)) for _, phases in factors], axis=0)
    return (np.where(exact_zero, 0.0, np.angle(unit))[:size].reshape(batch),
            np.where(exact_zero, -np.inf, log_magnitude)[:size].reshape(batch))


def _pivot_floor(upper: np.ndarray) -> np.ndarray:
    """PIVOT_FLOOR N p eps times the largest norm of the blocks 1 - n_i and n_i of each chain
    of the planes `upper` (p, p, N, chains), from n alone: ||1 - n||^2 = ||n||^2 + p - 2 Re tr n."""
    p, n_cells = upper.shape[0], upper.shape[2]
    squares = (np.square(upper.real) + np.square(upper.imag)).sum(axis=(0, 1))
    squares += np.maximum(p - 2 * np.trace(upper.real), 0.0)
    return PIVOT_FLOOR * n_cells * p * np.finfo(float).eps * np.sqrt(squares.max(axis=0))


def _thermal_traces(caches: Sequence[_LineSpectra], n_cells: int, betas: np.ndarray, mu: float,
                    buffers=_fresh) -> tuple[np.ndarray, np.ndarray]:
    """(phase, log magnitude), each (len(betas), lines), of the thermal n_cells-cell chains
    on every transverse line of the line-spectrum caches `caches`, lines in cache order.

    hfict[a, b] = sum_j V[b, j] f_j conj(V[a, j]) is [V f V^dag]^T, summed in the order
    of `gaussian.fictitious_hamiltonian`, so the planes hold its bits; the transpose is
    in the subscripts, not in a copy. Per chunk of max(1, CHAIN_CELL_BUDGET // (n_cells x
    lines)) temperatures, one einsum per cache writes its lines of one plane array
    (p, p, n_cells, temperatures, lines) from `buffers`, through a view whose axes follow
    its inputs' (temperature, transverse, cell) order (with the cells innermost it runs
    about 8 times faster on the gauge reduction's one line than in the planes' order),
    and one `_plane_traces` call reduces them, so the working set does not grow with
    the number of temperatures.
    """
    spectra = [lines(n_cells) for lines in caches]
    p, bounds = spectra[0][0].shape[0], np.cumsum([0] + [e.shape[1] for e, _ in spectra])
    per_call = max(1, CHAIN_CELL_BUDGET // (n_cells * bounds[-1]))
    phases, log_magnitudes = np.empty((2, len(betas), bounds[-1]))
    for start in range(0, len(betas), per_call):
        chunk = slice(start, start + per_call)
        planes = buffers("planes", (p, p, n_cells, len(betas[chunk]), bounds[-1]))
        for (energies, vectors), lo, hi in zip(spectra, bounds, bounds[1:]):
            np.einsum("bjtm,sjtm,ajtm->abstm", vectors, fermi_weights(energies, betas[chunk], mu),
                      vectors.conj(), out=planes[..., lo:hi].transpose(0, 1, 3, 4, 2))
        phases[chunk], log_magnitudes[chunk] = _plane_traces(planes, buffers)
    return phases, log_magnitudes


def _require_amplitude(log_magnitudes, transverse_ks, context: str = ""):
    """AmplitudeZeroError at the first chain whose determinant vanished."""
    bad = ~np.isfinite(np.atleast_1d(log_magnitudes))
    if bad.any():
        tk = np.broadcast_to(transverse_ks, bad.shape)[np.argmax(bad)]
        raise AmplitudeZeroError(f"EGP undefined (zero amplitude) at transverse_k={tk:.6f}"
                                 f"{context}: generalized gap condition violated")


def _or_stored(spec: GaussianStateSpec, value: Optional[int], name: str, axis: str) -> int:
    """`value` as requested, or by default the stored grid's length along `axis` for
    tabulated specs (whose chain length `hfict_lines` enforces)."""
    if value is not None:
        return value
    if spec.is_thermal:
        raise ValueError(f"thermal specs need an explicit {name}")
    return spec.hfict_grid.grid.nx if axis == "x" else spec.hfict_grid.grid.ny


def egp_component(spec: GaussianStateSpec, direction: str, transverse_k: float,
                  n_cells: int) -> tuple[float, float]:
    """EGP of one chain at fixed transverse k: (phase, log|z|) of z = Tr[rho e^{(2 pi i / N) X}]."""
    n_cells = _or_stored(spec, n_cells, "n_cells", direction)
    phase, log_magnitude = chain_traces(hfict_lines(spec, direction, [transverse_k], n_cells)[0])
    _require_amplitude(log_magnitude, transverse_k)
    return float(phase), float(log_magnitude)


def egp_profile(spec: GaussianStateSpec, direction: str, n_cells: Optional[int],
                transverse_count: Optional[int]) -> PhaseProfile:
    """Sample the EGP over the transverse Brillouin zone.

    All chains of the profile go through one `_plane_traces` call. Tabulated
    specs fix n_cells and default transverse_count to their stored grid.
    Returns a PhaseProfile whose `log_moduli` carry log|z| per sample (the
    gauge-reduction diagnostic), finite however small |z| gets.
    """
    n_cells = _or_stored(spec, n_cells, "n_cells", direction)
    count = _or_stored(spec, transverse_count, "transverse_count", "y" if direction == "x" else "x")
    transverse = momentum_line(count)
    if spec.is_thermal:
        return _line_profile(spec, _LineSpectra(spec.model, direction, transverse), n_cells)
    return _profile(transverse, *chain_traces(hfict_lines(spec, direction, transverse, n_cells)))


def _profile(transverse: np.ndarray, phases: np.ndarray,
             log_magnitudes: np.ndarray) -> PhaseProfile:
    _require_amplitude(log_magnitudes, transverse)
    return PhaseProfile(parameters=transverse, phases=phases, log_moduli=log_magnitudes)


def egp_windings(spec: GaussianStateSpec, n_cells: Optional[int],
                 transverse_count: Optional[int]) -> tuple[int, int]:
    """(C_x, C_y) from the EGP profile windings; equality is asserted.

    C_x = winding of phi_x over ky, C_y = -(winding of phi_y over kx). For a
    valid Gaussian state both integers must agree; disagreement signals
    under-resolution or a generalized-gap violation and raises. A thermal spec
    reads a line-spectrum cache per direction, as `egp_profile` does.
    """
    cx = winding_of_phase_profile(egp_profile(spec, "x", n_cells, transverse_count))
    cy = -winding_of_phase_profile(egp_profile(spec, "y", n_cells, transverse_count))
    if cx != cy:
        raise _mismatch(cx, cy)
    return cx, cy


def _mismatch(cx: int, cy: int) -> WindingMismatchError:
    return WindingMismatchError(f"EGP Chern inconsistency: C_x = {cx} != C_y = {cy}")


def _chain_windings(chains: tuple[_LineSpectra, _LineSpectra], betas: np.ndarray, mu: float,
                    n_cells: int) -> list:
    """Per beta of `betas`: the thermal `egp_windings` (C_x, C_y) on the n_cells-cell chains
    of the x and y line-spectrum caches `chains`, or the MixedTopoError that stops them.

    `geometry._xy_windings` winds the `_chain_profiles` of both directions, which build
    their planes and levels in one set of buffers. Each temperature gets the error it
    would get alone: that of its profiles, then of its windings, then WindingMismatchError.
    """
    buffers = _Buffers()
    results = _xy_windings(chains, betas,
                           lambda lines, betas: _chain_profiles(lines, n_cells, betas, mu, buffers))
    return [result if isinstance(result, MixedTopoError)
            else result[0] if result[0][0] == result[0][1] else _mismatch(*result[0])
            for result in results]


def _chain_profiles(lines: _LineSpectra, n_cells: int, betas: np.ndarray, mu: float,
                    buffers=_fresh) -> list:
    """Per beta of `betas`: (phases, log magnitudes) of the thermal n_cells-cell chains on the
    lines of the cache `lines`, from one `_thermal_traces` call, or the error refusing them:
    at beta = inf the GapError of a gapless projector, else the AmplitudeZeroError naming
    the first transverse_k whose amplitude vanished."""
    gap = _projector_gap(lines(n_cells)[0], mu) if np.isinf(betas).any() else None
    results = [gap if np.isinf(beta) else None for beta in betas]
    rows = [row for row, result in enumerate(results) if result is None]
    for row, phases, log_magnitudes in zip(
            rows, *_thermal_traces([lines], n_cells, betas[rows], mu, buffers)):
        try:
            _require_amplitude(log_magnitudes, lines.transverse)
            results[row] = phases, log_magnitudes
        except AmplitudeZeroError as exc:
            results[row] = exc
    return results


def _line_profile(spec: GaussianStateSpec, lines: _LineSpectra, n_cells: int) -> PhaseProfile:
    """egp_profile of a thermal spec on the chains of a line-spectrum cache."""
    [profile] = _chain_profiles(lines, n_cells, np.array([spec.beta]), spec.mu)
    if isinstance(profile, MixedTopoError):
        raise profile
    return PhaseProfile(lines.transverse, *profile)


def gauge_reduction_deviations(spec: GaussianStateSpec, directions: Sequence[str],
                               transverse_k: float,
                               n_list: Sequence[int]) -> list[list[tuple[int, float]]]:
    """Per direction of `directions`, [(N, |phi_EGP(N) - phi_EGP(beta=inf, N)|)] for strictly
    ascending chain lengths N.

    The pure-state value at the same N is the polarization phase of the
    fictitious-Hamiltonian ground state, i.e. its Wilson-loop Zak phase up to
    the exact (-1)^(N-1) closure factor of the N-fermion momentum shift; using
    it as the reference makes the deviation measure gauge reduction alone.
    Each direction has one line-spectrum cache, so both chains of each N come
    from one spectrum of h(k); per N, the chains of every direction go through
    one `_thermal_traces` call. A zero amplitude raises AmplitudeZeroError
    naming the direction and N.
    """
    if not spec.is_thermal:
        raise ValueError("gauge reduction needs a thermal spec (beta = inf reference)")
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    if not directions:
        raise ValueError("gauge reduction needs at least one direction")
    betas, transverse = np.array([spec.beta, math.inf]), np.array([float(transverse_k)])
    caches = [_LineSpectra(spec.model, direction, transverse) for direction in directions]
    out = [[] for _ in caches]
    for n in n_list:
        phases, log_magnitudes = _thermal_traces(caches, n, betas, spec.mu)
        for i, lines in enumerate(caches):  # direction i holds transverse line i
            _require_amplitude(log_magnitudes[:, i], transverse_k,
                               f", direction={lines.direction}, N={n}")
            out[i].append((int(n), float(abs(principal_branch(phases[0, i] - phases[1, i])))))
    return out


def gauge_reduction_exponent(deviations: Sequence[tuple[int, float]]) -> float:
    """Log-log slope of deviation vs N (reported estimate of the decay power)."""
    ns, ds = np.array(deviations, dtype=float).T
    if (ds <= 0).any():
        return -math.inf
    return float(np.polyfit(np.log(ns), np.log(ds), 1)[0])

