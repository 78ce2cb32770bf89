import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedtopo as mt
from chain_oracle import _fermi_lines
from conftest import count_eigh, count_plane_traces, random_hermitian, random_unitary
from mixedtopo import egp, uhlmann
from mixedtopo.geometry import JUMP_MARGIN
from mixedtopo.model import _LineSpectra, _planes
from multiband import layered_qwz
from uhlmann_oracle import (
    EXTENDED,
    DensityMatrixPath,
    bz_loop_path,
    cauchy_phases,
    fixed_phases,
    loop_phase,
    qwz_phases_extended,
    svd_polar_unitary,
    temperature_scan,
    thermal_density_k,
    transport,
    uhlmann_holonomy,
    uhlmann_link,
    uhlmann_phase,
)


def thermal_path(model, beta, ky, m=64, direction="x"):
    return bz_loop_path(model, beta, 0.0, direction, ky, m)


def test_thermal_density_infinite_temperature_limit(qwz):
    rho = thermal_density_k(qwz, 1e-9, 0.0, 0.4, -0.8)
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-8


def test_thermal_density_sigma_z():
    model = mt.atomic_model((0.0, 0.0, 1.0))
    beta = 1.7
    rho = thermal_density_k(model, beta, 0.0, 0.0, 0.0)
    z = 2 * np.cosh(beta)
    assert np.allclose(rho, np.diag([np.exp(-beta), np.exp(beta)]) / z, atol=1e-15)


@given(kx=st.floats(-np.pi, np.pi), ky=st.floats(-np.pi, np.pi), beta=st.floats(0.01, 30.0))
def test_thermal_density_unit_trace(kx, ky, beta, qwz):
    rho = thermal_density_k(qwz, beta, 0.0, kx, ky)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12  # positive within assembly noise


def test_thermal_density_rejects_pure(qwz):
    with pytest.raises(mt.RankDeficiencyError):
        thermal_density_k(qwz, math.inf, 0.0, 0.0, 0.0)


def test_link_identity_for_equal_states(qwz):
    rho = thermal_density_k(qwz, 2.0, 0.0, 0.3, 0.3)
    v = uhlmann_link(rho, rho)
    assert np.abs(v - np.eye(2)).max() <= 1e-12


def test_link_identity_for_commuting_pair():
    rho_a = np.diag([0.7, 0.3]).astype(complex)
    rho_b = np.diag([0.2, 0.8]).astype(complex)
    v = uhlmann_link(rho_a, rho_b)
    assert np.abs(v - np.eye(2)).max() <= 1e-12


def test_link_unitary_and_polar_optimal(qwz):
    rng = np.random.default_rng(2)
    rho_a = thermal_density_k(qwz, 1.5, 0.0, 0.3, -0.2)
    rho_b = thermal_density_k(qwz, 1.5, 0.0, 0.9, 1.4)
    v = uhlmann_link(rho_a, rho_b)
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-12
    w, vecs = np.linalg.eigh(rho_a)
    sq_a = (vecs * np.sqrt(w)) @ vecs.conj().T
    w, vecs = np.linalg.eigh(rho_b)
    sq_b = (vecs * np.sqrt(w)) @ vecs.conj().T
    target = sq_b @ sq_a
    best = np.trace(v.conj().T @ target).real
    for _ in range(10_000):
        u = random_unitary(rng, 2)
        assert np.trace(u.conj().T @ target).real <= best + 1e-12


def test_link_rejects_rank_deficiency():
    pure = np.diag([1.0, 0.0]).astype(complex)
    mixed = np.diag([0.6, 0.4]).astype(complex)
    with pytest.raises(mt.RankDeficiencyError):
        uhlmann_link(pure, mixed)


def test_path_validation():
    good = np.tile(np.diag([0.6, 0.4]).astype(complex), (4, 1, 1))
    DensityMatrixPath(np.arange(4.0), good)
    with pytest.raises(ValueError):
        DensityMatrixPath(np.arange(4.0), 2 * good)  # trace 2
    bad = good.copy()
    bad[1] = np.array([[0.6, 0.4], [0.1, 0.4]])
    with pytest.raises(ValueError):
        DensityMatrixPath(np.arange(4.0), bad)  # not Hermitian


@pytest.mark.parametrize("entry", [(2, 0, 0), (2, 0, 1)])
def test_path_rejects_nan_entries(entry):
    rhos = np.tile(np.diag([0.6, 0.4]).astype(complex), (4, 1, 1))
    rhos[entry] = np.nan
    with pytest.raises(ValueError):
        DensityMatrixPath(np.arange(4.0), rhos)


@pytest.mark.parametrize("bad", [np.array([[0.6, 0.3], [0.0, 0.4]]),  # not Hermitian
                                 np.diag([0.9, 0.9])])                # trace 1.8
def test_link_validates_its_pair_as_a_path(bad):
    good = np.diag([0.7, 0.3])
    for pair in ((good, bad), (bad, good)):
        with pytest.raises(ValueError):
            uhlmann_link(*pair)


def test_path_diagonalizes_once(qwz, monkeypatch):
    """One eigh over the path at construction; holonomy, phase and link reuse it."""
    rhos = bz_loop_path(qwz, 2.0, 0.0, "x", 0.4, 64).rhos
    calls = {"eigh": count_eigh(monkeypatch), "eigvalsh": []}
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls["eigvalsh"].append(np.shape(a)[:-2])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    path = DensityMatrixPath(np.arange(64.0), rhos)
    assert calls == {"eigh": [(64,)], "eigvalsh": []}
    uhlmann_holonomy(path)
    uhlmann_phase(path)
    assert calls == {"eigh": [(64,)], "eigvalsh": []}
    uhlmann_link(rhos[0], rhos[1])
    assert calls == {"eigh": [(64,), (2,)], "eigvalsh": []}


def _count_uhlmann_eigh(monkeypatch) -> list:
    """Batch shapes of the `_eigh` calls that the line-spectrum cache of
    mixedtopo.model makes for the Uhlmann loops, that is, for a request from
    mixedtopo.uhlmann; the EGP chain meshes are requested from elsewhere."""
    return count_eigh(monkeypatch, lambda cache:  # _LineSpectra._eigh, from __call__
                      cache.f_code is _LineSpectra._eigh.__code__
                      and cache.f_back.f_back.f_globals.get("__name__") == "mixedtopo.uhlmann")


def _matrices_per_call(calls: list) -> list:
    return [math.prod(shape) for shape in calls]


@pytest.mark.parametrize("direction", ["x", "y"])
def test_profile_refinement_diagonalizes_each_point_once(qwz, qwz_gap, monkeypatch, direction):
    """The certified winding over 32 lines at T = 0.05 gap, from 8 path points: x doubles
    to 16 points and y to 32. The passes start at 4 points, and each doubling
    diagonalizes only its new odd points."""
    monkeypatch.setattr(uhlmann, "PATH_POINTS_START", 8)
    counts = _count_uhlmann_eigh(monkeypatch)
    spectra = _LineSpectra(qwz, direction, mt.momentum_line(32))
    [(_, used)] = uhlmann._refinement(spectra, np.array([1.0 / (0.05 * qwz_gap)]), 0.0)
    assert used == {"x": 16, "y": 32}[direction]
    # the 4-point loops, then 4, 8 (and 16) new odd points: each of the 32 x `used` points once
    assert _matrices_per_call(counts) == {"x": [32 * 4, 32 * 4, 32 * 8],
                                          "y": [32 * 4, 32 * 4, 32 * 8, 32 * 16]}[direction]
    assert sum(_matrices_per_call(counts)) == 32 * used


def test_temperature_scan_diagonalizes_each_loop_once(qwz, qwz_gap, monkeypatch):
    """Only the Boltzmann weights depend on beta: more temperatures, no more Uhlmann eigh."""
    counts = _count_uhlmann_eigh(monkeypatch)
    grid = mt.MomentumGrid(12, 12)
    per_scan = []
    for temperatures in ([0.5], [0.05, 0.5, 5.0]):
        counts.clear()
        reports = mt.uhlmann_temperature_scan(qwz, 0.0, np.array(temperatures) * qwz_gap, grid,
                                              n_cells=6)
        assert all(r.status == "ok" and r.uhlmann_path_points == 32 for r in reports)
        per_scan.append(sum(_matrices_per_call(counts)))
    # each direction: 12 lines of 16 points, then their 16 new odd points, once; every row
    # is certified at 32 points
    assert per_scan == [2 * 12 * 32, 2 * 12 * 32]


def test_temperature_scan_diagonalizes_each_chain_mesh_once(qwz, qwz_gap, monkeypatch):
    """Only the Fermi weights depend on beta: the EGP chain meshes are diagonalized
    once per scan, and the scan's EGP windings equal `egp_windings` at each row."""
    grid = mt.MomentumGrid(12, 12)
    temperatures = np.array([0.05, 0.5, 5.0]) * qwz_gap
    expected = [mt.egp_windings(mt.GaussianStateSpec.thermal(1 / t, 0.0, qwz), 6, 12)
                for t in temperatures]
    counts = count_eigh(monkeypatch)
    reports = mt.uhlmann_temperature_scan(qwz, 0.0, temperatures, grid, n_cells=6)
    assert [(r.cx_egp, r.cy_egp) for r in reports] == expected
    # Uhlmann loops (2 x 12 x 32, certified at their first pass), ground state (12 x 12),
    # x and y chain meshes (12 x 6 each)
    assert sum(_matrices_per_call(counts)) == 2 * 12 * 32 + 12 * 12 + 2 * 12 * 6


# ------------------------------------------------------------------ transport kernel

def _qwz_loop_spectra(qwz, direction, n_points, beta):
    """Entry-plane spectra (vectors (2, 2, 32, M), weights (2, 32, M)) of 32 qwz loops."""
    energies, vectors = _LineSpectra(qwz, direction, mt.momentum_line(32))(n_points)
    weights = mt.boltzmann_weights(np.moveaxis(energies, 0, -1), beta, 0.0)
    return vectors, np.moveaxis(weights, -1, 0)


def _random_loop_spectra(p, loops, n_points, seed):
    """Planes of smooth random p-band loops h(t) = C + A cos t + B sin t at beta = 1."""
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(rng, p), random_hermitian(rng, p)
    c = np.stack([random_hermitian(rng, p) for _ in range(loops)])[:, None]
    t = mt.momentum_line(n_points)[None, :, None, None]
    energies, vectors = np.linalg.eigh(c + a * np.cos(t) + b * np.sin(t))
    return _planes(vectors), np.moveaxis(mt.boltzmann_weights(energies, 1.0, 0.0), -1, 0)


def _oracle_transport(vectors, weights):
    """The matmul oracle on the same spectra, given as (..., M, p, p) and (..., M, p)."""
    return transport(uhlmann._matrices(vectors), np.moveaxis(weights, 0, -1))


def _assert_transport_matches(result, reference, tol):
    """Holonomies, phases, and per loop the link deviations and |Tr[rho(0) H]|."""
    (holonomies, phases, devs, moduli), (ref_holonomies, ref_phases, ref_devs, ref_moduli) = (
        result, reference)
    assert holonomies.shape == ref_holonomies.shape
    assert np.shape(phases) == np.shape(devs) == np.shape(moduli) == np.shape(ref_devs)
    assert np.abs(mt.principal_branch(phases - ref_phases)).max() <= tol
    assert np.abs(holonomies - ref_holonomies).max() <= tol
    # a deviation is the norm of a difference of O(1) matrices: its error is absolute
    assert np.abs(devs - ref_devs).max() <= tol
    assert abs(np.max(devs) - np.max(ref_devs)) <= tol * np.max(ref_devs)
    assert np.abs(moduli - ref_moduli).max() <= tol


@pytest.mark.parametrize("n_points", [512, 1024])
@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("beta", [0.1, 1.0, 3.0, 5.0, 50.0])
def test_transport_matches_matmul_oracle(qwz, beta, direction, n_points):
    spectra = _qwz_loop_spectra(qwz, direction, n_points, beta)
    _assert_transport_matches(uhlmann._transport(*spectra), _oracle_transport(*spectra), 1e-12)


def test_transport_matches_matmul_oracle_svd_route():
    """p = 3 takes the batched SVD polar factor in both kernels."""
    spectra = _random_loop_spectra(3, 4, 256, seed=21)
    _assert_transport_matches(uhlmann._transport(*spectra), _oracle_transport(*spectra), 1e-12)


@pytest.mark.parametrize("p", [2, 3])
def test_transport_independent_of_batch_shape(p):
    """One loop gives the same results unbatched (M, p, p), in (T, M) and in (A, B, M)."""
    vectors, weights = _random_loop_spectra(p, 6, 128, seed=p)
    stacked = uhlmann._transport(vectors, weights)
    grid = uhlmann._transport(vectors.reshape(p, p, 2, 3, -1), weights.reshape(p, 2, 3, -1))
    assert stacked[0].shape == (6, p, p) and grid[0].shape == (2, 3, p, p)
    _assert_transport_matches(grid, (stacked[0].reshape(2, 3, p, p),
                                     *(a.reshape(2, 3) for a in stacked[1:])), 1e-14)
    for t in range(6):
        single = uhlmann._transport(vectors[:, :, t], weights[:, t])
        assert single[0].shape == (p, p) and np.shape(single[1]) == ()
        _assert_transport_matches(single, tuple(a[t] for a in stacked), 1e-14)

    # the assembled-matrix routes of the oracle: a path and the two-point link
    rhos = mt.spectral_sum(uhlmann._matrices(vectors[:, :, 0]), weights[:, 0].T)
    path = DensityMatrixPath(mt.momentum_line(128), rhos)
    holonomy = uhlmann_holonomy(path)
    assert holonomy.matrix.shape == (p, p)
    assert np.abs(holonomy.matrix - stacked[0][0]).max() <= 1e-12
    assert uhlmann_phase(path) == pytest.approx(stacked[1][0], abs=1e-12)
    _, links = uhlmann._loop_links(vectors, weights)
    link = uhlmann_link(rhos[0], rhos[1])
    assert link.shape == (p, p)
    assert np.abs(link - links[:, :, 0, 0]).max() <= 1e-12


def test_transport_flags_only_the_failing_loop(qwz, qwz_gap):
    """One batch of two 4-point loops at k_y = 0: at T = 0.02 gap a link deviates past
    LINK_IDENTITY_MAX, at T = 5 gap none does. Only the cold loop is refused, and the hot
    one keeps the phase it has when transported alone."""
    energies, vectors = _LineSpectra(qwz, "x", np.array([0.0]))(4)
    betas = 1.0 / (np.array([0.02, 5.0]) * qwz_gap)
    weights = np.moveaxis(mt.boltzmann_weights(np.moveaxis(energies, 0, -1), betas, 0.0), -1, 0)
    shared = np.broadcast_to(vectors[:, :, None], (2, 2, 2) + vectors.shape[2:])
    _, phases, deviations, moduli = uhlmann._transport(shared, weights)
    assert deviations.shape == moduli.shape == (2, 1)
    assert deviations[0, 0] >= uhlmann.LINK_IDENTITY_MAX > deviations[1, 0]
    cold = uhlmann._transport_error(deviations[0], moduli[0])
    assert isinstance(cold, mt.UnderResolvedError)
    assert str(cold) == (f"transport link deviates from identity by {deviations[0, 0]:.3f} >= "
                         f"{uhlmann.LINK_IDENTITY_MAX}: refine the path discretization")
    assert uhlmann._transport_error(deviations[1], moduli[1]) is None
    assert str(uhlmann._transport_error(deviations, moduli)) == str(cold)  # the batch maximum
    _, alone, _, _ = uhlmann._transport(vectors, weights[:, 1])
    assert phases[1] == alone


def _traced_peak(fn, *args) -> int:
    fn(*args)  # warm up
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transport_transient_memory_within_oracle(qwz):
    """The plane kernel allocates no more than the matmul kernel on a (32, 1024) stack."""
    vectors, weights = _qwz_loop_spectra(qwz, "x", 1024, 1.0)
    matrices = np.ascontiguousarray(uhlmann._matrices(vectors))
    matrix_weights = np.ascontiguousarray(np.moveaxis(weights, 0, -1))
    peak = _traced_peak(uhlmann._transport, vectors, weights)
    assert peak <= _traced_peak(transport, matrices, matrix_weights)


# ------------------------------------------------------------------ polar factor

def _polar(products, det=None):
    """The kernel's polar factor on (..., p, p) matrices; the input is left as it was."""
    return uhlmann._matrices(uhlmann._polar_unitary(_planes(products), det))


def _assert_polar_factor(products, unitary):
    """U unitary and U^dag M Hermitian positive semidefinite, to rounding."""
    scale = np.linalg.norm(products, axis=(-2, -1))[..., None, None]
    assert np.isfinite(unitary).all()
    assert np.abs(unitary.conj().swapaxes(-1, -2) @ unitary - np.eye(2)).max() <= 1e-14
    positive = unitary.conj().swapaxes(-1, -2) @ products
    assert (np.abs(positive - positive.conj().swapaxes(-1, -2)) / scale).max() <= 1e-14
    assert (np.linalg.eigvalsh(positive) / scale[..., 0]).min() >= -1e-14


def test_polar_closed_form_matches_svd_on_random_matrices():
    rng = np.random.default_rng(5)
    products = rng.normal(size=(4096, 2, 2)) + 1j * rng.normal(size=(4096, 2, 2))
    products *= 10.0 ** rng.uniform(-3, 3, size=(4096, 1, 1))
    closed = _polar(products)
    assert np.abs(closed - svd_polar_unitary(products)).max() <= 1e-12
    _assert_polar_factor(products, closed)


def _near_singular(ratio, rng):
    unitaries = [random_unitary(rng, 2) @ np.diag([1.0, ratio]) @ random_unitary(rng, 2)
                 for _ in range(64)]
    return np.stack(unitaries)


def _rank_one(rng):
    u = rng.normal(size=(64, 2, 1)) + 1j * rng.normal(size=(64, 2, 1))
    v = rng.normal(size=(64, 2, 1)) + 1j * rng.normal(size=(64, 2, 1))
    return u @ v.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("case", ["ratio 1e-8", "ratio 1e-14", "rank one", "all ones",
                                  "nilpotent", "diagonal"])
def test_polar_closed_form_on_singular_inputs(case):
    """Near-singular and exactly singular products, as deep-cold rows give.

    The polar factor is not unique on the null space, so the SVD is no
    reference here (the two differ by O(1)); the defining properties are.
    """
    rng = np.random.default_rng(13)
    products = {
        "ratio 1e-8": lambda: _near_singular(1e-8, rng),
        "ratio 1e-14": lambda: _near_singular(1e-14, rng),
        "rank one": lambda: _rank_one(rng),
        "all ones": lambda: np.ones((1, 2, 2), dtype=complex),
        "nilpotent": lambda: np.array([[[0, 1], [0, 0]]], dtype=complex),
        "diagonal": lambda: np.array([[[2, 0], [0, 0]]], dtype=complex),
    }[case]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unitary = _polar(products)
    _assert_polar_factor(products, unitary)


def test_polar_closed_form_uses_given_determinant():
    """A determinant passed by the caller replaces the one from the entries."""
    products = np.array([[[2.0, 0.0], [0.0, 1e-20]]], dtype=complex)
    exact = _polar(products, np.array([2e-20]))
    assert np.abs(exact - np.eye(2)).max() <= 1e-15
    flipped = _polar(products, np.array([-2e-20]))
    assert np.abs(flipped - np.diag([1.0, -1.0])).max() <= 1e-15


def _svd_route(monkeypatch):
    """The oracle route: SVD polar factors over LAPACK spectra, no closed form."""
    monkeypatch.setattr(uhlmann, "_polar_unitary", lambda products, det=None:
                        _planes(svd_polar_unitary(uhlmann._matrices(products))))
    monkeypatch.setattr(mt.model, "_eigh", np.linalg.eigh)


# The SVD route is the less accurate one. The link products sqrt(rho_{i+1})
# sqrt(rho_i) have condition numbers up to e^{2 beta |d|}, and for a complex
# M the polar factor moves by up to |dM| / sigma_min, so the SVD of the
# rounded product errs by about eps * cond. The closed form takes det M from
# the exact Boltzmann weights and does not. Against qwz_phases_extended on
# these 32 lines the SVD route is off by up to 2.9e-13 (beta = 2, y), 5.4e-12
# (beta = 3, y) and 1.5e-8 (beta = 5, y, 1024 points); the closed form by at
# most 1e-14 at every beta (test_profile_matches_extended_precision). The
# bounds below sit above the SVD route's own error.
@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("beta, tol", [(0.1, 1e-12), (1.0, 1e-12), (2.0, 1e-12),
                                       (3.0, 1e-11), (5.0, 3e-8)])
def test_profile_closed_form_matches_svd_route(qwz, monkeypatch, beta, tol, direction, refine):
    """At 512 points, and (`refine`) through the Cauchy refinement of the oracle."""
    def phases():
        args = (qwz, beta, 0.0, direction, mt.momentum_line(32), 512)
        return cauchy_phases(*args) if refine else (mt.uhlmann_phase_profile(*args).phases, 512)

    closed, used = phases()
    _svd_route(monkeypatch)
    svd, svd_used = phases()
    assert used == svd_used
    assert np.abs(mt.principal_branch(closed - svd)).max() <= tol


@pytest.mark.skipif(not EXTENDED, reason="long double is not wider than double here")
@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("beta", [0.1, 1.0, 3.0, 5.0])
def test_profile_matches_extended_precision(qwz, beta, direction):
    transverse = mt.momentum_line(32)
    for n_points in (512, 1024):
        profile = mt.uhlmann_phase_profile(qwz, beta, 0.0, direction, transverse, n_points)
        reference = qwz_phases_extended(beta, direction, transverse, n_points)
        assert np.abs(mt.principal_branch(profile.phases - reference)).max() <= 1e-13


def test_transport_error_names_the_loop_without_a_phase():
    """Links within LINK_IDENTITY_MAX, and |Tr[rho(0) H]| below 1e-12 on the second
    loop: PhaseUndefinedError names that loop's transverse momentum."""
    error = uhlmann._transport_error(np.array([0.1, 0.2]), np.array([0.5, 1e-13]),
                                     np.array([0.3, 0.7]))
    assert isinstance(error, mt.PhaseUndefinedError)
    assert str(error) == ("|Tr[rho(0) H]| = 1.000e-13 < 1e-12 at transverse_k=0.700000: "
                          "Uhlmann phase undefined")


def test_windings_refuse_zero_temperature(qwz):
    with pytest.raises(mt.RankDeficiencyError, match="beta = inf"):
        mt.uhlmann_windings(qwz, math.inf, 0.0, mt.MomentumGrid(8, 8))


def test_holonomy_rejects_projector_path():
    rhos = np.tile(np.diag([1.0, 0.0]).astype(complex), (8, 1, 1))
    path = DensityMatrixPath(np.arange(8.0), rhos)
    with pytest.raises(mt.RankDeficiencyError):
        uhlmann_phase(path)


def test_phase_constant_path(qwz):
    rho = thermal_density_k(qwz, 1.0, 0.0, 0.5, 0.5)
    path = DensityMatrixPath(np.arange(6.0), np.tile(rho, (6, 1, 1)))
    assert uhlmann_phase(path) == pytest.approx(0.0, abs=1e-12)


def test_phase_maximally_mixed_is_trivial(qwz):
    phase = loop_phase(qwz, 1e-4, 0.0, "x", 0.9, 128)
    assert abs(phase) < 1e-6


def test_holonomy_unitary(qwz):
    path = thermal_path(qwz, 2.0, np.pi / 3, m=128)
    hol = uhlmann_holonomy(path)
    assert np.abs(hol.matrix.conj().T @ hol.matrix - np.eye(2)).max() <= 1e-10


@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("beta", [0.1, 2.0, 3.0])
def test_phase_path_object_matches_profile_machinery(qwz, beta, direction):
    path = thermal_path(qwz, beta, np.pi / 3, m=512, direction=direction)
    phase_path = uhlmann_phase(path)
    phase_prof = loop_phase(qwz, beta, 0.0, direction, np.pi / 3, 512)
    assert abs(mt.principal_branch(phase_path - phase_prof)) <= 1e-12


def test_cauchy_criterion_512_to_1024(qwz):
    for beta in (10.0, 0.5):
        a = loop_phase(qwz, beta, 0.0, "x", np.pi / 3, 512)
        b = loop_phase(qwz, beta, 0.0, "x", np.pi / 3, 1024)
        assert abs(mt.principal_branch(b - a)) < 1e-4


def test_refinement_reports_points_used(qwz):
    _, m_used = cauchy_phases(qwz, 2.0, 0.0, "x", [0.7], 512)
    assert 512 < m_used <= 8192


def test_under_resolved_coarse_path(qwz):
    with pytest.raises(mt.UnderResolvedError):
        loop_phase(qwz, 20.0, 0.0, "y", np.pi / 2, 4)


def test_cold_phase_matches_fictitious_band_zak(qwz, qwz_gap):
    beta = 20.0 / qwz_gap
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    [phase], _ = cauchy_phases(qwz, beta, 0.0, "x", [np.pi / 3], 512)
    _, frames = mt.band_systems(mt.fictitious_hamiltonian(spec, mt.momentum_line(512), np.pi / 3))
    states = frames[..., 1]
    assert abs(mt.principal_branch(phase - mt.zak_phase_wilson(states))) < 0.02


def test_amplitude_gauge_freedom(qwz):
    """w -> w U right gauges drop out of the transport construction."""
    rng = np.random.default_rng(9)
    path = thermal_path(qwz, 2.0, 1.1, m=48)
    reference = uhlmann_phase(path)

    eig, vec = np.linalg.eigh(path.rhos)
    sqrts = np.einsum("tij,tj,tkj->tik", vec, np.sqrt(np.clip(eig, 0, None)), vec.conj())
    gauges = np.stack([random_unitary(rng, 2) for _ in range(len(path))])
    amplitudes = sqrts @ gauges

    product = np.eye(2, dtype=complex)
    for i in range(len(path)):
        pair = amplitudes[(i + 1) % len(path)].conj().T @ amplitudes[i]
        w, _, zh = np.linalg.svd(pair)
        product = (w @ zh) @ product
    holonomy = gauges[0] @ product @ gauges[0].conj().T
    phase = np.angle(np.trace(path.rhos[0] @ holonomy))
    assert abs(mt.principal_branch(phase - reference)) <= 1e-10


def test_windings_cold_and_hot(qwz, qwz_gap):
    grid = mt.MomentumGrid(16, 16)
    assert mt.uhlmann_windings(qwz, 20.0 / qwz_gap, 0.0, grid) == (1, 1)
    assert mt.uhlmann_windings(qwz, 0.01 / qwz_gap, 0.0, grid) == (0, 0)


def test_windings_asymmetric_window_exists(qwz, qwz_gap):
    """Scanning around T ~ 0.5 gap finds directionally split Uhlmann windings."""
    grid = mt.MomentumGrid(24, 24)
    seen_asymmetric = False
    for t_over_gap in (0.45, 0.55):
        beta = 1.0 / (t_over_gap * qwz_gap)
        cx, cy = mt.uhlmann_windings(qwz, beta, 0.0, grid)
        if cx != cy:
            seen_asymmetric = True
    assert seen_asymmetric


def test_certified_windings_match_cauchy_route(qwz, qwz_gap):
    """Through the split window the certified windings equal those of the Cauchy-converged
    profiles, the oracle: `cauchy_phases` and `winding_of_phase_profile`."""
    grid = mt.MomentumGrid(16, 16)
    certified, cauchy = [], []
    for t_over_gap in np.geomspace(0.25, 1.0, 8):
        beta = 1.0 / (t_over_gap * qwz_gap)
        certified.append(mt.uhlmann_windings(qwz, beta, 0.0, grid))
        phases_x, _ = cauchy_phases(qwz, beta, 0.0, "x", grid.ky_values(), 128)
        phases_y, _ = cauchy_phases(qwz, beta, 0.0, "y", grid.kx_values(), 128)
        prof_x = mt.PhaseProfile(grid.ky_values(), phases_x)
        prof_y = mt.PhaseProfile(grid.kx_values(), phases_y)
        cauchy.append((mt.winding_of_phase_profile(prof_x), -mt.winding_of_phase_profile(prof_y)))
    assert certified == cauchy
    assert any(cx != cy for cx, cy in cauchy)  # the sweep crosses the split window


@pytest.mark.parametrize("n_points", [32, 33, 64, 65])
@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("t_over_gap", [0.05, 0.5, 5.0])
def test_path_error_estimate_bounds_next_refinement(qwz, qwz_gap, t_over_gap, direction,
                                                    n_points):
    """e = max |phi_M - phi_c| / ((M/c)^2 - 1), c = M // 2, bounds max |phi_2M - phi_M|."""
    def phases(m):
        return mt.uhlmann_phase_profile(qwz, 1.0 / (t_over_gap * qwz_gap), 0.0, direction,
                                        mt.momentum_line(16), m).phases

    coarse, fine, finer = (phases(m) for m in (n_points // 2, n_points, 2 * n_points))
    error = np.abs(mt.principal_branch(fine - coarse)).max() / (
        (n_points / (n_points // 2)) ** 2 - 1)
    assert error >= np.abs(mt.principal_branch(finer - fine)).max()


@pytest.mark.parametrize("direction", ["x", "y"])
def test_path_error_estimate_bounds_true_error_at_the_start(qwz, qwz_gap, direction):
    """At PATH_POINTS_START the phases lie within 2e of the exact path's, the certificate's
    assumption, from deep cold through the split window to hot; a 4096-point pass stands
    in for the exact path."""
    start = uhlmann.PATH_POINTS_START
    spectra = _LineSpectra(qwz, direction, mt.momentum_line(32))
    spectra(4096)  # the start path and its half are strided views of these
    for t_over_gap in (0.01, 0.34, 0.5, 5.0):
        beta = 1.0 / (t_over_gap * qwz_gap)
        coarse, fine, exact = (fixed_phases(spectra, beta, 0.0, m)
                               for m in (start // 2, start, 4096))
        error = np.abs(mt.principal_branch(fine - coarse)).max() / 3
        assert np.abs(mt.principal_branch(exact - fine)).max() <= 2 * error


@pytest.mark.parametrize("t_over_gap", [[0.5], [0.05, 0.5, 5.0]])
def test_scan_transports_each_direction_twice(qwz, qwz_gap, monkeypatch, t_over_gap):
    """The certificate passes of a direction (16 and 32 points) each make one transport for
    every temperature of the scan."""
    calls = []
    original = uhlmann._transport

    def counting(vectors, weights):
        calls.append((vectors.shape[2], vectors.shape[-1]))  # (temperatures, path points)
        return original(vectors, weights)

    monkeypatch.setattr(uhlmann, "_transport", counting)
    reports = mt.uhlmann_temperature_scan(qwz, 0.0, np.array(t_over_gap) * qwz_gap,
                                          mt.MomentumGrid(12, 12), n_cells=6)
    assert all(r.status == "ok" for r in reports)
    n = len(t_over_gap)
    assert calls == [(n, 16), (n, 32)] * 2  # x, then y


@pytest.mark.parametrize("cap", [4, 8])
def test_scan_matches_per_temperature_oracle_where_a_row_fails(qwz, qwz_gap, monkeypatch, cap):
    """An 8^2 scan from 4 path points: the 0.3 gap row fails at the cap (cap 4: its x
    winding is not certified; cap 8: its y links fail) while the 0.6 and 5 gap rows
    certify at 4 points, and the 0.5 gap row fails at cap 4 or certifies at 8 points.
    Every report equals the per-temperature scan's."""
    monkeypatch.setattr(uhlmann, "PATH_POINTS_START", 4)
    monkeypatch.setattr(uhlmann, "PATH_POINTS_CAP", cap)
    args = (qwz, 0.0, np.array([0.3, 0.5, 0.6, 5.0]) * qwz_gap, mt.MomentumGrid(8, 8), 6)
    reports = mt.uhlmann_temperature_scan(*args)
    assert reports == temperature_scan(*args)
    assert reports[0].status.startswith(f"uhlmann: Uhlmann {'xy'[cap == 8]} path unresolved "
                                        f"at {cap} points (cap {cap}): ")
    assert [r.uhlmann_path_points for r in reports] == [None, 8 if cap == 8 else None, 4, 4]


def test_scan_matches_per_temperature_oracle_through_underflow(qwz, qwz_gap):
    """A 12^2 scan from deep cold to hot: the deep-cold row keeps its underflow message
    while the rows batched with it certify, and every report equals the per-temperature
    scan's."""
    args = (qwz, 0.0, np.array([0.001, 0.05, 0.5, 5.0]) * qwz_gap, mt.MomentumGrid(12, 12), 6)
    reports = mt.uhlmann_temperature_scan(*args)
    assert reports == temperature_scan(*args)
    assert reports[0].status == ("uhlmann: Boltzmann weight underflowed at beta = 500: "
                                 "state numerically pure")
    assert [r.status for r in reports[1:]] == ["ok"] * 3


def test_scan_egp_chunks_match_per_temperature_oracle(qwz, qwz_gap, monkeypatch):
    """On 8 transverse lines of 6 cells the EGP x profile is resolved at 2 gap and
    under-resolved at 6 gap and above. With two temperatures per `_plane_traces` call, the
    five x rows span three chunks: the middle one holds the passing 2 gap row and the
    failing 6 gap row, and the last one the 50 gap row alone. Every report equals the
    per-temperature scan's."""
    monkeypatch.setattr(egp, "CHAIN_CELL_BUDGET", 2 * 8 * 6)
    calls = count_plane_traces(monkeypatch)
    args = (qwz, 0.0, np.array([0.05, 0.5, 2.0, 6.0, 50.0]) * qwz_gap, mt.MomentumGrid(8, 8), 6, 8)
    reports = mt.uhlmann_temperature_scan(*args)
    assert calls == [(2, 8), (2, 8), (1, 8), (2, 8), (1, 8)]  # x: five rows, y: the three that pass
    assert reports == temperature_scan(*args)
    assert [r.cx_egp for r in reports] == [1, 1, 1, None, None]
    assert all(r.status.startswith("egp: max phase step ") for r in reports[3:])


@pytest.mark.parametrize("budget,per_call", [(1, 1), (2 * 72, 2), (5 * 72 - 1, 4), (10**6, 5)])
def test_scan_egp_calls_per_direction(qwz, qwz_gap, monkeypatch, budget, per_call):
    """Each direction makes ceil(temperatures / per_call) `_plane_traces` calls, per_call
    = max(1, CHAIN_CELL_BUDGET // (n_cells x transverse)) with 6 x 12 = 72 cells per
    temperature, the last call holding the rest."""
    monkeypatch.setattr(egp, "CHAIN_CELL_BUDGET", budget)
    calls = count_plane_traces(monkeypatch)
    temperatures = np.array([0.05, 0.1, 0.5, 1.0, 2.0]) * qwz_gap
    reports = mt.uhlmann_temperature_scan(qwz, 0.0, temperatures, mt.MomentumGrid(12, 12), 6)
    assert all(r.status == "ok" for r in reports)
    chunks = [min(per_call, 5 - start) for start in range(0, 5, per_call)]
    assert len(chunks) == math.ceil(5 / per_call)
    assert calls == [(n, 12) for n in chunks] * 2


def test_scan_egp_pass_memory_stays_within_the_budget(qwz, qwz_gap):
    """The EGP pass of the recipe's 48 temperatures on 128 chains of 10 cells allocates
    about what one call of CHAIN_CELL_BUDGET cells does, where stacking every temperature
    into one call per direction would allocate twelve times as much."""
    chains = tuple(_LineSpectra(qwz, d, mt.momentum_line(128)) for d in "xy")
    betas = 1.0 / (np.geomspace(0.01, 100, 48) * qwz_gap)
    per_call = egp.CHAIN_CELL_BUDGET // (10 * 128)
    assert 1 < per_call < 12

    def one_call():
        return egp.chain_traces(_fermi_lines(chains[0], 10, betas[:per_call], 0.0))

    peak = _traced_peak(egp._chain_windings, chains, betas, 0.0, 10)
    assert peak <= 1.5 * _traced_peak(one_call)


@pytest.mark.parametrize("n_cells, egp_transverse, message", [
    pytest.param(0, None, "need n_cells >= 2, got 0", id="0"),
    pytest.param(1, None, "need n_cells >= 2, got 1", id="1"),
    pytest.param(10, 1, "need at least 2 momentum samples", id="transverse1"),
])
def test_scan_refuses_short_chains(qwz, monkeypatch, n_cells, egp_transverse, message):
    """Chains of fewer than two cells, or fewer than two EGP lines, are refused before
    any work: no h(k) is diagonalized, not even for the ground-state Chern number."""
    calls = count_eigh(monkeypatch)
    with pytest.raises(ValueError, match=message):
        mt.uhlmann_temperature_scan(qwz, 0.0, [0.5], mt.MomentumGrid(8, 8), n_cells=n_cells,
                                    egp_transverse=egp_transverse)
    assert calls == []


@pytest.mark.parametrize("temperatures, message", [
    pytest.param([-1.0], "need finite temperatures >= 0, got T = -1.0", id="negative"),
    pytest.param([math.nan, 1.0], "need finite temperatures >= 0, got T = nan", id="nan"),
    pytest.param([math.inf, 1.0], "need finite temperatures >= 0, got T = inf", id="inf"),
])
def test_scan_refuses_bad_temperatures(qwz, monkeypatch, temperatures, message):
    """A negative, NaN or infinite temperature is refused before any work, naming it."""
    calls = count_eigh(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mt.uhlmann_temperature_scan(qwz, 0.0, temperatures, mt.MomentumGrid(8, 8), n_cells=6)
    assert calls == []


def test_scan_takes_zero_temperature_as_pure_row(qwz):
    """T = 0 is a beta = inf row, with no divide-by-zero warning: its Uhlmann windings are
    refused for the rank-deficient state, and its EGP takes the projector windings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero, hot = mt.uhlmann_temperature_scan(qwz, 0.0, [0.0, 1.0], mt.MomentumGrid(8, 8),
                                                n_cells=6)
    assert (zero.temperature, zero.beta, zero.cx_egp, zero.cy_egp) == (0.0, math.inf, 1, 1)
    assert (zero.cx_uhlmann, zero.cy_uhlmann, zero.c_ground) == (None, None, 1)
    assert zero.status == "uhlmann: beta = inf gives a rank-deficient density matrix; " \
                          "probe low temperature at large finite beta instead"
    assert hot.beta == 1.0


@pytest.mark.parametrize("n_cells", [4, 5])
def test_chain_windings_match_per_temperature_route(n_cells):
    """mu at the upper level of an atomic model: at beta = inf the projector is gapless
    (GapError), while finite temperatures fill that level by exactly 1/2, an exact zero
    amplitude for even N and winding 0 for odd N. Each row gets the outcome
    `egp_windings` gives it at that temperature."""
    model, mu, betas = mt.atomic_model(), 1.0, np.array([0.5, np.inf, 2.0])
    chains = tuple(_LineSpectra(model, d, mt.momentum_line(4)) for d in "xy")
    expected = []
    for beta in betas:
        spec = mt.GaussianStateSpec.thermal(beta, mu, model)
        try:
            expected.append(mt.egp_windings(spec, n_cells, 4))
        except mt.MixedTopoError as exc:
            expected.append((type(exc), str(exc)))
    results = [(type(r), str(r)) if isinstance(r, mt.MixedTopoError) else r
               for r in egp._chain_windings(chains, betas, mu, n_cells)]
    assert results == expected
    assert results[1][0] is mt.GapError
    if n_cells == 4:
        assert results[0][0] is mt.AmplitudeZeroError
    else:
        assert results[0] == (0, 0)


def test_scan_certifies_at_the_configured_path(qwz, qwz_gap, monkeypatch):
    """A 32^2 scan: cold, split and hot rows are certified at PATH_POINTS_START = 32
    points, so each direction diagonalizes its 32 lines of 32 points once: 16 points for
    the first pass, then the 16 new odd points, and no 64-point pass is made."""
    counts = _count_uhlmann_eigh(monkeypatch)
    reports = mt.uhlmann_temperature_scan(qwz, 0.0, np.array([0.02, 0.5, 5.0]) * qwz_gap,
                                          mt.MomentumGrid(32, 32), n_cells=6)
    assert [(r.status, r.uhlmann_path_points) for r in reports] == [("ok", 32)] * 3
    assert _matrices_per_call(counts) == [32 * 16] * 4


def test_scan_row_says_why_the_certificate_failed(qwz, qwz_gap, monkeypatch):
    """At the cap the row names the direction, the points, the step and 2e against
    pi - JUMP_MARGIN, and the transverse_k of the worst line."""
    beta, grid = 1.0 / (0.3 * qwz_gap), mt.MomentumGrid(8, 8)
    monkeypatch.setattr(uhlmann, "PATH_POINTS_START", 4)
    monkeypatch.setattr(uhlmann, "PATH_POINTS_CAP", 4)
    coarse, fine = (mt.uhlmann_phase_profile(qwz, beta, 0.0, "x", grid.ky_values(), m)
                    for m in (2, 4))
    steps = np.abs(fine.jumps())
    two_e = 2 * np.abs(mt.principal_branch(fine.phases - coarse.phases)).max() / 3
    assert steps.max() + two_e >= np.pi - JUMP_MARGIN
    [report] = mt.uhlmann_temperature_scan(qwz, 0.0, [1.0 / beta], grid, n_cells=6)
    assert report.cx_uhlmann is report.cy_uhlmann is report.uhlmann_path_points is None
    assert report.status.startswith(
        f"uhlmann: Uhlmann x path unresolved at 4 points (cap 4): max step {steps.max():.3f} "
        f"+ 2e {two_e:.3e} rad >= pi - {JUMP_MARGIN} at "
        f"transverse_k={grid.ky_values()[steps.argmax()]:.6f}: winding not certified")


def test_windings_stop_where_only_the_transverse_grid_can_certify(qwz, qwz_gap, monkeypatch):
    """On 5 lines at T = 0.478 gap the y profile steps 3.094 rad: no path can certify it, so
    the winding raises at its first 32 points instead of doubling to the cap; each
    direction diagonalizes its 5 x 32 points once, 16 and 16 new odd points."""
    counts = _count_uhlmann_eigh(monkeypatch)
    beta = 1.0 / (np.geomspace(0.15, 0.8, 14)[9] * qwz_gap)
    with pytest.raises(mt.UnderResolvedError,
                       match=r"^Uhlmann y profile at 32 points: max step 3\.094 .* "
                             r"only a finer transverse grid can certify the winding$"):
        mt.uhlmann_windings(qwz, beta, 0.0, mt.MomentumGrid(5, 5))
    assert _matrices_per_call(counts) == [5 * 16] * 4


def test_scan_windings_do_not_depend_on_the_start_path(qwz, monkeypatch):
    """The recipe's 48 temperatures on a 32^2 grid: starting the certificate at 16, 32 or 64
    path points gives the same Uhlmann windings and row statuses, each row certified at the
    start or, from 16 points, one doubling later."""
    grid = mt.MomentumGrid(32, 32)
    temperatures = np.geomspace(0.01, 100, 48) * mt.band_gap(qwz, grid, 0.0)
    rows = {}
    for start in (16, 32, 64):
        monkeypatch.setattr(uhlmann, "PATH_POINTS_START", start)
        reports = mt.uhlmann_temperature_scan(qwz, 0.0, temperatures, grid, n_cells=10,
                                              egp_transverse=128)
        rows[start] = [(r.cx_uhlmann, r.cy_uhlmann, r.status) for r in reports]
        assert {r.uhlmann_path_points for r in reports} <= {start, 2 * start}
    assert rows[16] == rows[32] == rows[64]
    assert all(status == "ok" for _, _, status in rows[32])


def test_windings_refine_past_a_failed_link_check(qwz, qwz_gap, monkeypatch):
    """A pass whose links fail LINK_IDENTITY_MAX is not converged yet: it doubles."""
    beta = 1.0 / (0.02 * qwz_gap)
    with pytest.raises(mt.UnderResolvedError, match="link deviates"):
        loop_phase(qwz, beta, 0.0, "x", 0.0, 4)
    monkeypatch.setattr(uhlmann, "PATH_POINTS_START", 4)
    assert mt.uhlmann_windings(qwz, beta, 0.0, mt.MomentumGrid(8, 8)) == (1, 1)
    _, used = cauchy_phases(qwz, beta, 0.0, "x", [0.0], 4)
    assert used > 4


def test_ground_state_chern(qwz):
    assert mt.ground_state_chern(qwz, 0.0, mt.MomentumGrid(24, 24)) == 1


@pytest.mark.parametrize("mirrored, chern", [(False, 2), (True, 0)])
def test_ground_state_chern_of_two_filled_bands(monkeypatch, mirrored, chern):
    """Two coupled qwz layers fill two bands at mu = 0: the plaquette links are the
    determinants of 2 x 2 overlaps, one det call per link direction."""
    det, calls = np.linalg.det, []

    def counting_det(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    assert mt.ground_state_chern(layered_qwz(mirrored), 0.0, mt.MomentumGrid(32, 32)) == chern
    assert calls == [(32, 32, 2, 2)] * 2


@pytest.mark.parametrize("mirrored, chern", [(False, 2), (True, 0)])
def test_ground_state_chern_of_uncoupled_layers_is_their_sum(mirrored, chern):
    """At coupling 0 the two-band frame is the direct sum of the layers' lower bands, and
    its plaquette Chern number is the sum of theirs: 1 + 1, or 1 - 1 for h(-k)*."""
    qwz, grid = mt.qwz_model(), mt.MomentumGrid(32, 32)
    kxs, kys = grid.mesh()
    second = qwz.matrix(-kxs, -kys).conj() if mirrored else qwz.matrix(kxs, kys)
    per_layer = [mt.chern_number(mt.berry_curvature_plaquette(mt.band_systems(h)[1][..., 0]))
                 for h in (qwz.matrix(kxs, kys), second)]
    assert per_layer == ([1, -1] if mirrored else [1, 1])
    model = layered_qwz(mirrored, coupling=0.0)
    assert mt.ground_state_chern(model, 0.0, grid) == sum(per_layer) == chern


def test_windings_say_when_the_phase_is_pinned():
    """The time-reversed pair of layers at T = 0.05 gap: every x phase is 0 or pi, so the
    profile steps by pi on any grid, and the error says the winding is undefined instead
    of asking for a finer transverse grid."""
    model, grid = layered_qwz(mirrored=True), mt.MomentumGrid(32, 32)
    beta = 1.0 / (0.05 * mt.band_gap(model, grid, 0.0))
    profile = mt.uhlmann_phase_profile(model, beta, 0.0, "x", grid.ky_values(), 32)
    assert np.abs(np.sin(profile.phases)).max() < 1e-12
    with pytest.raises(mt.UnderResolvedError) as exc:
        mt.uhlmann_windings(model, beta, 0.0, grid)
    found = re.fullmatch(r"Uhlmann x profile at 32 points: phase pinned to 0 or pi "
                         r"\(max \|sin phi\| = (\S+)\), stepping by 3\.142 rad at "
                         r"transverse_k=(\S+): winding undefined", str(exc.value))
    assert found, str(exc.value)
    assert float(found[1]) < 1e-12
    worst = np.abs(grid.ky_values() - float(found[2])).argmin()
    assert abs(grid.ky_values()[worst] - float(found[2])) < 1e-6
    assert abs(profile.jumps()[worst]) > np.pi - JUMP_MARGIN


@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("t_over_gap", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("mirrored", [False, True])
def test_four_band_profile_matches_matmul_oracle(mirrored, t_over_gap, direction):
    """p = 4 loops take the LAPACK eigensolver and the SVD polar factor; their phases equal
    the matmul oracle's on np.linalg.eigh spectra, 8 lines of 32 points."""
    model = layered_qwz(mirrored)
    beta = 1.0 / (t_over_gap * mt.band_gap(model, mt.MomentumGrid(32, 32), 0.0))
    transverse, along = mt.momentum_line(8)[:, None], mt.momentum_line(32)[None, :]
    profile = mt.uhlmann_phase_profile(model, beta, 0.0, direction, transverse[:, 0], 32)
    kx, ky = (along, transverse) if direction == "x" else (transverse, along)
    energies, vectors = np.linalg.eigh(model.matrix(kx, ky))
    _, phases, _, _ = transport(vectors, mt.boltzmann_weights(energies, beta, 0.0))
    assert np.abs(mt.principal_branch(profile.phases - phases)).max() <= 1e-10


def test_four_band_scan():
    """The C = 2 pair of layers through the scan: LAPACK eigensolver, SVD polar factor and
    two-band `det` links. The Uhlmann windings tend to the lowest band's C = 1 when cold
    and vanish when hot, each row certified at 32 points; the EGP on 128 lines gives
    C_ground = 2 on every row. On the default 32 EGP lines the profiles are under-resolved
    between their samples: a row may fail, but may not report another EGP integer."""
    model, grid = layered_qwz(mirrored=False), mt.MomentumGrid(32, 32)
    temperatures = np.array([0.05, 0.2, 1.0, 20.0]) * mt.band_gap(model, grid, 0.0)
    reports = mt.uhlmann_temperature_scan(model, 0.0, temperatures, grid, n_cells=10,
                                          egp_transverse=128)
    assert [(r.cx_uhlmann, r.cy_uhlmann) for r in reports] == [(1, 1), (1, 1), (0, 0), (0, 0)]
    assert [(r.cx_egp, r.cy_egp, r.c_ground) for r in reports] == [(2, 2, 2)] * 4
    assert [(r.status, r.uhlmann_path_points) for r in reports] == [("ok", 32)] * 4
    coarse = mt.uhlmann_temperature_scan(model, 0.0, temperatures, grid, n_cells=10)
    assert all((r.cx_egp, r.cy_egp) in {(2, 2), (None, None)} for r in coarse)


def test_ground_state_chern_rejects_metal(qwz):
    # mu = 2 cuts the upper band: the filled count changes across the grid
    with pytest.raises(mt.GapError, match=r"occupation count changes at k=\("):
        mt.ground_state_chern(qwz, 2.0, mt.MomentumGrid(16, 16))


def test_temperature_scan_structure(qwz, qwz_gap):
    grid = mt.MomentumGrid(12, 12)
    temps = np.array([0.05, 0.5, 5.0]) * qwz_gap
    reports = mt.uhlmann_temperature_scan(qwz, 0.0, temps, grid, n_cells=6)
    assert len(reports) == 3
    for r in reports:
        assert r.c_ground == 1
        assert r.status == "ok"
        assert r.cx_egp == r.cy_egp == 1
        assert r.beta == pytest.approx(1.0 / r.temperature)
    assert reports[0].cx_uhlmann == reports[0].cy_uhlmann == 1
    assert reports[-1].cx_uhlmann == reports[-1].cy_uhlmann == 0
