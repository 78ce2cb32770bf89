import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedtopo as mt
from conftest import random_hermitian
from mixedtopo.model import band_systems

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_qwz_d_vector_reference_points():
    assert np.allclose(mt.qwz_d_vector(0.0, 0.0), [0.0, 0.0, -1.0])
    assert np.allclose(mt.qwz_d_vector(np.pi, np.pi), [0.0, 0.0, 3.0], atol=1e-15)
    # direct substitution: dz = 1 - cos(pi/2) - cos(0) = 0
    assert np.allclose(mt.qwz_d_vector(np.pi / 2, 0.0), [1.0, 0.0, 0.0], atol=1e-15)


def test_qwz_d_vector_defaults_are_asymmetric():
    d = mt.qwz_d_vector(0.3, 0.3)
    assert d[1] == pytest.approx(3 * np.sin(0.3))
    assert d[0] == pytest.approx(np.sin(0.3))


def test_bloch_matrix_from_d_paulis():
    assert np.array_equal(mt.bloch_matrix_from_d((0, 0, 1)), np.diag([1.0, -1.0]))
    assert np.array_equal(mt.bloch_matrix_from_d((1, 0, 0)),
                          np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(mt.bloch_matrix_from_d((0, 1, 0)),
                          np.array([[0, -1j], [1j, 0]]))


def test_band_system_sigma_z():
    energies, states = band_systems(np.diag([1.0, -1.0]).astype(complex))
    assert np.allclose(energies, [-1.0, 1.0])
    assert np.allclose(states[:, 0], [0.0, 1.0])
    assert np.allclose(states[:, 1], [1.0, 0.0])


@given(dx=angles, dy=angles, dz=angles)
def test_band_system_d_sigma_spectrum(dx, dy, dz):
    d = np.array([dx, dy, dz])
    energies, _ = band_systems(mt.bloch_matrix_from_d(d))
    r = np.linalg.norm(d)
    assert np.allclose(energies, [-r, r], atol=1e-10)


def test_band_system_qwz_origin(qwz):
    energies, _ = band_systems(qwz.matrix(0.0, 0.0))
    assert np.allclose(energies, [-1.0, 1.0])


def test_band_system_residual_and_unitarity(qwz):
    h = qwz.matrix(0.7, -1.1)
    energies, states = band_systems(h)
    assert np.abs(states.conj().T @ states - np.eye(2)).max() <= 1e-10
    for n in range(2):
        res = h @ states[:, n] - energies[n] * states[:, n]
        assert np.abs(res).max() <= 1e-10


def test_band_system_gauge_pivot_real_positive(qwz):
    _, states = band_systems(qwz.matrix(0.4, 2.2))
    for n in range(2):
        pivot = states[np.argmax(np.abs(states[:, n])), n]
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0


def test_band_system_bitwise_deterministic(qwz):
    h = qwz.matrix(1.234, -0.567)
    energies_a, states_a = band_systems(h)
    energies_b, states_b = band_systems(h)
    assert np.array_equal(states_a, states_b)
    assert np.array_equal(energies_a, energies_b)


def test_band_system_rejects_non_hermitian():
    with pytest.raises(mt.NonHermitianError):
        band_systems(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@given(kx=angles, ky=angles)
def test_qwz_hermitian_and_periodic(kx, ky, qwz):
    h = qwz.matrix(kx, ky)
    assert np.abs(h - h.conj().T).max() <= 1e-12
    assert np.abs(h - qwz.matrix(kx + 2 * np.pi, ky)).max() <= 1e-12
    assert np.abs(h - qwz.matrix(kx, ky + 2 * np.pi)).max() <= 1e-12


def test_momentum_grid_samples():
    g = mt.MomentumGrid(4, 8)
    assert np.allclose(g.kx_values(), [-np.pi, -np.pi / 2, 0.0, np.pi / 2])
    assert len(g.ky_values()) == 8
    assert g.ky_values()[0] == -np.pi
    with pytest.raises(ValueError):
        mt.MomentumGrid(1, 8)


def test_wrap_momentum():
    assert mt.wrap_momentum(np.pi) == pytest.approx(-np.pi)
    assert mt.wrap_momentum(0.3 + 2 * np.pi) == pytest.approx(0.3)
    assert -np.pi <= mt.wrap_momentum(123.456) < np.pi


def test_band_gap_qwz_is_two(qwz):
    grid = mt.MomentumGrid(64, 64)
    gap = mt.band_gap(qwz, grid, 0.0)
    # independent oracle: dense minimization of 2|d(k)| over the same grid
    best = min(2 * np.linalg.norm(mt.qwz_d_vector(kx, ky))
               for kx in grid.kx_values() for ky in grid.ky_values())
    assert gap == pytest.approx(best, abs=1e-12)
    assert gap == pytest.approx(2.0, abs=1e-9)


def test_band_gap_flat_model(atomic):
    assert mt.band_gap(atomic, mt.MomentumGrid(8, 8), 0.0) == pytest.approx(2.0)


def test_band_gap_mu_inside_band(qwz):
    grid = mt.MomentumGrid(64, 64)
    # oracle: mu = 1.5 intersects the upper band |d| range
    mags = [np.linalg.norm(mt.qwz_d_vector(kx, ky))
            for kx in grid.kx_values() for ky in grid.ky_values()]
    assert min(mags) < 1.5 < max(mags)
    with pytest.raises(mt.GapError, match=r"k=\("):
        mt.band_gap(qwz, grid, 1.5)


def test_band_gap_mu_outside_spectrum(qwz):
    with pytest.raises(mt.GapError):
        mt.band_gap(qwz, mt.MomentumGrid(16, 16), -10.0)


def test_tabulated_model_roundtrip(qwz):
    grid = mt.MomentumGrid(6, 6)
    values = np.stack([
        np.stack([qwz.matrix(kx, ky) for ky in grid.ky_values()])
        for kx in grid.kx_values()])
    tab = mt.tabulated_model(grid, values)
    kx, ky = grid.kx_values()[2], grid.ky_values()[4]
    assert np.array_equal(tab.matrix(kx, ky), qwz.matrix(kx, ky))
    with pytest.raises(ValueError):
        tab.matrix(0.1234, ky)


def test_degenerate_eigenvalues_allowed_in_solver():
    energies, states = band_systems(np.zeros((3, 3), dtype=complex))
    assert np.allclose(energies, 0.0)
    assert np.abs(states.conj().T @ states - np.eye(3)).max() <= 1e-10


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_hermitian_band_systems_orthonormal(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 4)
    energies, states = band_systems(h)
    assert np.all(np.diff(energies) >= 0)
    assert np.abs(states.conj().T @ states - np.eye(4)).max() <= 1e-10


def test_boltzmann_weights_over_a_temperature_axis(qwz):
    """An array of betas adds a leading axis whose rows equal the one-beta weights bitwise;
    the first beta whose weights underflow is the one named."""
    energies = np.linalg.eigvalsh(qwz.matrix(*mt.MomentumGrid(6, 6).mesh()))
    betas = np.array([0.1, 2.0, 30.0])
    weights = mt.boltzmann_weights(energies, betas, 0.0)
    assert weights.shape == (3,) + energies.shape
    for row, beta in zip(weights, betas):
        assert np.array_equal(row, mt.boltzmann_weights(energies, beta, 0.0))
    with pytest.raises(mt.RankDeficiencyError, match=r"underflowed at beta = 500: "):
        mt.boltzmann_weights(energies, np.array([2.0, 500.0, 600.0]), 0.0)
    with pytest.raises(mt.RankDeficiencyError, match=r"^beta = inf"):
        mt.boltzmann_weights(energies, np.array([2.0, np.inf]), 0.0)


def test_fermi_weights_over_a_temperature_axis(qwz):
    """An array of betas adds a leading axis whose rows equal the one-beta occupations
    bitwise, beta = inf included; an eigenvalue at mu refuses only an array with inf."""
    energies = np.linalg.eigvalsh(qwz.matrix(*mt.MomentumGrid(6, 6).mesh()))
    betas = np.array([0.1, 2.0, 800.0, np.inf])
    occupations = mt.fermi_weights(energies, betas, 0.0)
    assert occupations.shape == (4,) + energies.shape
    for row, beta in zip(occupations, betas):
        assert np.array_equal(row, mt.fermi_weights(energies, beta, 0.0))
    assert np.array_equal(occupations[-1], (energies < 0.0).astype(float))
    mu = energies[0, 0, 0]
    assert np.isfinite(mt.fermi_weights(energies, betas[:3], mu)).all()
    with pytest.raises(mt.GapError, match=r"^beta = inf with an eigenvalue within 1e-09 of mu="):
        mt.fermi_weights(energies, betas, mu)
