import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedtopo as mt
from conftest import random_hermitian
from mixedtopo.model import _eigh, band_systems

EPS = np.finfo(float).eps

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


# ------------------------------------------------------------ _eigh against LAPACK

def _exact_energies(hs: np.ndarray) -> list:
    """(a - r, a + r, |a| + r) of each 2 x 2 Hermitian matrix in 60-digit decimals."""
    out = []
    with localcontext() as context:
        context.prec = 60
        for h in hs.reshape(-1, 2, 2):
            top, bottom = Decimal(h[0, 0].real), Decimal(h[1, 1].real)
            re, im = Decimal(h[1, 0].real), Decimal(h[1, 0].imag)
            mean, dz = (top + bottom) / 2, (top - bottom) / 2
            r = (dz * dz + re * re + im * im).sqrt()
            out.append((mean - r, mean + r, abs(mean) + r))
    return out


def _assert_eigh_oracle(hs: np.ndarray):
    """_eigh(hs) is an eigendecomposition as accurate as np.linalg.eigh's.

    Energies ascend and lie within 4 eps ||h|| of the exact ones. Against
    eigvalsh the bound is 8 eps ||h||: LAPACK's own 2 x 2 energies are off the
    exact ones by up to 6 eps ||h|| on random matrices. ||hV - VE|| <= 8 eps ||h||
    and ||V^dag V - 1|| <= 1e-14, with ||h|| the spectral norm.
    """
    energies, vectors = _eigh(hs)
    assert energies.shape == hs.shape[:-1] and vectors.shape == hs.shape
    assert (np.diff(energies, axis=-1) >= 0).all()
    with localcontext() as context:
        context.prec = 60
        for (low, high), (exact_low, exact_high, norm) in zip(energies.reshape(-1, 2),
                                                              _exact_energies(hs)):
            bound = 4 * Decimal(EPS) * norm
            assert abs(Decimal(low) - exact_low) <= bound
            assert abs(Decimal(high) - exact_high) <= bound
    norm = np.abs(np.linalg.eigvalsh(hs)).max(axis=-1, keepdims=True)
    assert (np.abs(energies - np.linalg.eigvalsh(hs)) <= 8 * EPS * norm).all()
    residual = np.linalg.norm(hs @ vectors - vectors * energies[..., None, :], axis=(-2, -1))
    assert (residual <= 8 * EPS * norm[..., 0]).all()
    gram = np.swapaxes(vectors.conj(), -1, -2) @ vectors
    assert np.abs(gram - np.eye(2)).max(initial=0.0) <= 1e-14


@given(shape=st.lists(st.integers(min_value=0, max_value=3), max_size=3),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       exponent=st.integers(min_value=-40, max_value=40),
       shift=st.sampled_from([0.0, 1.0, -1e3]),
       split=st.sampled_from([1.0, 1e-9, 0.0]))
def test_eigh_closed_form_matches_lapack(shape, seed, exponent, shift, split):
    """Random 2 x 2 Hermitian stacks of any batch shape: a shifted, scaled d . sigma
    whose d may be small (near-degenerate) or zero (a multiple of the identity)."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(3, *shape)) * split
    hs = (mt.bloch_matrix_from_d(d) + (shift + rng.normal(size=shape))[..., None, None]
          * np.eye(2)) * 2.0 ** exponent
    _assert_eigh_oracle(hs)


@pytest.mark.parametrize("h", [
    np.zeros((2, 2)),
    3.0 * np.eye(2),
    -2.5 * np.eye(2),
    np.diag([0.0, -0.0]),  # dz = +0.0
    np.diag([-0.0, 0.0]),  # dz = -0.0
    np.diag([-1.0, 2.0]),  # dz < 0
    np.diag([2.0, -1.0]),  # dz > 0
], ids=["zero", "identity", "negative_identity", "dz_plus_zero", "dz_minus_zero",
        "dz_negative", "dz_positive"])
def test_eigh_closed_form_diagonal_cases(h):
    """Diagonal input: LAPACK's energies exactly, and each column its unit vector up to a
    sign; at r = 0 (dz = +-0.0 and no b) the basis is the identity."""
    h = h.astype(complex)
    energies, vectors = _eigh(h)
    assert np.array_equal(energies, np.linalg.eigvalsh(h))
    assert np.array_equal(np.abs(vectors), np.abs(np.linalg.eigh(h)[1]))
    if h[0, 0] == h[1, 1]:
        assert np.array_equal(vectors, np.eye(2))
    _assert_eigh_oracle(h)


@pytest.mark.parametrize("b", [5e-324, 5e-324j, 1e-310 * (1 + 1j), 3e-320 - 7e-321j])
@pytest.mark.parametrize("diagonal", [(1.0, 1.0), (1.0, 1.0 + EPS), (0.5, -0.25)])
def test_eigh_closed_form_subnormal_coupling(b, diagonal):
    """A subnormal |b| keeps the vectors orthonormal: (b, dz) is scaled before its norm."""
    h = np.array([[diagonal[0], np.conj(b)], [b, diagonal[1]]])
    _assert_eigh_oracle(h)
    energies, vectors = _eigh(np.array([[0.0, np.conj(b)], [b, 0.0]]))
    assert np.array_equal(energies, [-abs(b), abs(b)])
    assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() <= 1e-14


@pytest.mark.parametrize("scale", [2.0 ** 996, 2.0 ** -997])  # about 6.7e299 and 7.5e-301
def test_eigh_closed_form_near_the_float_limits(scale):
    """Entries near 1e+-300 give no RuntimeWarning, energies that scale exactly and the
    vectors of the unscaled stack, bit for bit."""
    rng = np.random.default_rng(7)
    hs = np.stack([random_hermitian(rng, 2) for _ in range(64)] + [np.eye(2), np.diag([1, -1])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies, vectors = _eigh(hs * scale)
    reference_energies, reference_vectors = _eigh(hs)
    assert np.array_equal(energies, reference_energies * scale)
    assert np.array_equal(vectors, reference_vectors)
    _assert_eigh_oracle(hs)


def test_eigh_closed_form_at_the_largest_float():
    """h00 - h11 would overflow at +-2^1023; the halves taken first do not."""
    top = 2.0 ** 1023
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies, vectors = _eigh(np.diag([top, -top]).astype(complex))
    assert np.array_equal(energies, [-top, top])
    assert np.array_equal(np.abs(vectors), [[0, 1], [1, 0]])


def test_eigh_other_p_goes_to_lapack(monkeypatch):
    """p = 3 (and p = 1) is np.linalg.eigh's result itself; p = 2 makes no LAPACK call."""
    calls = []
    lapack = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return lapack(a, *args, **kwargs)

    rng = np.random.default_rng(3)
    stacks = [np.stack([random_hermitian(rng, p) for _ in range(5)]) for p in (3, 1)]
    monkeypatch.setattr(np.linalg, "eigh", counting)
    _eigh(np.stack([random_hermitian(rng, 2) for _ in range(5)]))
    assert calls == []
    for hs in stacks:
        got, expected = _eigh(hs), lapack(hs)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert calls == [(5, 3, 3), (5, 1, 1)]


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
