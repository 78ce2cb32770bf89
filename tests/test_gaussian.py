import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedtopo as mt
from chain_oracle import chain_correlation_matrix, correlation_from_hfict_line
from conftest import random_hermitian
from mixedtopo.gaussian import _fermi_lines, hfict_lines
from mixedtopo.model import _LineSpectra, line_momenta

SZ = np.diag([1.0, -1.0]).astype(complex)


def sigma_z_model():
    return mt.atomic_model((0.0, 0.0, 1.0))


def test_g_matrix_examples():
    spec = mt.GaussianStateSpec.thermal(2.0, 0.0, sigma_z_model())
    assert np.allclose(mt.g_matrix(spec, 0.1, 0.2), np.diag([2.0, -2.0]))
    spec = mt.GaussianStateSpec.thermal(1.0, 0.5, sigma_z_model())
    assert np.allclose(mt.g_matrix(spec, 0.0, 0.0), np.diag([0.5, -1.5]))


def test_g_matrix_small_beta_limit():
    spec = mt.GaussianStateSpec.thermal(1e-14, 0.0, sigma_z_model())
    assert np.abs(mt.g_matrix(spec, 0.0, 0.0)).max() < 1e-13


def test_g_matrix_rejects_pure():
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, sigma_z_model())
    with pytest.raises(ValueError):
        mt.g_matrix(spec, 0.0, 0.0)


def test_fictitious_small_beta_is_half_identity(qwz):
    spec = mt.GaussianStateSpec.thermal(1e-12, 0.0, qwz)
    assert np.abs(mt.fictitious_hamiltonian(spec, 0.3, -0.7) - 0.5 * np.eye(2)).max() < 1e-12


def test_fictitious_scalar_is_fermi_function():
    eps = 0.7
    model = mt.BlochModel(p=1, evaluator=lambda kx, ky: np.array([[eps]], dtype=complex))
    spec = mt.GaussianStateSpec.thermal(2.5, 0.2, model)
    expected = 1.0 / (np.exp(2.5 * (eps - 0.2)) + 1.0)
    assert mt.fictitious_hamiltonian(spec, 0.0, 0.0)[0, 0] == pytest.approx(expected)


def test_fictitious_pure_sigma_z_projector():
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, sigma_z_model())
    assert np.allclose(mt.fictitious_hamiltonian(spec, 0.0, 0.0), np.diag([0.0, 1.0]))


def test_fictitious_transpose_convention(qwz):
    """The covariance is the transpose (= conjugate) of the spectral Fermi matrix."""
    beta, mu, kx, ky = 1.3, 0.0, 0.6, -1.2
    spec = mt.GaussianStateSpec.thermal(beta, mu, qwz)
    w, v = np.linalg.eigh(qwz.matrix(kx, ky))
    fermi_matrix = (v * (1 / (np.exp(beta * (w - mu)) + 1))) @ v.conj().T
    hf = mt.fictitious_hamiltonian(spec, kx, ky)
    assert np.abs(hf - fermi_matrix.T).max() < 1e-14
    assert np.abs(hf - fermi_matrix).max() > 1e-3  # the transpose genuinely matters


def test_fictitious_pure_gapless_error(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 1.0, qwz)
    # at k = (0, 0) the spectrum is (-1, 1): mu = 1 sits on an eigenvalue
    with pytest.raises(mt.GapError):
        mt.fictitious_hamiltonian(spec, 0.0, 0.0)


def test_fictitious_pure_idempotent(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    for kx, ky in [(0.1, 0.2), (-2.0, 1.3)]:
        hf = mt.fictitious_hamiltonian(spec, kx, ky)
        assert np.abs(hf @ hf - hf).max() <= 1e-10


def test_fictitious_large_beta_matches_projector(qwz, qwz_gap):
    beta = 60.0 / qwz_gap
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    pure = spec.pure_limit()
    for kx, ky in [(0.1, 0.2), (2.1, -0.9), (-np.pi, np.pi / 2)]:
        diff = np.abs(mt.fictitious_hamiltonian(spec, kx, ky)
                      - mt.fictitious_hamiltonian(pure, kx, ky)).max()
        assert diff <= 1e-12


@given(kx=st.floats(-np.pi, np.pi), ky=st.floats(-np.pi, np.pi),
       beta=st.floats(0.01, 50.0))
def test_thermal_commutation(kx, ky, beta, qwz):
    """[h, hfict^T] = 0: thermal covariance shares the Bloch eigenbasis."""
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    h = qwz.matrix(kx, ky)
    hf_t = mt.fictitious_hamiltonian(spec, kx, ky).T
    comm = h @ hf_t - hf_t @ h
    assert np.abs(comm).max() <= 1e-10


@given(seed=st.integers(0, 10 ** 6), beta=st.floats(0.01, 100.0))
def test_occupation_bounds_random_models(seed, beta):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 3)
    model = mt.BlochModel(p=3, evaluator=lambda kx, ky: h)
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, model)
    occ = np.linalg.eigvalsh(mt.fictitious_hamiltonian(spec, 0.0, 0.0))
    assert occ.min() >= -1e-10
    assert occ.max() <= 1 + 1e-10


def test_chain_correlation_flat_model():
    beta, n = 1.7, 5
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, sigma_z_model())
    corr = chain_correlation_matrix(spec, "x", 0.3, n)
    f_up = 1 / (np.exp(beta) + 1)      # orbital 1 at energy +1
    f_dn = 1 / (np.exp(-beta) + 1)     # orbital 2 at energy -1, occupied-heavy
    expected_cell = np.diag([f_up, f_dn])
    for j in range(n):
        block = corr[2 * j:2 * j + 2, 2 * j:2 * j + 2]
        assert np.abs(block - expected_cell).max() < 1e-12
    off = corr.copy()
    for j in range(n):
        off[2 * j:2 * j + 2, 2 * j:2 * j + 2] = 0
    assert np.abs(off).max() < 1e-12


def test_chain_correlation_trace_identity(qwz):
    spec = mt.GaussianStateSpec.thermal(0.8, 0.1, qwz)
    n = 6
    corr = chain_correlation_matrix(spec, "y", 0.7, n)
    occ_sum = sum(np.linalg.eigvalsh(mt.fictitious_hamiltonian(spec, 0.7, k)).sum()
                  for k in mt.momentum_line(n))
    assert np.trace(corr).real == pytest.approx(occ_sum, abs=1e-10)
    assert abs(np.trace(corr).imag) < 1e-12


def _brute_force_chain_matrix(spec, direction, transverse_k, n):
    """Independent oracle: explicit per-k construction with python loops."""
    p = spec.p
    out = np.zeros((n * p, n * p), dtype=complex)
    for k in mt.momentum_line(n):
        kx, ky = (k, transverse_k) if direction == "x" else (transverse_k, k)
        w, v = np.linalg.eigh(spec.model.matrix(kx, ky))
        occ_matrix = ((v * (1 / (np.exp(spec.beta * (w - spec.mu)) + 1))) @ v.conj().T).T
        for j in range(n):
            for jp in range(n):
                out[j * p:(j + 1) * p, jp * p:(jp + 1) * p] += (
                    np.exp(-1j * k * (j - jp)) / n) * occ_matrix
    return out


def _dft_chain_matrix(spec, direction, transverse_k, n):
    """Second oracle: dense DFT conjugation of the tabulated hfict blocks."""
    p = spec.p
    ks = mt.momentum_line(n)
    blocks = np.zeros((n, p, p), dtype=complex)
    for i, k in enumerate(ks):
        kx, ky = (k, transverse_k) if direction == "x" else (transverse_k, k)
        blocks[i] = mt.fictitious_hamiltonian(spec, kx, ky)
    f = np.exp(-1j * np.outer(np.arange(n), ks)) / np.sqrt(n)  # f[j, k]
    big = np.kron(f, np.eye(p)) @ _block_diag(blocks) @ np.kron(f, np.eye(p)).conj().T
    return big


def _block_diag(blocks):
    n, p, _ = blocks.shape
    out = np.zeros((n * p, n * p), dtype=complex)
    for i in range(n):
        out[i * p:(i + 1) * p, i * p:(i + 1) * p] = blocks[i]
    return out


def test_chain_correlation_qwz_against_oracles(qwz):
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    corr = chain_correlation_matrix(spec, "x", 0.0, 4)
    brute = _brute_force_chain_matrix(spec, "x", 0.0, 4)
    dft = _dft_chain_matrix(spec, "x", 0.0, 4)
    assert np.abs(corr - brute).max() <= 1e-10
    assert np.abs(corr - dft).max() <= 1e-10


def test_chain_correlation_translation_invariance(qwz):
    spec = mt.GaussianStateSpec.thermal(2.0, 0.0, qwz)
    n, p = 6, 2
    m = chain_correlation_matrix(spec, "x", 1.1, n)
    for j in range(n - 1):
        b1 = m[j * p:(j + 1) * p, (j + 1) * p:(j + 2) * p]
        b2 = m[(j + 1) * p:(j + 2) * p, (j + 2) % n * p:((j + 2) % n + 1) * p]
        assert np.abs(b1 - b2).max() <= 1e-12


def test_chain_correlation_spectrum_bounds(qwz):
    spec = mt.GaussianStateSpec.thermal(3.0, 0.0, qwz)
    corr = chain_correlation_matrix(spec, "x", 0.5, 8)
    occ = np.linalg.eigvalsh(corr)
    assert occ.min() >= -1e-10 and occ.max() <= 1 + 1e-10


def test_chain_correlation_pure_state(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    corr = chain_correlation_matrix(spec, "x", np.pi / 3, 6)
    occ = np.linalg.eigvalsh(corr)
    assert np.allclose(np.sort(occ), [0] * 6 + [1] * 6, atol=1e-10)


def _direct_fourier_correlation(line):
    """Reference: the Fourier sum through an (N, N, N) phase tensor."""
    n, p = line.shape[0], line.shape[-1]
    ks = mt.momentum_line(n)
    j = np.arange(n)
    phases = np.exp(-1j * np.subtract.outer(j, j)[:, :, None] * ks[None, None, :])
    blocks = np.tensordot(phases, line, axes=([2], [0])) / n  # (n, n, p, p)
    return blocks.transpose(0, 2, 1, 3).reshape(n * p, n * p)


@pytest.mark.parametrize("n", [2, 3, 6, 7, 16])
@pytest.mark.parametrize("p", [1, 3])
def test_correlation_build_matches_direct_fourier_sum(p, n):
    rng = np.random.default_rng(10 * n + p)
    line = np.stack([random_hermitian(rng, p) for _ in range(n)])
    got = correlation_from_hfict_line(line)
    assert np.abs(got - _direct_fourier_correlation(line)).max() <= 1e-13


def test_tabulated_profile_reuses_construction_gap_check(qwz, monkeypatch):
    hgrid = mt.fictitious_grid(mt.GaussianStateSpec.thermal(1.0, 0.0, qwz), mt.MomentumGrid(8, 6))
    spec = mt.GaussianStateSpec.from_grid(hgrid)
    eigvalsh = np.linalg.eigvalsh
    assert hgrid.half_margin() == np.abs(eigvalsh(hgrid.values) - 0.5).min()
    calls = []

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    mt.egp_profile(spec, "x", None, 6)
    mt.egp_profile(spec, "y", None, 8)
    assert calls == []


def test_hfict_grid_file_roundtrip(tmp_path, qwz):
    spec = mt.GaussianStateSpec.thermal(1.5, 0.0, qwz)
    grid = mt.MomentumGrid(4, 3)
    hgrid = mt.fictitious_grid(spec, grid)
    path = tmp_path / "state.dat"
    mt.save_matrix_grid(path, hgrid.grid, hgrid.values)
    loaded = mt.FictitiousHamiltonianGrid(*mt.load_matrix_grid(path))
    assert loaded.grid == hgrid.grid
    assert np.abs(loaded.values - hgrid.values).max() == 0.0


@pytest.mark.parametrize("beta", [0.3, 2.0, math.inf])
@pytest.mark.parametrize("direction", ["x", "y"])
def test_thermal_hfict_lines_equal_fictitious_hamiltonian(qwz, direction, beta):
    """hfict_lines and the line-spectrum cache the scan shares give bit for bit the
    hfict of one eigh over the same mesh."""
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    transverse = mt.momentum_line(7) + 0.05
    cache = _LineSpectra(qwz, direction, transverse)
    for n_cells in (2, 9, 16):
        kxs, kys = line_momenta(direction, mt.momentum_line(n_cells)[None, :],
                                transverse[:, None])
        expected = mt.fictitious_hamiltonian(spec, kxs, kys).tobytes()
        lines = hfict_lines(spec, direction, transverse, n_cells)
        assert lines.shape == (7, n_cells, 2, 2)
        assert lines.tobytes() == expected
        assert _fermi_lines(cache, n_cells, beta, 0.0).tobytes() == expected


def test_tabulated_spec_matches_thermal(qwz):
    beta = 1.2
    thermal = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    n = 6
    tab = mt.GaussianStateSpec.from_grid(mt.fictitious_grid(thermal, mt.MomentumGrid(n, n)))
    tk = mt.momentum_line(n)[2]
    a = chain_correlation_matrix(thermal, "x", tk, n)
    b = chain_correlation_matrix(tab, "x", tk, n)
    assert np.abs(a - b).max() <= 1e-12


def test_tabulated_spec_rejects_mismatched_chain(qwz):
    tab = mt.GaussianStateSpec.from_grid(
        mt.fictitious_grid(mt.GaussianStateSpec.thermal(1.0, 0.0, qwz), mt.MomentumGrid(6, 6)))
    with pytest.raises(ValueError):
        hfict_lines(tab, "x", [0.0], 5)
    with pytest.raises(ValueError):
        hfict_lines(tab, "x", [0.1234], 6)  # off-grid transverse k


@pytest.mark.parametrize("direction, stored, transverse_count", [("x", 6, 5), ("y", 5, 6)])
def test_tabulated_spec_fixes_chain_length(qwz, direction, stored, transverse_count):
    """The stored grid fixes n_cells; every entry point refuses another length
    with the one error naming the stored length."""
    tab = mt.GaussianStateSpec.from_grid(
        mt.fictitious_grid(mt.GaussianStateSpec.thermal(1.0, 0.0, qwz), mt.MomentumGrid(6, 5)))
    transverse_k = mt.momentum_line(transverse_count)[1]
    wrong = stored + 1
    message = f"tabulated spec fixes n_cells = {stored} for {direction} chains"
    with pytest.raises(ValueError, match=message):
        hfict_lines(tab, direction, [transverse_k], wrong)
    with pytest.raises(ValueError, match=message):
        mt.egp_profile(tab, direction, wrong, None)
    with pytest.raises(ValueError, match=message):
        mt.egp_component(tab, direction, transverse_k, wrong)
    assert hfict_lines(tab, direction, [transverse_k], stored).shape == (1, stored, 2, 2)


@pytest.mark.parametrize("direction, axis, stored", [("x", "ky", 5), ("y", "kx", 6)])
def test_tabulated_spec_names_an_off_grid_transverse_momentum(qwz, direction, axis, stored):
    """A transverse momentum off the stored 6 x 5 grid is named by its axis, as a plain
    float, with the stored length along that axis."""
    tab = mt.GaussianStateSpec.from_grid(
        mt.fictitious_grid(mt.GaussianStateSpec.thermal(1.0, 0.0, qwz), mt.MomentumGrid(6, 5)))

    def message(k):
        return (rf"^{axis} = {re.escape(repr(k))} is not a grid sample: "
                rf"the stored grid has {stored} samples along {axis}$")

    with pytest.raises(ValueError, match=message(float(mt.momentum_line(7)[1]))):
        mt.egp_profile(tab, direction, None, 7)
    with pytest.raises(ValueError, match=message(0.3)):
        mt.egp_component(tab, direction, 0.3, None)


def test_tabulated_spec_enforces_generalized_gap(qwz):
    hot = mt.fictitious_grid(mt.GaussianStateSpec.thermal(1e-4, 0.0, qwz), mt.MomentumGrid(6, 6))
    spec = mt.GaussianStateSpec.from_grid(hot)  # loading/saving is fine
    with pytest.raises(mt.GapError):
        hfict_lines(spec, "x", [hot.grid.ky_values()[0]], 6)


def test_hfict_grid_rejects_bad_spectrum():
    grid = mt.MomentumGrid(2, 2)
    values = np.tile(np.diag([1.5, 0.0]).astype(complex), (2, 2, 1, 1))
    with pytest.raises(ValueError):
        mt.FictitiousHamiltonianGrid(grid, values)


def test_generalized_gap_margin(qwz):
    spec = mt.GaussianStateSpec.thermal(2.0, 0.0, qwz)
    hgrid = mt.fictitious_grid(spec, mt.MomentumGrid(8, 8))
    hgrid.require_generalized_gap()  # far from 1/2 at beta = 2
    hot = mt.fictitious_grid(mt.GaussianStateSpec.thermal(1e-4, 0.0, qwz), mt.MomentumGrid(8, 8))
    with pytest.raises(mt.GapError):
        hot.require_generalized_gap()


def test_filled_band_count():
    assert mt.filled_band_count(np.array([0.1, 0.9])) == 1
    assert mt.filled_band_count(np.array([0.9, 0.8, 0.2])) == 2
    with pytest.raises(mt.GapError):
        mt.filled_band_count(np.array([0.5005, 0.9]))


def test_spec_validation(qwz):
    with pytest.raises(ValueError):
        mt.GaussianStateSpec(beta=1.0, mu=0.0)  # no source
    with pytest.raises(ValueError):
        mt.GaussianStateSpec.thermal(-1.0, 0.0, qwz)



def test_load_matrix_grid_rejects_non_finite_entry(tmp_path, qwz):
    grid = mt.MomentumGrid(8, 8)
    path = tmp_path / "state.dat"
    hgrid = mt.fictitious_grid(mt.GaussianStateSpec.thermal(1.0, 0.0, qwz), grid)
    mt.save_matrix_grid(path, grid, hgrid.values)
    lines = path.read_text().splitlines()
    ix, iy, row, p = 3, 5, 1, 2
    line = 1 + (ix * grid.ny + iy) * p + row
    lines[line] = "nan " + lines[line].split(" ", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"grid point \(ix, iy\) = \(3, 5\)"):
        mt.load_matrix_grid(path)


def load_matrix_grid_per_token(path):
    """The parser load_matrix_grid replaced: one float() call per token."""
    with open(path, encoding="utf-8") as f:
        tokens = []
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if len(tokens) < 3:
        raise ValueError(f"{path}: missing 'p nx ny' header")
    p, nx, ny = (int(t) for t in tokens[:3])
    data = np.array([float(t) for t in tokens[3:]])
    expected = nx * ny * p * p * 2
    if data.size != expected:
        raise ValueError(f"{path}: expected {expected} numbers after header, got {data.size}")
    values = data.reshape(nx, ny, p, p, 2)
    finite = np.isfinite(values).all(axis=(2, 3, 4))
    if not finite.all():
        ix, iy = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite entry at grid point (ix, iy) = ({ix}, {iy})")
    return mt.MomentumGrid(nx, ny), values[..., 0] + 1j * values[..., 1]


def _grid_file_lines(tmp_path, qwz):
    path = tmp_path / "state.dat"
    spec = mt.GaussianStateSpec.thermal(1.3, 0.0, qwz)
    grid = mt.MomentumGrid(6, 5)
    mt.save_matrix_grid(path, grid, mt.fictitious_grid(spec, grid).values)
    return path, path.read_text().splitlines()


def test_load_matrix_grid_matches_per_token_parser(tmp_path, qwz):
    path, lines = _grid_file_lines(tmp_path, qwz)
    lines[0] += "  # p nx ny"
    lines[3] = lines[3].replace(" ", "\t", 1) + "#trailing comment"
    lines.insert(1, "# a comment line")
    lines.insert(5, "")
    path.write_text("\r\n".join(lines) + "\r\n")
    grid, values = mt.load_matrix_grid(path)
    ref_grid, ref_values = load_matrix_grid_per_token(path)
    assert grid == ref_grid == mt.MomentumGrid(6, 5)
    assert values.tobytes() == ref_values.tobytes()


@pytest.mark.parametrize("damage", ["no header", "short header", "wrong count", "non-finite",
                                    "malformed token", "malformed header", "underscore token"])
def test_load_matrix_grid_errors_match_per_token_parser(tmp_path, qwz, damage):
    path, lines = _grid_file_lines(tmp_path, qwz)
    if damage == "no header":
        lines = ["# nothing but a comment"]
    elif damage == "short header":
        lines = ["2 6"]
    elif damage == "wrong count":
        lines[-1] = lines[-1].rsplit(" ", 1)[0]
    elif damage == "non-finite":
        lines[7] = "inf " + lines[7].split(" ", 1)[1]
    elif damage == "malformed token":
        lines[4] = lines[4].split(" ", 1)[0] + " 0.5.1 " + lines[4].split(" ", 2)[2]
    elif damage == "malformed header":
        lines[0] = "2 6.0 5"
    else:  # Python float() reads "1_0" as 10: still the count check decides
        lines[-1] += " 1_0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception) as expected:
        load_matrix_grid_per_token(path)
    with pytest.raises(type(expected.value)) as got:
        mt.load_matrix_grid(path)
    assert type(got.value) is type(expected.value) is ValueError
    assert str(got.value) == str(expected.value)
