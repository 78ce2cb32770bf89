import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import mixedtopo as mt
from chain_oracle import (GaussianTrace, _fermi_lines, chain_correlation_matrix,
                          chain_traces_loop, chain_traces_qr, correlation_from_hfict_line,
                          gaussian_trace_diagonal_unitary, momentum_shift_angles)
from conftest import (count_eigh, count_plane_traces, lapack_eigh, random_hermitian,
                      random_unitary)
from fock_oracle import covariance_from_g, fock_trace
from mixedtopo import egp
from mixedtopo.gaussian import hfict_lines
from mixedtopo.model import _LineSpectra
from multiband import layered_qwz


@given(n=st.floats(0.0, 1.0), theta=st.floats(-np.pi, np.pi))
def test_trace_single_mode_closed_form(n, theta):
    got = gaussian_trace_diagonal_unitary(np.array([[n]]), np.array([theta]))
    expected = 1 + n * (np.exp(1j * theta) - 1)
    assert abs(got.value - expected) <= 1e-12


def test_trace_zero_angles_is_unity():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 6)
    w, v = np.linalg.eigh(h)
    corr = (v * np.clip(np.abs(np.sin(w)), 0, 1)) @ v.conj().T
    got = gaussian_trace_diagonal_unitary(corr, np.zeros(6))
    assert got.phase == pytest.approx(0.0, abs=1e-12)
    assert got.log_magnitude == pytest.approx(0.0, abs=1e-12)


def test_trace_matches_fock_oracle_qwz_chain(qwz):
    """L = 6 thermal chain state against the 2^6 Fock-space enumeration."""
    beta, n_cells = 1.0, 3
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    corr = chain_correlation_matrix(spec, "x", 0.7, n_cells)
    thetas = momentum_shift_angles(n_cells, 2)
    got = gaussian_trace_diagonal_unitary(corr, thetas).value

    # oracle: assemble the chain's real-space quadratic form and trace in Fock space
    ks = mt.momentum_line(n_cells)
    g_diag = np.zeros((6, 6), dtype=complex)
    for i, k in enumerate(ks):
        g_diag[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2] = beta * qwz.matrix(k, 0.7)
    f = np.exp(1j * np.outer(np.arange(n_cells), ks)) / np.sqrt(n_cells)
    u = np.kron(f, np.eye(2))
    g_chain = u @ g_diag @ u.conj().T
    expected = fock_trace(g_chain, thetas)
    assert abs(got - expected) <= 1e-10


def _atomic_closed_form(occupations, n_cells):
    """prod_lambda [(1 - n)^N - (-n)^N] via the roots-of-unity product."""
    z = 1.0
    for n in occupations:
        z *= (1 - n) ** n_cells - (-n) ** n_cells
    return z


@pytest.mark.parametrize("n_cells,expected_phase", [(4, np.pi), (6, np.pi), (5, 0.0), (7, 0.0)])
def test_egp_atomic_limit_parity(atomic, n_cells, expected_phase):
    beta = 1.3
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, atomic)
    phase, log_magnitude = mt.egp_component(spec, "x", 0.7, n_cells)
    assert phase == pytest.approx(expected_phase, abs=1e-12)
    occ = [1 / (np.exp(beta) + 1), 1 / (np.exp(-beta) + 1)]
    expected = _atomic_closed_form(occ, n_cells)
    assert np.exp(log_magnitude + 1j * phase) == pytest.approx(expected, abs=1e-12)


def _fict_filled_zak(spec, direction, transverse_k, m):
    ks = mt.momentum_line(m)
    kx, ky = (ks, transverse_k) if direction == "x" else (transverse_k, ks)
    _, frames = mt.band_systems(mt.fictitious_hamiltonian(spec, kx, ky))
    states = frames[..., 1]  # occupation > 1/2 band
    return mt.zak_phase_wilson(states)


def test_egp_pure_equals_fictitious_zak_odd_n(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    for tk in (0.3, np.pi / 3, -1.8):
        phase, _ = mt.egp_component(spec, "x", tk, 11)
        zak = _fict_filled_zak(spec, "x", tk, 11)
        assert abs(mt.principal_branch(phase - zak)) <= 1e-10


def test_egp_pure_even_n_carries_parity_pi(qwz):
    """The N-fermion momentum shift contributes exactly (-1)^(N-1)."""
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    phase, _ = mt.egp_component(spec, "x", 0.3, 10)
    zak = _fict_filled_zak(spec, "x", 0.3, 10)
    assert abs(mt.principal_branch(phase - zak - np.pi)) <= 1e-10


def test_egp_profile_pure_matches_zak_profile(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    profile = mt.egp_profile(spec, "x", 11, 16)
    for tk, phase in zip(profile.parameters, profile.phases):
        assert abs(mt.principal_branch(phase - _fict_filled_zak(spec, "x", tk, 11))) <= 1e-10


def test_egp_profile_high_temperature_approaches_pure(qwz, qwz_gap):
    beta = 1.0 / (20.0 * qwz_gap)
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    pure = mt.GaussianStateSpec.thermal(math.inf, spec.mu, spec.model)
    devs = {}
    for n in (10, 100):
        thermal_prof = mt.egp_profile(spec, "x", n, 16)
        pure_prof = mt.egp_profile(pure, "x", n, 16)
        devs[n] = np.abs(mt.principal_branch(thermal_prof.phases - pure_prof.phases)).max()
    assert devs[100] < devs[10]
    # near ky = pi/3 the approach is already tight at N = 100
    phase_t, _ = mt.egp_component(spec, "x", np.pi / 3, 100)
    phase_p, _ = mt.egp_component(pure, "x", np.pi / 3, 100)
    assert abs(mt.principal_branch(phase_t - phase_p)) < 0.05


@pytest.mark.parametrize("beta", [5.0, 0.5])
def test_egp_windings_thermal(qwz, beta):
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    assert mt.egp_windings(spec, 10, 32) == (1, 1)


def test_egp_windings_pure_equals_ground_chern(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    cx, cy = mt.egp_windings(spec, 11, 32)
    assert (cx, cy) == (1, 1)
    assert cx == mt.ground_state_chern(qwz, 0.0, mt.MomentumGrid(32, 32))


def test_egp_windings_atomic(atomic):
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, atomic)
    assert mt.egp_windings(spec, 10, 16) == (0, 0)


def test_egp_windings_independent_of_chain_length(qwz):
    spec = mt.GaussianStateSpec.thermal(0.5, 0.0, qwz)
    results = {n: mt.egp_windings(spec, n, 24) for n in (6, 10, 20)}
    assert set(results.values()) == {(1, 1)}


def _tabulated_qwz(qwz):
    thermal = mt.GaussianStateSpec.thermal(0.5, 0.0, qwz)
    return mt.GaussianStateSpec.from_grid(mt.fictitious_grid(thermal, mt.MomentumGrid(12, 10)))


def test_egp_windings_refuse_unequal_directions(qwz, monkeypatch):
    """Every profile winding 1 gives C_x = 1 beside C_y = -1 on the thermal route."""
    spec = mt.GaussianStateSpec.thermal(0.5, 0.0, qwz)
    monkeypatch.setattr(egp, "winding_of_phase_profile", lambda profile: 1)
    with pytest.raises(mt.WindingMismatchError, match="C_x = 1 != C_y = -1"):
        mt.egp_windings(spec, 6, 12)


def test_tabulated_egp_windings_refuse_unequal_directions(qwz, monkeypatch):
    """Every profile winding 1 gives C_x = 1 beside C_y = -1 on the matrix route."""
    spec = _tabulated_qwz(qwz)
    monkeypatch.setattr(egp, "winding_of_phase_profile", lambda profile: 1)
    with pytest.raises(mt.WindingMismatchError, match="C_x = 1 != C_y = -1"):
        mt.egp_windings(spec, None, None)


def _record_matrix_route(monkeypatch) -> list:
    """Names of the matrix-route calls `egp` makes (`hfict_lines`, `chain_traces`), in order."""
    calls = []
    for name in ("hfict_lines", "chain_traces"):
        def recording(*args, name=name, original=getattr(egp, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(egp, name, recording)
    return calls


def test_thermal_egp_windings_make_one_plane_call_per_direction(qwz, monkeypatch):
    """Thermal windings read one line-spectrum cache per direction: one `_plane_traces`
    call of (1 temperature, 12 transverse) chains each."""
    calls = count_plane_traces(monkeypatch)
    assert mt.egp_windings(mt.GaussianStateSpec.thermal(0.5, 0.0, qwz), 6, 12) == (1, 1)
    assert calls == [(1, 12), (1, 12)]


def test_thermal_egp_windings_and_profiles_skip_the_matrix_route(qwz, monkeypatch):
    """Thermal windings and profiles read a line-spectrum cache: they neither sample
    hfict matrices nor hand them to `chain_traces`."""
    spec = mt.GaussianStateSpec.thermal(0.5, 0.0, qwz)
    calls = _record_matrix_route(monkeypatch)
    mt.egp_windings(spec, 6, 12)
    for direction in "xy":
        mt.egp_profile(spec, direction, 6, 12)
    assert calls == []


def test_tabulated_egp_windings_take_the_matrix_route(qwz, monkeypatch):
    """A tabulated spec has no spectrum to cache: each direction samples its stored grid
    and takes one `chain_traces` call."""
    spec = _tabulated_qwz(qwz)
    calls = _record_matrix_route(monkeypatch)
    assert mt.egp_windings(spec, None, None) == (1, 1)
    assert calls == ["hfict_lines", "chain_traces"] * 2


@pytest.mark.parametrize("n_cells", [0, 1])
def test_thermal_egp_windings_refuse_short_chains(qwz, n_cells):
    """A chain of fewer than two cells has no momentum line to cache."""
    spec = mt.GaussianStateSpec.thermal(0.5, 0.0, qwz)
    with pytest.raises(ValueError, match="need at least 2 momentum samples"):
        mt.egp_windings(spec, n_cells, 8)


def test_scan_row_records_egp_winding_mismatch(qwz, qwz_gap, monkeypatch):
    """Chains whose phases are their transverse momenta wind 1 in both directions, so
    C_x = 1 and C_y = -1: the row says so in its status, and keeps its Uhlmann windings."""
    def traces(caches, n_cells, betas, mu, buffers):
        [lines] = caches
        phases = np.tile(lines.transverse, (len(betas), 1))
        return phases, np.zeros_like(phases)

    monkeypatch.setattr(egp, "_thermal_traces", traces)
    [report] = mt.uhlmann_temperature_scan(qwz, 0.0, [0.05 * qwz_gap], mt.MomentumGrid(8, 8),
                                           n_cells=6)
    assert report.status == "egp: EGP Chern inconsistency: C_x = 1 != C_y = -1"
    assert (report.cx_egp, report.cy_egp) == (None, None)
    assert (report.cx_uhlmann, report.cy_uhlmann) == (1, 1)


def test_thermal_egp_profile_needs_n_cells(qwz):
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    with pytest.raises(ValueError, match="thermal specs need an explicit n_cells"):
        mt.egp_profile(spec, "x", None, 8)


def test_egp_amplitude_bound_random_states():
    rng = np.random.default_rng(17)
    for _ in range(20):
        l_modes = rng.integers(2, 9)
        u = np.linalg.qr(rng.normal(size=(l_modes, l_modes))
                         + 1j * rng.normal(size=(l_modes, l_modes)))[0]
        corr = (u * rng.uniform(0, 1, size=l_modes)) @ u.conj().T
        thetas = rng.uniform(-np.pi, np.pi, size=l_modes)
        got = gaussian_trace_diagonal_unitary(corr, thetas)
        assert got.log_magnitude <= 1e-10


def test_egp_translation_leaves_modulus_invariant(qwz):
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    n_cells, p = 6, 2
    corr = chain_correlation_matrix(spec, "x", 0.4, n_cells)
    thetas = momentum_shift_angles(n_cells, p)
    shifted = np.roll(thetas, p)  # cyclic relabeling j -> j + 1
    a = gaussian_trace_diagonal_unitary(corr, thetas)
    b = gaussian_trace_diagonal_unitary(corr, shifted)
    assert abs(a.log_magnitude - b.log_magnitude) <= 1e-12


def test_zero_amplitude_error_arm():
    from mixedtopo.egp import _require_amplitude
    dead = GaussianTrace(phase=0.0, log_magnitude=-math.inf)
    assert dead.magnitude == 0.0
    with pytest.raises(mt.AmplitudeZeroError, match="transverse_k=0.200000, N=4"):
        _require_amplitude([0.0, dead.log_magnitude, -math.inf], [0.1, 0.2, 0.3], ", N=4")


def test_exact_half_occupation_amplitude_is_zero():
    """Occupations exactly 1/2 give det[(1 + S) / 2] = 0 at even N: the
    elimination meets an exact zero pivot and reports it without warnings."""
    model = mt.atomic_model((0.0, 0.0, 0.0))
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase, log_magnitude = mt.chain_traces(hfict_lines(spec, "x", [0.1], 4)[0])
        with pytest.raises(mt.AmplitudeZeroError):
            mt.egp_component(spec, "x", 0.1, 4)
    assert (float(phase), float(log_magnitude)) == (0.0, -math.inf)


def test_near_half_occupation_amplitude_is_tiny_but_defined():
    """Occupations 1/2 -+ 1e-3 sit near the generalized-gap edge: the
    amplitude collapses with N but the phase remains computable."""
    beta = math.log(0.501 / 0.499)  # occupations 0.499 and 0.501 at d = (0, 0, 1)
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, mt.atomic_model())
    phase, log_magnitude = mt.egp_component(spec, "x", 0.1, 4)
    reference = gaussian_trace_diagonal_unitary(
        chain_correlation_matrix(spec, "x", 0.1, 4), momentum_shift_angles(4, 2))
    assert 1e-7 < np.exp(log_magnitude) < 1e-5
    assert np.exp(log_magnitude + 1j * phase) == pytest.approx(
        _atomic_closed_form([0.499, 0.501], 4), rel=1e-9)
    assert abs(mt.principal_branch(phase - reference.phase)) <= 1e-10
    assert abs(log_magnitude - reference.log_magnitude) <= 1e-10


@pytest.mark.parametrize("direction", ["x", "y"])
@pytest.mark.parametrize("n_cells", [4, 6, 8, 10, 12, 16, 100])
def test_exact_half_occupation_even_chains_are_exact_zeros(direction, n_cells):
    """det[(1 + S) / 2] = 0 at every even N: a pivot below the floor reports it as
    -inf with phase 0, where rounding would leave a finite modulus near e^-80."""
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, mt.atomic_model((0.0, 0.0, 0.0)))
    phase, log_magnitude = mt.chain_traces(hfict_lines(spec, direction, [0.1], n_cells)[0])
    assert (float(phase), float(log_magnitude)) == (0.0, -math.inf)
    with pytest.raises(mt.AmplitudeZeroError):
        mt.egp_component(spec, direction, 0.1, n_cells)


@pytest.mark.parametrize("direction", ["x", "y"])
def test_exact_half_occupation_odd_chain_is_finite(direction):
    """At odd N the same state has z = (2^(1-N))^2 exactly, far above the floor."""
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, mt.atomic_model((0.0, 0.0, 0.0)))
    phase, log_magnitude = mt.egp_component(spec, direction, 0.1, 7)
    assert log_magnitude == pytest.approx(-12 * math.log(2), abs=1e-12)  # -8.3178
    assert phase == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_two_cell_chain_through_time_reversal_points_is_an_exact_zero(qwz, beta):
    """At transverse k = 0 an N = 2 chain samples k = -pi and 0, where the qwz
    Bloch matrices are diagonal with d_z = +1 and -1: per orbital the
    determinant is (1 - a)(1 - b) - a b = 1 - a - b = 0 with a + b = 1."""
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    for direction in ("x", "y"):
        phase, log_magnitude = mt.chain_traces(hfict_lines(spec, direction, [0.0], 2)[0])
        assert (float(phase), float(log_magnitude)) == (0.0, -math.inf)


def _assert_matches_loop(lines):
    """Cyclic reduction against the per-cell elimination and the batched-QR
    reduction, to 1e-12 in phase and in relative log|z|."""
    phase, log_magnitude = mt.chain_traces(lines)
    assert np.isfinite(log_magnitude).all()
    for oracle in (chain_traces_loop, chain_traces_qr):
        ref_phase, ref_log = oracle(lines)
        assert np.abs(mt.principal_branch(phase - ref_phase)).max() <= 1e-12
        assert (np.abs(log_magnitude - ref_log) / np.maximum(1.0, np.abs(ref_log))).max() <= 1e-12


LOOP_CELLS = [2, 3, 5, 6, 7, 10, 11, 50, 101, 1000]


@pytest.mark.parametrize("n_cells", LOOP_CELLS)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_chain_traces_match_loop_random_lines(p, n_cells):
    rng = np.random.default_rng(1000 * p + n_cells)
    for filled in range(p + 1):
        _assert_matches_loop(np.stack([_gapped_line(rng, n_cells, p, filled) for _ in range(3)]))


@pytest.mark.parametrize("n_cells", LOOP_CELLS)
@pytest.mark.parametrize("beta", [0.025, 1.0, 5.0, math.inf])
def test_chain_traces_match_loop_qwz(qwz, beta, n_cells):
    """16 transverse momenta off the time-reversal lines k = 0, -pi, where an
    N = 2 chain is an exact zero (see the test above) that the loop leaves as
    rounding noise."""
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    for direction in ("x", "y"):
        _assert_matches_loop(hfict_lines(spec, direction, mt.momentum_line(16) + 0.1, n_cells))


def test_chain_traces_runs_logarithmic_levels_without_lapack(qwz, monkeypatch):
    """N = 1000 takes 9 halving levels and the closing step, at most
    ceil(log2 N) + 1 calls of the reflector routine, and no per-matrix LAPACK call."""
    def refuse(*args, **kwargs):
        raise AssertionError("chain_traces called a LAPACK determinant or QR")

    for name in ("qr", "det", "slogdet"):
        monkeypatch.setattr(np.linalg, name, refuse)
    shapes = []
    original = egp._reflect

    def counting(work, steps):
        shapes.append(work.shape)
        return original(work, steps)

    lines = hfict_lines(mt.GaussianStateSpec.thermal(1.0, 0.0, qwz), "x", [0.3, 1.1], 1000)
    monkeypatch.setattr(egp, "_reflect", counting)
    mt.chain_traces(lines)
    assert len(shapes) <= math.ceil(math.log2(1000)) + 1
    assert shapes[-1] == (4, 4, 1, 2)  # the closing 2p x 2p system of both chains


@pytest.mark.parametrize("n_cells", [2, 3, 8, 9])
def test_chain_traces_zero_column_is_an_exact_zero(n_cells):
    """n_j = diag(j mod 2, 0.3): n_{j-1} e_0 = 0 and n_j e_0 = e_0 at odd j, so
    the first column of every [B_{j-1}; A_j] is exactly zero and so is the
    determinant. The reflector routine skips the column instead of dividing
    0 by 0, so no NaN reaches the pivot floor."""
    lines = np.zeros((n_cells, 2, 2), dtype=complex)
    lines[:, 0, 0] = np.arange(n_cells) % 2
    lines[:, 1, 1] = 0.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase, log_magnitude = mt.chain_traces(lines)
        norms, phases = egp._reflect(np.zeros((4, 6, 3), dtype=complex), 2)
    assert (float(phase), float(log_magnitude)) == (0.0, -math.inf)
    assert (norms == 0).all() and (phases == 1).all()


def _peak_bytes(kernel, lines):
    tracemalloc.start()
    try:
        kernel(lines)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_traces_peak_memory_within_qr_reduction(qwz):
    """The plane reduction allocates no more than the batched-QR one it replaced,
    on a profile stack and on two long chains."""
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    for lines in (hfict_lines(spec, "x", mt.momentum_line(96), 96),
                  hfict_lines(spec, "x", [0.3, 1.1], 10**5)):
        assert _peak_bytes(mt.chain_traces, lines) <= _peak_bytes(chain_traces_qr, lines)


def _three_band_model() -> mt.BlochModel:
    """Three bands split by 4 with a k-dependent admixture; mu = 2 lies in the upper gap."""
    rng = np.random.default_rng(3)
    a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
    levels = np.diag([-4.0, 0.0, 4.0])

    def evaluate(kx, ky):
        return levels + 0.3 * (np.cos(kx)[..., None, None] * a + np.sin(ky)[..., None, None] * b)

    return mt.BlochModel(p=3, evaluator=evaluate, name="three-band")


@pytest.mark.parametrize("n_cells", [2, 3, 6, 7, 10])
@pytest.mark.parametrize("p", [2, 3])
def test_plane_route_equals_chain_traces_of_fermi_lines(qwz, p, n_cells):
    """The thermal route, hfict planes straight from line-spectrum caches into the plane
    kernel (`egp._thermal_traces`), gives bit for bit `chain_traces` of the hfict lines the
    oracle builds from the same caches: at finite beta and at beta = inf, for p = 2
    (closed-form eigensolver) and p = 3 (LAPACK), for one cache in one call and in chunks
    of 1, 3 and 1 temperatures that share one set of buffers, growing and shrinking them,
    and for the x and y caches together, their lines side by side."""
    model, mu = (qwz, 0.0) if p == 2 else (_three_band_model(), 2.0)
    betas = np.array([0.2, 1.0, math.inf, 5.0, 30.0])
    caches = [_LineSpectra(model, direction, mt.momentum_line(9) + 0.1) for direction in "xy"]
    expected = [mt.chain_traces(_fermi_lines(lines, n_cells, betas, mu)) for lines in caches]
    for lines, want in zip(caches, expected):
        assert want[0].shape == (5, 9)
        one_call = egp._thermal_traces([lines], n_cells, betas, mu)
        buffers = egp._Buffers()
        chunks = [egp._thermal_traces([lines], n_cells, betas[rows], mu, buffers)
                  for rows in (slice(0, 1), slice(1, 4), slice(4, 5))]
        for got in (one_call, [np.concatenate(parts) for parts in zip(*chunks)]):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    both = egp._thermal_traces(caches, n_cells, betas, mu)
    assert [a.tobytes() for a in both] == [
        np.concatenate(parts, axis=1).tobytes() for parts in zip(*expected)]


@pytest.mark.parametrize("n_cells", [100, 3000])
def test_lone_chain_has_the_bits_it_has_in_a_batch(qwz, qwz_gap, n_cells):
    """A chain alone gives bit for bit what it gives beside another chain, in either slot:
    the kernel pairs a lone chain with itself, so its log norms and phases reduce in the
    same order."""
    spec = mt.GaussianStateSpec.thermal(1.0 / (20 * qwz_gap), 0.0, qwz)
    lines = hfict_lines(spec, "x", mt.momentum_line(8), n_cells)
    alone = [[a.tobytes() for a in mt.chain_traces(line)] for line in lines]
    for i in range(8):
        pair = mt.chain_traces(lines[[i, (i + 1) % 8]])
        assert [a[0].tobytes() for a in pair] == alone[i]
        assert [a[1].tobytes() for a in pair] == alone[(i + 1) % 8]


@given(batch=st.lists(st.integers(0, 3), max_size=3), n_cells=st.integers(2, 9),
       p=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(batch=[0], n_cells=5, p=2, seed=0)
@example(batch=[3, 0], n_cells=5, p=2, seed=0)
@example(batch=[], n_cells=5, p=2, seed=0)
def test_chain_traces_batch_shapes_match_qr_oracle(batch, n_cells, p, seed):
    """Any leading batch shape, empty and unbatched included, gives the oracle's
    result shape and values."""
    rng = np.random.default_rng(seed)
    lines = np.array([_gapped_line(rng, n_cells, p, int(rng.integers(p + 1)))
                      for _ in range(math.prod(batch))], dtype=complex)
    lines = lines.reshape(*batch, n_cells, p, p)
    phase, log_magnitude = mt.chain_traces(lines)
    ref_phase, ref_log = chain_traces_qr(lines)
    assert phase.shape == log_magnitude.shape == np.shape(ref_phase) == tuple(batch)
    assert np.abs(mt.principal_branch(phase - ref_phase)).max(initial=0.0) <= 1e-12
    assert (np.abs(log_magnitude - ref_log) / np.maximum(1.0, np.abs(ref_log))).max(
        initial=0.0) <= 1e-12


def _real_space_trace(line):
    n_cells, p = line.shape[0], line.shape[-1]
    return gaussian_trace_diagonal_unitary(correlation_from_hfict_line(line),
                                              momentum_shift_angles(n_cells, p))


def _assert_matches_real_space(line):
    phase, log_magnitude = mt.chain_traces(line)
    reference = _real_space_trace(line)
    assert abs(mt.principal_branch(phase - reference.phase)) <= 1e-10
    assert abs(log_magnitude - reference.log_magnitude) <= 1e-10


def _gapped_line(rng, n_cells, p, filled):
    """Random Gaussian chain: a random frame per k, `filled` occupations in
    (1/2, 1] and the rest in [0, 1/2), with about a third of the k blocks
    exact projectors. A fixed filled count along the chain is the generalized
    gap condition; without it the exact determinant can vanish and both
    evaluations return rounding noise."""
    occ = np.concatenate([rng.uniform(0.0, 0.5, size=(n_cells, p - filled)),
                          rng.uniform(0.5, 1.0, size=(n_cells, filled))], axis=1)
    projectors = rng.random(n_cells) < 1 / 3
    occ[projectors] = np.round(occ[projectors])
    frames = np.stack([random_unitary(rng, p) for _ in range(n_cells)])
    return np.einsum("nij,nj,nkj->nik", frames, occ, frames.conj())


@pytest.mark.parametrize("n_cells", [2, 3, 6, 7, 10, 50])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_chain_traces_match_real_space_random_lines(p, n_cells):
    rng = np.random.default_rng(100 * p + n_cells)
    for filled in range(p + 1):
        for _ in range(3):
            _assert_matches_real_space(_gapped_line(rng, n_cells, p, filled))


@pytest.mark.parametrize("beta", [0.025, 1.0, 5.0, math.inf])
def test_chain_traces_match_real_space_qwz(qwz, beta):
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    for n_cells in (2, 3, 6, 7, 10, 50):
        _assert_matches_real_space(hfict_lines(spec, "y", [0.7], n_cells)[0])


def test_chain_traces_batch_equals_single_chains(qwz):
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    lines = hfict_lines(spec, "x", mt.momentum_line(6), 9)
    batched = mt.chain_traces(lines.reshape(2, 3, 9, 2, 2))
    single = np.array([mt.chain_traces(line) for line in lines])
    assert batched[0].shape == batched[1].shape == (2, 3)
    assert np.abs(batched[0].ravel() - single[:, 0]).max() <= 1e-13
    assert np.abs(batched[1].ravel() - single[:, 1]).max() <= 1e-13


@pytest.mark.parametrize("direction", ["x", "y"])
def test_egp_profile_equals_per_chain_components(qwz, direction):
    thermal = mt.GaussianStateSpec.thermal(0.8, 0.0, qwz)
    tabulated = mt.GaussianStateSpec.from_grid(mt.fictitious_grid(thermal, mt.MomentumGrid(12, 10)))
    for spec, n_cells, count in ((thermal, 9, 16), (tabulated, None, None)):
        profile = mt.egp_profile(spec, direction, n_cells, count)
        assert len(profile.parameters) == (count or (10 if direction == "x" else 12))
        for tk, phase, log_modulus in zip(profile.parameters, profile.phases, profile.log_moduli):
            chain_phase, log_magnitude = mt.egp_component(spec, direction, tk, n_cells)
            assert abs(mt.principal_branch(phase - chain_phase)) <= 1e-12
            assert abs(log_modulus - log_magnitude) <= 1e-12


def test_egp_pure_thermodynamic_limit_equals_zak(qwz):
    """Odd N = 10001: the pure-state EGP is the Wilson-loop Zak phase."""
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    phase, _ = mt.egp_component(spec, "x", np.pi / 3, 10001)
    zak = _fict_filled_zak(spec, "x", np.pi / 3, 10001)
    assert abs(mt.principal_branch(phase - zak)) <= 1e-9


def test_gauge_reduction_falls_at_large_n(qwz, qwz_gap):
    spec = mt.GaussianStateSpec.thermal(1.0 / (20.0 * qwz_gap), 0.0, qwz)
    devs = [d for _, d in mt.gauge_reduction_deviations(spec, ["x"], np.pi / 3,
                                                         [1000, 3000, 10000])[0]]
    assert devs[0] > devs[1] > devs[2] > 0


def test_gauge_reduction_thermodynamic_limit_exponent(qwz, qwz_gap):
    """The EGP at T = 20 gap approaches the pure-state phase as N^-2."""
    spec = mt.GaussianStateSpec.thermal(1.0 / (20.0 * qwz_gap), 0.0, qwz)
    devs = mt.gauge_reduction_deviations(spec, ["x"], 1.3, [1000, 3000, 10000])[0]
    assert devs[0][1] > devs[1][1] > devs[2][1] > 0
    assert -2.02 <= mt.gauge_reduction_exponent(devs) <= -1.98


def test_gauge_reduction_pure_reference_is_exact(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    devs = mt.gauge_reduction_deviations(spec, ["x"], np.pi / 3, [6, 10, 11])[0]
    assert all(d < 1e-10 for _, d in devs)


def test_gauge_reduction_monotone(qwz, qwz_gap):
    beta = 1.0 / (20.0 * qwz_gap)
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    devs = mt.gauge_reduction_deviations(spec, ["x"], np.pi / 3, [10, 30])[0]
    assert devs[0][1] > devs[1][1] > 0
    assert mt.gauge_reduction_exponent(devs) < 0


def test_gauge_reduction_exponent_of_a_zero_deviation():
    assert mt.gauge_reduction_exponent([(10, 1e-3), (20, 0.0)]) == -math.inf


@pytest.mark.parametrize("direction", ["x", "y"])
def test_gauge_reduction_diagonalizes_each_chain_mesh_once(qwz, qwz_gap, monkeypatch, direction):
    """The thermal chain and its pure reference share one spectrum of h(k) per N,
    and N = 20 after N = 10 diagonalizes only its 10 new odd samples."""
    spec = mt.GaussianStateSpec.thermal(1.0 / (20 * qwz_gap), 0.0, qwz)
    pure = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    expected = [(n, abs(mt.principal_branch(
        mt.egp_component(spec, direction, 0.7, n)[0]
        - mt.egp_component(pure, direction, 0.7, n)[0]))) for n in (10, 20, 25)]
    calls = count_eigh(monkeypatch)
    got = mt.gauge_reduction_deviations(spec, [direction], 0.7, [10, 20, 25])[0]
    assert [n for n, _ in got] == [10, 20, 25]
    assert [d for _, d in got] == pytest.approx([d for _, d in expected], rel=1e-10, abs=1e-15)
    assert [math.prod(shape) for shape in calls] == [10, 10, 25]


@pytest.mark.parametrize("direction", ["x", "y"])
def test_gauge_reduction_closed_form_matches_lapack_route(qwz, qwz_gap, monkeypatch, direction):
    """The recipe's N = 10^3 and 10^4 at T = 20 gap and k = pi/3: closed-form spectra give
    the deviations of LAPACK spectra within 1e-13 and their log-log slope within 1e-6."""
    spec = mt.GaussianStateSpec.thermal(1.0 / (20 * qwz_gap), 0.0, qwz)
    closed = mt.gauge_reduction_deviations(spec, [direction], np.pi / 3, [1000, 10000])[0]
    lapack_eigh(monkeypatch)
    lapack = mt.gauge_reduction_deviations(spec, [direction], np.pi / 3, [1000, 10000])[0]
    assert [n for n, _ in closed] == [n for n, _ in lapack] == [1000, 10000]
    assert max(abs(a - b) for (_, a), (_, b) in zip(closed, lapack)) <= 1e-13
    assert abs(mt.gauge_reduction_exponent(closed) - mt.gauge_reduction_exponent(lapack)) <= 1e-6


@pytest.mark.parametrize("direction", ["x", "y"])
def test_egp_profile_closed_form_matches_lapack_route(qwz, qwz_gap, monkeypatch, direction):
    """The profile recipe's chains, N = 10, 50 and 100 on 128 lines at T = 0 and 20 gap:
    closed-form spectra give the phases of LAPACK spectra within 1e-12."""
    specs = [mt.GaussianStateSpec.thermal(beta, 0.0, qwz) for beta in (math.inf, 1 / (20 * qwz_gap))]

    def profiles():
        return [mt.egp_profile(spec, direction, n, 128).phases
                for spec in specs for n in (10, 50, 100)]

    closed = profiles()
    lapack_eigh(monkeypatch)
    for got, expected in zip(closed, profiles(), strict=True):
        assert np.abs(mt.principal_branch(got - expected)).max() <= 1e-12


def test_gauge_reduction_requires_ascending():
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, mt.qwz_model())
    with pytest.raises(ValueError):
        mt.gauge_reduction_deviations(spec, ["x"], 0.0, [10, 6])
    with pytest.raises(ValueError, match="strictly ascending"):  # one N fits no slope
        mt.gauge_reduction_deviations(spec, ["x"], 0.0, [10, 10])


def test_gauge_reduction_requires_a_direction():
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, mt.qwz_model())
    with pytest.raises(ValueError, match="at least one direction"):
        mt.gauge_reduction_deviations(spec, [], 0.0, [10, 20])


def _gauge_spec(model_name, qwz_gap):
    if model_name == "qwz":
        return mt.GaussianStateSpec.thermal(1.0 / (20 * qwz_gap), 0.0, mt.qwz_model())
    return mt.GaussianStateSpec.thermal(0.05, 0.0, layered_qwz(mirrored=False))


@pytest.mark.parametrize("model_name", ["qwz", "layered_qwz"])
def test_gauge_reduction_of_both_directions_is_bit_for_bit_each_alone(model_name, qwz_gap,
                                                                     monkeypatch):
    """Each direction gets the bits of a one-direction run, in either order of the
    directions, where a kernel call holds both temperatures (N <= 20 under a budget of 80
    cells for two directions, of 40 for one) and where each temperature has its own
    (N > 20), one chain alone in a one-direction run."""
    spec = _gauge_spec(model_name, qwz_gap)
    ns = [10, 20, 21, 30]
    alone = [mt.gauge_reduction_deviations(spec, [d], 0.7, ns)[0] for d in "xy"]
    calls = count_plane_traces(monkeypatch)
    monkeypatch.setattr(egp, "CHAIN_CELL_BUDGET", 2 * 20)
    lone = [mt.gauge_reduction_deviations(spec, [d], 0.7, ns)[0] for d in "xy"]
    assert calls == [(2, 1), (2, 1), (1, 1), (1, 1), (1, 1), (1, 1)] * 2
    calls.clear()
    monkeypatch.setattr(egp, "CHAIN_CELL_BUDGET", 2 * 2 * 20)
    both = mt.gauge_reduction_deviations(spec, ["x", "y"], 0.7, ns)
    assert calls == [(2, 2), (2, 2), (1, 2), (1, 2), (1, 2), (1, 2)]
    reversed_both = mt.gauge_reduction_deviations(spec, ["y", "x"], 0.7, ns)[::-1]
    assert [[n for n, _ in devs] for devs in both] == [ns, ns]
    for got in (lone, both, reversed_both):
        assert [[d.hex() for _, d in devs] for devs in got] == [
            [d.hex() for _, d in devs] for devs in alone]
    assert all(d > 0 for devs in both for _, d in devs)


def test_gauge_reduction_chunks_by_the_scan_budget(qwz, qwz_gap, monkeypatch):
    """With CHAIN_CELL_BUDGET = 5120, both temperatures of both directions of N = 1000
    share one call of 2 x 2 x 1000 cells; N = 3000 would take 12000, so each temperature
    has its own call of both directions."""
    spec = mt.GaussianStateSpec.thermal(1.0 / (20 * qwz_gap), 0.0, qwz)
    calls = count_plane_traces(monkeypatch)
    mt.gauge_reduction_deviations(spec, ["x", "y"], np.pi / 3, [100, 1000, 3000])
    assert calls == [(2, 2), (2, 2), (1, 2), (1, 2)]


def test_gauge_reduction_zero_amplitude_names_the_direction(qwz):
    """At transverse k = 0 an N = 2 chain is an exact zero at every temperature (see
    `test_two_cell_chain_through_time_reversal_points_is_an_exact_zero`)."""
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    with pytest.raises(mt.AmplitudeZeroError, match="transverse_k=0.000000, direction=y, N=2:"):
        mt.gauge_reduction_deviations(spec, ["y"], 0.0, [2, 4])
    with pytest.raises(mt.AmplitudeZeroError, match="direction=x, N=2:"):
        mt.gauge_reduction_deviations(spec, ["x", "y"], 0.0, [2, 4])


def _two_pass_floor(upper):
    """The pivot floor from the norms of the blocks 1 - n and n, each summed entry by entry."""
    p, n_cells = upper.shape[0], upper.shape[2]
    diag = -upper
    for i in range(p):
        diag[i, i] += 1.0
    squares = [(np.abs(blocks) ** 2).sum(axis=(0, 1)).max(axis=0) for blocks in (diag, upper)]
    return egp.PIVOT_FLOOR * n_cells * p * np.finfo(float).eps * np.sqrt(np.maximum(*squares))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n_cells", [2, 5, 64])
def test_pivot_floor_in_one_pass_matches_two_passes(qwz, p, n_cells):
    """The floor from the norms of n alone equals the one from both block sets to 1e-12
    relative, on random Gaussian lines (a third of their blocks exact projectors), on
    qwz projector lines, and on the zero-column lines of
    `test_chain_traces_zero_column_is_an_exact_zero`."""
    rng = np.random.default_rng(100 * p + n_cells)
    stacks = [np.stack([_gapped_line(rng, n_cells, p, filled) for filled in range(p + 1)])]
    if p == 2:
        pure = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
        stacks.append(hfict_lines(pure, "x", mt.momentum_line(8) + 0.1, n_cells))
        zero_column = np.zeros((1, n_cells, 2, 2), dtype=complex)
        zero_column[0, :, 0, 0], zero_column[0, :, 1, 1] = np.arange(n_cells) % 2, 0.3
        stacks.append(zero_column)
    for lines in stacks:
        upper = lines.transpose(2, 3, 1, 0)  # the planes `chain_traces` hands the kernel
        got, expected = egp._pivot_floor(upper), _two_pass_floor(upper)
        assert got.shape == (len(lines),)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


# A Thouless pump is a 2D model whose ky is the pump parameter, t = (ky + pi) / 2pi;
# its winding is that of the x-direction EGP profile over ky.

def pump_model(matrix_of_k_t, name):
    def evaluate(kx, ky):
        return matrix_of_k_t(kx, (ky + np.pi) / (2 * np.pi))

    return mt.BlochModel(p=2, evaluator=evaluate, name=name)


def pump_winding(model, beta, n_cells, t_count):
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, model)
    return mt.winding_of_phase_profile(mt.egp_profile(spec, "x", n_cells, t_count))


def test_pump_constant_family_is_trivial(qwz):
    constant = pump_model(lambda k, t: qwz.matrix(k, 0.3), "qwz|ky=0.3")
    assert pump_winding(constant, 1.0, 8, 12) == 0


def rice_mele_matrix(k, t):
    hop_sum = 1.0 + 0.6 * np.cos(2 * np.pi * t) + np.cos(k)
    stagger = 0.9 * np.sin(2 * np.pi * t)
    return mt.bloch_matrix_from_d((hop_sum, np.sin(k), stagger))


def test_pump_rice_mele_thermal_matches_pure_oracle():
    rice_mele = pump_model(rice_mele_matrix, "rice-mele")

    # oracle: plaquette Chern number of the pure lower band on the (k, t) torus
    frame = mt.band_systems(rice_mele.matrix(*mt.MomentumGrid(32, 24).mesh()))[1][..., 0]
    expected = mt.chern_number(mt.berry_curvature_plaquette(frame))

    assert pump_winding(rice_mele, 2.0, 12, 24) == expected
    assert expected != 0


def test_trace_determinant_transpose_insensitive():
    rng = np.random.default_rng(23)
    h = random_hermitian(rng, 5)
    w, v = np.linalg.eigh(h)
    corr = (v * (1 / (np.exp(w) + 1))) @ v.conj().T
    thetas = rng.uniform(-np.pi, np.pi, size=5)
    a = gaussian_trace_diagonal_unitary(corr, thetas)
    b = gaussian_trace_diagonal_unitary(corr.T, thetas)
    assert abs(a.value - b.value) <= 1e-12


def test_oracle_covariance_matches_fermi_transpose():
    """Cross-check the Fock oracle itself: <c^dag c> = [fermi(g)]^T."""
    rng = np.random.default_rng(31)
    g = random_hermitian(rng, 4)
    w, v = np.linalg.eigh(g)
    fermi = (v * (1 / (np.exp(w) + 1))) @ v.conj().T
    assert np.abs(covariance_from_g(g) - fermi.T).max() <= 1e-12


# ---------------------------------------------------- four bands, two filled

@pytest.mark.parametrize("beta", [0.3, 2.0])
@pytest.mark.parametrize("direction", ["x", "y"])
def test_four_band_chain_traces_match_qr_reduction(beta, direction):
    """The p = 4 plane kernel against the LAPACK-QR reduction, 8 lines each, even and odd N."""
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, layered_qwz(mirrored=False))
    for n_cells in (2, 3, 10):
        lines = hfict_lines(spec, direction, mt.momentum_line(8), n_cells)
        (phase, log_magnitude), (ref_phase, ref_log) = mt.chain_traces(lines), chain_traces_qr(lines)
        assert np.abs(mt.principal_branch(phase - ref_phase)).max() <= 1e-12
        assert np.abs(log_magnitude - ref_log).max() <= 1e-12


def test_four_band_ring_matches_fock_oracle():
    """The N = 2 ring of the C = 2 model at ky = 0.7: 8 modes, 256 Fock states."""
    beta, n_cells, model = 0.3, 2, layered_qwz(mirrored=False)
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, model)
    phase, log_magnitude = mt.chain_traces(hfict_lines(spec, "x", [0.7], n_cells)[0])
    ks = mt.momentum_line(n_cells)
    g_diag = np.zeros((8, 8), dtype=complex)
    for i, k in enumerate(ks):
        g_diag[i * 4:(i + 1) * 4, i * 4:(i + 1) * 4] = beta * model.matrix(k, 0.7)
    u = np.kron(np.exp(1j * np.outer(np.arange(n_cells), ks)) / np.sqrt(n_cells), np.eye(4))
    expected = fock_trace(u @ g_diag @ u.conj().T, momentum_shift_angles(n_cells, 4))
    assert abs(np.exp(log_magnitude + 1j * phase) - expected) <= 1e-12


@pytest.mark.parametrize("temperature", [1.0, 20.0])
def test_four_band_egp_windings_give_c2(temperature):
    """Two filled bands of C = 2: the EGP windings on 128 lines at N = 10 are (2, 2)."""
    model = layered_qwz(mirrored=False)
    gap = mt.band_gap(model, mt.MomentumGrid(32, 32), 0.0)
    spec = mt.GaussianStateSpec.thermal(1.0 / (temperature * gap), 0.0, model)
    assert mt.egp_windings(spec, 10, 128) == (2, 2)


def test_pinned_egp_profile_says_so():
    """The time-reversed pair of layers keeps tau_x K, so z is real: at T = 20 gap and
    N = 10 every x phase is 0 or pi, pi on the two lines at |ky| = 0.098 of 128. That
    profile steps by pi on any grid, and the error says the winding is undefined
    instead of asking for a finer one; N = 11 and T = 0.05 gap wind to (0, 0)."""
    model = layered_qwz(mirrored=True)
    gap = mt.band_gap(model, mt.MomentumGrid(32, 32), 0.0)
    spec = mt.GaussianStateSpec.thermal(1.0 / (20 * gap), 0.0, model)
    profile = mt.egp_profile(spec, "x", 10, 128)
    assert np.abs(np.sin(profile.phases)).max() < 1e-6
    assert profile.parameters[np.abs(profile.phases) > 1] == pytest.approx([-np.pi / 32, np.pi / 32])
    with pytest.raises(mt.UnderResolvedError) as exc:
        mt.egp_windings(spec, 10, 128)
    found = re.fullmatch(r"phase pinned to 0 or pi \(max \|sin phi\| = (\S+)\), stepping by "
                         r"3\.142 rad at parameter (\S+): winding undefined", str(exc.value))
    assert found, str(exc.value)
    assert float(found[1]) < 1e-6
    assert abs(abs(float(found[2])) - np.pi / 32) < 1e-6
    assert mt.egp_windings(spec, 11, 128) == (0, 0)
    cold = mt.GaussianStateSpec.thermal(1.0 / (0.05 * gap), 0.0, model)
    assert mt.egp_windings(cold, 10, 128) == (0, 0)
