import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedtopo as mt
from conftest import random_unitary


def qwz_band_line(qwz, ky, m, band=0):
    return mt.band_systems(qwz.matrix(mt.momentum_line(m), ky))[1][..., band]


def qwz_band_grid(qwz, n, band=0):
    return mt.band_systems(qwz.matrix(*mt.MomentumGrid(n, n).mesh()))[1][..., band]


def test_principal_branch_bounds():
    assert mt.principal_branch(np.pi) == pytest.approx(np.pi)
    assert mt.principal_branch(-np.pi) == pytest.approx(np.pi)
    assert mt.principal_branch(3 * np.pi + 0.1) == pytest.approx(-np.pi + 0.1)


def test_zak_atomic_limit_is_zero():
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (16, 1))
    assert mt.zak_phase_wilson(states) == pytest.approx(0.0, abs=1e-12)


def test_zak_pure_gauge_family_is_zero():
    ks = mt.momentum_line(24)
    v = np.array([0.6, 0.8j], dtype=complex)
    states = np.exp(1j * ks)[:, None] * v[None, :]
    assert mt.zak_phase_wilson(states) == pytest.approx(0.0, abs=1e-12)


def test_zak_gauge_invariance(qwz):
    rng = np.random.default_rng(7)
    states = qwz_band_line(qwz, 0.9, 32)
    base = mt.zak_phase_wilson(states)
    rephased = states * np.exp(1j * rng.uniform(-np.pi, np.pi, size=32))[:, None]
    assert abs(mt.principal_branch(mt.zak_phase_wilson(rephased) - base)) <= 1e-10


def test_zak_matches_connection_integral_oracle(qwz):
    """Wilson loop at M=256 vs a fine-grid Riemann sum of Im<u|du>."""
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)

    def hems(m):
        return mt.band_systems(
            mt.fictitious_hamiltonian(spec, mt.momentum_line(m), np.pi / 2))[1][..., 0]

    wilson = mt.zak_phase_wilson(hems(256))
    fine = hems(8192)
    overlaps = np.einsum("ij,ij->i", fine.conj(), np.roll(fine, -1, axis=0))
    riemann = np.imag(overlaps).sum()  # discrete oint Im<u|du>
    assert abs(mt.principal_branch(wilson - riemann)) <= 1e-4


def test_zak_multiband_frame_gauge_invariance(qwz):
    rng = np.random.default_rng(11)
    _, frame = mt.band_systems(qwz.matrix(mt.momentum_line(24), 0.4))
    base = mt.zak_phase_wilson(frame)
    mixed = np.stack([f @ random_unitary(rng, 2) for f in frame])
    assert abs(mt.principal_branch(mt.zak_phase_wilson(mixed) - base)) <= 1e-10


def test_zak_ill_conditioned_loop():
    states = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=complex)
    with pytest.raises(mt.UnderResolvedError):
        mt.zak_phase_wilson(states)


def test_zak_rejects_stacked_loops(qwz):
    """A loop of frames is (M, p) or (M, p, nb); a stack of loops is refused,
    not summed into one meaningless phase."""
    loop = qwz_band_line(qwz, 0.9, 24)[..., None]
    with pytest.raises(ValueError, match="rank 4"):
        mt.zak_phase_wilson(np.stack([loop, loop]))
    with pytest.raises(ValueError, match="rank 1"):
        mt.zak_phase_wilson(loop[:, 0, 0])


def test_curvature_atomic_limit():
    states = np.tile(np.array([1.0, 0.0], dtype=complex), (8, 8, 1))
    field = mt.berry_curvature_plaquette(states)
    assert np.abs(field.values).max() == pytest.approx(0.0, abs=1e-12)


def test_curvature_qwz_lower_band_quantized(qwz):
    field = mt.berry_curvature_plaquette(qwz_band_grid(qwz, 32))
    assert abs(field.total() - 2 * np.pi) <= 1e-9
    assert mt.chern_number(field) == 1


def test_curvature_upper_band(qwz):
    field = mt.berry_curvature_plaquette(qwz_band_grid(qwz, 32, band=1))
    assert mt.chern_number(field) == -1


def test_curvature_refinement_consistent(qwz):
    f32 = mt.berry_curvature_plaquette(qwz_band_grid(qwz, 32))
    f64 = mt.berry_curvature_plaquette(qwz_band_grid(qwz, 64))
    assert mt.chern_number(f64) == mt.chern_number(f32) == 1
    # each coarse plaquette equals its four fine sub-plaquettes to O(dk^3)
    coarse_from_fine = (f64.values[0::2, 0::2] + f64.values[1::2, 0::2]
                        + f64.values[0::2, 1::2] + f64.values[1::2, 1::2])
    dk = 2 * np.pi / 32
    assert np.abs(f32.values - coarse_from_fine).max() <= dk ** 3


def test_curvature_gauge_invariance(qwz):
    rng = np.random.default_rng(3)
    states = qwz_band_grid(qwz, 12)
    base = mt.berry_curvature_plaquette(states)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(12, 12)))
    rotated = states * phases[:, :, None]
    moved = mt.berry_curvature_plaquette(rotated)
    assert np.abs(moved.values - base.values).max() <= 1e-10


def test_chern_number_zero_field():
    assert mt.chern_number(mt.CurvatureField(values=np.zeros((8, 8)))) == 0


def test_chern_number_residue_error():
    values = np.zeros((4, 4))
    values[0, 0] = 1.0  # sums to 1 rad, nowhere near 2 pi Z
    with pytest.raises(mt.QuantizationError):
        mt.chern_number(mt.CurvatureField(values=values))


def test_winding_constant_profile():
    prof = mt.PhaseProfile(mt.momentum_line(8), np.full(8, 0.3))
    assert mt.winding_of_phase_profile(prof) == 0


def test_winding_single_loop():
    m = 8
    phases = mt.principal_branch(2 * np.pi * np.arange(m) / m)
    prof = mt.PhaseProfile(mt.momentum_line(m), phases)
    assert mt.winding_of_phase_profile(prof) == 1
    rev = mt.PhaseProfile(mt.momentum_line(m), phases[::-1])
    assert mt.winding_of_phase_profile(rev) == -1


def test_winding_under_resolved():
    prof = mt.PhaseProfile(mt.momentum_line(4), [0.0, 3.1, 0.0, 3.1])
    assert prof.under_resolved()
    with pytest.raises(mt.UnderResolvedError):
        mt.winding_of_phase_profile(prof)


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=16, max_value=64))
def test_winding_synthetic_loops(k, m):
    phases = mt.principal_branch(2 * np.pi * k * np.arange(m) / m + 0.37)
    prof = mt.PhaseProfile(np.linspace(0, 1, m, endpoint=False), phases)
    if not prof.under_resolved():
        assert mt.winding_of_phase_profile(prof) == k


def _zak_profiles(model, n, band=0, conj=False):
    ks = mt.momentum_line(n)

    def line(direction, tk):
        if direction == "x":
            states = mt.band_systems(model.matrix(ks, tk))[1][..., band]
        else:
            states = mt.band_systems(model.matrix(tk, ks))[1][..., band]
        return mt.zak_phase_wilson(states.conj() if conj else states)

    prof_x = mt.PhaseProfile(ks, [line("x", tk) for tk in ks], label="zak", direction="x")
    prof_y = mt.PhaseProfile(ks, [line("y", tk) for tk in ks], label="zak", direction="y")
    return prof_x, prof_y


def test_chern_from_zak_windings_qwz(qwz):
    prof_x, prof_y = _zak_profiles(qwz, 32)
    assert mt.chern_from_zak_windings(prof_x, prof_y) == (1, 1)


def test_chern_from_zak_windings_atomic(atomic):
    prof_x, prof_y = _zak_profiles(atomic, 16)
    assert mt.chern_from_zak_windings(prof_x, prof_y) == (0, 0)


def test_zak_windings_match_plaquette_for_both_state_families(qwz):
    """chern(curvature) = C_x = C_y exactly, for the bands and their conjugates."""
    for conj in (False, True):
        grid_states = qwz_band_grid(qwz, 32)
        if conj:
            grid_states = grid_states.conj()
        c_plaq = mt.chern_number(mt.berry_curvature_plaquette(grid_states))
        prof_x, prof_y = _zak_profiles(qwz, 32, conj=conj)
        cx, cy = mt.chern_from_zak_windings(prof_x, prof_y)
        assert c_plaq == cx == cy


def test_orientation_reversal_negates_windings(qwz):
    prof_x, prof_y = _zak_profiles(qwz, 32)
    cx, cy = mt.chern_from_zak_windings(prof_x, prof_y)
    rev_x = mt.PhaseProfile(prof_x.parameters, prof_x.phases[::-1])
    rev_y = mt.PhaseProfile(prof_y.parameters, prof_y.phases[::-1])
    cx_r, cy_r = mt.chern_from_zak_windings(rev_x, rev_y)
    assert (cx_r, cy_r) == (-cx, -cy)


def test_profile_requires_two_samples():
    with pytest.raises(ValueError):
        mt.PhaseProfile(np.array([0.0]), np.array([0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_zak_refuses_non_finite_states(qwz, bad):
    """A non-finite state is refused before any overlap determinant is taken."""
    states = qwz_band_line(qwz, 0.9, 16)
    states[5, 1] = bad
    with pytest.raises(mt.PhaseUndefinedError, match=r"^state at grid index \[5\] is not finite"):
        mt.zak_phase_wilson(states)


def test_curvature_refuses_non_finite_states(qwz):
    states = qwz_band_grid(qwz, 6)
    states[2, 3, 0] = np.nan
    with pytest.raises(mt.PhaseUndefinedError,
                       match=r"^state at grid index \[2, 3\] is not finite"):
        mt.berry_curvature_plaquette(states)


def test_chern_number_refuses_non_finite_plaquette_phase():
    values = np.zeros((4, 4))
    values[1, 2] = np.nan
    with pytest.raises(mt.PhaseUndefinedError,
                       match=r"^plaquette phase at grid index \[1, 2\] is not finite"):
        mt.chern_number(mt.CurvatureField(values))


def test_winding_refuses_non_finite_phase():
    ks = mt.momentum_line(8)
    phases = ks.copy()
    phases[3] = np.nan
    with pytest.raises(mt.PhaseUndefinedError,
                       match=rf"^phase at parameter {ks[3]:.6f} is not finite: winding undefined$"):
        mt.winding_of_phase_profile(mt.PhaseProfile(ks, phases))
