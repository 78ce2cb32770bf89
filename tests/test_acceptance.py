"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Slow criteria stay well inside their stated budgets on a laptop-class
machine.
"""

import math
import time

import numpy as np
import pytest

import mixedtopo as mt
from chain_oracle import gaussian_trace_diagonal_unitary
from conftest import random_hermitian, random_unitary
from fock_oracle import fock_trace
from uhlmann_oracle import bz_loop_path, cauchy_phases, uhlmann_phase

GAP = 2.0  # band gap of the asymmetric model at mu = 0, established in test_model


def _report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_acceptance_1_gaussian_trace_oracle():
    """det[1 + M(D-1)] vs the 2^L Fock-space enumeration, 20 random draws."""
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        l_modes = int(rng.integers(2, 9))
        g = random_hermitian(rng, l_modes)
        thetas = rng.uniform(-np.pi, np.pi, size=l_modes)
        w, v = np.linalg.eigh(g)
        covariance = ((v * (1 / (np.exp(w) + 1))) @ v.conj().T).T
        got = gaussian_trace_diagonal_unitary(covariance, thetas).value
        expected = fock_trace(g, thetas)
        worst = max(worst, abs(got - expected))
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    _report(1, f"20 draws, L <= 8: max |det - Fock trace| = {worst:.2e} in {elapsed:.1f}s")


def test_acceptance_2_ground_state_chern(qwz):
    t0 = time.time()
    states = mt.band_systems(qwz.matrix(*mt.MomentumGrid(32, 32).mesh()))[1][..., 0]
    field = mt.berry_curvature_plaquette(states)
    total = field.sum() / (2 * np.pi)
    chern = mt.chern_number(field)
    elapsed = time.time() - t0
    assert chern == 1
    assert abs(total - chern) < 1e-6
    assert elapsed < 1.0
    _report(2, f"lower-band Chern = {chern}, residue {abs(total - chern):.2e}, "
               f"{elapsed * 1e3:.0f} ms")


def test_acceptance_3_egp_direction_consistency(qwz):
    t0 = time.time()
    outcomes = {}
    for t_over_gap in (0.1, 1.0, 20.0):
        beta = 1.0 / (t_over_gap * GAP)
        spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
        outcomes[t_over_gap] = mt.egp_windings(spec, 10, 64)
    elapsed = time.time() - t0
    assert all(pair == (1, 1) for pair in outcomes.values())
    assert elapsed < 120.0
    _report(3, f"C_x^EGP = C_y^EGP = 1 at T/gap in {{0.1, 1, 20}} (N = 10), {elapsed:.1f}s")


def test_acceptance_4_gauge_reduction(qwz):
    t0 = time.time()
    beta = 1.0 / (20.0 * GAP)
    spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
    devs = mt.gauge_reduction_deviations(spec, ["x"], np.pi / 3, [10, 50, 100])[0]
    values = [d for _, d in devs]
    windings = {n: mt.egp_windings(spec, n, 64) for n in (10, 50, 100)}
    elapsed = time.time() - t0
    assert values[0] > values[1] > values[2] > 0
    assert set(windings.values()) == {(1, 1)}
    assert elapsed < 300.0
    _report(4, "deviations at T = 20 gap, ky = pi/3: "
               + ", ".join(f"N={n}: {d:.4f}" for n, d in devs)
               + f"; windings identical (1, 1); {elapsed:.1f}s")


def test_acceptance_5_uhlmann_endpoints(qwz):
    t0 = time.time()
    grid = mt.MomentumGrid(32, 32)
    cold = mt.uhlmann_windings(qwz, 20.0 / GAP, 0.0, grid)
    hot = mt.uhlmann_windings(qwz, 0.01 / GAP, 0.0, grid)
    # Cauchy refinement transcript for one representative loop
    _, m_used = cauchy_phases(qwz, 20.0 / GAP, 0.0, "x", [np.pi / 3], 512)
    elapsed = time.time() - t0
    assert cold == (1, 1)
    assert hot == (0, 0)
    assert m_used <= 8192
    _report(5, f"beta*gap = 20 -> {cold}, beta*gap = 0.01 -> {hot}, "
               f"Cauchy met at {m_used} <= 8192 path points; {elapsed:.1f}s")


def test_acceptance_6_uhlmann_asymmetry_scan(qwz):
    t0 = time.time()
    temperatures = np.geomspace(1e-2, 1e2, 48) * GAP
    reports = mt.uhlmann_temperature_scan(qwz, 0.0, temperatures, mt.MomentumGrid(32, 32),
                                          n_cells=10, egp_transverse=128)
    elapsed = time.time() - t0

    asymmetric = [r for r in reports if r.uhlmann_asymmetric]
    assert len(asymmetric) >= 1
    egp_rows = [r for r in reports if r.cx_egp is not None]
    assert len(egp_rows) == len(reports)  # every row's EGP computed
    assert all(r.cx_egp == r.cy_egp for r in egp_rows)
    assert elapsed < 900.0
    window = (min(r.temperature for r in asymmetric) / GAP,
              max(r.temperature for r in asymmetric) / GAP)
    _report(6, f"{len(asymmetric)} asymmetric Uhlmann rows, window "
               f"T/gap in [{window[0]:.3f}, {window[1]:.3f}] (reported, not asserted); "
               f"EGP symmetric on all {len(reports)} rows; {elapsed:.0f}s")


def test_acceptance_7_pure_state_reduction(qwz):
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    n_cells = 11  # odd: the (-1)^(N-1) closure factor of the momentum shift is +1
    profile = mt.egp_profile(spec, "x", n_cells, 64)
    worst = 0.0
    for tk, phase in zip(profile.parameters, profile.phases):
        states = mt.band_systems(
            mt.fictitious_hamiltonian(spec, mt.momentum_line(n_cells), tk))[1][..., 1]
        zak = mt.zak_phase_wilson(states)
        worst = max(worst, abs(mt.principal_branch(phase - zak)))
    assert worst <= 1e-10
    _report(7, f"beta = inf EGP profile vs filled fictitious-band Zak profile: "
               f"max pointwise deviation {worst:.2e} on 64 transverse points")


def test_acceptance_8_gauge_invariance_suite(qwz):
    rng = np.random.default_rng(7)
    trials = 100

    zak_states = mt.band_systems(qwz.matrix(mt.momentum_line(24), 0.8))[1][..., 0]
    zak_base = mt.zak_phase_wilson(zak_states)
    worst_zak = 0.0
    for _ in range(trials):
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=24))
        moved = mt.zak_phase_wilson(zak_states * phases[:, None])
        worst_zak = max(worst_zak, abs(mt.principal_branch(moved - zak_base)))
    assert worst_zak <= 1e-10

    grid_states = mt.band_systems(qwz.matrix(*mt.MomentumGrid(8, 8).mesh()))[1][..., 0]
    base_field = mt.berry_curvature_plaquette(grid_states)
    worst_curv = 0.0
    for _ in range(trials):
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(8, 8)))
        moved = mt.berry_curvature_plaquette(grid_states * phases[:, :, None])
        worst_curv = max(worst_curv,
                         np.abs(moved - base_field).max(),
                         abs(moved.sum() - base_field.sum()))
    assert worst_curv <= 1e-10

    path = bz_loop_path(qwz, 2.0, 0.0, "x", 1.1, 48)
    reference = uhlmann_phase(path)
    eig, vec = np.linalg.eigh(path.rhos)
    sqrts = np.einsum("tij,tj,tkj->tik", vec, np.sqrt(np.clip(eig, 0, None)), vec.conj())
    worst_uhl = 0.0
    for _ in range(trials):
        gauges = np.stack([random_unitary(rng, 2) for _ in range(len(path))])
        amplitudes = sqrts @ gauges
        product = np.eye(2, dtype=complex)
        for i in range(len(path)):
            pair = amplitudes[(i + 1) % len(path)].conj().T @ amplitudes[i]
            w, _, zh = np.linalg.svd(pair)
            product = (w @ zh) @ product
        holonomy = gauges[0] @ product @ gauges[0].conj().T
        phase = np.angle(np.trace(path.rhos[0] @ holonomy))
        worst_uhl = max(worst_uhl, abs(mt.principal_branch(phase - reference)))
    assert worst_uhl <= 1e-10

    _report(8, f"100 trials each: zak {worst_zak:.2e}, curvature {worst_curv:.2e}, "
               f"uhlmann {worst_uhl:.2e} (all <= 1e-10)")


def test_acceptance_9_thermal_correspondence(qwz):
    mesh = mt.MomentumGrid(24, 24).mesh()
    _, frames = mt.band_systems(qwz.matrix(*mesh))
    h_cherns = [mt.chern_number(mt.berry_curvature_plaquette(frames[..., band]))
                for band in range(2)]
    outcomes = {}
    for t_over_gap in (0.5, 5.0):
        beta = 1.0 / (t_over_gap * GAP)
        spec = mt.GaussianStateSpec.thermal(beta, 0.0, qwz)
        _, frames = mt.band_systems(mt.fictitious_hamiltonian(spec, *mesh))
        fict_cherns = [mt.chern_number(mt.berry_curvature_plaquette(frames[..., band]))
                       for band in range(2)]
        outcomes[t_over_gap] = fict_cherns
        assert fict_cherns == h_cherns
    _report(9, f"per-band Chern of hfict equals h = {h_cherns} at T/gap in {{0.5, 5}}")
