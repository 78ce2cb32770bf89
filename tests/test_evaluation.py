"""Array-native model evaluation: per-k equivalence and evaluator-call counts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

import mixedtopo as mt
from mixedtopo import cli, config
from conftest import random_hermitian
from mixedtopo.model import band_systems
from per_k_oracle import stack_per_k

TAB_GRID = mt.MomentumGrid(6, 5)


def _models():
    rng = np.random.default_rng(11)
    tab_values = np.stack([np.stack([random_hermitian(rng, 3) for _ in range(TAB_GRID.ny)])
                           for _ in range(TAB_GRID.nx)])
    constant = random_hermitian(rng, 3)
    return {
        "qwz": mt.qwz_model(1.3, 2.1, 0.7),
        "atomic": mt.atomic_model((0.3, -0.2, 0.9)),
        "tabulated": mt.tabulated_model(TAB_GRID, tab_values),
        "constant": mt.BlochModel(p=3, evaluator=lambda kx, ky: constant, name="constant"),
    }


MODELS = _models()
SHAPES = mutually_broadcastable_shapes(num_shapes=2, max_dims=3, min_side=1, max_side=4)


def _momenta(rng, name, kx_shape, ky_shape):
    if name == "tabulated":
        return (TAB_GRID.kx_values()[rng.integers(0, TAB_GRID.nx, kx_shape)],
                TAB_GRID.ky_values()[rng.integers(0, TAB_GRID.ny, ky_shape)])
    return rng.uniform(-10, 10, kx_shape), rng.uniform(-10, 10, ky_shape)


@pytest.mark.parametrize("name", sorted(MODELS))
@given(shapes=SHAPES, seed=st.integers(0, 2 ** 32 - 1))
def test_matrix_on_broadcast_shapes_equals_per_k_calls_bitwise(name, shapes, seed):
    model = MODELS[name]
    kx, ky = _momenta(np.random.default_rng(seed), name, *shapes.input_shapes)
    got = model.matrix(kx, ky)
    assert got.shape == shapes.result_shape + (model.p, model.p)
    assert np.array_equal(got, stack_per_k(model.matrix, kx, ky))


@given(shapes=SHAPES, seed=st.integers(0, 2 ** 32 - 1), axis=st.sampled_from([0, 1]),
       n_off=st.integers(1, 3))
def test_off_grid_momentum_in_array_raises_the_per_k_error(shapes, seed, axis, n_off):
    rng = np.random.default_rng(seed)
    ks = [np.array(k, dtype=float)
          for k in _momenta(rng, "tabulated", *shapes.input_shapes)]
    flat = ks[axis].reshape(-1)
    flat[rng.integers(0, flat.size, n_off)] += rng.uniform(0.01, 0.5, n_off)
    tab = MODELS["tabulated"]
    with pytest.raises(ValueError, match="is not a grid sample") as per_k:
        stack_per_k(tab.matrix, *ks)
    with pytest.raises(ValueError) as batched:
        tab.matrix(*ks)
    assert str(batched.value) == str(per_k.value)


def test_non_finite_evaluator_output_raises_non_hermitian_naming_k():
    def evaluate(kx, ky):
        return np.where(kx > 1.0, np.nan, 1.0)[..., None, None] * np.eye(2)

    model = mt.BlochModel(p=2, evaluator=evaluate, name="nan-above-1")
    with pytest.raises(mt.NonHermitianError, match=r"k=\(1\.570796, 0\.300000\)"):
        model.matrix(mt.momentum_line(8), 0.3)
    with pytest.raises(mt.NonHermitianError):
        mt.band_gap(model, mt.MomentumGrid(8, 8), 0.0)
    with pytest.raises(mt.NonHermitianError):
        band_systems(np.full((2, 2), np.nan, dtype=complex))


# ---------------------------------------------------------------- call counts

def counting(model, calls):
    """The same model, appending the momentum shape of every evaluator call to `calls`."""
    def evaluate(kx, ky):
        calls.append(np.shape(kx))
        return model.evaluator(kx, ky)

    return dataclasses.replace(model, evaluator=evaluate)


def _calls(run, sizes):
    """Evaluator calls made by run(size) for each size."""
    counts = []
    for size in sizes:
        calls = []
        run(calls, size)
        counts.append(len(calls))
    return counts


def test_egp_profile_evaluator_calls_do_not_grow(qwz):
    def run(calls, size):
        spec = mt.GaussianStateSpec.thermal(0.7, 0.0, counting(qwz, calls))
        mt.egp_profile(spec, "y", *size)

    assert _calls(run, [(6, 8), (12, 32)]) == [1, 1]


def test_uhlmann_phase_profile_evaluator_calls_do_not_grow(qwz):
    def run(calls, size):
        n_points, n_transverse = size
        mt.uhlmann_phase_profile(counting(qwz, calls), 1.0, 0.0, "x",
                                 mt.momentum_line(n_transverse), n_points)

    assert _calls(run, [(16, 4), (64, 8)]) == [1, 1]


def test_ground_state_chern_evaluator_calls_do_not_grow(qwz):
    def run(calls, n):
        assert mt.ground_state_chern(counting(qwz, calls), 0.0, mt.MomentumGrid(n, n)) == 1

    assert _calls(run, [8, 16]) == [1, 1]


def test_cli_chern_evaluator_calls_do_not_grow(tmp_path, monkeypatch, qwz):
    def run(calls, n):
        monkeypatch.setattr(config, "qwz_model", lambda *args: counting(qwz, calls))
        cfg = tmp_path / f"c{n}.txt"
        cfg.write_text(f"model = qwz\nbeta = 0.8\ngrid_nx = {n}\ngrid_ny = {n}\n")
        assert cli.main(["chern", "--config", str(cfg), "--out", str(tmp_path / f"o{n}")]) == 0

    assert _calls(run, [8, 16]) == [2, 2]  # h frames and the hfict grid
