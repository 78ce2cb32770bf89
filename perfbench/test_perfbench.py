"""Tests of the benchmark itself: smoke runs, corrupted outputs, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from mixedtopo import cli  # noqa: E402


def _run_recipe(name, work, seed=3):
    operations = workloads.RECIPES[name](np.random.default_rng(seed), "smoke", work)
    for op in operations:
        assert cli.main(op.argv) == 0
    return operations


@pytest.fixture(scope="module", params=sorted(workloads.RECIPES))
def smoke_run(request, tmp_path_factory):
    work = str(tmp_path_factory.mktemp(request.param))
    return request.param, work, _run_recipe(request.param, work)


def _problems(operations):
    return [p for op in operations for p in op.check()]


def _rewrite_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


def test_smoke_outputs_pass_their_checks(smoke_run):
    _, _, operations = smoke_run
    assert _problems(operations) == []


def _flip_scan_winding(rows):
    col = rows[0].index("Cx_uhlmann")
    rows[1][col] = str(1 - int(rows[1][col]))


def _flip_scan_egp(rows):
    col = rows[0].index("Cy_egp")
    rows[-1][col] = str(-int(rows[-1][col]))


def _perturb_deviation(rows):
    rows[2][1] = repr(float(rows[2][1]) * (1 + 1e-5))


def _flip_egp_winding(rows):
    rows[1][0] = str(-int(rows[1][0]))


CORRUPTIONS = {
    "scan": [("invariant_scan.csv", _flip_scan_winding), ("invariant_scan.csv", _flip_scan_egp)],
    "chains": [("gauge_reduction_x.csv", _perturb_deviation),
               ("gauge_reduction_y.csv", _perturb_deviation)],
    "ness": [("egp_windings.csv", _flip_egp_winding)],
}


def test_corrupted_output_fails_its_check(smoke_run):
    name, work, operations = smoke_run
    out = os.path.join(work, "out")
    for filename, edit in CORRUPTIONS[name]:
        path = os.path.join(out, filename)
        kept = path + ".orig"
        shutil.copy(path, kept)
        try:
            _rewrite_csv(path, edit)
            assert _problems(operations), f"{filename}: corruption not detected"
        finally:
            os.replace(kept, path)
    assert _problems(operations) == []


def test_swapped_hfict_chern_fails_check(tmp_path):
    operations = _run_recipe("ness", str(tmp_path))
    path = tmp_path / "out" / "chern.json"
    summary = json.loads(path.read_text())
    summary["hfict"] = summary["hfict"][::-1]
    path.write_text(json.dumps(summary))
    assert _problems(operations)


def test_hfict_band_signs_match_thermal_case(tmp_path):
    config = tmp_path / "thermal.cfg"
    config.write_text("model = qwz\ntemperature = 20\ngrid_nx = 16\ngrid_ny = 16\n")
    assert cli.main(["chern", "--config", str(config), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "chern.json").read_text())
    kx, ky = np.meshgrid(oracle.momentum_line(16), oracle.momentum_line(16), indexing="ij")
    c_ground = oracle.band_cherns(oracle.bloch_from_d(oracle.qwz_d(kx, ky)))[0]
    assert summary["hfict"] == [s * c_ground for s in oracle.HFICT_BAND_SIGNS]


def test_momentum_space_determinant_matches_real_space():
    """det[1 - n + n S] against det[1 + M(D - 1)] built from its definition."""
    rng = np.random.default_rng(7)
    cells, p = 7, 2
    z = rng.normal(size=(cells, p, p)) + 1j * rng.normal(size=(cells, p, p))
    n = np.linalg.inv(np.eye(p) + np.einsum("kij,klj->kil", z, z.conj()))  # spectrum in (0, 1)
    ks = oracle.momentum_line(cells)
    j = np.arange(cells)
    phases = np.exp(-1j * np.subtract.outer(j, j)[:, :, None] * ks)
    m = np.einsum("abk,kij->aibj", phases, n).reshape(cells * p, cells * p) / cells
    d = np.repeat(np.exp(2j * np.pi * j / cells), p)
    sign, _ = np.linalg.slogdet(np.eye(cells * p) + m * (d - 1))
    assert abs(np.angle(sign) - oracle.chain_egp_phase(n)) < 1e-12


def test_traced_round_accounts_for_wall_time(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "ness", "--seed", "1",
         "--size", "smoke", "--work", str(tmp_path), "--started", "0", "--trace"],
        env=env, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = result["layers"]
    assert result["problems"] == [] and result["failed"] == 0
    for name in ("gaussian.busy_s", "geometry.busy_s", "serialize.busy_s", "cli.busy_s"):
        assert layers[name] > 0
    assert layers["gaussian.gap_checks"] == 2 * 16
    assert layers["egp.chains"] == 2 * 16
    assert abs(layers["trace.self_sum_s"] - result["wall_s"]) < 0.01 * result["wall_s"]
    assert (tmp_path / "spans.tsv").stat().st_size > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chains",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
