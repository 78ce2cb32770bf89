import hashlib
import json
import math
import pathlib
import re

import numpy as np
import pytest

import mixedtopo as mt
from mixedtopo import config, serialize, uhlmann
from mixedtopo.cli import SUBCOMMANDS, main
from mixedtopo.config import parse_config
from conftest import count_eigh
from per_k_oracle import frames_per_k


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """
# asymmetric two-band model, small grids for fast tests
model = qwz
alpha = 1.0
gamma = 3.0
mass = 1.0
mu = 0.0
grid_nx = 16
grid_ny = 16
"""


def test_parse_defaults_and_values(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.txt", BASE + "beta = 5\nchain_cells = 8\n"))
    assert cfg.model == "qwz"
    assert cfg.gamma == 3.0
    assert cfg.grid_nx == 16
    assert cfg.beta == 5.0
    assert cfg.chain_cells == 8
    assert cfg.directions == ["x", "y"]
    assert cfg.beta_raw() == 5.0


def test_parse_rejects_unknown_key(tmp_path):
    with pytest.raises(mt.ConfigError) as err:
        parse_config(write_config(tmp_path / "c.txt", BASE + "betta = 5\n"))
    assert "betta" in str(err.value)
    assert "line" in str(err.value)


def test_parse_rejects_bad_number(tmp_path):
    with pytest.raises(mt.ConfigError) as err:
        parse_config(write_config(tmp_path / "c.txt", BASE + "beta = fast\n"))
    assert "beta" in str(err.value)


def test_parse_rejects_duplicate_key(tmp_path):
    with pytest.raises(mt.ConfigError):
        parse_config(write_config(tmp_path / "c.txt", BASE + "beta = 1\nbeta = 2\n"))


def test_parse_rejects_beta_and_temperature(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.txt", BASE + "beta = 1\ntemperature = 2\n"))
    with pytest.raises(mt.ConfigError):
        cfg.beta_raw()


def test_parse_beta_inf(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.txt", BASE + "beta = inf\n"))
    assert math.isinf(cfg.beta_raw())


def test_temperature_gap_units(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.txt", BASE + "temperature = 20\n"))
    # gap of the default model is 2, so T = 40 raw and beta = 1/40
    assert cfg.beta_raw() == pytest.approx(1.0 / 40.0)
    cfg = parse_config(write_config(tmp_path / "c.txt",
                                    BASE + "temperature = 20\nt_units = raw\n"))
    assert cfg.beta_raw() == pytest.approx(1.0 / 20.0)


ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, command", [("egp_profiles.cfg", "egp-profile"),
                                           ("invariant_scan.cfg", "invariant-scan"),
                                           ("gauge_reduction.cfg", "gauge-reduction"),
                                           ("egp_winding.cfg", "egp-winding")])
def test_experiment_configs_parse(name, command):
    """The experiment configs under scripts/ parse, and README runs each of them."""
    cfg = parse_config(ROOT / "scripts" / name)
    assert cfg.model == "qwz"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert f"mixedtopo {command} --config scripts/{name}" in readme


def test_temperature_zero_means_pure(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.txt", BASE + "temperature = 0\n"))
    assert math.isinf(cfg.beta_raw())


def test_parse_rejects_bad_directions(tmp_path):
    with pytest.raises(mt.ConfigError):
        parse_config(write_config(tmp_path / "c.txt", BASE + "directions = x,z\n"))


def test_cli_spectrum(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", BASE)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    header, rows = serialize.read_csv(out / "spectrum.csv")
    assert header == ["kx", "ky", "e_1", "e_2"]
    assert len(rows) == 16 * 16
    for row in rows[:8]:
        kx, ky, e1, e2 = (float(v) for v in row)
        r = np.linalg.norm(mt.qwz_d_vector(kx, ky))
        assert e1 == pytest.approx(-r, abs=1e-12)
        assert e2 == pytest.approx(r, abs=1e-12)
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["gap"] == pytest.approx(2.0, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert all(t["status"] == "ok" for t in manifest["tasks"])
    assert str(out / "spectrum.csv") in manifest["outputs"] or "spectrum.csv" in " ".join(manifest["outputs"])


def test_cli_spectrum_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.txt", BASE)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


def test_cli_config_error_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", BASE + "wibble = 3\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "wibble" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_numerical_error_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", BASE.replace("mu = 0.0", "mu = 1.5"))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(t["status"] == "error" for t in manifest["tasks"])


def test_cli_numerical_error_while_resolving_exit_3(tmp_path, capsys):
    """A temperature in gap units needs the gap at mu; mu inside a band stops the run
    before any task, and no output directory is made."""
    cfg = write_config(tmp_path / "c.txt",
                       "model = qwz\ngrid_nx = 8\ngrid_ny = 8\ntemperature = 20\nmu = 1.5\n")
    out = tmp_path / "out"
    assert main(["egp-winding", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical error: mu=1.5 lies inside a band")
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,extra", [
    ("egp-winding", "alpha", "inf", {}),
    ("egp-winding", "alpha", "nan", {}),
    ("egp-winding", "gamma", "inf", {}),
    ("egp-winding", "gamma", "nan", {}),
    ("egp-winding", "mass", "inf", {}),
    ("egp-winding", "mass", "nan", {}),
    ("egp-winding", "atomic_d", "0,nan,1", {"model": "atomic"}),
    ("egp-winding", "temperature", "nan", {}),
    ("egp-winding", "temperature", "inf", {}),
    ("egp-profile", "temperature_list", "0,inf", {}),
    ("egp-profile", "temperature_list", "nan", {}),
    ("invariant-scan", "scan_t_max", "inf", {}),
    ("gauge-reduction", "transverse_k", "nan", {"chain_cells_list": "4,8"}),
    ("gauge-reduction", "chain_cells_list", "8,4", {}),
    ("gauge-reduction", "chain_cells_list", "100,100", {}),
    ("gauge-reduction", "directions", "x,x", {"chain_cells_list": "4,8"}),
    ("egp-profile", "directions", "x,x", {}),
    ("egp-profile", "temperature_list", "20,20", {}),
    ("egp-profile", "chain_cells_list", "8,8", {}),
    ("egp-profile", "temperature_list", "20,20.0000001", {}),  # one file name, T20
    ("egp-winding", "model", "wibble", {}),
    ("egp-winding", "t_units", "kelvin", {}),
    ("egp-winding", "beta", "-1", {}),
    ("egp-winding", "temperature", "-1", {}),
    ("egp-profile", "temperature_list", "-1", {}),
    ("egp-profile", "chain_cells_list", "1,4", {}),
    ("invariant-scan", "scan_t_min", "5", {"scan_t_max": "1"}),
    ("egp-winding", "grid_nx", "2.5", {}),
    ("egp-winding", None, "grid_ny 8", {}),  # a line without '='
    ("egp-winding", "atomic_d", "0,1", {"model": "atomic"}),
    ("egp-winding", "model_path", None, {"model": "tabulated"}),
    ("gauge-reduction", "chain_cells_list", "8", {}),
    ("gauge-reduction", "temperature", "0", {"chain_cells_list": "4,8"}),
    ("gauge-reduction", "beta", "inf", {"temperature": None, "chain_cells_list": "4,8"}),
])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, command, key, value, extra):
    """A non-finite, negative or unparsable number, an unknown name, a repeated or
    too short list, a descending gauge-reduction list or a pure gauge-reduction
    state exits 2 naming its key, as does a key that is needed but missing (value
    None, not written); a line without '=' (key None) exits 2 naming its line."""
    items = {"model": "qwz", "grid_nx": "8", "grid_ny": "8", "temperature": "20", **extra,
             key: value}
    cfg = write_config(tmp_path / "c.txt", "".join(
        f"{v}\n" if k is None else f"{k} = {v}\n" for k, v in items.items() if v is not None))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert (f"(key: {key})" if key else f"(line {len(items)})") in err
    assert not (tmp_path / "out").exists()


def _save_model(tmp_path, qwz, n):
    grid = mt.MomentumGrid(n, n)
    path = tmp_path / "model.dat"
    mt.save_matrix_grid(path, grid, qwz.matrix(*grid.mesh()))
    return path


@pytest.mark.parametrize("command,missing,key", [
    *[(command, "model_path", "model" if command == "invariant-scan" else "model_path")
      for command in SUBCOMMANDS],
    *[(command, "temperature", "beta")
      for command in ("egp-profile", "egp-winding", "gauge-reduction")],
])
def test_cli_config_error_found_before_any_task(tmp_path, capsys, command, missing, key):
    """A missing model file, or a missing beta/temperature where a state is
    needed, exits 2 naming its key before any task runs: no output at all."""
    items = {"grid_nx": "8", "grid_ny": "8", "temperature": "20", "chain_cells_list": "4,8"}
    if missing == "model_path":
        items.update(model="tabulated", model_path=tmp_path / "missing.dat")
    else:
        del items["temperature"]
    cfg = write_config(tmp_path / "c.txt", "".join(f"{k} = {v}\n" for k, v in items.items()))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"(key: {key})" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "chern", "egp-profile", "egp-winding",
                                     "gauge-reduction"])
def test_cli_tabulated_model_read_once(tmp_path, monkeypatch, qwz, command):
    model_path = _save_model(tmp_path, qwz, 16)
    reads = []
    load = config.load_matrix_grid

    def counting_load(path):
        reads.append(str(path))
        return load(path)

    monkeypatch.setattr(config, "load_matrix_grid", counting_load)
    on_grid_k = -np.pi + 2 * np.pi * 3 / 16  # tabulated chains run on stored momenta
    cfg = write_config(tmp_path / "c.txt",
                       f"model = tabulated\nmodel_path = {model_path}\ngrid_nx = 16\n"
                       "grid_ny = 16\ntemperature = 1\nchain_cells = 8\n"
                       f"chain_cells_list = 8,16\ntransverse_k = {on_grid_k!r}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert reads == [str(model_path)]


def test_cli_invariant_scan_refuses_tabulated_model(tmp_path, capsys, monkeypatch, qwz):
    """The scan's Uhlmann refinement leaves any stored grid: refused before the file is read."""
    model_path = _save_model(tmp_path, qwz, 16)

    def no_load(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(config, "load_matrix_grid", no_load)
    cfg = write_config(tmp_path / "c.txt",
                       f"model = tabulated\nmodel_path = {model_path}\ngrid_nx = 16\n"
                       "grid_ny = 16\npath_points = 16\nscan_points = 2\n")
    assert main(["invariant-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "(key: model)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return calls


def test_cli_egp_profile_takes_one_gap(tmp_path, monkeypatch):
    """2 temperatures x 2 N x 2 directions: one eigvalsh, of the gap mesh."""
    calls = _count_eigvalsh(monkeypatch)
    cfg = write_config(tmp_path / "c.txt",
                       BASE + "chain_cells_list = 8,10\ntemperature_list = 5,20\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out)]) == 0
    assert len(list(out.glob("egp_profile_*.csv"))) == 8
    assert calls == [(16, 16, 2, 2)]


def test_cli_egp_profile_shares_line_spectra(tmp_path, monkeypatch):
    """One line-spectrum cache per direction on the profile recipe: N = 10 and 50 are
    diagonalized once, N = 100 adds only its odd points, both temperatures reuse them.
    The 12 CSVs are the committed copies under tests/data/egp_profiles, byte for byte."""
    calls = count_eigh(monkeypatch)
    recipe = pathlib.Path(__file__).parent.parent / "scripts" / "egp_profiles.cfg"
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", str(recipe), "--out", str(out)]) == 0
    assert calls == [(128, 10), (128, 50), (128, 50)] * 2
    assert sum(math.prod(shape) for shape in calls) == 28160
    written = sorted(out.glob("egp_profile_*.csv"))
    committed = sorted((pathlib.Path(__file__).parent / "data" / "egp_profiles").glob("*.csv"))
    assert [f.name for f in written] == [f.name for f in committed] and len(written) == 12
    for got, expected in zip(written, committed):
        assert got.read_bytes() == expected.read_bytes(), got.name


def test_cli_spectrum_diagonalizes_once(tmp_path, monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    cfg = write_config(tmp_path / "c.txt", BASE)
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert calls == [(16, 16, 2, 2)]


def test_cli_chern(tmp_path):
    cfg = write_config(tmp_path / "c.txt", BASE + "beta = 1.0\n")
    out = tmp_path / "out"
    assert main(["chern", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "chern.json").read_text())
    assert summary["h"] == [1, -1]
    assert summary["hfict"] == [1, -1]
    field, kxs, kys = serialize.curvature_from_csv(out / "curvature_h_band0.csv")
    assert mt.chern_number(field) == 1
    assert len(kxs) == 16


def test_chern_recipe_matches_committed_hashes(tmp_path):
    """scripts/chern.cfg writes chern.json as committed under tests/data/chern, and four
    curvature CSVs whose sha256 sums are the committed curvature.sha256, bit for bit."""
    out, data = tmp_path / "out", ROOT / "tests" / "data" / "chern"
    assert main(["chern", "--config", str(ROOT / "scripts" / "chern.cfg"), "--out", str(out)]) == 0
    assert (out / "chern.json").read_bytes() == (data / "chern.json").read_bytes()
    expected = dict(reversed(line.split("  ")) for line in
                    (data / "curvature.sha256").read_text().splitlines())
    assert sorted(p.name for p in out.glob("curvature_*.csv")) == sorted(expected)
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_cli_chern_without_state_skips_hfict(tmp_path):
    cfg = write_config(tmp_path / "c.txt", BASE)
    out = tmp_path / "out"
    assert main(["chern", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "chern.json").read_text())["hfict"] is None


def test_cli_egp_winding(tmp_path):
    cfg = write_config(tmp_path / "c.txt", BASE + "beta = 0.5\nchain_cells = 8\n")
    out = tmp_path / "out"
    assert main(["egp-winding", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "egp_windings.json").read_text())
    assert summary["cx_egp"] == summary["cy_egp"] == 1
    header, rows = serialize.read_csv(out / "egp_windings.csv")
    assert header == ["cx_egp", "cy_egp"]
    assert rows == [["1", "1"]]


def test_cli_egp_profile_files_and_windings(tmp_path):
    # even chain length: the zero mode of the shift spectrum carries the
    # winding through high temperatures (odd chains flatten out there);
    # 32 transverse points keep the hot profile's jumps below the margin
    cfg = write_config(tmp_path / "c.txt",
                       BASE.replace("grid_ny = 16", "grid_ny = 32")
                       .replace("grid_nx = 16", "grid_nx = 32")
                       + "chain_cells_list = 10\ntemperature_list = 0,20\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.glob("egp_profile_*.csv"))
    assert names == [
        "egp_profile_x_N10_T0.csv", "egp_profile_x_N10_T20.csv",
        "egp_profile_y_N10_T0.csv", "egp_profile_y_N10_T20.csv",
    ]
    # windings recomputed from the emitted files agree between directions
    for suffix in ("T0", "T20"):
        prof_x, _, _ = serialize.profile_from_csv(out / f"egp_profile_x_N10_{suffix}.csv")
        prof_y, _, _ = serialize.profile_from_csv(out / f"egp_profile_y_N10_{suffix}.csv")
        cx = mt.winding_of_phase_profile(prof_x)
        cy = -mt.winding_of_phase_profile(prof_y)
        assert cx == cy == 1


def test_cli_egp_profile_pure_matches_zak(tmp_path, qwz):
    cfg = write_config(tmp_path / "c.txt", BASE + "chain_cells_list = 9\ntemperature_list = 0\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out)]) == 0
    profile, n_cells, beta = serialize.profile_from_csv(out / "egp_profile_x_N9_T0.csv")
    assert (n_cells, beta) == (9, math.inf)
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    for tk, phase in zip(profile.parameters, profile.phases):
        states = mt.band_systems(
            mt.fictitious_hamiltonian(spec, mt.momentum_line(9), tk))[1][..., 1]
        assert abs(mt.principal_branch(phase - mt.zak_phase_wilson(states))) <= 1e-10


def test_cli_gauge_reduction(tmp_path):
    cfg = write_config(tmp_path / "c.txt",
                       BASE + "temperature = 20\nchain_cells_list = 10,30\ndirections = x\n")
    out = tmp_path / "out"
    assert main(["gauge-reduction", "--config", cfg, "--out", str(out)]) == 0
    header, rows = serialize.read_csv(out / "gauge_reduction_x.csv")
    assert header == ["n_cells", "deviation"]
    devs = [float(r[1]) for r in rows]
    assert devs[0] > devs[1]
    summary = json.loads((out / "gauge_reduction_x.json").read_text())
    assert summary["log_log_slope"] < 0


def test_cli_gauge_reduction_one_task_writes_what_each_direction_writes_alone(tmp_path):
    """Both directions are one task whose y files are byte for byte those of a y-only run,
    here with N = 10 sharing a kernel call and N = 3000 not."""
    outputs = {}
    for directions in ("x,y", "y"):
        cfg = write_config(tmp_path / f"{directions}.txt", BASE + "temperature = 20\n"
                           f"chain_cells_list = 10,3000\ndirections = {directions}\n")
        out = tmp_path / directions
        assert main(["gauge-reduction", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert [task["task"] for task in manifest["tasks"]] == ["gauge-reduction"]
        outputs[directions] = {path.name: path.read_bytes() for path in out.iterdir()
                               if path.name != "manifest.json"}
    assert sorted(outputs["x,y"]) == [f"gauge_reduction_{d}.{ext}"
                                      for d in "xy" for ext in ("csv", "json")]
    assert outputs["y"] == {name: data for name, data in outputs["x,y"].items() if "_y." in name}


def test_cli_invariant_scan_small(tmp_path):
    cfg = write_config(tmp_path / "c.txt", BASE.replace("grid_nx = 16", "grid_nx = 12")
                       .replace("grid_ny = 16", "grid_ny = 12")
                       + "scan_points = 3\nscan_t_min = 0.05\nscan_t_max = 5\n"
                       + "path_points = 128\nchain_cells = 6\n")
    out = tmp_path / "out"
    assert main(["invariant-scan", "--config", cfg, "--out", str(out)]) == 0
    reports = serialize.reports_from_csv(out / "invariant_scan.csv")
    assert len(reports) == 3
    assert all(r.cx_egp == r.cy_egp == 1 for r in reports)
    assert reports[0].cx_uhlmann == reports[0].cy_uhlmann == 1
    assert reports[-1].cx_uhlmann == reports[-1].cy_uhlmann == 0
    summary = json.loads((out / "invariant_scan_summary.json").read_text())
    assert summary["rows_ok"] == 3
    assert summary["egp_always_symmetric"] is True


def test_cli_invariant_scan_ignores_retired_path_points(tmp_path):
    """path_points still parses and must be >= 2, but sets nothing: the windings pick their
    own path, so a scan with path_points = 2 writes the data files of one without the key.
    At T = 0.02 gap the 8^2 cold row is certified (1, 1)."""
    text = (BASE.replace("grid_nx = 16", "grid_nx = 8").replace("grid_ny = 16", "grid_ny = 8")
            + "scan_points = 2\nscan_t_min = 0.02\nscan_t_max = 2\nchain_cells = 6\n")
    with pytest.raises(mt.ConfigError, match="path_points must be >= 2"):
        parse_config(write_config(tmp_path / "bad.txt", text + "path_points = 1\n"))
    outs = []
    for name, extra in (("plain", ""), ("retired", "path_points = 2\n")):
        cfg = write_config(tmp_path / f"{name}.txt", text + extra)
        outs.append(tmp_path / name)
        assert main(["invariant-scan", "--config", cfg, "--out", str(outs[-1])]) == 0
    files = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert files == ["invariant_scan.csv", "invariant_scan_summary.json"]
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    cold, hot = serialize.reports_from_csv(outs[0] / "invariant_scan.csv")
    assert (cold.status, cold.cx_uhlmann, cold.cy_uhlmann) == ("ok", 1, 1)
    assert (hot.status, hot.cx_uhlmann, hot.cy_uhlmann) == ("ok", 0, 0)


@pytest.mark.parametrize("path_points", [8, 5, 3, 2])
def test_cli_invariant_scan_refines_a_coarse_cold_path(tmp_path, path_points):
    """At T = 0.02 gap these paths would fail the link check; a config that still names
    one gets windings certified on their own path, so the cold row is (1, 1)."""
    cfg = write_config(tmp_path / "c.txt", BASE.replace("grid_nx = 16", "grid_nx = 8")
                       .replace("grid_ny = 16", "grid_ny = 8")
                       + "scan_points = 2\nscan_t_min = 0.02\nscan_t_max = 2\n"
                       + f"path_points = {path_points}\nchain_cells = 6\n")
    out = tmp_path / "out"
    assert main(["invariant-scan", "--config", cfg, "--out", str(out)]) == 0
    cold, hot = serialize.reports_from_csv(out / "invariant_scan.csv")
    assert (cold.status, cold.cx_uhlmann, cold.cy_uhlmann) == ("ok", 1, 1)
    assert (hot.status, hot.cx_uhlmann, hot.cy_uhlmann) == ("ok", 0, 0)


def test_cli_invariant_scan_recipe_certifies_every_row_at_the_start(tmp_path):
    """scripts/invariant_scan.cfg: all 48 rows are ok, and the summary records that no
    row's Uhlmann windings needed more than PATH_POINTS_START = 32 path points."""
    out = tmp_path / "out"
    cfg = str(ROOT / "scripts" / "invariant_scan.cfg")
    assert main(["invariant-scan", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "invariant_scan_summary.json").read_text())
    assert summary["rows_ok"] == summary["rows_total"] == 48
    assert summary["uhlmann_path_points"] == 32


def test_cli_invariant_scan_summary_path_points_null_without_certified_rows(tmp_path,
                                                                              monkeypatch):
    """The summary's uhlmann_path_points is the largest over certified rows: null when no
    row's Uhlmann windings were certified."""
    monkeypatch.setattr(uhlmann, "PATH_POINTS_START", 4)
    monkeypatch.setattr(uhlmann, "PATH_POINTS_CAP", 4)
    cfg = write_config(tmp_path / "c.txt", BASE.replace("grid_nx = 16", "grid_nx = 8")
                       .replace("grid_ny = 16", "grid_ny = 8")
                       + "scan_points = 2\nscan_t_min = 0.3\nscan_t_max = 0.31\n"
                       + "chain_cells = 6\n")
    out = tmp_path / "out"
    assert main(["invariant-scan", "--config", cfg, "--out", str(out)]) == 0
    reports = serialize.reports_from_csv(out / "invariant_scan.csv")
    assert all(r.status.startswith("uhlmann: ") for r in reports)
    summary = json.loads((out / "invariant_scan_summary.json").read_text())
    assert summary["rows_ok"] == 0
    assert summary["uhlmann_path_points"] is None


def test_cli_jobs_flag(tmp_path, capsys):
    """Tasks run in order: --jobs parses for old callers, and only as 1."""
    cfg = write_config(tmp_path / "c.txt",
                       BASE + "chain_cells_list = 9\ntemperature_list = 0,20\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
    assert len(list(out.glob("egp_profile_*.csv"))) == 4
    with pytest.raises(SystemExit) as exc:
        main(["egp-profile", "--config", cfg, "--out", str(tmp_path / "o2"), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


def test_cli_failed_task_leaves_later_tasks_running(tmp_path, capsys):
    """The N = 2 pure chain has zero amplitude; the N = 10 task still writes its file."""
    cfg = write_config(tmp_path / "c.txt",
                       BASE + "directions = x\nchain_cells_list = 2,10\ntemperature = 0\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out)]) == 3
    assert "egp-profile:x:N2:betainf failed" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert [(t["task"], t["status"]) for t in manifest["tasks"]] == [
        ("egp-profile:x:N2:betainf", "error"), ("egp-profile:x:N10:betainf", "ok")]
    assert manifest["outputs"] == [str(out / "egp_profile_x_N10_betainf.csv")]
    assert sorted(p.name for p in out.iterdir()) == ["egp_profile_x_N10_betainf.csv",
                                                     "manifest.json"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_manifest_times_every_task(tmp_path, command):
    cfg = write_config(tmp_path / "c.txt",
                       BASE + "temperature = 1\nchain_cells_list = 8,16\npath_points = 16\n"
                       "scan_points = 2\negp_transverse = 16\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    tasks = json.loads((out / "manifest.json").read_text())["tasks"]
    assert tasks and all(math.isfinite(t["wall_s"]) and t["wall_s"] >= 0 for t in tasks)


def test_cli_tabulated_hfict_state(tmp_path, qwz):
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    hgrid = mt.fictitious_grid(spec, mt.MomentumGrid(8, 8))
    state_path = tmp_path / "state.dat"
    mt.save_matrix_grid(state_path, hgrid.grid, hgrid.values)
    cfg = write_config(tmp_path / "c.txt",
                       "model = qwz\ngrid_nx = 8\ngrid_ny = 8\n"
                       f"hfict_path = {state_path}\ndirections = x\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out)]) == 0
    files = list(out.glob("egp_profile_x_N8_tabulated.csv"))
    assert len(files) == 1


def _save_state(tmp_path, qwz, nx, ny):
    hgrid = mt.fictitious_grid(mt.GaussianStateSpec.thermal(1.0, 0.0, qwz), mt.MomentumGrid(nx, ny))
    path = tmp_path / "state.dat"
    mt.save_matrix_grid(path, hgrid.grid, hgrid.values)
    return path


def test_cli_tabulated_state_fixes_grid(tmp_path, qwz):
    """With no grid keys, every command runs on the hfict_path file's grid."""
    state_path = _save_state(tmp_path, qwz, 24, 20)
    cfg = write_config(tmp_path / "c.txt", f"model = qwz\nhfict_path = {state_path}\n")
    out = tmp_path / "out"
    for command in ("chern", "egp-winding", "egp-profile"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "chern.json").read_text()) == {"h": [1, -1], "hfict": [1, -1]}
    _, kxs, kys = serialize.curvature_from_csv(out / "curvature_hfict_band0.csv")
    assert (len(kxs), len(kys)) == (24, 20)
    windings = json.loads((out / "egp_windings.json").read_text())
    assert windings["cx_egp"] == windings["cy_egp"] == 1
    for name, count in (("egp_profile_x_N24_tabulated.csv", 20),
                        ("egp_profile_y_N20_tabulated.csv", 24)):
        _, rows = serialize.read_csv(out / name)
        assert len(rows) == count


def test_cli_tabulated_grid_mismatch_exit_2(tmp_path, capsys, qwz):
    state_path = _save_state(tmp_path, qwz, 24, 20)
    cfg = write_config(tmp_path / "c.txt",
                       f"model = qwz\ngrid_nx = 24\ngrid_ny = 16\nhfict_path = {state_path}\n")
    for command in ("chern", "egp-winding", "egp-profile"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "(key: grid_ny)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "chern", "egp-winding", "egp-profile"])
def test_cli_tabulated_model_fixes_grid(tmp_path, capsys, qwz, command):
    """With no grid keys a model_path file sets the run's grid; a grid key that
    disagrees with it exits 2 naming the key."""
    model_path = _save_model(tmp_path, qwz, 16)
    text = f"model = tabulated\nmodel_path = {model_path}\nchain_cells = 16\ntemperature = 1\n"
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path / "c.txt", text),
                 "--out", str(out)]) == 0
    written = {"spectrum": "spectrum.csv", "chern": "curvature_h_band0.csv",
               "egp-winding": "egp_windings.json", "egp-profile": "egp_profile_[xy]_N16_*.csv"}
    assert len(list(out.glob(written[command]))) == (2 if command == "egp-profile" else 1)
    if command == "chern":
        _, kxs, kys = serialize.curvature_from_csv(out / written[command])
        assert (len(kxs), len(kys)) == (16, 16)
    bad = write_config(tmp_path / "bad.txt", text + "grid_ny = 8\n")
    assert main([command, "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    assert "(key: grid_ny)" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command", ["chern", "egp-winding", "egp-profile"])
def test_cli_model_and_state_files_disagree_exit_2(tmp_path, capsys, qwz, command):
    model_path = _save_model(tmp_path, qwz, 16)
    state_path = _save_state(tmp_path, qwz, 8, 8)
    cfg = write_config(tmp_path / "c.txt", f"model = tabulated\nmodel_path = {model_path}\n"
                       f"hfict_path = {state_path}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "(key: hfict_path)" in capsys.readouterr().err


def test_cli_non_finite_state_file_exit_2(tmp_path, capsys, qwz):
    state_path = _save_state(tmp_path, qwz, 8, 8)
    lines = state_path.read_text().splitlines()
    lines[7] = "nan " + lines[7].split(" ", 1)[1]  # grid point (0, 3), row 0
    state_path.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "c.txt", f"model = qwz\nhfict_path = {state_path}\n")
    for command in ("chern", "egp-winding"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "(ix, iy) = (0, 3)" in err and "(key: hfict_path)" in err


def _assert_chern_outputs_match_per_k(out, tmp_path, sources, kxs, kys):
    """Curvature CSVs and chern.json equal those built from per-k oracle frames."""
    expected = {}
    for name, matrix_fn in sources.items():
        frames = frames_per_k(matrix_fn, kxs, kys)
        expected[name] = []
        for band in range(frames.shape[-1]):
            field = mt.berry_curvature_plaquette(frames[..., band])
            expected[name].append(mt.chern_number(field))
            reference = tmp_path / f"reference_{name}_{band}.csv"
            serialize.curvature_to_csv(reference, field, kxs, kys)
            got = out / f"curvature_{name}_band{band}.csv"
            assert got.read_bytes() == reference.read_bytes()
    assert json.loads((out / "chern.json").read_text()) == expected


def test_cli_chern_thermal_matches_per_k_oracle(tmp_path, qwz):
    cfg = write_config(tmp_path / "c.txt", BASE.replace("grid_ny = 16", "grid_ny = 12")
                       + "temperature = 0.7\n")
    out = tmp_path / "out"
    assert main(["chern", "--config", cfg, "--out", str(out)]) == 0
    spec = parse_config(cfg).build_state()
    grid = mt.MomentumGrid(16, 12)
    _assert_chern_outputs_match_per_k(
        out, tmp_path,
        {"h": qwz.matrix, "hfict": lambda kx, ky: mt.fictitious_hamiltonian(spec, kx, ky)},
        grid.kx_values(), grid.ky_values())


def test_cli_chern_tabulated_matches_per_k_oracle(tmp_path, qwz):
    grid = mt.MomentumGrid(12, 10)
    model_path = tmp_path / "model.dat"
    kxs, kys = np.meshgrid(grid.kx_values(), grid.ky_values(), indexing="ij")
    mt.save_matrix_grid(model_path, grid, qwz.matrix(kxs, kys))
    state_path = _save_state(tmp_path, qwz, grid.nx, grid.ny)
    cfg = write_config(tmp_path / "c.txt", f"model = tabulated\nmodel_path = {model_path}\n"
                       f"hfict_path = {state_path}\n")
    out = tmp_path / "out"
    assert main(["chern", "--config", cfg, "--out", str(out)]) == 0
    model = mt.tabulated_model(*mt.load_matrix_grid(model_path))
    hgrid = mt.FictitiousHamiltonianGrid(*mt.load_matrix_grid(state_path))
    spec = mt.GaussianStateSpec.from_grid(hgrid)
    _assert_chern_outputs_match_per_k(
        out, tmp_path,
        {"h": model.matrix, "hfict": lambda kx, ky: mt.fictitious_hamiltonian(spec, kx, ky)},
        grid.kx_values(), grid.ky_values())


def test_cli_long_chain_profile_keeps_finite_log_modulus(tmp_path, qwz, qwz_gap):
    """qwz at T = 20 gap, N = 1000: log|z| reaches about -1360, far below the log of
    the smallest double, and the written profile still carries it."""
    cfg = write_config(tmp_path / "c.txt", BASE + "chain_cells_list = 1000\n"
                       + "temperature_list = 20\ndirections = x\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out)]) == 0
    spec = mt.GaussianStateSpec.thermal(1.0 / (20 * qwz_gap), 0.0, qwz)
    expected = np.array([mt.egp_component(spec, "x", tk, 1000)[1]
                         for tk in mt.momentum_line(16)])
    assert expected.max() < -745  # exp() of these underflows to 0.0
    got = serialize.profile_from_csv(out / "egp_profile_x_N1000_T20.csv")[0].log_moduli
    assert np.isfinite(got).all()
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_pure_state_writes_strict_json(tmp_path):
    """temperature = 0 (beta = inf): every JSON file parses as standard JSON."""
    cfg = write_config(tmp_path / "c.txt", BASE + "temperature = 0\nchain_cells = 9\n")
    out = tmp_path / "out"
    assert main(["egp-winding", "--config", cfg, "--out", str(out)]) == 0
    files = sorted(out.glob("*.json"))
    assert [f.name for f in files] == ["egp_windings.json", "manifest.json"]
    parsed = {f.name: json.loads(f.read_text(), parse_constant=_reject_constant) for f in files}
    assert parsed["egp_windings.json"]["beta"] == "inf"
    assert parsed["manifest.json"]["config"]["temperature"] == 0.0


def test_write_json_writes_non_finite_floats_as_strings(tmp_path):
    path = tmp_path / "s.json"
    serialize.write_json(path, {"a": math.inf, "b": [math.nan, -math.inf, 1.5, (2.0, math.inf)],
                                "c": {"d": np.float64(-math.inf)}, "e": None, "f": 3})
    assert json.loads(path.read_text(), parse_constant=_reject_constant) == {
        "a": "inf", "b": ["nan", "-inf", 1.5, [2.0, "inf"]], "c": {"d": "-inf"},
        "e": None, "f": 3}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_every_subcommand_rejects_format(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.txt", BASE + "beta = 5\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_serialize_curvature_roundtrip(tmp_path, qwz):
    kxs = mt.momentum_line(8)
    field = mt.berry_curvature_plaquette(
        mt.band_systems(qwz.matrix(*np.meshgrid(kxs, kxs, indexing="ij")))[1][..., 0])
    path = tmp_path / "f.csv"
    serialize.curvature_to_csv(path, field, kxs, kxs)
    back, bkx, bky = serialize.curvature_from_csv(path)
    assert np.array_equal(back, field)
    assert np.allclose(bkx, kxs)
    # the reader gives back the arrays the writer took, bit for bit, in their order
    grid = mt.MomentumGrid(7, 5)
    field = mt.berry_curvature_plaquette(mt.band_systems(qwz.matrix(*grid.mesh()))[1][..., 0])
    field[3, :] = [-0.0, 5e-324, 1e300, -math.inf, math.inf]
    serialize.curvature_to_csv(path, field, grid.kx_values(), grid.ky_values()[::-1])
    back, bkx, bky = serialize.curvature_from_csv(path)
    assert back.view(np.int64).tolist() == field.view(np.int64).tolist()
    assert (bkx.tolist(), bky.tolist()) == (grid.kx_values().tolist(), grid.ky_values()[::-1].tolist())


def curvature_to_csv_per_row(path, field, kx_values, ky_values):
    """The writer curvature_to_csv replaced: one csv row per grid point."""
    rows = []
    for i, kx in enumerate(kx_values):
        for j, ky in enumerate(ky_values):
            rows.append([serialize.fmt(kx), serialize.fmt(ky), serialize.fmt(field[i, j])])
    serialize.write_csv(path, ["kx", "ky", "value"], rows)


def test_curvature_csv_bytes_match_per_row_writer(tmp_path, qwz):
    kxs = mt.momentum_line(96)
    field = mt.berry_curvature_plaquette(
        mt.band_systems(qwz.matrix(*np.meshgrid(kxs, kxs, indexing="ij")))[1][..., 0])
    special = field.copy()
    special[0, :6] = [0.0, -0.0, 5e-324, math.nan, math.inf, -1e300]
    for field in (field, special):
        serialize.curvature_to_csv(tmp_path / "new.csv", field, kxs, kxs[::-1])
        curvature_to_csv_per_row(tmp_path / "old.csv", field, kxs, kxs[::-1])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    for kx_values, ky_values in ((kxs[:-1], kxs), (kxs, kxs[:-1])):
        with pytest.raises(ValueError):  # momenta that do not match the field
            serialize.curvature_to_csv(tmp_path / "bad.csv", field, kx_values, ky_values)
    # a non-square grid, the special values in a later row
    grid = mt.MomentumGrid(7, 5)
    field = mt.berry_curvature_plaquette(mt.band_systems(qwz.matrix(*grid.mesh()))[1][..., 0])
    field[3, :] = [-0.0, 5e-324, math.nan, -math.inf, 1e300]
    serialize.curvature_to_csv(tmp_path / "new.csv", field, grid.kx_values(), grid.ky_values())
    curvature_to_csv_per_row(tmp_path / "old.csv", field, grid.kx_values(), grid.ky_values())
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_serialize_reports_roundtrip(tmp_path):
    reports = [
        mt.InvariantReport(temperature=0.5, beta=2.0, cx_uhlmann=1, cy_uhlmann=0,
                           cx_egp=1, cy_egp=1, c_ground=1, status="ok"),
        mt.InvariantReport(temperature=5.0, beta=0.2, cx_uhlmann=None, cy_uhlmann=None,
                           cx_egp=1, cy_egp=1, c_ground=1,
                           status="uhlmann: refine, please"),
    ]
    path = tmp_path / "r.csv"
    serialize.reports_to_csv(path, reports)
    back = serialize.reports_from_csv(path)
    assert back == reports
    assert back[1].uhlmann_asymmetric is False
    assert back[0].uhlmann_asymmetric is True


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_serialize_egp_results_roundtrip(tmp_path):
    """profile_from_csv gives back every bit profile_to_csv took, and writes the same bytes again."""
    profile = mt.PhaseProfile(parameters=[-1.2, 0.4, 2.5], phases=[0.3, -2.9, np.pi],
                              log_moduli=np.array([-130.0, -1e-300, -0.0]))
    path, again = tmp_path / "e.csv", tmp_path / "again.csv"
    for beta in (5.0, math.inf, None):
        serialize.profile_to_csv(path, profile, 10, beta)
        back, n_cells, back_beta = serialize.profile_from_csv(path)
        for name in ("parameters", "phases", "log_moduli"):
            assert _bits(getattr(back, name)) == _bits(getattr(profile, name))
        assert (n_cells, back_beta) == (10, beta)
        serialize.profile_to_csv(again, back, n_cells, back_beta)
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("text, message", [
    pytest.param("transverse_k,phase,modulus,N,beta\n0,0,0,10,5\n1,0,0,10,5\n",
                 "not an EGP CSV", id="header"),
    pytest.param("transverse_k,phase,log_modulus,N,beta\n0,0,0,10,5\n",
                 "at least 2 rows, got 1", id="one-row"),
    pytest.param("transverse_k,phase,log_modulus,N,beta\n0,0,0,10,5\n1,0,0,12,5\n",
                 "rows differ in N or beta", id="N"),
    pytest.param("transverse_k,phase,log_modulus,N,beta\n0,0,0,10,5\n1,0,0,10,\n",
                 "rows differ in N or beta", id="beta"),
])
def test_profile_from_csv_refuses_what_profile_to_csv_cannot_write(tmp_path, text, message):
    path = tmp_path / "e.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{message}"):
        serialize.profile_from_csv(path)


def test_fmt_seventeen_digits_roundtrip():
    for x in (np.pi, 1 / 3, 2.0, -1e-30, 123456.789):
        assert float(serialize.fmt(x)) == x
