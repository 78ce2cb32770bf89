import json
import math
import pathlib

import numpy as np
import pytest

import mixedtopo as mt
from mixedtopo import serialize
from mixedtopo.cli import main
from mixedtopo.config import parse_config
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
                                           ("invariant_scan.cfg", "invariant-scan")])
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
])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, command, key, value, extra):
    """A non-finite number, or a descending gauge-reduction list, exits 2 naming its key."""
    items = {"model": "qwz", "grid_nx": "8", "grid_ny": "8", "temperature": "20", **extra,
             key: value}
    cfg = write_config(tmp_path / "c.txt", "".join(f"{k} = {v}\n" for k, v in items.items()))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"(key: {key})" in capsys.readouterr().err


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
        res_x = serialize.egp_results_from_csv(out / f"egp_profile_x_N10_{suffix}.csv", "x")
        res_y = serialize.egp_results_from_csv(out / f"egp_profile_y_N10_{suffix}.csv", "y")
        prof_x = mt.PhaseProfile(np.array([r.transverse_k for r in res_x]),
                                 np.array([r.phase for r in res_x]))
        prof_y = mt.PhaseProfile(np.array([r.transverse_k for r in res_y]),
                                 np.array([r.phase for r in res_y]))
        cx = mt.winding_of_phase_profile(prof_x)
        cy = -mt.winding_of_phase_profile(prof_y)
        assert cx == cy == 1


def test_cli_egp_profile_pure_matches_zak(tmp_path, qwz):
    cfg = write_config(tmp_path / "c.txt", BASE + "chain_cells_list = 9\ntemperature_list = 0\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out)]) == 0
    results = serialize.egp_results_from_csv(out / "egp_profile_x_N9_T0.csv", "x")
    spec = mt.GaussianStateSpec.thermal(math.inf, 0.0, qwz)
    for r in results:
        states = mt.states_on_line(
            lambda k: mt.fictitious_hamiltonian(spec, k, r.transverse_k),
            mt.momentum_line(9), 1)
        assert abs(mt.principal_branch(r.phase - mt.zak_phase_wilson(states))) <= 1e-10


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


def test_cli_jobs_flag(tmp_path):
    cfg = write_config(tmp_path / "c.txt",
                       BASE + "chain_cells_list = 9\ntemperature_list = 0,20\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out), "--jobs", "4"]) == 0
    assert len(list(out.glob("egp_profile_*.csv"))) == 4


def test_cli_tabulated_hfict_state(tmp_path, qwz):
    spec = mt.GaussianStateSpec.thermal(1.0, 0.0, qwz)
    hgrid = mt.fictitious_grid(spec, mt.MomentumGrid(8, 8))
    state_path = tmp_path / "state.dat"
    mt.save_hfict_grid(state_path, hgrid)
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
    mt.save_hfict_grid(path, hgrid)
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
    spec = mt.GaussianStateSpec.from_grid(mt.load_hfict_grid(state_path))
    _assert_chern_outputs_match_per_k(
        out, tmp_path,
        {"h": model.matrix, "hfict": lambda kx, ky: mt.fictitious_hamiltonian(spec, kx, ky)},
        grid.kx_values(), grid.ky_values())


def test_cli_format_json(tmp_path):
    cfg = write_config(tmp_path / "c.txt", BASE + "chain_cells_list = 9\ntemperature_list = 0\n"
                       + "directions = x\n")
    out = tmp_path / "out"
    assert main(["egp-profile", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    profile = serialize.profile_from_json(out / "egp_profile_x_N9_T0.json")
    assert len(profile.phases) == 16
    assert profile.moduli is not None


def test_serialize_curvature_roundtrip(tmp_path, qwz):
    kxs = mt.momentum_line(8)
    field = mt.berry_curvature_plaquette(mt.states_on_grid(qwz.matrix, kxs, kxs, 0))
    path = tmp_path / "f.csv"
    serialize.curvature_to_csv(path, field, kxs, kxs)
    back, bkx, bky = serialize.curvature_from_csv(path)
    assert np.array_equal(back.values, field.values)
    assert np.allclose(bkx, kxs)


def curvature_to_csv_per_row(path, field, kx_values, ky_values):
    """The writer curvature_to_csv replaced: one csv row per grid point."""
    rows = []
    for i, kx in enumerate(kx_values):
        for j, ky in enumerate(ky_values):
            rows.append([serialize.fmt(kx), serialize.fmt(ky), serialize.fmt(field.values[i, j])])
    serialize.write_csv(path, ["kx", "ky", "value"], rows)


def test_curvature_csv_bytes_match_per_row_writer(tmp_path, qwz):
    kxs = mt.momentum_line(96)
    field = mt.berry_curvature_plaquette(mt.states_on_grid(qwz.matrix, kxs, kxs, 0))
    special = field.values.copy()
    special[0, :6] = [0.0, -0.0, 5e-324, math.nan, math.inf, -1e300]
    for values in (field.values, special):
        field = mt.CurvatureField(values=values)
        serialize.curvature_to_csv(tmp_path / "new.csv", field, kxs, kxs[::-1])
        curvature_to_csv_per_row(tmp_path / "old.csv", field, kxs, kxs[::-1])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    for kx_values, ky_values in ((kxs[:-1], kxs), (kxs, kxs[:-1])):
        with pytest.raises(ValueError):  # momenta that do not match the field
            serialize.curvature_to_csv(tmp_path / "bad.csv", field, kx_values, ky_values)


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


def test_serialize_egp_results_roundtrip(tmp_path):
    results = [mt.EgpResult(phase=0.3, log_magnitude=-130.0, n_cells=10, direction="x",
                            transverse_k=-1.2, beta=5.0, mu=None)]
    path = tmp_path / "e.csv"
    serialize.egp_results_to_csv(path, results)
    back = serialize.egp_results_from_csv(path, "x")
    assert back[0].phase == results[0].phase
    assert back[0].n_cells == 10
    assert back[0].log_magnitude == pytest.approx(-130.0, abs=1e-12)


def test_fmt_seventeen_digits_roundtrip():
    for x in (np.pi, 1 / 3, 2.0, -1e-30, 123456.789):
        assert float(serialize.fmt(x)) == x
