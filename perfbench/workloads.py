"""The three benchmark workloads: seeded inputs, CLI calls and output checks.

Each workload writes its input files into a work directory and returns the
`mixedtopo` CLI calls of its recipe as a list of operations. Each operation
checks the files it wrote against `oracle`, which never imports the package
under test; a check returns a list of problems, empty when all is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

SIZES = ("full", "smoke")


@dataclass
class Operation:
    """One CLI call and the check of the files it writes."""

    argv: list
    check: Callable[[], list]


def _write_config(path, items: dict):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in items.items():
            f.write(f"{key} = {value}\n")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _cli_args(command, config, out):
    return [command, "--config", config, "--out", out, "--jobs", "1"]


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= abs_tol + rel * abs(b)


# ------------------------------------------------------------------- scan

SCAN_SIZES = {
    # grid, initial path points, chain cells, EGP transverse samples, rows
    "full": dict(grid=32, path_points=512, cells=10, egp_transverse=128, points=8),
    "smoke": dict(grid=16, path_points=128, cells=10, egp_transverse=128, points=8),
}
SCAN_T_MIN, SCAN_T_MAX = 0.01, 100.0


def scan_recipe(rng: np.random.Generator, size: str, work: str) -> list:
    """invariant-scan of the default model over 8 log-spaced temperatures.

    The seed shifts the whole log-spaced range by one factor in [0.84, 1],
    so the fourth row (0.435 to 0.518 gap) stays inside the window where
    the Uhlmann windings split (about 0.39 to 0.56 gap on this grid).
    """
    s = SCAN_SIZES[size]
    shift = math.exp(rng.uniform(math.log(0.84), 0.0))
    t_min, t_max = SCAN_T_MIN * shift, SCAN_T_MAX * shift
    config = os.path.join(work, "scan.cfg")
    _write_config(config, {
        "model": "qwz", "grid_nx": s["grid"], "grid_ny": s["grid"],
        "path_points": s["path_points"], "chain_cells": s["cells"],
        "egp_transverse": s["egp_transverse"], "scan_points": s["points"],
        "scan_t_min": repr(t_min), "scan_t_max": repr(t_max),
    })
    out = os.path.join(work, "out")
    expect = dict(grid=s["grid"], points=s["points"], t_min=t_min, t_max=t_max)
    return [Operation(_cli_args("invariant-scan", config, out),
                      lambda out=out: check_scan(out, expect))]


def check_scan(out: str, expect: dict) -> list:
    problems = []
    n = expect["grid"]
    kx, ky = np.meshgrid(oracle.momentum_line(n), oracle.momentum_line(n), indexing="ij")
    d = oracle.qwz_d(kx, ky)
    c_ground = oracle.band_cherns(oracle.bloch_from_d(d))[0]
    temperatures = (np.geomspace(expect["t_min"], expect["t_max"], expect["points"])
                    * oracle.gap_of_d(d))

    header, rows = _read_csv(os.path.join(out, "invariant_scan.csv"))
    col = {name: i for i, name in enumerate(header)}
    if len(rows) != expect["points"]:
        return [f"scan: {len(rows)} rows, expected {expect['points']}"]
    for row, t in zip(rows, temperatures):
        if row[col["status"]] != "ok":
            problems.append(f"scan: row T={row[col['T']]} status {row[col['status']]!r}")
            continue
        if not _close(float(row[col["T"]]), t, 1e-12):
            problems.append(f"scan: T {row[col['T']]} != {t!r}")
        if not _close(float(row[col["beta"]]), 1.0 / t, 1e-12):
            problems.append(f"scan: beta {row[col['beta']]} != 1/T")
        values = [int(row[col[k]]) for k in ("C_ground", "Cx_egp", "Cy_egp")]
        if values != [c_ground] * 3:
            problems.append(f"scan: T={t:.6g} (C_ground, Cx_egp, Cy_egp) = {values}, "
                            f"plaquette Chern {c_ground}")
    if problems:
        return problems
    uhl = [(int(r[col["Cx_uhlmann"]]), int(r[col["Cy_uhlmann"]])) for r in rows]
    if uhl[0] != (c_ground, c_ground):
        problems.append(f"scan: coldest Uhlmann windings {uhl[0]}, expected ({c_ground}, {c_ground})")
    if uhl[-1] != (0, 0):
        problems.append(f"scan: hottest Uhlmann windings {uhl[-1]}, expected (0, 0)")
    split = [float(r[col["T"]]) for r, (cx, cy) in zip(rows, uhl) if cx != cy]
    if not split:
        problems.append("scan: no row with Cx_uhlmann != Cy_uhlmann")

    summary = _read_json(os.path.join(out, "invariant_scan_summary.json"))
    if summary["asymmetric_uhlmann_temperatures"] != split:
        problems.append("scan: summary split temperatures disagree with the table")
    if not summary["egp_always_symmetric"] or summary["rows_ok"] != len(rows):
        problems.append(f"scan: summary {summary}")
    return problems


# ----------------------------------------------------------------- chains

CHAIN_SIZES = {"full": [100, 200, 300], "smoke": [10, 20, 40]}
CHAIN_TEMPERATURE = 20.0  # in units of the gap


def chains_recipe(rng: np.random.Generator, size: str, work: str) -> list:
    """gauge-reduction in x and y at T = 20 gap; the seed picks transverse_k."""
    cells = CHAIN_SIZES[size]
    transverse_k = float(rng.uniform(0.4, 2.7))
    config = os.path.join(work, "chains.cfg")
    _write_config(config, {
        "model": "qwz", "temperature": CHAIN_TEMPERATURE, "t_units": "gap",
        "chain_cells_list": ",".join(str(n) for n in cells),
        "directions": "x,y", "transverse_k": repr(transverse_k),
    })
    out = os.path.join(work, "out")
    expect = dict(cells=cells, transverse_k=transverse_k)
    return [Operation(_cli_args("gauge-reduction", config, out),
                      lambda out=out: check_chains(out, expect))]


def check_chains(out: str, expect: dict) -> list:
    problems = []
    # the CLI converts 'gap' units with the gap on its default 64 x 64 grid
    kx, ky = np.meshgrid(oracle.momentum_line(64), oracle.momentum_line(64), indexing="ij")
    beta = 1.0 / (CHAIN_TEMPERATURE * oracle.gap_of_d(oracle.qwz_d(kx, ky)))
    for direction in ("x", "y"):
        header, rows = _read_csv(os.path.join(out, f"gauge_reduction_{direction}.csv"))
        if header != ["n_cells", "deviation"] or [int(r[0]) for r in rows] != expect["cells"]:
            problems.append(f"chains {direction}: table {header} {rows}")
            continue
        got = [float(r[1]) for r in rows]
        for n, dev in zip(expect["cells"], got):
            ref = oracle.gauge_deviation(oracle.qwz_d, beta, direction,
                                         expect["transverse_k"], n)
            if not _close(dev, ref, 1e-7, 1e-10):
                problems.append(f"chains {direction}: N={n} deviation {dev!r}, "
                                f"momentum-space determinant gives {ref!r}")
        if not all(d > 0 for d in got) or any(b >= a for a, b in zip(got, got[1:])):
            problems.append(f"chains {direction}: deviations {got} not positive and falling")
    return problems


# ------------------------------------------------------------------- ness

NESS_SIZES = {"full": 96, "smoke": 16}


def ness_recipe(rng: np.random.Generator, size: str, work: str) -> list:
    """chern, then egp-winding, on a seeded non-equilibrium covariance grid file."""
    n = NESS_SIZES[size]
    hfict, frame = oracle.ness_state(rng, n)
    state = os.path.join(work, "ness_state.dat")
    oracle.write_matrix_grid(state, hfict)
    config = os.path.join(work, "ness.cfg")
    # grid_nx/grid_ny must repeat the file's grid: the CLI does not take it from the file
    _write_config(config, {"model": "qwz", "hfict_path": state, "grid_nx": n, "grid_ny": n})
    out = os.path.join(work, "out")
    expect = dict(grid=n, c_frame=oracle.fhs_chern(frame))
    return [
        Operation(_cli_args("chern", config, out), lambda out=out: check_ness_chern(out, expect)),
        Operation(_cli_args("egp-winding", config, out),
                  lambda out=out: check_ness_winding(out, expect)),
    ]


def check_ness_chern(out: str, expect: dict) -> list:
    problems = []
    n = expect["grid"]
    kx, ky = np.meshgrid(oracle.momentum_line(n), oracle.momentum_line(n), indexing="ij")
    h_cherns = oracle.band_cherns(oracle.bloch_from_d(oracle.qwz_d(kx, ky)))
    expected_hfict = [s * expect["c_frame"] for s in oracle.HFICT_BAND_SIGNS]
    summary = _read_json(os.path.join(out, "chern.json"))
    if summary["h"] != h_cherns:
        problems.append(f"ness: Bloch band Chern numbers {summary['h']}, plaquette {h_cherns}")
    if summary["hfict"] != expected_hfict:
        problems.append(f"ness: hfict band Chern numbers {summary['hfict']}, "
                        f"generating frame gives {expected_hfict}")
    for kind, cherns in (("h", summary["h"]), ("hfict", summary["hfict"] or [])):
        for band, c in enumerate(cherns):
            path = os.path.join(out, f"curvature_{kind}_band{band}.csv")
            header, rows = _read_csv(path)
            total = sum(float(r[2]) for r in rows) / (2 * math.pi)
            if header != ["kx", "ky", "value"] or len(rows) != n * n or abs(total - c) > 1e-6:
                problems.append(f"ness: {path} sums to {total} over {len(rows)} rows, Chern {c}")
    return problems


def check_ness_winding(out: str, expect: dict) -> list:
    header, rows = _read_csv(os.path.join(out, "egp_windings.csv"))
    got = [int(v) for v in rows[0]] if rows else []
    if header != ["cx_egp", "cy_egp"] or got != [expect["c_frame"]] * 2:
        return [f"ness: EGP windings {header} {rows}, generating frame Chern {expect['c_frame']}"]
    return []


RECIPES = {"scan": scan_recipe, "chains": chains_recipe, "ness": ness_recipe}
