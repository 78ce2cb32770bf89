"""Command-line driver: each subcommand reproduces one figure/claim recipe.

    mixedtopo <subcommand> --config cfg.txt [--out DIR]

Subcommands: spectrum | egp-profile | egp-winding | invariant-scan | chern |
gauge-reduction. Exit codes: 0 success, 2 configuration error, 3 numerical
error. Tasks run one after another; a failed task is recorded and the rest
still run. Outputs land in --out with a manifest.json that describes the run
and times each task; identical configs produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import serialize
from .config import RunConfig, parse_config
from .egp import (_gauge_reduction, _line_profile, egp_profile, egp_windings,
                  gauge_reduction_exponent)
from .errors import ConfigError, MixedTopoError
from .gaussian import GaussianStateSpec, fictitious_grid
from .geometry import berry_curvature_plaquette, chern_number
from .model import _gap_at, _LineSpectra, band_systems, momentum_line
from .uhlmann import uhlmann_temperature_scan

SUBCOMMANDS = ("spectrum", "egp-profile", "egp-winding", "invariant-scan",
               "chern", "gauge-reduction")


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _config_echo(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d.pop("raw_items")
    d["atomic_d"] = list(d["atomic_d"])
    return d


def _has_state(cfg: RunConfig) -> bool:
    return any(k in cfg.raw_items for k in ("beta", "temperature", "hfict_path"))


def _profile_suffix(label, beta) -> str:
    if label is not None:
        return f"T{label:g}"
    return "betainf" if math.isinf(beta) else f"beta{beta:g}"


def _write_manifest(out_dir, cfg, command, started, statuses, outputs):
    serialize.write_json_atomic(os.path.join(out_dir, "manifest.json"), {
        "command": command,
        "version": __version__,
        "started": started,
        "finished": _timestamp(),
        "config": _config_echo(cfg),
        "tasks": statuses,
        "outputs": sorted(outputs),
    })


# ------------------------------------------------------------------ commands
#
# Each command resolves its model, grid, states and temperatures, then returns
# its (name, task) pairs, so a configuration error exits 2 before any work;
# tasks only compute and write.

def cmd_spectrum(cfg: RunConfig, out_dir: str):
    model, grid = cfg.bloch_model, cfg.momentum_grid()

    def task():
        kxs, kys = grid.mesh()
        energies = np.linalg.eigvalsh(model.matrix(kxs, kys))
        header = ["kx", "ky"] + [f"e_{n + 1}" for n in range(model.p)]
        rows = [[serialize.fmt(kx), serialize.fmt(ky)] + [serialize.fmt(e) for e in es]
                for kx, ky, es in zip(kxs.flat, kys.flat, energies.reshape(-1, model.p))]
        spectrum_path = os.path.join(out_dir, "spectrum.csv")
        serialize.write_csv(spectrum_path, header, rows)
        summary_path = os.path.join(out_dir, "spectrum_summary.json")
        serialize.write_json(summary_path, {"model": model.name, "mu": cfg.mu,
                                            "gap": _gap_at(energies, cfg.mu, kxs, kys)})
        return [spectrum_path, summary_path]

    return [("spectrum", task)]


def cmd_chern(cfg: RunConfig, out_dir: str):
    model = cfg.bloch_model
    spec = cfg.build_state() if _has_state(cfg) else None
    grid = spec.hfict_grid.grid if cfg.hfict_path else cfg.momentum_grid()

    def task():
        kxs, kys = grid.kx_values(), grid.ky_values()
        files = []

        def chern_numbers(name, hs):
            """Curvature CSV and Chern number per band; frames from one band_systems call."""
            _, frames = band_systems(hs)
            numbers = []
            for band in range(frames.shape[-1]):
                curvature = berry_curvature_plaquette(frames[..., band])
                numbers.append(chern_number(curvature))
                path = os.path.join(out_dir, f"curvature_{name}_band{band}.csv")
                serialize.curvature_to_csv(path, curvature, kxs, kys)
                files.append(path)
            return numbers

        summary = {"h": chern_numbers("h", model.matrix(*grid.mesh())),
                   "hfict": None if spec is None
                   else chern_numbers("hfict", fictitious_grid(spec, grid).values)}
        summary_path = os.path.join(out_dir, "chern.json")
        serialize.write_json(summary_path, summary)
        return files + [summary_path]

    return [("chern", task)]


def cmd_egp_profile(cfg: RunConfig, out_dir: str):
    if cfg.hfict_path:
        spec = cfg.build_state()
        grid = spec.hfict_grid.grid
        # chain length and transverse samples both come from the stored grid
        profiles = [(d, grid.nx if d == "x" else grid.ny, spec, "tabulated", None)
                    for d in cfg.directions]
    else:
        states = [(GaussianStateSpec.thermal(beta, cfg.mu, cfg.bloch_model),
                   _profile_suffix(label, beta)) for label, beta in cfg.betas_from_list()]
        suffixes = [suffix for _, suffix in states]
        if len(set(suffixes)) != len(suffixes):
            raise ConfigError(f"temperature_list entries share a file name: {suffixes}",
                              key="temperature_list")
        grid = cfg.momentum_grid()
        # one cache of h(k) spectra per direction serves every N and temperature
        caches = {d: _LineSpectra(cfg.bloch_model, d, momentum_line(grid.ny if d == "x" else grid.nx))
                  for d in cfg.directions}
        profiles = [(d, n, spec, suffix, caches[d])
                    for d in cfg.directions for n in cfg.cells_list() for spec, suffix in states]

    def task(direction, n, spec, suffix, lines):
        profile = (egp_profile(spec, direction, n, None) if lines is None
                   else _line_profile(spec, lines, n))
        path = os.path.join(out_dir, f"egp_profile_{direction}_N{n}_{suffix}.csv")
        serialize.profile_to_csv(path, profile, n, spec.beta)
        return [path]

    return [(f"egp-profile:{d}:N{n}:{suffix}", functools.partial(task, d, n, spec, suffix, lines))
            for d, n, spec, suffix, lines in profiles]


def cmd_egp_winding(cfg: RunConfig, out_dir: str):
    spec = cfg.build_state()
    if spec.is_thermal:
        grid = cfg.momentum_grid()
        n, count = cfg.chain_cells, max(grid.nx, grid.ny)
    else:
        n, count = None, None  # chains and transverse samples from the stored grid

    def task():
        cx, cy = egp_windings(spec, n, count)
        path = os.path.join(out_dir, "egp_windings.csv")
        serialize.write_csv(path, ["cx_egp", "cy_egp"], [[str(cx), str(cy)]])
        summary = os.path.join(out_dir, "egp_windings.json")
        serialize.write_json(summary, {"cx_egp": cx, "cy_egp": cy, "n_cells": n,
                                       "beta": spec.beta})
        return [path, summary]

    return [("egp-winding", task)]


def cmd_invariant_scan(cfg: RunConfig, out_dir: str):
    if cfg.model == "tabulated":
        raise ConfigError("invariant-scan needs an analytic model: the Uhlmann paths refine "
                          "past the samples of a tabulated grid", key="model")
    model, grid = cfg.bloch_model, cfg.momentum_grid()
    scale = cfg.temperature_scale()
    temperatures = np.geomspace(cfg.scan_t_min, cfg.scan_t_max, cfg.scan_points) * scale

    def task():
        reports = uhlmann_temperature_scan(model, cfg.mu, temperatures, grid,
                                           n_cells=cfg.chain_cells,
                                           egp_transverse=cfg.egp_transverse)
        path = os.path.join(out_dir, "invariant_scan.csv")
        serialize.reports_to_csv(path, reports)
        asym = [r.temperature for r in reports if r.uhlmann_asymmetric]
        egp_rows = [r for r in reports if r.cx_egp is not None and r.cy_egp is not None]
        summary_path = os.path.join(out_dir, "invariant_scan_summary.json")
        serialize.write_json(summary_path, {
            "temperature_scale": scale,
            "asymmetric_uhlmann_temperatures": asym,
            "egp_always_symmetric": all(r.cx_egp == r.cy_egp for r in egp_rows),
            "rows_ok": sum(1 for r in reports if r.status == "ok"),
            "rows_total": len(reports),
            "uhlmann_path_points": max((r.uhlmann_path_points for r in reports
                                        if r.uhlmann_path_points is not None), default=None),
        })
        return [path, summary_path]

    return [("invariant-scan", task)]


def cmd_gauge_reduction(cfg: RunConfig, out_dir: str):
    cells = cfg.cells_list()
    if len(cells) < 2 or cells != sorted(cells):
        raise ConfigError("gauge-reduction needs an ascending chain_cells_list of >= 2 entries",
                          key="chain_cells_list")
    beta = cfg.beta_raw()
    if math.isinf(beta):
        raise ConfigError("gauge-reduction needs a finite temperature",
                          key="beta" if cfg.beta is not None else "temperature")
    spec = GaussianStateSpec.thermal(beta, cfg.mu, cfg.bloch_model)

    def task():
        files = []
        for direction, devs in zip(cfg.directions, _gauge_reduction(
                spec, cfg.directions, cfg.transverse_k, cells)):
            path = os.path.join(out_dir, f"gauge_reduction_{direction}.csv")
            serialize.write_csv(path, ["n_cells", "deviation"],
                                [[str(n), serialize.fmt(d)] for n, d in devs])
            summary = os.path.join(out_dir, f"gauge_reduction_{direction}.json")
            serialize.write_json(summary, {
                "direction": direction, "transverse_k": cfg.transverse_k, "beta": beta,
                "deviations": {str(n): d for n, d in devs},
                "log_log_slope": gauge_reduction_exponent(devs)})
            files += [path, summary]
        return files

    return [("gauge-reduction", task)]


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "chern": cmd_chern,
    "egp-profile": cmd_egp_profile,
    "egp-winding": cmd_egp_winding,
    "invariant-scan": cmd_invariant_scan,
    "gauge-reduction": cmd_gauge_reduction,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixedtopo",
                                     description="Topological invariants of Gaussian mixed states")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", default="out", help="output directory")
        # tasks run in order; perfbench still passes --jobs 1, so 1 parses and does nothing
        p.add_argument("--jobs", type=int, choices=(1,), default=1, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = _timestamp()
    try:
        cfg = parse_config(args.config)
        tasks = _COMMANDS[args.command](cfg, args.out)
        os.makedirs(args.out, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MixedTopoError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3

    statuses, outputs = [], []
    for name, task in tasks:
        start = time.perf_counter()
        try:
            outputs.extend(task())
            status = {"task": name, "status": "ok"}
        except (MixedTopoError, ValueError) as exc:
            status = {"task": name, "status": "error", "error": str(exc)}
        statuses.append({**status, "wall_s": time.perf_counter() - start})
    _write_manifest(args.out, cfg, args.command, started, statuses, outputs)
    failed = [s for s in statuses if s["status"] != "ok"]
    if failed:
        for s in failed:
            print(f"task {s['task']} failed: {s['error']}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
