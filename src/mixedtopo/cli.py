"""Command-line driver: each subcommand reproduces one figure/claim recipe.

    mixedtopo <subcommand> --config cfg.txt [--out DIR] [--jobs N] [--format csv|json]

Subcommands: spectrum | egp-profile | egp-winding | invariant-scan | chern |
gauge-reduction. Exit codes: 0 success, 2 configuration error, 3 numerical
error. Outputs land in --out together with a manifest.json describing the
run; identical configs produce byte-identical data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import serialize
from .config import RunConfig, parse_config
from .egp import EgpResult, egp_profile, egp_windings, gauge_reduction_deviation, gauge_reduction_exponent
from .errors import ConfigError, MixedTopoError
from .gaussian import GaussianStateSpec, fictitious_grid
from .geometry import berry_curvature_plaquette, chern_number
from .model import band_gap, band_systems
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


class TaskRunner:
    """Bounded worker pool; results collected in submission order."""

    def __init__(self, jobs: int):
        self.jobs = max(1, jobs)
        self.tasks = []

    def add(self, name: str, fn):
        self.tasks.append((name, fn))

    def run(self) -> tuple[list[dict], list[str]]:
        statuses, outputs = [], []
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            futures = [(name, pool.submit(fn)) for name, fn in self.tasks]
            for name, future in futures:
                try:
                    files = future.result()
                    statuses.append({"task": name, "status": "ok"})
                    outputs.extend(files)
                except (MixedTopoError, ValueError) as exc:
                    statuses.append({"task": name, "status": "error", "error": str(exc)})
        return statuses, outputs


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

def cmd_spectrum(cfg: RunConfig, out_dir: str, runner: TaskRunner, fmt: str):
    def task():
        model = cfg.build_model()
        grid = cfg.momentum_grid()
        kxs, kys = grid.kx_values(), grid.ky_values()
        energies = np.linalg.eigvalsh(model.matrix(*grid.mesh()))
        header = ["kx", "ky"] + [f"e_{n + 1}" for n in range(model.p)]
        rows = []
        for i, kx in enumerate(kxs):
            for j, ky in enumerate(kys):
                rows.append([serialize.fmt(kx), serialize.fmt(ky)]
                            + [serialize.fmt(e) for e in energies[i, j]])
        spectrum_path = os.path.join(out_dir, "spectrum.csv")
        serialize.write_csv(spectrum_path, header, rows)
        gap = band_gap(model, grid, cfg.mu)
        summary_path = os.path.join(out_dir, "spectrum_summary.json")
        serialize.write_json(summary_path, {"model": model.name, "mu": cfg.mu, "gap": gap})
        return [spectrum_path, summary_path]

    runner.add("spectrum", task)


def cmd_chern(cfg: RunConfig, out_dir: str, runner: TaskRunner, fmt: str):
    tabulated = cfg.build_state() if cfg.hfict_path else None
    grid = tabulated.hfict_grid.grid if tabulated is not None else cfg.momentum_grid()

    def task():
        model = cfg.build_model()
        kxs, kys = grid.kx_values(), grid.ky_values()
        files = []

        def chern_numbers(name, hs):
            """Curvature CSV and Chern number per band; frames from one band_systems call."""
            _, frames = band_systems(hs)
            numbers = []
            for band in range(frames.shape[-1]):
                field = berry_curvature_plaquette(frames[..., band])
                numbers.append(chern_number(field))
                path = os.path.join(out_dir, f"curvature_{name}_band{band}.csv")
                serialize.curvature_to_csv(path, field, kxs, kys)
                files.append(path)
            return numbers

        summary = {"h": chern_numbers("h", model.matrix(*grid.mesh())),
                   "hfict": None}
        if _has_state(cfg):
            spec = tabulated if tabulated is not None else cfg.build_state()
            summary["hfict"] = chern_numbers("hfict", fictitious_grid(spec, grid).values)
        summary_path = os.path.join(out_dir, "chern.json")
        serialize.write_json(summary_path, summary)
        return files + [summary_path]

    runner.add("chern", task)


def cmd_egp_profile(cfg: RunConfig, out_dir: str, runner: TaskRunner, fmt: str):
    if cfg.hfict_path:
        spec = cfg.build_state()
        grid = spec.hfict_grid.grid
        for direction in cfg.directions:
            n = grid.nx if direction == "x" else grid.ny

            def task(direction=direction, n=n):
                # chain length and transverse samples both come from the stored grid
                profile = egp_profile(spec, direction, n, None)
                base = os.path.join(out_dir, f"egp_profile_{direction}_N{n}_tabulated")
                return [_emit_egp(base, profile, n, None, fmt)]

            runner.add(f"egp-profile:{direction}:tabulated", task)
        return
    model = cfg.build_model()
    for direction in cfg.directions:
        transverse_count = cfg.grid_ny if direction == "x" else cfg.grid_nx
        for n in cfg.cells_list():
            for label, beta in cfg.betas_from_list():
                def task(direction=direction, n=n, label=label, beta=beta,
                         count=transverse_count):
                    spec = GaussianStateSpec.thermal(beta, cfg.mu, model)
                    profile = egp_profile(spec, direction, n, count)
                    base = os.path.join(
                        out_dir, f"egp_profile_{direction}_N{n}_{_profile_suffix(label, beta)}")
                    return [_emit_egp(base, profile, n, beta, fmt)]

                runner.add(f"egp-profile:{direction}:N{n}:{_profile_suffix(label, beta)}", task)


def _emit_egp(base, profile, n, beta, fmt):
    results = [EgpResult(phase=ph, log_magnitude=math.log(m) if m > 0 else -math.inf,
                         n_cells=n, direction=profile.direction, transverse_k=tk,
                         beta=beta, mu=None)
               for tk, ph, m in zip(profile.parameters, profile.phases, profile.moduli)]
    if fmt == "json":
        path = base + ".json"
        serialize.profile_to_json(path, profile)
    else:
        path = base + ".csv"
        serialize.egp_results_to_csv(path, results)
    return path


def cmd_egp_winding(cfg: RunConfig, out_dir: str, runner: TaskRunner, fmt: str):
    tabulated = cfg.build_state() if cfg.hfict_path else None

    def task():
        spec = tabulated if tabulated is not None else cfg.build_state()
        if spec.is_thermal:
            grid = cfg.momentum_grid()
            n, count = cfg.chain_cells, max(grid.nx, grid.ny)
        else:
            n, count = None, None  # chains and transverse samples from the stored grid
        cx, cy = egp_windings(spec, n, count)
        path = os.path.join(out_dir, "egp_windings.csv")
        serialize.write_csv(path, ["cx_egp", "cy_egp"], [[str(cx), str(cy)]])
        summary = os.path.join(out_dir, "egp_windings.json")
        serialize.write_json(summary, {"cx_egp": cx, "cy_egp": cy, "n_cells": n,
                                       "beta": spec.beta})
        return [path, summary]

    runner.add("egp-winding", task)


def cmd_invariant_scan(cfg: RunConfig, out_dir: str, runner: TaskRunner, fmt: str):
    def task():
        model = cfg.build_model()
        grid = cfg.momentum_grid()
        scale = cfg.temperature_scale()
        temperatures = np.geomspace(cfg.scan_t_min, cfg.scan_t_max, cfg.scan_points) * scale
        reports = uhlmann_temperature_scan(model, cfg.mu, temperatures, grid,
                                           n_points=cfg.path_points, n_cells=cfg.chain_cells,
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
        })
        return [path, summary_path]

    runner.add("invariant-scan", task)


def cmd_gauge_reduction(cfg: RunConfig, out_dir: str, runner: TaskRunner, fmt: str):
    cells = cfg.cells_list()
    if len(cells) < 2:
        raise ConfigError("gauge-reduction needs chain_cells_list with >= 2 entries",
                          key="chain_cells_list")
    if cells != sorted(cells):
        raise ConfigError("gauge-reduction needs an ascending chain_cells_list",
                          key="chain_cells_list")
    model = cfg.build_model()
    beta = cfg.beta_raw()
    if math.isinf(beta):
        raise ConfigError("gauge-reduction needs a finite temperature", key="beta")
    for direction in cfg.directions:
        def task(direction=direction):
            spec = GaussianStateSpec.thermal(beta, cfg.mu, model)
            devs = gauge_reduction_deviation(spec, direction, cfg.transverse_k, cells)
            path = os.path.join(out_dir, f"gauge_reduction_{direction}.csv")
            serialize.write_csv(path, ["n_cells", "deviation"],
                                [[str(n), serialize.fmt(d)] for n, d in devs])
            summary = os.path.join(out_dir, f"gauge_reduction_{direction}.json")
            serialize.write_json(summary, {
                "direction": direction,
                "transverse_k": cfg.transverse_k,
                "beta": beta,
                "deviations": {str(n): d for n, d in devs},
                "log_log_slope": gauge_reduction_exponent(devs),
            })
            return [path, summary]

        runner.add(f"gauge-reduction:{direction}", task)


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
        p.add_argument("--jobs", type=int, default=1, help="worker pool size")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = _timestamp()
    try:
        cfg = parse_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        runner = TaskRunner(args.jobs)
        _COMMANDS[args.command](cfg, args.out, runner, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MixedTopoError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3

    statuses, outputs = runner.run()
    _write_manifest(args.out, cfg, args.command, started, statuses, outputs)
    failed = [s for s in statuses if s["status"] != "ok"]
    if failed:
        for s in failed:
            print(f"task {s['task']} failed: {s['error']}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
