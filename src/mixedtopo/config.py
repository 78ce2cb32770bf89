"""Run configuration: a flat UTF-8 key = value file.

README "Config file" lists every key with its meaning and default. Every key
is optional unless a command needs it; unknown keys are rejected.
invariant-scan needs model qwz or atomic, and gauge-reduction a strictly
ascending chain_cells_list. A model_path or hfict_path file fixes the grid:
grid_nx and grid_ny, if given, must match it, as the two files must match
each other. A hfict_path state fixes its own chains and has no temperature,
so beside it beta, temperature, temperature_list, chain_cells and
chain_cells_list are refused. path_points is retired: it parses and must be
>= 2, but sets nothing.
Temperatures in 'gap' units are multiplied by the model's band gap at mu.
Every number must be finite; only beta may be inf. No entry of directions,
chain_cells_list or temperature_list may repeat. A value beside its list,
chain_cells beside chain_cells_list or beta or temperature beside
temperature_list, is refused, as the list would override it.
A RunConfig builds its Bloch model and that gap at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError
from .gaussian import FictitiousHamiltonianGrid, GaussianStateSpec, load_matrix_grid
from .model import BlochModel, MomentumGrid, atomic_model, band_gap, qwz_model, tabulated_model

_FLOAT_KEYS = {"alpha", "gamma", "mass", "beta", "temperature", "mu", "transverse_k",
               "scan_t_min", "scan_t_max"}
_INT_KEYS = {"grid_nx", "grid_ny", "chain_cells", "scan_points", "path_points",
             "egp_transverse"}
_STR_KEYS = {"model", "model_path", "hfict_path", "t_units", "directions"}
_LIST_KEYS = {"atomic_d", "chain_cells_list", "temperature_list"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS


@dataclass
class RunConfig:
    model: str = "qwz"
    alpha: float = 1.0
    gamma: float = 3.0
    mass: float = 1.0
    atomic_d: tuple = (0.0, 0.0, 1.0)
    model_path: Optional[str] = None
    hfict_path: Optional[str] = None
    beta: Optional[float] = None
    temperature: Optional[float] = None
    t_units: str = "gap"
    mu: float = 0.0
    grid_nx: int = 64
    grid_ny: int = 64
    chain_cells: int = 10
    chain_cells_list: Optional[list] = None
    temperature_list: Optional[list] = None
    directions: list = field(default_factory=lambda: ["x", "y"])
    transverse_k: float = np.pi / 3
    scan_t_min: float = 0.01
    scan_t_max: float = 100.0
    scan_points: int = 48
    path_points: Optional[int] = None  # retired: validated, sets nothing
    egp_transverse: Optional[int] = None
    raw_items: dict = field(default_factory=dict)

    @cached_property
    def bloch_model(self) -> BlochModel:
        """The run's Bloch model; a model_path file is read once per config."""
        if self.model == "qwz":
            return qwz_model(self.alpha, self.gamma, self.mass)
        if self.model == "atomic":
            return atomic_model(self.atomic_d)
        return tabulated_model(*self._model_file)  # parse_config admits no other model

    @cached_property
    def _model_file(self) -> tuple[MomentumGrid, np.ndarray]:
        """(grid, values) of the model_path file; its grid is the run's."""
        if not self.model_path:
            raise ConfigError("model = tabulated requires model_path", key="model_path")
        try:
            grid, values = load_matrix_grid(self.model_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load model grid: {exc}", key="model_path") from exc
        self._check_grid_keys(grid, "model_path")
        return grid, values

    def _check_grid_keys(self, grid: MomentumGrid, path_key: str):
        for key, stored in (("grid_nx", grid.nx), ("grid_ny", grid.ny)):
            if key in self.raw_items and getattr(self, key) != stored:
                raise ConfigError(f"{key} = {getattr(self, key)} disagrees with the "
                                  f"{stored} samples stored in {path_key}", key=key)

    def momentum_grid(self) -> MomentumGrid:
        """The run's grid: a model_path file's, else grid_nx x grid_ny."""
        if self.model == "tabulated":
            return self._model_file[0]
        return MomentumGrid(self.grid_nx, self.grid_ny)

    @cached_property
    def gap(self) -> float:
        """Band gap at mu over the momentum grid, diagonalized once per config."""
        return band_gap(self.bloch_model, self.momentum_grid(), self.mu)

    def temperature_scale(self) -> float:
        """Factor converting configured temperatures to raw energy units."""
        return 1.0 if self.t_units == "raw" else self.gap

    def beta_raw(self) -> float:
        """Inverse temperature in raw units from beta/temperature keys."""
        if self.beta is not None and self.temperature is not None:
            raise ConfigError("beta and temperature are mutually exclusive", key="beta")
        if self.beta is not None:
            return self.beta
        if self.temperature is not None:
            if self.temperature == 0:
                return math.inf
            return 1.0 / (self.temperature * self.temperature_scale())
        raise ConfigError("this command needs beta or temperature", key="beta")

    def betas_from_list(self) -> list:
        """(label, beta) pairs from temperature_list, falling back to the single state."""
        if self.temperature_list is None:
            return [(None, self.beta_raw())]
        scale = self.temperature_scale()
        return [(t, math.inf if t == 0 else 1.0 / (t * scale)) for t in self.temperature_list]

    def build_state(self) -> GaussianStateSpec:
        if self.hfict_path:
            for key in ("beta", "temperature", "temperature_list", "chain_cells",
                        "chain_cells_list"):
                if key in self.raw_items:
                    raise ConfigError("a hfict_path state fixes its own chains and has no "
                                      f"temperature: {key} would be ignored", key=key)
            try:
                grid, values = load_matrix_grid(self.hfict_path)
                spec = GaussianStateSpec.from_grid(FictitiousHamiltonianGrid(grid, values))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot load hfict grid: {exc}", key="hfict_path") from exc
            self._check_grid_keys(grid, "hfict_path")
            if self.model == "tabulated" and self.momentum_grid() != grid:
                raise ConfigError(f"the {grid.nx} x {grid.ny} grid of hfict_path disagrees "
                                  "with the grid of model_path", key="hfict_path")
            return spec
        return GaussianStateSpec.thermal(self.beta_raw(), self.mu, self.bloch_model)

    def cells_list(self) -> list:
        if self.chain_cells_list is not None:
            return [int(n) for n in self.chain_cells_list]
        return [self.chain_cells]


def _parse_float(text: str, key: str, line: int) -> float:
    try:
        if text.lower() in ("inf", "infinity"):
            return math.inf
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as a number", key=key, line=line) from None


def _parse_int(text: str, key: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"cannot parse {text!r} as an integer", key=key, line=line) from None


def parse_config(path) -> RunConfig:
    """Parse and validate a flat key = value configuration file."""
    cfg = RunConfig()
    seen = {}
    with open(path, encoding="utf-8") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=line_no)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown key {key!r}", key=key, line=line_no)
            if key in seen:
                raise ConfigError(f"duplicate key {key!r} (first on line {seen[key]})",
                                  key=key, line=line_no)
            seen[key] = line_no
            cfg.raw_items[key] = value
            if key in _FLOAT_KEYS:
                setattr(cfg, key, _parse_float(value, key, line_no))
            elif key in _INT_KEYS:
                setattr(cfg, key, _parse_int(value, key, line_no))
            elif key == "directions":
                dirs = [d.strip() for d in value.split(",") if d.strip()]
                if not dirs or any(d not in ("x", "y") for d in dirs):
                    raise ConfigError(f"directions must be x, y or x,y, got {value!r}",
                                      key=key, line=line_no)
                cfg.directions = dirs
            elif key == "atomic_d":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 3:
                    raise ConfigError("atomic_d needs three components", key=key, line=line_no)
                cfg.atomic_d = tuple(_parse_float(p, key, line_no) for p in parts)
            elif key == "chain_cells_list":
                cfg.chain_cells_list = [_parse_int(p.strip(), key, line_no)
                                        for p in value.split(",") if p.strip()]
            elif key == "temperature_list":
                cfg.temperature_list = [_parse_float(p.strip(), key, line_no)
                                        for p in value.split(",") if p.strip()]
            else:
                setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    for key in sorted(_FLOAT_KEYS - {"beta"}):  # beta = inf is the pure state; checked below
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite", key=key)
    for key in ("atomic_d", "temperature_list"):
        values = getattr(cfg, key)
        if values is not None and not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} entries must be finite", key=key)
    if cfg.model not in ("qwz", "atomic", "tabulated"):
        raise ConfigError(f"unknown model {cfg.model!r}", key="model")
    if cfg.t_units not in ("gap", "raw"):
        raise ConfigError(f"t_units must be 'gap' or 'raw', got {cfg.t_units!r}", key="t_units")
    for key in ("grid_nx", "grid_ny", "chain_cells", "scan_points", "path_points",
                "egp_transverse"):
        if getattr(cfg, key) is not None and getattr(cfg, key) < 2:
            raise ConfigError(f"{key} must be >= 2", key=key)
    if cfg.beta is not None and not cfg.beta > 0:
        raise ConfigError("beta must be positive (or inf)", key="beta")
    if cfg.temperature is not None and cfg.temperature < 0:
        raise ConfigError("temperature must be >= 0", key="temperature")
    if cfg.temperature_list is not None and any(t < 0 for t in cfg.temperature_list):
        raise ConfigError("temperature_list entries must be >= 0", key="temperature_list")
    if cfg.chain_cells_list is not None and any(n < 2 for n in cfg.chain_cells_list):
        raise ConfigError("chain_cells_list entries must be >= 2", key="chain_cells_list")
    for key in ("directions", "chain_cells_list", "temperature_list"):
        values = getattr(cfg, key)
        if values is not None and len(set(values)) != len(values):
            raise ConfigError(f"{key} repeats an entry", key=key)
    for key, list_key in (("chain_cells", "chain_cells_list"), ("beta", "temperature_list"),
                          ("temperature", "temperature_list")):
        if key in cfg.raw_items and list_key in cfg.raw_items:
            raise ConfigError(f"{key} beside {list_key}: the list would override it", key=key)
    if not 0 < cfg.scan_t_min < cfg.scan_t_max:
        raise ConfigError("need 0 < scan_t_min < scan_t_max", key="scan_t_min")
