"""Run configuration: a flat UTF-8 key = value file.

Each key is one RunConfig field holding its default, its parser and the check of its parsed
value; README "Config file" lists the keys. parse_config checks each value on the line that sets
it, so of several bad lines it reports the first, then refuses two keys that set one quantity
(the temperature, or the chain length) and an empty scan range. The commands check the rest as
they resolve their inputs: a model or state file fixes the grid, invariant-scan needs model qwz
or atomic, and gauge-reduction an ascending chain_cells_list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigError
from .gaussian import FictitiousHamiltonianGrid, GaussianStateSpec, load_matrix_grid
from .model import BlochModel, MomentumGrid, atomic_model, band_gap, qwz_model, tabulated_model


def _finite(x):
    return None if math.isfinite(x) else "must be finite"


def _positive(x):
    return None if x > 0 else "must be positive (or inf)"


def _non_negative(x):
    return None if 0 <= x < math.inf else "must be finite and >= 0"


def _at_least_2(n):
    return None if n >= 2 else "must be >= 2"


def _one_of(*choices):
    def check(value):
        return None if value in choices else f"must be one of {', '.join(choices)}, got {value!r}"
    return check


def _each(check):
    """Check of a sequence: `check` on every entry."""
    def check_each(values):
        problem = next(filter(None, map(check, values)), None)
        return problem and f"entries {problem}"
    return check_each


def _list_of(parse):
    """Parser of a comma list; empty entries are skipped, and none may repeat."""
    def parse_list(text):
        entries = [parse(part.strip()) for part in text.split(",") if part.strip()]
        if not entries or len(set(entries)) != len(entries):
            raise ValueError("needs one entry or more, none repeated")
        return entries
    return parse_list


def _three_floats(text):
    x, y, z = text.split(",")  # ValueError unless three components
    return float(x), float(y), float(z)


def _key(default, parse, check=None, sets=None):
    """A config key: its default, its parser (ValueError on bad text), the check of its value
    (returns what is wrong, or None) and the quantity it sets, which no other key may."""
    meta = {"parse": parse, "check": check, "sets": sets}
    if isinstance(default, list):  # each config gets its own copy
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    model: str = _key("qwz", str, _one_of("qwz", "atomic", "tabulated"))
    alpha: float = _key(1.0, float, _finite)
    gamma: float = _key(3.0, float, _finite)
    mass: float = _key(1.0, float, _finite)
    atomic_d: tuple = _key((0.0, 0.0, 1.0), _three_floats, _each(_finite))
    model_path: Optional[str] = _key(None, str)
    hfict_path: Optional[str] = _key(None, str)
    beta: Optional[float] = _key(None, float, _positive, sets="temperature")
    temperature: Optional[float] = _key(None, float, _non_negative, sets="temperature")
    t_units: str = _key("gap", str, _one_of("gap", "raw"))
    mu: float = _key(0.0, float, _finite)
    grid_nx: int = _key(64, int, _at_least_2)
    grid_ny: int = _key(64, int, _at_least_2)
    chain_cells: int = _key(10, int, _at_least_2, sets="chain length")
    chain_cells_list: Optional[list] = _key(None, _list_of(int), _each(_at_least_2),
                                            sets="chain length")
    temperature_list: Optional[list] = _key(None, _list_of(float), _each(_non_negative),
                                            sets="temperature")
    directions: list = _key(["x", "y"], _list_of(str), _each(_one_of("x", "y")))
    transverse_k: float = _key(np.pi / 3, float, _finite)
    scan_t_min: float = _key(0.01, float, _finite)
    scan_t_max: float = _key(100.0, float, _finite)
    scan_points: int = _key(48, int, _at_least_2)
    path_points: Optional[int] = _key(None, int, _at_least_2)  # retired: checked, sets nothing
    egp_transverse: Optional[int] = _key(None, int, _at_least_2)
    given_keys = frozenset()  # the keys the file sets; unannotated, so not a config key

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
            if key in self.given_keys and getattr(self, key) != stored:
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
        if self.beta is None and self.temperature is None:
            raise ConfigError("this command needs beta or temperature", key="beta")
        return self.beta if self.beta is not None else self._beta_of(self.temperature)

    def betas_from_list(self) -> list:
        """(label, beta) pairs from temperature_list, falling back to the single state."""
        if self.temperature_list is None:
            return [(None, self.beta_raw())]
        return [(t, self._beta_of(t)) for t in self.temperature_list]

    def _beta_of(self, temperature: float) -> float:
        return math.inf if temperature == 0 else 1.0 / (temperature * self.temperature_scale())

    def build_state(self) -> GaussianStateSpec:
        if self.hfict_path:
            for quantity in ("temperature", "chain length"):
                for spec in fields(self):
                    if spec.metadata["sets"] == quantity and spec.name in self.given_keys:
                        raise ConfigError("a hfict_path state fixes its own chains and has no "
                                          f"temperature: {spec.name} would be ignored",
                                          key=spec.name)
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
        return self.chain_cells_list or [self.chain_cells]


_ALL_KEYS = {spec.name for spec in fields(RunConfig)}


def parse_config(path) -> RunConfig:
    """Parse a flat key = value file, checking each value on the line that sets it."""
    values, lines = {}, {}
    with open(path, encoding="utf-8") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=line_no)
            key, _, text = (part.strip() for part in line.partition("="))
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown key {key!r}", key=key, line=line_no)
            if key in lines:
                raise ConfigError(f"duplicate key {key!r} (first on line {lines[key]})",
                                  key=key, line=line_no)
            lines[key] = line_no
            meta = RunConfig.__dataclass_fields__[key].metadata
            try:
                values[key] = meta["parse"](text)
            except ValueError as exc:
                raise ConfigError(f"{key} = {text!r}: {exc}", key=key, line=line_no) from None
            problem = meta["check"] and meta["check"](values[key])
            if problem:
                raise ConfigError(f"{key} {problem}", key=key, line=line_no)
    first_setter = {}
    for spec in fields(RunConfig):  # of two keys that set one quantity, name the first
        if (quantity := spec.metadata["sets"]) and spec.name in lines:
            first = first_setter.setdefault(quantity, spec.name)
            if first != spec.name:
                raise ConfigError(f"{first} and {spec.name} both set the {quantity}; give one",
                                  key=first, line=lines[first])
    cfg = RunConfig(**values)
    cfg.given_keys = frozenset(lines)
    if not 0 < cfg.scan_t_min < cfg.scan_t_max:  # a t_min <= 0, else the later of the two
        key = "scan_t_min" if cfg.scan_t_min <= 0 else max(
            {"scan_t_min", "scan_t_max"} & lines.keys(), key=lines.get)
        raise ConfigError("need 0 < scan_t_min < scan_t_max", key=key, line=lines[key])
    return cfg
