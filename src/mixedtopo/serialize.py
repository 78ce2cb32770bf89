"""CSV / JSON export and re-import of curvature arrays, EGP profiles and scan reports.

Floats are written with 17 significant digits so every emitted file
re-parses into the originating in-memory values exactly; CSV bodies are
byte-deterministic for identical inputs; each reader gives back what its writer took.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Optional

import numpy as np

from .geometry import PhaseProfile
from .uhlmann import InvariantReport


def fmt(x) -> str:
    """17-significant-digit decimal rendering (round-trip exact for float64)."""
    return f"{float(x):.17g}"


def _opt(x) -> str:
    return "" if x is None else (fmt(x) if isinstance(x, float) else str(x))


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, list(reader)


def _strict(x):
    """`x` with every non-finite float replaced by its `fmt` string ("inf", "-inf", "nan")."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return fmt(x) if isinstance(x, float) and not math.isfinite(x) else x


def write_json(path, payload):
    """Strict JSON: non-finite floats are written as strings, never as bare Infinity/NaN."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_strict(payload), f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def write_json_atomic(path, payload):
    tmp = f"{path}.tmp"
    write_json(tmp, payload)
    os.replace(tmp, path)


# ---------------------------------------------------------------- curvature

def curvature_to_csv(path, curvature: np.ndarray, kx_values, ky_values):
    """One "kx,ky,value" row per (nx, ny) plaquette phase, kx outer; the text write_csv would give.

    Each kx block is one %-template over its row ("%.17g" % x is fmt(x)).
    """
    if np.shape(curvature) != (len(kx_values), len(ky_values)):
        raise ValueError(f"momenta ({len(kx_values)}, {len(ky_values)}) do not match "
                         f"the curvature field {np.shape(curvature)}")
    cells = [""] + [f",{fmt(ky)},%.17g\n" for ky in ky_values]
    blocks = ["kx,ky,value\n"]
    blocks.extend(fmt(kx).join(cells) % tuple(row)
                  for kx, row in zip(kx_values, np.asarray(curvature, dtype=float).tolist()))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("".join(blocks))


def curvature_from_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(curvature, kx values, ky values) as `curvature_to_csv` took them, from its kx-outer rows."""
    header, rows = read_csv(path)
    if header != ["kx", "ky", "value"]:
        raise ValueError(f"{path}: not a curvature CSV (header {header})")
    kx, ky, values = np.array(rows, dtype=float).reshape(-1, 3).T  # float() of each entry, in C
    ny = len(set(ky.tolist()))
    return values.reshape(-1, ny), kx[::ny], ky[:ny]


# ---------------------------------------------------------------- EGP rows

EGP_HEADER = ["transverse_k", "phase", "log_modulus", "N", "beta"]


def profile_to_csv(path, profile: PhaseProfile, n_cells: int, beta):
    """One EGP_HEADER row per transverse sample of an EGP profile of n_cells-cell chains."""
    rows = [[fmt(tk), fmt(phase), fmt(lm), str(n_cells), _opt(beta)]
            for tk, phase, lm in zip(profile.parameters, profile.phases, profile.log_moduli)]
    write_csv(path, EGP_HEADER, rows)


def profile_from_csv(path) -> tuple[PhaseProfile, int, Optional[float]]:
    """(profile, n_cells, beta) of a `profile_to_csv` file, bit for bit; beta is None for a
    tabulated profile and inf for a pure state."""
    header, rows = read_csv(path)
    if header != EGP_HEADER:
        raise ValueError(f"{path}: not an EGP CSV (header {header})")
    if len(rows) < 2:
        raise ValueError(f"{path}: an EGP profile needs at least 2 rows, got {len(rows)}")
    transverse, phases, log_moduli, n_cells, betas = zip(*rows)
    if len(set(n_cells)) > 1 or len(set(betas)) > 1:
        raise ValueError(f"{path}: rows differ in N or beta")
    profile = PhaseProfile(*(np.array(column, dtype=float)  # float() of each entry, in C
                             for column in (transverse, phases, log_moduli)))
    return profile, int(n_cells[0]), float(betas[0]) if betas[0] else None


# ---------------------------------------------------------------- scan rows

REPORT_HEADER = ["T", "beta", "Cx_uhlmann", "Cy_uhlmann", "Cx_egp", "Cy_egp",
                 "C_ground", "status"]


def reports_to_csv(path, reports: list[InvariantReport]):
    rows = [[fmt(r.temperature), fmt(r.beta), _opt(r.cx_uhlmann), _opt(r.cy_uhlmann),
             _opt(r.cx_egp), _opt(r.cy_egp), _opt(r.c_ground), r.status]
            for r in reports]
    write_csv(path, REPORT_HEADER, rows)


def reports_from_csv(path) -> list[InvariantReport]:
    header, rows = read_csv(path)
    if header != REPORT_HEADER:
        raise ValueError(f"{path}: not an invariant-report CSV (header {header})")
    return [InvariantReport(
        temperature=float(t), beta=float(beta),
        cx_uhlmann=int(cxu) if cxu else None, cy_uhlmann=int(cyu) if cyu else None,
        cx_egp=int(cxe) if cxe else None, cy_egp=int(cye) if cye else None,
        c_ground=int(cg) if cg else None, status=status)
        for t, beta, cxu, cyu, cxe, cye, cg, status in rows]
