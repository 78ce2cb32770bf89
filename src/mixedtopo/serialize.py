"""CSV / JSON export and re-import of result types.

Floats are written with 17 significant digits so every emitted file
re-parses into the originating in-memory values exactly; CSV bodies are
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .egp import EgpResult
from .geometry import CurvatureField, PhaseProfile
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


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_json_atomic(path, payload):
    tmp = f"{path}.tmp"
    write_json(tmp, payload)
    os.replace(tmp, path)


# ---------------------------------------------------------------- profiles

def profile_to_json(path, profile: PhaseProfile):
    write_json(path, {
        "label": profile.label,
        "direction": profile.direction,
        "temperature": profile.temperature,
        "parameters": [fmt(p) for p in profile.parameters],
        "phases": [fmt(v) for v in profile.phases],
        "moduli": None if profile.moduli is None else [fmt(m) for m in profile.moduli],
    })


def profile_from_json(path) -> PhaseProfile:
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    return PhaseProfile(parameters=np.array([float(x) for x in d["parameters"]]),
                        phases=np.array([float(x) for x in d["phases"]]),
                        label=d.get("label", ""), direction=d.get("direction", ""),
                        temperature=d.get("temperature"),
                        moduli=None if d.get("moduli") is None
                        else np.array([float(x) for x in d["moduli"]]))


# ---------------------------------------------------------------- curvature

def curvature_to_csv(path, field: CurvatureField, kx_values, ky_values):
    """One "kx,ky,value" row per grid point, kx outer; the text write_csv would give."""
    kys = [fmt(ky) for ky in ky_values]
    lines = ["kx,ky,value"]
    for kx, row in zip(kx_values, field.values.tolist(), strict=True):
        kx = fmt(kx)
        lines.extend(f"{kx},{ky},{value:.17g}" for ky, value in zip(kys, row, strict=True))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")


def curvature_from_csv(path) -> tuple[CurvatureField, np.ndarray, np.ndarray]:
    header, rows = read_csv(path)
    if header != ["kx", "ky", "value"]:
        raise ValueError(f"{path}: not a curvature CSV (header {header})")
    kxs = sorted({float(r[0]) for r in rows})
    kys = sorted({float(r[1]) for r in rows})
    values = np.empty((len(kxs), len(kys)))
    index_x = {k: i for i, k in enumerate(kxs)}
    index_y = {k: j for j, k in enumerate(kys)}
    for r in rows:
        values[index_x[float(r[0])], index_y[float(r[1])]] = float(r[2])
    return CurvatureField(values=values), np.array(kxs), np.array(kys)


# ---------------------------------------------------------------- EGP rows

EGP_HEADER = ["transverse_k", "phase", "modulus", "N", "beta"]


def egp_results_to_csv(path, results: list[EgpResult]):
    rows = [[fmt(r.transverse_k), fmt(r.phase), fmt(r.magnitude), str(r.n_cells),
             _opt(r.beta)] for r in results]
    write_csv(path, EGP_HEADER, rows)


def egp_results_from_csv(path, direction: str = "") -> list[EgpResult]:
    header, rows = read_csv(path)
    if header != EGP_HEADER:
        raise ValueError(f"{path}: not an EGP CSV (header {header})")
    out = []
    for tk, phase, modulus, n, beta in rows:
        m = float(modulus)
        out.append(EgpResult(phase=float(phase),
                             log_magnitude=math.log(m) if m > 0 else -math.inf,
                             n_cells=int(n), direction=direction,
                             transverse_k=float(tk),
                             beta=float(beta) if beta else None, mu=None))
    return out


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
    out = []
    for t, beta, cxu, cyu, cxe, cye, cg, status in rows:
        out.append(InvariantReport(
            temperature=float(t), beta=float(beta),
            cx_uhlmann=int(cxu) if cxu else None, cy_uhlmann=int(cyu) if cyu else None,
            cx_egp=int(cxe) if cxe else None, cy_egp=int(cye) if cye else None,
            c_ground=int(cg) if cg else None, status=status))
    return out
