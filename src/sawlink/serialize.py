"""Deterministic result-bundle writers.

Series go to CSV with a header row, matrices to a JSON object format
with explicit shape, basis labels, and row-major [re, im] pairs,
scalar metrics to a sorted JSON map.  Every byte written is a pure
function of the experiment output; wall-clock timing goes to its own
file so the rest of the bundle can be compared bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import yaml

from .errors import ValidationError

TIMING_FILE = "timing.txt"  # the one file excluded from determinism checks


def write_series(path: Path, columns: dict[str, np.ndarray]):
    """CSV with one named column per entry; all columns equal length."""
    cols = {k: np.asarray(v) for k, v in columns.items()}
    lengths = {v.shape[0] for v in cols.values()}
    if not cols or len(lengths) != 1:
        raise ValidationError("series needs equal-length named columns")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols.keys())
        for row in zip(*cols.values()):
            writer.writerow([repr(float(v)) for v in row])


def write_matrix(path: Path, matrix: np.ndarray, basis: tuple[str, ...]):
    """Complex matrix as JSON: shape, basis labels, row-major [re, im]."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValidationError("matrix writer takes 2-d arrays")
    payload = {
        "shape": list(m.shape),
        "basis": list(basis),
        "data": [[v.real, v.imag] for v in m.reshape(-1)],
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_metrics(path: Path, metrics: dict[str, float]):
    path.write_text(json.dumps(metrics, sort_keys=True, indent=1) + "\n")


def config_hash(effective: dict) -> str:
    """Stable digest of the default-merged config."""
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_bundle(
    out_dir,
    effective: dict,
    metrics: dict[str, float],
    series: dict[str, dict[str, np.ndarray]],
    matrices: dict[str, tuple[np.ndarray, tuple[str, ...]]],
    wall_time_s: float,
    version: str,
) -> Path:
    """Write one experiment's result bundle under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.yaml").write_text(yaml.safe_dump(effective, sort_keys=True))
    write_metrics(out / "metrics.json", metrics)
    names = {"series": sorted(series), "matrices": sorted(matrices)}
    if series:
        (out / "series").mkdir(exist_ok=True)
        for name in sorted(series):
            write_series(out / "series" / f"{name}.csv", series[name])
    if matrices:
        (out / "matrices").mkdir(exist_ok=True)
        for name in sorted(matrices):
            mat, basis = matrices[name]
            write_matrix(out / "matrices" / f"{name}.json", mat, basis)
    meta = {
        "config_hash": config_hash(effective),
        "seed": effective["seed"],
        "experiment": effective["experiment"],
        "version": version,
        "files": names,
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    (out / TIMING_FILE).write_text(f"wall_time_s: {wall_time_s:.3f}\n")
    return out
