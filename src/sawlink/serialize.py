"""Deterministic result-bundle writers.

Series go to CSV: a header row of the column names, then one row per
sample with each value as the shortest ``repr`` that round-trips its
float64, every line ended by CRLF (the ``csv`` module's default
terminator).  Matrices go to a JSON object format with explicit shape,
basis labels, and row-major [re, im] pairs, scalar metrics to a sorted
JSON map, and the effective config to sorted-key YAML.  The YAML is
emitted by libyaml where PyYAML was built with it and by PyYAML's
pure-Python emitter otherwise; on what a config holds (identifier keys,
numbers, None and the experiment's name) both write the bytes of
``yaml.safe_dump``.  Every byte written is a pure function of the
experiment output; wall-clock timing goes to its own file so the rest
of the bundle can be compared bit for bit.
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
# libyaml's emitter is a compiled build option of PyYAML, not always present
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_ROWS_PER_WRITE = 4096  # bounds the text a long series holds at once


def config_yaml(effective: dict) -> str:
    """The config as sorted-key YAML, as ``yaml.safe_dump`` writes it."""
    return yaml.dump(effective, Dumper=_DUMPER, sort_keys=True)


def write_series(path: Path, columns: dict[str, np.ndarray]):
    """CSV with one named column per entry; all columns 1-d, real and of
    equal length."""
    cols = {k: np.asarray(v) for k, v in columns.items()}
    for name, col in cols.items():
        if col.ndim != 1 or col.dtype.kind not in "biuf":
            raise ValidationError(
                f"series column {name!r} must be 1-d and real, "
                f"got shape {col.shape} of {col.dtype}"
            )
    if not cols or len({len(v) for v in cols.values()}) != 1:
        raise ValidationError("series needs equal-length named columns")
    block = np.column_stack([c.astype(np.float64) for c in cols.values()])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(cols.keys())
        for start in range(0, len(block), _ROWS_PER_WRITE):
            rows = block[start:start + _ROWS_PER_WRITE].tolist()
            fh.write("\r\n".join([",".join(map(repr, row)) for row in rows]) + "\r\n")


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
    (out / "config.yaml").write_text(config_yaml(effective))
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
