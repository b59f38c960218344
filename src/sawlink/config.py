"""Declarative experiment configuration.

One YAML file selects an experiment, a seed, calibration overrides,
and per-experiment parameters.  The schema is strict: any key not in
the default tree is a hard error, so a typo in a physics parameter
cannot silently fall back to a default.  A config is built only if the
experiment's plan accepts it, so every parameter range is checked too.

Configs and sweep values are read through ``YamlLoader``: libyaml's
parser where PyYAML has it and the pure-Python one otherwise, with the
same result, since both share the Python-side resolver and constructor.
A key repeated in one mapping, at any depth, is rejected rather than
letting the later section replace the earlier one, and a file that is
not UTF-8 fails to parse like any other malformed YAML: either is a
``ConfigError``, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .device import DeviceParams, QubitParams, default_device
from .errors import ConfigError
from .experiments import EXPERIMENTS

_QUBIT_KEYS = ("T1_int_us", "T2R_us", "F_g", "F_e", "g_mhz", "kappa_inv_ns")
_DEVICE_SCALARS = ("eta", "tau_ns", "t1_saw_us")


def _loader(base: type) -> type:
    """``base``, a safe loader, also reading 1e-7 as a float (YAML 1.1
    wants 1.0e-7) and rejecting a key repeated in one mapping."""

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            first = {}
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # keys a merge brings in may be overridden
                key = self.construct_object(key_node, deep=deep)
                try:
                    seen = first.setdefault(key, key_node)
                except TypeError:
                    continue  # the base class reports an unhashable key
                if seen is not key_node:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark)
            return super().construct_mapping(node, deep=deep)

    Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))
    return Loader


# libyaml's parser where PyYAML has it, as serialize._DUMPER does for writing
YamlLoader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    device: DeviceParams
    params: dict[str, Any]


def _device_dict(d: DeviceParams) -> dict:
    """The device's config section: the channel scalars, then each qubit's table."""
    out: dict[str, Any] = {k: getattr(d, k) for k in _DEVICE_SCALARS}
    for name, q in (("q1", d.q1), ("q2", d.q2)):
        out[name] = {k: getattr(q, k) for k in _QUBIT_KEYS}
    return out


def default_config(experiment: str) -> dict:
    """Fully populated config dict for one experiment."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment '{experiment}'; choose from "
            + ", ".join(sorted(EXPERIMENTS))
        )
    return {
        "experiment": experiment,
        "seed": 1234,
        "device": _device_dict(default_device()),
        "params": dict(EXPERIMENTS[experiment].defaults),
    }


def _check_number(value, default, where: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if isinstance(default, int):
        # an integral float such as 4.0 is fine; 2.7 must not become 2
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:  # a YAML integer beyond the float range
        raise ConfigError(f"{where} is out of range, got {value!r}") from None


def _merge_section(raw: dict, defaults: dict, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) under {where}: {', '.join(unknown)}")
    merged = dict(defaults)
    for key, value in raw.items():
        default = defaults[key]
        spot = f"{where}.{key}"
        if isinstance(default, dict):
            merged[key] = _merge_section(value, default, spot)
        elif default is None:
            merged[key] = None if value is None else _check_number(value, 1.0, spot)
        else:
            merged[key] = _check_number(value, default, spot)
    return merged


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Merge a raw mapping over the defaults and build the config."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' key")
    experiment = raw["experiment"]
    if not isinstance(experiment, str):
        raise ConfigError(f"experiment must be a string, got {experiment!r}")
    base = default_config(experiment)
    unknown = sorted(set(raw) - set(base))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    seed = raw.get("seed", base["seed"])
    # numpy's default_rng takes non-negative seeds, and the Philox key of
    # each noise realization holds the seed in its top 64 bits
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    dev_raw = _merge_section(raw.get("device", {}), base["device"], "device")
    params = _merge_section(raw.get("params", {}), base["params"], "params")
    device = DeviceParams(
        q1=QubitParams(**dev_raw["q1"]),
        q2=QubitParams(**dev_raw["q2"]),
        **{k: dev_raw[k] for k in _DEVICE_SCALARS},
    )
    # the plan checks every parameter through its owner: a bad one fails here, not mid-run
    EXPERIMENTS[experiment].plan(device, params, seed)
    return ExperimentConfig(experiment=experiment, seed=seed,
                            device=device, params=params)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    # a loader handed the open file names its path in a parse error
    try:
        with p.open("rb") as f:
            raw = yaml.load(f, Loader=YamlLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config does not parse: {exc}") from exc
    if raw is None:
        raise ConfigError("config file is empty")
    return config_from_dict(raw)


def effective_dict(cfg: ExperimentConfig) -> dict:
    """Canonical default-merged form, suitable for hashing and re-running."""
    return {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "device": _device_dict(cfg.device),
        "params": dict(cfg.params),
    }


def set_by_path(cfg: ExperimentConfig, path: str, value) -> ExperimentConfig:
    """New config with one scalar field addressed by a dotted path changed."""
    parts = path.split(".")
    raw = effective_dict(cfg)
    node = raw
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"no such config section: {path}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"no such config field: {path}")
    if isinstance(node[leaf], dict):
        raise ConfigError(f"{path} is a section, not a scalar")
    if path == "experiment":
        raise ConfigError("the experiment id cannot be swept")
    node[leaf] = value
    return config_from_dict(raw)
