"""Command-line experiment runner.

``run`` executes one configured experiment and writes a result
bundle; ``sweep`` repeats it across values of one scalar config field;
``validate`` checks a config without integrating anything; ``defaults``
emits the fully populated default config for an experiment.

Exit codes: 0 success, 2 validation (usage, config or physics preconditions,
or a config that needs more memory than exists), 3 integration failure, 4 I/O
failure.  Errors print one JSON line to stderr with the error class and message.
A config or sweep value that does not parse (malformed YAML, a key repeated in
one mapping, bytes that are not UTF-8) is a config error, exit 2.

The argument parser is built once per process; ``main`` looks up the
``cmd_*`` function for a command by name when it is called, so a function
replaced on the module after the first call is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import (
    ExperimentConfig,
    YamlLoader,
    default_config,
    effective_dict,
    load_config,
    set_by_path,
)
from .errors import ConfigError, IntegrationError, ValidationError
from .experiments import EXPERIMENTS, run_experiment
from .serialize import config_yaml, write_bundle, write_series

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTEGRATION = 3
EXIT_IO = 4


def _diagnose(exc: Exception) -> int:
    # numpy raises a private subclass of MemoryError; the line names the public one
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
    if isinstance(exc, IntegrationError):
        return EXIT_INTEGRATION
    if isinstance(exc, OSError):
        return EXIT_IO
    return EXIT_VALIDATION


def _run_bundle(cfg: ExperimentConfig, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    output = run_experiment(cfg.experiment, cfg.device, cfg.params, cfg.seed)
    wall = time.perf_counter() - t0
    write_bundle(
        out_dir,
        effective_dict(cfg),
        output.metrics,
        output.series,
        output.matrices,
        wall_time_s=wall,
        version=__version__,
    )
    return output.metrics


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = set_by_path(cfg, "seed", args.seed)
    metrics = _run_bundle(cfg, Path(args.out))
    print(json.dumps({"status": "ok", "out": str(args.out), "metrics": metrics},
                     sort_keys=True))
    return EXIT_OK


def _sweep_value(text: str):
    try:
        return yaml.load(text, Loader=YamlLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"sweep value {text!r} does not parse: {exc}") from exc


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = set_by_path(cfg, "seed", args.seed)
    values = [_sweep_value(v) for v in args.values]
    points = [(set_by_path(cfg, args.param, value), Path(args.out) / f"point_{i:03d}")
              for i, value in enumerate(values)]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(points))) as pool:
            all_metrics = list(pool.map(_run_bundle, *zip(*points)))
    else:
        all_metrics = [_run_bundle(cfg_i, out) for cfg_i, out in points]
    columns = {args.param: np.array([np.nan if v is None else float(v) for v in values])}
    for key in sorted(all_metrics[0]):
        columns[key] = np.array([m[key] for m in all_metrics])
    write_series(Path(args.out) / "summary.csv", columns)
    print(json.dumps({"status": "ok", "out": str(args.out), "points": len(values)},
                     sort_keys=True))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(json.dumps({"status": "ok", "experiment": cfg.experiment}, sort_keys=True))
    return EXIT_OK


def cmd_defaults(args) -> int:
    text = config_yaml(default_config(args.experiment))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so they reach ``_diagnose`` like any other."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _worker_count(text: str) -> int:
    """A ``--jobs`` value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"worker count must be at least 1, not {jobs}")
    return jobs


def _add_common(parser, out_required: bool):
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", required=out_required, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each call returns the same object."""
    parser = _Parser(prog="sawlink", description="phonon-channel experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment, write a result bundle")
    _add_common(p_run, out_required=True)

    p_sweep = sub.add_parser("sweep", help="run one experiment across field values")
    p_sweep.add_argument("param", help="dotted config path, e.g. params.window_ns")
    p_sweep.add_argument("values", nargs="+", help="one or more values to sweep")
    _add_common(p_sweep, out_required=True)
    p_sweep.add_argument("--jobs", type=_worker_count, default=1,
                         help="parallel workers for independent sweep points")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)

    p_def = sub.add_parser("defaults", help="emit the default config")
    p_def.add_argument("experiment", nargs="?", default="ping_pong",
                       choices=sorted(EXPERIMENTS))
    p_def.add_argument("--out", default=None, help="write to file instead of stdout")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (ValidationError, IntegrationError, OSError, MemoryError) as exc:
        return _diagnose(exc)


if __name__ == "__main__":
    sys.exit(main())
