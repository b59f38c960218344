"""Command-line experiment runner.

``run`` executes one configured experiment and writes a result
bundle; ``sweep`` repeats it across values of one scalar config field;
``validate`` checks a config without integrating anything; ``defaults``
emits the fully populated default config for an experiment.

Exit codes: 0 success, 2 validation (usage, config or physics
preconditions), 3 integration failure, 4 I/O failure.  Errors print
one JSON line to stderr with the error class and message.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
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
    with_seed,
)
from .errors import ConfigError, IntegrationError, ValidationError
from .experiments import EXPERIMENTS, run_experiment
from .serialize import write_bundle, write_series

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTEGRATION = 3
EXIT_IO = 4


def _diagnose(exc: Exception) -> int:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )
    if isinstance(exc, ValidationError):
        return EXIT_VALIDATION
    if isinstance(exc, IntegrationError):
        return EXIT_INTEGRATION
    if isinstance(exc, OSError):
        return EXIT_IO
    raise exc


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


def _sweep_worker(raw: dict, out_dir: str) -> dict:
    from .config import config_from_dict

    cfg = config_from_dict(raw)
    return _run_bundle(cfg, Path(out_dir))


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
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
        cfg = with_seed(cfg, args.seed)
    values = [_sweep_value(v) for v in args.values]
    points = []
    for i, value in enumerate(values):
        cfg_i = set_by_path(cfg, args.param, value)
        points.append((effective_dict(cfg_i), str(Path(args.out) / f"point_{i:03d}")))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            all_metrics = list(pool.map(_sweep_worker, *zip(*points)))
    else:
        all_metrics = [_sweep_worker(raw, out) for raw, out in points]
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
    text = yaml.safe_dump(default_config(args.experiment), sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so they reach ``_diagnose`` like any other."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _add_common(parser, out_required: bool):
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--out", required=out_required, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for independent sweep points")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sawlink", description="phonon-channel experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment, write a result bundle")
    _add_common(p_run, out_required=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment across field values")
    p_sweep.add_argument("param", help="dotted config path, e.g. params.window_ns")
    p_sweep.add_argument("values", nargs="+", help="one or more values to sweep")
    _add_common(p_sweep, out_required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    p_def = sub.add_parser("defaults", help="emit the default config")
    p_def.add_argument("experiment", nargs="?", default="ping_pong",
                       choices=sorted(EXPERIMENTS))
    p_def.add_argument("--out", default=None, help="write to file instead of stdout")
    p_def.set_defaults(func=cmd_defaults)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, IntegrationError, OSError) as exc:
        return _diagnose(exc)


if __name__ == "__main__":
    sys.exit(main())
