"""Draw the workload pools and record every entry's reference metrics.

    python3 bench/record_references.py     # about 7 minutes

Draws every pool afresh and writes ``references.json`` beside this file,
so all references come from one version of the code: the one this is run
on.  Record them again only when an output is meant to change, and say so
where the change is described.  Each entry runs through ``run_experiment`` directly, so a sweep op's
bundle is checked against a route that bypasses the CLI.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from sawlink.config import config_from_dict  # noqa: E402
from sawlink.experiments import run_experiment  # noqa: E402


def main() -> int:
    pools = workloads.draw_pool()
    for name, entries in pools.items():
        kind = workloads.KINDS[name]
        t0 = time.perf_counter()
        for entry in entries:
            cfg = config_from_dict(workloads.point_config(kind, entry))
            entry["metrics"] = run_experiment(cfg.experiment, cfg.device, cfg.params,
                                              cfg.seed).metrics
        print(f"{name}: {len(entries)} entries in {time.perf_counter() - t0:.1f} s", flush=True)
    payload = {"pool_seed": workloads.POOL_SEED, "tolerance": workloads.TOLERANCE,
               "pools": pools}
    workloads.REFERENCES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
