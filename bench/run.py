"""The sawlink benchmark: seeded workloads, checked outputs, end-to-end
and per-layer metrics.

    python3 bench/run.py --workload cascade_tomo --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all        # every workload in turn

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  Each workload runs in a fresh child process, so
its peak resident memory is its own.  An untraced run measures whole
rounds of ops until at least ``--seconds`` have passed and reports:

    setup_s      import, input generation with validation, and the warm-up
                 ops; the median of three fresh processes
    ops_per_s    ops completed per second of op time, in the median round
    op_s_p50     median seconds per op
    op_s_tail    the highest percentile of op seconds with ten samples
                 beyond it (percentile and sample count printed beside)
    peak_rss_mb  peak resident memory of the workload's process

Times are scaled to a reference host speed by a calibration kernel timed
beside every op and after every set-up (``workloads.calibrate``), because
the speed of a shared host drifts by up to 1.7x over minutes; the unscaled
median, tail and set-up times are printed beside the metrics.
``failed_frac`` is printed beside them and carried by the result's
``attempted``/``failed`` fields.  A traced run (``--trace 1``) takes the
first op of each kind in the first round and runs it once untraced and
once under the span recorder of ``spans.py``; it reports the per-layer
metrics and the tracing overhead, and writes the spans to
``.bench_work/spans-<workload>.npz``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from before numpy and sawlink load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cascade_tomo", "delay_loop")
SETUP_SAMPLES = 3
# One BLAS thread: on a 2-core machine the default pool made the same
# sweep work take 10.2-13.7 s across four repeats, against 10.4-11.0 s
# with one thread; the matrices here are too small to gain from more.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
RUN_LIMIT_S = 175.0  # a run ends within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "work"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_facts() -> dict:
    """Facts recorded beside every result; none of them is a metric."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "default (no thread variable set)",
        "src_lines": src_lines,
    }


# ---- child processes -----------------------------------------------------------------


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import sawlink

    if not Path(sawlink.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sawlink imported from {sawlink.__file__}, not from this checkout")
    import workloads

    ctx = workloads.Context(args.workload, ROOT)
    setup_raw_s = time.perf_counter() - T_START
    setup_s = setup_raw_s * workloads.host_scale(args.workload)
    try:
        if args.child == "setup":
            out = {}
        elif args.trace:
            out = workloads.traced_run(ctx, args.seed, spans_path=spans_file(args.workload))
        else:
            out = workloads.timed_run(ctx, args.seed, args.seconds)
    finally:
        ctx.close()
    out["setup_s"], out["setup_raw_s"] = setup_s, setup_raw_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.child == "work":
        out["facts"] = machine_facts()
    print(json.dumps(out))
    return 0


def spans_file(workload: str) -> Path:
    return ROOT / ".bench_work" / f"spans-{workload}.npz"


def spawn(role: str, workload: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **BLAS_ENV},
                              capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise SystemExit(f"{workload}: {role} process passed the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload}: {role} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- the parent: one fresh process per workload ----------------------------------------


def run_workload(workload: str, args, deadline: float) -> tuple[dict, dict]:
    """(result fields, metrics) of one workload."""
    import workloads

    setups = []
    if not args.trace:
        setups = [spawn("setup", workload, args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    work = spawn("work", workload, args, deadline)
    print(f"{workload}: facts {json.dumps(work['facts'], sort_keys=True)}")
    for msg in work["failures"][:20]:
        print(f"{workload}: FAILED {msg}")
    fields = {"attempted": work["attempted"], "failed": work["failed"]}
    print(f"{workload}: failed_frac {work['failed'] / max(work['attempted'], 1):.4g} "
          f"({work['failed']} of {work['attempted']} ops)")
    if args.trace:
        import spans

        units = dict(spans.PER_LAYER)
        metrics = {k: (v, units[k]) for k, v in work["layers"].items()}
        print(f"{workload}: traced ops {work['traced_s']:.3f} s, "
              f"untraced {work['untraced_s']:.3f} s; spans in {spans_file(workload)}")
        return fields, metrics
    setups.append(work)
    stats = workloads.summarize(work["samples"])
    raw = workloads.summarize(work["raw_samples"])
    print(f"{workload}: {len(work['round_rates'])} rounds, {stats['n']} ops in "
          f"{work['wall_s']:.2f} s; "
          f"tail is p{stats['tail_pct']:.1f} with 10 samples beyond")
    raw_setups = ", ".join(f"{w['setup_raw_s']:.3f}" for w in setups)
    scaled_setups = ", ".join(f"{w['setup_s']:.3f}" for w in setups)
    print(f"{workload}: unscaled op_s_p50 {raw['p50']:.6g} s, op_s_tail {raw['tail']:.6g} s, "
          f"set-up {raw_setups} s; scaled set-up {scaled_setups} s")
    values = {
        "setup_s": statistics.median(w["setup_s"] for w in setups),
        "ops_per_s": statistics.median(work["round_rates"]),
        "op_s_p50": stats["p50"],
        "op_s_tail": stats["tail"],
        "peak_rss_mb": work["peak_rss_mb"],
    }
    return fields, {k: (values[k], unit) for k, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "sawlink" / "__init__.py").is_file():
        print(f"error: no sawlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    deadline = T_START + RUN_LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        fields, ms = run_workload(name, args, deadline)
        attempted += fields["attempted"]
        failed += fields["failed"]
        for key, (value, unit) in ms.items():
            print(f"{name}: {key} {value:.6g} {unit}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
