"""Seeded workloads, their reference outputs, and the op loop.

Every workload is a closed loop: one client in one process sends its
next op only after the previous one returned, with ``--jobs 1`` and
one BLAS thread (``run.py`` sets it).  An op is one experiment run
through ``sawlink.experiments.run_experiment``, or one point of an
in-process ``sawlink.cli.main(["sweep", ...])`` including its bundle
write.  A sweep op sweeps one value, so each sweep point is timed on its
own.

Inputs come from a fixed pool per experiment kind.  ``draw_pool`` drew
each entry's numeric values from the ranges in ``KINDS`` (with
``POOL_SEED``), and ``record_references.py`` stored the pool together
with every entry's metrics in ``references.json``.  A workload seed
then picks the entries of each round: a round holds a fixed number of
ops per kind, spread over the kind's strata, in seeded order.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
POOL_SEED = 1903
# an op fails when any metric moves further than this from its reference
# (ROADMAP item 2's tolerance): absolute up to 1, relative above
TOLERANCE = 1e-6
BUNDLE_FILES = {"config.yaml", "metrics.json", "meta.json", "timing.txt"}
# op samples a run needs before its tail is taken: with ten samples beyond
# it, the tail is then at least the 75th percentile
MIN_SAMPLES = 40


@dataclass(frozen=True)
class Kind:
    """One experiment kind: numeric ranges, strata and pool size.

    A stratum fixes the parameters that decide an op's cost class; the
    round picker spreads a kind's ops over its strata so every round
    holds the same mix.  ``sweep`` is (field, lo, hi) for ops that go
    through the CLI's ``sweep`` command with one value of that field.
    """

    experiment: str
    ranges: dict
    strata: tuple = ({},)
    per_stratum: int = 4
    sweep: tuple | None = None


ETA = (0.62, 0.72)  # around the device's 0.67

KINDS = {
    # the four emitter/receiver pairs of a single process-tomographed transfer
    "swap": Kind(
        "swap",
        {"kappa_c": (0.13, 0.17), "window_ns": (110.0, 130.0), "eta": ETA},
        strata=tuple({"emitter": e, "receiver": r} for e in (1, 2) for r in (1, 2)),
        per_stratum=3,
    ),
    # the 16-prep two-qubit path.  Window and eta stay at their defaults:
    # one op takes 35 s at 120 ns but 44 s at 110 ns and 39 s at 130 ns,
    # and 42 s at eta 0.6, so drawing them would make the round length,
    # and with it ops_per_s, depend on the seed.
    "double_swap": Kind("double_swap", {"kappa_c": (0.13, 0.17)}, per_stratum=4),
    "bell": Kind(
        "bell",
        {"kappa_c": (0.13, 0.17), "window_ns": (160.0, 200.0), "eta": ETA,
         "alpha": (0.4, 0.6)},
        per_stratum=9,
    ),
    "ping_pong": Kind(
        "ping_pong",
        {"kappa_c": (0.12, 0.18), "window_ns": (130.0, 170.0), "eta": ETA},
        per_stratum=37,
    ),
    "multi_transit": Kind(
        "multi_transit",
        {"kappa_c": (0.12, 0.18), "window_ns": (130.0, 170.0), "eta": ETA},
        strata=tuple({"max_transits": n} for n in (2, 3, 4)),
        per_stratum=3,
    ),
    # Realizations vary the batch width against the default chunk of 1024.
    # The widest batch sets the peak memory (169 MB against 104 MB at 256
    # realizations), so every round holds one op at 1024 and one at 256 or
    # 512; a round without the wide one would make peak_rss_mb depend on
    # the seed.  Four phases would crash the runner's FFT (a defect left for
    # a later change), so five is the fewest.
    "interference_wide": Kind(
        "interference",
        {"kappa_c": (0.08, 0.12), "window_ns": (160.0, 200.0), "eta": ETA},
        strata=({"realizations": 1024, "n_phases": 5},),
        per_stratum=3,
    ),
    "interference": Kind(
        "interference",
        {"kappa_c": (0.08, 0.12), "window_ns": (160.0, 200.0), "eta": ETA},
        strata=tuple({"realizations": r, "n_phases": 5} for r in (256, 512)),
        per_stratum=3,
    ),
    # Sweeps take numeric values only.  ``sweep params.eta 0.67 null``
    # ends in a traceback (ROADMAP item 5); that is a fuzz target for
    # item 5, not traffic, so no workload sends it.
    "sweep_vacuum_rabi": Kind(
        "vacuum_rabi", {"qubit": (1, 2)}, per_stratum=12,
        sweep=("params.g_mhz", 0.15, 0.21),
    ),
    "sweep_spectroscopy": Kind(
        "spectroscopy",
        {"qubit": (1, 2), "n_modes": (6, 10), "points": (161, 321)},
        per_stratum=5,
        sweep=("params.span_mhz", 8.0, 16.0),
    ),
    "sweep_saw_response": Kind(
        "saw_response",
        {"f_lo_ghz": (3.7, 3.9), "points": (301, 501)},
        per_stratum=5,
        sweep=("params.f_hi_ghz", 4.1, 4.3),
    ),
    "sweep_tomo_roundtrip": Kind(
        "tomo_roundtrip", {"n_states": (12, 28)}, per_stratum=7,
        sweep=("params.werner_p", 0.4, 1.0),
    ),
}

# Ops per kind in one round: 40 in each workload, so a one-round run has a
# tail at the 75th percentile.  Every entry of the bell, ping_pong and
# sweep pools runs in every round, and the median and the tail fall among
# them, so both compare the same ops from seed to seed.
WORKLOADS = {
    # Doubled-space RK45 (89-94 % of the cascade ops): the mechanism of
    # ROADMAP item 2.  The round also carries the user's front door, 29
    # one-point CLI sweeps: config merge, validation, bundle writes, CLI
    # overhead, and dynamics sampling a constant generator on an 800-point
    # grid.  On their own, ten-second sweep runs spread by 29-34 % from run
    # to run on a 2-core host, and the run budget has no room for longer
    # ones; inside this one-minute round they are steady.  Sorted by cost
    # the round is 17 cheap sweep points, 12 vacuum_rabi points (about
    # 0.2-0.35 s), 9 bells (about 1 s), swap and double_swap: the median
    # falls among the vacuum_rabi points and the tail on a bell, so the
    # two see the front door and the doubled-space path respectively.
    # Bypasses the ioshape loop.
    "cascade_tomo": (
        ("double_swap", 1), ("swap", 1), ("bell", 9),
        ("sweep_vacuum_rabi", 12), ("sweep_tomo_roundtrip", 7),
        ("sweep_spectroscopy", 5), ("sweep_saw_response", 5),
    ),
    # The fixed-step ioshape loop and its scalar schedule lookups: the
    # mechanism of ROADMAP item 3.  Bypasses qcore, solve_ivp, cascade,
    # tomo, config, serialize and the CLI.  Every delay-loop op integrates
    # the whole 508 ns line, so the cheapest (ping_pong, about 0.85 s) sets
    # the floor: 40 ops fit the run budget only as 37 ping_pongs and three
    # slower ops (multi_transit 2-6 s, interference 6-10 s), and the median
    # and the tail both fall among the ping_pongs.  The slow ops reach
    # ops_per_s.
    "delay_loop": (
        ("interference_wide", 1), ("interference", 1), ("multi_transit", 1),
        ("ping_pong", 37),
    ),
}

# untimed warm-up per kind: the same runner on a small instance.  swap and
# double_swap get none of their own (5 s and 35 s at the smallest
# instance); they run the bell's cascade, evolve_generator and solve_ivp
# path.
SMALL_LINE = {"device": {"tau_ns": 100.0}, "params": {"kappa_c": 0.3, "window_ns": 40.0}}
WARMUPS = {
    "bell": {},
    "ping_pong": SMALL_LINE,
    "multi_transit": {**SMALL_LINE, "params": {**SMALL_LINE["params"], "max_transits": 2}},
    "interference": {**SMALL_LINE, "params": {**SMALL_LINE["params"], "n_phases": 5,
                                              "realizations": 8}},
    "sweep_vacuum_rabi": {"params": {"n_modes": 5, "points": 200}},
    "sweep_spectroscopy": {},
    "sweep_saw_response": {},
    "sweep_tomo_roundtrip": {"params": {"n_states": 4}},
}


def _draw(rng, lo, hi):
    if isinstance(lo, int):
        return int(rng.integers(lo, hi + 1))
    return round(float(rng.uniform(lo, hi)), 4)


def draw_pool(seed: int = POOL_SEED) -> dict[str, list[dict]]:
    """Every kind's pool entries, drawn from the ranges in ``KINDS``."""
    pools = {}
    for k, (name, kind) in enumerate(KINDS.items()):
        rng = np.random.default_rng([seed, k])
        entries = []
        for stratum in kind.strata:
            for _ in range(kind.per_stratum):
                params = {p: _draw(rng, lo, hi) for p, (lo, hi) in kind.ranges.items()}
                params.update(stratum)
                entry = {"stratum": json.dumps(stratum, sort_keys=True), "params": params}
                if kind.sweep:
                    fld, lo, hi = kind.sweep
                    entry["field"] = fld
                    entry["value"] = _draw(rng, lo, hi)
                entries.append(entry)
        pools[name] = entries
    return pools


def point_config(kind: Kind, entry: dict) -> dict:
    """The raw config an entry runs, with its sweep value set."""
    raw = {"experiment": kind.experiment, "params": dict(entry["params"])}
    if kind.sweep:
        section, key = entry["field"].split(".")
        raw[section][key] = entry["value"]
    return raw


def round_ops(workload: str, seed: int, index: int, pools: dict) -> list[tuple[str, int]]:
    """The (kind, pool index) ops of round ``index``, in seeded order.

    Each kind walks a seeded order of its strata and, inside each stratum,
    a seeded order of its entries.  Consecutive rounds therefore cover the
    pool evenly, and a run of many rounds does about the same work
    whatever its seed.
    """
    seed &= 2**63 - 1
    ops = []
    for k, (kind, count) in enumerate(WORKLOADS[workload]):
        rng = np.random.default_rng([seed, 0, k])
        members: dict[str, list[int]] = {}
        for i, entry in enumerate(pools[kind]):
            members.setdefault(entry["stratum"], []).append(i)
        walks = [rng.permutation(members[s]) for s in sorted(members)]
        order = rng.permutation(len(walks))
        for n in range(index * count, (index + 1) * count):
            walk = walks[order[n % len(walks)]]
            ops.append((kind, int(walk[n // len(walks) % len(walk)])))
    shuffle = np.random.default_rng([seed, 1, index]).permutation(len(ops))
    return [ops[i] for i in shuffle]


# ---- output checks ---------------------------------------------------------------


def _close(have, want) -> bool:
    have, want = float(have), float(want)
    if math.isnan(want) or math.isnan(have):
        return math.isnan(want) and math.isnan(have)
    return abs(have - want) <= TOLERANCE * max(1.0, abs(want))


def metric_errors(got: dict, want: dict) -> list[str]:
    """Reference metrics that are missing from ``got`` or moved too far.

    Extra metrics are allowed: a later change may add one.
    """
    errs = []
    for key, ref in want.items():
        if key not in got:
            errs.append(f"{key} missing")
        elif not _close(got[key], ref):
            errs.append(f"{key} = {got[key]!r}, reference {ref!r}")
    return errs


def bundle_errors(point: Path) -> list[str]:
    """Mismatches between meta.json's file index and the files written."""
    meta = json.loads((point / "meta.json").read_text())
    errs = []
    top = {p.name for p in point.iterdir()}
    for sub, ext in (("series", ".csv"), ("matrices", ".json")):
        listed = sorted(meta["files"].get(sub, []))
        d = point / sub
        present = sorted(p.name for p in d.iterdir()) if d.is_dir() else []
        if present != sorted(f"{n}{ext}" for n in listed):
            errs.append(f"{sub}/ holds {present}, meta.json lists {listed}")
        top.discard(sub)
    if top != BUNDLE_FILES:
        errs.append(f"bundle holds {sorted(top)}")
    return errs


def bundle_bytes(point: Path) -> int:
    """Bytes of a bundle's deterministic files (all but timing.txt)."""
    return sum(
        p.stat().st_size for p in point.rglob("*") if p.is_file() and p.name != "timing.txt"
    )


# ---- set-up and ops --------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float
    failures: list[str] = field(default_factory=list)


class Context:
    """A workload's validated inputs, references and scratch directory."""

    def __init__(self, workload: str, root: Path):
        if workload not in WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self.workload = workload
        self.work = root / ".bench_work" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._n_out = 0
        try:
            self._set_up()
        except BaseException:
            self.close()
            raise

    def _set_up(self):
        import yaml
        from sawlink import cli, config, experiments

        self.cli, self.run_experiment = cli, experiments.run_experiment
        self.pools = json.loads(REFERENCES.read_text())["pools"]
        self.configs: dict = {}
        self.sweep_files: dict = {}
        for kind_name, _ in WORKLOADS[self.workload]:
            kind = KINDS[kind_name]
            for idx, entry in enumerate(self.pools[kind_name]):
                _check_ranges(kind, entry)
                cfg = config.config_from_dict(point_config(kind, entry))
                if kind.sweep:
                    path = self.work / f"{kind_name}-{idx}.yaml"
                    path.write_text(yaml.safe_dump(
                        {"experiment": kind.experiment, "params": entry["params"]}))
                    self.sweep_files[(kind_name, idx)] = path
                else:
                    self.configs[(kind_name, idx)] = cfg
        self._warm_up(config, yaml)

    def _warm_up(self, config, yaml):
        for kind_name, _ in WORKLOADS[self.workload]:
            if kind_name not in WARMUPS:
                continue
            kind = KINDS[kind_name]
            raw = {"experiment": kind.experiment, **WARMUPS[kind_name]}
            cfg = config.config_from_dict(raw)
            if kind.sweep:
                path = self.work / f"warmup-{kind_name}.yaml"
                path.write_text(yaml.safe_dump(raw))
                fld = kind.sweep[0]
                value = config.effective_dict(cfg)["params"][fld.split(".")[1]]
                out = self._fresh_dir()
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.cli.main(["sweep", fld, repr(value), "--config", str(path),
                                        "--out", str(out), "--jobs", "1"])
                if rc != 0:
                    raise RuntimeError(f"warm-up sweep {kind_name} exited {rc}")
                shutil.rmtree(out)
            else:
                self.run_experiment(cfg.experiment, cfg.device, cfg.params, cfg.seed)

    def _fresh_dir(self) -> Path:
        self._n_out += 1
        return self.work / f"out-{self._n_out}"

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def run_op(self, kind_name: str, idx: int, rec=None) -> OpResult:
        """Run one op; with a span recorder, also take its serialize bytes."""
        entry = self.pools[kind_name][idx]
        if KINDS[kind_name].sweep:
            return self._run_sweep(kind_name, idx, entry, rec)
        cfg = self.configs[(kind_name, idx)]
        t0 = time.perf_counter()
        try:
            out = self.run_experiment(cfg.experiment, cfg.device, cfg.params, cfg.seed)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            return OpResult(time.perf_counter() - t0, [f"{kind_name}[{idx}]: {exc!r}"])
        seconds = time.perf_counter() - t0
        errs = metric_errors(out.metrics, entry["metrics"])
        return OpResult(seconds, [f"{kind_name}[{idx}]: " + "; ".join(errs)] if errs else [])

    def _run_sweep(self, kind_name: str, idx: int, entry: dict, rec) -> OpResult:
        out = self._fresh_dir()
        argv = ["sweep", entry["field"], repr(entry["value"]),
                "--config", str(self.sweep_files[(kind_name, idx)]),
                "--out", str(out), "--jobs", "1"]
        main = self.cli.main if rec is None else rec.wrap("cli.main", self.cli.main)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
        except Exception as exc:  # a raising sweep is a failed op, not a dead run
            rc, stderr = None, io.StringIO(repr(exc))
        seconds = time.perf_counter() - t0
        tag = f"{kind_name}[{idx}]"
        try:
            status = json.loads(stdout.getvalue().strip().splitlines()[-1]) if rc == 0 else {}
            if rc != 0 or status.get("status") != "ok" or status.get("points") != 1:
                return OpResult(seconds, [f"{tag}: exit {rc}: {stderr.getvalue()[-300:]}"])
            errs = []
            rows = (out / "summary.csv").read_text().splitlines()
            if len(rows) != 2:
                errs.append(f"summary.csv has {len(rows) - 1} rows for one point")
            point = out / "point_000"
            got = json.loads((point / "metrics.json").read_text())
            errs += metric_errors(got, entry["metrics"]) + bundle_errors(point)
            if rec is not None:
                rec.counts["serialize.bytes"] += bundle_bytes(point)
            return OpResult(seconds, [f"{tag}: " + "; ".join(errs)] if errs else [])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return OpResult(seconds, [f"{tag}: unreadable output: {exc!r}"])
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _check_ranges(kind: Kind, entry: dict):
    for p, (lo, hi) in kind.ranges.items():
        if not lo <= entry["params"][p] <= hi:
            raise ValueError(f"{kind.experiment} {p} = {entry['params'][p]} outside [{lo}, {hi}]")


# ---- host speed ------------------------------------------------------------------

# On a shared 2-core host the same op took from 0.50 s to 0.86 s depending on
# the load other tenants put on the cores, in phases lasting minutes, with
# process CPU time rising as much as wall time, so ten runs of one workload
# spread by 32-42 % (quartile distance over median).  A fixed calibration
# kernel timed beside each op slows down with it, so op times are scaled by
# CAL_REF_S over the kernel's time: seconds on a host where the kernel
# takes CAL_REF_S.  Over ten seeds of delay_loop this took the spread of
# op_s_p50 from 42 % to 3 %.  Nothing in the kernel depends on sawlink, so a
# change to the program moves the scaled times as it moves the raw ones.
#
# Contention slows scalar Python far more than dense array work (quartile
# spreads of 59 % and 18 % over 200 s), so each workload's kernel matches the
# work its ops do: scalar calls plus array sums for the delay loop, array
# sums alone for the doubled-space RK45 (with the Python part included,
# cascade_tomo's ops_per_s spread 24 % over ten seeds against 6-9 % unscaled).
# Both kernels take about CAL_REF_S on a quiet 2-core Xeon host.
CAL_REF_S = 0.01
KERNELS = {"cascade_tomo": (0, 30), "delay_loop": (30000, 10)}  # (calls, array rounds)
_CAL_RNG = np.random.default_rng(0)
_CAL_BLOCKS = _CAL_RNG.standard_normal((8, 256, 256))
_CAL_V = _CAL_RNG.standard_normal(256)
# preallocated, so the kernel's time does not depend on the heap the ops
# left behind
_CAL_M = np.empty((256, 256))
_CAL_W = np.empty(256)
_CAL_U = np.empty(256)


def _pulse(t: float, a: float = 0.3, b: float = 2.0) -> float:
    return a * math.exp(-((t - b) ** 2)) if 0.0 < t < 4.0 else 0.0


def _kernel_s(calls: int, rounds: int) -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(calls):
        acc += _pulse(i * 1.5e-4)
    _CAL_W[:] = _CAL_V
    for _ in range(rounds):
        np.sum(_CAL_BLOCKS, axis=0, out=_CAL_M)
        np.dot(_CAL_M, _CAL_W, out=_CAL_U)
        np.divide(_CAL_U, np.linalg.norm(_CAL_U), out=_CAL_W)
    return time.perf_counter() - t0


def calibrate(workload: str, samples: int = 3) -> float:
    """Median seconds of the workload's fixed kernel, made of the two kinds
    of work sawlink's ops do: scalar Python calls, and sums and products of
    256x256 arrays.  The first run after an op is up to three times slower
    while caches refill, so one timing alone would measure the op's
    footprint."""
    return sorted(_kernel_s(*KERNELS[workload]) for _ in range(samples))[samples // 2]


def host_scale(workload: str) -> float:
    """CAL_REF_S over the workload's kernel time now."""
    return CAL_REF_S / calibrate(workload, 5)


# ---- the two kinds of run -----------------------------------------------------------


def settle():
    """Between ops, outside their timing: collect garbage and hand freed
    heap back to the OS, so an op's peak memory does not depend on which
    ops ran before it."""
    gc.collect()
    with contextlib.suppress(AttributeError, OSError):  # malloc_trim is glibc's
        ctypes.CDLL(None).malloc_trim(0)


def timed_run(ctx: Context, seed: int, seconds: float) -> dict:
    """Whole rounds, untraced, until at least ``seconds`` have passed.

    Each op's seconds are scaled to the reference host speed by the mean of
    the calibration kernel timed just before and just after it.
    """
    samples, raw, failures, rates = [], [], [], []
    t0 = time.perf_counter()
    before = calibrate(ctx.workload)
    index = 0
    while True:
        busy, ok = 0.0, 0
        for kind, idx in round_ops(ctx.workload, seed, index, ctx.pools):
            r = ctx.run_op(kind, idx)
            settle()
            after = calibrate(ctx.workload)
            scaled = r.seconds * 2.0 * CAL_REF_S / (before + after)
            before = after
            samples.append(scaled)
            raw.append(r.seconds)
            busy += scaled
            ok += not r.failures
            failures += r.failures
        rates.append(ok / busy)
        index += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return {"samples": samples, "raw_samples": raw, "round_rates": rates,
            "attempted": len(samples), "failed": len(failures), "failures": failures,
            "wall_s": time.perf_counter() - t0}


def one_per_kind(ops: list[tuple[str, int]], skip=()) -> list[tuple[str, int]]:
    """The first op of each kind in ``ops``, leaving out the kinds in ``skip``."""
    seen = set(skip)
    out = []
    for kind, idx in ops:
        if kind not in seen:
            seen.add(kind)
            out.append((kind, idx))
    return out


def traced_run(ctx: Context, seed: int, ops=None, spans_path: Path | None = None) -> dict:
    """Each op once untraced and once traced; by default the first op of
    each kind in round 0 of ``seed``, so that the traced run fits its time
    limit.

    The order of the two passes alternates from op to op; the sum of
    traced minus untraced op seconds is the tracing overhead.  With
    ``spans_path``, the recorded spans are written there at the end.
    """
    import spans

    if ops is None:
        ops = one_per_kind(round_ops(ctx.workload, seed, 0, ctx.pools))
    rec = spans.Recorder()
    plain = [0.0] * len(ops)
    traced_s = 0.0
    failures, attempted = [], 0
    for i, (kind, idx) in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                rec.op_id = i
                with spans.Instrumented(rec):
                    r = ctx.run_op(kind, idx, rec)
                traced_s += r.seconds
            else:
                r = ctx.run_op(kind, idx)
                plain[i] = r.seconds
            settle()
            attempted += 1
            failures += r.failures
    if spans_path is not None:
        rec.save(spans_path)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "layers": spans.layer_metrics(rec, plain, traced_s - sum(plain)),
        "untraced_s": sum(plain),
        "traced_s": traced_s,
    }


def summarize(samples: list[float]) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n < MIN_SAMPLES:
        raise ValueError(f"{n} op samples: a tail needs at least {MIN_SAMPLES}")
    return {"n": n, "p50": float(np.median(xs)), "tail": xs[n - 11],
            "tail_pct": 100.0 * (n - 10) / n}
