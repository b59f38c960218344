"""In-memory span recorder and the per-layer metrics derived from it.

The recorder wraps sawlink's public entry points at the attribute each
caller looks up (``cascade.evolve_generator``, ``dynamics.solve_ivp``,
``cli.write_bundle``, ``ControlSchedule.kappa``, ...), so nothing in
``src/`` is edited.  Each call becomes one span: name, start, end,
parent span and op id, appended to flat arrays that stay in memory
until the run ends and are then written out (``Recorder.save``).  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# generator spaces by vectorized dimension: the two-qubit stage and the
# Bell idle ageing act on 4x4 density matrices, the cascade's doubled
# space on 16x16; anything else is the multimode ladder
SPACE_BY_VEC_DIM = {16: "two_qubit", 256: "doubled"}
SPACES = ("two_qubit", "doubled", "ladder")

RUNNERS = (
    "ping_pong", "multi_transit", "interference", "swap", "double_swap",
    "bell", "spectroscopy", "vacuum_rabi", "saw_response", "tomo_roundtrip",
)

# counts that are a pure function of the inputs; two traced runs of one
# seed must agree on them exactly
EXACT_COUNTS = (
    "dynamics.nfev.two_qubit",
    "dynamics.nfev.doubled",
    "dynamics.nfev.ladder",
    "ioshape.steps",
    "ioshape.row_steps",
    "qcore.QuantumState.calls",
    "cascade.run_cascade.calls",
    "serialize.write_bundle.calls",
    "serialize.bytes",
)


class Recorder:
    """Spans in flat arrays plus the counters hooks add at span exit."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(rec, args, kwargs,
        result, seconds)`` runs once the span has closed."""
        nid = self.intern(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result, ends[i] - starts[i])
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path):
        """Write the spans as arrays of one ``.npz`` file; ``name`` indexes
        ``names`` and ``parent`` indexes the spans (-1 for none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start=np.asarray(self.start), end=np.asarray(self.end))


# ---- hooks: counters taken at the boundary where the work happens -----------


def _after_solve(rec, args, kwargs, sol, seconds):
    y0 = args[2] if len(args) > 2 else kwargs["y0"]
    space = SPACE_BY_VEC_DIM.get(len(y0), "ladder")
    rec.counts[f"dynamics.nfev.{space}"] += sol.nfev
    rec.counts[f"dynamics.solve_s.{space}"] += seconds


def _loop_steps(window, tau: float, dt: float) -> int:
    """Fixed RK4 steps of one delay-loop pass: h = tau / ceil(tau / 0.25)."""
    h = tau / max(math.ceil(tau / min(dt, 0.25)), 1)
    return math.ceil((window[1] - window[0]) / h - 1e-9)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _after_simulate_io(fn):
    def after(rec, args, kwargs, result, seconds):
        a = _bound(fn, args, kwargs)
        steps = _loop_steps(a["schedule"].window, a["ch"].tau, a["dt"])
        rec.counts["ioshape.steps"] += steps
        rec.counts["ioshape.row_steps"] += steps

    return after


def _after_interference(fn):
    def after(rec, args, kwargs, result, seconds):
        a = _bound(fn, args, kwargs)
        tau = a["ch"].tau
        steps = _loop_steps((0.0, tau + a["window"]), tau, a["dt"])
        noise = a["noise"]
        if noise is None or noise.sigma_phi == 0.0:
            chunks, rows = 1, 1
        else:
            rows = noise.n_realizations
            chunks = math.ceil(rows / a["chunk"])
        rec.counts["ioshape.steps"] += steps * chunks
        rec.counts["ioshape.row_steps"] += steps * rows

    return after


# ---- instrumentation -----------------------------------------------------------

# (module, attribute the caller looks up, span name)
MODULE_TARGETS = (
    ("sawlink.experiments", "run_cascade", "cascade.run_cascade"),
    ("sawlink.experiments", "evolve_generator", "dynamics.evolve_generator"),
    ("sawlink.experiments", "simulate_io", "ioshape.simulate_io"),
    ("sawlink.experiments", "interference_experiment", "ioshape.interference_experiment"),
    ("sawlink.experiments", "partial_trace", "qcore.partial_trace"),
    ("sawlink.cascade", "run_cascade", "cascade.run_cascade"),
    ("sawlink.cascade", "evolve_generator", "dynamics.evolve_generator"),
    ("sawlink.cascade", "stage1_liouvillian", "cascade.stage1_liouvillian"),
    ("sawlink.cascade", "stage2_liouvillian", "cascade.stage2_liouvillian"),
    ("sawlink.cascade", "partial_trace", "qcore.partial_trace"),
    ("sawlink.dynamics", "evolve_generator", "dynamics.evolve_generator"),
    ("sawlink.dynamics", "solve_ivp", "dynamics.solve_ivp"),
    ("sawlink.ioshape", "realization_phases", "dynamics.realization_phases"),
    ("sawlink.tomo", "process_from_states", "tomo.process_from_states"),
    ("sawlink.tomo", "state_tomo", "tomo.state_tomo"),
    ("sawlink.multimode", "spectrum", "multimode.spectrum"),
    ("sawlink.multimode", "laguerre_amplitude", "multimode.laguerre_amplitude"),
    ("sawlink.multimode", "revival_onset", "multimode.revival_onset"),
    ("sawlink.sawphys", "idt_rate_spectrum", "sawphys.idt_rate_spectrum"),
    ("sawlink.sawphys", "mirror_stopband", "sawphys.mirror_stopband"),
    ("sawlink.sawphys", "stopband_width_mhz", "sawphys.stopband_width_mhz"),
    ("sawlink.sawphys", "transit_time", "sawphys.transit_time"),
    ("sawlink.sawphys", "fsr_mhz", "sawphys.fsr_mhz"),
    ("sawlink.sawphys", "loss_budget", "sawphys.loss_budget"),
    ("sawlink.config", "config_from_dict", "config.config_from_dict"),
    ("sawlink.cli", "load_config", "config.load_config"),
    ("sawlink.cli", "write_bundle", "serialize.write_bundle"),
    ("sawlink.cli", "cmd_sweep", "cli.sweep"),
)

HOOKS = {
    "dynamics.solve_ivp": lambda fn: _after_solve,
    "ioshape.simulate_io": _after_simulate_io,
    "ioshape.interference_experiment": _after_interference,
}


class Instrumented:
    """Context manager that installs a recorder's wrappers and restores
    every replaced attribute on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.missing: list[str] = []
        self._undo: list = []

    def _patch(self, owner, attr: str, span: str):
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        hook = HOOKS.get(span)
        setattr(owner, attr, self.rec.wrap(span, fn, hook(fn) if hook else None))
        self._undo.append((owner, attr, fn))

    def __enter__(self):
        for module, attr, span in MODULE_TARGETS:
            self._patch(importlib.import_module(module), attr, span)
        ioshape = importlib.import_module("sawlink.ioshape")
        qcore = importlib.import_module("sawlink.qcore")
        self._patch(ioshape.ControlSchedule, "kappa", "ioshape.kappa")
        # the dataclass __init__ looks up __post_init__ on the class
        self._patch(qcore.QuantumState, "__post_init__", "qcore.QuantumState")
        registry = importlib.import_module("sawlink.experiments").EXPERIMENTS
        for name in RUNNERS:
            spec = registry.get(name)
            if spec is None:
                self.missing.append(f"EXPERIMENTS[{name!r}]")
                continue
            wrapped = self.rec.wrap(f"experiments.{name}", spec.runner)
            registry[name] = dataclasses.replace(spec, runner=wrapped)
            self._undo.append((registry, name, spec))
        if self.missing:
            print("trace: not instrumented: " + ", ".join(self.missing), file=sys.stderr)
        return self.rec

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        return False


# ---- derivation ----------------------------------------------------------------


def _per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"experiments.{n}.s", "s") for n in RUNNERS]
    out += [
        ("cascade.run_cascade.calls", "count"),
        ("cascade.run_cascade.s", "s"),
        ("cascade.stage1.s", "s"),
        ("cascade.stage2.s", "s"),
        ("cascade.splice.s", "s"),
        ("dynamics.evolve_generator.calls", "count"),
        ("dynamics.evolve_generator.s", "s"),
        ("dynamics.solve.segments", "count"),
    ]
    out += [(f"dynamics.nfev.{s}", "count") for s in SPACES]
    out += [(f"dynamics.rhs_us.{s}", "us") for s in SPACES]
    out += [
        ("dynamics.post.s", "s"),
        ("dynamics.realization_phases.calls", "count"),
        ("dynamics.realization_phases.s", "s"),
        ("qcore.QuantumState.calls", "count"),
        ("qcore.QuantumState.s", "s"),
        ("qcore.partial_trace.calls", "count"),
        ("qcore.partial_trace.s", "s"),
        ("ioshape.simulate_io.calls", "count"),
        ("ioshape.simulate_io.s", "s"),
        ("ioshape.interference_experiment.calls", "count"),
        ("ioshape.interference_experiment.s", "s"),
        ("ioshape.steps", "count"),
        ("ioshape.row_steps", "count"),
        ("ioshape.step_us", "us"),
        ("ioshape.kappa.calls", "count"),
        ("ioshape.kappa.s", "s"),
        ("tomo.process_from_states.calls", "count"),
        ("tomo.process_from_states.s", "s"),
        ("tomo.state_tomo.calls", "count"),
        ("tomo.state_tomo.s", "s"),
        ("multimode.spectrum.s", "s"),
        ("multimode.laguerre_amplitude.s", "s"),
        ("multimode.revival_onset.s", "s"),
        ("sawphys.s", "s"),
        ("config.config_from_dict.calls", "count"),
        ("config.config_from_dict.s", "s"),
        ("config.load_config.s", "s"),
        ("serialize.write_bundle.calls", "count"),
        ("serialize.write_bundle.s", "s"),
        ("serialize.bytes", "bytes"),
        ("cli.sweep.s", "s"),
        ("cli.overhead.s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


PER_LAYER = _per_layer_names()


def layer_metrics(rec: Recorder, untraced_op_s: list[float],
                  overhead_s: float) -> dict[str, float]:
    """Reduce the recorded spans to the per-layer metrics.

    ``untraced_op_s[i]`` is the seconds op ``i`` took in its untraced pass.
    """
    n = len(rec)
    name = np.frombuffer(rec.name, dtype=np.int32) if n else np.zeros(0, np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32) if n else np.zeros(0, np.int32)
    start = np.frombuffer(rec.start) if n else np.zeros(0)
    dur = (np.frombuffer(rec.end) - start) if n else np.zeros(0)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_s = dur - child[:n]
    k = max(len(rec.names), 1)
    calls = np.bincount(name, minlength=k)
    self_by = np.bincount(name, weights=self_s, minlength=k)
    incl_by = np.bincount(name, weights=dur, minlength=k)

    def pick(arr, span):
        i = rec._ids.get(span)
        return float(arr[i]) if i is not None else 0.0

    m: dict[str, float] = {}
    for r in RUNNERS:
        m[f"experiments.{r}.s"] = pick(self_by, f"experiments.{r}")
    for span in ("cascade.run_cascade", "dynamics.evolve_generator",
                 "dynamics.realization_phases", "qcore.QuantumState",
                 "qcore.partial_trace", "ioshape.simulate_io",
                 "ioshape.interference_experiment", "ioshape.kappa",
                 "tomo.process_from_states", "tomo.state_tomo",
                 "config.config_from_dict", "serialize.write_bundle"):
        m[f"{span}.calls"] = pick(calls, span)
        m[f"{span}.s"] = pick(self_by, span)

    m.update(_cascade_stages(rec, name, parent, start, dur))

    m["dynamics.solve.segments"] = pick(calls, "dynamics.solve_ivp")
    for s in SPACES:
        nfev = rec.counts.get(f"dynamics.nfev.{s}", 0.0)
        m[f"dynamics.nfev.{s}"] = nfev
        m[f"dynamics.rhs_us.{s}"] = (
            1e6 * rec.counts.get(f"dynamics.solve_s.{s}", 0.0) / nfev if nfev else 0.0
        )
    m["dynamics.post.s"] = pick(incl_by, "dynamics.evolve_generator") - pick(
        incl_by, "dynamics.solve_ivp"
    )

    steps = rec.counts.get("ioshape.steps", 0.0)
    m["ioshape.steps"] = steps
    m["ioshape.row_steps"] = rec.counts.get("ioshape.row_steps", 0.0)
    # The traced loop time would carry the wrapper cost of every scalar
    # kappa lookup, so a step is timed from the untraced pass instead: the
    # whole seconds of the ops that ran the loop, less their noise draws.
    loop_ids = [rec._ids[s] for s in ("ioshape.simulate_io",
                                      "ioshape.interference_experiment") if s in rec._ids]
    op = np.frombuffer(rec.op, dtype=np.int32) if n else np.zeros(0, np.int32)
    loop_ops = np.unique(op[np.isin(name, loop_ids)])
    loop_s = sum(untraced_op_s[i] for i in loop_ops) - pick(
        incl_by, "dynamics.realization_phases"
    )
    m["ioshape.step_us"] = 1e6 * loop_s / steps if steps else 0.0

    for span in ("multimode.spectrum", "multimode.laguerre_amplitude",
                 "multimode.revival_onset"):
        m[f"{span}.s"] = pick(self_by, span)
    m["sawphys.s"] = sum(
        float(self_by[i]) for i, nm in enumerate(rec.names) if nm.startswith("sawphys.")
    )
    m["config.load_config.s"] = pick(self_by, "config.load_config")
    m["serialize.bytes"] = rec.counts.get("serialize.bytes", 0.0)
    m["cli.sweep.s"] = pick(self_by, "cli.sweep")
    m["cli.overhead.s"] = pick(self_by, "cli.main")
    m["trace.spans"] = float(n)
    m["trace.overhead_s"] = overhead_s
    return {key: m[key] for key, _ in PER_LAYER}


def _cascade_stages(rec, name, parent, start, dur) -> dict[str, float]:
    """Stage 1 is the two-qubit generator build plus its integration, stage 2
    the doubled ones; the splice is the gap between them."""
    out = {"cascade.stage1.s": 0.0, "cascade.stage2.s": 0.0, "cascade.splice.s": 0.0}
    rc = rec._ids.get("cascade.run_cascade")
    if rc is None:
        return out
    ids = {rec._ids.get(s) for s in ("cascade.stage1_liouvillian",
                                     "cascade.stage2_liouvillian",
                                     "dynamics.evolve_generator")}
    kids = np.flatnonzero((name[parent] == rc) & (parent >= 0) & np.isin(name, list(ids - {None})))
    by_call = defaultdict(list)
    for i in kids:
        by_call[int(parent[i])].append(int(i))
    s1l = rec._ids.get("cascade.stage1_liouvillian")
    s2l = rec._ids.get("cascade.stage2_liouvillian")
    for children in by_call.values():
        evolves = [i for i in children if name[i] not in (s1l, s2l)]
        builds = {int(name[i]): i for i in children if name[i] in (s1l, s2l)}
        if evolves:
            out["cascade.stage1.s"] += float(dur[evolves[0]])
        if s1l in builds:
            out["cascade.stage1.s"] += float(dur[builds[s1l]])
        if len(evolves) > 1:
            out["cascade.stage2.s"] += float(dur[evolves[1]])
        if s2l in builds:
            i2 = builds[s2l]
            out["cascade.stage2.s"] += float(dur[i2])
            if evolves:
                out["cascade.splice.s"] += float(start[i2] - (start[evolves[0]] + dur[evolves[0]]))
    return out
