"""Checks of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

The exact-count tests trace real ops and take about two minutes.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

# counts each workload must drive, and counts of layers it bypasses
DRIVES = {
    "cascade_tomo": ("dynamics.nfev.two_qubit", "dynamics.nfev.doubled",
                     "dynamics.nfev.ladder", "cascade.run_cascade.calls",
                     "qcore.QuantumState.calls", "serialize.write_bundle.calls",
                     "serialize.bytes"),
    "delay_loop": ("ioshape.steps", "ioshape.row_steps"),
}
BYPASSES = {
    "cascade_tomo": ("ioshape.steps", "ioshape.row_steps"),
    "delay_loop": ("dynamics.nfev.two_qubit", "dynamics.nfev.doubled",
                   "dynamics.nfev.ladder", "qcore.QuantumState.calls",
                   "cascade.run_cascade.calls", "serialize.write_bundle.calls"),
}


def test_rounds_are_seeded_and_hold_the_mix():
    pools = workloads.draw_pool()
    for workload, mix in workloads.WORKLOADS.items():
        first = workloads.round_ops(workload, 3, 0, pools)
        assert first == workloads.round_ops(workload, 3, 0, pools)
        assert first != workloads.round_ops(workload, 4, 0, pools)
        assert Counter(kind for kind, _ in first) == dict(mix)
        assert len(first) >= workloads.MIN_SAMPLES


def test_tail_has_ten_samples_beyond():
    stats = workloads.summarize([float(i) for i in range(40)])
    assert stats["tail"] == 29.0 and stats["p50"] == 19.5 and stats["tail_pct"] == 75.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(workload):
    """Two traced runs of one seed agree on every deterministic count.

    One op of each kind is traced; double_swap (35 s) is left out, and
    swap drives the same doubled-space counts.
    """
    ctx = workloads.Context(workload, HERE.parent)
    try:
        ops = workloads.one_per_kind(workloads.round_ops(workload, 5, 0, ctx.pools),
                                     skip={"double_swap"})
        runs = [workloads.traced_run(ctx, 5, ops) for _ in range(2)]
    finally:
        ctx.close()
    assert all(r["failed"] == 0 for r in runs), runs[0]["failures"]
    first, second = ({k: r["layers"][k] for k in spans.EXACT_COUNTS} for r in runs)
    assert first == second
    assert all(first[k] > 0 for k in DRIVES[workload])
    assert all(first[k] == 0 for k in BYPASSES[workload])
