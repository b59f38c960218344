"""Accuracy ledger: how far a default metric lies from its converged value.

The benchmark's references are the code's own outputs, so they pin a
metric without saying how accurate it is.  Each row here takes the
converged value from an independent route and asserts that the default
run lies within a stated budget of it.  A budget starts at about twice
the error measured when its row was added, and says where that error
comes from; a change that makes a route more accurate tightens its row.
"""

import numpy as np
from hinge_oracle import global_minimum, run_vacuum_rabi_fit
from transit_oracle import per_transit_amplitudes

from sawlink.device import default_device
from sawlink.experiments import EXPERIMENTS, run_experiment
from sawlink.ioshape import simulate_io, transfer_schedule

DEV = default_device()
FINE_DT = 1 / 64  # the delay loop converges at first order: its error at 1/64 is 1/16 of 0.25's


def run(name):
    return run_experiment(name, DEV, EXPERIMENTS[name].defaults, 1234)


def test_ping_pong_efficiency_against_a_fine_step():
    # Source: the delay loop reads each hard segment edge at a step node and
    # so converges at first order in dt; at the default 0.25 ns step
    # capture_efficiency is 4.2e-8 from its converged value (3.9e-8 from
    # the run at dt 1/64).  Budget 8.4e-8.
    p = EXPERIMENTS["ping_pong"].defaults
    ch = DEV.channel(p["eta"])
    schedule = transfer_schedule(p["kappa_c"], p["window_ns"], ch.tau, 1, 1)
    converged = abs(simulate_io(schedule, ch, s0=(1.0, 0.0), dt=FINE_DT).s1[-1]) ** 2
    assert abs(run("ping_pong").metrics["capture_efficiency"] - converged) <= 8.4e-8


def test_multi_transit_efficiencies_against_a_fine_step():
    # Source: the same first-order edge error as ping_pong's, at each
    # transit's capture; at the default step the efficiencies lie up to
    # 1.3e-7 from one loop run per transit count at dt 1/64 (1.25e-7, at
    # the second transit).  Budget 2.6e-7.
    p = EXPERIMENTS["multi_transit"].defaults
    converged = np.abs(per_transit_amplitudes(DEV.channel(p["eta"]), p["kappa_c"],
                                              p["window_ns"], p["max_transits"],
                                              dt=FINE_DT)) ** 2
    efficiency = run("multi_transit").series["transits"]["efficiency"]
    assert np.max(np.abs(efficiency - converged)) <= 2.6e-7


def test_vacuum_rabi_onset_against_the_global_hinge_fit(monkeypatch):
    # Source: the revival fit keeps the local optimum the Levenberg-Marquardt
    # fit found (507.579 ns at the defaults), on purpose, while a dense
    # profile scan of the same window finds the global optimum at 507.185 ns,
    # 0.39 ns lower.  Budget 0.8 ns; a fit that finds the global optimum
    # brings the error to the scan's own, and tightens this row.
    fits = []
    onset = run_vacuum_rabi_fit(monkeypatch, fits)
    ((t, d, _),) = fits
    assert abs(onset - global_minimum(t, d)) <= 0.8
