"""Accuracy ledger: how far a default metric lies from its converged value.

The benchmark's references are the code's own outputs, so they pin a
metric without saying how accurate it is.  Each row here takes the
converged value from an independent route and asserts that the default
run lies within a stated budget of it.  A budget starts at about twice
the error measured when its row was added, and says where that error
comes from; a change that makes a route more accurate tightens its row.
"""

from fractions import Fraction

import numpy as np
import pytest
from hinge_oracle import global_minimum, run_vacuum_rabi_fit
from scipy.optimize import brentq
from transit_oracle import per_transit_amplitudes

from sawlink.device import default_device
from sawlink.experiments import EXPERIMENTS, run_experiment
from sawlink.ioshape import (
    _grid,
    _integrate,
    interference_schedules,
    simulate_io,
    transfer_schedule,
)

DEV = default_device()
FINE_DT = 1 / 64  # the delay loop converges at first order: its error at 1/64 is 1/16 of 0.25's
EPS = np.finfo(float).eps


def run(name, **over):
    return run_experiment(name, DEV, {**EXPERIMENTS[name].defaults, **over}, 1234)


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


@pytest.mark.parametrize("name, budgets", [
    ("swap", {"process_fidelity": 4e-9}),
    ("double_swap", {"process_fidelity": 5e-9}),
    ("bell", {"bell_fidelity": 5e-9, "concurrence": 8.2e-9}),
])
def test_cascade_metrics_against_a_tight_tolerance(name, budgets):
    # Source: the cascade's adaptive Runge-Kutta solves at the default tol
    # 1e-8; against reruns at tol 1e-12 swap's process_fidelity lies
    # 1.97e-9 off, double_swap's 2.49e-9, bell's bell_fidelity 2.45e-9 and
    # its concurrence 4.07e-9.  Budgets 4e-9, 5e-9, 5e-9 and 8.2e-9.
    default, converged = run(name).metrics, run(name, tol=1e-12).metrics
    for key, budget in budgets.items():
        assert abs(default[key] - converged[key]) <= budget


def test_interference_fringe_against_the_gaussian_average():
    # Source: the fringe averages 1024 seeded draws of the Gaussian phase
    # and reads the phase pulse's hard edges on the 0.25 ns step.  The
    # converged fringe takes the n + 1 root-of-unity rows at dt 1/64 and
    # averages |sum_m c_m z^m|^2 over the Gaussian in closed form,
    # sum_{m, m'} c_m conj(c_m') e^{-sigma^2 (m - m')^2 / 2} (Kubo, J. Phys.
    # Soc. Jpn. 17, 1100 (1962)).  The default fringe lies up to 4.96e-3
    # from it: the draws alone give 3.76e-3 and the step alone 2.84e-3.
    # Budget 9.9e-3.
    p = EXPERIMENTS["interference"].defaults
    out = run("interference")
    ch, sigma = DEV.channel(p["eta"]), out.metrics["sigma_phi"]
    schedule, pulses = interference_schedules(out.series["fringe"]["delta_phi_rad"], ch,
                                              p["kappa_c"], p["window_ns"])
    n_sub, _, n_steps = _grid(schedule, ch.tau, FINE_DT)
    m = np.arange(n_steps // n_sub + 1)
    spread = np.exp(-0.5 * sigma**2 * np.subtract.outer(m, m) ** 2)
    converged = []
    for pulse in pulses:
        rows = np.tile([1.0 + 0j, 0.0], (len(m), 1))
        s1 = _integrate(schedule, ch, rows, FINE_DT, extra_phases=2 * np.pi * m / len(m),
                        pulse=pulse)[1][:, -1, 0]
        c = np.fft.fft(s1) / len(m)
        converged.append((c @ spread @ c.conj()).real)
    assert np.max(np.abs(out.series["fringe"]["p_e"] - converged)) <= 9.9e-3


def test_spectroscopy_gap_against_the_secular_equation():
    # Source: rounding in the batched eigensolve.  With the qubit at offset
    # e the arrow matrix's levels solve E - e = sum_j g^2 / (E - Delta_j);
    # the central gap is the root just above the qubit line less the one
    # just below, each bracketed by its neighbouring modes and found by
    # bisection to a few ulps.  The gap lies 8.9e-16 from it.  Budget 1.8e-15.
    out = run("spectroscopy")
    p = EXPERIMENTS["spectroscopy"].defaults
    offsets = np.linspace(-p["span_mhz"] / 2, p["span_mhz"] / 2, p["points"])
    e = offsets[np.argmin(np.abs(offsets))]
    g, fsr = DEV.q1.g_mhz, out.metrics["fsr_mhz"]
    modes = (np.arange(p["n_modes"]) - (p["n_modes"] - 1) // 2) * fsr

    def secular(E):
        return E - e - np.sum(g**2 / (E - modes))

    # one mode sits on the qubit line at e = 0, with its neighbours fsr away
    roots = [brentq(secular, lo, hi, xtol=1e-15, rtol=4 * EPS)
             for lo, hi in ((1e-12, fsr - 1e-12), (-fsr + 1e-12, -1e-12))]
    assert abs(out.metrics["central_gap_mhz"] - (roots[0] - roots[1])) <= 1.8e-15


def test_saw_response_against_exact_arithmetic():
    # Source: rounding alone; these figures are rational in the geometry's
    # floats, so exact rational arithmetic on those floats gives their
    # converged values.  The largest relative error, t1_saw_us's, is
    # 0.40 eps.  Budget 0.8 eps.
    g = DEV.geometry
    tau = Fraction(g.eff_mirror_distance_um) / Fraction(g.free.speed_km_s) + Fraction(
        g.penetration_delay_ns)
    f0 = Fraction(g.idt.speed_km_s) / Fraction(g.idt.pitch_um)
    exact = {
        "tau_ns": tau,
        "fsr_mhz": 1000 / tau,
        "t1_saw_us": 10**6 / (2 * Fraction(g.free.loss_np_m) * Fraction(g.free.speed_km_s) * 1000),
        "idt_center_ghz": f0,
        "idt_first_null_ghz": f0 * (1 + Fraction(1, g.idt.cells)),
    }
    metrics = run("saw_response").metrics
    for key, value in exact.items():
        assert abs(Fraction(metrics[key]) - value) / value <= Fraction(0.8 * EPS)


def test_tomo_roundtrip_errors_are_rounding():
    # Source: rounding alone; the tomography data are exact expectation
    # values, so every reconstruction converges to its state and each
    # metric, an error, to 0.  Measured 4.1, 5.1, 2.8 and 1.5 eps.
    # Budgets twice those.
    budgets = {"max_exact_error": 8.2, "max_corrected_error": 10.3,
               "max_process_error": 5.6, "werner_concurrence_error": 3.0}
    metrics = run("tomo_roundtrip").metrics
    for key, budget in budgets.items():
        assert metrics[key] <= budget * EPS
