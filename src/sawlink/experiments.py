"""Experiment runners, one per measured protocol, each a plan and an execution.

``plan_<name>(device, params, seed)`` builds the run's numpy-side inputs
(channel, schedules, noise, grids, mode ladder) from the typed params
through the owner of each rule; ``config_from_dict`` runs it, so a bad
parameter fails where the config is built.  ``run_<name>`` is the plan
and then the execution, a pure function of (device, params, seed) giving
metrics, series and matrices; only failures that depend on the result
stay at run time.  Published hardware values sit beside the model
output under ``reference_`` metric keys.  Swap, double_swap and bell
import the Lindblad side (``cascade``, ``dynamics``, scipy) when they run;
the other runners, vacuum_rabi's revival fit among them, and every plan
need numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import multimode, sawphys, tomo
from .device import DeviceParams
from .errors import ValidationError
from .ioshape import (
    ControlSchedule,
    NoiseSpec,
    Segment,
    check_loop_memory,
    interference_experiment,
    interference_schedules,
    recapture_with_leftover,
    simulate_io,
    time_reverse,
    transfer_schedule,
)
from .qcore import QuantumState, check_grid, check_tol, partial_trace

# The cross-damping transfer imprints a pi phase on the moved amplitude;
# the hardware absorbs it by redefining the receiving qubit's frame, and
# the runners do the same with a fixed Z on each receiving qubit.
Z_FRAME = np.diag([1.0, -1.0]).astype(complex)
SWAP_GATE = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
# |Psi+> = (|ge> + |eg>) / sqrt(2), the Bell pair the runners score against
_PSI = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
PSI_PLUS = np.outer(_PSI, _PSI)
QUBIT_BASIS_2Q = ("gg", "ge", "eg", "ee")


@dataclass(frozen=True)
class ExperimentOutput:
    metrics: dict[str, float]
    series: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    matrices: dict[str, tuple[np.ndarray, tuple[str, ...]]] = field(default_factory=dict)


def _integer(params: dict, key: str, least: int = 1, most: float = np.inf) -> int:
    n = params[key]
    if not least <= n <= most:
        raise ValidationError(f"{key} = {n} is outside [{least}, {most}]")
    return n


def plan_ping_pong(device: DeviceParams, params: dict, seed: int):
    """The channel and the release-recapture schedule on qubit 1."""
    ch = device.channel(params["eta"])
    sched = transfer_schedule(params["kappa_c"], params["window_ns"], ch.tau, 1, 1)
    check_loop_memory(sched, ch)
    return ch, sched


def run_ping_pong(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Release a full phonon and recapture it with the same qubit."""
    ch, sched = plan_ping_pong(device, params, seed)
    trace = simulate_io(sched, ch, s0=(1.0, 0.0))
    p1 = trace.p1
    efficiency = float(p1[-1] / p1[0])
    return ExperimentOutput(
        metrics={
            "capture_efficiency": efficiency,
            "eta_used": ch.eta,
            "reference_efficiency": 0.67,
        },
        series={
            "populations": {
                "t_ns": trace.times,
                "p_e": p1,
                "emitted_power": np.abs(trace.a_out) ** 2,
            }
        },
    )


def plan_multi_transit(device: DeviceParams, params: dict, seed: int):
    """ping_pong's channel and schedule, and the transit counts 1..max_transits."""
    ch, sched = plan_ping_pong(device, params, seed)
    return ch, sched, np.arange(1, _integer(params, "max_transits") + 1, dtype=float)


def run_multi_transit(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Capture after n full transits; efficiency decays geometrically.

    The loop is linear, and between release and capture the uncoupled qubit
    keeps its leftover amplitude and sends the field back with a sign flip
    (a_out = -a_in).  Each extra transit multiplies the returning packet by
    z = -sqrt(eta) e^{i phase}, so s(n) = a + (s(1) - a) z^(n - 1), a being
    the capture alone acting on the leftover; this holds for a window w < tau.
    One loop pass of ping_pong's transfer gives s(1), and a follows from
    that pass's own step maps (``recapture_with_leftover``).
    The geometric fit takes transit 1 and the transits whose packet term
    |(s(1) - a) z^(n - 1)| exceeds the leftover |a|: past them the
    efficiency sits on the floor |a|^2, which no power of eta describes.
    """
    ch, sched, ns = plan_multi_transit(device, params, seed)
    s1, a = recapture_with_leftover(sched, ch)
    zn = (-np.sqrt(ch.eta)) ** (ns - 1) * np.exp(1j * ch.phase * (ns - 1))
    effs_arr = np.abs(zn * s1 + (1 - zn) * a) ** 2  # s(1) to the bit at n = 1
    # one-parameter geometric fit in log space, down to the leftover's floor
    fit = (ns == 1) | (np.abs((s1 - a) * zn) > abs(a))
    n, effs = ns[fit], effs_arr[fit]
    eta_fit = float(np.exp(np.sum(n * np.log(effs)) / np.sum(n**2)))
    ss_res = float(np.sum((effs - eta_fit**n) ** 2))
    ss_tot = float(np.sum((effs - effs.mean()) ** 2))
    powers = ch.eta**ns
    return ExperimentOutput(
        metrics={
            "eta_used": ch.eta,
            "eta_fit": eta_fit,
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
            "max_dev_from_eta_power": float(np.max(np.abs(effs_arr - powers))),
        },
        series={
            "transits": {
                "n": ns,
                "efficiency": effs_arr,
                "eta_power": powers,
            }
        },
    )


def plan_interference(device: DeviceParams, params: dict, seed: int):
    """Fringe phases, channel, phase noise and rows per pass; checks every phase pulse."""
    ch = device.channel(params["eta"])
    # the fringe's harmonic ratio needs rfft bins beyond the fundamental
    phases = np.linspace(0.0, 2 * np.pi, _integer(params, "n_phases", least=5))
    sigma = params["sigma_phi"]
    if sigma is None:
        # Gaussian phase spread accumulated over one emit-wait-capture cycle
        sigma = float(np.sqrt(2 * ch.tau / (device.q1.T2R_us * 1e3)))
    noise = NoiseSpec(sigma_phi=sigma, n_realizations=params["realizations"], master_seed=seed)
    sched, _ = interference_schedules(phases, ch, params["kappa_c"], params["window_ns"])
    chunk = _integer(params, "chunk")
    check_loop_memory(sched, ch, rows=chunk)
    return phases, ch, noise, chunk


def run_interference(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Half release, dialed phase, half recapture, averaged over dephasing."""
    phases, ch, noise, chunk = plan_interference(device, params, seed)
    pe = interference_experiment(phases, ch, noise, params["kappa_c"], params["window_ns"],
                                 chunk=chunk)
    # periodicity content from the closed loop (drop the duplicated endpoint)
    spec = np.abs(np.fft.rfft(pe[:-1]))
    fundamental_ratio = float(spec[1] / max(spec[2:].max(), 1e-30))
    i_pi = int(np.argmin(np.abs(phases - np.pi)))
    return ExperimentOutput(
        metrics={
            "p_at_zero": float(pe[0]),
            "p_at_pi": float(pe[i_pi]),
            "visibility": float((pe.max() - pe.min()) / (pe.max() + pe.min())),
            "fundamental_ratio": fundamental_ratio,
            "sigma_phi": noise.sigma_phi,
            "reference_p_at_zero": 0.77,
            "reference_p_at_pi": 0.08,
        },
        series={"fringe": {"delta_phi_rad": phases, "p_e": pe}},
    )


def _chi_output(chi: np.ndarray, ideal: np.ndarray, prefix: str) -> ExperimentOutput:
    basis = tuple(tomo.pauli_basis(1 if chi.shape[0] == 4 else 2))
    return ExperimentOutput(
        metrics={
            f"{prefix}_fidelity": tomo.fidelity(chi, ideal),
            f"{prefix}_hs_distance": tomo.hs_distance(chi, ideal),
        },
        matrices={
            "chi": (chi, basis),
            "chi_ideal": (ideal, basis),
        },
    )


def plan_swap(device: DeviceParams, params: dict, seed: int):
    """The channel and the transfer schedule from emitter to receiver."""
    ch = device.channel(params["eta"])
    check_tol(params["tol"])
    return ch, transfer_schedule(params["kappa_c"], params["window_ns"], ch.tau,
                                 params["emitter"], params["receiver"])


def run_swap(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Single shaped transfer characterized by process tomography."""
    from .cascade import CascadeConfig, process_tomography_run
    ch, sched = plan_swap(device, params, seed)
    cfg = CascadeConfig(sched, ch, noise=device.noise_pair())
    chi = process_tomography_run(cfg, (params["emitter"],), (params["receiver"],),
                                 ch.tau + params["window_ns"], Z_FRAME, tol=params["tol"])
    out = _chi_output(chi, tomo.chi_ideal(np.eye(2)), "process")
    out.metrics["reference_fidelity"] = 0.83
    return out


def double_swap_schedule(kc: float, w: float, tau: float) -> ControlSchedule:
    """Both qubits emit back to back, then capture each other's phonon.

    Emissions at [0, w] (qubit 2) and [w, 2w] (qubit 1); the packets
    return after one transit and are absorbed in arrival order.  The
    whole exchange fits one [0, tau + 2w] window, inside the model's
    two-interaction validity span for w <= tau / 2; past it, qubit 1's
    release [w, 2w] overlaps its capture [tau, tau + w].
    """
    rel2 = Segment("release", 2, 0.0, w, kc)
    rel1 = Segment("release", 1, w, w, kc)
    cap1 = time_reverse(replace(rel2, qubit=1, t_start=tau))
    cap2 = time_reverse(replace(rel1, qubit=2, t_start=tau + w))
    return ControlSchedule([rel2, rel1, cap1, cap2], window=(0.0, tau + 2 * w))


def plan_double_swap(device: DeviceParams, params: dict, seed: int):
    """The channel and the double-swap schedule."""
    ch = device.channel(params["eta"])
    check_tol(params["tol"])
    return ch, double_swap_schedule(params["kappa_c"], params["window_ns"], ch.tau)


def run_double_swap(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Two counter-directed transfers exchanging the qubit states."""
    from .cascade import CascadeConfig, process_tomography_run
    ch, sched = plan_double_swap(device, params, seed)
    cfg = CascadeConfig(sched, ch, noise=device.noise_pair())
    chi = process_tomography_run(cfg, (1, 2), (2, 1), ch.tau + 2 * params["window_ns"],
                                 np.kron(Z_FRAME, Z_FRAME), tol=params["tol"])
    out = _chi_output(chi, tomo.chi_ideal(SWAP_GATE), "process")
    out.metrics["reference_fidelity"] = 0.63
    return out


def plan_bell(device: DeviceParams, params: dict, seed: int):
    """The channel and the half-release transfer schedule from qubit 1 to 2."""
    ch = device.channel(params["eta"])
    check_tol(params["tol"])
    return ch, transfer_schedule(params["kappa_c"], params["window_ns"], ch.tau, emitter=1,
                                 receiver=2, alpha=params["alpha"])


def run_bell(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Half release on qubit 1, full capture on qubit 2, joint readout.

    The doubled-space construction carries the emitting qubit's copy
    delayed by tau, while the physical joint readout happens at one
    lab instant; the emitter marginal is therefore aged under its idle
    imperfections over tau before scoring.
    """
    from .cascade import CascadeConfig, age_idle, run_cascade, two_qubit_space
    ch, sched = plan_bell(device, params, seed)
    cfg = CascadeConfig(sched, ch, noise=device.noise_pair())
    eg = QuantumState.basis_state(two_qubit_space(), (1, 0))
    t_ro = ch.tau + params["window_ns"]
    doubled = run_cascade(cfg, eg, np.array([0.0, t_ro]), tol=params["tol"]).doubled
    # the (q1e, q2) pair takes the (q1, q2) slots and ages under q1's noise
    pair = partial_trace(doubled.space, doubled.rhos[-1], ["q1e", "q2"])
    frame = np.kron(np.eye(2), Z_FRAME)
    rho = frame @ age_idle(pair, device.q1.noise(), ch.tau) @ frame.conj().T
    metrics = {
        "bell_fidelity": tomo.fidelity(rho, PSI_PLUS),
        "concurrence": tomo.concurrence(rho),
        "reference_bell_fidelity": 0.84,
        "reference_concurrence": 0.61,
    }
    for label, value in tomo.pauli_expectations(rho).items():
        metrics[f"pauli_{label}"] = value
    return ExperimentOutput(
        metrics=metrics,
        matrices={"rho_pair": (rho, QUBIT_BASIS_2Q)},
    )


def plan_spectroscopy(device: DeviceParams, params: dict, seed: int):
    """The qubit, the mode ladder and the qubit offsets (MHz) swept across it."""
    q = device.qubits[_integer(params, "qubit", most=2) - 1]
    p = multimode.MultimodeParams(g=q.g_mhz, n_a=params["n_modes"], fsr=1e3 / device.tau_ns)
    span = params["span_mhz"]
    return q, p, np.linspace(-span / 2, span / 2, _integer(params, "points"))


def run_spectroscopy(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Single-excitation spectrum while the qubit sweeps the mode ladder."""
    q, p, offsets = plan_spectroscopy(device, params, seed)
    eig = multimode.spectrum(p, offsets)
    series = {"offset_mhz": offsets}
    for j in range(eig.shape[1]):
        series[f"eig_{j:02d}_mhz"] = eig[:, j]
    # hybridization gap: the pair of dressed levels straddling the bare
    # qubit line when it sits on the central mode
    center = eig[int(np.argmin(np.abs(offsets)))]
    above = center[center > 0].min()
    below = center[center < 0].max()
    return ExperimentOutput(
        metrics={
            "central_gap_mhz": float(above - below),
            "coupling_mhz": q.g_mhz,
            "fsr_mhz": p.fsr,
        },
        series={"spectrum": series},
    )


def plan_vacuum_rabi(device: DeviceParams, params: dict, seed: int):
    """The qubit, the lossy mode ladder at the reduced coupling and the time grid."""
    q = device.qubits[_integer(params, "qubit", most=2) - 1]
    p = multimode.MultimodeParams(g=params["g_mhz"], n_a=params["n_modes"],
                                  fsr=1e3 / device.tau_ns, kappa_a=1.0 / device.t1_saw_us)
    # a negative point count is the empty grid, which check_grid rejects
    grid = np.linspace(0.0, params["horizon_tau"] * p.tau_ns, max(params["points"], 0))
    check_grid(grid)
    return q, p, grid


def run_vacuum_rabi(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Qubit decay into the ladder with echo revivals, two independent routes.

    The route comparison runs at a reduced coupling by default: the
    analytical series assumes an unbounded flat mode ladder, and at
    the device's full coupling the emission bandwidth exceeds any
    tractable truncated ladder.  The golden-rule figure is always
    quoted at the device coupling.
    """
    q, p, grid = plan_vacuum_rabi(device, params, seed)
    # the qubit excited: the projector onto the sector's last ket
    rho0 = np.zeros((p.n_a + 1, p.n_a + 1), dtype=complex)
    rho0[-1, -1] = 1.0
    pe_lindblad = multimode.decay_population(p, rho0, grid)
    pe_series = np.abs(multimode.laguerre_amplitude(grid, p)) ** 2
    golden = multimode.golden_rule_kappa(q.g_mhz, p.fsr)
    return ExperimentOutput(
        metrics={
            "sup_deviation": float(np.max(np.abs(pe_lindblad - pe_series))),
            "revival_onset_ns": multimode.revival_onset(grid, pe_lindblad),
            "expected_onset_ns": p.tau_ns,
            "golden_rule_inverse_ns": golden.inverse_ns,
        },
        series={
            "decay": {
                "t_ns": grid,
                "p_e_lindblad": pe_lindblad,
                "p_e_series": pe_series,
            }
        },
    )


def plan_saw_response(device: DeviceParams, params: dict, seed: int) -> np.ndarray:
    """The frequency grid (GHz), inside the window the model is fit for."""
    f = np.linspace(params["f_lo_ghz"], params["f_hi_ghz"], _integer(params, "points"))
    sawphys.check_window(f)
    return f


def run_saw_response(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Transducer emission spectrum and mirror reflectance curves."""
    f = plan_saw_response(device, params, seed)
    g = device.geometry
    kappa_max = 1.0 / device.q1.kappa_inv_ns
    budget = sawphys.loss_budget(g, g.band_center_ghz)
    return ExperimentOutput(
        metrics={
            "idt_center_ghz": g.idt_center_ghz,
            "idt_first_null_ghz": g.idt_center_ghz * (1 + 1 / g.idt.cells),
            "stopband_width_mhz": sawphys.stopband_width_mhz(g),
            "tau_ns": sawphys.transit_time(g),
            "fsr_mhz": sawphys.fsr_mhz(g),
            "t1_saw_us": budget.t1_saw_us,
            "q_factor": budget.q_factor,
            "eta_bound": multimode.efficiency_bound(device.tau_ns, device.t1_saw_us),
        },
        series={
            "response": {
                "f_ghz": f,
                "kappa_ns": sawphys.idt_rate_spectrum(f, g, kappa_max),
                "mirror_reflectance": sawphys.mirror_stopband(f, g),
            }
        },
    )


def plan_tomo_roundtrip(device: DeviceParams, params: dict, seed: int):
    """The state count and the readout model; a Werner mixture needs p in [0, 1]."""
    if not 0 <= params["werner_p"] <= 1:
        raise ValidationError(f"werner_p = {params['werner_p']} is outside [0, 1]")
    return _integer(params, "n_states"), device.readout()


def run_tomo_roundtrip(device: DeviceParams, params: dict, seed: int) -> ExperimentOutput:
    """Reconstruction fidelity audit on random states, exact and corrected."""
    n_states, readout = plan_tomo_roundtrip(device, params, seed)
    p_werner = params["werner_p"]
    rng = np.random.default_rng(seed)
    rhos = []
    for _ in range(n_states):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rhos.append(rho / np.trace(rho).real)
    rhos = np.array(rhos)
    rec = tomo.state_tomo(tomo.tomography_data(rhos))
    rec_c = tomo.state_tomo(tomo.tomography_data(rhos, readout=readout), readout=readout)
    worst_exact = max(map(tomo.hs_distance, rhos, rec))
    worst_corrected = max(map(tomo.hs_distance, rec, rec_c))
    worst_process = 0.0
    preps = tomo.prep_states(1)
    for _ in range(max(1, n_states // 4)):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(a)
        u = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar phase fix
        chi = tomo.process_from_states(u @ preps @ u.conj().T)
        worst_process = max(
            worst_process, tomo.hs_distance(chi, tomo.chi_ideal(u))
        )
    werner = p_werner * PSI_PLUS + (1 - p_werner) * np.eye(4) / 4
    c_closed = max(0.0, (3 * p_werner - 1) / 2)
    return ExperimentOutput(
        metrics={
            "max_exact_error": worst_exact,
            "max_corrected_error": worst_corrected,
            "max_process_error": worst_process,
            "werner_concurrence_error": abs(tomo.concurrence(werner) - c_closed),
        }
    )


@dataclass(frozen=True)
class ExperimentSpec:
    runner: Callable[[DeviceParams, dict, int], ExperimentOutput]
    plan: Callable[[DeviceParams, dict, int], object]
    defaults: dict


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "ping_pong": ExperimentSpec(
        run_ping_pong, plan_ping_pong, {"kappa_c": 0.15, "window_ns": 150.0, "eta": None}
    ),
    "multi_transit": ExperimentSpec(
        run_multi_transit, plan_multi_transit,
        {"kappa_c": 0.15, "window_ns": 150.0, "eta": None, "max_transits": 4},
    ),
    "interference": ExperimentSpec(
        run_interference, plan_interference,
        {
            "kappa_c": 0.1,
            "window_ns": 180.0,
            "eta": None,
            "n_phases": 33,
            "realizations": 1024,
            "sigma_phi": None,
            # most rows of one delay-loop pass; the exact noise average
            # needs n + 1 rows per phase (n round trips in the window,
            # one at the defaults) whatever the realization count, so
            # any chunk >= n + 1 runs each phase in one pass.  Rows are
            # independent: the result does not depend on chunk
            "chunk": 1024,
        },
    ),
    "swap": ExperimentSpec(
        run_swap, plan_swap,
        {
            "kappa_c": 0.15,
            "window_ns": 120.0,
            "eta": None,
            "emitter": 1,
            "receiver": 1,
            "tol": 1e-8,
        },
    ),
    "double_swap": ExperimentSpec(
        run_double_swap, plan_double_swap,
        {"kappa_c": 0.15, "window_ns": 120.0, "eta": None, "tol": 1e-8},
    ),
    "bell": ExperimentSpec(
        run_bell, plan_bell,
        {
            "kappa_c": 0.15,
            "window_ns": 180.0,
            "eta": None,
            "alpha": 0.5,
            "tol": 1e-8,
        },
    ),
    "spectroscopy": ExperimentSpec(
        run_spectroscopy, plan_spectroscopy,
        {"qubit": 1, "n_modes": 8, "span_mhz": 12.0, "points": 241},
    ),
    "vacuum_rabi": ExperimentSpec(
        run_vacuum_rabi, plan_vacuum_rabi,
        {
            "qubit": 1,
            "n_modes": 11,
            "g_mhz": 0.18,
            "horizon_tau": 2.0,
            "points": 800,
        },
    ),
    "saw_response": ExperimentSpec(
        run_saw_response, plan_saw_response, {"f_lo_ghz": 3.8, "f_hi_ghz": 4.2, "points": 401}
    ),
    "tomo_roundtrip": ExperimentSpec(
        run_tomo_roundtrip, plan_tomo_roundtrip, {"n_states": 20, "werner_p": 0.8}
    ),
}


def run_experiment(
    name: str, device: DeviceParams, params: dict, seed: int
) -> ExperimentOutput:
    if name not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment '{name}'")
    return EXPERIMENTS[name].runner(device, params, int(seed))
