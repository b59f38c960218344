"""The revival-edge hinge fit by brute force, the reference
``sawlink.multimode``'s own fit is checked against.

At a fixed hinge position t0 the fit max(0, t - t0) (a + b (t - t0)) is
linear in (a, b); ``profile_sse`` solves that least-squares problem with
``np.linalg.lstsq`` and returns its residual sum of squares, and
``scan_minimum`` minimises it over t0 by nested dense scans.
``run_vacuum_rabi_fit`` records the windows a vacuum_rabi run hands the fit.
"""

import numpy as np

from sawlink import multimode
from sawlink.device import default_device
from sawlink.experiments import EXPERIMENTS, run_experiment


def profile_sse(t, d, t0):
    """The residual sum of squares of the hinge fit to ``d`` at the hinge t0."""
    u = np.maximum(t - t0, 0.0)
    basis = np.column_stack((u, u * u))
    r = basis @ np.linalg.lstsq(basis, d, rcond=None)[0] - d
    return r @ r


def scan_minimum(t, d, lo, hi, points=41):
    """The t0 in [lo, hi] of least ``profile_sse``: a scan of ``points``
    hinge positions, narrowed to the two grid steps around its lowest and
    scanned again, until the bracket is 1e-11 of t0 wide."""
    while hi - lo > 1e-11 * (abs(lo) + abs(hi)):
        x = np.linspace(lo, hi, points)
        i = int(np.argmin([profile_sse(t, d, v) for v in x]))
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, points - 1)]
    return 0.5 * (lo + hi)


def global_minimum(t, d, per_interval=20):
    """The t0 of least ``profile_sse`` over the window's samples, those with
    at least three samples past them: a scan of ``per_interval`` points on
    every sample interval, refined by ``scan_minimum`` around its lowest."""
    x = np.linspace(t[0], t[-3], (len(t) - 3) * per_interval + 1)
    i = int(np.argmin([profile_sse(t, d, v) for v in x]))
    return scan_minimum(t, d, x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)])


def run_vacuum_rabi_fit(monkeypatch, fits, **over):
    """vacuum_rabi's revival onset at the defaults with ``over``; each edge
    fit it makes goes to ``fits`` as its window (t, d) and start index."""
    def spy(t, d, k):
        fits.append((t, d, k))
        return fit(t, d, k)

    fit = multimode._hinge_onset
    monkeypatch.setattr(multimode, "_hinge_onset", spy)
    params = {**EXPERIMENTS["vacuum_rabi"].defaults, **over}
    return run_experiment("vacuum_rabi", default_device(), params, 1234).metrics["revival_onset_ns"]
