"""The per-transit reference multi_transit's two-pass superposition is
checked against: one delay-loop run per transit count, each with its own
schedule, a release at t = 0 and a capture n transits later.
"""

from dataclasses import replace

import numpy as np

from sawlink.ioshape import ControlSchedule, Segment, simulate_io, time_reverse


def per_transit_amplitudes(ch, kappa_c, window, max_transits, dt=0.25):
    """Qubit 1's final amplitude after capturing at each transit count 1..max_transits."""
    release = Segment("release", 1, 0.0, window, kappa_c)
    amplitudes = []
    for n in range(1, max_transits + 1):
        capture = time_reverse(replace(release, t_start=n * ch.tau))
        schedule = ControlSchedule([release, capture], window=(0.0, n * ch.tau + window))
        amplitudes.append(simulate_io(schedule, ch, s0=(1.0, 0.0), dt=dt).s1[-1])
    return np.array(amplitudes)
