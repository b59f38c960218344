"""The references multi_transit's superposition is checked against: one
delay-loop run per transit count, each with its own schedule, a release
at t = 0 and a capture n transits later; and the leftover amplitude from
a second loop pass over the capture alone.
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


def capture_alone(schedule, ch, dt=0.25):
    """The amplitude a ping_pong schedule's capture leaves of the release's
    leftover, from two loop passes: the transfer, then the capture alone
    from the leftover at the node before it, over the same window, so on
    the same nodes."""
    trace = simulate_io(schedule, ch, s0=(1.0, 0.0), dt=dt)
    _, capture = schedule.segments
    left = trace.s1[np.searchsorted(trace.times, capture.t_start) - 1]
    alone = ControlSchedule([capture], window=schedule.window)
    return simulate_io(alone, ch, s0=(left, 0.0), dt=dt).s1[-1]
