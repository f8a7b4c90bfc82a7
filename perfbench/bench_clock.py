"""Times at a fixed reference speed, for a machine whose speed drifts.

On a shared machine other tenants load the same physical cores in bursts,
and while they do a Python process runs up to twice as slowly; from one
run to the next that swings a 10-second timing by 20 to 30 percent.
``SpeedClock`` measures the speed the process gets while the benchmark
runs: a timer signal interrupts the program every ``PERIOD_S`` seconds and
runs a short fixed ``probe`` twice, timing only the second pass.  The first
pass brings the probe's code and data back into the core's caches, so the
timed pass reads the core's speed and not what the program left in the
caches: a program change that grows its working set or runs code like the
probe's does not move the probe.  ``normalize(a, b)`` then reports how
long the program's own work in ``[a, b]`` would have taken at the speed
where the timed pass takes ``NOMINAL_S``: each stretch of program time
between two probes is scaled by the speed measured around it, and the
probes themselves are left out.  ``raw(a, b)`` is the plain reading,
probes left out, for comparison.

The clock starts no thread or process; the handler runs between the
program's bytecodes and touches none of its state.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.01

# Median time of the probe's timed pass while the benchmark ran on a quiet
# core of the 2-vCPU x86 VM it was tuned on (CPython 3.11), so normalized
# times read close to what an uncontended run takes there.
NOMINAL_S = 11e-6

# Speeds are smoothed over this many neighbouring probes (about 50 ms).
WINDOW = 5

_TABLE = {i: i for i in range(64)}


def probe() -> int:
    """Integer arithmetic and dict lookups on data that fits in the core's
    private caches; it allocates no containers."""
    acc = 0
    for i in range(150):
        acc += _TABLE[i & 63] * 3 % 7
    return acc


class SpeedClock:
    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []
        self.durations: list[float] = []  # of each probe's timed pass
        self.normalized = self.plain = Timeline(0.0, [], [])

    def _tick(self, signum, frame) -> None:
        # A signal that arrived just before the clock stopped is handled
        # only afterwards; re-arming the timer then would let the next one
        # meet the default action and kill the process.
        if not self._running:
            return
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        probe()
        t2 = perf_counter()
        self.ticks.append((t0, t2))
        self.durations.append(t2 - t1)
        # re-armed here, so a slow handler is never re-entered
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "SpeedClock":
        self._origin = perf_counter()
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        speeds = smoothed_speeds(self.durations)
        self.normalized = Timeline(self._origin, self.ticks, speeds)
        self.plain = Timeline(self._origin, self.ticks, [1.0] * len(self.ticks))

    def normalize(self, a: float, b: float) -> float:
        """Program time in ``[a, b]`` at the nominal speed (call after the
        clock has stopped; ``a`` and ``b`` are ``perf_counter`` readings)."""
        return self.normalized.at(b) - self.normalized.at(a)

    def raw(self, a: float, b: float) -> float:
        """Program time in ``[a, b]`` as read, probes left out."""
        return self.plain.at(b) - self.plain.at(a)

    def mean_speed(self) -> float:
        return statistics.fmean(self.normalized.speeds) if self.ticks else 1.0


def smoothed_speeds(durations: list[float], window: int = WINDOW) -> list[float]:
    """Speed relative to nominal at each probe: ``NOMINAL_S`` over the
    median probe time among the ``window`` probes centred on it."""
    half = window // 2
    return [NOMINAL_S / statistics.median(durations[max(0, k - half):k + half + 1])
            for k in range(len(durations))]


class Timeline:
    """Maps ``perf_counter`` readings onto program time at a given speed.

    Between ``origin`` and the first probe, and between consecutive probes,
    time passes at the speed measured by the probe that ends the stretch
    (after the last probe, at the last probe's speed); probes take no time.
    Differences of mapped readings are durations, so spans, their children
    and their unions can all be measured on the mapped scale.
    """

    def __init__(self, origin: float, ticks: list[tuple[float, float]],
                 speeds: list[float]) -> None:
        self.origin = origin
        self.starts = [s for s, _ in ticks]
        self.ends = [e for _, e in ticks]
        self.speeds = speeds
        self.mapped = []  # mapped time at each probe
        t, at = origin, 0.0
        for (s, e), v in zip(ticks, speeds):
            at += (s - t) * v
            self.mapped.append(at)
            t = e

    def at(self, t: float) -> float:
        i = bisect.bisect_right(self.starts, t)
        if i == 0:
            return (t - self.origin) * (self.speeds[0] if self.speeds else 1.0)
        if t < self.ends[i - 1]:  # inside a probe: readings never are
            return self.mapped[i - 1]
        speed = self.speeds[min(i, len(self.speeds) - 1)]
        return self.mapped[i - 1] + (t - self.ends[i - 1]) * speed
