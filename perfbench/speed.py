"""Machine-speed normalisation for timings taken on a shared, noisy host.

On a host shared with other tenants the same pure-Python work can take twice
as long from one second to the next.  A SpeedMeter samples the speed every
SAMPLE_INTERVAL_S by timing a fixed reference kernel from a SIGALRM handler (no
thread is started), and keeps a normalised clock: wall time between samples
is scaled by REF_NS / (median of the last few reference timings), and the
time spent in the handler itself is left out.  Every time the benchmark
reports is read from this clock, so it reads as seconds at the reference
speed: the speed at which one reference-kernel call takes REF_NS.

The reference kernel is benchmark code that never calls the library, so a
change to the library cannot move it.  It mixes the operations the library
is made of: small frozen dataclasses with validation, tuple and set work,
string assembly, dict updates and modular arithmetic.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

# One reference-kernel call took about this long on the 2-vCPU Xeon host the
# benchmark was defined on (Python 3.11), in its slower, more common state.
REF_NS = 1_000_000
# A reference child (REFERENCE_CHILD below) took about this long there.
REF_CHILD_NS = 100_000_000
# Seconds between two reference samples of the in-process meter.
SAMPLE_INTERVAL_S = 0.05
# The meter scales by the median of this many latest reference timings.
WINDOW = 3


@dataclass(frozen=True)
class _Ladder:
    residues: tuple[int, ...]
    exponent: int

    def __post_init__(self) -> None:
        if len(set(self.residues)) != len(self.residues):
            raise ValueError("residues repeat")


def reference_kernel() -> int:
    """Fixed pure-Python work: about 1 ms at the reference speed."""
    counts: dict[tuple[str, int], int] = {}
    for k in range(100):
        p = 11 + (k % 3) * 6
        entries = tuple((k * 7 - i * 3) for i in range(5))
        residues = tuple(sorted({c % p for c in entries}))
        ladder = _Ladder(residues, sum((c - c % p) // p for c in entries))
        symbols = "".join("x" if (k >> j) & 1 else "o" for j in range(p))
        key = (symbols[:5], ladder.exponent)
        counts[key] = counts.get(key, 0) + symbols.count("x")
    return len(counts)


def time_reference() -> int:
    t0 = perf_counter_ns()
    reference_kernel()
    return perf_counter_ns() - t0


class SpeedMeter:
    """A normalised clock fed by periodic reference-kernel samples."""

    def __init__(self) -> None:
        self.samples: list[int] = []
        self._state = (0.0, perf_counter_ns(), 1.0)
        self._previous = None

    def now(self) -> float:
        """Normalised nanoseconds since start."""
        n, t, f = self._state
        return n + (perf_counter_ns() - t) * f

    def _sample(self) -> None:
        start = perf_counter_ns()
        n, t, f = self._state
        n += (start - t) * f  # the closed segment keeps the factor now() used for it
        self.samples.append(time_reference())
        f = REF_NS / statistics.median(self.samples[-WINDOW:])
        self._state = (n, perf_counter_ns(), f)

    def _tick(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def summary(self) -> dict:
        s = sorted(self.samples)
        return {
            "reference_samples": len(s),
            "reference_ns_median": statistics.median(s) if s else None,
            "reference_ns_p10": s[len(s) // 10] if s else None,
            "reference_ns_p90": s[(9 * len(s)) // 10] if s else None,
        }


# A cold interpreter that imports what the CLI imports from the standard
# library and runs the reference kernel: the speed of starting a process.
REFERENCE_CHILD = f"""
import argparse, dataclasses, json, sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import speed
for _ in range(20):
    speed.reference_kernel()
"""


class ChildClock:
    """Scale factors for cold-start timings of child processes.

    The in-process meter tracks the speed of running Python, not of starting
    a process, so every timed child is bracketed by reference children:
    start() runs the first, and close(), called right after each timed child,
    runs the next one and returns REF_CHILD_NS / (mean wall time of the two
    reference children around that child).  A timed child's wall time times
    that factor reads in reference time.  The bracket follows the host's speed
    more closely than a median of earlier references, which lags behind a
    change and so widens the tail of the timings instead of narrowing it.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []

    def _reference(self) -> None:
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", REFERENCE_CHILD], check=True, capture_output=True, timeout=60)
        self.samples.append(perf_counter_ns() - t0)

    def start(self) -> None:
        self._reference()

    def close(self) -> float:
        """Run the reference child after a timed child; the factor for that child."""
        self._reference()
        return 2 * REF_CHILD_NS / (self.samples[-2] + self.samples[-1])

    def now(self) -> float:
        """Wall nanoseconds; an interval is scaled by the close() that follows it."""
        return perf_counter_ns()

    def summary(self) -> dict:
        s = sorted(self.samples)
        return {"reference_children": len(s), "reference_child_ns_median": statistics.median(s) if s else None}
