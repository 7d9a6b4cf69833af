"""Host corrections for timing on a shared virtual machine.

On a shared host two things move a CPU-bound time that the program does not
control: the hypervisor takes the virtual CPU away (steal time), and the
speed of the physical core changes with what its neighbours run. The
benchmark therefore

* runs on one CPU (:func:`pin_to_one_cpu`), so that all of the program's
  threads share one virtual CPU and that CPU's steal time is the steal the
  program saw;
* reads that CPU's steal time from ``/proc/stat`` (:class:`Clock`);
* samples the host's speed while the program runs (:class:`SpeedProbe`):
  every 20 ms a timer signal interrupts the main thread, which runs a fixed
  probe twice and records the thread CPU time of the second run. The
  probe fills and reads a small dict, reads 256 fixed, scattered entries
  of a list of 2**18 integers (9 MB), and does a little JSON,
  regular-expression, string-formatting, object and sorting work, so that
  it spreads over the caches and the interpreter's code as the program's
  work does; each part alone followed the program's speed less closely
  than the three together. Integer keys keep the dict's work independent
  of the process's string-hash seed. The speed factor of an interval is
  the mean probe time in it over :data:`REFERENCE_S`; 1 is the reference
  speed, 2 a host half as fast. Each stage of a pass is corrected with
  its own factor, since the host's speed changes within seconds.

A measured interval is corrected to the reference host as

    run = wall - steal
    busy = min(1, CPU / run)
    reference time = run - busy * CPU * (1 - 1 / speed factor)

Stolen time is dropped. The process's CPU time is scaled to the reference
speed in proportion to how busy it kept the CPU: fully in a CPU-bound
interval, where every CPU second lies on the path to the result, and
hardly at all in one that mostly waits on the endpoint, where the CPU work
runs in the waiting threads' shadow and a faster or slower core barely
moves the wall time. Without steal and at factor 1 it equals the wall
time.
"""

from __future__ import annotations

import array
import json
import math
import os
import random
import re
import signal
import statistics
import time
from dataclasses import dataclass

# Thread CPU seconds one probe takes at the reference speed.
REFERENCE_S = 100e-6
INTERVAL_S = 0.020
MIN_PROBES = 10
_KEYS = tuple(range(64))
_TABLE_SIZE = 1 << 18
_DOC = {
    "room": "kitchen",
    "objects": [{"id": i, "label": f"obj{i}", "bbox": [i * 0.5, i * 0.25, 1.0]} for i in range(8)],
}
_WORD = re.compile(r"(\w+)_(\d+)")


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _probe(table: list[int], reads: tuple[int, ...]) -> int:
    small = {}
    for i, key in enumerate(_KEYS):
        small[key] = i
    total = 0
    for key in _KEYS:
        total += small[key]
    for i in reads:
        total += table[i]
    doc = json.loads(json.dumps(_DOC))
    for obj in doc["objects"]:
        word = f"{obj['label']}_{obj['id']}"
        total += int(_WORD.match(word).group(2)) + len(word.upper())
    items = sorted((_Item(i, -i) for i in range(32)), key=lambda item: item.b)
    return total + sum(item.a for item in items)


def pin_to_one_cpu() -> int | None:
    """Restrict this process, and threads it starts later, to its highest
    allowed CPU; returns that CPU, or None where affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 0.01


def steal_s(cpu: int | None) -> float:
    """Cumulative steal seconds of ``cpu`` (all CPUs when None); 0 where
    ``/proc/stat`` is not available."""
    prefix = "cpu " if cpu is None else f"cpu{cpu} "
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            for line in stat:
                if line.startswith(prefix):
                    fields = line.split()
                    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


@dataclass(frozen=True)
class Interval:
    """Wall, process CPU and steal seconds of one measured interval, with
    the sum and count of the probe times sampled in it."""

    wall: float = 0.0
    cpu: float = 0.0
    steal: float = 0.0
    probe_s: float = 0.0
    probes: int = 0

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.wall + other.wall, self.cpu + other.cpu, self.steal + other.steal,
                        self.probe_s + other.probe_s, self.probes + other.probes)

    def factor(self, default: float = 1.0) -> float:
        """Speed factor over the interval; ``default`` when it holds fewer
        than :data:`MIN_PROBES` samples."""
        if self.probes < MIN_PROBES:
            return default
        return self.probe_s / self.probes / REFERENCE_S

    def reference(self, default: float = 1.0) -> float:
        """Seconds at the reference host; see the module docstring."""
        run = max(self.wall - self.steal, self.cpu)
        busy = self.cpu / run if run > 0 else 1.0
        return run - busy * (self.cpu - self.reference_cpu(default))

    def reference_cpu(self, default: float = 1.0) -> float:
        """CPU seconds at the reference speed."""
        return self.cpu / self.factor(default)


class SpeedProbe:
    """Samples the host's speed from a timer signal; see the module
    docstring. Only the main thread may start and stop it."""

    def __init__(self):
        self.samples = array.array("d")
        self._table = list(range(_TABLE_SIZE))
        self._reads = tuple(random.Random(0).randrange(_TABLE_SIZE) for _ in range(256))

    def _handler(self, signum, frame) -> None:
        _probe(self._table, self._reads)
        start = time.thread_time()
        _probe(self._table, self._reads)
        self.samples.append(time.thread_time() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Speed factor over all samples so far."""
        return statistics.fmean(self.samples) / REFERENCE_S if self.samples else 1.0


class Clock:
    """Reads wall, process CPU and steal time and the probe's sample count
    together; the difference of two readings is an :class:`Interval`."""

    def __init__(self, cpu: int | None, probe: SpeedProbe | None = None):
        self.cpu = cpu
        self.probe = probe

    def now(self) -> tuple[float, float, float, int]:
        samples = len(self.probe.samples) if self.probe else 0
        return time.perf_counter(), time.process_time(), steal_s(self.cpu), samples

    def since(self, start: tuple[float, float, float, int],
              end: tuple[float, float, float, int]) -> Interval:
        probe_s = math.fsum(self.probe.samples[start[3]:end[3]]) if self.probe else 0.0
        return Interval(end[0] - start[0], end[1] - start[1], end[2] - start[2],
                        probe_s, end[3] - start[3])
