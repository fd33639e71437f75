"""A host-speed gauge interleaved with the measured work.

The 2-CPU hosts this benchmark runs on change speed by up to 2.5x over a
few minutes (the same ep protocol repetition took 0.99 s in one run and
2.5 s in a run a few minutes later, with no other load in the container).  A timing taken at one
moment therefore says as much about the host as about the program.

The gauge is fixed, frozen code that never calls the program.  Its compute
part does the same kind of work as the program (dictionary-based LRU sets
over a 120k-line stream); its optional echo part, for the serving path,
bounces small messages off an echo process over a socket pair (the
wake-ups and system calls a request between processes pays).  The benchmark
runs the gauge between pieces of measured work and expresses each host time
at the gauge's nominal speed:

    time_at_nominal = time_measured * scale

A piece of measured work (``time_scale``) is scaled by the compute samples
just before and just after it, ``scale = NOMINAL_S / compute_seconds`` with
their mean.  Timings spread through a whole run (``run_scale``) are scaled
by the median of every sample of the run, with the echo part too when there
is one: ``scale = (NOMINAL_S / compute_seconds + ECHO_NOMINAL_S /
echo_seconds) / 2``.  A rate is divided by the scale.  Over five seeds of ``sim-private``, the quartile spread of
the median protocol time was 0.26 of the median raw and 0.03 gauge-scaled.
Raw values are printed in the detail lines next to scaled ones.
"""

from __future__ import annotations

import os
import socket
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: What one compute run takes on the nominal host (seconds).
NOMINAL_S = 0.05
_LINES = 120_000
#: Round trips per echo sample, and what they take on the nominal host.
ECHO_TRIPS = 1000
ECHO_NOMINAL_S = 0.012
_MESSAGE = b"x" * 64
#: The echo process: bounces every message back until its socket closes.
_ECHO_PEER = """
import socket, sys
sock = socket.socket(fileno=int(sys.argv[1]))
while True:
    data = sock.recv(64)
    if not data:
        break
    sock.sendall(data)
"""


def _kernel(lines: int) -> int:
    """Dictionary LRU sets over a stream of ``lines`` pseudo-random lines."""
    # Lines come from a linear congruential generator rather than a stored
    # trace, so the gauge adds nothing to the peak RSS it sits next to.
    sets = [dict() for _ in range(1024)]
    hits = 0
    x = 20120521
    for _ in range(lines):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = x >> 15
        s = sets[line & 1023]
        if line in s:
            hits += 1
            s[line] = s.pop(line)
        else:
            if len(s) >= 8:
                del s[next(iter(s))]
            s[line] = True
    return hits


def _bracket(samples: List[Tuple[float, float]], t0: float, t1: float) -> float:
    """Mean of the samples just before ``t0`` and just after ``t1``."""
    before = [d for t, d in samples if t <= t0]
    after = [d for t, d in samples if t >= t1]
    picks = ([before[-1]] if before else []) + ([after[0]] if after else [])
    if not picks:
        raise ValueError("no gauge sample brackets the interval")
    return sum(picks) / len(picks)


class Gauge:
    """Times the reference code and turns measured times into nominal ones.

    The vCPUs of one host change speed independently of each other, so a
    sample runs the compute kernel once on each CPU in ``cpus`` (the
    process's CPU set is restored afterwards) and keeps the mean.  With
    ``echo`` it starts an echo process at construction; ``close`` stops it.
    """

    def __init__(self, cpus: Sequence[int], echo: bool = False) -> None:
        self.cpus = list(cpus)
        #: (perf_counter midpoint, seconds) of every compute sample.
        self.samples: List[Tuple[float, float]] = []
        #: (perf_counter midpoint, seconds) of every echo sample.
        self.echo_samples: List[Tuple[float, float]] = []
        self._echo: Optional[Tuple[socket.socket, subprocess.Popen]] = None
        if echo:
            ours, theirs = socket.socketpair()
            try:
                peer = subprocess.Popen(
                    [sys.executable, "-S", "-c", _ECHO_PEER, str(theirs.fileno())],
                    pass_fds=(theirs.fileno(),))
            finally:
                theirs.close()
            self._echo = (ours, peer)

    def _echo_trips(self) -> None:
        sock = self._echo[0]
        start = time.perf_counter()
        for _ in range(ECHO_TRIPS):
            sock.sendall(_MESSAGE)
            got = 0
            while got < len(_MESSAGE):
                got += len(sock.recv(len(_MESSAGE)))
        end = time.perf_counter()
        self.echo_samples.append(((start + end) / 2, end - start))

    def sample(self) -> None:
        """One compute run per CPU (and one echo run, if any)."""
        home = os.sched_getaffinity(0)
        durations = []
        start = time.perf_counter()
        try:
            for cpu in self.cpus:
                if len(self.cpus) > 1:
                    os.sched_setaffinity(0, {cpu})
                t0 = time.perf_counter()
                _kernel(_LINES)
                durations.append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, home)
        self.samples.append(((start + time.perf_counter()) / 2, sum(durations) / len(durations)))
        if self._echo is not None:
            self._echo_trips()

    def time_scale(self, t0: float, t1: float) -> float:
        """Factor that turns a host time measured in [t0, t1] into a nominal
        one, from the compute samples around it."""
        return NOMINAL_S / _bracket(self.samples, t0, t1)

    def run_scale(self) -> float:
        """The factor for timings spread through the whole run, from the
        median of every sample so far (echo samples included)."""
        scale = NOMINAL_S / statistics.median(d for _, d in self.samples)
        if not self.echo_samples:
            return scale
        return (scale + ECHO_NOMINAL_S / statistics.median(d for _, d in self.echo_samples)) / 2

    def close(self) -> None:
        """Stop the echo process (it exits when its socket closes)."""
        if self._echo is not None:
            sock, peer = self._echo
            self._echo = None
            sock.close()
            peer.wait(timeout=10)

    def summary(self) -> dict:
        doc = {"cpus": self.cpus}
        for name, samples, nominal in (("compute", self.samples, NOMINAL_S),
                                       ("echo", self.echo_samples, ECHO_NOMINAL_S)):
            durations = sorted(d for _, d in samples)
            if durations:
                doc[name] = {"samples": len(durations), "nominal_s": nominal,
                             "min_s": durations[0], "median_s": durations[len(durations) // 2],
                             "max_s": durations[-1]}
        return doc

