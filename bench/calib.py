"""Machine-speed calibration and /proc readers.

On a shared 2-vCPU box the same deterministic op swings 15-30 % in wall
*and* CPU time in multi-second episodes.  A fixed pure-Python loop run
before and after every op slows by the same factor, so timed metrics are
reported in **nominal seconds**::

    nominal = wall * (NOMINAL_LOOP_S / mean of the two bracketing loops)

i.e. what the op would take on a core that runs the loop in exactly
``NOMINAL_LOOP_S``.  Raw seconds are kept as ``bench.op_s_raw``.
"""

from __future__ import annotations

import os
import statistics
import struct
import subprocess
import sys
import time

#: The loop's duration on the reference ("quiet") core.
NOMINAL_LOOP_S = 0.005
_LOOP_ITERATIONS = 30000
_RECORD = struct.Struct("<iid")
_BUFFER = _RECORD.pack(7, 11, 0.5)
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def calibration_loop():
    """Run the fixed loop once; returns its wall seconds."""
    unpack_from = _RECORD.unpack_from
    buffer = _BUFFER
    total = 0
    started = time.perf_counter()
    for _ in range(_LOOP_ITERATIONS):
        total += unpack_from(buffer, 0)[0]
    elapsed = time.perf_counter() - started
    if total != 7 * _LOOP_ITERATIONS:
        raise RuntimeError("calibration loop computed %d" % total)
    return elapsed


def nominal(seconds, loops):
    """``seconds`` rescaled to the reference core by the mean of ``loops``.

    For one op these are its two bracketing loops; for a whole window
    (CPU) or round (set-up), all of its loops.  Measured over ten runs
    each, the mean tracked set-up and CPU time better than the median:
    single loops spike by half when something else gets the core for a
    moment, and the share of spiked loops in a window is itself a sign of
    how disturbed the window was.
    """
    return seconds * NOMINAL_LOOP_S / (sum(loops) / len(loops))


_PEER_PROGRAM = """
import sys
from bench.calib import calibration_loop
for _request in sys.stdin:
    print(calibration_loop(), flush=True)
"""


class NominalClock:
    """Times steps, each bracketed by the loop before and the loop after.

    ``stop()`` runs one calibration loop; the next ``start()`` reuses it
    as that step's "before" loop, so back-to-back ops cost one loop each.
    Every loop time is kept in ``loops`` for the noise diagnostics.

    With ``two_cores`` every loop also runs in a peer process at the same
    moment and the two times are averaged: an op whose tasks run in the
    back-end processes keeps two cores busy, and a neighbour taking one of
    them away slows it in a way a single loop cannot see.  (Ten runs each:
    the two-core scale narrowed ``tpch_objects`` from 13 % to 8.5 % and
    widened single-process ``kmeans_spill`` from 4.1 % to 8.6 %.)  Use as
    a context manager; leaving it stops the peer.
    """

    def __init__(self, two_cores=False):
        self._peer = None
        if two_cores:
            self._peer = subprocess.Popen(
                [sys.executable, "-c", _PEER_PROGRAM], text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
        self.loops = []
        self.sample()  # the first run in a process is slower
        self.loops.clear()
        self.sample()
        self._started = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._peer is not None:
            self._peer.stdin.close()
            self._peer.wait()
        return False

    def sample(self):
        """Run one more loop (after untimed or separately timed work)."""
        if self._peer is None:
            self.loops.append(calibration_loop())
            return
        self._peer.stdin.write("\n")
        self._peer.stdin.flush()
        own = calibration_loop()
        self.loops.append((own + float(self._peer.stdout.readline())) / 2)

    def start(self):
        self._started = time.perf_counter()

    def stop(self):
        """Close the running step; returns ``(raw_s, nominal_s)``."""
        raw = time.perf_counter() - self._started
        self.sample()
        return raw, nominal(raw, self.loops[-2:])


def deciles(values):
    """The nine cut points p10..p90, linearly interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")


def process_cpu_s(pid):
    """utime+stime of ``pid`` in seconds (0.0 once it is gone)."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICKS_PER_S


def process_peak_rss_mb(pid):
    """``VmHWM`` of ``pid`` in MiB (0.0 once it is gone)."""
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
