"""Master-side supervision of process-backed workers (DESIGN §13).

PR 2's fault layer survives *simulated* crashes: the injector raises a
Python exception inside the coordinator and the retry machinery catches
it.  A real back-end process fails differently — it is SIGKILLed by the
OS, wedges inside a kernel without returning, or stops beating after a
SIGSTOP — and none of those raise anything anywhere.  This module turns
real process failure back into the exceptions the recovery path already
understands.

Three pieces:

* **Heartbeats.**  Every spawned back-end publishes liveness + progress
  (beat sequence, monotonic timestamp, pid, current task id, rows
  consumed) into a tiny shared array on a fixed cadence, written by a
  daemon thread inside the child (:mod:`repro.cluster.procworker`).  A
  SIGSTOP freezes every thread in the child, so the beats stop exactly
  when the worker does.

* **The `Supervisor`.**  The master polls each worker's slot while
  awaiting its results and classifies it ``ALIVE`` (fresh beats),
  ``SUSPECT`` (more than ``suspect_beats`` cadences stale — lagging but
  possibly alive), or ``DEAD`` (silent past the ``dead_after_s`` hard
  deadline).  A DEAD verdict SIGKILLs the child, which the await loop
  then observes as a process exit — the same
  :class:`~repro.errors.WorkerCrashError` → re-fork → retry path an
  injected crash takes, so recovery is transport-invariant.  SUSPECT is
  deliberately *not* actionable: a lagging worker keeps its task, and a
  SIGCONT brings it back to ALIVE with the task completing exactly once.

* **Deadlines.**  ``RetryPolicy.timeout_s`` arms a real monotonic-clock
  deadline per dispatched task; a child that is still beating but has
  not produced its result in time is killed the same way, surfacing as
  :class:`~repro.errors.TaskDeadlineError` so the scheduler books a
  *timeout*, not a crash, even under an injectable test clock.

Everything observable lands in ``pc_sup_*`` metrics, including the
``pc_sup_recovery_seconds`` histogram of detect → re-fork latency
(``Supervisor.recovery_quantile`` reads its percentiles).
"""

from __future__ import annotations

import os
import signal
import time

#: Heartbeat slot layout (shared ``Array('d', 5)``): beat sequence,
#: monotonic timestamp of the beat, child pid, current task id (0 when
#: idle), and rows consumed by the current task so far.
BEAT_SEQ, BEAT_TIME, BEAT_PID, BEAT_TASK, BEAT_ROWS = range(5)
HEARTBEAT_FIELDS = 5

#: Default cadence the child publishes beats at, in seconds.
DEFAULT_BEAT_INTERVAL_S = 0.05
#: Missed cadences before a worker is marked SUSPECT.
DEFAULT_SUSPECT_BEATS = 4
#: Hard silence deadline before a worker is declared DEAD, in seconds.
DEFAULT_DEAD_AFTER_S = 2.0
#: Silence allowed to a child that has *never* beaten: a spawned process
#: re-imports the interpreter's world before its first beat, which under
#: load takes far longer than a beat interval.  A child that died during
#: import is caught by the await loop's liveness check regardless; this
#: grace only bounds a genuinely wedged import.
DEFAULT_SPAWN_GRACE_S = 30.0

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"


class WorkerVitals:
    """One worker's last-observed heartbeat, decoded for callers."""

    __slots__ = ("worker_id", "state", "staleness_s", "beats", "pid",
                 "task_id", "rows")

    def __init__(self, worker_id, state, staleness_s, beats, pid,
                 task_id, rows):
        self.worker_id = worker_id
        self.state = state
        self.staleness_s = staleness_s
        self.beats = beats
        self.pid = pid
        self.task_id = task_id
        self.rows = rows

    def __repr__(self):
        return "<WorkerVitals %s %s (%.3fs stale, %d beats)>" % (
            self.worker_id, self.state, self.staleness_s, self.beats
        )


class Supervisor:
    """Tracks back-end liveness and enforces the DEAD verdict.

    ``clock`` is ``time.monotonic`` — the clock the children stamp their
    beats (and their spans) with: same host, same ``CLOCK_MONOTONIC``,
    so staleness is a plain difference (DESIGN §14 "One clock").
    """

    def __init__(self, metrics=None,
                 beat_interval_s=DEFAULT_BEAT_INTERVAL_S,
                 suspect_beats=DEFAULT_SUSPECT_BEATS,
                 dead_after_s=DEFAULT_DEAD_AFTER_S,
                 spawn_grace_s=DEFAULT_SPAWN_GRACE_S,
                 clock=time.monotonic, kill=None, recorder=None):
        self.beat_interval_s = beat_interval_s
        self.suspect_beats = suspect_beats
        self.dead_after_s = dead_after_s
        self.spawn_grace_s = max(dead_after_s, spawn_grace_s)
        self.clock = clock
        #: injectable for tests; the default delivers a real SIGKILL.
        self._kill = kill if kill is not None else self._sigkill
        self._watched = {}  # worker_id -> _ChildProcess
        self._states = {}  # worker_id -> ALIVE/SUSPECT/DEAD
        self._seen_beats = {}  # worker_id -> last observed beat seq
        #: optional flight recorder; verdicts and kills leave events.
        self.recorder = recorder
        self.metrics = metrics
        if metrics is not None:
            self._c_beats = metrics.counter(
                "pc_sup_beats_total",
                help="Heartbeats observed from back-end processes",
            )
            self._c_suspects = metrics.counter(
                "pc_sup_suspects_total",
                help="ALIVE->SUSPECT transitions (heartbeat lag)",
            )
            self._c_deaths = metrics.counter(
                "pc_sup_deaths_total",
                help="Workers declared DEAD after heartbeat silence",
            )
            self._c_deadline_kills = metrics.counter(
                "pc_sup_deadline_kills_total",
                help="Wedged tasks killed at their wall-clock deadline",
            )
            self._h_recovery = metrics.histogram(
                "pc_sup_recovery_seconds",
                help="Detect -> re-fork recovery latency per real "
                     "back-end death",
            )
            self._g_rows = metrics.gauge(
                "pc_sup_rows_consumed",
                help="Rows consumed by each worker's current task, as "
                     "published in its heartbeat slot",
                labelnames=("worker",),
            )
        else:
            self._c_beats = self._c_suspects = None
            self._c_deaths = self._c_deadline_kills = None
            self._h_recovery = None
            self._g_rows = None

    @staticmethod
    def _sigkill(pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            return False  # already gone: the await loop sees the exit
        return True

    # -- registration -----------------------------------------------------------

    def watch(self, worker_id, child):
        """Start supervising ``child`` as ``worker_id``'s back-end."""
        self._watched[worker_id] = child
        self._states[worker_id] = ALIVE
        # Pooled children keep beating between leases; baseline at the
        # current sequence so old beats are not re-counted.
        slot = getattr(child, "heartbeat", None)
        self._seen_beats[worker_id] = (
            int(slot[BEAT_SEQ]) if slot is not None else 0
        )

    def unwatch(self, worker_id, child=None):
        """Stop supervising (only if ``child`` still is the watched one)."""
        if child is not None and self._watched.get(worker_id) is not child:
            return
        self._watched.pop(worker_id, None)
        self._states.pop(worker_id, None)
        self._seen_beats.pop(worker_id, None)

    def state(self, worker_id):
        """The worker's last-assessed state (ALIVE for unwatched ones)."""
        return self._states.get(worker_id, ALIVE)

    def states(self):
        return dict(self._states)

    # -- assessment -------------------------------------------------------------

    def vitals(self, worker_id):
        """Read and classify one worker's heartbeat slot, updating state."""
        child = self._watched.get(worker_id)
        if child is None:
            return None
        slot = getattr(child, "heartbeat", None)
        now = self.clock()
        if slot is None:
            # No heartbeat channel (foreign child): liveness falls back
            # to the await loop's is_alive() check alone.
            return WorkerVitals(worker_id, ALIVE, 0.0, 0, child.pid, 0, 0)
        beats = int(slot[BEAT_SEQ])
        beat_time = slot[BEAT_TIME]
        dead_line = self.dead_after_s
        if beat_time == 0.0:
            # Never beat: a just-spawned child still importing.  Age it
            # from spawn time so a wedged import is eventually killed,
            # but against the (much longer) spawn grace — a loaded
            # machine makes first-beat latency look nothing like the
            # steady-state cadence.
            beat_time = getattr(child, "started_at", now)
            dead_line = self.spawn_grace_s
        staleness = max(0.0, now - beat_time)
        new_beats = beats - self._seen_beats.get(worker_id, 0)
        if new_beats > 0 and self._c_beats is not None:
            self._c_beats.inc(new_beats)
        self._seen_beats[worker_id] = beats
        if staleness >= dead_line:
            state = DEAD
        elif staleness > self.suspect_beats * self.beat_interval_s:
            state = SUSPECT
        else:
            state = ALIVE
        if self._g_rows is not None:
            self._g_rows.set(int(slot[BEAT_ROWS]), worker=worker_id)
        previous = self._states.get(worker_id, ALIVE)
        if state != previous:
            if state is SUSPECT and self._c_suspects is not None:
                self._c_suspects.inc()
            if state is DEAD and self._c_deaths is not None:
                self._c_deaths.inc()
            self._states[worker_id] = state
            if self.recorder is not None:
                self.recorder.record(
                    "sup.state", worker=worker_id, state=state,
                    was=previous, staleness_s=round(staleness, 4),
                    child_pid=child.pid,
                )
        return WorkerVitals(
            worker_id, state, staleness, beats, int(slot[BEAT_PID]),
            int(slot[BEAT_TASK]), int(slot[BEAT_ROWS]),
        )

    def poll(self):
        """Assess every watched worker; returns ``{worker_id: state}``."""
        return {
            worker_id: self.vitals(worker_id).state
            for worker_id in list(self._watched)
        }

    def enforce(self, worker_id, child, deadline=None, timeout_s=None):
        """One await-loop tick: the DEAD verdict and the task deadline.

        Returns ``None`` while the worker may still deliver, or a
        ``(reason, deadline_exceeded)`` pair after SIGKILLing the child.
        The caller's liveness check then observes the exit and books the
        death — the kill itself never raises into the await loop.
        """
        if deadline is not None and self.clock() >= deadline:
            if self._c_deadline_kills is not None:
                self._c_deadline_kills.inc()
            if self.recorder is not None:
                self.recorder.record(
                    "sup.deadline_kill", worker=worker_id,
                    child_pid=child.pid, timeout_s=timeout_s,
                )
            self._kill(child.pid)
            return (
                "task overran its %s wall-clock deadline; back-end "
                "process killed"
                % ("%.3fs" % timeout_s if timeout_s is not None
                   else "armed"),
                True,
            )
        vitals = self.vitals(worker_id)
        if vitals is not None and vitals.state is DEAD:
            self._kill(child.pid)
            return (
                "no heartbeat for %.3fs (deadline %.3fs); back-end "
                "process killed" % (vitals.staleness_s, self.dead_after_s),
                False,
            )
        return None

    # -- recovery accounting ----------------------------------------------------

    def observe_recovery(self, worker_id, seconds):
        """Record one detect -> re-fork recovery latency."""
        if self._h_recovery is not None:
            self._h_recovery.observe(seconds)

    def recovery_quantile(self, q):
        """The q-quantile of recovery latency, or None before any death."""
        if self._h_recovery is None:
            return None
        return self._h_recovery.quantile(q)
