"""Fault injection and retry policy for the simulated cluster.

PC's Section 2 architecture splits each worker into a crash-proof
front-end and a re-forkable back-end precisely so that user-code crashes
and flaky nodes do not kill a job.  This module supplies the two halves
the scheduler needs to exercise and survive those faults:

* :class:`FaultInjector` — a deterministic, seedable source of injected
  failures.  It can make a worker's back-end crash mid-stage, drop or
  delay a shuffle transfer in the simulated network, and fail a
  buffer-pool page reload.  Faults are either *scripted* (``crash_backend
  ("worker-1", times=1)``) for precise tests or *seeded-random* (``crash_
  rate=0.02``) for storm testing; both are reproducible.

* :class:`RetryPolicy` — how the scheduler reacts: maximum attempts per
  worker task, exponential backoff with an injectable clock and sleep
  (tests substitute a fake clock so no real time passes), a per-task
  timeout, how many times a dropped transfer is re-sent, and whether a
  worker that exhausts its attempts is blacklisted so the job can degrade
  gracefully onto the surviving workers.

Every injected fault keeps a typed count in :attr:`FaultInjector.counts`,
and the scheduler/network/buffer-pool report the recovery work (retries,
backoff sleeps, blacklist events) into the job trace, so
``render_trace`` shows what recovery cost.
"""

from __future__ import annotations

import random
import time

from repro.storage.replication import corrupt_bytes

#: Transfer verdicts returned by :meth:`FaultInjector.on_transfer`.
DELIVER = "deliver"
DROP = "drop"
CORRUPT = "corrupt"


class _Scripted:
    """One scripted fault: a match pattern plus a remaining-shots count."""

    __slots__ = ("match", "remaining", "delay_s")

    def __init__(self, match, times):
        self.match = match
        self.remaining = times
        self.delay_s = 0.0

    def take(self, **observed):
        """Consume one shot if ``observed`` matches; returns True if fired."""
        if self.remaining <= 0:
            return False
        for key, wanted in self.match.items():
            if wanted is not None and observed.get(key) != wanted:
                return False
        self.remaining -= 1
        return True


class FaultInjector:
    """Deterministic, seedable fault source for cluster components.

    The injector never raises by itself; components ask it whether a
    fault fires at their hook point and raise their own typed error.  All
    randomness comes from one ``random.Random(seed)`` stream, so a run is
    reproducible given the seed and the (single-threaded) call order.
    """

    def __init__(self, seed=0, crash_rate=0.0, drop_rate=0.0,
                 delay_rate=0.0, delay_s=0.0, reload_failure_rate=0.0,
                 corrupt_rate=0.0, page_corrupt_rate=0.0):
        self.seed = seed
        self._rng = random.Random(seed)
        self.crash_rate = crash_rate
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay_s = delay_s
        self.reload_failure_rate = reload_failure_rate
        #: probability a network page transfer arrives bit-flipped.
        self.corrupt_rate = corrupt_rate
        #: probability a spilled page reloads bit-flipped (sticky: the
        #: damage is written back to the spill file).
        self.page_corrupt_rate = page_corrupt_rate
        self._crashes = []
        self._drops = []
        self._delays = []
        self._reload_failures = []
        self._transfer_corruptions = []
        self._page_corruptions = []
        #: typed counts of every fault this injector actually fired
        self.counts = {
            "backend_crashes": 0,
            "transfer_drops": 0,
            "transfer_delays": 0,
            "reload_failures": 0,
            "transfer_corruptions": 0,
            "page_corruptions": 0,
        }

    # -- scripting ---------------------------------------------------------------

    def crash_backend(self, worker_id=None, stage_kind=None, times=1):
        """Script a back-end crash on ``worker_id`` (None = any worker).

        ``stage_kind`` narrows the crash to tasks of one job-stage kind
        (e.g. ``"PipelineJobStage"``); ``times`` is how many tasks crash.
        """
        self._crashes.append(_Scripted(
            {"worker_id": worker_id, "stage_kind": stage_kind}, times
        ))
        return self

    def drop_transfer(self, src=None, dst=None, times=1):
        """Script ``times`` dropped transfers matching src/dst (None = any)."""
        self._drops.append(_Scripted({"src": src, "dst": dst}, times))
        return self

    def delay_transfer(self, delay_s, src=None, dst=None, times=1):
        """Script ``times`` delayed transfers of ``delay_s`` seconds each."""
        scripted = _Scripted({"src": src, "dst": dst}, times)
        scripted.delay_s = delay_s
        self._delays.append(scripted)
        return self

    def fail_page_reload(self, page_id=None, times=1):
        """Script ``times`` failed buffer-pool reloads (None = any page)."""
        self._reload_failures.append(_Scripted({"page_id": page_id}, times))
        return self

    def corrupt_transfer(self, src=None, dst=None, times=1):
        """Script ``times`` bit-flipped page transfers (None = any)."""
        self._transfer_corruptions.append(
            _Scripted({"src": src, "dst": dst}, times)
        )
        return self

    def corrupt_page(self, page_id=None, times=1):
        """Script ``times`` sticky spill-file corruptions (None = any page)."""
        self._page_corruptions.append(_Scripted({"page_id": page_id}, times))
        return self

    # -- hook points -------------------------------------------------------------

    def should_crash_backend(self, worker_id, stage_kind):
        """Consulted by the scheduler at the top of every worker task."""
        fired = any(
            s.take(worker_id=worker_id, stage_kind=stage_kind)
            for s in self._crashes
        )
        if not fired and self.crash_rate:
            fired = self._rng.random() < self.crash_rate
        if fired:
            self.counts["backend_crashes"] += 1
        return fired

    def on_transfer(self, src, dst, nbytes):
        """Consulted by the network per transfer; returns (verdict, delay_s)."""
        if any(s.take(src=src, dst=dst) for s in self._drops) or (
            self.drop_rate and self._rng.random() < self.drop_rate
        ):
            self.counts["transfer_drops"] += 1
            return DROP, 0.0
        if any(
            s.take(src=src, dst=dst) for s in self._transfer_corruptions
        ) or (
            self.corrupt_rate and self._rng.random() < self.corrupt_rate
        ):
            self.counts["transfer_corruptions"] += 1
            return CORRUPT, 0.0
        for scripted in self._delays:
            if scripted.take(src=src, dst=dst):
                self.counts["transfer_delays"] += 1
                return DELIVER, scripted.delay_s
        if self.delay_rate and self._rng.random() < self.delay_rate:
            self.counts["transfer_delays"] += 1
            return DELIVER, self.delay_s
        return DELIVER, 0.0

    def hand_over(self, src, dst, data):
        """``data``, a page ``src``'s task sealed, as it reaches ``dst`` in
        the task's result — no network transfer, but the same verdict
        (:meth:`on_transfer`): anything but ``deliver`` spoils it
        (:func:`~repro.storage.replication.corrupt_bytes`), for the
        receiver's CRC check to turn away."""
        if self.on_transfer(src, dst, len(data))[0] == DELIVER:
            return data
        return corrupt_bytes(data)

    def should_fail_reload(self, page_id):
        """Consulted by the buffer pool before reloading a spilled page."""
        fired = any(s.take(page_id=page_id) for s in self._reload_failures)
        if not fired and self.reload_failure_rate:
            fired = self._rng.random() < self.reload_failure_rate
        if fired:
            self.counts["reload_failures"] += 1
        return fired

    def should_corrupt_page(self, page_id):
        """Consulted by the buffer pool while reloading a spilled page.

        A firing corrupts the spill file *stickily*: retries keep hitting
        the damage until the replication layer heals the copy.
        """
        fired = any(s.take(page_id=page_id) for s in self._page_corruptions)
        if not fired and self.page_corrupt_rate:
            fired = self._rng.random() < self.page_corrupt_rate
        if fired:
            self.counts["page_corruptions"] += 1
        return fired


class RetryPolicy:
    """How the scheduler recovers from worker-task and transfer faults.

    * ``max_attempts`` — total attempts per worker task (1 = no retry).
    * exponential backoff: ``backoff_base_s * backoff_multiplier**(n-1)``
      capped at ``backoff_max_s``, slept between attempts through the
      injectable ``sleep``; ``clock`` (monotonic seconds) drives the
      per-task ``timeout_s`` across attempts.  Tests inject a fake clock
      so retries cost no wall time.
    * ``transfer_retries`` — how many times the network re-sends a
      dropped transfer before raising ``TransferDroppedError``.
    * ``blacklist_on_exhaustion`` — instead of failing the job when a
      worker exhausts its attempts, blacklist the worker and degrade: its
      durable partitions are redistributed to the survivors and the job
      restarts over them (requires ``min_surviving_workers`` survivors).
    """

    def __init__(self, max_attempts=3, backoff_base_s=0.01,
                 backoff_multiplier=2.0, backoff_max_s=0.25,
                 timeout_s=None, transfer_retries=1,
                 blacklist_on_exhaustion=False, min_surviving_workers=1,
                 sleep=time.sleep, clock=time.monotonic):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_multiplier = backoff_multiplier
        self.backoff_max_s = backoff_max_s
        self.timeout_s = timeout_s
        self.transfer_retries = transfer_retries
        self.blacklist_on_exhaustion = blacklist_on_exhaustion
        self.min_surviving_workers = min_surviving_workers
        self.sleep = sleep
        self.clock = clock

    @classmethod
    def disabled(cls, **overrides):
        """A policy with no task retries and no transfer re-sends."""
        overrides.setdefault("max_attempts", 1)
        overrides.setdefault("transfer_retries", 0)
        return cls(**overrides)

    def should_retry(self, attempts_made):
        """True if another attempt is allowed after ``attempts_made``."""
        return attempts_made < self.max_attempts

    def backoff_s(self, attempts_made):
        """Backoff before the retry following attempt ``attempts_made``."""
        backoff = self.backoff_base_s * (
            self.backoff_multiplier ** (attempts_made - 1)
        )
        return min(self.backoff_max_s, backoff)

    def timed_out(self, started_at):
        """Whether a task started at clock value ``started_at`` timed out."""
        if self.timeout_s is None:
            return False
        return self.clock() - started_at >= self.timeout_s


class FakeClock:
    """Deterministic clock for tests: ``sleep`` advances ``now`` instantly."""

    def __init__(self, start=0.0):
        self.now = start
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds
