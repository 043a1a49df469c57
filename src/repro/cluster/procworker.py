"""The task loop of a process-backed worker back-end.

This module is the *child* side of :class:`~repro.cluster.transport.
ProcessTransport`: it runs in a spawned OS process and executes one task
at a time off a queue.  A task arrives as only what is its own — its
segment of the plan, the source (shared-memory page names, or what the
spec holds), the sink class and arguments — against its job's constant
state (the compiled program and plan, profiling/tracing flags), which
arrives once, ahead of the job's first task here, and is kept until
another job's replaces it.  Code and the type registry are held across
jobs (:mod:`repro.cluster.codetable`): what this process lacks arrives
beside a task, and a blob naming what it lacks is rejected as
``"forgot"``, for the coordinator to send everything again.  Running it is
:func:`repro.engine.pipeline.run_task` on those two dicts — what the
coordinator calls for a task it keeps — so this module adds only what
being another process takes: attaching pages, the heartbeat, the
evidence's pid and span.

Sealed pages are attached zero-copy, by ``multiprocessing.shared_memory``
segment name, and read through an
:meth:`~repro.memory.block.AllocationBlock.from_buffer` view.  A task
returns ``(sink state, evidence)``: the sealed sink's state — plain
Python values, and the CRC-stamped bytes of every combiner or output
page it built on private blocks — and its evidence (DESIGN §14), booked
at home by :func:`~repro.obs.evidence.book_task_evidence`.  A result
that would carry PC objects (handles into page memory) is *rejected*,
not failed: the coordinator re-runs that portion front-end side.

The job's ``"profiling"`` and ``"tracing"`` mean here what they mean
in the coordinator: the first puts an operator recorder behind the
engine, the second makes the task a ``task`` span (adopting
``spec["trace_ctx"]``) that travels inside the evidence.  A failed task
ships its evidence-so-far inside the *error* envelope (the span marked
``truncated``, its flight events on it), so a retry never loses the
attempt's counters; a :class:`~repro.obs.FlightRecorder` writing a
parent-allocated shared ring keeps the last-N events readable even after
a SIGKILL.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback

from multiprocessing import resource_tracker, shared_memory

from repro.cluster.codetable import CodeMissing, install
from repro.engine.pipeline import run_task
from repro.memory.block import AllocationBlock
from repro.obs.events import FlightRecorder
from repro.obs.tracer import Span
from repro.storage.page import page_items

#: Live progress of the task loop, published by the heartbeat thread.
#: Plain dict writes are atomic under the GIL, so the task loop updates
#: it lock-free and the beat thread reads whatever is current.
_progress = {"task": 0, "rows": 0}

#: The constant state of the one job this process currently works for.
_job = {}


def _beat_loop(slot, interval):
    """Publish liveness + progress into the shared heartbeat slot.

    Runs as a daemon thread so it dies with the process — and, more
    importantly, *freezes* with it: a SIGSTOP suspends every thread, so
    the beat sequence stops advancing exactly while the worker cannot
    make progress.  The master's Supervisor reads staleness off this
    slot (see :mod:`repro.cluster.supervisor` for the field layout).
    """
    pid = os.getpid()
    seq = 0
    while True:
        seq += 1
        slot[0] = float(seq)  # BEAT_SEQ
        slot[2] = float(pid)  # BEAT_PID
        slot[3] = float(_progress["task"])  # BEAT_TASK
        slot[4] = float(_progress["rows"])  # BEAT_ROWS
        # The timestamp is written last: a torn read can at worst pair a
        # fresh timestamp with one-beat-old progress, never a stale
        # timestamp with fresh progress (which would delay detection).
        slot[1] = time.monotonic()  # BEAT_TIME
        time.sleep(interval)


class _TaskRejected(Exception):
    """The task's result cannot leave this process; re-run it front-end."""


def _unregistered(name, _descriptor):
    """The job registry's ``register_delegate`` here: this copy cannot
    hand out a code the master catalog would agree with, so a task that
    needs a brand-new type is re-run front-end side, where it can."""
    raise _TaskRejected(
        "type %r is not registered with the master catalog" % (name,)
    )


def _attach(name):
    """Attach to a coordinator-owned segment without registering it.

    A spawned child shares the coordinator's resource tracker: a
    register/unregister pair here would drop the coordinator's own
    registration, and its later unlink makes the tracker print a
    ``KeyError`` traceback.  Before 3.13 ``SharedMemory`` always
    registers, so ``register`` is blanked (only the task thread attaches).
    """
    register = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


#: (shm, view) pairs whose buffers were still referenced at detach time
#: (e.g. numpy views created by user stages); re-tried after later tasks.
_lingering = []


def _detach(attachments):
    for pair in attachments + _lingering[:]:
        shm, view = pair
        try:
            view.release()
        except BufferError:
            if pair not in _lingering:
                _lingering.append(pair)
            continue
        try:
            shm.close()
        except BufferError:  # pragma: no cover  # pcsan: disable=PC005
            continue  # view released above, so close() cannot raise this
        if pair in _lingering:
            _lingering.remove(pair)


def _pages(refs, registry, attachments):
    """The task's exported pages, attached by segment name as the task
    reads them: one item sequence per page, its rows published for the
    heartbeat thread while the task runs."""
    for name, size in refs:
        shm = _attach(name)
        # shm.buf is the mapped segment, not a PC block's backing store.
        view = memoryview(shm.buf)[:size]  # pcsan: disable=PC002
        attachments.append((shm, view))
        items = page_items(
            AllocationBlock.from_buffer(view, registry=registry)
        )
        _progress["rows"] += len(items)
        yield items


def _reject_pc_values(value, depth=0):
    """Refuse to ship results still pointing into page memory."""
    if hasattr(value, "pc_block") or hasattr(value, "deref"):
        raise _TaskRejected(
            "result holds PC objects; page-backed values cannot leave "
            "the back-end process"
        )
    if depth >= 4 or value is None:
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_pc_values(key, depth + 1)
            _reject_pc_values(item, depth + 1)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _reject_pc_values(item, depth + 1)


def _stamp(evidence, root, truncated=False, events=()):
    """Add what only this process knows to a task's evidence, as it
    ships (result or error leg): its pid and — with tracing on — the
    ``task`` span, serialized relative to its start with the absolute
    ``time.monotonic()`` carried once as ``"span_base"``."""
    evidence["pid"] = os.getpid()
    if root is not None:
        root.end = time.monotonic()
        root.truncated = truncated
        root.events = list(events)
        evidence["spans"] = [root.to_dict()]
        evidence["span_base"] = root.start
    return evidence


def _run(spec):
    """:func:`run_task` on the job's registry copy, pages attached; once
    it finished, the heartbeat's rows are its stages' ``rows_in``."""
    source, registry = spec["source"], _job["registry"]
    attachments, pages = [], ()
    if source[0] == "pages":
        pages = _pages(source[1], registry, attachments)
    try:
        state, evidence = run_task(_job, spec, pages, registry)
        _reject_pc_values(state)
    finally:
        _detach(attachments)
    _progress["rows"] = evidence["engine"]["rows_in"]
    return state, evidence


def backend_main(task_queue, result_queue, heartbeat=None,
                 beat_interval=0.05, flight=None):
    """The back-end process's main loop: one task at a time, until None.

    With a ``heartbeat`` slot (a shared ``Array('d', 5)``), a daemon
    thread publishes liveness + progress every ``beat_interval`` seconds
    for the master-side Supervisor.  ``flight`` is an optional
    parent-allocated shared byte ring the child's flight recorder mirrors
    every event into, readable by the master even after a SIGKILL.
    """
    if heartbeat is not None:
        threading.Thread(
            target=_beat_loop, args=(heartbeat, beat_interval),
            name="pc-heartbeat", daemon=True,
        ).start()
    recorder = FlightRecorder(buffer=flight)
    while True:
        item = task_queue.get()
        if item is None:
            break
        task_id, job, blob, prelude = item
        _progress["task"] = task_id
        _progress["rows"] = 0
        events_since = recorder.seq
        recorder.record("task.dispatch", task=task_id)
        root = None
        try:
            try:
                if prelude is not None:
                    install(prelude)
                if job is not None:
                    _job.clear()
                    _job.update(pickle.loads(job))
                    _job["registry"].register_delegate = _unregistered
                elif not _job:
                    raise CodeMissing("no job is held here")
                spec = pickle.loads(blob)
                if _job["tracing"]:
                    # Named after the worker, like the coordinator's task
                    # span it is grafted under; the task id stays visible
                    # in the flight events.
                    root = Span(spec["worker_id"], kind="task")
                    root.pid = os.getpid()
                    root.parent_id = spec["trace_ctx"]["parent_span_id"]
                state, evidence = _run(spec)
            except (_TaskRejected, CodeMissing) as rejected:
                recorder.record("task.reject", task=task_id,
                                reason=str(rejected)[:120])
                result_queue.put((task_id, "forgot" if isinstance(
                    rejected, CodeMissing) else "reject", str(rejected)))
                continue
            except Exception as error:  # noqa: BLE001 - reported as a crash, parent re-forks
                recorder.record("task.error", task=task_id)
                # The error envelope carries the evidence accumulated
                # before the exception (its span marked truncated), so a
                # retry never loses this attempt's counters.
                result_queue.put((task_id, "error", {
                    "traceback": traceback.format_exc(limit=20),
                    "evidence": _stamp(
                        getattr(error, "evidence", None) or {}, root,
                        truncated=True,
                        events=recorder.snapshot(events_since),
                    ),
                }))
                continue
            recorder.record("task.complete", task=task_id,
                            rows=_progress["rows"])
            try:
                payload = pickle.dumps((state, _stamp(evidence, root)))
            except Exception as exc:  # noqa: BLE001 - unshippable, not fatal
                result_queue.put(
                    (task_id, "reject", "unpicklable result: %s" % exc)
                )
                continue
            result_queue.put((task_id, "ok", payload))
        finally:
            _progress["task"] = 0
