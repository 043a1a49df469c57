"""Worker nodes: the front-end / back-end process pair (Section 2).

Each worker runs two processes.  The *front-end* is crash-proof
infrastructure: the local catalog cache, the local storage server with
its buffer pool, and the message proxy relaying requests.  The *back-end*
is where potentially-unsafe user code runs; if a user stage raises, the
front-end "re-forks" it.  A back-end holds nothing between tasks
(:func:`repro.engine.pipeline.run_task` builds an engine and drops it),
so a re-fork discards only the running task: the front-end's storage and
catalog, and what the scheduler keeps of the job, survive untouched.

The back-end's execution model is the transport's choice: the simulated
transport keeps it in-process (:class:`BackendProcess`, deterministic:
a submitted dispatch runs when it is awaited), the process transport
backs it with a real spawned OS process whose dispatches are
asynchronous — submitted to a per-worker task queue and awaited later.
:meth:`WorkerNode.dispatch` is submit + await in one call; the scheduler
uses the split pair, so its one attempt loop serves both.
"""

from __future__ import annotations

import functools
import time

from repro.catalog import LocalCatalog
from repro.errors import BackendCrashedError, WorkerCrashError
from repro.obs import MetricsRegistry
from repro.storage import LocalStorageServer


class DeferredFuture:
    """A dispatch that runs when it is awaited (in-process back-ends).

    ``result()`` does the work, so it happens inside whatever span the
    awaiting scheduler has open and in the order the scheduler awaits —
    the simulator's serial worker order.  Await it exactly once.
    """

    def __init__(self, run):
        self._run = run

    def result(self):
        return self._run()


class BackendProcess:
    """The process that actually runs user code (in-process variant)."""

    #: Whether submitted work makes progress before it is awaited.  The
    #: scheduler reads this to order its one loop: submit-then-await per
    #: worker here, submit-all/await-all over real processes.
    asynchronous = False

    def __init__(self, worker):
        self.worker = worker
        self.crashed = False

    def run_user_code(self, fn, *args, **kwargs):
        """Execute ``fn``; a raise marks this backend as crashed.

        A backend that already crashed rejects every further dispatch
        until the front-end re-forks it (a crashed process runs
        nothing).  A failed task's ``error.evidence`` travels on the
        crash, where a process back-end's error envelope puts it.
        """
        if self.crashed:
            raise BackendCrashedError(
                "back-end of worker %r already crashed; the front-end "
                "must re-fork it before dispatching again"
                % (self.worker.worker_id,)
            )
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - user code can raise anything
            self.crashed = True
            raise self._crash(exc) from exc

    def _crash(self, exc):
        """The crash ``exc`` makes, built outside ``run_user_code``: that
        frame is on the crash's traceback, so a local there would be a
        cycle keeping the whole stack alive until a collection."""
        crash = WorkerCrashError("user code crashed on worker %r: %s"
                                 % (self.worker.worker_id, exc))
        crash.evidence = getattr(exc, "evidence", None)
        return crash

    def submit(self, fn, *args, **kwargs):
        """A future that runs ``fn`` as user code when awaited.

        A crash surfaces from ``result()``, exactly where a process
        back-end's future raises it, so both give the scheduler the same
        submit/await surface.
        """
        return DeferredFuture(functools.partial(
            self.run_user_code, fn, *args, **kwargs
        ))

    def shutdown(self):
        """Release backend resources (no-op for the in-process variant)."""


class WorkerNode:
    """One worker: front-end process + (re-forkable) back-end."""

    def __init__(self, worker_id, master_catalog, capacity_bytes,
                 page_size, transport, spill_dir=None, tracer=None,
                 fault_injector=None, shm_registry=None):
        self.worker_id = worker_id
        self.transport = transport
        # Front-end components (survive backend crashes).  The worker's
        # metrics registry carries a constant ``worker`` label, so the
        # cluster-wide merge keeps per-worker attribution.
        self.local_catalog = LocalCatalog(master_catalog)
        self.metrics = MetricsRegistry(
            labels={"worker": worker_id}, tracer=tracer
        )
        self._c_reforks = self.metrics.counter(
            "pc_worker_reforks_total",
            help="Back-end processes re-forked after a crash",
        )
        # The transport decides where sealed page bytes must live so its
        # back-ends can reach them ("shm" for real child processes).
        self.storage = LocalStorageServer(
            worker_id, capacity_bytes, page_size=page_size,
            registry=self.local_catalog.registry, spill_dir=spill_dir,
            tracer=tracer, fault_injector=fault_injector,
            metrics=self.metrics, residency=transport.page_residency,
            shm_registry=shm_registry,
        )
        self.backend = transport.make_backend(self)

    @property
    def refork_count(self):
        """How often this worker's back-end has been re-forked."""
        return self._c_reforks.value

    # -- the message proxy --------------------------------------------------------

    def submit(self, fn, *args, **kwargs):
        """Hand a computation request to the back-end; returns a future.

        In-process back-ends run it when the future is awaited; process
        back-ends enqueue it on the worker's task queue and return a
        pending future.
        """
        return self.backend.submit(fn, *args, **kwargs)

    def await_result(self, future):
        """Resolve a submitted dispatch, re-forking on a crash.

        On a crash the front-end re-forks the back-end (a real child
        process is killed and respawned) before re-raising, so the
        worker stays usable — the paper's rationale for the
        dual-process design.  Recovery (re-dispatching the failed
        portion) is the scheduler's job, via its RetryPolicy.
        """
        try:
            return future.result()
        except WorkerCrashError as crash:
            self.refork_backend()
            # Real deaths carry the detection instant; the span through
            # the re-fork is the supervision layer's recovery latency.
            detected_at = getattr(crash, "detected_at", None)
            supervisor = getattr(self.transport, "supervisor", None)
            if detected_at is not None and supervisor is not None:
                supervisor.observe_recovery(
                    self.worker_id, time.monotonic() - detected_at
                )
            raise

    def dispatch(self, fn, *args, **kwargs):
        """Submit and await in one step (the synchronous proxy call)."""
        return self.await_result(self.submit(fn, *args, **kwargs))

    def refork_backend(self):
        """Replace the back-end with a fresh one, whatever its health: the
        old one is shut down as crashed — a process-backed worker's child
        is *terminated*, never pooled — and the new one leases another.
        Nothing of a running job lived in the old one, so nothing is
        restored into the new.
        """
        self.backend.crashed = True
        self.backend.shutdown()
        self.backend = self.transport.make_backend(self)
        self._c_reforks.inc()
        recorder = self.transport.recorder
        if recorder is not None:
            recorder.record(
                "worker.refork", worker=self.worker_id,
                child_pid=getattr(self.backend, "child_pid", None),
            )

    def __repr__(self):
        return "<WorkerNode %s>" % self.worker_id
