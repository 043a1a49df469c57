"""The distributed query scheduler (Section 2, Appendix D).

The scheduler takes an optimized TCAP program plus its physical plan and
turns every pipeline into distributed *job stages*:

* ``PipelineJobStage`` — a pipeline segment run by every worker's back-end
  over its local data;
* ``BuildHashTableJobStage`` — building join hash tables from shuffled or
  broadcast data;
* ``AggregationJobStage`` — moving shuffled pre-aggregation Maps to the
  workers whose tasks merge them (the consuming stage of Figure 5).

All one shape: per-worker tasks over local data, cut at every partitioned
join probe, whose sealed outboxes the coordinator only moves and installs.

A join's shape is the plan's, not the scheduler's: which input builds
and whether its table is broadcast to every worker or both inputs are
hash-partitioned were decided at plan time
(:func:`repro.engine.physical.plan_joins`); the scheduler only reads
them.

Aggregation shuffles are the paper's signature move and are reproduced
bit-for-bit: the task that pre-aggregated a worker's groups materializes
them into PC ``Map``s on combiner pages, the pages' *bytes* are shipped,
and the task that reads the aggregation on the receiving worker reads
each Map straight out of the arrived bytes and merges it — zero
serialization on both ends, and no decode in the coordinator, which
only moves the pages and keeps them for that task.  A job's result has
no consuming stage: its caller merges what each producing task sealed,
as the task settles.

One task runner, one attempt loop: a worker's portion of a stage — one
task per window of a scan larger than its pool — is always
:func:`repro.engine.pipeline.run_task`, ``(job, spec) -> (sink state,
evidence)`` — called, pages built and all, by the back-end process the
attempt was shipped to, or by the coordinator on the same dicts when the
one placement decision (:meth:`DistributedScheduler._place`) keeps it
front-end side for a counted reason
(``pc_sched_frontend_tasks_total{reason}``).  What is constant over a job
(program, plan, ...) travels to a back-end process once, its code once
per process; a task spec names its segment of the plan and its own data.

Fault tolerance (Section 2's dual-process rationale): every per-worker
task runs through :meth:`DistributedScheduler._run_worker_tasks`, which
builds its inputs and sink fresh per attempt.  When the back-end crashes
(a user-code bug, an injected fault, a failed page reload), the front-end
re-forks it and the scheduler consults its
:class:`~repro.cluster.faults.RetryPolicy`: allowed retries re-dispatch
*only the failed task* (one worker's window) against the surviving
front-end storage, after an exponential backoff (reported as a ``retry``
span).  What finished tasks left per worker (hash tables, materialized
stores) is the scheduler's own data, front-end territory like storage:
no back-end holds any of it, so a re-fork — at a stage boundary or
between two tasks of one stage — loses none.  A worker that exhausts its
attempts either fails the job with an
:class:`~repro.errors.ExecutionError` naming the stage and worker, or —
when the policy allows blacklisting — is lost: the one response is a
restart.  Its durable partitions are redistributed to the surviving
workers and the job re-runs from the top over them.  A run records its
output only once the whole plan is through, so a restart or a failure
drops what the run wrote and nothing that earlier jobs did.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time

from repro.core.computation import AggregateComp
from repro.engine.physical import (
    SINK_AGGREGATE, SINK_HASH_BUILD, SINK_MATERIALIZE, SINK_OUTPUT, SOURCE_SCAN,
)
from repro.engine.pipeline import (
    AggregateSink, ClusterOutputSink, HashBuildSink, JobState, MapPageOutputSink,
    MaterializeSink, combine_into, hash_rows_into, join_sides, map_items,
    map_page_pairs, run_task,
)
from repro.cluster.codetable import PICKLING_ERRORS, serialize_task
from repro.cluster.transport import RemoteTask
from repro.errors import (
    ExecutionError, InjectedFaultError, StorageError, WorkerCrashError, WorkerLostError,
)
from repro.obs.evidence import book_task_evidence, kernel_fallbacks
from repro.obs.tracer import Span
from repro.storage.page import page_items, register_root_type
from repro.tcap.ir import ApplyStmt, JoinStmt


class JobStage:
    """A record of one scheduled distributed job stage (for Figure 4).

    ``span`` links the record to its trace span, so the job log and the
    trace report the same stage with the same wall time.
    """

    def __init__(self, kind, detail):
        self.kind = kind
        self.detail = detail
        self.span = None

    @property
    def duration_s(self):
        return self.span.duration_s if self.span is not None else None

    def __repr__(self):
        return "%s(%s)" % (self.kind, self.detail)


class DistributedScheduler:
    """Schedules one execution of a program across the cluster."""

    def __init__(self, cluster, program, plan):
        self.cluster = cluster
        self.program = program
        self.plan = plan
        self.tracer = cluster.tracer
        self.faults = cluster.fault_injector
        self.fault_metrics = cluster.fault_metrics
        self.retry_policy = cluster.retry_policy
        self.job_log = []
        #: worker_id -> what the job keeps there between stages
        self._kept = {}
        self._current_stage = None
        #: the cluster's flight recorder (scheduler decisions leave events)
        self.flight = getattr(cluster, "flight", None)
        self._c_remote_spans = cluster.metrics_registry.counter(
            "pc_trace_remote_spans_total",
            help="Spans recorded in back-end processes and grafted into "
                 "job traces",
        )
        self._c_graft_failures = cluster.metrics_registry.counter(
            "pc_trace_span_graft_failures_total",
            help="Remote span batches too malformed to graft (torn by a "
                 "dying child); the task's evidence still books",
        )
        self._c_frontend = cluster.metrics_registry.counter(
            "pc_sched_frontend_tasks_total",
            help="Task bodies the coordinator ran itself instead of "
                 "shipping them to a back-end process, by reason",
            labelnames=("reason",),
        )

    def _kept_on(self, worker):
        """What this job keeps on ``worker`` between stages: what its
        finished tasks' sinks installed (``finish()``) and later tasks
        are handed — in the coordinator, where no re-fork reaches it."""
        kept = self._kept.get(worker.worker_id)
        if kept is None:
            kept = self._kept[worker.worker_id] = JobState(
                self.program, self.plan, worker.local_catalog.registry
            )
        return kept

    @property
    def workers(self):
        return self.cluster.active_workers

    # -- main entry ------------------------------------------------------------------

    def execute(self):
        # A back-end's copy of the registry cannot hand out cluster-wide
        # codes: the types this job's sinks stamp on pages — the row-page
        # root, the aggregations' Maps — are registered first, on any
        # transport (so the codes, and the page bytes, agree across them).
        register_root_type(self.cluster.catalog)
        for comp in self.program.computations.values():
            if isinstance(comp, AggregateComp) and comp.map_type is not None:
                self.cluster.register_type(comp.map_type)
        while True:
            #: (database, set) -> worker id -> the OUTPUT sinks built
            #: there; a result's aggregation name -> its merged pairs
            self._outputs, self.results = {}, {}
            try:
                self._execute_plan()
                self._commit_outputs()
                return self.job_log
            except WorkerLostError as lost:
                self._abort_outputs()
                self._degrade(lost)
            except BaseException:
                self._abort_outputs()
                raise

    def _execute_plan(self):
        runners = {
            SINK_HASH_BUILD: self._run_build, SINK_AGGREGATE: self._run_aggregate,
            SINK_MATERIALIZE: self._run_materialize, SINK_OUTPUT: self._run_output,
        }
        for pipeline in self.plan:
            if pipeline.sink_kind not in runners:
                raise ExecutionError("unschedulable sink %r" % pipeline.sink_kind)
            runners[pipeline.sink_kind](pipeline)

    def _commit_outputs(self):
        """Make the run's output durable, once the whole plan is through.

        What every OUTPUT sink adopted is copied to the ring replicas
        and recorded in one :meth:`place_pages` call, then its Python
        values join the set's.  Until then no record names a page of
        this run, so a scan in the job reads every set as it was before
        the job, and a run that fails or restarts is undone by
        :meth:`_abort_outputs` alone — whatever earlier jobs wrote to
        the same sets stays.
        """
        if self._outputs:
            self.cluster.replication.place_pages({
                key: [
                    (worker_id, *page) for worker_id, built in sinks.items()
                    for sink in built for page in sink.adopted
                ]
                for key, sinks in self._outputs.items()
            })
        outputs, self._outputs = self._outputs, {}
        for key, sinks in outputs.items():
            self.cluster.python_outputs.setdefault(key, []).extend(
                value for built in sinks.values() for sink in built
                for value in sink.python)

    def _abort_outputs(self):
        """Free every page the run's OUTPUT sinks adopted (none is
        recorded yet) and take their objects back off the counts."""
        for sinks in self._outputs.values():
            for built in sinks.values():
                for sink in built:
                    sink.abort()

    # -- fault recovery -----------------------------------------------------------------

    def _submit_attempt(self, worker, make_attempt):
        """Build one attempt and hand it to the worker's back-end.

        ``make_attempt()`` builds the attempt fresh — re-reading sources
        from front-end storage, re-creating the sink, deciding placement
        — and returns an :class:`_Attempt`.  When the fault injector
        decrees a crash for this attempt, the payload is replaced by a
        raising stand-in, so injected crashes behave identically on
        every transport: the back-end runs it, crashes, and is re-forked
        (killing a real child process, if there is one).
        """
        stage = self._current_stage
        stage_kind = stage.kind if stage is not None else "task"
        attempt = make_attempt()
        if self.faults is not None and self.faults.should_crash_backend(
            worker.worker_id, stage_kind
        ):
            attempt.release()
            attempt.payload = _raiser(InjectedFaultError(
                "injected back-end crash on %s during %s"
                % (worker.worker_id, stage_kind)
            ))
        attempt.started = self.retry_policy.clock()
        attempt.future = worker.submit(attempt.payload)
        return attempt

    def _retry_pause(self, worker, stage_kind, attempts):
        """The backoff between attempts, reported as a ``retry`` span."""
        backoff = self.retry_policy.backoff_s(attempts)
        if self.flight is not None:
            self.flight.record(
                "sched.retry", worker=worker.worker_id, stage=stage_kind,
                attempt=attempts + 1, backoff_ms=int(backoff * 1000),
            )
        with self.tracer.span(
            "retry", kind="retry",
            detail="%s on %s, attempt %d"
            % (stage_kind, worker.worker_id, attempts + 1),
        ) as retry_span:
            retry_span.inc("retry.count")
            retry_span.inc("retry.backoff_ms", max(1, int(backoff * 1000)))
            self.retry_policy.sleep(backoff)

    def _await_attempt(self, worker, make_attempt, attempt):
        """Await a submitted attempt; on a crash, back off and resubmit.

        The one retry loop.  An in-process back-end does the attempt's
        work inside ``await_result``, a process back-end has been at it
        since submit; either way the outcome is ``(sink state,
        evidence)`` and is installed and booked under this worker's task
        span, so engine counters and remote spans are attributed to it.
        """
        policy = self.retry_policy
        stage = self._current_stage
        stage_kind = stage.kind if stage is not None else "task"
        attempts, started = 1, attempt.started
        while True:
            try:
                try:
                    with self.tracer.span(
                        worker.worker_id, kind="task",
                        detail=attempt.placement,
                    ) as span:
                        if attempts > 1:
                            span.inc("task.retry_attempt")
                        try:
                            outcome = worker.await_result(attempt.future)
                            if outcome is None:
                                # The child ran the task, but its result
                                # still points into page memory: run the
                                # same task here instead.
                                self._c_frontend.inc(reason="child_rejected")
                                if isinstance(span, Span):
                                    span.detail = "front-end: child_rejected"
                                outcome = worker.dispatch(attempt.inline)
                            state, evidence = outcome
                            try:
                                # The sealed sink's state comes home here,
                                # wherever the task ran, and is checked as
                                # it arrived; it is installed in window
                                # order (_run_worker_tasks).
                                attempt.sink.state = state
                                evidence["engine"]["pages_written"] = \
                                    attempt.sink.check()
                            finally:
                                self._book(worker, evidence)
                        except WorkerCrashError as crash:
                            # What a crashed attempt managed to produce —
                            # a failed body's evidence so far, or the
                            # span + flight-ring dump synthesized for a
                            # child that died without answering — is
                            # booked like a finished one's, so a retry
                            # never loses the attempt's counters.
                            if isinstance(span, Span):  # not a null span
                                span.truncated = True
                            if crash.evidence:
                                self._book(worker, crash.evidence)
                            raise
                finally:
                    attempt.release()
                if attempts > 1:
                    self.fault_metrics.tasks_recovered.inc()
                return attempt.sink
            except WorkerCrashError as crash:
                self.fault_metrics.backend_crashes.inc()
                # The policy clock covers sim determinism; real deadline
                # kills (process transport) arrive pre-judged on the
                # crash itself, so either channel books a timeout.
                timed_out = policy.timed_out(started) or getattr(
                    crash, "deadline_exceeded", False
                )
                if timed_out or not policy.should_retry(attempts):
                    self._fail_permanently(
                        worker, stage, attempts, crash, timed_out
                    )
                self._retry_pause(worker, stage_kind, attempts)
                attempts += 1
                attempt = self._submit_attempt(worker, make_attempt)

    def _run_worker_tasks(self, items, install):
        """Run every worker's queue of attempts through the one loop.

        ``items`` is a list of ``(worker, queue)``, the queue the
        worker's windows as ``(index, make_attempt)`` in the order they
        run; a worker runs one attempt at a time.  An in-process back-end
        does a submitted attempt's work when it is awaited, so each is
        settled before the next is submitted — the simulator's strict
        worker order.  Process back-ends work from submit on: every
        worker's first attempt is submitted up front, attempts are
        awaited in the order they were submitted, and a worker's next one
        is submitted as soon as its last has settled.  A settled
        attempt's sink goes to ``install(worker, sink)`` in (worker,
        window) order, as soon as every attempt before it has settled
        too.  A lost worker restarts the job (:meth:`execute`), but only
        once every attempt submitted beside it has been awaited: no child
        is left owing a result.
        """
        overlap = any(getattr(worker.backend, "asynchronous", False)
                      for worker in self.workers)
        order = [(worker, index) for worker, queue in items
                 for index in sorted(index for index, _make in queue)]
        queues = {worker: list(queue) for worker, queue in items}
        pending, settled, lost = collections.deque(), {}, []

        def submit(worker):
            if queues[worker] and not lost:
                index, make_attempt = queues[worker].pop(0)
                pending.append((worker, index, make_attempt,
                                self._submit_attempt(worker, make_attempt)))

        def settle_next():
            worker, index, make_attempt, attempt = pending.popleft()
            try:
                settled[worker, index] = self._await_attempt(
                    worker, make_attempt, attempt)
            except WorkerLostError as error:
                # The first loss restarts the job; a worker lost beside
                # it is tried again by the restart.
                lost.append(error)
            submit(worker)
            while not lost and order and order[0] in settled:
                install(order[0][0], settled.pop(order.pop(0)))

        try:
            for worker, _queue in items:
                submit(worker)
                while pending and not overlap:
                    settle_next()
            while pending:
                settle_next()
        finally:
            # An await that raised abandons the attempts submitted behind
            # it; drop their leases too (release is once-only).
            for *_queued, attempt in pending:
                attempt.release()
        if lost:
            raise lost[0]

    def _fail_permanently(self, worker, stage, attempts, crash, timed_out):
        """A worker task is out of retries: blacklist or fail the job."""
        policy = self.retry_policy
        kind = stage.kind if stage is not None else "task"
        detail = stage.detail if stage is not None else ""
        why = "task timeout" if timed_out else "retries exhausted"
        survivors = len(self.workers) - 1
        if (
            policy.blacklist_on_exhaustion
            and survivors >= policy.min_surviving_workers
        ):
            raise WorkerLostError(
                worker.worker_id,
                "%s in stage %s (%s) after %d attempt(s): %s"
                % (why, kind, detail, attempts, crash),
            ) from crash
        raise ExecutionError(
            "stage %s (%s) failed permanently on worker %s "
            "after %d attempt(s) (%s): %s"
            % (kind, detail, worker.worker_id, attempts, why, crash)
        ) from crash

    def _degrade(self, lost):
        """Blacklist a permanently-dead worker and restart the job.

        Graceful degradation: the dead worker's durable partitions are
        redistributed to its peers (the front-end storage survives the
        back-end, so pages move as verbatim bytes), and the stage loop
        re-runs from the top over the surviving workers — the run's
        output was aborted already, nothing else is cleared.
        """
        moved = self.cluster.decommission_worker(
            lost.worker_id, reason=lost.reason
        )
        if self.flight is not None:
            self.flight.record("sched.blacklist", worker=lost.worker_id,
                               reason=str(lost.reason)[:120],
                               pages_moved=moved)
        # decommission_worker already counted the redistributed pages;
        # the blacklist event span carries only the blacklisting itself.
        with self.tracer.span(
            "blacklist", kind="fault",
            detail="worker %s blacklisted (%s); %d page(s) redistributed"
            % (lost.worker_id, lost.reason, moved),
        ):
            self.fault_metrics.workers_blacklisted.inc()
        self.job_log.append(JobStage(
            "WorkerBlacklistedEvent",
            "%s decommissioned; job restarting on %d worker(s)"
            % (lost.worker_id, len(self.workers)),
        ))
        # Restart from a clean slate: what the job kept per worker is
        # worker-count dependent.
        self._kept.clear()

    # -- segment execution helpers ------------------------------------------------------

    @contextlib.contextmanager
    def _stage(self, kind, detail):
        """One job stage: its job-log entry, trace span and stage series."""
        stage = JobStage(kind, detail)
        self.job_log.append(stage)
        cpu, wall = time.process_time(), time.perf_counter()
        with self.tracer.span(kind, kind="stage", detail=detail) as span:
            stage.span = span
            self._current_stage = stage
            try:
                yield stage
            finally:
                self._current_stage = None
                wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
                self.cluster._h_stage_seconds.observe(wall, stage=kind)
                self.cluster._c_stages.inc(stage=kind)
                self.cluster._c_stage_cpu.inc(cpu, stage=kind)

    def _pipeline_source(self, worker, pipeline):
        """``worker``'s share of ``pipeline``'s source: its stored-set
        scan (selected afresh by every attempt that reads it), the
        columns an earlier stage materialized, or what an aggregation's
        exchange delivered there (a missing one raises its ExecutionError
        here, front-end side, on every transport)."""
        if pipeline.source_kind == SOURCE_SCAN:
            return _ScanSource(self.cluster.replication, worker, pipeline)
        return _KeptSource(self._kept_on(worker).stored(pipeline.source))

    # -- placement: ship the attempt, or keep it front-end side ------------------------

    @functools.cached_property
    def _job(self):
        """What every task of this job needs and no task changes: the
        ``job`` of every :func:`run_task` call."""
        return {
            "program": self.program,
            "plan": self.plan,
            # Measured and traced there as here (DESIGN §14).
            "profiling": self.cluster.profiling,
            "tracing": self.tracer.enabled,
            # A back-end's, held across jobs (the coordinator runs a task
            # on the worker's own).  The master's codes are authoritative
            # (local catalogs mirror them on their simulated .so fetches);
            # a worker-local registry may not have fetched every type yet.
            "registry": self.cluster.catalog.registry,
        }

    @functools.cached_property
    def _job_blob(self):
        """:attr:`_job` pickled, once and only if a task ships: a
        back-end process is sent it the first time it works for the job
        and keeps it until another job's arrives (its code, for good)."""
        return serialize_task(self._job)

    def _place(self, worker, segment, source, sink):
        """The one placement decision for an attempt; returns it built.

        The task is a ``spec`` for :func:`run_task` — the ``segment``
        ``(pipeline id, index)`` of the job's plan it runs, and only what
        is this task's own — over the pages of its window, leased first
        on every transport (pinned until the attempt is released).  It is
        shipped to the worker's back-end process, which reads the pages
        by name, unless one of a closed set of reasons makes the
        coordinator the caller — of the same function, on the same
        ``job`` and ``spec`` dicts, over the same pages read in place,
        with the worker's own registry: ``in_process`` (the simulator has
        no other side), ``unpicklable_spec`` (a hash table or closure
        holds something that cannot travel) — each counted in
        ``pc_sched_frontend_tasks_total{reason}`` and named on the task
        span; ``child_rejected`` joins them in :meth:`_await_attempt`.
        Every sink can be filled by a task (its pages included), so one
        that cannot say how is a bug, as is a probe whose hash table was
        never built: each raises its ExecutionError right here, on any
        transport.  A storage fault while leasing the pages is replayed
        through the back-end as a raising stand-in, so it books as a
        crash (retry + re-fork) on every transport.
        """
        kept = self._kept_on(worker)
        remote_sink = sink.remote_spec()
        if remote_sink is None:
            raise ExecutionError(
                "%s does not say how a back-end fills it (remote_spec)"
                % type(sink).__name__
            )
        active = self.tracer.active
        stages, _target = self.plan.segment(*segment)
        spec = {
            "worker_id": worker.worker_id,
            "segment": segment,
            "source": source.described,
            "sink": remote_sink,
            "hash_tables": {
                stage.output: kept.hash_table(stage.output)
                for stage in stages if isinstance(stage, JoinStmt)
            },
            # Trace context: a child's task span adopts this job's trace
            # id and hangs off the span open at build time (the stage
            # span; grafting re-parents onto the task span the
            # coordinator opens around the await).
            "trace_ctx": {
                "trace_id": self.tracer.trace_id,
                "parent_span_id": active.span_id if active is not None
                else None,
            },
        }
        try:
            pages, release = source.lease()
        except StorageError as fault:
            return _Attempt(sink, _raiser(fault), None)
        inline = functools.partial(
            run_task, self._job, spec,
            (page_items(page.block) for page in pages), kept.registry,
        )

        def front_end(reason):
            self._c_frontend.inc(reason=reason)
            return _Attempt(sink, inline, "front-end: %s" % reason,
                            release=release)

        if not getattr(worker.backend, "asynchronous", False):
            return front_end("in_process")
        try:
            task = RemoteTask(
                serialize_task(dict(spec, source=source.shipped(pages))),
                self._job_blob,
                label="%s on %s" % (type(sink).__name__, worker.worker_id),
            )
        except PICKLING_ERRORS:
            return front_end("unpicklable_spec")
        return _Attempt(sink, inline, "shipped", task=task, release=release)

    def _book(self, worker, evidence):
        """Book one task's evidence under the worker's open task span.
        A back-end process's carries its own ``task`` span, which is
        grafted there and booked onto (the window the task really ran
        in); a task the coordinator ran carries none — nor does a batch
        that arrived torn — and books onto the open span.

        Span timestamps arrive relative to ``span_base``, an instant on
        the ``time.monotonic()`` the child shares with this process
        (DESIGN §14 "One clock").
        """
        parent = task_span = self.tracer.active
        shift_s = evidence.get("span_base", 0.0)
        grafted = 0
        spans = evidence.get("spans") if parent is not None else None
        for payload in spans or ():
            try:
                span = Span.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                # Malformed span batch (torn by a dying child): only the
                # tree is lost, the evidence books onto the open span.
                self._c_graft_failures.inc()
                continue
            span.shift(shift_s)
            span.parent_id = parent.span_id
            if span.pid is None:
                span.pid = evidence.get("pid")
            parent.children.append(span)
            grafted += sum(1 for _ in span.walk())
            task_span = span
        if grafted:
            self._c_remote_spans.inc(grafted)
        book_task_evidence(evidence, worker.metrics,
                           self.cluster.metrics_registry, task_span)

    # -- stage runners -----------------------------------------------------------------

    def _attempt(self, worker, segment, source, sink_factory):
        """make_attempt for one worker's portion of a stage: ``segment``
        over ``source`` into a fresh sink, placed by :meth:`_place`."""
        return lambda: self._place(worker, segment, source, sink_factory(worker))

    # -- the one exchange: partition -> ship -> receive ------------------------------------

    def _exchange(self, held, comp=None):
        """Move rows between workers — every shuffle, broadcast and merge.

        ``held[s]`` is what worker ``s`` sends: one list of messages per
        partition, as the task that held the rows partitioned and packed
        them (its sink's ``seal()``) — partition ``p`` is for worker
        ``p``.  A message is a list: of rows, or of an aggregation's
        combiner pages.  Returns what each worker received, sources in
        worker order and each message's items in its order — nothing is
        decoded here.  Three decisions, made here once: an empty
        partition is no message; a worker's own messages are handed over
        in their place in that order — no transfer, so nothing to count,
        checksum or fault-inject; every other one is shipped
        (:meth:`_wire`), and what is received is what ``ship`` returned:
        the message that *arrived*.
        """
        workers = self.workers
        ship = self._wire(comp)
        received = [[] for _ in workers]
        for src, outbox in zip(workers, held):
            for dst, into, messages in zip(workers, received, outbox):
                for message in messages:
                    if src is not dst:
                        message = ship(src.worker_id, dst.worker_id, message)
                    into.extend(message)
        return received

    def _wire(self, comp=None):
        """How a message crosses: structured rows as they are — or, for
        an aggregation whose pairs travel as PC Maps (``comp.map_type``),
        its combiner pages (Figure 5), each page's bytes shipped verbatim
        for the receiving task to read the Map out of."""
        if comp is None or comp.map_type is None:
            return self.cluster.transport.ship_rows
        ship_page = self.cluster.transport.ship_page

        def ship(src_id, dst_id, pages):
            # Checked against the CRC the packing task sealed: bytes that
            # changed since, in flight or before, are re-sent, never merged.
            return [(ship_page(src_id, dst_id, data, checksum=checksum),
                     checksum, *sealed) for data, checksum, *sealed in pages]

        return ship

    def _outboxes(self):
        """``(held, install)`` for a stage that feeds an exchange:
        ``install(worker, sink)`` appends a settled task's sealed outbox
        — a list of messages per partition — to its worker's partitions,
        in (worker, window) order; ``held`` is them in worker order, for
        :meth:`_exchange`."""
        held = [[[] for _ in self.workers] for _ in self.workers]
        partitions = dict(zip(self.workers, held))

        def install(worker, sink):
            for messages, sealed in zip(partitions[worker], sink.state):
                messages.extend(sealed)

        return held, install

    def _run_distributed_pipeline(self, pipeline, sink_factory, install=None):
        """Run a full pipeline on every worker — the one stage shape:
        tasks, each sink installed as it settles (``install(worker,
        sink)``, in window order; by default its ``finish()``).  A scan
        runs one task per window of each worker's share
        (:meth:`_ScanSource.windows`).  The chain is cut at every
        partitioned join probe, whatever the pipeline's own sink: a
        segment ending at a cut seals the rows the probe reads (a
        probe-side ``HashBuildSink``), each task partitioning them by the
        probe hash, and the next segment reads what its worker received.
        """
        segments = self.plan.segments(pipeline)
        workers = self.workers

        def run(index, sources, factory, install):
            segment = (pipeline.pipeline_id, index)
            self._run_worker_tasks([
                (worker, [(window, self._attempt(worker, segment, part, factory))
                          for window, part in source.windows()])
                for worker, source in zip(workers, sources)
            ], install)

        sources = [
            self._pipeline_source(worker, pipeline) for worker in workers
        ]
        for index, following in enumerate(segments[1:]):
            probe = following[0]
            _build, (probe_hash, carried) = join_sides(self.plan, probe)
            held, collect = self._outboxes()
            run(index, sources, lambda worker: HashBuildSink(
                self._kept_on(worker), probe, (len(workers), "probe")), collect)
            sources = [
                _KeptSource(("columns", dict(zip((probe_hash, *carried),
                                                 map(list, zip(*rows))))))
                for rows in self._exchange(held)
            ]
        run(len(segments) - 1, sources, sink_factory,
            install or (lambda _worker, sink: sink.finish()))

    # -- per-sink handlers ------------------------------------------------------------------

    def _run_build(self, pipeline):
        """Each worker's task seals its build rows ``(hash, *carried
        columns)`` into what it sends — every row to every worker
        (broadcast) or to worker ``hash % n`` (partition) — and each
        worker's table is built from what it received."""
        join = pipeline.sink
        mode = self.plan.join_modes[join.output]
        held, install = self._outboxes()
        with self._stage(
            "BuildHashTableJobStage",
            "%s join build for %s" % (mode, join.output),
        ):
            # Builds overlap across back-end processes; the exchange and
            # the folds are a serial coordinator loop.
            self._run_distributed_pipeline(pipeline, lambda worker: HashBuildSink(
                self._kept_on(worker), join, (len(self.workers), "build")), install)
            for worker, rows in zip(self.workers, self._exchange(held)):
                self._kept_on(worker).hash_tables[join.output] = hash_rows_into({}, rows)

    def _run_aggregate(self, pipeline):
        """Producing stage: per-worker pre-aggregation (pipelining
        threads), each task partitioning and packing what it sends.  A
        job's result is one partition, folded by the caller as each task
        settles.  Otherwise a consuming stage exchanges the pre-aggregated
        pairs by key hash and keeps them as they arrived; each task that
        reads the aggregation merges its worker's
        (``PipelineEngine.source_batches``)."""
        agg = pipeline.sink
        comp = self.program.computations[agg.computation]
        if pipeline.result is not None:
            n, held = None, None
            install = functools.partial(self._merge_at_caller, self.results.setdefault(
                agg.computation, {}), comp)
        else:
            n, (held, install) = len(self.workers), self._outboxes()
        with self._stage("PipelineJobStage", "pre-aggregation for %s" % agg.output):
            self._run_distributed_pipeline(pipeline, lambda worker: AggregateSink(
                self._kept_on(worker), agg, (n, self.cluster.combiner_page_size),
                None if self.faults is None
                else functools.partial(self.faults.hand_over, worker.worker_id, "caller"),
            ), install)
        if held is None:
            return
        with self._stage("AggregationJobStage", "shuffled merge for %s over %d partitions"
                         % (agg.output, len(self.workers))):
            for worker, arrived in zip(self.workers, self._exchange(held, comp)):
                self._kept_on(worker).store[agg.output] = ("arrived", agg.computation, arrived)

    def _merge_at_caller(self, merged, comp, _worker, sink):
        """Fold into the job's result ``merged`` what one producing task
        sealed for the caller — Map pages, CRC-checked as they arrived
        (``AggregateSink.check``), or rows — decoded by ``comp``: each
        task in (worker, window) order, as soon as it and every task
        before it settled."""
        fallbacks = kernel_fallbacks(self.cluster.metrics_registry)

        def declined(reason):
            fallbacks.inc(operator="map_read", reason=reason)

        for held in sink.state[0]:
            pairs = map_items(held, comp, None) if comp.map_type is None else \
                map_page_pairs(held, comp, self.cluster.catalog.registry, declined)
            combine_into(merged, pairs, comp.combine)

    def _run_materialize(self, pipeline):
        with self._stage("PipelineJobStage", "materialize %s" % pipeline.sink):
            self._run_distributed_pipeline(pipeline, lambda worker: MaterializeSink(
                self._kept_on(worker), pipeline.sink))

    def _run_output(self, pipeline):
        """Each worker's task writes into an OUTPUT sink over its
        partition of the set."""
        output = pipeline.sink
        key = (output.database, output.set_name)
        aggregation = self._aggregate_behind(output)
        self.cluster.ensure_set(*key)

        def sink_factory(worker):
            kept, page_set = self._kept_on(worker), worker.storage.get_set(*key)
            return MapPageOutputSink(
                kept, output, page_set.page_size, aggregation, page_set,
            ) if aggregation is not None else ClusterOutputSink(
                kept, output, page_set.page_size, page_set)

        def install(worker, sink):
            # Committed in (worker, window) order, or aborted.
            self._outputs.setdefault(key, {}).setdefault(worker.worker_id, []).append(sink)
            sink.finish()

        with self._stage("PipelineJobStage", "pipeline into %s" % output.target):
            self._run_distributed_pipeline(pipeline, sink_factory, install)

    def _aggregate_behind(self, output_stmt):
        """The name of the typed AggregateComp whose pairs this OUTPUT
        writes, if any."""
        for statement in self.program.statements:
            comp = self.program.computations.get(statement.computation)
            if isinstance(statement, ApplyStmt) and statement.info.get("type") == "pairUp" \
                    and statement.new_column == output_stmt.column \
                    and isinstance(comp, AggregateComp) and comp.map_type is not None:
                return statement.computation
        return None


def _raiser(error):
    """A payload standing in for a task body that raises ``error`` — a
    copy: the frames on its traceback hold the payload, so raising one
    the payload held would be a cycle keeping the whole stack alive."""
    error_type, args = type(error), error.args

    def crash():
        raise error_type(*args)

    return crash


class _Attempt:
    """One try at one worker's portion of a stage, as :meth:`_place` built it.

    ``payload`` is what the back-end is handed — the shipped
    :class:`RemoteTask`, or ``inline`` (the ``run_task`` call on the
    same spec) when the coordinator runs it — and ``placement`` says
    which (and why) on the task span.  ``release`` ends the attempt's
    lease on its pages (their pins), exactly once.
    """

    __slots__ = ("sink", "inline", "placement", "payload", "_release",
                 "future", "started")

    def __init__(self, sink, inline, placement, task=None, release=None):
        self.sink, self.inline, self.placement = sink, inline, placement
        self.payload = task if task is not None else inline
        self._release = release

    def release(self):
        release, self._release = self._release, None
        if release is not None:
            release()


class _KeptSource:
    """What the job keeps for a worker — plain columns (a materialized
    vector list, a shuffle's output), or an aggregation's arrived
    messages: one window, no pages, its own description shipped or not."""

    def __init__(self, described):
        self.described = described

    def windows(self):
        return [(0, self)]

    def lease(self):
        return (), None

    def shipped(self, _pages):
        return self.described


class _ScanSource:
    """One worker's share of a stored set's pages — or a window of it,
    the ``window`` slice of the share in catalog order."""

    def __init__(self, replication, worker, pipeline, window=slice(None)):
        self.replication, self.worker, self.pipeline = replication, worker, pipeline
        self.scan = scan = pipeline.source
        self.window = window
        # An unknown set is SetNotFoundError here, front-end side, not a
        # crash every attempt of the task retries.
        replication.storage_manager.set_metadata(scan.database, scan.set_name)
        #: ``("pages", segment references, column, columnar)``: no
        #: references for a task that reads the pages in place;
        #: ``columnar`` is the scan's mark, which says what goes through
        #: as whole array batches (``object_batches``).
        self.described = ("pages", None, scan.column, scan.array_rows)

    def windows(self):
        """``(index, window)``: a share larger than the worker's pool (C
        frames) cut, in catalog order, into the fewest windows of at most
        C - 1 pages, their sizes within one page of each other — one frame
        is left for the pages a finished task's output adopts — a pure
        function of the page count and the frames, so alike on every
        transport; listed in the order they run, resident-first: the
        fewest pages to reload first (ties in catalog order).  A cyclic
        scan then reloads only the N - C pages that do not fit
        (DESIGN §17)."""
        scan, storage = self.scan, self.worker.storage
        share = self.replication.scan_share(
            scan.database, scan.set_name, self.worker.worker_id)
        frames = storage.pool.capacity_bytes // storage.get_set(
            scan.database, scan.set_name).page_size if share else 1
        count = 1 if len(share) <= frames else -(-len(share) // max(1, frames - 1))
        bounds = [len(share) * index // count for index in range(count + 1)]
        cuts = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
        missing = [sum(not storage.pool.resident(local) for *_held, local in share[cut])
                   for cut in cuts]
        return sorted(((index, _ScanSource(self.replication, self.worker, self.pipeline, cut))
                       for index, cut in enumerate(cuts)), key=lambda held: missing[held[0]])

    def lease(self):
        """Pin the window's pages for the attempt — the pin is the lease —
        and return ``(pages, release)``.  The selection is
        ``scan_page_copies``' (failover accounting and corruption healing
        included); a flaky reload or a missing replica raises its
        StorageError with nothing left pinned."""
        pool, pages = self.worker.storage.pool, []

        def release():
            for page in pages:
                pool.unpin(page.page_id)

        try:
            for _page_set, page_id in self.replication.scan_page_copies(
                self.scan.database, self.scan.set_name,
                worker_id=self.worker.worker_id, window=self.window,
            ):
                pages.append(pool.pin(page_id))
        except BaseException:
            release()
            raise
        return pages, release

    def shipped(self, pages):
        """The description a back-end process reads the leased pages by:
        each one's shared-memory segment, named."""
        _kind, _refs, column, columnar = self.described
        return ("pages", [(page.shm.name, page.block.size) for page in pages],
                column, columnar)
