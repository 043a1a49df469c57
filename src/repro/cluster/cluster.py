"""PCCluster: the user-facing handle on a simulated PC deployment.

A :class:`PCCluster` stands up one master (catalog manager, distributed
storage manager, TCAP optimizer, distributed query scheduler) and N
workers (front-end + back-end process pairs), wired through a
byte-accounted simulated network — the full runtime of Figure 4 inside
one Python process.

Typical use mirrors the paper's client code::

    cluster = PCCluster(n_workers=4)
    cluster.register_type(DataPoint)
    cluster.create_database("db")
    cluster.create_set("db", "points", DataPoint)
    with cluster.loader("db", "points") as load:
        for row in data:
            load.append(DataPoint, dims=..., data=row)
    writer.execute(cluster)
    centroids = cluster.read("db", "centroids", as_pairs=True, comp=my_agg)

Fault tolerance: pass a :class:`~repro.cluster.faults.FaultInjector` to
exercise back-end crashes, dropped transfers, and reload failures, and a
:class:`~repro.cluster.faults.RetryPolicy` to control how the scheduler
recovers (per-task retries with backoff, transfer re-sends, optional
worker blacklisting with partition redistribution).
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.analysis import sanitizer as pcsan
from repro.catalog import CatalogJournal, CatalogManager
from repro.core.computation import AggregateComp, Computation
from repro.engine.physical import DEFAULT_BROADCAST_THRESHOLD, plan_pipelines
from repro.engine.pipeline import combine_into, map_items
from repro.errors import CatalogError, ExecutionError, StorageError
from repro.obs import (
    FlightRecorder,
    HealthCheck,
    MetricsRegistry,
    MetricsSnapshot,
    Tracer,
)
from repro.obs.evidence import kernel_fallbacks
from repro.obs.tracer import Span
from repro.memory.block import AllocationBlock
from repro.memory.builtins import MapFacade
from repro.memory.columnar import ColumnarPageWriter
from repro.memory.gather import row_class
from repro.memory.handle import Handle
from repro.schema import Schema
from repro.storage import DistributedStorageManager, ReplicationManager
from repro.storage.dataset import FlushOnExit, RowPageWriter
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.shm_registry import ShmRegistry
from repro.tcap.compiler import compile_computations
from repro.tcap.optimizer import mark_columnar, optimize
from repro.tcap.verify import verify_program
from repro.cluster.faults import RetryPolicy
from repro.cluster.transport import make_transport
from repro.cluster.scheduler import DistributedScheduler
from repro.cluster.worker import WorkerNode


class _FaultCounters:
    """Fault / recovery counters shared by the cluster and its schedulers.

    Declared once against the master registry; the ``faults.*`` trace
    counters are the mirrors of these declarations, so the trace and
    ``cluster.metrics()`` report fault activity under matching names.
    """

    def __init__(self, metrics):
        for name, help in (
            ("backend_crashes", "Back-end process crashes (injected or real)"),
            ("tasks_recovered", "Worker tasks that succeeded on a retry"),
            ("workers_blacklisted",
             "Workers decommissioned after exhausting retries"),
            ("workers_killed",
             "Workers lost entirely (front-end storage included)"),
            ("pages_redistributed",
             "Pages moved off dead workers onto survivors"),
        ):
            setattr(self, name, metrics.counter(
                "pc_faults_%s_total" % name, help=help))


class PCCluster:
    """One master plus ``n_workers`` simulated worker nodes.

    There is no batch size to set: the engine sizes a batch by what it
    holds and cuts it to what an output page takes (``engine/vectors.py``).
    """

    def __init__(self, n_workers=4, page_size=DEFAULT_PAGE_SIZE,
                 worker_memory=64 << 20,
                 broadcast_threshold=DEFAULT_BROADCAST_THRESHOLD,
                 spill_root=None, fault_injector=None, retry_policy=None,
                 profiling=False, sanitize=False, transport=None,
                 tracing=True):
        # The master's durable territory: the catalog journals every DDL
        # and replica-map mutation (write-ahead) under the spill root, so
        # recover() can rebuild its state after a simulated master crash.
        if spill_root is None:
            self._master_dir = tempfile.mkdtemp(prefix="pc-master-")
        else:
            os.makedirs(spill_root, exist_ok=True)
            self._master_dir = spill_root
        self.journal = CatalogJournal(
            os.path.join(self._master_dir, "catalog.journal")
        )
        self.catalog = CatalogManager(journal=self.journal)
        # Shared-memory hygiene: named segments are journaled next to the
        # catalog WAL, and segments stranded by a previous hard-killed
        # run under this spill root are reaped before any pool opens.
        self.shm_registry = ShmRegistry(
            os.path.join(self._master_dir, "shm.registry")
        )
        self.shm_registry.sweep_orphans()
        # ``tracing=False`` swaps in the null tracer: spans become the
        # shared no-op span and no trace is built — the zero-overhead
        # baseline ``obs.trace_overhead`` (python3 -m bench) divides by.
        self.tracer = Tracer(enabled=tracing)
        # Every master-side component publishes here; each worker front
        # end has its own registry, and metrics() merges them all.
        self.metrics_registry = MetricsRegistry(tracer=self.tracer)
        # PCSan: must be enabled before any worker allocates a block, so
        # every AllocationBlock in the cluster gets a shadow.  sanitize=
        # False leaves whatever the process-wide state is (env opt-in via
        # PC_SANITIZE=1 still applies); neither default installs wrappers.
        if sanitize:
            self.sanitizer = pcsan.enable(metrics=self.metrics_registry)
        else:
            self.sanitizer = pcsan.current_sanitizer()
        self.fault_metrics = _FaultCounters(self.metrics_registry)
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        # The master-side flight recorder (DESIGN §14): a ring of runtime
        # events, dumped into the job trace when something dies.
        self.flight = FlightRecorder(capacity=256)
        # ``transport``: "sim" (default) keeps worker back-ends in-process
        # and deterministic, "process" spawns one OS process each.
        self.transport = make_transport(
            transport, tracer=self.tracer, fault_injector=fault_injector,
            retry_policy=self.retry_policy, metrics=self.metrics_registry,
            recorder=self.flight,
        )
        self.page_size = page_size
        self.broadcast_threshold = broadcast_threshold
        #: an aggregation's combiner pages are the size of a set's
        self.combiner_page_size = page_size
        self.workers = []
        self.blacklist = set()
        self.storage_manager = DistributedStorageManager(self.catalog)
        for index in range(n_workers):
            spill = None
            if spill_root is not None:
                spill = "%s/worker-%d" % (spill_root, index)
            worker = WorkerNode(
                "worker-%d" % index, self.catalog, worker_memory, page_size,
                spill_dir=spill, tracer=self.tracer,
                fault_injector=fault_injector, transport=self.transport,
                shm_registry=self.shm_registry,
            )
            self.workers.append(worker)
            self.storage_manager.attach_server(worker.storage)
        self.replication = ReplicationManager(
            self.catalog, self.storage_manager, self.transport,
            tracer=self.tracer, metrics=self.metrics_registry,
        )
        # profiling= gives every engine (here and in a back-end process)
        # an operator recorder, and switches nothing else.
        self.profiling = profiling
        # Jobs and stages are booked on every run (stages by the scheduler).
        registry, stage = self.metrics_registry, ("stage",)
        self._c_jobs = registry.counter(
            "pc_sched_jobs_total", help="Jobs executed by the scheduler")
        self._h_job_seconds = registry.histogram(
            "pc_sched_job_seconds", help="Wall seconds per executed job")
        self._h_stage_seconds = registry.histogram(
            "pc_sched_stage_seconds", labelnames=stage,
            help="Wall seconds per distributed job stage")
        self._c_stages = registry.counter(
            "pc_sched_stages_total", labelnames=stage,
            help="Distributed job stages executed")
        self._c_stage_cpu = registry.counter(
            "pc_sched_stage_cpu_seconds_total", labelnames=stage,
            help="Coordinator CPU seconds per distributed job stage")
        self._g_workers_active = registry.gauge(
            "pc_cluster_workers_active", help="Workers not blacklisted")
        self._g_workers_blacklisted = registry.gauge(
            "pc_cluster_workers_blacklisted", help="Blacklisted workers")
        self._g_replication_satisfied = registry.gauge(
            "pc_cluster_replication_satisfied", help="1 when every "
            "replica-mapped page is at its set's replication factor")
        self.metrics_registry.on_collect(self._collect_cluster_gauges)
        self.python_outputs = {}  # (db, set) -> python values (non-PC sinks)
        self.last_program = None
        self.last_plan = None
        self.last_job_log = None

    # -- metadata -------------------------------------------------------------------

    def register_type(self, cls_or_descriptor):
        """Register a PC type with the master catalog (required before use)."""
        return self.catalog.register_type(cls_or_descriptor)

    def create_database(self, name):
        self.storage_manager.create_database(name)

    def create_set(self, database, name, cls=None, *, page_size=None,
                   replication=1, schema=None):
        """Create a set partitioned over all workers — the one DDL surface.

        ``replication=k`` keeps ``k`` synchronous copies of every page on
        ring-chosen workers: reads fail over to any live replica, and a
        node loss triggers re-replication instead of data loss.

        A set is columnar — struct-of-arrays pages whose fixed-stride
        columns the engine runs whole-page numpy kernels over — iff it is
        created with a ``schema=``: a :class:`repro.schema.Schema` (e.g.
        ``Schema.from_class(cls)``) or a ``[("x", f64), ...]`` field
        list.  Without one its pages are object pages holding a root
        vector of handles.
        """
        type_name = None
        if isinstance(cls, str):
            type_name = cls
        elif cls is not None:
            self.register_type(cls)
            type_name = getattr(cls, "__name__", getattr(cls, "name", None))
        if schema is not None and not isinstance(schema, Schema):
            schema = Schema(schema)
        return self.storage_manager.create_set(
            database, name, type_name, page_size=page_size,
            replication=replication, schema=schema,
        )

    def ensure_set(self, database, name):
        """Create a set if it does not exist (used for output sets)."""
        self.storage_manager.create_database(database)
        if (database, name) not in self.storage_manager:
            self.storage_manager.create_set(database, name, None)

    def clear_set(self, database, name):
        """Drop all stored pages of a set (keeps the metadata)."""
        for partition in self.storage_manager.partitions(database, name):
            partition.clear()
        if (database, name) in self.storage_manager:
            self.catalog.clear_pages(database, name)
        self.python_outputs.pop((database, name), None)

    def drop_set(self, database, name):
        self.storage_manager.drop_set(database, name)
        self.python_outputs.pop((database, name), None)

    # -- worker health -----------------------------------------------------------------

    @property
    def active_workers(self):
        """Workers that have not been blacklisted."""
        return [
            w for w in self.workers if w.worker_id not in self.blacklist
        ]

    def _remove_worker(self, worker_id, evacuate):
        """Blacklist and detach a worker and drop it from every set's
        replica map.  ``evacuate``: its sole copies are shipped to
        survivors *first*, while nothing has changed — a transfer that
        fails leaves membership and catalog as they were, and the call
        can be repeated.  Returns the pages evacuated, or None — nothing
        done — for a worker that is unknown or already gone.
        """
        if worker_id in self.blacklist or worker_id not in [
            w.worker_id for w in self.workers
        ]:
            return None
        if not [w for w in self.active_workers if w.worker_id != worker_id]:
            raise ExecutionError("cannot %s %s: no surviving workers" % (
                "decommission" if evacuate else "kill", worker_id
            ))
        moved = self.replication.evacuate(worker_id) if evacuate else {}
        self.blacklist.add(worker_id)
        self.storage_manager.detach_server(worker_id)
        for meta in self.catalog.list_sets():
            self.replication.forget_worker(
                meta.database, meta.name, worker_id, moved
            )
        return len(moved)

    def decommission_worker(self, worker_id, reason=None):
        """Blacklist a worker and redistribute its partitions to peers.

        The worker's *front-end* storage is durable (the paper's premise:
        only the back-end is unsafe), so losing the back-end loses no
        data.  Every set keeps serving from its other replicas; pages
        whose only copy lived here are evacuated verbatim (checksummed)
        to a survivor first.  After detaching, replication factors are
        restored on the survivors.  Returns the number of pages moved.
        """
        moved = self._remove_worker(worker_id, evacuate=True)
        if moved is None:
            return 0
        self.replication.restore_replication()
        self.fault_metrics.pages_redistributed.inc(moved)
        return moved

    def kill_worker(self, worker_id, reason=None):
        """Simulate the total loss of a node — front-end storage included.

        Unlike :meth:`decommission_worker`, nothing can be read off the
        dead node: every set must be recovered from its live replicas.  A
        page without one is data loss and raises
        :class:`~repro.errors.ReplicationError`.  Afterwards each set's
        replication factor is restored on the survivors.  Returns the
        number of replica copies created.
        """
        if self._remove_worker(worker_id, evacuate=False) is None:
            return 0
        created = self.replication.restore_replication()
        # The counter is incremented inside the event span so the trace
        # mirror lands on the "kill" node, as the event counters used to.
        with self.tracer.span(
            "kill", kind="fault",
            detail="worker %s lost entirely (%s); %d replica(s) re-created"
            % (worker_id, reason or "killed", created),
        ):
            self.fault_metrics.workers_killed.inc()
        return created

    # -- master crash recovery -----------------------------------------------------

    def recover(self):
        """Simulate a master restart: rebuild the catalog from its journal.

        The in-memory DDL and replica-map state is discarded and replayed
        from the write-ahead journal, after which reads and queries serve
        the same answers as before the crash.  A restart is also the
        moment crash hygiene runs: shared-memory segments recorded in the
        registry but owned by dead processes are reaped, exactly like the
        startup sweep in ``__init__``.  Returns the number of journal
        records applied.
        """
        self.shm_registry.sweep_orphans()
        return self.catalog.replay_journal()

    # -- loading data -----------------------------------------------------------------

    def loader(self, database, set_name, page_size=None):
        """Client-side bulk loader (a context manager): pages are built
        on the client in place and shipped whole to the set's workers —
        the paper's ``sendData`` with zero-cost movement
        (:class:`ClusterLoader`); a set created with a schema gets
        struct-of-arrays pages (:class:`ColumnarClusterLoader`)."""
        schema = self._layout_of(database, set_name)
        if isinstance(schema, Schema):
            return ColumnarClusterLoader(
                self, database, set_name, page_size or self.page_size,
                schema,
            )
        return ClusterLoader(self, database, set_name,
                             page_size or self.page_size)

    def _layout_of(self, database, set_name):
        """What the array path can read the set's pages as: its Schema
        (columnar layout), the ``PCObject`` class it was declared with
        (row layout), else None — the loader dispatch, and the oracle of
        :func:`repro.tcap.optimizer.mark_columnar` and the verifier.
        """
        try:
            meta = self.catalog.set_metadata(database, set_name)
        except CatalogError:  # pcsan: disable=PC005
            # Not-yet-created sets (e.g. a job's output set) simply have
            # none; creation-time errors surface on their own.
            return None
        if meta.schema is not None:
            return meta.schema
        return row_class(self.catalog.registry, meta.type_name)

    # -- execution ----------------------------------------------------------------------

    def execute_computations(self, sinks, optimized=True,
                             build_side_overrides=None, job_name="job",
                             columnar=True):
        """Compile, optimize, plan, and run a computation graph.

        ``sinks`` are Writers — it returns the scheduler's job log (the
        Figure 4 trace) — or AggregateComps, whose merged ``{key:
        value}`` pairs it returns (a list, in sink order, for a list of
        sinks) and stores nowhere: what ``read(as_pairs=True, comp=agg)``
        gives for the job written to a set.  A mix of the two raises.
        The span tree is :attr:`last_trace` afterwards (even when a stage
        raised — partial traces are often the most interesting ones).

        ``columnar`` controls whether eligible operator subgraphs are
        lowered onto whole-page array kernels (``mark_columnar``); pass
        False to force the object path (the parity tests' baseline).
        """
        listed = [sinks] if isinstance(sinks, Computation) else list(sinks)
        results = [sink for sink in listed if isinstance(sink, AggregateComp)]
        if results and len(results) < len(listed):
            raise ExecutionError("a job ends in Writers or in aggregations, not both")
        started = time.perf_counter()
        # PCSan pin-leak detection: pins held before the job are fine
        # (client handles, prior jobs); anything above that baseline
        # still pinned when the job ends leaked inside this job.
        san = self.sanitizer
        pools = [w.storage.pool for w in self.workers]
        pin_baseline = san.snapshot_pins(pools) if san is not None else None
        flight_baseline = self.flight.seq
        crash_baseline = self.fault_metrics.backend_crashes.value
        with self.tracer.span(job_name, kind="job") as job_span:
            with self.tracer.span("compile", kind="phase"):
                program = compile_computations(listed)
                if optimized:
                    optimize(program)
            # A mistyped plan dies here, before any stage is planned or
            # dispatched, with a PlanTypeError naming its TCAP statement.
            with self.tracer.span("verify", kind="phase"):
                verify_program(program, layout_of=self._layout_of,
                               registry=self.catalog.registry)
            # Kernel marks, then each join's side and exchange from the
            # sizes the catalog records: planning reads no page.
            with self.tracer.span("plan", kind="phase"):
                if columnar:
                    mark_columnar(program, self._layout_of)
                plan = plan_pipelines(
                    program, build_side_overrides,
                    set_bytes=self.catalog.set_bytes,
                    broadcast_threshold=self.broadcast_threshold,
                )
            scheduler = DistributedScheduler(self, program, plan)
            self.last_program, self.last_plan = program, plan
            failed = True
            try:
                job_log = scheduler.execute()
                failed = False
            finally:
                self.last_job_log = scheduler.job_log
                job_span.inc("job.stages", len(scheduler.job_log))
                job_span.inc("job.pipelines", len(plan))
                job_span.inc("job.workers", len(self.active_workers))
                self._c_jobs.inc()
                self._h_job_seconds.observe(time.perf_counter() - started)
                # Flight-recorder dump (DESIGN §14): when the job failed
                # or any back-end died mid-job, attach the master ring's
                # events from this job's window to the job span, so the
                # trace carries the last-N-events context of the verdict.
                died = self.fault_metrics.backend_crashes.value > crash_baseline
                if (failed or died) and isinstance(job_span, Span):
                    job_span.events.extend(self.flight.snapshot(since_seq=flight_baseline))
                if san is not None:
                    san.check_pins(pools, pin_baseline)
        if not results:
            return job_log
        merged = [scheduler.results[agg.name] for agg in results]
        return merged[0] if isinstance(sinks, Computation) else merged

    # -- reading results --------------------------------------------------------------------

    def read(self, database, set_name, *, as_pairs=False, comp=None):
        """Gather a set's contents to the client — the one read API.

        With ``as_pairs=False`` (default) returns the stored objects: PC
        objects come back as handles/facades (the client shares the
        process in this simulation), Python-value outputs come back
        as-is.  With ``as_pairs=True`` the set is treated as an
        aggregation output and merged into one ``{key: value}`` dict:
        its PC Maps are read as host values (``map_items``), which
        ``comp`` (the AggregateComp) decodes and combines; without it a
        key stored twice keeps the value read last.

        An unknown database or set raises
        :class:`~repro.errors.SetNotFoundError` — a typo'd name must not
        masquerade as an empty result.
        """
        # Each page is read once, from its first live replica,
        # checksum-verified (and healed) on the way.
        results = [
            obj for items in self.replication.scan_pages(database, set_name)
            for obj in items
        ]
        results.extend(self.python_outputs.get((database, set_name), []))
        if not as_pairs:
            return results
        merged, fallbacks = {}, kernel_fallbacks(self.metrics_registry)
        for item in results:
            view = item
            if isinstance(item, Handle) and not item.is_null:
                view = item.deref()
            if isinstance(view, tuple) and len(view) == 2:
                view = [view]
            elif not isinstance(view, MapFacade):
                raise StorageError(
                    "set %s.%s does not look like an aggregation output"
                    % (database, set_name)
                )
            pairs = map_items(view, comp, lambda r: fallbacks.inc(operator="map_read", reason=r))
            combine_into(merged, pairs, None if comp is None else comp.combine)
        return merged

    # -- introspection ------------------------------------------------------------------------

    @property
    def last_trace(self):
        """The :class:`~repro.obs.Trace` of the most recent job, or None.

        An alias for ``traces(1)[0]``; back-to-back jobs rotate through
        the ring :meth:`traces` reads, so earlier evidence survives.
        """
        return self.tracer.last_trace

    def traces(self, n=1):
        """The last ``n`` completed job traces, most recent first.

        A small ring (:data:`repro.obs.tracer.TRACE_RING_SIZE` deep)
        keeps back-to-back jobs — the TPC-H acceptance suite, retry
        storms — from clobbering each other's evidence; returns fewer
        than ``n`` entries when fewer jobs have completed.
        """
        return self.tracer.recent_traces(n)

    @property
    def supervisor(self):
        """The transport's :class:`~repro.cluster.supervisor.Supervisor`.

        None on transports without real back-end processes (sim) — there
        is nothing to heartbeat; crashes there are plain exceptions.
        """
        return getattr(self.transport, "supervisor", None)

    def _collect_cluster_gauges(self):
        self._g_workers_active.set(len(self.active_workers))
        self._g_workers_blacklisted.set(len(self.blacklist))
        self._g_replication_satisfied.set(
            1 if self._replication_satisfied() else 0
        )

    def _replication_satisfied(self):
        """Whether every replica-mapped page is at its set's factor."""
        live = len(self.storage_manager.worker_ids)
        for meta in self.catalog.list_sets():
            want = min(meta.replication, live)
            factors = self.replication.replication_factors(
                meta.database, meta.name
            )
            if any(count < want for count in factors.values()):
                return False
        return True

    def metrics(self):
        """One merged :class:`~repro.obs.MetricsSnapshot` of the cluster.

        The master registry (network, replication, scheduler, faults) and
        every worker front-end's registry (buffer pools, engines — each
        stamped with its ``worker`` label) collapse into a single
        snapshot, ready for ``to_prometheus()`` / ``to_json()`` /
        ``render()``.
        """
        return MetricsSnapshot.merge(
            [self.metrics_registry.snapshot()]
            + [worker.metrics.snapshot() for worker in self.workers]
        )

    def health(self, check=None, snapshot=None):
        """Evaluate health rules against the current metrics.

        Returns the list of :class:`~repro.obs.HealthStatus` results from
        ``check`` (default: :meth:`HealthCheck.default`).
        """
        check = check if check is not None else HealthCheck.default()
        return check.evaluate(
            snapshot if snapshot is not None else self.metrics()
        )

    def healthy(self, check=None):
        """Whether every health rule passes right now."""
        return all(status.ok for status in self.health(check=check))

    # -- lifecycle ----------------------------------------------------------------------------

    def close(self):
        """Release what the cluster holds open (idempotent).

        Under the process transport this returns every worker's child
        process to the shared pool (or terminates it) and unlinks the
        shared-memory segments the buffer pools still own; on any, it
        closes the catalog journal's append handle.
        """
        for worker in self.workers:
            worker.backend.shutdown()
        for worker in self.workers:
            worker.storage.pool.close()
        self.transport.close()
        self.shm_registry.close()
        self.journal.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class _LoadBlock:
    """What both loaders share — the commit rule of a load block: a page
    lands as it is sealed (shipped under its CRC and adopted on its
    primary and ring replicas, :meth:`ReplicationManager.land_page`),
    and the pages landed since the last commit are recorded as one
    journal group — one write, one sync — at :meth:`flush` and at the end
    of the ``with``, so they become readable then.  A body that raised
    still records the pages sealed before the raise; the open page is
    dropped (:meth:`discard`)."""

    def __init__(self, cluster, database, set_name):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.objects_discarded = 0
        self._landed = []

    pages_shipped = property(lambda self: len(self.sealed))
    objects_loaded = property(lambda self: self.appended)

    def _land(self, data, count, allocations):
        self._landed.append(self.cluster.replication.land_page(
            self.database, self.set_name, data, count, source="client", allocations=allocations))
        return self._landed[-1]

    def _commit(self):
        landed, self._landed = self._landed, []
        self.cluster.replication.record_landed(
            self.database, self.set_name, landed
        )

    def flush(self):
        """Seal what is open, then record every page landed so far."""
        super().flush()
        self._commit()

    def discard(self):
        """Drop what is open unsealed, then record the pages landed."""
        dropped = super().discard()
        self.objects_discarded += dropped
        self._commit()
        return dropped


class ClusterLoader(_LoadBlock, RowPageWriter):
    """Builds row pages client-side (the row-page writer over client-side
    blocks) and lands them on the set's workers as a load block does
    (:class:`_LoadBlock`).  A context manager: ``__exit__`` writes the
    window and seals the last page on a clean exit and drops both when
    the body raised, so a failed load never ships a half-built page."""

    def __init__(self, cluster, database, set_name, page_size):
        _LoadBlock.__init__(self, cluster, database, set_name)
        self.page_size = page_size
        registry = cluster.catalog.registry

        def open_page():
            return AllocationBlock(page_size, registry=registry), None

        def seal_page(block, _token, count):
            # An empty block is just dropped: nothing lands.
            return self._land(block.to_bytes(), count, block.alloc_count) if count else None

        fallbacks = kernel_fallbacks(cluster.metrics_registry)
        RowPageWriter.__init__(
            self, open_page, seal_page, lambda reason: fallbacks.inc(
                operator="object_build", reason=reason))


class ColumnarClusterLoader(_LoadBlock, FlushOnExit, ColumnarPageWriter):
    """Builds struct-of-arrays pages client-side for a columnar set
    (:class:`~repro.memory.columnar.ColumnarPageWriter`: typed arrays per
    column, a page cut off them by offset) and lands them as a load block
    does.  Same context-manager contract as :class:`ClusterLoader`."""

    def __init__(self, cluster, database, set_name, page_size, schema):
        _LoadBlock.__init__(self, cluster, database, set_name)
        ColumnarPageWriter.__init__(
            self, schema, page_size,
            lambda page: self._land(page.block.to_bytes(), len(page), page.block.alloc_count),
            registry=cluster.catalog.registry,
        )
