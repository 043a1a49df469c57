"""Exception hierarchy for the PlinyCompute reproduction.

Every error raised by the library derives from :class:`PCError`, so callers
can catch one base class at an API boundary.  Subsystems raise the most
specific subclass that applies.
"""


class PCError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ObjectModelError(PCError):
    """Base class for errors raised by the PC object model."""


class BlockFullError(ObjectModelError):
    """An allocation did not fit in the active allocation block.

    This mirrors the out-of-memory fault the paper describes in Section 6.1:
    the execution engine catches it, retires the full page, and retries the
    allocation on a fresh page.
    """

    def __init__(self, requested, available):
        super().__init__(
            "allocation of %d bytes does not fit (only %d bytes free)"
            % (requested, available)
        )
        self.requested = requested
        self.available = available


class NoActiveBlockError(ObjectModelError):
    """``make_object`` was called with no active allocation block."""


class NullHandleError(ObjectModelError):
    """A null Handle was dereferenced."""


class DanglingHandleError(ObjectModelError):
    """A Handle referenced an object that was already deallocated."""


class UnknownTypeCodeError(ObjectModelError):
    """A type code had no registered class in the local registry.

    In a cluster this triggers the catalog's simulated ``.so`` fetch
    (Section 6.3); if the catalog does not know the type either, the error
    propagates to the caller.
    """

    def __init__(self, type_code):
        super().__init__("unknown type code %d" % type_code)
        self.type_code = type_code


class TypeRegistrationError(ObjectModelError):
    """A type could not be registered (duplicate name, bad field spec...)."""


class CatalogError(PCError):
    """Base class for catalog-manager errors."""


class StorageError(PCError):
    """Base class for storage subsystem errors."""


class BufferPoolExhaustedError(StorageError):
    """The buffer pool could not evict enough pages to satisfy a request."""


class SetNotFoundError(StorageError):
    """A set name did not exist in the given database."""


class PageReloadError(StorageError):
    """A spilled page could not be reloaded into the buffer pool.

    Raised on an (injected or real) I/O fault while reading a spill file.
    The spill file itself survives, so the reload can be retried — inside
    a job the scheduler's stage retry does exactly that.
    """


class PageCorruptionError(StorageError):
    """A page's bytes failed their CRC32 integrity check.

    Raised when a spilled page reloads with a checksum mismatch or a
    network transfer arrives corrupted.  The replication layer reacts by
    quarantining the bad copy and re-fetching the page from a healthy
    replica; corrupted bytes are never handed to a query.
    """


class ReplicationError(StorageError):
    """The replication layer could not honor a set's replication factor.

    Raised when a page has no healthy live replica left (data loss) or a
    replication factor cannot be placed on the attached workers.
    """


class LambdaError(PCError):
    """Base class for errors in the lambda-calculus layer."""


class TcapError(PCError):
    """Base class for TCAP compilation / parsing / optimization errors."""


class TcapParseError(TcapError):
    """The textual TCAP program could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class PlanTypeError(TcapError):
    """A compiled plan failed static type verification at submit time.

    Raised by :func:`repro.tcap.verify.verify_program` before the
    scheduler dispatches anything, carrying the offending statement's
    TCAP text so the error points at the plan, not at a worker
    traceback.
    """

    def __init__(self, message, statement=None):
        if statement is not None:
            message = "%s\n  in: %s" % (message, statement.to_text())
        super().__init__(message)
        self.statement = statement


class PlanningError(PCError):
    """The physical planner could not produce a valid pipeline plan."""


class ExecutionError(PCError):
    """A pipeline stage failed while processing a vector list."""


class ClusterError(PCError):
    """Base class for distributed-runtime errors."""


class WorkerCrashError(ClusterError):
    """The simulated worker back-end process crashed while running user code.

    The front-end process catches this and re-forks the back end, mirroring
    the dual-process design of Section 2.
    """

    #: What the crashed task did before it died (task evidence, see
    #: :mod:`repro.obs.evidence`), when whoever raised the crash had any;
    #: the scheduler books it like a finished task's.
    evidence = None


class TaskDeadlineError(WorkerCrashError):
    """A dispatched task overran its wall-clock deadline and was killed.

    Raised by the process transport when a back-end process is still alive
    but has not produced its result within ``RetryPolicy.timeout_s`` real
    seconds: the supervisor SIGKILLs the wedged child and the front-end
    re-forks it.  A :class:`WorkerCrashError` subclass so the scheduler's
    recovery machinery runs unchanged — but typed, so the retry loop can
    book the failure as a *timeout* rather than a crash even when the
    injectable policy clock never advanced.
    """

    #: Consulted by the scheduler's retry loop alongside
    #: ``RetryPolicy.timed_out`` — real wall time and simulated clock time
    #: reach the same verdict through different channels.
    deadline_exceeded = True


class InjectedFaultError(ClusterError):
    """A deterministic fault fired by a :class:`~repro.cluster.FaultInjector`."""


class BackendCrashedError(ClusterError):
    """A dispatch reached a back-end that already crashed.

    Deliberately *not* a :class:`WorkerCrashError`: the crash already
    happened and was reported; re-using the dead back-end without a
    ``refork_backend()`` is a caller bug, not a new crash to retry.
    """


class TransferDroppedError(ClusterError):
    """A network transfer was dropped and its retry budget is exhausted."""


class WorkerLostError(ClusterError):
    """A worker exhausted its retry budget and was declared permanently dead.

    Internal control-flow signal: the scheduler catches it, blacklists the
    worker, redistributes its durable partitions, and restarts the job on
    the survivors (when the :class:`~repro.cluster.RetryPolicy` allows).
    """

    def __init__(self, worker_id, reason):
        super().__init__(
            "worker %r lost: %s" % (worker_id, reason)
        )
        self.worker_id = worker_id
        self.reason = reason


class LinAlgError(PCError):
    """Base class for lilLinAlg errors (dimension mismatch, parse errors...)."""


class DslParseError(LinAlgError):
    """The lilLinAlg DSL source could not be parsed."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = "line %d" % line
            if column is not None:
                location += ", column %d" % column
            message = "%s: %s" % (location, message)
        super().__init__(message)
        self.line = line
        self.column = column


class BaselineError(PCError):
    """Base class for errors in the Spark-like baseline engine."""
