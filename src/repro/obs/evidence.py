"""Task evidence: what one run of a task body did, and its one booking.

*Evidence* is plain data closed when a task body ends
(:meth:`repro.engine.pipeline.PipelineEngine.take_evidence`): the
engine's counter increases (``"engine"``: field -> delta) and one record
per TCAP operator the body applied (``"ops"``: name -> record), the
latter only when an :class:`OperatorRecorder` sat behind the engine's
``profiler`` seam.  A body the coordinator ran and a body a back-end
process ran close the same evidence; a shipped task sends it home next
to its sink state (with its ``pid`` and, when spans are on, its ``task``
span), and :func:`book_task_evidence` is the only place either kind is
turned into metrics, trace counters and ``op`` spans.
"""

from __future__ import annotations

import time

from repro.obs.tracer import Span


class OperatorRecorder:
    """Per-operator records of the running task.

    Sits behind :class:`~repro.engine.pipeline.PipelineEngine`'s
    ``profiler`` seam, so it sees every operator application.  A record
    keeps each application's wall seconds (``walls``: their count is the
    operator's calls, their sum its busy time), CPU seconds, rows in and
    out, the rows an array kernel handled, and when the first
    application began and the last one ended (``time.monotonic()``, the
    clock spans use).
    """

    def __init__(self):
        self._ops = {}

    def _record(self, name):
        record = self._ops.get(name)
        if record is None:
            record = self._ops[name] = {
                "walls": [], "cpu_s": 0.0, "rows_in": 0, "rows_out": 0,
                "columnar_rows": 0, "first": None, "last": None,
            }
        return record

    def operator(self, name, fn, stage, batch):
        """Run ``fn(stage, batch)`` as one application of ``name``."""
        record = self._record(name)
        cpu0 = time.process_time()
        start = time.monotonic()
        result = fn(stage, batch)
        end = time.monotonic()
        record["cpu_s"] += time.process_time() - cpu0
        record["walls"].append(end - start)
        record["rows_in"] += len(batch)
        record["rows_out"] += len(result)
        if record["first"] is None:
            record["first"] = start
        record["last"] = end
        return result

    def columnar(self, name, rows):
        """``rows`` of operator ``name`` went through its array kernel."""
        self._record(name)["columnar_rows"] += rows

    def drain(self):
        """The records so far; the next task starts from none."""
        ops, self._ops = self._ops, {}
        return ops


def book_task_evidence(evidence, engine_registry, op_registry, span=None):
    """Book one task's evidence — the only place it becomes signals.

    Engine counter deltas go to ``pc_engine_<field>_total`` in
    ``engine_registry`` (the worker's, so the series carry its label) and
    onto ``span`` as ``engine.<field>``.  Each operator record goes to
    ``pc_op_seconds`` (one observation per application),
    ``pc_op_cpu_seconds_total``, ``pc_op_rows_total`` and
    ``pc_op_columnar_rows_total`` in ``op_registry`` and becomes one
    ``op`` span under ``span``: it runs from the operator's first
    application to its last — a timeline fact, other operators' time
    included — while ``op.wall_ms`` on it is the busy time, the number
    that adds up.  ``span`` is the task span the body ran under (None
    when spans are off).
    """
    for field, delta in (evidence.get("engine") or {}).items():
        counter = engine_registry.counter(
            "pc_engine_%s_total" % field,
            help="Pipeline-engine counter: %s" % field.replace("_", " "),
        )
        if delta:
            counter.inc(delta)
            if span is not None:
                span.inc("engine.%s" % field, delta)
    ops = evidence.get("ops")
    if not ops:
        return
    seconds = op_registry.histogram(
        "pc_op_seconds",
        help="Wall seconds per TCAP operator application",
        labelnames=("operator",),
    )
    cpu_seconds = op_registry.counter(
        "pc_op_cpu_seconds_total",
        help="CPU seconds per TCAP operator",
        labelnames=("operator",),
    )
    rows = op_registry.counter(
        "pc_op_rows_total",
        help="Rows emitted per TCAP operator",
        labelnames=("operator",),
    )
    columnar_rows = op_registry.counter(
        "pc_op_columnar_rows_total",
        help="Rows each operator processed on the columnar "
             "(whole-page array kernel) path; compare against "
             "pc_op_rows_total for the columnar-vs-object split",
        labelnames=("operator",),
    )
    for name, record in ops.items():
        walls = record["walls"]
        if record["rows_out"]:
            rows.inc(record["rows_out"], operator=name)
        if record["columnar_rows"]:
            columnar_rows.inc(record["columnar_rows"], operator=name)
        holder = span
        if walls:
            observe = seconds.child(operator=name).observe
            for wall in walls:
                observe(wall)
            cpu_seconds.inc(record["cpu_s"], operator=name)
            if span is not None:
                # Attached directly, never through the tracer stack: the
                # operators of one task interleave, so their spans overlap.
                holder = Span(name, kind="op")
                holder.start = record["first"]
                holder.end = record["last"]
                holder.parent_id = span.span_id
                holder.pid = evidence.get("pid")
                holder.truncated = span.truncated
                holder.counters = {
                    "op.calls": len(walls),
                    "op.wall_ms": sum(walls) * 1e3,
                    "op.cpu_ms": record["cpu_s"] * 1e3,
                    "op.rows_in": record["rows_in"],
                    "op.rows_out": record["rows_out"],
                }
                span.children.append(holder)
        if holder is not None and record["columnar_rows"]:
            # A sink's kernel (``aggregate``) has rows but no application
            # of its own; its count stays on the task span.
            holder.inc("op.%s.columnar_rows" % name, record["columnar_rows"])
