"""Task evidence: what one run of a task body did, and its one booking.

*Evidence* is plain data closed when a task body ends
(:meth:`repro.engine.pipeline.PipelineEngine.evidence`): the engine's
counters (``"engine"``: field -> count), the batches of marked stages
that took the object path (``"fallbacks"``: (operator, reason) -> count)
and — only when an :class:`OperatorRecorder` sat behind the engine's
``profiler`` seam — one record per TCAP operator applied (``"ops"``).
Whoever ran the body closes the same evidence (a shipped task sends it
home with its ``pid`` and ``task`` span), and :func:`book_task_evidence`
is the only place it becomes metrics, trace counters and ``op`` spans.
"""

from __future__ import annotations

import time

from repro.obs.metrics import span_counter_name
from repro.obs.tracer import Span


class OperatorRecorder:
    """Per-operator records of the running task.

    Sits behind :class:`~repro.engine.pipeline.PipelineEngine`'s
    ``profiler`` seam, so it sees every operator application.  A record
    keeps each application's wall seconds (``walls``: their count is the
    operator's calls, their sum its busy time), CPU seconds, rows in and
    out, the rows an array kernel handled (off columnar pages, off row
    pages), and when the first application began and the last ended
    (``time.monotonic()``, the spans' clock).
    """

    def __init__(self):
        self._ops = {}

    def _record(self, name):
        record = self._ops.get(name)
        if record is None:
            record = self._ops[name] = {
                "walls": [], "cpu_s": 0.0, "rows_in": 0, "rows_out": 0,
                "columnar_rows": 0, "gather_rows": 0, "first": None,
                "last": None,
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

    def array_rows(self, name, path, rows):
        """``rows`` of ``name`` went through its array kernel on ``path``."""
        self._record(name)[path] += rows

    def drain(self):
        """The records so far; the next task starts from none."""
        ops, self._ops = self._ops, {}
        return ops


def kernel_fallbacks(registry):
    """``registry``'s count of what took the object path instead."""
    return registry.counter(
        "pc_engine_kernel_fallback_total", labelnames=("operator", "reason"),
        help="Batches of kernel-marked stages, or builds, that took the object path")


#: record field -> (family, help) of the per-operator row counters
_ROW_FAMILIES = {
    "rows_out": ("pc_op_rows_total", "Rows emitted per TCAP operator"),
    "columnar_rows": ("pc_op_columnar_rows_total",
                      "Rows an array kernel took whole, off columnar pages"),
    "gather_rows": ("pc_op_gather_rows_total",
                    "Rows an array kernel took whole, off row pages"),
}


def book_task_evidence(evidence, engine_registry, op_registry, span=None):
    """Book one task's evidence — the only place it becomes signals.

    Engine counts go to ``pc_engine_<field>_total`` in ``engine_registry``
    (the worker's, so the series carry its label) and onto ``span`` as
    ``engine.<field>``.  Each operator record goes to ``pc_op_seconds``
    (one observation per application), ``pc_op_cpu_seconds_total`` and
    the ``_ROW_FAMILIES`` in ``op_registry`` and becomes one ``op`` span
    under ``span``: it runs from the operator's first application to its
    last — a timeline fact, other operators' time included — while
    ``op.wall_ms`` on it is the busy time, the number that adds up.
    Fallbacks go to ``pc_engine_kernel_fallback_total{operator, reason}``
    and, as ``op.kernel_fallback.<reason>``, onto the operator's span.
    ``span`` is the task span the body ran under (None with spans off).
    """
    for field, delta in (evidence.get("engine") or {}).items():
        counter = engine_registry.counter(
            "pc_engine_%s_total" % field,
            help="Pipeline-engine counter: %s" % field.replace("_", " "),
        )
        if delta:
            counter.inc(delta)
            if span is not None:
                span.inc(span_counter_name(counter.name), delta)
    ops = evidence.get("ops") or {}
    holders = {}  # operator -> its op span
    if ops:
        seconds = op_registry.histogram(
            "pc_op_seconds", labelnames=("operator",),
            help="Wall seconds per TCAP operator application",
        )
        cpu_seconds = op_registry.counter(
            "pc_op_cpu_seconds_total", "CPU seconds per TCAP operator",
            ("operator",))
        rows = {
            field: op_registry.counter(family, help, ("operator",))
            for field, (family, help) in _ROW_FAMILIES.items()
        }
    for name, record in ops.items():
        walls = record["walls"]
        holder = span
        if walls:
            observe = seconds.child(operator=name).observe
            for wall in walls:
                observe(wall)
            cpu_seconds.inc(record["cpu_s"], operator=name)
            if span is not None:
                # Attached directly, never through the tracer stack: the
                # operators of one task interleave, so their spans overlap.
                holder = holders[name] = Span(name, kind="op")
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
        for field, counter in rows.items():
            if record[field]:
                counter.inc(record[field], operator=name)
                # (a sink's kernel — ``aggregate`` — has rows but no
                # application of its own: they stay on the task span)
                if holder is not None and field != "rows_out":
                    holder.inc("op.%s.%s" % (name, field), record[field])
    fallbacks = kernel_fallbacks(engine_registry)
    for (name, reason), count in (evidence.get("fallbacks") or {}).items():
        fallbacks.inc(count, operator=name, reason=reason)
        if (holder := holders.get(name, span)) is not None:
            holder.inc("op.kernel_fallback." + reason, count)
