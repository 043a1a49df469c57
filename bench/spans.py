"""Bench-side spans around the calls into the cluster's public API.

The engine's own trace starts at ``execute_computations``; what a client
op spends in ``read``, ``clear_set``, ``create_set`` or a loader block is
invisible to it.  :class:`SpannedCluster` forwards everything to the real
cluster and records one span — name, start, end, parent, op id — around
each of those calls, kept in memory until the round ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time


class SpanRecorder:
    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, op
        self._stack = []
        self._ids = itertools.count(1)
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": next(self._ids), "name": name, "op": self.op_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.monotonic(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """The span of one whole client op; children carry its id."""
        self.op_id = op_id
        try:
            with self.span("op") as record:
                yield record
        finally:
            self.op_id = None

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record, sort_keys=True))
                f.write("\n")


class _SpannedLoader:
    """A loader whose span covers the whole ``with`` block."""

    def __init__(self, recorder, loader):
        self._recorder = recorder
        self._loader = loader
        self._span = None

    def __enter__(self):
        self._span = self._recorder.span("loader")
        self._span.__enter__()
        return self._loader.__enter__()

    def __exit__(self, exc_type, exc, tb):
        try:
            return self._loader.__exit__(exc_type, exc, tb)
        finally:
            self._span.__exit__(exc_type, exc, tb)


class SpannedCluster:
    """Forwards to a ``PCCluster``; spans the client-facing calls.

    After every ``execute_computations`` the job's engine trace and the
    compiled program's statement count are kept (tagged with the op id),
    because the cluster's own trace ring holds only the last few jobs.
    """

    _SPANNED = ("read", "clear_set", "drop_set", "create_set")

    def __init__(self, cluster, recorder):
        self._cluster = cluster
        self._recorder = recorder
        self.jobs = []  # dicts: op, trace (or None), statements

    def __getattr__(self, name):
        attribute = getattr(self._cluster, name)
        if name not in self._SPANNED:
            return attribute

        def spanned(*args, **kwargs):
            with self._recorder.span(name):
                return attribute(*args, **kwargs)

        return spanned

    def execute_computations(self, *args, **kwargs):
        with self._recorder.span("execute_computations"):
            job_log = self._cluster.execute_computations(*args, **kwargs)
        self.jobs.append({
            "op": self._recorder.op_id,
            "trace": self._cluster.last_trace,
            "statements": len(self._cluster.last_program.statements),
        })
        return job_log

    def loader(self, *args, **kwargs):
        return _SpannedLoader(
            self._recorder, self._cluster.loader(*args, **kwargs)
        )
