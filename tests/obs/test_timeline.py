"""Unit tests for the Chrome Trace Event export (repro.obs.timeline)."""

import json

from repro.obs import (
    Tracer,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.timeline import COORDINATOR_PID, MAIN_TID
from repro.obs.tracer import Span


def _merged_trace():
    """A coordinator trace with a grafted remote task, like PR 9 builds."""
    tracer = Tracer()
    with tracer.span("job", kind="job", detail="q17"):
        with tracer.span("PipelineJobStage", kind="stage"):
            with tracer.span("worker-0", kind="task") as task:
                tracer.event("refork worker-0", kind="fault",
                             counters={"worker.reforks": 1})
                remote = Span("task-1", kind="task")
                remote.pid = 4242
                remote.start, remote.end = task.start, task.start + 0.004
                for op_name in ("filter", "apply"):
                    op = Span(op_name, kind="op")
                    op.pid = 4242
                    op.start, op.end = remote.start, remote.end
                    op.counters["op.rows_in"] = 10
                    remote.children.append(op)
                remote.events.append(
                    {"seq": 1, "ts": remote.start + 0.001, "pid": 4242,
                     "kind": "task.dispatch", "task": 1})
                task.children.append(remote)
    return tracer.last_trace


def test_spans_become_matched_be_pairs_on_their_pid_track():
    payload = to_chrome_trace(_merged_trace())
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"
    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert len(begins) == len(ends) == 6  # job, stage, task, remote, 2 ops
    by_name = {e["name"]: e for e in begins}
    assert by_name["job:job"]["pid"] == COORDINATOR_PID
    assert by_name["task:worker-0"]["pid"] == COORDINATOR_PID
    assert by_name["task:task-1"]["pid"] == 4242
    assert by_name["op:filter"]["pid"] == 4242
    assert by_name["job:job"]["args"]["detail"] == "q17"
    assert by_name["op:filter"]["args"]["counters"] == {"op.rows_in": 10}
    assert validate_chrome_trace(payload) == []


def test_overlapping_op_spans_get_their_own_lanes():
    payload = to_chrome_trace(_merged_trace())
    lanes = {
        e["name"]: e["tid"] for e in payload["traceEvents"]
        if e["ph"] == "B" and e["name"].startswith("op:")
    }
    # Coalesced ops of one task overlap in time; each op name gets its
    # own tid lane so Chrome's per-lane nesting requirement holds.
    assert lanes["op:filter"] != lanes["op:apply"]
    assert all(tid > MAIN_TID for tid in lanes.values())
    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert thread_names[(4242, lanes["op:filter"])] == "op filter"


def test_instants_cover_tracer_events_and_flight_records():
    payload = to_chrome_trace(_merged_trace())
    instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
    names = {e["name"] for e in instants}
    assert "fault:refork worker-0" in names
    assert "flight:task.dispatch" in names
    assert all(e["s"] == "p" for e in instants)
    flight = next(e for e in instants if e["name"] == "flight:task.dispatch")
    assert flight["pid"] == 4242
    assert flight["args"]["task"] == 1
    assert "ts" not in flight["args"]  # ts lives on the event, not args


def test_metadata_names_every_track():
    payload = to_chrome_trace(_merged_trace())
    process_names = {
        e["pid"]: e["args"]["name"] for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert process_names[COORDINATOR_PID] == "coordinator"
    assert process_names[4242] == "worker pid 4242"


def test_timestamps_are_relative_microseconds_and_sorted():
    payload = to_chrome_trace(_merged_trace())
    timeline = [e for e in payload["traceEvents"] if e["ph"] != "M"]
    ts = [e["ts"] for e in timeline]
    assert ts == sorted(ts)
    assert ts[0] == 0.0  # the root opens the timeline
    remote_end = next(e for e in timeline
                      if e["ph"] == "E" and e["name"] == "task:task-1")
    assert abs(remote_end["ts"] - next(
        e for e in timeline
        if e["ph"] == "B" and e["name"] == "task:task-1"
    )["ts"] - 4000.0) < 1.0  # 0.004 s in microseconds


def test_truncated_spans_are_flagged_in_args():
    tracer = Tracer()
    with tracer.span("job", kind="job") as job:
        cut = Span("task-9", kind="task")
        cut.pid = 7
        cut.start, cut.end = job.start, job.start + 0.001
        cut.truncated = True
        job.children.append(cut)
    payload = to_chrome_trace(tracer.last_trace)
    begin = next(e for e in payload["traceEvents"]
                 if e["ph"] == "B" and e["name"] == "task:task-9")
    assert begin["args"]["truncated"] is True


def test_write_chrome_trace_produces_a_loadable_file(tmp_path):
    path = tmp_path / "trace.json"
    payload = write_chrome_trace(_merged_trace(), str(path))
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk == json.loads(json.dumps(payload))
    assert validate_chrome_trace(on_disk) == []


def test_validator_rejects_broken_payloads():
    assert validate_chrome_trace([]) == \
        ["payload is not a dict with a traceEvents list"]
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "B", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
        {"ph": "E", "name": "b", "ts": 2.0, "pid": 1, "tid": 1},
    ]})
    assert any("does not match open B" in p for p in problems)
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "B", "name": "a", "ts": 2.0, "pid": 1, "tid": 1},
        {"ph": "E", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
    ]})
    assert any("out of order" in p for p in problems)
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "B", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
    ]})
    assert any("left 1 span(s) open" in p for p in problems)
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "i", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
    ]})
    assert any("instant without a valid scope" in p for p in problems)
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "E", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
    ]})
    assert any("E with no open B" in p for p in problems)
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "X", "name": "a", "ts": 1.0, "pid": 1, "tid": 1},
    ]})
    assert any("unsupported phase" in p for p in problems)
    problems = validate_chrome_trace({"traceEvents": [
        {"ph": "B", "ts": 1.0, "pid": 1, "tid": 1},
    ]})
    assert any("missing 'name'" in p for p in problems)
