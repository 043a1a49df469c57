"""One round of one workload, in a process of its own.

``python -m bench.driver --workload W --seed N --seconds T --mode M
--result FILE`` builds a fresh two-worker cluster on a private spill root
under ``bench/out``, loads the data, runs one warm-up op and then issues
ops back to back (closed loop, one client).  ``--mode timed`` is the
end-to-end round (tracing and profiling off); ``--mode traced`` is the
per-layer round.  The result is written to FILE as one JSON object.

The module is safe to re-import: the process transport spawns back-ends
that import the main module again.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from statistics import median

from bench import OUT_DIR, layers, probes
from bench.calib import (
    NominalClock,
    deciles,
    nominal,
    process_cpu_s,
    process_peak_rss_mb,
)
from bench.spans import SpannedCluster, SpanRecorder
from bench.workloads import WORKLOADS

_MAX_TRACED_OPS = 10
_FIXED_COST_SAMPLES = 5


def _backend_pids(cluster):
    pids = [getattr(w.backend, "child_pid", None) for w in cluster.workers]
    return [pid for pid in pids if pid is not None]


def set_up(workload, spill_root, clock, traced=False, transport=None,
           warm_up=True):
    """Build, load, warm up; returns ``(cluster, setup dict, warm-up ok)``.

    Only raw seconds are taken here.  A loop between the steps would
    compete with the back-end processes still starting up and read as a
    slow machine, and one loop on either side of three samples is too
    noisy a scale, so the caller rescales by the mean loop of the whole
    round.  The oracle is computed afterwards, outside every timing.
    """
    marks = [time.perf_counter()]
    cluster = workload.make_cluster(spill_root, traced=traced,
                                    transport=transport)
    marks.append(time.perf_counter())
    workload.load(cluster)
    marks.append(time.perf_counter())
    result = workload.op(cluster) if warm_up else None
    marks.append(time.perf_counter())
    clock.sample()
    if workload.expected is None:
        workload.prepare_oracle()
    setup = {
        "raw_s": marks[-1] - marks[0],
        "steps_raw_s": dict(zip(
            ("cluster", "load", "warmup"),
            (b - a for a, b in zip(marks, marks[1:])),
        )),
    }
    return cluster, setup, workload.check(result) if warm_up else True


def run_ops(workload, cluster, clock, seconds, max_ops=None, recorder=None):
    """Issue ops back to back until ``seconds`` have passed (at least two).

    Returns one record per op.  The driver's own CPU is read around the
    op only, so calibration loops and oracle checks are not in it.
    """
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < 2 or (
        time.perf_counter() < deadline
        and (max_ops is None or len(records) < max_ops)
    ):
        clock.start()
        cpu_before = time.process_time()
        try:
            if recorder is not None:
                with recorder.op(len(records)):
                    result = workload.op(cluster)
            else:
                result = workload.op(cluster)
            failure = None
        except Exception as error:  # noqa: BLE001 - a failed op is a result
            result, failure = None, repr(error)
        cpu = time.process_time() - cpu_before
        raw, nom = clock.stop()
        ok = failure is None and workload.check(result)
        if failure is not None:
            print("op failed: %s" % failure, file=sys.stderr)
        records.append({"raw_s": raw, "nominal_s": nom, "ok": ok,
                        "driver_cpu_s": cpu})
    return records


def timed_round(workload, seconds, spill_root, clock):
    cluster, setup, warm_ok = set_up(workload, spill_root, clock)
    try:
        pids = _backend_pids(cluster)
        first_loop = len(clock.loops) - 1
        backend_cpu = sum(process_cpu_s(pid) for pid in pids)
        ops = run_ops(workload, cluster, clock, seconds)
        backend_cpu = sum(process_cpu_s(pid) for pid in pids) - backend_cpu
        window_loops = clock.loops[first_loop:]
        cpu_s = backend_cpu + sum(op["driver_cpu_s"] for op in ops)
        peak_rss = process_peak_rss_mb(os.getpid()) + sum(
            process_peak_rss_mb(pid) for pid in pids
        )
        stored_bytes, rows = workload.stored
    finally:
        cluster.close()
    setup["nominal_s"] = nominal(setup["raw_s"], clock.loops)
    return {
        "setup": setup,
        "warmup_ok": warm_ok,
        "ops": ops,
        "cpu_nominal_s": nominal(cpu_s, window_loops),
        "peak_rss_mb": peak_rss,
        "stored_bytes_per_row": stored_bytes / rows,
        "loops": clock.loops,
    }


# -- the traced round ------------------------------------------------------------------

def _untraced_phase(workload, seconds, spill_root, clock):
    """Tracing-off ops (the overhead reference) and the fixed job cost."""
    cluster, _setup, warm_ok = set_up(workload, spill_root, clock)
    try:
        ops = run_ops(workload, cluster, clock, seconds,
                      max_ops=_MAX_TRACED_OPS)
        # The same job graph over a 16-row copy of the input: what is
        # left is compile/verify/plan, dispatch and gather.
        workload.load(cluster, small=True)
        workload.op(cluster, small=True)
        small = SpannedCluster(cluster, SpanRecorder())
        times = []
        for _ in range(_FIXED_COST_SAMPLES):
            started = time.perf_counter()
            workload.op(small, small=True)
            times.append(time.perf_counter() - started)
        jobs = len(small.jobs) / _FIXED_COST_SAMPLES
    finally:
        cluster.close()
    return ops, warm_ok, median(times) * 1e3 / jobs


def _journal_state(cluster):
    return cluster.journal.records_written, os.path.getsize(
        cluster.journal.path
    )


def _traced_phase(workload, seconds, spill_root, clock, out):
    cluster, _setup, warm_ok = set_up(workload, spill_root, clock,
                                      traced=True)
    try:
        recorder = SpanRecorder()
        spanned = SpannedCluster(cluster, recorder)
        metrics_before = cluster.metrics()
        records_before, bytes_before = _journal_state(cluster)
        ops = run_ops(workload, spanned, clock, seconds,
                      max_ops=_MAX_TRACED_OPS, recorder=recorder)
        metrics_after = cluster.metrics()
        records_after, bytes_after = _journal_state(cluster)
        n_ops = len(ops)
        out.update(layers.counter_layers(metrics_before, metrics_after,
                                         n_ops))
        out.update(layers.trace_layers(spanned.jobs, recorder.spans, n_ops))
        out["catalog.wal_records_per_op"] = \
            (records_after - records_before) / n_ops
        out["catalog.wal_bytes_per_op"] = (bytes_after - bytes_before) / n_ops
        samples = {}
        for name, (value, count) in {
            **probes.cluster_probes(cluster),
            **probes.catalog_probes(cluster),
        }.items():
            out[name] = value
            samples[name] = count
        recorder.write_jsonl(
            os.path.join(OUT_DIR, "trace-%s.jsonl" % workload.name)
        )
    finally:
        cluster.close()
    return ops, warm_ok, samples


def _profile_phase(workload, spill_root, clock):
    """One op under cProfile on the sim transport: one process sees all."""
    cluster, _setup, _ok = set_up(workload, spill_root, clock,
                                  transport="sim", warm_up=False)
    try:
        results = []
        out = layers.profile_layers(
            lambda: results.append(workload.op(cluster)), workload.rows
        )
    finally:
        cluster.close()
    return out, workload.check(results[0])


def _baseline_phase(workload, clock):
    """Up to three baseline ops (one when it takes over a second)."""
    workload.baseline_prepare()
    samples, ok, spent = [], True, 0.0
    while len(samples) < 3 and spent < 1.0:
        clock.start()
        result = workload.baseline_op()
        raw, nominal_s = clock.stop()
        spent += raw
        samples.append(nominal_s)
        ok = ok and workload.baseline_matches(result)
    return median(samples), len(samples), ok


def traced_round(workload, seconds, spill_root, clock):
    """Every per-layer metric of one workload.

    Three tenths of ``seconds`` go to the tracing-off reference ops and
    half to the traced ops (ten ops at most each); the probes, the profile
    and the baseline run outside both windows.
    """
    out = {}
    untraced, ok_a, out["cluster.job_fixed_ms"] = _untraced_phase(
        workload, seconds * 0.3, os.path.join(spill_root, "untraced"), clock
    )
    traced, ok_b, samples = _traced_phase(
        workload, seconds * 0.5, os.path.join(spill_root, "traced"), clock,
        out,
    )
    samples["cluster.job_fixed_ms"] = _FIXED_COST_SAMPLES
    for probe in (probes.memory_probes, probes.storage_probes):
        for name, (value, count) in probe(
            os.path.join(spill_root, probe.__name__)
        ).items():
            out[name] = value
            samples[name] = count
    profile, ok_c = _profile_phase(
        workload, os.path.join(spill_root, "profile"), clock
    )
    out.update(profile)
    baseline_s, samples["baseline.op_s"], ok_d = _baseline_phase(workload,
                                                                 clock)

    op_s = median(op["nominal_s"] for op in untraced)
    out["cluster.op_s_p90"] = deciles(
        [op["nominal_s"] for op in untraced]
    )[-1]
    samples["cluster.op_s_p90"] = len(untraced)
    out["obs.trace_overhead"] = \
        median(op["nominal_s"] for op in traced) / op_s
    out["baseline.op_s"] = baseline_s
    out["baseline.pc_ratio"] = op_s / baseline_s
    out["bench.calib_ms_p50"] = median(clock.loops) * 1e3
    loop_deciles = deciles(clock.loops)
    out["bench.calib_spread"] = loop_deciles[-1] / loop_deciles[0]
    out["bench.op_s_raw"] = median(op["raw_s"] for op in untraced)
    out["bench.ops"] = len(untraced) + len(traced)
    checks = [op["ok"] for op in untraced + traced] \
        + [ok_a, ok_b, ok_c, ok_d]
    return {"layers": out, "samples": samples,
            "attempted": len(checks), "failed": checks.count(False)}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m bench.driver")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--break-oracle", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed,
                                        break_oracle=args.break_oracle)
    # Named after this process so that the parent can sweep it should
    # this round be killed.
    spill_root = os.path.join(OUT_DIR, "spill-%d" % os.getpid())
    os.makedirs(spill_root)
    try:
        run = timed_round if args.mode == "timed" else traced_round
        with NominalClock(two_cores=workload.busy_cores == 2) as clock:
            result = run(workload, args.seconds, spill_root, clock)
    finally:
        shutil.rmtree(spill_root, ignore_errors=True)
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
