"""``python3 -m bench``: run workloads, print metrics, end with the JSON line.

``--workload W --trace 0|1`` is one run of one pass (the driver's
contract): the end-to-end pass splits ``--seconds`` over ``--rounds``
fresh driver processes and so sets up ``--rounds`` times; the traced pass
is one driver process that yields every per-layer metric.  Without
``--workload`` every workload runs; without ``--trace`` both passes run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

from bench import OUT_DIR
from bench.spec import (
    END_TO_END,
    END_TO_END_BOUNDS,
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORKLOAD_NAMES,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ROUND_TIMEOUT_S = 170


def _group_alive(pgid):
    """Whether any process of the group is still running (zombies are not:
    they have ended and only wait for init to reap them)."""
    for stat_path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat_path) as f:
                state, _ppid, pgrp = f.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # gone between the listing and the read
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _wait_for_group(pgid, grace_s=5.0):
    """Wait until every process of the round's session has ended (the
    multiprocessing resource tracker outlives the driver by a moment);
    kill what is left after ``grace_s``."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
        time.sleep(0.02)


def run_round(workload, seed, seconds, mode, break_oracle=False):
    """One ``bench.driver`` process; returns its result dict.

    The round's stdout and stderr (the back-ends' ``resource_tracker``
    tracebacks at ``cluster.close()`` among them) go to
    ``bench/out/<workload>.log``.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(
        OUT_DIR, "result-%s-%d.json" % (workload, os.getpid())
    )
    command = [sys.executable, "-m", "bench.driver", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--mode", mode, "--result", result_path]
    if break_oracle:
        command.append("--break-oracle")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(os.path.join(OUT_DIR, "%s.log" % workload), "a") as log:
        child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                 stderr=log, start_new_session=True)
        try:
            code = child.wait(timeout=_ROUND_TIMEOUT_S)
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
            _wait_for_group(child.pid)
            shutil.rmtree(os.path.join(OUT_DIR, "spill-%d" % child.pid),
                          ignore_errors=True)
    try:
        if code != 0:
            raise RuntimeError(
                "%s round of %s exited with code %d; see %s"
                % (mode, workload, code, log.name)
            )
        with open(result_path) as f:
            result = json.load(f)
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)
    # Buffer pools name their segments pc<coordinator pid>-...; the
    # coordinator was this round's driver process.
    result["shm_leaked"] = len(glob.glob("/dev/shm/pc%d-*" % child.pid))
    return result


def end_to_end_pass(workload, seed, seconds, rounds, break_oracle=False):
    """``rounds`` timed rounds; returns ``(metrics, samples, attempted,
    failed, diagnostics)``."""
    results = [
        run_round(workload, seed, seconds / rounds, "timed", break_oracle)
        for _ in range(rounds)
    ]
    ops = [op for result in results for op in result["ops"]]
    checks = [op["ok"] for op in ops] + [r["warmup_ok"] for r in results]
    metrics = {
        "setup_s": median(r["setup"]["nominal_s"] for r in results),
        "op_s": median(op["nominal_s"] for op in ops),
        "cpu_s_per_op": sum(r["cpu_nominal_s"] for r in results) / len(ops),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        "stored_bytes_per_row": results[0]["stored_bytes_per_row"],
    }
    samples = {"setup_s": rounds, "op_s": len(ops), "cpu_s_per_op": len(ops),
               "peak_rss_mb": rounds}
    diagnostics = {
        "op_s_raw": median(op["raw_s"] for op in ops),
        "setup_s_raw": median(r["setup"]["raw_s"] for r in results),
        "shm_leaked": sum(r["shm_leaked"] for r in results),
    }
    return metrics, samples, len(checks), checks.count(False), diagnostics


def traced_pass(workload, seed, seconds, break_oracle=False):
    result = run_round(workload, seed, seconds, "traced", break_oracle)
    metrics = result["layers"]
    metrics["bench.shm_leaked"] = result["shm_leaked"]
    return metrics, result["samples"], result["attempted"], result["failed"]


def _print_table(workload, metrics, units, samples):
    for name, value in metrics.items():
        count = samples.get(name)
        print("%-18s %-38s %16.6f %-6s%s" % (
            workload, name, value, units[name],
            "  n=%d" % count if count else "",
        ))
    sys.stdout.flush()


def _as_result(metrics, units):
    return {name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()}


def run(args):
    """The normal mode; returns ``(result dict, exit code)``."""
    passes = {"0": ("end_to_end",), "1": ("per_layer",),
              None: ("end_to_end", "per_layer")}[args.trace]
    attempted = failed = 0
    by_workload = {}
    for workload in args.workload:
        merged = {}
        if "end_to_end" in passes:
            metrics, samples, n, bad, diagnostics = end_to_end_pass(
                workload, args.seed, args.seconds, args.rounds,
                args.break_oracle,
            )
            _print_table(workload, metrics, END_TO_END_UNITS, samples)
            print("%-18s %-38s %d of %d  (raw op %.4f s, raw set-up %.3f s, "
                  "shm leaked %d)" % (workload, "failed_ops", bad, n,
                                      diagnostics["op_s_raw"],
                                      diagnostics["setup_s_raw"],
                                      diagnostics["shm_leaked"]))
            attempted, failed = attempted + n, failed + bad
            merged.update(_as_result(metrics, END_TO_END_UNITS))
        if "per_layer" in passes:
            metrics, samples, n, bad = traced_pass(
                workload, args.seed, args.seconds, args.break_oracle
            )
            _print_table(workload, metrics, PER_LAYER_UNITS, samples)
            attempted, failed = attempted + n, failed + bad
            merged.update(_as_result(metrics, PER_LAYER_UNITS))
        by_workload[workload] = merged
    metrics = by_workload[args.workload[0]] if len(args.workload) == 1 \
        else by_workload
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, 0 if failed == 0 else 1


def check_repeat(args):
    """The end-to-end pass twice; the two must agree within each bound."""
    worst = 0
    attempted = failed = 0
    print("%-18s %-22s %14s %14s %9s %7s" % (
        "workload", "metric", "first", "second", "rel.diff", "bound"))
    for workload in args.workload:
        values = []
        for _ in range(2):
            metrics, _samples, n, bad, _diagnostics = end_to_end_pass(
                workload, args.seed, args.seconds, args.rounds
            )
            values.append(metrics)
            attempted, failed = attempted + n, failed + bad
        for name, _unit, _better, _bound in END_TO_END:
            a, b = values[0][name], values[1][name]
            diff = abs(b - a) / a
            bound = END_TO_END_BOUNDS[name]
            flag = "" if diff <= bound else "  DISAGREE"
            worst += diff > bound
            print("%-18s %-22s %14.6f %14.6f %8.2f%% %6.1f%%%s" % (
                workload, name, a, b, diff * 100, bound * 100, flag))
        sys.stdout.flush()
    result = {"correct": failed == 0 and worst == 0, "attempted": attempted,
              "failed": failed, "metrics": {}}
    return result, 0 if result["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured time per workload and pass")
    parser.add_argument("--rounds", type=int, default=3,
                        help="fresh driver processes (set-ups) per "
                             "end-to-end pass")
    parser.add_argument("--trace", choices=("0", "1"),
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--break-oracle", action="store_true",
                        help="self-test: every op must count as failed")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOAD_NAMES)
    result, code = (check_repeat if args.check_repeat else run)(args)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
