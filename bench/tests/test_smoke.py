"""Smoke test of the benchmark itself.

Run with ``python -m pytest bench/tests -q`` from the repository root (it
is not part of tier-1: ``pyproject.toml`` collects ``tests/`` only).
Every workload runs both passes once with ``--rounds 1 --seconds 1``, two
workloads at a time so the whole file stays under a minute on two cores.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    done = subprocess.run(
        BENCHMARK["command"] + list(args), cwd=ROOT,
        capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def outputs():
    def one(workload):
        return _bench("--workload", workload, "--seed", "3",
                      "--rounds", "1", "--seconds", "1")

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(WORKLOADS, pool.map(one, WORKLOADS)))


def test_benchmark_json_matches_spec_and_limits():
    sys.path.insert(0, ROOT)
    from bench import spec

    assert list(BENCHMARK) == ["command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] \
        == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == spec.PER_LAYER
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = WORKLOADS + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"]
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_once(outputs, workload):
    code, lines = outputs[workload]
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == wanted
    table = [line.split() for line in lines[:-1]]
    for name in wanted:
        rows = [row for row in table if row[:2] == [workload, name]]
        assert len(rows) == 1, name
    shares = [m["value"] for name, m in result["metrics"].items()
              if name.startswith("prof.self_share.")]
    assert abs(sum(shares) - 1.0) <= 0.01
    assert result["metrics"]["bench.shm_leaked"]["value"] == 0


def test_a_wrong_oracle_fails_every_op():
    code, lines = _bench("--workload", "kmeans_iter", "--seed", "3",
                         "--rounds", "1", "--seconds", "1", "--trace", "0",
                         "--break-oracle")
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
