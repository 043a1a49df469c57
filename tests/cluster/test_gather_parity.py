"""Gather reads change how a row page is read, never what a job leaves.

With the batch kernels (the array path over row pages, DESIGN §12) and
with the marks removed (every operator down the object path), on the
simulator and on the process transport, the TPC-H jobs and the ETL
selection + join leave the same sealed output-page bytes, the same
Python outputs, and move the same bytes between workers.  Every scanned
row is booked as a gather row, none as a fallback — except under PCSan,
where every marked stage steps aside and says so.
"""

import os

import pytest

from repro.cluster import cluster as cluster_module
from repro.cluster.transport import remote_available

from test_backend_pages import _cluster, _etl, _run_and_dump, _tpch

SANITIZED = os.environ.get("PC_SANITIZE") == "1"
TRANSPORTS = ["sim"] + (["process"] if remote_available() else [])


def _fallbacks(snapshot):
    family = snapshot.families.get("pc_engine_kernel_fallback_total")
    out = {}
    for labels, count in (family or {"series": {}})["series"].items():
        labels = dict(labels)
        key = labels["operator"], labels["reason"]
        out[key] = out.get(key, 0) + count
    return out


@pytest.mark.parametrize("jobs, cluster_args", [
    (_tpch, dict(page_size=1 << 13)),
    (_etl, dict(page_size=1 << 15)),
], ids=["tpch", "etl"])
def test_kernels_leave_what_the_object_path_leaves(tmp_path, monkeypatch,
                                                   jobs, cluster_args):
    with monkeypatch.context() as patch:
        patch.setattr(cluster_module, "mark_columnar",
                      lambda program, layout_of: 0)
        reference = _run_and_dump(tmp_path / "unmarked", "sim", jobs,
                                  **cluster_args)
    assert reference[2] > 0
    for transport in TRANSPORTS:
        assert _run_and_dump(tmp_path / "marked", transport, jobs,
                             **cluster_args) == reference, transport


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_every_scanned_row_is_a_gather_row(tmp_path, transport):
    with _cluster(tmp_path, transport, page_size=1 << 13,
                  profiling=True) as cluster:
        _tpch(cluster)
        snapshot = cluster.metrics()
        scanned = snapshot.value("pc_engine_rows_in_total")
        by_path = {
            path: snapshot.value("pc_op_%s_total" % path, operator="apply")
            for path in ("gather_rows", "columnar_rows")
        }
        spans = [span for trace in cluster.traces(2)
                 for span in trace.spans(kind="op")]
        alone = sum(record.count == 1 for record in cluster.catalog
                    .set_metadata("tpch", "customers").pages.values())
    # 60 customers twice: constant, filter and kernel; two kernels.
    assert scanned >= 2 * 60
    # The load's own: a customer that fills a page alone is built object
    # by object, and counted once.
    fallbacks = _fallbacks(snapshot)
    assert fallbacks.pop(("object_build", "one_per_page")) == alone > 0
    if SANITIZED:
        # one per page and job: the first kernel to read the page
        assert set(fallbacks) == {("apply", "sanitizer")}
        assert sum(s.counters.get("op.kernel_fallback.sanitizer", 0)
                   for s in spans if s.name == "apply") \
            == fallbacks["apply", "sanitizer"] >= 2
        return
    assert fallbacks == {}
    assert snapshot.value("pc_engine_gather_rows_total") == 5 * 60
    assert by_path == {"gather_rows": 4 * 60, "columnar_rows": 0}
    assert sum(s.counters.get("op.apply.gather_rows", 0) for s in spans) \
        == 4 * 60
