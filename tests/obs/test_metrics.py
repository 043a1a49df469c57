"""Unit tests for the typed metrics layer.

Covers the counter/gauge/histogram primitives, the bucket-boundary
percentile math (satellite: histogram quantiles at exact bucket
boundaries), snapshot merging across per-process registries, and the
trace mirror a counter's name implies.
"""

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    Tracer,
    exponential_buckets,
)
from repro.obs.metrics import quantile_from_buckets, span_counter_name


# ---------------------------------------------------------------------------
# Counters and gauges
# ---------------------------------------------------------------------------

def test_counter_inc_and_total():
    c = Counter("pc_things_total")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_rejects_negative_increments():
    c = Counter("pc_things_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_labeled_series_sum_to_total():
    c = Counter("pc_ops_total", labelnames=("op",))
    c.inc(2, op="apply")
    c.inc(3, op="filter")
    assert c.value_for(op="apply") == 2
    assert c.value_for(op="filter") == 3
    assert c.value == 5
    assert c.series() == {("apply",): 2, ("filter",): 3}


def test_counter_enforces_declared_labelnames():
    c = Counter("pc_ops_total", labelnames=("op",))
    with pytest.raises(ValueError):
        c.inc()  # missing the label
    with pytest.raises(ValueError):
        c.inc(op="apply", extra="nope")


def test_counter_reset():
    c = Counter("pc_things_total")
    c.inc(7)
    c.reset()
    assert c.value == 0


def test_gauge_set_inc_dec():
    g = Gauge("pc_level")
    g.set(10)
    g.inc(5)
    g.dec(3)
    assert g.value == 12


def test_gauge_value_is_the_sum_of_its_series():
    g = Gauge("pc_level", labelnames=("worker",))
    assert g.value == 0
    g.set(3, worker="a")
    assert g.value == 3
    g.set(4, worker="b")
    assert g.value == 7


# ---------------------------------------------------------------------------
# Histogram bucket math (satellite: percentiles at bucket boundaries)
# ---------------------------------------------------------------------------

def test_exponential_buckets_shape():
    assert exponential_buckets(1.0, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]
    with pytest.raises(ValueError):
        exponential_buckets(0, 2.0, 4)
    with pytest.raises(ValueError):
        exponential_buckets(1.0, 1.0, 4)


def test_observation_on_bucket_boundary_lands_in_that_bucket():
    # le semantics: value == upper bound belongs to that bound's bucket.
    h = Histogram("pc_lat_seconds", buckets=[1.0, 2.0, 4.0, 8.0])
    h.observe(2.0)
    (series,) = h.series().values()
    assert series["counts"] == [0, 1, 0, 0, 0]


def test_quantiles_at_bucket_boundaries():
    h = Histogram("pc_lat_seconds", buckets=[1.0, 2.0, 4.0, 8.0])
    for value in (1.0, 2.0, 4.0, 8.0):
        h.observe(value)
    # rank p50 = 2 falls exactly on the cumulative edge of the le=2
    # bucket; interpolation must return the bound itself, not overshoot.
    assert h.quantile(0.5) == 2.0
    assert h.quantile(0.25) == 1.0
    assert h.quantile(1.0) == 8.0


def test_quantile_interpolates_within_a_bucket():
    h = Histogram("pc_lat_seconds", buckets=[1.0, 2.0])
    for _ in range(4):
        h.observe(1.5)  # all mass in the (1, 2] bucket
    # rank = q*4 inside a 4-count bucket spanning (1.0, 2.0]
    assert h.quantile(0.5) == pytest.approx(1.5)
    assert h.quantile(0.25) == pytest.approx(1.25)


def test_overflow_bucket_reports_max_observed():
    h = Histogram("pc_lat_seconds", buckets=[1.0, 2.0])
    h.observe(100.0)
    assert h.quantile(0.99) == 100.0
    assert h.quantile(0.5) == 100.0


def test_quantile_of_empty_histogram_is_none():
    h = Histogram("pc_lat_seconds", buckets=[1.0, 2.0])
    assert h.quantile(0.5) is None


def test_quantile_from_buckets_rejects_bad_q():
    with pytest.raises(ValueError):
        quantile_from_buckets(1.5, [1.0], [1, 0], 1)


def test_labeled_histogram_merges_series_for_unlabeled_quantile():
    h = Histogram("pc_op_seconds", labelnames=("operator",),
                  buckets=[1.0, 2.0, 4.0])
    h.observe(1.0, operator="apply")
    h.observe(4.0, operator="filter")
    assert h.quantile(1.0) == 4.0
    assert h.quantile(1.0, operator="apply") == 1.0
    assert h.count_for(operator="filter") == 1


# ---------------------------------------------------------------------------
# Registry + snapshot merging
# ---------------------------------------------------------------------------

def test_registry_get_or_create_returns_same_metric():
    reg = MetricsRegistry()
    a = reg.counter("pc_x_total")
    b = reg.counter("pc_x_total")
    assert a is b
    with pytest.raises(ValueError):
        reg.gauge("pc_x_total")  # kind conflict


def test_snapshot_stamps_constant_labels():
    reg = MetricsRegistry(labels={"worker": "worker-1"})
    reg.counter("pc_x_total").inc(3)
    snap = reg.snapshot()
    assert snap.value("pc_x_total", worker="worker-1") == 3
    assert snap.labels("pc_x_total") == [{"worker": "worker-1"}]


def test_merge_sums_counters_across_processes():
    snaps = []
    for worker, amount in (("w0", 2), ("w1", 5)):
        reg = MetricsRegistry(labels={"worker": worker})
        reg.counter("pc_pool_pages_pinned_total").inc(amount)
        snaps.append(reg.snapshot())
    merged = MetricsSnapshot.merge(snaps)
    # Per-worker series survive; the unlabeled query sums them.
    assert merged.value("pc_pool_pages_pinned_total") == 7
    assert merged.value("pc_pool_pages_pinned_total", worker="w1") == 5


def test_merge_adds_histograms_bucket_wise():
    snaps = []
    for worker, value in (("w0", 1.0), ("w1", 100.0)):
        reg = MetricsRegistry()  # same label set -> series must merge
        reg.histogram("pc_lat_seconds", buckets=[1.0, 2.0]).observe(value)
        snaps.append(reg.snapshot())
    merged = MetricsSnapshot.merge(snaps)
    family = merged.families["pc_lat_seconds"]
    (series,) = family["series"].values()
    assert series["count"] == 2
    assert series["max"] == 100.0
    assert merged.quantile("pc_lat_seconds", 1.0) == 100.0


def test_snapshot_value_matches_label_subsets():
    reg = MetricsRegistry()
    c = reg.counter("pc_net_link_bytes_total", labelnames=("src", "dst"))
    c.inc(10, src="a", dst="b")
    c.inc(20, src="a", dst="c")
    snap = reg.snapshot()
    assert snap.value("pc_net_link_bytes_total", src="a") == 30
    assert snap.value("pc_net_link_bytes_total", src="a", dst="c") == 20
    assert snap.value("pc_missing_total", default=-1) == -1


def test_on_collect_hooks_run_before_snapshot():
    reg = MetricsRegistry()
    g = reg.gauge("pc_level")
    reg.on_collect(lambda: g.set(42))
    assert reg.snapshot().value("pc_level") == 42


# ---------------------------------------------------------------------------
# Trace mirrors
# ---------------------------------------------------------------------------

def _span_totals(registry, touch):
    """The span counters ``touch(registry)`` leaves on an open span."""
    with registry.tracer.span("job", kind="job"):
        with registry.tracer.span("write"):
            touch(registry)
    return registry.tracer.last_trace.totals()


def test_span_counter_name_is_the_family_dot_rest_less_total():
    assert span_counter_name("pc_repl_replica_writes_total") == \
        "repl.replica_writes"
    assert span_counter_name("pc_net_bytes_total") == "net.bytes"
    assert span_counter_name("pc_net_delay_seconds_total") == \
        "net.delay_seconds"
    assert span_counter_name("pc_worker_reforks_total") == "worker.reforks"
    assert span_counter_name("pc_engine_rows_in_total") == "engine.rows_in"
    assert span_counter_name("pc_pool_in_memory_bytes") == \
        "pool.in_memory_bytes"


def test_mirrored_family_counter_reports_into_active_span():
    reg = MetricsRegistry(tracer=Tracer())
    c = reg.counter("pc_repl_replica_writes_total")
    assert _span_totals(reg, lambda _reg: c.inc(3)) == \
        {"repl.replica_writes": 3}
    assert c.value == 3


def test_labeled_mirror_appends_label_values_in_declaration_order():
    reg = MetricsRegistry(tracer=Tracer())
    c = reg.counter("pc_net_link_bytes_total", labelnames=("src", "dst"))

    def ship(_reg):
        c.inc(64, dst="w1", src="w0")
        c.child(src="w1", dst="w0").inc(8)

    assert _span_totals(reg, ship) == {
        "net.link_bytes.w0.w1": 64, "net.link_bytes.w1.w0": 8,
    }


def test_only_counters_of_a_mirrored_family_mirror():
    reg = MetricsRegistry(tracer=Tracer())

    def touch(reg):
        reg.counter("pc_sched_frontend_tasks_total",
                    labelnames=("reason",)).inc(reason="in_process")
        reg.counter("pc_engine_rows_in_total").inc(5)
        reg.counter("pc_poolside_total").inc()
        reg.counter("baseline_shuffles_total").inc()
        reg.gauge("pc_pool_pages").set(4)
        reg.gauge("pc_sup_rows_consumed", labelnames=("worker",)).set(
            9, worker="w0")
        reg.histogram("pc_sup_recovery_seconds").observe(0.5)
        reg.histogram("pc_net_lag_seconds").child().observe(0.5)

    assert _span_totals(reg, touch) == {}
