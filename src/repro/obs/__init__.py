"""Observability: job traces, typed metrics, operator records, and exposition."""

from repro.obs.events import FlightRecorder, read_ring
from repro.obs.export import (
    HealthCheck,
    HealthStatus,
    render_metrics,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    exponential_buckets,
)
from repro.obs.report import render_trace
from repro.obs.timeline import to_chrome_trace, validate_chrome_trace, \
    write_chrome_trace
from repro.obs.top import ClusterTop
from repro.obs.tracer import Span, Trace, Tracer

__all__ = [
    "ClusterTop",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HealthCheck",
    "HealthStatus",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "Trace",
    "Tracer",
    "exponential_buckets",
    "read_ring",
    "render_metrics",
    "render_trace",
    "to_chrome_trace",
    "to_json",
    "to_prometheus",
    "validate_chrome_trace",
    "write_chrome_trace",
]
