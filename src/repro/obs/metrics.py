"""Typed metrics: Counter / Gauge / Histogram behind a process registry.

The trace layer (:mod:`repro.obs.tracer`) attributes quantities to the
job stage that caused them; this module is the *continuous* complement —
monotonic counters, point-in-time gauges, and log-bucketed latency
histograms that survive across jobs, merge across the simulated
processes, and export in Prometheus text-exposition format
(:mod:`repro.obs.export`).

Design points:

* **One registry per simulated process.**  The master and every worker
  front-end own a :class:`MetricsRegistry`; a registry can carry
  *constant labels* (``{"worker": "worker-3"}``) stamped onto every
  series at snapshot time, so ``PCCluster.metrics()`` can merge all
  registries into one cluster-wide :class:`MetricsSnapshot` without name
  collisions.

* **Trace mirrors, by one rule.**  A counter ``pc_<family>_<rest>`` of
  a family in :data:`MIRRORED_FAMILIES` *also* reports each increment
  into the active trace span, as ``<family>.<rest>`` less a trailing
  ``_total``, with its label values appended as ``.<value>`` in
  declaration order (``pc_net_link_bytes_total{src,dst}`` ->
  ``net.link_bytes.<src>.<dst>``): one declaration, one increment, two
  readers — ``cluster.metrics()`` for the lifetime value, the span for
  attribution.  Gauges and histograms never mirror.

* **Histograms** use fixed log-scaled buckets (upper bounds, ``le``
  semantics: an observation equal to a bound lands in that bound's
  bucket).  ``quantile(q)`` interpolates linearly inside the bucket the
  rank falls into, exactly like PromQL's ``histogram_quantile``; the
  overflow bucket reports the maximum observed value.
"""

from __future__ import annotations

import bisect


def exponential_buckets(start, factor, count):
    """``count`` log-scaled upper bounds: start, start*factor, ..."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    bounds, bound = [], start
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return bounds


#: Default latency buckets: 1 µs .. ~33 s, doubling.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(1e-6, 2.0, 26)

#: The quantiles exported as Prometheus ``quantile=`` series.
EXPORT_QUANTILES = (0.5, 0.95, 0.99)

#: The families whose counters mirror into the active trace span.
MIRRORED_FAMILIES = (
    "pool", "net", "repl", "faults", "san", "sup", "trace", "worker",
)
_MIRRORED_PREFIXES = tuple("pc_%s_" % family for family in MIRRORED_FAMILIES)


def span_counter_name(name):
    """The span counter that reads metric ``pc_<family>_<rest>``:
    ``<family>.<rest>``, less a trailing ``_total``."""
    _pc, family, rest = name.split("_", 2)
    return "%s.%s" % (family, rest.removesuffix("_total"))


class _Metric:
    """Shared bookkeeping for all metric kinds."""

    kind = "untyped"

    def __init__(self, name, help="", labelnames=()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry = None  # set on registration (for trace mirrors)

    def _key(self, labels):
        # Fast path: kwargs arrive in declaration order (the hot-path
        # callers — scheduler, network — always do), so a tuple compare
        # avoids building two sets per increment.
        if tuple(labels) == self.labelnames:
            return tuple(str(value) for value in labels.values())
        if set(labels) != set(self.labelnames):
            raise ValueError(
                "metric %s takes labels %r, got %r"
                % (self.name, self.labelnames, tuple(labels))
            )
        return tuple(str(labels[n]) for n in self.labelnames)


class _CounterChild:
    """One pre-resolved labeled series: the allocation-free hot path.

    Obtained via :meth:`Counter.child`; skips per-call label validation
    and trace-name building (both are done once, at resolution time).
    """

    __slots__ = ("_metric", "_values", "_series_key", "_trace_name")

    def __init__(self, metric, series_key):
        self._metric = metric
        self._values = metric._values
        self._series_key = series_key
        self._trace_name = metric._trace_name_for(series_key)

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError(
                "counter %s cannot decrease" % self._metric.name
            )
        key = self._series_key
        self._values[key] = self._values.get(key, 0) + amount
        if self._trace_name is not None:
            registry = self._metric._registry
            if registry is not None and registry.tracer is not None:
                registry.tracer.add(self._trace_name, amount)


class Counter(_Metric):
    """A monotonically increasing count (optionally labeled)."""

    kind = "counter"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._values = {}  # label-values tuple -> number
        #: the span counter the unlabeled series mirrors into, or None
        self.trace_name = (
            span_counter_name(name) if name.startswith(_MIRRORED_PREFIXES)
            else None
        )

    def _trace_name_for(self, key):
        """The span counter of the series with label values ``key``."""
        if self.trace_name is None or not key:
            return self.trace_name
        return ".".join((self.trace_name,) + key)

    def inc(self, amount=1, **labels):
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount
        if self.trace_name is not None and self._registry is not None \
                and self._registry.tracer is not None:
            self._registry.tracer.add(self._trace_name_for(key), amount)

    def child(self, **labels):
        """A pre-resolved handle on one labeled series (hot paths)."""
        return _CounterChild(self, self._key(labels))

    @property
    def value(self):
        """Sum over every labeled series (the unlabeled total)."""
        return sum(self._values.values())

    def value_for(self, **labels):
        return self._values.get(self._key(labels), 0)

    def series(self):
        return dict(self._values)

    def reset(self):
        self._values.clear()


class Gauge(_Metric):
    """A value that can go up and down (capacity, occupancy, flags)."""

    kind = "gauge"

    def __init__(self, name, help="", labelnames=()):
        super().__init__(name, help, labelnames)
        self._values = {}

    def set(self, value, **labels):
        self._values[self._key(labels)] = value

    def inc(self, amount=1, **labels):
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount=1, **labels):
        self.inc(-amount, **labels)

    @property
    def value(self):
        """Sum over every labeled series."""
        return sum(self._values.values())

    def value_for(self, **labels):
        return self._values.get(self._key(labels), 0)

    def series(self):
        return dict(self._values)

    def reset(self):
        self._values.clear()


class _HistogramSeries:
    """One labeled child of a histogram: bucket counts + sum/count/min/max."""

    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, n_buckets):
        self.counts = [0] * (n_buckets + 1)  # + overflow bucket
        self.sum = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def observe(self, value, bounds):
        # le semantics: value == bound lands in that bound's bucket.
        self.counts[bisect.bisect_left(bounds, value)] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def as_dict(self):
        return {
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


def quantile_from_buckets(q, bounds, counts, count, max_observed=None):
    """PromQL-style ``histogram_quantile`` over explicit bucket counts.

    ``bounds`` are the finite upper bounds; ``counts`` has one extra
    trailing entry (the overflow bucket).  Linear interpolation inside
    the target bucket, from the previous bound (0.0 before the first).
    A rank landing in the overflow bucket returns the max observed value
    when known, else the last finite bound.
    """
    if count <= 0:
        return None
    if not 0 <= q <= 1:
        raise ValueError("quantile must be in [0, 1], got %r" % (q,))
    rank = q * count
    cumulative, previous = 0, 0.0
    for bound, bucket_count in zip(bounds, counts):
        if bucket_count and cumulative + bucket_count >= rank:
            fraction = (rank - cumulative) / bucket_count
            return previous + (bound - previous) * max(0.0, fraction)
        cumulative += bucket_count
        previous = bound
    return max_observed if max_observed is not None else bounds[-1]


class _HistogramChild:
    """One pre-resolved labeled histogram series (see ``Histogram.child``)."""

    __slots__ = ("_series", "_bounds")

    def __init__(self, metric, series):
        self._series = series
        self._bounds = metric.bounds

    def observe(self, value):
        self._series.observe(value, self._bounds)


class Histogram(_Metric):
    """Fixed log-scaled buckets with p50/p95/p99 via interpolation."""

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=None):
        super().__init__(name, help, labelnames)
        self.bounds = list(buckets) if buckets else list(
            DEFAULT_LATENCY_BUCKETS
        )
        if self.bounds != sorted(self.bounds):
            raise ValueError("histogram buckets must be sorted")
        self._series = {}  # label-values tuple -> _HistogramSeries

    def _child(self, labels):
        key = self._key(labels)
        child = self._series.get(key)
        if child is None:
            child = self._series[key] = _HistogramSeries(len(self.bounds))
        return child

    def observe(self, value, **labels):
        self._child(labels).observe(value, self.bounds)

    def child(self, **labels):
        """A pre-resolved handle on one labeled series (hot paths)."""
        return _HistogramChild(self, self._child(labels))

    def quantile(self, q, **labels):
        """The q-quantile of one labeled series (all merged when unlabeled
        and the histogram has labels)."""
        if not labels and self.labelnames:
            merged = _HistogramSeries(len(self.bounds))
            for child in self._series.values():
                merged.counts = [
                    a + b for a, b in zip(merged.counts, child.counts)
                ]
                merged.count += child.count
                if child.max is not None:
                    merged.max = (
                        child.max if merged.max is None
                        else max(merged.max, child.max)
                    )
            child = merged
        else:
            child = self._series.get(self._key(labels))
        if child is None:
            return None
        return quantile_from_buckets(
            q, self.bounds, child.counts, child.count, child.max
        )

    def count_for(self, **labels):
        child = self._series.get(self._key(labels))
        return child.count if child is not None else 0

    def series(self):
        return {key: child.as_dict() for key, child in self._series.items()}

    def reset(self):
        self._series.clear()


class MetricsRegistry:
    """Per-process home of every metric; snapshot/merge for aggregation."""

    def __init__(self, labels=None, tracer=None):
        #: constant labels stamped on every series at snapshot time
        self.constant_labels = dict(labels or {})
        #: optional tracer the mirrored families' counters report into
        self.tracer = tracer
        self._metrics = {}  # name -> metric
        self._collect_hooks = []

    # -- registration (get-or-create) ------------------------------------------

    def _register(self, cls, name, help, labelnames, **kwargs):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    "metric %s already registered as %s, not %s"
                    % (name, metric.kind, cls.kind)
                )
            return metric
        metric = cls(name, help=help, labelnames=labelnames, **kwargs)
        metric._registry = self
        self._metrics[name] = metric
        return metric

    def counter(self, name, help="", labelnames=()):
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()):
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=None):
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    # -- introspection -----------------------------------------------------------

    def metrics(self):
        return list(self._metrics.values())

    def get(self, name):
        return self._metrics.get(name)

    # -- snapshots ----------------------------------------------------------------

    def on_collect(self, hook):
        """Register a callable run just before every snapshot (gauges)."""
        self._collect_hooks.append(hook)

    def snapshot(self):
        """An immutable :class:`MetricsSnapshot` of this registry."""
        for hook in self._collect_hooks:
            hook()
        constant = tuple(sorted(self.constant_labels.items()))
        families = {}
        for name, metric in sorted(self._metrics.items()):
            series = {}
            for key, value in metric.series().items():
                labels = constant + tuple(
                    zip(metric.labelnames, key)
                )
                series[labels] = value
            family = {
                "kind": metric.kind,
                "help": metric.help,
                "series": series,
            }
            if metric.kind == "histogram":
                family["bounds"] = list(metric.bounds)
            families[name] = family
        return MetricsSnapshot(families)


class MetricsSnapshot:
    """A merged, serializable view over one or more registries.

    Series are keyed by ``(name, ((label, value), ...))``; merging sums
    counters and gauges and adds histograms bucket-wise, so snapshots
    from the master and every worker process collapse into one
    cluster-wide surface.
    """

    def __init__(self, families=None):
        self.families = families or {}

    # -- merging -------------------------------------------------------------------

    @classmethod
    def merge(cls, snapshots):
        merged = cls()
        for snapshot in snapshots:
            merged._merge_one(snapshot)
        return merged

    def _merge_one(self, snapshot):
        for name, family in snapshot.families.items():
            mine = self.families.get(name)
            if mine is None:
                self.families[name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "series": dict(family["series"]),
                }
                if "bounds" in family:
                    self.families[name]["bounds"] = list(family["bounds"])
                continue
            if mine["kind"] != family["kind"]:
                raise ValueError(
                    "metric %s merged with conflicting kinds %s/%s"
                    % (name, mine["kind"], family["kind"])
                )
            for labels, value in family["series"].items():
                existing = mine["series"].get(labels)
                if existing is None:
                    mine["series"][labels] = value
                elif mine["kind"] == "histogram":
                    mine["series"][labels] = _merge_histogram_series(
                        existing, value
                    )
                else:
                    mine["series"][labels] = existing + value

    # -- queries -------------------------------------------------------------------

    def names(self):
        return sorted(self.families)

    def value(self, name, default=0, **labels):
        """Sum of a family's series matching the given label subset."""
        family = self.families.get(name)
        if family is None:
            return default
        if family["kind"] == "histogram":
            raise ValueError("use quantile()/count() for histogram %s" % name)
        want = {(k, str(v)) for k, v in labels.items()}
        total, seen = 0, False
        for series_labels, value in family["series"].items():
            if want <= set(series_labels):
                total += value
                seen = True
        return total if seen else default

    def labels(self, name):
        """Every label set a family has a series for."""
        family = self.families.get(name)
        if family is None:
            return []
        return [dict(key) for key in family["series"]]

    def quantile(self, name, q, **labels):
        """q-quantile over the matching histogram series, merged."""
        family = self.families.get(name)
        if family is None or family["kind"] != "histogram":
            return None
        bounds = family["bounds"]
        counts, count, max_observed = None, 0, None
        want = {(k, str(v)) for k, v in labels.items()}
        for series_labels, series in family["series"].items():
            if not want <= set(series_labels):
                continue
            if counts is None:
                counts = list(series["counts"])
            else:
                counts = [a + b for a, b in zip(counts, series["counts"])]
            count += series["count"]
            if series["max"] is not None:
                max_observed = (
                    series["max"] if max_observed is None
                    else max(max_observed, series["max"])
                )
        if counts is None:
            return None
        return quantile_from_buckets(q, bounds, counts, count, max_observed)

    # -- export (delegates; see repro.obs.export) -----------------------------------

    def to_prometheus(self):
        from repro.obs.export import to_prometheus

        return to_prometheus(self)

    def to_json(self, indent=2):
        from repro.obs.export import to_json

        return to_json(self, indent=indent)

    def render(self):
        from repro.obs.export import render_metrics

        return render_metrics(self)


def _merge_histogram_series(a, b):
    merged = {
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "sum": a["sum"] + b["sum"],
        "count": a["count"] + b["count"],
        "min": a["min"] if b["min"] is None else (
            b["min"] if a["min"] is None else min(a["min"], b["min"])
        ),
        "max": a["max"] if b["max"] is None else (
            b["max"] if a["max"] is None else max(a["max"], b["max"])
        ),
    }
    return merged
