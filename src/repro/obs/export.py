"""Exposition of a :class:`~repro.obs.metrics.MetricsSnapshot`.

Three surfaces over the same snapshot:

* :func:`to_prometheus` — Prometheus text-exposition format.  Counters
  and gauges render one sample per series; histograms render the
  ``_bucket``/``_sum``/``_count`` triple plus summary-style
  ``{quantile="0.5|0.95|0.99"}`` series computed from the buckets, so a
  scrape sees per-stage and per-operator p50/p95/p99 latency directly.
* :func:`to_json` — the snapshot as a JSON document (for machines and
  test fixtures).
* :func:`render_metrics` — a terminal summary (top counters, per-operator
  latency table), the metrics sibling of
  :func:`~repro.obs.report.render_trace`.

Plus :class:`HealthCheck`: a rule set evaluated from the snapshot
(buffer-pool hit rate, replication factor satisfied, blacklisted
workers, outstanding corruption) that turns the same numbers into a
ready/degraded verdict — ``PCCluster.health()``.
"""

from __future__ import annotations

import json

from repro.obs.metrics import EXPORT_QUANTILES


def _escape_label_value(value):
    return str(value).replace("\\", "\\\\").replace("\n", "\\n") \
        .replace('"', '\\"')


def _format_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value == int(value) and \
            abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(label_pairs):
    if not label_pairs:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (name, _escape_label_value(value))
        for name, value in label_pairs
    )


def to_prometheus(snapshot):
    """The snapshot in Prometheus text-exposition format."""
    lines = []
    for name in snapshot.names():
        family = snapshot.families[name]
        kind = family["kind"]
        if family["help"]:
            lines.append("# HELP %s %s" % (name, family["help"]))
        lines.append("# TYPE %s %s" % (name, kind))
        if kind != "histogram":
            for labels, value in sorted(family["series"].items()):
                lines.append(
                    "%s%s %s" % (name, _format_labels(labels),
                                 _format_value(value))
                )
            continue
        bounds = family["bounds"]
        for labels, series in sorted(family["series"].items()):
            cumulative = 0
            for bound, count in zip(bounds, series["counts"]):
                cumulative += count
                lines.append("%s_bucket%s %d" % (
                    name,
                    _format_labels(labels + (("le", "%g" % bound),)),
                    cumulative,
                ))
            lines.append("%s_bucket%s %d" % (
                name, _format_labels(labels + (("le", "+Inf"),)),
                series["count"],
            ))
            lines.append("%s_sum%s %s" % (
                name, _format_labels(labels), _format_value(series["sum"])
            ))
            lines.append("%s_count%s %d" % (
                name, _format_labels(labels), series["count"]
            ))
        # Summary-style quantiles computed from the buckets: the p50/p95
        # operator-latency series the acceptance bench asserts on.
        for labels in sorted(family["series"]):
            for q in EXPORT_QUANTILES:
                value = snapshot.quantile(name, q, **dict(labels))
                lines.append("%s%s %s" % (
                    name,
                    _format_labels(labels + (("quantile", "%g" % q),)),
                    _format_value(value),
                ))
    return "\n".join(lines) + "\n"


def to_json(snapshot, indent=2):
    """The snapshot as a JSON document (sorted, reproducible)."""
    families = {}
    for name in snapshot.names():
        family = snapshot.families[name]
        series = []
        for labels, value in sorted(family["series"].items()):
            entry = {"labels": dict(labels)}
            if family["kind"] == "histogram":
                entry.update(value)
                entry["quantiles"] = {
                    "%g" % q: snapshot.quantile(name, q, **dict(labels))
                    for q in EXPORT_QUANTILES
                }
            else:
                entry["value"] = value
            series.append(entry)
        families[name] = {
            "kind": family["kind"],
            "help": family["help"],
            "series": series,
        }
        if family["kind"] == "histogram":
            families[name]["bounds"] = family["bounds"]
    return json.dumps(families, indent=indent, sort_keys=True)


def render_metrics(snapshot, max_series=6):
    """A terminal summary: counters/gauges, then latency quantiles."""
    lines = []
    histograms = []
    for name in snapshot.names():
        family = snapshot.families[name]
        if family["kind"] == "histogram":
            histograms.append(name)
            continue
        for labels, value in sorted(family["series"].items())[:max_series]:
            lines.append("  %-44s %s" % (
                "%s%s" % (name, _format_labels(labels)),
                _format_value(value),
            ))
        extra = len(family["series"]) - max_series
        if extra > 0:
            lines.append("  %-44s (+%d more series)" % (name, extra))
    if histograms:
        lines.append("")
        lines.append("  %-44s %10s %10s %10s %8s" % (
            "latency", "p50_ms", "p95_ms", "p99_ms", "count"
        ))
        for name in histograms:
            family = snapshot.families[name]
            for labels in sorted(family["series"]):
                quantiles = [
                    snapshot.quantile(name, q, **dict(labels))
                    for q in EXPORT_QUANTILES
                ]
                count = family["series"][labels]["count"]
                lines.append("  %-44s %10.3f %10.3f %10.3f %8d" % (
                    "%s%s" % (name, _format_labels(labels)),
                    *(1e3 * (q or 0.0) for q in quantiles),
                    count,
                ))
    return "metrics (cluster-wide):\n" + "\n".join(lines)


# ---------------------------------------------------------------------------
# Health checks
# ---------------------------------------------------------------------------

class HealthStatus:
    """One evaluated rule: name, verdict, human detail."""

    def __init__(self, name, ok, detail):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        return "<HealthStatus %s %s: %s>" % (
            self.name, "OK" if self.ok else "FAIL", self.detail
        )


class HealthCheck:
    """A named rule set evaluated against a metrics snapshot.

    Rules are ``(name, fn)`` where ``fn(snapshot) -> (ok, detail)``.
    :meth:`default` builds the stock cluster rule set; callers can
    :meth:`add_rule` their own (e.g. an SLO on p95 stage latency).
    """

    def __init__(self, rules=None):
        self.rules = list(rules or [])

    def add_rule(self, name, fn):
        self.rules.append((name, fn))
        return self

    def evaluate(self, snapshot):
        return [
            HealthStatus(name, *fn(snapshot)) for name, fn in self.rules
        ]

    def ok(self, snapshot):
        return all(status.ok for status in self.evaluate(snapshot))

    @classmethod
    def default(cls, min_pool_hit_rate=0.5):
        check = cls()

        def pool_hit_rate(snapshot):
            pins = snapshot.value("pc_pool_pages_pinned_total")
            reloads = snapshot.value("pc_pool_reloads_total")
            if pins <= 0:
                return True, "no buffer-pool activity yet"
            rate = 1.0 - reloads / pins
            return rate >= min_pool_hit_rate, (
                "hit rate %.3f (%d pins, %d reloads), floor %.2f"
                % (rate, pins, reloads, min_pool_hit_rate)
            )

        def replication_satisfied(snapshot):
            satisfied = snapshot.value(
                "pc_cluster_replication_satisfied", default=1
            )
            return bool(satisfied), (
                "every page at its set's replication factor"
                if satisfied else "some pages are under-replicated"
            )

        def no_blacklisted_workers(snapshot):
            blacklisted = snapshot.value("pc_cluster_workers_blacklisted")
            active = snapshot.value("pc_cluster_workers_active")
            return blacklisted == 0, (
                "%d worker(s) blacklisted, %d active"
                % (blacklisted, active)
            )

        def corruption_healed(snapshot):
            failures = snapshot.value("pc_repl_checksum_failures_total")
            healed = snapshot.value("pc_repl_pages_healed_total")
            ok = failures == 0 or healed > 0
            return ok, (
                "%d corrupt cop%s detected, %d healed"
                % (failures, "y" if failures == 1 else "ies", healed)
            )

        check.add_rule("buffer-pool-hit-rate", pool_hit_rate)
        check.add_rule("replication-factor-satisfied", replication_satisfied)
        check.add_rule("no-blacklisted-workers", no_blacklisted_workers)
        check.add_rule("corruption-healed", corruption_healed)
        return check
