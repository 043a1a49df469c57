"""Human-readable rendering of a :class:`~repro.obs.Trace`.

``render_trace`` turns the span tree into an indented text report with
per-span wall times and counters — the quick look at where a job spent
its time that ``examples/quickstart.py`` prints.
"""

from __future__ import annotations

#: Counters promoted to the one-line summary next to each span.
_HEADLINE_COUNTERS = (
    "engine.rows_in",
    "engine.rows_out",
    "net.bytes_zero_copy",
    "net.bytes_rows",
    "pool.pages_pinned",
    "op.wall_ms",
)


def _fmt_value(value):
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)


def _span_line(span, indent):
    parts = ["%s%s %s" % ("  " * indent, span.kind, span.name)]
    if span.detail:
        parts.append("(%s)" % span.detail)
    parts.append("%8.3f ms" % (span.duration_s * 1e3))
    headline = [
        "%s=%s" % (name, _fmt_value(span.counters[name]))
        for name in _HEADLINE_COUNTERS
        if name in span.counters
    ]
    if headline:
        parts.append(" ".join(headline))
    return "  ".join(parts)


def render_trace(trace, counters=True):
    """Render a trace as indented text, one line per span.

    With ``counters=True`` a rolled-up counter block is appended after
    the tree so job totals (network byte splits, buffer-pool activity,
    engine tuple counts) are readable without summing by hand.
    """
    lines = []

    def visit(span, indent):
        lines.append(_span_line(span, indent))
        for child in span.children:
            visit(child, indent + 1)

    visit(trace.root, 0)
    if counters:
        totals = trace.totals()
        if totals:
            lines.append("")
            lines.append("counters (rolled up over the whole job):")
            for name in sorted(totals):
                lines.append("  %-32s %s" % (name, _fmt_value(totals[name])))
    return "\n".join(lines)
