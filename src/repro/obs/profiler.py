"""Per-stage execution profiling.

The scheduler wraps every distributed job stage in a
:class:`StageProfiler` scope recording wall time (a log-bucketed
histogram, ``pc_sched_stage_seconds{stage=...}``: p50/p95/p99 come out
of the bucket math), CPU time (``time.process_time``), pages touched
(the delta of ``pc_pool_pages_pinned_total`` across the provided pools)
and the peak-bytes watermark of total pool occupancy inside the scope —
the five ``pc_sched_stage_*`` families, which is what
``profiling=True, tracing=False`` has.  The stage's trace span gets only
what it does not already hold: ``prof.cpu_ms`` and ``prof.peak_bytes``
(its own ``duration_s`` is the wall time, its rolled-up
``pool.pages_pinned`` the pages touched).  What the TCAP operators
inside a stage did is task evidence, recorded and booked by
:mod:`repro.obs.evidence`.

``PCCluster(profiling=False)`` drops both wholesale: the scheduler opens
no scope and the engines get no operator recorder.  The enabled-path
overhead is bounded by the CI metrics leg at <5% of the Figure-4 runtime
benchmark.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry


class StageProfiler:
    """Times job stages into histograms and trace spans."""

    def __init__(self, registry=None, tracer=None, pools=None):
        self.registry = registry if registry is not None else \
            MetricsRegistry()
        self.tracer = tracer
        #: buffer pools observed for pages-touched / peak-bytes: every
        #: worker's (``metrics``, ``in_memory_bytes`` and
        #: ``peak_in_memory_bytes`` are what is read).
        self.pools = list(pools) if pools is not None else []
        self.stage_seconds = self.registry.histogram(
            "pc_sched_stage_seconds",
            help="Wall seconds per distributed job stage",
            labelnames=("stage",),
        )
        self.stages_total = self.registry.counter(
            "pc_sched_stages_total",
            help="Distributed job stages executed",
            labelnames=("stage",),
        )
        self.stage_cpu_seconds = self.registry.counter(
            "pc_sched_stage_cpu_seconds_total",
            help="CPU seconds per distributed job stage",
            labelnames=("stage",),
        )
        self.stage_pages = self.registry.counter(
            "pc_sched_stage_pages_touched_total",
            help="Buffer-pool pins during each job stage",
            labelnames=("stage",),
        )
        self.stage_peak_bytes = self.registry.gauge(
            "pc_sched_stage_peak_bytes",
            help="Max peak buffer-pool occupancy seen in any one stage run",
            labelnames=("stage",),
        )

    def _pins(self):
        return sum(
            pool.metrics.get("pc_pool_pages_pinned_total").value
            for pool in self.pools
        )

    @contextmanager
    def stage(self, name):
        """Profile one distributed job stage for the with-block."""
        pools = self.pools
        pins = self._pins()
        # Reset each pool's watermark for the stage; restored (as the
        # running max) on the way out.
        saved = [pool.peak_in_memory_bytes for pool in pools]
        for pool in pools:
            pool.peak_in_memory_bytes = pool.in_memory_bytes
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            peak = 0
            for pool, before in zip(pools, saved):
                peak += pool.peak_in_memory_bytes
                pool.peak_in_memory_bytes = max(
                    before, pool.peak_in_memory_bytes
                )
            pages = self._pins() - pins
            self.stage_seconds.observe(wall, stage=name)
            self.stages_total.inc(stage=name)
            self.stage_cpu_seconds.inc(cpu, stage=name)
            if pages:
                self.stage_pages.inc(pages, stage=name)
            if peak >= self.stage_peak_bytes.value_for(stage=name):
                self.stage_peak_bytes.set(peak, stage=name)
            tracer = self.tracer
            if tracer is not None and tracer.active is not None:
                tracer.add("prof.cpu_ms", cpu * 1e3)
                tracer.add("prof.peak_bytes", peak)
