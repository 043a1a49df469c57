"""The simulated cluster network — the deterministic transport.

All inter-node traffic in the simulation flows through one
:class:`SimulatedNetwork` so the benches can report what PC's design is
about: how many bytes moved, and how many of them moved with zero
serialization cost (whole PC pages) versus as structured rows.

Within one OS process "shipping" is of course free; the value of the
accounting is comparative — the Spark-like baseline pays real pickling
CPU on every boundary, while the PC path ships page bytes verbatim.

The shipping and accounting machinery now lives in the shared
:class:`~repro.cluster.transport.Transport` base (so the process-backed
transport accounts identically); what makes this subclass the simulator
is that its worker back-ends stay in-process — single-threaded,
deterministic, and exactly reproducible under seeded fault injection,
which is why it remains the CI/fault-matrix backend.

Besides the global counters, every transfer is reported into the active
trace span (when a :class:`~repro.obs.Tracer` is attached and a job is
running), so ``cluster.last_trace`` can attribute shuffle traffic to the
stage that caused it (counters ``net.bytes``, ``net.bytes_zero_copy``,
``net.bytes_rows``, ``net.messages``, and ``net.link_bytes.<src>.<dst>``).

A :class:`~repro.cluster.faults.FaultInjector` can drop, corrupt, or
delay any transfer.  Dropped transfers are re-sent up to
``RetryPolicy.transfer_retries`` times (counters
``net.transfers_dropped`` / ``net.transfer_retries``); when the budget is
exhausted a :class:`~repro.errors.TransferDroppedError` surfaces to the
caller.  Corrupted page *and row* transfers are detected by checksum on
receipt and re-sent within the same budget.  Delays are *simulated*: the
delay seconds are accounted (``net.delay_seconds``), not slept.
"""

from __future__ import annotations

from repro.cluster.transport import (  # noqa: F401 - re-exported API
    Transport,
    estimate_value_bytes,
    rows_checksum,
)


class SimulatedNetwork(Transport):
    """Byte-accounted message passing between simulated nodes."""

    name = "sim"
    page_residency = "mem"
