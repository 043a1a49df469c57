"""The simulated distributed runtime: master, workers, network, scheduler."""

from repro.cluster.chaos import ChaosMonkey
from repro.cluster.cluster import ClusterLoader, PCCluster
from repro.cluster.faults import FakeClock, FaultInjector, RetryPolicy
from repro.cluster.scheduler import DistributedScheduler, JobStage
from repro.cluster.supervisor import Supervisor, WorkerVitals
from repro.cluster.transport import (
    ProcessTransport,
    Transport,
    estimate_value_bytes,
    make_transport,
)
from repro.cluster.worker import BackendProcess, WorkerNode
from repro.engine.physical import DEFAULT_BROADCAST_THRESHOLD

__all__ = [
    "BackendProcess",
    "ChaosMonkey",
    "ClusterLoader",
    "DEFAULT_BROADCAST_THRESHOLD",
    "DistributedScheduler",
    "FakeClock",
    "FaultInjector",
    "JobStage",
    "PCCluster",
    "ProcessTransport",
    "RetryPolicy",
    "Supervisor",
    "Transport",
    "WorkerNode",
    "WorkerVitals",
    "estimate_value_bytes",
    "make_transport",
]
