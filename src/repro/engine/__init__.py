"""The PC execution engine: physical planning and vectorized pipelines."""

from repro.engine.interpreter import LocalInterpreter
from repro.engine.local import run_local
from repro.engine.physical import (
    PhysicalPlan, Pipeline, plan_joins, plan_pipelines,
)
from repro.engine.pipeline import EngineMetrics, PipelineEngine
from repro.engine.vectors import (
    ARRAY_BATCH_ROWS, OBJECT_BATCH_ROWS, VectorList, batches_of,
)

__all__ = [
    "ARRAY_BATCH_ROWS",
    "EngineMetrics",
    "LocalInterpreter",
    "OBJECT_BATCH_ROWS",
    "PhysicalPlan",
    "Pipeline",
    "PipelineEngine",
    "VectorList",
    "batches_of",
    "plan_joins",
    "plan_pipelines",
    "run_local",
]
