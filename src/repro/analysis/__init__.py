"""PCSan: static lint + runtime sanitizer for the PC object model.

PlinyCompute's headline guarantee is memory safety *by construction*:
in-place objects, offset-based handles, and deep-copy-on-assign make
dangling cross-block handles impossible.  A Python reproduction enforces
those rules only by convention — nothing stops code from stashing a
:class:`~repro.memory.handle.Handle` past its block's lifetime, poking
``block.buf`` directly, or handing the TCAP optimizer an impure native
lambda.  This package turns the conventions into machine-checked
invariants:

* :mod:`repro.analysis.lint` — an AST lint pass (``python -m
  repro.analysis lint src``) with PC-specific rules PC001–PC010 that
  ruff cannot express (handle escapes, raw ``buf`` access, impure
  native lambdas, swallowed exceptions in cluster hot paths, the
  architecture table of who may reference each one-path API — plus the
  path-sensitive :mod:`repro.analysis.flowrules`, which run a forward dataflow
  fixpoint over the :mod:`repro.analysis.cfg` control-flow graph to
  catch pin/shm leaks on *some* path and writes after ``seal()``);
* :mod:`repro.analysis.sanitizer` — an opt-in runtime sanitizer
  (``PC_SANITIZE=1`` or ``PCCluster(..., sanitize=True)``) that poisons
  freed regions, stamps generation counters to catch stale handles,
  shadow-checks refcounts, and reports pin leaks and sealed-block
  object leaks through the :mod:`repro.obs` metrics/trace layer.
"""

from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.analysis.dataflow import ForwardAnalysis, run_forward
from repro.analysis.lint import Finding, iter_rules, run_lint, span_of
from repro.analysis.sarif import format_sarif, to_sarif, validate_sarif
from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerFinding,
    SanitizerReport,
    current_sanitizer,
    disable,
    enable,
    sanitize_scope,
)

__all__ = [
    "BasicBlock",
    "CFG",
    "Finding",
    "ForwardAnalysis",
    "Sanitizer",
    "SanitizerFinding",
    "SanitizerReport",
    "build_cfg",
    "current_sanitizer",
    "disable",
    "enable",
    "format_sarif",
    "iter_rules",
    "run_forward",
    "run_lint",
    "sanitize_scope",
    "span_of",
    "to_sarif",
    "validate_sarif",
]
