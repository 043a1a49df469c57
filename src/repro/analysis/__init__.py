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
  repro.analysis lint src``) with PC-specific rules that ruff cannot
  express (handle escapes, raw ``buf`` access, impure native lambdas,
  swallowed exceptions in cluster hot paths, row-path access in columnar
  kernels, and the architecture table of who may reference each
  one-path API);
* :mod:`repro.analysis.sanitizer` — an opt-in runtime sanitizer
  (``PC_SANITIZE=1`` or ``PCCluster(..., sanitize=True)``) that poisons
  freed regions, stamps generation counters to catch stale handles,
  shadow-checks refcounts, and reports pin leaks and sealed-block
  object leaks through the :mod:`repro.obs` metrics/trace layer.

The package imports neither eagerly: the memory and cluster layers load
only the sanitizer, and only the CLI and the tests load the lint.
"""
