"""AST lint rules for PC-specific invariants (PC001–PC010).

ruff and friends check Python; these rules check *PlinyCompute*.  Each
rule encodes one discipline the simulated object model or the cluster
layer relies on but cannot enforce at runtime without cost:

========  ==============================================================
PC001     ``Handle`` escape from its managing ``AllocationBlock`` scope
          (stored into instance/module state, or returned from inside a
          ``with use_allocation_block(...)`` body).
PC002     Raw ``block.buf`` byte access outside ``repro/memory/`` —
          on-page bytes are :mod:`repro.memory.layout`'s territory.
PC003     Impure lambda passed to ``lambda_from_native`` — I/O,
          nondeterminism, or closure mutation breaks the purity the
          TCAP optimizer assumes when it reorders terms.
PC005     Exception-swallowing ``except`` in ``repro/cluster/*`` hot
          paths (body is only ``pass``/``continue``/``break``/bare
          ``return``) — silent failures in the scheduler/network layer
          masquerade as slow or wrong answers.
PC006     Row-path handle access (``.deref()`` / ``make_object*`` /
          ``.facade()``) inside a columnar kernel scope — the kernel
          library, any ``lambda_from_native(kernel=...)`` callable, what
          it calls, every ``*_batch`` definition: a per-row deref there
          silently serializes the hot loop it exists to vectorize.
PC010     The architecture, as one table (:data:`ARCHITECTURE`): a
          one-path API (``ship_page``, ``pin``, ...) referenced from a
          function the table does not name, a confined name
          (``frombuffer``, ``retain``) outside its package, or a tracked
          module over its line ceiling.
========  ==============================================================

A finding is silenced by a trailing ``# pcsan: disable=PCnnn`` comment
on any line of the reported statement — multi-line calls and
parenthesized continuations suppress on whichever line carries the
comment (comma-separate to silence several codes).  Run ``python -m
repro.analysis lint src`` to lint the repo.
"""

from __future__ import annotations

import ast
import json
import os
import re

# -- findings & suppressions --------------------------------------------------


class Finding:
    """One rule violation at a specific source location.

    ``line`` is the anchor the report points at; ``end_line`` extends
    to the statement's last physical line so suppression comments work
    anywhere inside a multi-line statement.
    """

    __slots__ = ("code", "message", "path", "line", "col", "end_line")

    def __init__(self, code, message, path, line, col=0, end_line=None):
        self.code = code
        self.message = message
        self.path = path
        self.line = line
        self.col = col
        self.end_line = end_line if end_line is not None else line

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def to_dict(self):
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
        }

    def __repr__(self):
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col, self.code, self.message,
        )


_SUPPRESS_RE = re.compile(r"#\s*pcsan:\s*disable=([A-Z0-9,\s]+)")


def suppressions_of(source):
    """``{line_number: {codes}}`` for every ``# pcsan: disable=`` comment."""
    out = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
        if codes:
            out[lineno] = codes
    return out


# -- rule registry ------------------------------------------------------------

_RULES = []


def rule(code, name):
    """Register a checker ``fn(tree, path, source) -> iterable[Finding]``."""
    def wrap(fn):
        _RULES.append((code, name, fn))
        return fn
    return wrap


def iter_rules():
    """Yield ``(code, name, summary)`` for every registered rule."""
    for code, name, fn in sorted(_RULES, key=lambda entry: entry[0]):
        summary = (fn.__doc__ or "").strip().splitlines()[0]
        yield code, name, summary


def _path_parts(path):
    return set(os.path.normpath(path).split(os.sep))


def _root_name(node):
    """The leftmost ``Name`` of an attribute/subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _call_name(node):
    """Bare name of a call target: ``f(...)`` or ``mod.f(...)`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def span_of(node):
    """``(first_line, last_line)`` of a node, decorators included.

    ``ast`` anchors a decorated ``def`` at the ``def`` line; for
    suppression purposes the decorator lines are part of the same
    statement.
    """
    first = node.lineno
    for decorator in getattr(node, "decorator_list", ()):
        first = min(first, decorator.lineno)
    return first, getattr(node, "end_lineno", None) or node.lineno


# -- PC001: handle escape -----------------------------------------------------

_MAKERS = {"make_object", "make_object_on"}
_BLOCK_SCOPES = {"use_allocation_block", "makeObjectAllocatorBlock"}


def _is_maker_call(node):
    return isinstance(node, ast.Call) and _call_name(node) in _MAKERS


@rule("PC001", "handle-escape")
def check_handle_escape(tree, path, source):
    """Handle stored or returned past its AllocationBlock's scope."""
    findings = []
    # (a) Handles parked in long-lived state: instance attributes or
    # module globals.  A Handle is only meaningful while its block is
    # alive and resident; stashing one is the Python spelling of the
    # dangling cross-block pointer the paper designs away.
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or not _is_maker_call(node.value):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                findings.append(Finding(
                    "PC001",
                    "handle from %s() stored into instance state; it "
                    "outlives its allocation block" % _call_name(node.value),
                    path, node.lineno, node.col_offset,
                    end_line=span_of(node)[1],
                ))
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_maker_call(node.value):
            findings.append(Finding(
                "PC001",
                "handle from %s() bound at module level; it outlives "
                "its allocation block" % _call_name(node.value),
                path, node.lineno, node.col_offset,
                end_line=span_of(node)[1],
            ))
    # (b) Handles returned from inside a `with use_allocation_block(...)`
    # body: the block's scope ends at the `with`, the handle escapes it.
    for node in ast.walk(tree):
        if not isinstance(node, ast.With):
            continue
        if not any(
            isinstance(item.context_expr, ast.Call)
            and _call_name(item.context_expr) in _BLOCK_SCOPES
            for item in node.items
        ):
            continue
        handle_names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and _is_maker_call(sub.value):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        handle_names.add(target.id)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Return) or sub.value is None:
                continue
            escapes = (
                _is_maker_call(sub.value)
                or (isinstance(sub.value, ast.Name)
                    and sub.value.id in handle_names)
            )
            if escapes:
                findings.append(Finding(
                    "PC001",
                    "handle returned from inside its allocation-block "
                    "scope; the block is gone when the caller derefs",
                    path, sub.lineno, sub.col_offset,
                    end_line=span_of(sub)[1],
                ))
    return findings


# -- PC002: raw buf access ----------------------------------------------------


def _is_buf_access(node):
    """``x.buf`` or ``getattr(x, "buf")``."""
    if isinstance(node, ast.Attribute) and node.attr == "buf":
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "buf"
    )


def _buf_aliases(tree):
    """Local names bound directly to a buffer access.

    Covers plain assignment (``buf = block.buf``) and tuple unpacking
    (``a, b = page.buf, x`` — ``a`` is the alias); anything wrapped in
    another expression is not a *direct* alias and stays the direct
    finding's problem.
    """
    aliases = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = []
            if isinstance(target, ast.Name):
                pairs.append((target, node.value))
            elif isinstance(target, ast.Tuple) \
                    and isinstance(node.value, ast.Tuple) \
                    and len(target.elts) == len(node.value.elts):
                pairs.extend(zip(target.elts, node.value.elts))
            for name, value in pairs:
                if isinstance(name, ast.Name) and _is_buf_access(value):
                    aliases.add(name.id)
    return aliases


@rule("PC002", "raw-buf-access")
def check_raw_buf_access(tree, path, source):
    """Raw ``block.buf`` byte access outside the memory layer.

    Any ``.buf`` attribute access counts, not just a direct subscript —
    aliasing the buffer into a local (``buf = block.buf``) is the same
    escape with one more step, as are ``getattr(block, "buf")`` and
    subscripts through a name the buffer was unpacked into.  Where the
    buffer may be touched is the ``confined`` entry of
    :data:`ARCHITECTURE`.
    """
    if ARCHITECTURE["confined"]["buf"] in _path_parts(path):
        return []
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "buf":
            findings.append(Finding(
                "PC002",
                "raw access to block.buf; go through "
                "repro.memory.layout instead",
                path, node.lineno, node.col_offset,
                end_line=getattr(node, "end_lineno", None),
            ))
        elif isinstance(node, ast.Call) and _is_buf_access(node):
            findings.append(Finding(
                "PC002",
                "raw access to block.buf via getattr(); go through "
                "repro.memory.layout instead",
                path, node.lineno, node.col_offset,
                end_line=getattr(node, "end_lineno", None),
            ))
    aliases = _buf_aliases(tree)
    if aliases:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                findings.append(Finding(
                    "PC002",
                    "raw bytes via %r, an alias of block.buf; go "
                    "through repro.memory.layout instead"
                    % node.value.id,
                    path, node.lineno, node.col_offset,
                    end_line=getattr(node, "end_lineno", None),
                ))
    return findings


# -- PC003: impure native lambda ---------------------------------------------

_IMPURE_BUILTINS = {
    "print", "open", "input", "eval", "exec", "exit", "__import__",
}
_IMPURE_MODULES = {
    "random", "time", "os", "sys", "socket", "datetime", "subprocess", "io",
}
_MUTATORS = {
    "append", "extend", "insert", "pop", "remove", "clear", "update",
    "setdefault", "add", "discard", "write", "writelines",
}


def _lambda_impurity(node):
    """Why a lambda body is impure, or None if it looks pure."""
    params = {a.arg for a in (
        node.args.args + node.args.posonlyargs + node.args.kwonlyargs
    )}
    if node.args.vararg is not None:
        params.add(node.args.vararg.arg)
    if node.args.kwarg is not None:
        params.add(node.args.kwarg.arg)
    for sub in ast.walk(node.body):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name) and func.id in _IMPURE_BUILTINS:
            return "calls %s()" % func.id
        if isinstance(func, ast.Attribute):
            root = _root_name(func.value)
            if root in _IMPURE_MODULES:
                return "calls %s.%s()" % (root, func.attr)
            if func.attr in _MUTATORS and root is not None \
                    and root not in params:
                return "mutates closed-over %r via .%s()" % (root, func.attr)
    return None


@rule("PC003", "impure-native-lambda")
def check_impure_native_lambda(tree, path, source):
    """Impure lambda handed to ``lambda_from_native``."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _call_name(node) != "lambda_from_native":
            continue
        candidates = list(node.args)
        candidates.extend(
            kw.value for kw in node.keywords if kw.arg == "fn"
        )
        for arg in candidates:
            if not isinstance(arg, ast.Lambda):
                continue
            why = _lambda_impurity(arg)
            if why is not None:
                findings.append(Finding(
                    "PC003",
                    "impure native lambda (%s); the TCAP optimizer "
                    "assumes term purity when it reorders" % why,
                    path, arg.lineno, arg.col_offset,
                    end_line=span_of(arg)[1],
                ))
    return findings


# -- PC005: swallowed exceptions in cluster hot paths ------------------------


def _is_trivial_stmt(stmt):
    if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
        return True
    if isinstance(stmt, ast.Return):
        return stmt.value is None or (
            isinstance(stmt.value, ast.Constant) and stmt.value.value is None
        )
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True  # docstring or `...`
    return False


@rule("PC005", "swallowed-exception")
def check_swallowed_exception(tree, path, source):
    """Exception-swallowing ``except`` in a cluster hot path."""
    if "cluster" not in _path_parts(path):
        return []
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.body and all(_is_trivial_stmt(s) for s in node.body):
            named = ""
            if isinstance(node.type, ast.Name):
                named = " %s" % node.type.id
            findings.append(Finding(
                "PC005",
                "except%s block swallows the error (body is only "
                "pass/continue/break/return); count it, log it, or "
                "let it propagate" % named,
                path, node.lineno, node.col_offset,
                # the header only (a parenthesized exception tuple may
                # wrap) — a comment inside the body must not suppress
                end_line=node.type.end_lineno
                if node.type is not None else None,
            ))
    return findings


# -- PC006: row-path access inside columnar kernels ---------------------------

_ROW_PATH_CALLS = {"deref", "make_object", "make_object_on", "facade"}


def _kernel_scopes(tree, path):
    """AST scopes that must stay whole-batch array code.

    The columnar kernel library (``repro/engine/kernels.py``) counts
    wholesale; elsewhere, every ``kernel=`` argument of a
    ``lambda_from_native`` call counts — an inline lambda directly, a
    function or method (``kernel=batch_fn``, ``kernel=Cls.batch_fn``)
    via its definition in the module — and so does whatever such a
    scope calls that the module defines, and every ``*_batch``
    definition: the name a class gives the whole-page form of a method
    (``Customer.part_ids_batch``) is how a kernel written in one module
    and passed as ``kernel=`` in another is still found.
    """
    if os.path.basename(path) == "kernels.py" \
            and "engine" in _path_parts(path):
        return [tree]
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, node)
    scopes = [node for name, node in defs.items() if name.endswith("_batch")]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) \
                or _call_name(node) != "lambda_from_native":
            continue
        for keyword in node.keywords:
            if keyword.arg != "kernel":
                continue
            value = keyword.value
            name = getattr(value, "id", getattr(value, "attr", None))
            if isinstance(value, ast.Lambda):
                scopes.append(value)
            elif name in defs:
                scopes.append(defs[name])
    for scope in scopes:  # grows: a kernel's helpers are kernel code too
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Call):
                callee = defs.get(_call_name(sub))
                if callee is not None and callee not in scopes:
                    scopes.append(callee)
    return scopes


@rule("PC006", "row-path-in-columnar-kernel")
def check_row_path_in_kernel(tree, path, source):
    """Row-path handle deref inside a columnar kernel scope."""
    findings = []
    seen = set()
    for scope in _kernel_scopes(tree, path):
        for sub in ast.walk(scope):
            if not isinstance(sub, ast.Call):
                continue
            name = _call_name(sub)
            if name not in _ROW_PATH_CALLS:
                continue
            key = (sub.lineno, sub.col_offset)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                "PC006",
                "row-path access %s() inside a columnar kernel; kernels "
                "run whole-batch over array views, and a per-row deref "
                "serializes the loop they vectorize" % name,
                path, sub.lineno, sub.col_offset,
                end_line=span_of(sub)[1],
            ))
    return findings


# -- PC010: the architecture table --------------------------------------------

#: What the one-path refactors left, as data.
#: ``references``: a one-path API -> the only functions that may reference
#: it (any load of the name, bare or as an attribute; a call, a returned
#: bound method and a ``partial`` argument alike).  A reference inside a
#: nested function is its enclosing top-level function's or method's.
#: ``confined``: a name -> the package directory outside which nothing may
#: reference it; page bytes and refcounts are the object layer's (paper
#: §2).  ``buf``'s entry is enforced by PC002, which also follows aliases
#: and ``getattr``.  ``ceilings``: a module -> its line ceiling (a
#: package's total is reported at its ``__init__.py``); they go down only.
ARCHITECTURE = {
    "references": {
        "ship_page": (
            "repro.cluster.scheduler.DistributedScheduler._wire",
            "repro.storage.replication.ReplicationManager._copy",
        ),
        "ship_rows": ("repro.cluster.scheduler.DistributedScheduler._wire",),
        "adopt_page_bytes": (
            "repro.storage.replication.ReplicationManager._copy",
            "repro.engine.pipeline._PageSink.finish",
        ),
        "record_pages": (
            "repro.storage.replication.ReplicationManager.place_pages",
            "repro.storage.replication.ReplicationManager.record_landed",
            "repro.catalog.catalog.CatalogManager._apply_journal_record",
        ),
        "open_root": ("repro.storage.dataset.RowPageWriter._open",),
        "run_task": (
            "repro.cluster.scheduler.DistributedScheduler._place",
            "repro.cluster.procworker._run",
        ),
        "object_batches": ("repro.engine.pipeline.PipelineEngine.source_batches",),
        "run_stages": (
            "repro.engine.pipeline.run_task",
            "repro.engine.pipeline.PipelineEngine.run",
        ),
        "_run_worker_tasks": (
            "repro.cluster.scheduler.DistributedScheduler"
            "._run_distributed_pipeline",
        ),
        "row_messages": ("repro.engine.pipeline.HashBuildSink.seal",),
        "partition_rows": (
            "repro.engine.pipeline.AggregateSink.seal",
            "repro.engine.pipeline.row_messages",
        ),
        "pack_map_pages": (
            "repro.engine.pipeline.AggregateSink.seal",
            "repro.engine.pipeline.MapPageOutputSink.seal",
        ),
        "scatter_map": ("repro.memory.builtins.MapType.inserter",),
        "map_pairs": ("repro.engine.pipeline.map_items",),
        # Read where a Map page is: where an exchange or a job's result
        # arrives (``map_page_pairs``, the caller's merge), the client's read.
        "map_items": ("repro.engine.pipeline.map_page_pairs",
                      "repro.cluster.scheduler.DistributedScheduler._merge_at_caller",
                      "repro.cluster.cluster.PCCluster.read"),
        "plan_objects": ("repro.storage.dataset.RowPageWriter._write",),
        "book_task_evidence": ("repro.cluster.scheduler.DistributedScheduler._book",),
        # One pickling path: the job's blob, and each shipped task's spec.
        "serialize_task": ("repro.cluster.scheduler.DistributedScheduler._place",
                           "repro.cluster.scheduler.DistributedScheduler._job_blob"),
        "aggregate_sum": ("repro.engine.pipeline.AggregateSink.consume",),
        # Each pin is released in a ``finally`` (or handed to the caller);
        # a pin leaked on a real path is the sanitizer's ``pin_leak``.
        "pin": (
            "repro.cluster.scheduler._ScanSource.lease",
            "repro.storage.dataset.PageSet.pinned_page",
            "repro.storage.replication.ReplicationManager._page_bytes",
        ),
    },
    "confined": {
        "buf": "memory",
        "frombuffer": "memory",
        "retain": "memory",
    },
    "ceilings": {
        "repro/cluster/scheduler.py": 967,
        "repro/cluster/transport.py": 750,
        "repro/cluster/cluster.py": 690,
        "repro/cluster/procworker.py": 283,
        "repro/cluster/codetable.py": 279,
        "repro/cluster/worker.py": 195,
        "repro/storage/replication.py": 440,
        "repro/storage/dataset.py": 396,
        "repro/engine/physical.py": 307,
        "repro/engine/pipeline.py": 930,
        "repro/memory/gather.py": 521,
        "repro/memory/scatter.py": 837,
        "repro/ml/kmeans.py": 142,
        "repro/ml/kmeans_columnar.py": 151,
        "repro/lillinalg": 799,
        "repro/obs": 1888,
        "repro/analysis": 1328,
    },
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _repro_path(path):
    """``path`` from its last ``repro`` directory on, ``/``-joined
    (``src/repro/obs/__init__.py`` -> ``repro/obs/__init__.py``); just
    the file name outside the package."""
    parts = os.path.normpath(path).split(os.sep)
    dirs = parts[:-1]
    if "repro" not in dirs:
        return parts[-1]
    return "/".join(parts[len(dirs) - 1 - dirs[::-1].index("repro"):])


def module_of(path):
    """Dotted module name of ``path`` (see :func:`_repro_path`)."""
    module = _repro_path(path)[:-len(".py")].replace("/", ".")
    if module.endswith(".__init__"):
        module = module[:-len(".__init__")]
    return module


def _scopes(tree, module):
    """``(caller, node)``: each top-level function and method under its
    qualified name, every other statement under the module's."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield "%s.%s" % (module, node.name), node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS):
                    yield "%s.%s.%s" % (module, node.name, item.name), item
                else:
                    yield module, item
        else:
            yield module, node


def references_in(tree, module):
    """``(caller, name, node)`` for every load of a name or attribute."""
    for caller, scope in _scopes(tree, module):
        for node in ast.walk(scope):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if isinstance(node.ctx, ast.Load):
                yield caller, name, node


def _line_count(path, source):
    """``(what, lines, ceiling)`` for a module the table caps, else None."""
    ceilings = ARCHITECTURE["ceilings"]
    what = _repro_path(path)
    lines = source.count("\n")
    package = what[:-len("/__init__.py")]
    if what.endswith("/__init__.py") and package in ceilings:
        what = package
        folder = os.path.dirname(path) or os.curdir
        for name in os.listdir(folder):
            if name.endswith(".py") and name != "__init__.py":
                with open(os.path.join(folder, name), encoding="utf-8") as f:
                    lines += f.read().count("\n")
    if what not in ceilings:
        return None
    return what, lines, ceilings[what]


@rule("PC010", "architecture")
def check_architecture(tree, path, source):
    """Stray reference, confined name, or line ceiling (the table)."""
    references = ARCHITECTURE["references"]
    confined = ARCHITECTURE["confined"]
    parts = _path_parts(path)
    findings = []
    for caller, name, node in references_in(tree, module_of(path)):
        allowed = references.get(name)
        if allowed is not None and caller not in allowed:
            message = "%s referenced from %s; only %s may" % (
                name, caller, ", ".join(allowed))
        elif name in confined and name != "buf" \
                and confined[name] not in parts:
            message = "%s outside repro/%s; it is the object layer's" % (
                name, confined[name])
        else:
            continue
        findings.append(Finding(
            "PC010", message, path, node.lineno, node.col_offset,
            end_line=node.end_lineno,
        ))
    counted = _line_count(path, source)
    if counted is not None and counted[1] > counted[2]:
        findings.append(Finding(
            "PC010", "%s is %d lines, over its ceiling of %d" % counted,
            path, 1,
        ))
    return findings


# -- driver -------------------------------------------------------------------


def _iter_py_files(paths):
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__" and not d.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _is_suppressed(finding, suppressed):
    """A disable comment anywhere in the statement's span silences it."""
    last = max(finding.end_line, finding.line)
    for lineno in range(finding.line, last + 1):
        if finding.code in suppressed.get(lineno, ()):
            return True
    return False


def lint_source(source, path, select=None):
    """Run the registered rules over one module's source text."""
    tree = ast.parse(source, filename=path)
    suppressed = suppressions_of(source)
    findings = []
    for code, _name, fn in _RULES:
        if select is not None and code not in select:
            continue
        findings.extend(
            finding for finding in fn(tree, path, source)
            if not _is_suppressed(finding, suppressed)
        )
    return findings


def run_lint(paths, select=None):
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    findings = []
    for path in _iter_py_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            findings.extend(lint_source(source, path, select=select))
        except SyntaxError as exc:
            findings.append(Finding(
                "PC000", "syntax error: %s" % exc.msg, path,
                exc.lineno or 1, (exc.offset or 1) - 1,
            ))
    findings.sort(key=Finding.sort_key)
    return findings


def format_text(findings):
    lines = [repr(f) for f in findings]
    lines.append(
        "%d finding%s" % (len(findings), "" if len(findings) == 1 else "s")
    )
    return "\n".join(lines)


def format_json(findings):
    return json.dumps(
        {"findings": [f.to_dict() for f in findings],
         "count": len(findings)},
        indent=2, sort_keys=True,
    )
