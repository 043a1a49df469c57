"""Flow-sensitive PCSan rules (PC007–PC009) on the CFG engine.

These rules run a forward dataflow (:mod:`repro.analysis.dataflow`)
over each function's CFG (:mod:`repro.analysis.cfg`) instead of
pattern-matching the AST, so they see *paths*: an early ``return``
that skips an ``unpin``, a call that can raise between a
``SharedMemory`` create and its ``unlink``, a branch that writes a
page after another branch sealed it.

========  ==============================================================
PC007     ``pin``/``retain`` without the matching ``unpin``/``release``
          on some path to function exit — including exception edges
          (the bug class PR 1 fixed by hand in ``BufferPool._reload``).
          Only functions that *do* release the same resource on some
          path are checked: a function that never releases transfers
          ownership to its caller by design (``pin`` itself, builders
          returning pinned pages), and the sanitizer's runtime
          pin-leak check owns that contract.
PC008     ``SharedMemory``/``ShmRegistry`` created but neither closed,
          unlinked, nor handed off on every path — the fd-leak class
          the shm graveyard sweep papers over at runtime.
PC009     Write to a page payload (``set_root``/``write*``/subscript
          store) after ``seal()``/``to_bytes()`` on any path — a
          cross-process torn-read hazard once the bytes shipped over
          the shm transport.
========  ==============================================================

All three report at the statement that proves the bug (the
acquisition for PC007/PC008, the late write for PC009) and carry the
statement's full line span so multi-line statements suppress cleanly.
"""

from __future__ import annotations

import ast

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    ACQUIRED,
    ResourceAnalysis,
    replay_block,
    run_forward,
)
from repro.analysis.lint import Finding, _path_parts, rule

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Lambda)


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _local_stmts(func):
    """Every statement of ``func`` itself, in source order.

    Nested function/class/lambda bodies are separate scopes and are
    not descended into.
    """
    for stmt in func.body:
        yield from _stmt_and_children(stmt)


def _stmt_and_children(stmt):
    yield stmt
    if isinstance(stmt, _SCOPE_NODES):
        return
    for field in ("body", "orelse", "finalbody"):
        for child in getattr(stmt, field, ()):
            yield from _stmt_and_children(child)
    for handler in getattr(stmt, "handlers", ()):
        for child in handler.body:
            yield from _stmt_and_children(child)


def _stmt_expressions(stmt):
    """The expressions a CFG node for ``stmt`` actually evaluates.

    Compound statements occupy a CFG block only for their header; their
    suites live in other blocks, so scanning the whole node would
    credit the header with its body's effects.
    """
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, _SCOPE_NODES) or isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _expr_nodes(stmt):
    for expr in _stmt_expressions(stmt):
        for node in ast.walk(expr):
            if isinstance(node, _SCOPE_NODES):
                # don't look inside lambdas defined in the statement
                continue
            yield node


def _text(node):
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs
        return ast.dump(node)


def _method_call(node, names):
    """``(receiver_node, first_arg_node|None)`` for ``recv.name(...)``."""
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names):
        return node.func.value, (node.args[0] if node.args else None)
    return None


def _names_loaded(expr):
    """Bare names read by ``expr``, shallow containers included."""
    found = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Dict):
            stack.extend(v for v in node.values if v is not None)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
    return found


def _chain_texts(node):
    """Source texts of every prefix of an attribute/subscript chain.

    ``block.buf[off]`` yields ``{"block", "block.buf"}`` — how PC009
    matches a subscript store back to the sealed receiver it goes
    through.
    """
    texts = set()
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
        texts.add(_text(node))
    return texts


def _finding(code, message, path, node):
    return Finding(code, message, path, node.lineno, node.col_offset,
                   end_line=getattr(node, "end_lineno", None))


class _ResourceOps:
    """Per-statement acquire/release/escape keys for one function."""

    def __init__(self):
        self.acquires = {}  # id(stmt) -> [(key, stmt)]
        self.releases = {}  # id(stmt) -> [key]
        self.escapes = {}   # id(stmt) -> [key]
        self.acquire_nodes = {}   # key -> first acquiring stmt
        self.released_keys = set()

    def add(self, table, stmt, key):
        table.setdefault(id(stmt), []).append(key)

    def analysis(self):
        return ResourceAnalysis(
            acquires=lambda s: [k for k in self.acquires.get(id(s), ())],
            releases=lambda s: self.releases.get(id(s), ()),
            escapes=lambda s: self.escapes.get(id(s), ()),
        )


def _leak_findings(code, func, ops, path, describe):
    """Run the fixpoint and report keys still held at either exit."""
    if not ops.acquire_nodes:
        return []
    cfg = build_cfg(func)
    analysis = ops.analysis()
    result = run_forward(cfg, analysis)
    findings = []
    for key, node in sorted(
        ops.acquire_nodes.items(), key=lambda kv: kv[1].lineno
    ):
        on_exit = ResourceAnalysis.leaked(result.exit_state, key)
        on_raise = ResourceAnalysis.leaked(result.raise_state, key)
        if not on_exit and not on_raise:
            continue
        if on_exit and on_raise:
            where = "on some path to function exit (including an " \
                    "exception path)"
        elif on_raise:
            where = "when an exception unwinds past it"
        else:
            where = "on some path to function exit"
        findings.append(_finding(
            code, describe(key, where), path, node,
        ))
    return findings


# -- PC007: pin/retain without release on some path ---------------------------

_PAIRS = {"pin": "unpin", "retain": "release"}
_RELEASE_OF = {"unpin": "pin", "release": "retain"}


def _pair_key(family, recv, arg):
    return (family, _text(recv), "" if arg is None else _text(arg))


@rule("PC007", "pin-leak-on-path")
def check_pin_leak(tree, path, source):
    """``pin``/``retain`` unreleased on some path to function exit."""
    if "memory" in _path_parts(path):
        # The object-model internals own refcounts structurally
        # (deep-copy walks retain per slot); pairing is not their
        # contract, the sanitizer's shadow refcounts are.
        return []
    findings = []
    for func in _functions(tree):
        ops = _ResourceOps()
        bound = {}  # local name -> key it holds
        stmts = list(_local_stmts(func))
        # Pass 1: acquisitions (and the names they are bound to).
        for stmt in stmts:
            with_items = []
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                with_items = [item.context_expr for item in stmt.items]
            for node in _expr_nodes(stmt):
                acq = _method_call(node, _PAIRS)
                if acq is None:
                    continue
                key = _pair_key(node.func.attr, acq[0], acq[1])
                ops.add(ops.acquires, stmt, key)
                ops.acquire_nodes.setdefault(key, stmt)
                if node in with_items:
                    # ``with pool.pin(i) as page`` — the context
                    # manager owns the release.
                    ops.add(ops.escapes, stmt, key)
                elif (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.value is node):
                    bound[stmt.targets[0].id] = key
        # Pass 2: releases and ownership transfers (needs the full
        # ``bound`` map, so it cannot share pass 1's loop).
        for stmt in stmts:
            for node in _expr_nodes(stmt):
                rel = _method_call(node, _RELEASE_OF)
                if rel is not None:
                    key = _pair_key(
                        _RELEASE_OF[node.func.attr], rel[0], rel[1],
                    )
                    ops.add(ops.releases, stmt, key)
                    ops.released_keys.add(key)
            # Ownership transfer: the object the acquisition returned
            # is handed to the caller or parked in longer-lived state.
            if isinstance(stmt, (ast.Return, ast.Expr)) and isinstance(
                getattr(stmt, "value", None), (ast.Name, ast.Tuple,
                                               ast.Yield, ast.YieldFrom)
            ):
                value = stmt.value
                if isinstance(value, (ast.Yield, ast.YieldFrom)):
                    value = value.value
                if value is not None:
                    for name in _names_loaded(value) & set(bound):
                        ops.add(ops.escapes, stmt, bound[name])
            elif isinstance(stmt, ast.Assign) and any(
                not isinstance(t, ast.Name) for t in stmt.targets
            ):
                for name in _names_loaded(stmt.value) & set(bound):
                    ops.add(ops.escapes, stmt, bound[name])
        # Inconsistency heuristic: only keys this function releases on
        # some path are its responsibility to release on all of them.
        ops.acquire_nodes = {
            key: node for key, node in ops.acquire_nodes.items()
            if key in ops.released_keys
        }
        findings.extend(_leak_findings(
            "PC007", func, ops, path,
            lambda key, where: (
                "%s.%s(%s) has no matching %s.%s(%s) %s; release it in "
                "a finally (or hand ownership off explicitly)" % (
                    key[1], key[0], key[2],
                    key[1], _PAIRS[key[0]], key[2], where,
                )
            ),
        ))
    return findings


# -- PC008: shm segment/registry leak -----------------------------------------

_SHM_CTORS = {"SharedMemory", "ShmRegistry"}
_SHM_CLOSERS = {"close", "unlink"}


def _shm_ctor(node):
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    return name if name in _SHM_CTORS else None


@rule("PC008", "shm-leak-on-path")
def check_shm_leak(tree, path, source):
    """Shared-memory handle not closed/unlinked on every path."""
    findings = []
    for func in _functions(tree):
        ops = _ResourceOps()
        bound = {}
        stmts = list(_local_stmts(func))
        # Pass 1: creations (and the names they are bound to).
        for stmt in stmts:
            with_items = [
                item.context_expr for item in stmt.items
            ] if isinstance(stmt, (ast.With, ast.AsyncWith)) else []
            for node in _expr_nodes(stmt):
                ctor = _shm_ctor(node)
                if ctor is None:
                    continue
                if node in with_items:
                    continue  # the with-block closes it
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.value is node):
                    key = ("shm", stmt.targets[0].id)
                    bound[stmt.targets[0].id] = key
                elif isinstance(stmt, ast.Expr) and stmt.value is node:
                    # Created and dropped on the floor — nothing can
                    # ever close this one.
                    key = ("shm", "<%s@%d>" % (ctor, node.lineno))
                else:
                    # Stored into an attribute/container or passed
                    # straight to a callee: the owner is elsewhere.
                    continue
                ops.add(ops.acquires, stmt, key)
                ops.acquire_nodes.setdefault(key, stmt)
        if not ops.acquire_nodes:
            continue
        # Pass 2: closes and ownership transfers.
        for stmt in stmts:
            for node in _expr_nodes(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _SHM_CLOSERS
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in bound):
                    ops.add(ops.releases, stmt,
                            bound[node.func.value.id])
                    continue
                # Handing the segment to any callee (directly or inside
                # a container literal) transfers ownership: graveyard
                # registration, attachment lists.
                if isinstance(node, ast.Call) and _shm_ctor(node) is None:
                    passed = set()
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        passed |= _names_loaded(arg)
                    for name in passed & set(bound):
                        ops.add(ops.escapes, stmt, bound[name])
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                for name in _names_loaded(stmt.value) & set(bound):
                    ops.add(ops.escapes, stmt, bound[name])
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)
            ) and stmt.value.value is not None:
                for name in _names_loaded(stmt.value.value) & set(bound):
                    ops.add(ops.escapes, stmt, bound[name])
            elif isinstance(stmt, ast.Assign) and any(
                not isinstance(t, ast.Name) for t in stmt.targets
            ):
                for name in _names_loaded(stmt.value) & set(bound):
                    ops.add(ops.escapes, stmt, bound[name])
        findings.extend(_leak_findings(
            "PC008", func, ops, path,
            lambda key, where: (
                "shared-memory handle %r is neither closed, unlinked, "
                "nor handed off %s; the fd (and possibly the segment) "
                "leaks" % (key[1], where)
            ),
        ))
    return findings


# -- PC009: write after seal --------------------------------------------------

_SEALERS = {"seal", "to_bytes"}


def _is_write_call(node, sealed_texts):
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)):
        return None
    attr = node.func.attr
    if attr != "set_root" and not attr.startswith("write"):
        return None
    recv = _text(node.func.value)
    if recv in sealed_texts:
        return recv
    return None


@rule("PC009", "write-after-seal")
def check_write_after_seal(tree, path, source):
    """Page payload written after ``seal()``/``to_bytes()``."""
    if "memory" in _path_parts(path):
        # seal()/to_bytes() themselves live here, as do the layout
        # writers they are built from.
        return []
    findings = []
    for func in _functions(tree):
        # Pass 1: which receivers get sealed anywhere in the function.
        seal_stmts = {}   # id(stmt) -> [receiver text]
        sealed_texts = set()
        stmts = list(_local_stmts(func))
        for stmt in stmts:
            for node in _expr_nodes(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _SEALERS):
                    recv = _text(node.func.value)
                    seal_stmts.setdefault(id(stmt), []).append(recv)
                    sealed_texts.add(recv)
        if not sealed_texts:
            continue
        # Pass 2: rebinding the receiver makes it a fresh, unsealed
        # object again.
        reset_stmts = {}  # id(stmt) -> [receiver text]
        for stmt in stmts:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                targets = [stmt.target]
            for target in targets:
                for text in {_text(target)} | _names_loaded(target):
                    if text in sealed_texts:
                        reset_stmts.setdefault(id(stmt), []).append(text)
        analysis = ResourceAnalysis(
            acquires=lambda s: seal_stmts.get(id(s), ()),
            releases=lambda s: reset_stmts.get(id(s), ()),
        )
        cfg = build_cfg(func)
        result = run_forward(cfg, analysis)
        reported = set()

        def visit(stmt, state, _path=path, _out=findings,
                  _sealed=sealed_texts, _seen=reported):
            writes = []
            for node in _expr_nodes(stmt):
                recv = _is_write_call(node, _sealed)
                if recv is not None:
                    writes.append((recv, node))
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                stores = stmt.targets if isinstance(
                    stmt, ast.Assign
                ) else [stmt.target]
                for store in stores:
                    if isinstance(store, ast.Subscript):
                        for text in _chain_texts(store) & _sealed:
                            writes.append((text, store))
            for text, where in writes:
                statuses = state.get(text)
                if statuses is None or ACQUIRED not in statuses:
                    continue
                key = (text, where.lineno, where.col_offset)
                if key in _seen:
                    continue
                _seen.add(key)
                _out.append(_finding(
                    "PC009",
                    "write to %r after seal()/to_bytes(); readers "
                    "in other processes may see the torn page"
                    % text, _path, where,
                ))

        for block_id in cfg.reachable():
            replay_block(cfg, analysis, result, block_id, visit)
    return findings
