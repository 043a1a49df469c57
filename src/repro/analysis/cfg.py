"""Intra-procedural control-flow graphs over Python ASTs.

PCSan's flow-sensitive rules (PC007–PC009) need to reason about *paths*
— a pin released on the happy path but leaked when a call between
``pin`` and ``unpin`` raises is invisible to single-pass AST matching.
:func:`build_cfg` turns one function body into a graph of
:class:`BasicBlock` nodes with branch, loop, ``try``/``except``/
``finally``, ``with``, and exception edges; :mod:`repro.analysis.
dataflow` runs worklist fixpoints over it.

Design choices, tuned for a practical linter rather than a sound
verifier:

* **Exception edges come only from statements that can visibly raise**
  — ones containing a call, a ``raise``, or an ``assert``.  Attribute
  and subscript access between an acquire and a release therefore does
  not manufacture a leak path; calls do.  Each such statement ends its
  basic block, so the raising statement is always the *last* statement
  of its block and the dataflow engine can give its exception edge a
  different transfer than its fall-through edge.
* **``finally`` bodies are built once** and act as a join point: every
  way of leaving the ``try`` (fall-through, handled or unhandled
  exception, ``return``/``break``/``continue``) routes through the
  ``finally`` entry, and its exit fans out to all recorded
  continuations.  That merges states that a path-sensitive engine
  would keep apart — a deliberate over-approximation that can only
  *suppress* findings, never invent them.
* **Nested ``def``/``class`` bodies are opaque**: the definition
  statement occupies a block like any other, but control never enters
  the nested body — each function gets its own CFG.

Unreachable statements (after ``return``/``raise``/``break``) still
land in a block of their own so that every statement of the function is
covered by exactly one block; the dead block simply has no in-edges.
"""

from __future__ import annotations

import ast

#: edge kinds; "except" edges are taken when the source block's last
#: statement raises, every other kind is a normal-completion edge.
EDGE_NORMAL = "normal"
EDGE_TRUE = "true"
EDGE_FALSE = "false"
EDGE_LOOP = "loop"
EDGE_EXCEPT = "except"


class BasicBlock:
    """A straight-line run of statements with labelled out-edges."""

    __slots__ = ("block_id", "statements", "edges")

    def __init__(self, block_id):
        self.block_id = block_id
        self.statements = []
        #: list of ``(target_block_id, kind)`` pairs
        self.edges = []

    def successors(self):
        return [target for target, _kind in self.edges]

    def __repr__(self):
        return "<block %d: %d stmts -> %s>" % (
            self.block_id, len(self.statements),
            sorted(set(self.successors())),
        )


class CFG:
    """Blocks plus three distinguished nodes: entry, exit, raise-exit.

    ``exit`` collects normal function completion (fall-through and
    ``return``); ``raises`` collects exceptions that escape the
    function.  Both are empty sentinel blocks.
    """

    def __init__(self):
        self.blocks = {}
        self._next_id = 0
        self.entry = self.new_block().block_id
        self.exit = self.new_block().block_id
        self.raises = self.new_block().block_id

    def new_block(self):
        block = BasicBlock(self._next_id)
        self._next_id += 1
        self.blocks[block.block_id] = block
        return block

    def add_edge(self, source, target, kind=EDGE_NORMAL):
        self.blocks[source].edges.append((target, kind))

    def reachable(self):
        """Block ids reachable from the entry block."""
        seen = set()
        stack = [self.entry]
        while stack:
            block_id = stack.pop()
            if block_id in seen:
                continue
            seen.add(block_id)
            stack.extend(self.blocks[block_id].successors())
        return seen

    def statements(self):
        """Every statement recorded in any block (reachable or not)."""
        out = []
        for block_id in sorted(self.blocks):
            out.extend(self.blocks[block_id].statements)
        return out


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Lambda)


def _contains_call(node):
    """True when evaluating ``node`` may invoke arbitrary code.

    Calls inside nested function/class/lambda bodies are definitions,
    not invocations, and do not count.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if current is not node and isinstance(current, _SCOPE_NODES):
            continue
        if isinstance(current, (ast.Call, ast.Raise, ast.Await)):
            return True
        stack.extend(ast.iter_child_nodes(current))
    return False


def may_raise(stmt):
    """True when ``stmt`` gets an exception edge in the CFG."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return False
    return _contains_call(stmt)


class _FinallyFrame:
    """One active ``finally`` clause while its ``try``/handlers build.

    Control that leaves the protected region records its real target
    here and jumps to ``entry`` instead; once the ``finally`` body is
    built, its exit fans out to every recorded target.
    """

    __slots__ = ("entry", "targets")

    def __init__(self, entry):
        self.entry = entry
        self.targets = set()


class _Builder:
    def __init__(self, cfg):
        self.cfg = cfg
        #: stack of (continue_target, break_target, finally_depth)
        self.loops = []
        #: stack of exception-target block ids (innermost last)
        self.handlers = []
        self.finallies = []

    # -- routing helpers ----------------------------------------------------

    def exc_target(self):
        if self.handlers:
            return self.handlers[-1]
        return self.cfg.raises

    def _jump(self, source, target, min_finally_depth=0):
        """Edge ``source -> target``, routed through an open ``finally``.

        ``min_finally_depth`` is the finally-stack depth at which the
        target lives; frames above it sit between the jump and the
        target and must run first.  Only the innermost intervening
        frame is entered — its exit fans out, over-approximating
        nested-``finally`` ordering.
        """
        if len(self.finallies) > min_finally_depth:
            frame = self.finallies[-1]
            frame.targets.add(target)
            self.cfg.add_edge(source, frame.entry)
        else:
            self.cfg.add_edge(source, target)

    # -- statement dispatch -------------------------------------------------

    def build(self, stmts, current):
        """Append ``stmts`` starting at block ``current``.

        Returns the block open after the last statement, or None when
        control cannot fall through (the suite ended in ``return``/
        ``raise``/``break``/``continue`` on every path).
        """
        for stmt in stmts:
            if current is None:
                # Dead code: park it in an unreachable block so every
                # statement still belongs to exactly one block.
                current = self.cfg.new_block().block_id
            current = self._statement(stmt, current)
        return current

    def _statement(self, stmt, current):
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, current)
        if isinstance(stmt, ast.Return):
            self._append(stmt, current)
            self._jump(current, self.cfg.exit)
            return None
        if isinstance(stmt, ast.Raise):
            self._append(stmt, current)
            self.cfg.add_edge(current, self.exc_target(), EDGE_EXCEPT)
            return None
        if isinstance(stmt, ast.Break):
            self._append(stmt, current)
            _cont, brk, depth = self.loops[-1] if self.loops else \
                (None, self.cfg.exit, 0)
            self._jump(current, brk, depth)
            return None
        if isinstance(stmt, ast.Continue):
            self._append(stmt, current)
            cont, _brk, depth = self.loops[-1] if self.loops else \
                (self.cfg.exit, None, 0)
            self._jump(current, cont, depth)
            return None
        # Simple statement (incl. nested def/class definitions).
        self._append(stmt, current)
        if may_raise(stmt):
            self.cfg.add_edge(current, self.exc_target(), EDGE_EXCEPT)
            after = self.cfg.new_block()
            self.cfg.add_edge(current, after.block_id)
            return after.block_id
        return current

    def _append(self, stmt, block_id):
        self.cfg.blocks[block_id].statements.append(stmt)

    # -- compound statements ------------------------------------------------

    def _if(self, stmt, current):
        self._append(stmt, current)
        if _contains_call(stmt.test):
            self.cfg.add_edge(current, self.exc_target(), EDGE_EXCEPT)
        after = self.cfg.new_block().block_id
        then_entry = self.cfg.new_block().block_id
        self.cfg.add_edge(current, then_entry, EDGE_TRUE)
        then_end = self.build(stmt.body, then_entry)
        if then_end is not None:
            self.cfg.add_edge(then_end, after)
        if stmt.orelse:
            else_entry = self.cfg.new_block().block_id
            self.cfg.add_edge(current, else_entry, EDGE_FALSE)
            else_end = self.build(stmt.orelse, else_entry)
            if else_end is not None:
                self.cfg.add_edge(else_end, after)
        else:
            self.cfg.add_edge(current, after, EDGE_FALSE)
        return after

    def _loop(self, stmt, current):
        header = self.cfg.new_block()
        header.statements.append(stmt)
        self.cfg.add_edge(current, header.block_id)
        guard = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        if _contains_call(guard):
            self.cfg.add_edge(header.block_id, self.exc_target(),
                              EDGE_EXCEPT)
        after = self.cfg.new_block().block_id
        body_entry = self.cfg.new_block().block_id
        self.cfg.add_edge(header.block_id, body_entry, EDGE_TRUE)
        self.loops.append((header.block_id, after, len(self.finallies)))
        body_end = self.build(stmt.body, body_entry)
        self.loops.pop()
        if body_end is not None:
            self.cfg.add_edge(body_end, header.block_id, EDGE_LOOP)
        if stmt.orelse:
            else_entry = self.cfg.new_block().block_id
            self.cfg.add_edge(header.block_id, else_entry, EDGE_FALSE)
            else_end = self.build(stmt.orelse, else_entry)
            if else_end is not None:
                self.cfg.add_edge(else_end, after)
        else:
            self.cfg.add_edge(header.block_id, after, EDGE_FALSE)
        return after

    def _with(self, stmt, current):
        self._append(stmt, current)
        if any(_contains_call(item.context_expr) for item in stmt.items):
            self.cfg.add_edge(current, self.exc_target(), EDGE_EXCEPT)
        body_entry = self.cfg.new_block().block_id
        self.cfg.add_edge(current, body_entry)
        body_end = self.build(stmt.body, body_entry)
        if body_end is None:
            return None
        after = self.cfg.new_block().block_id
        self.cfg.add_edge(body_end, after)
        return after

    def _try(self, stmt, current):
        after = self.cfg.new_block().block_id
        frame = None
        if stmt.finalbody:
            frame = _FinallyFrame(self.cfg.new_block().block_id)
            self.finallies.append(frame)

        # Exceptions in the protected body dispatch to the handlers.
        dispatch = self.cfg.new_block().block_id
        body_entry = self.cfg.new_block().block_id
        self.cfg.add_edge(current, body_entry)
        self.handlers.append(dispatch)
        body_end = self.build(stmt.body, body_entry)
        self.handlers.pop()
        if body_end is not None and stmt.orelse:
            body_end = self.build(stmt.orelse, body_end)
        if body_end is not None:
            self._jump(body_end, after, len(self.finallies) - 1
                       if frame else len(self.finallies))

        # One entry block per handler; the dispatch block fans out to
        # all of them plus the propagate-outward edge (the raised type
        # is not tracked, so every handler is a may-target).  With a
        # ``finally`` present, both the unmatched-exception path and any
        # exception raised inside a handler run the finally body first.
        outer = self.cfg.raises if not self.handlers else self.handlers[-1]
        if frame is not None:
            frame.targets.add(outer)
            handler_exc = frame.entry
            self.cfg.add_edge(dispatch, frame.entry)
        else:
            handler_exc = outer
            self.cfg.add_edge(dispatch, outer)
        for handler in stmt.handlers:
            handler_entry = self.cfg.new_block().block_id
            self.cfg.add_edge(dispatch, handler_entry)
            self.handlers.append(handler_exc)
            handler_end = self.build(handler.body, handler_entry)
            self.handlers.pop()
            if handler_end is not None:
                self._jump(handler_end, after, len(self.finallies) - 1
                           if frame else len(self.finallies))

        if frame is not None:
            self.finallies.pop()
            fin_end = self.build(stmt.finalbody, frame.entry)
            if fin_end is not None:
                for target in sorted(frame.targets):
                    self.cfg.add_edge(fin_end, target)
        return after


def build_cfg(node):
    """Build the CFG of one function (or module) body.

    ``node`` is an ``ast.FunctionDef``/``AsyncFunctionDef`` (the usual
    case) or any node with a ``body`` list of statements.
    """
    cfg = CFG()
    builder = _Builder(cfg)
    end = builder.build(list(node.body), cfg.entry)
    if end is not None:
        cfg.add_edge(end, cfg.exit)
    return cfg
