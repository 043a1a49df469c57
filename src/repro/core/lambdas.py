"""PC's lambda calculus (Section 4 of the paper).

A PC programmer does not hand the system opaque row functions; they hand it
*lambda terms* built from a toolkit of lambda abstraction families
(:func:`lambda_from_member`, :func:`lambda_from_method`,
:func:`lambda_from_native`, :func:`lambda_from_self`) composed with
higher-order functions (the comparison, boolean and arithmetic operators).
The system can then *see into* the computation — which attribute is read,
which method is called, which inputs each sub-term depends on — and that
visibility is what makes TCAP compilation and relational-style
optimization possible.  Anything hidden inside a native lambda stays
opaque, exactly as in the paper.

Operator mapping from the C++ binding:

====================  =====================
C++                   Python
====================  =====================
``==`` / ``!=``       ``==`` / ``!=``
``<`` ``>`` etc.      ``<`` ``>`` etc.
``&&`` / ``||``       ``&`` / ``|``
``!``                 ``~``
``+ - * /``           ``+ - * /``
====================  =====================
"""

from __future__ import annotations

import itertools

from repro.errors import LambdaError

_term_ids = itertools.count(1)


class Arg:
    """Placeholder for one input of a computation.

    When PC calls a user's lambda term construction function it passes one
    ``Arg`` per input set; the user threads them through the abstraction
    families.  ``index`` identifies the input, ``cls`` (optional) documents
    the expected object type.
    """

    __slots__ = ("index", "cls")

    def __init__(self, index, cls=None):
        self.index = index
        self.cls = cls

    def __repr__(self):
        cls = self.cls.__name__ if self.cls is not None else "?"
        return "<arg%d: %s>" % (self.index, cls)


class LambdaTerm:
    """A node of a lambda term tree.

    Attributes
    ----------
    kind:
        The abstraction/operator kind; mirrors the ``type`` entry of a TCAP
        key-value map (``attAccess``, ``methodCall``, ``nativeLambda``,
        ``self``, ``constant``, ``==``, ``&&``, ``+``...).
    children:
        Sub-terms this term consumes.  Leaves consume ``Arg`` inputs
        instead (``arg_indices``).
    info:
        Metadata carried into the TCAP key-value map (attName, methodName,
        op...).  Informational only at execution time, vital for
        optimization (Section 5.2).
    """

    def __init__(self, kind, children=(), arg_indices=(), info=None,
                 executor=None, kernel=None):
        self.term_id = next(_term_ids)
        self.kind = kind
        self.children = list(children)
        self.arg_indices = list(arg_indices)
        self.info = dict(info or {})
        self._executor = executor
        #: optional whole-batch (columnar) implementation of this term;
        #: see :func:`lambda_from_native`'s ``kernel`` argument.
        self.kernel = kernel

    # -- analysis -----------------------------------------------------------------

    def depends_on(self):
        """The set of input indices this term transitively reads."""
        deps = set(self.arg_indices)
        for child in self.children:
            deps |= child.depends_on()
        return deps

    def walk(self):
        """Post-order traversal of the term tree."""
        for child in self.children:
            yield from child.walk()
        yield self

    def conjuncts(self):
        """Split a boolean term on top-level ``&&`` into its conjuncts."""
        if self.kind == "&&":
            for child in self.children:
                yield from child.conjuncts()
        else:
            yield self

    @property
    def is_equality(self):
        return self.kind == "=="

    # -- execution ------------------------------------------------------------------

    def executor(self):
        """The vectorized stage function for this single node.

        The returned callable takes one column (Python list) per child —
        or per argument index, for leaf abstractions — and returns the
        output column.  This is the reproduction of the paper's
        template-metaprogramming pipeline stages: the closure is
        specialized once, then applied to whole vectors with no
        per-element dispatch beyond the user's own code.
        """
        if self._executor is None:
            raise LambdaError(
                "lambda term %s has no executor (analysis-only term)"
                % self.kind
            )
        return self._executor

    # -- composition: higher-order functions -------------------------------------------

    def _binary(self, other, kind, fn):
        other = as_lambda(other)
        return LambdaTerm(
            kind,
            children=[self, other],
            info={"type": _BINARY_INFO_TYPE.get(kind, "binaryOp"), "op": kind},
            executor=_vectorize2(fn),
        )

    def __eq__(self, other):  # noqa: A003 - the paper's == composition
        return self._binary(other, "==", lambda a, b: a == b)

    def __ne__(self, other):
        return self._binary(other, "!=", lambda a, b: a != b)

    def __lt__(self, other):
        return self._binary(other, "<", lambda a, b: a < b)

    def __le__(self, other):
        return self._binary(other, "<=", lambda a, b: a <= b)

    def __gt__(self, other):
        return self._binary(other, ">", lambda a, b: a > b)

    def __ge__(self, other):
        return self._binary(other, ">=", lambda a, b: a >= b)

    def __and__(self, other):
        return self._binary(other, "&&", lambda a, b: bool(a) and bool(b))

    def __or__(self, other):
        return self._binary(other, "||", lambda a, b: bool(a) or bool(b))

    def __invert__(self):
        return LambdaTerm(
            "!",
            children=[self],
            info={"type": "bool_not"},
            executor=_vectorize1(lambda a: not a),
        )

    def __add__(self, other):
        return self._binary(other, "+", lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, "-", lambda a, b: a - b)

    def __mul__(self, other):
        return self._binary(other, "*", lambda a, b: a * b)

    def __truediv__(self, other):
        return self._binary(other, "/", lambda a, b: a / b)

    __hash__ = object.__hash__  # identity hashing despite __eq__ overload

    def __repr__(self):
        if self.arg_indices:
            src = "args%s" % self.arg_indices
        else:
            src = "%d children" % len(self.children)
        return "<lambda %s (%s) %s>" % (self.kind, src, self.info or "")


_BINARY_INFO_TYPE = {
    "==": "equalityCheck",
    "!=": "comparison",
    "<": "comparison",
    "<=": "comparison",
    ">": "comparison",
    ">=": "comparison",
    "&&": "bool_and",
    "||": "bool_or",
    "+": "arithmetic",
    "-": "arithmetic",
    "*": "arithmetic",
    "/": "arithmetic",
}


def _vectorize1(fn):
    def stage(col):
        return [fn(v) for v in col]

    return stage


def _vectorize2(fn):
    def stage(left, right):
        return [fn(a, b) for a, b in zip(left, right)]

    return stage


def _deref(value):
    """Resolve a Handle into its facade; pass other values through."""
    deref = getattr(value, "deref", None)
    if deref is not None:
        return deref()
    return value


# ---------------------------------------------------------------------------
# Lambda abstraction families
# ---------------------------------------------------------------------------

def lambda_from_member(arg, attr_name):
    """``makeLambdaFromMember``: read a member of the pointed-to object."""
    if not isinstance(arg, Arg):
        raise LambdaError("lambda_from_member expects an Arg placeholder")

    def stage(col):
        return [getattr(_deref(v), attr_name) for v in col]

    return LambdaTerm(
        "attAccess",
        arg_indices=[arg.index],
        info={"type": "attAccess", "attName": attr_name},
        executor=stage,
    )


def lambda_from_method(arg, method_name, *call_args):
    """``makeLambdaFromMethod``: call a method on the pointed-to object."""
    if not isinstance(arg, Arg):
        raise LambdaError("lambda_from_method expects an Arg placeholder")

    def stage(col):
        return [getattr(_deref(v), method_name)(*call_args) for v in col]

    return LambdaTerm(
        "methodCall",
        arg_indices=[arg.index],
        info={"type": "methodCall", "methodName": method_name},
        executor=stage,
    )


def lambda_from_native(args, fn, kernel=None):
    """``makeLambda``: wrap a native (opaque) host-language function.

    ``fn`` receives one dereferenced object per arg.  PC cannot see inside
    it, so terms built this way are not optimizable — the programmer
    trades optimization for expressiveness, exactly as in the paper.

    ``kernel`` optionally supplies a whole-batch implementation: a
    callable taking one column per arg — a numpy array, or for an
    object column its :class:`~repro.memory.columnar.RowBatch` (the
    rows of a columnar page; on a row page the
    :class:`~repro.memory.gather.ObjectRows` of the set's class, with
    its nested ``strings`` / ``objects`` / ``elements`` reads) — and
    returning one column of the batch's length: a numpy array, or a
    list when the results are objects.  A kernelized term is eligible
    for columnar lowering; the kernel MUST be pure (no side effects,
    output a function of the inputs only — the PCSan PC003 discipline),
    stay whole-batch (no ``.deref()``, PC006) and agree with ``fn``
    row-for-row, since the engine switches between the two per batch.
    """
    if isinstance(args, Arg):
        args = [args]
    indices = [a.index for a in args]

    if len(indices) == 1:
        def stage(col):
            return [fn(_deref(v)) for v in col]
    else:
        def stage(*cols):
            return [
                fn(*map(_deref, row)) for row in zip(*cols)
            ]

    info = {"type": "nativeLambda"}
    if kernel is not None:
        info["kernelized"] = "1"
    return LambdaTerm(
        "nativeLambda",
        arg_indices=indices,
        info=info,
        executor=stage,
        kernel=kernel,
    )


def lambda_from_self(arg):
    """``makeLambdaFromSelf``: the identity abstraction."""
    if not isinstance(arg, Arg):
        raise LambdaError("lambda_from_self expects an Arg placeholder")

    def stage(col):
        return list(col)

    return LambdaTerm(
        "self",
        arg_indices=[arg.index],
        info={"type": "self"},
        executor=stage,
    )


def const_lambda(value):
    """A constant term (appears when comparing against literals)."""
    def stage(length_hint):
        # Constant columns are materialized by the engine with an explicit
        # length; this executor is only used through `broadcast`.
        return [value] * length_hint

    term = LambdaTerm(
        "constant",
        info={"type": "constant", "value": value},
        executor=stage,
    )
    return term


def as_lambda(value):
    """Coerce ``value`` into a LambdaTerm (constants are wrapped)."""
    if isinstance(value, LambdaTerm):
        return value
    return const_lambda(value)
