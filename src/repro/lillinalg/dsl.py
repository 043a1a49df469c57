"""The lilLinAlg DSL: a small Matlab-like language (Section 8.3.1).

Programs look like the paper's linear-regression example::

    X = load("db", "X");
    y = load("db", "y");
    beta = (X '* X)^-1 %*% (X '* y);
    save(beta, "db", "beta");

Operators (binding tightest first):

* postfix ``'`` — transpose; postfix ``^-1`` — inverse
* ``'*`` — transpose-then-multiply; ``%*%`` — matrix multiply;
  ``.*`` — element-wise multiply; scalar ``*`` — scale
* ``+`` / ``-`` — element-wise add / subtract

Functions: ``load(db, set | matrix literal)``, ``save(expr, db, set)``,
``rowSum``, ``colSum``, ``minElement``, ``maxElement``.

The evaluator parses a program into an AST, then walks the AST building
one graph of PC Computations through
:class:`~repro.lillinalg.ops.DistributedMatrix` — exactly the paper's flow
of "parse into an AST, then use the AST to build up a graph of PC
Computation objects".  A statement evaluates to an expression and runs no
job; ``save`` runs the graph into its set, and ``^-1`` gathers its
operand (a small Gram matrix) to invert it.
"""

from __future__ import annotations

import collections
import re

import numpy as np

from repro.errors import DslParseError, LinAlgError
from repro.lillinalg.ops import DistributedMatrix

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<TMUL>'\*)
  | (?P<MMUL>%\*%)
  | (?P<EMUL>\.\*)
  | (?P<INV>\^-1)
  | (?P<NUMBER>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<STRING>"[^"]*")
  | (?P<OP>[=()+\-*,;'])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.text)


def tokenize(source):
    """Split DSL source into tokens; raises on unrecognized input."""
    tokens = []
    position = 0
    line = 1
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise DslParseError(
                "unexpected character %r" % source[position], line=line
            )
        kind = match.lastgroup
        text = match.group()
        line += text.count("\n")
        position = match.end()
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "OP":
            kind = text
        tokens.append(Token(kind, text, line))
    tokens.append(Token("EOF", "", line))
    return tokens


# -- AST nodes -----------------------------------------------------------------

Name = collections.namedtuple("Name", "name")
Number = collections.namedtuple("Number", "value")
BinOp = collections.namedtuple("BinOp", "op left right")
Postfix = collections.namedtuple("Postfix", "op operand")
Call = collections.namedtuple("Call", "fn args")
Assign = collections.namedtuple("Assign", "target expr")


class Parser:
    """Recursive-descent parser for the DSL grammar."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    def peek(self):
        return self.tokens[self.position]

    def next(self):
        token = self.tokens[self.position]
        self.position += 1
        return token

    def expect(self, kind):
        token = self.next()
        if token.kind != kind:
            raise DslParseError(
                "expected %s, found %r" % (kind, token.text), line=token.line
            )
        return token

    def parse_program(self):
        statements = []
        while self.peek().kind != "EOF":
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self):
        token = self.peek()
        if (
            token.kind == "NAME"
            and self.tokens[self.position + 1].kind == "="
        ):
            name = self.next().text
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            return Assign(name, expr)
        expr = self.parse_expr()
        self.expect(";")
        return expr

    # expr := term (("+"|"-") term)*
    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = BinOp(op, node, self.parse_term())
        return node

    # term := postfix (("%*%"|"'*"|".*"|"*") postfix)*
    def parse_term(self):
        node = self.parse_postfix()
        while self.peek().kind in ("MMUL", "TMUL", "EMUL", "*"):
            op = self.next().kind
            node = BinOp(op, node, self.parse_postfix())
        return node

    # postfix := atom ("'" | "^-1")*
    def parse_postfix(self):
        node = self.parse_atom()
        while self.peek().kind in ("'", "INV"):
            op = self.next().kind
            node = Postfix(op, node)
        return node

    def parse_atom(self):
        token = self.next()
        if token.kind == "NUMBER":
            return Number(float(token.text))
        if token.kind == "STRING":
            return Name("\x00str:" + token.text[1:-1])
        if token.kind == "NAME":
            if self.peek().kind == "(":
                self.next()
                args = []
                if self.peek().kind != ")":
                    args.append(self.parse_expr())
                    while self.peek().kind == ",":
                        self.next()
                        args.append(self.parse_expr())
                self.expect(")")
                return Call(token.text, args)
            return Name(token.text)
        if token.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise DslParseError(
            "unexpected token %r" % token.text, line=token.line
        )


#: the DistributedMatrix method of each binary operator but ``*``
_BINARY = {"+": "add", "-": "subtract", "MMUL": "multiply",
           "TMUL": "transpose_multiply", "EMUL": "elementwise_multiply"}
#: the DistributedMatrix method of each one-argument function
_UNARY = {"rowSum": "row_sum", "colSum": "col_sum", "inv": "inverse",
          "minElement": "min_element", "maxElement": "max_element",
          "toNumpy": "to_numpy"}


class LilLinAlg:
    """The DSL front end bound to one cluster.

    Matrices referenced by ``load`` must have been registered with
    :meth:`bind` (or stored by a previous ``save``), mirroring the
    paper's pattern of loading named sets from PC storage.
    """

    def __init__(self, cluster, database="lla"):
        self.cluster = cluster
        self.database = database
        self.environment = {}

    def bind(self, name, matrix):
        """Expose an existing DistributedMatrix to DSL programs."""
        self.environment[name] = matrix
        return matrix

    def load_numpy(self, name, values, block_rows, block_cols):
        """Chunk and load a numpy matrix, binding it to ``name``."""
        matrix = DistributedMatrix.from_numpy(
            self.cluster, self.database, values, block_rows, block_cols,
        )
        return self.bind(name, matrix)

    def run(self, source):
        """Execute a DSL program; returns the value of the last statement."""
        statements = Parser(tokenize(source)).parse_program()
        result = None
        for statement in statements:
            result = self._execute(statement)
        return result

    def _execute(self, node):
        if isinstance(node, Assign):
            value = self._eval(node.expr)
            self.environment[node.target] = value
            return value
        return self._eval(node)

    def _eval(self, node):
        if isinstance(node, Number):
            return node.value
        if isinstance(node, Name):
            if node.name.startswith("\x00str:"):
                return node.name[len("\x00str:"):]
            try:
                return self.environment[node.name]
            except KeyError:
                raise LinAlgError("undefined matrix %r" % node.name) from None
        if isinstance(node, Postfix):
            operand = self._eval(node.operand)
            if node.op == "'":
                return operand.transpose()
            return operand.inverse()
        if isinstance(node, BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            if node.op == "*":
                if isinstance(left, (int, float)):
                    return right.scale_multiply(left)
                if isinstance(right, (int, float)):
                    return left.scale_multiply(right)
                return left.multiply(right)
            if node.op not in _BINARY:
                raise LinAlgError("unknown operator %r" % node.op)
            return getattr(left, _BINARY[node.op])(right)
        if isinstance(node, Call):
            return self._call(node.fn, [self._eval(a) for a in node.args])
        raise LinAlgError("cannot evaluate %r" % node)

    def _call(self, fn, args):
        if fn == "load":
            name = args[-1]
            if name in self.environment:
                return self.environment[name]
            raise LinAlgError(
                "load(%r): bind the matrix first with bind()/load_numpy()"
                % name
            )
        if fn == "save":
            matrix, database, name = args
            if database != matrix.database:
                raise LinAlgError(
                    "save(%r): matrices live in database %r"
                    % (name, matrix.database)
                )
            return self.bind(name, matrix.materialize(name))
        if fn in _UNARY:
            return getattr(args[0], _UNARY[fn])()
        raise LinAlgError("unknown function %r" % fn)


def as_numpy(value):
    """Collect a DSL result (matrix or scalar) into host form."""
    if isinstance(value, DistributedMatrix):
        return value.to_numpy()
    return np.asarray(value)
