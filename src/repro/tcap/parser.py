"""Parser for TCAP's concrete text syntax.

Round-trips the syntax produced by :meth:`TcapProgram.to_text` (the
paper's notation).  Parsed programs carry no compiled stage library —
they are *analysis-only*: they can be validated, printed, and optimized,
but not executed (Section 5.2's key-value maps carry enough information
for the optimizer, not the compiled stages).
"""

from __future__ import annotations

import ast
import re

from repro.errors import TcapParseError
from repro.tcap.ir import (
    AggregateStmt,
    ApplyStmt,
    FilterStmt,
    FlattenStmt,
    HashStmt,
    JoinStmt,
    OutputStmt,
    ScanStmt,
    TcapProgram,
)

_STATEMENT_RE = re.compile(
    r"^(?:(?P<output>\w+)\((?P<out_cols>[^)]*)\)\s*<=\s*)?"
    r"(?P<op>[A-Z]+)\((?P<body>.*)\);$"
)
_REF_RE = re.compile(r"^(\w+)\(([^)]*)\)$")


def _split_args(body):
    """Split a statement body on top-level commas."""
    parts = []
    depth = 0
    current = []
    in_string = False
    for ch in body:
        if ch == "'" :
            in_string = not in_string
            current.append(ch)
        elif in_string:
            current.append(ch)
        elif ch in "([":
            depth += 1
            current.append(ch)
        elif ch in ")]":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current).strip())
    return parts


def _ref(token, line_no):
    match = _REF_RE.match(token)
    if match is None:
        raise TcapParseError("expected vlist(cols), got %r" % token, line_no)
    name, cols = match.groups()
    columns = [c.strip() for c in cols.split(",") if c.strip()]
    return name, columns


def _string(token, line_no):
    token = token.strip()
    if not (token.startswith("'") and token.endswith("'")):
        raise TcapParseError("expected quoted string, got %r" % token,
                             line_no)
    return token[1:-1]


def _info(token, line_no):
    token = token.strip()
    try:
        pairs = ast.literal_eval(token)
    except (SyntaxError, ValueError) as bad:
        raise TcapParseError(
            "bad key-value map %r" % token, line_no
        ) from bad
    return {str(k): v for k, v in pairs}


def parse_tcap(text):
    """Parse a TCAP program in concrete syntax; returns a TcapProgram."""
    program = TcapProgram()
    buffered = ""
    line_no = 0
    for raw_line in text.splitlines():
        line_no += 1
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("/*") or \
                stripped.startswith("#"):
            continue
        buffered += (" " if buffered else "") + stripped
        if not buffered.endswith(";"):
            continue
        statement, buffered = buffered, ""
        match = _STATEMENT_RE.match(statement)
        if match is None:
            raise TcapParseError("unparseable statement %r" % statement,
                                 line_no)
        op = match.group("op")
        output = match.group("output")
        body = _split_args(match.group("body"))
        program.append(
            _build(op, output, match.group("out_cols"), body, line_no)
        )
    if buffered:
        raise TcapParseError("unterminated statement %r" % buffered, line_no)
    return program


def _build(op, output, out_cols, body, line_no):
    out_columns = [c.strip() for c in (out_cols or "").split(",")
                   if c.strip()]
    if op == "SCAN":
        database, set_name, comp = (_string(t, line_no) for t in body[:3])
        return ScanStmt(output, out_columns[0], database, set_name, comp)
    if op == "APPLY":
        apply_ref = _ref(body[0], line_no)
        copy_ref = _ref(body[1], line_no)
        comp = _string(body[2], line_no)
        stage = _string(body[3], line_no)
        info = _info(body[4], line_no) if len(body) > 4 else {}
        new_column = out_columns[-1]
        return ApplyStmt(output, apply_ref[0], apply_ref[1], copy_ref[1],
                         new_column, comp, stage, info=info)
    if op == "FILTER":
        bool_ref = _ref(body[0], line_no)
        copy_ref = _ref(body[1], line_no)
        comp = _string(body[2], line_no)
        info = _info(body[3], line_no) if len(body) > 3 else {}
        return FilterStmt(output, bool_ref[0], bool_ref[1][0], copy_ref[1],
                          comp, info=info)
    if op == "HASH":
        key_ref = _ref(body[0], line_no)
        copy_ref = _ref(body[1], line_no)
        comp = _string(body[2], line_no)
        info = _info(body[3], line_no) if len(body) > 3 else {}
        return HashStmt(output, key_ref[0], key_ref[1][0], copy_ref[1],
                        out_columns[-1], comp, info=info)
    if op == "JOIN":
        left_hash = _ref(body[0], line_no)
        left_cols = _ref(body[1], line_no)
        right_hash = _ref(body[2], line_no)
        right_cols = _ref(body[3], line_no)
        comp = _string(body[4], line_no)
        info = _info(body[5], line_no) if len(body) > 5 else {}
        return JoinStmt(output, left_hash[0], left_hash[1][0], left_cols[1],
                        right_hash[0], right_hash[1][0], right_cols[1],
                        comp, info=info)
    if op == "FLATTEN":
        seq_ref = _ref(body[0], line_no)
        copy_ref = _ref(body[1], line_no)
        comp = _string(body[2], line_no)
        info = _info(body[3], line_no) if len(body) > 3 else {}
        return FlattenStmt(output, seq_ref[0], seq_ref[1][0], copy_ref[1],
                           out_columns[-1], comp, info=info)
    if op == "AGGREGATE":
        key_ref = _ref(body[0], line_no)
        val_ref = _ref(body[1], line_no)
        comp = _string(body[2], line_no)
        info = _info(body[3], line_no) if len(body) > 3 else {}
        return AggregateStmt(output, key_ref[0], key_ref[1][0],
                             val_ref[1][0], comp, info=info)
    if op == "OUTPUT":
        in_ref = _ref(body[0], line_no)
        *target, comp = (_string(t, line_no) for t in body[1:4])
        database, set_name = target or (None, None)
        return OutputStmt(in_ref[0], in_ref[1][0], database, set_name, comp)
    raise TcapParseError("unknown operation %r" % op, line_no)
