"""Whole-batch numpy kernels for columnar-lowered TCAP stages.

When the optimizer marks a statement ``columnar`` (see
:mod:`repro.tcap.optimizer.columnar`), the pipeline engine routes it here
instead of the per-row implementations in
:mod:`repro.engine.pipeline`.  A kernel executes one stage over the whole
batch as a single array operation: attribute access becomes a zero-copy
column view, comparisons/arithmetic become ufunc calls, FILTER becomes a
boolean mask, and grouped sums become one ``bincount`` (one ``np.add.at``
into a ``(groups, w)`` array when each row's value is a vector).

A rows column is a :class:`~repro.memory.columnar.RowBatch` — the rows
of a columnar page, or the objects of one class on a row page
(:mod:`repro.memory.gather`); nothing here tells the two apart.

Every kernel is *total over its guard, partial over its inputs*: it
raises :class:`~repro.memory.gather.GatherIneligible` whenever the batch
does not actually carry array-typed columns (e.g. a row page stored in
a columnar set feeding per-row objects into a marked stage) or a gather
read cannot serve it, and the engine counts the reason and falls back
to the object path for that stage.  The :func:`reify` boundary converts
array columns back into plain Python values so fallback operators and
sinks observe exactly what the object path would have produced.

Accumulation order note: grouped float sums use sequential in-input-order
accumulation in float64 (``np.bincount`` / ``np.add.at``; a vector sum
accumulates each of its ``w`` lanes the same way) per *batch*, then
combine batch subtotals.  A kernel batch of a columnar scan spans pages
(up to :data:`~repro.engine.vectors.ARRAY_BATCH_ROWS` rows copied from
consecutive pages), so a batch boundary falls wherever that row count
does, not at a page's edge.  Relative to the strictly row-at-a-time
object path this reassociates floating-point addition across batch
boundaries; results are identical whenever the addends are exactly
representable (the parity suite uses dyadic rationals for this reason).
Integer sums accumulate in 64 bits, so a total past the declared type's
range (an ``Int32`` sum of 3 × 2³⁰) raises when it is stored, on both
paths, instead of wrapping on this one.
"""

from __future__ import annotations

import numpy as np

from repro.engine.vectors import VectorList
from repro.memory.columnar import RowBatch
from repro.memory.gather import GatherIneligible

_COMPARISON_OPS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ARITHMETIC_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


def is_array_column(column):
    """True for column values the kernels can consume whole."""
    return isinstance(column, (np.ndarray, RowBatch))


def is_columnar_batch(batch):
    """True when any column of ``batch`` is array-typed."""
    return any(is_array_column(batch.column(name)) for name in batch.names())


def array_path(batch):
    """The counter the rows kernels serve of ``batch`` are booked under:
    its rows column's (``RowBatch.path``); ``columnar_rows`` for a batch
    of plain arrays."""
    for name in batch.names():
        column = batch.column(name)
        if isinstance(column, RowBatch):
            return column.path
    return "columnar_rows"


def reify_column(column):
    """One column's object-path representation (plain Python values)."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    if isinstance(column, RowBatch):
        return column.reify()
    return column


def reify(batch):
    """The batch with every array column lowered to plain Python values.

    ``ndarray.tolist`` yields Python scalars (not numpy scalars), so a
    reified batch is indistinguishable from one the object path built.
    """
    if not is_columnar_batch(batch):
        return batch
    return VectorList({
        name: reify_column(batch.column(name)) for name in batch.names()
    })


def _as_arrays(columns):
    """All columns as ndarrays, or None when any is not kernel-ready."""
    arrays = []
    for column in columns:
        if not isinstance(column, np.ndarray):
            return None
        arrays.append(column)
    return arrays


def apply_kernel(engine, stage, batch):
    """Run a columnar-marked APPLY as one array op.

    A native lambda's kernel takes a rows column as its object column
    and returns one column of the batch's length: an ndarray, or a list
    (an object column).
    """
    info = stage.info
    kind = info.get("type")
    inputs = [batch.column(c) for c in stage.apply_columns]
    produced = None
    if kind == "attAccess":
        rows = inputs[0]
        if isinstance(rows, RowBatch):
            try:
                produced = rows.column(info["attName"])
            except KeyError:
                produced = None
    elif kind == "self":
        if inputs and is_array_column(inputs[0]):
            produced = inputs[0]
    elif kind == "constant":
        produced = np.full(len(batch), info["value"])
    elif kind in ("comparison", "equalityCheck", "arithmetic"):
        fn = _COMPARISON_OPS.get(info.get("op")) or _ARITHMETIC_OPS.get(
            info.get("op")
        )
        arrays = _as_arrays(inputs)
        if fn is not None and arrays is not None and len(arrays) == 2:
            produced = fn(arrays[0], arrays[1])
    elif kind == "bool_and":
        arrays = _as_arrays(inputs)
        if arrays is not None and len(arrays) == 2:
            produced = np.logical_and(arrays[0], arrays[1])
    elif kind == "bool_or":
        arrays = _as_arrays(inputs)
        if arrays is not None and len(arrays) == 2:
            produced = np.logical_or(arrays[0], arrays[1])
    elif kind == "bool_not":
        arrays = _as_arrays(inputs)
        if arrays is not None and len(arrays) == 1:
            produced = np.logical_not(arrays[0])
    elif kind == "nativeLambda":
        kernel = getattr(engine.program, "kernels", {}).get(
            (stage.computation, stage.stage)
        )
        if kernel is not None and all(is_array_column(c) for c in inputs):
            produced = kernel(*inputs)
            if not isinstance(produced, (np.ndarray, list)) or \
                    len(produced) != len(batch):
                raise GatherIneligible("bad_kernel_result")
    if produced is None:
        raise GatherIneligible("not_array_batch")
    out = batch.shallow_copy(stage.copy_columns)
    return out.with_column(stage.new_column, produced)


def filter_kernel(stage, batch):
    """Run a columnar-marked FILTER as a boolean mask."""
    mask = batch.column(stage.bool_column)
    if not isinstance(mask, np.ndarray):
        raise GatherIneligible("not_array_batch")
    mask = mask.astype(bool, copy=False)
    out = {}
    for name in stage.copy_columns:
        column = batch.column(name)
        if isinstance(column, RowBatch):
            out[name] = column.mask(mask)
        elif isinstance(column, np.ndarray):
            out[name] = column[mask]
        else:
            raise GatherIneligible("not_array_batch")
    return VectorList(out)


def _accumulator(dtype):
    """The dtype a grouped sum of ``dtype`` values accumulates in: 64-bit
    integers (signed, or unsigned for unsigned values) and float64 — the
    widths of the object path's Python ``int`` and ``float`` — so a
    batch's subtotal neither wraps nor rounds at the column's width."""
    if dtype.kind in "bi":
        return np.dtype(np.int64)
    if dtype.kind == "u":
        return np.dtype(np.uint64)
    if dtype.kind == "f":
        return np.dtype(np.float64)
    return dtype


def aggregate_sum(groups, keys, values):
    """Fold one batch of (key, value) pairs into ``groups`` as grouped sums.

    ``values`` is one scalar per row, or an ``(n, w)`` array: one vector
    of ``w`` per row (a ``Vector<numeric>`` sum, e.g. k-means'
    ``(count, Σx)``).  Accumulation is sequential in input order within
    the batch (bincount for float scalars, unbuffered ``np.add.at``
    otherwise, so integer sums stay exact integers as on the object
    path), at the width :func:`_accumulator` gives.  A vector group is
    held as an ndarray row, never a list: the object path's ``+`` must
    add it, not concatenate.
    """
    unique, inverse = np.unique(keys, return_inverse=True)
    wide = _accumulator(values.dtype)
    if values.ndim == 2:
        sums = np.zeros((len(unique), values.shape[1]), dtype=wide)
        np.add.at(sums, inverse, values)
        for key, total in zip(unique.tolist(), sums):
            groups[key] = groups[key] + total if key in groups else total
        return
    if wide == np.float64:
        sums = np.bincount(inverse, weights=values, minlength=len(unique))
    else:
        sums = np.zeros(len(unique), dtype=wide)
        np.add.at(sums, inverse, values)
    for key, total in zip(unique.tolist(), sums.tolist()):
        if key in groups:
            groups[key] = groups[key] + total
        else:
            groups[key] = total
