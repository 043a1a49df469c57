"""Vector lists: the unit of data flowing through TCAP pipelines.

A :class:`VectorList` is an ordered bundle of equal-length named columns
(Section 5.2).  Pipelines push *batches* — vector lists whose row count
is sized so that a batch's per-call dispatch is amortised while its
working set stays small (the paper sizes a vector list to the cache
rather than processing one row, Volcano style, or one full column,
materialization style).  One rule sizes every batch, from what the
batch holds:

* a *kernel batch* holds up to :data:`ARRAY_BATCH_ROWS` rows of a marked
  scan over columnar pages, copied out of consecutive pages.  Each stage
  is one numpy call over the whole batch, so the per-batch Python cost
  (a stage call, a vector list copy, one ``np.unique`` in a grouped sum)
  is what the size amortises; the rows are copies, so the batch holds
  no page;
* an *object batch* holds :data:`OBJECT_BATCH_ROWS` rows: handles into
  pages (unmarked rows, a row page's gathered slice, stored columns).
  Every stage runs per row on it, so the size only bounds the working
  set — and how many pages the batch keeps reachable.

Neither is a knob: each is a property of its executor, not of a job or
a data set, and no result depends on either beyond float reassociation
(bounded by the accumulation note of :mod:`repro.engine.kernels`).
Whether a batch fits the sink's output page is the engine's business:
it cuts a batch to what the page takes, halving the cut when an empty
page refuses it (:meth:`~repro.engine.pipeline.PipelineEngine.run_stages`).

Columns are Python lists on the object path and numpy arrays or
:class:`~repro.memory.columnar.RowBatch` batches on the array path; the
vector list itself is agnostic — it only requires that every column
report the same ``len``.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.memory.columnar import RowBatch

#: Rows per object batch, and where a page-writing sink's cut starts.
OBJECT_BATCH_ROWS = 1024
#: Rows per kernel batch: a marked columnar scan.  Swept from 8k to 64k
#: rows in EXPERIMENTS.md.
ARRAY_BATCH_ROWS = 24576


class VectorList:
    """Named, equal-length columns.

    The column dict is private: every mutation goes through
    :meth:`append_column` (or the copying helpers), which re-validate the
    equal-length invariant.  ``__len__`` reports the first column's
    length, so an unchecked write could silently desynchronize it from
    the rest — the constructor-only validation this replaces allowed
    exactly that.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns=None):
        self._columns = dict(columns or {})
        lengths = {len(col) for col in self._columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(
                "ragged vector list: column lengths %s" % sorted(lengths)
            )

    def __len__(self):
        for column in self._columns.values():
            return len(column)
        return 0

    def __contains__(self, name):
        return name in self._columns

    def column(self, name):
        try:
            return self._columns[name]
        except KeyError as missing:
            raise ExecutionError(
                "vector list has no column %r (has %s)"
                % (name, sorted(self._columns))
            ) from missing

    def append_column(self, name, values):
        """Add (or replace) a column in place, re-validating lengths."""
        if self._columns and len(values) != len(self):
            raise ExecutionError(
                "ragged vector list: column %r has %d rows, expected %d"
                % (name, len(values), len(self))
            )
        self._columns[name] = values

    def shallow_copy(self, names):
        """A new vector list sharing the selected column objects.

        This is TCAP's shallow column copy: no per-row work at all.
        """
        return VectorList({name: self.column(name) for name in names})

    def with_column(self, name, values):
        """This vector list plus one appended column (shared others)."""
        out = VectorList(self._columns)
        out.append_column(name, values)
        return out

    def slice(self, start, stop):
        """Rows ``start:stop`` of every column (a ``RowBatch`` its own way)."""
        return VectorList({
            name: column.slice(start, stop) if isinstance(column, RowBatch)
            else column[start:stop]
            for name, column in self._columns.items()
        })

    def names(self):
        return list(self._columns)

    def __repr__(self):
        return "VectorList(%s x %d rows)" % (sorted(self._columns), len(self))


def batches_of(column_dict):
    """Aligned columns as :data:`OBJECT_BATCH_ROWS`-row VectorList batches."""
    columns = VectorList(column_dict)
    for start in range(0, len(columns), OBJECT_BATCH_ROWS):
        yield columns.slice(start, start + OBJECT_BATCH_ROWS)
