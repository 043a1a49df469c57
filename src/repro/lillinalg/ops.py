"""Distributed matrix operations as one PC computation graph (Section 8.3).

A :class:`DistributedMatrix` is either *stored* — a set of MatrixBlocks —
or an *expression*: a Computation yielding host rows ``(block_row,
block_col, ndarray)``, plus its shape and chunking.  Every operator takes
host rows and returns a new expression without running a job, so a
statement sequence becomes one graph that TCAP optimizes whole and the
scheduler runs where the blocks are — the paper's flow of "parse into an
AST, then use the AST to build up a graph of PC Computation objects".
Multiplication is a ``JoinComp`` (match A's block column with B's block
row) followed by an ``AggregateComp`` (sum partial products per output
block); whether a join broadcasts or hash-partitions is the scheduler's
decision, not lilLinAlg's, exactly as in PC.

A stored matrix enters an expression through one selection that copies
each block's matrix out of its page, so no view outlives its pin.  Only
:meth:`DistributedMatrix.materialize` makes MatrixBlocks, through the
job's own Writer; :meth:`~DistributedMatrix.to_numpy`,
:meth:`~DistributedMatrix.inverse` and the scalar reductions run a job —
a scalar reduction's aggregation is its job's result, stored nowhere.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_native,
)
from repro.errors import LinAlgError
from repro.memory import Float64, Int64, VectorType
from repro.lillinalg.matrix import (
    MatrixBlock,
    block_grid,
    decode_block_key,
    encode_block_key,
    make_matrix_block,
    matrix_block_fields,
)

_set_ids = itertools.count(1)


def _fresh_set_name(prefix):
    return "%s_%d" % (prefix, next(_set_ids))


def _load(cluster, database, set_name, values, block_rows, block_cols):
    """Chunk ``values`` into the MatrixBlocks of a new set."""
    cluster.register_type(MatrixBlock)
    cluster.create_database(database)
    cluster.create_set(database, set_name, MatrixBlock)
    with cluster.loader(database, set_name) as load:
        for brow, bcol, rslice, cslice in block_grid(
            *values.shape, block_rows, block_cols
        ):
            load.append(MatrixBlock, **matrix_block_fields(
                brow, bcol, values[rslice, cslice]
            ))


def _coords(row):
    """A host row's block coordinates as one int64 join key."""
    return encode_block_key(row[0], row[1])


class _RowMap(SelectionComp):
    """Each input row becomes ``fn(row)``."""

    def __init__(self, source, fn):
        super().__init__()
        self.fn = fn
        self.set_input(source)

    def get_projection(self, arg):
        return lambda_from_native([arg], self.fn)


class _RowJoin(JoinComp):
    """Rows of two inputs whose keys are equal become ``fn(left, right)``."""

    def __init__(self, left, right, left_key, right_key, fn):
        super().__init__()
        self.keys = (left_key, right_key)
        self.fn = fn
        self.set_input(0, left).set_input(1, right)

    def get_selection(self, a, b):
        return lambda_from_native([a], self.keys[0]) == \
            lambda_from_native([b], self.keys[1])

    def get_projection(self, a, b):
        return lambda_from_native([a, b], self.fn)


def _read_rows(database, set_name):
    """A MatrixBlock set's host rows, each block copied out of its page."""
    return _RowMap(
        ObjectReader(database, set_name),
        lambda b: (b.block_row, b.block_col, np.array(b.get_matrix())),
    )


class BlockSumAggregate(AggregateComp):
    """Sums numpy partial blocks keyed by encoded block coordinates."""

    key_type = Int64
    value_type = VectorType(Float64)

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda t: t[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda t: t[1])

    def combine(self, a, b):
        return a + b


class DistributedMatrix:
    """A matrix: a stored set of MatrixBlocks (``set_name``), or an
    expression (``comp``, a Computation yielding host rows).  ``hosts``
    are the client-side matrices an expression reads (``{set name:
    (ndarray, block_rows, block_cols)}``): each job that runs it loads
    them into those sets first and drops the sets after."""

    def __init__(self, cluster, database, set_name, n_rows, n_cols,
                 block_rows, block_cols, comp=None, hosts=None):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.block_rows = block_rows
        self.block_cols = block_cols
        self.comp = comp
        self.hosts = hosts or {}

    # -- construction and evaluation ------------------------------------------------

    @classmethod
    def from_numpy(cls, cluster, database, values, block_rows, block_cols,
                   set_name=None):
        """Chunk a numpy matrix into MatrixBlocks and load it."""
        values = np.asarray(values, dtype="f8")
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        set_name = set_name or _fresh_set_name("mat")
        _load(cluster, database, set_name, values, block_rows, block_cols)
        return cls(cluster, database, set_name, *values.shape,
                   block_rows, block_cols)

    def materialize(self, set_name=None):
        """Run the expression into a MatrixBlock set — ``set_name``, or a
        fresh one — through the job's own Writer; returns it stored.  A
        stored matrix with no ``set_name`` is returned as it is."""
        if self.comp is None and set_name is None:
            return self
        set_name = set_name or _fresh_set_name("mat")
        self.cluster.create_set(self.database, set_name, MatrixBlock)
        blocks = _RowMap(self._rows(), lambda r: make_matrix_block(*r))
        self._run(Writer(self.database, set_name).set_input(blocks))
        return DistributedMatrix(
            self.cluster, self.database, set_name, self.n_rows, self.n_cols,
            self.block_rows, self.block_cols,
        )

    def to_numpy(self):
        """The full matrix on the client.  An expression is materialized
        into a fresh set, read, and the set dropped."""
        if self.comp is not None:
            set_name = _fresh_set_name("mat")
            try:
                return self.materialize(set_name).to_numpy()
            finally:
                self.cluster.drop_set(self.database, set_name)
        out = np.zeros((self.n_rows, self.n_cols))
        for handle in self.cluster.read(self.database, self.set_name):
            view = handle.deref()
            r0 = view.block_row * self.block_rows
            c0 = view.block_col * self.block_cols
            out[r0:r0 + view.rows, c0:c0 + view.cols] = view.get_matrix()
        return out

    def _run(self, sink):
        """Run ``sink``'s job with the expression's host matrices loaded
        for it; their sets are dropped however the job ends.  Returns
        what the job does (:meth:`PCCluster.execute_computations`)."""
        try:
            for set_name, host in self.hosts.items():
                _load(self.cluster, self.database, set_name, *host)
            return self.cluster.execute_computations(sink)
        finally:
            for set_name in self.hosts:
                if (self.database, set_name) in self.cluster.storage_manager:
                    self.cluster.drop_set(self.database, set_name)

    def _rows(self):
        """The Computation yielding this matrix's host rows."""
        if self.comp is not None:
            return self.comp
        return _read_rows(self.database, self.set_name)

    def _expression(self, comp, n_rows=None, n_cols=None, block_rows=None,
                    block_cols=None, other=None):
        """An expression over this matrix (and ``other``, if binary)."""
        return DistributedMatrix(
            self.cluster, self.database, None,
            self.n_rows if n_rows is None else n_rows,
            self.n_cols if n_cols is None else n_cols,
            block_rows or self.block_rows, block_cols or self.block_cols,
            comp=comp, hosts={**self.hosts, **getattr(other, "hosts", {})},
        )

    def _map(self, fn, **shape):
        return self._expression(_RowMap(self._rows(), fn), **shape)

    def _summed(self, pairs, n_rows, n_cols, block_rows, block_cols,
                other=None):
        """The expression whose blocks are the sums of ``pairs``' ``(key,
        flat)`` partials, decoded back into host rows on the workers."""
        def unpack(pair):
            brow, bcol = decode_block_key(pair[0])
            rows = min(block_rows, n_rows - brow * block_rows)
            return brow, bcol, pair[1].reshape(rows, -1)

        agg = BlockSumAggregate().set_input(pairs)
        return self._expression(_RowMap(agg, unpack), n_rows, n_cols,
                                block_rows, block_cols, other)

    # -- element-wise operations -------------------------------------------------------

    def _elementwise(self, other, op_name, fn):
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise LinAlgError(
                "%s shape mismatch: %sx%s vs %sx%s"
                % (op_name, self.n_rows, self.n_cols, other.n_rows,
                   other.n_cols)
            )
        return self._expression(_RowJoin(
            self._rows(), other._rows(), _coords, _coords,
            lambda a, b: (a[0], a[1], fn(a[2], b[2])),
        ), other=other)

    def add(self, other):
        """Element-wise sum (a join on block coordinates)."""
        return self._elementwise(other, "add", lambda a, b: a + b)

    def subtract(self, other):
        """Element-wise difference."""
        return self._elementwise(other, "subtract", lambda a, b: a - b)

    def elementwise_multiply(self, other):
        """Hadamard product (the DSL's ``.*``)."""
        return self._elementwise(other, ".*", lambda a, b: a * b)

    def scale_multiply(self, scalar):
        """Multiply every entry by ``scalar``."""
        scalar = float(scalar)
        return self._map(lambda r: (r[0], r[1], r[2] * scalar))

    def subtract_row_vector(self, vector):
        """Subtract a length-``n_cols`` vector from every row.

        ``vector`` is a small client-side constant captured in the native
        lambda — the stand-in for a broadcast variable, used by the
        nearest-neighbor benchmark to form ``x_i - x'``.
        """
        vector = np.array(vector, dtype="f8").reshape(-1)  # not the caller's
        if vector.size != self.n_cols:
            raise LinAlgError("row vector length mismatch")
        block_cols = self.block_cols

        def shift(r):
            c0 = r[1] * block_cols
            return r[0], r[1], r[2] - vector[c0:c0 + r[2].shape[1]]

        return self._map(shift)

    # -- structural operations -------------------------------------------------------------

    def transpose(self):
        """Distributed transpose (a selection producing swapped blocks)."""
        return self._map(
            lambda r: (r[1], r[0], r[2].T),
            n_rows=self.n_cols, n_cols=self.n_rows,
            block_rows=self.block_cols, block_cols=self.block_rows,
        )

    # -- multiplication and reductions ------------------------------------------------------

    def multiply(self, other):
        """Distributed matrix multiply: join + aggregation (``%*%``)."""
        if self.n_cols != other.n_rows:
            raise LinAlgError(
                "multiply inner dimension mismatch: %d vs %d"
                % (self.n_cols, other.n_rows)
            )
        if self.block_cols != other.block_rows:
            raise LinAlgError("multiply block chunking mismatch")
        partials = _RowJoin(
            self._rows(), other._rows(), lambda a: a[1], lambda b: b[0],
            lambda a, b: (encode_block_key(a[0], b[1]),
                          (a[2] @ b[2]).reshape(-1)),
        )
        return self._summed(partials, self.n_rows, other.n_cols,
                            self.block_rows, other.block_cols, other)

    def transpose_multiply(self, other):
        """``A '* B`` = ``transpose(A) %*% B`` without materializing A^T."""
        if self.n_rows != other.n_rows:
            raise LinAlgError("transpose-multiply dimension mismatch")
        partials = _RowJoin(
            self._rows(), other._rows(), lambda a: a[0], lambda b: b[0],
            lambda a, b: (encode_block_key(a[1], b[1]),
                          (a[2].T @ b[2]).reshape(-1)),
        )
        return self._summed(partials, self.n_cols, other.n_cols,
                            self.block_cols, other.block_cols, other)

    def row_sum(self):
        """Column vector of row sums."""
        pairs = _RowMap(self._rows(), lambda r: (
            encode_block_key(r[0], 0), r[2].sum(axis=1)
        ))
        return self._summed(pairs, self.n_rows, 1, self.block_rows, 1)

    def col_sum(self):
        """Row vector of column sums."""
        pairs = _RowMap(self._rows(), lambda r: (
            encode_block_key(0, r[1]), r[2].sum(axis=0)
        ))
        return self._summed(pairs, 1, self.n_cols, 1, self.block_cols)

    def _scalar_reduce(self, reducer, projector):
        class Reduce(AggregateComp):
            key_type = Int64
            value_type = Float64

            def get_key_projection(self, arg):
                return lambda_from_native([arg], lambda r: 0)

            def get_value_projection(self, arg):
                return lambda_from_native([arg], projector)

            def combine(self, a, b):
                return reducer(a, b)

        return self._run(Reduce().set_input(self._rows()))[0]

    def min_element(self):
        """The smallest entry of the matrix."""
        return self._scalar_reduce(min, lambda r: float(r[2].min()))

    def max_element(self):
        """The largest entry of the matrix."""
        return self._scalar_reduce(max, lambda r: float(r[2].max()))

    # -- small-matrix escape hatch -----------------------------------------------------------

    def inverse(self):
        """Matrix inverse (``^-1``).

        Inversion is inherently non-blockwise; like the paper's linear
        regression, it is applied to small (d x d) Gram matrices, so the
        whole matrix is gathered to the client by design and inverted
        with the native kernel.  The inverse stays a host matrix, loaded
        only for the jobs that read it (``hosts``).
        """
        if self.n_rows != self.n_cols:
            raise LinAlgError("inverse of a non-square matrix")
        set_name = _fresh_set_name("inv")
        hosts = {set_name: (np.linalg.inv(self.to_numpy()), self.block_rows,
                            self.block_cols)}
        return DistributedMatrix(
            self.cluster, self.database, None, self.n_rows, self.n_cols,
            self.block_rows, self.block_cols,
            comp=_read_rows(self.database, set_name), hosts=hosts,
        )

    def __repr__(self):
        what = self.set_name if self.comp is None else self.comp.name
        return "<DistributedMatrix %s.%s %dx%d (blocks %dx%d)>" % (
            self.database, what, self.n_rows, self.n_cols,
            self.block_rows, self.block_cols,
        )
