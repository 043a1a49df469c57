"""Distributed matrix operations as PC computation graphs (Section 8.3).

Every operation builds the same kind of graph a lilLinAlg AST node does in
the paper: multiplication is a ``JoinComp`` (match A's block column with
B's block row) followed by an ``AggregateComp`` (sum partial products per
output block) — "distributed matrix multiplication is basically a join
followed by an aggregation".

The numeric kernels run through numpy views aliasing page bytes (the
``Eigen::Map`` path); whether a join broadcasts or hash-partitions is the
scheduler's decision, not lilLinAlg's, exactly as in PC.
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
    lambda_from_member,
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
    """A matrix stored as a PC set of MatrixBlock objects."""

    def __init__(self, cluster, database, set_name, n_rows, n_cols,
                 block_rows, block_cols):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.block_rows = block_rows
        self.block_cols = block_cols

    # -- construction ----------------------------------------------------------------

    @classmethod
    def from_numpy(cls, cluster, database, values, block_rows, block_cols,
                   set_name=None):
        """Chunk a numpy matrix into MatrixBlocks and load it."""
        values = np.asarray(values, dtype="f8")
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        set_name = set_name or _fresh_set_name("mat")
        cluster.register_type(MatrixBlock)
        cluster.create_database(database)
        cluster.create_set(database, set_name, MatrixBlock)
        n_rows, n_cols = values.shape
        with cluster.loader(database, set_name) as load:
            for brow, bcol, rslice, cslice in block_grid(
                n_rows, n_cols, block_rows, block_cols
            ):
                load.append(MatrixBlock, **matrix_block_fields(
                    brow, bcol, values[rslice, cslice]
                ))
        return cls(cluster, database, set_name, n_rows, n_cols,
                   block_rows, block_cols)

    def to_numpy(self):
        """Gather all blocks to the client and assemble the full matrix."""
        out = np.zeros((self.n_rows, self.n_cols))
        for handle in self.cluster.read(self.database, self.set_name):
            view = handle.deref()
            r0 = view.block_row * self.block_rows
            c0 = view.block_col * self.block_cols
            out[r0:r0 + view.rows, c0:c0 + view.cols] = view.get_matrix()
        return out

    def _reader(self):
        return ObjectReader(self.database, self.set_name)

    def _result(self, set_name, n_rows, n_cols, block_rows=None,
                block_cols=None):
        return DistributedMatrix(
            self.cluster, self.database, set_name, n_rows, n_cols,
            block_rows or self.block_rows, block_cols or self.block_cols,
        )

    def _run_blockwise(self, comp, n_rows, n_cols, block_rows=None,
                       block_cols=None):
        """Execute a graph whose output set holds MatrixBlock objects."""
        out_set = _fresh_set_name("mat")
        self.cluster.create_set(self.database, out_set, MatrixBlock)
        writer = Writer(self.database, out_set).set_input(comp)
        self.cluster.execute_computations(writer)
        return self._result(out_set, n_rows, n_cols, block_rows, block_cols)

    def _run_aggregated(self, agg, n_rows, n_cols, block_rows, block_cols):
        """Execute a block-sum aggregation and rematerialize blocks."""
        out_set = _fresh_set_name("agg")
        writer = Writer(self.database, out_set).set_input(agg)
        self.cluster.execute_computations(writer)
        merged = self.cluster.read(
            self.database, out_set, as_pairs=True, comp=agg
        )
        result_set = _fresh_set_name("mat")
        self.cluster.create_set(self.database, result_set, MatrixBlock)
        with self.cluster.loader(self.database, result_set) as load:
            for key, flat in merged.items():
                brow, bcol = decode_block_key(key)
                rows = min(block_rows, n_rows - brow * block_rows)
                cols = min(block_cols, n_cols - bcol * block_cols)
                load.append(MatrixBlock, **matrix_block_fields(
                    brow, bcol, np.asarray(flat).reshape(rows, cols)
                ))
        self.cluster.drop_set(self.database, out_set)
        return self._result(
            result_set, n_rows, n_cols, block_rows, block_cols
        )

    # -- element-wise operations ---------------------------------------------------------

    def _elementwise(self, other, op_name, fn):
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise LinAlgError(
                "%s shape mismatch: %sx%s vs %sx%s"
                % (op_name, self.n_rows, self.n_cols, other.n_rows,
                   other.n_cols)
            )

        class ElementwiseJoin(JoinComp):
            def get_selection(self, a, b):
                return (
                    lambda_from_member(a, "block_row")
                    == lambda_from_member(b, "block_row")
                ) & (
                    lambda_from_member(a, "block_col")
                    == lambda_from_member(b, "block_col")
                )

            def get_projection(self, a, b):
                return lambda_from_native([a, b], lambda ba, bb:
                                          make_matrix_block(
                                              ba.block_row, ba.block_col,
                                              fn(ba.get_matrix(),
                                                 bb.get_matrix())))

        join = ElementwiseJoin()
        join.set_input(0, self._reader()).set_input(1, other._reader())
        return self._run_blockwise(join, self.n_rows, self.n_cols)

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

        class Scale(SelectionComp):
            def get_projection(self, arg):
                return lambda_from_native([arg], lambda b: make_matrix_block(
                    b.block_row, b.block_col, b.get_matrix() * scalar
                ))

        sel = Scale().set_input(self._reader())
        return self._run_blockwise(sel, self.n_rows, self.n_cols)

    def subtract_row_vector(self, vector):
        """Subtract a length-``n_cols`` vector from every row.

        ``vector`` is a small client-side constant captured in the native
        lambda — the stand-in for a broadcast variable, used by the
        nearest-neighbor benchmark to form ``x_i - x'``.
        """
        vector = np.asarray(vector, dtype="f8").reshape(-1)
        if vector.size != self.n_cols:
            raise LinAlgError("row vector length mismatch")
        block_cols = self.block_cols

        class SubtractRow(SelectionComp):
            def get_projection(self, arg):
                def shift(b):
                    c0 = b.block_col * block_cols
                    segment = vector[c0:c0 + b.cols]
                    return make_matrix_block(
                        b.block_row, b.block_col, b.get_matrix() - segment
                    )

                return lambda_from_native([arg], shift)

        sel = SubtractRow().set_input(self._reader())
        return self._run_blockwise(sel, self.n_rows, self.n_cols)

    # -- structural operations ----------------------------------------------------------

    def transpose(self):
        """Distributed transpose (a selection producing swapped blocks)."""

        class Transpose(SelectionComp):
            def get_projection(self, arg):
                return lambda_from_native([arg], lambda b: make_matrix_block(
                    b.block_col, b.block_row,
                    np.ascontiguousarray(b.get_matrix().T),
                ))

        sel = Transpose().set_input(self._reader())
        return self._run_blockwise(
            sel, self.n_cols, self.n_rows,
            block_rows=self.block_cols, block_cols=self.block_rows,
        )

    # -- multiplication -------------------------------------------------------------------

    def multiply(self, other):
        """Distributed matrix multiply: join + aggregation (``%*%``)."""
        if self.n_cols != other.n_rows:
            raise LinAlgError(
                "multiply inner dimension mismatch: %d vs %d"
                % (self.n_cols, other.n_rows)
            )
        if self.block_cols != other.block_rows:
            raise LinAlgError("multiply block chunking mismatch")

        class MultiplyJoin(JoinComp):
            def get_selection(self, a, b):
                return lambda_from_member(a, "block_col") == \
                    lambda_from_member(b, "block_row")

            def get_projection(self, a, b):
                def partial(ba, bb):
                    product = ba.get_matrix() @ bb.get_matrix()
                    return (
                        encode_block_key(ba.block_row, bb.block_col),
                        product.reshape(-1),
                    )

                return lambda_from_native([a, b], partial)

        join = MultiplyJoin()
        join.set_input(0, self._reader()).set_input(1, other._reader())
        agg = BlockSumAggregate().set_input(join)
        return self._run_aggregated(
            agg, self.n_rows, other.n_cols, self.block_rows, other.block_cols
        )

    def transpose_multiply(self, other):
        """``A '* B`` = ``transpose(A) %*% B`` without materializing A^T."""
        if self.n_rows != other.n_rows:
            raise LinAlgError("transpose-multiply dimension mismatch")

        class TransposeMultiplyJoin(JoinComp):
            def get_selection(self, a, b):
                return lambda_from_member(a, "block_row") == \
                    lambda_from_member(b, "block_row")

            def get_projection(self, a, b):
                def partial(ba, bb):
                    product = ba.get_matrix().T @ bb.get_matrix()
                    return (
                        encode_block_key(ba.block_col, bb.block_col),
                        product.reshape(-1),
                    )

                return lambda_from_native([a, b], partial)

        join = TransposeMultiplyJoin()
        join.set_input(0, self._reader()).set_input(1, other._reader())
        agg = BlockSumAggregate().set_input(join)
        return self._run_aggregated(
            agg, self.n_cols, other.n_cols, self.block_cols, other.block_cols
        )

    # -- reductions ---------------------------------------------------------------------------

    def row_sum(self):
        """Column vector of row sums."""
        block_rows = self.block_rows

        class RowSum(AggregateComp):
            key_type = Int64
            value_type = VectorType(Float64)

            def get_key_projection(self, arg):
                return lambda_from_native(
                    [arg], lambda b: encode_block_key(b.block_row, 0)
                )

            def get_value_projection(self, arg):
                return lambda_from_native(
                    [arg], lambda b: b.get_matrix().sum(axis=1)
                )

            def combine(self, a, b):
                return a + b

        agg = RowSum().set_input(self._reader())
        return self._run_aggregated(
            agg, self.n_rows, 1, block_rows, 1
        )

    def col_sum(self):
        """Row vector of column sums."""
        class ColSum(AggregateComp):
            key_type = Int64
            value_type = VectorType(Float64)

            def get_key_projection(self, arg):
                return lambda_from_native(
                    [arg], lambda b: encode_block_key(0, b.block_col)
                )

            def get_value_projection(self, arg):
                return lambda_from_native(
                    [arg], lambda b: b.get_matrix().sum(axis=0)
                )

            def combine(self, a, b):
                return a + b

        agg = ColSum().set_input(self._reader())
        return self._run_aggregated(
            agg, 1, self.n_cols, 1, self.block_cols
        )

    def _scalar_reduce(self, reducer, projector):
        class Reduce(AggregateComp):
            key_type = Int64
            value_type = Float64

            def get_key_projection(self, arg):
                return lambda_from_native([arg], lambda b: 0)

            def get_value_projection(self, arg):
                return lambda_from_native([arg], projector)

            def combine(self, a, b):
                return reducer(a, b)

        agg = Reduce().set_input(self._reader())
        out_set = _fresh_set_name("sc")
        writer = Writer(self.database, out_set).set_input(agg)
        self.cluster.execute_computations(writer)
        merged = self.cluster.read(self.database, out_set, as_pairs=True)
        self.cluster.drop_set(self.database, out_set)
        values = list(merged.values())
        result = values[0]
        for value in values[1:]:
            result = reducer(result, value)
        return result

    def min_element(self):
        """The smallest entry of the matrix."""
        return self._scalar_reduce(min, lambda b: float(b.get_matrix().min()))

    def max_element(self):
        """The largest entry of the matrix."""
        return self._scalar_reduce(max, lambda b: float(b.get_matrix().max()))

    # -- small-matrix escape hatch -----------------------------------------------------------

    def inverse(self):
        """Matrix inverse (``^-1``).

        Inversion is inherently non-blockwise; like the paper's linear
        regression, it is applied to small (d x d) Gram matrices, so the
        blocks are gathered to the client, inverted with the native
        kernel, and redistributed.
        """
        if self.n_rows != self.n_cols:
            raise LinAlgError("inverse of a non-square matrix")
        full = self.to_numpy()
        inverted = np.linalg.inv(full)
        return DistributedMatrix.from_numpy(
            self.cluster, self.database, inverted,
            self.block_rows, self.block_cols,
        )

    def __repr__(self):
        return "<DistributedMatrix %s.%s %dx%d (blocks %dx%d)>" % (
            self.database, self.set_name, self.n_rows, self.n_cols,
            self.block_rows, self.block_cols,
        )
