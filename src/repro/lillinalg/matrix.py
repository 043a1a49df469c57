"""MatrixBlock: the chunked representation of distributed matrices.

A huge matrix is stored as a PC set of :class:`MatrixBlock` objects, each
holding one contiguous rectangular sub-block (Section 6.1, Section 8.3.1).
The numeric payload lives as raw float64 bytes on the block's page;
:meth:`MatrixBlock.get_matrix` returns a numpy view that *aliases* those
bytes — the exact reproduction of the paper's ``Eigen::Map`` over
``getRawDataHandle()->c_ptr()``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LinAlgError
from repro.memory import Float64, Int32, PCObject, VectorType, make_object

#: Key encoding for (block_row, block_col) aggregation keys: PC Maps key on
#: primitives, so block coordinates pack into one int64.
_KEY_SHIFT = 20


def encode_block_key(block_row, block_col):
    """Pack block coordinates into a single int64 aggregation key."""
    return (block_row << _KEY_SHIFT) | block_col


def decode_block_key(key):
    """Unpack an int64 aggregation key into (block_row, block_col)."""
    return key >> _KEY_SHIFT, key & ((1 << _KEY_SHIFT) - 1)


class MatrixBlock(PCObject):
    """One rectangular chunk of a distributed matrix."""

    fields = [
        ("block_row", Int32),
        ("block_col", Int32),
        ("rows", Int32),
        ("cols", Int32),
        ("data", VectorType(Float64)),
    ]

    def get_matrix(self):
        """A (rows, cols) numpy view aliasing the page bytes (zero copy)."""
        return self.data.as_numpy().reshape(self.rows, self.cols)

    def key(self):
        return (self.block_row, self.block_col)


def matrix_block_fields(block_row, block_col, values):
    """The keyword fields of a MatrixBlock holding a 2-D numpy array."""
    values = np.ascontiguousarray(values, dtype="f8")
    if values.ndim != 2:
        raise LinAlgError("matrix block values must be 2-D")
    return dict(block_row=block_row, block_col=block_col,
                rows=values.shape[0], cols=values.shape[1], data=values)


def make_matrix_block(block_row, block_col, values):
    """Allocate a MatrixBlock on the active block from a 2-D numpy array."""
    return make_object(
        MatrixBlock, **matrix_block_fields(block_row, block_col, values)
    )


def block_grid(n_rows, n_cols, block_rows, block_cols):
    """Yield ``(brow, bcol, row_slice, col_slice)`` covering the matrix."""
    for brow in range((n_rows + block_rows - 1) // block_rows):
        for bcol in range((n_cols + block_cols - 1) // block_cols):
            row_slice = slice(
                brow * block_rows, min((brow + 1) * block_rows, n_rows)
            )
            col_slice = slice(
                bcol * block_cols, min((bcol + 1) * block_cols, n_cols)
            )
            yield brow, bcol, row_slice, col_slice
