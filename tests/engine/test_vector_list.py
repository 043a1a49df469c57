"""VectorList invariants: the column dict is private and stays rectangular.

Seed regression: ``columns`` was a public dict, so any pipeline stage
could assign a wrong-length column and silently desynchronize ``len``
(which reads the first column) from the rest.  Mutation now goes through
``append_column``, which re-validates the equal-length invariant on
every write, not just at construction.
"""

import numpy as np
import pytest

from repro.engine import vectors
from repro.engine.vectors import VectorList, batches_of
from repro.errors import ExecutionError
from repro.memory.columnar import ColumnarRows


def test_constructor_rejects_ragged_columns():
    with pytest.raises(ExecutionError, match="ragged"):
        VectorList({"a": [1, 2, 3], "b": [1]})


def test_append_column_validates_every_write():
    batch = VectorList({"a": [1, 2, 3]})
    with pytest.raises(ExecutionError, match="'b' has 2 rows, expected 3"):
        batch.append_column("b", [10, 20])
    batch.append_column("b", [10, 20, 30])
    assert batch.column("b") == [10, 20, 30]
    assert len(batch) == 3


def test_append_column_replaces_in_place():
    batch = VectorList({"a": [1, 2]})
    batch.append_column("a", [5, 6])
    assert batch.column("a") == [5, 6]
    # Replacement is held to the same invariant as addition.
    with pytest.raises(ExecutionError, match="ragged"):
        batch.append_column("a", [7])


def test_columns_are_not_reachable_as_a_public_attribute():
    batch = VectorList({"a": [1]})
    with pytest.raises(AttributeError):
        batch.columns
    with pytest.raises(AttributeError):
        batch.columns = {"a": [1, 2]}


def test_first_column_cannot_be_desynchronized():
    # The empty case: the first appended column sets the length.
    batch = VectorList()
    assert len(batch) == 0
    batch.append_column("a", [1, 2])
    assert len(batch) == 2
    with pytest.raises(ExecutionError, match="ragged"):
        batch.append_column("z", [])


def test_with_column_shares_others_and_validates():
    base = VectorList({"a": [1, 2]})
    extended = base.with_column("b", [3, 4])
    assert extended.column("a") is base.column("a")
    assert "b" not in base
    with pytest.raises(ExecutionError, match="ragged"):
        base.with_column("b", [3])


def test_shallow_copy_selects_and_shares():
    base = VectorList({"a": [1], "b": [2], "c": [3]})
    copy = base.shallow_copy(["a", "c"])
    assert copy.names() == ["a", "c"]
    assert copy.column("a") is base.column("a")
    with pytest.raises(ExecutionError, match="no column 'b'"):
        copy.column("b")


def test_numpy_columns_satisfy_the_len_contract():
    batch = VectorList({"a": np.arange(4)})
    batch.append_column("b", np.zeros(4))
    assert len(batch) == 4
    with pytest.raises(ExecutionError, match="ragged"):
        batch.append_column("c", np.zeros(5))


def test_batches_of_slices_aligned_columns(monkeypatch):
    assert vectors.OBJECT_BATCH_ROWS == 1024
    monkeypatch.setattr(vectors, "OBJECT_BATCH_ROWS", 4)
    columns = {"a": list(range(10)), "b": list(range(10, 20))}
    batches = list(batches_of(columns))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert batches[-1].column("b") == [18, 19]
    assert list(batches_of({})) == []


def test_slice_cuts_every_column_its_own_way():
    rows = ColumnarRows.copied({"k": np.arange(6), "x": np.arange(6) / 2.0})
    batch = VectorList({"rows": rows, "a": list(range(6)),
                        "n": np.arange(6) * 10})
    cut = batch.slice(2, 5)
    assert len(cut) == 3 and cut.names() == batch.names()
    assert isinstance(cut.column("rows"), ColumnarRows)
    assert cut.column("rows").column("k").tolist() == [2, 3, 4]
    assert cut.column("a") == [2, 3, 4]
    assert cut.column("n").tolist() == [20, 30, 40]
    assert len(batch.slice(4, 100)) == 2 and len(batch) == 6
