"""What a columnar page stores of a value: exactly what the Python-list
loader stored, or an error at the call that gave it.

The loader holds each column as an array of its schema dtype, converted
once per call (``Schema.column_array`` / ``Schema.row_array``).  The
oracle is the earlier loader's path: the values as a Python list —
``values.tolist()`` for an array — laid onto a page by
``ColumnarPage.build``.  Where that raised, the call must raise
:class:`StorageError` naming the column and hold nothing; where it
stored a page, the page must be byte for byte the same.  A cast may
never wrap: ``np.array([2**40]).astype(np.int32)`` is 0, the list path
raises.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.memory.columnar import ColumnarPage, ColumnarPageWriter
from repro.schema import Schema, f32, f64, i8, i16, i32, i64

PAGE_SIZE = 1 << 12

COLUMNS = [f64, f32, i64, i32, i16, i8]

VALUES = sorted({
    bound for dtype in (np.int8, np.int16, np.int32, np.int64)
    for bound in (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
}) + [
    0, 1, -1, 2 ** 31, 2 ** 40, 2 ** 64 - 1, True,
    float("nan"), float("inf"), float("-inf"), -0.0, 2.5, -2.5, 2.0 ** 63,
    np.int64(2 ** 40), np.float32(2.5), np.uint64(2 ** 64 - 1),
]

#: how a column's values arrive: a Python list, or an array of a dtype
SOURCES = ["list", np.int64, np.uint64, np.float64, np.float32, np.int32,
           np.int8, np.bool_]


def _source(values, source):
    """``values`` as a list, or as an array of ``source``'s dtype — each
    value cast to it any way, wrapping too: the array is the input."""
    if source == "list":
        return list(values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.array([np.asarray(value).astype(source)
                         for value in values], dtype=source)


def _list_path(schema, columns):
    """The page the Python-list loader stored, or None where it raised."""
    listed = {name: values.tolist() if hasattr(values, "tolist")
              else list(values) for name, values in columns.items()}
    try:
        return ColumnarPage.build(schema, listed, PAGE_SIZE).block.to_bytes()
    except (OverflowError, ValueError, TypeError):
        return None


def _writer(schema):
    pages = []
    writer = ColumnarPageWriter(
        schema, PAGE_SIZE, lambda page: pages.append(page.block.to_bytes()),
    )
    return writer, pages


@settings(max_examples=300, deadline=None)
@given(column=st.sampled_from(COLUMNS), source=st.sampled_from(SOURCES),
       values=st.lists(st.sampled_from(VALUES), min_size=1, max_size=6))
def test_append_columns_stores_what_the_list_path_stored(column, source,
                                                         values):
    values = _source(values, source)
    schema = Schema([("k", i64), ("v", column)])
    columns = {"k": np.arange(len(values)), "v": values}
    expected = _list_path(schema, columns)
    writer, pages = _writer(schema)
    if expected is None:
        with pytest.raises(StorageError, match="column 'v'"):
            writer.append_columns(**columns)
    else:
        writer.append_columns(**columns)
    writer.flush()
    assert pages == ([] if expected is None else [expected])
    assert writer.appended == (0 if expected is None else len(values))


@settings(max_examples=100, deadline=None)
@given(column=st.sampled_from(COLUMNS),
       values=st.lists(st.sampled_from(VALUES), min_size=1, max_size=8))
def test_append_holds_a_row_as_the_list_path_stored_it(column, values):
    schema = Schema([("k", i64), ("v", column)])
    writer, pages = _writer(schema)
    kept = []
    for index, value in enumerate(values):
        row = {"k": [index], "v": [value]}
        if _list_path(schema, row) is None:
            with pytest.raises(StorageError, match="column 'v'"):
                writer.append(k=index, v=value)
        else:
            writer.append(k=index, v=value)
            kept.append(index)
    writer.flush()
    # A refused row left no column a row longer than the other.
    assert writer.appended == len(kept)
    expected = _list_path(schema, {
        "k": kept, "v": [values[index] for index in kept],
    })
    assert pages == ([expected] if kept else [])


def test_pages_cut_across_calls_hold_the_rows_in_order():
    schema = Schema([("k", i64), ("x", f64)])
    writer, pages = _writer(schema)
    capacity = writer.capacity
    sizes = [3, capacity - 1, 2 * capacity + 5, 1, capacity]
    start = 0
    for calls, size in enumerate(sizes):
        keys = np.arange(start, start + size)
        if calls % 2:
            for key in keys.tolist():
                writer.append(k=key, x=key / 2.0)
        else:
            writer.append_columns(k=keys, x=keys / 2.0)
        start += size
    writer.flush()
    assert len(pages) == -(-start // capacity)
    keys = np.arange(start)
    assert pages == [
        ColumnarPage.build(schema, {"k": keys[at:at + capacity],
                                    "x": keys[at:at + capacity] / 2.0},
                           PAGE_SIZE).block.to_bytes()
        for at in range(0, start, capacity)
    ]


def test_a_keyword_that_names_no_column_is_refused():
    writer, pages = _writer(Schema([("x", f64), ("n", i32)]))
    with pytest.raises(StorageError, match="typo"):
        writer.append(x=1.0, n=1, typo=5)
    with pytest.raises(StorageError, match="missing"):
        writer.append(x=1.0)
    writer.append(x=2.0, n=2)
    writer.flush()
    assert writer.appended == 1 and len(pages) == 1
