"""Fixtures shared across the test packages."""

import pytest

from repro.schema import Schema
from repro.storage.dataset import private_page_writer


def _no_schema(cls):
    return None


@pytest.fixture(params=["row", "columnar"])
def schema_of(request):
    """The ``schema=`` a test creates its sets with, as a function of the
    set's class: None (object pages) or ``Schema.from_class`` (columnar
    pages).  A set is columnar iff it was created with a schema, so a test
    taking this fixture runs once per page layout."""
    return Schema.from_class if request.param == "columnar" else _no_schema


def _write_pages(page_set, cls, records):
    """``records`` (field dicts of ``cls``) written the way every stored
    page is: on private blocks (``private_page_writer``), each sealed
    page then adopted by ``page_set``.  Returns the adopted page ids."""
    writer = private_page_writer(page_set.page_size, page_set.pool.registry)
    with writer:
        for fields in records:
            writer.append(cls, **fields)
    return [
        page_set.adopt_page_bytes(data, count, allocations)
        for data, _crc, allocations, count in writer.sealed
    ]


@pytest.fixture(scope="session")
def write_pages():
    """:func:`_write_pages`: a storage test's way to fill a page set."""
    return _write_pages
