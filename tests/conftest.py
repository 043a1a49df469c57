"""Fixtures shared across the test packages."""

import pytest

from repro.schema import Schema


def _no_schema(cls):
    return None


@pytest.fixture(params=["row", "columnar"])
def schema_of(request):
    """The ``schema=`` a test creates its sets with, as a function of the
    set's class: None (object pages) or ``Schema.from_class`` (columnar
    pages).  A set is columnar iff it was created with a schema, so a test
    taking this fixture runs once per page layout."""
    return Schema.from_class if request.param == "columnar" else _no_schema
