"""Pages sealed by PR 12's builders decode identically under this code.

The single-pass builders changed how containers are *sized* (one exact
allocation instead of doubling) but not one byte of the page format, so
bytes written by the previous builders must read back unchanged:
``fixtures/parent_pages.json`` holds one set page of ``Customer`` trees
and one aggregation ``Map`` page sealed at the parent commit (see
``fixtures/make_parent_pages.py``), with the registry codes they were
written under and the values they hold.  The customer page is read under
the schema it was written with, whose ``orders`` and ``line_items`` are
``Vector<AnyObject>`` (the maker's ``CUSTOMER_CLASSES``).
"""

import base64
import importlib.util
import json
import os

import pytest

from repro.memory import AllocationBlock, VectorType
from repro.memory.builtins import AnyObject
from repro.memory.typecodes import TypeRegistry

_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _load_maker():
    spec = importlib.util.spec_from_file_location(
        "make_parent_pages", os.path.join(_FIXTURES, "make_parent_pages.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


maker = _load_maker()


@pytest.fixture(scope="module")
def pages():
    with open(os.path.join(_FIXTURES, "parent_pages.json")) as f:
        return json.load(f)


def _attach(page, roots, managed=False):
    """The sealed bytes as a block, under the codes they were written with."""
    by_name = {}

    def closure(descriptor):
        if descriptor.is_object_type and descriptor.name not in by_name:
            by_name[descriptor.name] = descriptor
            for dependent in descriptor.dependents():
                closure(dependent)

    for root in roots:
        closure(root)
    registry = TypeRegistry()
    for code, name in page["codes"].items():
        registry.register(name, by_name[name], code=int(code))
    block = AllocationBlock.from_bytes(
        base64.b64decode(page["bytes"]), registry=registry, managed=managed,
    )
    offset, code = block.root()
    assert registry.name_of(code) == roots[0].name
    return roots[0].facade(block, offset)


def _plain(view):
    return {
        supplier: {customer: list(parts) for customer, parts in inner.items()}
        for supplier, inner in view.items()
    }


def test_parent_customer_page_decodes_unchanged(pages):
    page = pages["customer"]
    root = _attach(page, [VectorType(AnyObject)] + [
        cls.pc_descriptor for cls in maker.CUSTOMER_CLASSES
    ])
    customers = [handle.deref() for handle in root]
    assert [maker.decode_customer(c) for c in customers] == page["expected"]
    # The derived reads the TPC-H queries run go over the same bytes.
    assert customers[0].part_ids() == {
        item["part"]["part_id"]
        for order in page["expected"][0]["orders"]
        for item in order["line_items"]
    }


def test_parent_map_page_decodes_unchanged(pages):
    page = pages["map"]
    view = _attach(page, [maker.AGG_MAP])
    assert len(view) == len(page["expected"])
    assert _plain(view) == page["expected"] == maker.AGG_VALUE
    for supplier, inner in page["expected"].items():
        customer = next(iter(inner))
        assert list(view[supplier][customer]) == inner[customer]
    assert "Supplier#999" not in view


def test_parent_map_page_takes_inserts_from_the_new_builders(pages):
    # The other direction of the same format: a table the parent sized
    # by doubling is probed, overwritten and regrown by the new code.
    page = pages["map"]
    view = _attach(page, [maker.AGG_MAP], managed=True)
    extra = {
        "Supplier#9%02d" % s: {"Customer#%05d" % s: [s, s + 1]}
        for s in range(12)
    }
    overwritten = next(iter(page["expected"]))
    extra[overwritten] = {"Customer#new": [1, 2, 3]}
    assert view.fill(list(extra.items())) == len(extra)
    assert _plain(view) == {**page["expected"], **extra}
