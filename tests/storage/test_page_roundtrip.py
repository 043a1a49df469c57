"""Property tests: page bytes survive every hop byte-identically.

A sealed page's bytes are the unit of durability — they spill to disk,
ship over the network, and are adopted into replica partitions verbatim.
These hypothesis properties pin the byte-level contract: for arbitrary
object populations, every hop returns the exact sealed bytes (equal
CRC32, equal values), and the corruption hooks are *detectable* — a
flipped payload never checksums clean, and a checksummed transfer either
re-sends its way to the pristine bytes or raises, never delivers damage.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.catalog import CatalogManager, LocalCatalog
from repro.cluster import FaultInjector, RetryPolicy
from repro.cluster.transport import Transport
from repro.errors import PageCorruptionError
from repro.memory import Float64, Int32, PCObject, String, VectorType
from repro.storage import (
    LocalStorageServer,
    corrupt_bytes,
    page_checksum,
)


class Rec(PCObject):
    fields = [("pid", Int32), ("name", String), ("xs", VectorType(Float64))]


ascii_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)
payloads = st.lists(
    st.tuples(
        st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
        ascii_names,
        st.lists(st.integers(-1000, 1000).map(float), max_size=8),
    ),
    min_size=1,
    max_size=60,
)


def _write(server, records, write_pages):
    page_set = server.create_set("db", "s")
    write_pages(page_set, Rec, (
        {"pid": pid, "name": name, "xs": xs} for pid, name, xs in records
    ))
    return page_set


def _values(page_set):
    return [(h.pid, h.name, list(h.xs)) for h in page_set.scan_objects()]


@settings(max_examples=30, deadline=None)
@given(payloads)
def test_ship_and_adopt_roundtrip_is_byte_identical(
    tmp_path_factory, write_pages, records,
):
    """sealed page -> network ship -> replica adopt: same bytes, values."""
    tmp = tmp_path_factory.mktemp("roundtrip")
    catalog = CatalogManager()
    catalog.register_type(Rec)
    src_server = LocalStorageServer(
        "a", 1 << 22, page_size=1 << 12,
        registry=LocalCatalog(catalog).registry, spill_dir=str(tmp / "a"),
    )
    dst_server = LocalStorageServer(
        "b", 1 << 22, page_size=1 << 12,
        registry=LocalCatalog(catalog).registry, spill_dir=str(tmp / "b"),
    )
    network = Transport()
    src = _write(src_server, records, write_pages)
    dst = dst_server.create_set("db", "s")
    checksums = []
    for page_id in src.page_ids:
        with src.pinned_page(page_id) as page:
            data = page.to_bytes()
        checksum = page_checksum(data)
        delivered = network.ship_page("a", "b", data, checksum=checksum)
        assert delivered == data  # byte-identical arrival
        pid = dst.adopt_page_bytes(delivered)
        checksums.append((pid, checksum))
    for pid, checksum in checksums:
        with dst.pinned_page(pid) as page:
            assert page_checksum(page.to_bytes()) == checksum
    assert _values(dst) == _values(src) == [
        (pid, name, xs) for pid, name, xs in records
    ]


@settings(max_examples=20, deadline=None)
@given(payloads)
def test_spill_reload_roundtrip_is_checksum_identical(
    tmp_path_factory, write_pages, records,
):
    """sealed page -> spill -> reload: the CRC32 stamped at seal holds."""
    tmp = tmp_path_factory.mktemp("spill")
    server = LocalStorageServer(
        "w", capacity_bytes=3 << 12, page_size=1 << 12,
        spill_dir=str(tmp),
    )
    page_set = _write(server, records, write_pages)
    sealed = {}
    for page_id in page_set.page_ids:
        with page_set.pinned_page(page_id) as page:
            sealed[page_id] = page_checksum(page.to_bytes())
    # Walking every page through a 3-page pool evicts and reloads; each
    # reload must hand back exactly the sealed bytes.
    for page_id in page_set.page_ids:
        with page_set.pinned_page(page_id) as page:
            assert page_checksum(page.to_bytes()) == sealed[page_id]
    assert _values(page_set) == [(p, n, xs) for p, n, xs in records]


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=1, max_size=4096))
def test_corruption_always_changes_the_checksum(data):
    flipped = corrupt_bytes(data)
    assert flipped != data
    assert page_checksum(flipped) != page_checksum(data)
    # Corruption is an involution: flipping twice restores the bytes.
    assert corrupt_bytes(flipped) == data


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=1, max_size=4096), st.integers(0, 2))
def test_corrupted_transfer_never_delivers_damage(data, corruptions):
    """With a checksum, a flipped arrival is re-sent or raises — the
    caller either gets the pristine bytes or an error, never damage."""
    injector = FaultInjector().corrupt_transfer(times=corruptions)
    network = Transport(
        fault_injector=injector,
        retry_policy=RetryPolicy(transfer_retries=2),
    )
    delivered = network.ship_page(
        "a", "b", data, checksum=page_checksum(data)
    )
    assert delivered == data
    assert network.metrics.snapshot().value(
        "pc_net_transfers_corrupted_total") == corruptions


def test_corrupted_transfer_without_budget_raises():
    injector = FaultInjector().corrupt_transfer(times=5)
    network = Transport(
        fault_injector=injector, retry_policy=RetryPolicy.disabled()
    )
    data = b"sealed page bytes"
    with pytest.raises(PageCorruptionError):
        network.ship_page("a", "b", data, checksum=page_checksum(data))


def test_unchecksummed_transfer_delivers_flipped_bytes():
    """Without a checksum the network cannot detect the flip — the
    damaged payload is delivered for downstream checks to catch."""
    injector = FaultInjector().corrupt_transfer(times=1)
    network = Transport(fault_injector=injector)
    data = b"sealed page bytes"
    assert network.ship_page("a", "b", data) == corrupt_bytes(data)
