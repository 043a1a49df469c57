"""Property: every way in writes each object once, in order.

A task's ``private_page_writer``, ``cluster.loader()`` and an OUTPUT
stage all record objects through
:class:`repro.storage.dataset.RowPageWriter`.  For
generated page sizes and append sequences — objects of a few bytes, one
that fills a page to the last chunk, one that fits only an empty page,
one that fits none — the pages they produce decode with ``page_items`` to
exactly the appended sequence less the refused objects, in order, once.
A refused object's ``StorageError`` comes from the call that wrote its
page and names it by ``position``; it ends the page before it and
changes no other page: the pages are those of the runs between refused
objects, each loaded alone.

The loader's page *bytes* are pinned as well: ``fixtures/loader_pages.json``
holds the CRC32 of every page four fixed loads shipped when it was last
regenerated (see ``fixtures/make_loader_pages.py``), and every page those
loads ship is the per-object build of its records, its root reserved for
its count.
"""

import functools
import importlib.util
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer as pcsan
from repro.cluster import PCCluster
from repro.core import ObjectReader, SelectionComp, Writer
from repro.errors import BlockFullError, StorageError
from repro.memory import Float64, Int32, PCObject, VectorType
from repro.memory.block import AllocationBlock
from repro.memory.objects import make_object_on
from repro.storage.dataset import RowPageWriter, _place_new, \
    private_page_writer
from repro.storage.page import open_root, page_items

_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class Blob(PCObject):
    fields = [("seq", Int32), ("data", VectorType(Float64))]


class Identity(SelectionComp):
    pass


def _fits_empty_page(page_size, length):
    writer = RowPageWriter(
        lambda: (AllocationBlock(page_size), None),
        lambda block, token, count: None,
    )
    try:
        writer.append(Blob, seq=0, data=[0.0] * length)
        writer.flush()
    except StorageError:
        return False
    return True


@functools.lru_cache(maxsize=None)
def largest_fit(page_size):
    """The longest ``data`` of a Blob that fits an empty page."""
    low, high = 0, page_size // 8
    while low < high:
        mid = (low + high + 1) // 2
        if _fits_empty_page(page_size, mid):
            low = mid
        else:
            high = mid - 1
    return low


page_sizes = st.sampled_from([1 << 10, 1 << 11, 1 << 12])
#: a length, or how far below (0, 1, ...) / above (-1) the largest fit.
lengths = st.lists(
    st.one_of(
        st.integers(0, 24),
        st.sampled_from(["fit", "fit-1", "half", "too-big"]),
    ),
    min_size=1, max_size=40,
)


def resolve(page_size, length):
    fit = largest_fit(page_size)
    return {"fit": fit, "fit-1": fit - 1, "half": fit // 2,
            "too-big": fit + 1}.get(length, length)


def decoded(page_set):
    """``[(seq, len(data))]`` of every stored object, page by page."""
    return [(h.seq, len(h.data)) for h in page_set.scan_objects()]


def page_counts(page_set):
    """Objects on every sealed page, in order."""
    return [page_set.page_object_count(p) for p in page_set.page_ids]


def split_counts(page_size, stored, refused):
    """The page counts of each run of ``stored`` objects between
    ``refused`` seqs, loaded alone on a writer of its own, in order."""
    counts, runs = [], [[]]
    for seq, length in stored:
        while refused and refused[0] < seq:
            runs.append([])
            refused = refused[1:]
        runs[-1].append((seq, length))
    for run in runs:
        with RowPageWriter(
            lambda: (AllocationBlock(page_size), None),
            lambda _block, _token, count: counts.append(count)
            if count else None,
        ) as writer:
            for seq, length in run:
                writer.append(Blob, seq=seq, data=[0.0] * length)
    return counts


def make_cluster(tmp_path_factory, page_size):
    cluster = PCCluster(
        n_workers=1, page_size=page_size, transport="sim",
        spill_root=str(tmp_path_factory.mktemp("write-path")),
    )
    cluster.register_type(Blob)
    cluster.create_database("db")
    cluster.create_set("db", "blobs", Blob)
    return cluster


def append_all(page_size, lengths_, writer):
    """Append one Blob per length through ``writer``, then flush it until
    a flush raises nothing.  Returns ``[(seq, length)]`` of the Blobs
    that fit an empty page — what must have gone in — and the seqs the
    ``StorageError``s named, checked to be the others, in order."""
    fit = largest_fit(page_size)
    blobs = [(seq, resolve(page_size, length))
             for seq, length in enumerate(lengths_)]
    refused = []

    def attempt(call):
        try:
            call()
        except StorageError as error:
            refused.append(error.position)
            return False
        return True

    for seq, length in blobs:
        attempt(lambda: writer.append(Blob, seq=seq, data=[0.0] * length))
    while not attempt(writer.flush):
        pass
    assert refused == [seq for seq, length in blobs if length > fit]
    assert writer.appended == len(blobs)
    return [(seq, length) for seq, length in blobs if length <= fit], refused


@settings(max_examples=40, deadline=None)
@given(page_sizes, lengths)
def test_set_writer_records_each_object_once_in_order(
        tmp_path_factory, page_size, lengths_):
    with make_cluster(tmp_path_factory, page_size) as cluster:
        page_set = cluster.workers[0].storage.get_set("db", "blobs")
        with private_page_writer(page_size, page_set.pool.registry) as writer:
            stored, refused = append_all(page_size, lengths_, writer)
        adopted = [page_set.adopt_page_bytes(data, count, allocations)
                   for data, _crc, allocations, count in writer.sealed]
        assert decoded(page_set) == stored
        assert page_set.object_count == len(stored)
        assert page_counts(page_set) == split_counts(page_size, stored,
                                                     refused)
        assert adopted == page_set.page_ids
        assert 0 not in page_counts(page_set)
        assert page_set.pool.pinned_pages() == {}


@settings(max_examples=40, deadline=None)
@given(page_sizes, lengths)
def test_loader_and_output_stage_record_each_object_once_in_order(
        tmp_path_factory, page_size, lengths_):
    with make_cluster(tmp_path_factory, page_size) as cluster:
        page_set = cluster.workers[0].storage.get_set("db", "blobs")
        with cluster.loader("db", "blobs") as load:
            stored, refused = append_all(page_size, lengths_, load)
        assert decoded(page_set) == stored
        assert load.objects_loaded == len(stored) + len(refused)
        assert load.objects_discarded == 0
        assert load.pages_shipped == len(page_set.page_ids)
        assert page_counts(page_set) == split_counts(page_size, stored,
                                                     refused)
        assert 0 not in page_counts(page_set)

        # The same objects through an OUTPUT stage: deep-copied off the
        # input pages onto output pages of the same size.
        Writer("db", "copy").set_input(
            Identity().set_input(ObjectReader("db", "blobs"))
        ).execute(cluster)
        copy = cluster.workers[0].storage.get_set("db", "copy")
        assert decoded(copy) == stored
        assert copy.object_count == len(stored)
        assert 0 not in page_counts(copy)
        assert len(cluster.catalog.set_metadata("db", "copy").pages) \
            == len(copy.page_ids)


def test_objects_built_on_the_open_page_survive_a_roll():
    """An object living on a page that fills while it is being *listed*
    is deep-copied onto the next page — not lost, not listed twice — and
    a page is freed only with nothing recorded on it."""
    listing_rolls = 0
    for length in range(16):  # some sizes leave room for the object only
        sealed, freed = [], []

        def seal_page(block, _token, count):
            (sealed if count else freed).append(block)
            return len(sealed)

        writer = RowPageWriter(
            lambda: (AllocationBlock(1 << 10), None), seal_page
        )

        def in_place(seq):
            return make_object_on(writer.block, Blob, seq=seq,
                                  data=[1.0] * length)

        for seq in range(60):
            # As a stage's user code would: allocate in place, then record.
            try:
                handle = in_place(seq)
            except BlockFullError:
                writer.flush()  # the engine's stage-phase roll
                handle = in_place(seq)
            pages = len(sealed)
            writer.append_object(handle)
            listing_rolls += len(sealed) - pages
            handle.release()
        writer.flush()
        assert [h.seq for block in sealed for h in page_items(block)] \
            == list(range(60))
        assert freed == []
        assert writer.sealed == list(range(1, len(sealed) + 1))
    assert listing_rolls > 0


def test_a_freed_page_never_holds_an_object_still_to_be_recorded():
    """A stage may fill the page to the last chunk before anything is
    recorded: the root's first slots came with the page, so the first
    objects are listed where they live and the page is sealed, not freed
    with the rest of the batch still on it."""
    sealed, freed = [], []

    def seal_page(block, _token, count):
        (sealed if count else freed).append(block)

    writer = RowPageWriter(
        lambda: (AllocationBlock(1 << 10), None), seal_page
    )
    handles = []
    with pytest.raises(BlockFullError):
        while True:
            handles.append(make_object_on(
                writer.block, Blob, seq=len(handles), data=[]
            ))
    for handle in handles:
        writer.append_object(handle)
    writer.flush()
    assert freed == [] and len(sealed) > 1
    assert [h.seq for block in sealed for h in page_items(block)] \
        == list(range(len(handles)))


# -- the loader's bytes are what they were ----------------------------------------------


def _load_maker():
    spec = importlib.util.spec_from_file_location(
        "make_loader_pages", os.path.join(_FIXTURES, "make_loader_pages.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


maker = _load_maker()


@pytest.mark.parametrize("load", sorted(maker.LOADS))
def test_loader_ships_the_bytes_the_parent_commit_shipped(load):
    if pcsan.current_sanitizer() is not None:
        pytest.skip("the sanitizer poisons freed payloads: other bytes")
    with open(os.path.join(_FIXTURES, "loader_pages.json")) as f:
        expected = json.load(f)[load]
    assert len(expected) > 3
    assert maker.shipped_pages(load) == expected


def _watching(cluster):
    """Note the bytes and count of every page ``cluster`` stores from the
    client, and ``(cls, record)`` of every record its loaders are given,
    in order."""
    pages, records = [], []
    land_page, loader = cluster.replication.land_page, cluster.loader

    def recording_land(database, name, data, count, source="client",
                       allocations=0):
        pages.append((bytes(data), count))
        return land_page(database, name, data, count, source=source,
                         allocations=allocations)

    def noting_loader(*args, **kwargs):
        load = loader(*args, **kwargs)
        append, extend = load.append, load.extend

        def noted_append(cls, init=None, **fields):
            records.append((cls, dict(init or {}, **fields)))
            append(cls, init, **fields)

        def noted_extend(cls, rows):
            rows = list(rows)
            records.extend((cls, row) for row in rows)
            extend(cls, rows)

        load.append, load.extend = noted_append, noted_extend
        return load

    cluster.replication.land_page = recording_land
    cluster.loader = noting_loader
    return pages, records, cluster.catalog.registry


@pytest.mark.parametrize("load", sorted(maker.LOADS))
def test_every_loader_page_is_the_per_object_build_of_its_records(load):
    """Each page holds the next ``count`` records in load order, built as
    the per-object path builds them — ``make_object_on`` once per record,
    what every page of the parent commit held — its root reserved once
    for its count."""
    pages, records, registry = maker.run_load(load, _watching)
    page_size = maker.LOADS[load][1]
    assert len(pages) > 3
    assert sum(count for _data, count in pages) == len(records)
    for data, count in pages:
        block = AllocationBlock(page_size, registry=registry)
        root = open_root(block)
        root.reserve(count)
        for cls, record in records[:count]:
            _place_new(root, block, make_object_on, cls, record)
        del records[:count]
        assert data == block.to_bytes()
