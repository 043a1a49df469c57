"""Page sets: named collections of pages holding PC objects.

A stored set in PC is a bag of pages, each carrying a root
``Vector<Handle<Object>>`` of the objects on that page.  Writers allocate
objects in place on the current page and retire it when an allocation no
longer fits (the out-of-memory fault of Section 6.1); readers pin pages
one at a time and iterate the root vector.
"""

from __future__ import annotations

import contextlib

from repro.errors import BlockFullError, StorageError
from repro.memory.objects import make_object_on, use_allocation_block
from repro.storage.page import open_root, page_items


class PageSet:
    """One partition of a stored set, local to a worker."""

    def __init__(self, database, name, pool, type_name=None, page_size=None,
                 layout="row", schema=None):
        self.database = database
        self.name = name
        self.pool = pool
        self.type_name = type_name
        self.page_size = page_size or pool.page_size
        #: "row" or "columnar"; individual pages self-describe (their root
        #: type code), so a columnar set can still adopt row pages (e.g.
        #: aggregation outputs written into it).
        self.layout = layout
        self.schema = schema
        self.page_ids = []
        self.object_count = 0

    @property
    def key(self):
        return (self.database, self.name)

    @property
    def qualified_name(self):
        return "%s.%s" % (self.database, self.name)

    # -- writing -------------------------------------------------------------------

    def writer(self):
        """Context manager yielding a :class:`SetWriter`."""
        return SetWriter(self)

    def adopt_page_bytes(self, data, count_objects=True):
        """Install a page that arrived over the (simulated) network.

        The arriving bytes are used verbatim — zero-cost data movement.
        ``count_objects=False`` adopts the page without adding its objects
        to the partition's logical count; the replication layer uses it
        for redundant copies, which must not inflate set cardinality.
        """
        page = self.pool.adopt_page(data, set_key=self.key)
        if count_objects:
            self.object_count += len(page_items(page.block))
        self.page_ids.append(page.page_id)
        self.pool.unpin(page.page_id, dirty=True)
        return page.page_id

    def replace_page_bytes(self, old_page_id, data):
        """Swap a page's bytes for a healthy copy fetched from a replica.

        The old (quarantined) page is freed and the replacement adopted in
        its slot, keeping scan order and the logical object count intact.
        """
        index = self.page_ids.index(old_page_id)
        self.pool.free_page(old_page_id)
        page = self.pool.adopt_page(data, set_key=self.key)
        self.page_ids[index] = page.page_id
        self.pool.unpin(page.page_id, dirty=True)
        return page.page_id

    def page_object_count(self, page_id):
        """Number of objects (rows, for columnar pages) on one page."""
        with self.pinned_page(page_id) as page:
            return len(page_items(page.block))

    # -- reading --------------------------------------------------------------------

    @contextlib.contextmanager
    def pinned_page(self, page_id):
        """Pin ``page_id`` for the duration of the with-block."""
        page = self.pool.pin(page_id)
        try:
            yield page
        finally:
            self.pool.unpin(page_id)

    def scan_objects(self):
        """Yield every object in the partition, page by page (a columnar
        page's rows as per-row views)."""
        for page_id in self.page_ids:
            with self.pinned_page(page_id) as page:
                yield from page_items(page.block)

    def clear(self):
        """Drop all pages of this partition."""
        for page_id in self.page_ids:
            self.pool.free_page(page_id)
        self.page_ids = []
        self.object_count = 0

    def __len__(self):
        return self.object_count

    def __repr__(self):
        return "<PageSet %s: %d objects on %d pages>" % (
            self.qualified_name, self.object_count, len(self.page_ids),
        )


class SetWriter:
    """Appends objects to a page set, rolling pages as they fill."""

    def __init__(self, page_set):
        self.page_set = page_set
        self._page = None
        self._root = None

    def __enter__(self):
        self._open_page()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._seal_page()
        return False

    def _open_page(self):
        pool = self.page_set.pool
        self._page = pool.new_page(
            size=self.page_set.page_size, set_key=self.page_set.key
        )
        self._root = open_root(self._page.block)

    def _seal_page(self):
        if self._page is None:
            return
        self.page_set.page_ids.append(self._page.page_id)
        self.page_set.pool.unpin(self._page.page_id, dirty=True)
        self._page = None
        self._root = None

    def append(self, type_or_class, init=None, **fields):
        """Allocate one object in place on the current page and record it.

        On a full page, the page is sealed and the allocation retried on a
        fresh one (the engine's reaction to the out-of-memory fault).
        """
        for attempt in (0, 1):
            block = self._page.block
            try:
                self._root.reserve(len(self._root) + 1)
                handle = make_object_on(block, type_or_class, init, **fields)
                self._root.append(handle)
                handle.release()
                self.page_set.object_count += 1
                return
            except BlockFullError as full:
                if attempt:
                    raise StorageError(
                        "a single object does not fit on an empty %d-byte page"
                        % self.page_set.page_size
                    ) from full
                self._seal_page()
                self._open_page()

    def append_built(self, build):
        """Run ``build(block)`` on the current page; it returns a handle.

        For objects too intricate for keyword construction: ``build`` is
        called with the page's block as the active allocation block and
        must return the handle of the single object to record.
        """
        for attempt in (0, 1):
            block = self._page.block
            try:
                self._root.reserve(len(self._root) + 1)
                with use_allocation_block(block):
                    handle = build(block)
                self._root.append(handle)
                handle.release()
                self.page_set.object_count += 1
                return
            except BlockFullError as full:
                if attempt:
                    raise StorageError(
                        "a single object does not fit on an empty %d-byte page"
                        % self.page_set.page_size
                    ) from full
                self._seal_page()
                self._open_page()
