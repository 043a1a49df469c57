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
from repro.memory.block import AllocationBlock
from repro.memory.objects import PCObject, make_object_on
from repro.memory.scatter import plan_objects
from repro.storage.page import open_root, page_items
from repro.storage.replication import page_checksum

#: records :meth:`RowPageWriter._write` measures for a class's first page
_FIRST_WINDOW = 32


class PageSet:
    """One partition of a stored set, local to a worker."""

    def __init__(self, database, name, pool, page_size=None):
        self.database = database
        self.name = name
        self.pool = pool
        self.page_size = page_size or pool.page_size
        self.page_ids = []
        self.object_count = 0

    @property
    def key(self):
        return (self.database, self.name)

    # -- writing -------------------------------------------------------------------

    def adopt_page_bytes(self, data, count=0, allocations=0):
        """Install a page that arrived over the (simulated) network.

        The arriving bytes are used verbatim — zero-cost data movement.
        ``count`` is what the page adds to the partition's logical count:
        the objects on it as its writer sealed them for the copy readers
        count, 0 for a redundant copy, which must not inflate set
        cardinality.  ``allocations`` is the allocator work that built
        the page, when a task of this worker did (booked with the pool's
        own).
        """
        page = self.pool.adopt_page(
            data, set_key=self.key, allocations=allocations
        )
        self.object_count += count
        self.page_ids.append(page.page_id)
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

    def rollback(self, page_id, count=0):
        """Free one page — a copy nothing will record, or one a healed
        copy replaced — and take back the ``count`` objects it added."""
        self.pool.free_page(page_id)
        self.page_ids.remove(page_id)
        self.object_count -= count

    def clear(self):
        """Drop all pages of this partition."""
        for page_id in self.page_ids:
            self.pool.free_page(page_id)
        self.page_ids = []
        self.object_count = 0

    def __len__(self):
        return self.object_count

    def __repr__(self):
        return "<PageSet %s.%s: %d objects on %d pages>" % (
            self.database, self.name, self.object_count, len(self.page_ids),
        )


class FlushOnExit:
    """The ``with`` contract of everything that builds pages: a clean
    exit flushes what is open, an exception — the body's or the
    flush's — discards it."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            try:
                self.flush()
            except BaseException:
                self.discard()
                raise
        else:
            self.discard()
        return False


class RowPageWriter(FlushOnExit):
    """The one way objects become row pages.

    A host-value record of a ``PCObject`` class — :meth:`append`'s
    fields, each of :meth:`extend`'s records — joins the *write window*,
    which is written a page at a time (:meth:`_write`): a page is sealed
    when it is full or at :meth:`flush`, never at a call boundary.  Any
    other object — an existing one (:meth:`append_object`), a descriptor
    value — is recorded (listed in the root vector) on the open page at
    once, the window written first; a page that cannot take it is sealed
    and *that one object* retried on the next (:class:`StorageError` if
    an empty page cannot take it either).  A page with nothing recorded
    is freed, not sealed.

    Callers differ in three things, and supply them: ``open_page() ->
    (block, token)`` gives an empty block; ``seal_page(block, token,
    count)`` takes a finished one holding ``count`` objects (0: nothing
    on it is kept, free it) and returns its name, kept in :attr:`sealed`;
    ``declined(reason)`` hears why a record was built object by object —
    a stage's pending object too (``repro.memory.objects.PendingObject``):
    a writer that is the active allocation target is its window.
    """

    def __init__(self, open_page, seal_page, declined=None):
        self._open_page = open_page
        self._seal_page = seal_page
        self.declined = declined or (lambda _reason: None)
        self._block = self._token = self._root = None
        self._window, self._cls, self._want = [], None, _FIRST_WINDOW
        #: what ``seal_page`` returned for every page sealed so far.
        self.sealed = []
        #: records accepted so far — recorded, in the window, or refused
        #: where their page was written — a later :meth:`discard` included.
        self.appended = 0

    @property
    def block(self):
        """The open page's block (opened if none is), the window written
        first: where user code allocates what it will hand to
        :meth:`append_object`."""
        self._write(final=True, shared=True)
        if self._root is None:
            self._open()
        return self._block

    def _open(self, bare=False):
        self._block, self._token = self._open_page()
        self._root = open_root(self._block)
        if not bare:
            # The root's first slots come with the page (the first record
            # allocates them anyway): an object living on a page with
            # nothing recorded can always be listed there, so a page that
            # is freed never holds an object still to be recorded.
            self._root.reserve(1)

    def _retire(self, count):
        block, token = self._block, self._token
        self._block = self._token = self._root = None
        sealed = self._seal_page(block, token, count)
        if count:
            self.sealed.append(sealed)

    def _seal(self):
        if self._root is not None:
            self._retire(len(self._root))

    def flush(self):
        """Write the window, then seal the open page, if any; the next
        object opens a fresh one."""
        self._write(final=True)
        self._seal()

    def discard(self):
        """Drop the window and the open page unsealed; returns how many
        accepted records went with them."""
        dropped = len(self._window)
        self._window.clear()
        if self._root is not None:
            dropped += len(self._root)
            self._retire(0)
        return dropped

    def _record(self, place, /, *args, **fields):
        """``place(root, block, ...)`` one object on the open page; if the
        page fills, seal it and retry once on a fresh one.  A failed
        ``place`` leaves the root's count as it was; what it allocated is
        dead space on the sealed page.  The page is rolled after the
        ``except`` block: its traceback holds views into the full page,
        which must be gone before the page is sealed and dropped."""
        for fresh in (False, True):
            if self._root is None:
                self._open()
            try:
                place(self._root, self._block, *args, **fields)
            except BlockFullError as full:
                if fresh:
                    raise StorageError(
                        "a single object (one row) does not fit on an empty "
                        "%d-byte page: raise the set's page_size"
                        % self._block.size
                    ) from full
            else:
                return
            self._seal()

    def append(self, type_or_class, init=None, **fields):
        """One object: a ``PCObject`` class's record — ``init`` (a dict or
        None) updated with ``fields`` — joins the window; anything else
        is allocated in place on the open page and recorded."""
        if isinstance(type_or_class, type) and \
                issubclass(type_or_class, PCObject) and \
                (init is None or isinstance(init, dict)):
            self._accept(type_or_class,
                         fields if init is None else {**init, **fields})
            return
        self._write(final=True, shared=True)
        self._record(_place_new, make_object_on, type_or_class, init,
                     **fields)
        self.appended += 1

    def append_object(self, value):
        """Record an existing object (a handle or facade): linked if it
        lives on the open page, deep-copied onto it if not."""
        self._write(final=True, shared=True)
        self._record(_place_existing, value)
        self.appended += 1

    def extend(self, cls, records):
        """Put the host-value trees ``records`` of the ``PCObject`` class
        ``cls`` — each the dict ``append(cls, record)`` takes — in the
        window, one after another, as :meth:`append` puts one."""
        for record in records:
            self._accept(cls, record)

    def _accept(self, cls, record):
        if cls is not self._cls:
            self._write(final=True)
            self._cls, self._want = cls, _FIRST_WINDOW
        self._window.append(record)
        self.appended += 1
        if len(self._window) >= self._want:
            self._write()

    def _write(self, final=False, shared=False):
        """Write the window a page at a time: every page it fills and,
        ``final``, the rest, on a page left open.  A fresh page takes the
        longest prefix of whole trees that fits, its root vector sized
        once for them, written with one plan and one scatter
        (:func:`~repro.memory.scatter.plan_objects`), and is sealed when
        the next tree does not fit.  The window is measured once it holds
        ``_want`` records: 32 first; while a page takes them all, as many
        as a page takes of their mean size (1.125× as many at least);
        after a full page, 1.125× its count.

        A tree the planner does not cover, and one the measure shows
        fills a page alone, is built object by object (:meth:`_build`);
        the trees after one it does not cover share its page until the
        next planned one.  When an object is recorded next (``shared``),
        a last tree the open page takes is built there too, undeclined.
        """
        window = self._window
        while window and (final or len(window) >= self._want):
            if self._root is None:
                self._open(bare=True)
            plan = plan_objects(self._block, self._cls, window)
            if shared and plan.covered == len(window) == 1 \
                    and plan.fit(self._block.size - self._block.used):
                return self._build("")
            if plan.covered and self._root._state()[2]:  # the root has slots
                self._seal()
                self._open(bare=True)
            if plan.covered and not self._block.bump_only:
                while window:  # freed space could be handed out
                    self._build("not_bump_only")
                return
            room = self._block.size - self._block.used
            stored = plan.fit(room)
            if stored == len(window) and not final:  # the page may take more
                self._want = max(plan.capacity(room), stored + stored // 8) + 1
                return
            if stored > 1:
                plan.write(self._block, self._root, stored)
                del window[:stored]
                if stored < plan.covered:  # the page is full
                    self._seal()
                    self._want = stored + stored // 8 + 1
            elif stored:  # one tree: built object by object, as is each
                # next one the measure shows alone before a measured tree
                self._build("one_per_page")
                for start in range(1, plan.covered - 1):
                    self._seal()  # tree ``start`` did not fit beside it
                    if plan.fit(room, start) != 1:
                        break
                    self._build("one_per_page")
            else:  # not covered, or too big for an empty page
                self._build(None if plan.covered else plan.reason)

    def _build(self, reason):
        """Build the window's first record object by object, after
        ``declined(reason)`` hears why (an empty one: no decline).  No
        reason: it holds a host value that path rejects, or no empty page
        takes it, and it raises on a fresh page, the one before sealed —
        the error's ``position`` its index in ``appended`` order; the
        records before it are recorded, the ones after stay in the window."""
        if reason is None:  # its failed build is dead space on no page kept
            self._seal()
        elif reason:
            self.declined(reason)
        position = self.appended - len(self._window)
        record = self._window.pop(0)
        try:
            self._record(_place_new, make_object_on, self._cls, record)
        except Exception as error:
            error.position = position
            raise


def private_page_writer(page_size, registry, declined=None):
    """A :class:`RowPageWriter` for a task that holds no pool: an empty
    block is a private :class:`AllocationBlock`, a sealed one is its
    ``(bytes, CRC, allocations made on it, objects recorded on it)`` —
    what travels home for the partition's owner to verify, adopt and
    place.  A task that dies leaves nothing behind."""

    def open_page():
        return AllocationBlock(page_size, registry=registry), None

    def seal_page(block, _token, count):
        if not count:
            return None
        data = block.to_bytes()
        return data, page_checksum(data), block.alloc_count, count

    return RowPageWriter(open_page, seal_page, declined)


def _place_new(root, block, make, /, *args, **fields):
    # The slot is reserved first, so listing the object never needs an
    # allocation on a page the object itself just filled.
    root.reserve(len(root) + 1)
    handle = make(block, *args, **fields)
    root.append(handle)
    handle.release()


def _place_existing(root, _block, value):
    root.append(value)


def pack_map_pages(map_type, pairs, page_size, registry, declined=None):
    """``pairs`` as Map pages — an aggregation's combiner pages (Figure
    5) and its stored output alike: as many ``page_size`` blocks as it
    takes, each one's root a ``map_type`` Map holding the leading pairs
    its page takes (:class:`BlockFullError` if not even one), read
    straight out of the bytes by :func:`~repro.storage.page.page_items`.
    Each is sealed as :func:`private_page_writer` seals a page: ``(bytes,
    CRC, allocations made on it, 1)``.  ``declined(reason)`` hears why a
    Map was built pair by pair instead of planned
    (:meth:`~repro.memory.builtins.MapFacade.fill`).
    """
    pending = list(pairs)
    pages = []
    while pending:
        block = AllocationBlock(page_size, registry=registry)
        handle = make_object_on(block, map_type, None)
        del pending[:handle.deref().fill(pending, declined)]
        block.set_root(handle.offset, handle.type_code)
        data = block.to_bytes()
        pages.append((data, page_checksum(data), block.alloc_count, 1))
    return pages
