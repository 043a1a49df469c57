"""Pages: fixed-size units of buffered, movable object storage.

A :class:`Page` owns one allocation block.  A page enters a buffer pool
as the bytes of a block built elsewhere (``BufferPool.adopt_page``), is
pinned while in use, and is spilled to the user-level file system,
shipped across the simulated network, or freed.
"""

from __future__ import annotations

from repro.memory.block import AllocationBlock
from repro.memory.builtins import AnyObject, VectorType
from repro.memory.columnar import ColumnarPage
from repro.memory.objects import make_object_on
from repro.memory.types import registry_of

#: PC's default page size is 256 MB (Section 8.3.1); the reproduction
#: default is scaled down to keep laptop runs snappy, and every workload
#: that tunes page size (Table 2) passes its own.
DEFAULT_PAGE_SIZE = 1 << 20

#: A row page's root object: the ``Vector<Handle<Object>>`` of everything
#: stored on it.
_ROOT_VECTOR = VectorType(AnyObject)


def open_root(block):
    """Give an empty ``block`` its root vector; returns the vector facade."""
    handle = make_object_on(block, _ROOT_VECTOR, [])
    block.set_root(handle.offset, handle.type_code)
    return _ROOT_VECTOR.facade(block, handle.offset)


def register_root_type(catalog):
    """Register the row-page root type with ``catalog``: done before a
    job's tasks are placed, so that a back-end process — whose registry
    is a copy that cannot ask for a cluster-wide code — can build row
    pages even when no row page was loaded before."""
    return catalog.register_type(_ROOT_VECTOR)


def page_items(block):
    """The stored objects of one page block — the one page decode.

    A columnar page gives its :class:`~repro.memory.columnar.ColumnarRows`,
    a row page its root vector of handles, a Map page (an aggregation's
    combiner and output pages, whose root is the Map) its one
    :class:`~repro.memory.builtins.MapFacade`, a rootless page nothing;
    each iterates (and ``len``s) one element per stored object.  Every
    reader — front-end scan, client read, back-end process, the
    aggregation exchange, object counts — turns page bytes into objects
    here.
    """
    colpage = ColumnarPage.attach(block)
    if colpage is not None:
        return colpage.rows()
    root_offset, code = block.root()
    if root_offset is None:
        return ()
    # The root vector's code is asked for by name (a worker's registry
    # learns it from the master); a registry may be unable to fetch it by
    # number, so only another root's code is looked up.
    if code == _ROOT_VECTOR.type_code(block):
        return _ROOT_VECTOR.facade(block, root_offset)
    return (registry_of(block).lookup(code).facade(block, root_offset),)


class Page:
    """One buffer-pool page wrapping an allocation block."""

    __slots__ = ("page_id", "block", "nbytes", "pin_count", "dirty",
                 "set_key", "shm")

    def __init__(self, page_id, block, set_key=None):
        self.page_id = page_id
        self.block = block
        #: the block's size, which outlives the block: ``size`` drops to
        #: 0 while the page is spilled, the bytes it needs back do not.
        self.nbytes = block.size
        self.pin_count = 0
        self.dirty = False
        #: the (database, set) this page belongs to, when any.
        self.set_key = set_key
        #: the shared-memory frame (``buffer_pool._Frame``: a named segment)
        #: backing ``block.buf`` when the owning pool runs in ``shm``
        #: residency (None for bytearray residency).
        self.shm = None

    @property
    def size(self):
        return self.block.size if self.block is not None else 0

    @property
    def in_memory(self):
        """False once the page's bytes have been spilled and dropped."""
        return self.block is not None

    def to_bytes(self):
        """Zero-cost representation of the page (block bytes verbatim)."""
        return self.block.to_bytes()

    @classmethod
    def from_bytes(cls, page_id, data, registry=None, set_key=None,
                   metrics=None):
        """Reconstitute a page that arrived from disk or the network."""
        block = AllocationBlock.from_bytes(data, registry=registry,
                                           metrics=metrics)
        return cls(page_id, block, set_key=set_key)

    def __repr__(self):
        state = "mem" if self.in_memory else "spilled"
        return "<Page %d %s pins=%d>" % (self.page_id, state, self.pin_count)
