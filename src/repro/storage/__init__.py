"""Storage subsystem: buffer pool, pages, page sets, storage managers."""

from repro.storage.buffer_pool import BufferPool
from repro.storage.dataset import PageSet, RowPageWriter
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.replication import (
    PlacementRing,
    ReplicationManager,
    corrupt_bytes,
    page_checksum,
)
from repro.storage.storage_manager import (
    DistributedStorageManager,
    LocalStorageServer,
)

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "DistributedStorageManager",
    "LocalStorageServer",
    "Page",
    "PageSet",
    "PlacementRing",
    "ReplicationManager",
    "RowPageWriter",
    "corrupt_bytes",
    "page_checksum",
]
