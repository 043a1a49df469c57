"""Replicated, checksummed page storage.

PC's storage subsystem keeps a set's pages on the workers' durable
front-ends; this module adds the redundancy layer on top:

* every sealed page is stamped with a CRC32 over its bytes — the
  integrity reference each copy is verified against on every spill
  reload, network receipt, and replicated read;
* ``create_set(..., replication=k)`` places each page on ``k`` workers
  chosen by a deterministic :class:`PlacementRing`: a copy lands by
  ``_copy`` only, and pages are recorded — after every copy of them
  arrived — in one journal group, a job's output (all its sets) by
  ``place_pages`` and a load block's by ``record_landed``;
* the catalog's per-set replica map (``SetMetadata.pages``) is the
  authoritative record of where each page's copies live, so reads fail
  over to any live replica, corrupted copies are quarantined and healed
  from a healthy one, and a node loss triggers re-replication.

All activity is counted in ``pc_repl_*`` counters, mirrored into the
active trace span.
"""

from __future__ import annotations

import zlib

from repro.errors import PageCorruptionError, ReplicationError
from repro.obs import MetricsRegistry, Tracer
from repro.storage.page import page_items


def page_checksum(data):
    """CRC32 of a page's bytes (the integrity stamp)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def corrupt_bytes(data):
    """Flip one byte mid-buffer — the canonical injected corruption."""
    if not data:
        return data
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0xFF
    return bytes(flipped)


class PlacementRing:
    """Deterministic replica placement over the sorted live workers.

    The primary's ``k - 1`` ring successors hold the extra copies, so
    placement is a pure function of (primary, live workers, k) and every
    node computes the same answer.  Re-replication targets are picked by
    hashing the page uid over the eligible workers, spreading a dead
    node's pages across all survivors instead of one.
    """

    def __init__(self, worker_ids):
        self.worker_ids = sorted(worker_ids)

    def replicas_for(self, primary, k):
        """The ``k`` workers holding a page whose primary is ``primary``."""
        ring = self.worker_ids
        if primary not in ring:
            raise ReplicationError(
                "primary %r is not an attached worker" % (primary,)
            )
        start = ring.index(primary)
        count = min(k, len(ring))
        return [ring[(start + i) % len(ring)] for i in range(count)]

    def rereplication_target(self, uid, holders):
        """A worker to receive a fresh copy of page ``uid``, or None."""
        eligible = [w for w in self.worker_ids if w not in holders]
        if not eligible:
            return None
        index = zlib.crc32(uid.encode("utf-8")) % len(eligible)
        return eligible[index]


class ReplicationManager:
    """Places, verifies, heals, and re-replicates stored pages.

    One order everywhere a copy is made: the transfer arrives, what
    arrived is adopted, the catalog is told — so a transfer that fails
    has changed no replica list, partition list or membership, and the
    copies made before it are freed.
    """

    def __init__(self, catalog, storage_manager, network, tracer=None,
                 metrics=None):
        self.catalog = catalog
        self.storage_manager = storage_manager
        self.network = network
        self.tracer = tracer or Tracer()
        # Counters live in the metrics registry; each pc_repl_* counter
        # mirrors into the active span by name.
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry(tracer=self.tracer)
        counter = self.metrics.counter
        self._c_replica_writes = counter(
            "pc_repl_replica_writes_total",
            help="Page copies placed on replica workers")
        self._c_failover_reads = counter(
            "pc_repl_failover_reads_total",
            help="Reads served from a replica after a primary failure")
        self._c_checksum_failures = counter(
            "pc_repl_checksum_failures_total",
            help="Replica copies failing their recorded checksum")
        self._c_re_replications = counter(
            "pc_repl_re_replications_total",
            help="Copies re-created to restore the replication factor")
        self._c_pages_healed = counter(
            "pc_repl_pages_healed_total",
            help="Corrupt copies overwritten from a healthy replica")

    # -- placement (writes) ----------------------------------------------------

    def _page_bytes(self, worker_id, page_id, checksum=None, copy=True):
        """The bytes of one stored copy, pinned only while they are read
        — None if ``checksum`` is given and the copy, CRC-checked in
        place, does not match it; ``copy=False``: True, no bytes taken."""
        pool = self.storage_manager.server(worker_id).pool
        page = pool.pin(page_id)
        try:
            if checksum is not None and page.block.checksum() != checksum:
                return None
            return page.to_bytes() if copy else True
        finally:
            pool.unpin(page_id)

    def _copy(self, src_id, dst_id, database, name, data, checksum, count=0,
              allocations=0):
        """The one way a page copy lands on a worker: the bytes are
        shipped under their CRC and what *arrived* is adopted into
        ``dst_id``'s partition — as a redundant copy, unless ``count``
        and ``allocations`` book it as the one readers count.  Returns
        ``[dst_id, page id]``, which no record names yet: the caller
        records it, or frees it (:meth:`_free`) if a later step fails.
        """
        delivered = self.network.ship_page(src_id, dst_id, data, checksum=checksum)
        page_set = self.storage_manager.server(dst_id).get_set(database, name)
        return [dst_id, page_set.adopt_page_bytes(
            delivered, count=count, allocations=allocations)]

    def _free(self, copies):
        """Drop ``((database, name), [worker_id, page id], objects it
        added)`` copies that no record names, taking the objects back."""
        for (database, name), (worker_id, page_id), count in copies:
            self.storage_manager.server(worker_id).get_set(
                database, name
            ).rollback(page_id, count)

    def _land(self, ring, key, page, source, landed, allocations=0):
        """Land the missing copies (:meth:`_copy`) of one page, ``(primary,
        data, checksum, count, page_id)``, each noted in ``landed``.  A
        ``page_id`` says a task of ``primary`` adopted it there (a job's
        output), so its ring replicas are copied from the primary; with
        None every copy travels from ``source`` (a load; the primary's
        books ``allocations``).  Returns the page's ``record_pages`` entry."""
        primary, data, checksum, count, page_id = page
        targets = ring.replicas_for(primary, self.catalog.set_metadata(*key).replication)
        replicas = [] if page_id is None else [[primary, page_id]]
        for dst_id in targets[len(replicas):]:
            # Readers count the primary's copy, no other.
            counted = count if dst_id == primary else 0
            replicas.append(self._copy(
                source if page_id is None else primary, dst_id, *key, data,
                checksum, counted, allocations if dst_id == primary else 0,
            ))
            landed.append((key, replicas[-1], counted))
            if dst_id != primary:
                self._c_replica_writes.inc()
        return replicas, checksum, count, primary, len(data)

    def place_pages(self, placements, source=None):
        """Land and record a job's pages: ``placements`` maps ``(database,
        name)`` to its pages as :meth:`_land` takes them.  Every copy
        lands first; one journaled ``record_pages`` group, over all the
        sets, names them last.  If anything raises, the copies landed
        here are freed and no record names one (a primary that was there
        before is its owner's to drop)."""
        ring = PlacementRing(self.storage_manager.worker_ids)
        landed = []
        try:
            return self.catalog.record_pages({
                key: [self._land(ring, key, page, source, landed)
                      for page in pages]
                for key, pages in placements.items()
            })
        except BaseException:
            self._free(landed)
            raise

    def land_page(self, database, name, data, count, source="client",
                  allocations=0):
        """Land one loaded page (``count`` objects, built by ``allocations``)
        on the set's next partition and its ring replicas, shipped from
        ``source`` under its CRC, and record nothing: :meth:`record_landed`
        takes what this returns.  A copy that fails frees those before it."""
        page = (self.storage_manager.next_target(database, name), data,
                page_checksum(data), count, None)
        landed = []
        try:
            ring = PlacementRing(self.storage_manager.worker_ids)
            return self._land(ring, (database, name), page, source, landed, allocations), landed
        except BaseException:
            self._free(landed)
            raise

    def record_landed(self, database, name, pages):
        """Record pages :meth:`land_page` landed as one journaled
        ``record_pages`` group: one write and one sync, none for no page.
        If that fails, their copies are freed.  Returns the records."""
        try:
            return self.catalog.record_pages(
                {(database, name): [entry for entry, _copies in pages]}
            )
        except BaseException:
            self._free([c for _entry, cs in pages for c in cs])
            raise

    # -- reads (failover + healing) --------------------------------------------

    def _live_replicas(self, record):
        return [(worker_id, page_id) for worker_id, page_id in record.replicas
                if self.storage_manager.has_server(worker_id)]

    def scan_share(self, database, name, worker_id=None):
        """``[(record, reader, local page id)]``: the one page selection —
        catalog uid order, each page from its first live replica;
        ``worker_id``: only the pages that worker reads, each page read
        once cluster-wide.  An unknown set raises SetNotFoundError."""
        share, meta = [], self.storage_manager.set_metadata(database, name)
        for uid in list(meta.pages):
            record = meta.pages.get(uid)
            if record is None:
                continue
            live = self._live_replicas(record)
            if not live:
                raise ReplicationError(
                    "page %s of %s.%s has no surviving replica"
                    % (uid, database, name)
                )
            if worker_id is None or live[0][0] == worker_id:
                share.append((record, live[0][0], dict(live)[live[0][0]]))
        return share

    def scan_page_copies(self, database, name, worker_id=None, window=slice(None)):
        """Yield ``(page_set, page_id)`` of every page copy a scan reads —
        ``window``: of that slice of :meth:`scan_share` — failover counted
        and corrupt copies healed: decoded front-end side by
        :meth:`scan_pages`, leased to a task by the scheduler."""
        for record, reader, _local in self.scan_share(database, name, worker_id)[window]:
            if reader != record.primary:
                self._c_failover_reads.inc()
            yield self._healthy_copy(database, name, record, reader)

    def scan_pages(self, database, name, worker_id=None):
        """Yield each page's :func:`page_items`, read from the copy
        :meth:`scan_page_copies` picks — never corrupted bytes.  A page
        stays pinned while the consumer holds its items."""
        for page_set, page_id in self.scan_page_copies(
            database, name, worker_id=worker_id
        ):
            with page_set.pinned_page(page_id) as page:
                yield page_items(page.block)

    def _verified_bytes(self, record, worker_id, page_id, copy=True):
        """A replica's bytes (``copy=False``: True) iff it passes the CRC
        check, else None."""
        try:
            data = self._page_bytes(worker_id, page_id, record.checksum, copy)
        except PageCorruptionError:
            data = None
        if data is None:
            self._note_checksum_failure(record, worker_id)
        return data

    def _note_checksum_failure(self, record, worker_id):
        self._c_checksum_failures.inc()
        self.tracer.event(
            "quarantine", kind="fault",
            detail="page %s copy on %s failed its CRC32 check"
            % (record.uid, worker_id),
        )

    def _healthy_copy(self, database, name, record, reader):
        """(page_set, local page id) of a verified copy on ``reader``.

        The reader's local copy is verified first; on corruption, a
        healthy replica is copied over the network (:meth:`_copy`), the
        catalog replica map names the fresh copy in the quarantined
        one's place, and only then is the quarantined one freed (object
        counts untouched).  Only when *every* replica is corrupt does
        the read fail.
        """
        page_set = self.storage_manager.server(reader).get_set(database, name)
        local = dict((w, p) for w, p in record.replicas)[reader]
        # The reader's own copy is checked where it lies; only a peer's
        # healthy bytes are copied, to ship.
        if self._verified_bytes(record, reader, local, copy=False):
            return page_set, local
        for peer_id, peer_pid in self._live_replicas(record):
            if peer_id == reader:
                continue
            data = self._verified_bytes(record, peer_id, peer_pid)
            if data is None:
                continue
            healed = self._copy(
                peer_id, reader, database, name, data, record.checksum
            )
            self.catalog.update_page_replicas(database, name, record.uid, [
                healed if w == reader else [w, p] for w, p in record.replicas
            ])
            self._free([((database, name), [reader, local], 0)])
            self._c_pages_healed.inc()
            return page_set, healed[1]
        raise ReplicationError(
            "page %s of %s.%s is corrupt on every replica"
            % (record.uid, database, name)
        )

    # -- membership changes ------------------------------------------------------

    def evacuate(self, worker_id):
        """Copy every page whose *only* live copy sits on ``worker_id`` —
        still attached, its storage readable: a decommission, not a
        crash — to a survivor, over every set.  Returns ``{(database,
        name, uid): [target, page id]}`` for :meth:`forget_worker` to
        record once the worker is detached; nothing else has changed by
        then, so a transfer that fails frees the copies made so far and
        leaves membership and catalog as they were.
        """
        ring = PlacementRing(self.storage_manager.worker_ids)
        moved = {}
        try:
            for meta in self.catalog.list_sets():
                for uid, record in meta.pages.items():
                    live = dict(self._live_replicas(record))
                    if set(live) != {worker_id}:
                        continue
                    target = ring.rereplication_target(uid, {worker_id})
                    if target is None:
                        raise ReplicationError(
                            "no surviving worker can take page %s of %s"
                            % (uid, meta.qualified_name)
                        )
                    moved[meta.database, meta.name, uid] = self._copy(
                        worker_id, target, meta.database, meta.name,
                        self._page_bytes(worker_id, live[worker_id]),
                        record.checksum,
                    )
        except BaseException:
            self._free([((database, name), copy, 0)
                        for (database, name, _uid), copy in moved.items()])
            raise
        return moved

    def forget_worker(self, database, name, worker_id, moved=()):
        """Drop ``worker_id`` — detached by now — from a set's replica
        map and partition list.  A page it held the only live copy of is
        served from the copy :meth:`evacuate` ``moved`` off it; without
        one (a node kill) that is data loss and raises
        :class:`ReplicationError`.
        """
        meta = self.catalog.set_metadata(database, name)
        for uid, record in list(meta.pages.items()):
            if worker_id not in record.workers():
                continue
            survivors = self._live_replicas(record)
            if not survivors:
                if (database, name, uid) not in moved:
                    raise ReplicationError(
                        "page %s of %s.%s lost its last replica with "
                        "worker %r" % (uid, database, name, worker_id)
                    )
                survivors = [moved[database, name, uid]]
            self.catalog.update_page_replicas(database, name, uid, survivors)
        if worker_id in meta.partitions:
            self.catalog.set_partitions(
                database, name,
                [w for w in meta.partitions if w != worker_id],
            )

    def restore_replication(self, database=None):
        """Bring every page back to its set's replication factor.

        Pages short of ``replication`` live copies (after a kill or
        decommission) get fresh copies on ring-chosen survivors, sourced
        from a verified healthy replica.  Returns copies created.
        """
        created = 0
        ring = PlacementRing(self.storage_manager.worker_ids)
        for meta in self.catalog.list_sets(database):
            want = min(meta.replication, len(ring.worker_ids))
            for uid, record in list(meta.pages.items()):
                live = self._live_replicas(record)
                if not live:
                    raise ReplicationError(
                        "page %s of %s has no surviving replica"
                        % (uid, meta.qualified_name)
                    )
                if len(live) != len(record.replicas):
                    record = self.catalog.update_page_replicas(
                        meta.database, meta.name, uid,
                        [list(r) for r in live],
                    )
                holders = set(record.workers())
                while len(record.replicas) < want:
                    target = ring.rereplication_target(uid, holders)
                    if target is None:
                        break
                    src_id, src_pid = record.replicas[0]
                    data = self._verified_bytes(record, src_id, src_pid)
                    if data is None:
                        # Source copy is corrupt: heal through the read
                        # path first, then copy from the healed bytes.
                        _page_set, healed = self._healthy_copy(
                            meta.database, meta.name, record, src_id
                        )
                        record = meta.pages[uid]
                        data = self._verified_bytes(record, src_id, healed)
                    record = self.catalog.update_page_replicas(
                        meta.database, meta.name, uid,
                        record.replicas + [self._copy(
                            src_id, target, meta.database, meta.name, data,
                            record.checksum,
                        )],
                    )
                    holders.add(target)
                    created += 1
                    self._c_re_replications.inc()
        return created

    def replication_factors(self, database, name):
        """``uid -> live copy count`` (tests assert full factor restored)."""
        meta = self.catalog.set_metadata(database, name)
        return {
            uid: len(self._live_replicas(record))
            for uid, record in meta.pages.items()
        }
