"""The PC catalog: cluster metadata and dynamic type distribution.

The master node's *catalog manager* (Section 2, Appendix D.1) serves two
kinds of metadata:

* the authoritative mapping between type codes and PC object types, plus
  the "shared libraries" implementing them;
* database / set metadata for the distributed storage subsystem.

The paper ships compiled ``.so`` files: a user registers a class, the
catalog stores the library, and any worker process that dereferences a
handle with an unknown type code fetches the library, ``dlopen``s it, and
patches the object's vtable pointer (Section 6.3).  Here a
:class:`SharedLibrary` wraps the Python class objects; "loading" one into
a worker installs its descriptors into the worker's local
:class:`~repro.memory.typecodes.TypeRegistry` under the master-assigned
codes, which is exactly the observable behaviour of the ``.so`` protocol.
"""

from __future__ import annotations

import json
import os
import threading

from repro.errors import CatalogError, UnknownTypeCodeError
from repro.memory.objects import PCObject, as_descriptor
from repro.memory.typecodes import TypeRegistry


class SharedLibrary:
    """The stand-in for a compiled ``.so`` holding one or more PC types."""

    def __init__(self, name, descriptors):
        self.name = name
        #: list of (type_name, descriptor) pairs the library provides.
        self.descriptors = list(descriptors)

    def __repr__(self):
        return "<SharedLibrary %s: %s>" % (
            self.name,
            ", ".join(name for name, _d in self.descriptors),
        )


class PageRecord:
    """The catalog's authoritative record of one stored page.

    ``replicas`` is the ordered list of ``[worker_id, local_page_id]``
    copies; the first *live* entry serves reads.  ``primary`` remembers
    the worker the page was originally placed on, so a read served by any
    other worker counts as a failover read even after the replica list
    has been healed.  ``checksum`` is the CRC32 stamped when the page was
    sealed — the integrity reference every copy is verified against —
    and ``size`` its sealed length in bytes (None in a record journaled
    before sizes were).
    """

    __slots__ = ("uid", "replicas", "checksum", "count", "primary", "size")

    def __init__(self, uid, replicas, checksum, count, primary, size):
        self.uid = uid
        self.replicas = [list(r) for r in replicas]
        self.checksum = checksum
        self.count = count
        self.primary = primary
        self.size = size

    def workers(self):
        return [worker_id for worker_id, _pid in self.replicas]

    def to_record(self):
        return {
            "uid": self.uid,
            "replicas": [list(r) for r in self.replicas],
            "checksum": self.checksum,
            "count": self.count,
            "primary": self.primary,
            "size": self.size,
        }


class SetMetadata:
    """Catalog record for one stored set."""

    def __init__(self, database, name, type_name, partitions,
                 replication=1, page_size=None, schema=None):
        self.database = database
        self.name = name
        self.type_name = type_name
        #: worker ids holding partitions of the set.
        self.partitions = list(partitions)
        #: copies kept of every page (1 = no redundancy).
        self.replication = replication
        self.page_size = page_size
        #: the :class:`repro.schema.Schema` a columnar set was created
        #: with; None for a set of object (row) pages.
        self.schema = schema
        #: page uid -> :class:`PageRecord`, in load order (dicts preserve
        #: insertion order, which fixes the scan order of the set).
        self.pages = {}
        self._page_seq = 0

    @property
    def qualified_name(self):
        return "%s.%s" % (self.database, self.name)

    def next_page_uid(self):
        uid = "p%06d" % self._page_seq
        self._page_seq += 1
        return uid

    def note_replayed_uid(self, uid):
        """Keep the uid sequence monotonic across a journal replay."""
        try:
            seq = int(uid.lstrip("p"), 10)
        except ValueError:
            return
        self._page_seq = max(self._page_seq, seq + 1)


class CatalogJournal:
    """Write-ahead journal of DDL and replica-map mutations.

    One JSON record per line, appended and flushed *before* the in-memory
    catalog mutation it describes, so a master crash between the two
    leaves the journal ahead of (never behind) the catalog —
    :meth:`CatalogManager.replay_journal` then reconstructs a state that
    includes every acknowledged mutation.  The one append handle stays
    open between records; :meth:`close` releases it.
    """

    def __init__(self, path):
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.records_written = 0
        #: groups committed: one write and one fsync each
        self.syncs = 0
        self._file = None

    def append(self, *records):
        """Commit ``records`` as one group: all written in order, then
        synced once — a crash mid-group leaves a prefix of it."""
        if self._file is None:
            self._file = open(self.path, "a")
        self._file.write("".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        ))
        self._file.flush()
        os.fsync(self._file.fileno())
        self.records_written += len(records)
        self.syncs += 1

    def close(self):
        """Release the append handle (the next append reopens it)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def entries(self):
        """All committed journal records, oldest first ([] when fresh).

        A record is committed by its trailing newline (``append`` returns
        only after writing and syncing it).  A writer killed mid-append
        leaves an unterminated tail: that record was never acknowledged,
        so it is dropped — from the file too, so the next append starts
        on a clean line.  A *terminated* line that does not parse is
        corruption, not a crash artefact, and raises.
        """
        if not os.path.exists(self.path):
            return []
        self.close()  # appends after a truncation start from a fresh handle
        with open(self.path, "rb") as f:
            data = f.read()
        committed = data.rfind(b"\n") + 1
        if committed < len(data):
            os.truncate(self.path, committed)
        return [
            json.loads(line)
            for line in data[:committed].splitlines() if line.strip()
        ]


class CatalogManager:
    """The master catalog: authoritative type codes and set metadata."""

    def __init__(self, journal=None):
        self.registry = TypeRegistry()
        self._libraries = {}  # type code -> SharedLibrary
        self._databases = {}  # db name -> {set name -> SetMetadata}
        self._lock = threading.Lock()
        self.library_requests = 0
        #: optional :class:`CatalogJournal` making DDL crash-consistent.
        self.journal = journal
        self._replaying = False

    def _journal(self, *records):
        """Append WAL records as one group (no-op without a journal or
        during replay)."""
        if self.journal is not None and not self._replaying and records:
            self.journal.append(*records)

    # -- type registration -----------------------------------------------------

    def register_type(self, cls_or_descriptor, library_name=None):
        """Register a PC type cluster-wide; returns its type code.

        Mirrors the paper's requirement that "all classes deriving from
        PC's Object base class be registered with the PC catalog server
        before they are loaded into the distributed storage subsystem".
        """
        descriptor = _to_descriptor(cls_or_descriptor)
        code = self._register_closure(descriptor, library_name)
        return code

    def _register_closure(self, descriptor, library_name=None):
        """Register ``descriptor`` and every type its layout depends on.

        A compiled ``.so`` carries the template instantiations a class
        uses, so shipping ``Customer`` must also make ``vector<order>``
        and friends resolvable on every worker.
        """
        code = descriptor.type_code(self.registry)
        if code & 0x80000000:  # simple types need no library
            return code
        with self._lock:
            known = code in self._libraries
            if not known:
                name = library_name or ("lib%s.so" % descriptor.name)
                self._libraries[code] = SharedLibrary(
                    name, [(descriptor.name, descriptor)]
                )
        if not known:
            for dependent in descriptor.dependents():
                self._register_closure(dependent)
        return code

    def library_for_code(self, code):
        """Serve the shared library implementing ``code`` (worker fetch)."""
        with self._lock:
            self.library_requests += 1
            library = self._libraries.get(code)
        if library is None:
            raise UnknownTypeCodeError(code)
        return library

    # -- database / set metadata -------------------------------------------------

    def create_database(self, name):
        """Create a database namespace; idempotent."""
        with self._lock:
            if name not in self._databases:
                self._journal({"op": "create_database", "db": name})
                self._databases[name] = {}

    def create_set(self, database, name, type_name, partitions,
                   replication=1, page_size=None, schema=None):
        """Record a new set partitioned over ``partitions`` (worker ids);
        it is columnar iff ``schema`` is not None."""
        with self._lock:
            if database not in self._databases:
                raise CatalogError("database %r does not exist" % database)
            sets = self._databases[database]
            if name in sets:
                raise CatalogError(
                    "set %r already exists in database %r" % (name, database)
                )
            self._journal({
                "op": "create_set", "db": database, "set": name,
                "type": type_name, "partitions": list(partitions),
                "replication": replication, "page_size": page_size,
                "schema": schema.to_dict() if schema is not None else None,
            })
            meta = SetMetadata(database, name, type_name, partitions,
                               replication=replication, page_size=page_size,
                               schema=schema)
            sets[name] = meta
            return meta

    def drop_set(self, database, name):
        """Remove a set's metadata."""
        with self._lock:
            if name in self._databases.get(database, {}):
                self._journal({"op": "drop_set", "db": database, "set": name})
            self._databases.get(database, {}).pop(name, None)

    # -- replica-map bookkeeping ---------------------------------------------------

    def record_pages(self, placements, uids=None):
        """Record newly stored pages and their replica placement.

        ``placements`` maps ``(database, name)`` to its pages, each
        ``(replicas, checksum, count, primary, size)``: ``replicas`` the
        ordered ``(worker_id, local_page_id)`` placement, ``checksum`` the
        CRC32 of the sealed bytes, ``count`` the objects on the page,
        ``size`` the sealed bytes' length.  The records of every set are
        journaled as one group — written and synced once — before any of
        them is applied, so a failed write records none.
        Returns the pages' :class:`PageRecord` list.  ``uids`` are the
        recorded ones when the journal is replayed.
        """
        uids = None if uids is None else iter(uids)
        with self._lock:
            staged, entries = [], []  # (SetMetadata, PageRecord), WAL
            for (database, name), pages in placements.items():
                meta = self._set_metadata_locked(database, name)
                for replicas, checksum, count, primary, size in pages:
                    if uids is None:
                        uid = meta.next_page_uid()
                    else:
                        uid = next(uids)
                        meta.note_replayed_uid(uid)
                    if primary is None:
                        primary = replicas[0][0]
                    record = PageRecord(
                        uid, replicas, checksum, count, primary, size
                    )
                    staged.append((meta, record))
                    entries.append({"op": "record_page", "db": database,
                                    "set": name, **record.to_record()})
            self._journal(*entries)
            for meta, record in staged:
                meta.pages[record.uid] = record
            return [record for _meta, record in staged]

    def update_page_replicas(self, database, name, uid, replicas):
        """Replace a page's replica list (quarantine, heal, re-replicate)."""
        with self._lock:
            meta = self._set_metadata_locked(database, name)
            record = meta.pages[uid]
            self._journal({
                "op": "update_page", "db": database, "set": name,
                "uid": uid, "replicas": [list(r) for r in replicas],
            })
            record.replicas = [list(r) for r in replicas]
            return record

    def clear_pages(self, database, name):
        """Forget every page record of a set (the set was cleared)."""
        with self._lock:
            meta = self._set_metadata_locked(database, name)
            if meta.pages:
                self._journal({
                    "op": "clear_pages", "db": database, "set": name,
                })
            meta.pages = {}

    def set_partitions(self, database, name, partitions):
        """Replace a set's partition worker list (decommission/kill)."""
        with self._lock:
            meta = self._set_metadata_locked(database, name)
            self._journal({
                "op": "set_partitions", "db": database, "set": name,
                "partitions": list(partitions),
            })
            meta.partitions = list(partitions)

    def _set_metadata_locked(self, database, name):
        try:
            return self._databases[database][name]
        except KeyError:
            raise CatalogError(
                "unknown set %s.%s" % (database, name)
            ) from None

    # -- crash recovery ------------------------------------------------------------

    def replay_journal(self):
        """Rebuild all DDL and replica-map state from the journal.

        Simulates the master restart of a crash-consistent catalog: the
        in-memory database/set records are discarded and reconstructed
        record-by-record from the write-ahead journal.  The type registry
        is untouched — the paper's catalog stores its shared libraries
        durably, and replaying DDL must not orphan registered type codes.
        Returns the number of journal records applied.
        """
        if self.journal is None:
            raise CatalogError("catalog has no journal to replay")
        records = self.journal.entries()
        with self._lock:
            self._databases = {}
        self._replaying = True
        try:
            for record in records:
                self._apply_journal_record(record)
        finally:
            self._replaying = False
        return len(records)

    def _apply_journal_record(self, record):
        op = record["op"]
        if op == "create_database":
            self.create_database(record["db"])
        elif op == "create_set":
            from repro.schema import Schema

            # Older records also carry a "layout" key; the schema says it.
            self.create_set(
                record["db"], record["set"], record["type"],
                record["partitions"],
                replication=record.get("replication", 1),
                page_size=record.get("page_size"),
                schema=Schema.from_dict(record.get("schema")),
            )
        elif op == "drop_set":
            self.drop_set(record["db"], record["set"])
        elif op == "record_page":
            self.record_pages({(record["db"], record["set"]): [
                (record["replicas"], record["checksum"], record["count"],
                 record.get("primary"), record.get("size"))
            ]}, uids=[record["uid"]])
        elif op == "update_page":
            self.update_page_replicas(
                record["db"], record["set"], record["uid"],
                record["replicas"],
            )
        elif op == "clear_pages":
            self.clear_pages(record["db"], record["set"])
        elif op == "set_partitions":
            self.set_partitions(
                record["db"], record["set"], record["partitions"]
            )
        else:
            raise CatalogError("unknown journal record %r" % (op,))

    def set_metadata(self, database, name):
        """Metadata for one set, or raise."""
        with self._lock:
            try:
                return self._databases[database][name]
            except KeyError:
                raise CatalogError(
                    "unknown set %s.%s" % (database, name)
                ) from None

    def set_bytes(self, database, name):
        """The sealed bytes of a set's pages, summed over its records
        (no page is read); None for an unknown set or when a record
        carries no size."""
        with self._lock:
            meta = self._databases.get(database, {}).get(name)
            if meta is None:
                return None
            sizes = [record.size for record in meta.pages.values()]
        return None if None in sizes else sum(sizes)

    def list_sets(self, database=None):
        """All set metadata records, optionally restricted to one database."""
        with self._lock:
            if database is not None:
                return list(self._databases.get(database, {}).values())
            return [
                meta
                for sets in self._databases.values()
                for meta in sets.values()
            ]


class LocalCatalog:
    """A worker's catalog cache with the dynamic-library fetch path.

    The local registry resolves most lookups; a miss triggers a simulated
    ``.so`` fetch from the master catalog, after which the type is
    installed locally under the master's code (``getVTablePtr`` + lookup
    table insertion in the paper's terms).
    """

    def __init__(self, master):
        self.master = master
        self.registry = TypeRegistry(
            miss_handler=self._fetch_library,
            register_delegate=self._register_with_master,
        )
        self.fetches = 0

    def _register_with_master(self, name, descriptor):
        """Forward a brand-new local type to the master for a global code."""
        return self.master.register_type(descriptor)

    def _fetch_library(self, registry, code):
        library = self.master.library_for_code(code)
        self.fetches += 1
        for type_name, descriptor in library.descriptors:
            master_code = self.master.registry.code_for_name(type_name)
            registry.register(type_name, descriptor, code=master_code)


def _to_descriptor(cls_or_descriptor):
    if isinstance(cls_or_descriptor, type) and issubclass(
        cls_or_descriptor, PCObject
    ):
        return cls_or_descriptor.pc_descriptor
    return as_descriptor(cls_or_descriptor)
