"""Code once, values every job: the one pickler of what a back-end runs.

A job's program is mostly code — the nested functions behind its
lambdas — and a little data: the centres a k-means step closes over, a
query's constants.  The code is the same job after job; the values are
not.  So :func:`serialize_task` (cloudpickle with one hook changed)
writes a function it must ship by value as the digest of its code plus
its values — the globals its code names, its closure cells, defaults,
keyword defaults, ``__dict__`` (and a name, doc or annotations that
differ from the code's) — every time, so a changed closure or global
never meets stale state.  The code's payload — code object, name,
qualname, module, doc, the submodules it imports, its cell count — is
pickled once per code object, in a table keyed weakly on it, so the
``sys.modules`` scan for submodules runs once per code object too.

A back-end process holds payloads by digest (:func:`install`); the
coordinator keeps, per child process, a mirror of what that process
holds (:class:`HeldCodes`) and sends a payload beside a job only when
the child lacks it.  The mirror is bounded: past :data:`HELD_CODES`
entries the least recently used go, and the evictions travel with the
next task, so both sides agree without a round trip.  A child that meets
a digest it lacks rejects the task (the coordinator forgets its mirror
and re-runs the task itself, counted ``child_rejected``); a new or
re-forked child starts empty.

The type registry follows the same rule: a blob names it
(:func:`_held_registry`) and the child keeps the one it was sent, re-sent
only when the registry object or its size changes (it only grows).
"""

from __future__ import annotations

import collections
import hashlib
import io
import pickle
import types
import weakref

from repro.memory.typecodes import TypeRegistry

try:  # optional: only the process transport needs it
    import cloudpickle
    from cloudpickle.cloudpickle import (
        _extract_code_globals,
        _find_imported_submodules,
    )
except ImportError:  # pragma: no cover - depends on the environment
    cloudpickle = None

#: What :func:`serialize_task` raises when a piece of a spec cannot
#: travel (a closure over a lock, a hash table of handles into page memory).
PICKLING_ERRORS = (pickle.PicklingError, TypeError)

#: Code payloads one back-end process holds.  A ``ColumnarKMeans`` step
#: names 6, a ``PCKMeans`` step 4, TPC-H's customers-per-supplier and
#: top-k jobs 10 between them; a payload is ≈ 0.5 KB pickled (1.3 KB at
#: most) and ≈ 1.2 KB unpickled, so a full table is ≈ 0.3 MB of a child.
HELD_CODES = 256

#: id(code) -> (weakref to the code, digest, payload, global names,
#: (name, qualname, module, doc)): the coordinator's table.
_entries = {}

#: What this process holds, if it is a back-end: code payloads by digest,
#: and the type registry the coordinator sent.
_codes = {}
_registry = [None]

#: A registry pickled by value, per registry object: ``(size, Blob)``.
_registry_blobs = weakref.WeakKeyDictionary()


class CodeMissing(LookupError):
    """A blob named code (or a registry) this process does not hold."""


class Blob:
    """A pickled task spec or job: its bytes, the code payloads those
    name by digest, and the registry they name (None if none)."""

    __slots__ = ("data", "codes", "registry")

    def __init__(self, data, codes, registry):
        self.data, self.codes, self.registry = data, codes, registry

    def __len__(self):
        return len(self.data)


def _entry(func):
    """The table's entry for ``func``'s code, made on first sight."""
    code = func.__code__
    entry = _entries.get(id(code))
    if entry is not None and entry[0]() is code:
        return entry
    names = _extract_code_globals(code)
    scope = func.__globals__
    values = [scope[name] for name in names if name in scope]
    for cell in func.__closure__ or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:  # pcsan: disable=PC005
            continue  # an empty cell names no module
    attrs = (func.__name__, func.__qualname__, func.__module__, func.__doc__)
    payload = cloudpickle.dumps(
        (code,) + attrs
        + (_find_imported_submodules(code, values), len(code.co_freevars)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    key = id(code)

    def drop(ref):
        if _entries.get(key, (None,))[0] is ref:
            del _entries[key]

    entry = _entries[key] = (
        weakref.ref(code, drop),
        hashlib.blake2b(payload, digest_size=16).digest(),
        payload, names, attrs,
    )
    return entry


class CodePickler(cloudpickle.CloudPickler if cloudpickle else object):
    """cloudpickle, except that a function pickled by value is its code's
    digest plus its values, and a :class:`TypeRegistry` (when
    ``hold_registry``) is a reference to the one its back-end holds."""

    def __init__(self, file, hold_registry=True):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.codes = {}
        self.registry = None
        self.hold_registry = hold_registry

    def reducer_override(self, obj):
        if self.hold_registry and type(obj) is TypeRegistry:
            if self.registry is None:
                self.registry = obj
            return _held_registry, ()
        return super().reducer_override(obj)

    def _dynamic_function_reduce(self, func):
        _ref, digest, payload, names, attrs = _entry(func)
        self.codes[digest] = payload
        scope = func.__globals__
        # Functions of one module share one globals dict within a blob.
        base = self.globals_ref.setdefault(id(scope), {})
        if not base:
            for key in ("__package__", "__name__", "__path__", "__file__"):
                if key in scope:
                    base[key] = scope[key]
        extras = {}
        now = (func.__name__, func.__qualname__, func.__module__, func.__doc__)
        if now != attrs:
            extras.update(zip(
                ("__name__", "__qualname__", "__module__", "__doc__"), now))
        if func.__annotations__:
            extras["__annotations__"] = func.__annotations__
        state = (
            {name: scope[name] for name in names if name in scope},
            func.__defaults__, func.__kwdefaults__, func.__dict__ or None,
            func.__closure__, extras or None,
        )
        return _function, (digest, base), state, None, None, _set_values


def _dump(obj, hold_registry=True):
    file = io.BytesIO()
    pickler = CodePickler(file, hold_registry)
    pickler.dump(obj)
    return Blob(file.getvalue(), pickler.codes, pickler.registry)


def serialize_task(spec):
    """Pickle a task spec, or a job's constant state, for a back-end
    process: a :class:`Blob` whose bytes name code by digest."""
    return _dump(spec)


def _registry_blob(registry):
    """``registry`` pickled by value, once per registry and size."""
    size = registry.size
    cached = _registry_blobs.get(registry)
    if cached is None or cached[0] != size:
        cached = _registry_blobs[registry] = (size, _dump(registry, False))
    return cached[1]


class HeldCodes:
    """The coordinator's mirror of one back-end process's holdings: code
    digests in least-recently-used order, and ``(registry, size)``."""

    def __init__(self):
        self._digests = collections.OrderedDict()
        self._registry = None

    def prelude(self, blobs, registry, counter):
        """What must travel beside ``blobs`` for the child to load them —
        ``(payloads, evicted digests, registry bytes or None)``, or None
        when it holds everything — with the mirror updated as if it had
        arrived; ``counter`` books each code entry shipped or held."""
        held, sent = self._registry, None
        if registry is not None and (held is None or held[0]() is not registry
                                     or held[1] != registry.size):
            self._registry = (weakref.ref(registry), registry.size)
            sent = _registry_blob(registry)
            blobs = (sent,) + tuple(blobs)
        codes = {}
        for blob in blobs:
            codes.update(blob.codes)
        digests, ship = self._digests, []
        for digest, payload in codes.items():
            if digest in digests:
                digests.move_to_end(digest)
            else:
                digests[digest] = None
                ship.append((digest, payload))
        counter.inc(len(ship), outcome="shipped")
        counter.inc(len(codes) - len(ship), outcome="held")
        # What this task needs is the most recent; the oldest go first.
        evicted = []
        while len(digests) > max(HELD_CODES, len(codes)):
            evicted.append(digests.popitem(last=False)[0])
        if not ship and not evicted and sent is None:
            return None
        return ship, evicted, None if sent is None else sent.data


# -- the back-end side ---------------------------------------------------------------


def install(prelude):
    """Apply what travelled beside a task: evictions, then payloads,
    then the registry."""
    payloads, evicted, registry = prelude
    for digest in evicted:
        _codes.pop(digest, None)
    for digest, payload in payloads:
        _codes[digest] = pickle.loads(payload)
    if registry is not None:
        _registry[0] = pickle.loads(registry)


def _held_registry():
    if _registry[0] is None:
        raise CodeMissing("no type registry is held here")
    return _registry[0]


def _function(digest, base_globals):
    """A held code's function, its cells empty (:func:`_set_values`
    fills them once the function is memoized, so recursion works)."""
    try:
        code, name, qualname, module, doc, _submodules, cells = _codes[digest]
    except KeyError:
        raise CodeMissing("code %s is not held here" % digest.hex()) from None
    base_globals["__builtins__"] = __builtins__
    func = types.FunctionType(
        code, base_globals, name, None,
        tuple(types.CellType() for _ in range(cells)) if cells else None,
    )
    func.__qualname__, func.__module__, func.__doc__ = qualname, module, doc
    return func


def _set_values(func, state):
    scope, defaults, kwdefaults, attributes, closure, extras = state
    func.__globals__.update(scope)
    func.__defaults__, func.__kwdefaults__ = defaults, kwdefaults
    if attributes:
        func.__dict__.update(attributes)
    for cell, sent in zip(func.__closure__ or (), closure or ()):
        try:
            cell.cell_contents = sent.cell_contents
        except ValueError:  # pcsan: disable=PC005
            continue  # an empty cell stays empty
    for name, value in (extras or {}).items():
        setattr(func, name, value)
