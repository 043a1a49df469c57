"""Type codes and the process-local type registry.

Every PC ``Object`` carries a 32-bit *type code* (Section 6.3 of the paper).
The code is what makes dynamic dispatch survive a move between processes:
a raw vtable pointer dies in transit, but a type code can be looked up in
the receiving process' registry to recover the local class.

Following the paper, a type code either

* has its high bit set, in which case the referenced value is a *simple*
  type (no virtual functions, a ``memmove`` suffices to copy it) and the
  remaining 31 bits encode the value's size in bytes; or
* is an ordinary registry code naming a type descended from PC's ``Object``
  base class (including the built-in container instantiations, which play
  the role of C++ template instantiations).

The registry is deliberately *process local*.  In a simulated cluster each
worker owns one registry; a lookup miss triggers the catalog's ``.so``
fetch path (see :mod:`repro.catalog`).
"""

from __future__ import annotations

import threading

from repro.errors import TypeRegistrationError, UnknownTypeCodeError

SIMPLE_FLAG = 0x80000000
SIMPLE_SIZE_MASK = 0x7FFFFFFF

#: Type code 0 is reserved for "no type" / null handles.
NULL_TYPE_CODE = 0

#: First code handed out to registered object types.  Codes 1..63 are
#: reserved so the built-in containers always get stable codes regardless
#: of registration order (mirroring PC's built-ins shipping with the
#: system rather than user ``.so`` files).
FIRST_USER_TYPE_CODE = 64


def simple_code(size):
    """Return the type code for a simple (memmove-able) value of ``size``."""
    if not 0 <= size <= SIMPLE_SIZE_MASK:
        raise TypeRegistrationError("simple type size %r out of range" % size)
    return SIMPLE_FLAG | size


class TypeRegistry:
    """Maps type names and codes to type descriptors.

    A *descriptor* is anything exposing the :class:`repro.memory.types.PCType`
    protocol; for user classes it is the class itself (PCObject subclasses
    double as their own descriptors).

    The ``miss_handler`` hook lets a worker's local registry fall back to
    the master catalog when it sees a code for the first time — the
    reproduction of PC's dynamic ``.so`` loading.
    """

    def __init__(self, miss_handler=None, register_delegate=None):
        self._by_code = {}
        self._by_name = {}
        #: a class descriptor's ``signature`` -> its code
        self._by_signature = {}
        self._next_code = FIRST_USER_TYPE_CODE
        self._builtin_next = 1
        self._lock = threading.Lock()
        self.miss_handler = miss_handler
        #: When set, registrations of brand-new names are forwarded here to
        #: obtain an authoritative code (worker registries forward to the
        #: master catalog so codes agree cluster-wide).
        self.register_delegate = register_delegate

    def __contains__(self, code):
        return code in self._by_code

    def register(self, name, descriptor, code=None, builtin=False):
        """Register ``descriptor`` under ``name`` and return its code.

        Re-registering the same name returns the existing code if the
        descriptor matches — a class must have the registered one's
        ``signature``, its fields — otherwise raises.  When ``code`` is
        given the registry honors it (used when a worker installs a type
        fetched from the master catalog: codes must agree cluster-wide).
        """
        signature = getattr(descriptor, "signature", None)
        with self._lock:
            if name in self._by_name:
                return self._registered(name, signature, code)
            if code is None and self.register_delegate is not None:
                delegate = self.register_delegate
            else:
                delegate = None
        if delegate is not None:
            code = delegate(name, descriptor)
        with self._lock:
            if name in self._by_name:
                return self._registered(name, signature)
            if code is None:
                if builtin:
                    code = self._builtin_next
                    self._builtin_next += 1
                    if code >= FIRST_USER_TYPE_CODE:
                        raise TypeRegistrationError("built-in code space full")
                else:
                    code = self._next_code
                    self._next_code += 1
            else:
                if code in self._by_code:
                    raise TypeRegistrationError(
                        "code %d already taken by %r"
                        % (code, self._by_code[code][0])
                    )
                self._next_code = max(self._next_code, code + 1)
            self._by_name[name] = code
            self._by_code[code] = (name, descriptor)
            if signature is not None:
                self._by_signature[signature] = code
            return code

    def _registered(self, name, signature, code=None):
        """``name``'s code, if ``code`` (when given) is it and the class
        ``signature`` (None: not a class) is the registered one's."""
        existing = self._by_name[name]
        held = getattr(self._by_code[existing][1], "signature", None)
        if code not in (None, existing) or signature != held:
            raise TypeRegistrationError(
                "type %r is registered with code %d as %s, not with code "
                "%s as %s" % (name, existing, held, code, signature))
        return existing

    @property
    def size(self):
        """How many types are registered (a registry only grows)."""
        return len(self._by_code)

    def code_for_name(self, name):
        """Return the code registered for ``name`` or None."""
        return self._by_name.get(name)

    def code_for_signature(self, signature):
        """The code of the class registered with ``signature``, or None."""
        return self._by_signature.get(signature)

    def lookup(self, code):
        """Return the descriptor for ``code``.

        On a miss, the ``miss_handler`` (if any) is invoked with this
        registry and the code; it is expected to install the type (the
        simulated ``.so`` load) so the retry succeeds.
        """
        entry = self._by_code.get(code)
        if entry is None and self.miss_handler is not None:
            self.miss_handler(self, code)
            entry = self._by_code.get(code)
        if entry is None:
            raise UnknownTypeCodeError(code)
        return entry[1]

    def name_of(self, code):
        """Return the registered name for ``code``."""
        entry = self._by_code.get(code)
        if entry is None:
            raise UnknownTypeCodeError(code)
        return entry[0]

    def entries(self):
        """Snapshot of ``(code, name, descriptor)`` triples."""
        with self._lock:
            return [
                (code, name, desc)
                for code, (name, desc) in sorted(self._by_code.items())
            ]

    # A registry must survive pickling so a real back-end *process* can
    # receive the coordinator's type table (the paper's .so shipping,
    # Section 6.3).  The lock and the catalog hooks are process-local:
    # the copy gets a fresh lock and no hooks.

    def __getstate__(self):
        with self._lock:
            return {
                "by_code": dict(self._by_code),
                "by_name": dict(self._by_name),
                "by_signature": dict(self._by_signature),
                "next_code": self._next_code,
                "builtin_next": self._builtin_next,
            }

    def __setstate__(self, state):
        self.__init__()
        self._by_code.update(state["by_code"])
        self._by_name.update(state["by_name"])
        self._by_signature.update(state["by_signature"])
        self._next_code = state["next_code"]
        self._builtin_next = state["builtin_next"]


_default_registry = TypeRegistry()


def default_registry():
    """The process-wide default registry used outside cluster simulations."""
    return _default_registry
