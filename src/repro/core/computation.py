"""The Computation classes: PC's high-level, declarative building blocks.

A PC program is a graph of :class:`Computation` objects (Section 4).  Each
class is customized not with row functions but with *lambda term
construction functions* returning terms from :mod:`repro.core.lambdas`;
the TCAP compiler calls those functions once per computation (not once per
datum!) and compiles the resulting terms into TCAP.

The toolkit mirrors the paper: ``SelectionComp``, ``MultiSelectionComp``,
``JoinComp`` (arbitrary arity and predicate), ``AggregateComp``, plus the
``ObjectReader`` / ``Writer`` endpoints binding the graph to stored sets.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from repro.errors import PCError
from repro.core.lambdas import Arg
from repro.memory.builtins import MapType, VectorFacade, VectorType
from repro.memory.types import numpy_dtype_for

_kind_counters = defaultdict(itertools.count)


class Computation:
    """One node of a computation graph."""

    #: Short name prefix used for the TCAP computation label; mirrors the
    #: paper's ``Sel_43`` / ``Join_2212`` style identifiers.
    kind = "Comp"

    #: Number of inputs the computation consumes.
    arity = 1

    def __init__(self):
        self.inputs = [None] * self.arity
        self.name = "%s_%d" % (self.kind, next(_kind_counters[self.kind]))

    def set_input(self, index_or_comp, comp=None):
        """Wire an upstream computation into input slot ``index``.

        Accepts either ``set_input(comp)`` for unary computations or
        ``set_input(index, comp)``.
        """
        if comp is None:
            index, comp = 0, index_or_comp
        else:
            index = index_or_comp
        if not 0 <= index < self.arity:
            raise PCError(
                "%s has %d inputs; %d is out of range"
                % (self.name, self.arity, index)
            )
        self.inputs[index] = comp
        return self

    def upstream(self):
        """The wired input computations (raises on unwired slots)."""
        for index, comp in enumerate(self.inputs):
            if comp is None:
                raise PCError(
                    "input %d of %s is not wired" % (index, self.name)
                )
        return list(self.inputs)

    def args(self):
        """Arg placeholders handed to the lambda construction functions."""
        return [Arg(i) for i in range(self.arity)]

    def execute(self, cluster, **kwargs):
        """Run the graph this computation terminates, on ``cluster``.

        The fluent client entry point::

            Writer("db", "out").set_input(agg).execute(cluster)
            pairs = agg.execute(cluster)

        Keyword arguments pass through to
        ``PCCluster.execute_computations`` (``optimized``, ``job_name``,
        ``build_side_overrides``); returns the scheduler's job log — or,
        for an aggregation, its merged ``{key: value}`` pairs.
        """
        return cluster.execute_computations(self, **kwargs)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.name)


def computation_graph(sinks):
    """Topologically ordered list of all computations feeding ``sinks``."""
    if isinstance(sinks, Computation):
        sinks = [sinks]
    order = []
    seen = set()

    def visit(comp):
        if id(comp) in seen:
            return
        seen.add(id(comp))
        for upstream in comp.inputs:
            if upstream is not None:
                visit(upstream)
        order.append(comp)

    for sink in sinks:
        visit(sink)
    return order


class ObjectReader(Computation):
    """Scans a stored set (the graph's source)."""

    kind = "Scan"
    arity = 0

    def __init__(self, database, set_name):
        super().__init__()
        self.database = database
        self.set_name = set_name


class Writer(Computation):
    """Writes its input to a stored set (the graph's sink)."""

    kind = "Write"
    arity = 1

    def __init__(self, database, set_name):
        super().__init__()
        self.database = database
        self.set_name = set_name


class SelectionComp(Computation):
    """Relational selection + projection over one input set.

    Subclasses override :meth:`get_selection` (a boolean lambda term) and
    :meth:`get_projection` (the output lambda term).
    """

    kind = "Sel"
    arity = 1

    def get_selection(self, arg):
        """Boolean lambda term; default keeps everything."""
        from repro.core.lambdas import const_lambda

        return const_lambda(True)

    def get_projection(self, arg):
        """Output lambda term; default is the identity."""
        from repro.core.lambdas import lambda_from_self

        return lambda_from_self(arg)


class MultiSelectionComp(Computation):
    """Selection with a set-valued projection (a relational flat-map)."""

    kind = "MultiSel"
    arity = 1

    def get_selection(self, arg):
        from repro.core.lambdas import const_lambda

        return const_lambda(True)

    def get_projection(self, arg):
        """Lambda term producing a *sequence* of outputs per input."""
        raise NotImplementedError


class JoinComp(Computation):
    """A join of arbitrary arity and arbitrary predicate.

    The programmer overrides :meth:`get_selection` to describe *when* a
    combination of inputs joins and :meth:`get_projection` to describe the
    output — and, crucially, does **not** pick join orders or algorithms;
    PC analyzes the lambda term and decides (Section 4).
    """

    kind = "Join"

    def __init__(self, arity=2):
        self.arity = arity
        super().__init__()

    def get_selection(self, *args):
        raise NotImplementedError

    def get_projection(self, *args):
        raise NotImplementedError


class AggregateComp(Computation):
    """Grouped aggregation.

    Mirrors the C++ ``AggregateComp <Out, Key, Value, In>``: subclasses
    provide lambda terms extracting a key and a value from each input
    object, descriptors for both (so results can live in PC ``Map``s on
    shuffle pages), and a ``combine`` merging two values.
    """

    kind = "Agg"
    arity = 1

    #: PCType descriptors for the key and value stored in shuffle Maps.
    key_type = None
    value_type = None

    #: Declarative reduction kind.  ``combine`` stays the executable
    #: truth; setting ``reduce = "sum"`` *additionally* promises that
    #: combine is plain addition over fixed-stride values, which lets the
    #: columnar optimizer lower the aggregation onto grouped array sums.
    reduce = None

    @property
    def map_type(self):
        """The ``MapType`` its pairs travel and are stored in — combiner
        pages, the exchange's Map wire, the output set's pages — when
        both ``key_type`` and ``value_type`` are declared; else None (the
        pairs travel as rows and are stored as Python values)."""
        if self.key_type is None or self.value_type is None:
            return None
        return MapType(self.key_type, self.value_type)

    def get_key_projection(self, arg):
        raise NotImplementedError

    def get_value_projection(self, arg):
        raise NotImplementedError

    def combine(self, a, b):
        """Merge two values for the same key; defaults to ``+``."""
        return a + b

    def decode_value(self, stored):
        """Convert a value read back from a PC Map into combinable form.

        A ``Vector<numeric>`` ``value_type``'s value — a stored facade,
        a host list or an ndarray — becomes an ndarray of the declared
        dtype (never a view of a page); any other value is returned as
        read.  Computations whose value type is a composite override
        this to rebuild the Python form that :meth:`combine` works on.
        """
        value_type = self.value_type
        if not isinstance(value_type, VectorType):
            return stored
        dtype = numpy_dtype_for(value_type.elem)
        if dtype is None:
            return stored
        if isinstance(stored, VectorFacade):
            return np.array(stored.as_numpy(), dtype=dtype)
        return np.asarray(stored, dtype=dtype)

    def decode_key(self, stored):
        """Convert a key read back from a PC Map (default: unchanged)."""
        return stored
