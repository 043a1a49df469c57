"""Word-based, non-collapsed Gibbs LDA on PlinyCompute (Section 8.5.1).

The fundamental data objects are (docID, wordID, count) triples; each
iteration runs the join-heavy graph of Figure 2: a three-way ``JoinComp``
matches every triple with its document's topic-probability vector
(theta) and its word's per-topic probability column (phi) — the paper's
many-to-one join — samples topic assignments with the GSL stand-in
multinomial, and two ``AggregateComp``s rebuild the doc-topic and
word-topic count matrices.  A sweep's job ends in the two aggregations,
so their merged pairs come back to the main program as its result and
no set is written; new theta/phi are drawn from Dirichlet posteriors
there and loaded for the next iteration.

The graph of one iteration (readers, the join, two multi-selections, two
aggregations, two writers, plus the initialization computations) is what
the Figure 2 benchmark renders; its writers store the counts when that
graph is run as it is drawn.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AggregateComp,
    JoinComp,
    MultiSelectionComp,
    ObjectReader,
    Writer,
    computation_graph,
    lambda_from_member,
    lambda_from_native,
)
from repro.memory import Float64, Int32, Int64, PCObject, VectorType
from repro.ml.sampling import dirichlet, multinomial_fast


class Triple(PCObject):
    """One (document, word, count) occurrence record."""

    fields = [("doc", Int32), ("word", Int32), ("count", Int32)]


class ThetaRow(PCObject):
    """Per-document topic probabilities."""

    fields = [("doc", Int32), ("probs", VectorType(Float64))]


class PhiCol(PCObject):
    """Per-word, per-topic probabilities (one dictionary column)."""

    fields = [("word", Int32), ("probs", VectorType(Float64))]


class SampleTopics(JoinComp):
    """The three-way join: triples x theta (by doc) x phi (by word)."""

    def __init__(self, n_topics, seed):
        super().__init__(arity=3)
        self.n_topics = n_topics
        self.rng = np.random.default_rng(seed)

    def get_selection(self, triple, theta, phi):
        return (
            lambda_from_member(triple, "doc")
            == lambda_from_member(theta, "doc")
        ) & (
            lambda_from_member(triple, "word")
            == lambda_from_member(phi, "word")
        )

    def get_projection(self, triple, theta, phi):
        rng = self.rng

        def sample(t, th, ph):
            probabilities = th.probs.as_numpy() * ph.probs.as_numpy()
            counts = multinomial_fast(rng, t.count, probabilities)
            return (t.doc, t.word, counts)

        return lambda_from_native([triple, theta, phi], sample)


class DocPairs(MultiSelectionComp):
    """(doc, topic-count-vector) pairs from sampled assignments."""

    def get_projection(self, arg):
        return lambda_from_native(
            [arg], lambda t: [(t[0], t[2].astype("f8"))]
        )


class WordPairs(MultiSelectionComp):
    """(word, topic-count-vector) pairs from sampled assignments."""

    def get_projection(self, arg):
        return lambda_from_native(
            [arg], lambda t: [(t[1], t[2].astype("f8"))]
        )


class CountAggregate(AggregateComp):
    """Sums topic-count vectors per key (doc or word)."""

    key_type = Int64
    value_type = VectorType(Float64)

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1])

    def combine(self, a, b):
        return a + b


class PCLda:
    """LDA driver bound to one cluster."""

    def __init__(self, cluster, database="lda", n_topics=10, alpha=0.1,
                 beta=0.1, seed=0):
        self.cluster = cluster
        self.database = database
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.n_docs = 0
        self.dictionary_size = 0
        self._iteration = 0

    # -- data loading --------------------------------------------------------------

    def load(self, triples, n_docs, dictionary_size):
        """Store the corpus triples and the initial model sets."""
        self.n_docs = n_docs
        self.dictionary_size = dictionary_size
        cluster = self.cluster
        for cls in (Triple, ThetaRow, PhiCol):
            cluster.register_type(cls)
        cluster.create_database(self.database)
        cluster.create_set(self.database, "triples", Triple)
        with cluster.loader(self.database, "triples") as load:
            for doc, word, count in triples:
                load.append(Triple, doc=doc, word=word, count=count)
        rng = np.random.default_rng(self.seed)
        theta = {
            doc: dirichlet(rng, np.ones(self.n_topics))
            for doc in range(n_docs)
        }
        weights = rng.random((self.n_topics, dictionary_size)) + 0.1
        weights /= weights.sum(axis=1, keepdims=True)
        phi = {
            word: weights[:, word].copy() for word in range(dictionary_size)
        }
        self._store_model(theta, phi)
        return self

    def _store_model(self, theta, phi):
        cluster = self.cluster
        for name in ("theta", "phi"):
            if (self.database, name) in cluster.storage_manager:
                cluster.clear_set(self.database, name)
            else:
                cluster.create_set(
                    self.database, name,
                    ThetaRow if name == "theta" else PhiCol,
                )
        with cluster.loader(self.database, "theta") as load:
            for doc, probs in theta.items():
                load.append(ThetaRow, doc=doc, probs=np.asarray(probs))
        with cluster.loader(self.database, "phi") as load:
            for word, probs in phi.items():
                load.append(PhiCol, word=word, probs=np.asarray(probs))

    # -- the per-iteration computation graph --------------------------------------------

    def build_iteration_graph(self, seed=None):
        """The Figure 2 graph for one Gibbs iteration; returns writers."""
        join = SampleTopics(
            self.n_topics, self.seed + 1 + (seed or self._iteration)
        )
        join.set_input(0, ObjectReader(self.database, "triples"))
        join.set_input(1, ObjectReader(self.database, "theta"))
        join.set_input(2, ObjectReader(self.database, "phi"))
        doc_agg = CountAggregate().set_input(DocPairs().set_input(join))
        word_agg = CountAggregate().set_input(WordPairs().set_input(join))
        doc_writer = Writer(self.database, "doc_counts").set_input(doc_agg)
        word_writer = Writer(self.database, "word_counts").set_input(word_agg)
        return [doc_writer, word_writer], doc_agg, word_agg

    def iterate(self):
        """One Gibbs sweep — one job whose result is the two count
        aggregations' pairs; updates theta/phi sets, returns the state."""
        _writers, doc_agg, word_agg = self.build_iteration_graph()
        doc_counts, word_counts = self.cluster.execute_computations(
            [doc_agg, word_agg])
        rng = np.random.default_rng(self.seed + 7919 * (self._iteration + 1))
        theta = {
            doc: dirichlet(
                rng, self.alpha + doc_counts.get(doc, np.zeros(self.n_topics))
            )
            for doc in range(self.n_docs)
        }
        matrix = np.zeros((self.n_topics, self.dictionary_size))
        for word, counts in word_counts.items():
            matrix[:, int(word)] = counts
        sampled = np.stack([
            dirichlet(rng, self.beta + matrix[topic])
            for topic in range(self.n_topics)
        ])
        phi = {
            word: sampled[:, word].copy()
            for word in range(self.dictionary_size)
        }
        self._store_model(theta, phi)
        self._iteration += 1
        return theta, phi

    def run(self, iterations):
        """Run several sweeps; returns the final (theta, phi)."""
        state = None
        for _iteration in range(iterations):
            state = self.iterate()
        return state

    def computation_count(self):
        """Number of Computation objects in one full iteration graph.

        The paper's Figure 2 counts fifteen Computations including the
        once-only initialization; the per-iteration core here is readers,
        the three-way join, two multi-selections, two aggregations, and
        two writers, plus the model-store loaders standing in for the
        initialization chain.
        """
        writers, _d, _w = self.build_iteration_graph()
        return len(computation_graph(writers))
