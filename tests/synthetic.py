"""Planted synthetic corpora for the tests.

Two families:

* a deterministic "pathology" corpus where a handful of universal words
  coexist with clusters whose words co-occur only within narrow document
  slices — built to exercise how co-occurrence metrics rank such topics;
* sampled planted-topic corpora for checking that fitting recovers known
  structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from priorlda.corpus import Corpus, build_corpus


@dataclass(frozen=True)
class PlantedCorpus:
    corpus: Corpus
    stopwords: list[str]        # words planted in every document
    clusters: list[list[str]]   # one word list per planted cluster


def pathology_corpus(n_docs: int = 500) -> PlantedCorpus:
    """Deterministic corpus: 5 universal words plus 5 ten-word clusters.

    Each cluster owns a 10% slice of the documents. Within its slice the
    cluster splits into two 5-word groups living in complementary halves, so
    within-group pairs always co-occur while cross-group pairs never do —
    topical words with realistic, patchy co-occurrence. n_docs must be a
    multiple of 20; the second half of the corpus holds universal words only.
    """
    if n_docs % 20 or n_docs < 20:
        raise ValueError("n_docs must be a positive multiple of 20")
    stop = [f"stop{i}" for i in range(5)]
    clusters = [[f"c{j}w{i}" for i in range(10)] for j in range(5)]
    slice_len = n_docs // 10
    half = slice_len // 2
    docs = []
    for j, cluster in enumerate(clusters):
        for t in range(slice_len):
            group = cluster[:5] if t < half else cluster[5:]
            docs.append(" ".join(stop + group))
    while len(docs) < n_docs:
        docs.append(" ".join(stop))
    return PlantedCorpus(build_corpus(docs), stop, clusters)


def planted_stopword_corpus(seed: int = 0, n_stopwords: int = 5,
                            docs_per_cluster: int = 10,
                            stop_repeats: int = 2,
                            cluster_tokens_per_doc: int = 8,
                            cluster_window: int = 10) -> PlantedCorpus:
    """Sampled corpus where a few universal words dominate token counts.

    Five 10-word clusters each own ``docs_per_cluster`` documents; every
    document repeats each universal word ``stop_repeats`` times; an equal
    number of documents carries universal words only. ``cluster_window``
    narrows each document's draw to a rotating window of its cluster
    vocabulary: at 10 every cluster pair co-occurs freely, at 3 distant
    pairs never share a document (patchy, realistic co-occurrence).
    """
    if not 1 <= cluster_window <= 10:
        raise ValueError("cluster_window must be in 1..10")
    rng = np.random.default_rng(seed)
    stop = [f"stop{i}" for i in range(n_stopwords)]
    clusters = [[f"c{j}w{i}" for i in range(10)] for j in range(5)]
    docs = []
    for cluster in clusters:
        for t in range(docs_per_cluster):
            tokens = [s for s in stop for _ in range(stop_repeats)]
            window = [cluster[(t + i) % 10] for i in range(cluster_window)]
            tokens += list(rng.choice(window, size=cluster_tokens_per_doc))
            docs.append(" ".join(tokens))
    for _ in range(5 * docs_per_cluster):
        docs.append(" ".join(s for s in stop for _ in range(stop_repeats)))
    return PlantedCorpus(build_corpus(docs), stop, clusters)


def two_topic_corpus(seed: int = 0, docs_per_topic: int = 50,
                     doc_len: int = 20) -> tuple[Corpus, np.ndarray]:
    """Two disjoint 10-word vocabularies, each generating half the documents
    uniformly. Returns the corpus and the (2, 20) planted word distributions
    in corpus id order."""
    rng = np.random.default_rng(seed)
    vocabs = [[f"a{i}" for i in range(10)], [f"b{i}" for i in range(10)]]
    docs = []
    for words in vocabs:
        for _ in range(docs_per_topic):
            docs.append(" ".join(rng.choice(words, size=doc_len)))
    corpus = build_corpus(docs)
    planted = np.zeros((2, corpus.vocabulary.size))
    for k, words in enumerate(vocabs):
        for w in words:
            planted[k, corpus.vocabulary.word_to_id[w]] = 1.0 / len(words)
    return corpus, planted


def random_corpus(seed: int = 0, n_docs: int = 100, vocab_size: int = 50,
                  min_len: int = 5, max_len: int = 12) -> Corpus:
    """Uniformly random corpus for fuzz and invariant tests."""
    rng = np.random.default_rng(seed)
    words = [f"w{i:03d}" for i in range(vocab_size)]
    docs = []
    for _ in range(n_docs):
        length = int(rng.integers(min_len, max_len + 1))
        docs.append(" ".join(rng.choice(words, size=length)))
    return build_corpus(docs)
