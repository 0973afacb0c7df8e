"""The fit holds each K x V array once, and an assembled prior only its
distinct rows: measured with tracemalloc on a corpus where one K x V float64
array outweighs the per-token and per-document ones."""

import tracemalloc

import numpy as np
import pytest

from priorlda import _kernels
from priorlda.corpus import compute_stats
from priorlda.priors import PriorConfig, PriorMatrix, TopicKind, assemble
from priorlda.sampler import ModelConfig, fit, init, log_likelihood, sweep

from .synthetic import random_corpus


def _peak(call) -> int:
    """The most bytes allocated during ``call`` and held at one time."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_k_by_v_array_once():
    corpus = random_corpus(seed=1, n_docs=200, vocab_size=3000, min_len=40, max_len=60)
    k_total, vocab_size = 40, corpus.vocabulary.size
    kv = 8 * k_total * vocab_size  # bytes of one K x V float64 array
    prior = PriorMatrix(np.random.default_rng(2).uniform(0.01, 1.0, (k_total, vocab_size)),
                        (TopicKind.TFIDF,) * k_total)
    # K distinct rows, held once, word-major as the sweep reads them
    assert prior.rows_by_word.shape == (vocab_size, k_total)
    assert prior.rows_by_word.flags.c_contiguous
    if _kernels.BACKEND != "c":
        pytest.skip("the Python twin of the cell sum is the dense formula")
    config = ModelConfig(topics=k_total, iterations=3, seed=1)
    fit(corpus, prior, config)  # the first calls load what later ones reuse
    state = init(corpus, prior, config)
    sweep(state, prior, config.alpha)
    assert _peak(lambda: log_likelihood(state, prior, config.alpha)) < kv / 2
    # init counts straight into n_dk (int32, 4 bytes a document and topic) and
    # n_wk (int32, 0.5 K x V), beside z (int32) and the int64 draws it is cast
    # from, 12 bytes a token
    per_token, per_cell = 12 * corpus.n_tokens, 4 * corpus.n_docs * k_total
    assert _peak(lambda: init(corpus, prior, config)) < 0.5 * kv + per_token + per_cell
    # Above its inputs, fit holds n_wk (0.5) from init on, and at the end the
    # returned beta (1.0) with FittedModel's beta > 0 mask (0.125). Beside
    # those, arrays of one entry per token (z and the int64 draws or a
    # sweep's uniforms, 12 bytes a token) and per document and topic (n_dk
    # and theta, 12 bytes).
    bound = 1.625 * kv + per_token + 3 * per_cell
    assert _peak(lambda: fit(corpus, prior, config)) < bound


def test_assembled_prior_holds_its_distinct_rows():
    # a stopword row and 39 TF-IDF topics sharing one row: two rows of V
    # weights and their log-gamma, and a few numbers per topic
    corpus = random_corpus(seed=1, n_docs=200, vocab_size=3000, min_len=40, max_len=60)
    stats, vocab_size = compute_stats(corpus), corpus.vocabulary.size
    config = PriorConfig(topics=40, stopword_topics=1, tfidf_topics=39)
    assemble(config, stats)  # the first call loads what later ones reuse
    tracemalloc.start()
    try:
        prior = assemble(config, stats)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert prior.rows_by_word.shape == prior.gammaln_by_word.shape == (vocab_size, 2)
    assert held < 2 * 8 * prior.rows_by_word.size + 64 * prior.n_topics + 4096
