"""The fit holds each K x V array once: measured with tracemalloc on a corpus
where one K x V float64 array outweighs the per-token and per-document ones."""

import tracemalloc

import numpy as np
import pytest

from priorlda import _kernels
from priorlda.priors import PriorMatrix, TopicKind
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
    assert prior.weights.base is prior.weights_by_word
    assert np.shares_memory(prior.weights, prior.weights_by_word)
    if _kernels.BACKEND != "c":
        pytest.skip("the Python twin of the cell sum is the dense formula")
    config = ModelConfig(topics=k_total, iterations=3, seed=1)
    fit(corpus, prior, config)  # the first calls load what later ones reuse
    state = init(corpus, prior, config)
    sweep(state, prior, config.alpha)
    assert _peak(lambda: log_likelihood(state, prior, config.alpha)) < kv / 2
    # Above its inputs, fit holds n_wk (int32, 0.5 K x V) from init on, and at
    # most one of: init's int64 count table (1.0) as it is cast into n_wk, or
    # the returned beta (1.0) with FittedModel's beta > 0 mask (0.125). Beside
    # those, arrays of one entry per token (z and init's int64 cells, at most 32
    # bytes a token) and per document and topic (n_dk and theta, 16 bytes).
    bound = 1.625 * kv + 32 * corpus.n_tokens + 16 * corpus.n_docs * k_total
    assert _peak(lambda: fit(corpus, prior, config)) < bound
