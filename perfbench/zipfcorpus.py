"""Seeded Zipf-vocabulary corpora for the benchmark.

Word ``w<r>`` has rank ``r``; each token draws its rank from a Zipf law
truncated at ``MAX_RANK``. Training documents and the held-out slice come
from separate streams of one input seed, so they never share draws.
"""

from __future__ import annotations

import numpy as np

MAX_RANK = 4800
EXPONENT = 1.0
TRAIN_DOCS = 1000
DOC_LEN = 100
N_STOP = 30
WHITE_RANKS = range(100, 200)
TRAIN_STREAM = 0
HELDOUT_STREAM = 1


def _zipf_docs(seed: int, stream: int, n_docs: int) -> list[str]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
    weights = 1.0 / np.arange(1, MAX_RANK + 1) ** EXPONENT
    ranks = rng.choice(MAX_RANK, size=(n_docs, DOC_LEN), p=weights / weights.sum())
    return [" ".join(f"w{r}" for r in row) for row in ranks]


def zipf_documents(seed: int) -> list[str]:
    """Training documents: TRAIN_DOCS documents of DOC_LEN tokens, V near 4.7k."""
    return _zipf_docs(seed, TRAIN_STREAM, TRAIN_DOCS)


def heldout_documents(seed: int, n_docs: int) -> list[str]:
    """A held-out slice from the same Zipf law on its own stream."""
    return _zipf_docs(seed, HELDOUT_STREAM, n_docs)


def word_lists() -> tuple[list[str], list[str]]:
    """Scoring lists: the N_STOP most frequent ranks act as stopwords, the
    WHITE_RANKS band as the expert whitelist."""
    return [f"w{r}" for r in range(N_STOP)], [f"w{r}" for r in WHITE_RANKS]
