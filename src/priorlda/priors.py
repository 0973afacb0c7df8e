"""Per-topic Dirichlet weight vectors that steer stopwords and domain words apart."""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from ._kernels import LGAM_MAX
from .corpus import CorpusStats, Vocabulary, _frozen, check_version, write_json

log = logging.getLogger(__name__)

PRIOR_FORMAT_VERSION = 1

# Smallest allowed Dirichlet weight. A word present in every document has an
# average TF-IDF of exactly 0, which is not a valid Dirichlet parameter, so
# TF-IDF rows are clamped here.
DEFAULT_FLOOR = 1e-6


class ConfigMismatch(ValueError):
    """Requested topic-kind counts do not fit the total topic count."""


class TopicKind(str, Enum):
    STOPWORD = "stopword"
    WORD_FREQUENCY = "word_frequency"
    TFIDF = "tfidf"
    KEYWORD = "keyword"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class PriorConfig:
    """Topic layout and scaling constants for an assembled prior matrix.

    Rows are laid out stopword, word-frequency, TF-IDF, keyword, then
    symmetric padding (weight 1.0) up to ``topics``.
    """

    topics: int = 20
    stopword_topics: int = 1
    wordfreq_topics: int = 0
    tfidf_topics: int = 0
    keyword_topics: int = 0
    c1: float = 1.0              # TF-IDF row scale
    c2: float = 1.0              # keyword row scale
    keyword_boost: float = 100.0  # weight multiplier on keyword entries

    def __post_init__(self):
        counts = (self.stopword_topics, self.wordfreq_topics,
                  self.tfidf_topics, self.keyword_topics)
        if self.topics < 1 or any(c < 0 for c in counts):
            raise ConfigMismatch("topic counts must be non-negative with topics >= 1")
        if sum(counts) > self.topics:
            raise ConfigMismatch(
                f"kind counts sum to {sum(counts)} but only {self.topics} topics requested")
        for name in ("c1", "c2", "keyword_boost"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigMismatch(f"{name} must be positive and finite")


def stopword_prior(vocab_size: int) -> np.ndarray:
    """Uninformative all-ones row; gives high-frequency words a place to go."""
    if vocab_size < 1:
        raise ValueError("vocabulary must be non-empty")
    return np.ones(vocab_size, dtype=np.float64)


def wordfreq_prior(stats: CorpusStats) -> np.ndarray:
    """Inverse corpus unigram frequency."""
    return 1.0 / stats.word_freq


def tfidf_prior(stats: CorpusStats, c1: float = 1.0, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Average TF-IDF scaled by c1, clamped at ``floor`` to stay positive."""
    if c1 <= 0 or floor <= 0:
        raise ValueError("c1 and floor must be positive")
    return np.maximum(c1 * stats.avg_tfidf, floor)


def keyword_prior(vocab: Vocabulary, keywords: Iterable[str],
                  c2: float = 1.0, boost: float = 100.0) -> np.ndarray:
    """Weight c2*boost on in-vocabulary keywords, c2 elsewhere.

    Keywords absent from the vocabulary are dropped; generic downloaded lists
    routinely contain such words, so this logs rather than fails.
    """
    if c2 <= 0:
        raise ValueError("c2 must be positive")
    if boost < 1:
        raise ValueError("keyword boost must be >= 1")
    keywords = set(keywords)
    present = [w for w in keywords if w in vocab]
    if keywords and not present:
        log.warning("none of %d keywords appear in the vocabulary", len(keywords))
    elif len(present) < len(keywords):
        log.info("%d of %d keywords are out of vocabulary",
                 len(keywords) - len(present), len(keywords))
    row = np.full(vocab.size, c2, dtype=np.float64)
    row[vocab.ids(present)] = c2 * boost
    return row


@dataclass(frozen=True, eq=False)
class PriorMatrix:
    """K strictly positive Dirichlet weight rows with topic-kind labels."""

    weights: np.ndarray
    kinds: tuple[TopicKind, ...]

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ValueError("weights must be a K x V matrix")
        # a read-only copy, so the cached row sums cannot go stale; C-ordered,
        # since row_sums, and so the chain, depend on the layout in the last bit
        object.__setattr__(self, "weights", _frozen(np.array(self.weights, order="C")))
        if len(self.kinds) != self.weights.shape[0]:
            raise ValueError("one kind label required per topic row")
        if not ((self.weights > 0) & (self.weights < np.inf)).all():
            raise ValueError("Dirichlet weights must be strictly positive and finite")
        # every weight is at most its row sum, so this keeps gammaln finite on
        # every weight too, and the log-likelihood free of inf - inf
        if self.weights.size and self.row_sums.max() > LGAM_MAX:
            raise ValueError(f"a prior row sums to {self.row_sums.max():.6g}, "
                             "too large for a finite log-gamma")

    @property
    def n_topics(self) -> int:
        return self.weights.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def row_sums(self) -> np.ndarray:
        return _frozen(self.weights.sum(axis=1))

    # the weights word-major (V x K), as the sweep kernel reads them
    @cached_property
    def weights_by_word(self) -> np.ndarray:
        return _frozen(np.ascontiguousarray(self.weights.T))

    def _parts(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The JSON fields in file order: plain values, then float arrays."""
        return ({"version": PRIOR_FORMAT_VERSION, "kinds": [k.value for k in self.kinds]},
                {"weights": self.weights})

    def to_json(self) -> dict:
        fields, arrays = self._parts()
        return {**fields, **{name: a.tolist() for name, a in arrays.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "PriorMatrix":
        check_version(data, PRIOR_FORMAT_VERSION, "prior")
        return cls(np.asarray(data["weights"], dtype=np.float64),
                   tuple(TopicKind(k) for k in data["kinds"]))


def symmetric_prior(topics: int, vocab_size: int, weight: float = 1.0) -> PriorMatrix:
    """Plain symmetric prior; the baseline models use this."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    return PriorMatrix(np.full((topics, vocab_size), float(weight)),
                       (TopicKind.SYMMETRIC,) * topics)


def assemble(config: PriorConfig, stats: CorpusStats,
             keywords: Iterable[str] = ()) -> PriorMatrix:
    """Build the full K x V prior matrix for ``config``.

    Unclaimed rows beyond the explicit kind counts are padded with symmetric
    rows. Every entry is clamped at ``DEFAULT_FLOOR``.
    """
    v = stats.vocabulary.size
    # (topics, kind, the row they all take); a row is built only for a kind with topics
    layout = [
        (config.stopword_topics, TopicKind.STOPWORD, lambda: stopword_prior(v)),
        (config.wordfreq_topics, TopicKind.WORD_FREQUENCY, lambda: wordfreq_prior(stats)),
        (config.tfidf_topics, TopicKind.TFIDF,
         lambda: tfidf_prior(stats, config.c1)),
        (config.keyword_topics, TopicKind.KEYWORD,
         lambda: keyword_prior(stats.vocabulary, keywords, config.c2, config.keyword_boost))]
    layout.append((config.topics - sum(n for n, _, _ in layout), TopicKind.SYMMETRIC,
                   lambda: np.ones(v)))
    blocks = [np.tile(row(), (n, 1)) for n, _, row in layout if n]
    kinds = tuple(kind for n, kind, _ in layout for _ in range(n))
    return PriorMatrix(np.maximum(np.concatenate(blocks), DEFAULT_FLOOR), kinds)


def validate(prior: PriorMatrix) -> list[str]:
    """Sanity-check an assembled prior; returns warnings, never raises.

    The load-bearing check: the prior mass of a stopword topic should exceed
    the prior mass of a TF-IDF topic, otherwise stopwords are not penalized
    enough in domain topics to separate. Compared per topic (mean row sum of
    each kind), since each topic's own pseudo-count mass is what shrinks it.
    """
    warnings = []
    stop_rows = [i for i, k in enumerate(prior.kinds) if k is TopicKind.STOPWORD]
    tfidf_rows = [i for i, k in enumerate(prior.kinds) if k is TopicKind.TFIDF]
    if tfidf_rows:
        stop_mass = (float(np.mean([prior.row_sums[i] for i in stop_rows]))
                     if stop_rows else 0.0)
        tfidf_mass = float(np.mean([prior.row_sums[i] for i in tfidf_rows]))
        if stop_mass <= tfidf_mass:
            warnings.append(
                f"warning: stopword-topic prior weight ({stop_mass:.4g}) does not exceed "
                f"TF-IDF-topic prior weight ({tfidf_mass:.4g}); stopword separation may fail")
    return warnings


def save_prior(prior: PriorMatrix, path: str | Path) -> None:
    """Write ``json.dumps(prior.to_json(), separators=(",", ":")) + "\\n"``,
    byte for byte, formatting each distinct weight of a row once (see
    ``save_model``)."""
    write_json(path, *prior._parts())


def load_prior(path: str | Path) -> PriorMatrix:
    return PriorMatrix.from_json(json.loads(Path(path).read_text(encoding="utf-8")))
