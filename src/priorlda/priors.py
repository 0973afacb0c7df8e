"""Per-topic Dirichlet weight vectors that steer stopwords and domain words apart."""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._kernels import LGAM_MAX, gammaln
from .corpus import CorpusStats, Vocabulary, _frozen

log = logging.getLogger(__name__)

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
            check_scale(name, getattr(self, name))


def check_scale(name: str, value: float) -> None:
    """Raise ConfigMismatch unless c1 or c2 is in (0, inf), or keyword_boost in [1, inf)."""
    boost = name == "keyword_boost"
    if not (1 <= value if boost else 0 < value) or not value < math.inf:
        raise ConfigMismatch(f"{name} must be positive and finite"
                             f"{', and at least 1' if boost else ''}, got {value!r}")


def stopword_prior(vocab_size: int) -> np.ndarray:
    """Uninformative all-ones row; gives high-frequency words a place to go."""
    if vocab_size < 1:
        raise ValueError("vocabulary must be non-empty")
    return np.ones(vocab_size, dtype=np.float64)


def wordfreq_prior(stats: CorpusStats) -> np.ndarray:
    """Inverse corpus unigram frequency."""
    return 1.0 / stats.word_freq


def tfidf_prior(stats: CorpusStats, c1: float = 1.0) -> np.ndarray:
    """Average TF-IDF scaled by c1. A word in every document gets exactly 0,
    which is no Dirichlet weight: ``assemble`` clamps it to ``DEFAULT_FLOOR``."""
    check_scale("c1", c1)
    return c1 * stats.avg_tfidf


def keyword_prior(vocab: Vocabulary, keywords: Iterable[str],
                  c2: float = 1.0, boost: float = 100.0) -> np.ndarray:
    """Weight c2*boost on in-vocabulary keywords, c2 elsewhere.

    Keywords absent from the vocabulary are dropped; generic downloaded lists
    routinely contain such words, so this logs rather than fails.
    """
    check_scale("c2", c2)
    check_scale("keyword_boost", boost)
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


@dataclass(frozen=True, eq=False, init=False)
class PriorMatrix:
    """K strictly positive Dirichlet weight rows with topic-kind labels, held
    as their R distinct rows: ``rows_by_word`` is a read-only C-contiguous
    word-major (V, R) array of them, in order of first use, as the sweep reads
    it, ``gammaln_by_word`` its ``gammaln``, and ``topic_rows`` the read-only
    (K,) index of each topic's row. ``PriorMatrix(weights, kinds)`` folds the
    repeated rows of a (K, V) array; ``weights`` builds that array again for a
    caller that asks. ``row_sums`` are the distinct rows' sums in C order, so
    they have the bits of the (K, V) weights' sums in C order."""

    rows_by_word: np.ndarray
    topic_rows: np.ndarray
    kinds: tuple[TopicKind, ...]
    row_sums: np.ndarray = field(repr=False)
    gammaln_by_word: np.ndarray = field(repr=False)

    def __init__(self, weights: np.ndarray, kinds: tuple[TopicKind, ...]):
        if weights.ndim != 2:
            raise ValueError("weights must be a K x V matrix")
        self._fold(weights, np.arange(len(weights)), kinds)

    @classmethod
    def from_rows(cls, rows: np.ndarray, topic_rows, kinds: tuple[TopicKind, ...]
                  ) -> PriorMatrix:
        """The prior whose topic k has the weights ``rows[topic_rows[k]]``, with
        no (K, V) array; repeated rows are folded."""
        prior = cls.__new__(cls)
        prior._fold(rows, np.asarray(topic_rows, np.int64), kinds)
        return prior

    def _fold(self, rows, topic_rows, kinds):
        if len(kinds) != len(topic_rows):
            raise ValueError("one kind label required per topic row")
        seen = {}  # each distinct row's bytes, in C order, and its place among them
        places = [seen.setdefault(row.tobytes(), len(seen)) for row in rows]
        # the first use of each, in C order, so sums add as over the (K, V) weights
        distinct = np.ascontiguousarray(rows[[places.index(r) for r in range(len(seen))]])
        if not ((distinct > 0) & (distinct < np.inf)).all():
            raise ValueError("Dirichlet weights must be strictly positive and finite")
        topic_rows = np.array(places, np.int64)[topic_rows]
        row_sums = distinct.sum(axis=1)[topic_rows]
        # every weight is at most its row sum, so this keeps gammaln finite on
        # every weight too, and the log-likelihood free of inf - inf
        if distinct.size and row_sums.max() > LGAM_MAX:
            raise ValueError(f"a prior row sums to {row_sums.max():.6g}, "
                             "too large for a finite log-gamma")
        by_word = np.ascontiguousarray(distinct.T)
        by_word_gammaln = gammaln(by_word.ravel()).reshape(by_word.shape)
        for name, value in (("rows_by_word", by_word), ("topic_rows", topic_rows),
                            ("row_sums", row_sums), ("gammaln_by_word", by_word_gammaln)):
            object.__setattr__(self, name, _frozen(value))
        object.__setattr__(self, "kinds", tuple(kinds))

    @property
    def weights(self) -> np.ndarray:
        """The (K, V) weights, a new read-only C-contiguous array on each call."""
        return _frozen(self.rows_by_word.T.take(self.topic_rows, axis=0))

    @property
    def n_topics(self) -> int:
        return len(self.topic_rows)

    @property
    def vocab_size(self) -> int:
        return len(self.rows_by_word)


def symmetric_prior(topics: int, vocab_size: int, weight: float = 1.0) -> PriorMatrix:
    """Plain symmetric prior; the baseline models use this."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    return PriorMatrix.from_rows(np.full((1, vocab_size), float(weight)),
                                 np.zeros(topics, np.int64),
                                 (TopicKind.SYMMETRIC,) * topics)


def assemble(config: PriorConfig, stats: CorpusStats,
             keywords: Iterable[str] = ()) -> PriorMatrix:
    """Build the prior for ``config`` from one row per kind, with no K x V array.

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
    counts, rows = zip(*[(n, row()) for n, _, row in layout if n])
    kinds = tuple(kind for n, kind, _ in layout for _ in range(n))
    return PriorMatrix.from_rows(np.maximum(rows, DEFAULT_FLOOR),
                                 np.repeat(np.arange(len(rows)), counts), kinds)


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
