"""Topic quality scores: co-document coherence, PMI, log lift, and list rates.

Coherence and PMI are computed from in-corpus document co-occurrence counts.
Both are known to reward topics full of words that appear in every document,
which is exactly what the lift score is here to counterbalance.

The counts come from one kernel call (``corpus.co_doc_counts``), which
``report`` makes once over every topic's top words; it passes each topic's
block to one ``coherence`` call per window and one ``pmi_score`` call, which
compute their pairs' log arguments with numpy over the pairs i<j. Coherence
adds libm's log of each in that order (``_kernels.log_sum``, ``math.log``'s
bits; ``np.log`` may differ in the last bit); PMI takes one ``math.log``, of
the lower-median argument, since a monotone log keeps the arguments' order.
The other scores are array passes over all topics' windows at once.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .corpus import CorpusStats, co_doc_counts, write_json
from .priors import TopicKind
from .sampler import FittedModel, top_words

REPORT_FORMAT_VERSION = 1

METRIC_COLUMNS = ("coherence_10", "coherence_30", "pmi", "log_lift",
                  "stopword_rate", "expert_rate", "codoc")


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation windows: m_small/m_large top words for coherence (the 10-
    and 30-word columns), m_large for PMI, log lift and the rate metrics.
    ``report`` cuts them all from one head of max(m_small, m_large) words per
    topic and looks the heads' union up once; lift reads ``beta_hat`` at model
    ids, ``word_freq`` at statistics ids. Joint counts are add-one smoothed by default."""

    m_small: int = 10
    m_large: int = 30
    pmi_smoothing: bool = True

    def __post_init__(self):
        if self.m_small < 2 or self.m_large < 2:
            raise ValueError("coherence/PMI windows need at least 2 words")


def _word_ids(top: Sequence[str], stats: CorpusStats) -> list[int]:
    word_to_id = stats.vocabulary.word_to_id
    try:
        return [word_to_id[w] for w in top]
    except KeyError as exc:
        raise ValueError(f"word {exc.args[0]!r} is not in the statistics vocabulary") from None


@functools.lru_cache(maxsize=16)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) of the pairs i<j among m words, i-major."""
    rows, cols = np.triu_indices(m, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _pair_counts(ids: list[int], stats: CorpusStats,
                 counts: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Co-document counts of the pairs i<j of ``ids`` and the pairs' (rows, cols),
    from ``counts`` when given (one row and column per id, in order), else one product."""
    if counts is None:
        counts = co_doc_counts(stats, ids)
    elif np.shape(counts) != (len(ids), len(ids)):
        raise ValueError(f"counts must be {len(ids)}x{len(ids)}, got {np.shape(counts)}")
    pairs = _pairs(len(ids))
    return np.asarray(counts)[pairs], *pairs


def coherence(top: Sequence[str], stats: CorpusStats, *,
              counts: np.ndarray | None = None) -> float:
    """Sum over ordered pairs i<j of ln((D(v_i,v_j) + 1) / D(v_i)).

    ``top`` must be ordered by descending probability: the denominator is the
    document count of the more probable word of each pair. ``counts``, when
    given, holds D(v_i,v_j) for every pair of ``top``, as ``co_doc_counts``
    returns it.
    """
    ids = _word_ids(top, stats)
    if len(ids) < 2:
        raise ValueError("coherence needs at least 2 words")
    joint, rows, _ = _pair_counts(ids, stats, counts)
    return _kernels.log_sum((joint + 1) / stats.doc_freq[ids][rows])


def pmi_score(top: Sequence[str], stats: CorpusStats,
              config: MetricConfig = MetricConfig(), *,
              counts: np.ndarray | None = None) -> float:
    """Median over word pairs of ln(p(x,y) / (p(x) p(y))).

    Probabilities are document-level: p(x) = D(x)/n_docs. With smoothing on,
    the joint gets an add-one count; with smoothing off, never-co-occurring
    pairs are dropped from the median, and the result is NaN when no pair
    remains. Even pair counts use the lower median. ``counts`` is as for
    ``coherence``. The one log taken is of the lower-median argument: the log
    is monotone, so that is the lower median of the pairs' logs, bit for bit.
    """
    ids = _word_ids(top, stats)
    if len(ids) < 2:
        raise ValueError("pmi needs at least 2 words")
    joint, rows, cols = _pair_counts(ids, stats, counts)
    if config.pmi_smoothing:
        joint = joint + 1
    else:
        kept = joint != 0
        joint, rows, cols = joint[kept], rows[kept], cols[kept]
    n = stats.n_docs
    p = stats.doc_freq[ids] / n
    args = (joint / n) / (p[rows] * p[cols])
    k = (args.size - 1) // 2
    return math.log(np.partition(args, k)[k]) if args.size else float("nan")


def log_lift(model: FittedModel, topic: int, stats: CorpusStats,
             n_lift: int = 30) -> float:
    """Mean log lift of the topic's top n_lift words: ``beta_hat`` read at the
    model's ids of those words, ``word_freq`` at the statistics' ids."""
    top = top_words(model, topic, n_lift)
    beta = model.beta_hat[topic][model.vocabulary.ids(top)]
    return float(np.mean(np.log(beta / stats.word_freq[_word_ids(top, stats)])))


def _touches_whitelist(ids: list[int], white_ids: list[int], stats: CorpusStats) -> np.ndarray:
    """Whether each word id shares a document with a whitelist word, as bools."""
    word = np.repeat(np.arange(stats.vocabulary.size), stats.doc_freq)  # each entry's word
    white_docs = np.zeros(stats.n_docs, bool)
    white_docs[stats.doc_index[np.isin(word, white_ids)]] = True
    return np.bincount(word, white_docs[stats.doc_index], stats.vocabulary.size)[ids] > 0


def _rows_csv(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The package's one CSV dialect: a header line, then one line per row,
    each ending in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class TopicScore:
    coherence_10: float
    coherence_30: float
    pmi: float
    log_lift: float
    stopword_rate: float
    expert_rate: float
    codoc: float
    kind: TopicKind

    def metric_values(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_COLUMNS}


@dataclass(eq=False)
class ModelReport:
    """Per-topic scores plus means over all topics and over domain topics.

    Domain topics are every topic not labeled Stopword. ``domain_means`` is
    None when the model has no domain topics.
    """

    per_topic: list[TopicScore]
    model_means: dict
    domain_means: dict | None

    def to_json(self) -> dict:
        return {
            "version": REPORT_FORMAT_VERSION,
            "per_topic": [dict(t.metric_values(), kind=t.kind.value) for t in self.per_topic],
            "model_means": self.model_means,
            "domain_means": self.domain_means,
        }

    def to_csv(self) -> str:
        rows = [[t] + [repr(score.metric_values()[c]) for c in METRIC_COLUMNS]
                + [score.kind.value] for t, score in enumerate(self.per_topic)]
        rows.append(["mean_all"] + [repr(self.model_means[c]) for c in METRIC_COLUMNS] + [""])
        if self.domain_means is not None:
            rows.append(["mean_domain"] + [repr(self.domain_means[c]) for c in METRIC_COLUMNS]
                        + [""])
        return _rows_csv(("topic",) + METRIC_COLUMNS + ("kind",), rows)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        if path.suffix == ".csv":
            path.write_text(self.to_csv(), encoding="utf-8")
        else:
            write_json(path, self.to_json(), {})


def _means(scores: list[TopicScore]) -> dict:
    return {name: float(np.mean([getattr(s, name) for s in scores]))
            for name in METRIC_COLUMNS}


def report(model: FittedModel, stats: CorpusStats, stoplist: Iterable[str],
           whitelist: Iterable[str], config: MetricConfig = MetricConfig()) -> ModelReport:
    """Score every topic and aggregate. Stoplist and whitelist words are
    matched by string against the statistics vocabulary.

    Top words follow ``top_words``: one stable argsort of every topic row.
    Every co-document count comes from one product over the union of the
    topics' heads (see ``MetricConfig``), and each score but coherence and
    PMI is one array pass over all topics.
    """
    small, large = slice(config.m_small), slice(config.m_large)
    n_head = max(config.m_small, config.m_large)
    head = np.argsort(-model.beta_hat, axis=1, kind="stable")[:, :n_head]
    union, inverse = np.unique(head, return_inverse=True)
    inverse = inverse.reshape(head.shape)
    union_words = [model.vocabulary.id_to_word[i] for i in union.tolist()]
    union_ids = _word_ids(union_words, stats)
    counts = co_doc_counts(stats, union_ids)
    window = inverse[:, large]
    lift = np.log(np.take_along_axis(model.beta_hat, head[:, large], axis=1)
                  / stats.word_freq[union_ids][window]).mean(axis=1).tolist()
    white_ids = stats.vocabulary.ids(set(whitelist))
    flags = (np.isin(union_ids, stats.vocabulary.ids(set(stoplist))),
             np.isin(union_ids, white_ids), _touches_whitelist(union_ids, white_ids, stats))
    stop_rate, expert_rate, codoc = ((f[window].sum(axis=1) / window.shape[1]).tolist()
                                     for f in flags)
    scores = []
    for t, pos in enumerate(inverse):
        top = [union_words[i] for i in pos.tolist()]
        block = counts[pos[:, None], pos]
        scores.append(TopicScore(
            coherence_10=coherence(top[small], stats, counts=block[small, small]),
            coherence_30=coherence(top[large], stats, counts=block[large, large]),
            pmi=pmi_score(top[large], stats, config, counts=block[large, large]),
            log_lift=lift[t], stopword_rate=stop_rate[t], expert_rate=expert_rate[t],
            codoc=codoc[t], kind=model.kinds[t],
        ))
    domain = [s for s in scores if s.kind is not TopicKind.STOPWORD]
    return ModelReport(per_topic=scores, model_means=_means(scores),
                       domain_means=_means(domain) if domain else None)
