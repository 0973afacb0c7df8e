"""Topic quality scores: co-document coherence, PMI, log lift, and list rates.

Coherence and PMI are computed from in-corpus document co-occurrence counts.
Both are known to reward topics full of words that appear in every document,
which is exactly what the lift score is here to counterbalance.

The counts come from ``corpus.co_doc_counts``: one sparse document x word
product over the words scored. ``report`` makes that product once, over the
union of every topic's top words, and hands each topic its block through the
``counts=`` argument of ``coherence`` and ``pmi_score``; called without it,
each function makes the product over its own words.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusStats, co_doc_counts, compute_stats
from .priors import TopicKind
from .sampler import FittedModel, top_words

REPORT_FORMAT_VERSION = 1

METRIC_COLUMNS = ("coherence_10", "coherence_30", "pmi", "log_lift",
                  "stopword_rate", "expert_rate", "codoc")


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation windows: m_small/m_large top words for coherence (the 10-
    and 30-word columns), m_large for PMI and the rate metrics, n_lift for
    lift. Add-one smoothing on joint document counts is on by default."""

    m_small: int = 10
    m_large: int = 30
    n_lift: int = 30
    pmi_smoothing: bool = True

    def __post_init__(self):
        if self.m_small < 2 or self.m_large < 2:
            raise ValueError("coherence/PMI windows need at least 2 words")
        if self.n_lift < 1:
            raise ValueError("n_lift must be >= 1")


def _word_ids(top: Sequence[str], stats: CorpusStats) -> list[int]:
    ids = []
    for w in top:
        if w not in stats.vocabulary:
            raise ValueError(f"word {w!r} is not in the statistics vocabulary")
        ids.append(stats.vocabulary.word_to_id[w])
    return ids


def _pair_counts(ids: list[int], stats: CorpusStats,
                 counts: np.ndarray | None) -> list[list[int]]:
    """Co-document counts among ``ids`` as nested lists of ints: ``counts``
    when given (one row and column per id, in order), else one product."""
    if counts is None:
        counts = co_doc_counts(stats, ids)
    elif np.shape(counts) != (len(ids), len(ids)):
        raise ValueError(f"counts must be {len(ids)}x{len(ids)}, got {np.shape(counts)}")
    return np.asarray(counts).tolist()


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
    joint = _pair_counts(ids, stats, counts)
    doc_freq = stats.doc_freq[ids].tolist()
    total = 0.0
    for i in range(len(ids) - 1):
        d_i, row = doc_freq[i], joint[i]
        for j in range(i + 1, len(ids)):
            total += math.log((row[j] + 1) / d_i)
    return total


def _median_low(values: Sequence[float]) -> float:
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def pmi_score(top: Sequence[str], stats: CorpusStats,
              config: MetricConfig = MetricConfig(), *,
              counts: np.ndarray | None = None) -> float:
    """Median over word pairs of ln(p(x,y) / (p(x) p(y))).

    Probabilities are document-level: p(x) = D(x)/n_docs. With smoothing on,
    the joint gets an add-one count; with smoothing off, never-co-occurring
    pairs are dropped from the median, and the result is NaN when no pair
    remains. Even pair counts use the lower median. ``counts`` is as for
    ``coherence``.
    """
    ids = _word_ids(top, stats)
    if len(ids) < 2:
        raise ValueError("pmi needs at least 2 words")
    pair_counts = _pair_counts(ids, stats, counts)
    n = stats.n_docs
    p = [d / n for d in stats.doc_freq[ids].tolist()]
    values = []
    for i in range(len(ids) - 1):
        p_i, row = p[i], pair_counts[i]
        for j in range(i + 1, len(ids)):
            joint = row[j]
            if config.pmi_smoothing:
                joint += 1
            elif joint == 0:
                continue
            values.append(math.log((joint / n) / (p_i * p[j])))
    if not values:
        return float("nan")
    return _median_low(values)


def lift_of_words(words: Sequence[str], beta_row: np.ndarray, stats: CorpusStats) -> float:
    """Mean ln(beta_w / b_w) over the given words."""
    ids = _word_ids(words, stats)
    return float(np.mean(np.log(beta_row[ids] / stats.word_freq[ids])))


def log_lift(model: FittedModel, topic: int, stats: CorpusStats,
             n_lift: int = 30) -> float:
    """Mean log lift of the topic's top n_lift words."""
    top = top_words(model, topic, n_lift)
    return lift_of_words(top, model.beta_hat[topic], stats)


def stopword_rate(top: Sequence[str], stoplist: Iterable[str]) -> float:
    """Share of the top words found on the stoplist."""
    stop = set(stoplist)
    return sum(1 for w in top if w in stop) / len(top)


def expert_word_rate(top: Sequence[str], whitelist: Iterable[str]) -> float:
    """Share of the top words found on the expert whitelist."""
    white = set(whitelist)
    return sum(1 for w in top if w in white) / len(top)


def _touches_whitelist(ids: Sequence[int], white_ids: Sequence[int],
                       stats: CorpusStats) -> dict[int, bool]:
    """For each word id, whether it shares a document with a whitelist word."""
    white_docs = np.zeros(stats.n_docs, dtype=bool)
    for w in white_ids:
        white_docs[stats.doc_index[w]] = True
    return {w: bool(white_docs[stats.doc_index[w]].any()) for w in ids}


def _codoc_core(top_ids: Sequence[int], touches: dict[int, bool]) -> float:
    """Share of ``top_ids`` flagged in ``touches`` (from ``_touches_whitelist``)."""
    if not top_ids:
        return 0.0
    return sum(1 for w in top_ids if touches[w]) / len(top_ids)


def codocument_appearance(top: Sequence[str], whitelist: Iterable[str],
                          corpus: Corpus) -> float:
    """Share of top words that share at least one document with some
    whitelist word. One of several defensible aggregations; this per-top-word
    any-document-overlap form is the one the report uses."""
    vocab = corpus.vocabulary
    top_ids = [vocab.word_to_id[w] for w in top if w in vocab]
    if len(top_ids) != len(top):
        missing = [w for w in top if w not in vocab][0]
        raise ValueError(f"word {missing!r} is not in the corpus vocabulary")
    touches = _touches_whitelist(top_ids, vocab.ids(set(whitelist)), compute_stats(corpus))
    return _codoc_core(top_ids, touches)


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
            path.write_text(json.dumps(self.to_json(), separators=(",", ":")) + "\n",
                            encoding="utf-8")


def _means(scores: list[TopicScore]) -> dict:
    return {name: float(np.mean([s.metric_values()[name] for s in scores]))
            for name in METRIC_COLUMNS}


def _count_blocks(windows: np.ndarray, stats: CorpusStats) -> list[np.ndarray]:
    """Co-document count block of each row of word ids in ``windows`` (one
    row per topic), all cut from one ``co_doc_counts`` product over the
    union of the rows."""
    union, inverse = np.unique(windows.ravel(), return_inverse=True)
    counts = co_doc_counts(stats, union.tolist())
    return [counts[np.ix_(pos, pos)] for pos in inverse.reshape(windows.shape)]


def report(model: FittedModel, stats: CorpusStats, stoplist: Iterable[str],
           whitelist: Iterable[str], config: MetricConfig = MetricConfig()) -> ModelReport:
    """Score every topic and aggregate. Stoplist and whitelist words are
    matched by string against the statistics vocabulary.

    Top words follow ``top_words``: one stable argsort of every topic row.
    Every co-document count comes from one product over the union of the
    topics' coherence and PMI windows.
    """
    stoplist = set(stoplist)
    whitelist = set(whitelist)
    if model.vocabulary is None:
        raise ValueError("model has no vocabulary attached")
    words = model.vocabulary.id_to_word
    order = np.argsort(-model.beta_hat, axis=1, kind="stable")
    # the coherence and PMI windows are prefixes of each topic's pair window
    pair_words = [[words[i] for i in row]
                  for row in order[:, :max(config.m_small, config.m_large)].tolist()]
    pair_ids = np.array([_word_ids(top, stats) for top in pair_words], dtype=np.int64)
    blocks = _count_blocks(pair_ids, stats)
    rate_ids = pair_ids[:, :config.m_large].tolist()
    touches = _touches_whitelist({w for ids in rate_ids for w in ids},
                                 stats.vocabulary.ids(whitelist), stats)
    scores = []
    for t, top in enumerate(pair_words):
        small, rate_window = top[:config.m_small], top[:config.m_large]
        n_small, n_large = len(small), len(rate_window)
        large_counts = blocks[t][:n_large, :n_large]
        scores.append(TopicScore(
            coherence_10=coherence(small, stats, counts=blocks[t][:n_small, :n_small]),
            coherence_30=coherence(rate_window, stats, counts=large_counts),
            pmi=pmi_score(rate_window, stats, config, counts=large_counts),
            log_lift=lift_of_words([words[i] for i in order[t, :config.n_lift]],
                                   model.beta_hat[t], stats),
            stopword_rate=stopword_rate(rate_window, stoplist),
            expert_rate=expert_word_rate(rate_window, whitelist),
            codoc=_codoc_core(rate_ids[t], touches),
            kind=model.kinds[t],
        ))
    domain = [s for s in scores if s.kind is not TopicKind.STOPWORD]
    return ModelReport(per_topic=scores, model_means=_means(scores),
                       domain_means=_means(domain) if domain else None)
