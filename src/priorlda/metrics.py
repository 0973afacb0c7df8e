"""Topic quality scores: co-document coherence, PMI, log lift, and list rates.

Coherence and PMI are computed from in-corpus document co-occurrence counts.
Both are known to reward topics full of words that appear in every document,
which is exactly what the lift score is here to counterbalance.

The counts come from one sparse product (``corpus.co_doc_counts``), which
``report`` makes once over every topic's top words; it passes each topic's
block to one ``coherence`` call per window and one ``pmi_score`` call, which
compute their pairs' log arguments with numpy over the pairs i<j. Coherence
takes libm's ``math.log`` of each in that order (``np.log`` may differ in the
last bit); PMI takes one, of the lower-median argument, since a monotone log
keeps the arguments' order.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusStats, co_doc_counts, compute_stats, write_json
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
    args = (joint + 1) / stats.doc_freq[ids][rows]
    # a strict left fold: sum() compensates from Python 3.12, np.sum is pairwise
    return functools.reduce(operator.add, map(math.log, args.tolist()), 0.0)


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


def lift_of_words(words: Sequence[str], beta_row: np.ndarray, stats: CorpusStats) -> float:
    """Mean ln(beta_w / b_w) over the given words."""
    return _lift(_word_ids(words, stats), beta_row, stats)


def _lift(ids: Sequence[int] | np.ndarray, beta_row: np.ndarray, stats: CorpusStats) -> float:
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
            write_json(path, self.to_json(), {})


def _means(scores: list[TopicScore]) -> dict:
    return {name: float(np.mean([getattr(s, name) for s in scores]))
            for name in METRIC_COLUMNS}


def _count_blocks(windows: np.ndarray, stats: CorpusStats) -> list[np.ndarray]:
    """Co-document count block of each row of word ids in ``windows`` (one
    row per topic), all cut from one ``co_doc_counts`` product over the
    union of the rows."""
    union, inverse = np.unique(windows.ravel(), return_inverse=True)
    counts = co_doc_counts(stats, union.tolist())
    return [counts[pos[:, None], pos] for pos in inverse.reshape(windows.shape)]


def report(model: FittedModel, stats: CorpusStats, stoplist: Iterable[str],
           whitelist: Iterable[str], config: MetricConfig = MetricConfig()) -> ModelReport:
    """Score every topic and aggregate. Stoplist and whitelist words are
    matched by string against the statistics vocabulary.

    Top words follow ``top_words``: one stable argsort of every topic row;
    each of them is looked up once. Every co-document count comes from one
    product over the union of the topics' coherence and PMI windows.
    """
    stoplist = set(stoplist)
    whitelist = set(whitelist)
    if model.vocabulary is None:
        raise ValueError("model has no vocabulary attached")
    words = model.vocabulary.id_to_word
    order = np.argsort(-model.beta_hat, axis=1, kind="stable")
    # every window is a prefix of the topic's head, the PMI/coherence ones of its pair window
    n_pair = max(config.m_small, config.m_large)
    head = order[:, :max(n_pair, config.n_lift)]
    union, inverse = np.unique(head, return_inverse=True)
    head_ids = np.array(_word_ids([words[i] for i in union.tolist()], stats),
                        dtype=np.int64)[inverse.reshape(head.shape)]
    pair_words = [[words[i] for i in row] for row in head[:, :n_pair].tolist()]
    blocks = _count_blocks(head_ids[:, :n_pair], stats)
    rate_ids = head_ids[:, :config.m_large].tolist()
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
            log_lift=_lift(head_ids[t, :config.n_lift], model.beta_hat[t], stats),
            stopword_rate=stopword_rate(rate_window, stoplist),
            expert_rate=expert_word_rate(rate_window, whitelist),
            codoc=_codoc_core(rate_ids[t], touches),
            kind=model.kinds[t],
        ))
    domain = [s for s in scores if s.kind is not TopicKind.STOPWORD]
    return ModelReport(per_topic=scores, model_means=_means(scores),
                       domain_means=_means(domain) if domain else None)
