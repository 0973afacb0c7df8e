import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from priorlda import _kernels, metrics
from priorlda.corpus import (AllDocumentsEmpty, build_corpus, co_doc_counts,
                             compute_stats, delete_stopwords)
from priorlda.metrics import MetricConfig, coherence, log_lift, pmi_score, report
from priorlda.priors import TopicKind, symmetric_prior
from priorlda.sampler import ModelConfig, fit, top_words

from .conftest import python_twins
from .helpers import row_model
from .oracles import (doc_sets, naive_codoc, naive_coherence, naive_log_lift, naive_pmi,
                      naive_rate)
from .synthetic import pathology_corpus, planted_stopword_corpus, texts


def token_docs_of(corpus):
    return [text.split() for text in texts(corpus)]


def _window_score(top, stoplist=(), whitelist=(), docs=None):
    """report's score of a one-topic model whose top words are ``top``, in that
    order, scored over those words alone; the corpus is ``docs``, or one
    document of ``top``."""
    corpus = build_corpus(docs or [" ".join(top)])
    vocab = corpus.vocabulary
    row = np.full(vocab.size, 1e-6)
    for rank, w in enumerate(top):
        row[vocab.word_to_id[w]] = len(top) - rank
    model = row_model([row / row.sum()], vocab)
    cfg = MetricConfig(m_small=2, m_large=len(top))
    return report(model, compute_stats(corpus), stoplist, whitelist, cfg).per_topic[0]


class TestCoherence:
    def test_pair_always_cooccurring(self):
        corpus = build_corpus(["v w"] * 10)
        stats = compute_stats(corpus)
        assert coherence(["v", "w"], stats) == pytest.approx(math.log(11 / 10))

    def test_pair_never_cooccurring(self):
        corpus = build_corpus(["v x"] * 4 + ["w y"] * 6)
        stats = compute_stats(corpus)
        assert coherence(["v", "w"], stats) == pytest.approx(math.log(1 / 4))

    def test_three_doc_sum(self):
        docs = ["a b", "a c", "b c"]
        stats = compute_stats(build_corpus(docs))
        want = naive_coherence(["a", "b", "c"], [d.split() for d in docs])
        assert coherence(["a", "b", "c"], stats) == pytest.approx(want, abs=1e-12)

    def test_order_matters_through_denominator(self):
        # v appears in 4 docs, w in 2; reversing the pair changes the result
        corpus = build_corpus(["v w", "v w", "v x", "v x", "w y", "y x"])
        stats = compute_stats(corpus)
        assert coherence(["v", "w"], stats) != coherence(["w", "v"], stats)
        # equal document counts make the order irrelevant
        stats2 = compute_stats(build_corpus(["p q", "p x", "q x"]))
        assert coherence(["p", "q"], stats2) == coherence(["q", "p"], stats2)

    def test_monotone_in_cooccurrence(self):
        low = compute_stats(build_corpus(["v w", "v x", "w x"]))
        high = compute_stats(build_corpus(["v w", "v w", "w x"]))
        # D(v)=2 in both corpora; co-document count rises from 1 to 2
        assert coherence(["v", "w"], high) > coherence(["v", "w"], low)

    def test_needs_two_words(self, alice_stats):
        with pytest.raises(ValueError):
            coherence(["book"], alice_stats)


class TestPmiScore:
    def test_words_in_every_document_zero_unsmoothed(self):
        stats = compute_stats(build_corpus(["v w"] * 5))
        cfg = MetricConfig(pmi_smoothing=False)
        assert pmi_score(["v", "w"], stats, cfg) == pytest.approx(0.0)

    def test_perfect_association(self):
        stats = compute_stats(build_corpus(["v w", "v w", "x y", "x y"]))
        cfg = MetricConfig(pmi_smoothing=False)
        assert pmi_score(["v", "w"], stats, cfg) == pytest.approx(math.log(2))

    def test_three_doc_median_smoothed(self):
        docs = ["a b", "a c", "b c"]
        stats = compute_stats(build_corpus(docs))
        want = naive_pmi(["a", "b", "c"], [d.split() for d in docs], smoothing=True)
        assert pmi_score(["a", "b", "c"], stats) == pytest.approx(want, abs=1e-12)

    def test_unsmoothed_drops_empty_joints(self):
        docs = ["v w", "v w", "x q", "y q"]
        stats = compute_stats(build_corpus(docs))
        cfg = MetricConfig(pmi_smoothing=False)
        # (v,w) co-occur, (v,x)/(w,x) never do and drop out of the median
        got = pmi_score(["v", "w", "x"], stats, cfg)
        assert got == pytest.approx(naive_pmi(["v", "w", "x"],
                                              [d.split() for d in docs], smoothing=False))

    def test_unsmoothed_all_dropped_is_nan(self):
        stats = compute_stats(build_corpus(["v a", "w b"]))
        cfg = MetricConfig(pmi_smoothing=False)
        assert math.isnan(pmi_score(["v", "w"], stats, cfg))

    def test_lower_median_for_even_counts(self):
        # four words, six pairs; engineered so pair values are distinct
        docs = ["a b c", "a b d", "a c d", "b e", "c e", "d e"]
        stats = compute_stats(build_corpus(docs))
        want = naive_pmi(["a", "b", "c", "d"], [d.split() for d in docs])
        assert pmi_score(["a", "b", "c", "d"], stats) == pytest.approx(want, abs=1e-12)


class TestLogLift:
    def test_topic_equal_to_corpus_distribution(self):
        corpus = build_corpus(["a a b", "b c c c"])
        stats = compute_stats(corpus)
        model = row_model([stats.word_freq], corpus.vocabulary)
        assert abs(log_lift(model, 0, stats, n_lift=3)) < 1e-6

    def test_single_word_degenerate(self):
        corpus = build_corpus(["solo solo"])
        model = row_model([[1.0]], corpus.vocabulary)
        assert log_lift(model, 0, compute_stats(corpus), n_lift=1) == 0.0

    def test_hand_values(self):
        # corpus probabilities 0.2 / 0.3 / 0.5 against topic 0.5 / 0.3 / 0.2
        corpus = build_corpus(["x x y y y z z z z z"])
        stats = compute_stats(corpus)
        model = row_model([[0.5, 0.3, 0.2]], corpus.vocabulary)
        want = (math.log(0.5 / 0.2) + math.log(0.3 / 0.3) + math.log(0.2 / 0.5)) / 3
        assert log_lift(model, 0, stats, n_lift=3) == pytest.approx(want)

    def test_statistics_vocabulary_in_another_order(self):
        # the same documents in reverse order number the same words differently,
        # so lift must read beta_hat at the model's ids, word_freq at the stats'
        planted = planted_stopword_corpus(seed=1)
        docs = texts(planted.corpus)
        own = compute_stats(planted.corpus)
        reversed_stats = compute_stats(build_corpus(docs[::-1]))
        assert reversed_stats.vocabulary != own.vocabulary
        model = fit(planted.corpus, symmetric_prior(4, own.vocabulary.size, 1.0),
                    ModelConfig(topics=4, iterations=20, seed=0))
        lists = (set(planted.stopwords), set(planted.clusters[0]))
        assert (report(model, reversed_stats, *lists).per_topic
                == report(model, own, *lists).per_topic)
        for t in range(4):
            assert log_lift(model, t, reversed_stats) == log_lift(model, t, own)

    def test_model_route_matches_word_route(self):
        planted = planted_stopword_corpus(seed=2)
        stats = compute_stats(planted.corpus)
        prior = symmetric_prior(3, planted.corpus.vocabulary.size, 1.0)
        model = fit(planted.corpus, prior, ModelConfig(topics=3, iterations=20, seed=0))
        top = top_words(model, 1, 8)
        probs = {w: model.beta_hat[1][model.vocabulary.word_to_id[w]] for w in top}
        assert log_lift(model, 1, stats, 8) == pytest.approx(
            naive_log_lift(top, probs, token_docs_of(planted.corpus)), abs=1e-12)


class TestRates:
    def test_stopword_rate(self):
        assert _window_score(["a", "b", "c"], stoplist={"x"}).stopword_rate == 0.0
        assert _window_score(["a", "b"], stoplist={"a", "b"}).stopword_rate == 1.0
        assert _window_score(["a", "b", "c", "d"],
                             stoplist={"a", "c", "q"}).stopword_rate == 0.5

    def test_stopword_rate_thirty_word_list(self):
        words = [f"w{i}" for i in range(30)]
        score = _window_score(words, stoplist=set(words[:23]))
        assert score.stopword_rate == pytest.approx(23 / 30)

    def test_expert_rate(self):
        assert _window_score(["a", "b"], whitelist={"a", "b", "c"}).expert_rate == 1.0
        assert _window_score(["a", "b"], whitelist=set()).expert_rate == 0.0


class TestCodocumentAppearance:
    def test_full_whitelist_everything_hits(self):
        docs = ["a b", "c d", "a d"]
        assert _window_score(["a", "c"], whitelist=set("abcd"), docs=docs).codoc == 1.0

    def test_empty_whitelist(self):
        assert _window_score(["a", "c"], whitelist=set(), docs=["a b", "c d"]).codoc == 0.0

    def test_controlled_overlaps_vs_oracle(self):
        docs = ["a w1 b", "c d", "e w2", "f a"]
        top = ["a", "c", "e", "f"]
        whitelist = {"w1", "w2"}
        want = naive_codoc(top, whitelist, [d.split() for d in docs])
        assert _window_score(top, whitelist=whitelist, docs=docs).codoc == want
        # a shares doc 0 with w1; e shares doc 2 with w2; c and f never do
        assert want == 0.5


class TestReport:
    def _small_model(self, seed=0):
        planted = planted_stopword_corpus(seed=1)
        stats = compute_stats(planted.corpus)
        prior = symmetric_prior(4, planted.corpus.vocabulary.size, 1.0)
        model = fit(planted.corpus, prior, ModelConfig(topics=4, iterations=30, seed=seed))
        return planted, stats, model

    def test_single_topic_means_equal_score(self):
        corpus = build_corpus(["a b c d e f g h i j", "a b k l"])
        stats = compute_stats(corpus)
        prior = symmetric_prior(1, corpus.vocabulary.size, 1.0)
        model = fit(corpus, prior, ModelConfig(topics=1, iterations=5, seed=0))
        rep = report(model, stats, {"a"}, {"b"}, MetricConfig(m_small=3, m_large=5))
        assert len(rep.per_topic) == 1
        for name, value in rep.model_means.items():
            assert value == pytest.approx(getattr(rep.per_topic[0], name))

    def test_all_stopword_model_has_no_domain_means(self):
        corpus = build_corpus(["a b c", "b c d"])
        stats = compute_stats(corpus)
        model = fit(corpus, symmetric_prior(2, corpus.vocabulary.size, 1.0),
                    ModelConfig(topics=2, iterations=5, seed=0))
        model.kinds = (TopicKind.STOPWORD, TopicKind.STOPWORD)
        rep = report(model, stats, set(), set(), MetricConfig(m_small=2, m_large=3))
        assert rep.domain_means is None

    def test_means_are_arithmetic_means(self):
        planted, stats, model = self._small_model()
        rep = report(model, stats, set(planted.stopwords), set(planted.clusters[0]),
                     MetricConfig(m_small=5, m_large=10))
        for name in rep.model_means:
            values = [getattr(t, name) for t in rep.per_topic]
            assert rep.model_means[name] == pytest.approx(float(np.mean(values)))

    def test_full_independent_recomputation(self):
        planted, stats, model = self._small_model(seed=3)
        stoplist = set(planted.stopwords)
        whitelist = set(planted.clusters[0]) | set(planted.clusters[1])
        cfg = MetricConfig(m_small=5, m_large=10)
        rep = report(model, stats, stoplist, whitelist, cfg)
        token_docs = token_docs_of(planted.corpus)
        for t, score in enumerate(rep.per_topic):
            window = top_words(model, t, cfg.m_large)
            small = top_words(model, t, cfg.m_small)
            probs = {w: model.beta_hat[t][stats.vocabulary.word_to_id[w]] for w in window}
            assert score.coherence_10 == pytest.approx(
                naive_coherence(small, token_docs), abs=1e-12)
            assert score.coherence_30 == pytest.approx(
                naive_coherence(window, token_docs), abs=1e-12)
            assert score.pmi == pytest.approx(naive_pmi(window, token_docs), abs=1e-12)
            assert score.log_lift == pytest.approx(
                naive_log_lift(window, probs, token_docs), abs=1e-12)
            assert score.stopword_rate == len([w for w in window if w in stoplist]) / 10
            assert score.expert_rate == len([w for w in window if w in whitelist]) / 10
            assert score.codoc == naive_codoc(window, whitelist, token_docs)

    def test_csv_and_json_round_trip(self, tmp_path):
        planted, stats, model = self._small_model()
        rep = report(model, stats, set(planted.stopwords), set(),
                     MetricConfig(m_small=3, m_large=5))
        csv_text = rep.to_csv()
        header = csv_text.splitlines()[0]
        assert header == ("topic,coherence_10,coherence_30,pmi,log_lift,"
                          "stopword_rate,expert_rate,codoc,kind")
        assert len(csv_text.splitlines()) == 1 + 4 + 2  # header + topics + mean rows
        data = rep.to_json()
        assert len(data["per_topic"]) == 4
        rep.save(tmp_path / "r.csv")
        rep.save(tmp_path / "r.json")
        assert (tmp_path / "r.csv").read_text() == csv_text


@st.composite
def count_cases(draw):
    """A random corpus, sometimes after stopword deletion, and a list of its
    word ids with repeats."""
    n_words = draw(st.integers(2, 12))
    docs = draw(st.lists(st.lists(st.integers(0, n_words - 1), max_size=8),
                         min_size=1, max_size=15))
    texts = [" ".join(f"w{i}" for i in doc) for doc in docs]
    assume(any(texts))
    corpus = build_corpus(texts)
    if draw(st.booleans()):
        stop = draw(st.sets(st.sampled_from(corpus.vocabulary.id_to_word)))
        try:
            corpus = delete_stopwords(corpus, stop)
        except AllDocumentsEmpty:
            assume(False)
    v = corpus.vocabulary.size
    ids = draw(st.lists(st.integers(0, v - 1), max_size=2 * v + 2))
    return corpus, ids


@st.composite
def doc_lists(draw):
    """Per-word document lists (sorted, unique, in [0, D)), D, and a list of
    word ids: empty, of one id, or with repeats."""
    n_docs = draw(st.integers(1, 12))
    index = draw(st.lists(st.sets(st.integers(0, n_docs - 1)).map(sorted),
                          min_size=1, max_size=10))
    word = st.integers(0, len(index) - 1)
    ids = draw(st.one_of(st.just([]), st.lists(word, min_size=1, max_size=1),
                         st.lists(word, max_size=3 * len(index))))
    return index, n_docs, ids


class TestBatchedCounts:
    @settings(max_examples=150, deadline=None)
    @given(count_cases())
    def test_blocks_equal_pairwise_intersections(self, case):
        corpus, ids = case
        sets = doc_sets(token_docs_of(corpus))
        words = corpus.vocabulary.id_to_word
        # repeated ids within one list get repeated rows and columns
        counts = co_doc_counts(compute_stats(corpus), ids)
        assert counts.shape == (len(ids), len(ids))
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert counts[i, j] == len(sets[words[a]] & sets[words[b]])

    @settings(max_examples=200, deadline=None)
    @given(doc_lists())
    @example(([[0, 2], [1], [0, 1, 2]], 3, []))
    @example(([[0, 2], [1], [0, 1, 2]], 3, [2]))
    @example(([[0, 2], [1], [0, 1, 2]], 3, [2, 0, 2, 2, 1]))
    def test_kernel_equals_twin_and_pairwise_intersections(self, case):
        index, n_docs, ids = case
        # the CSR form: every run in one array, and each run's length
        flat = np.array([d for run in index for d in run], np.int64)
        lengths = np.array([len(run) for run in index], np.int64)
        kernel = _kernels.co_doc_counts(flat, lengths, ids, n_docs)
        with python_twins():
            twin = _kernels.co_doc_counts(flat, lengths, ids, n_docs)
        for counts in (kernel, twin):
            assert counts.dtype == np.int64 and counts.shape == (len(ids), len(ids))
            for i, a in enumerate(ids):
                for j, b in enumerate(ids):
                    assert counts[i, j] == len(set(index[a]) & set(index[b]))

    @pytest.mark.parametrize("columns,bad", [([[0, 3], [1, 2]], 3), ([[0], [-1, 5]], -1),
                                             ([[0, 7], [-1]], 7)])
    def test_document_index_outside_range_raises(self, backend, columns, bad):
        # the first bad entry, in column order, is named
        with pytest.raises(ValueError, match=f"^document index {bad} is outside D=3$"):
            _kernels.co_doc_counts(np.array(sum(columns, []), np.int64),
                                   np.array([len(c) for c in columns]), range(len(columns)), 3)

    @pytest.mark.parametrize("ids,bad", [([-1], "-1"), ([3], "3"), ([1.0], "1.0"),
                                         ([0, 1.5], "1.5"), ([True], "True"),
                                         (np.array([2, 0, 7]), "7")])
    def test_word_id_outside_vocabulary_raises(self, ids, bad):
        # a negative id must not wrap to the last word, nor a float be cut to an int
        stats = compute_stats(build_corpus(["a b", "b c", "c"]))
        with pytest.raises(ValueError, match=rf"^word id {bad} is not an integer in \[0, 3\)$"):
            co_doc_counts(stats, ids)

    def test_counts_shape_checked(self):
        stats = compute_stats(build_corpus(["a b", "b c"]))
        with pytest.raises(ValueError, match="counts must be 3x3"):
            coherence(["a", "b", "c"], stats, counts=np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="counts must be 2x2"):
            pmi_score(["a", "b"], stats, counts=np.zeros((3, 3), dtype=np.int64))


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def zipf_corpus(seed, n_docs=300, doc_len=60, max_rank=2000):
    """Documents of words drawn by a Zipf law with exponent 1 over ranks
    1..max_rank, word ``w<rank>``."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, max_rank + 1)
    ranks = rng.choice(max_rank, size=(n_docs, doc_len), p=p / p.sum()) + 1
    return build_corpus([" ".join(f"w{r}" for r in doc) for doc in ranks.tolist()])


class TestBatchedReport:
    """report's one-product counts and all-topic array passes give exactly
    what the public per-topic functions give when each makes its own counts,
    and the rate and co-document columns exactly what the naive oracles give."""

    @staticmethod
    def _assert_equal_to_per_topic_calls(corpus, model, stoplist, whitelist, cfg):
        stats = compute_stats(corpus)
        token_docs = token_docs_of(corpus)
        rep = report(model, stats, stoplist, whitelist, cfg)
        for t, score in enumerate(rep.per_topic):
            small = top_words(model, t, cfg.m_small)
            large = top_words(model, t, cfg.m_large)
            assert score.coherence_10 == coherence(small, stats)
            assert score.coherence_30 == coherence(large, stats)
            assert _same(score.pmi, pmi_score(large, stats, cfg))
            assert score.log_lift == log_lift(model, t, stats, cfg.m_large)
            assert score.stopword_rate == naive_rate(large, stoplist)
            assert score.expert_rate == naive_rate(large, whitelist)
            assert score.codoc == naive_codoc(large, whitelist, token_docs)
            assert all(type(v) is float for v in score.metric_values().values())

    @pytest.mark.parametrize("cfg", [
        MetricConfig(m_small=5, m_large=10),
        MetricConfig(m_small=12, m_large=6, pmi_smoothing=False),
        MetricConfig(m_small=10, m_large=80),
    ], ids=["default-order", "small-window-larger", "window-beyond-vocabulary"])
    @pytest.mark.parametrize("delete", [False, True], ids=["full", "stopwords-deleted"])
    def test_report_equals_per_topic_calls(self, cfg, delete):
        planted = planted_stopword_corpus(seed=1)
        corpus = (delete_stopwords(planted.corpus, planted.stopwords) if delete
                  else planted.corpus)
        model = fit(corpus, symmetric_prior(4, corpus.vocabulary.size, 1.0),
                    ModelConfig(topics=4, iterations=20, seed=2))
        whitelist = set(planted.clusters[0]) | {"not-a-word"}
        self._assert_equal_to_per_topic_calls(corpus, model, set(planted.stopwords),
                                              whitelist, cfg)

    @pytest.mark.parametrize("cfg", [MetricConfig(), MetricConfig(m_small=45, m_large=60)],
                             ids=["30-30", "45-60"])
    def test_zipf_scale(self, cfg):
        # K=50 over a Zipf vocabulary of ~1.7k words, so windows overlap across
        # topics. A whitelist from the body spreads the expert rate; one of
        # rare words, which few documents hold, spreads the co-document share.
        corpus = zipf_corpus(seed=3)
        model = fit(corpus, symmetric_prior(50, corpus.vocabulary.size, 0.1),
                    ModelConfig(topics=50, alpha=0.2, iterations=3, seed=3))
        stoplist = {f"w{r}" for r in range(1, 31)}
        for ranks in (range(100, 200), range(1990, 2001)):
            whitelist = {f"w{r}" for r in ranks} | {"not-a-word"}
            self._assert_equal_to_per_topic_calls(corpus, model, stoplist, whitelist, cfg)


@st.composite
def scored_windows(draw):
    """A random corpus, sometimes one whose documents each hold a single
    distinct word (no pair ever co-occurs), and a window of 2 up to all of
    its words, drawn as the prefix of a permutation of the vocabulary."""
    n_words = draw(st.integers(2, 15))
    word = st.integers(0, n_words - 1)
    if draw(st.booleans()):
        docs = draw(st.lists(st.lists(word, max_size=8), min_size=1, max_size=20))
    else:
        docs = [[w] * k for w, k in draw(st.lists(st.tuples(word, st.integers(0, 3)),
                                                    min_size=1, max_size=20))]
    texts = [" ".join(f"w{i}" for i in doc) for doc in docs]
    assume(len({w for doc in docs for w in doc}) >= 2)
    corpus = build_corpus(texts)
    order = draw(st.permutations(corpus.vocabulary.id_to_word))
    return corpus, order, draw(st.integers(2, len(order)))


class TestExactScores:
    """coherence and pmi_score give bit for bit what the per-pair oracles
    give: ln of each pair's quotient in i<j order, summed left to right or
    taken at the lower median, with and without a ``counts`` block, on the
    C log fold and on its Python twin."""

    @settings(max_examples=200, deadline=None)
    @given(scored_windows())
    def test_equal_to_oracles(self, case):
        corpus, order, m = case
        stats = compute_stats(corpus)
        token_docs = token_docs_of(corpus)
        window = order[:m]
        # the window's block cut from a larger one, as report cuts it
        block = co_doc_counts(stats, stats.vocabulary.ids(order))[:m, :m]
        want = naive_coherence(window, token_docs)
        for twins in (nullcontext, python_twins):
            with twins():
                assert coherence(window, stats) == want
                assert coherence(window, stats, counts=block) == want
        for smoothing in (True, False):
            cfg = MetricConfig(pmi_smoothing=smoothing)
            want = naive_pmi(window, token_docs, smoothing=smoothing)
            assert _same(pmi_score(window, stats, cfg), want)
            assert _same(pmi_score(window, stats, cfg, counts=block), want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-8, 8).map(lambda j: 1.0 + j * 2.0 ** -53),
                              st.floats(1e-300, 1e300)), min_size=1, max_size=8)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=500)))
    def test_log_of_lower_median_argument(self, values):
        # pmi_score logs only the lower-median argument; that is exact because
        # libm's log keeps the arguments' order, ties and near-ties at 1 included
        k = (len(values) - 1) // 2
        want = sorted(map(math.log, values))[k]
        assert math.log(np.partition(np.array(values), k)[k]).hex() == want.hex()


class TestReportCallContract:
    """report scores each topic through one call of the public ``coherence``
    per coherence window and one of ``pmi_score``, looked up as module
    globals: ``perfbench/layers.py`` reads ``metrics.coherence_ms`` and
    ``metrics.pmi_ms`` from the spans of those per-topic calls, which a
    traced run records by wrapping these names."""

    def test_one_call_per_topic_and_window(self, monkeypatch):
        planted = planted_stopword_corpus(seed=1)
        stats = compute_stats(planted.corpus)
        model = fit(planted.corpus, symmetric_prior(4, planted.corpus.vocabulary.size, 1.0),
                    ModelConfig(topics=4, iterations=20, seed=2))
        cfg = MetricConfig(m_small=5, m_large=10)
        args = (model, stats, set(planted.stopwords), set(planted.clusters[0]), cfg)
        plain = report(*args)
        calls = {"coherence": [], "pmi_score": []}
        for name, seen in calls.items():
            def counted(top, *rest, _scorer=getattr(metrics, name), _seen=seen, **kwargs):
                _seen.append((list(top), kwargs.get("counts") is not None))
                return _scorer(top, *rest, **kwargs)
            monkeypatch.setattr(metrics, name, counted)
        wrapped = report(*args)
        topics = model.n_topics
        assert calls["coherence"] == [(top_words(model, t, m), True)
                                      for t in range(topics) for m in (5, 10)]
        assert calls["pmi_score"] == [(top_words(model, t, 10), True) for t in range(topics)]
        assert wrapped.per_topic == plain.per_topic
        assert wrapped.model_means == plain.model_means
        assert wrapped.domain_means == plain.domain_means


class TestNaiveEquivalenceFuzz:
    def test_random_corpora(self):
        rng = np.random.default_rng(99)
        for trial in range(10):
            n_words = int(rng.integers(8, 40))
            words = [f"w{i}" for i in range(n_words)]
            docs = [" ".join(rng.choice(words, size=rng.integers(3, 12)))
                    for _ in range(int(rng.integers(5, 60)))]
            corpus = build_corpus(docs)
            stats = compute_stats(corpus)
            token_docs = [d.split() for d in docs]
            vocab_words = corpus.vocabulary.id_to_word
            m = min(8, len(vocab_words))
            top = list(rng.choice(vocab_words, size=m, replace=False))
            assert coherence(top, stats) == pytest.approx(
                naive_coherence(top, token_docs), abs=1e-12)
            assert pmi_score(top, stats) == pytest.approx(
                naive_pmi(top, token_docs), abs=1e-12)
            row = rng.uniform(0.01, 1.0, size=len(vocab_words))
            row /= row.sum()
            model = row_model([row], corpus.vocabulary)
            lift_top = top_words(model, 0, m)
            probs = {w: row[corpus.vocabulary.word_to_id[w]] for w in lift_top}
            assert log_lift(model, 0, stats, m) == pytest.approx(
                naive_log_lift(lift_top, probs, token_docs), abs=1e-12)


class TestStopwordPathology:
    def test_universal_topic_beats_clusters_on_coherence_and_pmi_but_not_lift(self):
        planted = pathology_corpus(n_docs=500)
        stats = compute_stats(planted.corpus)
        stop_list = list(planted.stopwords)
        # one topic per word list, each putting its mass on that list alone,
        # so a topic's top len(list) words are its list
        model = row_model([_concentrated_row(stats, words)
                           for words in [stop_list, *planted.clusters]], stats.vocabulary)
        stop_coh = coherence(stop_list, stats)
        stop_pmi = pmi_score(stop_list, stats)
        stop_lift = log_lift(model, 0, stats, n_lift=len(stop_list))
        for t, cluster in enumerate(planted.clusters, start=1):
            assert set(top_words(model, t, len(cluster))) == set(cluster)
            assert stop_coh > coherence(cluster, stats)
            assert stop_pmi > pmi_score(cluster, stats)
            assert stop_lift < log_lift(model, t, stats, n_lift=len(cluster))


def _concentrated_row(stats, support, mass=1.0 - 1e-6):
    """A topic row putting nearly all mass uniformly on ``support``."""
    v = stats.vocabulary.size
    row = np.full(v, (1.0 - mass) / (v - len(support)))
    for w in support:
        row[stats.vocabulary.word_to_id[w]] = mass / len(support)
    return row
