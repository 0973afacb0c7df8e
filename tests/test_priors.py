import logging

import numpy as np
import pytest
from scipy.special import gammaln

from priorlda import _kernels
from priorlda.corpus import build_corpus, compute_stats
from priorlda.priors import (DEFAULT_FLOOR, ConfigMismatch, PriorConfig, PriorMatrix,
                             TopicKind, assemble, keyword_prior, stopword_prior,
                             symmetric_prior, tfidf_prior, validate, wordfreq_prior)

from priorlda.sampler import ModelConfig, fit, save_model

from .conftest import ALICE_KEYWORDS
from .oracles import reference_prior_data, reference_prior_rows
from .synthetic import random_corpus


@pytest.fixture
def alice_reference(alice_texts):
    token_docs = [t.lower().split() for t in alice_texts]
    return reference_prior_data(token_docs, ALICE_KEYWORDS)


class TestStopwordPrior:
    def test_small_sizes(self):
        assert stopword_prior(3).tolist() == [1.0, 1.0, 1.0]
        assert stopword_prior(1).tolist() == [1.0]

    def test_alice(self, alice_stats):
        row = stopword_prior(alice_stats.vocabulary.size)
        assert row.shape == (44,)
        assert (row == 1.0).all()

    def test_rejects_empty_vocab(self):
        with pytest.raises(ValueError):
            stopword_prior(0)


class TestWordfreqPrior:
    def test_reciprocal(self):
        stats = compute_stats(build_corpus(["a b", "a b"]))
        row = wordfreq_prior(stats)
        assert row.tolist() == [2.0, 2.0]

    def test_uniform_corpus(self):
        stats = compute_stats(build_corpus(["a b c d e"]))
        assert wordfreq_prior(stats).tolist() == [5.0] * 5

    def test_alice_matches_reference(self, alice_stats, alice_reference):
        ref = reference_prior_rows(alice_reference, alice_stats.vocabulary.id_to_word)
        np.testing.assert_allclose(wordfreq_prior(alice_stats), ref["wordfreq"], atol=1e-9)

    def test_weight_times_freq_is_one(self, alice_stats):
        product = wordfreq_prior(alice_stats) * alice_stats.word_freq
        assert (product == 1.0).all()


class TestTfidfPrior:
    def test_universal_word_clamped_to_floor(self):
        # a word in every document has TF-IDF 0; assemble clamps it, once
        stats = compute_stats(build_corpus(["x a", "x b"]))
        x = stats.vocabulary.word_to_id["x"]
        assert tfidf_prior(stats, c1=1.0)[x] == 0.0
        prior = assemble(PriorConfig(topics=1, stopword_topics=0, tfidf_topics=1), stats)
        assert prior.weights[0, x] == DEFAULT_FLOOR

    def test_alice_book_value(self, alice_stats):
        # frozen from the reference statistics: TI("book") with c1=1
        row = tfidf_prior(alice_stats, c1=1.0)
        book = alice_stats.vocabulary.word_to_id["book"]
        assert row[book] == pytest.approx(0.11633239394013069, abs=1e-12)

    def test_alice_matches_reference(self, alice_stats, alice_reference):
        ref = reference_prior_rows(alice_reference, alice_stats.vocabulary.id_to_word, c1=2.5)
        row = tfidf_prior(alice_stats, c1=2.5)
        np.testing.assert_allclose(row, ref["tfidf"], atol=1e-9)

    def test_c1_scales_unclamped_entries(self, alice_stats):
        base = tfidf_prior(alice_stats, c1=1.0)
        scaled = tfidf_prior(alice_stats, c1=3.0)
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)


class TestKeywordPrior:
    def test_no_keywords_gives_symmetric(self, alice_stats):
        row = keyword_prior(alice_stats.vocabulary, set(), c2=2.0, boost=100.0)
        assert (row == 2.0).all()

    def test_single_keyword_boosted(self):
        stats = compute_stats(build_corpus(["a b c"]))
        row = keyword_prior(stats.vocabulary, {"a"}, c2=1.0, boost=100.0)
        assert row[stats.vocabulary.word_to_id["a"]] == 100.0
        assert sorted(row.tolist()) == [1.0, 1.0, 100.0]

    def test_alice_matches_reference_on_keywords(self, alice_stats, alice_reference):
        # the reference rows give non-keywords weight 0, which is not a valid
        # Dirichlet parameter; here non-keywords get c2 instead, so only the
        # keyword entries are compared against the reference
        ref = reference_prior_rows(alice_reference, alice_stats.vocabulary.id_to_word, c2=10.0)
        row = keyword_prior(alice_stats.vocabulary, ALICE_KEYWORDS, c2=10.0, boost=100.0)
        for w in ALICE_KEYWORDS:
            i = alice_stats.vocabulary.word_to_id[w]
            assert ref["keyword"][i] == 10.0
            assert row[i] == 10.0 * 100.0
        non_keyword = [i for w, i in alice_stats.vocabulary.word_to_id.items()
                       if w not in ALICE_KEYWORDS]
        assert (row[non_keyword] == 10.0).all()

    def test_out_of_vocab_keywords_warn(self, alice_stats, caplog):
        with caplog.at_level(logging.WARNING):
            row = keyword_prior(alice_stats.vocabulary, {"zzz", "qqq"}, c2=1.0, boost=10.0)
        assert (row == 1.0).all()
        assert any("keywords" in r.message for r in caplog.records)

    def test_boost_below_one_rejected(self, alice_stats):
        with pytest.raises(ValueError):
            keyword_prior(alice_stats.vocabulary, {"book"}, c2=1.0, boost=0.5)


class TestAssemble:
    def test_tfidf_prior_layout(self, alice_stats):
        cfg = PriorConfig(topics=20, stopword_topics=1, tfidf_topics=19)
        prior = assemble(cfg, alice_stats)
        assert prior.kinds[0] is TopicKind.STOPWORD
        assert all(k is TopicKind.TFIDF for k in prior.kinds[1:])
        assert prior.weights.shape == (20, 44)

    def test_keyword_seeding_layout(self, alice_stats):
        cfg = PriorConfig(topics=20, stopword_topics=1, tfidf_topics=9,
                          keyword_topics=10, keyword_boost=100.0)
        prior = assemble(cfg, alice_stats, ALICE_KEYWORDS)
        kinds = [k.value for k in prior.kinds]
        assert kinds == ["stopword"] + ["tfidf"] * 9 + ["keyword"] * 10

    def test_keyword_topics_baseline_layout(self, alice_stats):
        cfg = PriorConfig(topics=5, stopword_topics=0, tfidf_topics=0, keyword_topics=5)
        prior = assemble(cfg, alice_stats, ALICE_KEYWORDS)
        assert all(k is TopicKind.KEYWORD for k in prior.kinds)

    def test_wordfreq_layout_and_symmetric_padding(self, alice_stats):
        cfg = PriorConfig(topics=6, stopword_topics=1, wordfreq_topics=3)
        prior = assemble(cfg, alice_stats)
        kinds = [k.value for k in prior.kinds]
        assert kinds == ["stopword"] + ["word_frequency"] * 3 + ["symmetric"] * 2

    @pytest.mark.parametrize("name", ["c1", "c2", "keyword_boost"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_constants_rejected(self, name, value):
        with pytest.raises(ConfigMismatch, match=f"{name} must be positive and finite"):
            PriorConfig(topics=4, **{name: value})

    def test_counts_exceeding_topics_rejected(self):
        with pytest.raises(ConfigMismatch):
            PriorConfig(topics=5, stopword_topics=2, tfidf_topics=4)

    def test_deterministic(self, alice_stats):
        cfg = PriorConfig(topics=8, stopword_topics=1, tfidf_topics=3, keyword_topics=2)
        a = assemble(cfg, alice_stats, ALICE_KEYWORDS)
        b = assemble(cfg, alice_stats, ALICE_KEYWORDS)
        assert (a.weights == b.weights).all()
        assert a.kinds == b.kinds

    @pytest.mark.parametrize("topics", [1, 3, 20])
    def test_all_symmetric_equals_symmetric_prior(self, alice_stats, topics):
        prior = assemble(PriorConfig(topics=topics, stopword_topics=0), alice_stats)
        flat = symmetric_prior(topics, alice_stats.vocabulary.size, 1.0)
        assert prior.weights.tobytes() == flat.weights.tobytes()
        assert prior.kinds == flat.kinds
        # one all-ones row, word-major as the sweep reads it, that every topic takes
        for p in (prior, flat):
            assert p.rows_by_word.shape == (alice_stats.vocabulary.size, 1)
            assert p.rows_by_word.flags.c_contiguous
            assert p.topic_rows.tolist() == [0] * topics

    def test_floor_enforced_everywhere(self, alice_stats):
        cfg = PriorConfig(topics=4, stopword_topics=1, tfidf_topics=3)
        prior = assemble(cfg, alice_stats)
        assert (prior.weights >= DEFAULT_FLOOR).all()


class TestValidate:
    def test_no_warning_at_defaults_on_alice(self, alice_stats):
        cfg = PriorConfig(topics=20, stopword_topics=1, tfidf_topics=9,
                          keyword_topics=10, c1=1.0, c2=1.0, keyword_boost=100.0)
        prior = assemble(cfg, alice_stats, ALICE_KEYWORDS)
        assert validate(prior) == []

    def test_warning_when_tfidf_mass_dominates(self, alice_stats):
        cfg = PriorConfig(topics=4, stopword_topics=1, tfidf_topics=3, c1=1e4)
        prior = assemble(cfg, alice_stats)
        warnings = validate(prior)
        assert len(warnings) == 1 and warnings[0].startswith("warning:")

    def test_stopword_topic_alone_never_warns(self, alice_stats):
        prior = assemble(PriorConfig(topics=2, stopword_topics=2), alice_stats)
        assert validate(prior) == []


class TestPriorMatrix:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PriorMatrix(np.zeros((1, 3)), (TopicKind.SYMMETRIC,))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite(self, value):
        weights = np.ones((2, 3))
        weights[1, 2] = value
        with pytest.raises(ValueError, match="strictly positive and finite"):
            PriorMatrix(weights, (TopicKind.SYMMETRIC,) * 2)

    @pytest.mark.parametrize("weight", [1e306, 1e308], ids=["gammaln-overflows", "sum-overflows"])
    @pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
    def test_rejects_rows_too_heavy_for_a_finite_log_gamma(self, weight):
        # gammaln(2e306) is inf, and 2 * 1e308 overflows to inf (numpy warns
        # as it sums the row); the trace would come out NaN
        with pytest.raises(ValueError, match="too large for a finite log-gamma"):
            PriorMatrix(np.full((2, 2), weight), (TopicKind.SYMMETRIC,) * 2)

    def test_heaviest_row_has_a_finite_log_gamma(self, backend):
        # gammaln is finite up to LGAM_MAX and inf just above it, on both
        # backends and in scipy; a row sum is checked against the threshold
        edge = np.array([_kernels.LGAM_MAX, np.nextafter(_kernels.LGAM_MAX, np.inf)])
        assert np.isfinite(gammaln(edge)).tolist() == [True, False]
        assert _kernels.gammaln(edge).tobytes() == gammaln(edge).tobytes()
        assert PriorMatrix(edge[None, :1], (TopicKind.SYMMETRIC,)).row_sums[0] == edge[0]
        with pytest.raises(ValueError, match="too large for a finite log-gamma"):
            PriorMatrix(edge[None, 1:], (TopicKind.SYMMETRIC,))

    def test_weights_are_a_read_only_copy(self, alice_stats):
        # a write after row_sums is taken would leave them stale
        prior = assemble(PriorConfig(topics=3, stopword_topics=1, tfidf_topics=2),
                         alice_stats)
        row_sums = prior.row_sums.copy()
        for arr in (prior.weights, prior.row_sums, prior.rows_by_word, prior.topic_rows,
                    prior.gammaln_by_word):
            with pytest.raises(ValueError, match="read-only"):
                arr[1:] *= 3
        weights = np.ones((2, 3))
        flat = PriorMatrix(weights, (TopicKind.SYMMETRIC,) * 2)
        weights[1:] *= 3
        assert (flat.weights == 1.0).all()
        assert (prior.row_sums == row_sums).all()

    def test_repeated_rows_are_held_once(self, backend):
        # rows 0 and 3 are the same, as are rows 1, 2 and 4; row 5 differs from
        # row 1 in its last bit. The distinct rows keep their first use's order
        base = np.random.default_rng(4).uniform(0.1, 3.0, (2, 7))
        odd = base[1].copy()
        odd[-1] = np.nextafter(odd[-1], np.inf)
        weights = np.array([base[0], base[1], base[1], base[0], base[1], odd])
        prior = PriorMatrix(weights, (TopicKind.TFIDF,) * 6)
        assert prior.topic_rows.tolist() == [0, 1, 1, 0, 1, 2]
        assert prior.rows_by_word.tobytes() == np.ascontiguousarray(weights[[0, 1, 5]].T).tobytes()
        assert prior.gammaln_by_word.tobytes() == gammaln(prior.rows_by_word).tobytes()
        assert prior.weights.tobytes() == weights.tobytes()
        assert prior.row_sums.tobytes() == weights.sum(axis=1).tobytes()
        assert (prior.n_topics, prior.vocab_size) == (6, 7)

    def test_assembled_kinds_share_their_rows(self, alice_stats):
        # the stopword row and the symmetric padding are both all ones: the
        # 20 topics hold three distinct rows, and no (K, V) array
        cfg = PriorConfig(topics=20, stopword_topics=1, tfidf_topics=9, keyword_topics=6)
        prior = assemble(cfg, alice_stats, ALICE_KEYWORDS)
        assert prior.topic_rows.tolist() == [0] + [1] * 9 + [2] * 6 + [0] * 4
        assert prior.rows_by_word.shape == (alice_stats.vocabulary.size, 3)
        rows = prior.rows_by_word.T
        assert (rows[0] == 1.0).all()
        assert rows[1].tobytes() == np.maximum(tfidf_prior(alice_stats), DEFAULT_FLOOR).tobytes()
        assert prior.row_sums.tobytes() == prior.weights.sum(axis=1).tobytes()

    def test_kind_count_must_match(self):
        with pytest.raises(ValueError):
            PriorMatrix(np.ones((2, 3)), (TopicKind.SYMMETRIC,))

    def test_fortran_ordered_weights_fit_the_same_chain(self, tmp_path):
        # a row sum over an F-ordered matrix adds in another order than over
        # a C-ordered one; the prior must not carry that into the fit
        corpus = random_corpus(seed=2, n_docs=40, vocab_size=300)
        weights = np.random.default_rng(5).uniform(0.01, 2.0, (6, corpus.vocabulary.size))
        fortran = np.asfortranarray(weights)
        assert (fortran.sum(axis=1) != weights.sum(axis=1)).any()
        saved = []
        for w in (weights, fortran):
            prior = PriorMatrix(w, (TopicKind.TFIDF,) * 6)
            assert prior.rows_by_word.flags.c_contiguous
            assert prior.topic_rows.tolist() == list(range(6))
            assert prior.weights.tobytes() == weights.tobytes()
            assert prior.row_sums.tobytes() == weights.sum(axis=1).tobytes()
            path = tmp_path / f"model{len(saved)}.json"
            save_model(fit(corpus, prior, ModelConfig(topics=6, iterations=5, seed=1)), path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    def test_symmetric_prior(self):
        prior = symmetric_prior(3, 4, 0.5)
        assert prior.weights.shape == (3, 4)
        assert (prior.weights == 0.5).all()
        assert all(k is TopicKind.SYMMETRIC for k in prior.kinds)
