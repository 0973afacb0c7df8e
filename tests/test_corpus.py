import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from priorlda.corpus import (AllDocumentsEmpty, Corpus, Vocabulary, build_corpus,
                             co_doc_freq, compute_stats, default_stoplist,
                             delete_low_tfidf, delete_stopwords, json_float_array,
                             load_corpus, load_raw_documents, load_word_list,
                             save_corpus, tokenize, write_json)

from .oracles import per_document_stats, reference_prior_data


class TestTokenize:
    def test_lowercase_split(self):
        assert tokenize("Alice was beginning") == ["alice", "was", "beginning"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_runs_and_newlines(self):
        # frozen from the reference cleaner: repeated spaces and newlines
        # produce no empty tokens
        assert tokenize("a  b\nc") == ["a", "b", "c"]

    def test_lowercase_off(self):
        assert tokenize("Alice was", lowercase=False) == ["Alice", "was"]


class TestBuildCorpus:
    def test_two_docs(self):
        corpus = build_corpus(["a b", "b c"])
        assert corpus.vocabulary.size == 3
        assert [doc.size for doc in corpus.documents] == [2, 2]

    def test_remove_set(self):
        corpus = build_corpus(["a b", "b c"], remove_set={"b"})
        assert corpus.vocabulary.size == 2
        assert [doc.size for doc in corpus.documents] == [1, 1]

    def test_alice_vocabulary_size(self, alice_corpus):
        # frozen from the reference vocabulary builder on the same text
        assert alice_corpus.vocabulary.size == 44
        assert alice_corpus.n_tokens == 65
        assert [d.size for d in alice_corpus.documents] == [9, 7, 7, 13, 9, 11, 2, 7]

    def test_first_occurrence_ids(self):
        corpus = build_corpus(["b a", "a c"])
        assert corpus.vocabulary.id_to_word == ["b", "a", "c"]

    def test_all_documents_empty(self):
        with pytest.raises(AllDocumentsEmpty):
            build_corpus(["a a", "a"], remove_set={"a"})
        with pytest.raises(AllDocumentsEmpty):
            build_corpus(["", "   "])

    def test_empty_documents_kept_when_any_survive(self):
        corpus = build_corpus(["a b", ""])
        assert corpus.n_docs == 2
        assert corpus.documents[1].size == 0

    def test_doc_ids_carried(self):
        corpus = build_corpus(["a", "b a"], doc_ids=["x", "y"])
        assert corpus.doc_ids == ["x", "y"]


class TestTokenLayout:
    def test_one_stream_with_offsets(self):
        corpus = build_corpus(["a b a", "", "c"])
        assert corpus.tokens.dtype == np.int32 and corpus.tokens.tolist() == [0, 1, 0, 2]
        assert corpus.offsets.dtype == np.int64 and corpus.offsets.tolist() == [0, 3, 3, 4]
        assert corpus.doc_ix.tolist() == [0, 0, 0, 2]
        assert [doc.tolist() for doc in corpus.documents] == [[0, 1, 0], [], [2]]
        assert all(np.shares_memory(doc, corpus.tokens) for doc in corpus.documents if doc.size)
        for arr in (corpus.tokens, corpus.offsets, corpus.doc_ix, *corpus.documents):
            assert not arr.flags.writeable

    def test_no_documents(self):
        corpus = Corpus([], Vocabulary([]))
        assert corpus.documents == []
        assert (corpus.n_docs, corpus.n_tokens, corpus.offsets.tolist()) == (0, 0, [0])

    def test_other_integer_dtypes_accepted(self):
        corpus = Corpus([np.array([1, 0], dtype=np.uint8), [], np.array([1], dtype=np.int64)],
                        Vocabulary(["a", "b"]))
        assert corpus.tokens.dtype == np.int32 and corpus.tokens.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("documents", [
        [[0, 1.7], [True]], [[0, 1], [True]], [[0, 1], ["1"]], [[0.0, 1.0]], [[[0, 1]]],
    ], ids=["float", "bool", "string", "integral-float", "nested"])
    def test_non_integer_ids_rejected(self, documents):
        with pytest.raises(ValueError, match="integer token ids"):
            Corpus(documents, Vocabulary(["a", "b"]))

    def test_from_json_rejects_a_string_id(self):
        data = {"version": 1, "vocabulary": ["a", "b"], "documents": [[0, "1"]]}
        with pytest.raises(ValueError, match="integer token ids"):
            Corpus.from_json(data)

    def test_ids_beyond_int32_are_out_of_range_not_wrapped(self):
        with pytest.raises(ValueError, match="outside vocabulary range"):
            Corpus([np.array([0, 2**32], dtype=np.int64)], Vocabulary(["a"]))


class TestDuplicateDocIds:
    """Per-document sampler streams are keyed by id, so repeated ids are
    rejected wherever a corpus is made."""

    def test_build_corpus_names_first_repeat(self):
        with pytest.raises(ValueError, match="duplicate document id: 'y'"):
            build_corpus(["a", "b", "a b", "b a"], doc_ids=["x", "y", "y", "x"])

    def test_from_json(self):
        data = {"version": 1, "vocabulary": ["a", "b"], "documents": [[0], [1], [0, 1]],
                "doc_ids": ["d0", "d1", "d0"]}
        with pytest.raises(ValueError, match="duplicate document id: 'd0'"):
            Corpus.from_json(data)

    def test_load_corpus(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"version": 1, "vocabulary": ["a"],
                                    "documents": [[0], [0]], "doc_ids": ["same", "same"]}))
        with pytest.raises(ValueError, match="duplicate document id: 'same'"):
            load_corpus(path)

    def test_unique_ids_and_no_ids_accepted(self):
        assert build_corpus(["a", "a"], doc_ids=["1", "01"]).doc_ids == ["1", "01"]
        assert build_corpus(["a", "a"]).doc_ids is None


class TestVocabulary:
    def test_inverse_maps(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert all(vocab.word_to_id[vocab.id_to_word[i]] == i for i in range(3))

    def test_rejects_duplicates_and_whitespace(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])
        with pytest.raises(ValueError):
            Vocabulary(["a b"])
        with pytest.raises(ValueError):
            Vocabulary([""])

    def test_corpus_rejects_unused_word(self):
        with pytest.raises(ValueError):
            Corpus([[0]], Vocabulary(["a", "b"]))


@st.composite
def id_documents(draw):
    """Documents of word ids where every id below the largest is used and
    at least one document is non-empty; ids are renumbered by first use."""
    raw = draw(st.lists(st.lists(st.integers(0, 7), max_size=9), min_size=1, max_size=8)
               .filter(lambda docs: any(docs)))
    dense: dict[int, int] = {}
    return [[dense.setdefault(w, len(dense)) for w in doc] for doc in raw]


class TestComputeStats:
    def test_single_doc_counts(self):
        stats = compute_stats(build_corpus(["a a b"]))
        a = stats.vocabulary.word_to_id["a"]
        assert stats.word_freq[a] == pytest.approx(2 / 3)
        assert stats.doc_freq[a] == 1
        assert stats.n_docs == 1
        assert stats.n_tokens == 3

    def test_word_in_every_doc_has_zero_tfidf(self):
        stats = compute_stats(build_corpus(["x a", "x b", "x c"]))
        x = stats.vocabulary.word_to_id["x"]
        assert stats.avg_tfidf[x] == 0.0

    def test_word_freq_sums_to_one(self, alice_stats):
        assert abs(alice_stats.word_freq.sum() - 1.0) < 1e-9

    def test_alice_frozen_values(self, alice_stats):
        # frozen outputs of the reference word-statistics code on this text
        wid = alice_stats.vocabulary.word_to_id
        assert alice_stats.doc_freq[wid["book"]] == 2
        assert alice_stats.avg_tfidf[wid["book"]] == pytest.approx(
            0.11633239394013069, abs=1e-12)
        assert alice_stats.avg_tfidf[wid["alice"]] == pytest.approx(
            0.42358994367552216, abs=1e-12)
        assert alice_stats.avg_tfidf[wid["the"]] == pytest.approx(
            0.10157772150737492, abs=1e-12)
        assert alice_stats.word_freq[wid["the"]] == pytest.approx(3 / 65, abs=1e-12)
        assert alice_stats.avg_tfidf[wid[","]] == pytest.approx(
            0.162034405845182, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(id_documents())
    @example([[0, 1], [], [1, 0, 0], []])     # empty documents, repeated words
    @example([[2, 0, 1, 0, 2]])               # a single document
    @example([[0, 1], [1, 0, 2], [0], [0, 3, 3]])  # word 0 in every document
    def test_matches_per_document_oracle_bit_for_bit(self, documents):
        vocab = Vocabulary([f"w{i}" for i in range(max(max(doc, default=0)
                                                       for doc in documents) + 1)])
        stats = compute_stats(Corpus(documents, vocab))
        want = per_document_stats(documents, vocab.size)
        for name in ("word_freq", "avg_tfidf"):
            got = getattr(stats, name)
            assert got.dtype == want[name].dtype
            assert got.tobytes() == want[name].tobytes()
        assert stats.doc_freq.dtype == want["doc_freq"].dtype
        assert stats.doc_freq.tolist() == want["doc_freq"].tolist()
        assert len(stats.doc_index) == len(want["doc_index"])
        for got, ix in zip(stats.doc_index, want["doc_index"]):
            assert got.dtype == ix.dtype
            assert got.tolist() == ix.tolist()
        assert (stats.n_docs, stats.n_tokens) == (want["n_docs"], want["n_tokens"])

    def test_matches_reference_field_for_field(self, alice_texts, alice_stats):
        token_docs = [t.lower().split() for t in alice_texts]
        ref = reference_prior_data(token_docs)
        for w, i in alice_stats.vocabulary.word_to_id.items():
            assert alice_stats.word_freq[i] == pytest.approx(ref[w]["wf"], abs=1e-9)
            assert alice_stats.doc_freq[i] == ref[w]["numDocAppearance"]
            assert alice_stats.avg_tfidf[i] == pytest.approx(ref[w]["tfidf"], abs=1e-9)


class TestCoDocFreq:
    def test_self_intersection(self, alice_stats):
        book = alice_stats.vocabulary.word_to_id["book"]
        assert co_doc_freq(alice_stats, book, book) == alice_stats.doc_freq[book]

    def test_disjoint(self):
        stats = compute_stats(build_corpus(["a x", "b y"]))
        a, b = stats.vocabulary.word_to_id["a"], stats.vocabulary.word_to_id["b"]
        assert co_doc_freq(stats, a, b) == 0

    def test_three_doc_brute_force(self):
        docs = ["a b", "a c", "b c"]
        stats = compute_stats(build_corpus(docs))
        token_docs = [d.split() for d in docs]
        wid = stats.vocabulary.word_to_id
        for w1 in "abc":
            for w2 in "abc":
                expected = sum(1 for d in token_docs if w1 in d and w2 in d)
                assert co_doc_freq(stats, wid[w1], wid[w2]) == expected
        assert co_doc_freq(stats, wid["a"], wid["b"]) == 1

    def test_bounded_by_doc_freq(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(12)]
        docs = [" ".join(rng.choice(words, size=rng.integers(2, 8))) for _ in range(30)]
        stats = compute_stats(build_corpus(docs))
        v = stats.vocabulary.size
        for w1 in range(v):
            for w2 in range(v):
                co = co_doc_freq(stats, w1, w2)
                assert co == co_doc_freq(stats, w2, w1)
                assert co <= min(stats.doc_freq[w1], stats.doc_freq[w2])


class TestDeleteStopwords:
    def test_disjoint_stoplist_keeps_corpus(self):
        corpus = build_corpus(["a b", "b c"])
        out = delete_stopwords(corpus, {"zzz"})
        assert out.vocabulary.id_to_word == corpus.vocabulary.id_to_word
        assert all((a == b).all() for a, b in zip(out.documents, corpus.documents))

    def test_removes_words(self):
        out = delete_stopwords(build_corpus(["the cat", "the dog"]), {"the"})
        assert out.vocabulary.size == 2
        assert [out.doc_words(d) for d in range(2)] == [["cat"], ["dog"]]

    def test_default_list_on_alice(self, alice_corpus):
        out = delete_stopwords(alice_corpus, default_stoplist())
        for word in ("the", "and", "of"):
            assert word not in out.vocabulary

    def test_dense_ids_and_doc_freq_after_deletion(self, alice_corpus):
        out = delete_stopwords(alice_corpus, default_stoplist())
        stats = compute_stats(out)
        assert (stats.doc_freq >= 1).all()
        seen = np.zeros(out.vocabulary.size, dtype=bool)
        for doc in out.documents:
            seen[doc] = True
        assert seen.all()


class TestDeleteLowTfidf:
    def test_all_equal_tfidf_unchanged(self):
        corpus = build_corpus(["a b", "a b", "a b"])
        out = delete_low_tfidf(corpus, 0.05)
        assert out.vocabulary.size == corpus.vocabulary.size

    def test_lowest_word_removed(self):
        # 20 words with distinct average TF-IDF; brute-force sort finds the
        # loser, the op must remove exactly that one
        rng = np.random.default_rng(11)
        words = [f"w{i:02d}" for i in range(19)]
        docs = []
        for d in range(40):
            picks = list(rng.choice(words, size=4, replace=False))
            docs.append(" ".join(picks + ["common"]))
        corpus = build_corpus(docs)
        stats = compute_stats(corpus)
        cutoff = np.quantile(stats.avg_tfidf, 0.05)
        expected_gone = {stats.vocabulary.id_to_word[i]
                         for i in np.flatnonzero(stats.avg_tfidf < cutoff)}
        assert expected_gone  # the universal word has TF-IDF 0, strictly lowest
        out = delete_low_tfidf(corpus, 0.05)
        survivors = set(out.vocabulary.id_to_word)
        assert survivors == set(corpus.vocabulary.id_to_word) - expected_gone

    def test_invalid_percentile(self):
        corpus = build_corpus(["a b"])
        with pytest.raises(ValueError):
            delete_low_tfidf(corpus, 0.0)
        with pytest.raises(ValueError):
            delete_low_tfidf(corpus, 1.0)


class TestSerialization:
    def test_round_trip(self, alice_corpus, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(alice_corpus, path)
        loaded = load_corpus(path)
        assert loaded.vocabulary == alice_corpus.vocabulary
        assert all((a == b).all() for a, b in zip(loaded.documents, alice_corpus.documents))

    def test_version_field_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "vocabulary": ["a"], "documents": [[0]]}))
        with pytest.raises(ValueError):
            load_corpus(path)

    def test_doc_ids_survive(self, tmp_path):
        corpus = build_corpus(["a", "b a"], doc_ids=["first", "second"])
        path = tmp_path / "c.json"
        save_corpus(corpus, path)
        assert load_corpus(path).doc_ids == ["first", "second"]

    def test_stats_round_trip(self, alice_stats):
        from priorlda.corpus import CorpusStats

        loaded = CorpusStats.from_json(json.loads(json.dumps(alice_stats.to_json())))
        np.testing.assert_array_equal(loaded.word_freq, alice_stats.word_freq)
        np.testing.assert_array_equal(loaded.avg_tfidf, alice_stats.avg_tfidf)
        assert loaded.vocabulary == alice_stats.vocabulary
        book = loaded.vocabulary.word_to_id["book"]
        assert co_doc_freq(loaded, book, book) == loaded.doc_freq[book]


class TestLoaders:
    def test_text_format(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("a b\nc d\n")
        texts, ids = load_raw_documents(path, "text")
        assert texts == ["a b", "c d"]
        assert ids is None

    def test_jsonl_format(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "1", "text": "a b"}\n{"id": "2", "text": "c"}\n')
        texts, ids = load_raw_documents(path, "jsonl")
        assert texts == ["a b", "c"]
        assert ids == ["1", "2"]

    def test_word_list_comments(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\nThe\n\ncat\n")
        assert load_word_list(path) == ["the", "cat"]

    def test_default_stoplist_shape(self):
        stoplist = default_stoplist()
        assert len(stoplist) == 127
        assert "the" in stoplist and "and" in stoplist


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# values whose text is easy to get wrong: signed zeros, the smallest
# subnormal, the smallest normal, exponent switch-overs, non-finite values
SPECIAL_FLOATS = [0.0, -0.0, 1.0, 1e-05, 1e16, 5e-324, 2.2250738585072014e-308,
                  1e-4, 1e15, 0.1, math.nan, math.inf, -math.inf]


@st.composite
def float_arrays(draw):
    shape = draw(st.one_of(st.tuples(st.integers(0, 40)),
                           st.tuples(st.integers(0, 8), st.integers(0, 8))))
    size = math.prod(shape)
    # a small pool of values drawn with repeats gives heavy duplication;
    # a pool as large as the array allows all-distinct entries
    values = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
    pool = draw(st.lists(values, min_size=1, max_size=max(1, size)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(shape)


class TestJsonFloatArray:
    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_matches_json_dumps(self, a):
        assert json_float_array(a) == _dumps(a.tolist())

    @pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 5), (4, 0)])
    def test_empty_shapes(self, shape):
        a = np.empty(shape)
        assert json_float_array(a) == _dumps(a.tolist())

    def test_all_distinct_and_non_contiguous(self):
        a = np.random.default_rng(0).random((6, 40))
        assert json_float_array(a) == _dumps(a.tolist())
        assert json_float_array(a[:, ::3]) == _dumps(a[:, ::3].tolist())
        assert json_float_array(a.T) == _dumps(a.T.tolist())

    def test_signed_zeros_and_nan_payloads_keep_their_text(self):
        nans = np.array([0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001],
                        dtype=np.int64).view(np.float64)
        a = np.concatenate([[0.0, -0.0, 1.0, -0.0], nans, [math.nan, 0.0]])
        assert json_float_array(a) == "[0.0,-0.0,1.0,-0.0,NaN,NaN,NaN,NaN,0.0]"

    def test_rejects_other_dtypes_and_ranks(self):
        with pytest.raises(TypeError):
            json_float_array(np.arange(3))
        with pytest.raises(TypeError):
            json_float_array(np.ones(3, dtype=np.float32))
        with pytest.raises(ValueError):
            json_float_array(np.ones((2, 2, 2)))

    @pytest.mark.parametrize("fields,arrays", [
        ({}, {}),
        ({"version": 1}, {}),
        ({}, {"a": np.ones(2), "b": np.zeros((1, 2))}),
        ({"version": 1, "kinds": ["stopword"], "config": None, "é": {"x": [1.5]}},
         {"w": np.eye(2), "t": np.empty(0)}),
    ])
    def test_write_json_matches_dumps(self, tmp_path, fields, arrays):
        path = tmp_path / "out.json"
        write_json(path, fields, arrays)
        want = _dumps({**fields, **{name: a.tolist() for name, a in arrays.items()}}) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
