import json
import math
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from priorlda import _kernels
from priorlda.corpus import (AllDocumentsEmpty, Corpus, Vocabulary, build_corpus,
                             co_doc_counts, compute_stats, default_stoplist,
                             delete_low_tfidf, delete_stopwords,
                             load_corpus, load_raw_documents, load_word_list,
                             save_corpus, tokenize, write_json)

from . import oracles
from .conftest import python_twins
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


class TestBuildCorpus:
    def test_two_docs(self):
        corpus = build_corpus(["a b", "b c"])
        assert corpus.vocabulary.size == 3
        assert [doc.size for doc in corpus.documents] == [2, 2]

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
        [[0, True]], [(np.True_, 0)], [[0, 1], 1],
    ], ids=["float", "bool", "string", "integral-float", "nested", "bool-among-ints",
            "numpy-bool-among-ints", "not-a-sequence"])
    def test_non_integer_ids_rejected(self, documents):
        with pytest.raises(ValueError, match="integer token ids"):
            Corpus(documents, Vocabulary(["a", "b"]))

    def test_from_json_rejects_a_bool_among_ints(self):
        data = json.loads('{"version": 1, "vocabulary": ["a", "b"], "documents": [[0, true]]}')
        with pytest.raises(ValueError, match="integer token ids"):
            Corpus.from_json(data)

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


class TestDocIdTypes:
    """Ids key the sampler streams by their UTF-8 bytes, so only strings are
    ids: an int would fail at fit time, and 1 and "1" would pass as distinct."""

    @pytest.mark.parametrize("ids", [[1, 2], [1, "1"], ["a", None]],
                             ids=["ints", "int-and-str", "none"])
    def test_constructor_rejects(self, ids):
        with pytest.raises(ValueError, match="document ids must be strings"):
            Corpus([[0], [0]], Vocabulary(["a"]), ids)

    def test_from_json_rejects(self):
        data = {"version": 1, "vocabulary": ["a"], "documents": [[0], [0]], "doc_ids": [1, 2]}
        with pytest.raises(ValueError, match="document ids must be strings, not 1"):
            Corpus.from_json(data)


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
    @example([[], []])                        # an empty vocabulary
    @example([[0], [], [0, 0]])               # a one-word vocabulary
    def test_matches_per_document_oracle_bit_for_bit(self, documents):
        vocab = Vocabulary([f"w{i}" for i in range(max((max(doc) + 1 for doc in documents
                                                        if doc), default=0))])
        stats = compute_stats(Corpus(documents, vocab))
        want = per_document_stats(documents, vocab.size)
        for name in ("word_freq", "avg_tfidf"):
            got = getattr(stats, name)
            assert got.dtype == want[name].dtype
            assert got.tobytes() == want[name].tobytes()
        assert stats.doc_freq.dtype == want["doc_freq"].dtype
        assert stats.doc_freq.tolist() == want["doc_freq"].tolist()
        # one read-only int64 array, each word's run after the runs of the words before it
        assert stats.doc_index.dtype == np.int64 and not stats.doc_index.flags.writeable
        runs = np.split(stats.doc_index, np.cumsum(stats.doc_freq))
        assert runs.pop().size == 0 and len(runs) == len(want["doc_index"])
        for got, ix in zip(runs, want["doc_index"]):
            assert got.tolist() == ix.tolist()
        assert stats.to_json()["doc_index"] == [ix.tolist() for ix in want["doc_index"]]
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
        assert (co_doc_counts(alice_stats, [book, book]) == alice_stats.doc_freq[book]).all()

    def test_disjoint(self):
        stats = compute_stats(build_corpus(["a x", "b y"]))
        a, b = stats.vocabulary.word_to_id["a"], stats.vocabulary.word_to_id["b"]
        assert co_doc_counts(stats, [a, b])[0, 1] == 0

    def test_three_doc_brute_force(self):
        docs = ["a b", "a c", "b c"]
        stats = compute_stats(build_corpus(docs))
        token_docs = [d.split() for d in docs]
        counts = co_doc_counts(stats, stats.vocabulary.ids("abc"))
        for i, w1 in enumerate("abc"):
            for j, w2 in enumerate("abc"):
                expected = sum(1 for d in token_docs if w1 in d and w2 in d)
                assert counts[i, j] == expected
        assert counts[0, 1] == 1

    def test_bounded_by_doc_freq(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(12)]
        docs = [" ".join(rng.choice(words, size=rng.integers(2, 8))) for _ in range(30)]
        stats = compute_stats(build_corpus(docs))
        counts = co_doc_counts(stats, range(stats.vocabulary.size))
        assert (counts == counts.T).all()
        assert (counts <= np.minimum.outer(stats.doc_freq, stats.doc_freq)).all()


class TestDeleteStopwords:
    def test_disjoint_stoplist_keeps_corpus(self):
        corpus = build_corpus(["a b", "b c"])
        out = delete_stopwords(corpus, {"zzz"})
        assert out.vocabulary.id_to_word == corpus.vocabulary.id_to_word
        assert all((a == b).all() for a, b in zip(out.documents, corpus.documents))

    def test_removes_words(self):
        out = delete_stopwords(build_corpus(["the cat", "the dog"]), {"the"})
        assert out.vocabulary.size == 2
        assert out.vocabulary.id_to_word == ["cat", "dog"]
        assert [doc.tolist() for doc in out.documents] == [[0], [1]]

    def test_remove_set(self):
        corpus = delete_stopwords(build_corpus(["a b", "b c"]), {"b"})
        assert corpus.vocabulary.size == 2
        assert [doc.size for doc in corpus.documents] == [1, 1]

    def test_all_documents_empty(self):
        with pytest.raises(AllDocumentsEmpty):
            delete_stopwords(build_corpus(["a a", "a"]), {"a"})

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


def _outcome(make):
    """A corpus's vocabulary, token stream, offsets and document ids, or
    AllDocumentsEmpty where ``make`` raises it."""
    try:
        corpus = make()
    except AllDocumentsEmpty as exc:
        return type(exc), str(exc)
    assert corpus.tokens.dtype == np.int32 and corpus.offsets.dtype == np.int64
    return (corpus.vocabulary.id_to_word, corpus.tokens.tolist(), corpus.offsets.tolist(),
            corpus.doc_ids)


@st.composite
def word_documents(draw):
    """Raw texts over a vocabulary of one to five words, in either case,
    empty documents allowed, with document ids or without; and a stoplist of
    those words, a TF-IDF cut and a seed to permute the vocabulary with."""
    alphabet = draw(st.lists(st.sampled_from(["a", "B", "b", "cc", "dd"]), min_size=1,
                             max_size=5, unique=True))
    docs = draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=6), max_size=8))
    texts = [" ".join(doc) for doc in docs]
    ids = draw(st.none() | st.just([f"d{i}" for i in range(len(texts))]))
    stop = draw(st.lists(st.sampled_from(alphabet), unique=True))
    return texts, ids, stop, draw(st.floats(0.01, 0.99)), draw(st.integers(0, 2**32 - 1))


class TestStreamedPipeline:
    """build_corpus, delete_stopwords and delete_low_tfidf give the arrays the
    string-level versions in ``oracles`` give, and raise AllDocumentsEmpty
    exactly where they raise it."""

    @settings(max_examples=300, deadline=None)
    @given(word_documents())
    @example(case=([], None, [], 0.5, 0))
    @example(case=(["", " ", ""], ["x", "y", "z"], [], 0.5, 0))
    @example(case=(["a a", "", "a"], None, [], 0.5, 0))
    def test_build_corpus(self, case):
        texts, ids = case[:2]
        want = _outcome(lambda: oracles.reference_build_corpus(texts, ids))
        assert _outcome(lambda: build_corpus(texts, ids)) == want
        assert _outcome(lambda: build_corpus((t for t in texts), ids)) == want

    @settings(max_examples=300, deadline=None)
    @given(word_documents())
    @example(case=(["a a", "", "a"], None, ["a"], 0.5, 0))  # every word removed
    @example(case=(["cc a b", "b dd", "", "a"], ["p", "q", "r", "s"], ["b"], 0.3, 1))
    def test_delete_words(self, case):
        texts, ids, stop, cut, seed = case
        try:
            base = build_corpus(texts, doc_ids=ids)
        except AllDocumentsEmpty:
            return
        # the same corpus with its vocabulary permuted, as load_corpus allows:
        # its ids are then not in first-occurrence order
        perm = np.random.default_rng(seed).permutation(base.vocabulary.size)
        rank = np.argsort(perm)
        permuted = Corpus([rank[doc] for doc in base.documents],
                          Vocabulary([base.vocabulary.id_to_word[i] for i in perm]), ids)
        for corpus in (base, permuted):
            assert (_outcome(lambda: delete_stopwords(corpus, stop))
                    == _outcome(lambda: oracles.reference_delete_stopwords(corpus, stop)))
            assert (_outcome(lambda: delete_low_tfidf(corpus, cut))
                    == _outcome(lambda: oracles.reference_delete_low_tfidf(corpus, cut)))

    def test_empty_vocabulary(self):
        # its keep mask is empty too, and must still index as a boolean mask
        corpus = Corpus([[], []], Vocabulary([]))
        want = _outcome(lambda: oracles.reference_delete_stopwords(corpus, ["a"]))
        assert _outcome(lambda: delete_stopwords(corpus, ["a"])) == want
        # the TF-IDF reference fails there on np.quantile of no values
        assert _outcome(lambda: delete_low_tfidf(corpus)) == want


def _peak_bytes(call) -> int:
    """tracemalloc's peak of the memory ``call`` allocates beyond what was
    held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _zipf_texts() -> list[str]:
    """600 documents of 100 tokens over 3,000 words."""
    rng = np.random.default_rng(7)
    words = [f"word{i}" for i in range(3000)]
    return [" ".join(words[i] for i in rng.zipf(1.3, 100) % 3000) for _ in range(600)]


class TestMemoryBounds:
    def test_build_corpus_holds_one_document_of_strings(self):
        texts = _zipf_texts()
        want = _outcome(lambda: oracles.reference_build_corpus(texts))
        assert len(want[1]) >= 50_000
        assert _outcome(lambda: build_corpus(texts)) == want
        streamed = _peak_bytes(lambda: build_corpus(texts))
        reference = _peak_bytes(lambda: oracles.reference_build_corpus(texts))
        assert streamed < reference / 2, (streamed, reference)

    def test_load_corpus_fills_one_stream(self, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(build_corpus(_zipf_texts()), path)
        parsing = _peak_bytes(lambda: json.loads(path.read_text(encoding="utf-8")))
        loaded = []
        peak = _peak_bytes(lambda: loaded.append(load_corpus(path)))
        # beyond parsing the file, 18 bytes a token: the int64 stream grown a
        # document at a time (8 and its spare room), the int32 tokens and doc_ix
        # (4 + 4) and per-document parts; an array kept per document made it 27
        assert peak - parsing < 22 * loaded[0].n_tokens, (peak, parsing)

    def test_save_model_writes_through_a_small_buffer(self, tmp_path):
        if _kernels.BACKEND != "c":
            pytest.skip("C kernel not built: the twin formats through json.dumps")
        from priorlda.priors import TopicKind
        from priorlda.sampler import FittedModel, save_model

        rng = np.random.default_rng(8)
        beta, theta = rng.random((50, 4500)), rng.random((300, 50))
        model = FittedModel(beta / beta.sum(axis=1, keepdims=True),
                            theta / theta.sum(axis=1, keepdims=True), (TopicKind.SYMMETRIC,) * 50,
                            rng.random(40), vocabulary=Vocabulary([f"w{i}" for i in range(4500)]))
        path = tmp_path / "model.json"
        peak = _peak_bytes(lambda: save_model(model, path))
        assert path.read_bytes() == (_dumps(model.to_json()) + "\n").encode()
        assert peak < 2**20, peak


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

    @pytest.mark.parametrize("what", ["corpus", "model"])
    def test_other_version_names_both_versions(self, alice_corpus, what):
        from priorlda.priors import symmetric_prior
        from priorlda.sampler import FittedModel, ModelConfig, fit

        prior = symmetric_prior(2, alice_corpus.vocabulary.size)
        model = fit(alice_corpus, prior, ModelConfig(topics=2, iterations=2, seed=0))
        loader, data = {"corpus": (Corpus.from_json, alice_corpus.to_json()),
                        "model": (lambda data: FittedModel.from_json(
                            data, vocabulary=alice_corpus.vocabulary), model.to_json())}[what]
        assert loader(data) is not None
        for found in (99, True, 1.0, None):
            with pytest.raises(ValueError, match=f"^unsupported {what} format version: "
                                                 f"expected 1, found {found!r}$"):
                loader({**data, "version": found})


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


def _want(a: np.ndarray) -> bytes:
    return _dumps(a.tolist()).encode()


def _text(a: np.ndarray) -> bytes:
    """_kernels.json_floats(a)'s pieces joined, each copied as it is drawn:
    a block's piece is a view of a buffer the next block reuses."""
    return b"".join(map(bytes, _kernels.json_floats(a)))


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


def _home_slots(bits: np.ndarray, n: int) -> np.ndarray:
    """The slot the C writer first tries for each 64-bit pattern, in its table
    for a row of n entries: the high bits of a multiplicative hash, in the
    smallest power-of-two table of at least 2n (and 2) slots."""
    table_bits = max(1, (2 * n - 1).bit_length())
    return (bits * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(64 - table_bits)


def _on_both_backends(a: np.ndarray) -> list[bytes]:
    """_kernels.json_floats(a)'s text from the C kernels and from its
    json.dumps twin."""
    texts = []
    for twins in (nullcontext, python_twins):
        with twins():
            texts.append(_text(a))
    return texts


def _without_the_twin(a: np.ndarray) -> bytes:
    """_kernels.json_floats(a)'s text with json.dumps switched off, so that only the
    C kernel can write it."""
    with mock.patch.object(json, "dumps", side_effect=AssertionError("the twin ran")):
        return _text(a)


def _in_exact_range(a: np.ndarray) -> np.ndarray:
    """Where the C writer formats a value itself: zeros, non-finite values
    and 2^-45 <= |x| < 2^54."""
    m = np.abs(a)
    return (m == 0) | ~np.isfinite(m) | ((m >= 2.0**-45) & (m < 2.0**54))


def _assert_dumps_text(a: np.ndarray, backend: str) -> None:
    """json_floats(a) is json.dumps's text, and on the C backend the values
    in the exact range, the whole array if they are all, are written without
    the twin."""
    assert _text(a) == _want(a)
    if backend == "c":
        inside = a if _in_exact_range(a).all() else a[_in_exact_range(a)]
        assert _without_the_twin(inside) == _want(inside)


def _bit_patterns(sign, exponent, fraction) -> np.ndarray:
    """The float64 values with these sign bits, biased exponents and fractions."""
    return ((np.asarray(sign, np.uint64) << np.uint64(63))
            | (np.asarray(exponent, np.uint64) << np.uint64(52))
            | np.asarray(fraction, np.uint64)).view(np.float64)


class TestJsonFloatArray:
    @settings(max_examples=300, deadline=None)
    @given(float_arrays())
    def test_matches_json_dumps(self, a):
        assert _on_both_backends(a) == [_want(a)] * 2

    @pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 5), (4, 0)])
    def test_empty_shapes(self, shape):
        a = np.empty(shape)
        assert _on_both_backends(a) == [_want(a)] * 2

    def test_all_distinct_and_non_contiguous(self):
        a = np.random.default_rng(0).random((6, 40))
        for view in (a, a[:, ::3], a.T):
            assert _on_both_backends(view) == [_want(view)] * 2

    def test_all_distinct_at_the_highest_table_load(self, backend):
        # 1,024 distinct entries fill half of a 2,048-slot table
        a = np.random.default_rng(1).random((32, 32))
        assert len(set(a.ravel().tolist())) == a.size
        _assert_dumps_text(a, backend)

    def test_patterns_sharing_a_home_slot(self, backend):
        # eight patterns whose home is the last slot of a 16-entry row's
        # table, each twice, so that probes run long, wrap around to slot 0
        # and find repeats; all lie in [1, 2), so the kernel, not the twin,
        # writes them
        fractions = np.random.default_rng(2).integers(0, 2**52, 4000, dtype=np.uint64)
        candidates = _bit_patterns(0, 1023, fractions).view(np.uint64)
        colliding = candidates[_home_slots(candidates, 16) == 31][:8]
        assert len(colliding) == 8
        a = np.concatenate([colliding, colliding[::-1]]).view(np.float64)
        _assert_dumps_text(a, backend)
        _assert_dumps_text(a.reshape(4, 4), backend)
        # rows of 4 entries, each two patterns twice, from 12 patterns whose
        # home is the last of the 8 slots, each in two rows: the rows hold
        # more patterns than a table, so each row must start from an empty one
        colliding = candidates[_home_slots(candidates, 4) == 7][:12]
        assert len(colliding) == 12
        pairs = np.stack([colliding[:-1], colliding[1:]], axis=1)
        _assert_dumps_text(np.hstack([pairs, pairs[:, ::-1]]).view(np.float64), backend)

    @pytest.mark.parametrize("shape", [(60,), (60, 1), (60, 0), (1, 1), (1, 60), (3, 20)])
    def test_longest_texts(self, backend, shape):
        # every text takes 23 bytes, the most the output buffer leaves a value
        values = -np.random.default_rng(5).uniform(3, 10, 400) * 1e-14
        values = values[[len(repr(v)) == 23 for v in values.tolist()]]
        assert len(values) >= 60
        a = np.resize(values, shape)
        _assert_dumps_text(a, backend)
        if a.ndim == 1 or a.shape[1] > 3:
            # each row ends in repeats of its first values, so the writer's
            # fixed 24-byte copy of a repeat's text meets the end of the buffer
            a[..., -3:] = a[..., :3]
            _assert_dumps_text(a, backend)

    @pytest.mark.parametrize("seed", range(3))
    def test_zeros_and_nan_payloads_mixed(self, backend, seed):
        # both zeros and NaNs of several payloads and signs, among numbers
        pool = np.array([0, -2**63, 0x7FF8000000000000, -0x0008000000000000,
                         0x7FF8000000000001, 0x7FF0000000000001, -0x000FFFFFFFFFFFFF,
                         0x3FF0000000000000], dtype=np.int64).view(np.float64)
        a = np.random.default_rng(seed).choice(pool, size=(9, 7))
        _assert_dumps_text(a, backend)

    def test_signed_zeros_and_nan_payloads_keep_their_text(self):
        nans = np.array([0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000001],
                        dtype=np.int64).view(np.float64)
        a = np.concatenate([[0.0, -0.0, 1.0, -0.0], nans, [math.nan, 0.0]])
        assert _on_both_backends(a) == [b"[0.0,-0.0,1.0,-0.0,NaN,NaN,NaN,NaN,0.0]"] * 2

    def test_rejects_other_dtypes_and_ranks(self):
        for twins in (nullcontext, python_twins):
            with twins():
                with pytest.raises(TypeError):
                    _kernels.json_floats(np.arange(3))
                with pytest.raises(TypeError):
                    _kernels.json_floats(np.ones(3, dtype=np.float32))
                with pytest.raises(ValueError):
                    _kernels.json_floats(np.ones((2, 2, 2)))

    def test_every_power_of_two_and_its_neighbours(self, backend):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        _assert_dumps_text(values, backend)
        for x in values:  # alone, each in or out of the exact range
            assert _text(x[None]) == _want(x[None])

    def test_both_sides_of_the_exact_range(self, backend):
        low, high = 2.0**-45, 2.0**54
        inside = np.array([low, np.nextafter(low, 1), np.nextafter(high, 0), 2.0**53 + 2])
        outside = np.array([np.nextafter(low, 0), high, np.nextafter(high, np.inf)])
        for a in (inside, -inside, outside, -outside):
            _assert_dumps_text(a, backend)
        if backend == "c":
            for x in np.concatenate([outside, -outside]):
                with pytest.raises(AssertionError, match="the twin ran"):
                    _without_the_twin(np.array([1.5, x]))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=60))
    def test_raw_bit_patterns(self, backend, patterns):
        _assert_dumps_text(np.array(patterns, dtype=np.uint64).view(np.float64), backend)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(978, 1076),
                              st.integers(0, 2**52 - 1)), max_size=60))
    @example(fields=[(0, 1023, 0), (1, 1076, 2**52 - 1), (0, 978, 0), (0, 1076, 0)])
    # a value at each binary exponent of 2^-45 <= |x| < 2^54: every power of 5 repr reads
    @example(fields=[(e % 2, e, 0x5A5A5A5A5A5A5 * (e - 977) % 2**52) for e in range(978, 1077)])
    def test_bit_patterns_in_the_exact_range(self, backend, fields):
        a = _bit_patterns(*np.array(fields, dtype=np.uint64).reshape(-1, 3).T)
        assert _in_exact_range(a).all()
        _assert_dumps_text(a, backend)

    @pytest.mark.parametrize("outlier", [
        5e-324, 1e300, -1e300,
        np.array(0x7FF0000000000001, np.uint64).view(np.float64),
        np.array(0xFFF8000000000123, np.uint64).view(np.float64),
    ])
    def test_in_range_values_mixed_with_an_outlier(self, backend, outlier):
        # a subnormal or a huge value sends the whole array to the twin; a
        # NaN, whatever its payload, is written by the kernels
        rng = np.random.default_rng(4)
        base = rng.uniform(1, 10, 30) * 10.0 ** rng.integers(-12, 16, 30)
        assert _in_exact_range(base).all()
        a = np.insert(np.concatenate([base, [-0.0, 0.0]]), rng.integers(0, 33), outlier)
        for view in (a.reshape(3, 11), a.reshape(3, 11).T.copy()):
            _assert_dumps_text(view, backend)
        if backend == "c" and not np.isnan(outlier):
            with pytest.raises(AssertionError, match="the twin ran"):
                _without_the_twin(a)

    @pytest.mark.parametrize("fields,arrays", [
        ({}, {}),
        ({"version": 1}, {}),
        ({}, {"a": np.ones(2), "b": np.zeros((1, 2))}),
        ({"version": 1, "kinds": ["stopword"], "config": None, "é": {"x": [1.5]}},
         {"w": np.eye(2), "t": np.empty(0)}),
    ])
    def test_write_json_matches_dumps(self, tmp_path, fields, arrays):
        want = _dumps({**fields, **{name: a.tolist() for name, a in arrays.items()}}) + "\n"
        for twins in (nullcontext, python_twins):
            with twins():
                path = tmp_path / f"{twins.__name__}.json"
                write_json(path, fields, arrays)
                assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("fields,arrays,message", [
        ({"a": 1, "b": 2}, {"a": np.ones(2)}, "'a' is also a field name"),
        ({"a": 1}, {1: np.ones(2)}, "1 is not a str"),
    ])
    def test_write_json_rejects_keys_it_cannot_write_once(self, tmp_path, fields, arrays,
                                                           message):
        # a repeated key or an unquoted one is not what json.dumps of the
        # merged dict gives
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match=message):
            write_json(path, fields, arrays)
        assert not path.exists()


def _block_arrays():
    """Arrays whose rows are written in several blocks of 2^14 values, or
    wider than one block, and the edge shapes."""
    rng = np.random.default_rng(9)
    several = rng.random((10, 5000))  # three rows to a block: four blocks
    several[[0, 4, 9], [3, 4999, 0]] = [np.nan, -0.0, np.nan]
    wide = rng.random((3, 20000))  # one row to a block
    wide[1, 19999] = -0.0
    return {"several": several, "wide": wide, "flat_wide": rng.random(40000),
            "empty_rows": np.empty((0, 7)), "empty_cols": np.empty((7, 0)),
            "one_row": rng.random((1, 300)), "many_short": rng.random((20000, 2))}


class TestWriterBlocks:
    @pytest.mark.parametrize("name", list(_block_arrays()))
    def test_write_json_matches_dumps(self, tmp_path, backend, name):
        a = _block_arrays()[name]
        path = tmp_path / "out.json"
        write_json(path, {"version": 1}, {name: a, "t": a[:1].ravel()})
        want = _dumps({"version": 1, name: a.tolist(), "t": a[:1].ravel().tolist()}) + "\n"
        assert path.read_bytes() == want.encode()

    def test_a_block_with_a_huge_value_alone_goes_to_the_twin(self, tmp_path, backend):
        # rows 3-5 are the second of four blocks; 2^60 is outside the range
        # the kernel formats exactly, so only that block is json.dumps's
        a = np.random.default_rng(10).random((10, 5000))
        a[4, 17] = 2.0**60
        with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
            text = _text(a)
        assert text == _want(a)
        if backend == "c":
            assert dumps.call_count == 1
            assert np.array_equal(np.array(dumps.call_args.args[0]), a[3:6])
        path = tmp_path / "out.json"
        write_json(path, {}, {"a": a})
        assert path.read_bytes() == (_dumps({"a": a.tolist()}) + "\n").encode()
