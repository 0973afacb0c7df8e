import copy
import ctypes
import gc
import hashlib
import importlib
import json
import logging
import math
import pickle
import re
import shutil
import subprocess
from collections import Counter
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from priorlda import _kernels
from priorlda.corpus import Vocabulary, build_corpus, compute_stats
from priorlda.priors import PriorConfig, PriorMatrix, TopicKind, assemble, symmetric_prior
from priorlda.sampler import (DimensionMismatch, FittedModel, ModelConfig, ModelState,
                              _doc_generators, fit, heldout_perplexity,
                              hyperparameter_search, init, load_model,
                              log_likelihood, save_model, sweep, sweep_snapshot,
                              tabulate, top_words)

from .conftest import python_twins
from .helpers import estimate
from .oracles import (enumerate_posterior, greedy_align_cosine, snapshot_sweeps,
                      urn_log_joint)
from .synthetic import random_corpus, texts, two_topic_corpus


def counts_match_assignments(state):
    n_dk, n_wk, n_k = tabulate(state.tokens, state.doc_ix, state.z,
                               state.n_dk.shape[0], state.n_topics,
                               state.n_wk.shape[0])
    return ((state.n_dk == n_dk).all() and (state.n_wk == n_wk).all()
            and (state.n_k == n_k).all())


class TestModelConfig:
    def test_burn_in_defaults_to_half(self):
        assert ModelConfig(iterations=200).burn_in == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(topics=0)
        with pytest.raises(ValueError):
            ModelConfig(alpha=0.0)
        with pytest.raises(ValueError):
            ModelConfig(iterations=10, burn_in=10)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            ModelConfig(alpha=alpha)

    def test_round_trip(self):
        cfg = ModelConfig(topics=7, alpha=0.3, iterations=50, seed=9)
        assert ModelConfig.from_json(cfg.to_json()) == cfg


class TestInit:
    def test_single_topic_forced(self):
        corpus = build_corpus(["a b", "c"])
        prior = symmetric_prior(1, 3, 1.0)
        state = init(corpus, prior, ModelConfig(topics=1, iterations=10, seed=0))
        assert (state.z == 0).all()
        assert state.n_k[0] == 3

    def test_empty_document_contributes_nothing(self):
        corpus = build_corpus(["a b", ""])
        prior = symmetric_prior(2, 2, 1.0)
        state = init(corpus, prior, ModelConfig(topics=2, iterations=10, seed=0))
        assert state.n_dk[1].sum() == 0
        assert counts_match_assignments(state)

    def test_fixed_seed_reproducible(self):
        corpus = random_corpus(seed=3, n_docs=20)
        prior = symmetric_prior(4, corpus.vocabulary.size, 1.0)
        cfg = ModelConfig(topics=4, iterations=10, seed=11)
        a, b = init(corpus, prior, cfg), init(corpus, prior, cfg)
        assert (a.z == b.z).all()

    def test_dimension_mismatch(self):
        corpus = build_corpus(["a b"])
        with pytest.raises(DimensionMismatch):
            init(corpus, symmetric_prior(2, 5, 1.0), ModelConfig(topics=2, iterations=10))
        with pytest.raises(DimensionMismatch):
            init(corpus, symmetric_prior(3, 2, 1.0), ModelConfig(topics=2, iterations=10))


class TestModelState:
    """The word-topic counts are stored word-major (V, K), the layout the
    sweep kernel takes; ``n_kw`` is only their (K, V) view."""

    def test_hand_built_state_sweeps_like_init(self):
        corpus = random_corpus(seed=3, n_docs=12, vocab_size=9)
        prior = symmetric_prior(4, corpus.vocabulary.size, 0.5)
        cfg = ModelConfig(topics=4, iterations=10, seed=5)
        made = init(corpus, prior, cfg)
        base = init(corpus, prior, cfg)
        n_wk = np.array(base.n_wk.tolist(), dtype=np.int32)  # a fresh V x K buffer
        hand = ModelState(tokens=base.tokens, doc_ix=base.doc_ix,
                          doc_lengths=base.doc_lengths, z=base.z.copy(),
                          n_dk=base.n_dk.copy(), n_wk=n_wk, n_k=base.n_k.copy(),
                          rng=base.rng, doc_starts=base.doc_starts)
        for _ in range(3):
            sweep(made, prior, 0.3)
            sweep(hand, prior, 0.3)
        assert (hand.z == made.z).all() and (hand.n_wk == made.n_wk).all()
        assert counts_match_assignments(hand)
        assert hand.n_kw.shape == (4, corpus.vocabulary.size)
        assert hand.n_kw.base is n_wk and (hand.n_kw == n_wk.T).all()

    def test_topic_major_counts_rejected(self):
        with pytest.raises(ValueError, match=r"n_wk is \(2, 3\), not \(V, K\) for n_k of \(2,\)"):
            ModelState(tokens=np.zeros(0, np.int32), doc_ix=np.zeros(0, np.int32),
                       doc_lengths=np.zeros(0, np.int64), z=np.zeros(0, np.int32),
                       n_dk=np.zeros((0, 2), np.int32), n_wk=np.zeros((2, 3), np.int32),
                       n_k=np.zeros(2, np.int32), rng=np.random.default_rng(0))

    def test_n_kw_is_read_only(self):
        corpus = build_corpus(["a b", "b c"])
        state = init(corpus, symmetric_prior(2, 3, 1.0), ModelConfig(topics=2, iterations=10))
        with pytest.raises(AttributeError):
            state.n_kw = state.n_kw.copy()


class TestSweep:
    def test_single_topic_is_fixed_point(self):
        corpus = build_corpus(["a b c", "a a"])
        prior = symmetric_prior(1, 3, 1.0)
        state = init(corpus, prior, ModelConfig(topics=1, iterations=10, seed=0))
        before = state.z.copy()
        sweep(state, prior, 1.0)
        assert (state.z == before).all()

    def test_counts_conserved_over_sweeps(self):
        corpus = random_corpus(seed=1, n_docs=50, vocab_size=30)
        prior = symmetric_prior(5, corpus.vocabulary.size, 0.5)
        state = init(corpus, prior, ModelConfig(topics=5, iterations=10, seed=2))
        lengths = np.array([d.size for d in corpus.documents])
        for _ in range(10):
            sweep(state, prior, 0.7)
            assert (state.n_dk.sum(axis=1) == lengths).all()
            assert (state.n_kw.sum(axis=1) == state.n_k).all()
            assert counts_match_assignments(state)

    def test_single_token_two_topics_uniform(self):
        corpus = build_corpus(["a"])
        prior = symmetric_prior(2, 1, 1.0)
        state = init(corpus, prior, ModelConfig(topics=2, iterations=10, seed=5))
        hits = 0
        n = 4000
        for _ in range(n):
            sweep(state, prior, 1.0)
            hits += int(state.z[0] == 0)
        assert abs(hits / n - 0.5) < 0.05


def _sweep_args(tokens, doc_lengths, n_topics, vocab_size, z, eta, rows=None):
    """Kernel arguments for a state given by its assignments, (R, V) eta rows
    and each topic's row (topic k takes row k when rows is None): n_wk comes
    word-major, as the kernel takes it, and the rows as a PriorMatrix."""
    tokens = np.asarray(tokens, dtype=np.int32)
    doc_ix = np.repeat(np.arange(len(doc_lengths), dtype=np.int32), doc_lengths)
    z = np.asarray(z, dtype=np.int32)
    n_dk, n_wk, n_k = tabulate(tokens, doc_ix, z, len(doc_lengths), n_topics, vocab_size)
    rows = np.arange(n_topics) if rows is None else rows
    return [tokens, doc_ix, z, n_dk, n_wk, n_k,
            PriorMatrix(eta, rows, (TopicKind.TFIDF,) * n_topics)]


def _copy(args):
    """The arrays copied; the prior, read-only, shared."""
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


@st.composite
def count_blocks(draw):
    """An (m, m) int64 block of counts, in place in a larger array or read
    backwards from it, the m words' document counts, and a document total.
    Small counts make ties; a zero document count makes +inf, or NaN over a
    count of -1; a negative count makes an argument <= 0."""
    m = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = rng.integers(draw(st.sampled_from([0, -2])), draw(st.sampled_from([3, 60])),
                       (m + 3, m + 3))
    counts = big[:m, :m] if draw(st.booleans()) else big[m - 1::-1, m - 1::-1]
    doc_freq = rng.integers(draw(st.sampled_from([0, 1])), 60, m)
    return counts, doc_freq, int(rng.integers(1, 200))


def _score_outcomes(counts, doc_freq, n_docs):
    """The bits of coherence's fold and of PMI's median argument, or each
    one's error message."""
    got = []
    for score in (lambda: _kernels.coherence(counts, doc_freq),
                  lambda: _kernels.pmi_argument(counts, doc_freq, n_docs)):
        try:
            got.append(score().hex())
        except ValueError as exc:
            got.append(str(exc))
    return got


@st.composite
def kernel_cases(draw):
    n_topics = draw(st.integers(1, 5))
    vocab_size = draw(st.integers(1, 6))
    doc_lengths = draw(st.lists(st.integers(0, 8), min_size=1, max_size=5))
    n_tokens = sum(doc_lengths)
    tokens = draw(st.lists(st.integers(0, vocab_size - 1),
                           min_size=n_tokens, max_size=n_tokens))
    z = draw(st.lists(st.integers(0, n_topics - 1), min_size=n_tokens, max_size=n_tokens))
    # R distinct prior rows, R < K included, and each topic's row among them
    n_rows = draw(st.integers(1, n_topics))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=n_topics, max_size=n_topics))
    eta = draw(st.lists(st.lists(st.floats(1e-3, 10.0), min_size=vocab_size,
                                 max_size=vocab_size),
                        min_size=n_rows, max_size=n_rows))
    alpha = draw(st.floats(1e-3, 10.0))
    uniforms = draw(st.lists(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                      min_size=n_tokens, max_size=n_tokens),
                             min_size=1, max_size=3))
    args = _sweep_args(tokens, doc_lengths, n_topics, vocab_size, z, eta, rows)
    return args, alpha, [np.array(u) for u in uniforms]


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """An empty kernel cache and no compiler on PATH; the module is
    reimported as it was afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PATH", str(tmp_path))
    yield
    monkeypatch.undo()
    importlib.reload(_kernels)


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="C kernel not built: no compiler")
class TestKernelsAgree:
    def test_c_and_python_kernels_agree(self):
        corpus = random_corpus(seed=9, n_docs=30, vocab_size=20)
        prior = symmetric_prior(4, corpus.vocabulary.size, 0.7)
        cfg = ModelConfig(topics=4, iterations=10, seed=4)
        s1, s2 = init(corpus, prior, cfg), init(corpus, prior, cfg)
        rng = np.random.default_rng(0)
        for _ in range(5):
            uniforms = rng.random(s1.tokens.shape[0])
            _kernels.sweep_tokens(s1.tokens, s1.doc_ix, s1.z, s1.n_dk, s1.n_wk, s1.n_k,
                                  prior, 0.4, uniforms)
            _kernels._sweep_py(s2.tokens, s2.doc_ix, s2.z, s2.n_dk, s2.n_wk, s2.n_k,
                               prior, 0.4, uniforms)
        assert (s1.z == s2.z).all()
        assert (s1.n_dk == s2.n_dk).all()
        assert (s1.n_kw == s2.n_kw).all()
        assert (s1.n_k == s2.n_k).all()

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    def test_agree_on_random_states(self, case):
        args, alpha, sweeps = case
        c_args, py_args = _copy(args), _copy(args)
        for uniforms in sweeps:
            _kernels.sweep_tokens(*c_args, alpha, uniforms)
            _kernels._sweep_py(*py_args, alpha, uniforms)
        for got, want in zip(c_args[:6], py_args[:6]):
            assert (got == want).all()
        tokens, doc_ix, z, n_dk, n_wk, n_k = c_args[:6]
        n_add = np.zeros_like(n_dk), np.zeros_like(n_wk), np.zeros_like(n_k)
        np.add.at(n_add[0], (doc_ix, z), 1)
        np.add.at(n_add[1], (tokens, z), 1)
        np.add.at(n_add[2], z, 1)
        for got, want in zip((n_dk, n_wk, n_k), n_add):
            assert got.dtype == np.int32 and (got == want).all()

    @settings(max_examples=40, deadline=None)
    @given(kernel_cases())
    def test_cumulative_weights_bit_identical(self, case):
        # a decision flips only when u falls near a boundary, so compare the
        # kernel's running totals themselves, one token at a time: a
        # reordered product or sum shows here even when z does not change
        (tokens, doc_ix, z, n_dk, n_wk, n_k, prior), alpha, sweeps = case
        eta_wk, rows, eta_sums = prior.rows_by_word, prior.topic_rows, prior.row_sums
        uniforms = sweeps[0]
        cum = np.empty(3 * len(n_k))  # the running totals, then the kernel's cached terms
        for t in range(len(tokens)):
            w, d, k_old = tokens[t], doc_ix[t], z[t]
            dk, wk, k = n_dk[d].copy(), n_wk[w].copy(), n_k.copy()
            dk[k_old] -= 1
            wk[k_old] -= 1
            k[k_old] -= 1
            want = np.cumsum((dk + alpha) * (wk + eta_wk[w, rows]) / (k + eta_sums))
            assert _kernels._sweep_c(
                tokens[t:].ctypes.data, doc_ix[t:].ctypes.data, z[t:].ctypes.data, 1,
                n_dk.ctypes.data, n_wk.ctypes.data, n_k.ctypes.data, eta_wk.ctypes.data,
                rows.ctypes.data, eta_sums.ctypes.data, alpha, uniforms[t:].ctypes.data,
                cum.ctypes.data, *n_dk.shape, n_wk.shape[0], eta_wk.shape[1]) == -1
            assert cum[:len(n_k)].tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [[0], [0, 1], [0, 1, 2], [0, 0, 1], [1, 0, 0, 1, 0],
                                      [0, 1, 2, 3, 4, 5, 6], [2, 0, 1, 1, 0, 2, 1]],
                             ids=["K1", "K2", "K3", "K3-R2", "K5-R2", "K7", "K7-R3"])
    def test_agree_on_interleaved_documents(self, rows):
        # odd K leaves the kernel's pairs of topics a last one; document 0's
        # tokens come back after document 1's and 2's, so the document terms
        # the kernel keeps must be refilled; uniforms of 1.0 draw u equal to
        # the total, which no running total exceeds, so the cap picks K-1
        k_total, n_rows, vocab_size = len(rows), max(rows) + 1, 4
        rng = np.random.default_rng(k_total + n_rows)
        doc_ix = np.array([0, 0, 1, 1, 1, 0, 0, 2, 1, 0, 2, 0], np.int32)
        tokens = rng.integers(0, vocab_size, len(doc_ix)).astype(np.int32)
        z = rng.integers(0, k_total, len(doc_ix)).astype(np.int32)
        eta = rng.uniform(0.1, 2.0, (n_rows, vocab_size))
        args = [tokens, doc_ix, z, *tabulate(tokens, doc_ix, z, 3, k_total, vocab_size),
                PriorMatrix(eta, rows, (TopicKind.TFIDF,) * k_total)]
        c_args, py_args = _copy(args), _copy(args)
        for _ in range(3):
            uniforms = rng.random(len(tokens))
            uniforms[[3, 9]] = 1.0
            _kernels.sweep_tokens(*c_args, 0.3, uniforms)
            _kernels._sweep_py(*py_args, 0.3, uniforms)
            assert c_args[2][[3, 9]].tolist() == [k_total - 1] * 2
            for got, want in zip(c_args[:6], py_args[:6]):
                assert (got == want).all()

    def test_exact_tie_takes_the_later_topic(self):
        # one token, two topics, symmetric counts once it is removed: the
        # cumulative weights are (p, 2p) and u = 0.5 * 2p equals cum[0], so
        # the first k with cum[k] > u is topic 1
        args = _sweep_args([0], [1], 2, 1, [0], [[0.5], [0.5]])
        c_args, py_args = _copy(args), _copy(args)
        _kernels.sweep_tokens(*c_args, 0.3, np.array([0.5]))
        _kernels._sweep_py(*py_args, 0.3, np.array([0.5]))
        assert c_args[2][0] == py_args[2][0] == 1

    @settings(max_examples=300, deadline=None)
    @given(count_blocks())
    def test_log_sum_same_bits_as_the_python_fold(self, case):
        # coherence's fold of libm's log and PMI's lower median, against the
        # twins: the same bits, or the same error
        with np.errstate(divide="ignore", invalid="ignore"):  # the twins' inf and NaN
            kernels = _score_outcomes(*case)
            with python_twins():
                assert _score_outcomes(*case) == kernels

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 10), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example(k_total=1, vocab_size=1, n_docs=1, seed=0)
    def test_gammaln_cells_same_bits_as_the_numpy_cells(self, k_total, vocab_size, n_docs,
                                                        seed):
        # about half the cells empty; weights log-uniform over nine decades,
        # R <= K distinct rows
        rng = np.random.default_rng(seed)
        n_wk = rng.integers(0, 40, (vocab_size, k_total)) * rng.integers(0, 2, (vocab_size, k_total))
        n_dk = rng.integers(0, 30, (n_docs, k_total))
        state = _counts_state(n_dk, n_wk, n_wk.sum(axis=0), n_dk.sum(axis=1))
        n_rows = int(rng.integers(1, k_total + 1))
        prior = PriorMatrix(np.exp(rng.uniform(np.log(1e-6), np.log(1e3), (n_rows, vocab_size))),
                            rng.integers(0, n_rows, k_total), (TopicKind.TFIDF,) * k_total)
        alpha = float(rng.uniform(1e-3, 10.0))
        with python_twins():
            want = log_likelihood(state, prior, alpha)
        assert log_likelihood(state, prior, alpha).hex() == want.hex()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, exclude_min=True, allow_nan=False),
                              st.floats(0.0, 20.0, exclude_min=True),
                              st.integers(1, 2000).map(float),
                              st.floats(5e-324, 2.2250738585072014e-308)),  # subnormals
                    min_size=1, max_size=50))
    def test_gammaln_same_bits_as_scipy(self, values):
        x = np.array(values)
        assert _kernels.gammaln(x).tobytes() == gammaln(x).tobytes()

    def test_gammaln_same_bits_as_scipy_at_branch_edges(self):
        # each branch's edge and its five neighbours on either side
        x = np.array([edge for at in (2.0, 3.0, 13.0, 1000.0, 1e8, _kernels.LGAM_MAX)
                      for edge in at + np.arange(-5, 6) * np.spacing(at)])
        assert _kernels.gammaln(x).tobytes() == gammaln(x).tobytes()

    def test_fallback_without_compiler_gives_same_bytes(self, no_compiler, caplog, tmp_path):
        corpus = random_corpus(seed=3, n_docs=20, vocab_size=15)
        prior = symmetric_prior(3, corpus.vocabulary.size, 0.5)
        cfg = ModelConfig(topics=3, iterations=6, seed=8)
        save_model(fit(corpus, prior, cfg), tmp_path / "c.json")
        with caplog.at_level(logging.WARNING, logger=_kernels.__name__):
            importlib.reload(_kernels)
        assert _kernels.BACKEND == "numpy"
        assert [name for name in _kernels._ENTRIES
                if getattr(_kernels, f"_{name}_c") is not None] == []
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        save_model(fit(corpus, prior, cfg), tmp_path / "numpy.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "c.json").read_bytes()


def test_c_kernel_loads_where_a_compiler_is_present():
    # a kernel that fails to build or load only logs a warning, and every
    # C-backend case would then skip while the numpy twin passes them
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    assert _kernels.BACKEND == "c"
    for name in _kernels._ENTRIES:  # each entry point's handle, _<name>_c, is that entry
        assert getattr(_kernels, f"_{name}_c").__name__ == name


def test_c_kernel_source_compiles_without_warnings(tmp_path, monkeypatch):
    # the same compile and link command that _build runs, libm included
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels, "_CFLAGS", _kernels._CFLAGS + ("-Wall", "-Wextra", "-Werror"))
    try:
        lib = _kernels._build()
    except subprocess.CalledProcessError as exc:
        pytest.fail(exc.stderr)
    assert lib.parent == tmp_path / "priorlda"
    loaded = ctypes.CDLL(str(lib))
    for name in _kernels._ENTRIES:  # every entry point, later ones included
        assert getattr(loaded, name)


@pytest.mark.parametrize("value", [0.0, -0.0, -1e-300, -math.inf, math.nan])
def test_gammaln_outside_the_domain_raises(backend, value):
    with pytest.raises(ValueError, match=r"^x\[2\] = .* outside the domain of gammaln"):
        _kernels.gammaln(np.array([2.0, math.inf, value, -1.0]))


def _counts_state(n_dk, n_wk, n_k, doc_lengths):
    """A ModelState that holds the given counts and no tokens: the
    log-likelihood reads the counts alone."""
    empty = np.zeros(0, np.int32)
    return ModelState(tokens=empty, doc_ix=empty, z=empty,
                      doc_lengths=np.asarray(doc_lengths, np.int64),
                      n_dk=np.asarray(n_dk, np.int32), n_wk=np.asarray(n_wk, np.int32),
                      n_k=np.asarray(n_k, np.int32), rng=np.random.default_rng(0))


def _raw_prior(rows_by_word, row_sums):
    """A prior holding word-major rows as given, one per topic, past
    PriorMatrix's checks: the kernels' own checks of the weights meet it."""
    prior = PriorMatrix.__new__(PriorMatrix)
    for name, value in (("rows_by_word", rows_by_word), ("gammaln_by_word", gammaln(rows_by_word)),
                        ("topic_rows", np.arange(rows_by_word.shape[1])),
                        ("row_sums", np.asarray(row_sums, np.float64))):
        object.__setattr__(prior, name, value)
    object.__setattr__(prior, "kinds", (TopicKind.TFIDF,) * rows_by_word.shape[1])
    return prior


@pytest.mark.parametrize("count,weight", [(-1, 0.5), (-3, 3.0), (2, -0.5), (1, math.nan)])
def test_gammaln_cells_outside_the_domain_raise(backend, count, weight):
    # the first bad occupied cell of the (K, V) grid in C order is named;
    # (1, 2) is bad too, and the weight of an empty cell, (0, 0) here, is
    # never checked
    state = _counts_state([[1, 1]], [[0, 1], [count, 0], [0, count]], [1, 1], [2])
    prior = _raw_prior(np.array([[-1.0, 0.5], [weight, 0.5], [0.5, weight]]), [2.0, 2.0])
    with pytest.raises(ValueError, match=rf"^cell \(0, 1\): count {count} and weight "
                                         rf"{re.escape(repr(weight))} are outside the domain "):
        log_likelihood(state, prior, 0.5)


@pytest.mark.parametrize("counts,named", [
    (([[1, 1]], [[1, 1]], [1, 1], [-2]), "document 0"),
    (([[1, 0], [1, -1]], [[2, 1]], [2, 1], [1, 2]), "document cell 3"),
    (([[300, -2]], [[1, 1]], [1, -3], [2]), "document cell 1"),
    (([[1, 1]], [[1, 1]], [1, -3], [2]), "topic 1"),
], ids=["length", "document-cell", "document-cell-first", "topic"])
def test_log_likelihood_names_the_first_bad_term(backend, counts, named):
    # documents, then document cells, then topics, then word-topic cells:
    # the first term, in that order, whose log-gamma argument is not > 0
    with pytest.raises(ValueError, match=f"^{named}: a log-gamma argument is not > 0$"):
        log_likelihood(_counts_state(*counts), symmetric_prior(2, 1, 1.0), 0.5)


def test_log_likelihood_negative_count_of_positive_argument(backend):
    # a count of -1 under alpha 2, and one of 300, past the table by count:
    # both are read from log-gamma itself, with the dense formula's bits
    state = _counts_state([[-1, 300], [0, 2]], [[300, 1], [1, 0]], [301, 1], [299, 2])
    prior = symmetric_prior(2, 2, 0.5)
    want = _log_likelihood_reference(state, prior, 2.0)
    assert log_likelihood(state, prior, 2.0).hex() == want.hex()


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["deepcopy", "pickle"])
def test_log_likelihood_of_a_cloned_prior(backend, clone):
    # the kernel reads a prior through the addresses of its arrays: a clone
    # holds new arrays and must not read the original's, freed here
    corpus = random_corpus(seed=4, n_docs=8, vocab_size=6)
    prior = assemble(PriorConfig(topics=3, stopword_topics=1), compute_stats(corpus))
    state = init(corpus, prior, ModelConfig(topics=3, iterations=2, seed=1))
    want = log_likelihood(state, prior, 0.5)
    twin = clone(prior)
    assert set(_kernels._prior_args(twin)).isdisjoint(_kernels._prior_args(prior))
    del prior
    gc.collect()
    assert log_likelihood(state, twin, 0.5).hex() == want.hex()


def test_gammaln_cells_rejects_mismatched_shapes(backend):
    # each count array of another shape, set after the state is built, past
    # ModelState's check of n_wk against n_k
    for field, shape in (("n_dk", (2, 2)), ("n_wk", (3, 3)), ("n_k", (3,)),
                         ("doc_lengths", (2,))):
        state = _counts_state([[1, 1]], [[1, 0], [0, 1]], [1, 1], [2])
        setattr(state, field, np.ones(shape, getattr(state, field).dtype))
        with pytest.raises(ValueError, match="^n_dk is "):
            log_likelihood(state, symmetric_prior(2, 2, 1.0), 0.5)


@pytest.mark.parametrize("field", ["n_dk", "n_wk", "n_k", "doc_lengths"])
def test_log_likelihood_rejects_malformed_counts(backend, field):
    state = _counts_state([[1, 1]], [[1, 0], [0, 1]], [1, 1], [2])
    setattr(state, field, getattr(state, field).astype(np.float64))
    with pytest.raises(ValueError, match=f"^{field} must be a "):
        log_likelihood(state, symmetric_prior(2, 2, 1.0), 0.5)


@pytest.mark.parametrize("alpha", [0.0, -1.0, -math.inf, math.inf, math.nan])
def test_sweep_and_log_likelihood_reject_alpha_outside_the_open_half_line(backend, alpha):
    # ModelConfig's check, before any kernel runs: the sweep changes nothing
    corpus = random_corpus(seed=2, n_docs=5, vocab_size=6)
    prior = symmetric_prior(3, corpus.vocabulary.size, 0.5)
    state = init(corpus, prior, ModelConfig(topics=3, iterations=2, seed=1))
    z = state.z.copy()
    message = re.escape(f"alpha must be positive and finite, not {alpha}")
    with pytest.raises(ValueError, match=message):
        sweep(state, prior, alpha)
    assert (state.z == z).all() and counts_match_assignments(state)
    with pytest.raises(ValueError, match=message):
        log_likelihood(state, prior, alpha)
    with pytest.raises(ValueError, match=message):
        ModelConfig(alpha=alpha)


# sizes of the (D, K) and (K, V) grids about numpy's pairwise sum: its
# unrolled block of 8, its leaves of at most 128, the splits of up to 256,
# of up to 16,384 and one of four levels
SPLIT_EDGE_SIZES = [7, 8, 9, 127, 128, 129, 255, 256, 257, 8191, 8192, 8193, 16392]


@pytest.mark.parametrize("size", SPLIT_EDGE_SIZES)
@pytest.mark.parametrize("twins", [False, True], ids=["c", "numpy"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_bounded_cell_sum_same_bits_as_the_dense_sum(size, twins, data):
    if not twins and _kernels.BACKEND != "c":
        pytest.skip("C kernel not built: no compiler")
    k_total = data.draw(st.sampled_from([k for k in range(1, 65) if size % k == 0]), "K")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    shape = (size // k_total, k_total)  # D x K = K x V = size
    # document counts past the table by count of 256 sometimes
    most = data.draw(st.sampled_from([3, 40, 300]), "largest count")
    n_dk = rng.integers(0, most + 1, shape)
    n_rows = data.draw(st.integers(1, k_total), "R")
    rows = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), (n_rows, shape[0])))
    prior = PriorMatrix(rows, rng.integers(0, n_rows, k_total), (TopicKind.TFIDF,) * k_total)
    alpha = data.draw(st.floats(1e-3, 10.0), "alpha")
    full = rng.integers(1, 50, shape)
    with python_twins() if twins else nullcontext():
        # every word-topic cell empty, every one occupied, about half empty
        for n_wk in (np.zeros(shape, np.int64), full, full * rng.integers(0, 2, shape)):
            state = _counts_state(n_dk, n_wk, n_wk.sum(axis=0), n_dk.sum(axis=1))
            got = log_likelihood(state, prior, alpha)
            assert got.hex() == _log_likelihood_reference(state, prior, alpha).hex()
        # two bad occupied cells in the grid's later half, past the first
        # split where it has one, and before both a bad empty cell: the first
        # bad occupied cell in C order is named
        eta_wk = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), shape))
        first = data.draw(st.integers(size // 2, size - 1), "first bad")
        counts = {data.draw(st.integers(0, first - 1), "bad empty"): 0, first: 3,
                  data.draw(st.integers(first, size - 1), "second bad"): 3}
        for at, count in counts.items():  # at is a C-order index of the (K, V) grid
            k, w = divmod(at, shape[0])
            full[w, k], eta_wk[w, k] = count, -2.0 - at
        k, w = divmod(first, shape[0])
        state = _counts_state(n_dk, full, full.sum(axis=0), n_dk.sum(axis=1))
        with pytest.raises(ValueError, match=rf"^cell \({k}, {w}\): count 3 and weight "
                                             rf"{re.escape(repr(float(eta_wk[w, k])))} are "
                                             "outside the domain of gammaln$"):
            log_likelihood(state, _raw_prior(eta_wk, full.sum(axis=0) + 1.0), alpha)


@pytest.mark.parametrize("doc_streams,digest", [
    (False, "5a45edf3e64a9d4656031d54276073eb33248720e122618bf3a74fa32a08d1cd"),
    (True, "794baf6af9d976a56517dc7bedeea0854598a6f1fafb23c907d988ce189ec34c")])
def test_loglik_trace_same_bits_on_each_backend(backend, doc_streams, digest):
    # sha256 of the trace's bytes, recorded while every gammaln term came
    # from scipy.special.gammaln
    corpus = random_corpus(seed=5, n_docs=30, vocab_size=25)
    prior = assemble(PriorConfig(topics=6, stopword_topics=1, tfidf_topics=3,
                                 wordfreq_topics=1), compute_stats(corpus))
    model = fit(corpus, prior, ModelConfig(topics=6, alpha=0.3, iterations=8, seed=2,
                                           doc_streams=doc_streams))
    assert hashlib.sha256(model.loglik_trace.tobytes()).hexdigest() == digest


# a count and a document count whose quotient (count + 1) / doc_freq in
# coherence's fold is zero, negative zero, a tiny negative or -inf
@pytest.mark.parametrize("count,doc_freq", [(-1, 5), (-1, -5), (-2, 2**62), (-2, 0)],
                         ids=["0.0", "-0.0", "-1e-300", "-inf"])
@pytest.mark.parametrize("position", [0, 3])
def test_log_sum_outside_the_domain_raises(backend, count, doc_freq, position):
    # math.log raises on entries <= 0, so the fold raises on both backends
    # and names the pair; pair 3 of four words is (1, 2)
    i, j = [(0, 1), None, None, (1, 2)][position]
    counts, doc_freqs = np.full((4, 4), 3), np.array([5, 5, 5, 5])
    counts[i, j], doc_freqs[i] = count, doc_freq
    with pytest.raises(ValueError, match=rf"^pair \({i}, {j}\): \({counts[i, j]} \+ 1\) / "
                                         rf"{doc_freq} is outside the domain of log$"):
        with np.errstate(divide="ignore"):  # the twin's -1 / 0
            _kernels.coherence(counts, doc_freqs)


@pytest.mark.parametrize("x", [np.array([1.0, 2.0], dtype=np.float32), [1, 2],
                               np.ones((2, 1), np.int64), np.ones(4, np.int64)[::2]],
                         ids=["float32", "list", "2-d", "strided"])
def test_log_sum_rejects_malformed_input(backend, x):
    # the document counts of the words, for coherence's fold and for PMI
    for score in (lambda: _kernels.coherence(np.ones((2, 2), np.int64), x),
                  lambda: _kernels.pmi_argument(np.ones((2, 2), np.int64), x, 3)):
        with pytest.raises(ValueError, match="^doc_freq must be a 1-D C-contiguous int64"):
            score()


class TestKernelInputValidation:
    def _args(self):
        return _sweep_args([0, 1, 2, 1], [2, 2], 3, 3, [0, 1, 2, 0],
                           np.full((3, 3), 0.5)) + [0.4, np.full(4, 0.3)]

    def _assert_rejected(self, args):
        before = _copy([a for a in args if isinstance(a, np.ndarray)])
        with pytest.raises(ValueError):
            _kernels.sweep_tokens(*args)
        after = [a for a in args if isinstance(a, np.ndarray)]
        for got, want in zip(after, before):
            assert (got == want).all()

    def test_valid_arguments_run(self, backend):
        args = self._args()
        _kernels.sweep_tokens(*args)
        assert args[5].sum() == 4

    @pytest.mark.parametrize("position,dtype", [(0, np.int64), (2, np.int64), (4, np.int64),
                                                (8, np.float32)])
    def test_wrong_dtype(self, backend, position, dtype):
        args = self._args()
        args[position] = args[position].astype(dtype)
        self._assert_rejected(args)

    def test_non_contiguous_view(self, backend):
        args = self._args()
        wide = np.zeros((3, 6), dtype=np.int32)
        wide[:, ::2] = args[4]
        args[4] = wide[:, ::2]
        self._assert_rejected(args)

    def test_shape_disagreement(self, backend):
        args = self._args()
        args[8] = args[8][:3]
        self._assert_rejected(args)

    @pytest.mark.parametrize("topics,words", [(2, 3), (3, 4)], ids=["fewer-topics", "more-words"])
    def test_prior_of_other_dimensions(self, backend, topics, words):
        args = self._args()
        args[6] = symmetric_prior(topics, words, 0.5)
        self._assert_rejected(args)

    @pytest.mark.parametrize("moved", [4, 3], ids=["n_wk", "n_dk"])
    def test_topic_major_counts_rejected(self, backend, moved):
        # K=2 topics over D=3 documents of V=3 words, with a count table
        # passed topic-major, as the kernel once took n_wk
        args = _sweep_args([0, 1, 2, 1], [2, 1, 1], 2, 3, [0, 1, 1, 0],
                           np.full((2, 3), 0.5)) + [0.4, np.full(4, 0.3)]
        args[moved] = np.ascontiguousarray(args[moved].T)
        self._assert_rejected(args)

    @pytest.mark.parametrize("name", ["z", "n_dk", "n_wk", "n_k"])
    def test_read_only_outputs_rejected(self, backend, name):
        # the C kernel writes through the data address, past numpy's flag
        corpus = random_corpus(seed=3, n_docs=3)
        prior = symmetric_prior(3, corpus.vocabulary.size, 0.5)
        state = init(corpus, prior, ModelConfig(topics=3, iterations=10, seed=1))
        names = ("z", "n_dk", "n_wk", "n_k")
        before = [getattr(state, n).copy() for n in names]
        getattr(state, name).flags.writeable = False
        with pytest.raises(ValueError, match=f"^{name} is read-only"):
            sweep(state, prior, 0.5)
        for n, want in zip(names, before):
            assert (getattr(state, n) == want).all()

    def test_single_topic_counts_match_recount(self, backend):
        corpus = random_corpus(seed=6, n_docs=15, vocab_size=12)
        prior = symmetric_prior(1, corpus.vocabulary.size, 0.3)
        state = init(corpus, prior, ModelConfig(topics=1, iterations=10, seed=1))
        rng = np.random.default_rng(2)
        for _ in range(3):
            _kernels.sweep_tokens(state.tokens, state.doc_ix, state.z, state.n_dk,
                                  state.n_wk, state.n_k, prior, 0.5, rng.random(corpus.n_tokens))
            assert counts_match_assignments(state)

    @pytest.mark.parametrize("position,value", [(0, 3), (0, -1), (1, 2), (2, 3)])
    def test_out_of_range_index(self, backend, position, value):
        args = self._args()
        args[position][3] = value
        self._assert_rejected(args)


class TestGibbsAgainstEnumeration:
    def test_tiny_corpus_pair_probability(self):
        # the probability that the two "a" tokens share a topic, against the
        # exact posterior enumerated over all assignments
        corpus = build_corpus(["a a b", "c c b"])
        prior = symmetric_prior(2, 3, 1.0)
        token_docs = [doc.tolist() for doc in corpus.documents]
        exact = enumerate_posterior(token_docs, prior.weights, 1.0)
        want = sum(p for z, p in exact.items() if z[0] == z[1])
        state = init(corpus, prior, ModelConfig(topics=2, iterations=10, seed=123))
        burn, keep = 500, 6000
        hits = 0
        for i in range(burn + keep):
            sweep(state, prior, 1.0)
            if i >= burn:
                hits += int(state.z[0] == state.z[1])
        assert abs(hits / keep - want) < 0.03

    @pytest.mark.parametrize("texts,topic_rows,tolerance", [
        (["a a b", "b c c"], [2, 0], 0.045), (["a b c", "c a"], [1, 2, 0], 0.075)],
        ids=["K2-N6", "K3-N5"])
    def test_distinct_rows_visit_the_posterior(self, backend, texts, topic_rows, tolerance):
        # total variation between the visit frequencies of 8,000 sweeps and
        # the enumerated posterior. Three rows with unequal sums, taken out of
        # order, so a sweep that misreads a topic's row or its sum visits
        # other assignments. Over init seeds 0-11 it read at most 0.031
        # (K=2) and 0.053 (K=3); the tolerances are about 1.4 times those
        rows = np.array([[2.0, 0.3, 0.6], [0.2, 1.5, 3.0], [0.7, 0.7, 0.1]])
        corpus = build_corpus(texts)
        k_total, sweeps = len(topic_rows), 8000
        prior = PriorMatrix(rows, topic_rows, (TopicKind.TFIDF,) * k_total)
        exact = enumerate_posterior([d.tolist() for d in corpus.documents], prior.weights, 0.5)
        state = init(corpus, prior, ModelConfig(topics=k_total, iterations=10, seed=0))
        visits = Counter()
        for _ in range(sweeps):
            sweep(state, prior, 0.5)
            visits[tuple(state.z.tolist())] += 1
        assert 0.5 * sum(abs(visits[z] / sweeps - p) for z, p in exact.items()) < tolerance


class TestEstimate:
    def test_prior_only_topic_equals_normalized_prior_row(self):
        # one word, three topics; at most one topic owns the single token
        corpus = build_corpus(["a"])
        prior = PriorMatrix(np.array([[2.0], [3.0], [5.0]]), np.arange(3),
                            (TopicKind.SYMMETRIC,) * 3)
        state = init(corpus, prior, ModelConfig(topics=3, iterations=10, seed=0))
        model = estimate(state, prior, 1.0, vocabulary=corpus.vocabulary)
        empty = [k for k in range(3) if state.n_k[k] == 0]
        assert empty
        for k in empty:
            expected = prior.weights[k] / prior.weights[k].sum()
            assert np.array_equal(model.beta_hat[k], expected)

    def test_single_topic_theta_is_one(self):
        corpus = build_corpus(["a b", "c"])
        prior = symmetric_prior(1, 3, 1.0)
        state = init(corpus, prior, ModelConfig(topics=1, iterations=10, seed=0))
        model = estimate(state, prior, 2.0, vocabulary=corpus.vocabulary)
        assert np.allclose(model.theta_hat, 1.0)

    def test_closed_form_on_hand_assignment(self):
        corpus = build_corpus(["a a b", "c c b"])
        prior = symmetric_prior(2, 3, 1.0)
        state = init(corpus, prior, ModelConfig(topics=2, iterations=10, seed=0))
        state.z[:] = [0, 0, 1, 1, 1, 1]
        state.n_dk, state.n_wk, state.n_k = tabulate(
            state.tokens, state.doc_ix, state.z, 2, 2, 3)
        model = estimate(state, prior, 0.5, vocabulary=corpus.vocabulary)
        a = corpus.vocabulary.word_to_id["a"]
        assert model.beta_hat[0][a] == pytest.approx((2 + 1) / (2 + 3))
        assert model.theta_hat[0][0] == pytest.approx((2 + 0.5) / (3 + 2 * 0.5))

    def test_rows_normalized(self):
        corpus = random_corpus(seed=2, n_docs=25)
        prior = symmetric_prior(3, corpus.vocabulary.size, 0.1)
        state = init(corpus, prior, ModelConfig(topics=3, iterations=10, seed=1))
        model = estimate(state, prior, 1.0, vocabulary=corpus.vocabulary)
        assert np.abs(model.beta_hat.sum(axis=1) - 1).max() < 1e-9
        assert np.abs(model.theta_hat.sum(axis=1) - 1).max() < 1e-9
        assert (model.beta_hat > 0).all() and (model.theta_hat > 0).all()


class TestLogLikelihood:
    def test_degenerate_model_is_zero(self):
        corpus = build_corpus(["a"])
        for alpha, eta in [(1.0, 1.0), (0.3, 2.0), (5.0, 0.1)]:
            prior = symmetric_prior(1, 1, eta)
            state = init(corpus, prior, ModelConfig(topics=1, iterations=10, seed=0))
            assert log_likelihood(state, prior, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_topic_relabeling(self):
        corpus = build_corpus(["a b c", "b c d"])
        prior = symmetric_prior(3, 4, 0.7)
        state = init(corpus, prior, ModelConfig(topics=3, iterations=10, seed=3))
        base = log_likelihood(state, prior, 0.9)
        state.z[:] = (state.z + 1) % 3
        state.n_dk, state.n_wk, state.n_k = tabulate(
            state.tokens, state.doc_ix, state.z, 2, 3, 4)
        assert log_likelihood(state, prior, 0.9) == pytest.approx(base, abs=1e-9)

    def test_matches_urn_oracle(self):
        rng = np.random.default_rng(7)
        corpus = random_corpus(seed=8, n_docs=6, vocab_size=8, min_len=2, max_len=5)
        prior = PriorMatrix(rng.uniform(0.2, 2.0, size=(3, corpus.vocabulary.size)),
                            np.arange(3), (TopicKind.SYMMETRIC,) * 3)
        state = init(corpus, prior, ModelConfig(topics=3, iterations=10, seed=4))
        for _ in range(3):
            sweep(state, prior, 0.6)
            token_docs = [d.tolist() for d in corpus.documents]
            z_docs = [state.z[lo:hi].tolist()
                      for lo, hi in zip(state.doc_starts, state.doc_starts[1:])]
            want = urn_log_joint(token_docs, z_docs, prior.weights, 0.6)
            assert log_likelihood(state, prior, 0.6) == pytest.approx(want, abs=1e-8)

    def test_two_token_enumeration_consistency(self):
        # exp(log_likelihood) summed over every assignment must match the
        # urn-oracle total evidence
        corpus = build_corpus(["a b"])
        prior = symmetric_prior(2, 2, 1.3)
        state = init(corpus, prior, ModelConfig(topics=2, iterations=10, seed=0))
        total_pkg = 0.0
        total_ref = 0.0
        for z0 in range(2):
            for z1 in range(2):
                state.z[:] = [z0, z1]
                state.n_dk, state.n_wk, state.n_k = tabulate(
                    state.tokens, state.doc_ix, state.z, 1, 2, 2)
                total_pkg += math.exp(log_likelihood(state, prior, 0.8))
                total_ref += math.exp(urn_log_joint([state.tokens.tolist()],
                                                    [[z0, z1]], prior.weights, 0.8))
        assert total_pkg == pytest.approx(total_ref, rel=1e-10)


def _log_likelihood_reference(state, prior, alpha):
    """log_likelihood with every gammaln term recomputed from the prior."""
    k_total = state.n_topics
    # prior.weights is an F-ordered view, and a sum over an array made from
    # it adds in memory order: the reference sums C-ordered arrays
    eta = np.ascontiguousarray(prior.weights)
    eta_sums = eta.sum(axis=1)
    doc_part = float((gammaln(k_total * alpha) - gammaln(state.doc_lengths + k_total * alpha)).sum())
    doc_part += float((gammaln(state.n_dk + alpha) - gammaln(alpha)).sum())
    topic_part = float((gammaln(eta_sums) - gammaln(state.n_k + eta_sums)).sum())
    topic_part += float((gammaln(state.n_kw + eta) - gammaln(eta)).sum())
    return doc_part + topic_part


@st.composite
def loglik_cases(draw):
    """A corpus (V may be 1, documents may be empty), a prior of one of
    three sorts, alpha, a seed and a number of sweeps."""
    n_topics = draw(st.integers(1, 8))
    vocab_size = draw(st.integers(1, 12))
    docs = draw(st.lists(st.lists(st.integers(0, vocab_size - 1), max_size=12),
                         min_size=1, max_size=6).filter(lambda ds: any(ds)))
    corpus = build_corpus([" ".join(f"w{w}" for w in doc) for doc in docs])
    v = corpus.vocabulary.size
    sort = draw(st.sampled_from(["random", "symmetric", "assembled"]))
    if sort == "random":
        # log-uniform over nine decades: nearly every weight is distinct
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        prior = PriorMatrix(np.exp(rng.uniform(np.log(1e-6), np.log(1e3), (n_topics, v))),
                            np.arange(n_topics), (TopicKind.TFIDF,) * n_topics)
    elif sort == "symmetric":
        prior = symmetric_prior(n_topics, v, draw(st.floats(1e-4, 100.0)))
    else:
        kinds = draw(st.lists(st.integers(0, 3), max_size=n_topics))
        config = PriorConfig(topics=n_topics, stopword_topics=kinds.count(0),
                             wordfreq_topics=kinds.count(1), tfidf_topics=kinds.count(2),
                             keyword_topics=kinds.count(3))
        keywords = draw(st.lists(st.sampled_from(corpus.vocabulary.id_to_word), max_size=3))
        prior = assemble(config, compute_stats(corpus), keywords)
    return (corpus, prior, draw(st.floats(1e-3, 10.0)), draw(st.integers(0, 2**16)),
            draw(st.integers(0, 3)))


class TestLogLikelihoodCache:
    def test_bit_identical_to_uncached_terms(self):
        rng = np.random.default_rng(11)
        corpus = random_corpus(seed=12, n_docs=40, vocab_size=30)
        for k, alpha in [(1, 0.5), (4, 0.1), (7, 2.0)]:
            prior = PriorMatrix(rng.uniform(1e-6, 3.0, size=(k, corpus.vocabulary.size)),
                                np.arange(k), (TopicKind.SYMMETRIC,) * k)
            state = init(corpus, prior, ModelConfig(topics=k, iterations=10, seed=k))
            for _ in range(3):
                sweep(state, prior, alpha)
                got = log_likelihood(state, prior, alpha)
                assert got.hex() == _log_likelihood_reference(state, prior, alpha).hex()

    @settings(max_examples=150, deadline=None)
    @given(case=loglik_cases())
    # V=1, an empty document, and more topics than tokens
    @example(case=(build_corpus(["a", "", "a a a"]), symmetric_prior(8, 1, 0.5), 0.3, 1, 2))
    def test_bit_identical_to_dense_formula(self, case):
        # gammaln runs on the occupied cells only; an empty cell must still
        # add exactly what the dense formula adds there
        corpus, prior, alpha, seed, sweeps = case
        k = prior.n_topics
        state = init(corpus, prior, ModelConfig(topics=k, iterations=10, seed=seed))
        for _ in range(sweeps):
            sweep(state, prior, alpha)
        got = log_likelihood(state, prior, alpha)
        assert got.hex() == _log_likelihood_reference(state, prior, alpha).hex()


class TestSaveModel:
    """save_model writes exactly json.dumps(to_json(), compact) + newline,
    from the C writer and from its json.dumps twin."""

    @staticmethod
    def _reference(model) -> bytes:
        return (json.dumps(model.to_json(), separators=(",", ":")) + "\n").encode()

    def _check(self, model, tmp_path):
        path = tmp_path / "model.json"
        for twins in (nullcontext, python_twins):
            with twins():
                save_model(model, path)
                first = path.read_bytes()
                assert first == self._reference(model)
                loaded = load_model(path, vocabulary=model.vocabulary)
                for name in ("beta_hat", "theta_hat", "loglik_trace"):
                    assert getattr(loaded, name).tobytes() == getattr(model, name).tobytes()
                save_model(loaded, path)
                assert path.read_bytes() == first
        return first

    @staticmethod
    def _fit_with_ids(config):
        """A fit on a corpus with document ids and a random TF-IDF prior."""
        base = random_corpus(seed=9, n_docs=25)
        corpus = build_corpus(texts(base),
                              doc_ids=[f"d{i}" for i in range(25)])
        rng = np.random.default_rng(config.seed)
        prior = PriorMatrix(rng.uniform(0.05, 2.0, size=(config.topics, corpus.vocabulary.size)),
                            np.arange(config.topics), (TopicKind.TFIDF,) * config.topics)
        return fit(corpus, prior, config)

    @pytest.mark.parametrize("config", [
        ModelConfig(topics=4, alpha=0.3, iterations=12, seed=3),
        ModelConfig(topics=1, iterations=6, seed=1),
        ModelConfig(topics=5, alpha=0.2, iterations=14, seed=8, average_estimates=True),
        ModelConfig(topics=3, iterations=8, seed=2, doc_streams=True),
    ], ids=["default", "k1", "averaged", "doc_streams"])
    def test_fitted_models(self, tmp_path, config):
        model = self._fit_with_ids(config)
        text = self._check(model, tmp_path)
        if config.topics == 1:
            assert (model.theta_hat == 1.0).all()
            assert b'"theta_hat":[[1.0],[1.0],' in text

    # sha256 of save_model for the doc_streams fit above, recorded while the
    # snapshot sweep still kept its own numpy token loop
    def test_doc_streams_model_digest(self, tmp_path, backend):
        model = self._fit_with_ids(ModelConfig(topics=3, iterations=8, seed=2,
                                               doc_streams=True))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b3b4d091bb0711d73fa00d3ea43f879e23d3f8a7a92240d6159096fbfe790d22")

    def test_model_without_config_or_trace(self, tmp_path):
        corpus = random_corpus(seed=4, n_docs=10)
        prior = symmetric_prior(3, corpus.vocabulary.size, 0.5)
        state = init(corpus, prior, ModelConfig(topics=3, iterations=4, seed=0))
        text = self._check(estimate(state, prior, 0.5, vocabulary=corpus.vocabulary), tmp_path)
        assert text.endswith(b',"loglik_trace":[]}\n') and b'"config":null' in text

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 6),
           alpha=st.sampled_from([0.01, 0.2, 1.0, 7.5]),
           iterations=st.integers(1, 6), average=st.booleans())
    def test_random_fits(self, tmp_path_factory, seed, k, alpha, iterations, average):
        corpus = random_corpus(seed=seed, n_docs=12, vocab_size=20, min_len=1, max_len=9)
        prior = symmetric_prior(k, corpus.vocabulary.size, 0.1 + seed % 5)
        model = fit(corpus, prior, ModelConfig(topics=k, alpha=alpha, iterations=iterations,
                                               seed=seed, average_estimates=average))
        self._check(model, tmp_path_factory.mktemp("fit"))


class TestFittedModelShapes:
    """A model whose parts disagree about K or V is rejected when it is made."""

    @staticmethod
    def _parts(kinds=3, theta_columns=3, words=4):
        return {"beta_hat": np.full((3, 4), 0.25),
                "theta_hat": np.full((2, theta_columns), 1 / theta_columns),
                "kinds": (TopicKind.SYMMETRIC,) * kinds, "loglik_trace": np.empty(0),
                "vocabulary": Vocabulary([f"w{i}" for i in range(words)])}

    def test_consistent_parts_accepted(self):
        assert FittedModel(**self._parts()).n_topics == 3

    @pytest.mark.parametrize("change,message", [
        ({"kinds": 2}, "2 topic kinds for a 3x4 beta_hat"),
        ({"theta_columns": 4}, "4 theta_hat columns for a 3x4 beta_hat"),
        ({"words": 5}, "5 vocabulary words for a 3x4 beta_hat"),
    ], ids=["kinds", "theta_hat", "vocabulary"])
    def test_mismatch_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            FittedModel(**self._parts(**change))

    def test_load_model_with_truncated_kinds(self, tmp_path):
        corpus = random_corpus(seed=4, n_docs=10)
        prior = symmetric_prior(3, corpus.vocabulary.size, 0.5)
        path = tmp_path / "model.json"
        save_model(fit(corpus, prior, ModelConfig(topics=3, iterations=4, seed=0)), path)
        data = json.loads(path.read_text())
        data["kinds"] = data["kinds"][:2]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="2 topic kinds for a 3x"):
            load_model(path, vocabulary=corpus.vocabulary)


class TestFit:
    def test_deterministic_given_seed(self):
        corpus = random_corpus(seed=5, n_docs=30)
        prior = symmetric_prior(4, corpus.vocabulary.size, 1.0)
        cfg = ModelConfig(topics=4, iterations=30, seed=21)
        a, b = fit(corpus, prior, cfg), fit(corpus, prior, cfg)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.loglik_trace, b.loglik_trace)

    def test_single_post_burn_sample_average_equals_final(self):
        corpus = random_corpus(seed=6, n_docs=15)
        prior = symmetric_prior(3, corpus.vocabulary.size, 1.0)
        averaged = fit(corpus, prior, ModelConfig(topics=3, iterations=10, burn_in=9,
                                                  seed=2, average_estimates=True))
        final = fit(corpus, prior, ModelConfig(topics=3, iterations=10, burn_in=9, seed=2))
        assert np.array_equal(averaged.beta_hat, final.beta_hat)

    def test_trace_recorded_each_sweep(self):
        corpus = random_corpus(seed=6, n_docs=10)
        prior = symmetric_prior(2, corpus.vocabulary.size, 1.0)
        model = fit(corpus, prior, ModelConfig(topics=2, iterations=25, seed=0))
        assert model.loglik_trace.shape == (25,)
        assert np.isfinite(model.loglik_trace).all()

    def test_planted_recovery_smoke(self):
        corpus, planted = two_topic_corpus(seed=0)
        prior = symmetric_prior(2, corpus.vocabulary.size, 1.0)
        model = fit(corpus, prior, ModelConfig(topics=2, iterations=120, seed=1))
        sims = greedy_align_cosine(model.beta_hat, planted)
        assert min(sims) > 0.9

    def test_trace_stabilizes_on_planted_corpus(self):
        corpus, _ = two_topic_corpus(seed=1)
        prior = symmetric_prior(2, corpus.vocabulary.size, 1.0)
        model = fit(corpus, prior, ModelConfig(topics=2, iterations=200, seed=3))
        head = model.loglik_trace[:20]
        tail = model.loglik_trace[-20:]
        assert np.std(tail) < np.std(head)


class TestTopWords:
    def _model(self, beta, corpus):
        return FittedModel(beta_hat=beta,
                           theta_hat=np.full((1, beta.shape[0]), 1 / beta.shape[0]),
                           kinds=(TopicKind.SYMMETRIC,) * beta.shape[0],
                           loglik_trace=np.empty(0),
                           vocabulary=corpus.vocabulary)

    def test_single_word(self):
        corpus = build_corpus(["only"])
        model = self._model(np.array([[1.0]]), corpus)
        assert top_words(model, 0, 5) == ["only"]

    def test_uniform_row_breaks_ties_by_id(self):
        corpus = build_corpus(["c b a"])
        model = self._model(np.full((1, 3), 1 / 3), corpus)
        assert top_words(model, 0, 2) == ["c", "b"]

    def test_hand_distribution(self):
        corpus = build_corpus(["x y z"])
        model = self._model(np.array([[0.3, 0.5, 0.2]]), corpus)
        assert top_words(model, 0, 2) == ["y", "x"]

    def test_out_of_range(self):
        corpus = build_corpus(["a"])
        model = self._model(np.array([[1.0]]), corpus)
        with pytest.raises(ValueError):
            top_words(model, 1, 3)
        with pytest.raises(ValueError):
            top_words(model, 0, 0)


class TestHyperparameterSearch:
    def test_singleton_grid_equals_fit(self):
        corpus = random_corpus(seed=10, n_docs=20)
        cfg = ModelConfig(topics=3, iterations=20, seed=6)
        model, eta = hyperparameter_search(corpus, [0.5], [1.0], cfg)
        direct = fit(corpus, symmetric_prior(3, corpus.vocabulary.size, 1.0),
                     ModelConfig(topics=3, iterations=20, seed=6, alpha=0.5))
        assert np.array_equal(model.beta_hat, direct.beta_hat)
        assert np.array_equal(model.loglik_trace, direct.loglik_trace)
        assert eta == 1.0

    def test_pathological_alpha_loses(self):
        corpus, _ = two_topic_corpus(seed=2, docs_per_topic=20, doc_len=15)
        cfg = ModelConfig(topics=2, iterations=40, seed=1)
        model, eta = hyperparameter_search(corpus, [1.0, 1e9], [1.0], cfg)
        loser = fit(corpus, symmetric_prior(2, corpus.vocabulary.size, 1.0),
                    ModelConfig(topics=2, iterations=40, seed=1, alpha=1e9))
        assert loser.loglik_trace[-1] < model.loglik_trace[-1]
        assert (model.config.alpha, eta) == (1.0, 1.0)

    def test_alpha_major_and_first_best_kept(self):
        corpus = random_corpus(seed=1, n_docs=5)
        points, lls = [], {(0.1, 2.0): -1.0, (1.0, 0.5): -1.0}  # a tie for the best

        def scored(corpus, prior, config):
            points.append((config.alpha, float(prior.weights[0, 0])))
            return mock.Mock(loglik_trace=np.array([lls.get(points[-1], -5.0)]),
                             point=points[-1])
        with mock.patch("priorlda.sampler.fit", side_effect=scored):
            model, eta = hyperparameter_search(corpus, [0.1, 1.0], [0.5, 2.0],
                                               ModelConfig(topics=2, iterations=10))
        assert points == [(0.1, 0.5), (0.1, 2.0), (1.0, 0.5), (1.0, 2.0)]
        assert (model.point, eta) == ((0.1, 2.0), 2.0)

    def test_deterministic(self):
        corpus = random_corpus(seed=12, n_docs=15)
        cfg = ModelConfig(topics=2, iterations=15, seed=8)
        a_model, a_eta = hyperparameter_search(corpus, [0.1, 1.0], [0.5, 2.0], cfg)
        b_model, b_eta = hyperparameter_search(corpus, [0.1, 1.0], [0.5, 2.0], cfg)
        assert np.array_equal(a_model.beta_hat, b_model.beta_hat)
        assert np.array_equal(a_model.loglik_trace, b_model.loglik_trace)
        assert a_eta == b_eta

    def test_empty_grid_rejected(self):
        corpus = random_corpus(seed=1, n_docs=5)
        for alphas, etas in (([], []), ([1.0], []), ([], [1.0])):
            with pytest.raises(ValueError, match="hyperparameter grid is empty"):
                hyperparameter_search(corpus, alphas, etas, ModelConfig(topics=2, iterations=10))


@st.composite
def snapshot_cases(draw):
    """Documents (some empty, words often repeated), their assignments,
    eta rows, alpha and the seed of the per-document streams."""
    n_topics = draw(st.integers(1, 4))
    vocab_size = draw(st.integers(1, 5))
    docs = draw(st.lists(st.lists(st.integers(0, vocab_size - 1), max_size=7),
                         min_size=1, max_size=5))
    z_docs = [draw(st.lists(st.integers(0, n_topics - 1), min_size=len(doc),
                            max_size=len(doc))) for doc in docs]
    eta = draw(st.lists(st.lists(st.floats(1e-3, 10.0), min_size=vocab_size,
                                 max_size=vocab_size),
                        min_size=n_topics, max_size=n_topics))
    return docs, z_docs, eta, draw(st.floats(1e-3, 10.0)), draw(st.integers(0, 2**32 - 1))


class TestDocStreamSweeps:
    def _permute(self, corpus, order):
        docs = [corpus.documents[i] for i in order]
        words = corpus.vocabulary.id_to_word
        texts = [" ".join(words[t] for t in doc) for doc in docs]
        ids = [corpus.doc_ids[i] for i in order]
        return build_corpus(texts, doc_ids=ids)

    def test_count_totals_invariant_under_permutation(self):
        corpus = random_corpus(seed=3, n_docs=12)
        texts = [" ".join(corpus.vocabulary.id_to_word[t] for t in doc)
                 for doc in corpus.documents]
        base = build_corpus(texts, doc_ids=[f"d{i}" for i in range(12)])
        rng = np.random.default_rng(0)
        order = rng.permutation(12)
        permuted = self._permute(base, order)
        cfg = ModelConfig(topics=3, iterations=12, seed=5)
        states = []
        for corpus_variant in (base, permuted):
            prior = symmetric_prior(3, corpus_variant.vocabulary.size, 1.0)
            state = init(corpus_variant, prior, cfg)
            for _ in range(12):
                sweep(state, prior, 1.0)
            states.append(state)
        a, b = states
        # per-document token totals follow the documents; topic totals and the
        # grand total are conserved regardless of chain randomness
        assert (a.n_dk.sum(axis=1)[order] == b.n_dk.sum(axis=1)).all()
        assert a.n_k.sum() == b.n_k.sum() == base.n_tokens
        assert sorted(a.n_kw.sum(axis=0)) == sorted(b.n_kw.sum(axis=0))

    def test_snapshot_mode_is_document_order_independent(self):
        corpus = random_corpus(seed=4, n_docs=10, vocab_size=15)
        texts = [" ".join(corpus.vocabulary.id_to_word[t] for t in doc)
                 for doc in corpus.documents]
        base = build_corpus(texts, doc_ids=[f"doc{i}" for i in range(10)])
        order = list(np.random.default_rng(1).permutation(10))
        permuted = self._permute(base, order)
        # the permuted corpus rebuilds its vocabulary in a new first-occurrence
        # order; map word ids for comparison
        cfg = ModelConfig(topics=3, iterations=15, seed=7, doc_streams=True)
        prior_a = symmetric_prior(3, base.vocabulary.size, 1.0)
        prior_b = symmetric_prior(3, permuted.vocabulary.size, 1.0)
        model_a = fit(base, prior_a, cfg)
        model_b = fit(permuted, prior_b, cfg)
        remap = [permuted.vocabulary.word_to_id[w] for w in base.vocabulary.id_to_word]
        np.testing.assert_array_equal(model_a.beta_hat, model_b.beta_hat[:, remap])
        np.testing.assert_array_equal(model_b.theta_hat, model_a.theta_hat[order])

    @pytest.mark.parametrize("ids", [
        ["plumless", "buckeroo"],  # the same crc32, which once keyed the streams
        ["a", "\x00a"],            # the same integer value of their bytes
    ])
    def test_distinct_ids_get_distinct_streams(self, ids):
        corpus = build_corpus(["x y", "x y"], doc_ids=ids)
        a, b = _doc_generators(corpus, seed=3)
        assert a.random(4).tolist() != b.random(4).tolist()

    def test_snapshot_counts_consistent(self):
        corpus = random_corpus(seed=5, n_docs=20)
        prior = symmetric_prior(4, corpus.vocabulary.size, 0.5)
        cfg = ModelConfig(topics=4, iterations=10, seed=2, doc_streams=True)
        state = init(corpus, prior, cfg)
        for _ in range(5):
            sweep_snapshot(state, prior, 0.5)
            assert counts_match_assignments(state)

    @pytest.mark.parametrize("numpy_fallback", [False, True], ids=["default", "numpy"])
    @settings(max_examples=60, deadline=None)
    @given(case=snapshot_cases())
    @example(case=([[0, 0, 1], [], [1, 1]], [[0, 0, 0], [], [0, 0]], [[0.5, 2.0]], 0.3, 5))
    def test_snapshot_sweeps_match_oracle(self, numpy_fallback, case):
        # K=1, an empty document and repeated words in the example above
        docs, z_docs, eta, alpha, seed = case
        eta = np.array(eta)
        n_topics, vocab_size = eta.shape
        tokens, doc_ix, z, n_dk, n_wk, n_k, prior = _sweep_args(
            [w for doc in docs for w in doc], [len(doc) for doc in docs],
            n_topics, vocab_size, [k for zs in z_docs for k in zs], eta)
        lengths = np.array([len(doc) for doc in docs], dtype=np.int64)
        state = ModelState(tokens=tokens, doc_ix=doc_ix, doc_lengths=lengths, z=z,
                           n_dk=n_dk, n_wk=n_wk, n_k=n_k, rng=np.random.default_rng(0),
                           doc_rngs=[np.random.default_rng([seed, d]) for d in range(len(docs))],
                           doc_starts=np.concatenate([[0], np.cumsum(lengths)]))
        sweeps = 4
        kernel = None if numpy_fallback else _kernels._sweep_c
        with mock.patch.object(_kernels, "_sweep_c", kernel):
            for _ in range(sweeps):
                sweep_snapshot(state, prior, alpha)
        gens = [np.random.default_rng([seed, d]) for d in range(len(docs))]
        uniforms = [[gen.random(len(doc)) if doc else np.empty(0)
                     for gen, doc in zip(gens, docs)] for _ in range(sweeps)]
        want_z, *want_counts = snapshot_sweeps(_kernels._sweep_py, docs, z_docs, prior,
                                               alpha, uniforms)
        assert state.z.tolist() == [k for zs in want_z for k in zs.tolist()]
        for got, want in zip((state.n_dk, state.n_kw, state.n_k), want_counts):
            assert got.dtype == np.int32 and (got == want).all()

    def test_snapshot_requires_doc_streams(self):
        corpus = random_corpus(seed=5, n_docs=5)
        prior = symmetric_prior(2, corpus.vocabulary.size, 1.0)
        state = init(corpus, prior, ModelConfig(topics=2, iterations=10, seed=0))
        with pytest.raises(ValueError):
            sweep_snapshot(state, prior, 1.0)


class TestHeldoutPerplexity:
    def test_better_model_scores_lower(self):
        train, planted = two_topic_corpus(seed=6, docs_per_topic=30)
        heldout_texts = []
        rng = np.random.default_rng(17)
        words = train.vocabulary.id_to_word
        for k in (0, 1):
            ids = np.flatnonzero(planted[k])
            for _ in range(10):
                heldout_texts.append(" ".join(words[i] for i in rng.choice(ids, size=12)))
        heldout = build_corpus(heldout_texts)
        good = fit(train, symmetric_prior(2, train.vocabulary.size, 1.0),
                   ModelConfig(topics=2, iterations=100, seed=0))
        bad = fit(train, symmetric_prior(2, train.vocabulary.size, 1.0),
                  ModelConfig(topics=2, iterations=1, burn_in=0, seed=0))
        p_good = heldout_perplexity(good, heldout, sweeps=20, seed=1)
        p_bad = heldout_perplexity(bad, heldout, sweeps=20, seed=1)
        assert 1.0 < p_good < p_bad

    def test_model_without_config_rejected(self):
        # estimate records no config, so the alpha to fold in at is unknown
        corpus, _ = two_topic_corpus(seed=6, docs_per_topic=10)
        prior = symmetric_prior(2, corpus.vocabulary.size, 1.0)
        state = init(corpus, prior, ModelConfig(topics=2, iterations=1, seed=0))
        model = estimate(state, prior, 0.05, vocabulary=corpus.vocabulary)
        with pytest.raises(ValueError, match="no config"):
            heldout_perplexity(model, corpus, sweeps=2)

    @pytest.mark.parametrize("sweeps", [0, -3])
    def test_sweeps_below_one_rejected(self, sweeps):
        # no sweep would score the random start of the fold-in
        corpus, _ = two_topic_corpus(seed=6, docs_per_topic=10)
        model = fit(corpus, symmetric_prior(2, corpus.vocabulary.size, 1.0),
                    ModelConfig(topics=2, iterations=5, seed=0))
        with pytest.raises(ValueError, match=f"sweeps must be at least 1, got {sweeps}"):
            heldout_perplexity(model, corpus, sweeps=sweeps)
