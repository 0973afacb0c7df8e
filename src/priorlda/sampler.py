"""Collapsed Gibbs sampling for LDA with per-topic Dirichlet weight rows.

Topic assignments are resampled token by token from the collapsed
conditional p(z=k | rest), which is proportional to

    (n_dk + alpha) * (n_kw + eta_kw) / (n_k + sum_v eta_kv)

with all counts excluding the token being resampled. The per-topic eta rows
come from a PriorMatrix, so heterogeneous priors drop in with no change to
the inference. ``hyperparameter_search`` is the symmetric baseline: it fits
an alpha x eta grid and keeps the most likely model and its eta.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import _kernels
from .corpus import Corpus, Vocabulary, check_version, write_json
from .priors import PriorMatrix, TopicKind, symmetric_prior

MODEL_FORMAT_VERSION = 1


class DimensionMismatch(ValueError):
    """Prior, corpus, and config disagree about K or V."""


@dataclass(frozen=True)
class ModelConfig:
    """Sampler settings. ``burn_in`` defaults to half the iterations.

    With ``average_estimates`` the returned estimates are posterior means over
    all post-burn-in sweeps instead of the final sample. ``doc_streams``
    switches to one RNG stream per document and sweep-start snapshots of the
    topic counts, making sweeps document-order independent (and document-
    parallelizable); the default is the strictly sequential exact sweep.
    """

    topics: int = 20
    alpha: float = 1.0
    iterations: int = 200
    burn_in: int | None = None
    seed: int = 0
    average_estimates: bool = False
    doc_streams: bool = False

    def __post_init__(self):
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.iterations // 2)
        if self.topics < 1:
            raise ValueError("topics must be >= 1")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, not {self.alpha}")
        if not self.iterations > self.burn_in >= 0:
            raise ValueError("need iterations > burn_in >= 0")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        return cls(**data)


@dataclass(eq=False)
class ModelState:
    """Token-level assignments and the count arrays the sweeps maintain."""

    tokens: np.ndarray        # flat token ids (the corpus's read-only stream)
    doc_ix: np.ndarray        # document index per token
    doc_lengths: np.ndarray
    z: np.ndarray             # topic per token
    n_dk: np.ndarray          # (D, K)
    n_wk: np.ndarray          # (V, K), C-contiguous int32, as the sweep kernel takes it
    n_k: np.ndarray           # (K,)
    rng: np.random.Generator
    doc_rngs: list[np.random.Generator] | None = None
    doc_starts: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.n_wk.ndim != 2 or self.n_wk.shape[1] != self.n_k.shape[0]:
            raise ValueError(f"n_wk is {self.n_wk.shape}, not (V, K) for n_k of {self.n_k.shape}")

    @property
    def n_kw(self) -> np.ndarray:
        """The word-topic counts as a (K, V) view of n_wk; not assignable."""
        return self.n_wk.T

    @property
    def n_topics(self) -> int:
        return self.n_k.shape[0]


def _doc_generators(corpus: Corpus, seed: int) -> list[np.random.Generator]:
    """One independent, reproducible stream per document.

    Streams are keyed by doc_id when present (so they follow the document
    under reordering), by position otherwise. An id keys its stream by its
    full UTF-8 bytes and their length, so distinct ids never share a key.
    """
    gens = []
    for d in range(corpus.n_docs):
        if corpus.doc_ids is not None:
            raw = corpus.doc_ids[d].encode("utf-8")
            key = [seed, len(raw), int.from_bytes(raw, "big")]
        else:
            key = [seed, d]
        gens.append(np.random.Generator(np.random.PCG64(np.random.SeedSequence(key))))
    return gens


def tabulate(tokens: np.ndarray, doc_ix: np.ndarray, z: np.ndarray,
             n_docs: int, n_topics: int, vocab_size: int):
    """Recount n_dk, n_wk, n_k directly from the assignments; n_wk is the
    C-contiguous word-major (V, K) table the sweep kernel takes."""
    # one bincount per table over flat cell indices, taken in int64 so that
    # D*K and V*K cannot overflow
    z = z.astype(np.int64)

    def count(cells, shape):
        return np.bincount(cells, minlength=int(np.prod(shape))).astype(np.int32).reshape(shape)

    return (count(doc_ix.astype(np.int64) * n_topics + z, (n_docs, n_topics)),
            count(tokens.astype(np.int64) * n_topics + z, (vocab_size, n_topics)),
            count(z, (n_topics,)))


def init(corpus: Corpus, prior: PriorMatrix, config: ModelConfig) -> ModelState:
    """Assign every token a uniformly random topic and tabulate counts."""
    if prior.vocab_size != corpus.vocabulary.size:
        raise DimensionMismatch(
            f"prior covers {prior.vocab_size} words, corpus has {corpus.vocabulary.size}")
    if prior.n_topics != config.topics:
        raise DimensionMismatch(
            f"prior has {prior.n_topics} topics, config wants {config.topics}")
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lengths = np.diff(corpus.offsets)
    doc_rngs = _doc_generators(corpus, config.seed) if config.doc_streams else None
    if doc_rngs is not None:
        # initial assignments come from the per-document streams so that the
        # whole chain follows a document under reordering
        z = np.concatenate([gen.integers(0, config.topics, int(length))
                            for gen, length in zip(doc_rngs, lengths)]).astype(np.int32)
    else:
        z = rng.integers(0, config.topics, corpus.n_tokens).astype(np.int32)
    n_dk, n_wk, n_k = tabulate(corpus.tokens, corpus.doc_ix, z, corpus.n_docs,
                               config.topics, corpus.vocabulary.size)
    return ModelState(tokens=corpus.tokens, doc_ix=corpus.doc_ix, doc_lengths=lengths, z=z,
                      n_dk=n_dk, n_wk=n_wk, n_k=n_k, rng=rng,
                      doc_rngs=doc_rngs, doc_starts=corpus.offsets)


def sweep(state: ModelState, prior: PriorMatrix, alpha: float) -> ModelState:
    """Resample every token once, in document order, updating counts in place."""
    uniforms = state.rng.random(state.tokens.shape[0])
    _kernels.sweep_tokens(state.tokens, state.doc_ix, state.z,
                          state.n_dk, state.n_wk, state.n_k,
                          prior.weights_by_word, prior.row_sums, alpha, uniforms)
    return state


def sweep_snapshot(state: ModelState, prior: PriorMatrix, alpha: float) -> ModelState:
    """Document-order-independent sweep.

    Each document is resampled against a sweep-start snapshot of the topic
    counts plus its own changes, drawing randomness from its own stream.
    Equivalent under any document ordering or parallel schedule. The
    per-document step runs the sequential kernel ``sweep_tokens`` on the
    counts and then puts the snapshot back.
    """
    if state.doc_rngs is None:
        raise ValueError("snapshot sweeps need doc_streams=True at init")
    wk_snap = state.n_wk.copy()
    k_snap = state.n_k.copy()
    for d in np.flatnonzero(state.doc_lengths).tolist():
        lo, hi = state.doc_starts[d], state.doc_starts[d + 1]
        uniforms = state.doc_rngs[d].random(int(hi - lo))
        _kernels.sweep_doc_snapshot(state.tokens[lo:hi], state.z[lo:hi], state.n_dk[d],
                                    state.n_wk, state.n_k, wk_snap, k_snap,
                                    prior.weights_by_word, prior.row_sums, alpha, uniforms)
    state.n_dk, state.n_wk, state.n_k = tabulate(
        state.tokens, state.doc_ix, state.z, len(state.doc_lengths), state.n_topics, len(wk_snap))
    return state


def log_likelihood(state: ModelState, prior: PriorMatrix, alpha: float) -> float:
    """Collapsed joint log p(w, z | alpha, eta): a product of
    Dirichlet-multinomial normalizers over documents and topics.

    Two kernel calls compute every gammaln term. One takes the short
    arguments in one array: K alpha, alpha, the row sums, n_k plus the row
    sums, the document lengths plus K alpha, and alpha plus each count
    0..max n_dk, so the document cells read a table by count. The other
    writes the (K, V) word-topic cells, where an empty cell is exactly 0.0,
    gammaln(0 + eta) - gammaln(eta), since PriorMatrix keeps gammaln(eta)
    finite. Both are summed as full C-order arrays: the dense formula's bits.
    """
    k_total, n_docs = state.n_topics, len(state.doc_lengths)
    g = _kernels.gammaln(np.concatenate((
        [k_total * alpha, alpha], prior.row_sums, state.n_k + prior.row_sums,
        state.doc_lengths + k_total * alpha, np.arange(state.n_dk.max(initial=0) + 1) + alpha)))
    docs_at = 2 + 2 * k_total
    doc_part = float((g[0] - g[docs_at:docs_at + n_docs]).sum())
    by_count = g[docs_at + n_docs:] - g[1]
    doc_part += float(by_count.take(state.n_dk).sum())
    topic_part = float((g[2:2 + k_total] - g[2 + k_total:docs_at]).sum())
    topic_part += float(_kernels.gammaln_cells(state.n_wk, prior.weights).sum())
    return doc_part + topic_part


def _point_estimates(state: ModelState, prior: PriorMatrix, alpha: float):
    """beta_hat[k,w] = (n_kw + eta_kw) / (n_k + sum_v eta_kv) and theta_hat[d,k] =
    (n_dk + alpha) / (len_d + K alpha) of the current sample. A topic with no
    counts comes out as exactly its normalized prior row."""
    beta = (state.n_kw + prior.weights) / (state.n_k + prior.row_sums)[:, None]
    k_total = state.n_topics
    theta = (state.n_dk + alpha) / (state.doc_lengths + k_total * alpha)[:, None]
    return beta, theta


@dataclass(eq=False)
class FittedModel:
    """Posterior point estimates plus the labels, trace and vocabulary of the fit."""

    beta_hat: np.ndarray              # (K, V) topic-word, rows sum to 1
    theta_hat: np.ndarray             # (D, K) doc-topic, rows sum to 1
    kinds: tuple[TopicKind, ...]
    loglik_trace: np.ndarray
    config: ModelConfig | None = None
    vocabulary: Vocabulary = field(kw_only=True)

    def __post_init__(self):
        for name, rows in (("beta_hat", self.beta_hat), ("theta_hat", self.theta_hat)):
            if not (rows > 0).all():
                raise ValueError(f"{name} must be strictly positive")
            if np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError(f"{name} rows must sum to 1")
        k_total, v_total = self.beta_hat.shape
        for got, want, what in ((len(self.kinds), k_total, "topic kinds"),
                                (self.theta_hat.shape[1], k_total, "theta_hat columns"),
                                (self.vocabulary.size, v_total, "vocabulary words")):
            if got != want:
                raise ValueError(f"{got} {what} for a {k_total}x{v_total} beta_hat")

    @property
    def n_topics(self) -> int:
        return self.beta_hat.shape[0]

    def _parts(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The JSON fields in file order: plain values, then float arrays."""
        return ({"version": MODEL_FORMAT_VERSION,
                 "config": self.config.to_json() if self.config else None,
                 "kinds": [k.value for k in self.kinds]},
                {"beta_hat": self.beta_hat, "theta_hat": self.theta_hat,
                 "loglik_trace": self.loglik_trace})

    def to_json(self) -> dict:
        fields, arrays = self._parts()
        return {**fields, **{name: a.tolist() for name, a in arrays.items()}}

    @classmethod
    def from_json(cls, data: dict, vocabulary: Vocabulary) -> "FittedModel":
        check_version(data, MODEL_FORMAT_VERSION, "model")
        return cls(
            beta_hat=np.asarray(data["beta_hat"], dtype=np.float64),
            theta_hat=np.asarray(data["theta_hat"], dtype=np.float64),
            kinds=tuple(TopicKind(k) for k in data["kinds"]),
            loglik_trace=np.asarray(data["loglik_trace"], dtype=np.float64),
            config=ModelConfig.from_json(data["config"]) if data.get("config") else None,
            vocabulary=vocabulary,
        )


def fit(corpus: Corpus, prior: PriorMatrix, config: ModelConfig) -> FittedModel:
    """Initialize, run the configured sweeps, and estimate.

    Deterministic given the seed: the same inputs produce a bit-identical
    model. The joint log-likelihood is recorded after every sweep.
    """
    state = init(corpus, prior, config)
    sweep_fn = sweep_snapshot if config.doc_streams else sweep
    trace = np.empty(config.iterations)
    beta_acc = theta_acc = 0.0
    for i in range(config.iterations):
        sweep_fn(state, prior, config.alpha)
        trace[i] = log_likelihood(state, prior, config.alpha)
        if config.average_estimates and i >= config.burn_in:
            beta, theta = _point_estimates(state, prior, config.alpha)
            beta_acc += beta  # the first sum, 0.0 + beta, is beta bit for bit
            theta_acc += theta
    if config.average_estimates:
        n_averaged = config.iterations - config.burn_in
        beta, theta = beta_acc / n_averaged, theta_acc / n_averaged
    else:
        beta, theta = _point_estimates(state, prior, config.alpha)
    return FittedModel(beta_hat=beta, theta_hat=theta, kinds=prior.kinds,
                       loglik_trace=trace, config=config, vocabulary=corpus.vocabulary)


def top_words(model: FittedModel, topic: int, n: int = 30) -> list[str]:
    """The n most probable words of a topic, ties broken by ascending word id."""
    if not 0 <= topic < model.n_topics:
        raise ValueError(f"topic index {topic} out of range")
    if n < 1:
        raise ValueError("n must be >= 1")
    order = np.argsort(-model.beta_hat[topic], kind="stable")[:n]
    return [model.vocabulary.id_to_word[i] for i in order]


def hyperparameter_search(corpus: Corpus, alphas: list[float], etas: list[float],
                          config: ModelConfig) -> tuple[FittedModel, float]:
    """Fit one symmetric-prior model per (alpha, eta) point, alpha-major, and
    return the one with the highest final joint log-likelihood and its eta.
    Ties go to the earlier point, so the search is deterministic."""
    if not (alphas and etas):
        raise ValueError("hyperparameter grid is empty")
    best, best_ll = None, -np.inf
    for a in alphas:
        for e in etas:
            prior = symmetric_prior(config.topics, corpus.vocabulary.size, e)
            model = fit(corpus, prior, replace(config, alpha=a))
            if model.loglik_trace[-1] > best_ll:
                best, best_ll = (model, e), model.loglik_trace[-1]
    return best


def heldout_perplexity(model: FittedModel, corpus: Corpus,
                       sweeps: int = 50, seed: int = 0) -> float:
    """Per-word predictive perplexity on a corpus not used for fitting.

    Held-out words are matched by string against the model vocabulary;
    out-of-vocabulary tokens are dropped. Document mixtures are folded in by
    Gibbs passes that hold beta_hat fixed, at the alpha of the model's
    config, then perplexity is exp(-mean log p(w | theta_d, beta)).
    """
    if model.config is None:
        raise ValueError("model has no config attached, so its alpha is unknown")
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    beta = model.beta_hat
    k_total = beta.shape[0]
    word_to_id = model.vocabulary.word_to_id
    heldout_words = corpus.vocabulary.id_to_word
    alpha = model.config.alpha
    rng = np.random.Generator(np.random.PCG64(seed))
    log_total = 0.0
    n_tokens = 0
    for raw_doc in corpus.documents:
        doc = np.array([word_to_id[heldout_words[t]] for t in raw_doc
                        if heldout_words[t] in word_to_id], dtype=np.int64)
        if doc.size == 0:
            continue
        z = rng.integers(0, k_total, doc.size)
        n_dk = np.bincount(z, minlength=k_total).astype(np.float64)
        for _ in range(sweeps):
            for t, w in enumerate(doc):
                n_dk[z[t]] -= 1
                p = (n_dk + alpha) * beta[:, w]
                p /= p.sum()
                z[t] = rng.choice(k_total, p=p)
                n_dk[z[t]] += 1
        theta = (n_dk + alpha) / (doc.size + k_total * alpha)
        log_total += float(np.log(theta @ beta[:, doc]).sum())
        n_tokens += int(doc.size)
    if n_tokens == 0:
        raise ValueError("no held-out token matches the model vocabulary")
    return float(np.exp(-log_total / n_tokens))


def save_model(model: FittedModel, path: str | Path) -> None:
    """Write ``json.dumps(model.to_json(), separators=(",", ":")) + "\\n"``,
    byte for byte, through ``write_json``: each array a block of rows at a
    time, each block in one C pass or, with a value it cannot format exactly,
    by ``json.dumps``."""
    write_json(path, *model._parts())


def load_model(path: str | Path, vocabulary: Vocabulary) -> FittedModel:
    return FittedModel.from_json(json.loads(Path(path).read_text(encoding="utf-8")),
                                 vocabulary=vocabulary)
