"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Sampling-based criteria use fixed seeds throughout.
"""

import json
import math
import time

import numpy as np

from priorlda.corpus import build_corpus, compute_stats
from priorlda.experiments import (ExperimentPlan, PlanResources, Variant,
                                  correlation_data, run_grid)
from priorlda.metrics import MetricConfig, coherence, log_lift, pmi_score, report
from priorlda.priors import (PriorMatrix, TopicKind, keyword_prior,
                             stopword_prior, symmetric_prior, tfidf_prior,
                             wordfreq_prior)
from priorlda.sampler import (FittedModel, ModelConfig, fit, init, sweep, tabulate,
                              top_words)

from .conftest import ALICE_KEYWORDS, ALICE_TEXTS
from .helpers import correlation, estimate, row_model
from .oracles import (enumerate_posterior, greedy_align_cosine, naive_coherence,
                      naive_log_lift, naive_pmi, reference_prior_data,
                      reference_prior_rows)
from .synthetic import (pathology_corpus, planted_stopword_corpus,
                        random_corpus, texts, two_topic_corpus)

# fitted models collected by the criteria below; criterion 9 audits them all
FITTED_MODELS: list[FittedModel] = []


def _criterion(num: int, description: str, passed: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_sampler_exactness():
    """Gibbs marginal against exhaustive enumeration on a 6-token corpus."""
    start = time.perf_counter()
    corpus = build_corpus(["a a b", "c c b"])
    prior = symmetric_prior(2, 3, 1.0)
    token_docs = [doc.tolist() for doc in corpus.documents]
    exact = enumerate_posterior(token_docs, prior.weights, 1.0)
    want = sum(p for z, p in exact.items() if z[0] == z[1])

    state = init(corpus, prior, ModelConfig(topics=2, iterations=10, seed=2024))
    burn, keep = 2000, 20000
    hits = 0
    for i in range(burn + keep):
        sweep(state, prior, 1.0)
        if i >= burn:
            hits += int(state.z[0] == state.z[1])
    got = hits / keep
    FITTED_MODELS.append(estimate(state, prior, 1.0, vocabulary=corpus.vocabulary))
    elapsed = time.perf_counter() - start
    _criterion(1, "Gibbs matches exact enumeration within 0.02",
               abs(got - want) < 0.02 and elapsed < 30.0,
               f"gibbs={got:.4f} exact={want:.4f} runtime={elapsed:.1f}s")


def test_criterion_2_count_conservation():
    """Zero count violations over 200 sweeps on a 1,000-document corpus."""
    corpus = random_corpus(seed=42, n_docs=1000, vocab_size=60, min_len=5, max_len=12)
    prior = symmetric_prior(10, corpus.vocabulary.size, 0.5)
    state = init(corpus, prior, ModelConfig(topics=10, iterations=10, seed=7))
    lengths = np.array([d.size for d in corpus.documents])
    violations = 0
    for _ in range(200):
        sweep(state, prior, 0.8)
        ok_docs = (state.n_dk.sum(axis=1) == lengths).all()
        ok_topics = (state.n_kw.sum(axis=1) == state.n_k).all()
        n_dk, n_wk, n_k = tabulate(state.tokens, state.doc_ix, state.z,
                                   corpus.n_docs, 10, corpus.vocabulary.size)
        ok_recount = ((state.n_dk == n_dk).all() and (state.n_wk == n_wk).all()
                      and (state.n_k == n_k).all())
        if not (ok_docs and ok_topics and ok_recount):
            violations += 1
    FITTED_MODELS.append(estimate(state, prior, 0.8, vocabulary=corpus.vocabulary))
    _criterion(2, "count conservation over 200 sweeps on 1,000 documents",
               violations == 0, f"violations={violations}")


def test_criterion_3_planted_topic_recovery():
    """K=2 fit recovers two disjoint planted vocabularies in >= 9 of 10 seeds."""
    corpus, planted = two_topic_corpus(seed=100, docs_per_topic=50, doc_len=20)
    prior = symmetric_prior(2, corpus.vocabulary.size, 1.0)
    successes = 0
    for seed in range(10):
        model = fit(corpus, prior, ModelConfig(topics=2, iterations=120, seed=seed))
        sims = greedy_align_cosine(model.beta_hat, planted)
        if min(sims) > 0.9:
            successes += 1
        FITTED_MODELS.append(model)
    _criterion(3, "planted two-topic recovery with cosine > 0.9 in >= 9/10 seeds",
               successes >= 9, f"successes={successes}/10")


def test_criterion_4_metric_pathology():
    """A hand-built topic of universal words outscores every cluster topic on
    coherence and smoothed in-corpus PMI while scoring strictly lower lift.

    Deterministic, no sampling. The all-stopword topic concentrates on the 5
    universal words, so its evaluation window under M=10 is its full 5-word
    support; cluster topics evaluate their full 10-word vocabularies.
    """
    planted = pathology_corpus(n_docs=500)
    stats = compute_stats(planted.corpus)
    vocab = planted.corpus.vocabulary

    def concentrated(support):
        mass = 1.0 - 1e-6
        row = np.full(vocab.size, 1e-6 / (vocab.size - len(support)))
        for rank, w in enumerate(support):
            row[vocab.word_to_id[w]] = mass / len(support) + (len(support) - rank) * 1e-9
        return row / row.sum()

    rows = [concentrated(planted.stopwords)]
    rows += [concentrated(cluster) for cluster in planted.clusters]
    model = FittedModel(beta_hat=np.stack(rows),
                        theta_hat=np.full((1, 6), 1 / 6),
                        kinds=(TopicKind.STOPWORD,) + (TopicKind.TFIDF,) * 5,
                        loglik_trace=np.empty(0), vocabulary=vocab)

    stop_words = planted.stopwords[:10]
    stop_coherence = coherence(stop_words, stats)
    stop_pmi = pmi_score(stop_words, stats)
    stop_lift = log_lift(model, 0, stats, n_lift=len(stop_words))
    passed = True
    details = [f"stop: coh={stop_coherence:.3f} pmi={stop_pmi:.3f} lift={stop_lift:.3f}"]
    for j, cluster in enumerate(planted.clusters, start=1):
        cluster_words = cluster[:10]
        c_coherence = coherence(cluster_words, stats)
        c_pmi = pmi_score(cluster_words, stats)
        c_lift = log_lift(model, j, stats, n_lift=len(cluster_words))
        passed &= stop_coherence > c_coherence
        passed &= stop_pmi > c_pmi
        passed &= stop_lift < c_lift
    details.append(f"cluster1: coh={coherence(planted.clusters[0], stats):.3f} "
                   f"pmi={pmi_score(planted.clusters[0], stats):.3f} "
                   f"lift={log_lift(model, 1, stats, 10):.3f}")
    _criterion(4, "universal-word topic beats clusters on coherence/PMI, loses on lift",
               passed, "; ".join(details))


def _planted_resources():
    planted = planted_stopword_corpus(seed=0)
    return planted, PlanResources(
        corpus=planted.corpus,
        stoplist=list(planted.stopwords),
        whitelist=[w for cluster in planted.clusters for w in cluster],
    )


def test_criterion_5_directional_stopword_drop():
    """TF-IDF prior model versus the no-deletion baseline on the planted
    stopword corpus: domain-topic stopword rate at most half the baseline's,
    and >= 4 of 5 planted universal words in the stopword topic's top 10, in
    >= 8 of 10 seeds. Defaults K=20, c1=c2=1, one stopword topic."""
    planted, resources = _planted_resources()
    plan = ExperimentPlan(corpus="unused", variants=[Variant.TFIDF_PRIOR, Variant.NO_DELETION],
                          topics=[20], iterations=[500], alpha=0.2, c1=[1.0], c2=[1.0],
                          stopword_topics=1, seeds=list(range(10)))
    result = run_grid(plan, resources=resources,
                      metric_config=MetricConfig(m_small=5, m_large=10))
    assert not result.failures, [f.error for f in result.failures]
    ok_ratio = 0
    ok_stop_topic = 0
    # plan order: the ten TF-IDF prior runs, then the ten baseline runs
    for prior_rec, base_rec in zip(result.records[:10], result.records[10:], strict=True):
        assert prior_rec.seed == base_rec.seed
        FITTED_MODELS.extend([prior_rec.model, base_rec.model])
        domain_rate = prior_rec.report.domain_means["stopword_rate"]
        baseline_rate = base_rec.report.model_means["stopword_rate"]
        if domain_rate <= baseline_rate / 2:
            ok_ratio += 1
        stop_top = top_words(prior_rec.model, 0, 10)
        if len(set(stop_top) & set(planted.stopwords)) >= 4:
            ok_stop_topic += 1
    _criterion(5, "TF-IDF prior halves stopword rate and sequesters stopwords "
                  "in >= 8/10 seeds",
               ok_ratio >= 8 and ok_stop_topic >= 8,
               f"rate-halved={ok_ratio}/10 stop-topic-captured={ok_stop_topic}/10")


def _write_planted(tmp_path, **corpus_kwargs):
    planted = planted_stopword_corpus(seed=0, **corpus_kwargs)
    corpus_path = tmp_path / "corpus.jsonl"
    lines = [json.dumps({"id": f"d{i}", "text": text})
             for i, text in enumerate(texts(planted.corpus))]
    corpus_path.write_text("\n".join(lines) + "\n")
    stop_path = tmp_path / "stop.txt"
    stop_path.write_text("\n".join(planted.stopwords) + "\n")
    white_path = tmp_path / "white.txt"
    white_path.write_text("\n".join(w for c in planted.clusters for w in c) + "\n")
    return planted, corpus_path, stop_path, white_path


def test_criterion_6_correlation_directions(tmp_path):
    """Across the full variant set on a planted corpus, log lift correlates
    negatively with stopword rate and positively with expert rate, while
    coherence correlates non-negatively with stopword rate.

    This corpus carries 10 universal words and patchy cluster co-occurrence
    (window 3), so stop-dominated topics evaluate on pure universal-word
    lists. Coherence is asserted at the 5-word evaluation window, which stays
    inside the universal-word support for stop-heavy topics.
    """
    planted, corpus_path, stop_path, white_path = _write_planted(
        tmp_path, n_stopwords=10, cluster_window=3)
    plan = ExperimentPlan(
        corpus=str(corpus_path),
        variants=list(Variant),
        topics=[20], iterations=[300], seeds=[1, 2], alpha=0.2,
        tfidf_topics=[9], keyword_topics=[10],
        stoplist=str(stop_path), whitelist=str(white_path),
        hyper_alphas=[0.2, 1.0], hyper_etas=[0.1, 1.0],
    )
    metric_cfg = MetricConfig(m_small=5, m_large=10)
    result = run_grid(plan, metric_config=metric_cfg)
    records = result.records
    assert not result.failures, [f.error for f in result.failures]
    FITTED_MODELS.extend(r.model for r in records)
    data = correlation_data(records)
    lift_vs_stop = correlation(data, "log_lift", "stopword_rate")
    lift_vs_expert = correlation(data, "log_lift", "expert_rate")
    coh_vs_stop = correlation(data, "coherence_10", "stopword_rate")
    passed = (lift_vs_stop is not None and lift_vs_stop < 0
              and lift_vs_expert is not None and lift_vs_expert > 0
              and coh_vs_stop is not None and coh_vs_stop >= 0)
    _criterion(6, "lift anti-correlates with stopword rate, correlates with "
                  "expert rate; coherence does not",
               passed,
               f"lift/stop={lift_vs_stop:.2f} lift/expert={lift_vs_expert:.2f} "
               f"coherence/stop={coh_vs_stop:.2f}")


def test_criterion_7_metric_oracles():
    """Optimized metric implementations equal naive double-loop references
    within 1e-12 on 50 random corpora. Lift is ``report``'s own column, for a
    one-topic model of the random row, over that model's top m words."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(50):
        vocab_size = int(rng.integers(10, 201))
        n_docs = int(rng.integers(5, 101))
        words = [f"w{i}" for i in range(vocab_size)]
        docs = [" ".join(rng.choice(words, size=rng.integers(3, 15)))
                for _ in range(n_docs)]
        corpus = build_corpus(docs)
        stats = compute_stats(corpus)
        token_docs = [d.split() for d in docs]
        m = min(int(rng.integers(2, 11)), corpus.vocabulary.size)
        top = list(rng.choice(corpus.vocabulary.id_to_word, size=m, replace=False))
        row = rng.uniform(1e-4, 1.0, size=corpus.vocabulary.size)
        row /= row.sum()
        model = row_model([row], corpus.vocabulary)
        lift_top = top_words(model, 0, m)
        probs = {w: row[corpus.vocabulary.word_to_id[w]] for w in lift_top}
        lift = report(model, stats, (), (),
                      MetricConfig(m_small=m, m_large=m)).per_topic[0].log_lift
        diffs = (
            abs(coherence(top, stats) - naive_coherence(top, token_docs)),
            abs(pmi_score(top, stats) - naive_pmi(top, token_docs)),
            abs(lift - naive_log_lift(lift_top, probs, token_docs)),
        )
        worst = max(worst, *diffs)
    _criterion(7, "coherence/PMI/lift match naive references on 50 corpora",
               worst < 1e-12, f"worst |diff|={worst:.2e}")


def test_criterion_8_reference_code_conformance():
    """Corpus statistics and prior builders reproduce the reference
    word-statistics code on the short wonderland text within 1e-9, modulo the
    documented keyword-row deviation (positive weights on non-keywords)."""
    corpus = build_corpus(ALICE_TEXTS)
    stats = compute_stats(corpus)
    token_docs = [t.lower().split() for t in ALICE_TEXTS]
    ref = reference_prior_data(token_docs, ALICE_KEYWORDS)
    vocab_words = corpus.vocabulary.id_to_word
    ref_rows = reference_prior_rows(ref, vocab_words, c1=1.0, c2=1.0)

    ok = True
    worst = 0.0
    for w, i in corpus.vocabulary.word_to_id.items():
        idf = math.log(stats.n_docs / stats.doc_freq[i])
        for got, want in ((stats.word_freq[i], ref[w]["wf"]),
                          (idf, ref[w]["idf"]),
                          (stats.avg_tfidf[i], ref[w]["tfidf"])):
            worst = max(worst, abs(got - want))
            ok &= abs(got - want) <= 1e-9

    stop_row = stopword_prior(corpus.vocabulary.size)
    wf_row = wordfreq_prior(stats)
    ti_row = tfidf_prior(stats, c1=1.0)
    kw_row = keyword_prior(corpus.vocabulary, ALICE_KEYWORDS, c2=1.0, boost=100.0)
    ok &= np.allclose(stop_row, ref_rows["stopword"], atol=1e-9)
    ok &= np.allclose(wf_row, ref_rows["wordfreq"], atol=1e-9)
    ok &= np.allclose(ti_row, ref_rows["tfidf"], atol=1e-9)
    # keyword row: the reference gives keywords c2 and everything else 0; the
    # package boosts keywords to c2*boost and keeps c2 elsewhere
    ref_kw = np.asarray(ref_rows["keyword"])
    ok &= ((ref_kw > 0) == (kw_row == 100.0)).all()
    ok &= (kw_row[ref_kw == 0] == 1.0).all()
    _criterion(8, "statistics and prior rows reproduce the reference code",
               bool(ok), f"worst |diff|={worst:.2e}")


def test_criterion_9_estimator_normalization():
    """Every collected model has stochastic rows; a zero-count topic equals
    its normalized prior row exactly."""
    assert FITTED_MODELS, "earlier criteria must register fitted models"
    worst = 0.0
    for model in FITTED_MODELS:
        worst = max(worst,
                    float(np.abs(model.beta_hat.sum(axis=1) - 1).max()),
                    float(np.abs(model.theta_hat.sum(axis=1) - 1).max()))
    ok = worst < 1e-9

    corpus = build_corpus(["a"])
    prior = PriorMatrix(np.array([[2.0], [3.0], [5.0]]), (TopicKind.SYMMETRIC,) * 3)
    state = init(corpus, prior, ModelConfig(topics=3, iterations=10, seed=0))
    model = estimate(state, prior, 1.0, vocabulary=corpus.vocabulary)
    exact = True
    for k in range(3):
        if state.n_k[k] == 0:
            expected = prior.weights[k] / prior.weights[k].sum()
            exact &= bool(np.array_equal(model.beta_hat[k], expected))
    _criterion(9, "row normalization across all runs; prior-only topics exact",
               ok and exact,
               f"models={len(FITTED_MODELS)} worst row-sum dev={worst:.2e}")


def test_criterion_10_reproducible_experiment_csv(tmp_path):
    """`experiment` run twice with one plan produces byte-identical
    comparison CSVs."""
    from priorlda.cli import main

    planted, corpus_path, stop_path, white_path = _write_planted(tmp_path)
    plan = {
        "corpus": str(corpus_path),
        "variants": ["no_deletion", "wordfreq_prior", "tfidf_prior"],
        "topics": [10], "iterations": [120], "seeds": [1, 2], "alpha": 0.2,
        "tfidf_topics": [9], "keyword_topics": [0],
        "stoplist": str(stop_path), "whitelist": str(white_path),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--plan", str(plan_path), "--jobs", "2",
                 "--out-dir", str(dir_a)]) == 0
    assert main(["experiment", "--plan", str(plan_path), "--jobs", "1",
                 "--out-dir", str(dir_b)]) == 0
    same = (dir_a / "comparison.csv").read_bytes() == (dir_b / "comparison.csv").read_bytes()
    _criterion(10, "repeated experiment runs emit byte-identical comparison CSVs",
               same)
