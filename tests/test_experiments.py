import json
import multiprocessing
import signal
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from priorlda import _kernels, experiments
from priorlda.corpus import compute_stats, delete_stopwords
from priorlda.experiments import (GRID_DIMS, PLAN_LIST_FIELDS,
                                  ExperimentPlan, FailedRun, RunRecord, RunSettings,
                                  Variant, comparison_csv, comparison_table,
                                  correlation_data, corpus_hash, enumerate_runs,
                                  load_resources, run_grid, run_manifest, _spearman)
from priorlda.metrics import MetricConfig, ModelReport, report
from priorlda.priors import ConfigMismatch, PriorConfig, TopicKind, assemble, symmetric_prior
from priorlda.sampler import ModelConfig, fit

from .helpers import correlation
from .synthetic import planted_stopword_corpus, texts


@pytest.fixture(scope="module")
def planted_on_disk(tmp_path_factory):
    """Planted corpus and word lists written to files, plus a small fast plan."""
    root = tmp_path_factory.mktemp("plan")
    planted = planted_stopword_corpus(seed=0)
    corpus = planted.corpus
    lines = [json.dumps({"id": f"d{i}", "text": text}) for i, text in enumerate(texts(corpus))]
    corpus_path = root / "corpus.jsonl"
    corpus_path.write_text("\n".join(lines) + "\n")
    stoplist_path = root / "stoplist.txt"
    stoplist_path.write_text("\n".join(planted.stopwords) + "\n")
    whitelist_path = root / "whitelist.txt"
    whitelist_path.write_text("\n".join(w for c in planted.clusters for w in c) + "\n")
    plan = ExperimentPlan(
        corpus=str(corpus_path),
        variants=[Variant.NO_DELETION, Variant.TFIDF_PRIOR],
        topics=[8], iterations=[120], seeds=[1], alpha=0.2,
        stoplist=str(stoplist_path), whitelist=str(whitelist_path),
        tfidf_topics=[7], keyword_topics=[0],
    )
    return planted, plan


FAST_METRICS = MetricConfig(m_small=5, m_large=10)


def run_one(plan, variant, settings, seed, resources=None):
    """The one run of ``variant`` at ``settings`` and ``seed``, as a one-spec
    plan through run_grid: its RunRecord, or its FailedRun."""
    one = replace(plan, variants=[variant], seeds=[seed],
                  **{k: [v] if k in GRID_DIMS else v for k, v in settings.to_json().items()})
    result = run_grid(one, resources=resources, metric_config=FAST_METRICS)
    (outcome,) = result.records + result.failures
    assert outcome.settings == settings
    return outcome


class TwoArg(Exception):
    """Pickles, but does not unpickle: the rebuild calls __init__ with one
    argument, the message."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


class TestEnumerateRuns:
    def test_singleton_grid_single_spec(self):
        plan = ExperimentPlan(corpus="unused", variants=[Variant.NO_DELETION], seeds=[3])
        specs = enumerate_runs(plan)
        assert len(specs) == 1
        assert specs[0].variant is Variant.NO_DELETION
        assert specs[0].seed == 3

    def test_product_counts(self):
        plan = ExperimentPlan(corpus="unused", variants=[Variant.NO_DELETION],
                              topics=[5, 10], seeds=[1, 2])
        assert len(enumerate_runs(plan)) == 4

    def test_full_grid_products(self):
        grid = {  # a search grid over every dimension
            "topics": [5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
            "c1": [100.0, 10.0, 1.0, 0.1, 0.01],
            "c2": [100.0, 10.0, 1.0, 0.1, 0.01],
            "tfidf_topics": [1, 5, 10, 19],
            "keyword_topics": [1, 5, 10, 18, 19],
            "keyword_boost": [10.0, 50.0, 100.0, 1000.0],
            "iterations": [100, 200, 500, 1000],
        }
        plan = ExperimentPlan(corpus="unused", variants=list(Variant), seeds=[1], **grid)
        specs = enumerate_runs(plan)
        base = len(grid["topics"]) * len(grid["iterations"])
        want = 0
        want += base * 6  # variants with no extra applicable dimensions
        want += base * len(grid["c2"]) * len(grid["keyword_boost"])
        want += base * len(grid["c1"])
        want += (base * len(grid["c1"]) * len(grid["c2"]) * len(grid["tfidf_topics"])
                 * len(grid["keyword_topics"]) * len(grid["keyword_boost"]))
        assert len(specs) == want

    def test_inapplicable_dims_pinned_to_first_value(self):
        plan = ExperimentPlan(corpus="unused", variants=[Variant.NO_DELETION],
                              c1=[7.5, 9.9], seeds=[1])
        specs = enumerate_runs(plan)
        assert len(specs) == 1
        assert specs[0].settings.c1 == 7.5


class TestRunVariant:
    """One variant's run, as a one-spec plan through run_grid."""

    def test_no_deletion_high_stopword_rate(self, planted_on_disk):
        planted, plan = planted_on_disk
        rec = run_one(plan, Variant.NO_DELETION,
                      RunSettings(topics=8, iterations=120, alpha=0.2), seed=1)
        assert rec.report.model_means["stopword_rate"] > 0.25
        assert not rec.vocabulary_altered

    def test_tfidf_prior_has_one_stopword_topic(self, planted_on_disk):
        planted, plan = planted_on_disk
        rec = run_one(plan, Variant.TFIDF_PRIOR,
                      RunSettings(topics=8, iterations=120, alpha=0.2, stopword_topics=1),
                      seed=1)
        kinds = [t.kind for t in rec.report.per_topic]
        assert kinds.count(TopicKind.STOPWORD) == 1
        assert kinds[0] is TopicKind.STOPWORD

    def test_keyword_seeding_layout(self, planted_on_disk):
        planted, plan = planted_on_disk
        rec = run_one(plan, Variant.KEYWORD_SEEDING_PRIOR,
                      RunSettings(topics=20, iterations=30, stopword_topics=1,
                                  tfidf_topics=9, keyword_topics=10), seed=1)
        kinds = [t.kind.value for t in rec.report.per_topic]
        assert kinds == ["stopword"] + ["tfidf"] * 9 + ["keyword"] * 10

    def test_keyword_variant_without_whitelist(self, planted_on_disk):
        planted, plan = planted_on_disk
        resources = load_resources(plan)
        resources.whitelist = None
        failure = run_one(plan, Variant.KEYWORD_TOPICS_BASELINE,
                          RunSettings(topics=4, iterations=10), seed=1, resources=resources)
        assert isinstance(failure, FailedRun)
        assert failure.type == "MissingResource"

    def test_deletion_variant_changes_vocabulary(self, planted_on_disk):
        planted, plan = planted_on_disk
        rec = run_one(plan, Variant.STOPWORD_DELETION,
                      RunSettings(topics=4, iterations=20), seed=1)
        assert rec.vocabulary_altered
        assert rec.report.model_means["stopword_rate"] == 0.0


class TestRunGrid:
    # a symmetric fit, a preprocessing variant and an assembled prior
    @pytest.mark.parametrize("variant", [Variant.NO_DELETION, Variant.STOPWORD_DELETION,
                                         Variant.KEYWORD_SEEDING_PRIOR],
                             ids=lambda v: v.value)
    def test_singleton_matches_fit_and_report(self, planted_on_disk, variant):
        planted, plan = planted_on_disk
        single = ExperimentPlan(**{**plan.to_json(), "variants": [variant.value],
                                   "tfidf_topics": [4], "keyword_topics": [3]})
        result = run_grid(single, metric_config=FAST_METRICS)
        assert not result.failures
        (rec,) = result.records
        # the same run assembled by hand: corpus, prior, fit and report
        resources = load_resources(plan)
        working = (delete_stopwords(resources.corpus, resources.stoplist)
                   if variant is Variant.STOPWORD_DELETION else resources.corpus)
        stats = compute_stats(working)
        layout = (PriorConfig(topics=8, tfidf_topics=4, keyword_topics=3)
                  if variant is Variant.KEYWORD_SEEDING_PRIOR
                  else PriorConfig(topics=8, stopword_topics=0))
        model = fit(working, assemble(layout, stats, resources.whitelist),
                    ModelConfig(topics=8, alpha=0.2, iterations=120, seed=1))
        scores = report(model, stats, resources.stoplist, resources.whitelist, FAST_METRICS)
        direct = RunRecord(variant, rec.settings, 1, model, scores, duration=0.0)
        assert np.array_equal(model.beta_hat, rec.model.beta_hat)
        assert comparison_csv([direct]) == comparison_csv([rec])

    def test_failures_recorded_not_fatal(self, planted_on_disk):
        planted, plan = planted_on_disk
        bad = ExperimentPlan(**{**plan.to_json(),
                                "variants": [Variant.KEYWORD_SEEDING_PRIOR.value,
                                             Variant.NO_DELETION.value],
                                "tfidf_topics": [9], "keyword_topics": [19]})
        # topics=8 cannot host 1 + 9 + 19 rows: the keyword variant fails,
        # the baseline still runs
        result = run_grid(bad, metric_config=FAST_METRICS)
        assert len(result.failures) == 1
        assert isinstance(result.failures[0], FailedRun)
        assert result.failures[0].variant is Variant.KEYWORD_SEEDING_PRIOR
        assert len(result.records) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_keeps_type_and_traceback(self, planted_on_disk, child_runs_first, jobs):
        planted, plan = planted_on_disk
        no_list = ExperimentPlan(**{**plan.to_json(),
                                    "variants": [Variant.KEYWORD_TOPICS_BASELINE.value,
                                                 Variant.NO_DELETION.value],
                                    "seeds": [1, 2], "whitelist": None})
        if jobs > 1:
            child_runs_first()  # so a failure raised in the child crosses the pipe
        resources = load_resources(no_list)
        result = run_grid(no_list, jobs=jobs, resources=resources,
                          metric_config=FAST_METRICS)
        assert len(result.records) == 2
        assert [failure.type for failure in result.failures] == ["MissingResource"] * 2
        manifest = run_manifest(no_list, result, resources.corpus)
        for seed, failure, entry in zip([1, 2], result.failures, manifest["failures"],
                                        strict=True):
            assert entry["variant"] == Variant.KEYWORD_TOPICS_BASELINE.value
            assert entry["seed"] == seed
            assert entry["error"] == failure.error
            assert entry["traceback"] == failure.traceback
            assert "needs a whitelist" in entry["error"]
            assert entry["type"] == "MissingResource"
            assert entry["traceback"].startswith("Traceback (most recent call last):")
            # the last frame is where the run raised
            assert "in _run\n    raise MissingResource(" in entry["traceback"]
            assert entry["traceback"].rstrip().endswith(f"MissingResource: {entry['error']}")
        json.dumps(manifest)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_preprocessing_failure_fails_only_its_runs(self, planted_on_disk, tmp_path, jobs):
        planted, plan = planted_on_disk
        # a TF-IDF cut of 0 is out of range, and a stoplist of every word
        # empties every document; the runs on the loaded corpus still go ahead
        every_word = tmp_path / "every_word.txt"
        every_word.write_text("\n".join(load_resources(plan).corpus.vocabulary.id_to_word))
        bad = replace(plan, variants=[Variant.TFIDF_DELETION, Variant.NO_DELETION,
                                      Variant.STOPWORD_DELETION],
                      seeds=[1, 2], iterations=[40], tfidf_cut=0.0, stoplist=str(every_word))
        serial, result = (run_grid(bad, jobs=j, metric_config=FAST_METRICS) for j in (1, jobs))
        assert [(r.variant, r.seed) for r in result.records] == \
            [(Variant.NO_DELETION, 1), (Variant.NO_DELETION, 2)]
        failed = [(f.variant, f.seed, f.type) for f in result.failures]
        assert failed == [(Variant.TFIDF_DELETION, 1, "ValueError"),
                          (Variant.TFIDF_DELETION, 2, "ValueError"),
                          (Variant.STOPWORD_DELETION, 1, "AllDocumentsEmpty"),
                          (Variant.STOPWORD_DELETION, 2, "AllDocumentsEmpty")]
        for failure, where in zip(result.failures, ["delete_low_tfidf"] * 2 + ["_rebuild"] * 2):
            assert f"in {where}" in failure.traceback
            assert failure.traceback.rstrip().endswith(f"{failure.type}: {failure.error}")
        assert [f.to_json() for f in result.failures] == [f.to_json() for f in serial.failures]
        assert comparison_csv(result.records) == comparison_csv(serial.records)

    def test_grid_completeness(self, planted_on_disk):
        planted, plan = planted_on_disk
        result = run_grid(plan, metric_config=FAST_METRICS)
        assert len(result.records) + len(result.failures) == len(enumerate_runs(plan))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, planted_on_disk, jobs):
        planted, plan = planted_on_disk
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_grid(plan, jobs=jobs, metric_config=FAST_METRICS)

    def test_parallel_equals_serial(self, planted_on_disk):
        planted, two_runs = planted_on_disk
        # Six runs over three processes that draw them as they become free. The
        # keyword runs 2 and 3 cannot fit 1 + 9 + 19 rows in 8 topics and fail.
        six_runs = replace(two_runs, variants=[Variant.NO_DELETION, Variant.KEYWORD_SEEDING_PRIOR,
                                               Variant.TFIDF_PRIOR],
                           seeds=[1, 2], iterations=[40], tfidf_topics=[9], keyword_topics=[19])
        keyword = Variant.KEYWORD_SEEDING_PRIOR
        for plan, jobs, failed in [(two_runs, 4, []), (six_runs, 3, [(keyword, 1), (keyword, 2)])]:
            serial = run_grid(plan, jobs=1, metric_config=FAST_METRICS)
            parallel = run_grid(plan, jobs=jobs, metric_config=FAST_METRICS)
            order = [(spec.variant, spec.seed) for spec in enumerate_runs(plan)]
            assert [(f.variant, f.seed) for f in parallel.failures] == failed
            assert [(r.variant, r.seed) for r in parallel.records] == \
                [key for key in order if key not in failed]
            assert [f.to_json() for f in parallel.failures] == \
                [f.to_json() for f in serial.failures]
            assert comparison_csv(serial.records) == comparison_csv(parallel.records)
            tables = [correlation_data(r.records) for r in (serial, parallel)]
            assert tables[0].points_csv() == tables[1].points_csv()
            assert tables[0].correlations_csv() == tables[1].correlations_csv()

    def test_workers_capped_at_the_run_count(self, planted_on_disk, monkeypatch):
        planted, plan = planted_on_disk
        started = []
        start = multiprocessing.context.ForkProcess.start

        def recording(process):
            started.append(process)
            # fork at most one, even where the cap is broken
            assert len(started) == 1, "forked more children than the plan has runs, less one"
            start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording)
        result = run_grid(plan, jobs=64, metric_config=FAST_METRICS)
        assert len(started) == len(enumerate_runs(plan)) - 1 == 1
        assert len(result.records) == 2
        run_grid(replace(plan, variants=[Variant.NO_DELETION]), jobs=64,
                 metric_config=FAST_METRICS)
        assert len(started) == 1  # a single run forks no child

    def test_interrupt_in_the_callers_share_terminates_children(self, planted_on_disk,
                                                                monkeypatch):
        planted, plan = planted_on_disk
        started = []
        start = multiprocessing.context.ForkProcess.start

        def recording(process):
            started.append(process)
            start(process)

        def interrupted(*args):
            if multiprocessing.parent_process() is None:
                raise KeyboardInterrupt
            time.sleep(60)  # the child is still running when the caller stops

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording)
        monkeypatch.setattr(experiments, "_run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_grid(plan, jobs=2, metric_config=FAST_METRICS)
        (child,) = started
        assert child.exitcode == -signal.SIGTERM
        assert multiprocessing.active_children() == []

    def test_unrebuildable_exception_is_a_failed_run(self, planted_on_disk, monkeypatch,
                                                     child_runs_first):
        planted, plan = planted_on_disk
        run = experiments._run

        def boom(plan, spec, *args):
            if multiprocessing.parent_process() is not None:
                raise TwoArg(spec.variant.value, "unpicklable in the parent")
            return run(plan, spec, *args)

        monkeypatch.setattr(experiments, "_run", boom)
        child_runs_first()  # the child surely runs one of the two runs, perhaps both
        result = run_grid(plan, jobs=2, metric_config=FAST_METRICS)
        assert result.failures
        assert sorted(o.variant.value for o in result.records + result.failures) == \
            ["no_deletion", "tfidf_prior"]
        for failure in result.failures:
            assert failure.type == "TwoArg"
            assert failure.error == f"{failure.variant.value}: unpicklable in the parent"
            assert "in boom" in failure.traceback


class TestComparisonTable:
    def test_single_record_single_row(self, planted_on_disk):
        planted, plan = planted_on_disk
        rec = run_one(plan, Variant.NO_DELETION, RunSettings(topics=4, iterations=20), seed=1)
        rows = comparison_table([rec])
        assert len(rows) == 1
        assert rows[0]["variant"] == "no_deletion"
        assert rows[0]["domain_stopword_rate"] is None  # no designated stopword topic

    def test_search_rows_report_the_alpha_the_fit_used(self, planted_on_disk):
        planted, plan = planted_on_disk
        plan = replace(plan, hyper_alphas=[0.05], hyper_etas=[0.1])
        rec = run_one(plan, Variant.HYPERPARAM_OPT,
                      RunSettings(topics=4, iterations=20, alpha=0.2), seed=1)
        assert comparison_table([rec])[0]["alpha"] == rec.model.config.alpha == 0.05

    def test_records_carry_the_alpha_and_eta_the_fit_used(self, planted_on_disk):
        planted, plan = planted_on_disk
        plan = replace(plan, hyper_alphas=[0.05, 0.5], hyper_etas=[0.1, 1.0])
        resources = load_resources(plan)
        settings = RunSettings(topics=4, iterations=20, alpha=0.2)
        rec = run_one(plan, Variant.HYPERPARAM_OPT, settings, seed=1, resources=resources)
        alpha = rec.model.config.alpha
        assert alpha in plan.hyper_alphas and rec.eta in plan.hyper_etas
        assert rec.fit_settings() == {**settings.to_json(), "alpha": alpha, "eta": rec.eta}
        # the chosen pair refits to the very model the search kept
        refit = fit(resources.corpus,
                    symmetric_prior(4, resources.corpus.vocabulary.size, rec.eta),
                    ModelConfig(topics=4, alpha=alpha, iterations=20, seed=1))
        assert np.array_equal(refit.beta_hat, rec.model.beta_hat)
        fixed = run_one(plan, Variant.NO_DELETION, settings, seed=1, resources=resources)
        assert fixed.eta is None
        assert fixed.fit_settings() == settings.to_json()

    def test_deletion_rows_flagged_non_comparable(self, planted_on_disk):
        planted, plan = planted_on_disk
        rec = run_one(plan, Variant.STOPWORD_DELETION,
                      RunSettings(topics=4, iterations=20), seed=1)
        rows = comparison_table([rec])
        assert rows[0]["vocabulary_altered"] is True

    def test_planted_direction_tfidf_beats_no_deletion(self, planted_on_disk):
        planted, plan = planted_on_disk
        result = run_grid(plan, metric_config=FAST_METRICS)
        by_variant = {r.variant: r for r in result.records}
        tfidf_rate = by_variant[Variant.TFIDF_PRIOR].report.model_means["stopword_rate"]
        baseline_rate = by_variant[Variant.NO_DELETION].report.model_means["stopword_rate"]
        assert tfidf_rate < baseline_rate


def _fake_record(variant, seed, means):
    report = ModelReport(per_topic=[], model_means=means, domain_means=None)
    return type("R", (), {
        "variant": variant, "seed": seed, "settings": RunSettings(),
        "report": report, "vocabulary_altered": variant in
        (Variant.STOPWORD_DELETION, Variant.TFIDF_DELETION,
         Variant.DELETION_PLUS_HYPERPARAM_OPT),
        "forced_zero_stopword_rate": lambda self=None: variant in
        (Variant.STOPWORD_DELETION, Variant.DELETION_PLUS_HYPERPARAM_OPT),
        "model": None, "duration": 0.0,
    })()


def _means(lift, stop, expert, codoc):
    return {"coherence_10": -1.0, "coherence_30": -2.0, "pmi": 0.1,
            "log_lift": lift, "stopword_rate": stop, "expert_rate": expert,
            "codoc": codoc}


class TestCorrelationData:
    def test_two_identical_records_give_no_correlation(self):
        recs = [_fake_record(Variant.NO_DELETION, s, _means(1.0, 0.5, 0.1, 0.3))
                for s in (1, 2)]
        data = correlation_data(recs)
        assert correlation(data, "log_lift", "stopword_rate") is None

    def test_monotone_lift_expert_rate_is_perfect_rank_correlation(self):
        recs = [
            _fake_record(Variant.NO_DELETION, 1, _means(1.0, 0.5, 0.10, 0.3)),
            _fake_record(Variant.WORDFREQ_PRIOR, 1, _means(2.0, 0.3, 0.20, 0.4)),
            _fake_record(Variant.TFIDF_PRIOR, 1, _means(3.0, 0.1, 0.35, 0.5)),
        ]
        data = correlation_data(recs)
        assert correlation(data, "log_lift", "expert_rate") == pytest.approx(1.0)
        assert correlation(data, "log_lift", "stopword_rate") == pytest.approx(-1.0)

    def test_vocab_altered_records_excluded_from_coherence(self):
        recs = [
            _fake_record(Variant.NO_DELETION, 1, _means(1.0, 0.5, 0.1, 0.3)),
            _fake_record(Variant.STOPWORD_DELETION, 1, _means(2.0, 0.0, 0.2, 0.4)),
            _fake_record(Variant.TFIDF_PRIOR, 1, _means(3.0, 0.1, 0.3, 0.5)),
        ]
        data = correlation_data(recs)
        coherence_points = [p for p in data.points if p["metric"] == "coherence_30"]
        assert {p["variant"] for p in coherence_points} == {"no_deletion", "tfidf_prior"}
        lift_points = [p for p in data.points if p["metric"] == "log_lift"]
        assert len(lift_points) == 3

    def test_forced_zero_records_excluded_from_stopword_axis(self):
        recs = [
            _fake_record(Variant.NO_DELETION, 1, _means(1.0, 0.5, 0.1, 0.3)),
            _fake_record(Variant.STOPWORD_DELETION, 1, _means(2.0, 0.0, 0.2, 0.4)),
            _fake_record(Variant.TFIDF_PRIOR, 1, _means(3.0, 0.1, 0.3, 0.5)),
            _fake_record(Variant.WORDFREQ_PRIOR, 1, _means(2.5, 0.2, 0.25, 0.45)),
        ]
        data = correlation_data(recs)
        row = [c for c in data.correlations
               if c["metric"] == "log_lift" and c["axis"] == "stopword_rate"][0]
        assert row["n"] == 3  # the deletion record is dropped on this axis


def _scipy_spearman(x, y):
    """The scipy.stats path that ``_spearman`` replaced."""
    if len(x) < 3:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho = scipy_stats.spearmanr(x, y).statistic
    return None if np.isnan(rho) else float(rho)


_VALUES = st.floats(allow_nan=False) | st.just(float("nan"))


@st.composite
def _series_pairs(draw):
    """Two series of one length, 0 to 60. Each is drawn from a pool of at
    most 6 values (ties; a one-value pool gives a constant series) or from
    all floats; NaN and the infinities can appear."""
    n = draw(st.integers(0, 60))

    def series():
        if draw(st.booleans()):
            pool = draw(st.lists(_VALUES, min_size=1, max_size=6))
            return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        return draw(st.lists(_VALUES, min_size=n, max_size=n))

    return series(), series()


class TestSpearman:
    @settings(max_examples=200, deadline=None)
    @given(_series_pairs())
    @example(([1.0, 2.0, 2.0, 3.0], [0.5, 0.5, 0.25, 0.25]))
    @example(([1.0, 2.0], [2.0, 1.0]))
    @example(([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))
    @example(([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]))
    @example(([-0.0, 0.0, 1.0, 2.0], [3.0, 1.0, 2.0, 2.0]))
    def test_same_bits_as_scipy(self, pair):
        x, y = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _spearman(x, y)
        want = _scipy_spearman(x, y)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.hex() == want.hex()


class TestReproducibility:
    def test_grid_rerun_is_byte_identical(self, planted_on_disk):
        planted, plan = planted_on_disk
        a = run_grid(plan, metric_config=FAST_METRICS)
        b = run_grid(plan, metric_config=FAST_METRICS)
        assert comparison_csv(a.records) == comparison_csv(b.records)
        data_a, data_b = correlation_data(a.records), correlation_data(b.records)
        assert data_a.points_csv() == data_b.points_csv()

    def test_manifest_contents(self, planted_on_disk):
        planted, plan = planted_on_disk
        resources = load_resources(plan)
        result = run_grid(plan, resources=resources, metric_config=FAST_METRICS)
        manifest = run_manifest(plan, result, resources.corpus)
        assert manifest["corpus_hash"] == corpus_hash(resources.corpus)
        assert manifest["n_records"] == len(result.records)
        assert "priorlda" in manifest["versions"]
        assert manifest["versions"]["kernel_backend"] == _kernels.BACKEND
        assert manifest["versions"]["kernel_backend"] in ("c", "numpy")
        # this process has loaded scipy, as a Python twin would
        assert manifest["versions"]["scipy"] == sys.modules["scipy"].__version__


class TestMetricWindow:
    def test_plan_window_drives_report_lists(self, planted_on_disk):
        planted, plan = planted_on_disk
        narrow = ExperimentPlan(**{**plan.to_json(),
                                   "variants": [Variant.NO_DELETION.value],
                                   "iterations": [20], "metric_top_words": 10})
        result = run_grid(narrow)
        rates = [t.stopword_rate for t in result.records[0].report.per_topic]
        # rates are multiples of 1/10 under a 10-word window
        assert all(abs(r * 10 - round(r * 10)) < 1e-12 for r in rates)


class TestPlanSerialization:
    def test_round_trip(self, planted_on_disk, tmp_path):
        planted, plan = planted_on_disk
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        loaded = ExperimentPlan.from_json(json.loads(path.read_text()))
        assert loaded.to_json() == plan.to_json()

    def test_empty_variants_rejected(self):
        with pytest.raises(ValueError):
            ExperimentPlan(corpus="x", variants=[])

    @pytest.mark.parametrize("name", list(PLAN_LIST_FIELDS))
    def test_every_empty_list_field_rejected(self, name):
        with pytest.raises(ValueError, match=f"plan field {name} must be a non-empty list"):
            ExperimentPlan(corpus="x", **{name: []})

    @pytest.mark.parametrize("name,value", [
        ("seeds", [True]), ("iterations", [True]), ("seeds", "12"), ("c1", ["1"]),
        ("topics", [20.0]), ("variants", "no_deletion"), ("hyper_etas", (0.1,)),
        ("alpha", True), ("alpha", "0.2"), ("stopword_topics", 1.5),
        ("metric_top_words", False), ("stoplist", 3), ("corpus", None),
    ])
    def test_wrong_type_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^plan field {name} must be "):
            ExperimentPlan(**{"corpus": "x", name: value})

    @pytest.mark.parametrize("name,value", [
        ("seeds", [1, -1]), ("topics", [0]), ("iterations", [5, 0]), ("alpha", -1),
        ("alpha", 0), ("alpha", float("inf")), ("alpha", float("nan")),
    ])
    def test_out_of_range_rejected(self, name, value):
        # each would fail every run on its own, one by one
        with pytest.raises(ValueError, match=f"^plan field {name} must "):
            ExperimentPlan(**{"corpus": "x", name: value})

    @pytest.mark.parametrize("name,value", [
        ("c1", [1.0, 0.0]), ("c2", [-1.0]), ("c2", [float("nan")]),
        ("keyword_boost", [100.0, 0.5]), ("keyword_boost", [float("inf")]),
    ])
    def test_out_of_range_scale_rejected(self, name, value):
        # PriorConfig's own check, run on every listed value before any run
        with pytest.raises(ConfigMismatch, match=f"^{name} must be positive and finite"):
            ExperimentPlan(**{"corpus": "x", name: value})

    def test_ints_stand_for_floats_unchanged(self):
        plan = ExperimentPlan(corpus="x", c1=[1, 0.5], alpha=2, tfidf_cut=0, stoplist=None)
        assert plan.to_json()["c1"] == [1, 0.5] and type(plan.c1[0]) is int
        assert type(plan.alpha) is int and type(plan.tfidf_cut) is int
