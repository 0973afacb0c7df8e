"""Per-layer metrics of a traced run.

``TARGETS`` lists the program functions a traced run wraps, one group per
``src/priorlda`` module. Each metric is read from the spans of the
workload's own traced runs when they exercise the function it needs, else
from the workload's traced set-up, else from a probe: a small fixed call
sequence, run once and traced, that exercises that function. The sweep
cost per token reads only spans of the calling thread, so that waiting
for the interpreter lock in a thread pool does not count as kernel time.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import threading
from math import comb

import numpy as np

import workloads
import zipfcorpus
from spans import Span, Tracer, self_times, union_length

from priorlda import _kernels, cli, corpus, experiments, metrics, priors, sampler

# the held-out slice the zipf_heldout probe folds in: sized so that report
# and fold-in each take a similar share of the probe's read side
HELDOUT_DOCS = 50
HELDOUT_SWEEPS = 10

LAYERS = ("corpus", "priors", "sampler", "kernels", "metrics", "experiments", "cli")


def _sweep_attrs(result, args, kwargs):
    state = args[0]
    return {"topics": int(state.n_topics), "tokens": int(state.tokens.shape[0])}


def _save_attrs(result, args, kwargs):
    return {"bytes": os.path.getsize(args[1])}


def _heldout_attrs(result, args, kwargs):
    model, heldout = args[0], args[1]
    sweeps = kwargs.get("sweeps", args[2] if len(args) > 2 else 50)
    known = np.array([w in model.vocabulary.word_to_id
                      for w in heldout.vocabulary.id_to_word])
    tokens = sum(int(known[doc].sum()) for doc in heldout.documents)
    return {"token_sweeps": tokens * sweeps}


def _report_attrs(result, args, kwargs):
    config = kwargs.get("config", args[4] if len(args) > 4 else metrics.MetricConfig())
    return {"topics": int(args[0].n_topics), "m_small": config.m_small,
            "m_large": config.m_large}


def _words_attrs(result, args, kwargs):
    return {"words": len(args[0])}


def _grid_attrs(result, args, kwargs):
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else None) or 1
    return {"jobs": int(jobs), "durations": [r.duration for r in result.records],
            "failures": len(result.failures)}


TARGETS = [
    (corpus, "build_corpus", "corpus.build_corpus", None),
    (corpus, "compute_stats", "corpus.compute_stats", None),
    (corpus, "delete_stopwords", "corpus.delete_stopwords", None),
    (corpus, "delete_low_tfidf", "corpus.delete_low_tfidf", None),
    (corpus, "load_raw_documents", "corpus.load_raw_documents", None),
    (corpus, "load_word_list", "corpus.load_word_list", None),
    (priors, "assemble", "priors.assemble", None),
    (priors, "symmetric_prior", "priors.symmetric_prior", None),
    (sampler, "fit", "sampler.fit", None),
    (sampler, "init", "sampler.init", None),
    (sampler, "sweep", "sampler.sweep", _sweep_attrs),
    (sampler, "sweep_snapshot", "sampler.sweep_snapshot", _sweep_attrs),
    (sampler, "log_likelihood", "sampler.log_likelihood", None),
    (sampler, "top_words", "sampler.top_words", None),
    (sampler, "save_model", "sampler.save_model", _save_attrs),
    (sampler, "load_model", "sampler.load_model", None),
    (sampler, "heldout_perplexity", "sampler.heldout_perplexity", _heldout_attrs),
    (_kernels, "sweep_tokens", "kernels.sweep_tokens", None),
    (_kernels, "sweep_doc_snapshot", "kernels.sweep_doc_snapshot", None),
    (metrics, "report", "metrics.report", _report_attrs),
    (metrics, "coherence", "metrics.coherence", _words_attrs),
    (metrics, "pmi_score", "metrics.pmi_score", _words_attrs),
    (metrics, "log_lift", "metrics.log_lift", None),
    (experiments, "load_resources", "experiments.load_resources", None),
    # private, but it is the preprocessing step experiments.preprocess_s times
    (experiments, "_preprocess", "experiments.preprocess", None),
    (experiments, "run_grid", "experiments.run_grid", _grid_attrs),
    (experiments, "comparison_table", "experiments.comparison_table", None),
    (experiments, "comparison_csv", "experiments.comparison_csv", None),
    (experiments, "correlation_data", "experiments.correlation_data", None),
    (experiments, "run_manifest", "experiments.run_manifest", None),
    (cli, "main", "cli.main", None),
]

TABLES = {"experiments.comparison_table", "experiments.comparison_csv",
          "experiments.correlation_data"}


def kernel_cost(topics: int) -> tuple[int, int]:
    """Floating-point operations and bytes one token of the sequential sweep
    needs at ``topics`` topics, counted from the kernel's arithmetic: per
    topic two adds for the smoothed counts, one for the denominator, a
    multiply, a divide and the running sum; per topic it reads an int32
    n_dk, n_kw and n_k entry and a float64 eta and eta-sum entry; per token
    it reads the token, document, topic and uniform and updates three
    counts twice."""
    flops = 6 * topics
    bytes_moved = topics * (4 + 4 + 4 + 8 + 8) + (4 + 4 + 4 + 8) + 2 * 3 * 2 * 4 + 4
    return flops, bytes_moved


# --- probes -------------------------------------------------------------------

class Probes:
    """Fixed call sequences that exercise a layer the workload does not."""

    def __init__(self, tracer: Tracer, workload: workloads.Workload):
        self.tracer = tracer
        self.workload = workload
        self.done: list[str] = []
        self._zipf = None

    def run(self, name: str) -> str:
        run_id = f"probe.{name}"
        if run_id not in self.done:
            self.tracer.run = run_id
            self.tracer.install(TARGETS)
            try:
                getattr(self, name)()
            finally:
                self.tracer.uninstall()
            self.done.append(run_id)
        return run_id

    def _zipf_inputs(self):
        if self._zipf is None:
            wl = self.workload
            if isinstance(wl, workloads.ZipfFit):
                docs, stats = wl.corpus, wl.stats
            else:
                docs = corpus.build_corpus(zipfcorpus.zipf_documents(wl.input_seed))
                stats = corpus.compute_stats(docs)
            prior = priors.assemble(workloads.zipf_prior_config(), stats)
            self._zipf = docs, stats, prior
        return self._zipf

    def _zipf_config(self, **extra):
        return sampler.ModelConfig(topics=workloads.ZIPF_TOPICS,
                                   alpha=workloads.ZIPF_ALPHA, iterations=1,
                                   seed=self.workload.input_seed, **extra)

    def demo_model(self):
        """Demo corpus, K=20: stoplist rebuild, a short serial fit and save."""
        root, seed = self.workload.root, self.workload.input_seed
        texts, ids = corpus.load_raw_documents(
            workloads.data_file(root, "demo_corpus.jsonl"), "jsonl")
        demo = corpus.build_corpus(texts, doc_ids=ids)
        stats = corpus.compute_stats(demo)
        stop = corpus.load_word_list(workloads.data_file(root, "demo_stoplist.txt"))
        corpus.delete_stopwords(demo, stop)
        prior = priors.assemble(priors.PriorConfig(topics=20, stopword_topics=1,
                                                   tfidf_topics=19), stats)
        model = sampler.fit(demo, prior, sampler.ModelConfig(topics=20, alpha=0.2,
                                                             iterations=5, seed=seed))
        sampler.save_model(model, self.workload.workdir / "probe_model.json")

    def zipf_heldout(self):
        """Zipf corpus, K=50: the read side of the sampler. A 1-sweep fit is
        saved and loaded, scored by report on the top 30 words, and folded
        in over a separately seeded held-out slice."""
        docs, stats, prior = self._zipf_inputs()
        seed = self.workload.input_seed
        path = self.workload.workdir / "probe_zipf_model.json"
        sampler.save_model(sampler.fit(docs, prior, self._zipf_config()), path)
        model = sampler.load_model(path, vocabulary=docs.vocabulary)
        stoplist, whitelist = zipfcorpus.word_lists()
        metrics.report(model, stats, stoplist, whitelist, metrics.MetricConfig())
        heldout = corpus.build_corpus(zipfcorpus.heldout_documents(seed, HELDOUT_DOCS))
        sampler.heldout_perplexity(model, heldout, sweeps=HELDOUT_SWEEPS, seed=seed)

    def zipf_sweep(self):
        docs, _, prior = self._zipf_inputs()
        config = self._zipf_config()
        sampler.sweep(sampler.init(docs, prior, config), prior, config.alpha)

    def zipf_snapshot(self):
        docs, _, prior = self._zipf_inputs()
        config = self._zipf_config(doc_streams=True)
        sampler.sweep_snapshot(sampler.init(docs, prior, config), prior, config.alpha)

    def experiment(self):
        """The demo plan through ``priorlda experiment`` with the workload's jobs."""
        wl = workloads.DemoExperiment(self.workload.root, self.workload.input_seed,
                                      self.workload.workdir / "probe_experiment")
        wl.setup()
        wl.before_run()
        wl.run()

    def grid_jobs1(self):
        wl = self.workload
        plan = experiments.ExperimentPlan.from_json(
            workloads.demo_plan(wl.root, wl.input_seed))
        with contextlib.redirect_stderr(io.StringIO()):
            experiments.run_grid(plan, jobs=1)


# --- metric extraction ----------------------------------------------------------

def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _by_run(spans: list[Span]) -> dict[str, list[Span]]:
    runs: dict[str, list[Span]] = {}
    for s in spans:
        runs.setdefault(s.run, []).append(s)
    return runs


def _named(spans, name):
    return [s for s in spans if s.name == name]


def run_total(name):
    """Median over runs of the time spent in ``name`` within one run."""
    def value(runs):
        return _median(sum(s.duration for s in _named(spans, name))
                       for spans in runs.values() if _named(spans, name))
    return value


def per_call(name, scale=1.0, keep=lambda s: True, per=lambda s: 1):
    """Median over calls of ``scale`` * duration / ``per(span)``."""
    def value(runs):
        return _median(scale * s.duration / per(s) for spans in runs.values()
                       for s in _named(spans, name) if keep(s))
    return value


def attr_median(name, key):
    def value(runs):
        return _median(s.attrs[key] for spans in runs.values() for s in _named(spans, name))
    return value


def sweep_us(name, topics, main_thread):
    return per_call(name, 1e6,
                    keep=lambda s: s.attrs["topics"] == topics and s.thread == main_thread,
                    per=lambda s: s.attrs["tokens"])


def loglik_calls(runs):
    return _median(len(_named(spans, "sampler.log_likelihood"))
                   for spans in runs.values() if _named(spans, "sampler.log_likelihood"))


def loglik_share(runs):
    fit = sum(s.duration for spans in runs.values() for s in _named(spans, "sampler.fit"))
    ll = sum(s.duration for spans in runs.values()
             for s in _named(spans, "sampler.log_likelihood"))
    return ll / fit if fit else None


def codoc_lookups(runs):
    """Pairwise document intersections one report makes: coherence on the
    small and large windows plus PMI on the large one, per topic."""
    return _median(s.attrs["topics"] * (comb(s.attrs["m_small"], 2)
                                        + 2 * comb(s.attrs["m_large"], 2))
                   for spans in runs.values() for s in _named(spans, "metrics.report"))


def grid_seconds(jobs):
    return per_call("experiments.run_grid", keep=lambda s: s.attrs["jobs"] == jobs)


def grid_durations(pick):
    def value(runs):
        durations = [d for spans in runs.values()
                     for s in _named(spans, "experiments.run_grid")
                     for d in s.attrs["durations"]]
        return pick(durations) if durations else None
    return value


def tables_seconds(all_spans):
    """Time in the table writers, counting a writer that calls another once."""
    def outer(spans):
        return [s for s in spans if s.name in TABLES
                and not (s.parent >= 0 and all_spans[s.parent].name in TABLES)]

    def value(runs):
        return _median(sum(s.duration for s in outer(spans))
                       for spans in runs.values() if outer(spans))
    return value


def cli_self(all_spans):
    """``priorlda experiment`` time outside ``run_grid``."""
    def value(runs):
        return _median(all_spans[g.parent].duration - g.duration
                       for spans in runs.values()
                       for g in _named(spans, "experiments.run_grid")
                       if g.parent >= 0 and all_spans[g.parent].name == "cli.main")
    return value


def metric_table(all_spans: list[Span], main_thread: int):
    """(name, unit, extractor, probe) for every metric read from spans."""
    return [
        ("corpus.build_s", "s", run_total("corpus.build_corpus"), "demo_model"),
        ("corpus.stats_s", "s", run_total("corpus.compute_stats"), "demo_model"),
        ("corpus.delete_s", "s", run_total("corpus.delete_stopwords"), "demo_model"),
        ("priors.assemble_s", "s", run_total("priors.assemble"), "demo_model"),
        ("sampler.sweep_us_per_token.k20", "us",
         sweep_us("sampler.sweep", 20, main_thread), "demo_model"),
        ("sampler.sweep_us_per_token.k50", "us",
         sweep_us("sampler.sweep", 50, main_thread), "zipf_sweep"),
        ("sampler.snapshot_sweep_us_per_token.k50", "us",
         sweep_us("sampler.sweep_snapshot", 50, main_thread), "zipf_snapshot"),
        ("sampler.loglik_ms", "ms", per_call("sampler.log_likelihood", 1e3), "demo_model"),
        ("sampler.loglik_calls", "count", loglik_calls, "demo_model"),
        ("sampler.loglik_share", "ratio", loglik_share, "demo_model"),
        ("sampler.fit_s", "s", per_call("sampler.fit"), "demo_model"),
        ("sampler.save_s", "s", per_call("sampler.save_model"), "demo_model"),
        ("sampler.model_bytes", "bytes", attr_median("sampler.save_model", "bytes"),
         "demo_model"),
        ("sampler.load_s", "s", per_call("sampler.load_model"), "zipf_heldout"),
        ("sampler.heldout_us_per_token_sweep", "us",
         per_call("sampler.heldout_perplexity", 1e6, per=lambda s: s.attrs["token_sweeps"]),
         "zipf_heldout"),
        ("metrics.report_ms_per_topic", "ms",
         per_call("metrics.report", 1e3, per=lambda s: s.attrs["topics"]), "zipf_heldout"),
        ("metrics.coherence_ms", "ms",
         per_call("metrics.coherence", 1e3, keep=lambda s: s.attrs["words"] == 30),
         "zipf_heldout"),
        ("metrics.pmi_ms", "ms",
         per_call("metrics.pmi_score", 1e3, keep=lambda s: s.attrs["words"] == 30),
         "zipf_heldout"),
        ("metrics.codoc_lookups", "count", codoc_lookups, "zipf_heldout"),
        ("experiments.run_grid_s.jobs2", "s", grid_seconds(2), "experiment"),
        ("experiments.run_grid_s.jobs1", "s", grid_seconds(1), "grid_jobs1"),
        ("experiments.run_s_p50", "s", grid_durations(statistics.median), "experiment"),
        ("experiments.run_s_max", "s", grid_durations(max), "experiment"),
        ("experiments.preprocess_s", "s", run_total("experiments.preprocess"), "experiment"),
        ("experiments.tables_s", "s", tables_seconds(all_spans), "experiment"),
        ("experiments.manifest_s", "s", run_total("experiments.run_manifest"), "experiment"),
        ("cli.experiment_self_s", "s", cli_self(all_spans), "experiment"),
    ]


def per_layer_metrics(tracer: Tracer, workload, op_runs: list[tuple[str, float]],
                      untraced: list[float], traced: list[float]) -> tuple[dict, dict]:
    """All per-layer metrics, plus where each came from."""
    main_thread = threading.get_ident()
    probes = Probes(tracer, workload)
    op_ids = [run for run, _ in op_runs]
    out: dict[str, dict] = {}
    source: dict[str, str] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name, unit, extract, probe in metric_table(tracer.spans, main_thread):
        for label, runs in (("ops", op_ids), ("setup", ["setup"])):
            value = extract(_by_run(tracer.in_runs(runs)))
            if value is not None:
                break
        else:
            label = probes.run(probe)
            value = extract(_by_run(tracer.in_runs([label])))
        put(name, value, unit)
        source[name] = label

    jobs1 = out["experiments.run_grid_s.jobs1"]["value"]
    jobs2 = out["experiments.run_grid_s.jobs2"]["value"]
    put("experiments.jobs2_speedup", jobs1 / jobs2, "ratio")
    put("kernels.numba", int(_kernels.HAVE_NUMBA), "bool")
    for topics in (20, 50):
        flops, moved = kernel_cost(topics)
        put(f"kernels.flops_per_token.k{topics}", flops, "flop")
        put(f"kernels.bytes_per_token.k{topics}", moved, "bytes")

    # self time and calls per layer, per traced workload run
    per_op = []
    for run, wall in op_runs:
        spans = tracer.in_runs([run])
        layer_self = self_times(spans, tracer.spans)
        roots = [(s.start, s.end) for s in spans if s.parent < 0]
        bench = wall - union_length(roots)
        calls = {}
        for s in spans:
            calls[s.layer] = calls.get(s.layer, 0) + 1
        per_op.append((layer_self, calls, bench, wall))
    for layer in LAYERS:
        values = [(ls[layer], c[layer]) for ls, c, *_ in per_op if layer in ls]
        label = "ops"
        if not values:
            for label in ["setup"] + probes.done:
                spans = tracer.in_runs([label])
                if any(s.layer == layer for s in spans):
                    ls = self_times(spans, tracer.spans)
                    values = [(ls[layer], sum(1 for s in spans if s.layer == layer))]
                    break
        put(f"{layer}.self_s", _median(v for v, _ in values), "s")
        put(f"{layer}.calls", _median(c for _, c in values), "count")
        source[f"{layer}.self_s"] = source[f"{layer}.calls"] = label
    put("bench.self_s", _median(p[2] for p in per_op), "s")
    # bench.self_s is the traced wall minus the time root spans cover, so with
    # no concurrent worker spans the layer self times plus bench.self_s add up
    # to the traced wall by construction; its share of the wall is the part of
    # a run that no layer span accounts for
    put("trace.untraced_share", _median(p[2] / p[3] for p in per_op), "ratio")
    put("trace.spans_per_op", _median(len(tracer.in_runs([r])) for r, _ in op_runs), "count")
    put("trace_overhead_share", statistics.median(traced) / statistics.median(untraced) - 1,
        "ratio")
    return out, source
