"""Model-variant zoo, grid runner, comparison tables, and scatter data.

A plan names a corpus, the variants to run, value lists for the searchable
settings, and replicate seeds. Runs are independent; failures are recorded
and skipped, never fatal to the sweep.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
import traceback
from collections.abc import Callable, Iterable, Sequence
from concurrent import futures
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import product
from pathlib import Path

import numpy as np

from . import _kernels
from .corpus import (Corpus, CorpusStats, build_corpus, compute_stats,
                     default_stoplist, delete_low_tfidf, delete_stopwords,
                     load_corpus, load_raw_documents, load_word_list)
from .metrics import METRIC_COLUMNS, MetricConfig, ModelReport, _rows_csv, report
from .priors import PriorConfig, PriorMatrix, TopicKind, assemble
from .sampler import (DEFAULT_HYPER_GRID, FittedModel, ModelConfig, SearchPoint,
                      fit, hyperparameter_search)

log = logging.getLogger(__name__)

MANIFEST_FORMAT_VERSION = 1


class MissingResource(ValueError):
    """A variant needs a word list the plan does not provide."""


class Variant(str, Enum):
    NO_DELETION = "no_deletion"
    STOPWORD_DELETION = "stopword_deletion"
    TFIDF_DELETION = "tfidf_deletion"
    KEYWORD_TOPICS_BASELINE = "keyword_topics_baseline"
    HYPERPARAM_OPT = "hyperparam_opt"
    DELETION_PLUS_HYPERPARAM_OPT = "deletion_plus_hyperparam_opt"
    WORDFREQ_PRIOR = "wordfreq_prior"
    TFIDF_PRIOR = "tfidf_prior"
    KEYWORD_SEEDING_PRIOR = "keyword_seeding_prior"


SEARCH = "search"  # symmetric fits over the plan's hyper grid, best kept


@dataclass(frozen=True)
class VariantSpec:
    """Everything the harness knows about one variant.

    ``preprocessing`` names the corpus the variant fits: "none" (as loaded),
    "stoplist" (the scored stoplist deleted) or "tfidf" (the lowest average
    TF-IDF words deleted). ``model`` is SEARCH or a function from RunSettings
    to the PriorConfig to assemble. ``extra_dims`` are the plan's
    searchable dimensions that apply beyond topics and iterations.
    """

    preprocessing: str
    model: str | Callable[[RunSettings], PriorConfig]
    extra_dims: tuple[str, ...] = ()
    needs_whitelist: bool = False

    @property
    def alters_vocabulary(self) -> bool:
        """Coherence/PMI are then incomparable against full-vocabulary runs."""
        return self.preprocessing != "none"

    @property
    def forces_zero_stopword_rate(self) -> bool:
        """The scored stoplist was deleted from the vocabulary."""
        return self.preprocessing == "stoplist"

    def prior(self, settings: RunSettings, stats: CorpusStats,
              keywords: Iterable[str] = ()) -> PriorMatrix:
        """The prior one fit of an assembled-prior variant uses."""
        return assemble(self.model(settings), stats, keywords)


def _symmetric(s: RunSettings) -> PriorConfig:
    """A flat prior of weight 1: every row is symmetric padding."""
    return PriorConfig(topics=s.topics, stopword_topics=0)


VARIANTS: dict[Variant, VariantSpec] = {
    Variant.NO_DELETION: VariantSpec("none", _symmetric),
    Variant.STOPWORD_DELETION: VariantSpec("stoplist", _symmetric),
    Variant.TFIDF_DELETION: VariantSpec("tfidf", _symmetric),
    Variant.KEYWORD_TOPICS_BASELINE: VariantSpec(
        "none", lambda s: PriorConfig(topics=s.topics, stopword_topics=0,
                                      keyword_topics=s.topics, c2=s.c2,
                                      keyword_boost=s.keyword_boost),
        extra_dims=("c2", "keyword_boost"), needs_whitelist=True),
    Variant.HYPERPARAM_OPT: VariantSpec("none", SEARCH),
    Variant.DELETION_PLUS_HYPERPARAM_OPT: VariantSpec("stoplist", SEARCH),
    Variant.WORDFREQ_PRIOR: VariantSpec(
        "none", lambda s: PriorConfig(topics=s.topics, stopword_topics=s.stopword_topics,
                                      wordfreq_topics=s.topics - s.stopword_topics)),
    Variant.TFIDF_PRIOR: VariantSpec(
        "none", lambda s: PriorConfig(topics=s.topics, stopword_topics=s.stopword_topics,
                                      tfidf_topics=s.topics - s.stopword_topics,
                                      c1=s.c1),
        extra_dims=("c1",)),
    Variant.KEYWORD_SEEDING_PRIOR: VariantSpec(
        "none", lambda s: PriorConfig(topics=s.topics, stopword_topics=s.stopword_topics,
                                      tfidf_topics=s.tfidf_topics,
                                      keyword_topics=s.keyword_topics, c1=s.c1,
                                      c2=s.c2, keyword_boost=s.keyword_boost),
        extra_dims=("c1", "c2", "tfidf_topics", "keyword_topics", "keyword_boost"),
        needs_whitelist=True),
}

# Plan fields that hold a list of values, with the type of one value. The
# grid dimensions are those a run takes one value of; topics and iterations
# apply to every variant, the rest where a variant lists them in extra_dims.
GRID_DIMS = {"topics": int, "iterations": int, "c1": float, "c2": float,
             "tfidf_topics": int, "keyword_topics": int, "keyword_boost": float}
PLAN_LIST_FIELDS = {"variants": str, **GRID_DIMS, "seeds": int,
                    "hyper_alphas": float, "hyper_etas": float}

# The full search grid the default settings were selected from.
FULL_SEARCH_GRID = {
    "topics": [5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
    "c1": [100.0, 10.0, 1.0, 0.1, 0.01],
    "c2": [100.0, 10.0, 1.0, 0.1, 0.01],
    "tfidf_topics": [1, 5, 10, 19],
    "keyword_topics": [1, 5, 10, 18, 19],
    "keyword_boost": [10.0, 50.0, 100.0, 1000.0],
    "iterations": [100, 200, 500, 1000],
}


@dataclass(frozen=True)
class RunSettings:
    """One fully resolved configuration for a single run."""

    topics: int = 20
    iterations: int = 200
    c1: float = 1.0
    c2: float = 1.0
    keyword_boost: float = 100.0
    stopword_topics: int = 1
    tfidf_topics: int = 9
    keyword_topics: int = 10
    alpha: float = 1.0
    tfidf_cut: float = 0.05

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentPlan:
    """What to run: corpus, variants, grid value lists, seeds, word lists.

    ``stoplist`` is used both for deletion variants and for scoring the
    stopword rate; None means the bundled default list. ``whitelist`` doubles
    as the keyword seed list for keyword variants and as the expert list for
    scoring.
    """

    corpus: str = ""
    corpus_format: str | None = None       # text | jsonl | corpus; None = by extension
    variants: list[Variant] = field(default_factory=lambda: list(Variant))
    topics: list[int] = field(default_factory=lambda: [20])
    c1: list[float] = field(default_factory=lambda: [1.0])
    c2: list[float] = field(default_factory=lambda: [1.0])
    tfidf_topics: list[int] = field(default_factory=lambda: [9])
    keyword_topics: list[int] = field(default_factory=lambda: [10])
    keyword_boost: list[float] = field(default_factory=lambda: [100.0])
    iterations: list[int] = field(default_factory=lambda: [200])
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    stopword_topics: int = 1
    alpha: float = 1.0
    tfidf_cut: float = 0.05
    metric_top_words: int = 30
    stoplist: str | None = None
    whitelist: str | None = None
    hyper_alphas: list[float] = field(default_factory=lambda: sorted({a for a, _ in DEFAULT_HYPER_GRID}))
    hyper_etas: list[float] = field(default_factory=lambda: sorted({e for _, e in DEFAULT_HYPER_GRID}))

    def metric_config(self) -> MetricConfig:
        n = self.metric_top_words
        return MetricConfig(m_small=min(10, n), m_large=n)

    def __post_init__(self):
        self.variants = [Variant(v) for v in self.variants]
        for name in PLAN_LIST_FIELDS:
            if not getattr(self, name):
                raise ValueError(f"plan field {name} must be a non-empty list")

    def to_json(self) -> dict:
        data = asdict(self)
        data["variants"] = [v.value for v in self.variants]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentPlan":
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentPlan":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass(frozen=True)
class RunSpec:
    variant: Variant
    settings: RunSettings
    seed: int


def enumerate_runs(plan: ExperimentPlan) -> list[RunSpec]:
    """Deterministic plan order: variants, then the Cartesian product of each
    variant's applicable dimensions, then seeds. Dimensions that do not apply
    to a variant are pinned to their first plan value."""
    specs = []
    for variant in plan.variants:
        dims = ("topics", "iterations") + VARIANTS[variant].extra_dims
        for combo in product(*(getattr(plan, d) for d in dims)):
            values = {d: getattr(plan, d)[0] for d in GRID_DIMS}
            values.update(zip(dims, combo))
            settings = RunSettings(stopword_topics=plan.stopword_topics,
                                   alpha=plan.alpha, tfidf_cut=plan.tfidf_cut, **values)
            for seed in plan.seeds:
                specs.append(RunSpec(variant, settings, seed))
    return specs


@dataclass(eq=False)
class RunRecord:
    variant: Variant
    settings: RunSettings
    seed: int
    model: FittedModel
    report: ModelReport
    duration: float  # fit plus score; the shared preprocessing is not included
    search: SearchPoint | None = None  # the grid point a hyperparameter search chose

    def fit_settings(self) -> dict:
        """``settings`` with the alpha the fit used and a search's chosen eta."""
        eta = {} if self.search is None else {"eta": self.search.eta}
        return {**self.settings.to_json(), "alpha": self.model.config.alpha, **eta}

    @property
    def vocabulary_altered(self) -> bool:
        return VARIANTS[self.variant].alters_vocabulary

    def forced_zero_stopword_rate(self) -> bool:
        return VARIANTS[self.variant].forces_zero_stopword_rate


@dataclass(frozen=True)
class FailedRun:
    """A run that raised: its exception's type name, message and the traceback
    text captured where it raised, as strings that any worker can send back."""

    variant: Variant
    settings: RunSettings
    seed: int
    type: str
    error: str
    traceback: str

    def __str__(self) -> str:
        settings = " ".join(f"{k}={v}" for k, v in self.settings.to_json().items())
        return f"{self.variant.value} seed={self.seed} {settings}: {self.error}"

    def to_json(self) -> dict:
        return {"variant": self.variant.value, "seed": self.seed,
                "settings": self.settings.to_json(), "error": self.error,
                "type": self.type, "traceback": self.traceback}


@dataclass(eq=False)
class PlanResources:
    """Corpus and word lists loaded once per plan."""

    corpus: Corpus
    stoplist: list[str]
    whitelist: list[str] | None


def load_resources(plan: ExperimentPlan, corpus: Corpus | None = None) -> PlanResources:
    if corpus is None:
        corpus = _load_plan_corpus(plan)
    stoplist = load_word_list(plan.stoplist) if plan.stoplist else default_stoplist()
    whitelist = load_word_list(plan.whitelist) if plan.whitelist else None
    return PlanResources(corpus=corpus, stoplist=stoplist, whitelist=whitelist)


def _load_plan_corpus(plan: ExperimentPlan) -> Corpus:
    if not plan.corpus:
        raise MissingResource("plan names no corpus")
    fmt = plan.corpus_format
    if fmt is None:
        suffix = Path(plan.corpus).suffix
        fmt = {"": "text", ".txt": "text", ".jsonl": "jsonl", ".json": "corpus"}.get(suffix, "text")
    if fmt == "corpus":
        return load_corpus(plan.corpus)
    texts, ids = load_raw_documents(plan.corpus, fmt)
    return build_corpus(texts, doc_ids=ids)


def _preprocess(key: str, corpus: Corpus, stoplist: list[str],
                tfidf_cut: float) -> Corpus:
    """The corpus a variant whose preprocessing is ``key`` fits."""
    if key == "stoplist":
        return delete_stopwords(corpus, stoplist)
    if key == "tfidf":
        return delete_low_tfidf(corpus, tfidf_cut)
    return corpus


def _build_model(variant: Variant, working: Corpus, stats: CorpusStats,
                 settings: RunSettings, seed: int,
                 whitelist: list[str] | None,
                 plan: ExperimentPlan) -> tuple[FittedModel, SearchPoint | None]:
    spec = VARIANTS[variant]
    if spec.needs_whitelist and not whitelist:
        raise MissingResource(f"variant {variant.value} needs a whitelist (keyword list)")
    config = ModelConfig(topics=settings.topics, alpha=settings.alpha,
                         iterations=settings.iterations, seed=seed)
    if spec.model == SEARCH:
        grid = [(a, e) for a in plan.hyper_alphas for e in plan.hyper_etas]
        result = hyperparameter_search(working, grid, config)
        return result.model, result.chosen
    return fit(working, spec.prior(settings, stats, whitelist or ()), config), None


def _run(plan: ExperimentPlan, spec: RunSpec, working: Corpus, stats: CorpusStats,
         resources: PlanResources, metric_config: MetricConfig) -> RunRecord:
    """Fit and score one run on its already preprocessed corpus."""
    t0 = time.perf_counter()
    model, search = _build_model(spec.variant, working, stats, spec.settings,
                                 spec.seed, resources.whitelist, plan)
    rep = report(model, stats, resources.stoplist, resources.whitelist or (),
                 metric_config)
    return RunRecord(variant=spec.variant, settings=spec.settings, seed=spec.seed,
                     model=model, report=rep, duration=time.perf_counter() - t0,
                     search=search)


def run_variant(plan: ExperimentPlan, variant: Variant, settings: RunSettings,
                seed: int, resources: PlanResources | None = None,
                metric_config: MetricConfig | None = None) -> RunRecord:
    """Preprocess, build the variant's prior, fit, and score one run."""
    resources = resources or load_resources(plan)
    working = _preprocess(VARIANTS[variant].preprocessing, resources.corpus,
                          resources.stoplist, settings.tfidf_cut)
    return _run(plan, RunSpec(variant, settings, seed), working, compute_stats(working),
                resources, metric_config or plan.metric_config())


@dataclass(eq=False)
class GridResult:
    records: list[RunRecord]
    failures: list[FailedRun]


def run_grid(plan: ExperimentPlan, jobs: int | None = None,
             corpus: Corpus | None = None,
             metric_config: MetricConfig | None = None) -> GridResult:
    """Run every spec the plan enumerates, in plan order. ``jobs`` > 1 (None
    means 1) forks ``min(jobs, runs)`` worker processes that inherit the grid
    and send back each run's outcome, with the bytes of one job; a record's
    ``duration`` is timed in its worker. Failed runs are recorded, not fatal."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    resources = load_resources(plan, corpus)
    metric_config = metric_config or plan.metric_config()
    specs = enumerate_runs(plan)
    # Preprocessed corpora and their stats are shared read-only; build them
    # once per key, before any worker starts.
    prep: dict[str, tuple[Corpus, CorpusStats]] = {}
    for spec in specs:
        key = VARIANTS[spec.variant].preprocessing
        if key not in prep:
            working = _preprocess(key, resources.corpus, resources.stoplist,
                                  spec.settings.tfidf_cut)
            prep[key] = (working, compute_stats(working))
    grid = (plan, specs, prep, resources, metric_config)
    workers = min(jobs or 1, len(specs))
    if workers > 1:
        import multiprocessing  # loaded only where a grid forks
        with futures.ProcessPoolExecutor(max_workers=workers,
                                         mp_context=multiprocessing.get_context("fork"),
                                         initializer=_start_worker, initargs=grid) as pool:
            outcomes = list(pool.map(_outcome, range(len(specs))))
    else:
        outcomes = [_outcome(i, grid) for i in range(len(specs))]
    records = [o for o in outcomes if isinstance(o, RunRecord)]
    failures = [o for o in outcomes if isinstance(o, FailedRun)]
    for failure in failures:
        log.warning("run failed: %s", failure)
    return GridResult(records=records, failures=failures)


_worker_grid: tuple | None = None  # set only in a run_grid worker process


def _start_worker(*grid) -> None:
    global _worker_grid
    _worker_grid = grid


def _outcome(index: int, grid: tuple | None = None) -> RunRecord | FailedRun:
    """Run spec ``index`` of ``grid`` (by default the grid this worker
    process was started with); an exception becomes a FailedRun."""
    plan, specs, prep, resources, metric_config = grid or _worker_grid
    spec = specs[index]
    try:
        return _run(plan, spec, *prep[VARIANTS[spec.variant].preprocessing],
                    resources, metric_config)
    except Exception as exc:  # noqa: BLE001 - failure isolation is the contract
        return FailedRun(spec.variant, spec.settings, spec.seed, type(exc).__name__,
                         str(exc), "".join(traceback.format_exception(exc)))


# --- tables ----------------------------------------------------------------

_SETTING_COLUMNS = ("topics", "iterations", "alpha", "c1", "c2", "keyword_boost",
                    "stopword_topics", "tfidf_topics", "keyword_topics")
_DOMAIN_COLUMNS = ("stopword_rate", "expert_rate", "codoc")


def comparison_table(records: list[RunRecord]) -> list[dict]:
    """One row per record with model-level metrics. Rows from vocabulary-
    altering variants carry vocabulary_altered=True: their coherence and PMI
    are not comparable against full-vocabulary rows. Domain-topic-only rates
    are filled when the model designates stopword topics."""
    rows = []
    for rec in records:
        row = {"variant": rec.variant.value, "seed": rec.seed}
        settings = rec.fit_settings()
        row.update((name, settings[name]) for name in _SETTING_COLUMNS)
        row.update((name, rec.report.model_means[name]) for name in METRIC_COLUMNS)
        has_stopword_topics = (rec.report.domain_means is not None
                               and any(s.kind is TopicKind.STOPWORD
                                       for s in rec.report.per_topic))
        for name in _DOMAIN_COLUMNS:
            row[f"domain_{name}"] = rec.report.domain_means[name] if has_stopword_topics else None
        row["vocabulary_altered"] = rec.vocabulary_altered
        rows.append(row)
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


COMPARISON_COLUMNS = ("variant", "seed", *_SETTING_COLUMNS, *METRIC_COLUMNS,
                      *(f"domain_{c}" for c in _DOMAIN_COLUMNS), "vocabulary_altered")


def table_csv(rows: list[dict], header: Sequence[str] = COMPARISON_COLUMNS) -> str:
    return _rows_csv(header, ([_csv_cell(row[h]) for h in header] for row in rows))


def comparison_csv(records: list[RunRecord]) -> str:
    return table_csv(comparison_table(records))


# --- scatter + correlations -------------------------------------------------

_SCATTER_METRICS = ("coherence_10", "coherence_30", "pmi", "log_lift")
_PROXY_AXES = ("stopword_rate", "expert_rate", "codoc")


@dataclass(eq=False)
class CorrelationData:
    points: list[dict]
    correlations: list[dict]

    def points_csv(self) -> str:
        header = ["variant", "seed", "metric", "metric_value",
                  "stopword_rate", "expert_rate", "codoc"]
        return _rows_csv(header, ([_csv_cell(p[h]) for h in header] for p in self.points))

    def correlations_csv(self) -> str:
        return _rows_csv(["metric", "axis", "spearman", "n"],
                         ([c["metric"], c["axis"], _csv_cell(c["spearman"]), c["n"]]
                          for c in self.correlations))

    def correlation(self, metric: str, axis: str) -> float | None:
        for c in self.correlations:
            if c["metric"] == metric and c["axis"] == axis:
                return c["spearman"]
        raise KeyError((metric, axis))


def _spearman(x: list[float], y: list[float]) -> float | None:
    """Spearman's rho as ``scipy.stats.spearmanr(x, y)`` gives it, bit for bit,
    or None where that is undefined: fewer than 3 points, a NaN or a constant
    series. Ranks are whole or half numbers, so every sum ``np.corrcoef`` forms
    is exact and only its square roots and divisions round."""
    xy = np.array([x, y], dtype=np.float64)
    if xy.shape[1] < 3 or np.isnan(xy).any() or (xy[:, :1] == xy).all(axis=1).any():
        return None
    ranks = []
    for values in xy:  # average ranks from 1: tied values share their mean position
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2)[inverse])
    return float(np.corrcoef(ranks)[1, 0])


def correlation_data(records: list[RunRecord]) -> CorrelationData:
    """Scatter points of quality metrics against the list-based proxy axes,
    plus Spearman rank correlations.

    Records with altered vocabularies are excluded from coherence and PMI
    (incomparable), and records whose stopword rate is zero by construction
    are excluded from the stopword-rate axis.
    """
    points = []
    for rec in records:
        means = rec.report.model_means
        for metric in _SCATTER_METRICS:
            if metric != "log_lift" and rec.vocabulary_altered:
                continue
            points.append({
                "variant": rec.variant.value,
                "seed": rec.seed,
                "metric": metric,
                "metric_value": means[metric],
                "stopword_rate": means["stopword_rate"],
                "expert_rate": means["expert_rate"],
                "codoc": means["codoc"],
                "_forced_zero": rec.forced_zero_stopword_rate(),
            })
    correlations = []
    for metric in _SCATTER_METRICS:
        for axis in _PROXY_AXES:
            sub = [p for p in points if p["metric"] == metric]
            if axis == "stopword_rate":
                sub = [p for p in sub if not p["_forced_zero"]]
            xs = [p["metric_value"] for p in sub]
            ys = [p[axis] for p in sub]
            correlations.append({"metric": metric, "axis": axis,
                                 "spearman": _spearman(xs, ys), "n": len(sub)})
    for p in points:
        del p["_forced_zero"]
    return CorrelationData(points=points, correlations=correlations)


# --- manifests ---------------------------------------------------------------

def corpus_hash(corpus: Corpus) -> str:
    payload = json.dumps(corpus.to_json(), separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_stem(index: int, record: RunRecord) -> str:
    """The name of a record's run file (without suffix) and its manifest key;
    ``index`` is the record's place in plan order."""
    return f"{index:04d}_{record.variant.value}_seed{record.seed}"


def run_manifest(plan: ExperimentPlan, result: GridResult, corpus: Corpus) -> dict:
    import scipy

    from . import __version__

    return {
        "version": MANIFEST_FORMAT_VERSION,
        "corpus_hash": corpus_hash(corpus),
        "plan": plan.to_json(),
        "n_records": len(result.records),
        "failures": [f.to_json() for f in result.failures],
        "durations": {run_stem(i, r): r.duration
                      for i, r in enumerate(result.records)},
        "settings": {run_stem(i, r): r.fit_settings()
                     for i, r in enumerate(result.records)},
        "versions": {"priorlda": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "kernel_backend": _kernels.BACKEND},
    }
