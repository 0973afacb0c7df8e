"""Model-variant zoo, grid runner, comparison tables, and scatter data.

A plan names a corpus, the variants to run, value lists for the searchable
settings, and replicate seeds. Runs are independent; failures are recorded
and skipped, never fatal to the sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
import typing
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from itertools import count, product
from pathlib import Path

import numpy as np

from . import _kernels
from .corpus import (Corpus, CorpusStats, build_corpus, compute_stats,
                     default_stoplist, delete_low_tfidf, delete_stopwords,
                     load_corpus, load_raw_documents, load_word_list)
from .metrics import METRIC_COLUMNS, MetricConfig, ModelReport, _rows_csv, report
from .priors import PriorConfig, PriorMatrix, TopicKind, assemble, check_scale
from .sampler import FittedModel, ModelConfig, fit, hyperparameter_search

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
    hyper_alphas: list[float] = field(default_factory=lambda: [0.01, 0.1, 1.0, 10.0])
    hyper_etas: list[float] = field(default_factory=lambda: [0.01, 0.1, 1.0, 10.0])

    def metric_config(self) -> MetricConfig:
        n = self.metric_top_words
        return MetricConfig(m_small=min(10, n), m_large=n)

    def __post_init__(self):
        for f in fields(self):
            name, value, kind = f.name, getattr(self, f.name), PLAN_FIELD_TYPES[f.name]
            if name in PLAN_LIST_FIELDS:
                if not (isinstance(value, list) and value and all(_is_a(v, kind) for v in value)):
                    raise ValueError(f"plan field {name} must be a non-empty list of "
                                     f"{kind.__name__} values, got {value!r}")
            elif not (_is_a(value, kind) or value is None and f.default is None):
                raise ValueError(f"plan field {name} must be a {kind.__name__}, got {value!r}")
        for name, least in (("seeds", 0), ("topics", 1), ("iterations", 1)):
            if min(getattr(self, name)) < least:
                raise ValueError(f"plan field {name} must hold values of at least {least}, "
                                 f"got {getattr(self, name)!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"plan field alpha must be positive and finite, got {self.alpha!r}")
        for name in ("c1", "c2", "keyword_boost"):  # as PriorConfig checks them, before any run
            for value in getattr(self, name):
                check_scale(name, value)
        self.variants = [Variant(v) for v in self.variants]

    def to_json(self) -> dict:
        return {**asdict(self), "variants": [v.value for v in self.variants]}

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentPlan":
        return cls(**data)


# Each plan field's value type: one item's for a list, an optional's without None.
PLAN_FIELD_TYPES = {name: PLAN_LIST_FIELDS.get(name)
                    or next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
                    for name, hint in typing.get_type_hints(ExperimentPlan).items()}


def _is_a(value, kind: type) -> bool:
    """Whether ``value`` may stand as a ``kind``: an int as a float, a bool as nothing."""
    return not isinstance(value, bool) and (
        isinstance(value, kind) or kind is float and isinstance(value, int))


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
    eta: float | None = None  # the symmetric eta a hyperparameter search chose

    def fit_settings(self) -> dict:
        """``settings`` with the alpha the fit used and a search's chosen eta."""
        eta = {} if self.eta is None else {"eta": self.eta}
        return {**self.settings.to_json(), "alpha": self.model.config.alpha, **eta}

    @property
    def vocabulary_altered(self) -> bool:
        """Coherence/PMI are then incomparable against full-vocabulary runs."""
        return VARIANTS[self.variant].preprocessing != "none"

    def forced_zero_stopword_rate(self) -> bool:
        """The scored stoplist was deleted from the vocabulary."""
        return VARIANTS[self.variant].preprocessing == "stoplist"


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


def load_resources(plan: ExperimentPlan) -> PlanResources:
    """The plan's corpus, in its ``corpus_format`` or by suffix, and its word lists."""
    if not plan.corpus:
        raise MissingResource("plan names no corpus")
    fmt = plan.corpus_format
    if fmt is None:
        fmt = {".jsonl": "jsonl", ".json": "corpus"}.get(Path(plan.corpus).suffix, "text")
    if fmt == "corpus":
        corpus = load_corpus(plan.corpus)
    else:
        texts, ids = load_raw_documents(plan.corpus, fmt)
        corpus = build_corpus(texts, doc_ids=ids)
    stoplist = load_word_list(plan.stoplist) if plan.stoplist else default_stoplist()
    whitelist = load_word_list(plan.whitelist) if plan.whitelist else None
    return PlanResources(corpus=corpus, stoplist=stoplist, whitelist=whitelist)


def _preprocess(key: str, corpus: Corpus, stoplist: list[str],
                tfidf_cut: float) -> Corpus:
    """The corpus a variant whose preprocessing is ``key`` fits."""
    if key == "stoplist":
        return delete_stopwords(corpus, stoplist)
    if key == "tfidf":
        return delete_low_tfidf(corpus, tfidf_cut)
    return corpus


def _run(plan: ExperimentPlan, spec: RunSpec, working: Corpus, stats: CorpusStats,
         resources: PlanResources, metric_config: MetricConfig) -> RunRecord:
    """Build the variant's model, fit and score one run on its already
    preprocessed corpus."""
    t0 = time.perf_counter()
    vspec, settings = VARIANTS[spec.variant], spec.settings
    if vspec.needs_whitelist and not resources.whitelist:
        raise MissingResource(f"variant {spec.variant.value} needs a whitelist (keyword list)")
    config = ModelConfig(topics=settings.topics, alpha=settings.alpha,
                         iterations=settings.iterations, seed=spec.seed)
    if vspec.model == SEARCH:
        model, eta = hyperparameter_search(working, plan.hyper_alphas, plan.hyper_etas, config)
    else:
        model = fit(working, vspec.prior(settings, stats, resources.whitelist or ()), config)
        eta = None
    rep = report(model, stats, resources.stoplist, resources.whitelist or (),
                 metric_config)
    return RunRecord(variant=spec.variant, settings=settings, seed=spec.seed,
                     model=model, report=rep, duration=time.perf_counter() - t0, eta=eta)


@dataclass(eq=False)
class GridResult:
    records: list[RunRecord]
    failures: list[FailedRun]


def run_grid(plan: ExperimentPlan, jobs: int = 1,
             resources: PlanResources | None = None,
             metric_config: MetricConfig | None = None) -> GridResult:
    """Run every spec the plan enumerates, in plan order, on ``resources`` (None
    loads the plan's). ``jobs`` > 1 forks ``min(jobs, runs) - 1`` children;
    they and the caller each draw the next spec when free. Failures are
    recorded, not logged: the caller reports them. A dead child raises
    BrokenProcessPool."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    resources = resources or load_resources(plan)
    metric_config = metric_config or plan.metric_config()
    specs = enumerate_runs(plan)
    # one preprocessed corpus and its stats per key, or the exception that
    # building them raised, made before any fork
    prep: dict[str, tuple[Corpus, CorpusStats] | Exception] = {}
    for spec in specs:
        key = VARIANTS[spec.variant].preprocessing
        if key not in prep:
            try:
                working = _preprocess(key, resources.corpus, resources.stoplist,
                                      spec.settings.tfidf_cut)
                prep[key] = (working, compute_stats(working))
            except Exception as exc:  # noqa: BLE001 - each of the key's runs fails with it
                prep[key] = exc
    grid = (plan, specs, prep, resources, metric_config)
    take, children = count().__next__, []
    try:
        if min(jobs, len(specs)) > 1:
            import multiprocessing  # loaded only where a grid forks
            fork = multiprocessing.get_context("fork")

            def take(drawn=fork.Value("q", -1)) -> int:  # the next spec, drawn by a free process
                with drawn:
                    drawn.value += 1
                    return drawn.value
            for _ in range(min(jobs, len(specs)) - 1):
                receive, send = fork.Pipe(duplex=False)
                child = fork.Process(target=lambda send=send: send.send(_drain(take, grid)))
                child.start()
                send.close()  # the child now holds the only send end: its death is EOF
                children.append((child, receive))
        done = _drain(take, grid)
        for w, (child, receive) in enumerate(children, 1):
            try:
                done += receive.recv()
            except EOFError:
                from concurrent.futures.process import BrokenProcessPool
                child.join()
                raise BrokenProcessPool(f"worker {w} exited with code {child.exitcode}") from None
            child.join()
    finally:
        for child, _ in children:
            child.terminate()  # a no-op once joined
            child.join()
    outcomes = [outcome for _, outcome in sorted(done, key=lambda pair: pair[0])]
    return GridResult(records=[o for o in outcomes if isinstance(o, RunRecord)],
                      failures=[o for o in outcomes if isinstance(o, FailedRun)])


def _drain(take: Callable[[], int], grid: tuple) -> list[tuple[int, RunRecord | FailedRun]]:
    """Run spec ``take()`` on its preprocessed corpus until ``take()`` passes the
    last spec; an exception, raised by the run or by its preprocessing, becomes
    a FailedRun. Returns (index, outcome) pairs."""
    plan, specs, prep, resources, metric_config = grid
    done = []
    while (i := take()) < len(specs):
        spec = specs[i]
        error = prepared = prep[VARIANTS[spec.variant].preprocessing]
        if not isinstance(prepared, Exception):
            try:
                done.append((i, _run(plan, spec, *prepared, resources, metric_config)))
                continue
            except Exception as exc:  # noqa: BLE001 - failure isolation is the contract
                error = exc
        done.append((i, FailedRun(spec.variant, spec.settings, spec.seed, type(error).__name__,
                                  str(error), "".join(traceback.format_exception(error)))))
    return done


# --- tables ----------------------------------------------------------------

_SETTING_COLUMNS = ("topics", "iterations", "alpha", "c1", "c2", "keyword_boost",
                    "stopword_topics", "tfidf_topics", "keyword_topics")
_PROXY_AXES = ("stopword_rate", "expert_rate", "codoc")  # the list-based metrics


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
        for name in _PROXY_AXES:
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
                      *(f"domain_{c}" for c in _PROXY_AXES), "vocabulary_altered")


def table_csv(rows: list[dict], header: Sequence[str] = COMPARISON_COLUMNS) -> str:
    return _rows_csv(header, ([_csv_cell(row[h]) for h in header] for row in rows))


def comparison_csv(records: list[RunRecord]) -> str:
    return table_csv(comparison_table(records))


# --- scatter + correlations -------------------------------------------------

_SCATTER_METRICS = ("coherence_10", "coherence_30", "pmi", "log_lift")


@dataclass(eq=False)
class CorrelationData:
    points: list[dict]
    correlations: list[dict]

    def points_csv(self) -> str:
        return table_csv(self.points, ("variant", "seed", "metric", "metric_value", *_PROXY_AXES))

    def correlations_csv(self) -> str:
        return table_csv(self.correlations, ("metric", "axis", "spearman", "n"))


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
                **{axis: means[axis] for axis in _PROXY_AXES},
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
                     # the scipy a Python twin loaded, if one ran
                     "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
                     "kernel_backend": _kernels.BACKEND},
    }
