"""Command-line entry point: ingest, stats, fit, score, experiment, report.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors. Failures
print a single machine-parseable line ``error: <code>: <message>`` to stderr;
each successful subcommand prints a one-line summary to stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .corpus import (build_corpus, compute_stats, default_stoplist,
                     delete_low_tfidf, delete_stopwords, load_corpus,
                     load_raw_documents, load_word_list, save_corpus, write_json)
from .experiments import (PLAN_FIELD_TYPES, PLAN_LIST_FIELDS, VARIANTS, ExperimentPlan,
                          RunSettings, Variant, comparison_table, correlation_data,
                          load_resources, run_grid, run_manifest, run_stem, table_csv)
from .metrics import MetricConfig, report as score_report
from .priors import validate
from .sampler import ModelConfig, fit as fit_model, load_model, save_model


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


class NoRunSucceeded(RuntimeError):
    """Every run of an experiment failed."""


def _error_code(exc: Exception) -> str:
    name = type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


# each plan field's `experiment` flag; corpus_format, hyper_alphas and
# hyper_etas are read from the plan file only
_PLAN_FLAGS = {f.name: "--" + f.name.replace("_", "-") for f in fields(ExperimentPlan)
               if f.name not in ("corpus_format", "hyper_alphas", "hyper_etas")}
_PLAN_FLAGS["keyword_boost"] = "--c"


# the variant whose prior each `fit --prior` choice fits with
_FIT_PRIORS = {"none": Variant.NO_DELETION, "symmetric": Variant.NO_DELETION,
               "wordfreq": Variant.WORDFREQ_PRIOR, "tfidf": Variant.TFIDF_PRIOR,
               "keyword": Variant.KEYWORD_SEEDING_PRIOR}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="priorlda",
                     description="Topic modeling with informative Dirichlet priors")
    parser.add_argument("--version", action="version", version=f"priorlda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="tokenize raw text into a corpus file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.add_argument("--stoplist", help="word list file; default is the bundled list")
    p.add_argument("--remove-stopwords", action="store_true")
    p.add_argument("--tfidf-cut", type=float,
                   help="drop words below this average TF-IDF quantile, e.g. 0.05")
    p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="corpus statistics as JSON")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit one model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--prior", choices=tuple(_FIT_PRIORS), default="none")
    p.add_argument("--topics", type=int, default=20)
    p.add_argument("--stopword-topics", type=int, default=1)
    p.add_argument("--tfidf-topics", type=int, default=9)
    p.add_argument("--keyword-topics", type=int)
    p.add_argument("--keywords", help="keyword list file for the keyword prior")
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--c", dest="keyword_boost", type=float, default=100.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--average-estimates", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="score a fitted model against a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--stoplist")
    p.add_argument("--whitelist")
    p.add_argument("--top", type=int, choices=(10, 30), default=30)
    p.add_argument("--out", required=True)

    p = sub.add_parser("experiment", help="run a plan file over its grid")
    p.add_argument("--plan", required=True)
    # the caller and N-1 forked processes each take the next run when free;
    # threads were slower than one job, as numpy drops the GIL in many small calls
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    # the plan file's value wins only when the flag is not given
    for name, flag in _PLAN_FLAGS.items():
        if name in PLAN_LIST_FIELDS:
            p.add_argument(flag, dest=name, help="comma-separated values")
        else:
            p.add_argument(flag, dest=name, type=PLAN_FIELD_TYPES[name])

    p = sub.add_parser("report", help="re-aggregate saved runs into one table")
    p.add_argument("--runs", required=True, help="directory holding *.report.json files")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    return parser


def _cmd_ingest(args) -> int:
    texts, ids = load_raw_documents(args.input, args.format)
    corpus = build_corpus(texts, doc_ids=ids)
    if args.remove_stopwords:
        stoplist = load_word_list(args.stoplist) if args.stoplist else default_stoplist()
        corpus = delete_stopwords(corpus, stoplist)
    if args.tfidf_cut is not None:
        corpus = delete_low_tfidf(corpus, args.tfidf_cut)
    save_corpus(corpus, args.out)
    print(f"ingested {corpus.n_docs} documents, {corpus.vocabulary.size} words, "
          f"{corpus.n_tokens} tokens -> {args.out}")
    return 0


def _cmd_stats(args) -> int:
    corpus = load_corpus(args.corpus)
    stats = compute_stats(corpus)
    write_json(args.out, stats.to_json(), {})
    print(f"stats over {stats.n_docs} documents, {stats.vocabulary.size} words -> {args.out}")
    return 0


def _cmd_fit(args) -> int:
    corpus = load_corpus(args.corpus)
    k = args.topics
    spec = VARIANTS[_FIT_PRIORS[args.prior]]
    keywords: list[str] = []
    if spec.needs_whitelist:
        if not args.keywords:
            print(f"error: usage: --prior {args.prior} requires --keywords", file=sys.stderr)
            return 2
        keywords = load_word_list(args.keywords)
    keyword_topics = (args.keyword_topics if args.keyword_topics is not None
                      else k - args.stopword_topics - args.tfidf_topics)
    settings = RunSettings(topics=k, c1=args.c1, c2=args.c2,
                           keyword_boost=args.keyword_boost,
                           stopword_topics=args.stopword_topics,
                           tfidf_topics=args.tfidf_topics, keyword_topics=keyword_topics)
    prior = spec.prior(settings, compute_stats(corpus), keywords)
    for warning in validate(prior):
        print(warning, file=sys.stderr)
    config = ModelConfig(topics=k, alpha=args.alpha, iterations=args.iters,
                         burn_in=args.burn_in, seed=args.seed,
                         average_estimates=args.average_estimates)
    model = fit_model(corpus, prior, config)
    save_model(model, args.out)
    print(f"fitted {k} topics in {args.iters} sweeps "
          f"(final log-likelihood {model.loglik_trace[-1]:.2f}) -> {args.out}")
    return 0


def _cmd_score(args) -> int:
    corpus = load_corpus(args.corpus)
    stats = compute_stats(corpus)
    model = load_model(args.model, vocabulary=corpus.vocabulary)
    stoplist = load_word_list(args.stoplist) if args.stoplist else default_stoplist()
    whitelist = load_word_list(args.whitelist) if args.whitelist else []
    config = MetricConfig(m_small=min(10, args.top), m_large=args.top)
    rep = score_report(model, stats, stoplist, whitelist, config)
    rep.save(args.out)
    print(f"scored {model.n_topics} topics on top-{args.top} words -> {args.out}")
    return 0


def _plan_with_overrides(args) -> ExperimentPlan:
    data = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    for name in _PLAN_FLAGS:
        value = getattr(args, name)
        if value is not None:
            data[name] = ([PLAN_FIELD_TYPES[name](item) for item in value.split(",") if item]
                          if name in PLAN_LIST_FIELDS else value)
    return ExperimentPlan.from_json(data)


def _cmd_experiment(args) -> int:
    plan = _plan_with_overrides(args)
    out_dir = Path(args.out_dir)
    runs_dir = out_dir / "runs"
    resources = load_resources(plan)
    result = run_grid(plan, jobs=args.jobs, resources=resources)
    runs_dir.mkdir(parents=True, exist_ok=True)
    rows = comparison_table(result.records)
    for i, (rec, row) in enumerate(zip(result.records, rows)):
        payload = {
            "variant": rec.variant.value,
            "seed": rec.seed,
            "settings": rec.fit_settings(),
            "vocabulary_altered": rec.vocabulary_altered,
            "duration": rec.duration,
            "row": row,
            "report": rec.report.to_json(),
        }
        write_json(runs_dir / f"{run_stem(i, rec)}.report.json", payload, {})
    (out_dir / "comparison.csv").write_text(table_csv(rows), encoding="utf-8")
    scatter = correlation_data(result.records)
    (out_dir / "scatter.csv").write_text(scatter.points_csv(), encoding="utf-8")
    (out_dir / "correlations.csv").write_text(scatter.correlations_csv(), encoding="utf-8")
    manifest = run_manifest(plan, result, resources.corpus)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                           encoding="utf-8")
    for failure in result.failures:
        print(f"run failed: {failure}", file=sys.stderr)
    print(f"ran {len(result.records)} runs ({len(result.failures)} failures) -> {out_dir}")
    if not result.records:
        raise NoRunSucceeded(f"all {len(result.failures)} runs failed")
    return 0


def _cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    files = sorted(runs_dir.glob("*.report.json"))
    if not files:
        raise FileNotFoundError(f"no *.report.json files under {runs_dir}")
    rows = [json.loads(f.read_text(encoding="utf-8"))["row"] for f in files]
    if args.format == "json":
        Path(args.out).write_text(json.dumps(rows, separators=(",", ":")) + "\n",
                                  encoding="utf-8")
    else:
        Path(args.out).write_text(table_csv(rows, list(rows[0])), encoding="utf-8")
    print(f"aggregated {len(rows)} runs -> {args.out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "fit": _cmd_fit,
    "score": _cmd_score,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        print(f"error: {_error_code(exc)}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
