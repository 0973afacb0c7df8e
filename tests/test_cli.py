import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from importlib import resources
from pathlib import Path

import pytest

import priorlda
from priorlda import _kernels, experiments
from priorlda.cli import build_parser, main
from priorlda.corpus import compute_stats, load_corpus, write_json
from priorlda.experiments import ExperimentPlan
from priorlda.priors import PriorConfig, assemble

from .conftest import python_twins


@pytest.fixture
def demo_corpus_path(tmp_path):
    data = resources.files("priorlda.data").joinpath("demo_corpus.jsonl").read_text()
    path = tmp_path / "demo.jsonl"
    path.write_text(data)
    return path


@pytest.fixture
def demo_lists(tmp_path):
    stop = resources.files("priorlda.data").joinpath("demo_stoplist.txt").read_text()
    white = resources.files("priorlda.data").joinpath("demo_whitelist.txt").read_text()
    stop_path = tmp_path / "stop.txt"
    white_path = tmp_path / "white.txt"
    stop_path.write_text(stop)
    white_path.write_text(white)
    return stop_path, white_path


@pytest.fixture
def ingested(tmp_path, demo_corpus_path):
    out = tmp_path / "corpus.json"
    code = main(["ingest", "--input", str(demo_corpus_path), "--format", "jsonl",
                 "--out", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_basic(self, ingested):
        data = json.loads(ingested.read_text())
        assert data["version"] == 1
        assert len(data["documents"]) == 100
        assert len(data["doc_ids"]) == 100

    def test_remove_stopwords(self, tmp_path, demo_corpus_path, demo_lists):
        stop_path, _ = demo_lists
        out = tmp_path / "clean.json"
        code = main(["ingest", "--input", str(demo_corpus_path), "--format", "jsonl",
                     "--stoplist", str(stop_path), "--remove-stopwords",
                     "--out", str(out)])
        assert code == 0
        vocab = json.loads(out.read_text())["vocabulary"]
        assert "stop0" not in vocab

    def test_tfidf_cut(self, tmp_path):
        src = tmp_path / "docs.txt"
        src.write_text("\n".join(["common alpha beta", "common gamma delta",
                                  "common alpha gamma", "common beta delta"]) + "\n")
        out = tmp_path / "cut.json"
        code = main(["ingest", "--input", str(src), "--tfidf-cut", "0.05",
                     "--out", str(out)])
        assert code == 0
        vocab = json.loads(out.read_text())["vocabulary"]
        assert "common" not in vocab  # in every document: lowest average TF-IDF

    @pytest.mark.parametrize("bad,message", [
        ('["a b"]', "expected an object with"),  # not an object
        ('{"text": "a b"}', "expected an object with"),  # no id
        ('{"id": 2, "text": 7}', "expected an object with"),  # a text that is not a str
        ('{"id": 2}', "expected an object with"),
        ('{"id": 2, "text": "a}', "Unterminated string"),  # not JSON
    ])
    def test_bad_jsonl_line_is_named(self, tmp_path, capsys, bad, message):
        src = tmp_path / "docs.jsonl"
        src.write_text('{"id": 1, "text": "a b"}\n\n' + bad + '\n{"id": 3, "text": "c"}\n')
        code = main(["ingest", "--input", str(src), "--format", "jsonl",
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: value-error: {src} line 3: {message}")
        assert not (tmp_path / "x.json").exists()

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        code = main(["ingest", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: usage:")


class TestStats:
    def test_writes_json(self, tmp_path, ingested):
        out = tmp_path / "stats.json"
        assert main(["stats", "--corpus", str(ingested), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) >= {"word_freq", "doc_freq", "avg_tfidf", "n_docs", "n_tokens"}
        assert data["n_docs"] == 100

    def test_non_string_vocabulary_word_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "vocabulary": [1, 2], "documents": [[0, 1]]}')
        out = tmp_path / "stats.json"
        assert main(["stats", "--corpus", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: value-error: invalid vocabulary token: 1\n"
        assert not out.exists()


class TestFit:
    def test_fit_tfidf_prior(self, tmp_path, ingested, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", "--corpus", str(ingested), "--prior", "tfidf",
                     "--topics", "8", "--alpha", "0.2", "--iters", "60",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        assert "fitted 8 topics" in capsys.readouterr().out
        model = json.loads(out.read_text())
        assert model["kinds"][0] == "stopword"
        assert len(model["beta_hat"]) == 8

    def test_fit_keyword_requires_keywords(self, ingested, tmp_path, capsys):
        code = main(["fit", "--corpus", str(ingested), "--prior", "keyword",
                     "--topics", "8", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "requires --keywords" in capsys.readouterr().err

    def test_nan_alpha_is_an_error_before_any_sweep(self, tmp_path, ingested, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", "--corpus", str(ingested), "--topics", "4", "--alpha", "nan",
                     "--out", str(out)])
        assert code == 1
        assert "error: value-error: alpha must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_token_id_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "vocabulary": ["a", "b"],
                                   "documents": [[0, 1.7], [1]]}))
        out = tmp_path / "model.json"
        code = main(["fit", "--corpus", str(bad), "--topics", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: value-error: each document must be a sequence of integer token ids")
        assert not out.exists()

    def test_bool_token_id_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "vocabulary": ["a", "b"], "documents": [[0, true]]}')
        out = tmp_path / "model.json"
        code = main(["fit", "--corpus", str(bad), "--topics", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: value-error: each document must be a sequence of integer token ids")
        assert not out.exists()

    def test_non_string_doc_id_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "vocabulary": ["a"], "documents": [[0], [0]], '
                       '"doc_ids": [1, 2]}')
        out = tmp_path / "model.json"
        code = main(["fit", "--corpus", str(bad), "--topics", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: value-error: document ids must be strings, not 1")
        assert not out.exists()

    def test_missing_corpus_flag(self, tmp_path, capsys):
        code = main(["fit", "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_nonexistent_corpus_is_runtime_error(self, tmp_path, capsys):
        code = main(["fit", "--corpus", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.json" in err

    def test_unknown_flag_rejected(self, ingested, tmp_path, capsys):
        code = main(["fit", "--corpus", str(ingested), "--frobnicate", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_identical_invocations_byte_identical_models(self, ingested, tmp_path):
        paths = [tmp_path / "m1.json", tmp_path / "m2.json"]
        for path in paths:
            assert main(["fit", "--corpus", str(ingested), "--prior", "wordfreq",
                         "--topics", "5", "--iters", "40", "--seed", "11",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestScore:
    @pytest.mark.parametrize("what", ["corpus", "model"])
    def test_json_array_file_is_an_error(self, tmp_path, ingested, capsys, what):
        # the corpus is read first, so the model path is not read in the corpus case
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]\n")
        paths = {"corpus": ingested, "model": tmp_path / "unread.json", what: bad}
        out = tmp_path / "scores.csv"
        code = main(["score", "--model", str(paths["model"]), "--corpus", str(paths["corpus"]),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: value-error: a {what} file must hold a JSON object, not list\n")
        assert not out.exists()

    def test_score_csv(self, tmp_path, ingested, demo_lists):
        stop_path, white_path = demo_lists
        model_path = tmp_path / "model.json"
        assert main(["fit", "--corpus", str(ingested), "--prior", "tfidf",
                     "--topics", "6", "--alpha", "0.2", "--iters", "60",
                     "--seed", "3", "--out", str(model_path)]) == 0
        out = tmp_path / "scores.csv"
        code = main(["score", "--model", str(model_path), "--corpus", str(ingested),
                     "--stoplist", str(stop_path), "--whitelist", str(white_path),
                     "--top", "10", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 6 + 2
        assert rows[0]["kind"] == "stopword"

    def test_model_of_another_vocabulary_is_an_error(self, tmp_path, ingested,
                                                     demo_corpus_path, demo_lists, capsys):
        stop_path, _ = demo_lists
        model_path, other = tmp_path / "model.json", tmp_path / "other.json"
        assert main(["fit", "--corpus", str(ingested), "--topics", "4", "--iters", "4",
                     "--out", str(model_path)]) == 0
        assert main(["ingest", "--input", str(demo_corpus_path), "--format", "jsonl",
                     "--stoplist", str(stop_path), "--remove-stopwords",
                     "--out", str(other)]) == 0
        capsys.readouterr()
        out = tmp_path / "scores.csv"
        code = main(["score", "--model", str(model_path), "--corpus", str(other),
                     "--stoplist", str(stop_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: value-error: 50 vocabulary words for a 4x55 beta_hat\n")
        assert not out.exists()


# every `experiment` override flag, a value unlike the test plan's, and the
# plan field it sets with that value; "copy" passes a copy of the plan's file
FLAG_OVERRIDES = [
    ("--corpus", "copy", "corpus", None),
    ("--variants", "tfidf_prior", "variants", ["tfidf_prior"]),
    ("--topics", "6", "topics", [6]),
    ("--iterations", "7", "iterations", [7]),
    ("--seeds", "4,9", "seeds", [4, 9]),
    ("--c1", "2.5", "c1", [2.5]),
    ("--c2", "0.5", "c2", [0.5]),
    ("--c", "50", "keyword_boost", [50.0]),
    ("--tfidf-topics", "3", "tfidf_topics", [3]),
    ("--keyword-topics", "2", "keyword_topics", [2]),
    ("--stopword-topics", "2", "stopword_topics", 2),
    ("--alpha", "0.5", "alpha", 0.5),
    ("--tfidf-cut", "0.1", "tfidf_cut", 0.1),
    ("--metric-top-words", "10", "metric_top_words", 10),
    ("--stoplist", "copy", "stoplist", None),
    ("--whitelist", "copy", "whitelist", None),
]


class TestExperimentAndReport:
    @pytest.fixture
    def plan_path(self, tmp_path, demo_corpus_path, demo_lists):
        stop_path, white_path = demo_lists
        plan = {
            "corpus": str(demo_corpus_path),
            "variants": ["no_deletion", "tfidf_prior"],
            "topics": [8],
            "iterations": [120],
            "seeds": [1],
            "alpha": 0.2,
            "tfidf_topics": [7],
            "keyword_topics": [0],
            "stoplist": str(stop_path),
            "whitelist": str(white_path),
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_jobs_defaults_to_one(self):
        args = build_parser().parse_args(["experiment", "--plan", "p", "--out-dir", "o"])
        assert args.jobs == 1

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_an_error(self, tmp_path, plan_path, capsys, jobs):
        out_dir = tmp_path / "out"
        code = main(["experiment", "--plan", str(plan_path), f"--jobs={jobs}",
                     "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: value-error: jobs must be at least 1, got {jobs}")
        assert not out_dir.exists()

    def test_run_files_record_the_alpha_and_eta_the_fit_used(self, tmp_path, plan_path):
        plan = {**json.loads(plan_path.read_text()),
                "variants": ["no_deletion", "hyperparam_opt"], "iterations": [10],
                "hyper_alphas": [0.1, 0.5], "hyper_etas": [0.05, 0.5]}
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(out_dir)]) == 0
        runs = [json.loads(p.read_text()) for p in sorted((out_dir / "runs").glob("*.json"))]
        fixed, search = sorted(runs, key=lambda r: r["variant"] == "hyperparam_opt")
        assert fixed["settings"]["alpha"] == fixed["row"]["alpha"] == 0.2
        assert "eta" not in fixed["settings"]
        # the plan's alpha, 0.2, is on no point of the search grid
        assert search["settings"]["alpha"] == search["row"]["alpha"] in (0.1, 0.5)
        assert search["settings"]["eta"] in (0.05, 0.5)

    def test_manifest_lists_the_settings_each_run_file_records(self, tmp_path, plan_path):
        plan = {**json.loads(plan_path.read_text()),
                "variants": ["no_deletion", "hyperparam_opt"], "iterations": [10],
                "hyper_alphas": [0.1, 0.5], "hyper_etas": [0.05, 0.5]}
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        runs = {p.name.removesuffix(".report.json"): json.loads(p.read_text())["settings"]
                for p in (out_dir / "runs").glob("*.report.json")}
        assert manifest["settings"] == runs
        (search,) = [s for stem, s in runs.items() if "hyperparam_opt" in stem]
        assert search["eta"] in (0.05, 0.5) and search["alpha"] in (0.1, 0.5)

    def test_experiment_outputs_and_direction(self, tmp_path, plan_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["experiment", "--plan", str(plan_path), "--jobs", "2",
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "comparison.csv").exists()
        assert (out_dir / "scatter.csv").exists()
        assert (out_dir / "correlations.csv").exists()
        assert (out_dir / "manifest.json").exists()
        rows = {r["variant"]: r for r in
                csv.DictReader((out_dir / "comparison.csv").read_text().splitlines())}
        assert float(rows["tfidf_prior"]["stopword_rate"]) < \
            float(rows["no_deletion"]["stopword_rate"])

    def test_dead_worker_is_one_error_line(self, tmp_path, plan_path, capsys, monkeypatch,
                                           child_runs_first):
        run = experiments._run

        def die_in_worker(plan, spec, *args):
            if multiprocessing.parent_process() is not None:
                os._exit(3)
            return run(plan, spec, *args)

        monkeypatch.setattr(experiments, "_run", die_in_worker)
        child_runs_first()  # the child dies in its first run; the caller runs the rest
        code = main(["experiment", "--plan", str(plan_path), "--jobs", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: broken-process-pool: ")
        assert multiprocessing.active_children() == []

    def test_rerun_byte_identical(self, tmp_path, plan_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(dir_a)]) == 0
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(dir_b)]) == 0
        assert (dir_a / "comparison.csv").read_bytes() == (dir_b / "comparison.csv").read_bytes()
        assert (dir_a / "scatter.csv").read_bytes() == (dir_b / "scatter.csv").read_bytes()

    def test_manifest_durations_keyed_like_run_files(self, tmp_path, plan_path):
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--iterations", "5,10",
                     "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        stems = sorted(p.name.removesuffix(".report.json")
                       for p in (out_dir / "runs").glob("*.report.json"))
        # runs that differ only in a grid setting keep one entry each
        assert len(manifest["durations"]) == manifest["n_records"] == 4
        assert sorted(manifest["durations"]) == stems

    def test_failed_run_names_its_settings(self, tmp_path, plan_path, capsys):
        # K=6 hosts 1 stopword + 2 TF-IDF + 3 keyword rows, but not 9 keyword rows
        plan = {**json.loads(plan_path.read_text()), "variants": ["keyword_seeding_prior"],
                "topics": [6], "tfidf_topics": [2], "keyword_topics": [3, 9],
                "iterations": [5]}
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["n_records"] == 1
        (entry,) = manifest["failures"]
        assert entry["settings"]["keyword_topics"] == 9
        assert entry["settings"]["topics"] == 6
        (line,) = [ln for ln in capsys.readouterr().err.splitlines()
                   if ln.startswith("run failed:")]
        assert line.startswith("run failed: keyword_seeding_prior seed=1 topics=6 ")
        assert " keyword_topics=9 " in line

    def test_each_failure_is_reported_once_in_a_fresh_process(self, tmp_path, plan_path):
        # in a process that sets up no logging, a logged failure would print
        # through logging.lastResort beside the CLI's own line; in-process,
        # pytest's log capture would swallow it
        plan = {**json.loads(plan_path.read_text()), "topics": [6], "iterations": [4],
                "variants": ["no_deletion", "tfidf_prior", "tfidf_deletion",
                             "keyword_seeding_prior"]}
        plan_path.write_text(json.dumps(plan))
        done = subprocess.run(
            [sys.executable, "-m", "priorlda.cli", "experiment", "--plan", str(plan_path),
             "--out-dir", str(tmp_path / "out"), "--c1", "-1"],
            capture_output=True, text=True, env=_checkout_env())
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("ran 2 runs (2 failures) -> ")
        assert [ln.split(":")[0] for ln in done.stderr.splitlines()] == ["run failed"] * 2

    def test_no_run_succeeded_exits_one_after_writing(self, tmp_path, plan_path, capsys):
        # a TF-IDF cut of 2.0 fails each run's preprocessing on its own
        plan = {**json.loads(plan_path.read_text()), "variants": ["tfidf_deletion"],
                "seeds": [1, 2], "tfidf_cut": 2.0, "iterations": [5]}
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(out_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == f"ran 0 runs (2 failures) -> {out_dir}\n"
        lines = err.splitlines()
        assert [ln.split(":")[0] for ln in lines[:-1]] == ["run failed"] * 2
        assert lines[-1] == "error: no-run-succeeded: all 2 runs failed"
        assert len(json.loads((out_dir / "manifest.json").read_text())["failures"]) == 2
        assert (out_dir / "comparison.csv").read_text().count("\n") == 1
        for name in ("scatter.csv", "correlations.csv"):
            assert (out_dir / name).exists()

    def test_report_aggregates_runs(self, tmp_path, plan_path):
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(out_dir)]) == 0
        table = tmp_path / "table.csv"
        code = main(["report", "--runs", str(out_dir / "runs"), "--format", "csv",
                     "--out", str(table)])
        assert code == 0
        rows = list(csv.DictReader(table.read_text().splitlines()))
        assert {r["variant"] for r in rows} == {"no_deletion", "tfidf_prior"}

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        code = main(["report", "--runs", str(tmp_path), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_flags_override_plan_fields(self, tmp_path, plan_path):
        out_dir = tmp_path / "out"
        code = main(["experiment", "--plan", str(plan_path),
                     "--variants", "no_deletion", "--iterations", "20",
                     "--seeds", "5,6", "--out-dir", str(out_dir)])
        assert code == 0
        rows = list(csv.DictReader((out_dir / "comparison.csv").read_text().splitlines()))
        assert [r["variant"] for r in rows] == ["no_deletion", "no_deletion"]
        assert [r["seed"] for r in rows] == ["5", "6"]
        assert rows[0]["iterations"] == "20"

    def test_experiment_flags(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags = [o for a in sub.choices["experiment"]._actions for o in a.option_strings]
        assert sorted(flags) == sorted(
            "-h --help --plan --jobs --out-dir --corpus --variants --topics --iterations "
            "--seeds --c1 --c2 --c --tfidf-topics --keyword-topics --stopword-topics "
            "--alpha --tfidf-cut --metric-top-words --stoplist --whitelist".split())

    @pytest.mark.parametrize("flag,value,name,want", FLAG_OVERRIDES,
                             ids=[flag for flag, *_ in FLAG_OVERRIDES])
    def test_each_flag_lands_in_the_manifest_plan(self, tmp_path, plan_path, flag, value,
                                                  name, want):
        plan = {**json.loads(plan_path.read_text()), "variants": ["no_deletion"],
                "iterations": [5]}
        plan_path.write_text(json.dumps(plan))
        if value == "copy":
            copy = tmp_path / f"copy{Path(plan[name]).suffix}"
            copy.write_bytes(Path(plan[name]).read_bytes())
            value = want = str(copy)
        from_file = ExperimentPlan.from_json(plan).to_json()
        assert from_file[name] != want
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), flag, value,
                     "--out-dir", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["plan"] == {**from_file, name: want}

    @pytest.mark.parametrize("flag,value,code,error", [
        ("--alpha", "x", 2, "usage"), ("--stopword-topics", "1.5", 2, "usage"),
        ("--seeds", "1,x", 1, "value-error"), ("--variants", "bogus", 1, "value-error"),
        ("--alpha", "-1", 1, "value-error"), ("--seeds", "1,-1", 1, "value-error"),
        ("--topics", "0", 1, "value-error"), ("--iterations", "0", 1, "value-error"),
    ])
    def test_bad_flag_value_exit_codes(self, tmp_path, plan_path, capsys, flag, value,
                                       code, error):
        assert main(["experiment", "--plan", str(plan_path), flag, value,
                     "--out-dir", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err.startswith(f"error: {error}: ")

    def test_each_word_list_read_once(self, tmp_path, plan_path, monkeypatch):
        reads = Counter()
        load = experiments.load_word_list

        def counting(path):
            reads[str(path)] += 1
            return load(path)

        monkeypatch.setattr(experiments, "load_word_list", counting)
        assert main(["experiment", "--plan", str(plan_path), "--iterations", "5",
                     "--out-dir", str(tmp_path / "out")]) == 0
        plan = json.loads(plan_path.read_text())
        assert reads == {plan["stoplist"]: 1, plan["whitelist"]: 1}


# sha256 of the outputs of the README demo plan at 10 sweeps and seed 1,
# recorded before report took its co-document counts from one sparse
# product; the scores must not move by a single bit.
DEMO_DIGESTS = {
    30: {
        "comparison.csv": "d0abde9f9c458834fe3b1e40b71d1a7dba55111cb8e67183340a678307850754",
        "scatter.csv": "aa910fdc20beeaeb022b5be2c45c27b86357f1c3b100e1fa6156477e05015da3",
        "correlations.csv": "1f686c2e2abfd60668524d21f374ba1d598826416ac6916b9cec8fb628690fd7",
        "table.csv": "d0abde9f9c458834fe3b1e40b71d1a7dba55111cb8e67183340a678307850754",
        "0000_no_deletion_seed1": "5a8672e54d5b67abdc5080ea6c86cbb5ef34d6c9d1e6db67886884b196eaf6da",
        "0001_stopword_deletion_seed1": "2a91357690e046fc4ee050388b27f234d27519ce33f2e7bb1f08dc97db34319a",
        "0002_tfidf_prior_seed1": "7b9116cbeaacee205c4448a3b1ff4bbf514e0489abe91fa220bcc63fdfda0a09",
        "0003_keyword_seeding_prior_seed1": "e765cf42f1dff3ab4d7aaf9afe3f01e16a79bcf14682e584fde163bcaa72df61",
    },
    # a 60-word window is wider than the 55-word vocabulary
    60: {
        "comparison.csv": "a39bd759b31fecf850e25f638555e9c77ead34aeb9a0b99a24a26447a5f012ae",
        "scatter.csv": "78fcd71e120269521344057f42247c747d286d10fd74e7e1d27b2129b0ff26f6",
        "correlations.csv": "7af44de0fa7e64f288d238329b91ffa8d2b8aa2512003b9fc606ecc5f95c9abf",
        "table.csv": "a39bd759b31fecf850e25f638555e9c77ead34aeb9a0b99a24a26447a5f012ae",
        "0000_no_deletion_seed1": "ccfa15b38162e11403bdc45b6bdf3ef1e2cd1c9d300e99c86013274ef80050ed",
        "0001_stopword_deletion_seed1": "9948d93c998c87688f0f88668a01ab687353cf2d8fd6651b5286240da35631ab",
        "0002_tfidf_prior_seed1": "78cdfcce721c4897af7dad0816e1bc0d5d27295157b95a52dec52ec26115f6d7",
        "0003_keyword_seeding_prior_seed1": "c7f3ab1d4ca3934bba42210b601d740ee9940aa01a5d17e7d61c8093e897c65f",
    },
}


# sha256 of the outputs of TestByteContract.test_all_variants_digests,
# recorded while each variant's facts were still spread over separate sets
# and if-chains in the experiment harness
ALL_VARIANTS_DIGESTS = {
    # re-recorded when the alpha column began to report the alpha each fit
    # used: the two hyperparameter-search rows read 0.1, not the plan's 0.2
    "comparison.csv": "d93ee0078a4d2fbb88191b2032e0b3370fa1517669d018628709829db5b5bd91",
    "scatter.csv": "6514f1a34f90cfbdcc821694d9cc2b2536ec793a33e4980ed639d63d81ae9cde",
    # which runs count on the stopword-rate axis
    "correlations.csv": "5602f259e62498ff7fb254ff611a9a09481c9286ebfb842bf51437a7200e092a",
}


class TestByteContract:
    @pytest.mark.parametrize("top,jobs", [(30, 1), (60, 2)])
    def test_demo_plan_digests(self, tmp_path, demo_corpus_path, demo_lists, top, jobs):
        # the same bytes from the C kernels and from their Python twins
        for twins in (nullcontext, python_twins):
            with twins():
                self._check_demo_plan_digests(tmp_path / twins.__name__, demo_corpus_path,
                                              demo_lists, top, jobs)

    @staticmethod
    def _check_demo_plan_digests(tmp_path, demo_corpus_path, demo_lists, top, jobs):
        tmp_path.mkdir()
        stop_path, white_path = demo_lists
        plan = {
            "corpus": str(demo_corpus_path),
            "variants": ["no_deletion", "stopword_deletion", "tfidf_prior",
                         "keyword_seeding_prior"],
            "topics": [20], "iterations": [10], "seeds": [1], "alpha": 0.2,
            "tfidf_topics": [9], "keyword_topics": [10], "metric_top_words": top,
            "stoplist": str(stop_path), "whitelist": str(white_path),
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--jobs", str(jobs),
                     "--out-dir", str(out_dir)]) == 0
        assert main(["report", "--runs", str(out_dir / "runs"),
                     "--out", str(out_dir / "table.csv")]) == 0

        def sha(data: bytes) -> str:
            return hashlib.sha256(data).hexdigest()

        got = {name: sha((out_dir / name).read_bytes())
               for name in ("comparison.csv", "scatter.csv", "correlations.csv", "table.csv")}
        for path in sorted((out_dir / "runs").glob("*.report.json")):
            # the bytes ModelReport.save writes; the run file adds a duration
            report = json.loads(path.read_text())["report"]
            got[path.name.removesuffix(".report.json")] = sha(
                (json.dumps(report, separators=(",", ":")) + "\n").encode())
        assert got == DEMO_DIGESTS[top]

    # sha256 of `priorlda fit` model files on the demo corpus, recorded
    # before the writers stopped formatting every float through json.dumps
    # of tolist()
    @pytest.mark.parametrize("extra,digest", [
        ([], "260b78fc4e087098f4704ddac7363c2e05b1dada20b905d38aaf1b6ca5197ba4"),
        (["--average-estimates"],
         "b064cd4041bab60ad5907e3855d669b186d7aeca950700e1644fb1126bd5a618"),
    ])
    def test_fit_model_digest(self, tmp_path, ingested, extra, digest):
        # the same bytes from the C kernels and from their Python twins
        for twins in (nullcontext, python_twins):
            with twins():
                out = tmp_path / f"{twins.__name__}.json"
                assert main(["fit", "--corpus", str(ingested), "--prior", "tfidf",
                             "--topics", "8", "--alpha", "0.2", "--iters", "30", "--seed", "7",
                             *extra, "--out", str(out)]) == 0
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # every variant with each of its extra grid dimensions at two values
    # where the plan gives two, so the per-variant settings and the plan order
    # are pinned along with the scores
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_variants_digests(self, tmp_path, demo_corpus_path, demo_lists, jobs):
        stop_path, white_path = demo_lists
        plan = {
            "corpus": str(demo_corpus_path),
            "variants": [
                "no_deletion", "stopword_deletion", "tfidf_deletion",
                "keyword_topics_baseline", "hyperparam_opt",
                "deletion_plus_hyperparam_opt", "wordfreq_prior", "tfidf_prior",
                "keyword_seeding_prior"],
            "topics": [6], "iterations": [3], "seeds": [1], "alpha": 0.2,
            "c1": [1.0, 10.0], "c2": [0.5], "keyword_boost": [50.0, 100.0],
            "tfidf_topics": [2], "keyword_topics": [3],
            "hyper_alphas": [0.1, 0.5], "hyper_etas": [0.05],
            "metric_top_words": 10,
            "stoplist": str(stop_path), "whitelist": str(white_path),
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--plan", str(plan_path), "--jobs", str(jobs),
                     "--out-dir", str(out_dir)]) == 0
        got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in ALL_VARIANTS_DIGESTS}
        assert got == ALL_VARIANTS_DIGESTS

    # `priorlda fit` model files for the other prior kinds
    @pytest.mark.parametrize("prior,digest", [
        (["--prior", "symmetric"],
         "0e478fbc64694684afa6636ae81cb3605dcfb2733895bf7d175737e71db3f18f"),
        (["--prior", "wordfreq", "--stopword-topics", "2"],
         "a21965aba46b2835e26c9706cecaa21df533a1e1269c37132f7b3bd02f302687"),
        (["--prior", "keyword", "--keywords", "{whitelist}", "--tfidf-topics", "3",
          "--c1", "10", "--c2", "0.5", "--c", "50"],
         "bfd1118d3891ce1b64d877bfa4e1657bda49e53cf2a8eee93d8070f2eccc3af2"),
    ])
    def test_fit_prior_digest(self, tmp_path, ingested, demo_lists, prior, digest):
        _, white_path = demo_lists
        prior = [arg.format(whitelist=white_path) for arg in prior]
        for twins in (nullcontext, python_twins):
            with twins():
                out = tmp_path / f"{twins.__name__}.json"
                assert main(["fit", "--corpus", str(ingested), *prior,
                             "--topics", "8", "--alpha", "0.2", "--iters", "30", "--seed", "7",
                             "--out", str(out)]) == 0
                assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # `priorlda ingest` corpus files and a `priorlda stats` file from the
    # demo corpus, recorded while Corpus kept one array per document and
    # compute_stats looped over them. The demo stoplist is passed because the
    # bundled one holds none of the demo words; a 0.05 cut drops nothing here
    # (its cutoff is 0, the stopwords' TF-IDF), so 0.2 is pinned as well.
    @pytest.mark.parametrize("flags,digest", [
        ([], "cee536b63ab2f54f8808a77902b7811c565f254fbf7c8d85044bfdc9a5c072bc"),
        (["--stoplist", "{stoplist}", "--remove-stopwords"],
         "9b35ecb11cf984a1d44b8b7a759134be691db85950b3de011f7261812b5f94b8"),
        (["--tfidf-cut", "0.05"],
         "cee536b63ab2f54f8808a77902b7811c565f254fbf7c8d85044bfdc9a5c072bc"),
        (["--tfidf-cut", "0.2"],
         "211cf735cdc59d7846fe1ab728362a7c5cc87e23b6d7af01457499e2ea951509"),
    ])
    def test_ingest_digest(self, tmp_path, demo_corpus_path, demo_lists, flags, digest):
        stop_path, _ = demo_lists
        out = tmp_path / "corpus.json"
        assert main(["ingest", "--input", str(demo_corpus_path), "--format", "jsonl",
                     *[arg.format(stoplist=stop_path) for arg in flags],
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_stats_digest(self, tmp_path, ingested):
        out = tmp_path / "stats.json"
        assert main(["stats", "--corpus", str(ingested), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fa5eabbf65457272ba7069dd6f1d5897d8c9b5e8729558320cd18722cdfe546e")

    def test_repeated_prior_rows_write_as_json_dumps(self, tmp_path, ingested):
        # one stopword row and seven identical TF-IDF rows: the writer
        # formats each row's values again, and copies repeats within a row
        stats = compute_stats(load_corpus(ingested))
        prior = assemble(PriorConfig(topics=8, stopword_topics=1, tfidf_topics=7), stats)
        want = json.dumps({"weights": prior.weights.tolist()}, separators=(",", ":")) + "\n"
        for twins in (nullcontext, python_twins):
            with twins():
                out = tmp_path / f"{twins.__name__}.json"
                write_json(out, {}, {"weights": prior.weights})
                assert out.read_bytes() == want.encode()


def _checkout_env() -> dict:
    """The environment of a fresh interpreter that imports priorlda from this checkout."""
    path = [str(Path(priorlda.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _fresh_modules(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports priorlda from this
    checkout; the sorted list of scipy and multiprocessing modules it then
    holds, as printed."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_checkout_env(), check=True)
    return done.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # scipy.special alone cost every priorlda process, --help included, about
    # 0.3 s and 24 MB; scipy is loaded only by the Python twins, and
    # multiprocessing only by a grid that forks
    assert _fresh_modules("import priorlda, priorlda.cli") == "[]"


def _readme_fit(tmp_path) -> tuple[str, Path, Path]:
    """Code running the README's ingest and fit commands, and the corpus and
    model files they write."""
    data = resources.files("priorlda.data").joinpath("demo_corpus.jsonl")
    corpus, model = tmp_path / "corpus.json", tmp_path / "model.json"
    code = (f"from priorlda.cli import main\n"
            f"assert main(['ingest', '--input', {str(data)!r}, '--format', 'jsonl', "
            f"'--out', {str(corpus)!r}]) == 0\n"
            f"assert main(['fit', '--corpus', {str(corpus)!r}, '--prior', 'tfidf', "
            f"'--topics', '20', '--alpha', '0.2', '--iters', '500', '--seed', '7', "
            f"'--out', {str(model)!r}]) == 0\n")
    return code, corpus, model


def test_readme_ingest_and_fit_load_no_scipy(tmp_path):
    code, _, model = _readme_fit(tmp_path)
    assert _fresh_modules(code) == "[]"
    assert json.loads(model.read_text())["config"]["iterations"] == 500


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="the Python twins load scipy")
def test_readme_score_and_experiment_load_no_scipy(tmp_path):
    # the co-document counts of every report come from a C kernel, not from
    # scipy.sparse, whose import cost the first report in a process about 14 MB
    data = resources.files("priorlda.data")
    stop, white = str(data / "demo_stoplist.txt"), str(data / "demo_whitelist.txt")
    plan = {"corpus": str(data / "demo_corpus.jsonl"),
            "variants": ["no_deletion", "stopword_deletion", "tfidf_prior",
                         "keyword_seeding_prior"],
            "topics": [20], "iterations": [300], "seeds": [1, 2, 3], "alpha": 0.2,
            "tfidf_topics": [9], "keyword_topics": [10], "stoplist": stop, "whitelist": white}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    fit, corpus, model = _readme_fit(tmp_path)
    scores, out = tmp_path / "scores.csv", tmp_path / "results"
    code = fit + (
        f"assert main(['score', '--model', {str(model)!r}, '--corpus', {str(corpus)!r}, "
        f"'--stoplist', {stop!r}, '--whitelist', {white!r}, '--top', '10', "
        f"'--out', {str(scores)!r}]) == 0\n"
        f"assert main(['experiment', '--plan', {str(tmp_path / 'plan.json')!r}, "
        f"'--jobs', '1', '--out-dir', {str(out)!r}]) == 0")
    assert _fresh_modules(code) == "[]"
    assert len(scores.read_text().splitlines()) == 1 + 20 + 2
    assert len(list((out / "runs").glob("*.report.json"))) == 12


class TestDispatch:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "priorlda" in capsys.readouterr().out
