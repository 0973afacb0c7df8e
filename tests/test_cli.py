import csv
import json
from importlib import resources

import pytest

from priorlda.cli import build_parser, main


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

    def test_rerun_byte_identical(self, tmp_path, plan_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(dir_a)]) == 0
        assert main(["experiment", "--plan", str(plan_path), "--out-dir", str(dir_b)]) == 0
        assert (dir_a / "comparison.csv").read_bytes() == (dir_b / "comparison.csv").read_bytes()
        assert (dir_a / "scatter.csv").read_bytes() == (dir_b / "scatter.csv").read_bytes()

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


class TestDispatch:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "priorlda" in capsys.readouterr().out
