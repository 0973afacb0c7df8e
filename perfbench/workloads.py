"""The benchmark workloads.

Each workload builds its inputs from an input seed in ``setup``, runs the
timed part in ``run``, and checks what ``run`` produced in ``check``, which
returns a list of problems (empty when the output is correct). Checked
outputs are compared with digests recorded in ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import zipfcorpus

# Program functions are called through their modules, so that the wrappers a
# traced run installs on those modules see the calls.
from priorlda import cli, corpus, experiments, priors, sampler

DIGESTS = Path(__file__).with_name("digests.json")
# Workload inputs are drawn from this many input seeds; --seed n uses n mod 32,
# so every input the benchmark can make has a recorded output digest.
INPUT_SEEDS = 32

DEMO_SWEEPS = 10
DEMO_JOBS = min(2, os.cpu_count() or 1)
ZIPF_TOPICS = 50
ZIPF_ALPHA = 0.2
ZIPF_FIT_SWEEPS = 2


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recorded_digest(workload: str, input_seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(input_seed))


def data_file(root: Path, name: str) -> Path:
    return root / "src" / "priorlda" / "data" / name


def demo_plan(root: Path, input_seed: int) -> dict:
    """The README demo plan at the benchmark's sweep count. Input seed 0
    gives the README's replicate seeds 1, 2, 3."""
    plan_seeds = [3 * input_seed + i for i in (1, 2, 3)]
    return {
        "corpus": str(data_file(root, "demo_corpus.jsonl")),
        "variants": ["no_deletion", "stopword_deletion", "tfidf_prior",
                     "keyword_seeding_prior"],
        "topics": [20], "iterations": [DEMO_SWEEPS], "seeds": plan_seeds,
        "alpha": 0.2, "tfidf_topics": [9], "keyword_topics": [10],
        "stoplist": str(data_file(root, "demo_stoplist.txt")),
        "whitelist": str(data_file(root, "demo_whitelist.txt")),
    }


def zipf_prior_config() -> priors.PriorConfig:
    return priors.PriorConfig(topics=ZIPF_TOPICS, stopword_topics=1,
                              tfidf_topics=ZIPF_TOPICS - 1)


class Workload:
    name = ""

    def __init__(self, root: Path, input_seed: int, workdir: Path, jobs: int = DEMO_JOBS):
        self.root = root
        self.input_seed = input_seed
        self.workdir = workdir
        self.jobs = jobs
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def before_run(self) -> None:
        """Untimed clean-up between runs."""

    def run(self):
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def check(self, output) -> list[str]:
        problems = []
        expected = recorded_digest(self.name, self.input_seed)
        got = self.digest(output)
        if expected is None:
            problems.append(f"no recorded digest for input seed {self.input_seed}")
        elif got != expected:
            problems.append(f"output digest {got[:16]} != recorded {expected[:16]}")
        return problems


class DemoExperiment(Workload):
    name = "demo_experiment"

    def setup(self) -> None:
        self.plan_data = demo_plan(self.root, self.input_seed)
        self.plan_path = self.workdir / "plan.json"
        self.plan_path.write_text(json.dumps(self.plan_data, indent=2) + "\n",
                                  encoding="utf-8")
        # check that the inputs load, building the corpus and its statistics
        # as the other workloads' set-up does
        plan = experiments.ExperimentPlan.from_json(dict(self.plan_data))
        corpus.compute_stats(experiments.load_resources(plan).corpus)
        self.out_dir = self.workdir / "experiment"
        self.expected_runs = 3 * len(self.plan_data["variants"])

    def before_run(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["experiment", "--plan", str(self.plan_path),
                             "--jobs", str(self.jobs), "--out-dir", str(self.out_dir)])
        return code, err.getvalue()

    def digest(self, output) -> str:
        return sha256_file(self.out_dir / "comparison.csv")

    def check(self, output) -> list[str]:
        code, err = output
        if code != 0:
            return [f"priorlda experiment exited {code}: {err.strip()}"]
        problems = []
        manifest = json.loads((self.out_dir / "manifest.json").read_text(encoding="utf-8"))
        if manifest["failures"]:
            problems.append(f"{len(manifest['failures'])} grid runs failed: "
                            f"{manifest['failures'][0]['error']}")
        if manifest["n_records"] != self.expected_runs:
            problems.append(f"{manifest['n_records']} of {self.expected_runs} runs recorded")
        return problems + super().check(output)


class ZipfFit(Workload):
    name = "zipf_fit"

    def setup(self) -> None:
        self.corpus = corpus.build_corpus(zipfcorpus.zipf_documents(self.input_seed))
        self.stats = corpus.compute_stats(self.corpus)
        self.model_path = self.workdir / "model.json"

    def run(self):
        prior = priors.assemble(zipf_prior_config(), self.stats)
        model = sampler.fit(self.corpus, prior, sampler.ModelConfig(
            topics=ZIPF_TOPICS, alpha=ZIPF_ALPHA, iterations=ZIPF_FIT_SWEEPS,
            seed=self.input_seed))
        sampler.save_model(model, self.model_path)
        return model

    def digest(self, output) -> str:
        return sha256_file(self.model_path)


WORKLOADS = {w.name: w for w in (DemoExperiment, ZipfFit)}
