import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    # a traced benchmark run wraps each (module, attr) of layers.TARGETS, so
    # renaming or removing one of those functions breaks `run.py --trace 1`
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    missing = [label for module, attr, label, _ in layers.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_benchmark_runs_clean(tmp_path):
    # `run.py --trace 1` on a copy of the checkout, so that its .perfbench/
    # output lands there; both workloads at once, one process each
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    runs = {workload: subprocess.Popen(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
                 "--seconds", "0", "--trace", "1"],
                cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for workload in ("demo_experiment", "zipf_fit")}
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    try:
        for workload, run in runs.items():
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, f"{workload}: {err}"
            result = json.loads(out.splitlines()[-1])
            assert result["correct"] is True, f"{workload}: {err}"
            assert [name for name in per_layer if name not in result["metrics"]] == [], workload
    finally:
        for run in runs.values():
            run.kill()  # a no-op once it has exited
            run.communicate()  # reaps it and closes its pipes, however the test ends
