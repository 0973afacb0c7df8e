"""priorlda benchmark: one workload per process, end-to-end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload zipf_fit --seed 3 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout. The timed part runs
again and again until ``--seconds`` have passed, and every run's output is
checked; set-up runs SETUP_REPEATS times before them. The last line of
standard output is one JSON object: with
``--trace 0`` it carries the end-to-end metrics (medians over the runs), with
``--trace 1`` the per-layer metrics of a traced run, whose spans are written
to ``.perfbench/traces/``. Every result, with its run metadata, is appended
to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("demo_experiment", "zipf_fit")


def import_program():
    """Import priorlda from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import priorlda
    except ImportError as exc:
        raise SystemExit(f"error: cannot import priorlda from {src}: {exc}")
    if Path(priorlda.__file__).resolve().parent != src / "priorlda":
        raise SystemExit(f"error: priorlda was imported from {priorlda.__file__}, not {src}")
    return priorlda


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a reading of host speed."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.exists():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the program's source and data files."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "priorlda"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_metadata(args, input_seed: int) -> dict:
    import numpy
    import scipy

    from priorlda import _kernels

    return {
        "workload": args.workload, "seed": args.seed, "input_seed": input_seed,
        "seconds": args.seconds, "trace": args.trace,
        "kernel_backend": "numba" if _kernels.HAVE_NUMBA else "numpy",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "host_loop_ms": host_loop_ms(),
    }


def one_run(workload) -> tuple[float, list[str]]:
    """Time the workload's timed part once and check its output."""
    workload.before_run()
    t0 = time.perf_counter()
    try:
        output = workload.run()
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        wall = time.perf_counter() - t0
        return wall, [traceback.format_exc()]
    wall = time.perf_counter() - t0
    try:
        return wall, workload.check(output)
    except Exception:  # noqa: BLE001
        return wall, [traceback.format_exc()]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def timed(workload, seconds: float, tally: Tally) -> dict:
    """Set up SETUP_REPEATS times, then run the timed part until ``seconds``
    have passed."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        wall, problems = one_run(workload)
        walls.append(wall)
        tally.add(problems)
        if time.perf_counter() >= deadline:
            break
    print(f"# {len(walls)} runs: " + " ".join(f"{w:.3f}" for w in walls)
          + f" s; {len(setups)} set-ups, median {statistics.median(setups):.4f} s")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def traced(workload, seconds: float, tally: Tally, trace_path: Path, meta: dict) -> dict:
    """Alternate untraced and traced runs of the timed part, then derive the
    per-layer metrics from the spans and write the spans out."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    tracer.run = "setup"
    tracer.install(layers.TARGETS)
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    untraced, traced_walls, op_runs = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, problems = one_run(workload)
        untraced.append(wall)
        tally.add(problems)
        tracer.run = f"op{len(op_runs)}"
        tracer.install(layers.TARGETS)
        try:
            wall, problems = one_run(workload)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        op_runs.append((tracer.run, wall))
        tally.add(problems)
        if time.perf_counter() >= deadline:
            break
    found, source = layers.per_layer_metrics(tracer, workload, op_runs, untraced, traced_walls)
    tracer.write(trace_path, dict(meta, metric_source=source))
    print(f"# {len(op_runs)} traced runs; spans -> {trace_path}")
    return found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    input_seed = args.seed % workloads.INPUT_SEEDS
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    meta = run_metadata(args, input_seed)
    print("meta " + json.dumps(meta))
    tally = Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, input_seed, workdir)
        if args.trace:
            trace_path = OUT / "traces" / f"{args.workload}_seed{args.seed}.json"
            found = traced(workload, args.seconds, tally, trace_path, meta)
        else:
            found = timed(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    bad = [k for k, v in found.items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    if bad:
        raise SystemExit(f"error: no value measured for {', '.join(bad)}")
    for name, metric in found.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} runs failed)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": found}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
