"""Record the output digests the benchmark checks against.

Run from the root of a source checkout whose outputs are known to be right:

    python3 perfbench/record_digests.py [workload ...]

For every input seed it runs the workload's set-up and timed part once and
stores the sha256 of the checked output in ``perfbench/digests.json``.
``demo_experiment`` is recorded with one job, so the benchmark's two-job
runs also check that a parallel grid writes the same bytes as a serial one.
Re-record only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

run.import_program()
import workloads  # noqa: E402 - needs the program on the path first


def main(names: list[str]) -> int:
    table = (json.loads(workloads.DIGESTS.read_text(encoding="utf-8"))
             if workloads.DIGESTS.exists() else {})
    workdir = run.OUT / "work" / "record"
    try:
        for name in names or list(workloads.WORKLOADS):
            entries = table.setdefault(name, {})
            for seed in range(workloads.INPUT_SEEDS):
                wl = workloads.WORKLOADS[name](run.ROOT, seed, workdir, jobs=1)
                wl.setup()
                wl.before_run()
                output = wl.run()
                entries[str(seed)] = wl.digest(output)
                print(f"{name} {seed} {entries[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
