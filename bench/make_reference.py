"""Regenerate the reference outputs in bench/reference/ from the current code.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each preset once per preset seed it depends on (one seed for the
deterministic presets), with the benchmark's BLAS thread count, and stores a
summary of its output directory (see outputs.py).  Only regenerate after a
change that is meant to alter the outputs, and say so with that change.
"""

from __future__ import annotations

import json
import shutil
import sys

from outputs import summarize
from run import RUNS_DIR, spawn_worker
from workloads import PRESET_SEEDS, ROOT, WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        for seed in range(PRESET_SEEDS if workload.seed_dependent else 1):
            run_dir = RUNS_DIR / f"reference-{name}-seed{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            record = spawn_worker(workload, seed, run_dir, "run")
            if "error" in record or record["rc"] != 0:
                print(f"{name} seed {seed}: run failed: {record.get('error', record.get('rc'))}", file=sys.stderr)
                return 1
            path = workload.reference_path(seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(summarize(run_dir / "run-out"), indent=1) + "\n", encoding="utf-8")
            shutil.rmtree(run_dir)
            print(f"{name} seed {seed}: wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
