"""jpta benchmark: time stock `jpta reproduce` presets and check their outputs.

    python3 bench/run.py --workload fig5-fast --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each measured run is a fresh process (bench/worker.py) that imports jpta from
./src and calls `jpta.cli.main` once with `--workers 1`, as one CLI
invocation would.  A new run starts until --seconds have passed (at least one; with --trace 1
at least one untraced and one traced, alternating).  After every run
its output directory is compared with the reference kept in bench/reference/;
a non-zero exit, a missing file or a mismatch counts the run as failed.

--trace 0 reports the end-to-end metrics (medians over runs):
  wall_s       `jpta.cli.main` wall time, tracing off
  setup_s      import of jpta plus config resolution in a fresh process
  peak_rss_mb  peak resident set size of the run process (1e6 bytes)
--trace 1 reports the per-layer metrics of bench/README.md, from traced runs.

Human-readable lines go to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Full results (every
sample, the environment) and the spans of traced runs are written under
.bench_runs/.  Exit code 0 when every run was correct, 1 when some run failed,
2 when the benchmark cannot run (no jpta sources or no reference).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import outputs  # noqa: E402
from workloads import BENCH_DIR, ROOT, WORKLOADS, Workload  # noqa: E402

RUNS_DIR = ROOT / ".bench_runs"
WORKER = BENCH_DIR / "worker.py"
SETUP_SAMPLES = 4  # extra setup-only processes per run, after one unrecorded warm-up
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "design.busy_s", "design.calls", "design.iters", "design.line_updates", "design.phase_table_mb",
    "heuristics.busy_s", "heuristics.calls",
    "hbf.fc.busy_s", "hbf.fc.calls", "hbf.fc.kept_iters",
    "hbf.pc.busy_s", "hbf.pc.calls", "hbf.pc.kept_iters", "hbf.stack.busy_s",
    "array_model.gain_map.busy_s", "array_model.gain_map.calls", "array_model.gain_map.cells",
    "array_model.effective_beams.busy_s",
    "beam_targets.busy_s", "beam_targets.calls",
    "metrics.busy_s", "metrics.calls",
    "cli.write.busy_s", "cli.write.bytes",
    "cli.self_s",
    "process.cpu_s",
    "trace.overhead_s",
)
# Counters that must repeat exactly between traced runs of one seed.
EXACT = tuple(m for m in PER_LAYER if not m.endswith("_s"))


def blas_thread_count() -> int:
    """BLAS threads for every run: the cores available, at most 2."""
    return min(2, len(os.sched_getaffinity(0)))


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    threads = str(blas_thread_count())
    env.update({var: threads for var in BLAS_THREAD_VARS})
    return env


def _unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "bytes" if metric.endswith(".bytes") else "count"


def spawn_worker(workload: Workload, seed: int, run_dir: Path, tag: str, trace: bool = False,
                 setup_only: bool = False) -> dict:
    """Start one worker process, wait for it, and return its result (or an error record)."""
    result_path = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload.name, "--seed", str(seed),
           "--out", str(run_dir / f"{tag}-out"), "--result", str(result_path)]
    if trace:
        cmd += ["--trace", "--spans", str(run_dir / f"{tag}-spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"run process exceeded {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"run process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def _check(record: dict, out_dir: Path, reference: dict) -> list[str]:
    if "error" in record:
        return [record["error"].strip().splitlines()[-1]]
    if record["rc"] != 0:
        return [f"jpta exited {record['rc']}"]
    return outputs.compare(out_dir, reference)


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _show(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    reference_path = workload.reference_path(seed)
    if not reference_path.is_file():
        raise FileNotFoundError(f"no reference output {reference_path}")
    reference = json.loads(reference_path.read_text(encoding="utf-8"))
    run_dir = RUNS_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup_samples = []
    for i in range(SETUP_SAMPLES + 1):
        record = spawn_worker(workload, seed, run_dir, f"setup{i}", setup_only=True)
        if "error" in record:
            raise RuntimeError(f"setup failed: {record['error']}")
        if i:
            setup_samples.append(record["setup_s"])

    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        tag = f"run{len(runs)}"
        record = spawn_worker(workload, seed, run_dir, tag, trace=traced)
        record["traced"] = traced
        record["problems"] = _check(record, run_dir / f"{tag}-out", reference)
        shutil.rmtree(run_dir / f"{tag}-out", ignore_errors=True)
        runs.append(record)
        if "setup_s" in record:
            setup_samples.append(record["setup_s"])
        if len(runs) >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
            break

    ok = [r for r in runs if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]
    env = next((r["env"] for r in runs if "env" in r), {})
    result = {
        "workload": workload.name,
        "seed": seed,
        "preset_seed": workload.preset_seed(seed),
        "argv": workload.argv(seed, Path("OUT")),
        "env": {**env, "blas_threads_requested": blas_thread_count(), "seed": seed},
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "problems": [p for r in runs for p in r["problems"]],
        "setup_samples": setup_samples,
        "runs": runs,
    }
    if trace:
        result["metrics"] = _layer_metrics(plain, traced_runs)
        result["unsteady_counters"] = [
            m for m in EXACT if len({r["trace"][m] for r in traced_runs if m in r["trace"]}) > 1
        ]
    else:
        result["metrics"] = {
            "wall_s": _median([r["wall_s"] for r in plain]),
            "setup_s": _median(setup_samples),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def _layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    if not plain or not traced:
        return {}
    out = {}
    for name in PER_LAYER:
        if name == "process.cpu_s":
            out[name] = _median([r["cpu_s"] for r in traced])
        elif name == "trace.overhead_s":
            out[name] = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain])
        elif name in EXACT:
            out[name] = traced[0]["trace"][name]
        else:
            out[name] = _median([r["trace"][name] for r in traced])
    return out


def _report(result: dict, trace: bool) -> None:
    name = result["workload"]
    env = result["env"]
    print(f"[{name}] jpta {' '.join(result['argv'])}")
    print(f"[{name}] env: " + json.dumps(env, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] failed_ratio {failed / attempted:.3g} ({failed}/{attempted} runs failed)")
    for problem in result["problems"][:10]:
        print(f"[{name}]   output check: {problem}")
    if trace and result["unsteady_counters"]:
        print(f"[{name}] counters differ between traced runs: {result['unsteady_counters']}")
    metrics = result["metrics"]
    if not trace:
        n_plain = sum(1 for r in result["runs"] if not r["problems"])
        counts = {"wall_s": n_plain, "setup_s": len(result["setup_samples"]), "peak_rss_mb": n_plain}
        for metric, unit in END_TO_END.items():
            print(f"[{name}] {metric} {_show(metrics[metric])} {unit} (median of {counts[metric]})")
        return
    wall = _median([r["wall_s"] for r in result["runs"] if r["traced"] and not r["problems"]])
    for metric in PER_LAYER:
        value = metrics.get(metric)
        share = ""
        if value is not None and metric.endswith(("busy_s", "self_s")):
            share = f"  {100 * value / wall:5.1f}% of traced wall"
        print(f"[{name}] {metric} {_show(value)} {_unit(metric)}{share}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time jpta reproduce presets and check their outputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jpta" / "cli.py").is_file():
        print(f"benchmark: no jpta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    try:
        results = [run_workload(WORKLOADS[n], args.seed, args.seconds, trace) for n in names]
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for result in results:
        _report(result, trace)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": _unit(metric)}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
