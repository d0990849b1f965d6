"""One run process: import jpta, resolve the preset, run it once, report timings.

    python3 bench/worker.py --workload fig5-fast --seed 3 --out DIR --result FILE
        [--trace --spans FILE] [--setup-only]

run.py starts this script once per measured preset run, with the BLAS thread
count already fixed in the environment, so that every run pays what a fresh
`jpta reproduce` invocation pays.  The result file holds:

- setup_s: import of `jpta.cli` plus resolving the preset config, the work the
  CLI does before the figure starts;
- wall_s, cpu_s: `jpta.cli.main(...)` wall and process CPU time;
- rc: its exit code;
- peak_rss_mb: peak resident set size of this process, in 1e6 bytes;
- env: interpreter, numpy, BLAS library, BLAS threads and cores;
- trace: per-layer summary (with --trace; spans go to --spans).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_openblas() -> str | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports at run time, if it can be queried."""
    path = _loaded_openblas()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in _OPENBLAS_THREAD_QUERIES:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _import_cli():
    sys.path.insert(0, str(SRC))
    import jpta.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"jpta imported from {cli.__file__}, not from {SRC}")
    return cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    cli_argv = workload.argv(args.seed, args.out)

    start = time.perf_counter()
    cli = _import_cli()
    parsed = cli._build_parser().parse_args(cli_argv)
    cli.build_system(cli.apply_overrides(cli._preset_config(parsed.fast), parsed.overrides))
    result = {"setup_s": time.perf_counter() - start}

    if not args.setup_only:
        tracer = Tracer(f"{args.workload}/seed{args.seed}/{os.getpid()}") if args.trace else None
        if tracer is not None:
            tracer.install(cli)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            rc = tracer.run(cli.main, cli_argv) if tracer is not None else cli.main(cli_argv)
        except Exception:
            rc = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu0
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            tracer.uninstall(cli)
            result["trace"] = tracer.summary()
            if args.spans is not None:
                tracer.write_spans(args.spans)
    result["env"] = environment()
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
