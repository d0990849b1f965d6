"""Spans and exact counters around the layer entry points that `jpta.cli` binds.

`Tracer.install(cli)` replaces each binding in the `jpta.cli` namespace with a
wrapper that records a span (name, layer, start, end, parent, run id) and
updates counters derived only from the call's arguments and return value.
Spans stay in memory until `write_spans`.  Nothing under `src/` is changed:
the wrappers live in the module namespace of the traced process only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

ROOT_SPAN = "cli.main"
ROOT_LAYER = "cli"
WRITE_LAYER = "cli.write"
WRITER_PREFIX = "write_"
# Size of run_meta.json depends on the digits of its wall time, so it is not counted.
UNCOUNTED_FILES = frozenset({"run_meta.json"})

BINDING_LAYERS = {
    "design_jpta": "design",
    "heuristic_behavior1": "heuristics",
    "heuristic_behavior2": "heuristics",
    "pe_altmin_fc": "hbf.fc",
    "altmin_pc": "hbf.pc",
    "stack_target": "hbf.stack",
    "gain_map": "array_model.gain_map",
    "effective_beamformer_matrix": "array_model.effective_beams",
    "behavior1_target": "beam_targets",
    "behavior2_target": "beam_targets",
    "custom_target": "beam_targets",
    "multi_angle_target": "beam_targets",
    "build_fit_report": "metrics",
    "fit_objective": "metrics",
    "objective_tilde": "metrics",
    "per_subcarrier_match": "metrics",
}

PHASE_TABLE_BYTES_PER_CELL = 16  # complex128


def _design_counts(counters: dict, call: inspect.BoundArguments, result) -> None:
    config, grid, options = call.arguments["config"], call.arguments["grid"], call.arguments["options"]
    iters = len(result[1])
    counters["design.iters"] += iters
    counters["design.line_updates"] += iters * config.num_ttds
    if options.ttd_update.value == "line_search":
        mb = grid.num_subcarriers * options.line_search_grid * PHASE_TABLE_BYTES_PER_CELL / 1e6
        counters["design.phase_table_mb"] = max(counters["design.phase_table_mb"], mb)


def _hbf_counts(layer: str):
    def count(counters: dict, call: inspect.BoundArguments, result) -> None:
        counters[f"{layer}.kept_iters"] += int(result.residual_trace.size)

    return count


def _gain_map_counts(counters: dict, call: inspect.BoundArguments, result) -> None:
    counters["array_model.gain_map.cells"] += int(result.size)


COUNTERS = {
    "design_jpta": _design_counts,
    "pe_altmin_fc": _hbf_counts("hbf.fc"),
    "altmin_pc": _hbf_counts("hbf.pc"),
    "gain_map": _gain_map_counts,
}

# Every counter a summary reports, so that layers a workload never calls read 0.
COUNTER_NAMES = (
    "design.iters",
    "design.line_updates",
    "design.phase_table_mb",
    "hbf.fc.kept_iters",
    "hbf.pc.kept_iters",
    "array_model.gain_map.cells",
    "cli.write.bytes",
)


def _path_args(call: inspect.BoundArguments) -> list[Path]:
    return [Path(v) for v in call.arguments.values() if isinstance(v, os.PathLike)]


def _file_states(paths: list[Path]) -> dict[Path, tuple[int, int]]:
    """(size, mtime_ns) of each path argument that is a file, and of the files directly in each directory argument."""
    states = {}
    for path in paths:
        candidates = path.iterdir() if path.is_dir() else [path]
        for f in candidates:
            if f.is_file() and f.name not in UNCOUNTED_FILES:
                st = f.stat()
                states[f] = (st.st_size, st.st_mtime_ns)
    return states


def bindings(cli) -> dict[str, str]:
    """Layer of every traced name in the `jpta.cli` namespace."""
    out = {name: layer for name, layer in BINDING_LAYERS.items() if hasattr(cli, name)}
    for name in dir(cli):
        if name.startswith(WRITER_PREFIX) and callable(getattr(cli, name)):
            out[name] = WRITE_LAYER
    return out


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn)
        count = COUNTERS.get(name)
        is_writer = layer == WRITE_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call = None
            if count is not None or is_writer:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
            before = _file_states(_path_args(call)) if is_writer else None
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, call, result)
            if is_writer:
                after = _file_states(_path_args(call))
                self.counters["cli.write.bytes"] += sum(
                    size for f, (size, mtime) in after.items() if before.get(f) != (size, mtime)
                )
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, cli) -> None:
        for name, layer in bindings(cli).items():
            fn = getattr(cli, name)
            self._saved[name] = fn
            setattr(cli, name, self._wrap(fn, name, layer))

    def uninstall(self, cli) -> None:
        for name, fn in self._saved.items():
            setattr(cli, name, fn)
        self._saved.clear()

    def run(self, fn, *args):
        """Call `fn` (the CLI entry point) inside the root span."""
        span = self._open(ROOT_SPAN, ROOT_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(span)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer self time and call counts plus the exact counters.

        A span's self time is its duration minus the time its child spans
        cover; `cli.self_s` is the self time of the root span, i.e. the CLI's
        orchestration outside every wrapped binding.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = defaultdict(float)
        for layer in set(BINDING_LAYERS.values()) | {WRITE_LAYER}:
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for span in self.spans:
            self_s = span["end"] - span["start"] - child_time[span["id"]]
            if span["name"] == ROOT_SPAN:
                out["cli.self_s"] += self_s
                continue
            out[f"{span['layer']}.busy_s"] += self_s
            out[f"{span['layer']}.calls"] += 1
        for name in COUNTER_NAMES:
            out[name] = self.counters[name]
        return dict(out)
