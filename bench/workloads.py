"""The benchmark's workloads: stock `jpta reproduce` presets.

Every workload runs one preset through `jpta.cli.main` with `--workers 1`.
The benchmark seed picks the preset's `--seed` (seed modulo PRESET_SEEDS).
Only fig8 draws random numbers (hybrid-fit restarts), so it keeps one reference
output per preset seed; the fig4 and fig5 presets are deterministic and share
one reference for every seed.

All three presets run at K=256 (`--fast`).  At the stock K=2048 one fig4 run
takes about 20 s, so only two fit in a benchmark run, and on a shared 2-vCPU
machine their median spread by up to 24% across seeds; at K=256 a run takes
about 2 s and a 30-s benchmark run holds more than ten.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"

PRESET_SEEDS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    figure: str
    fast: bool
    seed_dependent: bool
    why: str

    def preset_seed(self, seed: int) -> int:
        return seed % PRESET_SEEDS

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        """Arguments for `jpta.cli.main`, exactly as a user would type them."""
        argv = ["reproduce", self.figure]
        if self.fast:
            argv.append("--fast")
        return argv + ["--seed", str(self.preset_seed(seed)), "--workers", "1", "--out", str(out_dir)]

    def reference_path(self, seed: int) -> Path:
        key = self.preset_seed(seed) if self.seed_dependent else 0
        return REFERENCE_DIR / self.name / f"seed{key}.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig4-fast", "fig4", fast=True, seed_dependent=False,
            why="two line-search designs, four 256x181 gain maps and their CSVs: the only gain-map and CSV load",
        ),
        Workload(
            "fig5-fast", "fig5", fast=True, seed_dependent=False,
            why="sweep of N=1..64 delay lines, 42 designs: per-call design overhead, no hbf or gain maps",
        ),
        Workload(
            "fig8-fast", "fig8", fast=True, seed_dependent=True,
            why="hybrid-beamforming chain sweep: SVD/Procrustes fits dominate, design is about 11%",
        ),
    )
}
