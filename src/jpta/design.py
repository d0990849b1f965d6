"""Alternating design of delay, phase-shifter, and digital settings.

The optimizer cycles conditionally optimal updates.  With the digital phases
fixed the delay lines decouple, so all lines are refreshed at once by a grid
line-search (or by a closed-form weighted least-squares fit on unwrapped
target phases), and every phase-shifter follows in closed form from the
iteration's delay factors ``e^{-j 2 pi f tau}``.  The delay vector is then
pushed back to the center of its feasible window; that shifts every delay by
one offset, so the digital alignment reuses the iteration's delay factors,
rotated per subcarrier.  Magnitudes of the digital weights are set once up
front: the optimal power split simply copies the per-subcarrier target norms.
The public per-line updates run the optimizer's batched updates on a single line.

The line search is exact but pruned.  It evaluates each line's objective at
every 16th grid point in single precision, bounds the objective between those
points by how fast it can bend and by the rounding of that pass, and evaluates
in double precision only the grid points of the stretches whose bound reaches
the line's best value.  It returns the argmax of an exhaustive grid scan
without ever holding a subcarriers-by-grid phase table.  What an iteration
does not change (the target's conjugate rows, the curvature bounds, the wLS
weights) is built once per design, and the vertex refine's delay factors
serve as the iteration's delay response.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .array_model import SubcarrierGrid, SystemConfig, _FrozenArrays, delay_response
from .beam_targets import BeamTarget

__all__ = [
    "TtdUpdate",
    "DesignOptions",
    "JptaBeamformer",
    "wrap_angle",
    "digital_power_allocation",
    "ttd_objective",
    "ttd_update_line_search",
    "phase_unwrap",
    "ttd_update_wls",
    "ps_update",
    "digital_phase_update",
    "center_delays",
    "shift_nonnegative",
    "quantize_delays",
    "design_jpta",
]

_TIE_TOL = 1e-12  # grid values closer than this count as tied; smallest tau wins
_RANGE_RTOL = 1e-12  # relative slack of a discrete set's top value above kappa/W
_COARSE_STEP = 16  # grid steps between the points where the line search bounds its objective
# Pruning slack per unit of a line's coefficient mass: far above the rounding of the
# phase arguments and K-term sums behind the values the bound compares.
_PRUNE_RTOL = 1e-9
_FINE_CHUNK_CELLS = 1 << 15  # complex cells per block of the fine pass, to bound its memory


class TtdUpdate(str, Enum):
    LINE_SEARCH = "line_search"
    WLS = "wls"


@dataclass(frozen=True)
class DesignOptions:
    """Knobs of the alternating optimizer.

    ``line_search_grid`` points span the centered search window
    ``[-kappa/(2W), kappa/(2W)]``; the best grid point is polished by parabolic
    interpolation through its neighbors.  The best grid point is that of an
    exhaustive scan, but only the stretches of the grid that a curvature
    bound from every 16th point cannot rule out are evaluated point by point.
    ``discrete_delays`` (seconds, sorted, finite, inside ``[0, kappa/W]``)
    snaps the finished, nonnegative delays to hardware-realizable values.
    ``init_phase_seed`` switches the digital-phase start from all zeros to a
    seeded uniform draw.
    """

    ttd_update: TtdUpdate = TtdUpdate.LINE_SEARCH
    max_iter: int = 10
    line_search_grid: int = 4096
    discrete_delays: tuple[float, ...] | None = None
    enforce_nonnegative_delays: bool = True
    convergence_epsilon: float | None = None
    init_phase_seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ttd_update", TtdUpdate(self.ttd_update))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.line_search_grid < 3:
            raise ValueError("line_search_grid must be at least 3")
        if self.discrete_delays is not None:
            values = tuple(float(v) for v in self.discrete_delays)
            if not values:
                raise ValueError("discrete delay set must not be empty")
            if not all(math.isfinite(v) for v in values):
                raise ValueError("discrete delay set must be finite")
            if any(b < a for a, b in zip(values, values[1:])):
                raise ValueError("discrete delay set must be sorted ascending")
            object.__setattr__(self, "discrete_delays", values)
        if self.init_phase_seed is not None and self.init_phase_seed < 0:
            raise ValueError(f"init_phase_seed ({self.init_phase_seed}) must be non-negative")


@dataclass(frozen=True, eq=False)
class JptaBeamformer(_FrozenArrays):
    """One analog solution: N delays [s], M phase-shifts [rad], K digital weights."""

    delays: np.ndarray
    phases: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        self._store_frozen(delays=np.array(self.delays, dtype=np.float64, order="C"),
                           phases=np.array(self.phases, dtype=np.float64, order="C"),
                           alpha=np.array(self.alpha, dtype=np.complex128, order="C"))

    @property
    def alpha_phases(self) -> np.ndarray:
        return np.angle(self.alpha)


def wrap_angle(x: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(x) + np.pi, 2.0 * np.pi) - np.pi


def digital_power_allocation(target: BeamTarget) -> np.ndarray:
    """Optimal digital magnitudes: |alpha_k| equals the target norm, per subcarrier."""
    return target.norms.copy()


def _pow2_at_or_below(x: float) -> float:
    """The power of two in ``(x/2, x]`` for a positive ``x``: scaling by it is exact, and keeps
    ``x``'s powers and products from leaving the double range."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _layout(config: SystemConfig, n: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Antenna columns and run starts of delay line ``n`` (1-based), or of all lines when ``n`` is None."""
    if n is None:
        return config.line_columns, config.line_starts
    if not 1 <= n <= config.num_ttds:
        raise ValueError(f"delay line number {n} out of range 1..{config.num_ttds}")
    return np.split(config.line_columns, config.line_starts[1:])[n - 1], config.line_starts[:1]


class _SearchGrid(NamedTuple):
    """Line-search delays and the small phase tables the pruned search reads.

    ``coarse`` holds every ``_COARSE_STEP``-th grid index plus the last one;
    row ``i`` of ``phases`` is ``e^{-j 2 pi f tau}`` at ``taus[coarse[i]]``, and
    column ``i`` of ``steps`` is ``e^{-j 2 pi f i h}`` for the grid step ``h``.
    ``phases32`` is ``phases.T`` in single precision, for the bound pass.
    """

    taus: np.ndarray
    coarse: np.ndarray
    phases: np.ndarray
    steps: np.ndarray
    phases32: np.ndarray


_GRID_TABLE: dict[tuple, _SearchGrid] = {}  # the last line-search grid and its tables


def _grid_table(config: SystemConfig, grid: SubcarrierGrid, points: int) -> _SearchGrid:
    """Read-only line-search delays over ``[-kappa/(2W), kappa/(2W)]`` and their coarse tables.

    They depend only on the subcarrier frequencies, the window and the point
    count, so the last ones built are kept; the slot is emptied before new
    tables are built, so at most one set is resident.
    """
    half = config.max_delay / 2.0
    key = (grid.frequencies.tobytes(), half, points)
    if key not in _GRID_TABLE:
        _GRID_TABLE.clear()
        taus = np.linspace(-half, half, points)
        coarse = np.append(np.arange(0, points - 1, _COARSE_STEP), points - 1)
        phases = np.ascontiguousarray(delay_response(grid.frequencies, taus[coarse]).T)
        steps = delay_response(grid.frequencies, np.arange(np.diff(coarse).max() + 1) * (2.0 * half / (points - 1)))
        search = _SearchGrid(taus, coarse, phases, steps, phases.T.astype(np.complex64))
        for arr in search:
            arr.setflags(write=False)
        _GRID_TABLE[key] = search
    return _GRID_TABLE[key]


class _Lines(NamedTuple):
    """What the line search over the lines of ``_layout(config, n)`` reads that no iteration changes.

    Row m of the coefficients ``_coeffs`` builds is ``w_k e^{j ang_k} conj(bbar_{k,m})``, rows
    line after line; ``|c_{m,k}| = w_k |bbar_{k,m}|`` whatever the digital phases, so each
    line's curvature bound ``bend`` and coefficient mass ``sum_{m,k} |c_{m,k}|`` are fixed.
    ``bend`` is in units of ``unit^2``, for the power of two ``unit`` at or below the bandwidth,
    and the bound pass scales the coefficients by ``coarse_scale``, a power of two that brings the
    largest weight into ``[1, 2)``; both scalings are exact and keep the search in range at any
    band or power.
    """

    conj: np.ndarray  # (antennas, K) conj(bbar_{k,m}) of the lines' antennas
    weights: np.ndarray
    starts: np.ndarray  # the row where each line starts
    sizes: np.ndarray  # each line's antenna count
    freqs: np.ndarray
    bend: np.ndarray  # (lines, 1)
    mass: np.ndarray  # (lines,)
    unit: float
    coarse_scale: float


def _lines(config: SystemConfig, grid: SubcarrierGrid, n, target: BeamTarget) -> _Lines:
    cols, starts = _layout(config, n)
    conj = np.conj(target.unit_vectors.T[cols])
    mags = np.abs(conj) * target.weights
    unit = _pow2_at_or_below(config.bandwidth)  # offsets from the carrier in this unit lie inside (-1, 1)
    offsets = grid.indices * (config.bandwidth / unit / config.num_subcarriers)
    bend = (2.0 * np.pi) ** 2 * np.add.reduceat(mags @ offsets**2, starts)[:, None]
    sizes = np.diff(np.append(starts, cols.size))
    mass = np.add.reduceat(mags.sum(axis=1), starts)
    return _Lines(conj, target.weights, starts, sizes, grid.frequencies, bend, mass, unit,
                  1.0 / _pow2_at_or_below(float(target.weights.max())))


def _coeffs(lines: _Lines, alpha_phases) -> np.ndarray:
    """(antennas, K) rows ``w_k e^{j ang_k} conj(bbar_{k,m})`` of the lines' antennas, line after line."""
    return lines.conj * (lines.weights * np.exp(1j * np.asarray(alpha_phases, dtype=np.float64)))


def _line_objective(coeffs: np.ndarray, starts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(lines, T) delay objective from the rows of ``_coeffs``: per line, the sum over its
    antennas m of ``|sum_k w_k e^{j ang_k} conj(bbar_{k,m}) e^{-j 2 pi f_k tau_t}|``."""
    return np.add.reduceat(np.abs(coeffs @ table), starts, axis=0)


def ttd_objective(
    config: SystemConfig,
    grid: SubcarrierGrid,
    n: int,
    tau: float,
    target: BeamTarget,
    alpha_phases: np.ndarray,
) -> float:
    """Per-delay-line alignment objective at delay ``tau``.

    Sums, over the antennas of line ``n``, the magnitude of the weighted
    subcarrier series rotated by the candidate delay.  Periodic in ``tau``
    with period K/W.
    """
    lines = _lines(config, grid, n, target)
    table = delay_response(grid.frequencies, [float(tau)])
    return float(_line_objective(_coeffs(lines, alpha_phases), lines.starts, table)[0, 0])


def _single_precision_slack(num_subcarriers: int) -> float:
    """Largest error of the single-precision coarse objective, per unit of a line's coefficient mass.

    Take u = 2^-24, the unit roundoff of float32, and g = (1 + u)^(2K+2) - 1 (about
    (2K + 2) u).  Per antenna the bound pass rounds each ``c_k`` and each phase ``p_k``
    (``|p_k| = 1``) to complex64, each off by at most u relative, which moves ``q`` by at
    most ``(2u + u^2)`` times the antenna's mass ``sum_k |c_k|``.  ``Re q`` and ``Im q`` are
    each a real dot product of 2K terms whose sizes ``|a c| + |b d|`` add up to at most
    ``|c_k||p_k|`` per k (Cauchy-Schwarz); summed in any order, fused or not, each is off by
    at most ``(1 + u)^(2K) - 1`` times that sum, so with the rounded factors ``q`` is off by
    at most ``sqrt(2) g``.  Then ``|q| <= (1 + sqrt(2) g + 3u)`` mass, its float32 magnitude
    (one ulp, 2u relative) adds at most 2u times that, and the float64 sum over a line's
    antennas adds far less than u.  In all, at most ``sqrt(2) g (1 + 2u) + 6u``.
    """
    u = 2.0**-24
    g = math.expm1((2 * num_subcarriers + 2) * math.log1p(u))
    return math.sqrt(2.0) * g * (1.0 + 2.0 * u) + 6.0 * u


def _grid_values(coeffs: np.ndarray, lines: _Lines, search: _SearchGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line, grid index and objective value of every grid point the pruned search evaluates,
    line after line in ascending grid order; a point left out provably trails its line's best
    grid value by more than ``_TIE_TOL``, and every line keeps at least one point.

    Per antenna the objective is ``|q(tau)|`` for the trigonometric polynomial
    ``q(tau) = sum_k c_k e^{-j 2 pi (f_k - f0) tau}`` (``f0`` the carrier;
    the shift leaves ``|q|`` unchanged), whose second derivative is at most
    ``B = (2 pi)^2 sum_k |c_k| (f_k - f0)^2`` in magnitude.  Where a line's
    objective ``F`` peaks at ``t`` inside a coarse interval, the sum over its
    antennas of ``Re(e^{-j arg q(t)} q)`` touches ``F`` from below, is flat at
    ``t`` and bends down by at most the line's summed ``B``; so an end of the
    interval at distance ``d`` from ``t`` has ``F >= F(t) - B d^2 / 2``.  The
    peak is thus at most where the bounds from the two ends meet.  The coarse
    values are computed in single precision; the bound rises by their rounding
    slack, which is monotone and shift-equivariant in the end values, and the
    line's best coarse value falls by it.  Intervals whose bound falls below
    that floor are skipped; every other grid point is evaluated in double
    precision from its interval's start.  A coarse point that two kept
    intervals share takes the later interval's value.
    """
    taus, coarse, phases, steps, phases32 = search
    starts, bend, mass = lines.starts, lines.bend, lines.mass
    scaled = (coeffs * lines.coarse_scale).astype(np.complex64)
    tops = np.add.reduceat(np.abs(scaled @ phases32), starts, axis=0, dtype=np.float64) / lines.coarse_scale
    slack = _single_precision_slack(coeffs.shape[1]) * mass
    half = np.diff(taus[coarse]) * (lines.unit / 2.0)  # in units of 1/unit, like bend
    left, right = tops[:, :-1], tops[:, 1:]
    # the farthest from the left end that a peak can sit: where the two ends' bounds meet, or the right
    # end where they cannot meet (no bend, a zero-width window or an underflow), which bounds any peak
    denom = 2.0 * bend * half
    shift = np.divide(right - left, denom, out=np.zeros_like(left) + half, where=denom > 0.0)
    far = np.clip(half + shift, 0.0, 2.0 * half)
    bound = np.maximum(left + 0.5 * bend * far**2, right) + slack[:, None]
    floor = tops.max(axis=1) - slack - _TIE_TOL - _PRUNE_RTOL * mass
    # a bound that overflowed to NaN rules nothing out
    line, interval = np.nonzero(~(bound < floor[:, None]))

    kn, width = coeffs.shape[1], steps.shape[1]
    sums = np.empty((line.size, width))
    for size in set(lines.sizes.tolist()):
        if size > width:
            # one (K, width) table per kept interval, shared by the line's antennas
            chunk = max(1, _FINE_CHUNK_CELLS // (kn * width))
            for n in np.flatnonzero(lines.sizes == size):
                rows = coeffs[starts[n]:starts[n] + size]
                own = np.arange(*np.searchsorted(line, (n, n + 1)))  # every line keeps a pair
                for lo in range(0, own.size, chunk):
                    part = own[lo:lo + chunk]
                    factors = np.empty((kn, part.size, width), dtype=complex)
                    np.multiply(phases[interval[part]].T[:, :, None], steps[:, None, :], out=factors)
                    sums[part] = np.abs(rows @ factors.reshape(kn, -1)).sum(axis=0).reshape(part.size, width)
        else:
            # each kept (line, interval) block times its phase row, all blocks in one product
            pairs = np.flatnonzero(lines.sizes[line] == size)
            chunk = max(1, _FINE_CHUNK_CELLS // (kn * size))
            for lo in range(0, pairs.size, chunk):
                part = pairs[lo:lo + chunk]
                block = coeffs[starts[line[part]][:, None] + np.arange(size)]
                block *= phases[interval[part]][:, None, :]
                mags = np.abs(block.reshape(-1, kn) @ steps)
                # reduceat, like _line_objective: a sum over a middle axis rounds differently
                sums[part] = np.add.reduceat(mags, np.arange(0, mags.shape[0], size), axis=0)

    later = np.append((line[1:] == line[:-1]) & (interval[1:] == interval[:-1] + 1), False)
    offset = np.arange(width)
    inside = offset <= (np.diff(coarse)[interval] - later)[:, None]
    points = coarse[interval][:, None] + offset
    return np.broadcast_to(line[:, None], points.shape)[inside], points[inside], sums[inside]


def _line_search(lines: _Lines, alpha_phases, search: _SearchGrid) -> tuple[np.ndarray, np.ndarray]:
    """Best delay of each line on the grid ``search.taus``, then refined, and its (K, lines) delay
    factors, equal to ``delay_response(lines.freqs, tau)``.

    Ties within ``_TIE_TOL`` go to the smallest delay; a line keeps its
    parabolic vertex only when it beats the line's best grid value.  The
    factors are the refine's table, with the columns of the lines that keep
    their grid point rebuilt.
    """
    taus = search.taus
    coeffs = _coeffs(lines, alpha_phases)
    line, point, value = _grid_values(coeffs, lines, search)
    firsts = np.searchsorted(line, np.arange(lines.starts.size))
    ties = np.flatnonzero(value >= np.maximum.reduceat(value, firsts)[line] - _TIE_TOL)
    at = ties[np.searchsorted(ties, firsts)]  # each line's first tie: its smallest delay
    best = point[at]
    mid = np.clip(best, 1, taus.size - 2)
    # the neighbors of an interior best point lie in kept intervals; one that was not
    # evaluated, like an edge point, leaves the grid point as it is
    below, above = np.maximum(at - 1, 0), np.minimum(at + 1, point.size - 1)
    interior = (best == mid) & (point[below] == best - 1) & (point[above] == best + 1)
    interior &= (line[below] == line[at]) & (line[above] == line[at])
    # the vertex in units of 1/lines.unit, whose squared steps neither underflow nor overflow
    x1, x2, x3 = taus[[mid - 1, mid, mid + 1]] * lines.unit
    y1, y2, y3 = np.where(interior, value[[below, at, above]], 0.0)
    denom = (x2 - x1) * (y2 - y3) - (x2 - x3) * (y2 - y1)
    interior &= np.abs(denom) > 0.0
    denom = np.where(interior, denom, 1.0)
    vertex = x2 - 0.5 * ((x2 - x1) ** 2 * (y2 - y3) - (x2 - x3) ** 2 * (y2 - y1)) / denom
    vertex = np.clip(vertex, x1, x3) / lines.unit
    table = delay_response(lines.freqs, vertex)
    refined = np.diagonal(_line_objective(coeffs, lines.starts, table))
    keep = interior & (refined > value[at])
    tau = np.where(keep, vertex, taus[best])
    if not keep.all():
        table[:, ~keep] = delay_response(lines.freqs, tau[~keep])
    return tau, table


def ttd_update_line_search(
    config: SystemConfig,
    grid: SubcarrierGrid,
    n: int,
    target: BeamTarget,
    alpha_phases: np.ndarray,
    options: DesignOptions = DesignOptions(),
) -> float:
    """Grid argmax of the delay objective, polished by parabolic interpolation.

    Ties within 1e-12 resolve to the smallest delay; the refined point is only
    kept when it actually improves on the best grid value, so the result never
    trails any grid point.
    """
    search = _grid_table(config, grid, options.line_search_grid)
    return float(_line_search(_lines(config, grid, n, target), alpha_phases, search)[0][0])


def phase_unwrap(seq: np.ndarray) -> np.ndarray:
    """Remove 2*pi jumps from phase sequences over ascending subcarriers (last axis).

    Each element is shifted by an integer multiple of 2*pi so adjacent
    differences stay within [-pi, pi]; the first element is untouched.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.size == 0:
        raise ValueError("phase sequence must be nonempty")
    steps = np.round((x[..., :-1] - x[..., 1:]) / (2.0 * np.pi))
    turns = np.concatenate((np.zeros(x.shape[:-1] + (1,)), np.cumsum(steps, axis=-1)), axis=-1)
    return x + 2.0 * np.pi * turns


def _wls_update(config: SystemConfig, grid: SubcarrierGrid, n, target: BeamTarget):
    """The closed-form weighted least-squares delay of each line of ``_layout(config, n)``, as a
    function of the digital phases; every term but their unwrapped phases ``c`` is built once here."""
    active = target.weights > 0.0
    cols, starts = _layout(config, n)
    unit = _pow2_at_or_below(config.bandwidth)  # the offsets from the carrier that _lines squares
    f = grid.indices[active] * (config.bandwidth / unit / config.num_subcarriers)
    block = target.unit_vectors[np.ix_(np.flatnonzero(active), cols)].T  # (antennas, K)
    v = target.weights[active] * np.abs(block)
    sv = v.sum(axis=1)
    seen = np.add.reduceat(sv, starts)
    if np.any(seen == 0.0):
        raise ValueError(f"all fit weights vanish for delay line {n or 1 + int(np.argmax(seen == 0.0))}")
    sv = np.where(sv == 0.0, 1.0, sv)[:, None]  # antennas without fit weight add nothing
    df = f - (v * f).sum(axis=1, keepdims=True) / sv
    vdf = v * df
    den = np.add.reduceat((vdf * df).sum(axis=1), starts)
    angles = np.angle(block)
    period = config.num_subcarriers / (config.bandwidth / unit)  # K/W in units of 1/unit s, as are the delays
    half = config.max_delay / 2.0 * unit

    def delays(alpha_phases) -> np.ndarray:
        c = phase_unwrap(angles - np.asarray(alpha_phases, dtype=np.float64)[active])
        dc = c - (v * c).sum(axis=1, keepdims=True) / sv
        num = np.add.reduceat((vdf * dc).sum(axis=1), starts)
        tau = np.divide(-num, 2.0 * np.pi * den, out=np.zeros_like(num), where=den != 0.0)
        tau = np.mod(tau + period / 2.0, period) - period / 2.0
        return np.clip(tau, -half, half) / unit

    return delays


def ttd_update_wls(
    config: SystemConfig,
    grid: SubcarrierGrid,
    n: int,
    target: BeamTarget,
    alpha_phases: np.ndarray,
) -> float:
    """Closed-form delay from a weighted least-squares fit of unwrapped phases.

    For each antenna of the line, the phase shifter is eliminated as the
    weighted mean of ``2 pi f_k tau + c_{m,k}`` with
    ``c_{m,k} = unwrap(angle(bbar_{k,m}) - ang_k)``; substituting back leaves a
    scalar quadratic whose minimizer is returned after wrapping into the
    period ``[-K/(2W), K/(2W))`` and clamping to ``[-kappa/(2W), kappa/(2W)]``.
    """
    return float(_wls_update(config, grid, n, target)(alpha_phases)[0])


def _ps_phases(target: BeamTarget, alpha_phases, aligned: np.ndarray) -> np.ndarray:
    """Closed-form phase of each antenna column of ``aligned``, the (K, columns) products
    ``bbar_{k,m} conj(r_{k,m})`` of the target and the delay factor of that antenna's line."""
    rot = target.weights * np.exp(-1j * np.asarray(alpha_phases, dtype=np.float64))
    s = rot @ aligned
    if np.any(np.abs(s) == 0.0):
        warnings.warn("degenerate target: phase-shifter sum vanished; defaulting to 0", stacklevel=3)
    return np.asarray(wrap_angle(np.angle(s)), dtype=np.float64)


def ps_update(
    config: SystemConfig,
    grid: SubcarrierGrid,
    m: int,
    tau: float,
    target: BeamTarget,
    alpha_phases: np.ndarray,
) -> float:
    """Closed-form phase for antenna ``m`` (1-based) given its line's delay."""
    if not 1 <= m <= config.num_antennas:
        raise ValueError(f"antenna number {m} out of range 1..{config.num_antennas}")
    aligned = target.unit_vectors[:, [m - 1]] * np.conj(delay_response(grid.frequencies, [float(tau)]))
    return float(_ps_phases(target, alpha_phases, aligned)[0])


def _digital_alignment(aligned: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per-subcarrier sum  sum_m bbar_{k,m} e^{-j phi_m} conj(r_{k,m}), from the ``aligned`` products
    ``bbar_{k,m} conj(r_{k,m})`` with the antenna-gathered delay factors ``r_{k,m} = e^{-j 2 pi f_k tau_{n(m)}}``."""
    return aligned @ np.exp(-1j * phases)


def digital_phase_update(
    config: SystemConfig,
    grid: SubcarrierGrid,
    k: int,
    delays: np.ndarray,
    phases: np.ndarray,
    target: BeamTarget,
) -> float:
    """Digital phase aligning subcarrier ``k`` with its realized analog beam."""
    row = [grid.position(k)]
    response = delay_response(grid.frequencies[row], delays)[:, config.antenna_line]
    u = _digital_alignment(target.unit_vectors[row] * np.conj(response), np.asarray(phases, dtype=np.float64))
    if abs(u[0]) == 0.0:
        warnings.warn("degenerate target: digital alignment sum vanished; defaulting to 0", stacklevel=2)
    return float(np.angle(u[0]))


def center_delays(config: SystemConfig, delays: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift delays toward the middle of the feasible window.

    Returns the shifted delays and the removed offset; the caller must rotate
    every digital phase by ``-2 pi f_k * offset`` to keep the realized beams
    unchanged.
    """
    tau = np.asarray(delays, dtype=np.float64)
    half = config.max_delay / 2.0
    offset = max(min(float(tau.mean()), half + float(tau.min())), float(tau.max()) - half)
    return tau - offset, offset


def shift_nonnegative(
    config: SystemConfig,
    grid: SubcarrierGrid,
    bf: JptaBeamformer,
) -> JptaBeamformer:
    """Make every delay nonnegative without changing the realized beams."""
    t_min = float(bf.delays.min())
    alpha = bf.alpha * delay_response(grid.frequencies, [t_min])[:, 0]
    return JptaBeamformer(delays=bf.delays - t_min, phases=bf.phases, alpha=alpha)


def _discrete_set(config: SystemConfig, discrete_set) -> np.ndarray:
    """The delay set, checked by `DesignOptions`, within ``[0, kappa/W]``; a top value that ns-to-s
    rounding lifted above kappa/W (``0.8 * 1e-9 > 8e-10``) is taken as kappa/W."""
    values = np.asarray(DesignOptions(discrete_delays=discrete_set).discrete_delays)
    if values[0] < 0.0 or values[-1] > config.max_delay * (1.0 + _RANGE_RTOL):
        raise ValueError("discrete delay set must lie within [0, kappa/W]")
    return np.minimum(values, config.max_delay)


def quantize_delays(
    config: SystemConfig,
    grid: SubcarrierGrid,
    bf: JptaBeamformer,
    target: BeamTarget,
    discrete_set: np.ndarray,
) -> JptaBeamformer:
    """Snap each delay to the nearest value of a sorted discrete set.

    Equidistant candidates resolve to the smaller value.  The phase-shifters
    are re-optimized once against the snapped delays; digital weights are kept.
    """
    values = _discrete_set(config, discrete_set)
    pos = np.searchsorted(values, bf.delays)
    lo = values[np.maximum(pos - 1, 0)]
    hi = values[np.minimum(pos, values.size - 1)]
    snapped = np.where(np.abs(bf.delays - lo) <= np.abs(hi - bf.delays), lo, hi)
    response = delay_response(grid.frequencies, snapped)[:, config.antenna_line]
    phases = _ps_phases(target, bf.alpha_phases, target.unit_vectors * np.conj(response))
    return JptaBeamformer(delays=snapped, phases=phases, alpha=bf.alpha)


def design_jpta(
    config: SystemConfig,
    grid: SubcarrierGrid,
    target: BeamTarget,
    options: DesignOptions = DesignOptions(),
) -> tuple[JptaBeamformer, np.ndarray]:
    """Run the alternating optimizer and return the beamformer plus its trace.

    The trace holds the weighted alignment objective after every completed
    iteration; with the line-search update it is non-decreasing up to grid
    resolution.  An optional early stop triggers once the improvement falls
    below ``options.convergence_epsilon``.  A discrete delay set is applied
    to the nonnegative delays, whatever ``enforce_nonnegative_delays`` says.
    """
    kn = grid.num_subcarriers
    if target.vectors.shape != (kn, config.num_antennas):
        raise ValueError(
            f"target shape {target.vectors.shape} does not match "
            f"(K, M) = {(kn, config.num_antennas)}"
        )
    if options.discrete_delays is not None:
        _discrete_set(config, options.discrete_delays)

    freqs = grid.frequencies
    root_m = math.sqrt(config.num_antennas)

    magnitudes = digital_power_allocation(target)
    if options.init_phase_seed is None:
        ang = np.zeros(kn)
    else:
        ang = np.random.default_rng(options.init_phase_seed).uniform(-np.pi, np.pi, kn)

    use_line_search = options.ttd_update is TtdUpdate.LINE_SEARCH
    if use_line_search:
        search = _grid_table(config, grid, options.line_search_grid)
        lines = _lines(config, grid, None, target)
    else:
        wls_delays = _wls_update(config, grid, None, target)

    trace: list[float] = []
    for _ in range(options.max_iter):
        if use_line_search:
            tau, table = _line_search(lines, ang, search)
        else:
            tau = wls_delays(ang)
            table = delay_response(freqs, tau)
        # the phase-shifter update and the digital alignment share bbar_{k,m} conj(r_{k,m}); np.take gathers
        # the antennas' delay factors C-ordered, like the target rows, which skips numpy's slow mixed-layout product
        aligned = target.unit_vectors * np.conj(np.take(table, config.antenna_line, axis=1))
        phi = _ps_phases(target, ang, aligned)
        tau, offset = center_delays(config, tau)
        u = _digital_alignment(aligned, phi) * delay_response(freqs, [offset])[:, 0]
        ang = np.angle(u)
        objective = float(np.sum(target.weights * np.abs(u)) / root_m)
        trace.append(objective)
        epsilon = options.convergence_epsilon
        if epsilon is not None and len(trace) > 1 and objective - trace[-2] < epsilon:
            break

    bf = JptaBeamformer(
        delays=tau,
        phases=np.asarray(wrap_angle(phi), dtype=np.float64),
        alpha=magnitudes * np.exp(1j * ang),
    )
    if options.enforce_nonnegative_delays or options.discrete_delays is not None:
        bf = shift_nonnegative(config, grid, bf)
    if options.discrete_delays is not None:
        bf = quantize_delays(config, grid, bf, target, np.asarray(options.discrete_delays))
    return bf, np.asarray(trace)
