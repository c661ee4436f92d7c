"""Seeded simulation of the multiple-testing experiment.

One run: K hypotheses, the first ``n_false`` of them false; at each step a
uniformly chosen hypothesis is tested against its Gaussian null with a fixed
Gaussian betting alternative, multiplying that stream's martingale by the
likelihood ratio.  Tracked rows record the diagonal and subdiagonal bounds
after every step; checkpoint steps emit full discovery matrices.

Determinism contract: all randomness comes from a Philox counter-based bit
generator seeded with the run's 64-bit seed.  Per run the raw uniform stream
is consumed in three blocks: scheduler uniforms, then the two Box-Muller
blocks (z = sqrt(-2 ln(1-u1)) cos(2 pi u2), cosine branch only).  The
scheduler index is min(floor(u*K), K-1).  Identical (config, seed) therefore
reproduces identical trajectories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import discovery
from .discovery import DiagonalSeries, DiscoveryMatrix, RowTracker
from .errors import DomainError
from .logvalue import LN10, MAX_ABS_LOG, LogValue
from .martingales import MartingaleTable, RankedValues, _frozen, gaussian_log_density
from .merging import MergeSpec, U1, U2

# Size limits, checked before a run allocates anything.  A tracked run sorts
# a block of B x K logs per B steps, and each checkpoint builds a discovery
# matrix (timings in README's numerical design notes).
MAX_K = 10_000
# draw_streams holds about ten float64 arrays of `steps` values (80 MB here).
MAX_STEPS = 1_000_000
# Doubles a run keeps for its outputs: two per tracked row per step and two
# K x (K+1) matrices per checkpoint, room for its stored matrix and the one
# regularized copy write_bundle holds at a time; 0.8 GB at this limit.
MAX_RUN_VALUES = 100_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation; (config, seed) fixes every output.

    These fields are the config JSON schema: ``formats`` reads and writes each
    by its type, and a field without a default is required."""

    k: int
    n_false: int
    null_dist: tuple[float, float]
    true_dist_false_nulls: tuple[float, float]
    bet_dist: tuple[float, float]
    steps: int
    seed: int = 0
    scheduler: str = "uniform"
    tracked_rows: tuple[int, ...] = ()
    merge_diagonal: MergeSpec = U1
    merge_subdiagonal: MergeSpec = U2
    merge_matrix: MergeSpec = U1
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise DomainError(f"k must lie in 1..{MAX_K}, got {self.k}")
        if not 0 <= self.n_false <= self.k:
            raise DomainError(f"n_false={self.n_false} outside 0..{self.k}")
        if not 0 <= self.steps <= MAX_STEPS:
            raise DomainError(f"steps must lie in 0..{MAX_STEPS}, got {self.steps}")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        for name, dist in (
            ("null_dist", self.null_dist),
            ("true_dist_false_nulls", self.true_dist_false_nulls),
            ("bet_dist", self.bet_dist),
        ):
            if len(dist) != 2 or not all(math.isfinite(v) for v in dist):
                raise DomainError(f"{name} must be a finite (mean, sd) pair, got {dist}")
            if dist[1] <= 0.0:
                raise DomainError(f"{name} needs sd > 0, got {dist[1]}")
        if self.scheduler != "uniform":
            raise DomainError(f"only the uniform scheduler is supported, got {self.scheduler!r}")
        for r in self.tracked_rows:
            if not 1 <= r <= self.k:
                raise DomainError(f"tracked row {r} outside 1..{self.k}")
        for c in self.checkpoints:
            if not 0 <= c <= self.steps:
                raise DomainError(f"checkpoint {c} outside 0..{self.steps}")
        kept = (2 * len(set(self.tracked_rows)) * self.steps
                + 2 * len(set(self.checkpoints)) * self.k * (self.k + 1))
        if kept > MAX_RUN_VALUES:
            raise DomainError(
                f"tracked_rows, steps and checkpoints would keep {kept} values, "
                f"more than {MAX_RUN_VALUES}"
            )


def paper_experiment_config(
    seed: int = 42,
    steps: int = 10_000,
    tracked_rows: tuple[int, ...] = (98, 99, 100, 101),
    checkpoints: tuple[int, ...] | None = None,
) -> ExperimentConfig:
    """The 200-hypothesis Gaussian study: 100 false nulls with N(-1,1) truth,
    N(0,1) nulls, fixed likelihood-ratio betting.

    The betting alternative N(-0.82, 1) is slightly hedged relative to the
    data-generating N(-1, 1): per-step expected log-growth under a false null
    is 0.82 - 0.82^2/2 = 0.484 at noticeably lower variance than betting the
    truth, which keeps the weakest false nulls from straggling and reproduces
    the headline orders of magnitude of the study across seeds.
    """
    return ExperimentConfig(
        k=200,
        n_false=100,
        null_dist=(0.0, 1.0),
        true_dist_false_nulls=(-1.0, 1.0),
        bet_dist=(-0.82, 1.0),
        steps=steps,
        seed=seed,
        tracked_rows=tracked_rows,
        checkpoints=(steps,) if checkpoints is None else checkpoints,
    )


@dataclass(frozen=True)
class RunResult:
    final_table: MartingaleTable
    diagonal_series: Mapping[int, DiagonalSeries]
    subdiagonal_series: Mapping[int, DiagonalSeries]
    matrices: Mapping[int, DiscoveryMatrix]  # step -> unregularized matrix
    ground_truth: frozenset[int]


def draw_streams(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scheduler indices (0-based), observations, and log increments for a run."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n = cfg.steps
    u_sched = rng.random(n)
    u1 = rng.random(n)
    u2 = rng.random(n)
    z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    k_idx = np.minimum((u_sched * cfg.k).astype(np.int64), cfg.k - 1)
    is_false = k_idx < cfg.n_false
    mean = np.where(is_false, cfg.true_dist_false_nulls[0], cfg.null_dist[0])
    sd = np.where(is_false, cfg.true_dist_false_nulls[1], cfg.null_dist[1])
    # a tiny sd sends a log density to -inf, the right limit; but an
    # observation of zero density under both bet and null has no ratio
    with np.errstate(over="ignore", invalid="ignore"):
        x = mean + sd * z
        log_inc = gaussian_log_density(x, *cfg.bet_dist) - gaussian_log_density(x, *cfg.null_dist)
    if np.isnan(log_inc).any():
        raise DomainError(
            f"an observation has zero density under both bet_dist {cfg.bet_dist} and "
            f"null_dist {cfg.null_dist} in double precision, so its log increment is NaN"
        )
    # the sum of |finite increments| bounds every partial sum of every stream
    with np.errstate(over="ignore"):
        total = np.abs(log_inc[np.isfinite(log_inc)]).sum()
    if total > MAX_ABS_LOG:  # an inf sum is over too
        raise DomainError(
            f"the finite log increments under bet_dist {cfg.bet_dist} and null_dist "
            f"{cfg.null_dist} sum to {total:.6g} in absolute value, more than {MAX_ABS_LOG:g}"
        )
    sent = np.zeros((2, cfg.k), bool)  # hypotheses with a +inf, and with a -inf, increment
    sent[0, k_idx[log_inc == np.inf]] = True
    sent[1, k_idx[log_inc == -np.inf]] = True
    both = np.flatnonzero(sent.all(axis=0))  # not np.intersect1d, which imports numpy.ma
    if both.size:  # its value would be inf - inf
        raise DomainError(
            f"hypothesis {both[0] + 1} has log increments of both +inf and -inf under "
            f"bet_dist {cfg.bet_dist} and null_dist {cfg.null_dist}, so it has no value"
        )
    return k_idx, x, log_inc


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run one seeded experiment; deterministic given (config, seed).

    One pass per stop: block ends every ``RowTracker.block`` steps when rows
    are tracked, then the checkpoints and the last step.  A pass of no
    steps, to a checkpoint at step 0, scores nothing.
    Untracked, a pass applies its increments with ``np.add.at``, which
    accumulates in index order.  Tracked, it builds the pass's (B, K) logs
    after each step by a cumulative sum of one-hot increments, which adds the
    same values in the same order, sorts them along axis 1 and scores the
    tracked rows of all B steps in one ``RowTracker.step``.  The logs carry
    the same bits whatever the stops.
    """
    k_idx, _, log_inc = draw_streams(cfg)
    logs = np.zeros(cfg.k)
    tracked = tuple(sorted(set(cfg.tracked_rows)))
    stops = {cfg.steps, *cfg.checkpoints}
    if tracked:
        tracker = RowTracker(cfg.k, tracked, cfg.merge_diagonal, cfg.merge_subdiagonal)
        stops.update(range(tracker.block, cfg.steps, tracker.block))
    checkpoints = set(cfg.checkpoints)
    store = np.empty((2, cfg.steps, len(tracked)))  # diagonal, subdiagonal
    matrices: dict[int, DiscoveryMatrix] = {}
    start = 0
    for stop in sorted(stops):
        if tracked and stop > start:
            snaps = np.zeros((stop - start + 1, cfg.k))
            snaps[0] = logs
            snaps[np.arange(1, stop - start + 1), k_idx[start:stop]] = log_inc[start:stop]
            snaps = np.cumsum(snaps, axis=0)
            logs = snaps[-1].copy()
            snaps[1:].sort(axis=1)  # in place: np.sort sorts a copy the same way
            store[:, start:stop] = tracker.step(snaps[1:, ::-1])
        else:  # untracked, or a pass of no steps to a checkpoint at step 0
            np.add.at(logs, k_idx[start:stop], log_inc[start:stop])
        start = stop
        if stop in checkpoints:
            matrices[stop] = discovery.discovery_matrix(RankedValues.from_logs(logs), cfg.merge_matrix)

    store /= LN10  # to log10 once; each series is a read-only view of this array
    diagonal_series, subdiagonal_series = (
        {r: DiagonalSeries(row=r, kind=kind, log10_values=col) for r, col in zip(tracked, values.T)}
        for kind, values in zip(("diagonal", "subdiagonal"), _frozen(store))
    )
    return RunResult(
        final_table=MartingaleTable(log_values=_frozen(logs), step=cfg.steps),
        diagonal_series=diagonal_series,
        subdiagonal_series=subdiagonal_series,
        matrices=matrices,
        ground_truth=frozenset(range(1, cfg.n_false + 1)),
    )


@dataclass(frozen=True)
class SeedSummary:
    """Per-seed values of one statistic (log10 scale, seed order) plus
    order statistics interpolated on the log scale."""

    log10_values: np.ndarray

    def _pct(self, q: float) -> LogValue:
        x = np.sort(self.log10_values)
        h = (len(x) - 1) * (q / 100.0)  # np.percentile's "linear" index
        lo, hi = float(x[math.floor(h)]), float(x[math.ceil(h)])
        if math.isinf(lo) or math.isinf(hi):
            # the interpolation's limit: an infinite bracket with positive weight wins
            return LogValue.from_log10(hi if hi == math.inf else lo)
        return LogValue.from_log10(float(np.percentile(self.log10_values, q)))

    @property
    def median(self) -> LogValue:
        return self._pct(50.0)

    @property
    def q1(self) -> LogValue:
        return self._pct(25.0)

    @property
    def q3(self) -> LogValue:
        return self._pct(75.0)

    @property
    def minimum(self) -> LogValue:
        return LogValue.from_log10(float(self.log10_values.min()))

    @property
    def maximum(self) -> LogValue:
        return LogValue.from_log10(float(self.log10_values.max()))


def replicate(cfg: ExperimentConfig, seeds: Sequence[int]) -> dict[str, SeedSummary]:
    """Run the config once per seed and aggregate the headline statistics.

    Statistics: final diagonal/subdiagonal value per tracked row, and the
    (r, r-1), (r, r-2), (r, r) raw matrix entries per tracked row at each
    checkpoint.  Keyed e.g. "diagonal_r100", "matrix10000_r100_j99".
    """
    if not seeds:
        raise DomainError("replicate needs at least one seed")
    stats: dict[str, list[float]] = {}

    def put(name: str, value: float) -> None:
        stats.setdefault(name, []).append(value)

    for seed in seeds:
        run = run_experiment(replace(cfg, seed=int(seed)))
        for series in [*run.diagonal_series.values(), *run.subdiagonal_series.values()]:
            if len(series):
                put(f"{series.kind}_r{series.row}", float(series.log10_values[-1]))
        for step, raw in run.matrices.items():
            for r in sorted(run.diagonal_series):
                for j in (r - 1, r - 2, r):
                    if 0 <= j <= r:
                        put(f"matrix{step}_r{r}_j{j}", raw.log10_entry(r, j))
    return {
        name: SeedSummary(log10_values=_frozen(np.asarray(vals)))
        for name, vals in stats.items()
    }
