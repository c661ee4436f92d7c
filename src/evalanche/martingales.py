"""Uncorrelated test-martingale trajectories under a predictable scheduler.

A table holds K streams that all start at 1; each step multiplies exactly one
stream (the scheduled one) by a betting increment, so the streams stay
uncorrelated by construction.  The canonical increment is the likelihood
ratio of a Gaussian betting alternative to the Gaussian null, which has unit
mean under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .logvalue import LogValue, check_log_bound


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MartingaleTable:
    """K martingale values (natural logs) plus the current step count.

    Treat ``log_values`` as immutable; ``step_one`` returns a new table.
    """

    log_values: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        if self.log_values.ndim != 1 or self.log_values.size == 0:
            raise DomainError("table needs at least one stream")
        if np.isnan(self.log_values).any():
            raise DomainError("martingale values cannot be NaN")

    @classmethod
    def fresh(cls, k: int) -> "MartingaleTable":
        if k < 1:
            raise DomainError(f"need at least one hypothesis, got {k}")
        return cls(log_values=_frozen(np.zeros(k)))

    @property
    def k(self) -> int:
        return int(self.log_values.size)

    @property
    def current(self) -> tuple[LogValue, ...]:
        return tuple(map(LogValue, self.log_values.tolist()))

    def value_of(self, k: int) -> LogValue:
        if not 1 <= k <= self.k:
            raise DomainError(f"stream index {k} outside 1..{self.k}")
        return LogValue(self.log_values[k - 1])


def gaussian_log_density(x: float | np.ndarray, mean: float, sd: float) -> float | np.ndarray:
    z = (x - mean) / sd
    return -0.5 * z * z - math.log(sd) - 0.5 * math.log(2.0 * math.pi)


def lr_increment(
    x: float, null: tuple[float, float], bet: tuple[float, float]
) -> LogValue:
    """Likelihood ratio of the betting alternative to the null at x.

    This is the per-step multiplier of the scheduled stream: unit mean under
    the null, expected log-growth equal to the Gaussian KL divergence when
    the data actually follow the betting distribution.
    """
    if not math.isfinite(x):
        raise DomainError(f"observation must be finite, got {x!r}")
    if null[1] <= 0.0 or bet[1] <= 0.0:
        raise DomainError("standard deviations must be positive")
    return LogValue(
        gaussian_log_density(x, bet[0], bet[1]) - gaussian_log_density(x, null[0], null[1])
    )


def step(table: MartingaleTable, k_n: int, multiplier: LogValue) -> MartingaleTable:
    """Multiply stream k_n by ``multiplier``; every other stream is untouched."""
    if not 1 <= k_n <= table.k:
        raise DomainError(f"scheduled index {k_n} outside 1..{table.k}")
    logs = table.log_values.copy()
    logs[k_n - 1] = logs[k_n - 1] + multiplier.log_e
    return MartingaleTable(log_values=_frozen(logs), step=table.step + 1)


@dataclass(frozen=True)
class RankedValues:
    """Martingale values sorted descending, with the sorting permutation.

    ``perm[i]`` is the original 1-based stream index at rank i+1; ties go to
    the smaller original index.
    """

    sorted_logs: np.ndarray
    perm: tuple[int, ...]

    @property
    def k(self) -> int:
        return int(self.sorted_logs.size)

    @property
    def values(self) -> tuple[LogValue, ...]:
        return tuple(map(LogValue, self.sorted_logs.tolist()))

    def value_at(self, r: int) -> LogValue:
        if not 1 <= r <= self.k:
            raise DomainError(f"rank {r} outside 1..{self.k}")
        return LogValue(self.sorted_logs[r - 1])

    def original_index(self, r: int) -> int:
        if not 1 <= r <= self.k:
            raise DomainError(f"rank {r} outside 1..{self.k}")
        return self.perm[r - 1]

    @classmethod
    def from_logs(cls, logs: np.ndarray) -> "RankedValues":
        if np.isnan(logs).any():
            raise DomainError("cannot rank NaN values")
        check_log_bound(logs)
        order = np.argsort(-logs, kind="stable")
        return cls(
            sorted_logs=_frozen(logs[order]),
            perm=tuple(int(i) + 1 for i in order),
        )

    @classmethod
    def from_values(cls, values: Sequence[LogValue]) -> "RankedValues":
        return cls.from_logs(np.array([v.log_e for v in values], dtype=np.float64))


def rank(table: MartingaleTable) -> RankedValues:
    """Stable descending sort of the table's current values."""
    return RankedValues.from_logs(np.asarray(table.log_values))
