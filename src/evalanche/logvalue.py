"""Nonnegative extended reals stored on the natural-log scale.

Merged martingale values in this package span far more than the double
dynamic range (well below 1e-300 and above 1e+300 in large sweeps), so the
universal scalar is a natural logarithm: -inf encodes the value 0 and +inf
encodes the value infinity.  Addition of represented values is log-sum-exp,
multiplication is log addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LN10 = math.log(10.0)
# The largest |log| a finite input may have (|log10| about 4.3e299), checked
# where logs enter, so no sum the kernels form overflows (``discovery``,
# rounding margin).
MAX_ABS_LOG = 1e300


def check_log_bound(logs: np.ndarray) -> None:
    """Raise DomainError when a finite log lies beyond +-MAX_ABS_LOG."""
    worst = np.abs(logs[np.isfinite(logs)]).max(initial=0.0)
    if worst > MAX_ABS_LOG:
        raise DomainError(f"a finite value's |natural log| must be at most {MAX_ABS_LOG:g} "
                          f"(|log10| {MAX_ABS_LOG / LN10:.3g}), got {worst:.6g}")


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b) without leaving the log domain."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    if a == math.inf or b == math.inf:
        return math.inf
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


@dataclass(frozen=True, order=True)
class LogValue:
    """A value in [0, +inf] held as its natural log.

    Ordering compares the logs, which matches the ordering of the
    represented values.
    """

    log_e: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_e):
            raise DomainError("LogValue log cannot be NaN")
        if type(self.log_e) is not float:  # never a numpy scalar: writers print its repr
            object.__setattr__(self, "log_e", float(self.log_e))

    @classmethod
    def of(cls, value: float) -> "LogValue":
        """Wrap a linear-scale value; round-trips exactly to float precision
        whenever the value is representable."""
        if math.isnan(value) or value < 0.0:
            raise DomainError(f"LogValue requires a value in [0, +inf], got {value!r}")
        if value == 0.0:
            return cls(-math.inf)
        return cls(math.log(value))

    @classmethod
    def from_log10(cls, log10_value: float) -> "LogValue":
        return cls(log10_value * LN10)

    @property
    def value(self) -> float:
        """Linear-scale value; +inf when above the double range, 0.0 when the
        represented value underflows."""
        try:
            return math.exp(self.log_e)
        except OverflowError:
            return math.inf

    @property
    def log10(self) -> float:
        return self.log_e / LN10

    @property
    def is_zero(self) -> bool:
        return self.log_e == -math.inf

    @property
    def is_infinite(self) -> bool:
        return self.log_e == math.inf

    def __mul__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        if (self.is_zero and other.is_infinite) or (self.is_infinite and other.is_zero):
            raise DomainError("0 * inf is undefined for LogValue")
        return LogValue(self.log_e + other.log_e)

    def __add__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        return LogValue(log_add(self.log_e, other.log_e))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LogValue(0)"
        if self.is_infinite:
            return "LogValue(inf)"
        return f"LogValue({self.value!r})" if abs(self.log_e) < 200 else f"LogValue(log10={self.log10!r})"


ZERO = LogValue(-math.inf)
ONE = LogValue(0.0)
INFINITE = LogValue(math.inf)
