"""Signal preprocessing: denoising, noise addition, normalization, detrending.

Series-level transforms (moving average, additive noise, normalization) apply
to a full recording before windowing; detrending operates per window.  All
transforms act on each of the six channels independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import CHANNELS, InertialSeries, add_sensor_noise, check_stds
from .errors import DegenerateChannelError, ShapeError


# Each step class carries its config ``op`` and the ``tag`` it adds to a
# technique's name.


@dataclass(frozen=True)
class DenoiseStep:
    op: ClassVar[str] = "denoise"
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ShapeError(f"moving-average window must be >= 1, got {self.window}")

    @property
    def tag(self) -> str:
        return f"denoise{self.window}"


@dataclass(frozen=True)
class AddNoiseStep:
    op: ClassVar[str] = "add_noise"
    tag: ClassVar[str] = "addnoise"
    sigma_acc: float = 0.1
    sigma_gyro: float = 0.001

    def __post_init__(self):
        check_stds(self.sigma_acc, self.sigma_gyro)


@dataclass(frozen=True)
class NormalizeStep:
    op: ClassVar[str] = "normalize"
    method: str = "zscore"

    def __post_init__(self):
        if self.method not in ("zscore", "robust"):
            raise ShapeError(f"unknown normalization method '{self.method}'")

    @property
    def tag(self) -> str:
        return self.method


@dataclass(frozen=True)
class DetrendStep:
    op: ClassVar[str] = "detrend"
    tag: ClassVar[str] = "detrend"


STEP_TYPES = (DenoiseStep, AddNoiseStep, NormalizeStep, DetrendStep)


@dataclass(frozen=True)
class PreprocSpec:
    """Ordered preprocessing pipeline of at least one step."""

    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ShapeError("preprocessing needs at least one step")
        for s in self.steps:
            if not isinstance(s, STEP_TYPES):
                raise ShapeError(f"unknown preprocessing step {s!r}")


def moving_average(series: InertialSeries, n: int) -> InertialSeries:
    """Forward moving-average filter; output indexed at each window start.

    The recording shortens to T - n + 1 samples and keeps the leading
    timestamps, so downstream ground-truth alignment stays valid.
    """
    DenoiseStep(n)  # validates n
    if n > len(series):
        raise ShapeError(f"window {n} exceeds series length {len(series)}")
    kernel = np.full(n, 1.0 / n)
    smoothed = np.column_stack(
        [np.convolve(series.imu[:, c], kernel, mode="valid") for c in range(6)]
    )
    return InertialSeries(series.t[: len(series) - n + 1].copy(), smoothed)


def add_measurement_noise(series: InertialSeries, sigma_acc: float,
                          sigma_gyro: float, rng: np.random.Generator) -> InertialSeries:
    """Add i.i.d. zero-mean Gaussian noise, per accelerometer/gyro std."""
    return InertialSeries(series.t.copy(),
                          add_sensor_noise(series.imu.copy(), sigma_acc, sigma_gyro, rng))


@dataclass(frozen=True)
class ChannelStats:
    """Per-channel location/scale fitted on the training split only."""

    loc: np.ndarray
    scale: np.ndarray


def fit_channel_stats(imu: np.ndarray, method: str) -> ChannelStats:
    """Fit normalization statistics on (N, 6) training data.

    zscore uses population (1/N) std; robust uses median and IQR with
    linearly interpolated quartiles.  A zero-spread channel raises
    DegenerateChannelError naming the channel.
    """
    NormalizeStep(method)
    if method == "zscore":
        loc = imu.mean(axis=0)
        scale = imu.std(axis=0)
    else:
        loc = np.median(imu, axis=0)
        q1, q3 = np.percentile(imu, [25, 75], axis=0)
        scale = q3 - q1
    for c in range(6):
        if scale[c] == 0:
            raise DegenerateChannelError(CHANNELS[c])
    return ChannelStats(loc, scale)


def apply_channel_stats(series: InertialSeries, stats: ChannelStats) -> InertialSeries:
    return InertialSeries(series.t.copy(), (series.imu - stats.loc) / stats.scale)


def normalize(series: InertialSeries, method: str) -> InertialSeries:
    """Normalize a series with statistics fitted on the series itself."""
    return apply_channel_stats(series, fit_channel_stats(series.imu, method))


def detrend_linear(window: np.ndarray) -> np.ndarray:
    """Subtract the least-squares line along the last axis.

    Takes a (6, W) window, a batch (M, 6, W) or a single channel (W,).
    """
    window = np.asarray(window, dtype=float)
    w = window.shape[-1]
    if w < 2:
        raise ShapeError(f"window length must be >= 2, got {w}")
    t = np.arange(w, dtype=float)
    tm = t.mean()
    denom = np.sum((t - tm) ** 2)
    xm = window.mean(axis=-1, keepdims=True)
    slope = np.sum(window * (t - tm), axis=-1, keepdims=True) / denom
    trend = xm + slope * (t - tm)
    return window - trend
