"""Training-set expansion: rotation, constant bias, and additive noise.

Every augmentation strictly appends: the first ``len(original)`` windows of
the result equal the input bitwise and labels of appended copies are exact
copies of the originals.  Augmentation runs after windowing and only on the
training split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import WindowedDataset
from .errors import ShapeError

ROTATION_NAMES = ("T1", "T2", "T3")

# default noise schedule: accel stds 0.1/0.25/0.5 m/s^2, gyro scaled by the
# same multipliers from 0.001 rad/s
DEFAULT_NOISE_SCHEDULE = ((0.1, 0.001), (0.25, 0.0025), (0.5, 0.005))


@dataclass(frozen=True)
class AugmentationSpec:
    kind: str  # rotation | bias | noise
    rotation_axes: tuple[str, ...] = ("T1",)
    sigma_acc: float = 0.1
    sigma_gyro: float = 0.001
    bias_copies: int = 1
    noise_schedule: tuple[tuple[float, float], ...] = DEFAULT_NOISE_SCHEDULE

    def __post_init__(self):
        if self.kind not in ("rotation", "bias", "noise"):
            raise ShapeError(f"unknown augmentation kind '{self.kind}'")
        if self.kind == "rotation" and not self.rotation_axes:
            raise ShapeError("rotation augmentation needs at least one axis")
        for name in self.rotation_axes:
            rotation_matrix(name)  # raises for an unknown name
        if self.sigma_acc < 0 or self.sigma_gyro < 0:
            raise ShapeError("augmentation stds must be non-negative")
        if self.bias_copies not in (1, 3):
            raise ShapeError(f"bias copies must be 1 or 3, got {self.bias_copies}")
        if self.kind == "noise" and not self.noise_schedule:
            raise ShapeError("noise augmentation needs a non-empty schedule")


def rotation_matrix(which: str) -> np.ndarray:
    """One of the three fixed 30-degree rotation matrices.

    T1 rotates about the z axis, T2 about x, T3 about y.
    """
    c = np.cos(np.pi / 6)
    s = np.sin(np.pi / 6)
    if which == "T1":
        return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    if which == "T2":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    if which == "T3":
        return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    raise ShapeError(f"unknown rotation matrix '{which}'")


def rotate_samples(window: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Apply one rotation to both the accelerometer and gyro triples.

    ``window`` is (6, W) or a batch (M, 6, W); the same matrix rotates the
    specific-force rows and the angular-rate rows of every sample.
    """
    window = np.asarray(window, dtype=float)
    out = np.empty_like(window)
    out[..., :3, :] = np.einsum("ij,...jt->...it", rot, window[..., :3, :])
    out[..., 3:, :] = np.einsum("ij,...jt->...it", rot, window[..., 3:, :])
    return out


def _append(ds: WindowedDataset, copies: list[np.ndarray]) -> WindowedDataset:
    windows = np.concatenate([ds.windows] + copies, axis=0)
    labels = np.concatenate([ds.labels] * (1 + len(copies)), axis=0)
    return WindowedDataset(windows, labels, ds.descriptor)


def augment_rotation(ds: WindowedDataset, spec: AugmentationSpec) -> WindowedDataset:
    """Append one rotated copy of the dataset per selected matrix."""
    if spec.kind != "rotation":
        raise ShapeError(f"expected rotation spec, got '{spec.kind}'")
    copies = [rotate_samples(ds.windows, rotation_matrix(n)) for n in spec.rotation_axes]
    return _append(ds, copies)


def augment_bias(ds: WindowedDataset, spec: AugmentationSpec,
                 rng: np.random.Generator) -> WindowedDataset:
    """Append copies offset by a constant per-axis bias vector.

    One bias vector is drawn per copy and held constant across that whole
    copy, modelling a calibration offset rather than noise.
    """
    if spec.kind != "bias":
        raise ShapeError(f"expected bias spec, got '{spec.kind}'")
    copies = []
    for _ in range(spec.bias_copies):
        bias = np.concatenate(
            [rng.normal(0.0, spec.sigma_acc, 3), rng.normal(0.0, spec.sigma_gyro, 3)]
        )
        copies.append(ds.windows + bias[None, :, None])
    return _append(ds, copies)


def augment_noise(ds: WindowedDataset, spec: AugmentationSpec,
                  rng: np.random.Generator) -> WindowedDataset:
    """Append one i.i.d.-noise copy per schedule entry."""
    if spec.kind != "noise":
        raise ShapeError(f"expected noise spec, got '{spec.kind}'")
    copies = []
    for sigma_acc, sigma_gyro in spec.noise_schedule:
        noisy = ds.windows.copy()
        noisy[:, :3] += rng.normal(0.0, sigma_acc, size=noisy[:, :3].shape)
        noisy[:, 3:] += rng.normal(0.0, sigma_gyro, size=noisy[:, 3:].shape)
        copies.append(noisy)
    return _append(ds, copies)


def apply_augmentation(ds: WindowedDataset, spec: AugmentationSpec,
                       rng: np.random.Generator) -> WindowedDataset:
    if spec.kind == "rotation":
        return augment_rotation(ds, spec)
    if spec.kind == "bias":
        return augment_bias(ds, spec, rng)
    return augment_noise(ds, spec, rng)
