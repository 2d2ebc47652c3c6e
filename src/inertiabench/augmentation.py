"""Training-set expansion: rotation, constant bias, and additive noise.

Each augmentation kind is one class in AUGMENT_TYPES: its config ``kind``, its
fields (the config keys), the ``tag`` it adds to a technique's name and
``copies_of``, the windows it appends.  Every augmentation strictly appends:
the first ``len(original)`` windows of the result equal the input bitwise and
labels of appended copies are exact copies of the originals.  Augmentation
runs after windowing and only on the training split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import WindowedDataset, add_sensor_noise, check_stds
from .errors import ShapeError

# the three fixed 30-degree rotations, as matrix rows: T1 rotates about the
# z axis, T2 about x, T3 about y
_C, _S = np.cos(np.pi / 6), np.sin(np.pi / 6)
_ROTATIONS = {
    "T1": ((_C, _S, 0.0), (-_S, _C, 0.0), (0.0, 0.0, 1.0)),
    "T2": ((1.0, 0.0, 0.0), (0.0, _C, _S), (0.0, -_S, _C)),
    "T3": ((_C, 0.0, -_S), (0.0, 1.0, 0.0), (_S, 0.0, _C)),
}
ROTATION_NAMES = tuple(_ROTATIONS)

# default noise schedule: accel stds 0.1/0.25/0.5 m/s^2, gyro scaled by the
# same multipliers from 0.001 rad/s
DEFAULT_NOISE_SCHEDULE = ((0.1, 0.001), (0.25, 0.0025), (0.5, 0.005))


def rotation_matrix(which: str) -> np.ndarray:
    """A new array holding the fixed rotation matrix ``which`` (T1, T2 or T3)."""
    if which not in _ROTATIONS:
        raise ShapeError(f"unknown rotation matrix '{which}'")
    return np.array(_ROTATIONS[which])


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


@dataclass(frozen=True)
class RotationAugment:
    kind: ClassVar[str] = "rotation"
    axes: tuple[str, ...] = ("T1",)

    def __post_init__(self):
        if not self.axes:
            raise ShapeError("rotation augmentation needs at least one axis")
        for name in self.axes:
            rotation_matrix(name)  # raises for an unknown name

    @property
    def tag(self) -> str:
        return "rotation-" + "+".join(self.axes)

    def copies_of(self, windows: np.ndarray, rng: np.random.Generator | None = None) -> list:
        """One rotated copy per axis; ``rng`` is unused."""
        return [rotate_samples(windows, rotation_matrix(n)) for n in self.axes]


@dataclass(frozen=True)
class BiasAugment:
    kind: ClassVar[str] = "bias"
    copies: int = 1
    sigma_acc: float = 0.1
    sigma_gyro: float = 0.001

    def __post_init__(self):
        check_stds(self.sigma_acc, self.sigma_gyro)
        if self.copies not in (1, 3):
            raise ShapeError(f"bias copies must be 1 or 3, got {self.copies}")

    @property
    def tag(self) -> str:
        return f"bias-x{self.copies}"

    def copies_of(self, windows: np.ndarray, rng: np.random.Generator) -> list:
        """Copies offset by a constant per-axis bias vector.

        One bias vector is drawn per copy and held constant across that whole
        copy, modelling a calibration offset rather than noise.
        """
        return [windows + add_sensor_noise(np.zeros((1, 6, 1)), self.sigma_acc,
                                           self.sigma_gyro, rng)
                for _ in range(self.copies)]


@dataclass(frozen=True)
class NoiseAugment:
    kind: ClassVar[str] = "noise"
    schedule: tuple[tuple[float, float], ...] = DEFAULT_NOISE_SCHEDULE

    def __post_init__(self):
        if not self.schedule:
            raise ShapeError("noise augmentation needs a non-empty schedule")
        check_stds(*(s for pair in self.schedule for s in pair))

    @property
    def tag(self) -> str:
        return f"noise-x{len(self.schedule)}"

    def copies_of(self, windows: np.ndarray, rng: np.random.Generator) -> list:
        """One i.i.d.-noise copy per schedule entry."""
        return [add_sensor_noise(windows.copy(), a, g, rng) for a, g in self.schedule]


AUGMENT_TYPES = (RotationAugment, BiasAugment, NoiseAugment)


def apply_augmentation(ds: WindowedDataset, spec, rng: np.random.Generator) -> WindowedDataset:
    """``ds`` with ``spec``'s copies appended; labels are tiled to match."""
    copies = spec.copies_of(ds.windows, rng)
    windows = np.concatenate([ds.windows] + copies, axis=0)
    labels = np.concatenate([ds.labels] * (1 + len(copies)), axis=0)
    return WindowedDataset(windows, labels)
