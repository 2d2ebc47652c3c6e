"""What each training-set augmentation actually does to the windows.

Rotation re-expresses the same motion in a tilted sensor frame, bias
adds a constant per-channel offset (one draw per copy), and noise jitter
adds white Gaussian noise at escalating levels.  Labels are untouched in
every case: the traveled distance does not care how the sensor was held.
"""

import numpy as np

from inertiabench.augmentation import (
    DEFAULT_NOISE_SCHEDULE,
    BiasAugment,
    NoiseAugment,
    RotationAugment,
    apply_augmentation,
    rotation_matrix,
)
from inertiabench.data import DatasetDescriptor, SynthParams, synthesize_dataset, window_dataset


def describe(tag, original, augmented):
    extra = augmented.windows[len(original):]
    print(f"{tag}: {len(original)} windows -> {len(augmented)} "
          f"({len(augmented) // len(original)}x)")
    diff = extra[: len(original)] - original.windows
    print(f"  first copy: mean offset {diff.mean():+.4f}, "
          f"offset std {diff.std():.4f}")
    assert np.array_equal(augmented.labels[: len(original)], original.labels)


def main():
    series, gt = synthesize_dataset(
        "sinusoid", duration=30.0, rate=60.0,
        params=SynthParams(speed=1.0, amplitude=0.5, frequency=0.4),
        noise_acc=0.05, noise_gyro=0.0005, seed=4)
    desc = DatasetDescriptor("sine", 60.0, 60, 60, "distance_xy")
    ds = window_dataset(series, gt, desc)

    for name in ("T1", "T2", "T3"):
        r = rotation_matrix(name)
        print(f"{name} rotates [1,0,0] to {np.round(r @ [1, 0, 0], 4)}")

    rng = np.random.default_rng(0)
    describe("rotation T1", ds, apply_augmentation(ds, RotationAugment(), rng))
    describe("rotation T1+T2+T3",
             ds, apply_augmentation(ds, RotationAugment(("T1", "T2", "T3")), rng))
    describe("bias x1", ds, apply_augmentation(ds, BiasAugment(), rng))
    describe("bias x3", ds, apply_augmentation(ds, BiasAugment(copies=3), rng))
    print(f"noise schedule: {DEFAULT_NOISE_SCHEDULE}")
    describe("noise x3", ds, apply_augmentation(ds, NoiseAugment(), rng))


if __name__ == "__main__":
    main()
