"""A complete seeded benchmark, scaled down to run in about a minute.

Compares a handful of techniques against the shared baseline with paired
seeds and writes report.json / report.csv / improvement.svg next to this
script.  Positive improvement means lower test RMSE than the baseline.
"""

import os

from inertiabench.augmentation import RotationAugment
from inertiabench.data import DatasetDescriptor
from inertiabench.losses import LossSpec
from inertiabench.model import ModelConfig, TrainConfig
from inertiabench.preprocessing import DenoiseStep, NormalizeStep, PreprocSpec
from inertiabench.runner import (
    DatasetSpec,
    SuiteConfig,
    SyntheticSegment,
    TechniqueSpec,
    emit_outputs,
    run_suite,
)

OUT_DIR = os.path.join(os.path.dirname(__file__), "benchmark_output")


def main():
    dataset = DatasetSpec(
        descriptor=DatasetDescriptor("circle-line", 60.0, 60, 30, "distance_xy"),
        synthetic=(
            SyntheticSegment("circle", duration=20.0, rate=60.0,
                             noise_acc=0.1, noise_gyro=0.001, seed=1),
            SyntheticSegment("line", duration=20.0, rate=60.0,
                             noise_acc=0.1, noise_gyro=0.001, seed=2),
        ),
    )
    suite = SuiteConfig(
        dataset=dataset,
        techniques=(
            TechniqueSpec("baseline"),
            TechniqueSpec("head2"),
            TechniqueSpec("loss", loss=LossSpec("huber")),
            TechniqueSpec("augment", augment=RotationAugment()),
            TechniqueSpec("preprocess",
                          preprocess=PreprocSpec((DenoiseStep(5),))),
            TechniqueSpec("preprocess",
                          preprocess=PreprocSpec((NormalizeStep("zscore"),))),
        ),
        model=ModelConfig(conv_filters=8, kernel_size=5, pool_depth=3,
                          lstm_hidden=8, fc_width=16),
        train=TrainConfig(epochs=5, batch_size=64),
        repetitions=2,
        base_seed=7,
    )

    reports = run_suite(suite)
    print(f"{'technique':28s} {'mean RMSE':>10s} {'std':>8s} {'improvement':>12s}")
    for r in reports:
        imp = "" if r.improvement_pct is None else f"{r.improvement_pct:+10.2f}%"
        print(f"{r.name:28s} {r.mean:10.4f} {r.std:8.4f} {imp:>12s}")

    paths = emit_outputs(reports, suite, OUT_DIR)
    for path in paths.values():
        print(f"wrote {path}")

    # paired seeds mean every technique saw the same initial weights per
    # repetition, so the deltas above are not initialization luck
    print(f"seeds used per technique: "
          f"{[suite.base_seed + i for i in range(suite.repetitions)]}")


if __name__ == "__main__":
    main()
