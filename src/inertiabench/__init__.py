"""Benchmarking toolkit for neural inertial regression enhancement techniques.

Implements a CNN + Bi-LSTM regression network from first principles together
with multi-head variants, four training losses, rotation/bias/noise data
augmentation, signal preprocessing, a synthetic trajectory generator, and a
seeded benchmark runner that reports RMSE improvements against a baseline.
"""

from .augmentation import AugmentationSpec, rotation_matrix
from .data import (
    DatasetDescriptor,
    GroundTruth,
    InertialSeries,
    SynthParams,
    SyntheticSegment,
    WindowedDataset,
    align_gt,
    synthesize_dataset,
    window_dataset,
)
from .losses import LossSpec, compute_loss, improvement_pct, metric_rmse
from .model import InertialRegressor, ModelConfig, TrainConfig, train_model
from .preprocessing import PreprocSpec
from .runner import (
    BenchReport,
    DatasetSpec,
    SuiteConfig,
    TechniqueSpec,
    emit_outputs,
    run_experiment,
    run_suite,
)

__all__ = [
    "AugmentationSpec",
    "BenchReport",
    "DatasetDescriptor",
    "DatasetSpec",
    "GroundTruth",
    "InertialRegressor",
    "InertialSeries",
    "LossSpec",
    "ModelConfig",
    "PreprocSpec",
    "SuiteConfig",
    "SynthParams",
    "SyntheticSegment",
    "TechniqueSpec",
    "TrainConfig",
    "WindowedDataset",
    "align_gt",
    "compute_loss",
    "emit_outputs",
    "improvement_pct",
    "metric_rmse",
    "rotation_matrix",
    "run_experiment",
    "run_suite",
    "synthesize_dataset",
    "train_model",
    "window_dataset",
]

__version__ = "0.1.0"
