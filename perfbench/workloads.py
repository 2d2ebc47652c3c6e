"""Benchmark workloads: each one writes its inputs from a seed into a directory.

The program under test only ever sees what a workload writes here: a suite
config (``suite.json``) and, for ``csv-prep``, the CSV recording it names.
The same seed always gives byte-identical files.  Every suite keeps the
model shapes it was chosen for; durations, repetitions and epochs are cut
so that one ``bench`` invocation takes a few seconds and a measured run
holds several of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_NAME = "suite.json"

# Criterion 4's technique list, in its order, with the names it asserts.
STOCK_TECHNIQUES = [
    {"kind": "baseline"},
    {"kind": "head2"},
    {"kind": "head3"},
    {"kind": "loss", "loss": "huber"},
    {"kind": "augment", "augment": {"kind": "rotation", "axes": ["T1"]}},
    {"kind": "augment", "augment": {"kind": "bias", "copies": 1}},
    {"kind": "augment", "augment": {"kind": "noise", "schedule": [[0.1, 0.001]]}},
    {"kind": "preprocess", "steps": [{"op": "denoise", "window": 25}]},
    {"kind": "preprocess", "steps": [{"op": "normalize", "method": "zscore"}]},
    {"kind": "preprocess", "steps": [{"op": "detrend"}]},
]
STOCK_NAMES = (
    "baseline", "head2", "head3", "loss-huber", "augment-rotation-T1",
    "augment-bias-x1", "augment-noise-x1", "preprocess-denoise25",
    "preprocess-zscore", "preprocess-detrend",
)

CSV_TECHNIQUES = [
    {"kind": "baseline"},
    {"kind": "preprocess", "steps": [{"op": "denoise", "window": 25}]},
    {"kind": "preprocess", "steps": [{"op": "normalize", "method": "zscore"}]},
    {"kind": "preprocess", "steps": [{"op": "normalize", "method": "robust"}]},
    {"kind": "preprocess", "steps": [{"op": "detrend"}]},
    {"kind": "preprocess", "steps": [{"op": "add_noise", "sigma_acc": 0.1,
                                      "sigma_gyro": 0.001}]},
    {"kind": "augment", "augment": {"kind": "rotation", "axes": ["T1"]}},
    {"kind": "augment", "augment": {"kind": "bias", "copies": 1}},
    {"kind": "augment", "augment": {"kind": "noise", "schedule": [[0.1, 0.001]]}},
]
CSV_NAMES = (
    "baseline", "preprocess-denoise25", "preprocess-zscore", "preprocess-robust",
    "preprocess-detrend", "preprocess-addnoise", "augment-rotation-T1",
    "augment-bias-x1", "augment-noise-x1",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    names: tuple[str, ...]  # technique names report.json must list, in order
    write: Callable[[int, Path], None]  # (seed, directory) -> writes inputs


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=n)]


def _write_config(directory: Path, doc: dict):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / CONFIG_NAME).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _circle_line_suite(seed: int, *, duration: float, window: int, pool: int) -> dict:
    circle, line, base = _seeds(seed, 3)
    noise = {"rate": 120.0, "noise_acc": 0.1, "noise_gyro": 0.001}
    return {
        "dataset": {
            "descriptor": {"name": "circle-line", "sampling_rate": 120.0,
                           "window_size": window, "stride": window // 2,
                           "target_kind": "distance_xy"},
            "synthetic": [
                {"kind": "circle", "duration": duration, "seed": circle, **noise},
                {"kind": "line", "duration": duration, "seed": line, **noise},
            ],
        },
        "model": {"pool_depth": pool},
        "train": {"epochs": 1, "batch_size": 64},
        "suite": {"repetitions": 1, "base_seed": base},
        "techniques": STOCK_TECHNIQUES,
    }


def write_stock_suite(seed: int, directory: Path):
    # 22 s per segment gives exactly one full batch of 64 training windows.
    _write_config(directory, _circle_line_suite(seed, duration=22.0, window=120, pool=3))


def write_long_window(seed: int, directory: Path):
    # 88 s per segment gives one full batch of 64 windows of 480 samples.
    _write_config(directory, _circle_line_suite(seed, duration=88.0, window=480, pool=24))


CSV_DURATION_S = 90.0
CSV_RATE_HZ = 200.0


def write_csv_prep(seed: int, directory: Path):
    from inertiabench.data import (SynthParams, synthesize_dataset, write_gt_pos_csv,
                                   write_imu_csv)

    noise_seed, base = _seeds(seed, 2)
    series, gt = synthesize_dataset(
        "sinusoid", duration=CSV_DURATION_S, rate=CSV_RATE_HZ,
        params=SynthParams(speed=1.2, amplitude=2.0, frequency=0.3),
        noise_acc=0.1, noise_gyro=0.001, seed=noise_seed)
    directory.mkdir(parents=True, exist_ok=True)
    write_imu_csv(directory / "imu.csv", series)
    write_gt_pos_csv(directory / "gt_pos.csv", gt)
    _write_config(directory, {
        "dataset": {
            "descriptor": {"name": "csv-recording", "sampling_rate": CSV_RATE_HZ,
                           "window_size": 200, "stride": 100,
                           "target_kind": "distance_xy"},
            "imu_csv": "imu.csv",
            "gt_pos_csv": "gt_pos.csv",
        },
        "model": {"pool_depth": 10, "conv_filters": 8, "lstm_hidden": 8,
                  "fc_width": 16},
        "train": {"epochs": 1, "batch_size": 64},
        "suite": {"repetitions": 1, "base_seed": base},
        "techniques": CSV_TECHNIQUES,
    })


WORKLOADS = {w.name: w for w in (
    Workload(
        "stock-suite",
        "criterion 4's techniques and model (window 120, pool 3, hidden 128, "
        "batch 64): the BiLSTM recurrence dominates each step",
        STOCK_NAMES, write_stock_suite),
    Workload(
        "long-window",
        "same techniques at window 480 and pool 24: the conv dominates each step "
        "and head2/head3 run the multi-branch conv shapes",
        STOCK_NAMES, write_long_window),
    Workload(
        "csv-prep",
        "a 90 s 200 Hz CSV recording and a demo-size model: CSV parsing, "
        "preprocessing and augmentation outweigh training",
        CSV_NAMES, write_csv_prep),
)}
