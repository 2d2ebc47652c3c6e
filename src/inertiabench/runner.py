"""Seeded, repeatable benchmarking of enhancement techniques.

A run is ``(suite, technique, seed)``: the suite's dataset, model, training
setup and split, one of its techniques and a seed.  The pipeline per run is:
load recordings -> series-level preprocessing -> time split -> windowing +
labels -> per-window detrending -> augmentation (training split only) ->
training -> RMSE on the untouched test split.
Run ``i`` of every technique uses seed ``base_seed + i``, so techniques that
share a model configuration start from identical initial weights.
"""

from __future__ import annotations

import csv
import ctypes
import html
import io
import json
import os
import sys
import warnings
import zipfile
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .augmentation import (AUGMENT_TYPES, BiasAugment, NoiseAugment, RotationAugment,
                           apply_augmentation)
from .data import (
    TARGET_GT,
    DatasetDescriptor,
    GroundTruth,
    InertialSeries,
    SyntheticSegment,
    WindowedDataset,
    check_coverage,
    parse_gt_heading_csv,
    parse_gt_pos_csv,
    parse_imu_csv,
    synthesize_dataset,
    window_dataset,
)
from .errors import (ConfigError, DataError, NumericError, ParseError, ShapeError, StageError,
                     UsageError)
from .kernels import ConvSpec
from .losses import LossSpec, improvement_pct, metric_rmse
from .model import HEAD_MODES, InertialRegressor, ModelConfig, TrainConfig, train_model
from .preprocessing import (
    STEP_TYPES,
    AddNoiseStep,
    DenoiseStep,
    DetrendStep,
    NormalizeStep,
    PreprocSpec,
    add_measurement_noise,
    apply_channel_stats,
    detrend_linear,
    fit_channel_stats,
    moving_average,
)

WORKERS_ENV = "INERTIA_BENCH_WORKERS"
CHECKPOINT_VERSION = 2
# a run's random streams: stream i of seed s is seeded [s, i], so reordering
# them would change every report
STREAMS = ("init", "shuffle", "dropout", "augment", "preprocess")


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class DatasetSpec:
    descriptor: DatasetDescriptor
    synthetic: tuple[SyntheticSegment, ...] = ()
    imu_csv: str | None = None
    gt_pos_csv: str | None = None
    gt_heading_csv: str | None = None

    def __post_init__(self):
        for seg in self.synthetic:
            if seg.rate != self.descriptor.sampling_rate:
                raise ConfigError(f"synthetic segment rate {seg.rate} Hz differs from the "
                                  f"descriptor's sampling rate {self.descriptor.sampling_rate} Hz")
        paths = [p for p in (self.imu_csv, self.gt_pos_csv, self.gt_heading_csv)
                 if p is not None]
        if self.synthetic and paths:
            raise ConfigError(f"dataset takes synthetic segments or csv paths, not both; "
                              f"got csv paths {paths}")
        if self.synthetic:
            return
        if self.imu_csv is None:
            raise ConfigError("dataset needs synthetic segments or csv paths")
        kind = self.descriptor.target_kind
        gt = {"position": "gt_pos_csv", "heading": "gt_heading_csv"}[TARGET_GT[kind]]
        for key in ("gt_pos_csv", "gt_heading_csv"):  # the one its targets read
            if (getattr(self, key) is None) == (key == gt):
                raise ConfigError(f"{kind} targets {'need' if key == gt else 'never read'} {key}")


# How each spec sits in a config entry.  ``name``, ``to_dict`` and
# ``_parse_technique`` all read these tables.


def _keys(cls, *exclude) -> dict:
    return {f.name: f.name for f in fields(cls) if f.name not in exclude}


LOSS_KEYS = {"loss": "kind", "delta": "delta"}  # config key -> LossSpec field
AUGMENT_KINDS = {cls.kind: cls for cls in AUGMENT_TYPES}  # augmentation kind -> class
STEP_OPS = {cls.op: cls for cls in STEP_TYPES}  # preprocessing op -> class


def _dump(spec, keys) -> dict:
    return {key: _listed(getattr(spec, f)) for key, f in keys.items()}


def _listed(value):  # a tuple field as the list that JSON reads back
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


def _read_tagged(section, family: dict, tag: str, context: str):
    """A spec from an entry whose ``tag`` key picks its class in ``family``."""
    section = dict(_section(section, context))
    value = section.pop(tag, None)
    if not isinstance(value, str) or value not in family:
        raise ConfigError(f"unknown {tag} {value!r} in {context}")
    return _build(family[value], section, context)


def _write_tagged(spec, tag: str) -> dict:
    return {tag: getattr(spec, tag), **_dump(spec, _keys(type(spec)))}


# technique kind -> (types, read, write, name) of its inner spec, or None for
# kinds without one: types are the spec's class(es), read builds the spec from
# the entry's other keys and a context for errors, write gives those keys back,
# name gives the name fragment
TECHNIQUE_KINDS = {
    "baseline": None,
    **{mode: None for mode in HEAD_MODES if mode != "single"},
    "loss": (LossSpec, lambda e, c: _build(LossSpec, e, c, LOSS_KEYS, required=("loss",)),
             lambda s: _dump(s, LOSS_KEYS), lambda s: s.kind),
    "augment": (
        AUGMENT_TYPES,
        lambda e, c: _read_tagged(_sole(e, "augment", c), AUGMENT_KINDS, "kind",
                                  f"{c}.augment"),
        lambda a: {"augment": _write_tagged(a, "kind")}, lambda a: a.tag),
    "preprocess": (
        PreprocSpec, lambda e, c: _make(PreprocSpec, c, steps=tuple(
            _read_tagged(s, STEP_OPS, "op", f"{c}.steps[{i}]")
            for i, s in enumerate(_value(list, _sole(e, "steps", c), c, "steps")))),
        lambda p: {"steps": [_write_tagged(s, "op") for s in p.steps]},
        lambda p: "+".join(s.tag for s in p.steps)),
}


@dataclass(frozen=True)
class TechniqueSpec:
    """Exactly one technique: the baseline or a single enhancement.

    ``spec`` is the technique's inner spec, one of its kind's types in
    ``TECHNIQUE_KINDS``, or None for a kind without one.
    """

    kind: str
    spec: LossSpec | RotationAugment | BiasAugment | NoiseAugment | PreprocSpec | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in TECHNIQUE_KINDS:
            raise ConfigError(f"unknown technique kind '{self.kind}'")
        if self.label == "":
            raise ConfigError("technique name must not be empty")
        inner = TECHNIQUE_KINDS[self.kind]
        if not isinstance(self.spec, inner[0] if inner else type(None)):
            raise ConfigError(f"technique '{self.kind}' takes {'its own' if inner else 'no'} "
                              f"inner spec, got {self.spec!r}")

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        inner = TECHNIQUE_KINDS[self.kind]
        return self.kind if inner is None else f"{self.kind}-{inner[3](self.spec)}"

    def to_dict(self) -> dict:
        """The technique's config entry."""
        out = {"kind": self.kind}
        if self.label is not None:
            out["name"] = self.label
        inner = TECHNIQUE_KINDS[self.kind]
        if inner is not None:
            out.update(inner[2](self.spec))
        return out


@dataclass(frozen=True)
class SuiteConfig:
    dataset: DatasetSpec
    techniques: tuple[TechniqueSpec, ...]
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    repetitions: int = 30
    base_seed: int = 0
    train_fraction: float = 0.75

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train fraction must be in (0, 1): {self.train_fraction}")
        window, m = self.dataset.descriptor.window_size, self.model
        conv = ConvSpec(6, m.conv_filters, m.kernel_size, m.stride)  # the single head's conv
        if window < m.kernel_size or conv.out_steps(window) < m.pool_depth:
            raise ConfigError(f"window size {window} is too short for conv kernel "
                              f"{m.kernel_size}, stride {m.stride} and pool depth {m.pool_depth}")
        if m.head_mode != "single":
            raise ConfigError(f"head mode comes from techniques, so a suite's is the "
                              f"baseline's 'single', got {m.head_mode!r}")
        if not any(t.kind == "baseline" for t in self.techniques):
            raise ConfigError("suite needs a baseline technique")
        repeated = _repeated([t.name for t in self.techniques])
        if repeated:
            raise ConfigError(f"repeated technique name(s) {repeated}")


@dataclass
class BenchReport:
    """One technique's entry in report.json."""

    name: str
    spec: dict
    rmse_runs: list[float]
    failed_runs: int
    mean: float | None
    std: float | None
    improvement_pct: float | None

    def __post_init__(self):
        if self.failed_runs < 0:
            raise ConfigError(f"failed_runs must be >= 0, got {self.failed_runs}")
        if (self.mean is None) != self.failed or (self.std is None) != self.failed:
            raise ConfigError("mean and std must be null exactly when rmse_runs is empty")
        # run_suite fills improvement_pct in once every mean is known
        if self.mean is None and self.improvement_pct is not None:
            raise ConfigError("improvement_pct must be null when mean is")

    @property
    def failed(self) -> bool:
        return not self.rmse_runs


# ---------------------------------------------------------------------------
# pipeline


def load_recordings(ds: DatasetSpec) -> list[tuple[InertialSeries, GroundTruth]]:
    if ds.synthetic:
        # a segment's fields are synthesize_dataset's arguments
        return [synthesize_dataset(**vars(seg)) for seg in ds.synthetic]
    series = parse_imu_csv(ds.imu_csv)
    expected = ds.descriptor.sampling_rate
    rate = 1.0 / np.median(np.diff(series.t)) if len(series) > 1 else 0.0
    if abs(rate - expected) > 0.01 * expected:
        raise DataError(f"{ds.imu_csv} is sampled at {rate:.6g} Hz, but the descriptor's "
                        f"sampling rate is {expected} Hz")
    # DatasetSpec holds only the GT path the targets read; preprocessing only trims a
    # recording and the split takes parts of it, so GT that covers it covers every run
    gt = (parse_gt_pos_csv(ds.gt_pos_csv) if ds.gt_heading_csv is None
          else parse_gt_heading_csv(ds.gt_heading_csv))
    check_coverage(series, gt)
    return [(series, gt)]


def _read_only(recordings: list[tuple[InertialSeries, GroundTruth]]) -> None:
    """Make every array of ``recordings`` read-only.

    Runs share one loaded copy, so a step that wrote into it in place would
    change the input of every later run; it raises ValueError instead.
    """
    for series, gt in recordings:
        for array in (series.t, series.imu, gt.t, gt.position, gt.heading):
            if array is not None:
                array.setflags(write=False)


def _split_series(series: InertialSeries, fraction: float):
    k = int(round(len(series) * fraction))
    k = min(max(k, 1), len(series) - 1)
    return (InertialSeries(series.t[:k], series.imu[:k]),
            InertialSeries(series.t[k:], series.imu[k:]))


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a StageError of ``name``."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def _windowed(parts: list[WindowedDataset], detrend: bool):
    windows = np.concatenate([p.windows for p in parts])
    return WindowedDataset(detrend_linear(windows) if detrend else windows,
                           np.concatenate([p.labels for p in parts]))


def run_rng(seed: int, stream: str) -> np.random.Generator:
    """The generator of ``stream``, one of STREAMS, in the run of ``seed``."""
    return np.random.default_rng([seed, STREAMS.index(stream)])


def prepare_run(suite: SuiteConfig, technique: TechniqueSpec, seed: int, recordings=None):
    """Build (train dataset, test dataset, model config) for one run.

    ``recordings`` are ``load_recordings(suite.dataset)``, loaded here when not
    given; their arrays are made read-only, because callers share them
    between runs.  Preprocessing applies identically to both splits except
    that normalization statistics come from the training split only;
    augmentation touches the training split only.  ``denoise`` smooths each
    whole recording before the time split, so the samples around the split
    boundary average over both sides of it.
    """
    if recordings is None:
        with _stage("parse"):
            recordings = load_recordings(suite.dataset)
    _read_only(recordings)

    steps = technique.spec.steps if technique.kind == "preprocess" else ()
    detrend = any(isinstance(s, DetrendStep) for s in steps)

    with _stage("preprocess"):
        rng = run_rng(seed, "preprocess")
        for step in steps:
            if isinstance(step, DenoiseStep):
                recordings = [(moving_average(s, step.window), g) for s, g in recordings]
            elif isinstance(step, AddNoiseStep):
                recordings = [
                    (add_measurement_noise(s, step.sigma_acc, step.sigma_gyro, rng), g)
                    for s, g in recordings
                ]
            elif isinstance(step, NormalizeStep):
                train_imu = np.concatenate(
                    [_split_series(s, suite.train_fraction)[0].imu for s, _ in recordings]
                )
                stats = fit_channel_stats(train_imu, step.method)
                recordings = [(apply_channel_stats(s, stats), g) for s, g in recordings]

    with _stage("window"):
        descriptor = suite.dataset.descriptor
        # per recording: (train windows, test windows)
        splits = [[window_dataset(part, gt, descriptor)
                   for part in _split_series(series, suite.train_fraction)]
                  for series, gt in recordings]
        train_ds, test_ds = (_windowed(parts, detrend) for parts in zip(*splits))

    if technique.kind == "augment":
        with _stage("augment"):
            train_ds = apply_augmentation(train_ds, technique.spec, run_rng(seed, "augment"))

    model_config = replace(suite.model, output_dim=descriptor.label_dim)
    if technique.kind in HEAD_MODES:
        model_config = replace(model_config, head_mode=technique.kind)
    return train_ds, test_ds, model_config


def fit_model(suite: SuiteConfig, technique: TechniqueSpec, train_ds: WindowedDataset,
              model_config: ModelConfig, seed: int):
    """Build the seeded model and train it; returns (model, loss curve).

    A ``loss`` technique trains with its own loss, every other technique
    with MSE.
    """
    model = InertialRegressor(model_config, run_rng(seed, "init"))
    curve = train_model(model, suite.train, train_ds.windows, train_ds.labels,
                        loss=technique.spec if technique.kind == "loss" else LossSpec(),
                        shuffle_rng=run_rng(seed, "shuffle"),
                        dropout_rng=run_rng(seed, "dropout"))
    return model, curve


def run_experiment(suite: SuiteConfig, technique: TechniqueSpec, seed: int,
                   recordings=None) -> float:
    """One seeded run; returns the test-split RMSE.

    ``recordings`` are passed to ``prepare_run``.
    """
    train_ds, test_ds, model_config = prepare_run(suite, technique, seed, recordings)
    with _stage("train"):
        model, _ = fit_model(suite, technique, train_ds, model_config, seed)
    with _stage("evaluate"):
        return evaluate_model(model, test_ds)


def evaluate_model(model, test_ds: WindowedDataset) -> float:
    """The model's RMSE on ``test_ds``; raises NumericError if it is not finite."""
    rmse = metric_rmse(test_ds.labels, model.predict(test_ds.windows))
    if not np.isfinite(rmse):
        raise NumericError(f"test RMSE is not finite ({rmse})")
    return rmse


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters (malloc.h)


def keep_freed_heap() -> None:
    """Keep freed heap memory mapped in this process, for the next training step.

    By default glibc serves arrays above a dynamic threshold with ``mmap`` and
    returns a freed heap top to the kernel, so every training step faults its
    scratch arrays in afresh.  Here arrays below 32 MiB always come from the
    heap and the heap is trimmed only above 1 GiB free, so each step reuses
    the previous step's pages; no arithmetic changes.  The trim threshold is
    set only once the mmap threshold is accepted: alone, it would also pin the
    mmap threshold at its 128 KiB default.  Without glibc's ``mallopt``
    (macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # 32 MiB is the highest value glibc's own dynamic mmap threshold reaches
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _run_job(job) -> float | StageError:
    try:
        return run_experiment(*job)
    except StageError as exc:
        return exc


def worker_count(n_jobs: int) -> int:
    """Worker processes for ``n_jobs`` jobs, from INERTIA_BENCH_WORKERS.

    The variable defaults to 1 and must be an integer >= 1; the result is
    clamped to the CPUs this process may run on and to the number of jobs.
    """
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if requested < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {requested}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no sched_getaffinity on macOS or Windows
        cpus = os.cpu_count() or 1
    return min(requested, cpus, n_jobs)


def run_suite(suite: SuiteConfig) -> list[BenchReport]:
    """Run every technique ``repetitions`` times with paired seeds.

    The dataset's recordings are loaded once, before any run, and shared
    read-only by every run; if they cannot be loaded, the ``parse``
    StageError propagates and no run starts.  Failed runs are excluded from
    aggregation, each with a warning that names its technique and seed; a
    technique with no surviving run is marked failed.  Worker count comes
    from ``worker_count``; reports are identical for any worker count.
    """
    seeds = [suite.base_seed + i for i in range(suite.repetitions)]
    runs = [(tech, seed) for tech in suite.techniques for seed in seeds]
    workers = worker_count(len(runs))
    with _stage("parse"):
        recordings = load_recordings(suite.dataset)
    # each job of a worker process carries its own pickled copy
    jobs = [(suite, tech, seed, recordings) for tech, seed in runs]
    if workers > 1:
        # imported here: a one-worker run then never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, initializer=keep_freed_heap) as pool:
            results = list(pool.map(_run_job, jobs))
    else:
        keep_freed_heap()
        results = list(map(_run_job, jobs))

    reports = []
    for i, tech in enumerate(suite.techniques):
        chunk = results[i * len(seeds):(i + 1) * len(seeds)]
        ok = [float(r) for r in chunk if not isinstance(r, StageError)]
        for seed, r in zip(seeds, chunk):
            if isinstance(r, StageError):
                warnings.warn(f"run of '{tech.name}' (seed {seed}) failed: {r}")
        reports.append(BenchReport(
            name=tech.name, spec=tech.to_dict(), rmse_runs=ok,
            failed_runs=len(chunk) - len(ok), mean=float(np.mean(ok)) if ok else None,
            std=float(np.std(ok)) if ok else None, improvement_pct=None,
        ))
    # the first baseline's mean anchors every improvement percentage
    base = next(r.mean for r, t in zip(reports, suite.techniques) if t.kind == "baseline")
    for r in reports:
        if r.mean is not None and base is not None and base > 0:
            r.improvement_pct = improvement_pct(base, r.mean)
    return reports


# ---------------------------------------------------------------------------
# report emission


def report_to_json(reports: list[BenchReport], suite: SuiteConfig) -> str:
    """Deterministic report serialization."""
    doc = {
        "suite": {"base_seed": suite.base_seed, "repetitions": suite.repetitions},
        "techniques": [asdict(r) for r in reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_to_csv(reports: list[BenchReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["technique", "mean_rmse", "std_rmse", "improvement_pct",
                     "failed_runs", "rmse_runs"])
    fmt = lambda v: "" if v is None else repr(v)
    for r in reports:
        writer.writerow([r.name, fmt(r.mean), fmt(r.std), fmt(r.improvement_pct),
                         r.failed_runs, "|".join(repr(v) for v in r.rmse_runs)])
    return out.getvalue()


def render_improvement_svg(reports: list[BenchReport]) -> str:
    """Bar chart of improvement percentage per technique, signed labels."""
    rows = [(r.name, r.improvement_pct) for r in reports
            if r.improvement_pct is not None]
    bar_w, gap, height, margin = 60, 20, 300, 60
    width = margin * 2 + len(rows) * (bar_w + gap)
    span = max([abs(v) for _, v in rows] + [1.0])
    mid = height / 2 + margin
    scale = (height / 2) / span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + 2 * margin}">',
        f'<line x1="{margin}" y1="{mid}" x2="{width - margin}" y2="{mid}" '
        'stroke="black"/>',
    ]
    for i, (name, value) in enumerate(rows):
        x = margin + i * (bar_w + gap)
        h = abs(value) * scale
        y = mid - h if value >= 0 else mid
        color = "#4a8f4a" if value >= 0 else "#b0413e"
        parts.append(f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{h:.2f}" '
                     f'fill="{color}"/>')
        label_y = y - 5 if value >= 0 else y + h + 15
        parts.append(f'<text x="{x + bar_w / 2}" y="{label_y:.2f}" '
                     f'text-anchor="middle" font-size="12">{value:+.1f}%</text>')
        parts.append(f'<text x="{x + bar_w / 2}" y="{height + 2 * margin - 10}" '
                     f'text-anchor="middle" font-size="10" '
                     f'transform="rotate(-30 {x + bar_w / 2} '
                     f'{height + 2 * margin - 10})">{html.escape(name, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# output format -> (file name, render(reports, suite))
OUTPUT_FORMATS = {
    "json": ("report.json", report_to_json),
    "csv": ("report.csv", lambda reports, suite: report_to_csv(reports)),
    "svg": ("improvement.svg", lambda reports, suite: render_improvement_svg(reports)),
}


def check_formats(formats) -> None:
    """Raise UsageError for a format ``emit_outputs`` cannot write."""
    unknown = sorted(set(formats) - set(OUTPUT_FORMATS))
    if unknown:
        raise UsageError(f"unknown output format(s) {unknown}")


def emit_outputs(reports: list[BenchReport], suite: SuiteConfig, out_dir,
                 formats=("json", "csv", "svg")) -> dict[str, str]:
    """Write report files; returns {format: path}."""
    if not reports:
        raise ShapeError("no reports to emit")
    check_formats(formats)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for fmt, (filename, render) in OUTPUT_FORMATS.items():
        if fmt in formats:
            paths[fmt] = os.path.join(out_dir, filename)
            with open(paths[fmt], "w") as fh:
                fh.write(render(reports, suite))
    return paths


# ---------------------------------------------------------------------------
# JSON files: configs and reports


def _repeated(items: list) -> list:
    return sorted({x for x in items if items.count(x) > 1})


def _section(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be an object, got {value!r}")
    return value


def _sole(entry: dict, key: str, context: str):
    """The value of ``key``, the one key left in ``entry``."""
    _check(entry, (key,), (key,), context)
    return entry[key]


def _check(section: dict, allowed, required, context: str):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}")
    missing = sorted(set(required) - set(section))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {context}")


_WORDS = {int: "an integer", float: "a number", str: "a string", list: "a list",
          dict: "an object"}


def _value(tp, value, context: str, key: str):
    """``value`` of JSON ``key`` read as its declared type ``tp``.

    A dataclass comes from an object, a tuple from a list of its length and a
    ``list[X]`` like a ``tuple[X, ...]``; ``X | None`` also takes null, a float
    any finite number (an integer becomes a float, so 1 and 1.0 read alike),
    and any other type only itself (so an int rejects 1.0 and true, a float
    true).
    """
    if is_dataclass(tp):
        return _build(tp, value, f"{context}.{key}")
    args, origin = get_args(tp), get_origin(tp)
    if type(None) in args:  # X | None
        return None if value is None else _value(args[0], value, context, key)
    if origin in (tuple, list):
        items = _value(list, value, context, key)
        types = args[:1] * len(items) if origin is list or args[-1] is ... else args
        if len(items) != len(types):
            raise ConfigError(f"invalid {context}: {key} must be a list of "
                              f"{len(types)} items, got {value!r}")
        return origin(_value(t, v, context, f"{key}[{i}]")
                      for i, (t, v) in enumerate(zip(types, items)))
    if not (type(value) is tp or tp is float and type(value) is int):
        raise ConfigError(f"invalid {context}: {key} must be {_WORDS[tp]}, got {value!r}")
    if tp is float and not abs(value) <= sys.float_info.max:  # false for NaN too
        raise ConfigError(f"invalid {context}: {key} must be finite, got {value!r}")
    return float(value) if tp is float else value


def _build(cls, section, context: str, keys=None, required=(), **fixed):
    """``cls`` from one config section.

    ``keys`` maps config keys to fields of ``cls`` (default: every field not
    given in ``fixed``, under its own name).  A key is required if its field
    has no default or it is listed in ``required``.  Each value is read by
    ``_value`` as its field's annotated type.  Unknown or missing keys, a
    value of the wrong type and values the class rejects raise ConfigError.
    """
    section = _section(section, context)
    keys = _keys(cls, *fixed) if keys is None else keys
    no_default = {f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING}
    _check(section, keys,
           [k for k, f in keys.items() if f in no_default] + list(required), context)
    types = get_type_hints(cls)
    kwargs = {keys[k]: _value(types[keys[k]], v, context, k) for k, v in section.items()}
    return _make(cls, context, **kwargs, **fixed)


def _make(cls, context: str, **kwargs):
    """``cls(**kwargs)``; a value the class rejects raises ConfigError."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _parse_technique(entry, context: str = "techniques[]") -> TechniqueSpec:
    entry = dict(_section(entry, context))
    kind = entry.pop("kind", None)
    if not isinstance(kind, str) or kind not in TECHNIQUE_KINDS:
        raise ConfigError(f"unknown technique kind {kind!r} in {context}")
    label = _value(str | None, entry.pop("name", None), context, "name")
    inner = TECHNIQUE_KINDS[kind]
    if inner is None:
        _check(entry, (), (), context)
    spec = None if inner is None else inner[1](entry, context)
    return _make(TechniqueSpec, context, kind=kind, spec=spec, label=label)


def parse_suite_config(doc: dict) -> SuiteConfig:
    _check(_section(doc, "config"), ("dataset", "model", "train", "suite", "techniques"),
           ("dataset", "techniques"), "top level")
    dataset = _build(DatasetSpec, doc["dataset"], "dataset")
    techniques = tuple(_parse_technique(t, f"techniques[{i}]")
                       for i, t in enumerate(_value(list, doc["techniques"], "config",
                                                    "techniques")))
    return _build(
        SuiteConfig, doc.get("suite", {}), "suite", dataset=dataset,
        techniques=techniques,
        model=_build(ModelConfig, doc.get("model", {}), "model",
                     _keys(ModelConfig, "output_dim", "head_mode")),
        train=_build(TrainConfig, doc.get("train", {}), "train"))


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key raises ValueError."""
    repeated = _repeated([k for k, _ in pairs])
    if repeated:
        raise ValueError(f"repeated key(s) {repeated}")
    return dict(pairs)


def read_json(path, what: str):
    """The document of a JSON file with no repeated key; ``what`` names it in errors."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_json_object)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_suite_config(path) -> SuiteConfig:
    return parse_suite_config(read_json(path, "config"))


def load_report(path) -> list[BenchReport]:
    """The technique entries of a report.json file."""
    doc = _section(read_json(path, "report"), "report")
    return _value(list[BenchReport], doc.get("techniques"), "report", "techniques")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: InertialRegressor):
    """Write config + parameters as a versioned .npz archive at exactly ``path``."""
    meta = {"version": CHECKPOINT_VERSION, "config": asdict(model.config)}
    arrays = {f"param/{k}": v for k, v in model.parameters().items()}
    # np.savez(path) would append ".npz" to a path without that extension
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)


def load_checkpoint(path) -> InertialRegressor:
    """Rebuild a saved model; the archive must hold exactly its parameters.

    A missing, unexpected, differently shaped, non-float or non-finite
    parameter raises UsageError rather than leaving an initial value in
    place or broadcasting.
    A file or ``__meta__`` entry that cannot be read raises ParseError, and a
    model config that the config reader rejects raises ConfigError.
    """
    # np.load(path) would leave the file open when it cannot read the archive
    with open(path, "rb") as fh:
        # np.load reads a file that is neither a zip archive (empty or not) nor an
        # .npy array as a pickle, and its error then invites loading it unsafely
        if not fh.read(6).startswith((b"PK\x03\x04", b"PK\x05\x06", np.lib.format.MAGIC_PREFIX)):
            raise ParseError(f"cannot read checkpoint {path}: not an .npz archive")
        fh.seek(0)
        try:
            archive = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ParseError(f"cannot read checkpoint {path}: {exc}") from exc
        if isinstance(archive, np.ndarray):
            raise ParseError(f"cannot read checkpoint {path}: an .npy array, not an .npz archive")
        try:
            meta = json.loads(archive["__meta__"].tobytes().decode(),
                              object_pairs_hook=_json_object)
            version, config = meta.get("version"), meta["config"]
        except (KeyError, ValueError, AttributeError) as exc:
            raise ParseError(f"cannot read __meta__ of checkpoint {path}: {exc!r}") from exc
        if version != CHECKPOINT_VERSION:
            raise UsageError(f"unsupported checkpoint version {version}")
        config = _build(ModelConfig, config, f"model config of checkpoint {path}")
        model = InertialRegressor(config, None)  # zeros, every one overwritten below
        params = model.parameters()
        stored = {key[len("param/"):] for key in archive.files if key.startswith("param/")}
        if stored != set(params):
            missing = sorted(set(params) - stored)
            unexpected = sorted(stored - set(params))
            raise UsageError(f"checkpoint parameters do not match the model: "
                             f"missing {missing}, unexpected {unexpected}")
        for name, param in params.items():
            try:
                value = archive[f"param/{name}"]
            except ValueError as exc:  # an object array, which only pickle reads
                raise UsageError(f"checkpoint parameter '{name}' cannot be read: {exc}") from exc
            if value.shape != param.shape:
                raise UsageError(f"checkpoint parameter '{name}' has shape {value.shape}, "
                                 f"expected {param.shape}")
            if value.dtype.kind != "f":
                raise UsageError(f"checkpoint parameter '{name}' has dtype {value.dtype}, "
                                 f"expected a float dtype")
            if not np.all(np.isfinite(value)):
                raise UsageError(f"checkpoint parameter '{name}' contains non-finite values")
            param[...] = value
    return model
