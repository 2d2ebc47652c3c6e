"""Seeded, repeatable benchmarking of enhancement techniques.

The pipeline per run is: load recordings -> series-level preprocessing ->
time split -> windowing + labels -> per-window detrending -> augmentation
(training split only) -> training -> RMSE on the untouched test split.
Run ``i`` of every technique uses seed ``base_seed + i``, so techniques that
share a model configuration start from identical initial weights.
"""

from __future__ import annotations

import csv
import html
import io
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .augmentation import AugmentationSpec, apply_augmentation
from .data import (
    DatasetDescriptor,
    GroundTruth,
    InertialSeries,
    SynthParams,
    SyntheticSegment,
    WindowedDataset,
    parse_gt_heading_csv,
    parse_gt_pos_csv,
    parse_imu_csv,
    synthesize_dataset,
    window_dataset,
)
from .errors import ConfigError, DataError, ShapeError, StageError, UsageError
from .kernels import ConvSpec
from .losses import LossSpec, improvement_pct, metric_rmse
from .model import HEAD_MODES, ModelConfig, TrainConfig, build_model, train_model
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
        if self.synthetic:
            return
        if self.imu_csv is None:
            raise ConfigError("dataset needs synthetic segments or csv paths")
        gt = "gt_heading_csv" if self.descriptor.target_kind == "heading" else "gt_pos_csv"
        if getattr(self, gt) is None:
            raise ConfigError(f"{self.descriptor.target_kind} targets need {gt}")


# How each spec sits in a config entry.  ``name``, ``to_dict`` and
# ``_parse_technique`` all read these tables.


def _keys(cls, *exclude) -> dict:
    return {f.name: f.name for f in fields(cls) if f.name not in exclude}


LOSS_KEYS = {"loss": "kind", "delta": "delta"}  # config key -> LossSpec field

# augmentation kind -> (class, config key -> field, name fragment)
AUGMENT_KINDS = {
    "rotation": (AugmentationSpec, {"axes": "rotation_axes"},
                 lambda a: "rotation-" + "+".join(a.rotation_axes)),
    "bias": (AugmentationSpec, {"copies": "bias_copies", "sigma_acc": "sigma_acc",
                                "sigma_gyro": "sigma_gyro"},
             lambda a: f"bias-x{a.bias_copies}"),
    "noise": (AugmentationSpec, {"schedule": "noise_schedule"},
              lambda a: f"noise-x{len(a.noise_schedule)}"),
}

# preprocessing op -> (class, config key -> field, name fragment)
STEP_OPS = {cls.op: (cls, _keys(cls), lambda s: s.tag.format(**vars(s)))
            for cls in STEP_TYPES}


def _dump(spec, keys) -> dict:
    return {key: getattr(spec, f) for key, f in keys.items()}


def _read_tagged(section, family: dict, tag: str, context: str):
    """A spec from an entry whose ``tag`` key picks its row of ``family``."""
    section = dict(_section(section, context))
    value = section.pop(tag, None)
    if value not in family:
        raise ConfigError(f"unknown {tag} {value!r} in {context}")
    cls, keys, _ = family[value]
    return _build(cls, section, context, keys, **({tag: value} if tag in _keys(cls) else {}))


def _write_tagged(spec, family: dict, tag: str) -> dict:
    value = getattr(spec, tag)
    return {tag: value, **_dump(spec, family[value][1])}


# technique kind -> (read, write, name) of its inner spec, or None for kinds
# without one: read builds the spec from the entry's other keys and a context
# for errors, write gives those keys back, name gives the name fragment
TECHNIQUE_KINDS = {
    "baseline": None,
    "head2": None,
    "head3": None,
    "loss": (lambda e, c: _build(LossSpec, e, c, LOSS_KEYS, required=("loss",)),
             lambda s: _dump(s, LOSS_KEYS), lambda s: s.kind),
    "augment": (
        lambda e, c: _read_tagged(_sole(e, "augment", c), AUGMENT_KINDS, "kind",
                                  f"{c}.augment"),
        lambda a: {"augment": _write_tagged(a, AUGMENT_KINDS, "kind")},
        lambda a: AUGMENT_KINDS[a.kind][2](a)),
    "preprocess": (
        lambda e, c: PreprocSpec(tuple(
            _read_tagged(s, STEP_OPS, "op", f"{c}.steps[{i}]")
            for i, s in enumerate(_sole(e, "steps", c)))),
        lambda p: {"steps": [_write_tagged(s, STEP_OPS, "op") for s in p.steps]},
        lambda p: "+".join(STEP_OPS[s.op][2](s) for s in p.steps)),
}


@dataclass(frozen=True)
class TechniqueSpec:
    """Exactly one technique: the baseline or a single enhancement.

    A technique with an inner spec keeps it in the field named after its
    kind (``loss``, ``augment`` or ``preprocess``).
    """

    kind: str
    loss: LossSpec | None = None
    augment: AugmentationSpec | None = None
    preprocess: PreprocSpec | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in TECHNIQUE_KINDS:
            raise ConfigError(f"unknown technique kind '{self.kind}'")
        if not isinstance(self.label, (str, type(None))):
            raise ConfigError(f"technique name must be a string, got {self.label!r}")
        for inner in (k for k, v in TECHNIQUE_KINDS.items() if v is not None):
            if (getattr(self, inner) is None) == (inner == self.kind):
                raise ConfigError(f"technique '{self.kind}' takes exactly its own "
                                  f"inner spec, got {inner}={getattr(self, inner)!r}")

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        inner = TECHNIQUE_KINDS[self.kind]
        if inner is None:
            return self.kind
        _, _, name = inner
        return f"{self.kind}-{name(getattr(self, self.kind))}"

    def to_dict(self) -> dict:
        """The technique's config entry."""
        out = {"kind": self.kind}
        if self.label is not None:
            out["name"] = self.label
        inner = TECHNIQUE_KINDS[self.kind]
        if inner is not None:
            _, write, _ = inner
            out.update(write(getattr(self, self.kind)))
        return out


def _check_run(cfg):
    """Checks shared by ExperimentConfig and SuiteConfig."""
    if not (0.0 < cfg.train_fraction < 1.0):
        raise ConfigError(f"train fraction must be in (0, 1): {cfg.train_fraction}")
    window, m = cfg.dataset.descriptor.window_size, cfg.model
    conv = ConvSpec(6, m.conv_filters, m.kernel_size, m.stride)  # the single head's conv
    if window < m.kernel_size or conv.out_steps(window) < m.pool_depth:
        raise ConfigError(f"window size {window} is too short for conv kernel "
                          f"{m.kernel_size}, stride {m.stride} and pool depth {m.pool_depth}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    technique: TechniqueSpec = field(default_factory=lambda: TechniqueSpec("baseline"))
    train_fraction: float = 0.75

    def __post_init__(self):
        _check_run(self)


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
        _check_run(self)
        if not any(t.kind == "baseline" for t in self.techniques):
            raise ConfigError("suite needs a baseline technique")

    def experiment(self, technique: TechniqueSpec) -> ExperimentConfig:
        return ExperimentConfig(dataset=self.dataset, model=self.model,
                                train=self.train, technique=technique,
                                train_fraction=self.train_fraction)


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

    @property
    def failed(self) -> bool:
        return not self.rmse_runs


# ---------------------------------------------------------------------------
# seeding conventions (shared with tests)


def model_init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def shuffle_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1])


def dropout_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 2])


def augment_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 3])


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
    if ds.descriptor.target_kind == "heading":
        gt = parse_gt_heading_csv(ds.gt_heading_csv)
    else:
        gt = parse_gt_pos_csv(ds.gt_pos_csv)
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


def _windowed(parts: list[WindowedDataset], descriptor, detrend: bool):
    windows = np.concatenate([p.windows for p in parts])
    return WindowedDataset(detrend_linear(windows) if detrend else windows,
                           np.concatenate([p.labels for p in parts]), descriptor)


def prepare_run(exp: ExperimentConfig, seed: int, recordings=None):
    """Build (train dataset, test dataset, model config) for one run.

    ``recordings`` are ``load_recordings(exp.dataset)``, loaded here when not
    given; their arrays are made read-only, because callers share them
    between runs.  Preprocessing applies identically to both splits except
    that normalization statistics come from the training split only;
    augmentation touches the training split only.  ``denoise`` smooths each
    whole recording before the time split, so the samples around the split
    boundary average over both sides of it.
    """
    technique = exp.technique
    if recordings is None:
        with _stage("parse"):
            recordings = load_recordings(exp.dataset)
    _read_only(recordings)

    preproc = technique.preprocess if technique.kind == "preprocess" else PreprocSpec()
    detrend = any(isinstance(s, DetrendStep) for s in preproc.steps)

    with _stage("preprocess"):
        rng = np.random.default_rng([seed, 4])
        for step in preproc.steps:
            if isinstance(step, DenoiseStep):
                recordings = [(moving_average(s, step.window), g) for s, g in recordings]
            elif isinstance(step, AddNoiseStep):
                recordings = [
                    (add_measurement_noise(s, step.sigma_acc, step.sigma_gyro, rng), g)
                    for s, g in recordings
                ]
            elif isinstance(step, NormalizeStep):
                train_imu = np.concatenate(
                    [_split_series(s, exp.train_fraction)[0].imu for s, _ in recordings]
                )
                stats = fit_channel_stats(train_imu, step.method)
                recordings = [(apply_channel_stats(s, stats), g) for s, g in recordings]

    with _stage("window"):
        descriptor = exp.dataset.descriptor
        # per recording: (train windows, test windows)
        splits = [[window_dataset(part, gt, descriptor)
                   for part in _split_series(series, exp.train_fraction)]
                  for series, gt in recordings]
        train_ds, test_ds = (_windowed(parts, descriptor, detrend)
                             for parts in zip(*splits))

    if technique.kind == "augment":
        with _stage("augment"):
            train_ds = apply_augmentation(train_ds, technique.augment, augment_rng(seed))

    model_config = replace(exp.model, output_dim=exp.dataset.descriptor.label_dim)
    if technique.kind in HEAD_MODES:
        model_config = replace(model_config, head_mode=technique.kind)
    return train_ds, test_ds, model_config


def fit_model(exp: ExperimentConfig, train_ds: WindowedDataset,
              model_config: ModelConfig, seed: int):
    """Build the seeded model and train it; returns (model, loss curve).

    A ``loss`` technique replaces the suite's training loss with its own.
    """
    tc = exp.train
    if exp.technique.kind == "loss":
        tc = replace(tc, loss=exp.technique.loss)
    model = build_model(model_config, model_init_rng(seed))
    curve = train_model(model, tc, train_ds.windows, train_ds.labels,
                        shuffle_rng=shuffle_rng(seed), dropout_rng=dropout_rng(seed))
    return model, curve


def run_experiment(exp: ExperimentConfig, seed: int, recordings=None) -> float:
    """One seeded run; returns the test-split RMSE.

    ``recordings`` are passed to ``prepare_run``.
    """
    train_ds, test_ds, model_config = prepare_run(exp, seed, recordings)
    with _stage("train"):
        model, _ = fit_model(exp, train_ds, model_config, seed)
    with _stage("evaluate"):
        return metric_rmse(test_ds.labels, model.predict(test_ds.windows))


def _run_job(job) -> float | StageError:
    try:
        return run_experiment(*job)
    except StageError as exc:
        return exc


def worker_count(n_jobs: int) -> int:
    """Worker processes for ``n_jobs`` jobs, from INERTIA_BENCH_WORKERS.

    The variable defaults to 1 and must be an integer >= 1; the result is
    clamped to the CPU count and to the number of jobs.
    """
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        requested = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if requested < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {requested}")
    return min(requested, os.cpu_count() or 1, n_jobs)


def run_suite(suite: SuiteConfig) -> list[BenchReport]:
    """Run every technique ``repetitions`` times with paired seeds.

    The dataset's recordings are loaded once, before any run, and shared
    read-only by every run; if they cannot be loaded, the ``parse``
    StageError propagates and no run starts.  Failed runs are excluded from
    aggregation with a warning; a technique with no surviving run is marked
    failed.  Worker count comes from ``worker_count``; reports are identical
    for any worker count.
    """
    seeds = [suite.base_seed + i for i in range(suite.repetitions)]
    runs = [(suite.experiment(tech), seed) for tech in suite.techniques for seed in seeds]
    workers = worker_count(len(runs))
    with _stage("parse"):
        recordings = load_recordings(suite.dataset)
    # each job of a worker process carries its own pickled copy
    jobs = [(exp, seed, recordings) for exp, seed in runs]
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = list((pool.map if pool else map)(_run_job, jobs))

    reports = []
    for i, tech in enumerate(suite.techniques):
        chunk = results[i * len(seeds):(i + 1) * len(seeds)]
        ok = [float(r) for r in chunk if not isinstance(r, StageError)]
        for r in chunk:
            if isinstance(r, StageError):
                warnings.warn(f"run of '{tech.name}' failed: {r}")
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
# config files


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


def _frozen(value):
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


def _build(cls, section, context: str, keys=None, required=(), decode=None,
           **fixed):
    """``cls`` from one config section.

    ``keys`` maps config keys to fields of ``cls`` (default: every field not
    given in ``fixed``, under its own name).  A key is required if its field
    has no default or it is listed in ``required``; ``decode`` maps a key to
    a function ``(value, context) -> field value`` for nested sections.
    Unknown or missing keys, a non-integer value of an ``int`` field and
    values the class rejects raise ConfigError.
    """
    section = _section(section, context)
    keys = _keys(cls, *fixed) if keys is None else keys
    no_default = {f.name for f in fields(cls)
                  if f.default is MISSING and f.default_factory is MISSING}
    _check(section, keys,
           [k for k, f in keys.items() if f in no_default] + list(required), context)
    ints = {f.name for f in fields(cls) if f.type == "int"}
    for k, v in section.items():
        if keys[k] in ints and type(v) is not int:  # also rejects true and false
            raise ConfigError(f"invalid {context}: {k} must be an integer, got {v!r}")
    decode = decode or {}
    kwargs = {keys[k]: decode[k](v, f"{context}.{k}") if k in decode else _frozen(v)
              for k, v in section.items()}
    try:
        return cls(**kwargs, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def _parse_technique(entry, context: str = "techniques[]") -> TechniqueSpec:
    entry = dict(_section(entry, context))
    kind = entry.pop("kind", None)
    if kind not in TECHNIQUE_KINDS:
        raise ConfigError(f"unknown technique kind {kind!r} in {context}")
    label = entry.pop("name", None)
    inner = TECHNIQUE_KINDS[kind]
    if inner is None:
        _check(entry, (), (), context)
    specs = {} if inner is None else {kind: inner[0](entry, context)}
    try:
        return TechniqueSpec(kind, label=label, **specs)
    except ConfigError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def parse_suite_config(doc: dict) -> SuiteConfig:
    _check(_section(doc, "config"), ("dataset", "model", "train", "suite", "techniques"),
           ("dataset", "techniques"), "top level")
    dataset = _build(DatasetSpec, doc["dataset"], "dataset", decode={
        "descriptor": lambda v, c: _build(DatasetDescriptor, v, c),
        "synthetic": lambda v, c: tuple(
            _build(SyntheticSegment, s, f"{c}[{i}]",
                   decode={"params": lambda p, pc: _build(SynthParams, p, pc)})
            for i, s in enumerate(v)),
    })
    techniques = tuple(_parse_technique(t, f"techniques[{i}]")
                       for i, t in enumerate(doc["techniques"]))
    return _build(
        SuiteConfig, doc.get("suite", {}), "suite", dataset=dataset,
        techniques=techniques,
        # head mode and loss come from techniques only, so the baseline is
        # always the single-head network trained with MSE
        model=_build(ModelConfig, doc.get("model", {}), "model",
                     _keys(ModelConfig, "output_dim", "head_mode")),
        train=_build(TrainConfig, doc.get("train", {}), "train", _keys(TrainConfig, "loss")))


def load_suite_config(path) -> SuiteConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_suite_config(doc)
