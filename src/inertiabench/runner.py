"""Seeded, repeatable benchmarking of enhancement techniques.

The pipeline per run is: load recordings -> series-level preprocessing ->
time split -> windowing + labels -> per-window detrending -> augmentation
(training split only) -> training -> RMSE on the untouched test split.
Run ``i`` of every technique uses seed ``base_seed + i``, so techniques that
share a model configuration start from identical initial weights.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .augmentation import AugmentationSpec, apply_augmentation
from .data import (
    DatasetDescriptor,
    GroundTruth,
    InertialSeries,
    SynthParams,
    WindowedDataset,
    parse_gt_heading_csv,
    parse_gt_pos_csv,
    parse_imu_csv,
    synthesize_dataset,
    window_dataset,
)
from .errors import ConfigError, NumericError, ShapeError, StageError
from .losses import LossSpec, improvement_pct, metric_rmse
from .model import ModelConfig, TrainConfig, build_model, train_model
from .preprocessing import (
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
class SyntheticSegment:
    """One synthetic recording inside a dataset."""

    kind: str
    duration: float = 60.0
    rate: float = 120.0
    gt_rate: float | None = None
    params: SynthParams = field(default_factory=SynthParams)
    noise_acc: float = 0.0
    noise_gyro: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class DatasetSpec:
    descriptor: DatasetDescriptor
    synthetic: tuple[SyntheticSegment, ...] = ()
    imu_csv: str | None = None
    gt_pos_csv: str | None = None
    gt_heading_csv: str | None = None

    def __post_init__(self):
        if not self.synthetic and self.imu_csv is None:
            raise ConfigError("dataset needs synthetic segments or csv paths")


@dataclass(frozen=True)
class TechniqueSpec:
    """Exactly one technique: the baseline or a single enhancement."""

    kind: str  # baseline | head2 | head3 | loss | augment | preprocess
    loss: LossSpec | None = None
    augment: AugmentationSpec | None = None
    preprocess: PreprocSpec | None = None
    label: str | None = None

    def __post_init__(self):
        kinds = ("baseline", "head2", "head3", "loss", "augment", "preprocess")
        if self.kind not in kinds:
            raise ConfigError(f"unknown technique kind '{self.kind}'")
        needs = {"loss": self.loss, "augment": self.augment,
                 "preprocess": self.preprocess}
        if self.kind in needs and needs[self.kind] is None:
            raise ConfigError(f"technique '{self.kind}' needs its inner spec")

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "loss":
            return f"loss-{self.loss.kind}"
        if self.kind == "augment":
            a = self.augment
            if a.kind == "rotation":
                return "augment-rotation-" + "+".join(a.rotation_axes)
            if a.kind == "bias":
                return f"augment-bias-x{a.bias_copies}"
            return f"augment-noise-x{len(a.noise_schedule)}"
        if self.kind == "preprocess":
            parts = []
            for s in self.preprocess.steps:
                if isinstance(s, DenoiseStep):
                    parts.append(f"denoise{s.window}")
                elif isinstance(s, AddNoiseStep):
                    parts.append("addnoise")
                elif isinstance(s, NormalizeStep):
                    parts.append(s.method)
                else:
                    parts.append("detrend")
            return "preprocess-" + "+".join(parts)
        return self.kind

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.loss is not None:
            out["loss"] = {"kind": self.loss.kind, "delta": self.loss.delta}
        if self.augment is not None:
            a = self.augment
            out["augment"] = {"kind": a.kind}
            if a.kind == "rotation":
                out["augment"]["axes"] = list(a.rotation_axes)
            elif a.kind == "bias":
                out["augment"].update(copies=a.bias_copies, sigma_acc=a.sigma_acc,
                                      sigma_gyro=a.sigma_gyro)
            else:
                out["augment"]["schedule"] = [list(e) for e in a.noise_schedule]
        if self.preprocess is not None:
            steps = []
            for s in self.preprocess.steps:
                if isinstance(s, DenoiseStep):
                    steps.append({"op": "denoise", "window": s.window})
                elif isinstance(s, AddNoiseStep):
                    steps.append({"op": "add_noise", "sigma_acc": s.sigma_acc,
                                  "sigma_gyro": s.sigma_gyro})
                elif isinstance(s, NormalizeStep):
                    steps.append({"op": "normalize", "method": s.method})
                else:
                    steps.append({"op": "detrend"})
            out["steps"] = steps
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    technique: TechniqueSpec = field(default_factory=lambda: TechniqueSpec("baseline"))
    train_fraction: float = 0.75

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(f"train fraction must be in (0, 1): {self.train_fraction}")


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
        if not any(t.kind == "baseline" for t in self.techniques):
            raise ConfigError("suite needs a baseline technique")


@dataclass
class BenchReport:
    name: str
    spec: dict
    rmse_runs: list[float]
    seeds: list[int]
    failed_runs: int
    mean: float | None
    std: float | None
    improvement_pct: float | None
    wall_clock: float

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
        recordings = []
        for seg in ds.synthetic:
            recordings.append(
                synthesize_dataset(seg.kind, duration=seg.duration, rate=seg.rate,
                                   gt_rate=seg.gt_rate, params=seg.params,
                                   noise_acc=seg.noise_acc, noise_gyro=seg.noise_gyro,
                                   seed=seg.seed)
            )
        return recordings
    series = parse_imu_csv(ds.imu_csv)
    if ds.descriptor.target_kind == "heading":
        if ds.gt_heading_csv is None:
            raise ConfigError("heading targets need gt_heading_csv")
        gt = parse_gt_heading_csv(ds.gt_heading_csv)
    else:
        if ds.gt_pos_csv is None:
            raise ConfigError(f"{ds.descriptor.target_kind} targets need gt_pos_csv")
        gt = parse_gt_pos_csv(ds.gt_pos_csv)
    return [(series, gt)]


def _split_series(series: InertialSeries, fraction: float):
    k = int(round(len(series) * fraction))
    k = min(max(k, 1), len(series) - 1)
    return (InertialSeries(series.t[:k], series.imu[:k]),
            InertialSeries(series.t[k:], series.imu[k:]))


def prepare_run(exp: ExperimentConfig, seed: int):
    """Build (train dataset, test dataset, model config) for one run.

    Preprocessing applies identically to both splits except that
    normalization statistics come from the training split only; augmentation
    touches the training split only.
    """
    technique = exp.technique
    try:
        recordings = load_recordings(exp.dataset)
    except Exception as exc:
        raise StageError("parse", exc) from exc

    preproc = technique.preprocess if technique.kind == "preprocess" else PreprocSpec()
    detrend = any(isinstance(s, DetrendStep) for s in preproc.steps)

    try:
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
    except Exception as exc:
        raise StageError("preprocess", exc) from exc

    try:
        train_parts, test_parts = [], []
        for series, gt in recordings:
            tr, te = _split_series(series, exp.train_fraction)
            train_parts.append(window_dataset(tr, gt, exp.dataset.descriptor))
            test_parts.append(window_dataset(te, gt, exp.dataset.descriptor))
        descriptor = exp.dataset.descriptor
        train_ds = WindowedDataset(
            np.concatenate([p.windows for p in train_parts]),
            np.concatenate([p.labels for p in train_parts]),
            descriptor,
        )
        test_ds = WindowedDataset(
            np.concatenate([p.windows for p in test_parts]),
            np.concatenate([p.labels for p in test_parts]),
            descriptor,
        )
        if detrend:
            train_ds = WindowedDataset(detrend_linear(train_ds.windows),
                                       train_ds.labels, descriptor)
            test_ds = WindowedDataset(detrend_linear(test_ds.windows),
                                      test_ds.labels, descriptor)
    except Exception as exc:
        raise StageError("window", exc) from exc

    if technique.kind == "augment":
        try:
            train_ds = apply_augmentation(train_ds, technique.augment, augment_rng(seed))
        except Exception as exc:
            raise StageError("augment", exc) from exc

    model_config = exp.model
    if technique.kind in ("head2", "head3"):
        model_config = replace(model_config, head_mode=technique.kind)
    model_config = replace(model_config,
                           output_dim=exp.dataset.descriptor.label_dim)
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


def run_experiment(exp: ExperimentConfig, seed: int) -> float:
    """One seeded run; returns the test-split RMSE."""
    train_ds, test_ds, model_config = prepare_run(exp, seed)

    try:
        model, _ = fit_model(exp, train_ds, model_config, seed)
    except Exception as exc:
        raise StageError("train", exc) from exc

    try:
        pred = model.predict(test_ds.windows)
        return metric_rmse(test_ds.labels, pred)
    except Exception as exc:
        raise StageError("evaluate", exc) from exc


def _run_job(args):
    exp, seed = args
    return run_experiment(exp, seed)


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

    Runs that fail numerically are excluded from aggregation with a warning;
    a technique with no surviving run is marked failed.  Worker count comes
    from ``worker_count``; reports are identical for any worker count.
    """
    seeds = [suite.base_seed + i for i in range(suite.repetitions)]
    jobs = []
    for tech in suite.techniques:
        exp = ExperimentConfig(dataset=suite.dataset, model=suite.model,
                               train=suite.train, technique=tech,
                               train_fraction=suite.train_fraction)
        for seed in seeds:
            jobs.append((exp, seed))

    workers = worker_count(len(jobs))
    started = time.monotonic()
    results: list[float | StageError] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_job, job) for job in jobs]
            for fut in futures:
                try:
                    results.append(fut.result())
                except (StageError, NumericError) as exc:
                    results.append(exc)
    else:
        for job in jobs:
            try:
                results.append(_run_job(job))
            except (StageError, NumericError) as exc:
                results.append(exc)

    reports = []
    baseline_mean = None
    per_tech = [results[i * len(seeds):(i + 1) * len(seeds)]
                for i in range(len(suite.techniques))]
    # first pass: the baseline mean anchors every improvement percentage
    for tech, chunk in zip(suite.techniques, per_tech):
        if tech.kind == "baseline":
            ok = [r for r in chunk if not isinstance(r, Exception)]
            if ok:
                baseline_mean = float(np.mean(ok))
            break
    elapsed = time.monotonic() - started
    for tech, chunk in zip(suite.techniques, per_tech):
        ok = [float(r) for r in chunk if not isinstance(r, Exception)]
        failed = len(chunk) - len(ok)
        for r in chunk:
            if isinstance(r, Exception):
                warnings.warn(f"run of '{tech.name}' failed: {r}")
        mean = float(np.mean(ok)) if ok else None
        std = float(np.std(ok)) if ok else None
        imp = None
        if ok and baseline_mean is not None and baseline_mean > 0:
            imp = improvement_pct(baseline_mean, mean)
        reports.append(BenchReport(
            name=tech.name, spec=tech.to_dict(), rmse_runs=ok,
            seeds=list(seeds), failed_runs=failed, mean=mean, std=std,
            improvement_pct=imp, wall_clock=elapsed,
        ))
    return reports


# ---------------------------------------------------------------------------
# report emission


def report_to_json(reports: list[BenchReport], suite: SuiteConfig) -> str:
    """Deterministic report serialization (wall clock deliberately omitted)."""
    doc = {
        "suite": {"base_seed": suite.base_seed, "repetitions": suite.repetitions},
        "techniques": [
            {
                "name": r.name,
                "spec": r.spec,
                "rmse_runs": r.rmse_runs,
                "mean": r.mean,
                "std": r.std,
                "improvement_pct": r.improvement_pct,
                "failed_runs": r.failed_runs,
            }
            for r in reports
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_to_csv(reports: list[BenchReport]) -> str:
    lines = ["technique,mean_rmse,std_rmse,improvement_pct,failed_runs,rmse_runs"]
    for r in reports:
        runs = "|".join(repr(v) for v in r.rmse_runs)
        fmt = lambda v: "" if v is None else repr(v)
        lines.append(
            f"{r.name},{fmt(r.mean)},{fmt(r.std)},{fmt(r.improvement_pct)},"
            f"{r.failed_runs},{runs}"
        )
    return "\n".join(lines) + "\n"


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
                     f'{height + 2 * margin - 10})">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(reports: list[BenchReport], suite: SuiteConfig, out_dir,
                 formats=("json", "csv", "svg")) -> dict[str, str]:
    """Write report files; returns {format: path}."""
    if not reports:
        raise ShapeError("no reports to emit")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if "json" in formats:
        paths["json"] = os.path.join(out_dir, "report.json")
        with open(paths["json"], "w") as fh:
            fh.write(report_to_json(reports, suite))
    if "csv" in formats:
        paths["csv"] = os.path.join(out_dir, "report.csv")
        with open(paths["csv"], "w") as fh:
            fh.write(report_to_csv(reports))
    if "svg" in formats:
        paths["svg"] = os.path.join(out_dir, "improvement.svg")
        with open(paths["svg"], "w") as fh:
            fh.write(render_improvement_svg(reports))
    return paths


# ---------------------------------------------------------------------------
# config files


def _check_keys(section: dict, allowed, context: str):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}")


def _parse_descriptor(section: dict) -> DatasetDescriptor:
    _check_keys(section, ("name", "sampling_rate", "window_size", "stride",
                          "target_kind"), "dataset.descriptor")
    return DatasetDescriptor(**section)


def _parse_segment(section: dict) -> SyntheticSegment:
    _check_keys(section, ("kind", "duration", "rate", "gt_rate", "params",
                          "noise_acc", "noise_gyro", "seed"), "dataset.synthetic[]")
    params = section.pop("params", None)
    if params is not None:
        _check_keys(params, ("speed", "heading", "radius", "omega", "amplitude",
                             "frequency"), "dataset.synthetic[].params")
        params = SynthParams(**params)
        return SyntheticSegment(params=params, **section)
    return SyntheticSegment(**section)


def _parse_dataset(section: dict) -> DatasetSpec:
    _check_keys(section, ("descriptor", "synthetic", "imu_csv", "gt_pos_csv",
                          "gt_heading_csv"), "dataset")
    if "descriptor" not in section:
        raise ConfigError("dataset.descriptor is required")
    descriptor = _parse_descriptor(dict(section["descriptor"]))
    synthetic = tuple(_parse_segment(dict(seg))
                      for seg in section.get("synthetic", []))
    return DatasetSpec(descriptor=descriptor, synthetic=synthetic,
                       imu_csv=section.get("imu_csv"),
                       gt_pos_csv=section.get("gt_pos_csv"),
                       gt_heading_csv=section.get("gt_heading_csv"))


def _parse_preproc_steps(steps: list) -> PreprocSpec:
    parsed = []
    for raw in steps:
        raw = dict(raw)
        op = raw.pop("op", None)
        if op == "denoise":
            _check_keys(raw, ("window",), "preprocess step denoise")
            parsed.append(DenoiseStep(**raw))
        elif op == "add_noise":
            _check_keys(raw, ("sigma_acc", "sigma_gyro"), "preprocess step add_noise")
            parsed.append(AddNoiseStep(**raw))
        elif op == "normalize":
            _check_keys(raw, ("method",), "preprocess step normalize")
            parsed.append(NormalizeStep(**raw))
        elif op == "detrend":
            _check_keys(raw, (), "preprocess step detrend")
            parsed.append(DetrendStep())
        else:
            raise ConfigError(f"unknown preprocessing op '{op}'")
    return PreprocSpec(tuple(parsed))


def _parse_technique(section: dict) -> TechniqueSpec:
    section = dict(section)
    _check_keys(section, ("kind", "name", "loss", "delta", "augment", "steps"),
                "techniques[]")
    kind = section.get("kind")
    label = section.get("name")
    if kind in ("baseline", "head2", "head3"):
        return TechniqueSpec(kind, label=label)
    if kind == "loss":
        return TechniqueSpec(kind, label=label,
                             loss=LossSpec(section["loss"],
                                           section.get("delta", 1.0)))
    if kind == "augment":
        aug = dict(section.get("augment", {}))
        _check_keys(aug, ("kind", "axes", "copies", "sigma_acc", "sigma_gyro",
                          "schedule"), "techniques[].augment")
        akind = aug.get("kind")
        kwargs = {"kind": akind}
        if "axes" in aug:
            kwargs["rotation_axes"] = tuple(aug["axes"])
        if "copies" in aug:
            kwargs["bias_copies"] = aug["copies"]
        if "sigma_acc" in aug:
            kwargs["sigma_acc"] = aug["sigma_acc"]
        if "sigma_gyro" in aug:
            kwargs["sigma_gyro"] = aug["sigma_gyro"]
        if "schedule" in aug:
            kwargs["noise_schedule"] = tuple(tuple(e) for e in aug["schedule"])
        return TechniqueSpec(kind, label=label, augment=AugmentationSpec(**kwargs))
    if kind == "preprocess":
        return TechniqueSpec(kind, label=label,
                             preprocess=_parse_preproc_steps(section.get("steps", [])))
    raise ConfigError(f"unknown technique kind '{kind}'")


def parse_suite_config(doc: dict) -> SuiteConfig:
    _check_keys(doc, ("dataset", "model", "train", "suite", "techniques"),
                "top level")
    if "dataset" not in doc or "techniques" not in doc:
        raise ConfigError("config needs 'dataset' and 'techniques' sections")
    dataset = _parse_dataset(dict(doc["dataset"]))

    model_section = dict(doc.get("model", {}))
    _check_keys(model_section, ("head_mode", "conv_filters", "kernel_size", "stride",
                               "pool_depth", "dropout", "lstm_hidden", "fc_width"),
                "model")
    model = ModelConfig(**model_section)

    train_section = dict(doc.get("train", {}))
    _check_keys(train_section, ("epochs", "batch_size", "learning_rate", "loss",
                               "delta", "seed"), "train")
    loss = LossSpec(train_section.pop("loss", "mse"), train_section.pop("delta", 1.0))
    train = TrainConfig(loss=loss, **train_section)

    suite_section = dict(doc.get("suite", {}))
    _check_keys(suite_section, ("repetitions", "base_seed", "train_fraction"), "suite")

    techniques = tuple(_parse_technique(t) for t in doc["techniques"])
    return SuiteConfig(dataset=dataset, techniques=techniques, model=model,
                       train=train, **suite_section)


def load_suite_config(path) -> SuiteConfig:
    try:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_suite_config(doc)
