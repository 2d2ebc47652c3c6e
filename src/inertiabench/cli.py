"""Command-line entry points: synth, bench, train, eval, report."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import (
    SynthParams,
    synthesize_dataset,
    write_gt_heading_csv,
    write_gt_pos_csv,
    write_imu_csv,
)
from .errors import ConfigError, UsageError
from .losses import metric_rmse
from .model import load_checkpoint, save_checkpoint
from .runner import (
    BenchReport,
    ExperimentConfig,
    emit_outputs,
    fit_model,
    load_suite_config,
    prepare_run,
    run_suite,
)


def _cmd_synth(args):
    params = SynthParams(speed=args.speed, heading=args.heading, radius=args.radius,
                         omega=args.omega, amplitude=args.amplitude,
                         frequency=args.frequency)
    series, gt = synthesize_dataset(args.kind, duration=args.duration, rate=args.rate,
                                    gt_rate=args.gt_rate, params=params,
                                    noise_acc=args.noise_acc,
                                    noise_gyro=args.noise_gyro, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    write_imu_csv(os.path.join(args.out_dir, "imu.csv"), series)
    write_gt_pos_csv(os.path.join(args.out_dir, "gt_pos.csv"), gt)
    write_gt_heading_csv(os.path.join(args.out_dir, "gt_heading.csv"), gt)
    print(f"wrote {len(series)} samples to {args.out_dir}")
    return 0


def _cmd_bench(args):
    suite = load_suite_config(args.config)
    reports = run_suite(suite)
    paths = emit_outputs(reports, suite, args.out_dir,
                         formats=tuple(args.formats.split(",")))
    for r in reports:
        status = "FAILED" if r.failed else f"mean RMSE {r.mean:.6g}"
        imp = "" if r.improvement_pct is None else f"  improvement {r.improvement_pct:+.2f}%"
        print(f"{r.name:32s} {status}{imp}")
    for fmt, path in paths.items():
        print(f"wrote {path}")
    return 2 if any(r.failed for r in reports) else 0


def _experiment(args) -> ExperimentConfig:
    """The suite's experiment for ``--technique``."""
    suite = load_suite_config(args.config)
    technique = next((t for t in suite.techniques if t.name == args.technique),
                     None)
    if technique is None:
        raise UsageError(f"technique '{args.technique}' not found in config")
    return ExperimentConfig(dataset=suite.dataset, model=suite.model,
                            train=suite.train, technique=technique,
                            train_fraction=suite.train_fraction)


def _cmd_train(args):
    exp = _experiment(args)
    train_ds, _, model_config = prepare_run(exp, args.seed)
    model, curve = fit_model(exp, train_ds, model_config, args.seed)
    save_checkpoint(args.out, model)
    print(f"final training loss {curve[-1]:.6g}; checkpoint saved to {args.out}")
    return 0


def _cmd_eval(args):
    exp = _experiment(args)
    model = load_checkpoint(args.checkpoint)
    label_dim = exp.dataset.descriptor.label_dim
    if model.config.output_dim != label_dim:
        raise UsageError(f"checkpoint predicts {model.config.output_dim} value(s) per "
                         f"window, but the dataset's labels have {label_dim}")
    _, test_ds, _ = prepare_run(exp, args.seed)
    rmse = metric_rmse(test_ds.labels, model.predict(test_ds.windows))
    print(f"test RMSE {rmse:.6g}")
    return 0


def _cmd_report(args):
    with open(args.report) as fh:
        doc = json.load(fh)
    reports = [
        BenchReport(name=t["name"], spec=t["spec"], rmse_runs=t["rmse_runs"],
                    seeds=[], failed_runs=t["failed_runs"], mean=t["mean"],
                    std=t["std"], improvement_pct=t["improvement_pct"],
                    wall_clock=0.0)
        for t in doc["techniques"]
    ]
    from .runner import render_improvement_svg, report_to_csv

    os.makedirs(args.out_dir, exist_ok=True)
    formats = args.formats.split(",")
    if "csv" in formats:
        path = os.path.join(args.out_dir, "report.csv")
        with open(path, "w") as fh:
            fh.write(report_to_csv(reports))
        print(f"wrote {path}")
    if "svg" in formats:
        path = os.path.join(args.out_dir, "improvement.svg")
        with open(path, "w") as fh:
            fh.write(render_improvement_svg(reports))
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="inertiabench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset to CSV")
    p.add_argument("--kind", choices=("line", "circle", "sinusoid"), required=True)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--rate", type=float, default=120.0)
    p.add_argument("--gt-rate", type=float, default=None)
    p.add_argument("--speed", type=float, default=1.0)
    p.add_argument("--heading", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--frequency", type=float, default=0.5)
    p.add_argument("--noise-acc", type=float, default=0.0)
    p.add_argument("--noise-gyro", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="run a benchmark suite from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="json,csv,svg")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("train", help="train one technique and save a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--technique", default="baseline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--technique", default="baseline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="re-render csv/svg outputs from report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="csv,svg")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
