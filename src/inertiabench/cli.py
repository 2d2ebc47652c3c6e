"""Command-line entry points: synth, bench, train, eval, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .data import (
    TRAJECTORY_KINDS,
    SynthParams,
    SyntheticSegment,
    synthesize_dataset,
    write_gt_heading_csv,
    write_gt_pos_csv,
    write_imu_csv,
)
from .errors import InertiaBenchError, ParseError, UsageError
from .losses import metric_rmse
from .model import load_checkpoint, save_checkpoint
from .runner import (
    BenchReport,
    ExperimentConfig,
    check_formats,
    emit_outputs,
    fit_model,
    load_suite_config,
    prepare_run,
    run_suite,
)


def _cmd_synth(args):
    params = SynthParams(**{f.name: getattr(args, f.name) for f in fields(SynthParams)})
    flags = {f.name: getattr(args, f.name) for f in fields(SyntheticSegment)
             if f.name != "params"}
    series, gt = synthesize_dataset(**flags, params=params)
    os.makedirs(args.out_dir, exist_ok=True)
    write_imu_csv(os.path.join(args.out_dir, "imu.csv"), series)
    write_gt_pos_csv(os.path.join(args.out_dir, "gt_pos.csv"), gt)
    write_gt_heading_csv(os.path.join(args.out_dir, "gt_heading.csv"), gt)
    print(f"wrote {len(series)} samples to {args.out_dir}")
    return 0


def _cmd_bench(args):
    suite = load_suite_config(args.config)
    formats = tuple(args.formats.split(","))
    check_formats(formats)
    reports = run_suite(suite)
    paths = emit_outputs(reports, suite, args.out_dir, formats)
    for r in reports:
        status = "FAILED" if r.failed else f"mean RMSE {r.mean:.6g}"
        imp = "" if r.improvement_pct is None else f"  improvement {r.improvement_pct:+.2f}%"
        print(f"{r.name:32s} {status}{imp}")
    for path in paths.values():
        print(f"wrote {path}")
    return 2 if any(r.failed for r in reports) else 0


def _experiment(args) -> ExperimentConfig:
    """The suite's experiment for ``--technique``."""
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    suite = load_suite_config(args.config)
    technique = next((t for t in suite.techniques if t.name == args.technique),
                     None)
    if technique is None:
        raise UsageError(f"technique '{args.technique}' not found in config")
    return suite.experiment(technique)


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
    formats = tuple(args.formats.split(","))
    if "json" in formats:
        raise UsageError("report re-renders csv and svg only")
    try:
        with open(args.report) as fh:
            reports = [BenchReport(**t) for t in json.load(fh)["techniques"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"invalid report {args.report}: {exc!r}") from exc
    for path in emit_outputs(reports, None, args.out_dir, formats).values():
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="inertiabench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset to CSV")
    p.add_argument("--kind", choices=TRAJECTORY_KINDS, required=True)
    for f in fields(SyntheticSegment) + fields(SynthParams):
        if f.name not in ("kind", "params"):
            p.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                           type=int if f.type == "int" else float)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="run a benchmark suite from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="json,csv,svg")
    p.set_defaults(func=_cmd_bench)

    run = argparse.ArgumentParser(add_help=False)  # the flags of train and eval
    run.add_argument("--config", required=True)
    run.add_argument("--technique", default="baseline")
    run.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", parents=[run], help="train one technique and save a checkpoint")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[run], help="evaluate a checkpoint on the test split")
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
    except (InertiaBenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
