import csv
import io
import json
import os
import pickle
import platform
import re
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

import inertiabench
from inertiabench.augmentation import RotationAugment
from inertiabench.data import (
    DatasetDescriptor,
    InertialSeries,
    SynthParams,
    synthesize_dataset,
    write_gt_pos_csv,
    write_imu_csv,
)
from inertiabench.errors import (
    ConfigError,
    DataError,
    DegenerateChannelError,
    ParseError,
    ShapeError,
    StageError,
    UsageError,
)
from inertiabench.losses import LossSpec
from inertiabench.model import InertialRegressor, ModelConfig, TrainConfig
from inertiabench.preprocessing import (
    AddNoiseStep,
    DenoiseStep,
    DetrendStep,
    NormalizeStep,
    PreprocSpec,
)

from test_acceptance import BENCH_CONFIG
from inertiabench.runner import (
    AUGMENT_KINDS,
    LOSS_KEYS,
    STEP_OPS,
    STREAMS,
    WORKERS_ENV,
    BenchReport,
    DatasetSpec,
    SuiteConfig,
    SyntheticSegment,
    TechniqueSpec,
    _keys,
    _parse_technique,
    emit_outputs,
    keep_freed_heap,
    load_checkpoint,
    load_recordings,
    load_suite_config,
    parse_suite_config,
    prepare_run,
    report_to_json,
    run_experiment,
    run_rng,
    run_suite,
    save_checkpoint,
    worker_count,
)

TINY_MODEL = ModelConfig(conv_filters=4, kernel_size=3, pool_depth=2,
                         lstm_hidden=4, fc_width=8)
TINY_TRAIN = TrainConfig(epochs=1, batch_size=16)


def tiny_dataset(noise=0.05):
    desc = DatasetDescriptor("tiny", 40.0, 40, 20, "distance_xy")
    segments = (
        SyntheticSegment("circle", duration=6.0, rate=40.0, noise_acc=noise,
                         noise_gyro=noise / 100, seed=1),
        SyntheticSegment("line", duration=6.0, rate=40.0, noise_acc=noise,
                         noise_gyro=noise / 100, seed=2),
    )
    return DatasetSpec(descriptor=desc, synthetic=segments)


BASELINE = TechniqueSpec("baseline")


def tiny_suite(dataset=None):
    """The tiny model on ``dataset`` (default the tiny one); a run takes any technique."""
    return SuiteConfig(dataset=dataset or tiny_dataset(), techniques=(BASELINE,),
                       model=TINY_MODEL, train=TINY_TRAIN)


class TestRunExperiment:
    def test_baseline_reproducible(self):
        suite = tiny_suite()
        a = run_experiment(suite, BASELINE, 7)
        b = run_experiment(suite, BASELINE, 7)
        assert np.isfinite(a)
        assert a == b

    def test_rotation_doubles_training_set_only(self):
        base_train, base_test, _ = prepare_run(tiny_suite(), BASELINE, 3)
        aug = TechniqueSpec("augment", RotationAugment(("T1",)))
        aug_train, aug_test, _ = prepare_run(tiny_suite(), aug, 3)
        assert len(aug_train) == 2 * len(base_train)
        np.testing.assert_array_equal(aug_test.windows, base_test.windows)
        np.testing.assert_array_equal(aug_test.labels, base_test.labels)

    def test_degenerate_channel_tagged_preprocess(self):
        # noiseless line data has constant channels
        desc = DatasetDescriptor("flat", 40.0, 40, 20, "distance_xy")
        ds = DatasetSpec(descriptor=desc,
                         synthetic=(SyntheticSegment("line", duration=4.0, rate=40.0),))
        tech = TechniqueSpec("preprocess", PreprocSpec((NormalizeStep("zscore"),)))
        with pytest.raises(StageError) as exc:
            run_experiment(tiny_suite(ds), tech, 0)
        assert exc.value.stage == "preprocess"

    @staticmethod
    def _split_windows(steps=(), seed=3):
        technique = (TechniqueSpec("preprocess", PreprocSpec(steps)) if steps
                     else TechniqueSpec("baseline"))
        train_ds, test_ds, _ = prepare_run(tiny_suite(), technique, seed)
        return train_ds.windows, test_ds.windows

    def test_add_noise_is_seeded(self):
        steps = (AddNoiseStep(0.1, 0.001),)
        for a, b in zip(self._split_windows(steps), self._split_windows(steps)):
            np.testing.assert_array_equal(a, b)

    def test_add_noise_changes_both_splits(self):
        noisy = self._split_windows((AddNoiseStep(0.1, 0.001),))
        for a, b in zip(noisy, self._split_windows()):
            assert a.shape == b.shape and not np.array_equal(a, b)

    def test_add_noise_with_zero_stds_is_the_baseline(self):
        for a, b in zip(self._split_windows((AddNoiseStep(0.0, 0.0),)),
                        self._split_windows()):
            np.testing.assert_array_equal(a, b)

    def test_denoise_smooths_before_the_split(self):
        # the whole recording is smoothed, then split: the first test sample
        # averages a window that reaches back over the split boundary
        n = 9
        suite = tiny_suite()
        tech = TechniqueSpec("preprocess", PreprocSpec((DenoiseStep(n),)))
        raw = load_recordings(suite.dataset)[0][0].imu
        _, test_ds, _ = prepare_run(suite, tech, 0)
        k = int(round((len(raw) - n + 1) * suite.train_fraction))
        boundary = int(round(len(raw) * suite.train_fraction))
        assert k < boundary < k + n
        np.testing.assert_allclose(test_ds.windows[0, :, 0], raw[k:k + n].mean(axis=0),
                                   rtol=1e-12, atol=1e-12)

    def test_in_place_write_to_recording_raises(self, monkeypatch):
        def denoise_in_place(series, n):
            series.imu[:] = 0.0
            return series

        monkeypatch.setattr("inertiabench.runner.moving_average", denoise_in_place)
        suite = tiny_suite()
        tech = TechniqueSpec("preprocess", PreprocSpec((DenoiseStep(3),)))
        recordings = load_recordings(suite.dataset)
        before = recordings[0][0].imu.copy()
        with pytest.raises(StageError) as exc:
            run_experiment(suite, tech, 0, recordings)
        assert exc.value.stage == "preprocess"
        assert isinstance(exc.value.cause, ValueError)
        np.testing.assert_array_equal(recordings[0][0].imu, before)

    def test_head_technique_switches_architecture(self):
        _, _, cfg = prepare_run(tiny_suite(), TechniqueSpec("head2"), 0)
        assert cfg.head_mode == "head2"

    def test_paired_seeds_share_initialization(self):
        cfg_a = prepare_run(tiny_suite(), BASELINE, 5)[2]
        cfg_b = prepare_run(tiny_suite(), TechniqueSpec("loss", LossSpec("huber")), 5)[2]
        assert cfg_a == cfg_b
        pa = InertialRegressor(cfg_a, run_rng(5, "init")).parameters()
        pb = InertialRegressor(cfg_b, run_rng(5, "init")).parameters()
        for k in pa:
            np.testing.assert_array_equal(pa[k], pb[k])

    def test_stream_numbering(self):
        # stream i of seed s is seeded [s, i]: a reorder would move every report's bytes
        assert STREAMS == ("init", "shuffle", "dropout", "augment", "preprocess")
        for i, name in enumerate(STREAMS):
            np.testing.assert_array_equal(run_rng(7, name).random(4),
                                          np.random.default_rng([7, i]).random(4))
        with pytest.raises(ValueError):
            run_rng(7, "noise")


@pytest.fixture(scope="module")
def suite():
    techniques = (
        TechniqueSpec("baseline"),
        TechniqueSpec("loss", LossSpec("huber")),
    )
    return SuiteConfig(dataset=tiny_dataset(), techniques=techniques,
                       model=TINY_MODEL, train=TINY_TRAIN,
                       repetitions=2, base_seed=11)


@pytest.fixture(scope="module")
def reports(suite):
    return run_suite(suite)


class TestRunSuite:
    def test_bookkeeping(self, reports):
        assert len(reports) == 2
        assert all(len(r.rmse_runs) == 2 for r in reports)
        assert reports[0].name == "baseline"
        assert reports[0].improvement_pct == pytest.approx(0.0)

    def test_mean_std_consistent_with_runs(self, reports):
        for r in reports:
            assert r.mean == pytest.approx(float(np.mean(r.rmse_runs)))
            assert r.std == pytest.approx(float(np.std(r.rmse_runs)))

    def test_duplicate_technique_identical_rows(self, suite):
        dup = SuiteConfig(dataset=suite.dataset,
                          techniques=(TechniqueSpec("baseline"),
                                      TechniqueSpec("baseline", label="baseline2")),
                          model=TINY_MODEL, train=TINY_TRAIN,
                          repetitions=2, base_seed=11)
        reports = run_suite(dup)
        assert reports[0].rmse_runs == reports[1].rmse_runs

    def test_baseline_required(self):
        with pytest.raises(ConfigError):
            SuiteConfig(dataset=tiny_dataset(),
                        techniques=(TechniqueSpec("head2"),))

    @pytest.mark.parametrize("changes, message", [
        ({"train_fraction": 0.0}, "train fraction must be in (0, 1): 0.0"),
        ({"train_fraction": 1.0}, "train fraction must be in (0, 1): 1.0"),
        ({"train_fraction": -0.5}, "train fraction must be in (0, 1): -0.5"),
        ({"model": replace(TINY_MODEL, kernel_size=41)},
         "window size 40 is too short for conv kernel 41, stride 1 and pool depth 2"),
        ({"model": replace(TINY_MODEL, pool_depth=39)},
         "window size 40 is too short for conv kernel 3, stride 1 and pool depth 39"),
        # the config reader has no key for it: techniques set it
        ({"model": replace(TINY_MODEL, head_mode="head3")},
         "head mode comes from techniques, so a suite's is the baseline's 'single', "
         "got 'head3'"),
    ])
    def test_suite_built_in_python_checks_every_run(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            replace(tiny_suite(), **changes)

    def test_json_deterministic(self, suite, reports):
        again = run_suite(suite)
        assert report_to_json(reports, suite) == report_to_json(again, suite)

    def test_recordings_loaded_once(self, suite, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        calls = []

        def counting_load(ds):
            calls.append(ds)
            return load_recordings(ds)

        monkeypatch.setattr("inertiabench.runner.load_recordings", counting_load)
        several = replace(suite, techniques=suite.techniques + (
            TechniqueSpec("head2"),
            TechniqueSpec("preprocess", PreprocSpec((DenoiseStep(5),)))))
        reports = run_suite(several)
        assert calls == [several.dataset]
        assert [len(r.rmse_runs) for r in reports] == [2, 2, 2, 2]

    def test_json_identical_for_one_and_two_workers(self, suite, tmp_path, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        # a window longer than the recording fails every run of the second
        # technique in the preprocess stage; its StageError crosses processes
        failing = replace(suite, techniques=(
            TechniqueSpec("baseline"),
            TechniqueSpec("preprocess", PreprocSpec((DenoiseStep(100000),)))))
        series, gt = synthesize_dataset("circle", duration=6.0, rate=40.0,
                                        noise_acc=0.05, noise_gyro=0.0005, seed=1)
        write_imu_csv(tmp_path / "imu.csv", series)
        write_gt_pos_csv(tmp_path / "gt_pos.csv", gt)

        def from_csv(imu_file):
            return replace(suite, dataset=DatasetSpec(
                descriptor=suite.dataset.descriptor, imu_csv=str(tmp_path / imu_file),
                gt_pos_csv=str(tmp_path / "gt_pos.csv")))

        for case, failed_runs in ((suite, [0, 0]), (failing, [0, 2]),
                                  (from_csv("imu.csv"), [0, 0])):
            docs = []
            for workers in ("1", "2"):
                monkeypatch.setenv(WORKERS_ENV, workers)
                assert worker_count(4) == int(workers)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    docs.append(report_to_json(run_suite(case), case))
                assert sum(" failed: " in str(w.message) for w in caught) == sum(failed_runs)
            assert docs[0] == docs[1]
            assert [t["failed_runs"] for t in json.loads(docs[0])["techniques"]] == failed_runs
        # a recording that cannot be loaded ends the suite once, before any run
        for workers in ("1", "2"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            with pytest.raises(StageError, match=r"\[parse\]"):
                run_suite(from_csv("missing.csv"))

    def test_each_failed_run_warns_with_its_seed(self, suite, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        failing = replace(suite, repetitions=3, techniques=(
            TechniqueSpec("baseline"),
            TechniqueSpec("preprocess", PreprocSpec((DenoiseStep(100000),)))))
        with warnings.catch_warnings(record=True) as caught:
            # Python's default filter shows a repeated message once per call site
            warnings.simplefilter("default")
            run_suite(failing)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 3
        for seed, message in zip((11, 12, 13), messages):
            assert message.startswith(f"run of 'preprocess-denoise100000' (seed {seed}) "
                                      "failed: [preprocess] ")

    def test_descriptor_rate_must_match_the_data(self, suite, tmp_path, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        desc = suite.dataset.descriptor  # 40 Hz, like the tiny segments
        with pytest.raises(ConfigError, match="sampling rate 120.0 Hz"):
            DatasetSpec(descriptor=replace(desc, sampling_rate=120.0),
                        synthetic=suite.dataset.synthetic)

        series, gt = synthesize_dataset("circle", duration=6.0, rate=40.0, seed=1)
        write_imu_csv(tmp_path / "imu.csv", series)
        write_gt_pos_csv(tmp_path / "gt_pos.csv", gt)

        def from_csv(rate, imu_file="imu.csv"):
            return DatasetSpec(descriptor=replace(desc, sampling_rate=rate),
                               imu_csv=str(tmp_path / imu_file),
                               gt_pos_csv=str(tmp_path / "gt_pos.csv"))

        assert len(load_recordings(from_csv(40.3))) == 1  # within 1%
        with pytest.raises(DataError, match="sampled at 40 Hz"):
            load_recordings(from_csv(40.5))
        write_imu_csv(tmp_path / "one.csv", InertialSeries(series.t[:1], series.imu[:1]))
        with pytest.raises(DataError, match="sampled at 0 Hz"):  # one sample has no rate
            load_recordings(from_csv(40.0, "one.csv"))
        # like any unloadable recording, a mismatch ends the suite in parse
        mismatched = replace(suite, dataset=from_csv(50.0))
        with pytest.raises(StageError, match="sampled at 40 Hz"):
            run_suite(mismatched)

    @pytest.mark.parametrize("err, message", [
        (StageError("preprocess", DegenerateChannelError("fx")),
         "[preprocess] channel 'fx' has zero spread"),
        (DegenerateChannelError("fx"), "channel 'fx' has zero spread"),
        (ParseError("no data rows"), "no data rows"),
        (ParseError("expected 7 fields, got 3", line=4), "line 4: expected 7 fields, got 3"),
    ], ids=["stage", "degenerate-channel", "parse", "parse-with-line"])
    def test_error_pickles(self, err, message):
        # a worker's failure reaches the suite's process by pickle
        def state(value):  # an error as its type, message, args and attributes
            if isinstance(value, BaseException):
                return (type(value), str(value), state(value.args),
                        {k: state(v) for k, v in vars(value).items()})
            return tuple(map(state, value)) if isinstance(value, tuple) else value

        assert str(err) == message
        assert state(pickle.loads(pickle.dumps(err))) == state(err)


class TestWorkerCount:
    @pytest.mark.parametrize("raw", ["abc", "1.5", "", "0", "-3"])
    def test_invalid_values_rejected(self, raw, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ConfigError, match=WORKERS_ENV):
            worker_count(10)

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert worker_count(10) == 1

    def test_clamped_to_cpus_and_jobs(self, monkeypatch):
        # only the parser runs here: no worker process is started
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv(WORKERS_ENV, str(10**12))
        assert worker_count(100) == 4
        assert worker_count(3) == 3
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert worker_count(100) == 2

    def test_clamped_to_the_usable_cpus(self, monkeypatch):
        # a process pinned to one CPU of four gets one worker
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert worker_count(10) == 1


class TestKeepFreedHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
    def test_freed_arrays_are_reused_without_page_faults(self):
        # a fresh interpreter: the policy is process-wide and cannot be undone
        code = """
import resource
import numpy as np
from inertiabench.runner import keep_freed_heap
keep_freed_heap()
def touch():
    arrays = [np.ones(1 << 17) for _ in range(64)]  # 64 arrays of 1 MiB
    del arrays
touch()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
touch()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = os.path.dirname(os.path.dirname(inertiabench.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        # glibc's defaults fault all 16,384 pages of the second round in again
        assert int(done.stdout) < 1000

    def test_returns_quietly_without_mallopt(self, monkeypatch):
        def no_library(name):
            raise OSError(f"cannot load {name}")

        # no C library to load (Windows), and one without mallopt (macOS)
        for cdll in (no_library, lambda name: object()):
            monkeypatch.setattr("ctypes.CDLL", cdll)
            keep_freed_heap()


class TestEmitOutputs:
    def make_reports(self):
        suite = SuiteConfig(dataset=tiny_dataset(),
                            techniques=(TechniqueSpec("baseline"),
                                        TechniqueSpec("head2")),
                            model=TINY_MODEL, train=TINY_TRAIN,
                            repetitions=1, base_seed=3)
        return run_suite(suite), suite

    def test_no_reports_rejected(self, tmp_path):
        with pytest.raises(ShapeError, match="no reports to emit"):
            emit_outputs([], None, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_json_round_trips(self, tmp_path):
        reports, suite = self.make_reports()
        paths = emit_outputs(reports, suite, tmp_path)
        with open(paths["json"]) as fh:
            doc = json.load(fh)
        assert doc["suite"] == {"base_seed": 3, "repetitions": 1}
        assert [t["name"] for t in doc["techniques"]] == ["baseline", "head2"]
        for t in doc["techniques"]:
            assert set(t) == {"name", "spec", "rmse_runs", "mean", "std",
                              "improvement_pct", "failed_runs"}

    def test_csv_row_count(self, tmp_path):
        reports, suite = self.make_reports()
        paths = emit_outputs(reports, suite, tmp_path)
        with open(paths["csv"]) as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == len(reports) + 1

    def test_svg_signed_bars(self):
        from inertiabench.runner import BenchReport, render_improvement_svg

        reports = [
            BenchReport("up", {}, [1.0], 0, 1.0, 0.0, 7.0),
            BenchReport("down", {}, [1.0], 0, 1.0, 0.0, -5.0),
        ]
        svg = render_improvement_svg(reports)
        assert "+7.0%" in svg
        assert "-5.0%" in svg
        assert svg.count("<rect") == 2

    def test_labels_escaped_in_csv_and_svg(self):
        from xml.dom import minidom

        from inertiabench.runner import BenchReport, render_improvement_svg, report_to_csv

        name = 'base,"quoted" <line> & more'
        reports = [BenchReport(name, {}, [1.0, 2.0], 0, 1.5, 0.5, 0.0),
                   BenchReport("plain", {}, [], 1, None, None, None)]
        rows = list(csv.reader(io.StringIO(report_to_csv(reports))))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert rows[1][0] == name and rows[1][5] == "1.0|2.0"
        assert rows[2] == ["plain", "", "", "", "1", ""]
        doc = minidom.parseString(render_improvement_svg(reports))
        labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert name in labels


CONFIG_DOC = {
    "dataset": {
        "descriptor": {"name": "tiny", "sampling_rate": 40.0, "window_size": 40,
                       "stride": 20, "target_kind": "distance_xy"},
        "synthetic": [{"kind": "circle", "duration": 6.0, "rate": 40.0,
                       "noise_acc": 0.05, "noise_gyro": 0.0005, "seed": 1}],
    },
    "model": {"conv_filters": 4, "kernel_size": 3, "pool_depth": 2,
              "lstm_hidden": 4, "fc_width": 8},
    "train": {"epochs": 1, "batch_size": 16},
    "suite": {"repetitions": 2, "base_seed": 9},
    "techniques": [
        {"kind": "baseline"},
        {"kind": "loss", "loss": "huber", "delta": 2.0},
        {"kind": "augment", "augment": {"kind": "rotation", "axes": ["T1", "T3"]}},
        {"kind": "augment", "augment": {"kind": "bias", "copies": 3}},
        {"kind": "augment", "augment": {"kind": "noise",
                                        "schedule": [[0.1, 0.001]]}},
        {"kind": "preprocess", "steps": [{"op": "denoise", "window": 5},
                                         {"op": "detrend"}]},
    ],
}


class TestConfigParsing:
    def test_full_document(self):
        suite = parse_suite_config(json.loads(json.dumps(CONFIG_DOC)))
        assert suite.repetitions == 2
        assert suite.techniques[1].spec == LossSpec("huber", 2.0)
        assert suite.techniques[2].spec.axes == ("T1", "T3")
        assert suite.techniques[3].spec.copies == 3
        assert suite.techniques[4].spec.schedule == ((0.1, 0.001),)
        steps = suite.techniques[5].spec.steps
        assert isinstance(steps[0], DenoiseStep) and steps[0].window == 5
        assert isinstance(steps[1], DetrendStep)

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert blocks
        for block in blocks:
            parse_suite_config(json.loads(block))

    def test_unknown_top_level_key(self):
        doc = dict(CONFIG_DOC, extra=1)
        with pytest.raises(ConfigError):
            parse_suite_config(doc)

    def test_unknown_nested_key(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError):
            parse_suite_config(doc)

    def test_unknown_technique_kind(self):
        doc = json.loads(json.dumps(CONFIG_DOC))
        doc["techniques"].append({"kind": "distill"})
        with pytest.raises(ConfigError):
            parse_suite_config(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG_DOC))
        suite = load_suite_config(path)
        assert len(suite.techniques) == 6

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_suite_config(path)

    @pytest.mark.parametrize("kwargs, match", [
        ({"kind": "distill"}, "unknown technique kind 'distill'"),
        ({"kind": "loss"}, "technique 'loss' takes its own inner spec, got None"),
        ({"kind": "baseline", "spec": LossSpec()},
         "technique 'baseline' takes no inner spec, got LossSpec("),
        ({"kind": "augment", "spec": PreprocSpec((DetrendStep(),))},
         "technique 'augment' takes its own inner spec, got PreprocSpec("),
        ({"kind": "baseline", "label": ""}, "technique name must not be empty"),
        ({"kind": "loss", "spec": RotationAugment()},
         "technique 'loss' takes its own inner spec, got RotationAugment("),
        ({"kind": "preprocess", "spec": LossSpec()},
         "technique 'preprocess' takes its own inner spec, got LossSpec("),
    ])
    def test_technique_spec_takes_its_own_inner_spec_only(self, kwargs, match):
        with pytest.raises(ConfigError, match=re.escape(match)):
            TechniqueSpec(**kwargs)

    def test_technique_names(self):
        suite = parse_suite_config(json.loads(json.dumps(CONFIG_DOC)))
        assert [t.name for t in suite.techniques] == [
            "baseline", "loss-huber", "augment-rotation-T1+T3",
            "augment-bias-x3", "augment-noise-x1", "preprocess-denoise5+detrend",
        ]

    @pytest.mark.parametrize(
        "entry",
        BENCH_CONFIG["techniques"] + CONFIG_DOC["techniques"] + [
            {"kind": "preprocess", "name": "smooth-then-scale",
             "steps": [{"op": "denoise", "window": 3},
                       {"op": "add_noise", "sigma_acc": 0.2, "sigma_gyro": 0.0},
                       {"op": "normalize", "method": "robust"}]},
        ])
    def test_to_dict_round_trips(self, entry):
        t = _parse_technique(entry)
        assert _parse_technique(t.to_dict()) == t
        assert _parse_technique(json.loads(json.dumps(t.to_dict()))) == t
        assert t.to_dict().get("name") == entry.get("name")

    def test_integer_float_field_writes_the_same_report(self):
        # "delta": 2 and "delta": 2.0 describe the same run
        docs = [json.loads(json.dumps(CONFIG_DOC)) for _ in range(2)]
        docs[1]["techniques"][1]["delta"] = 2
        texts = []
        for doc in docs:
            suite = parse_suite_config(doc)
            reports = [BenchReport(t.name, t.to_dict(), [0.5], 0, 0.5, 0.0, None)
                       for t in suite.techniques]
            texts.append(report_to_json(reports, suite))
        assert '"delta": 2.0' in texts[1]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("entry, expected", [
        ({"kind": "baseline"}, {"kind": "baseline"}),
        ({"kind": "head2"}, {"kind": "head2"}),
        ({"kind": "loss", "loss": "huber"}, {"kind": "loss", "loss": "huber", "delta": 1.0}),
        ({"kind": "loss", "loss": "huber", "delta": 2.0, "name": "robust-loss"},
         {"kind": "loss", "name": "robust-loss", "loss": "huber", "delta": 2.0}),
        ({"kind": "augment", "augment": {"kind": "rotation"}},
         {"kind": "augment", "augment": {"kind": "rotation", "axes": ["T1"]}}),
        ({"kind": "augment", "augment": {"kind": "bias"}},
         {"kind": "augment", "augment": {"kind": "bias", "copies": 1, "sigma_acc": 0.1,
                                         "sigma_gyro": 0.001}}),
        ({"kind": "augment", "augment": {"kind": "noise"}},
         {"kind": "augment", "augment": {"kind": "noise", "schedule": [
             [0.1, 0.001], [0.25, 0.0025], [0.5, 0.005]]}}),
        ({"kind": "preprocess", "steps": [{"op": "denoise", "window": 5}]},
         {"kind": "preprocess", "steps": [{"op": "denoise", "window": 5}]}),
        ({"kind": "preprocess", "steps": [{"op": "add_noise"}]},
         {"kind": "preprocess", "steps": [{"op": "add_noise", "sigma_acc": 0.1,
                                           "sigma_gyro": 0.001}]}),
        ({"kind": "preprocess", "steps": [{"op": "normalize"}]},
         {"kind": "preprocess", "steps": [{"op": "normalize", "method": "zscore"}]}),
        ({"kind": "preprocess", "steps": [{"op": "detrend"}]},
         {"kind": "preprocess", "steps": [{"op": "detrend"}]}),
        ({"kind": "preprocess", "name": "smooth-then-scale",
          "steps": [{"op": "denoise", "window": 3}, {"op": "normalize", "method": "robust"}]},
         {"kind": "preprocess", "name": "smooth-then-scale",
          "steps": [{"op": "denoise", "window": 3}, {"op": "normalize", "method": "robust"}]}),
    ])
    def test_to_dict_is_the_config_entry_form(self, entry, expected):
        # the ``spec`` object that report.json writes for the technique
        assert _parse_technique(entry).to_dict() == expected

    @pytest.mark.parametrize("section, value, match", [
        # keys that belong to another kind
        ("techniques", {"kind": "baseline", "loss": "mae"}, "unknown key"),
        ("techniques", {"kind": "augment", "augment": {"kind": "rotation", "copies": 3}},
         "unknown key"),
        ("techniques", {"kind": "loss", "loss": "mae", "steps": []}, "unknown key"),
        # missing keys
        ("techniques", {"kind": "loss"}, "missing key"),
        ("techniques", {"kind": "augment"}, "missing key"),
        ("techniques", {"kind": "preprocess", "steps": [{"op": "denoise"}]},
         r"missing key\(s\) \['window'\] in techniques\[6\]\.steps\[0\]"),
        ("descriptor", {"name": "tiny", "sampling_rate": 40.0, "window_size": 40,
                        "target_kind": "distance_xy"}, r"\['stride'\] in dataset.descriptor"),
        # invalid values
        ("techniques", {"kind": "loss", "loss": "cubic"}, "invalid techniques"),
        ("techniques", {"kind": "preprocess", "steps": [{"op": "denoise", "window": 0}]},
         "invalid techniques"),
        ("techniques", {"kind": "preprocess", "steps": [{"op": "smooth"}]}, "unknown"),
        ("techniques", "baseline", "must be an object"),
        ("model", {"output_dim": 2}, "unknown key"),
        ("model", {"conv_filters": "many"}, "invalid model"),
        ("suite", {"repetitions": 0}, "invalid suite"),
        ("train", {"seed": 3}, r"unknown key\(s\) \['seed'\] in train"),
        ("train", {"loss": "cubic"}, r"unknown key\(s\) \['loss'\] in train"),
        ("segment", {"kind": "circle", "params": {"radius": 2.0, "spin": 1.0}},
         r"dataset\.synthetic\[0\]\.params"),
        ("suite", {"train_fraction": 1.5}, "invalid suite"),
        # only techniques set the head mode and the loss
        ("model", {"head_mode": "head2"}, "unknown key"),
        ("train", {"delta": 0.5}, "unknown key"),
        # suites that could not run
        ("segment", {"kind": "square"}, "unknown trajectory kind 'square'"),
        ("techniques", {"kind": "baseline", "name": 5}, "name must be a string"),
        ("model", {"kernel_size": 41}, "window size 40 is too short"),
        ("model", {"kernel_size": 3, "pool_depth": 39}, "window size 40 is too short"),
        # degenerate recordings and technique errors name their entry
        ("segment", {"kind": "circle", "duration": 0, "rate": 40.0},
         r"invalid dataset\.synthetic\[0\]"),
        ("segment", {"kind": "circle", "duration": 6.0, "rate": 40.0, "noise_acc": -1},
         r"invalid dataset\.synthetic\[0\]"),
        ("segment", {"kind": "circle", "duration": 6.0, "rate": 40.0, "gt_rate": 0},
         r"invalid dataset\.synthetic\[0\]"),
        ("techniques", {"kind": "baseline", "name": 5}, r"invalid techniques\[6\]"),
        # negative seeds and non-integer values of integer fields
        ("suite", {"base_seed": -1}, "invalid suite: base_seed must be >= 0"),
        ("segment", {"kind": "circle", "duration": 6.0, "rate": 40.0, "seed": -1},
         r"invalid dataset\.synthetic\[0\]: noise seed must be >= 0"),
        ("suite", {"repetitions": 1.5}, "invalid suite: repetitions must be an integer"),
        ("suite", {"repetitions": True}, "invalid suite: repetitions must be an integer"),
        ("train", {"epochs": 1.5}, "invalid train: epochs must be an integer"),
        ("descriptor", {"name": "tiny", "sampling_rate": 40.0, "window_size": 40.5,
                        "stride": 20, "target_kind": "distance_xy"},
         r"invalid dataset\.descriptor: window_size must be an integer"),
        ("techniques", {"kind": "augment", "augment": {"kind": "bias", "copies": 1.0}},
         r"invalid techniques\[6\]\.augment: copies must be an integer"),
        # every value is read as its field's declared type
        ("segment", {"kind": "circle", "duration": True, "rate": 40.0},
         r"invalid dataset\.synthetic\[0\]: duration must be a number, got True"),
        ("train", {"learning_rate": True}, "invalid train: learning_rate must be a number"),
        ("model", {"dropout": False}, "invalid model: dropout must be a number, got False"),
        ("techniques", {"kind": "loss", "loss": "huber", "delta": True},
         r"invalid techniques\[6\]: delta must be a number"),
        ("segment", {"kind": "circle", "duration": 6.0, "rate": 40.0,
                     "params": {"radius": True}},
         r"invalid dataset\.synthetic\[0\]\.params: radius must be a number"),
        ("descriptor", {"name": 5, "sampling_rate": 40.0, "window_size": 40, "stride": 20,
                        "target_kind": "distance_xy"},
         r"invalid dataset\.descriptor: name must be a string, got 5"),
        ("dataset", {"synthetic": [], "imu_csv": 0, "gt_pos_csv": "gt_pos.csv"},
         "invalid dataset: imu_csv must be a string, got 0"),
        ("dataset", {"synthetic": [], "imu_csv": True, "gt_pos_csv": "gt_pos.csv"},
         "invalid dataset: imu_csv must be a string, got True"),
        ("techniques", {"kind": "augment", "augment": {"kind": "noise", "schedule": [[0.1]]}},
         r"invalid techniques\[6\]\.augment: schedule\[0\] must be a list of 2 items"),
        ("techniques", {"kind": "augment",
                        "augment": {"kind": "noise", "schedule": [[0.1, "x"]]}},
         r"invalid techniques\[6\]\.augment: schedule\[0\]\[1\] must be a number, got 'x'"),
        ("techniques", {"kind": "augment", "augment": {"kind": "noise", "schedule": 0.1}},
         r"invalid techniques\[6\]\.augment: schedule must be a list, got 0\.1"),
        ("techniques", {"kind": "augment", "augment": {"kind": "rotation", "axes": "T1"}},
         r"invalid techniques\[6\]\.augment: axes must be a list, got 'T1'"),
        ("dataset", {"synthetic": "abc"}, "invalid dataset: synthetic must be a list"),
        ("dataset", {"synthetic": {}}, "invalid dataset: synthetic must be a list"),
        ("segment", {"kind": "circle", "duration": "6", "rate": 40.0},
         r"invalid dataset\.synthetic\[0\]: duration must be a number, got '6'"),
        ("techniques", {"kind": "augment", "augment": {"kind": "bias", "sigma_acc": "x"}},
         r"invalid techniques\[6\]\.augment: sigma_acc must be a number"),
        # tags and lists go through the same rule
        ("techniques", {"kind": ["baseline"]},
         r"unknown technique kind \['baseline'\] in techniques\[6\]"),
        ("techniques", {"kind": "augment", "augment": {"kind": ["rotation"]}},
         r"unknown kind \['rotation'\] in techniques\[6\]\.augment"),
        ("techniques", {"kind": "preprocess", "steps": [{"op": {"denoise": 3}}]},
         r"unknown op \{'denoise': 3\} in techniques\[6\]\.steps\[0\]"),
        ("techniques", {"kind": "preprocess", "steps": {}},
         r"invalid techniques\[6\]: steps must be a list, got \{\}"),
        ("config", {"techniques": {"kind": "baseline"}},
         "invalid config: techniques must be a list"),
        ("techniques", {"kind": "baseline", "name": 5},
         r"invalid techniques\[6\]: name must be a string, got 5"),
        # inputs that could only fail or corrupt every run
        ("techniques", {"kind": "preprocess", "steps": []},
         r"invalid techniques\[6\]: preprocessing needs at least one step"),
        ("techniques", {"kind": "augment",
                        "augment": {"kind": "noise", "schedule": [[-0.1, 0.001]]}},
         r"invalid techniques\[6\]\.augment: noise stds must be finite and non-negative"),
        ("techniques", {"kind": "augment", "augment": {"kind": "bias", "sigma_acc": float("nan")}},
         r"invalid techniques\[6\]\.augment: sigma_acc must be finite, got nan"),
        ("dataset", {"imu_csv": "imu.csv", "gt_pos_csv": "gt_pos.csv"},
         r"invalid dataset: dataset takes synthetic segments or csv paths, not both"),
        ("dataset", {"synthetic": []},
         "invalid dataset: dataset needs synthetic segments or csv paths"),
        ("techniques", {"kind": "head2", "name": "baseline"},
         r"invalid suite: repeated technique name\(s\) \['baseline'\]"),
        ("techniques", {"kind": "augment", "augment": {"kind": "bias", "copies": 3}},
         r"invalid suite: repeated technique name\(s\) \['augment-bias-x3'\]"),
        ("techniques", {"kind": "head2", "name": ""},
         r"invalid techniques\[6\]: technique name must not be empty"),
        # a ground-truth file the target kind never reads is a typo, not a spare
        ("dataset", {"synthetic": [], "imu_csv": "imu.csv", "gt_pos_csv": "gt_pos.csv",
                     "gt_heading_csv": "typo.csv"},
         "invalid dataset: distance_xy targets never read gt_heading_csv"),
        ("dataset", {"synthetic": [], "imu_csv": "imu.csv", "gt_heading_csv": "gt_heading.csv",
                     "gt_pos_csv": "gt_pos.csv",
                     "descriptor": {"name": "tiny", "sampling_rate": 40.0, "window_size": 40,
                                    "stride": 20, "target_kind": "heading"}},
         "invalid dataset: heading targets never read gt_pos_csv"),
    ])
    def test_malformed_section_is_config_error(self, section, value, match):
        doc = json.loads(json.dumps(CONFIG_DOC))
        if section == "techniques":
            doc["techniques"].append(value)
        elif section == "descriptor":
            doc["dataset"]["descriptor"] = value
        elif section == "segment":
            doc["dataset"]["synthetic"][0] = value
        elif section == "dataset":
            doc["dataset"].update(value)
        elif section == "config":
            doc.update(value)
        else:
            doc[section] = value
        with pytest.raises(ConfigError, match=match):
            parse_suite_config(doc)


def _holding(tp, scalar):
    """A JSON value of a field declared ``tp`` with ``scalar`` in place of
    each of its scalars (inside a list for a tuple)."""
    args = get_args(tp)
    if type(None) in args:
        return _holding(args[0], scalar)
    if get_origin(tp) is tuple:
        return [_holding(args[0], scalar)] * (1 if args[-1] is ... else len(args))
    return scalar


def _scalar_type(tp):
    """The type of the scalars a field declared ``tp`` holds."""
    args = get_args(tp)
    return _scalar_type(args[0]) if type(None) in args or get_origin(tp) is tuple else tp


def _wrong_type(tp):
    """A JSON value that a field declared ``tp`` rejects: 5 for a string, true
    for a number, and such values inside a list for a tuple."""
    return _holding(tp, 5 if _scalar_type(tp) is str else True)


def _scalar_fields():
    """(where, config key, declared type) for every key the reader accepts
    that holds a string, a number or a tuple of them."""
    def own(cls, *skip):
        return [(f.name, f.name) for f in fields(cls) if f.name not in skip]
    places = [("descriptor", DatasetDescriptor, own(DatasetDescriptor)),
              ("dataset", DatasetSpec, own(DatasetSpec)),
              ("segment", SyntheticSegment, own(SyntheticSegment)),
              ("params", SynthParams, own(SynthParams)),
              ("model", ModelConfig, own(ModelConfig, "output_dim", "head_mode")),
              ("train", TrainConfig, own(TrainConfig)),
              ("suite", SuiteConfig, own(SuiteConfig)),
              ("technique", TechniqueSpec, [("name", "label")]),
              ("loss", LossSpec, LOSS_KEYS.items())]
    places += [(f"augment:{kind}", cls, _keys(cls).items()) for kind, cls in AUGMENT_KINDS.items()]
    places += [(f"step:{op}", cls, _keys(cls).items()) for op, cls in STEP_OPS.items()]
    for where, cls, keys in places:
        types = get_type_hints(cls)
        for key, name in keys:
            tp = types[name]
            if not (is_dataclass(tp) or any(is_dataclass(a) for a in get_args(tp))):
                yield where, key, tp


def _doc_with(where, key, value) -> dict:
    """CONFIG_DOC with ``value`` under ``key`` in the section ``where`` names."""
    doc = json.loads(json.dumps(CONFIG_DOC))
    segment = doc["dataset"]["synthetic"][0]
    tagged = where.partition(":")[2]
    section = {"descriptor": doc["dataset"]["descriptor"], "dataset": doc["dataset"],
               "segment": segment, "params": segment.setdefault("params", {}),
               "model": doc["model"], "train": doc["train"], "suite": doc["suite"]}
    if where in section:
        section[where][key] = value
    elif where == "technique":
        doc["techniques"].append({"kind": "baseline", key: value})
    elif where == "loss":
        doc["techniques"].append({"kind": "loss", "loss": "huber", key: value})
    elif where.startswith("augment:"):
        doc["techniques"].append({"kind": "augment", "augment": {"kind": tagged, key: value}})
    else:
        doc["techniques"].append({"kind": "preprocess", "steps": [{"op": tagged, key: value}]})
    return doc


@pytest.mark.parametrize("where, key, value", [
    pytest.param(where, key, _wrong_type(tp), id=f"{where}.{key}")
    for where, key, tp in _scalar_fields()])
def test_value_of_the_wrong_type_names_its_key(where, key, value):
    with pytest.raises(ConfigError, match=rf": {re.escape(key)}(\[\d\])* must be "):
        parse_suite_config(_doc_with(where, key, value))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 10**400],
                         ids=["nan", "inf", "401-digit-int"])
@pytest.mark.parametrize("where, key, tp", [
    pytest.param(where, key, tp, id=f"{where}.{key}")
    for where, key, tp in _scalar_fields() if _scalar_type(tp) is float])
def test_non_finite_number_names_its_key(where, key, tp, bad):
    # json reads 1e400 as inf without calling parse_constant, and a dict
    # passed to parse_suite_config can hold any float
    with pytest.raises(ConfigError, match=rf": {re.escape(key)}(\[\d\])* must be finite, "):
        parse_suite_config(_doc_with(where, key, _holding(tp, bad)))


def test_every_public_name_resolves():
    import inertiabench

    assert [n for n in inertiabench.__all__ if not hasattr(inertiabench, n)] == []
    assert len(set(inertiabench.__all__)) == len(inertiabench.__all__)


@pytest.mark.parametrize("dtype, message", [
    ("<U3", "has dtype <U3, expected a float dtype"),
    (complex, "has dtype complex128, expected a float dtype"),
    (object, "cannot be read: Object arrays cannot be loaded when allow_pickle=False"),
])
def test_checkpoint_parameter_must_be_float(dtype, message, tmp_path):
    # np.isfinite raises TypeError on strings, a cast to float drops an
    # imaginary part, and numpy reads an object array only through pickle
    path = tmp_path / "model.npz"
    save_checkpoint(path, InertialRegressor(TINY_MODEL, run_rng(0, "init")))
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["param/fc.b"] = arrays["param/fc.b"].astype(dtype)
    np.savez(path, **arrays)
    with pytest.raises(UsageError, match=re.escape(f"checkpoint parameter 'fc.b' {message}")):
        load_checkpoint(path)
