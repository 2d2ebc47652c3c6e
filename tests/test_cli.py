import json
import os
import subprocess
import sys

import numpy as np
import pytest

import inertiabench
from inertiabench.cli import main
from inertiabench.data import GroundTruth, synthesize_dataset, write_gt_pos_csv, write_imu_csv
from inertiabench.losses import LossSpec
from inertiabench.model import InertialRegressor, train_model
from inertiabench.runner import (
    WORKERS_ENV,
    load_checkpoint,
    load_suite_config,
    prepare_run,
    run_rng,
    save_checkpoint,
)

TINY_CONFIG = {
    "dataset": {
        "descriptor": {"name": "tiny", "sampling_rate": 40.0, "window_size": 40,
                       "stride": 20, "target_kind": "distance_xy"},
        "synthetic": [{"kind": "circle", "duration": 6.0, "rate": 40.0,
                       "noise_acc": 0.05, "noise_gyro": 0.0005, "seed": 1}],
    },
    "model": {"conv_filters": 4, "kernel_size": 3, "pool_depth": 2,
              "lstm_hidden": 4, "fc_width": 8},
    "train": {"epochs": 1, "batch_size": 16},
    "suite": {"repetitions": 1, "base_seed": 5},
    "techniques": [{"kind": "baseline"}, {"kind": "head2"}],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


class TestSynth:
    def test_writes_three_csvs(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["synth", "--kind", "circle", "--duration", "2.0",
                     "--rate", "40", "--out-dir", str(out)])
        assert code == 0
        for name in ("imu.csv", "gt_pos.csv", "gt_heading.csv"):
            assert (out / name).exists()
        assert "80 samples" in capsys.readouterr().out

    def test_synth_round_trips_through_bench(self, tmp_path, config_path):
        # recorded-file datasets go through the same pipeline
        data = tmp_path / "data"
        main(["synth", "--kind", "circle", "--duration", "6.0", "--rate", "40",
              "--noise-acc", "0.05", "--noise-gyro", "0.0005",
              "--out-dir", str(data)])
        doc = json.loads(config_path.read_text())
        doc["dataset"] = {
            "descriptor": doc["dataset"]["descriptor"],
            "imu_csv": str(data / "imu.csv"),
            "gt_pos_csv": str(data / "gt_pos.csv"),
        }
        csv_config = tmp_path / "csv_suite.json"
        csv_config.write_text(json.dumps(doc))
        code = main(["bench", "--config", str(csv_config),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0

    def test_synth_heading_csv_through_bench(self, tmp_path, config_path):
        data = tmp_path / "data"
        main(["synth", "--kind", "sinusoid", "--duration", "6.0", "--rate", "40",
              "--gt-rate", "10", "--noise-acc", "0.05", "--out-dir", str(data)])
        doc = json.loads(config_path.read_text())
        doc["dataset"] = {
            "descriptor": {**doc["dataset"]["descriptor"], "target_kind": "heading"},
            "imu_csv": str(data / "imu.csv"),
            "gt_heading_csv": str(data / "gt_heading.csv"),
        }
        csv_config = tmp_path / "csv_suite.json"
        csv_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["bench", "--config", str(csv_config), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(t["failed_runs"] == 0 and np.isfinite(t["mean"])
                   for t in report["techniques"])


class TestBench:
    def test_exit_zero_and_outputs(self, tmp_path, config_path, capsys):
        out = tmp_path / "results"
        code = main(["bench", "--config", str(config_path),
                     "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert [t["name"] for t in doc["techniques"]] == ["baseline", "head2"]
        assert (out / "report.csv").exists()
        assert (out / "improvement.svg").exists()
        stdout = capsys.readouterr().out
        assert "baseline" in stdout and "head2" in stdout

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_invalid_worker_count_is_one_line_error(self, raw, tmp_path, config_path,
                                                     capsys, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, raw)
        code = main(["bench", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {WORKERS_ENV}") and err.count("\n") == 1

    def test_formats_filter(self, tmp_path, config_path):
        out = tmp_path / "results"
        main(["bench", "--config", str(config_path), "--out-dir", str(out),
              "--formats", "json"])
        assert (out / "report.json").exists()
        assert not (out / "report.csv").exists()

    def test_failed_technique_exits_two(self, tmp_path):
        # a noiseless straight line has constant channels, so z-score
        # normalization degenerates and every run of that technique fails
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["dataset"]["synthetic"] = [{"kind": "line", "duration": 6.0,
                                        "rate": 40.0}]
        doc["techniques"].append(
            {"kind": "preprocess",
             "steps": [{"op": "normalize", "method": "zscore"}]})
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(UserWarning):
            code = main(["bench", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2


    def test_non_finite_rmse_is_a_failed_run(self, tmp_path):
        # one Adam step at this rate sends the weights beyond float range; the
        # loss of that step was computed before it, so only evaluate sees it
        doc = {"dataset": {"descriptor": {"name": "circle", "sampling_rate": 120.0,
                                          "window_size": 60, "stride": 30,
                                          "target_kind": "distance_xy"},
                           "synthetic": [{"kind": "circle", "duration": 20.0, "rate": 120.0}]},
               "model": {"conv_filters": 4, "lstm_hidden": 4, "fc_width": 8},
               "train": {"epochs": 1, "learning_rate": 1e300},
               "suite": {"repetitions": 1},
               "techniques": [{"kind": "baseline"}]}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        # the diverged forward pass overflows; as errors, its warnings would
        # fail the run in train instead
        with np.errstate(all="ignore"), pytest.warns(
                UserWarning, match=r"failed: \[evaluate\] test RMSE is not finite"):
            code = main(["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2

        def reject(name):
            raise ValueError(f"{name} in report.json")
        report = json.loads((tmp_path / "out" / "report.json").read_text(),
                            parse_constant=reject)
        assert report["techniques"][0]["failed_runs"] == 1


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, config_path, capsys):
        ckpt = tmp_path / "model.npz"
        code = main(["train", "--config", str(config_path),
                     "--technique", "head2", "--seed", "3", "--out", str(ckpt)])
        assert code == 0
        assert ckpt.exists()
        code = main(["eval", "--config", str(config_path),
                     "--technique", "head2", "--seed", "3",
                     "--checkpoint", str(ckpt)])
        assert code == 0
        assert "test RMSE" in capsys.readouterr().out

    def test_out_is_the_file_written(self, tmp_path, config_path, capsys):
        # a path without ".npz" is written as given, so eval finds it there
        ckpt = tmp_path / "model"
        assert main(["train", "--config", str(config_path), "--out", str(ckpt)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model", "suite.json"]
        assert f"checkpoint saved to {ckpt}\n" in capsys.readouterr().out
        assert main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)]) == 0
        assert "test RMSE" in capsys.readouterr().out

    def test_eval_of_a_non_finite_rmse_is_an_error(self, tmp_path, config_path, capsys):
        # finite parameters whose predictions square beyond the float range
        model = InertialRegressor(load_suite_config(config_path).model, run_rng(0, "init"))
        model.head.params["b"][:] = 1e200
        ckpt = tmp_path / "model.npz"
        save_checkpoint(ckpt, model)
        with np.errstate(all="ignore"):
            code = main(["eval", "--config", str(config_path), "--checkpoint", str(ckpt)])
        assert code == 1
        assert capsys.readouterr().err == "error: test RMSE is not finite (inf)\n"

    def test_unknown_technique_exits_one(self, tmp_path, config_path):
        code = main(["train", "--config", str(config_path),
                     "--technique", "loss-huber",
                     "--out", str(tmp_path / "m.npz")])
        assert code == 1

    def test_loss_technique_trains_with_its_loss(self, tmp_path):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["techniques"].append({"kind": "loss", "loss": "huber", "delta": 0.05})
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        ckpt = tmp_path / "huber.npz"
        assert main(["train", "--config", str(path), "--technique", "loss-huber",
                     "--seed", "2", "--out", str(ckpt)]) == 0
        got = load_checkpoint(ckpt).parameters()

        suite = load_suite_config(path)
        train_ds, _, model_config = prepare_run(suite, suite.techniques[-1], 2)

        def trained(loss):
            model = InertialRegressor(model_config, run_rng(2, "init"))
            train_model(model, suite.train, train_ds.windows, train_ds.labels,
                        shuffle_rng=run_rng(2, "shuffle"), dropout_rng=run_rng(2, "dropout"),
                        loss=loss)
            return model.parameters()

        huber = trained(LossSpec("huber", 0.05))
        mse = trained(LossSpec("mse"))
        assert sorted(got) == sorted(huber)
        for name in huber:
            np.testing.assert_array_equal(got[name], huber[name], err_msg=name)
        assert any(not np.array_equal(huber[n], mse[n]) for n in huber)

    def test_eval_rejects_wrong_output_dim(self, tmp_path, config_path, capsys):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["dataset"]["descriptor"]["target_kind"] = "position_xy"  # 2 labels
        path = tmp_path / "xy.json"
        path.write_text(json.dumps(doc))
        suite = load_suite_config(config_path)
        ckpt = tmp_path / "model.npz"
        save_checkpoint(ckpt, InertialRegressor(suite.model, run_rng(0, "init")))  # 1 output
        code = main(["eval", "--config", str(path), "--checkpoint", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestReport:
    def test_rerender_from_json(self, tmp_path):
        # every run of the denoise technique fails: its mean, std and
        # improvement are null and its rmse_runs empty
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["techniques"].append({"kind": "preprocess",
                                  "steps": [{"op": "denoise", "window": 100000}]})
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(doc))
        out, redo = tmp_path / "results", tmp_path / "rerender"
        with pytest.warns(UserWarning, match="failed"):
            assert main(["bench", "--config", str(path), "--out-dir", str(out)]) == 2
        failed = json.loads((out / "report.json").read_text())["techniques"][-1]
        assert (failed["mean"], failed["std"], failed["improvement_pct"],
                failed["rmse_runs"]) == (None, None, None, [])
        assert main(["report", "--report", str(out / "report.json"),
                     "--out-dir", str(redo)]) == 0
        for name in ("report.csv", "improvement.svg"):
            assert (redo / name).read_bytes() == (out / name).read_bytes()


    def test_integer_floats_render_as_bench_writes_them(self, tmp_path):
        entry = {"name": "baseline", "spec": {"kind": "baseline"}, "rmse_runs": [1],
                 "failed_runs": 0, "mean": 1, "std": 0, "improvement_pct": 0}
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"suite": {"base_seed": 0, "repetitions": 1},
                                    "techniques": [entry]}))
        assert main(["report", "--report", str(path), "--out-dir", str(tmp_path),
                     "--formats", "csv"]) == 0
        assert (tmp_path / "report.csv").read_text().splitlines()[1] == \
            "baseline,1.0,0.0,0.0,0,1.0"


class TestOneLineErrors:
    @pytest.mark.parametrize("case", ["missing-checkpoint", "missing-report",
                                      "invalid-report", "report-to-json",
                                      "unknown-format", "unknown-loss-kind",
                                      "distance-without-gt-pos",
                                      "heading-without-gt-heading",
                                      "checkpoint-without-meta",
                                      "checkpoint-unknown-config-key",
                                      "checkpoint-not-an-archive",
                                      "checkpoint-truncated",
                                      "checkpoint-empty",
                                      "checkpoint-npy-array",
                                      "checkpoint-non-finite",
                                      "checkpoint-string-parameter",
                                      "checkpoint-version-1",
                                      "checkpoint-fractional-conv-filters",
                                      "report-entry-rmse-runs-not-a-list",
                                      "report-entry-improvement-not-a-number",
                                      "report-entry-repeated-key",
                                      "report-entry-contradicts-itself",
                                      "report-entry-runs-without-mean",
                                      "report-entry-improvement-without-mean",
                                      "unloadable-recordings",
                                      "gt-ends-before-imu",
                                      "overflowing-trajectory-frequency",
                                      "unknown-trajectory-kind",
                                      "non-string-technique-name",
                                      "window-too-short",
                                      "synth-zero-duration", "synth-zero-rate",
                                      "synth-negative-duration", "synth-zero-gt-rate",
                                      "synth-non-divisor-gt-rate",
                                      "synth-overflowing-omega", "synth-infinite-omega",
                                      "synth-negative-noise", "synth-negative-seed",
                                      "bench-fractional-repetitions",
                                      "train-negative-seed",
                                      "unhashable-technique-kind", "imu-csv-zero",
                                      "config-nan", "config-infinity",
                                      "config-overflowing-float",
                                      "config-overflowing-delta",
                                      "config-401-digit-int",
                                      "config-repeated-key"])
    def test_library_error_is_one_line(self, case, tmp_path, config_path, capsys,
                                       monkeypatch):
        out = str(tmp_path / "out")
        if case == "missing-checkpoint":
            argv = ["eval", "--config", str(config_path),
                    "--checkpoint", str(tmp_path / "missing.npz")]
        elif case == "missing-report":
            argv = ["report", "--report", str(tmp_path / "missing.json"),
                    "--out-dir", str(tmp_path / "out")]
        elif case == "invalid-report":
            bad = tmp_path / "report.json"
            bad.write_text('{"techniques": [{"name": "baseline"}]}')
            argv = ["report", "--report", str(bad), "--out-dir", out]
        elif case == "report-to-json":
            argv = ["report", "--report", str(tmp_path / "report.json"), "--out-dir", out,
                    "--formats", "csv,json"]
        elif case.startswith("report-entry-"):
            entry = {"name": "baseline", "spec": {"kind": "baseline"}, "rmse_runs": [0.5],
                     "failed_runs": 0, "mean": 0.5, "std": 0.0, "improvement_pct": 0.0}
            old, new = {
                "report-entry-rmse-runs-not-a-list": ('"rmse_runs": [0.5]', '"rmse_runs": 5'),
                "report-entry-improvement-not-a-number": ('"improvement_pct": 0.0',
                                                          '"improvement_pct": "x"'),
                "report-entry-repeated-key": ('"failed_runs": 0',
                                              '"failed_runs": 0, "failed_runs": 1'),
                "report-entry-contradicts-itself": ('"failed_runs": 0, "mean": 0.5',
                                                    '"failed_runs": -3, "mean": 7.0'),
                "report-entry-runs-without-mean": ('"mean": 0.5', '"mean": null'),
                "report-entry-improvement-without-mean": (
                    '"rmse_runs": [0.5], "failed_runs": 0, "mean": 0.5, "std": 0.0, '
                    '"improvement_pct": 0.0',
                    '"rmse_runs": [], "failed_runs": 1, "mean": null, "std": null, '
                    '"improvement_pct": 5.0')}[case]
            text = json.dumps({"suite": {"base_seed": 0, "repetitions": 1},
                               "techniques": [entry]})
            assert old in text
            bad = tmp_path / "report.json"
            bad.write_text(text.replace(old, new))
            argv = ["report", "--report", str(bad), "--out-dir", out]
        elif case == "unknown-format":
            # the format list is checked before any training
            def no_run(suite):
                raise AssertionError("run_suite called")
            monkeypatch.setattr("inertiabench.cli.run_suite", no_run)
            argv = ["bench", "--config", str(config_path), "--out-dir", out,
                    "--formats", "json,cvs"]
        elif case.startswith("checkpoint-"):
            ckpt = tmp_path / "model.npz"
            if case == "checkpoint-without-meta":
                np.savez(ckpt, **{"param/fc.b": np.zeros(8)})
            elif case == "checkpoint-unknown-config-key":
                meta = json.dumps({"version": 2, "config": {"filters": 4}}).encode()
                np.savez(ckpt, __meta__=np.frombuffer(meta, dtype=np.uint8))
            elif case in ("checkpoint-version-1", "checkpoint-fractional-conv-filters",
                          "checkpoint-string-parameter"):
                save_checkpoint(ckpt, InertialRegressor(load_suite_config(config_path).model,
                                                        run_rng(0, "init")))
                with np.load(ckpt) as archive:
                    arrays = {k: archive[k] for k in archive.files}
                meta = json.loads(arrays["__meta__"].tobytes().decode())
                if case == "checkpoint-version-1":  # it held the BiLSTM as six arrays
                    meta["version"] = 1
                elif case == "checkpoint-fractional-conv-filters":
                    meta["config"]["conv_filters"] = 4.0
                else:  # np.isfinite raises TypeError on strings
                    arrays["param/head.b"] = arrays["param/head.b"].astype("<U3")
                arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
                np.savez(ckpt, **arrays)
            elif case == "checkpoint-not-an-archive":
                ckpt.write_text("not a checkpoint\n")
            elif case == "checkpoint-truncated":
                np.savez(ckpt, __meta__=np.zeros(1000, dtype=np.uint8))
                ckpt.write_bytes(ckpt.read_bytes()[:100])
            elif case == "checkpoint-empty":
                ckpt.write_bytes(b"")
            elif case == "checkpoint-non-finite":
                model = InertialRegressor(load_suite_config(config_path).model, run_rng(0, "init"))
                model.head.params["b"][0] = np.nan
                save_checkpoint(ckpt, model)
            else:
                with open(ckpt, "wb") as fh:
                    np.save(fh, np.zeros(3))
            argv = ["eval", "--config", str(config_path), "--technique", "head2",
                    "--checkpoint", str(ckpt)]
        elif case in ("distance-without-gt-pos", "heading-without-gt-heading"):
            # the ground-truth file the target kind needs is checked at parse time
            doc = json.loads(json.dumps(TINY_CONFIG))
            target, gt = (("distance_xy", "gt_heading_csv") if case.startswith("distance")
                          else ("heading", "gt_pos_csv"))
            doc["dataset"] = {"descriptor": {**doc["dataset"]["descriptor"],
                                             "target_kind": target},
                              "imu_csv": str(tmp_path / "imu.csv"),
                              gt: str(tmp_path / f"{gt}.csv")}
            path = tmp_path / "suite.json"
            path.write_text(json.dumps(doc))
            argv = ["bench", "--config", str(path), "--out-dir", out]
        elif case in ("unloadable-recordings", "gt-ends-before-imu",
                      "overflowing-trajectory-frequency", "unknown-trajectory-kind",
                      "non-string-technique-name", "window-too-short",
                      "bench-fractional-repetitions", "unhashable-technique-kind",
                      "imu-csv-zero"):
            # a suite that cannot run ends once, before any report is written
            doc = json.loads(json.dumps(TINY_CONFIG))
            if case == "unloadable-recordings":
                doc["dataset"] = {"descriptor": doc["dataset"]["descriptor"],
                                  "imu_csv": str(tmp_path / "missing.csv"),
                                  "gt_pos_csv": str(tmp_path / "gt_pos.csv")}
            elif case == "gt-ends-before-imu":
                # ground truth that lost its last 10 rows (named .txt: the
                # check below finds any .csv file written)
                series, gt = synthesize_dataset(**doc["dataset"]["synthetic"][0])
                write_imu_csv(tmp_path / "imu.txt", series)
                write_gt_pos_csv(tmp_path / "gt_pos.txt",
                                 GroundTruth(gt.t[:-10], gt.position[:-10]))
                doc["dataset"] = {"descriptor": doc["dataset"]["descriptor"],
                                  "imu_csv": str(tmp_path / "imu.txt"),
                                  "gt_pos_csv": str(tmp_path / "gt_pos.txt")}
            elif case == "overflowing-trajectory-frequency":  # finite, but its w**2 is not
                doc["dataset"]["synthetic"][0].update(kind="sinusoid",
                                                      params={"frequency": 1e200})
            elif case == "unknown-trajectory-kind":
                doc["dataset"]["synthetic"][0]["kind"] = "square"
            elif case == "non-string-technique-name":
                doc["techniques"].append({"kind": "baseline", "name": 5})
            elif case == "bench-fractional-repetitions":
                doc["suite"]["repetitions"] = 1.5
            elif case in ("unhashable-technique-kind", "imu-csv-zero"):
                # rejected when the config is read, so no run loads anything
                # (open(0) would read file descriptor 0, stdin)
                def no_run(suite):
                    raise AssertionError("run_suite called")
                monkeypatch.setattr("inertiabench.cli.run_suite", no_run)
                if case == "imu-csv-zero":
                    doc["dataset"] = {"descriptor": doc["dataset"]["descriptor"],
                                      "imu_csv": 0,
                                      "gt_pos_csv": str(tmp_path / "gt_pos.csv")}
                else:
                    doc["techniques"].append({"kind": ["baseline"]})
            else:  # 3 steps: one conv output step (kernel 3) for a pool of depth 2
                doc["dataset"]["descriptor"]["window_size"] = 3
            path = tmp_path / "suite.json"
            path.write_text(json.dumps(doc))
            argv = ["bench", "--config", str(path), "--out-dir", out]
        elif case.startswith("config-"):
            # Python's json module reads these: NaN and Infinity are not JSON,
            # 1e400 reads as inf and a repeated key keeps its last value
            def no_run(suite):
                raise AssertionError("run_suite called")
            monkeypatch.setattr("inertiabench.cli.run_suite", no_run)
            old, new = {
                "config-nan": ('"epochs": 1', '"epochs": 1, "learning_rate": NaN'),
                "config-infinity": ('"epochs": 1', '"epochs": 1, "learning_rate": -Infinity'),
                "config-overflowing-float": ('"epochs": 1', '"epochs": 1, "learning_rate": 1e400'),
                "config-overflowing-delta": ('{"kind": "head2"}', '{"kind": "head2"}, '
                                            '{"kind": "loss", "loss": "huber", "delta": 1e400}'),
                "config-401-digit-int": ('"duration": 6.0', '"duration": 1' + "0" * 400),
                "config-repeated-key": ('"epochs": 1', '"epochs": 1, "epochs": 2')}[case]
            text = json.dumps(TINY_CONFIG)
            assert old in text
            text = text.replace(old, new)
            path = tmp_path / "suite.json"
            path.write_text(text)
            argv = ["bench", "--config", str(path), "--out-dir", out]
        elif case.startswith("synth-"):
            flags = {"synth-zero-duration": ["--duration", "0"],
                     "synth-zero-rate": ["--rate", "0"],
                     "synth-negative-duration": ["--duration", "-5"],
                     "synth-zero-gt-rate": ["--gt-rate", "0"],
                     "synth-non-divisor-gt-rate": ["--gt-rate", "25"],
                     "synth-overflowing-omega": ["--omega", "1e200"],
                     "synth-infinite-omega": ["--omega", "inf"],
                     "synth-negative-noise": ["--noise-acc", "-1"],
                     "synth-negative-seed": ["--noise-acc", "0.1", "--seed", "-1"]}[case]
            argv = ["synth", "--kind", "circle", *flags, "--out-dir", out]
        elif case == "train-negative-seed":
            argv = ["train", "--config", str(config_path), "--seed", "-1",
                    "--out", str(tmp_path / "model.npz")]
        else:
            doc = json.loads(json.dumps(TINY_CONFIG))
            doc["techniques"].append({"kind": "loss", "loss": "cubic"})
            path = tmp_path / "suite.json"
            path.write_text(json.dumps(doc))
            argv = ["bench", "--config", str(path), "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out" / "report.json").exists()
        if case == "unloadable-recordings":
            assert err.startswith("error: [parse] ")
        if case == "gt-ends-before-imu":
            assert err.startswith("error: [parse] IMU time range [0.0, 5.975] outside "
                                  "ground truth [0.0, 5.725]")
        if case in ("synth-overflowing-omega", "overflowing-trajectory-frequency"):
            assert err.endswith("series contains non-finite values\n")
        if case == "synth-infinite-omega":
            assert err == "error: trajectory parameter omega must be finite, got inf\n"
        if case == "checkpoint-not-an-archive":
            assert err == f"error: cannot read checkpoint {ckpt}: not an .npz archive\n"
            assert "allow_pickle" not in err
        if case == "config-repeated-key":
            assert err.startswith(f"error: cannot read config {path}: ")
        elif case.startswith("config-"):
            assert "must be finite, got " in err
        if case == "checkpoint-version-1":
            assert err == "error: unsupported checkpoint version 1\n"
        if case == "checkpoint-string-parameter":
            assert err == ("error: checkpoint parameter 'head.b' has dtype <U3, "
                           "expected a float dtype\n")
        if case == "checkpoint-fractional-conv-filters":
            assert err == (f"error: invalid model config of checkpoint {ckpt}: "
                           "conv_filters must be an integer, got 4.0\n")
        if case == "report-entry-rmse-runs-not-a-list":
            assert err == "error: invalid report.techniques[0]: rmse_runs must be a list, got 5\n"
        if case == "report-entry-contradicts-itself":
            assert err == ("error: invalid report.techniques[0]: "
                           "failed_runs must be >= 0, got -3\n")
        if case == "report-entry-runs-without-mean":
            assert err == ("error: invalid report.techniques[0]: "
                           "mean and std must be null exactly when rmse_runs is empty\n")
        if case == "report-entry-improvement-without-mean":
            assert err == ("error: invalid report.techniques[0]: "
                           "improvement_pct must be null when mean is\n")
        if "report" in case:
            assert not os.path.exists(out)
        if case == "synth-non-divisor-gt-rate":
            assert err == ("error: ground-truth rate must divide the IMU rate 120.0 Hz "
                           "a whole number of times, got 25.0\n")
        if case == "train-negative-seed":
            assert "--seed" in err and not (tmp_path / "model.npz").exists()
        assert not list(tmp_path.rglob("*.csv"))

    def test_module_entry_point_exits_one(self, tmp_path):
        # scripts read the exit status and stderr of `python -m inertiabench`
        src = os.path.dirname(os.path.dirname(inertiabench.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "inertiabench", "report",
                               "--report", str(tmp_path / "missing.json"),
                               "--out-dir", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: cannot read report ")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_import_loads_no_process_pool(self):
        # the pool is imported only for a multi-worker suite, so a
        # one-worker invocation never loads multiprocessing and its sockets
        src = os.path.dirname(os.path.dirname(inertiabench.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", "import sys, inertiabench.cli; "
                               "print('concurrent.futures' in sys.modules)"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0 and done.stdout == "False\n"
