"""End-to-end acceptance checks.

Each test covers one exit criterion and prints a single pass/fail line on
the real stdout (bypassing capture) so the verdicts are visible in plain
``pytest -v`` output.  Run order follows criterion number.
"""

import contextlib
import json
import time

import numpy as np

from inertiabench.augmentation import (BiasAugment, NoiseAugment, RotationAugment,
                                       apply_augmentation, rotate_samples, rotation_matrix)
from inertiabench.cli import main as cli_main
from inertiabench.data import (
    DatasetDescriptor,
    GroundTruth,
    InertialSeries,
    SynthParams,
    align_gt,
    parse_gt_heading_csv,
    parse_gt_pos_csv,
    parse_imu_csv,
    synthesize_dataset,
    window_dataset,
    window_starts,
    write_gt_heading_csv,
    write_gt_pos_csv,
    write_imu_csv,
)
from inertiabench.kernels import (
    Adam,
    BiLSTM,
    Conv1d,
    ConvSpec,
    Dense,
    DenseParams,
    Dropout,
    DropoutSpec,
    LstmParams,
    bilstm_forward,
    conv1d_forward,
    dropout_apply,
    fc_forward,
    maxpool1d,
)
from inertiabench.losses import LOSS_KINDS, LossSpec, compute_loss, metric_rmse
from inertiabench.model import InertialRegressor, ModelConfig, TrainConfig, train_model
from inertiabench.preprocessing import (
    NormalizeStep,
    PreprocSpec,
    add_measurement_noise,
    apply_channel_stats,
    detrend_linear,
    fit_channel_stats,
    moving_average,
    normalize,
)
from inertiabench.runner import (
    DatasetSpec,
    SuiteConfig,
    SyntheticSegment,
    TechniqueSpec,
    _split_series,
    prepare_run,
    run_rng,
)

from gradcheck import check_layer_grads, max_rel_error, numerical_grad


@contextlib.contextmanager
def verdict(number, title, capfd):
    """Print 'criterion N (title): PASS|FAIL' on the real stdout.

    Output capture is suspended for the verdict line so it shows up in
    plain ``pytest -v`` runs, not only on failure.
    """
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"criterion {number} ({title}): FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"criterion {number} ({title}): PASS", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences


def test_criterion_1_gradient_correctness(capfd):
    with verdict(1, "gradient correctness", capfd):
        start = time.perf_counter()
        trials_per_loss = 6  # 24 randomized instances per layer type

        for li, kind in enumerate(LOSS_KINDS):
            spec = LossSpec(kind)
            for trial in range(trials_per_loss):
                rng = np.random.default_rng(1000 * li + trial)

                layer = Dense(4, 2, rng)
                err = check_layer_grads(lambda: layer, rng.normal(size=(3, 4)),
                                        spec, rng.normal(size=(3, 2)))
                assert err < 1e-4, f"dense/{kind}: {err}"

                layer = Conv1d(ConvSpec(2, 3, 3, stride=2), rng)
                err = check_layer_grads(lambda: layer, rng.normal(size=(2, 2, 7)),
                                        spec, rng.normal(size=(2, 3, 3)))
                assert err < 1e-4, f"conv/{kind}: {err}"

                layer = BiLSTM(2, 3, rng)
                err = check_layer_grads(lambda: layer, rng.normal(size=(1, 2, 4)),
                                        spec, rng.normal(size=(1, 6, 4)))
                assert err < 1e-3, f"bilstm/{kind}: {err}"

                # dropout with a frozen mask so finite differences see a
                # deterministic function
                x = rng.normal(size=(3, 8))
                target = rng.normal(size=(3, 8))
                layer = Dropout(DropoutSpec(0.4))
                layer.forward(x, train=True, rng=rng)
                mask = layer._cache
                _, gout = compute_loss(spec, target, x * mask)
                gin = layer.backward(gout)
                num = numerical_grad(
                    lambda xv: compute_loss(spec, target, xv * mask)[0], x)
                assert max_rel_error(gin, num) < 1e-4, f"dropout/{kind}"

        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# criterion 2: closed-form oracles (hand values, statistical laws, kinematics)


def test_criterion_2_closed_form_oracles(capfd):
    with verdict(2, "closed-form oracles", capfd):
        # convolution hand evaluations
        np.testing.assert_allclose(
            conv1d_forward([1.0, 2.0, 3.0], [[[1.0, -1.0]]], [0.0])[0], [-1.0, -1.0])
        np.testing.assert_allclose(
            conv1d_forward([1, 2, 3, 4, 5], [[[1.0, 0, 0, 0, 0]]], [0.0])[0], [1.0])

        # max pooling over disjoint windows
        np.testing.assert_allclose(maxpool1d([1.0, 3, 2, 5, 4, 6], 3), [3.0, 6.0])

        # zero-weight recurrent layer: sigmoid(0)=0.5 gates a zero cell update
        out = bilstm_forward(np.ones((2, 5)), LstmParams.zeros(2, 3))
        np.testing.assert_allclose(out, 0.0)

        # dropout keep fraction follows the Bernoulli law, survivors rescaled
        kept = dropout_apply(np.ones(100_000), DropoutSpec(0.5), train=True,
                             rng=np.random.default_rng(0))
        frac = np.count_nonzero(kept) / kept.size
        assert abs(frac - 0.5) < 0.01
        np.testing.assert_allclose(kept[kept != 0], 2.0)

        # fully connected hand product
        np.testing.assert_allclose(
            fc_forward([1.0, 2.0], DenseParams(np.array([[1.0], [1.0]]),
                                               np.array([0.5]))), [3.5])

        # first bias-corrected Adam step moves by exactly -lr (up to epsilon)
        params = {"w": np.zeros(1)}
        Adam(lr=0.001).step(params, {"w": np.ones(1)})
        assert abs(params["w"][0] + 0.001) < 1e-9

        # loss hand values
        assert compute_loss(LossSpec("mse"), np.array([0.0]), np.array([2.0]))[0] == 4.0
        assert compute_loss(LossSpec("mae"), np.array([1.0, 3.0]),
                            np.array([2.0, 5.0]))[0] == 1.5
        assert compute_loss(LossSpec("huber"), np.array([0.0]),
                            np.array([0.5]))[0] == 0.125
        assert compute_loss(LossSpec("huber"), np.array([0.0]),
                            np.array([2.0]))[0] == 1.5
        lc = compute_loss(LossSpec("logcosh"), np.array([0.0]), np.array([1.0]))[0]
        assert abs(lc - 0.4338) < 1e-4
        assert abs(metric_rmse(np.array([0.0, 0.0]),
                               np.array([3.0, 4.0])) - 3.5355) < 1e-4

        # moving average, additive noise law, normalizations, detrending
        s = InertialSeries(np.arange(5.0),
                           np.tile(np.array([1.0, 2, 3, 4, 5])[:, None], (1, 6)))
        np.testing.assert_allclose(moving_average(s, 3).imu[:, 0], [2.0, 3.0, 4.0])

        big = InertialSeries(np.arange(100_000.0), np.zeros((100_000, 6)))
        noisy = add_measurement_noise(big, 0.1, 0.001, np.random.default_rng(1))
        acc = (noisy.imu - big.imu)[:, :3].ravel()
        assert abs(acc.mean()) < 0.002 and abs(acc.std() - 0.1) < 0.005

        s3 = InertialSeries(np.arange(3.0),
                            np.tile(np.array([1.0, 2, 3])[:, None], (1, 6)))
        np.testing.assert_allclose(normalize(s3, "zscore").imu[:, 0],
                                   [-1.2247, 0.0, 1.2247], atol=1e-4)
        np.testing.assert_allclose(normalize(s, "robust").imu[:, 0],
                                   [-1.0, -0.5, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(detrend_linear(np.array([1.0, 1.0, 2.0])),
                                   [1 / 6, -1 / 3, 1 / 6], atol=1e-9)

        # rotations: hand products for the quarter-plane test vectors
        np.testing.assert_allclose(rotation_matrix("T1") @ [1.0, 0.0, 0.0],
                                   [0.8660, -0.5, 0.0], atol=1e-4)
        w = np.array([[1.0], [0.0], [0.0], [0.0], [1.0], [0.0]])
        rot = rotate_samples(w, rotation_matrix("T1"))
        np.testing.assert_allclose(rot[:3, 0], [0.8660, -0.5, 0.0], atol=1e-4)
        np.testing.assert_allclose(rot[3:, 0], [0.5, 0.8660, 0.0], atol=1e-4)

        # bias copies: reproducible under the same seed, pairwise distinct
        desc = DatasetDescriptor("t", 100.0, 20, 20, "distance_xy")
        base = np.random.default_rng(2).normal(size=(10, 6, 20))
        from inertiabench.data import WindowedDataset

        wds = WindowedDataset(base, np.zeros((10, 1)), desc)
        a = apply_augmentation(wds, BiasAugment(copies=3), np.random.default_rng(3))
        b = apply_augmentation(wds, BiasAugment(copies=3), np.random.default_rng(3))
        np.testing.assert_array_equal(a.windows, b.windows)
        offsets = [a.windows[10 * (i + 1)][:, 0] - base[0][:, 0] for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.allclose(offsets[i], offsets[j])

        # additive-noise schedule: empirical std within 5% of each sigma
        wide = WindowedDataset(np.random.default_rng(4).normal(size=(30, 6, 100)),
                               np.zeros((30, 1)), desc)
        nspec = NoiseAugment()
        noisy_ds = apply_augmentation(wide, nspec, np.random.default_rng(5))
        for i, (sa, sg) in enumerate(nspec.schedule):
            diff = noisy_ds.windows[30 * (i + 1): 30 * (i + 2)] - wide.windows
            assert abs(diff[:, :3].std() - sa) < 0.05 * sa
            assert abs(diff[:, 3:].std() - sg) < 0.05 * sg

        # ground-truth alignment: linear position, circular heading
        probe = InertialSeries(np.array([0.5]), np.zeros((1, 6)))
        gt = GroundTruth(np.array([0.0, 1.0]),
                         position=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        np.testing.assert_allclose(align_gt(probe, gt).position[0], [0.5, 0, 0])
        gt = GroundTruth(np.array([0.0, 1.0]),
                         heading=np.deg2rad([350.0, 10.0]))
        assert abs(align_gt(probe, gt).heading[0]) < 1e-9

        # window counting
        assert len(window_starts(360, 120, 60)) == 5
        assert len(window_starts(10, 4, 2)) == 4

        # analytic tracks: straight-line distance and circular arc length
        # (a 1 s window at 120 Hz spans 121 samples: 120 intervals)
        desc1 = DatasetDescriptor("line", 120.0, 121, 121, "distance_xy")
        series, gt = synthesize_dataset("line", duration=2.0, rate=120.0,
                                        params=SynthParams(speed=1.0))
        labels = window_dataset(series, gt, desc1).labels
        np.testing.assert_allclose(labels, 1.0, atol=1e-9)

        series, gt = synthesize_dataset("circle", duration=4.0, rate=120.0,
                                        gt_rate=120.0,
                                        params=SynthParams(radius=1.0, omega=1.0))
        labels = window_dataset(series, gt, desc1).labels
        np.testing.assert_allclose(labels, 1.0, rtol=1e-3)
        # centripetal specific force and yaw rate on the unit circle
        np.testing.assert_allclose(series.imu[:, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(series.imu[:, 5], 1.0, atol=1e-12)

        # overfit convergence on a memorizable 8-window set; the smoothed
        # loss curve (10-epoch block means) must be non-increasing
        curve, final_mse = _overfit_run(
            ModelConfig(conv_filters=8, kernel_size=3, pool_depth=2, dropout=0.0,
                        lstm_hidden=8, fc_width=16))
        assert final_mse < 1e-3
        blocks = np.array(curve).reshape(-1, 10).mean(axis=1)
        assert np.all(np.diff(blocks) <= 0.0)


def _overfit_run(model_config):
    """Train on 8 windows of a slow sinusoid track; return (curve, final MSE)."""
    series, gt = synthesize_dataset(
        "sinusoid", duration=9.0, rate=40.0,
        params=SynthParams(speed=0.2, amplitude=0.3, frequency=1.4),
        noise_acc=0.05, noise_gyro=0.001, seed=3)
    desc = DatasetDescriptor("overfit", 40.0, 40, 40, "distance_xy")
    ds = window_dataset(series, gt, desc)
    x, y = ds.windows[:8], ds.labels[:8]
    assert len(x) == 8
    # labels must be spread well past the convergence threshold, otherwise
    # a constant predictor would pass the check
    assert y.var() > 2e-3
    model = InertialRegressor(model_config, np.random.default_rng(0))
    curve = train_model(model, TrainConfig(epochs=300, batch_size=64), x, y,
                        shuffle_rng=np.random.default_rng(1),
                        dropout_rng=np.random.default_rng(2))
    mse, _ = compute_loss(LossSpec("mse"), y, model.predict(x))
    return curve, mse


# ---------------------------------------------------------------------------
# criterion 3: overfit convergence with the stock model


def test_criterion_3_overfit_convergence(capfd):
    with verdict(3, "overfit convergence", capfd):
        start = time.perf_counter()
        curve, final_mse = _overfit_run(ModelConfig())
        assert len(curve) <= 300
        assert curve[-1] < 1e-3
        assert final_mse < 1e-3
        assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# criteria 4 and 5: end-to-end benchmark plus structural technique semantics


BENCH_CONFIG = {
    "dataset": {
        "descriptor": {"name": "circle-line", "sampling_rate": 120.0,
                       "window_size": 120, "stride": 60,
                       "target_kind": "distance_xy"},
        "synthetic": [
            {"kind": "circle", "duration": 60.0, "rate": 120.0,
             "noise_acc": 0.1, "noise_gyro": 0.001, "seed": 1},
            {"kind": "line", "duration": 60.0, "rate": 120.0,
             "noise_acc": 0.1, "noise_gyro": 0.001, "seed": 2},
        ],
    },
    "train": {"epochs": 3, "batch_size": 64},
    "suite": {"repetitions": 3, "base_seed": 2024},
    "techniques": [
        {"kind": "baseline"},
        {"kind": "head2"},
        {"kind": "head3"},
        {"kind": "loss", "loss": "huber"},
        {"kind": "augment", "augment": {"kind": "rotation", "axes": ["T1"]}},
        {"kind": "augment", "augment": {"kind": "bias", "copies": 1}},
        {"kind": "augment", "augment": {"kind": "noise",
                                        "schedule": [[0.1, 0.001]]}},
        {"kind": "preprocess", "steps": [{"op": "denoise", "window": 25}]},
        {"kind": "preprocess", "steps": [{"op": "normalize",
                                          "method": "zscore"}]},
        {"kind": "preprocess", "steps": [{"op": "detrend"}]},
    ],
}

REPORT_KEYS = {"name", "spec", "rmse_runs", "mean", "std", "improvement_pct",
               "failed_runs"}


def test_criterion_4_end_to_end_suite(tmp_path, capfd):
    with verdict(4, "end-to-end benchmark", capfd):
        start = time.perf_counter()
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps(BENCH_CONFIG))

        outputs = []
        for run_dir in ("first", "second"):
            out_dir = tmp_path / run_dir
            code = cli_main(["bench", "--config", str(config_path),
                             "--out-dir", str(out_dir)])
            assert code == 0
            outputs.append({name: (out_dir / name).read_bytes()
                            for name in ("report.json", "report.csv",
                                         "improvement.svg")})

        # byte determinism across invocations with the same base seed
        assert outputs[0] == outputs[1]

        doc = json.loads(outputs[0]["report.json"])
        assert doc["suite"] == {"base_seed": 2024, "repetitions": 3}
        names = [t["name"] for t in doc["techniques"]]
        assert names == ["baseline", "head2", "head3", "loss-huber",
                         "augment-rotation-T1", "augment-bias-x1",
                         "augment-noise-x1", "preprocess-denoise25",
                         "preprocess-zscore", "preprocess-detrend"]
        for tech in doc["techniques"]:
            assert set(tech) == REPORT_KEYS
            assert tech["failed_runs"] == 0
            assert len(tech["rmse_runs"]) == 3
            assert all(np.isfinite(v) and v > 0 for v in tech["rmse_runs"])
        assert doc["techniques"][0]["improvement_pct"] == 0.0

        csv_lines = outputs[0]["report.csv"].decode().strip().split("\n")
        assert csv_lines[0] == ("technique,mean_rmse,std_rmse,improvement_pct,"
                                "failed_runs,rmse_runs")
        assert len(csv_lines) == 11
        assert outputs[0]["improvement.svg"].startswith(b"<svg")

        assert time.perf_counter() - start < 1800.0


def _bench_dataset():
    desc = DatasetDescriptor("circle-line", 120.0, 120, 60, "distance_xy")
    segments = (
        SyntheticSegment("circle", duration=60.0, rate=120.0, noise_acc=0.1,
                         noise_gyro=0.001, seed=1),
        SyntheticSegment("line", duration=60.0, rate=120.0, noise_acc=0.1,
                         noise_gyro=0.001, seed=2),
    )
    return DatasetSpec(descriptor=desc, synthetic=segments)


def _bench_run(technique, seed):
    """``prepare_run`` of ``technique`` on the bench dataset with the stock model."""
    suite = SuiteConfig(dataset=_bench_dataset(), techniques=(TechniqueSpec("baseline"),),
                        train=TrainConfig(epochs=1))
    return prepare_run(suite, technique, seed)


def test_criterion_5_technique_semantics(capfd):
    with verdict(5, "technique semantics", capfd):
        seed = 2024
        base_train, base_test, base_cfg = _bench_run(TechniqueSpec("baseline"), seed)

        # single-rotation augmentation doubles the training set and leaves
        # the test split untouched
        rot = TechniqueSpec("augment", augment=RotationAugment(("T1",)))
        rot_train, rot_test, _ = _bench_run(rot, seed)
        assert len(rot_train) == 2 * len(base_train)
        np.testing.assert_array_equal(rot_test.windows, base_test.windows)
        np.testing.assert_array_equal(rot_test.labels, base_test.labels)

        # the stock three-level noise schedule quadruples the training set
        noise = TechniqueSpec("augment", augment=NoiseAugment())
        noise_train, noise_test, _ = _bench_run(noise, seed)
        assert len(noise_train) == 4 * len(base_train)
        np.testing.assert_array_equal(noise_test.windows, base_test.windows)

        # normalization statistics come from the training split only:
        # rebuilding the pipeline with stats fitted on pooled training
        # portions reproduces both splits exactly, stats fitted on the
        # full recordings do not
        zs = TechniqueSpec("preprocess",
                           preprocess=PreprocSpec((NormalizeStep("zscore"),)))
        zs_train, zs_test, _ = _bench_run(zs, seed)
        from inertiabench.runner import load_recordings

        recordings = load_recordings(_bench_dataset())
        train_imu = np.concatenate(
            [_split_series(s, 0.75)[0].imu for s, _ in recordings])
        stats = fit_channel_stats(train_imu, "zscore")
        desc = _bench_dataset().descriptor
        expected_train, expected_test = [], []
        for series, gt in recordings:
            scaled = apply_channel_stats(series, stats)
            tr, te = _split_series(scaled, 0.75)
            expected_train.append(window_dataset(tr, gt, desc).windows)
            expected_test.append(window_dataset(te, gt, desc).windows)
        np.testing.assert_array_equal(zs_train.windows,
                                      np.concatenate(expected_train))
        np.testing.assert_array_equal(zs_test.windows,
                                      np.concatenate(expected_test))
        full_stats = fit_channel_stats(
            np.concatenate([s.imu for s, _ in recordings]), "zscore")
        assert not np.allclose(full_stats.loc, stats.loc)

        # paired seeding: every technique with the baseline architecture
        # starts from bit-identical parameters
        huber = TechniqueSpec("loss", loss=LossSpec("huber"))
        _, _, huber_cfg = _bench_run(huber, seed)
        assert huber_cfg == base_cfg
        pa = InertialRegressor(base_cfg, run_rng(seed, "init")).parameters()
        pb = InertialRegressor(huber_cfg, run_rng(seed, "init")).parameters()
        assert set(pa) == set(pb)
        for key in pa:
            np.testing.assert_array_equal(pa[key], pb[key])


# ---------------------------------------------------------------------------
# criterion 6: equation fidelity spot checks


def test_criterion_6_equation_fidelity(capfd):
    with verdict(6, "equation fidelity", capfd):
        # Huber branches agree at the boundary |e| = delta
        for delta in (0.5, 1.0, 2.0):
            spec = LossSpec("huber", delta)
            at_boundary = compute_loss(spec, np.array([0.0]),
                                       np.array([delta]))[0]
            quadratic = 0.5 * delta ** 2
            linear = delta * (delta - 0.5 * delta)
            assert abs(at_boundary - quadratic) < 1e-9
            assert abs(at_boundary - linear) < 1e-9
            below = compute_loss(spec, np.array([0.0]),
                                 np.array([delta * (1 - 1e-10)]))[0]
            above = compute_loss(spec, np.array([0.0]),
                                 np.array([delta * (1 + 1e-10)]))[0]
            assert abs(above - below) < 1e-9

        # log-cosh tends to |e| - ln 2 for large errors
        big = compute_loss(LossSpec("logcosh"), np.array([0.0]),
                           np.array([20.0]))[0]
        assert abs(big - (20.0 - np.log(2.0))) < 1e-8

        # rotation matrices are proper rotations
        for name in ("T1", "T2", "T3"):
            r = rotation_matrix(name)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

        # RMSE squared equals MSE on random vectors
        rng = np.random.default_rng(6)
        for _ in range(10):
            y = rng.normal(size=50)
            y_hat = rng.normal(size=50)
            mse = compute_loss(LossSpec("mse"), y, y_hat)[0]
            assert abs(metric_rmse(y, y_hat) ** 2 - mse) < 1e-12


# ---------------------------------------------------------------------------
# criterion 7: CSV round trip


def test_criterion_7_csv_round_trip(tmp_path, capfd):
    with verdict(7, "csv round trip", capfd):
        series, gt = synthesize_dataset(
            "circle", duration=5.0, rate=120.0,
            params=SynthParams(radius=2.0, omega=0.7),
            noise_acc=0.1, noise_gyro=0.001, seed=9)

        write_imu_csv(tmp_path / "imu.csv", series)
        back = parse_imu_csv(tmp_path / "imu.csv")
        np.testing.assert_array_equal(back.t, series.t)
        np.testing.assert_array_equal(back.imu, series.imu)

        write_gt_pos_csv(tmp_path / "gt_pos.csv", gt)
        back_gt = parse_gt_pos_csv(tmp_path / "gt_pos.csv")
        np.testing.assert_array_equal(back_gt.t, gt.t)
        np.testing.assert_array_equal(back_gt.position, gt.position)

        write_gt_heading_csv(tmp_path / "gt_heading.csv", gt)
        back_h = parse_gt_heading_csv(tmp_path / "gt_heading.csv")
        np.testing.assert_array_equal(back_h.t, gt.t)
        np.testing.assert_array_equal(back_h.heading, gt.heading)
