import numpy as np
import pytest

from inertiabench.data import InertialSeries
from inertiabench.errors import DegenerateChannelError, ShapeError
from inertiabench.preprocessing import (
    AddNoiseStep,
    DenoiseStep,
    PreprocSpec,
    add_measurement_noise,
    apply_channel_stats,
    detrend_linear,
    fit_channel_stats,
    moving_average,
    normalize,
)


def series_from_channel(values):
    values = np.asarray(values, dtype=float)
    imu = np.tile(values[:, None], (1, 6))
    return InertialSeries(np.arange(len(values), dtype=float), imu)


class TestMovingAverage:
    def test_hand_values(self):
        out = moving_average(series_from_channel([1, 2, 3, 4, 5]), 3)
        np.testing.assert_allclose(out.imu[:, 0], [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(out.t, [0.0, 1.0, 2.0])

    def test_constant_series(self):
        out = moving_average(series_from_channel(np.full(10, 3.3)), 4)
        np.testing.assert_allclose(out.imu, 3.3)
        assert len(out) == 7

    def test_window_one_is_identity(self):
        s = series_from_channel([1, 5, 2, 8])
        out = moving_average(s, 1)
        np.testing.assert_array_equal(out.imu, s.imu)

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            moving_average(series_from_channel([1, 2]), 3)

    def test_reduces_white_noise_variance(self):
        rng = np.random.default_rng(0)
        s = InertialSeries(np.arange(5000, dtype=float), rng.normal(size=(5000, 6)))
        out = moving_average(s, 5)
        assert np.all(out.imu.var(axis=0) < s.imu.var(axis=0))


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        s = series_from_channel([1, 2, 3])
        out = add_measurement_noise(s, 0.0, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out.imu, s.imu)

    def test_gaussian_law(self):
        n = 100_000
        s = InertialSeries(np.arange(n, dtype=float), np.zeros((n, 6)))
        out = add_measurement_noise(s, 0.1, 0.001, np.random.default_rng(2))
        diff = out.imu - s.imu
        acc = diff[:, :3].ravel()
        gyro = diff[:, 3:].ravel()
        assert abs(acc.mean()) < 0.002
        assert abs(acc.std() - 0.1) < 0.005
        assert abs(gyro.std() - 0.001) < 5e-5

    def test_seeded_determinism(self):
        s = series_from_channel([1, 2, 3, 4])
        a = add_measurement_noise(s, 0.1, 0.01, np.random.default_rng(3))
        b = add_measurement_noise(s, 0.1, 0.01, np.random.default_rng(3))
        np.testing.assert_array_equal(a.imu, b.imu)

    @pytest.mark.parametrize("stds", [(-0.1, 0.0), (0.0, -0.001), (float("nan"), 0.0),
                                      (0.0, float("inf"))])
    def test_negative_or_non_finite_std_rejected(self, stds):
        with pytest.raises(ShapeError, match="noise stds must be finite and non-negative"):
            AddNoiseStep(*stds)


class TestPreprocSpec:
    def test_needs_a_step(self):
        with pytest.raises(ShapeError, match="at least one step"):
            PreprocSpec(())

    def test_rejects_a_non_step(self):
        with pytest.raises(ShapeError, match="unknown preprocessing step 'denoise'"):
            PreprocSpec((DenoiseStep(3), "denoise"))


class TestNormalize:
    def test_zscore_hand_values(self):
        out = normalize(series_from_channel([1, 2, 3]), "zscore")
        np.testing.assert_allclose(out.imu[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_zscore_population_std(self):
        rng = np.random.default_rng(4)
        s = InertialSeries(np.arange(50, dtype=float), rng.normal(2.0, 3.0, (50, 6)))
        out = normalize(s, "zscore")
        np.testing.assert_allclose(out.imu.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.imu.std(axis=0), 1.0, atol=1e-9)

    def test_robust_hand_values(self):
        out = normalize(series_from_channel([1, 2, 3, 4, 5]), "robust")
        np.testing.assert_allclose(out.imu[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_constant_channel_names_channel(self):
        imu = np.random.default_rng(5).normal(size=(10, 6))
        imu[:, 4] = 7.0
        with pytest.raises(DegenerateChannelError) as exc:
            fit_channel_stats(imu, "zscore")
        assert exc.value.channel == "wy"

    def test_train_stats_reused_on_test(self):
        rng = np.random.default_rng(6)
        train = rng.normal(5.0, 2.0, size=(100, 6))
        test_series = InertialSeries(np.arange(20, dtype=float),
                                     rng.normal(size=(20, 6)))
        stats = fit_channel_stats(train, "zscore")
        out = apply_channel_stats(test_series, stats)
        np.testing.assert_allclose(out.imu, (test_series.imu - train.mean(0)) / train.std(0))

    def test_unknown_method(self):
        with pytest.raises(ShapeError):
            fit_channel_stats(np.ones((5, 6)), "minmax")


class TestDetrend:
    def test_exactly_linear_input(self):
        np.testing.assert_allclose(detrend_linear(np.array([2.0, 4.0, 6.0, 8.0])),
                                   0.0, atol=1e-12)

    def test_hand_least_squares(self):
        # fit at t = 0,1,2: slope 0.5, intercept 5/6
        out = detrend_linear(np.array([1.0, 1.0, 2.0]))
        np.testing.assert_allclose(out, [1 / 6, -1 / 3, 1 / 6], atol=1e-9)

    def test_residual_sums_to_zero(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(6, 40))
        out = detrend_linear(w)
        np.testing.assert_allclose(out.sum(axis=1), 0.0, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(6, 25))
        once = detrend_linear(w)
        np.testing.assert_allclose(detrend_linear(once), once, atol=1e-9)

    def test_channel_permutation_commutes(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(6, 15))
        perm = rng.permutation(6)
        np.testing.assert_allclose(detrend_linear(w)[perm], detrend_linear(w[perm]))

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(10)
        batch = rng.normal(size=(4, 6, 12))
        out = detrend_linear(batch)
        for m in range(4):
            np.testing.assert_array_equal(out[m], detrend_linear(batch[m]))
            for c in range(6):
                np.testing.assert_array_equal(out[m, c], detrend_linear(batch[m, c]))

    def test_too_short_window(self):
        with pytest.raises(ShapeError):
            detrend_linear(np.array([1.0]))


def test_channel_independence_of_series_transforms():
    rng = np.random.default_rng(11)
    s = InertialSeries(np.arange(30, dtype=float), rng.normal(size=(30, 6)))
    perm = rng.permutation(6)
    ma = moving_average(s, 4)
    ma_perm = moving_average(InertialSeries(s.t, s.imu[:, perm]), 4)
    np.testing.assert_allclose(ma.imu[:, perm], ma_perm.imu)
