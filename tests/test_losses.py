import numpy as np
import pytest

from inertiabench.errors import ShapeError
from inertiabench.losses import LOSS_KINDS, LossSpec, compute_loss, improvement_pct, metric_rmse


class TestLossValues:
    def test_mse_hand_value(self):
        value, _ = compute_loss(LossSpec("mse"), [0.0], [2.0])
        assert value == pytest.approx(4.0)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_zero_error_gives_zero(self, kind):
        y = np.array([1.0, -2.0, 0.5])
        value, grad = compute_loss(LossSpec(kind), y, y.copy())
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_huber_both_branches(self):
        # |e| <= delta: e^2/2; |e| > delta: delta*|e| - delta^2/2
        value, _ = compute_loss(LossSpec("huber", 1.0), [0.0], [0.5])
        assert value == pytest.approx(0.125)
        value, _ = compute_loss(LossSpec("huber", 1.0), [0.0], [2.0])
        assert value == pytest.approx(1.5)

    def test_logcosh_hand_value(self):
        value, _ = compute_loss(LossSpec("logcosh"), [0.0], [1.0])
        assert value == pytest.approx(np.log(np.cosh(1.0)), abs=1e-4)
        assert value == pytest.approx(0.4338, abs=1e-4)

    def test_mae_hand_value(self):
        value, _ = compute_loss(LossSpec("mae"), [1.0, 3.0], [2.0, 5.0])
        assert value == pytest.approx(1.5)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            compute_loss(LossSpec("mse"), [1.0, 2.0], [1.0])

    def test_unknown_kind_and_bad_delta(self):
        with pytest.raises(ShapeError):
            LossSpec("quantile")
        for delta in (0.0, np.nan, np.inf):
            with pytest.raises(ShapeError):
                LossSpec("huber", delta)


class TestLossProperties:
    def test_huber_continuity_and_smoothness_at_delta(self):
        delta = 1.0
        spec = LossSpec("huber", delta)
        eps = 1e-9
        below, _ = compute_loss(spec, [0.0], [delta - eps])
        above, _ = compute_loss(spec, [0.0], [delta + eps])
        assert abs(above - below) < 1e-8
        _, g_below = compute_loss(spec, [0.0], [delta - 1e-7])
        _, g_above = compute_loss(spec, [0.0], [delta + 1e-7])
        assert abs(g_above[0] - g_below[0]) < 1e-6

    def test_huber_matches_half_mse_for_small_errors(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=10)
        y_hat = y + rng.uniform(-0.5, 0.5, size=10)
        hu, _ = compute_loss(LossSpec("huber", 1.0), y, y_hat)
        mse, _ = compute_loss(LossSpec("mse"), y, y_hat)
        assert hu == pytest.approx(mse / 2)

    def test_logcosh_asymptote(self):
        value, _ = compute_loss(LossSpec("logcosh"), [0.0], [20.0])
        assert abs(value - (20.0 - np.log(2.0))) < 1e-8


class TestRmse:
    def test_hand_value(self):
        assert metric_rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355, abs=1e-4)

    def test_zero_for_equal(self):
        y = np.random.default_rng(1).normal(size=8)
        assert metric_rmse(y, y.copy()) == 0.0

    def test_rmse_squared_is_mse(self):
        rng = np.random.default_rng(2)
        y, y_hat = rng.normal(size=20), rng.normal(size=20)
        mse, _ = compute_loss(LossSpec("mse"), y, y_hat)
        assert metric_rmse(y, y_hat) ** 2 == pytest.approx(mse)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        y, y_hat = rng.normal(size=15), rng.normal(size=15)
        perm = rng.permutation(15)
        assert metric_rmse(y, y_hat) == pytest.approx(metric_rmse(y[perm], y_hat[perm]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metric_rmse([1.0], [1.0, 2.0])


class TestImprovement:
    def test_positive_improvement(self):
        assert improvement_pct(10.0, 9.3) == pytest.approx(7.0)

    def test_no_change(self):
        assert improvement_pct(4.2, 4.2) == 0.0

    def test_degradation_is_negative(self):
        assert improvement_pct(10.0, 15.0) == pytest.approx(-50.0)

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            improvement_pct(0.0, 1.0)
