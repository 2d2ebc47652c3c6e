"""Train the baseline regressor on a synthetic circular track.

The pipeline in one file: simulate an IMU recording with known ground
truth, cut it into windows labelled with traveled distance, train the
convolutional-recurrent regressor, and report test RMSE on the held-out
tail of the recording.
"""

import numpy as np

from inertiabench.data import (
    DatasetDescriptor,
    SynthParams,
    synthesize_dataset,
    window_dataset,
)
from inertiabench.losses import metric_rmse
from inertiabench.model import InertialRegressor, ModelConfig, TrainConfig, train_model

# a small model trains in seconds on a laptop; swap in ModelConfig() for
# the full-size network
MODEL = ModelConfig(conv_filters=16, kernel_size=5, pool_depth=3,
                    lstm_hidden=16, fc_width=32)


def main():
    # a sinusoid track has varying speed, so distance labels differ per
    # window and predicting the mean is no longer enough
    series, gt = synthesize_dataset(
        "sinusoid", duration=40.0, rate=60.0,
        params=SynthParams(speed=0.6, amplitude=0.8, frequency=0.5),
        noise_acc=0.1, noise_gyro=0.001, seed=0)
    print(f"simulated {len(series)} IMU samples over {series.t[-1]:.1f} s")

    desc = DatasetDescriptor("sinusoid", 60.0, 60, 30, "distance_xy")
    ds = window_dataset(series, gt, desc)
    split = int(0.75 * len(ds))
    x_train, y_train = ds.windows[:split], ds.labels[:split]
    x_test, y_test = ds.windows[split:], ds.labels[split:]
    print(f"{split} training windows, {len(ds) - split} test windows, "
          f"labels {y_train.min():.3f} .. {y_train.max():.3f} m")

    model = InertialRegressor(MODEL, np.random.default_rng(0))
    curve = train_model(model, TrainConfig(epochs=30, batch_size=64),
                        x_train, y_train,
                        shuffle_rng=np.random.default_rng(1),
                        dropout_rng=np.random.default_rng(2))
    for epoch in range(0, len(curve), 5):
        print(f"  epoch {epoch:3d}  train loss {curve[epoch]:.5f}")

    rmse = metric_rmse(y_test, model.predict(x_test))
    naive = metric_rmse(y_test, np.full_like(y_test, y_train.mean()))
    print(f"test RMSE {rmse:.4f} m (predict-the-mean baseline: {naive:.4f} m)")


if __name__ == "__main__":
    main()
