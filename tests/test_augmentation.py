import numpy as np
import pytest

from inertiabench.augmentation import (
    AUGMENT_TYPES,
    ROTATION_NAMES,
    BiasAugment,
    NoiseAugment,
    RotationAugment,
    apply_augmentation,
    rotate_samples,
    rotation_matrix,
)
from inertiabench.data import DatasetDescriptor, WindowedDataset
from inertiabench.errors import ShapeError
from inertiabench.runner import AUGMENT_KINDS


def make_dataset(n_windows=10, width=20, seed=0):
    rng = np.random.default_rng(seed)
    desc = DatasetDescriptor("test", 120.0, width, width, "distance_xy")
    return WindowedDataset(rng.normal(size=(n_windows, 6, width)),
                           rng.normal(size=(n_windows, 1)), desc)


class TestRotationMatrices:
    def test_t1_hand_product(self):
        out = rotation_matrix("T1") @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0.8660, -0.5, 0.0], atol=1e-4)

    def test_t2_fixes_x_axis(self):
        out = rotation_matrix("T2") @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("name", ["T1", "T2", "T3"])
    def test_orthonormal_with_unit_determinant(self, name):
        r = rotation_matrix(name)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_unknown_matrix(self):
        with pytest.raises(ShapeError):
            rotation_matrix("T4")


class TestRotateSamples:
    def test_identity_rotation(self):
        w = np.random.default_rng(1).normal(size=(6, 8))
        np.testing.assert_array_equal(rotate_samples(w, np.eye(3)), w)

    def test_norms_preserved(self):
        w = np.random.default_rng(2).normal(size=(6, 30))
        out = rotate_samples(w, rotation_matrix("T3"))
        np.testing.assert_allclose(np.linalg.norm(out[:3], axis=0),
                                   np.linalg.norm(w[:3], axis=0), atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(out[3:], axis=0),
                                   np.linalg.norm(w[3:], axis=0), atol=1e-9)

    def test_single_sample_hand_product(self):
        w = np.array([[1.0], [0.0], [0.0], [0.0], [1.0], [0.0]])
        out = rotate_samples(w, rotation_matrix("T1"))
        np.testing.assert_allclose(out[:3, 0], [0.8660, -0.5, 0.0], atol=1e-4)
        np.testing.assert_allclose(out[3:, 0], [0.5, 0.8660, 0.0], atol=1e-4)

    @pytest.mark.parametrize("name", ROTATION_NAMES)
    def test_batch_matches_per_window(self, name):
        batch = np.random.default_rng(3).normal(size=(5, 6, 17))
        out = rotate_samples(batch, rotation_matrix(name))
        assert out.shape == batch.shape
        for m in range(5):
            np.testing.assert_array_equal(out[m], rotate_samples(batch[m], rotation_matrix(name)))


@pytest.mark.parametrize("cls", AUGMENT_TYPES, ids=lambda cls: cls.__name__)
def test_copies_follow_the_unchanged_original(cls):
    ds = make_dataset()
    windows, labels = ds.windows.copy(), ds.labels.copy()
    out = apply_augmentation(ds, cls(), np.random.default_rng(0))
    n = len(ds)
    assert len(out) > n and len(out) % n == 0
    assert out.windows[:n].tobytes() == windows.tobytes()
    assert out.labels.tobytes() == np.tile(labels, (len(out) // n, 1)).tobytes()
    assert ds.windows.tobytes() == windows.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


class TestRotationAugment:
    def test_single_axis_doubles(self):
        ds = make_dataset()
        out = apply_augmentation(ds, RotationAugment(("T1",)), None)
        assert len(out) == 2 * len(ds)

    def test_all_axes_quadruple(self):
        ds = make_dataset()
        out = apply_augmentation(ds, RotationAugment(("T1", "T2", "T3")), None)
        assert len(out) == 4 * len(ds)

    def test_labels_bit_equal(self):
        ds = make_dataset()
        out = apply_augmentation(ds, RotationAugment(("T2",)), None)
        np.testing.assert_array_equal(out.labels[len(ds):], ds.labels)

    def test_prefix_is_original(self):
        ds = make_dataset()
        out = apply_augmentation(ds, RotationAugment(("T1",)), None)
        np.testing.assert_array_equal(out.windows[: len(ds)], ds.windows)


class TestBiasAugment:
    def test_one_copy_doubles(self):
        ds = make_dataset()
        out = apply_augmentation(ds, BiasAugment(copies=1), np.random.default_rng(0))
        assert len(out) == 2 * len(ds)

    def test_zero_sigma_copies_identical(self):
        ds = make_dataset()
        spec = BiasAugment(copies=1, sigma_acc=0.0, sigma_gyro=0.0)
        out = apply_augmentation(ds, spec, np.random.default_rng(1))
        np.testing.assert_array_equal(out.windows[len(ds):], ds.windows)

    def test_three_copies_reproducible_and_distinct(self):
        ds = make_dataset()
        spec = BiasAugment(copies=3)
        a = apply_augmentation(ds, spec, np.random.default_rng(2))
        b = apply_augmentation(ds, spec, np.random.default_rng(2))
        np.testing.assert_array_equal(a.windows, b.windows)
        n = len(ds)
        biases = [a.windows[n * (i + 1): n * (i + 2)] - ds.windows for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.allclose(biases[i][0, :, 0], biases[j][0, :, 0])

    def test_bias_constant_per_channel(self):
        ds = make_dataset()
        out = apply_augmentation(ds, BiasAugment(copies=1), np.random.default_rng(3))
        diff = out.windows[len(ds):] - ds.windows
        # constant offset: variance of the difference vanishes per channel
        assert np.all(diff.var(axis=(0, 2)) < 1e-18)

    def test_draws_the_acc_then_the_gyro_offset_of_each_copy(self):
        ds = make_dataset()
        spec = BiasAugment(copies=3, sigma_acc=0.2, sigma_gyro=0.002)
        out = apply_augmentation(ds, spec, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for i in range(1, 4):
            bias = np.concatenate([rng.normal(0.0, 0.2, 3), rng.normal(0.0, 0.002, 3)])
            copy = out.windows[i * len(ds):(i + 1) * len(ds)]
            assert copy.tobytes() == (ds.windows + bias[None, :, None]).tobytes()


class TestNoiseAugment:
    def test_single_entry_doubles(self):
        ds = make_dataset()
        out = apply_augmentation(ds, NoiseAugment(((0.1, 0.001),)), np.random.default_rng(0))
        assert len(out) == 2 * len(ds)

    def test_default_schedule_quadruples(self):
        ds = make_dataset()
        out = apply_augmentation(ds, NoiseAugment(), np.random.default_rng(1))
        assert len(out) == 4 * len(ds)

    def test_empirical_std_per_schedule_entry(self):
        ds = make_dataset(n_windows=30, width=100)
        spec = NoiseAugment()
        out = apply_augmentation(ds, spec, np.random.default_rng(2))
        n = len(ds)
        for i, (sigma_acc, sigma_gyro) in enumerate(spec.schedule):
            diff = out.windows[n * (i + 1): n * (i + 2)] - ds.windows
            assert abs(diff[:, :3].std() - sigma_acc) < 0.05 * sigma_acc
            assert abs(diff[:, 3:].std() - sigma_gyro) < 0.05 * sigma_gyro
            assert abs(diff.mean()) < 0.01

    def test_draws_the_acc_then_the_gyro_block_of_each_entry(self):
        ds = make_dataset()
        spec = NoiseAugment(((0.1, 0.001), (0.3, 0.003)))
        out = apply_augmentation(ds, spec, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        n = len(ds)
        for i, (sigma_acc, sigma_gyro) in enumerate(spec.schedule, start=1):
            expected = ds.windows.copy()
            expected[:, :3] += rng.normal(0.0, sigma_acc, size=(n, 3, ds.windows.shape[2]))
            expected[:, 3:] += rng.normal(0.0, sigma_gyro, size=(n, 3, ds.windows.shape[2]))
            assert out.windows[i * n:(i + 1) * n].tobytes() == expected.tobytes()


class TestSpecValidation:
    def test_rotation_needs_axes(self):
        with pytest.raises(ShapeError):
            RotationAugment(())

    def test_rotation_rejects_an_unknown_axis(self):
        with pytest.raises(ShapeError, match="unknown rotation matrix 'T9'"):
            RotationAugment(("T1", "T9"))

    def test_bias_copies_restricted(self):
        with pytest.raises(ShapeError):
            BiasAugment(copies=2)

    def test_noise_needs_schedule(self):
        with pytest.raises(ShapeError):
            NoiseAugment(())

    @pytest.mark.parametrize("kind, options", [
        ("bias", {"sigma_acc": -0.1}),
        ("bias", {"sigma_gyro": -0.001}),
        ("bias", {"sigma_acc": float("nan")}),
        ("noise", {"schedule": ((-0.1, 0.001),)}),
        ("noise", {"schedule": ((0.1, 0.001), (0.25, float("nan")))}),
    ])
    def test_negative_or_nan_std_rejected(self, kind, options):
        with pytest.raises(ShapeError, match="noise stds must be finite and non-negative"):
            AUGMENT_KINDS[kind](**options)

    def test_rotation_matrix_is_a_new_array(self):
        first = rotation_matrix("T1")
        first[...] = 0.0
        np.testing.assert_array_equal(rotation_matrix("T1") @ [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
