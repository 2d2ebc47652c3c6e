import numpy as np
import pytest

from inertiabench import SyntheticSegment
from inertiabench.data import (
    GRAVITY,
    DatasetDescriptor,
    GroundTruth,
    InertialSeries,
    SynthParams,
    align_gt,
    make_windows,
    parse_gt_pos_csv,
    parse_imu_csv,
    synthesize_dataset,
    window_dataset,
    window_starts,
    write_gt_heading_csv,
    write_gt_pos_csv,
    write_imu_csv,
)
from inertiabench.errors import CoverageError, DataError, ParseError, ShapeError


class TestCsvParsing:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,fx,fy,fz,wx,wy,wz\n0.0,1,2,3,4,5,6\n0.1,1,2,3,4,5,6\n")
        series = parse_imu_csv(path)
        assert len(series) == 2
        np.testing.assert_allclose(series.imu[0], [1, 2, 3, 4, 5, 6])

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,fx,fy,fz,wx,wy,wz\n0.0,1,2,3,4,5\n")
        with pytest.raises(ParseError) as exc:
            parse_imu_csv(path)
        assert exc.value.line == 2

    def test_non_monotonic_t(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,fx,fy,fz,wx,wy,wz\n0.0,1,2,3,4,5,6\n0.0,1,2,3,4,5,6\n")
        with pytest.raises(DataError):
            parse_imu_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("time,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n")
        with pytest.raises(ParseError):
            parse_imu_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,fx,fy,fz,wx,wy,wz\n0.0,1,2,x,4,5,6\n")
        with pytest.raises(ParseError) as exc:
            parse_imu_csv(path)
        assert exc.value.line == 2

    def test_gt_pos_nan_rejected(self, tmp_path):
        # a NaN timestamp would pass the strictly-increasing check
        path = tmp_path / "gt_pos.csv"
        path.write_text("t,px,py,pz\n0.0,0.0,0.0,0.0\nnan,0.0,0.0,0.0\n")
        with pytest.raises(DataError, match="non-finite"):
            parse_gt_pos_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            parse_imu_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,fx,fy,fz,wx,wy,wz\n")
        with pytest.raises(ParseError, match="no data rows"):
            parse_imu_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,fx,fy,fz,wx,wy,wz\n\n0.0,1,2,3,4,5,6\n\n0.1,1,2,3,4,5,6\n\n")
        series = parse_imu_csv(path)
        np.testing.assert_array_equal(series.t, [0.0, 0.1])
        np.testing.assert_array_equal(series.imu, [[1, 2, 3, 4, 5, 6]] * 2)


class TestGroundTruth:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["t", "position", "heading"])
    def test_non_finite_rejected(self, field, bad):
        arrays = {"t": np.array([0.0, 1.0, 2.0]), "position": np.zeros((3, 3)),
                  "heading": np.zeros(3)}
        arrays[field][-1] = bad
        with pytest.raises(DataError, match="non-finite"):
            GroundTruth(**arrays)

    @pytest.mark.parametrize("t", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    def test_timestamps_must_increase(self, t):
        with pytest.raises(DataError, match="not strictly increasing"):
            GroundTruth(np.array(t), heading=np.zeros(3))


class TestCsvRoundTrip:
    def test_imu_round_trip_bit_exact(self, tmp_path):
        series, gt = synthesize_dataset("sinusoid", duration=2.0, rate=120.0,
                                        noise_acc=0.05, noise_gyro=0.001, seed=5)
        write_imu_csv(tmp_path / "imu.csv", series)
        back = parse_imu_csv(tmp_path / "imu.csv")
        np.testing.assert_array_equal(back.t, series.t)
        np.testing.assert_array_equal(back.imu, series.imu)

    def test_gt_round_trip_bit_exact(self, tmp_path):
        _, gt = synthesize_dataset("circle", duration=2.0, rate=60.0)
        write_gt_pos_csv(tmp_path / "gt_pos.csv", gt)
        back = parse_gt_pos_csv(tmp_path / "gt_pos.csv")
        np.testing.assert_array_equal(back.position, gt.position)


class TestAlignment:
    def test_linear_position_interpolation(self):
        series = InertialSeries(np.array([0.5]), np.zeros((1, 6)))
        gt = GroundTruth(np.array([0.0, 1.0]),
                         position=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        aligned = align_gt(series, gt)
        assert isinstance(aligned, GroundTruth) and aligned.heading is None
        np.testing.assert_array_equal(aligned.t, series.t)
        np.testing.assert_allclose(aligned.position[0], [0.5, 0.0, 0.0])

    def test_constant_gt(self):
        series = InertialSeries(np.linspace(0.1, 0.9, 5), np.zeros((5, 6)))
        gt = GroundTruth(np.array([0.0, 1.0]), position=np.full((2, 3), 2.0))
        aligned = align_gt(series, gt)
        np.testing.assert_allclose(aligned.position, 2.0)

    def test_heading_shortest_arc(self):
        series = InertialSeries(np.array([0.5]), np.zeros((1, 6)))
        gt = GroundTruth(np.array([0.0, 1.0]),
                         heading=np.deg2rad(np.array([350.0, 10.0])))
        aligned = align_gt(series, gt)
        # midpoint between 350 and 10 degrees is 0, not 180
        assert abs(np.rad2deg(aligned.heading[0])) < 1e-9

    def test_coverage_error(self):
        series = InertialSeries(np.array([0.0, 2.0]), np.zeros((2, 6)))
        gt = GroundTruth(np.array([0.0, 1.0]), position=np.zeros((2, 3)))
        with pytest.raises(CoverageError):
            align_gt(series, gt)


class TestWindowing:
    def test_hand_counts(self):
        assert len(window_starts(360, 120, 60)) == 5
        assert len(window_starts(120, 120, 60)) == 1
        assert len(window_starts(10, 4, 2)) == 4

    def test_count_formula_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = int(rng.integers(1, 200))
            w = int(rng.integers(1, t + 1))
            s = int(rng.integers(1, 20))
            brute = len([i for i in range(0, t, s) if i + w <= t and i % s == 0])
            assert len(window_starts(t, w, s)) == brute

    def test_too_short_series(self):
        with pytest.raises(ShapeError):
            window_starts(3, 4, 1)

    def test_windows_reference_contiguous_runs(self):
        series, _ = synthesize_dataset("sinusoid", duration=1.0, rate=60.0)
        desc = DatasetDescriptor("d", 60.0, 20, 10, "distance_xy")
        windows, starts = make_windows(series, desc)
        assert windows.shape == (5, 6, 20)
        for w, i in zip(windows, starts):
            np.testing.assert_array_equal(w, series.imu[i : i + 20].T)

    def test_windows_regeneration_identical(self):
        series, _ = synthesize_dataset("circle", duration=1.0, rate=60.0)
        desc = DatasetDescriptor("d", 60.0, 20, 10, "distance_xy")
        a, _ = make_windows(series, desc)
        b, _ = make_windows(series, desc)
        np.testing.assert_array_equal(a, b)


def reference_labels(starts, window_size, aligned, target_kind):
    """Per-window loop the vectorized labels must match bit for bit."""
    labels = []
    for i in starts:
        j = i + window_size
        if target_kind == "heading":
            labels.append([aligned.heading[j - 1]])
            continue
        p = aligned.position[i:j, :2]
        if target_kind == "distance_xy":
            labels.append([float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))])
        else:
            labels.append(p[-1] - p[0])
    return np.array(labels, dtype=float)


class TestLabels:
    def test_straight_line_distance(self):
        series, gt = synthesize_dataset("line", duration=2.0, rate=120.0,
                                        params=SynthParams(speed=1.0))
        desc = DatasetDescriptor("d", 120.0, 120, 120, "distance_xy")
        ds = window_dataset(series, gt, desc)
        # 1 m/s for (120-1)/120 s of track inside one window
        np.testing.assert_allclose(ds.labels[:, 0], 119 / 120, atol=1e-9)

    def test_stationary_track(self):
        series = InertialSeries(np.arange(10) / 10.0, np.zeros((10, 6)))
        gt = GroundTruth(np.array([0.0, 1.0]), position=np.full((2, 3), 1.5))
        desc = DatasetDescriptor("d", 10.0, 5, 5, "distance_xy")
        ds = window_dataset(series, gt, desc)
        np.testing.assert_allclose(ds.labels, 0.0, atol=1e-12)

    def test_circle_arc_length(self):
        series, gt = synthesize_dataset("circle", duration=4.0, rate=120.0,
                                        params=SynthParams(radius=2.0, omega=0.8))
        desc = DatasetDescriptor("d", 120.0, 120, 60, "distance_xy")
        ds = window_dataset(series, gt, desc)
        expected = 2.0 * 0.8 * (119 / 120)  # r * omega * window span
        np.testing.assert_allclose(ds.labels[:, 0], expected, rtol=1e-3)

    def test_position_xy_net_displacement(self):
        series, gt = synthesize_dataset("line", duration=2.0, rate=60.0,
                                        params=SynthParams(speed=2.0, heading=np.pi / 2))
        desc = DatasetDescriptor("d", 60.0, 60, 60, "position_xy")
        ds = window_dataset(series, gt, desc)
        np.testing.assert_allclose(ds.labels[0], [0.0, 2.0 * 59 / 60], atol=1e-9)

    def test_heading_label_is_window_end(self):
        series, gt = synthesize_dataset("circle", duration=2.0, rate=60.0)
        desc = DatasetDescriptor("d", 60.0, 30, 30, "heading")
        ds = window_dataset(series, gt, desc)
        aligned = align_gt(series, gt)
        np.testing.assert_allclose(ds.labels[0, 0], aligned.heading[29], atol=1e-9)

    def test_distance_invariant_under_track_rotation(self):
        series, gt = synthesize_dataset("sinusoid", duration=3.0, rate=60.0)
        desc = DatasetDescriptor("d", 60.0, 60, 30, "distance_xy")
        base = window_dataset(series, gt, desc)
        ang = 0.83
        c, s = np.cos(ang), np.sin(ang)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        gt_rot = GroundTruth(gt.t, position=gt.position @ rot.T, heading=gt.heading)
        rotated = window_dataset(series, gt_rot, desc)
        np.testing.assert_allclose(rotated.labels, base.labels, atol=1e-9)

    @pytest.mark.parametrize("target_kind", ["distance_xy", "position_xy", "heading"])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("window", [1, 2, 7, None])
    def test_bitwise_equal_to_loop(self, target_kind, stride, window):
        series, gt = synthesize_dataset("sinusoid", duration=1.0, rate=60.0, gt_rate=25.0)
        window = window or len(series)
        desc = DatasetDescriptor("d", 60.0, window, stride, target_kind)
        ds = window_dataset(series, gt, desc)
        starts = window_starts(len(series), window, stride)
        expected = reference_labels(starts, window, align_gt(series, gt), target_kind)
        assert ds.labels.shape == expected.shape == (len(starts), desc.label_dim)
        np.testing.assert_array_equal(ds.labels, expected)

    @pytest.mark.parametrize("target_kind, gt_kind, message", [
        ("heading", "position", "heading targets requested but no heading GT"),
        ("distance_xy", "heading", "distance_xy targets requested but no position GT"),
        ("position_xy", "heading", "position_xy targets requested but no position GT"),
    ])
    def test_missing_ground_truth(self, target_kind, gt_kind, message):
        series, gt = synthesize_dataset("circle", duration=1.0, rate=60.0)
        gt = GroundTruth(gt.t, **{gt_kind: getattr(gt, gt_kind)})
        desc = DatasetDescriptor("d", 60.0, 20, 10, target_kind)
        with pytest.raises(CoverageError, match=f"^{message}$"):
            window_dataset(series, gt, desc)


class TestSynthesizer:
    def test_line_specific_force_is_gravity_only(self):
        series, _ = synthesize_dataset("line", duration=1.0, rate=100.0)
        expected = np.tile([0.0, 0.0, GRAVITY], (len(series), 1))
        np.testing.assert_allclose(series.imu[:, :3], expected, atol=1e-12)
        np.testing.assert_allclose(series.imu[:, 3:], 0.0, atol=1e-12)

    def test_circle_centripetal_and_yaw_rate(self):
        series, _ = synthesize_dataset("circle", duration=1.0, rate=100.0,
                                       params=SynthParams(radius=1.0, omega=1.0))
        horiz = np.linalg.norm(series.imu[:, :2], axis=1)
        np.testing.assert_allclose(horiz, 1.0, atol=1e-12)
        np.testing.assert_allclose(series.imu[:, 5], 1.0, atol=1e-12)

    def test_seeded_determinism(self):
        a = synthesize_dataset("sinusoid", duration=1.0, rate=60.0,
                               noise_acc=0.1, noise_gyro=0.01, seed=9)
        b = synthesize_dataset("sinusoid", duration=1.0, rate=60.0,
                               noise_acc=0.1, noise_gyro=0.01, seed=9)
        np.testing.assert_array_equal(a[0].imu, b[0].imu)

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            synthesize_dataset("spiral")

    @pytest.mark.parametrize("options, match", [
        ({"params": {"radius": 2.0}}, "params must be SynthParams"),
        ({"duration": 0.0}, "at least 2 samples"),
        ({"duration": -5.0}, "at least 2 samples"),
        ({"rate": 0.0}, "rate > 0"),
        ({"rate": -40.0, "duration": -1.0}, "rate > 0"),
        ({"rate": 1.0, "duration": 1.0}, "at least 2 samples"),
        ({"duration": float("inf")}, "at least 2 samples"),
        ({"gt_rate": 0.0}, "ground-truth rate"),
        ({"gt_rate": -1.0}, "ground-truth rate"),
        ({"noise_acc": -0.1}, "non-negative"),
        ({"noise_gyro": -0.1}, "non-negative"),
    ])
    def test_segment_rejects_degenerate_recording(self, options, match):
        with pytest.raises(ShapeError, match=match):
            SyntheticSegment("circle", **options)
        with pytest.raises(ShapeError, match=match):
            synthesize_dataset("circle", **options)

    def test_two_samples_is_the_shortest_recording(self):
        series, gt = synthesize_dataset("line", duration=1.0, rate=2.0, gt_rate=0.5)
        np.testing.assert_array_equal(series.t, [0.0, 0.5])
        np.testing.assert_array_equal(gt.t, [0.0, 0.5])

    @pytest.mark.parametrize("kind,params", [
        ("circle", SynthParams(radius=2.0, omega=0.7)),
        ("sinusoid", SynthParams(speed=1.5, amplitude=0.8, frequency=1.2)),
    ])
    def test_double_integration_recovers_positions(self, kind, params):
        # ideal accelerations (gravity removed, rotated to the navigation
        # frame via GT heading) must integrate back to the GT track
        rate = 480.0
        series, gt = synthesize_dataset(kind, duration=10.0, rate=rate, params=params)
        psi = align_gt(series, gt).heading
        # headings from align_gt are wrapped; unwrap for a smooth rotation
        psi = np.unwrap(psi)
        c, s = np.cos(psi), np.sin(psi)
        ax = c * series.imu[:, 0] - s * series.imu[:, 1]
        ay = s * series.imu[:, 0] + c * series.imu[:, 1]
        dt = 1.0 / rate
        if kind == "circle":
            v0 = np.array([0.0, params.radius * params.omega])
        else:
            v0 = np.array([params.speed, params.amplitude * params.frequency])
        acc = np.column_stack([ax, ay])
        vel = v0 + np.concatenate(
            [np.zeros((1, 2)), np.cumsum((acc[:-1] + acc[1:]) / 2 * dt, axis=0)]
        )
        pos = gt.position[0, :2] + np.concatenate(
            [np.zeros((1, 2)), np.cumsum((vel[:-1] + vel[1:]) / 2 * dt, axis=0)]
        )
        track = align_gt(series, gt).position[:, :2]
        scale = np.abs(track).max()
        assert np.max(np.linalg.norm(pos - track, axis=1)) < 1e-3 * scale


class TestSeriesInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            InertialSeries(np.array([0.0, 1.0]),
                           np.array([[np.inf, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]))

    def test_strictly_increasing_time(self):
        with pytest.raises(DataError):
            InertialSeries(np.array([0.0, 0.0]), np.zeros((2, 6)))

    def test_gt_needs_some_target(self):
        with pytest.raises(DataError):
            GroundTruth(np.array([0.0]))

    def test_descriptor_validation(self):
        with pytest.raises(ShapeError):
            DatasetDescriptor("d", 120.0, 0, 1, "distance_xy")
        with pytest.raises(ShapeError):
            DatasetDescriptor("d", 120.0, 10, 1, "velocity")

    def test_heading_csv_round_trip(self, tmp_path):
        _, gt = synthesize_dataset("circle", duration=1.0, rate=60.0)
        write_gt_heading_csv(tmp_path / "gt_heading.csv", gt)
        from inertiabench.data import parse_gt_heading_csv

        back = parse_gt_heading_csv(tmp_path / "gt_heading.csv")
        np.testing.assert_array_equal(back.heading, gt.heading)
