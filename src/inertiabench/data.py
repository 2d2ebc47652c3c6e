"""Dataset ingestion, ground-truth alignment, windowing and synthesis.

The canonical on-disk formats are plain CSV:

* ``imu.csv``       header ``t,fx,fy,fz,wx,wy,wz`` (s, m/s^2, rad/s)
* ``gt_pos.csv``    header ``t,px,py,pz`` (s, m)
* ``gt_heading.csv`` header ``t,yaw`` (s, rad)

Floats are written with Python's shortest round-tripping repr, so a
write/parse cycle reproduces the in-memory values bit-exactly.

The header is read with ``csv`` rules and the rows, streamed, by
``np.loadtxt``, which gives the bits Python's ``float`` gives (but reads no
``1_000``).  Fields may be ``"``-quoted, blank lines are skipped and lines
end in ``\n``, ``\r\n`` or ``\r``.  A malformed row is a ParseError naming
its file line.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CoverageError, DataError, ParseError, ShapeError

CHANNELS = ("fx", "fy", "fz", "wx", "wy", "wz")
GRAVITY = 9.80665

TARGET_GT = {"distance_xy": "position", "position_xy": "position", "heading": "heading"}
TRAJECTORY_KINDS = ("line", "circle", "sinusoid")


@dataclass
class InertialSeries:
    """Timestamped 6-channel IMU stream; ``imu`` is (N, 6) in channel order
    fx, fy, fz, wx, wy, wz."""

    t: np.ndarray
    imu: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.imu = np.asarray(self.imu, dtype=float)
        if self.imu.ndim != 2 or self.imu.shape != (self.t.size, 6):
            raise ShapeError(f"imu must be ({self.t.size}, 6), got {self.imu.shape}")
        if self.t.size == 0:
            raise DataError("series has no samples")
        if not (np.all(np.isfinite(self.t)) and np.all(np.isfinite(self.imu))):
            raise DataError("series contains non-finite values")
        if self.t.size > 1 and np.any(np.diff(self.t) <= 0):
            raise DataError("timestamps are not strictly increasing")

    def __len__(self):
        return self.t.size


@dataclass
class GroundTruth:
    """Reference track: positions (N, 3) and/or heading (N,) vs time."""

    t: np.ndarray
    position: np.ndarray | None = None
    heading: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        if self.position is None and self.heading is None:
            raise DataError("ground truth needs position or heading")
        if self.t.size == 0:
            raise DataError("ground truth has no samples")
        if self.position is not None:
            self.position = np.asarray(self.position, dtype=float)
            if self.position.shape != (self.t.size, 3):
                raise ShapeError(f"position must be ({self.t.size}, 3)")
        if self.heading is not None:
            self.heading = np.asarray(self.heading, dtype=float)
            if self.heading.shape != (self.t.size,):
                raise ShapeError(f"heading must be ({self.t.size},)")
        if not all(np.all(np.isfinite(a)) for a in (self.t, self.position, self.heading)
                   if a is not None):
            raise DataError("ground truth contains non-finite values")
        if self.t.size > 1 and np.any(np.diff(self.t) <= 0):
            raise DataError("ground-truth timestamps are not strictly increasing")


@dataclass(frozen=True)
class DatasetDescriptor:
    name: str
    sampling_rate: float
    window_size: int
    stride: int
    target_kind: str

    def __post_init__(self):
        if self.window_size < 1 or self.stride < 1 or not 0 < self.sampling_rate < np.inf:
            raise ShapeError(f"invalid descriptor: {self}")
        if self.target_kind not in TARGET_GT:
            raise ShapeError(f"unknown target kind '{self.target_kind}'")

    @property
    def label_dim(self) -> int:
        return 2 if self.target_kind == "position_xy" else 1


@dataclass
class WindowedDataset:
    """Fixed-length windows (M, 6, W) with labels (M, L)."""

    windows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.windows.shape[0] != self.labels.shape[0]:
            raise ShapeError("window/label count mismatch")

    def __len__(self):
        return self.windows.shape[0]


# ---------------------------------------------------------------------------
# CSV I/O


def _parse_csv(path, header: tuple[str, ...]) -> np.ndarray:
    with open(path, newline="") as fh:
        try:
            got = next(csv.reader(fh))
        except StopIteration:
            raise ParseError("empty file") from None
        except csv.Error as exc:  # e.g. a field over csv's size limit
            raise ParseError(str(exc), line=1) from None
        if [c.strip() for c in got] != list(header):
            raise ParseError(f"expected header {','.join(header)}, got {','.join(got)}", line=1)
        # np.loadtxt warns on an empty body, so the blank lines before the
        # first row are skipped here and the loader starts at that row
        first = next((line for line in fh if line not in ("\n", "\r\n", "\r")), None)
        if first is None:
            raise ParseError("no data rows")
        try:
            data = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None,
                              quotechar='"', ndmin=2)
        except ValueError as exc:
            raise _bad_row(path, len(header), str(exc)) from None
    if data.shape[1] != len(header):  # every row has the same wrong width
        raise _bad_row(path, len(header), f"expected {len(header)} fields, got {data.shape[1]}")
    return data


def _bad_row(path, width: int, reason: str) -> ParseError:
    """The ParseError for a body ``np.loadtxt`` rejected: it names the file
    line of the first row that ``csv`` and ``float`` do not read as ``width``
    numbers, or, if there is none (``1_000``), carries numpy's ``reason``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, already checked
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    return ParseError(f"expected {width} fields, got {len(row)}",
                                      line=reader.line_num)
                try:
                    for v in row:
                        float(v)
                except ValueError:
                    return ParseError(f"non-numeric field in {row}", line=reader.line_num)
        except csv.Error as exc:
            return ParseError(str(exc), line=reader.line_num)
    return ParseError(reason)


def parse_imu_csv(path) -> InertialSeries:
    data = _parse_csv(path, ("t",) + CHANNELS)
    return InertialSeries(t=data[:, 0], imu=data[:, 1:])


def parse_gt_pos_csv(path) -> GroundTruth:
    data = _parse_csv(path, ("t", "px", "py", "pz"))
    return GroundTruth(t=data[:, 0], position=data[:, 1:])


def parse_gt_heading_csv(path) -> GroundTruth:
    data = _parse_csv(path, ("t", "yaw"))
    return GroundTruth(t=data[:, 0], heading=data[:, 1])


def _write_csv(path, header, columns):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_imu_csv(path, series: InertialSeries):
    _write_csv(path, ("t",) + CHANNELS, [series.t] + [series.imu[:, i] for i in range(6)])


def write_gt_pos_csv(path, gt: GroundTruth):
    if gt.position is None:
        raise DataError("ground truth has no positions")
    _write_csv(path, ("t", "px", "py", "pz"), [gt.t] + [gt.position[:, i] for i in range(3)])


def write_gt_heading_csv(path, gt: GroundTruth):
    if gt.heading is None:
        raise DataError("ground truth has no heading")
    _write_csv(path, ("t", "yaw"), [gt.t, gt.heading])


# ---------------------------------------------------------------------------
# alignment and windowing


def check_coverage(series: InertialSeries, gt: GroundTruth) -> None:
    """Raise CoverageError unless ``gt`` spans every IMU timestamp."""
    t = series.t
    if t[0] < gt.t[0] or t[-1] > gt.t[-1]:
        raise CoverageError(
            f"IMU time range [{t[0]}, {t[-1]}] outside ground truth "
            f"[{gt.t[0]}, {gt.t[-1]}]"
        )


def align_gt(series: InertialSeries, gt: GroundTruth) -> GroundTruth:
    """Interpolate ground truth at every IMU timestamp.

    Positions interpolate linearly per axis; heading interpolates along the
    shortest arc on the circle.
    """
    check_coverage(series, gt)
    t = series.t
    position = heading = None
    if gt.position is not None:
        position = np.column_stack([np.interp(t, gt.t, gt.position[:, i]) for i in range(3)])
    if gt.heading is not None:
        yaw = np.interp(t, gt.t, np.unwrap(gt.heading))
        heading = np.mod(yaw + np.pi, 2 * np.pi) - np.pi
    return GroundTruth(t, position, heading)


def window_starts(n_samples: int, window_size: int, stride: int) -> np.ndarray:
    if n_samples < window_size:
        raise ShapeError(f"series length {n_samples} < window size {window_size}")
    count = (n_samples - window_size) // stride + 1
    return np.arange(count) * stride


def make_windows(series: InertialSeries, descriptor: DatasetDescriptor):
    """Slice the series into (M, 6, W) windows; returns (windows, starts)."""
    w, s = descriptor.window_size, descriptor.stride
    starts = window_starts(len(series), w, s)
    return sliding_window_view(series.imu, w, axis=0)[starts], starts


def window_dataset(series: InertialSeries, gt: GroundTruth,
                   descriptor: DatasetDescriptor) -> WindowedDataset:
    """Full windowing pipeline: align, slice, label.

    ``distance_xy`` is the traveled arc length of the planar track inside the
    window, ``position_xy`` the net planar displacement (end - start), and
    ``heading`` the heading at the window's last sample.
    """
    aligned = align_gt(series, gt)
    windows, starts = make_windows(series, descriptor)
    w, kind = descriptor.window_size, descriptor.target_kind
    ends = starts + w - 1
    track = getattr(aligned, TARGET_GT[kind])
    if track is None:
        raise CoverageError(f"{kind} targets requested but no {TARGET_GT[kind]} GT")
    if kind == "heading":
        labels = track[ends, None]
    elif kind == "position_xy":
        labels = track[ends, :2] - track[starts, :2]
    else:
        steps = np.linalg.norm(np.diff(track[:, :2], axis=0), axis=1)
        labels = sliding_window_view(steps, w - 1)[starts].sum(axis=1, keepdims=True)
    return WindowedDataset(windows, labels)


# ---------------------------------------------------------------------------
# synthetic trajectories


def check_stds(*stds: float) -> None:
    """Raise ShapeError unless every noise std is finite and >= 0 (NaN is not)."""
    if not all(0 <= std < np.inf for std in stds):
        raise ShapeError(f"noise stds must be finite and non-negative, got {list(stds)}")


def add_sensor_noise(x: np.ndarray, sigma_acc: float, sigma_gyro: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian IMU noise to ``x`` in place and return ``x``.

    Axis 1 holds the six channels of an (N, 6) series or (M, 6, W) windows;
    the accelerometer values are drawn first, then the gyro values."""
    check_stds(sigma_acc, sigma_gyro)
    x[:, :3] += rng.normal(0.0, sigma_acc, x[:, :3].shape)
    x[:, 3:] += rng.normal(0.0, sigma_gyro, x[:, 3:].shape)
    return x


@dataclass(frozen=True)
class SynthParams:
    """Parameters for the analytic planar trajectory generator."""

    speed: float = 1.0  # line / sinusoid forward speed, m/s
    heading: float = 0.0  # line heading, rad
    radius: float = 1.0  # circle radius, m
    omega: float = 1.0  # circle angular rate, rad/s
    amplitude: float = 1.0  # sinusoid lateral amplitude, m
    frequency: float = 0.5  # sinusoid angular frequency, rad/s

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not abs(value) < np.inf:  # false for NaN too
                raise ShapeError(f"trajectory parameter {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class SyntheticSegment:
    """One synthetic recording: a trajectory, its sampling and sensor noise."""

    kind: str
    duration: float = 60.0  # s
    rate: float = 120.0  # IMU rate, Hz
    gt_rate: float | None = None  # ground-truth rate, Hz; None is the IMU rate
    params: SynthParams = field(default_factory=SynthParams)
    noise_acc: float = 0.0  # accelerometer noise std, m/s^2
    noise_gyro: float = 0.0  # gyro noise std, rad/s
    seed: int = 0  # noise seed

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ShapeError(f"unknown trajectory kind {self.kind!r}")
        if not isinstance(self.params, SynthParams):
            raise ShapeError(f"params must be SynthParams, got {self.params!r}")
        n = self.duration * self.rate  # samples; a CSV recording also needs 2
        if not (self.rate > 0 and np.isfinite(n) and round(n) >= 2):
            raise ShapeError(f"a recording needs a rate > 0 and at least 2 samples, got "
                             f"{self.duration} s at {self.rate} Hz")
        if self.gt_rate is not None:  # GT keeps every (rate / gt_rate)-th sample
            k = self.rate / self.gt_rate if self.gt_rate > 0 else 0.0
            if not (1 - 1e-9 <= k < np.inf and abs(k - round(k)) <= 1e-9 * k):
                raise ShapeError(f"ground-truth rate must divide the IMU rate {self.rate} Hz "
                                 f"a whole number of times, got {self.gt_rate}")
        check_stds(self.noise_acc, self.noise_gyro)
        if self.seed < 0:
            raise ShapeError(f"noise seed must be >= 0, got {self.seed}")


@np.errstate(over="ignore", invalid="ignore")
def synthesize_dataset(kind: str, **options) -> tuple[InertialSeries, GroundTruth]:
    """Generate an analytic planar trajectory with exact ground truth.

    ``options`` are the other fields of ``SyntheticSegment``, which checks
    them and holds their defaults.  The body frame is yaw-aligned with the
    velocity direction; specific force includes the gravity reaction
    [0, 0, g].  Optional Gaussian sensor noise is drawn from ``seed``.
    Kinematics that overflow become inf or NaN, which ``InertialSeries`` or
    ``GroundTruth`` rejects with a DataError.
    """
    seg = SyntheticSegment(kind, **options)
    p, rate = seg.params, seg.rate
    n = int(round(seg.duration * rate))
    t = np.arange(n) / rate

    if kind == "line":
        c, s = np.cos(p.heading), np.sin(p.heading)
        pos = np.column_stack([p.speed * t * c, p.speed * t * s])
        acc = np.zeros((n, 2))
        psi = np.full(n, p.heading)
        psi_dot = np.zeros(n)
    elif kind == "circle":
        th = p.omega * t
        pos = p.radius * np.column_stack([np.cos(th), np.sin(th)])
        vel = p.radius * p.omega * np.column_stack([-np.sin(th), np.cos(th)])
        # numpy's power overflows to inf where a float's raises; both call C pow
        acc = -p.radius * np.float64(p.omega)**2 * np.column_stack([np.cos(th), np.sin(th)])
        psi = np.arctan2(vel[:, 1], vel[:, 0])
        psi_dot = np.full(n, p.omega)
    else:  # sinusoid
        w = np.float64(p.frequency)
        pos = np.column_stack([p.speed * t, p.amplitude * np.sin(w * t)])
        vel = np.column_stack(
            [np.full(n, p.speed), p.amplitude * w * np.cos(w * t)]
        )
        acc = np.column_stack(
            [np.zeros(n), -p.amplitude * w**2 * np.sin(w * t)]
        )
        psi = np.arctan2(vel[:, 1], vel[:, 0])
        sq = vel[:, 0] ** 2 + vel[:, 1] ** 2
        # at rest (|v| = 0) the heading is constant, so its rate is 0
        psi_dot = np.divide(vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0], sq,
                            out=np.zeros(n), where=sq > 0)

    # rotate navigation-frame planar acceleration into the (yaw-only) body frame
    cp, sp = np.cos(psi), np.sin(psi)
    f_bx = cp * acc[:, 0] + sp * acc[:, 1]
    f_by = -sp * acc[:, 0] + cp * acc[:, 1]
    imu = np.column_stack(
        [f_bx, f_by, np.full(n, GRAVITY), np.zeros(n), np.zeros(n), psi_dot]
    )

    if seg.noise_acc > 0 or seg.noise_gyro > 0:  # adding 0.0 turns a -0.0 force to +0.0
        add_sensor_noise(imu, seg.noise_acc, seg.noise_gyro, np.random.default_rng(seg.seed))

    series = InertialSeries(t=t, imu=imu)

    step = round(rate / (seg.gt_rate or rate))
    idx = np.arange(0, n, step)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)  # GT must span the IMU range
    gt = GroundTruth(
        t=t[idx],
        position=np.column_stack([pos[idx], np.zeros(idx.size)]),
        heading=np.mod(psi[idx] + np.pi, 2 * np.pi) - np.pi,
    )
    return series, gt
