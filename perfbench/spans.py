"""Outside-in layer trace of one ``inertiabench bench`` invocation.

``Tracer`` wraps the package's public functions and methods at the names
where their callers look them up (``runner.train_model`` in the runner's
namespace, ``BiLSTM.forward`` on the class) and records one in-memory span
``{name, start, end, parent, run_id}`` per call.  ``run_id`` numbers the
(technique, seed) runs of the suite.  Nothing inside the package changes;
``restore`` puts every original object back.

``layer_metrics`` turns the spans into the per-layer table.  A span's self
time is its duration minus the part of it that its child spans cover.
Kernel, loss and model-glue times are per training step and count only the
calls made while training; ``*_s`` times are totals for the whole suite.
FLOP counts are computed from the layer shapes of each call (GEMM terms
only), not measured by hardware counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

KERNELS = ("conv", "relu", "pool", "bilstm", "dropout", "dense")
_KERNEL_CLASSES = {"conv": "Conv1d", "relu": "ReLU", "pool": "MaxPool1d",
                   "bilstm": "BiLSTM", "dropout": "Dropout", "dense": "Dense"}

TRAIN = "runner.train"
RUN = "runner.run"


def _conv_fwd_flop(args, result):
    layer = args[0]
    b, f, t_out = result.shape
    return 2 * b * f * layer.spec.in_channels * layer.spec.kernel * t_out


def _conv_bwd_flop(args, result):
    # weight gradient and input gradient: two GEMMs the size of the forward
    layer, gout = args[0], args[1]
    b, f, t_out = gout.shape
    return 4 * b * f * layer.spec.in_channels * layer.spec.kernel * t_out


def _lstm_gemm(layer, b, t):
    # one direction, one step: z = x @ wx.T + h @ wh.T, (b, 4h) outputs
    h, i = layer.hidden_size, layer.input_size
    return 2 * b * 4 * h * (i + h) * t


def _bilstm_fwd_flop(args, result):
    b, _, t = args[1].shape
    return 2 * _lstm_gemm(args[0], b, t)


def _bilstm_bwd_flop(args, result):
    # per direction: gwx, gwh, gx and dh, twice the forward GEMMs
    b, _, t = args[1].shape
    return 4 * _lstm_gemm(args[0], b, t)


# Computed FLOPs of one call, by span name.
FLOP = {"kernels.conv.fwd": _conv_fwd_flop, "kernels.conv.bwd": _conv_bwd_flop,
        "kernels.bilstm.fwd": _bilstm_fwd_flop, "kernels.bilstm.bwd": _bilstm_bwd_flop}

# (module, attribute path, span name); the owner is the module, or the class
# named before the last dot.
POINTS = [
    ("cli", "load_suite_config", "cli.config"),
    ("cli", "run_suite", "runner.suite"),
    ("cli", "emit_outputs", "runner.emit"),
    ("runner", "run_experiment", RUN),
    ("runner", "prepare_run", "runner.prepare"),
    ("runner", "load_recordings", "runner.load"),
    ("runner", "synthesize_dataset", "data.synth"),
    ("runner", "parse_imu_csv", "data.parse"),
    ("runner", "parse_gt_pos_csv", "data.parse"),
    ("runner", "parse_gt_heading_csv", "data.parse"),
    ("runner", "window_dataset", "data.window"),
    ("runner", "moving_average", "preprocessing.denoise"),
    ("runner", "fit_channel_stats", "preprocessing.normalize"),
    ("runner", "apply_channel_stats", "preprocessing.normalize"),
    ("runner", "detrend_linear", "preprocessing.detrend"),
    ("runner", "add_measurement_noise", "preprocessing.add_noise"),
    ("runner", "apply_augmentation", "augmentation"),
    ("runner", "train_model", TRAIN),
    ("runner", "metric_rmse", "runner.metric"),
    ("model", "compute_loss", "losses"),
    ("model", "InertialRegressor.forward", "model.fwd"),
    ("model", "InertialRegressor.backward", "model.bwd"),
    ("model", "InertialRegressor.predict", "model.predict"),
    ("kernels", "Adam.step", "kernels.adam.step"),
] + [
    ("kernels", f"{cls}.{method}", f"kernels.{kernel}.{short}")
    for kernel, cls in _KERNEL_CLASSES.items()
    for method, short in (("forward", "fwd"), ("backward", "bwd"))
]


def resolve(module: str, path: str):
    """(owner object, attribute name) for one trace point."""
    owner = importlib.import_module(f"inertiabench.{module}")
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counts around the package's public entry points."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._recordings: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._runs = 0

    def _wrap(self, owner, attr: str, name: str):
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if name == RUN:
                tracer._runs += 1
                run_id = tracer._runs
            else:
                run_id = tracer.spans[parent]["run_id"] if parent is not None else None
            span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                    "run_id": run_id}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            tracer._count(name, args, result, span)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _count(self, name, args, result, span):
        if name in FLOP:
            span["flop"] = FLOP[name](args, result)
        if name == "data.parse":
            self.counts["data.rows_parsed"] += len(result.t)
        elif name == "data.window":
            self.counts["data.windows_made"] += len(result)
        elif name == "augmentation":
            self.counts["augmentation.windows_added"] += len(result) - len(args[0])
        elif name == "runner.load":
            self._recordings.add(repr(args[0]))
            self.counts["runner.distinct_recordings"] = len(self._recordings)

    def install(self):
        try:
            for module, path, name in POINTS:
                self._wrap(*resolve(module, path), name)
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered, reach = 0.0, lo
        for c in sorted(children[i], key=lambda c: spans[c]["start"]):
            start = max(spans[c]["start"], reach)
            end = min(spans[c]["end"], hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def _in_train(spans: list[dict]) -> list[bool]:
    # parents always precede their children in recording order
    flags = []
    for span in spans:
        p = span["parent"]
        flags.append(p is not None and (spans[p]["name"] == TRAIN or flags[p]))
    return flags


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced suite from ``Tracer.dump()`` output."""
    spans, counts = dump["spans"], dump["counts"]
    own = self_times(spans)
    train = _in_train(spans)
    dur = [s["end"] - s["start"] for s in spans]

    def total(name, values=dur, in_train=None):
        return sum(v for v, s, t in zip(values, spans, train)
                   if s["name"] == name and (in_train is None or t == in_train))

    def calls(name, in_train=None):
        return sum(1 for s, t in zip(spans, train)
                   if s["name"] == name and (in_train is None or t == in_train))

    steps = calls("model.fwd", in_train=True)
    if steps == 0:
        raise ValueError("trace holds no training step")
    per_step = 1e3 / steps
    m = {}
    for k in KERNELS:
        for d in ("fwd", "bwd"):
            m[f"kernels.{k}.{d}_ms"] = total(f"kernels.{k}.{d}", own, True) * per_step
    m["kernels.adam.step_ms"] = total("kernels.adam.step", own, True) * per_step
    for k in ("conv", "bilstm"):
        names = (f"kernels.{k}.fwd", f"kernels.{k}.bwd")
        flop = sum(s.get("flop", 0) for s, t in zip(spans, train)
                   if s["name"] in names and t)
        busy = sum(total(n, own, True) for n in names)
        m[f"kernels.{k}.gflop_per_step"] = flop / steps / 1e9
        m[f"kernels.{k}.gflops"] = flop / busy / 1e9
    m["model.fwd_ms"] = total("model.fwd", in_train=True) * per_step
    m["model.bwd_ms"] = total("model.bwd", in_train=True) * per_step
    m["model.self_ms"] = (total("model.fwd", own, True) + total("model.bwd", own, True)
                          + total(TRAIN, own)) * per_step
    m["model.step_ms"] = total(TRAIN) * per_step
    m["model.predict_ms"] = total("model.predict") / max(calls("model.predict"), 1) * 1e3
    m["model.train_steps"] = steps
    m["losses.ms"] = total("losses", own, True) * per_step
    m["data.synth_s"] = total("data.synth")
    m["data.parse_s"] = total("data.parse")
    m["data.window_s"] = total("data.window")
    m["data.rows_parsed"] = counts.get("data.rows_parsed", 0)
    m["data.windows_made"] = counts.get("data.windows_made", 0)
    for step in ("denoise", "normalize", "detrend", "add_noise"):
        m[f"preprocessing.{step}_s"] = total(f"preprocessing.{step}")
    m["augmentation.s"] = total("augmentation")
    m["augmentation.windows_added"] = counts.get("augmentation.windows_added", 0)
    m["runner.prepare_s"] = total("runner.prepare")
    m["runner.train_s"] = total(TRAIN)
    m["runner.eval_s"] = total("model.predict", in_train=False) + total("runner.metric")
    m["runner.emit_s"] = total("runner.emit")
    m["runner.runs"] = calls(RUN)
    m["runner.load_calls"] = calls("runner.load")
    m["runner.load_reuse"] = (counts.get("runner.distinct_recordings", 0)
                              / max(m["runner.load_calls"], 1))
    m["cli.config_s"] = total("cli.config")
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in (("ms", "ms"), ("_s", "s"), (".s", "s"), ("gflop_per_step", "GFLOP"),
                      ("gflops", "GFLOP/s"), ("_pct", "%"), ("_reuse", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def step_parts_ms(metrics: dict[str, float]) -> float:
    """Sum of the per-step self times the trace attributes inside a step."""
    kernel = sum(metrics[f"kernels.{k}.{d}_ms"] for k in KERNELS for d in ("fwd", "bwd"))
    return kernel + metrics["kernels.adam.step_ms"] + metrics["losses.ms"] + metrics["model.self_ms"]
