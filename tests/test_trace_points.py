"""The benchmark's layer trace still finds every name it patches.

``perfbench/spans.py`` wraps package functions and methods at the names
where their callers look them up, and its FLOP counters read layer
attributes.  A refactor that moves one of those names, or that takes the
runs out of the process the tracer patched, would otherwise break only the
benchmark.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from inertiabench.cli import main as cli_main
from inertiabench.kernels import BiLSTM, Conv1d, ConvSpec

from test_cli import TINY_CONFIG

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # run the source directly, so that no bytecode cache is written beside it
    exec(compile(SPANS_PATH.read_text(), SPANS_PATH, "exec"), vars(module))
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, path, name", spans.POINTS,
                         ids=[f"{m}.{p}" for m, p, _ in spans.POINTS])
def test_point_is_callable_in_its_owner(module, path, name):
    owner, attr = spans.resolve(module, path)
    # the lookup Tracer._wrap makes: the owner's own namespace, not a base class
    assert callable(vars(owner).get(attr)), f"{module}.{path} ({name})"


def test_flop_counters_read_layer_shapes():
    b, t = 2, 7
    conv = Conv1d(ConvSpec(6, 4, 3, 2))
    gout = conv.forward(np.ones((b, 6, t)))
    assert (conv.spec.in_channels, conv.spec.kernel) == (6, 3)
    flop = 2 * b * 4 * 6 * 3 * gout.shape[2]
    assert spans.FLOP["kernels.conv.fwd"]((conv, None), gout) == flop
    assert spans.FLOP["kernels.conv.bwd"]((conv, gout), None) == 2 * flop

    lstm = BiLSTM(5, 3)
    x = np.ones((b, 5, t))
    assert (lstm.input_size, lstm.hidden_size) == (5, 3)
    one_direction = 2 * b * 4 * 3 * (5 + 3) * t
    assert spans.FLOP["kernels.bilstm.fwd"]((lstm, x), None) == 2 * one_direction
    assert spans.FLOP["kernels.bilstm.bwd"]((lstm, x), None) == 4 * one_direction


TRACED_CONFIG = dict(TINY_CONFIG, suite={"repetitions": 2, "base_seed": 5}, techniques=[
    {"kind": "baseline"}, {"kind": "head3"},
    {"kind": "preprocess", "steps": [{"op": "denoise", "window": 5}]}])


def test_traced_suite_matches_the_plain_one(tmp_path):
    # the benchmark's traced run: every point patched, the runs in this process
    config = tmp_path / "suite.json"
    config.write_text(json.dumps(TRACED_CONFIG))
    argv = ["bench", "--config", str(config), "--out-dir"]
    assert cli_main(argv + [str(tmp_path / "plain")]) == 0
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli_main(argv + [str(tmp_path / "traced")]) == 0
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "traced" / "report.json").read_bytes() == plain

    m = spans.layer_metrics(tracer.dump())
    assert m["runner.runs"] == 6
    assert m["runner.load_calls"] == 1
    assert m["runner.load_reuse"] == 1.0
    assert m["model.train_steps"] > 0
    assert spans.step_parts_ms(m) == pytest.approx(m["model.step_ms"], rel=1e-9)
