"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import CONFIG_NAME, STOCK_NAMES, WORKLOADS  # noqa: E402

from inertiabench.cli import main as cli_main  # noqa: E402


def _originals():
    return [vars(owner)[attr] for owner, attr in
            (spans.resolve(module, path) for module, path, _ in spans.POINTS)]


def test_tracer_restores_every_patched_name():
    before = _originals()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = _originals()
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(a is b for a, b in zip(before, after))


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run_id": 1}


def test_self_time_is_span_minus_children():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.leaf", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("c", 8.0, 12.0, parent=0),  # overlaps b and outlasts its parent
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_step_parts_add_up_to_the_traced_step():
    # one step: train 0..10 ms holds fwd 1..5 (conv 1..3) and bwd 6..9 (bilstm 6..8)
    ms = 1e-3
    tree = [
        _span(spans.TRAIN, 0 * ms, 10 * ms),
        _span("model.fwd", 1 * ms, 5 * ms, parent=0),
        _span("kernels.conv.fwd", 1 * ms, 3 * ms, parent=1),
        _span("model.bwd", 6 * ms, 9 * ms, parent=0),
        _span("kernels.bilstm.bwd", 6 * ms, 8 * ms, parent=3),
    ]
    m = spans.layer_metrics({"spans": tree, "counts": {}})
    assert m["model.train_steps"] == 1
    assert m["kernels.conv.fwd_ms"] == pytest.approx(2.0)
    assert m["kernels.bilstm.bwd_ms"] == pytest.approx(2.0)
    assert m["model.self_ms"] == pytest.approx(6.0)
    assert spans.step_parts_ms(m) == pytest.approx(m["model.step_ms"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_identical_for_a_seed(name, tmp_path):
    write = WORKLOADS[name].write
    write(3, tmp_path / "a")
    write(3, tmp_path / "b")
    write(4, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert CONFIG_NAME in files
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / CONFIG_NAME).read_bytes() != (tmp_path / "c" / CONFIG_NAME).read_bytes()


def _shrink_inputs(path):
    doc = json.loads((path / CONFIG_NAME).read_text())
    doc["dataset"]["synthetic"] = [dict(s, duration=6.0)
                                   for s in doc["dataset"].get("synthetic", [])]
    doc["model"].update(conv_filters=4, lstm_hidden=4, fc_width=8)
    (path / CONFIG_NAME).write_text(json.dumps(doc))
    for csv in path.glob("*.csv"):
        csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:4001]))


@pytest.mark.parametrize("name", ["stock-suite", "csv-prep"])
def test_tracing_changes_no_output_and_reports_every_layer_metric(name, tmp_path,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)  # the config names its CSV files relative to it
    WORKLOADS[name].write(0, tmp_path)
    _shrink_inputs(tmp_path)
    config = str(tmp_path / CONFIG_NAME)
    assert cli_main(["bench", "--config", config, "--out-dir", str(tmp_path / "plain")]) == 0
    tracer = spans.Tracer()
    with tracer.installed():
        assert cli_main(["bench", "--config", config, "--out-dir", str(tmp_path / "traced")]) == 0
    plain = (tmp_path / "plain" / "report.json").read_bytes()
    assert (tmp_path / "traced" / "report.json").read_bytes() == plain

    m = spans.layer_metrics(json.loads(json.dumps(tracer.dump())))
    runs = len(WORKLOADS[name].names)
    assert m["runner.runs"] == m["runner.load_calls"] == runs
    assert m["runner.load_reuse"] == pytest.approx(1 / runs)
    assert {s["run_id"] for s in tracer.spans if s["name"] == spans.RUN} == set(range(1, runs + 1))
    assert (m["data.rows_parsed"] > 0) == (name == "csv-prep")
    assert abs(spans.step_parts_ms(m) - m["model.step_ms"]) <= 1e-6 * m["model.step_ms"]

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {e["name"]: e["unit"] for e in bench["per_layer"]}
    assert set(m) | {"trace.overhead_pct"} == set(declared)
    assert all(spans.unit(n) == u for n, u in declared.items())
    assert {e["name"]: e["unit"] for e in bench["end_to_end"]} == run.UNITS


def _report(rmse_by_name, failed=0):
    return json.dumps({
        "suite": {"base_seed": 5, "repetitions": 1},
        "techniques": [
            {"name": n, "spec": {}, "rmse_runs": r, "mean": None, "std": None,
             "improvement_pct": 0.0, "failed_runs": failed}
            for n, r in rmse_by_name.items()
        ],
    }).encode()


def test_check_report_counts_failed_and_mismatched_runs():
    w = WORKLOADS["stock-suite"]
    suite = {"base_seed": 5, "repetitions": 1}
    good = {n: [0.5] for n in STOCK_NAMES}
    assert run.check_report(w, suite, _report(good), None) == (10, 0, [])
    assert run.check_report(w, suite, _report(good), good)[:2] == (10, 0)

    missing = dict(good, head2=[])
    assert run.check_report(w, suite, _report(missing, failed=1), None)[:2] == (10, 1)
    off = dict(good, head3=[0.5 * (1 + 1e-6)])
    assert run.check_report(w, suite, _report(off), good)[:2] == (10, 1)
    renamed = {("x" if n == "baseline" else n): v for n, v in good.items()}
    assert run.check_report(w, suite, _report(renamed), None)[:2] == (10, 10)


def test_speed_scaling_cancels_a_uniformly_slower_host():
    quiet = calibrate.speed_scaled([4.0, 5.0], [0.40, 0.50])
    busy = calibrate.speed_scaled([8.0, 10.0], [0.80, 1.00])  # everything twice as slow
    assert quiet == pytest.approx(busy) == pytest.approx(4.5 * calibrate.REFERENCE_UNIT_S / 0.45)
    # a program twice as slow on the same host reads twice as slow
    assert calibrate.speed_scaled([8.0, 10.0], [0.40, 0.50]) == pytest.approx(2 * quiet)


def test_host_speed_samples_every_cpu_and_stops_its_samplers():
    with calibrate.HostSpeed() as host:
        procs = list(host._procs)
        time.sleep(1.5)
        inside = (time.monotonic() - 1.0, time.monotonic())
    assert all(p.returncode == 0 for p in procs)
    assert len(procs) == len(os.sched_getaffinity(0))
    units = host.during([inside])
    assert len(units) >= len(procs) * 5
    assert all(0 < u < 1 for u in units)
    assert host.during([(0.0, 1.0)]) == []
