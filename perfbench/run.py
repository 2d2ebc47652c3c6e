"""Suite benchmark for inertiabench: wall time, set-up time and memory of
``inertiabench bench`` on generated workloads, plus an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stock-suite --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

The benchmark writes the workload's inputs from ``--seed`` into
``.perfbench_work/``, then runs one ``bench`` invocation after another, each
in a fresh interpreter with ``PYTHONPATH=src`` and ``INERTIA_BENCH_WORKERS``
unset (one worker), until ``--seconds`` are used up.  Every invocation's
report is checked; for the reference seed each (technique, seed) RMSE must
match ``reference.json``.

``--trace 0`` reports the mean ``suite_s`` and ``setup_s``, both scaled to a
fixed host speed by the host-speed samplers of ``calibrate.py``, which run
beside the invocations, and the median ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of ``spans.layer_metrics`` (medians over traced
invocations) and ``trace.overhead_pct``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the failed-run share.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from calibrate import REFERENCE_UNIT_S, HostSpeed, speed_scaled
from spans import layer_metrics, step_parts_ms, unit
from workloads import CONFIG_NAME, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

REFERENCE_SEED = 0
# A rounding-level kernel rewrite moves 1-epoch RMSEs by about 1e-15 relative.
REFERENCE_RTOL = 1e-9
REPORT_KEYS = {"name", "spec", "rmse_runs", "mean", "std", "improvement_pct",
               "failed_runs"}
CHILD_TIMEOUT_S = 150
# set-up takes ~0.2 s, so each invocation is preceded by this many
# set-up-only interpreters to give its mean more samples
EXTRA_SETUPS = 1
UNITS = {"suite_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}  # end-to-end metrics


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "INERTIA_BENCH_WORKERS": os.environ.get("INERTIA_BENCH_WORKERS"),
        "commit": git_commit(ROOT),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("INERTIA_BENCH_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(work: Path, out_dir: str, spans: str | None = None,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), CONFIG_NAME, out_dir]
    if spans:
        cmd.append(spans)
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bench child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# correctness


def check_report(workload, suite: dict, data: bytes, reference: dict | None):
    """Check one report.json the way criterion 4 does.

    Returns (runs attempted, runs failed, problems).  A structural problem
    fails every run of the invocation; otherwise a run fails when it is
    missing, not finite and positive, or (with ``reference``) off its
    reference RMSE by more than ``REFERENCE_RTOL``.
    """
    reps = suite["repetitions"]
    attempted = len(workload.names) * reps
    try:
        doc = json.loads(data)
    except ValueError:
        return attempted, attempted, ["report.json is not valid JSON"]
    problems = []
    if doc.get("suite") != suite:
        problems.append(f"suite section {doc.get('suite')} != {suite}")
    techniques = doc.get("techniques", [])
    names = [t.get("name") for t in techniques]
    if names != list(workload.names):
        problems.append(f"technique names {names}")
    for t in techniques:
        if set(t) != REPORT_KEYS:
            problems.append(f"'{t.get('name')}' has keys {sorted(t)}")
    if not problems and techniques[0]["improvement_pct"] != 0.0:
        problems.append("baseline improvement_pct is not 0.0")
    if problems:
        return attempted, attempted, problems
    failed = 0
    for t in techniques:
        runs = t["rmse_runs"]
        ok = [isinstance(v, float) and math.isfinite(v) and v > 0 for v in runs]
        if reference is not None:
            want = reference[t["name"]]
            ok = [good and i < len(want) and math.isclose(v, want[i], rel_tol=REFERENCE_RTOL)
                  for i, (v, good) in enumerate(zip(runs, ok))]
        bad = reps - sum(ok)
        if bad:
            problems.append(f"'{t['name']}': {bad} of {reps} runs failed the check "
                            f"(failed_runs={t['failed_runs']})")
        failed += bad
    return attempted, failed, problems


def load_reference(workload: str) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text())["workloads"].get(workload)


# ---------------------------------------------------------------------------
# measurement


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run invocations for ``seconds``; returns samples, checks and layer metrics."""
    suite = json.loads((work / CONFIG_NAME).read_text())
    reference = load_reference(workload.name) if seed == REFERENCE_SEED else None
    if reference is None:
        print(f"check: seed {seed} has no reference RMSEs; checking names, keys, "
              "finite RMSEs and no failed runs only")
    else:
        print(f"check: RMSEs against reference.json (seed {seed}, rtol {REFERENCE_RTOL:g})")

    run_child(work, "", setup_only=True)  # byte-compiles the package
    plain, traced, layers = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    first_report = None
    need = 2 if trace else 3
    walls, setups, busy = [], [], []
    deadline = time.monotonic() + seconds
    host = HostSpeed()
    with contextlib.nullcontext() if trace else host:
        while True:
            i = len(plain) + len(traced)
            use_trace = trace and i % 2 == 1
            out = f"out-{i}"
            spans_file = f"spans-{i}.json" if use_trace else None
            started = time.monotonic()
            setups += [run_child(work, "", setup_only=True)["setup_s"]
                       for _ in range(0 if trace else EXTRA_SETUPS)]
            result = run_child(work, out, spans=spans_file)
            setups.append(result["setup_s"])
            busy.append((started, time.monotonic()))
            walls.append(busy[-1][1] - started)
            report = (work / out / "report.json").read_bytes()
            a, f, p = check_report(workload, suite["suite"], report, reference)
            if result["exit_code"] != 0:
                p.append(f"bench exited {result['exit_code']}")
                f = a
            if first_report is None:
                first_report = report
            elif report != first_report:
                p.append("report.json differs from the first invocation's bytes")
                f = a
            attempted, failed = attempted + a, failed + f
            problems += p
            if use_trace:
                dump = json.loads((work / spans_file).read_text())
                m = layer_metrics(dump)
                parts = step_parts_ms(m)
                if abs(parts - m["model.step_ms"]) > 0.03 * m["model.step_ms"]:
                    raise RuntimeError(f"per-step self times sum to {parts:.3f} ms but the "
                                       f"traced step is {m['model.step_ms']:.3f} ms")
                layers.append(m)
                traced.append(result)
            else:
                plain.append(result)
            shutil.rmtree(work / out)
            done = len(plain) >= need and (not trace or len(traced) >= need)
            if done and time.monotonic() + statistics.median(walls) > deadline:
                break
    return {"plain": plain, "traced": traced, "layers": layers, "setups": setups,
            "units": host.during(busy), "attempted": attempted, "failed": failed,
            "problems": problems}


def summarize(workload: str, res: dict, trace: bool) -> dict:
    metrics = {}
    if trace:
        for name in res["layers"][0]:
            metrics[name] = statistics.median(m[name] for m in res["layers"])
        plain = statistics.median(r["suite_s"] for r in res["plain"])
        tr = statistics.median(r["suite_s"] for r in res["traced"])
        metrics["trace.overhead_pct"] = (tr / plain - 1.0) * 100.0
        print(f"{workload}: {len(res['traced'])} traced and {len(res['plain'])} untraced "
              f"invocations; trace overhead {metrics['trace.overhead_pct']:+.2f}%")
        print("  FLOP counts are computed from layer shapes (GEMM terms), not measured")
        for name, value in metrics.items():
            print(f"  {name:34s} {value:.6g}")
        return metrics
    units = res["units"]
    print(f"{workload}  host-speed unit mean {statistics.fmean(units) * 1e3:.4f} ms over "
          f"{len(units)} samples; times below are scaled by {REFERENCE_UNIT_S * 1e3} ms / that")
    for name in ("suite_s", "setup_s"):
        values = res["setups"] if name == "setup_s" else [r[name] for r in res["plain"]]
        metrics[name] = speed_scaled(values, units)
        print(f"{workload}  {name:12s} {metrics[name]:10.4f} s    mean of {len(values)} "
              f"(raw mean {statistics.fmean(values):.4f}, min {min(values):.4f}, "
              f"max {max(values):.4f})")
    rss = [r["peak_rss_mb"] for r in res["plain"]]
    metrics["peak_rss_mb"] = statistics.median(rss)
    print(f"{workload}  peak_rss_mb  {metrics['peak_rss_mb']:10.4f} MiB  median of {len(rss)} "
          f"(min {min(rss):.4f}, max {max(rss):.4f})")
    return metrics


@contextlib.contextmanager
def workdir(name: str, seed: int):
    """A fresh directory holding one workload's inputs, removed afterwards."""
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORKLOADS[name].write(seed, work)
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with workdir(name, seed) as work:
        res = measure(WORKLOADS[name], seed, seconds, trace, work)
    metrics = summarize(name, res, trace)
    share = res["failed"] / res["attempted"]
    print(f"{name}  failed_run_share {share:.4f} ({res['failed']} of "
          f"{res['attempted']} runs)")
    for problem, times in Counter(res["problems"]).items():
        print(f"  check failed in {times} invocation(s): {problem}")
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": UNITS.get(k) or unit(k)}
                        for k, v in metrics.items()}}


def record_reference(name: str):
    """Write the reference RMSEs of ``name`` at the reference seed."""
    with workdir(name, REFERENCE_SEED) as work:
        run_child(work, "out")
        report = (work / "out" / "report.json").read_bytes()
        suite = json.loads((work / CONFIG_NAME).read_text())["suite"]
    _, failed, problems = check_report(WORKLOADS[name], suite, report, None)
    if failed:
        raise RuntimeError(f"reference run failed its check: {problems}")
    doc = (json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists()
           else {"seed": REFERENCE_SEED, "workloads": {}})
    doc["workloads"][name] = {t["name"]: t["rmse_runs"]
                              for t in json.loads(report)["techniques"]}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"recorded reference RMSEs for {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json for the workload at the reference seed")
    args = parser.parse_args(argv)
    # a terminated run still stops its samplers and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "inertiabench" / "__init__.py").is_file():
        print(f"error: no inertiabench package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.record_reference:
        for name in names:
            record_reference(name)
        return 0

    print("env: " + json.dumps(environment(), sort_keys=True))
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
