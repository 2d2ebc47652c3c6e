"""Host-speed sampler: scales measured times to one fixed host speed.

The benchmark runs on a few cores of a shared host, and how fast a core runs
depends on what the host's other tenants do at the time: the same ``bench``
invocation takes up to twice as long in a busy minute as in a quiet one, and
each core changes speed on its own, every few seconds.  A run that only
reports the invocation times therefore mostly measures the host.

``HostSpeed`` starts one sampler process per usable CPU, pinned to it.
Every ``PERIOD_S`` a sampler wakes and does a fixed unit of work (a
pure-Python loop and a few small GEMMs with tanh, single-threaded, as in an
LSTM step), timing it in its own CPU time, so that time spent waiting for
the CPU does not count.  A unit takes about ``REFERENCE_UNIT_S`` on a quiet
core; on a busy host it takes longer, in step with the program running
beside it.  The samplers use about 3% of each CPU, which counts in the
measured times the same way on every commit.  ``speed_scaled`` then
reads a list of times at the host speed where a unit takes
``REFERENCE_UNIT_S``:

    mean(times) * REFERENCE_UNIT_S / mean(units timed while they ran)

A change to the program moves it in proportion; a busy host moves it much
less than it moves the raw times.

Run as a program (``calibrate.py --sample CPU``) this module is one sampler:
it samples until SIGTERM, then prints its samples as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

# One unit's CPU time on a quiet core of a 2-vCPU Intel Xeon VM with numpy
# 2.4 and OpenBLAS, which puts scaled times near that machine's raw times.
# Only ratios between runs on one machine mean anything.
REFERENCE_UNIT_S = 0.0015
PERIOD_S = 0.05
_LOOP_STEPS = 6_000
_GEMM_STEPS = 5


def _unit(x, w) -> float:
    """CPU seconds of one fixed unit of work."""
    start = time.thread_time()
    acc = 0
    for i in range(_LOOP_STEPS):
        acc += i & 7
    for _ in range(_GEMM_STEPS):
        z = np.tanh(x @ w)
    elapsed = time.thread_time() - start
    if acc != _LOOP_STEPS // 8 * 28 or not np.isfinite(z).all():
        raise RuntimeError("host-speed unit computed a wrong result")
    return elapsed


def _sample(cpu: int):
    os.sched_setaffinity(0, {cpu})
    rng = np.random.default_rng(cpu)
    x, w = rng.standard_normal((64, 128)), rng.standard_normal((128, 256))
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    parent = os.getppid()
    while not stop and os.getppid() == parent:  # never outlive the benchmark
        time.sleep(PERIOD_S)
        samples.append((time.monotonic(), _unit(x, w)))
    if stop:
        print(json.dumps(samples))


class HostSpeed:
    """Samples every usable CPU's speed while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic time, unit CPU s)
        self._procs: list[subprocess.Popen] = []

    def __enter__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                self._procs.append(subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), "--sample", str(cpu)], env=env,
                    stdout=subprocess.PIPE, text=True))
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc):
        self._stop()
        return False

    def _stop(self):
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            try:
                out, _ = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                continue
            if proc.returncode == 0 and out.strip():
                self.samples += [tuple(s) for s in json.loads(out)]
        self._procs = []

    def during(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Unit times sampled inside any of the (start, end) intervals."""
        return [u for t, u in self.samples if any(a <= t <= b for a, b in intervals)]


def speed_scaled(values: list[float], units: list[float]) -> float:
    """Mean of ``values`` at the host speed where a unit takes REFERENCE_UNIT_S."""
    return statistics.fmean(values) * REFERENCE_UNIT_S / statistics.fmean(units)


if __name__ == "__main__" and sys.argv[1:2] == ["--sample"]:
    _sample(int(sys.argv[2]))
