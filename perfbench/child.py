"""One measured ``inertiabench bench`` invocation in a fresh interpreter.

Usage: child.py CONFIG OUT_DIR [SPANS_JSON] [--setup-only]

The package must be importable (``PYTHONPATH`` names the checkout's ``src``).
The clock for ``setup_s`` starts before ``import inertiabench`` and stops once
the suite config is parsed.  ``suite_s`` times ``cli.main(["bench", ...])``.
With SPANS_JSON the invocation runs under the layer tracer and its spans are
written there.  The last line of stdout is a JSON object with the timings,
the exit code and ``peak_rss_mb`` (this process's ``ru_maxrss``).
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    setup_only = "--setup-only" in argv
    args = [a for a in argv if a != "--setup-only"]
    config, out_dir = args[0], args[1]
    spans_path = args[2] if len(args) > 2 else None

    import inertiabench  # noqa: F401
    from inertiabench.runner import load_suite_config

    load_suite_config(config)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if not setup_only:
        from inertiabench.cli import main as cli_main

        tracer = None
        if spans_path:
            from spans import Tracer

            tracer = Tracer()
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            code = cli_main(["bench", "--config", config, "--out-dir", out_dir])
            result["suite_s"] = time.perf_counter() - start
        result["exit_code"] = code
        if tracer:
            with open(spans_path, "w") as fh:
                json.dump(tracer.dump(), fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
