"""Fresh-interpreter probe: import braidphase.cli, run one pass, report.

Reads ``{"src": ..., "argvs": [...]}`` as JSON on stdin and prints one JSON
line: the perf_counter reading right after the import (CLOCK_MONOTONIC, so
the parent can subtract the time it spawned this process), then for each
verdict its seconds, its reference-kernel scale (each kernel sample the
median of KERNEL_RUNS runs) and its exit code and hashes, and the peak RSS.
An empty argv list only imports. Run by perfbench/run.py with PYTHONPATH set
to src.
"""

import time

import braidphase.cli

IMPORTED = time.perf_counter()

import json  # noqa: E402  (imported after the timed import on purpose)
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402
import verdict  # noqa: E402

KERNEL_RUNS = 3


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(braidphase.cli.__file__).startswith(src + os.sep):
        print(f"braidphase imported from {braidphase.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    # no kernel runs before the first verdict: the pass must find the process cold
    clock = reference.Clock(baseline=False, runs=KERNEL_RUNS)
    pairs = verdict.run_pass(braidphase.cli.main, job["argvs"], clock)
    print(json.dumps({
        "imported": IMPORTED,
        "verdict_s": [v.seconds for v, _ in pairs],
        "verdict_scale": [scale for _, scale in pairs],
        "verdicts": [[v.exit_code, v.stdout_sha256, v.csv_sha256] for v, _ in pairs],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
