"""Benchmark of the braidphase verifier, driven the way its users drive it.

    python3 perfbench/run.py --workload wilson-loop --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. One
client in one process calls ``braidphase.cli.main(argv)`` in a closed loop:
the next verdict starts only when the previous one returned. A pass is one
run of the workload's argv list (perfbench/workloads.py), drawn from --seed.

Every time is in reference seconds (perfbench/reference.py): measured
seconds scaled by a fixed kernel run between measurements, so that the
drifting speed of a shared machine cancels out.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
untraced and traced passes alternately and reports the per-layer metrics
(perfbench/spans.py) and the tracing overhead. Earlier stdout lines are for
people: machine facts, each argv with its exit code and stdout SHA-256, and
every metric with its unit. The last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Full results, and in a
traced run the spans of its first traced pass, go to perfbench/out/.
Why the workloads and metrics are what they are: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import verdict
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh-interpreter probes. setup_s is the median over SETUP_PROBES that only
# import, each scaled by a reference import spawned next to it. first_pass_s and peak_rss_mb are medians over probes that import
# and run one pass: at least PASS_PROBES_MIN, then more until
# PASS_PROBES_BUDGET_S of probing has elapsed, at most PASS_PROBES_MAX.
SETUP_PROBES = 9
PASS_PROBES_MIN, PASS_PROBES_MAX, PASS_PROBES_BUDGET_S = 3, 9, 8.0
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it


def machine_facts() -> dict:
    load = os.getloadavg()
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_at_start": list(load),
    }


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class Checker:
    """Judges each verdict and tallies failures and byte drift.

    A verdict fails when it exits other than 0 or its stdout is not strict
    JSON valid against the shipped run_report.schema.json. Its output is
    wrong (``correct`` becomes false) when the exit code is not 0/1 or does
    not match ``passed``, when a closed form recomputed from the argv
    disagrees with the report, or when its bytes differ from the reference
    pass of the same argv.
    """

    def __init__(self):
        import jsonschema

        with open(SRC / "braidphase" / "schemas" / "run_report.schema.json",
                  encoding="utf-8") as fh:
            self._schema = jsonschema.Draft7Validator(json.load(fh))
        self._invalid = jsonschema.ValidationError
        self.reference: dict = {}  # argv -> (exit, stdout sha, csv sha)
        self.attempted = self.failed = 0
        self.compared = self.drifted = 0
        self.problems: list = []

    def judge(self, v: verdict.Verdict, counted: bool = True) -> None:
        problems = []
        valid_json = False
        if v.exit_code not in (0, 1):
            problems.append(f"exit {v.exit_code}: {v.stderr.strip()[:200]}")
        else:
            try:
                report = json.loads(v.stdout, parse_constant=_reject_constant)
                self._schema.validate(report)
                valid_json = True
            except ValueError as exc:  # json errors are ValueErrors
                problems.append(f"stdout is not strict JSON: {exc}")
            except self._invalid as exc:
                problems.append(f"stdout fails the schema: {exc.message[:200]}")
            if valid_json:
                if report["passed"] != (v.exit_code == 0):
                    problems.append(f"exit {v.exit_code} but passed={report['passed']}")
                try:
                    problems += workloads.check_report(v.argv, report)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    problems.append(f"report lacks a checked value: {exc!r}")
        if v.csv is not None:
            problems += workloads.check_csv(v.argv, v.csv)
        self.observe(v.argv, (v.exit_code, v.stdout_sha256, v.csv_sha256))
        if counted:
            self.attempted += 1
            self.failed += v.exit_code != 0 or not valid_json
        self.problems += [f"{' '.join(v.argv)}: {p}" for p in problems]

    def observe(self, argv: list, outcome: tuple) -> None:
        """Compare one verdict's (exit, hashes) with the reference for its argv."""
        key = tuple(argv)
        if key not in self.reference:
            self.reference[key] = tuple(outcome)
            return
        self.compared += 1
        if self.reference[key] != tuple(outcome):
            self.drifted += 1
            self.problems.append(f"{' '.join(argv)}: output bytes differ between passes")

    def ratios(self) -> dict:
        return {"failed_ratio": self.failed / max(self.attempted, 1),
                "nondeterministic_ratio": self.drifted / max(self.compared, 1)}


def spawn(args: list, stdin: str = "") -> tuple:
    """Run a fresh interpreter from the checkout root with src on its path.

    Returns its last stdout line and the perf_counter reading just before
    the spawn (CLOCK_MONOTONIC, so it compares with readings in the child).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return done.stdout.strip().splitlines()[-1], start


def probe(argvs: list) -> dict:
    """A fresh interpreter that imports braidphase.cli and runs one pass."""
    line, start = spawn([str(HERE / "child.py")],
                        json.dumps({"src": str(SRC), "argvs": argvs}))
    result = json.loads(line)
    result["setup_s"] = result["imported"] - start
    result["first_pass_s"] = sum(
        s * k for s, k in zip(result["verdict_s"], result["verdict_scale"]))
    return result


def setup_sample() -> float:
    """One import of braidphase.cli, in reference seconds."""
    line, start = spawn(["-c", reference.REFERENCE_IMPORT])
    numpy_s = float(line) - start
    return probe([])["setup_s"] * reference.REFERENCE_IMPORT_S / numpy_s


def run_pass(main, argvs: list, checker: Checker, clock: reference.Clock,
             counted: bool = True) -> tuple:
    """One pass: (reference seconds, measured seconds) spent inside main."""
    scaled = measured = 0.0
    for v, scale in verdict.run_pass(main, argvs, clock):
        checker.judge(v, counted)
        scaled += v.seconds * scale
        measured += v.seconds
    return scaled, measured


def tail(samples: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; up to 2*TAIL_BEYOND samples that is not above the median, so
    the median is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(cli, argvs: list, seconds: float, checker: Checker, report: dict) -> dict:
    setup_sample()  # compiles bytecode and warms the file cache; not counted
    imports = [setup_sample() for _ in range(SETUP_PROBES)]
    probes = []
    start = time.perf_counter()
    while len(probes) < PASS_PROBES_MIN or (
            len(probes) < PASS_PROBES_MAX
            and time.perf_counter() - start < PASS_PROBES_BUDGET_S):
        probes.append(probe(argvs))

    clock = reference.Clock()
    run_pass(cli.main, argvs, checker, clock, counted=False)  # warm-up: the reference bytes
    for p in probes:
        for argv, outcome in zip(argvs, p["verdicts"]):
            checker.observe(argv, outcome)

    passes, raw = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        scaled, measured = run_pass(cli.main, argvs, checker, clock)
        passes.append(scaled)
        raw.append(measured)

    tail_s, tail_pct = tail(passes)
    report.update(probes=probes, setup_samples_s=imports, passes_s=passes,
                  raw_passes_s=raw, kernel_s=clock.kernel_s, tail_percentile=tail_pct)
    return {
        "setup_s": (statistics.median(imports), "s"),
        "first_pass_s": (statistics.median(p["first_pass_s"] for p in probes), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "pass_s_tail": (tail_s, "s"),
        "verdicts_per_s": (len(argvs) * len(passes) / sum(passes), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in probes) / 1024, "MB"),
    }


def per_layer(cli, argvs: list, seconds: float, checker: Checker, report: dict) -> dict:
    import braidphase

    clock = reference.Clock()
    run_pass(cli.main, argvs, checker, clock, counted=False)  # warm-up: the reference bytes
    tracer = spans.Tracer()
    traced_main = tracer.wrap(cli.main, spans.VERDICT)
    plain, traced, per_pass, first_spans = [], [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(cli.main, argvs, checker, clock)[0])
        tracer.reset()
        tracer.install(braidphase)
        try:
            scaled, measured = run_pass(traced_main, argvs, checker, clock)
        finally:
            tracer.uninstall()
        traced.append(scaled)
        # self times scale by the pass's mean factor; they are per-layer only
        scale = scaled / measured
        calls, self_s = spans.self_times(tracer.spans)
        per_pass.append((calls, {k: v * scale for k, v in self_s.items()}, len(tracer.phis)))
        if first_spans is None:
            first_spans = tracer.spans

    metrics = {}
    for name in spans.span_names():
        counts = [calls.get(name, 0) for calls, _, _ in per_pass]
        if len(set(counts)) != 1:
            checker.problems.append(f"{name}: calls differ between passes {sorted(set(counts))}")
        metrics[f"{name}.calls"] = (statistics.mean(counts), "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s.get(name, 0.0) for _, s, _ in per_pass), "s")
    builds = sum(calls.get("braid.build_braidset", 0) for calls, _, _ in per_pass)
    distinct = sum(phis for _, _, phis in per_pass)
    # with no calls nothing was rebuilt in vain
    metrics["braid.build_braidset.useful_ratio"] = (distinct / builds if builds else 1.0, "ratio")
    for name, value in checker.ratios().items():
        metrics[name] = (value, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")

    other = sorted({n for calls, _, _ in per_pass for n in calls}
                   - set(spans.span_names()) - {spans.VERDICT})
    report.update(untraced_passes_s=plain, traced_passes_s=traced,
                  kernel_s=clock.kernel_s, unlisted_spans=other)
    with open(OUT / f"spans-{report['workload']}-seed{report['seed']}.json", "w",
              encoding="utf-8") as fh:
        json.dump(spans.to_records(first_spans), fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "braidphase" / "__init__.py").is_file():
        print(f"error: no braidphase package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    facts = machine_facts()
    OUT.mkdir(exist_ok=True)
    argvs = workloads.argv_list(args.workload, args.seed, str(OUT / "curves.csv"))

    sys.path.insert(0, str(SRC))
    import braidphase.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: braidphase imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    checker = Checker()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts}
    measure = per_layer if args.trace else end_to_end
    metrics = measure(cli, argvs, args.seconds, checker, report)

    report["verdicts"] = [
        {"argv": list(key), "exit": ref[0], "stdout_sha256": ref[1], "csv_sha256": ref[2]}
        for key, ref in checker.reference.items()]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["problems"] = checker.problems
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("machine: " + json.dumps(facts))
    for row in report["verdicts"]:
        print(f"verdict exit={row['exit']} stdout_sha256={row['stdout_sha256']}"
              f"{' csv_sha256=' + row['csv_sha256'] if row['csv_sha256'] else ''}"
              f" argv={' '.join(row['argv'])}")
    print(f"reference kernel: median {statistics.median(report['kernel_s']):.5f} s "
          f"over {len(report['kernel_s'])} runs, REFERENCE_S {reference.REFERENCE_S} s")
    if not args.trace:
        print(f"passes n={len(report['passes_s'])}, probes n={len(report['probes'])}, "
              f"pass_s_tail at p{report['tail_percentile']:.1f}, "
              f"measured pass median {statistics.median(report['raw_passes_s']):.4f} s")
    for problem in checker.problems[:20]:
        print(f"problem: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
