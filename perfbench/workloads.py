"""Workloads of the braidphase benchmark: argv lists drawn from a seed, and
independent checks of the reports they produce.

A pass is one run of a workload's full argv list; each argv is one verdict.
The program sees only the argv, never the seed. Why each workload exists is
recorded in perfbench/README.md.
"""

from __future__ import annotations

import math
import random

WILSON_README = ["berry", "--theta", "1.0472", "--steps", "800",
                 "--method", "wilson", "--level", "minus"]
SWEEP_README = ["sweep", "--theta-min", "0", "--theta-max", "3.14159",
                "--steps", "121"]
BASIS_LABELS = ("000", "001", "010", "011", "100", "101", "110", "111")

# Tolerances the README documents for each claim.
TOL_WILSON = 1e-4
TOL_ANALYTIC = 1e-5
TOL_SPECTRUM = 1e-10
TOL_ENTANGLE = 1e-9


def _angle(x: float) -> str:
    return f"{x:.4f}"


def _wilson_loop(rng: random.Random, csv_path: str) -> list:
    # The doublet gap closes at theta = pi/2, where the command refuses
    # (exit 3) by design, so stay 0.22 rad or more away from it. Jacobi work
    # per solve drops by up to a quarter towards theta = 0 and pi; the band
    # keeps the cost of a pass nearly independent of the seed.
    theta = rng.uniform(0.80, 1.35)
    if rng.random() < 0.5:
        theta = math.pi - theta
    level = rng.choice(("minus", "plus"))
    return [WILSON_README,
            ["berry", "--theta", _angle(theta), "--steps", "800",
             "--method", "wilson", "--level", level]]


def _algebra_ybe(rng: random.Random, csv_path: str) -> list:
    return [["verify-algebra", "--phi-samples", "17",
             "--seed", str(rng.randrange(2**31))],
            ["ybe", "--samples", "50", "--phi-samples", "5",
             "--seed", str(rng.randrange(2**31))]]


def _entangle_sweep(rng: random.Random, csv_path: str) -> list:
    return [SWEEP_README + ["--phi", _angle(rng.uniform(0, 2 * math.pi)),
                            "--out", csv_path],
            ["entangle", "--theta", _angle(rng.uniform(0, math.pi)),
             "--phi", _angle(rng.uniform(0, 2 * math.pi)),
             "--input", rng.choice(BASIS_LABELS)],
            ["spectrum", "--theta", _angle(rng.uniform(0, math.pi)),
             "--phi", _angle(rng.uniform(0, 2 * math.pi))],
            ["berry", "--theta", _angle(rng.uniform(0, math.pi)),
             "--steps", "10000", "--method", "analytic"]]


WORKLOADS = {
    "wilson-loop": _wilson_loop,
    "algebra-ybe": _algebra_ybe,
    "entangle-sweep": _entangle_sweep,
}


def argv_list(workload: str, seed: int, csv_path: str) -> list:
    """The workload's argv list for ``seed``; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed), csv_path)


def _flag(argv: list, name: str, default=None) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _circular(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def _berry_phase(level: str, theta: float) -> float:
    # gamma = +-pi(1 - cos theta): half the solid angle, + on the minus level
    sign = {"zero": 0.0, "minus": 1.0, "plus": -1.0}[level]
    return sign * math.pi * (1 - math.cos(theta))


def check_report(argv: list, report: dict) -> list:
    """Problems found by recomputing the paper's closed forms from the argv.

    Only values that a closed form fixes are checked, each at the tolerance
    the README documents; everything else rests on schema and byte checks.
    """
    command = argv[0]
    problems = []
    if command == "berry":
        theta = float(_flag(argv, "--theta"))
        tol = TOL_WILSON if _flag(argv, "--method") == "wilson" else TOL_ANALYTIC
        for rep in report["results"]["reports"]:
            expected = _berry_phase(rep["level"], theta)
            worst = max(_circular(p, expected) for p in rep["phases"])
            if worst > tol:
                problems.append(f"{rep['level']} phase off by {worst:.3g}")
    elif command == "spectrum":
        theta = float(_flag(argv, "--theta"))
        scale = float(_flag(argv, "--phidot", "1")) * float(_flag(argv, "--hbar", "1"))
        e = scale * math.cos(theta)
        expected = sorted([0.0] * 4 + [e, e, -e, -e])
        worst = max(abs(a - b) for a, b in
                    zip(sorted(report["results"]["eigenvalues"]), expected))
        if worst > TOL_SPECTRUM:
            problems.append(f"eigenvalues off by {worst:.3g}")
    elif command == "entangle":
        theta = float(_flag(argv, "--theta"))
        s, c = math.sin(theta), math.cos(theta)
        tau = 16 * math.sqrt(3) * abs(s * c ** 3) / 9
        c2 = (8 / 9) * c * c * (1 + 2 * s * s)
        res = report["results"]
        worst = max(abs(res["tau_abc"] - tau), abs(res["c2_a_bc"] - c2))
        if worst > TOL_ENTANGLE:
            problems.append(f"tangle/one-vs-rest off by {worst:.3g}")
    return problems


def check_csv(argv: list, text: str) -> list:
    """Problems with the sweep CSV: header, row count and the theta grid."""
    lines = text.splitlines()
    steps = int(_flag(argv, "--steps"))
    if not lines or not lines[0].startswith("theta,") or len(lines) != steps + 1:
        return [f"sweep CSV has {len(lines)} lines, expected header + {steps} rows"]
    lo, hi = float(_flag(argv, "--theta-min")), float(_flag(argv, "--theta-max"))
    for k, line in enumerate(lines[1:]):
        theta = float(line.split(",", 1)[0])
        if abs(theta - (lo + (hi - lo) * k / (steps - 1))) > 1e-12:
            return [f"sweep CSV row {k} has theta {theta}"]
    return []
