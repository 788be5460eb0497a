"""The scripts run from a plain checkout: no installed package, no PYTHONPATH."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import golden  # noqa: E402

# Relative to max(1, |v|), the bound on how far a golden report value may move
# at numpy's baseline dispatch with OpenBLAS's Prescott core; the largest move
# measured, on an AVX-512 Xeon with numpy 2.4.6, is 8.9e-16 (13 of the 25
# golden outputs change bytes).
DISPATCH_BOUND = 2e-15


def run_script(name, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", ["verify_system.py", "golden.py"])
def test_script_exits_zero(tmp_path, name):
    done = run_script(name, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    if name == "golden.py":
        # the hashes are a contract on the machine whose fingerprint golden.txt
        # records; golden.py prints its own fingerprint first on stderr
        recorded, expected = (SCRIPTS / "golden.txt").read_text().split("\n", 1)
        here = done.stderr.splitlines()[0]
        if here != recorded:
            pytest.skip(f"golden.txt was recorded on {recorded!r}, this is {here!r}")
        assert done.stdout == expected


def test_entanglement_curves_writes_csv(tmp_path):
    out = tmp_path / "curves.csv"
    done = run_script("entanglement_curves.py", "--out", str(out), "--steps", "7",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(out.read_text().splitlines()) == 1 + 7
    assert "GHZ point" in done.stdout


def assert_close(here, there, where):
    """Equal structure, strings and booleans; numbers within DISPATCH_BOUND."""
    if isinstance(here, dict):
        assert sorted(here) == sorted(there), where
        for key in here:
            assert_close(here[key], there[key], f"{where}.{key}")
    elif isinstance(here, list):
        assert len(here) == len(there), where
        for k, (a, b) in enumerate(zip(here, there)):
            assert_close(a, b, f"{where}[{k}]")
    elif isinstance(here, (int, float)) and not isinstance(here, bool):
        assert abs(here - there) <= DISPATCH_BOUND * max(1.0, abs(here)), (where, here, there)
    else:
        assert here == there, where


def test_golden_values_hold_at_baseline_dispatch_and_another_blas_core():
    # one subprocess with every SIMD target numpy found here disabled and
    # OpenBLAS on its Prescott core: the same exit codes and gates, and values
    # within the bound, of every golden command
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_CORETYPE="Prescott",
               NPY_DISABLE_CPU_FEATURES=" ".join(golden.simd_found()))
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import golden; "
            "json.dump(list(golden.outputs()), sys.stdout)")
    done = subprocess.run([sys.executable, "-c", code, str(SCRIPTS)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    there = json.loads(done.stdout)
    here = list(golden.outputs())
    assert [row[:2] for row in there] == [list(row[:2]) for row in here]
    for (command, _, out, csv_text), (_, _, out_there, csv_there) in zip(here, there):
        report, report_there = json.loads(out), json.loads(out_there)
        assert report["passes"] == report_there["passes"], command
        assert_close(report, report_there, command)
        if csv_text is not None:
            rows = [[float(v) for v in line.split(",")] for line in csv_text.splitlines()[1:]]
            rows_there = [[float(v) for v in line.split(",")]
                          for line in csv_there.splitlines()[1:]]
            assert_close(rows, rows_there, command + " [csv]")
