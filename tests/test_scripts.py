"""The scripts run from a plain checkout: no installed package, no PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
