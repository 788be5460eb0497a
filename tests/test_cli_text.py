"""The CLI's help, usage-error and handler-error text, byte for byte.

``cli_text.json`` beside this file holds, for each argv below, the exit code,
stdout and stderr of ``cli.main`` at ``COLUMNS=80`` (argparse wraps help at
the terminal width), and the Python minor version they were recorded on, as
argparse's wording changes between versions. Every argv ends before a report
is printed: in help, in a usage error, or in a handler's ValueError, so no
number that BLAS or SIMD dispatch could move is part of the text. Rewrite the
snapshot, after checking that a change of text is meant, with

    python3 tests/test_cli_text.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "cli_text.json"
COMMANDS = ("verify-algebra", "ybe", "entangle", "sweep", "spectrum", "berry")
BIG = "1" + "0" * 399  # a 400-digit count: too large for a float

ARGVS = [
    # help, and usage errors of the argv shape
    (), ("frobnicate",), ("--help",), *((command, "--help") for command in COMMANDS),
    ("spectrum",), ("berry", "--theta", "0.7", "extra"), ("verify-algebra", "--seed", "-1"),
    ("entangle", "--theta", "0.5", "--input", "2"),
    ("berry", "--theta", "0.7", "--method", "quadrature"),
    # angles: non-finite, overflowing, non-numeric
    ("entangle", "--theta", "inf"), ("entangle", "--theta=-inf"),
    ("entangle", "--theta", "nan"), ("entangle", "--theta", "1e400"),
    ("entangle", "--theta=-1e400"), ("entangle", "--theta", "0.5", "--phi=-inf"),
    ("entangle", "--theta", "-inf"),  # taken for an option, not a value
    ("spectrum", "--theta", "zero"),
    # tolerances: -0 is >= 0 and accepted, so the run stops at --steps
    ("spectrum", "--theta", "1", "--tol", "inf"), ("spectrum", "--theta", "1", "--tol", "nan"),
    ("spectrum", "--theta", "1", "--tol=-1e-300"),
    ("spectrum", "--theta", "1", "--tol=-inf"), ("ybe", "--tol", "1e400"),
    ("berry", "--theta", "0.7", "--tol", "-0", "--steps", "99"),
    # counts and seeds: a 400-digit count is refused by the upper bound, not
    # by an overflow, and a count padded with whitespace is accepted
    ("ybe", "--samples", BIG, "--phi-samples", "0"),
    ("verify-algebra", "--phi-samples", "-" + BIG), ("ybe", "--samples", "1.5"),
    ("ybe", "--samples", "inf"), ("verify-algebra", "--seed", "nan"),
    ("verify-algebra", "--seed", "1e400"), ("ybe", "--samples", " 3 ", "--phi-samples", " 0 "),
    ("berry", "--theta", " 0.7 ", "--steps", "99"),
    # the handlers' own checks
    ("sweep", "--theta-min", "1", "--theta-max", "0", "--steps", "3"),
    ("sweep", "--theta-min", "0", "--theta-max", "1", "--steps", "1"),
    ("sweep", "--theta-min", "-1e308", "--theta-max", "1e308", "--steps", "3",
     "--format", "json"),
    ("berry", "--theta", "0.7", "--method", "wilson", "--level", "zero"),
]


def record(argvs=ARGVS):
    """[argv, exit code, stdout, stderr] of ``cli.main`` for each argv."""
    from braidphase import cli

    rows = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        rows.append([list(argv), code, out.getvalue(), err.getvalue()])
    return rows


def python_minor() -> str:
    return "%d.%d" % sys.version_info[:2]


def test_text_matches_snapshot(monkeypatch):
    snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    if snapshot["python"] != python_minor():
        pytest.skip(f"recorded on Python {snapshot['python']}, this is {python_minor()}")
    monkeypatch.setenv("COLUMNS", "80")
    here = record()
    assert [row[0] for row in here] == [row[0] for row in snapshot["rows"]]
    for row, recorded in zip(here, snapshot["rows"]):
        assert row == recorded
    assert all(code == 2 and out == "" and len(err.splitlines()) == 1
               for _, code, out, err in here if code != 0)


if __name__ == "__main__":
    sys.path.insert(0, str(SNAPSHOT.parent.parent / "src"))
    os.environ["COLUMNS"] = "80"
    SNAPSHOT.write_text(json.dumps({"python": python_minor(), "rows": record()},
                                   indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
