#!/usr/bin/env python3
"""Print a SHA-256 of every README command's output, for golden diffs.

Runs each README command in-process through ``braidphase.cli.main``, plus
``verify-algebra --seed 99``, ``ybe --seed 7``, the Wilson loop of the plus
doublet alone and of both doublets at theta = 2.1, of both doublets at
theta = 0.3 and at theta = 1.56 (near the crossing, a level gap of 0.011),
the analytic route of the minus level alone and of the zero level alone at
theta = 0.9 and of the plus level alone over an odd step count at
theta = 2.6, and the README sweep, an
``entangle`` and a ``spectrum`` at phi != 0 (every README command runs at
phi = 0, where R and H are real and complex rounding cannot show), a
``verify-algebra`` over more than one block of 64 angles, a ``ybe`` over
more than two blocks of 64 spectral pairs and a grid of 9 phi values, an
``entangle`` from another input at phi != 0, and an ``entangle`` at the
largest finite angles, where 2 * theta overflows, and prints
one ``sha256  argv`` line per output: the stdout of every command, and the CSV
the sweep writes (to a temporary directory). The package is imported from the
``src`` directory of the checkout this script sits in, so comparing two
checkouts is a plain diff:

    python3 scripts/golden.py > a.txt      # in checkout A
    python3 scripts/golden.py > b.txt      # in checkout B
    diff a.txt b.txt

The bytes also depend on the machine: on the numpy version, on the SIMD
extensions numpy dispatches to and on the core of its bundled OpenBLAS. The
script first prints that fingerprint to stderr, as one line. ``golden.txt``
beside it holds a fingerprint line and then the output on that machine, and
the test suite requires equal bytes wherever the fingerprint matches. It is
written by

    python3 scripts/golden.py > out.txt 2> fingerprint.txt
    cat fingerprint.txt out.txt > scripts/golden.txt

Exit status 0 when every command exited 0 or 1 (a report was printed).
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import os
import shlex
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from braidphase import cli  # noqa: E402

README_COMMANDS = (
    "verify-algebra --phi-samples 17 --seed 0",
    "ybe --samples 50 --phi-samples 5 --seed 0",
    "entangle --theta 0.5236 --phi 0 --input 000",
    "sweep --theta-min 0 --theta-max 3.14159 --steps 121 --out curves.csv",
    "spectrum --theta 1.0472",
    "berry --theta 1.5708 --steps 10000 --method analytic",
    "berry --theta 1.0472 --steps 800 --method wilson --level minus",
)
EXTRA_COMMANDS = (
    "verify-algebra --phi-samples 17 --seed 99",
    "ybe --samples 50 --phi-samples 5 --seed 7",
    "berry --theta 2.1 --steps 800 --method wilson --level plus",
    "berry --theta 2.1 --steps 800 --method wilson --level all",
    "berry --theta 0.3 --steps 800 --method wilson --level all",
    "berry --theta 1.56 --steps 800 --method wilson --level all",
    "berry --theta 0.9 --steps 2000 --method analytic --level minus",
    "berry --theta 0.9 --steps 2000 --method analytic --level zero",
    "berry --theta 2.6 --steps 12345 --method analytic --level plus",
    "sweep --theta-min 0 --theta-max 3.14159 --steps 121 --phi 1.3 --out curves.csv",
    "entangle --theta 0.5236 --phi 0.7 --input 011",
    "spectrum --theta 1.0472 --phi 0.3",
    "verify-algebra --phi-samples 70 --seed 3",
    "entangle --theta 1.2 --phi 2.3 --input 110",
    "ybe --samples 130 --phi-samples 9 --seed 11",
    "entangle --theta 1e308 --phi 1e308",
)


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def simd_found() -> list:
    """The SIMD extensions numpy dispatches to here: the "found" list of
    ``np.show_runtime()``."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [feature for feature in __cpu_dispatch__ if __cpu_features__[feature]]


def fingerprint() -> str:
    """The numpy version, the SIMD "found" list of ``np.show_runtime()`` and
    the core that numpy's bundled OpenBLAS runs ("unknown" without one)."""
    core = "unknown"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return f"# numpy {np.__version__}; simd {' '.join(simd_found()) or 'none'}; openblas {core}"


def outputs():
    """(command, exit code, stdout, CSV text or None) of every command, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        for command in README_COMMANDS + EXTRA_COMMANDS:
            argv = shlex.split(command)
            if "--out" in argv:
                argv[argv.index("--out") + 1] = os.path.join(tmp, "curves.csv")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            csv_text = None
            if "--out" in argv:
                with open(argv[argv.index("--out") + 1], encoding="utf-8",
                          newline="") as fh:
                    csv_text = fh.read()
            yield command, code, stdout.getvalue(), csv_text


def main() -> int:
    print(fingerprint(), file=sys.stderr)
    ok = True
    for command, code, stdout, csv_text in outputs():
        ok &= code in (0, 1)
        print(f"{_sha256(stdout)}  {command}  (exit {code})")
        if csv_text is not None:
            print(f"{_sha256(csv_text)}  {command}  [csv]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
