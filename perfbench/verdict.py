"""One verdict: an in-process ``braidphase.cli.main(argv)`` call, timed, with
its stdout (and the sweep CSV, if the argv writes one) captured and hashed."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass


@dataclass
class Verdict:
    argv: list
    exit_code: int  # -1: main raised instead of returning an exit code
    seconds: float
    stdout: str
    stderr: str
    csv: str | None  # the file written by --out, if any

    @property
    def stdout_sha256(self) -> str:
        return sha256(self.stdout)

    @property
    def csv_sha256(self) -> str | None:
        return None if self.csv is None else sha256(self.csv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(main, argv: list) -> Verdict:
    """Call ``main(argv)`` as a user would; only the call itself is timed."""
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if path is not None and os.path.exists(path):
        os.remove(path)  # a verdict that writes nothing must not show a stale file
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # a traceback is a failed verdict, not a crash
            code = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
    csv = None
    if path is not None:
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                csv = fh.read()
        except OSError:
            csv = ""
    return Verdict(list(argv), code, seconds, out.getvalue(), err.getvalue(), csv)


def run_pass(main, argvs: list, clock) -> list:
    """Each argv in turn, the reference kernel after each; (Verdict, scale) pairs."""
    return [(run(main, argv), clock.scale()) for argv in argvs]
