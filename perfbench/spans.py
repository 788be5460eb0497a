"""Per-layer spans for the braidphase benchmark, recorded from outside the package.

The tracer replaces the public functions of each braidphase module with thin
wrappers that open and close a span, and puts the originals back afterwards.
No file of the package changes. Each span records its name, wall-clock start
and end, the span that caused it, the thread it ran on and the CPU seconds
that thread spent in it. Spans stay in memory; the benchmark writes them out
when it ends.

Each thread keeps its own span stack. ``cli.cmd_sweep`` runs its rows on a
thread pool, so the stack of a pool thread starts empty: its top-level spans
name as cause the innermost span open on the client thread at that moment,
which in this closed-loop, single-client benchmark is the submitting
``cli.cmd_sweep``. Self time subtracts only children on the same thread, so
a worker's time is never taken off the span that waits for it.

Self time is busy time: thread CPU seconds, not wall seconds. Pool threads
spend part of each span waiting for the interpreter lock, which a wall-clock
self time would charge to whatever function happened to be waiting.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

# (module, attribute) pairs wrapped by the tracer, in the order reported.
# "linalg.eigh" is split by matrix size into linalg.eigh.n4 / linalg.eigh.n8.
LAYER_FUNCTIONS = (
    ("linalg", "eigh"),
    ("linalg", "kron"),
    ("linalg", "partial_trace"),
    ("linalg", "frobenius_distance"),
    ("linalg", "frobenius_norm"),
    ("linalg", "dagger"),
    ("linalg", "matmul"),
    ("braid", "build_m4"),
    ("braid", "build_braidset"),
    ("braid", "check_es2_relations"),
    ("yangbaxter", "r_matrix"),
    ("yangbaxter", "rational_r"),
    ("yangbaxter", "r_from_spectral"),
    ("yangbaxter", "ybe_residual"),
    ("states", "apply_r"),
    ("entanglement", "concurrence"),
    ("entanglement", "three_tangle"),
    ("entanglement", "one_vs_rest_sq"),
    ("entanglement", "full_report"),
    ("dynamics", "hamiltonian"),
    ("dynamics", "spectrum"),
    ("dynamics", "su2_relation_residuals"),
    ("dynamics", "fixture_batch"),
    ("berry", "berry_wilson"),
    ("berry", "berry_analytic"),
    ("berry", "report"),
    ("cli", "cmd_verify_algebra"),
    ("cli", "cmd_ybe"),
    ("cli", "cmd_entangle"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_spectrum"),
    ("cli", "cmd_berry"),
    ("cli", "RunReport.to_json"),
)

EIGH_SIZES = (4, 8)
VERDICT = "verdict"  # root span the benchmark opens around each cli.main call


def _eigh_name(args, kwargs) -> str:
    return f"linalg.eigh.n{len(args[0] if args else kwargs['a'])}"


def span_names() -> list:
    """Every function name the per-layer metrics report, in order."""
    names = []
    for module, attr in LAYER_FUNCTIONS:
        if (module, attr) == ("linalg", "eigh"):
            names.extend(f"linalg.eigh.n{n}" for n in EIGH_SIZES)
        else:
            names.append(f"{module}.{attr}")
    return names


class Tracer:
    """Span recorder with one stack per thread.

    A span is the list ``[name, start, end, cause, thread_id, cpu_s,
    child_cpu_s]``: ``cause`` is the causing span (None for a root),
    ``cpu_s`` the thread CPU seconds spent inside it (its CPU clock at open
    until it closes) and ``child_cpu_s`` the sum of ``cpu_s`` over its closed
    children on the same thread.
    """

    def __init__(self):
        self.spans: list = []
        self.phis: set = set()  # distinct phi passed to braid.build_braidset
        self._local = threading.local()
        self._local.stack = self._client_stack = []
        self._restore: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        client = self._client_stack
        # a pool thread's first span is caused by the span the client waits in
        cause = stack[-1] if stack else (client[-1] if client else None)
        span = [name, time.perf_counter(), 0.0, cause, threading.get_ident(),
                time.thread_time(), 0.0]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.thread_time() - span[5]
        span[2] = time.perf_counter()
        self._stack().pop()
        cause = span[3]
        if cause is not None and cause[4] == span[4]:
            cause[6] += span[5]

    def reset(self) -> None:
        self.spans = []
        self.phis = set()

    def wrap(self, fn, name):
        """``fn`` inside a span named ``name``, or ``name(args, kwargs)`` if callable."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name(args, kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _wrap_recording_phi(self, fn, name):
        inner = self.wrap(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.phis.add(float(args[0] if args else kwargs["phi"]))
            return inner(*args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        """Wrap every function of LAYER_FUNCTIONS that ``package`` still has."""
        for module_name, attr in LAYER_FUNCTIONS:
            owner = getattr(package, module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:  # removed by a later version of the package: 0 calls
                continue
            name = f"{module_name}.{attr}"
            if name == "linalg.eigh":
                wrapped = self.wrap(fn, _eigh_name)
            elif name == "braid.build_braidset":
                wrapped = self._wrap_recording_phi(fn, name)
            else:
                wrapped = self.wrap(fn, name)
            setattr(owner, leaf, wrapped)
            self._restore.append((owner, leaf, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, fn = self._restore.pop()
            setattr(owner, leaf, fn)


def self_times(spans: list) -> tuple:
    """Per-name call counts and self (busy) seconds of a list of closed spans."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    for name, _start, _end, _cause, _tid, cpu_s, child_cpu_s in spans:
        calls[name] += 1
        self_s[name] += cpu_s - child_cpu_s
    return dict(calls), dict(self_s)


def to_records(spans: list) -> list:
    """Spans as JSON-ready dicts; ``cause`` becomes the causing span's index."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [{"name": name, "start": start, "end": end,
             "cause": None if cause is None else index[id(cause)], "thread": tid,
             "cpu_s": cpu_s}
            for name, start, end, cause, tid, cpu_s, _child_cpu_s in spans]
