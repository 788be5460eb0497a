"""Command-line surface: verification runs, sweeps, and report serialization.

Subcommands: verify-algebra, ybe, entangle, sweep, spectrum, berry.
Every command emits a RunReport (JSON, deterministic byte-for-byte for fixed
flags and seed); sweep writes the CSV contract to --out and the summary
report to stdout. Exit codes: 0 success, 1 a gated check failed, 2 usage
error (one line on stderr), 3 numerical failure. A report holding NaN or
Infinity is not JSON, and is refused as a usage error (its line names a gate
that reads one, or else the key path of the first one), as is a run whose
arrays cannot be allocated.

Angles are radians unless --degrees is given, and must be finite; a negative
number may have an exponent (--theta -1e-3). Sample counts (--samples,
--phi-samples) are integers from 1 to 10^5, sweep's --steps from 2 to 10^5
and berry's from 100 to 10^5; --seed is an integer >= 0, and
random.Random(seed) draws every sample. --tol is a finite number >= 0 and
defaults per command to the tolerance its checks are specified at, which
--help of each subcommand shows: 1e-10 for verify-algebra, ybe and spectrum
(energies gated at tol * hbar * |phidot|), 1e-9 for entangle and sweep;
berry's depends on --method (1e-5 analytic, 1e-4 wilson), as does its
--steps (10000 analytic, 800 wilson).

main calls the handler cmd_<command> (dashes as underscores), looked up when
it runs, with the command's own arguments; a report passes when it has a gate
and every one of its gates does. main parses an argv that starts with a
command name with a parser of that command alone, built on first use, and any
other argv with the parser of every command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import re
import sys
from collections import namedtuple

import numpy as np

from . import berry, braid, dynamics, entanglement, linalg, states, yangbaxter

__all__ = ["RunReport", "main"]

SWEEP_HEADER = ("theta,tau_measured,tau_closed,c_pair_measured,c_pair_closed,"
                "c2_one_rest_measured,c2_one_rest_closed,max_residual")
# one CSV row: every column as "%.17g", which round-trips a float
_SWEEP_ROW = ",".join(["%.17g"] * len(SWEEP_HEADER.split(",")))


class RunReport(namedtuple("RunReport", "command parameters results residual_summary passes")):
    """Uniform result envelope: the echoed ``command`` (str) and four dicts,
    its ``parameters``, ``results``, ``residual_summary`` and gates; the run
    passes when ``passes`` holds a gate and every gate in it passes."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return bool(self.passes) and all(self.passes.values())

    def to_json(self) -> str:
        for gate, value in self.residual_summary.items():
            if not math.isfinite(value):  # NaN and Infinity are not JSON (RFC 8259)
                raise ValueError(f"gate {gate} read {value}, and a report holding NaN "
                                 "or Infinity is not JSON")
        payload = {**self._asdict(), "passed": self.passed}
        try:
            return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                              default=_numpy_value) + "\n"
        except ValueError:  # name the first non-finite value, in the order written
            for path, value in _non_finite(payload, ""):
                raise ValueError(f"{path} read {value}, and a report holding NaN "
                                 "or Infinity is not JSON") from None
            raise


def _numpy_value(obj):
    """json.dumps hook: a numpy array or scalar as the Python value it holds."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _non_finite(value, path: str):
    """Each (key path, value) of a NaN or Infinity in ``value``, as json.dumps
    writes them with sorted keys: dict keys joined by dots, list indices in []."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _non_finite(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            yield from _non_finite(item, f"{path}[{k}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield path, value


# ---------------------------------------------------------------------------
# command handlers


def _report(command: str, parameters: dict, results: dict, gates: dict) -> RunReport:
    """The RunReport of ``gates``, {gate: (residuals, bound)}, residuals a float
    or any array-like. A gate reads their largest magnitude, as a Python float,
    and passes when that is at most its bound. np.max keeps a NaN (Python's max
    drops one that is not first), and a NaN is never at most a bound."""
    summary = {gate: float(abs(res) if isinstance(res, float) else np.max(np.abs(res)))
               for gate, (res, _) in gates.items()}
    return RunReport(command, parameters, results, summary,
                     {gate: summary[gate] <= bound for gate, (_, bound) in gates.items()})


def _fold(worst: dict, block: dict) -> dict:
    """Each of ``block``'s residual arrays folded into its running maximum in
    ``worst``, by _report's rule: a NaN in any block stays."""
    return {name: np.maximum(worst.get(name, 0.0), np.max(res)) for name, res in block.items()}


# the largest sample count and sweep or berry --steps, refused by the parser
# and by each handler: samples are drawn into Python lists (10^5 floats hold
# about 3 MB each), the sweep holds its whole grid and CSV text, and a Berry
# loop 208 (analytic) to 680 (wilson) B per step, before anything could refuse
# a larger count. Time is linear in every count. _RANGE words each range,
# keyed by its lower bound, for messages and help alike.
_MAX_SAMPLES = 10 ** 5
_RANGE = {low: f"an integer >= {low} and <= {_MAX_SAMPLES}" for low in (1, 2, 100)}


def _check_counts(low: int = 1, **counts) -> None:
    """ValueError naming the first of ``counts`` outside low.._MAX_SAMPLES."""
    for name, count in counts.items():
        if not low <= count <= _MAX_SAMPLES:
            raise ValueError(f"{name} must be {_RANGE[low]}, got {count}")


def _uniform(rng: random.Random, low: float, high: float, count: int) -> list:
    """``count`` draws low + (high - low) * rng.random(), in [low, high):
    random() is the method whose stream Python keeps across versions."""
    return [low + (high - low) * rng.random() for _ in range(count)]


def cmd_verify_algebra(tol: float, phi_samples: int, seed: int) -> RunReport:
    _check_counts(phi_samples=phi_samples)
    rng = random.Random(seed)
    phis = _uniform(rng, 0.0, 2 * math.pi, phi_samples)
    thetas = _uniform(rng, 0.0, 2 * math.pi, phi_samples)

    worst: dict = {}  # each residual's maximum over every block
    # in blocks of 64 angles, which bounds the working set; no result depends on it
    for lo in range(0, phi_samples, yangbaxter._BLOCK):
        # built one phi at a time (perfbench's tracer takes a float), then stacked
        builds = [braid.build_braidset(phi) for phi in phis[lo:lo + yangbaxter._BLOCK]]
        bs = braid.BraidSet(*map(np.array, zip(*builds)))
        rep = braid.check_es2_relations(bs)
        block = {**rep.residuals, **rep.ambiguous}
        for system, gen in zip(yangbaxter.SYSTEMS, (bs.m4, bs.mcal)):
            # phi_k paired with theta_k, and the bound over every theta
            block[f"unitarity_{system}"], block[f"unitarity_all_theta_{system}"] = (
                yangbaxter.unitarity_residuals(gen, thetas[lo:lo + yangbaxter._BLOCK]))
        worst = _fold(worst, block)
    ladder = dynamics.ladder_residuals()  # the operators are constants: once per run

    return _report(
        "verify-algebra", {"tol": tol, "phi_samples": phi_samples, "seed": seed},
        {"phi_values": phis,
         "theta_values": thetas,
         "relation_residuals_max": {name: worst[name] for name in rep.residuals},
         "ambiguous_triple_readings_max": {name: worst[name] for name in rep.ambiguous},
         **{f"{check}_max": {system: worst[f"{check}_{system}"] for system in yangbaxter.SYSTEMS}
            for check in ("unitarity", "unitarity_all_theta")},
         "ladder": ladder},
        {name: (val, tol) for name, val in {**worst, **ladder["residuals"]}.items()
         if name not in rep.ambiguous})


def _sample_spectral_pairs(rng: random.Random, count: int):
    """``count`` pairs (e^{ia}, e^{ib}), drawn pair by pair: a, then b,
    uniform on [-pi, pi)."""
    draws = _uniform(rng, -math.pi, math.pi, 2 * count)
    # as Python complexes, which SpectralParam checks at scalar cost
    return ([yangbaxter.SpectralParam(x) for x in np.exp(1j * np.array(draws[0::2])).tolist()],
            [yangbaxter.SpectralParam(y) for y in np.exp(1j * np.array(draws[1::2])).tolist()])


def cmd_ybe(tol: float, samples: int, phi_samples: int, seed: int) -> RunReport:
    _check_counts(samples=samples, phi_samples=phi_samples)
    rng = random.Random(seed)
    xs, ys = _sample_spectral_pairs(rng, samples)
    phis = _uniform(rng, 0.0, 2 * math.pi, phi_samples)

    # blocks of 64 phi, none held past its own, bound the working set; no residual depends on them
    worst: dict = {}
    for lo in range(0, phi_samples, yangbaxter._BLOCK):
        worst = _fold(worst, yangbaxter.ybe_residual(xs, ys, phis[lo:lo + yangbaxter._BLOCK]))
    maxima = {f"{key}_max": float(res) for key, res in worst.items()}
    gated = f"{yangbaxter.TWO_QUBIT}_rational"
    return _report(
        "ybe", {"tol": tol, "samples": samples, "phi_samples": phi_samples, "seed": seed},
        {"gated": gated, "reported_only": [key for key in worst if key != gated],
         "max_residuals": maxima},
        {f"{gated}_max": (maxima[f"{gated}_max"], tol)})


def cmd_entangle(theta: float, phi: float, label: str, tol: float) -> RunReport:
    state = states.apply_r(yangbaxter.RParams(theta, phi), states.basis_state(label))
    rep = entanglement.full_report(state)
    tau_c = entanglement.tangle_closed_form(theta)
    pair_c = entanglement.pair_concurrence_closed_form(theta)
    rest_c = entanglement.one_vs_rest_sq_closed_form(theta)
    return _report(
        "entangle", {"theta": theta, "phi": phi, "input": label, "tol": tol},
        {**rep._asdict(),  # each measure and the monogamy residual
         "closed_forms": {"tangle": tau_c, "pair_concurrence": pair_c,
                          "one_vs_rest_sq": rest_c}},
        {"tangle": (rep.tau_abc - tau_c, tol),
         "pair_concurrence": (np.subtract([rep.c_ab, rep.c_bc, rep.c_ac], pair_c), tol),
         "one_vs_rest_sq": (np.subtract([rep.c2_a_bc, rep.c2_b_ac, rep.c2_c_ab], rest_c), tol),
         "monogamy": (rep.monogamy_residual, tol)})


def cmd_sweep(theta_min: float, theta_max: float, steps: int, phi: float,
              tol: float):
    """(report, CSV text) of the entanglement curves at ``steps`` angles."""
    if theta_min > theta_max:
        raise ValueError("theta_min must not exceed theta_max")
    if not math.isfinite(theta_max - theta_min):  # np.linspace would overflow
        raise ValueError(f"theta range [{theta_min!r}, {theta_max!r}]: its width overflows")
    _check_counts(2, steps=steps)
    thetas = np.linspace(theta_min, theta_max, steps)
    kets = states.apply_r(yangbaxter.RParams(thetas, phi), states.basis_state("000"))
    rep = entanglement.full_report(kets)
    closed = np.column_stack([entanglement.tangle_closed_form(thetas),
                             entanglement.pair_concurrence_closed_form(thetas),
                             entanglement.one_vs_rest_sq_closed_form(thetas)])
    measured = np.column_stack([rep.tau_abc, rep.c_ab, rep.c2_a_bc])
    row_worst = np.max(np.abs(measured - closed), axis=1)  # the CSV's max_residual
    # each measure beside its closed form, as in SWEEP_HEADER
    table = np.column_stack([thetas, np.stack([measured, closed], 2).reshape(-1, 6), row_worst])
    lines = [SWEEP_HEADER]
    lines.extend(_SWEEP_ROW % row for row in map(tuple, table.tolist()))
    csv_text = "\n".join(lines) + "\n"
    report = _report(
        "sweep", {"theta_min": theta_min, "theta_max": theta_max,
                  "steps": steps, "phi": phi, "tol": tol},
        {"rows": steps, "input": "000", "pair_column": "c_ab"},
        {"closed_form_match_max": (row_worst, tol)})
    return report, csv_text


def cmd_spectrum(theta: float, phi: float, phidot: float, hbar: float,
                 tol: float) -> RunReport:
    d = dynamics.DriveParams(theta=theta, phi=phi, phi_dot=phidot, hbar=hbar)
    rep = dynamics.spectrum(d)
    scaled = tol * hbar * abs(phidot)  # H is linear in hbar * phidot
    return _report(
        "spectrum", {"theta": theta, "phi": phi, "phidot": phidot, "hbar": hbar, "tol": tol},
        {"eigenvalues": list(rep.eigenvalues),
         "degeneracy_pattern": list(rep.degeneracy_pattern),
         "fixture_residuals": list(rep.fixture_residuals),
         "projector_residuals": list(rep.projector_residuals)},
        {"closed_form_match": (rep.closed_form_match, scaled),
         "fixture_eigen_equation_max": (rep.fixture_residuals, scaled),
         "projector_match_max": (rep.projector_residuals, tol),
         "hamiltonian_covariance": (rep.hamiltonian_covariance, scaled)})


# method: (its default --steps, its default --tol)
_BERRY_DEFAULTS = {"analytic": (10_000, 1e-5), "wilson": (800, 1e-4)}
_LEVELS = (*dynamics.LEVELS, "all")


def cmd_berry(theta: float, steps: int | None, method: str, level: str,
              tol: float | None) -> RunReport:
    """Each requested level's phases, folded, against its closed form.

    None for ``steps`` or ``tol`` takes the method's default from
    _BERRY_DEFAULTS. The wilson method covers the two split doublets only and
    takes both from one berry_wilson call."""
    for name, value, choices in (("method", method, _BERRY_DEFAULTS), ("level", level, _LEVELS)):
        if value not in choices:
            *rest, last = map(repr, choices)
            raise ValueError(f"unknown {name} {value!r}; expected {', '.join(rest)} or {last}")
    default_steps, default_tol = _BERRY_DEFAULTS[method]
    steps = default_steps if steps is None else steps
    tol = default_tol if tol is None else tol
    _check_counts(100, steps=steps)  # every level and method, the flat zero level too
    if method == "wilson":
        if level == "zero":
            raise ValueError("the wilson method applies to the split doublets only")
        # "all" under wilson is the two doublets
        phases = berry.berry_wilson(theta, steps)
        if level != "all":
            phases = {level: phases[level]}
    else:
        phases = {
            lv: ([berry.zero_level_phase(theta)] * len(members) if not sign else
                 [berry.berry_analytic(i, theta, steps) for i in members])
            for lv, (sign, members) in dynamics.LEVELS.items() if level in (lv, "all")}
    reports = []
    for lv, raw in phases.items():
        closed = berry.closed_form_phase(lv, theta)
        folded = [berry.fold(p) for p in raw]
        # residuals are circular (mod 2*pi): the Wilson route only determines
        # phases on the circle
        reports.append({"level": lv, "method": method, "phases": folded,
                        "closed_form": closed, "solid_angle": berry.solid_angle(theta),
                        "residuals": [berry.phase_residual(p, closed) for p in folded]})
    return _report(
        "berry", {"theta": theta, "steps": steps, "method": method, "level": level, "tol": tol},
        {"reports": reports},
        {f"{r['level']}_residual_max": (r["residuals"], tol) for r in reports})


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit code 2, and takes a
    negative number with an exponent (-1e-3) for a value, as argparse does
    one without; no option of any command looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _number(kind, requirement: str, low, high=math.inf):
    """argparse type of a finite ``kind`` (float or int) from ``low`` to
    ``high``; an error states ``requirement``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        # a chained comparison holds for an int of any size (math.isfinite
        # overflows on one), and fails on NaN
        if not (low <= value < math.inf and value <= high):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


# every angle argument; -sys.float_info.max is the lowest finite float
_angle = _number(float, "angle must be a finite number", -sys.float_info.max)
_tol = _number(float, "tolerance must be a finite number >= 0", 0.0)  # every --tol
_count = _number(int, f"count must be {_RANGE[1]}", 1, _MAX_SAMPLES)  # every sample count
_steps = _number(int, f"steps must be {_RANGE[2]}", 2, _MAX_SAMPLES)  # sweep --steps
_loop_steps = _number(int, f"steps must be {_RANGE[100]}", 100, _MAX_SAMPLES)  # berry --steps
# random.Random seeds from |seed|, so a negative seed would repeat a positive one
_seed = _number(int, "seed must be an integer >= 0", 0)


def _add_common(parser, tol, *, sampled: bool, tol_help="%(default)s"):
    """--tol with default ``tol`` and --out; plus --seed on a sampling command
    and --degrees on one that takes angles (no command does both)."""
    parser.add_argument("--tol", type=_tol, default=tol,
                        help=f"pass/fail tolerance (default: {tol_help})")
    parser.add_argument("--out", default=None, help="write output to this path")
    if sampled:
        parser.add_argument("--seed", type=_seed, default=0,
                            help="seed of random.Random, which draws the samples (>= 0)")
    else:
        parser.add_argument("--degrees", action="store_true",
                            help="interpret angle arguments as degrees")


def _verify_algebra(p):
    p.add_argument("--phi-samples", type=_count, default=17,
                   help=f"how many (phi, theta) pairs to draw, {_RANGE[1]}")
    _add_common(p, 1e-10, sampled=True)


def _ybe(p):
    p.add_argument("--samples", type=_count, default=50,
                   help=f"how many spectral pairs to draw, {_RANGE[1]}")
    p.add_argument("--phi-samples", type=_count, default=5,
                   help=f"how many phi to draw, {_RANGE[1]}")
    _add_common(p, 1e-10, sampled=True)


def _entangle(p):
    p.add_argument("--theta", type=_angle, required=True)
    p.add_argument("--phi", type=_angle, default=0.0)
    p.add_argument("--input", dest="label", default="000", choices=states.BASIS_LABELS)
    _add_common(p, 1e-9, sampled=False)


def _sweep(p):
    p.add_argument("--theta-min", type=_angle, required=True)
    p.add_argument("--theta-max", type=_angle, required=True)
    p.add_argument("--steps", type=_steps, required=True,
                   help=f"how many evenly spaced angles, {_RANGE[2]}")
    p.add_argument("--phi", type=_angle, default=0.0)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="csv (default) writes the rows to --out; json gives only the summary")
    _add_common(p, 1e-9, sampled=False)


def _spectrum(p):
    p.add_argument("--theta", type=_angle, required=True)
    p.add_argument("--phi", type=_angle, default=0.0)
    p.add_argument("--phidot", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    _add_common(p, 1e-10, sampled=False)


def _berry(p):
    p.add_argument("--theta", type=_angle, required=True)
    p.add_argument("--steps", type=_loop_steps, default=None,
                   help=f"loop points, {_RANGE[100]} (default: 10000 analytic, 800 wilson)")
    p.add_argument("--method", choices=_BERRY_DEFAULTS, default="analytic")
    p.add_argument("--level", choices=_LEVELS, default="all")
    _add_common(p, None, sampled=False, tol_help="1e-5 analytic, 1e-4 wilson")


# command: (its --help line, the function that declares its arguments), in
# the order the top-level --help lists them
_COMMANDS = {
    "verify-algebra": ("generator-algebra and unitarity checks", _verify_algebra),
    "ybe": ("Yang-Baxter residuals over sampled spectral parameters", _ybe),
    "entangle": ("entanglement measures of one generated state", _entangle),
    "sweep": ("theta sweep of the entanglement curves (CSV)", _sweep),
    "spectrum": ("eigenvalues and eigenstate checks of the drive generator", _spectrum),
    "berry": ("geometric phases of the drive loop", _berry),
}


def _build(commands) -> argparse.ArgumentParser:
    """The top-level parser with a subparser for each of ``commands``."""
    parser = _Parser(
        prog="braidphase",
        description="Three-qubit braid system: algebra checks, entanglement "
                    "measures, spectra, and geometric phases.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        help_text, declare = _COMMANDS[name]
        declare(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of main() for ``command``, which holds that command alone
    (the parser of every command for None), built once per process; parsing
    does not change it."""
    return _build(_COMMANDS if command is None else (command,))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command's own parser gives the prog, help and error text of the full
    # one; every other argv (no command, an unknown one, top-level --help)
    # needs the full one for its text
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = vars(_parser(command).parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up now, so that a wrapper put in place of a handler after the
    # cached parser was built (as a tracer does) is the one that runs
    run = globals()["cmd_" + args.pop("command").replace("-", "_")]
    # without the command and its output options, args are the handler's own
    out, fmt = args.pop("out"), args.pop("format", None)
    if args.pop("degrees", False):
        for name in ("theta", "phi", "theta_min", "theta_max"):
            if name in args:
                args[name] = float(np.radians(args[name]))
    try:
        result = run(**args)
        report, csv_text = result if fmt else (result, None)  # sweep: (report, CSV)
        if fmt == "csv" and out is None:
            raise ValueError("sweep requires --out for its CSV output")
        text = report.to_json()
    except linalg.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if fmt == "csv":  # the rows go to --out, the report to stdout
            _write(out, csv_text)
        if out is None or fmt == "csv":
            sys.stdout.write(text)
        else:
            _write(out, text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
