"""Command-line surface: verification runs, sweeps, and report serialization.

Subcommands: verify-algebra, ybe, entangle, sweep, spectrum, berry.
Every command emits a RunReport (JSON, deterministic byte-for-byte for fixed
flags and seed); sweep writes the CSV contract to --out and the summary
report to stdout. Exit codes: 0 success, 1 a gated check failed, 2 usage
error (one line on stderr), 3 numerical failure. A report holding NaN or
Infinity is not JSON, and is refused as a usage error.

Angles are radians unless --degrees is given, and must be finite. Sample
counts (--samples, --phi-samples) are integers >= 1. --tol is a finite
number >= 0 and defaults per command to the tolerance its checks are
specified at, which --help of each subcommand shows: 1e-10 for
verify-algebra, ybe and spectrum (energies gated at tol * hbar * |phidot|),
1e-9 for entangle and sweep; berry's depends on --method (1e-5 analytic, 1e-4
wilson), as does its --steps (10000 analytic, 800 wilson), >= 100 at every level.

Each subparser carries its handler, and main calls it with the command's own
arguments; a report passes when every one of its gates does.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import berry, braid, dynamics, entanglement, linalg, states, yangbaxter

__all__ = ["RunReport", "build_parser", "main"]

SWEEP_HEADER = ("theta,tau_measured,tau_closed,c_pair_measured,c_pair_closed,"
                "c2_one_rest_measured,c2_one_rest_closed,max_residual")


@dataclass(frozen=True)
class RunReport:
    """Uniform result envelope: echoed command, inputs, outputs, and gates;
    the run passes when every gate in ``passes`` does."""

    command: str
    parameters: dict
    results: dict
    residual_summary: dict
    passes: dict

    @property
    def passed(self) -> bool:
        return all(self.passes.values())

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "residual_summary": self.residual_summary,
            "passes": self.passes,
            "passed": self.passed,
        }
        # allow_nan=False: NaN and Infinity are not JSON (RFC 8259)
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=_numpy_value) + "\n"


def _numpy_value(obj):
    """json.dumps hook: a numpy array or scalar as the Python value it holds."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


# ---------------------------------------------------------------------------
# command handlers


def _worst(measured, closed, axis=None):
    """Largest |measured - closed|, NaN if any is: Python's max drops a NaN
    that does not come first, and a dropped NaN would pass its gate."""
    return np.max(np.abs(np.subtract(measured, closed)), axis=axis)


def cmd_verify_algebra(tol: float, phi_samples: int, seed: int) -> RunReport:
    rng = np.random.default_rng(seed)
    phis = rng.uniform(0.0, 2 * np.pi, phi_samples)
    thetas = rng.uniform(0.0, 2 * np.pi, phi_samples)

    relation_max: dict = {}
    ambiguous_max: dict = {}
    alpha_dev = 0.0
    unit_max = {yangbaxter.TWO_QUBIT: 0.0, yangbaxter.THREE_QUBIT: 0.0}
    # in blocks of 64 angles, which bounds the working set; no result depends on it
    for lo in range(0, phi_samples, yangbaxter._BLOCK):
        # built one phi at a time (perfbench's tracer takes a float), then stacked
        builds = [braid.build_braidset(phi) for phi in phis[lo:lo + yangbaxter._BLOCK]]
        bs = braid.BraidSet(*map(np.array, zip(*(vars(b).values() for b in builds))))
        if not lo:
            transcription = braid.transcription_diagnostics(builds[0])
        rep = braid.check_es2_relations(bs)
        # np.max and np.maximum keep a NaN, which Python's max drops if not first
        for name, val in rep.residuals.items():
            relation_max[name] = np.maximum(relation_max.get(name, 0.0), np.max(val))
        for name, val in rep.ambiguous.items():
            ambiguous_max[name] = np.maximum(ambiguous_max.get(name, 0.0), np.max(val))
        alpha_dev = np.maximum(alpha_dev, np.max(np.abs(rep.alpha - 1.0)))
        for system, gen in zip(unit_max, (bs.m4, bs.mcal)):
            unit_max[system] = np.maximum(unit_max[system], np.max(
                yangbaxter.unitarity_residuals(gen, thetas)))

    summary = dict(relation_max)
    summary["alpha_deviation"] = alpha_dev
    summary["unitarity_two_qubit"] = unit_max[yangbaxter.TWO_QUBIT]
    summary["unitarity_three_qubit"] = unit_max[yangbaxter.THREE_QUBIT]
    passes = {name: val <= tol for name, val in summary.items()}
    return RunReport(
        command="verify-algebra",
        parameters={"tol": tol, "phi_samples": phi_samples, "seed": seed},
        results={
            "phi_values": list(phis),
            "theta_values": list(thetas),
            "relation_residuals_max": relation_max,
            "ambiguous_triple_readings_max": ambiguous_max,
            "unitarity_max": dict(unit_max),
            "transcription_diagnostics": transcription,
        },
        residual_summary=summary,
        passes=passes,
    )


def _sample_spectral_pairs(rng, count: int):
    """Pairs away from the singular x + 1/x = 0, drawing a, b for each pair still
    missing at once: the stream is consumed exactly as pair by pair."""
    a = b = np.empty(0)
    while len(a) < count:
        u = rng.uniform(-np.pi, np.pi, 2 * (count - len(a)))
        ua, ub = u[0::2], u[1::2]
        keep = np.min(np.abs(np.cos([ua, ub, ua + ub])), axis=0) >= 1e-3
        a, b = np.concatenate([a, ua[keep]]), np.concatenate([b, ub[keep]])
    return ([yangbaxter.SpectralParam(x) for x in np.exp(1j * a)],
            [yangbaxter.SpectralParam(y) for y in np.exp(1j * b)])


def cmd_ybe(tol: float, samples: int, phi_samples: int, seed: int) -> RunReport:
    rng = np.random.default_rng(seed)
    xs, ys = _sample_spectral_pairs(rng, samples)
    phis = rng.uniform(0.0, 2 * np.pi, phi_samples)

    summary = {
        f"{system}_{family}_max": float(np.max(
            yangbaxter.ybe_residual(system, xs, ys, phis, family=family)))
        for family in ("rational", "unitary") for system in yangbaxter.SYSTEMS
    }
    passes = {"two_qubit_rational": summary["two_qubit_rational_max"] <= tol}
    return RunReport(
        command="ybe",
        parameters={"tol": tol, "samples": samples,
                    "phi_samples": phi_samples, "seed": seed},
        results={
            "gated": "two_qubit_rational",
            "reported_only": ["three_qubit_rational", "two_qubit_unitary",
                              "three_qubit_unitary"],
            "max_residuals": dict(summary),
        },
        residual_summary=summary,
        passes=passes,
    )


def cmd_entangle(theta: float, phi: float, label: str, tol: float) -> RunReport:
    state = states.apply_r(yangbaxter.RParams(theta, phi), states.basis_state(label))
    rep = entanglement.full_report(state)
    tau_c = entanglement.tangle_closed_form(theta)
    pair_c = entanglement.pair_concurrence_closed_form(theta)
    rest_c = entanglement.one_vs_rest_sq_closed_form(theta)
    summary = {
        "tangle": abs(rep.tau_abc - tau_c),
        "pair_concurrence": _worst([rep.c_ab, rep.c_bc, rep.c_ac], pair_c),
        "one_vs_rest_sq": _worst([rep.c2_a_bc, rep.c2_b_ac, rep.c2_c_ab], rest_c),
        "monogamy": rep.monogamy_residual,
    }
    passes = {name: val <= tol for name, val in summary.items()}
    return RunReport(
        command="entangle",
        parameters={"theta": theta, "phi": phi, "input": label, "tol": tol},
        results={
            "tau_abc": rep.tau_abc,
            "c_ab": rep.c_ab, "c_bc": rep.c_bc, "c_ac": rep.c_ac,
            "c2_a_bc": rep.c2_a_bc, "c2_b_ac": rep.c2_b_ac, "c2_c_ab": rep.c2_c_ab,
            "monogamy_residual": rep.monogamy_residual,
            "closed_forms": {"tangle": tau_c, "pair_concurrence": pair_c,
                             "one_vs_rest_sq": rest_c},
        },
        residual_summary=summary,
        passes=passes,
    )


def cmd_sweep(theta_min: float, theta_max: float, steps: int, phi: float,
              tol: float):
    """(report, CSV text) of the entanglement curves at ``steps`` angles."""
    if theta_min > theta_max:
        raise ValueError("theta_min must not exceed theta_max")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    thetas = np.linspace(theta_min, theta_max, steps)
    kets = states.apply_r(yangbaxter.RParams(thetas, phi), states.basis_state("000"))
    rep = entanglement.full_report(kets)
    forms = (entanglement.tangle_closed_form, entanglement.pair_concurrence_closed_form,
             entanglement.one_vs_rest_sq_closed_form)
    closed = np.array([[form(theta) for form in forms] for theta in thetas.tolist()])
    measured = np.column_stack([rep.tau_abc, rep.c_ab, rep.c2_a_bc])
    row_worst = _worst(measured, closed, axis=1)
    # each measure beside its closed form, as in SWEEP_HEADER
    table = np.column_stack([thetas, np.stack([measured, closed], 2).reshape(-1, 6), row_worst])
    lines = [SWEEP_HEADER]
    lines.extend(",".join("%.17g" % v for v in row) for row in table.tolist())
    csv_text = "\n".join(lines) + "\n"
    worst = float(np.max(row_worst))
    report = RunReport(
        command="sweep",
        parameters={"theta_min": theta_min, "theta_max": theta_max,
                    "steps": steps, "phi": phi, "tol": tol},
        results={"rows": steps, "input": "000", "pair_column": "c_ab"},
        residual_summary={"closed_form_match_max": worst},
        passes={"closed_form_match": worst <= tol},
    )
    return report, csv_text


def cmd_spectrum(theta: float, phi: float, phidot: float, hbar: float,
                 tol: float) -> RunReport:
    d = dynamics.DriveParams(theta=theta, phi=phi, phi_dot=phidot, hbar=hbar)
    rep = dynamics.spectrum(d)
    brackets = dynamics.su2_relation_residuals(d)
    summary = {
        "closed_form_match": rep.closed_form_match,
        "fixture_eigen_equation_max": max(rep.fixture_residuals),
        "projector_match_max": max(rep.projector_residuals),
        "ladder_decomposition": brackets["decomposition"],
    }
    scaled = tol * hbar * abs(phidot)  # H is linear in hbar * phidot
    passes = {
        "closed_form_match": summary["closed_form_match"] <= scaled,
        "fixture_eigen_equation_max": summary["fixture_eigen_equation_max"] <= scaled,
        "projector_match_max": summary["projector_match_max"] <= max(tol, 1e-8),
        "ladder_decomposition": summary["ladder_decomposition"] <= scaled,
    }
    return RunReport(
        command="spectrum",
        parameters={"theta": theta, "phi": phi, "phidot": phidot,
                    "hbar": hbar, "tol": tol},
        results={
            "eigenvalues": list(rep.eigenvalues),
            "degeneracy_pattern": list(rep.degeneracy_pattern),
            "fixture_residuals": list(rep.fixture_residuals),
            "projector_residuals": list(rep.projector_residuals),
            "bracket_residuals": brackets,
        },
        residual_summary=summary,
        passes=passes,
    )


def cmd_berry(theta: float, steps: int | None, method: str, level: str,
              tol: float | None) -> RunReport:
    """Each requested level's phases, folded, against its closed form.

    None for ``steps`` or ``tol`` takes the method's default: 10000 and 1e-5
    analytic, 800 and 1e-4 wilson. The wilson method covers the two split
    doublets only and takes both from one berry_wilson call."""
    if method == "analytic":
        steps = 10_000 if steps is None else steps
        tol = 1e-5 if tol is None else tol
    elif method == "wilson":
        steps = 800 if steps is None else steps
        tol = 1e-4 if tol is None else tol
    else:
        raise ValueError(f"unknown method {method!r}; expected 'analytic' or 'wilson'")
    if steps < 100:  # every level and method, the flat zero level included
        raise ValueError(f"steps must be >= 100, got {steps}")
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
    summary = {f"{r['level']}_residual_max": max(r["residuals"]) for r in reports}
    passes = {name: val <= tol for name, val in summary.items()}
    return RunReport(
        command="berry",
        parameters={"theta": theta, "steps": steps, "method": method,
                    "level": level, "tol": tol},
        results={"reports": reports},
        residual_summary=summary,
        passes=passes,
    )


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _finite(requirement: str, low: float = -np.inf):
    """argparse type of a finite float >= ``low``; an error states ``requirement``."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = float("nan")
        if not (np.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return parse


_angle = _finite("angle must be a finite number")  # every angle argument
_tol = _finite("tolerance must be a finite number >= 0", low=0.0)  # every --tol


def _count(text: str) -> int:
    """argparse type of every sample count: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be an integer >= 1, got {text!r}")
    return value


def _add_common(parser, run, tol, *, sampled: bool, tol_help="%(default)s"):
    """The handler ``run``; --tol with default ``tol`` and --out; plus --seed
    on a sampling command and --degrees on one that takes angles (no command
    does both)."""
    parser.set_defaults(run=run)
    parser.add_argument("--tol", type=_tol, default=tol,
                        help=f"pass/fail tolerance (default: {tol_help})")
    parser.add_argument("--out", default=None, help="write output to this path")
    if sampled:
        parser.add_argument("--seed", type=int, default=0,
                            help="seed for random sampling")
    else:
        parser.add_argument("--degrees", action="store_true",
                            help="interpret angle arguments as degrees")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braidphase",
        description="Three-qubit braid system: algebra checks, entanglement "
                    "measures, spectra, and geometric phases.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="generator-algebra and unitarity checks")
    p.add_argument("--phi-samples", type=_count, default=17)
    _add_common(p, cmd_verify_algebra, 1e-10, sampled=True)

    p = sub.add_parser("ybe", help="Yang-Baxter residuals over sampled spectral parameters")
    p.add_argument("--samples", type=_count, default=50)
    p.add_argument("--phi-samples", type=_count, default=5)
    _add_common(p, cmd_ybe, 1e-10, sampled=True)

    p = sub.add_parser("entangle", help="entanglement measures of one generated state")
    p.add_argument("--theta", type=_angle, required=True)
    p.add_argument("--phi", type=_angle, default=0.0)
    p.add_argument("--input", dest="label", default="000", choices=states.BASIS_LABELS)
    _add_common(p, cmd_entangle, 1e-9, sampled=False)

    p = sub.add_parser("sweep", help="theta sweep of the entanglement curves (CSV)")
    p.add_argument("--theta-min", type=_angle, required=True)
    p.add_argument("--theta-max", type=_angle, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--phi", type=_angle, default=0.0)
    p.add_argument("--format", choices=("json", "csv"), default="csv",
                   help="csv (default) writes the rows to --out; json gives only the summary")
    _add_common(p, cmd_sweep, 1e-9, sampled=False)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenstate checks of the drive generator")
    p.add_argument("--theta", type=_angle, required=True)
    p.add_argument("--phi", type=_angle, default=0.0)
    p.add_argument("--phidot", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    _add_common(p, cmd_spectrum, 1e-10, sampled=False)

    p = sub.add_parser("berry", help="geometric phases of the drive loop")
    p.add_argument("--theta", type=_angle, required=True)
    p.add_argument("--steps", type=int, default=None,
                   help="loop points (default: 10000 analytic, 800 wilson)")
    p.add_argument("--method", choices=("analytic", "wilson"), default="analytic")
    p.add_argument("--level", choices=(*dynamics.LEVELS, "all"), default="all")
    _add_common(p, cmd_berry, None, sampled=False,
                tol_help="1e-5 analytic, 1e-4 wilson")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main(), built once per process; parsing does not change it."""
    return build_parser()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # without the command and its output options, args are the handler's own
    del args["command"]
    run, out, fmt = args.pop("run"), args.pop("out"), args.pop("format", None)
    if args.pop("degrees", False):
        for name in ("theta", "phi", "theta_min", "theta_max"):
            if name in args:
                args[name] = float(np.radians(args[name]))
    try:
        # looked up by name, so that a wrapper put in place of a handler
        # after the cached parser was built is the one that runs
        result = globals()[run.__name__](**args)
        report, csv_text = result if fmt else (result, None)  # sweep: (report, CSV)
        if fmt == "csv" and out is None:
            raise ValueError("sweep requires --out for its CSV output")
        text = report.to_json()
    except linalg.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if fmt == "csv":  # the rows go to --out, the report to stdout
            _write(out, csv_text)
            sys.stdout.write(text)
        elif out is not None:
            _write(out, text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
