import contextlib
import dataclasses
import io
import json
import os
import tempfile
import tracemalloc
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidphase import braid, cli, dynamics, entanglement, linalg, states, yangbaxter


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema():
    path = resources.files("braidphase").joinpath("schemas/run_report.schema.json")
    return json.loads(path.read_text())


def validate(payload):
    jsonschema.validate(instance=payload, schema=load_schema())


def reject(constant):
    """json.loads hook that refuses NaN and Infinity, which are not JSON."""
    raise ValueError(f"non-strict JSON constant {constant}")


class TestVerifyAlgebra:
    def test_passes_and_validates(self, capsys):
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "5", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["passed"] is True
        assert payload["residual_summary"]["mbb_square"] <= 1e-10

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "verify-algebra", "--phi-samples", "4", "--seed", "3")
        _, second, _ = run(capsys, "verify-algebra", "--phi-samples", "4", "--seed", "3")
        assert first == second

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "3",
                           "--tol", "1e-300")
        assert code == 1
        payload = json.loads(out)
        validate(payload)
        assert payload["passed"] is False

    def test_ambiguous_readings_do_not_gate(self, capsys):
        # the printed triple reading misses by 4 at every phi; it is reported only
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "3", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        ambiguous = payload["results"]["ambiguous_triple_readings_max"]
        assert ambiguous["triple_as_printed"] == pytest.approx(4.0, abs=1e-12)
        assert "triple_as_printed" not in payload["passes"]

    @staticmethod
    def nan_at(monkeypatch, block, index):
        """Make the first relation residual NaN at ``index`` of the ``block``-th
        stacked check; returns the BraidSets checked."""
        exact = braid.check_es2_relations
        calls = []

        def nan_in_block(bs):
            rep = exact(bs)
            calls.append(bs)
            if len(calls) == block + 1:
                name = next(iter(rep.residuals))
                values = rep.residuals[name].copy()
                values[index] = np.nan
                rep = dataclasses.replace(rep, residuals={**rep.residuals, name: values})
            return rep

        monkeypatch.setattr(braid, "check_es2_relations", nan_in_block)
        return calls

    def test_nan_residual_at_a_later_angle_fails(self, capsys, monkeypatch):
        # a NaN relation residual at the second phi is kept in the maximum
        # (Python's max would drop it), so the report is refused
        calls = self.nan_at(monkeypatch, 0, 1)
        code, out, err = run(capsys, "verify-algebra", "--phi-samples", "3")
        assert [len(bs.phi) for bs in calls] == [3]
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    def test_nan_residual_in_a_later_block_fails(self, capsys, monkeypatch):
        # the NaN is in the second block of 64 angles, at its third
        calls = self.nan_at(monkeypatch, 1, 2)
        code, out, err = run(capsys, "verify-algebra", "--phi-samples", "70")
        assert [len(bs.phi) for bs in calls] == [64, 6]
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    def test_memory_is_bounded_by_the_phi_block(self):
        def peak(samples):
            tracemalloc.start()
            cli.cmd_verify_algebra(1e-10, samples, 0)
            used = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return used

        peak(64)  # first call outside the measurement
        assert peak(256) <= 1.5 * peak(64)

    def test_unitarity_max_matches_per_angle_loop(self, capsys):
        _, out, _ = run(capsys, "verify-algebra", "--phi-samples", "6", "--seed", "2")
        results = json.loads(out)["results"]
        for system, dim in (("two_qubit", 4), ("three_qubit", 8)):
            worst = 0.0
            for theta in results["theta_values"]:
                for phi in results["phi_values"]:
                    r = yangbaxter.r_matrix(system, yangbaxter.RParams(theta, phi))
                    worst = max(worst, linalg.frobenius_norms(
                        [r.conj().T @ r - np.eye(dim, dtype=complex)])[0])
            assert results["unitarity_max"][system] == worst


class TestYbe:
    def test_one_call_per_system_and_family(self, capsys, monkeypatch):
        # each call covers every sampled pair over the whole phi grid
        calls = []
        original = yangbaxter.ybe_residual

        def counting(system, xs, ys, phis, family):
            calls.append((system, family, len(xs), len(phis)))
            return original(system, xs, ys, phis, family=family)

        monkeypatch.setattr(yangbaxter, "ybe_residual", counting)
        assert run(capsys, "ybe", "--samples", "3", "--phi-samples", "4")[0] == 0
        assert sorted(calls) == sorted((s, f, 3, 4) for s in yangbaxter.SYSTEMS
                                       for f in ("rational", "unitary"))

    def test_report(self, capsys):
        code, out, _ = run(capsys, "ybe", "--samples", "3", "--phi-samples", "2",
                           "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["residual_summary"]["two_qubit_rational_max"] <= 1e-10
        # measured, reported, never gated
        assert payload["residual_summary"]["three_qubit_rational_max"] > 0.0
        assert list(payload["passes"]) == ["two_qubit_rational"]


class TestEntangle:
    def test_ghz_point(self, capsys):
        code, out, _ = run(capsys, "entangle", "--theta", "0.5235987755982988",
                           "--phi", "0", "--input", "000")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["results"]["tau_abc"] == pytest.approx(1.0, abs=1e-9)
        assert payload["results"]["c_ab"] == pytest.approx(0.0, abs=1e-9)

    def test_degrees_flag(self, capsys):
        code, out, _ = run(capsys, "entangle", "--theta", "30", "--degrees")
        assert code == 0
        assert json.loads(out)["results"]["tau_abc"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("pair,rest", [("c_bc", "c2_b_ac"), ("c_ac", "c2_c_ab")])
    def test_nan_at_a_later_pair_fails_its_gate(self, monkeypatch, pair, rest):
        # Python's max would drop a NaN residual that does not come first
        exact = entanglement.full_report
        monkeypatch.setattr(entanglement, "full_report", lambda state: dataclasses.replace(
            exact(state), **{pair: float("nan"), rest: float("nan")}))
        report = cli.cmd_entangle(0.5, 0.0, "000", 1e-9)
        assert np.isnan(report.residual_summary["pair_concurrence"])
        assert np.isnan(report.residual_summary["one_vs_rest_sq"])
        assert not report.passes["pair_concurrence"] and not report.passed

    def test_bad_input_label_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "entangle", "--theta", "0.5", "--input", "012")
        assert code == 2


class TestSweep:
    def test_endpoint_rows(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "sweep", "--theta-min", "0",
                           "--theta-max", str(np.pi / 2), "--steps", "2",
                           "--out", str(out_path))
        assert code == 0
        validate(json.loads(out))
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == cli.SWEEP_HEADER
        assert len(lines) == 3  # header + steps rows
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[2].split(",")]
        assert first[1] == pytest.approx(0.0, abs=1e-9)       # tau at theta = 0
        assert first[3] == pytest.approx(2 / 3, abs=1e-9)     # pair concurrence
        assert all(abs(v) <= 1e-9 for v in last[1:7])          # separable point

    def test_ghz_row(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "sweep", "--theta-min", "0",
                         "--theta-max", str(np.pi / 2), "--steps", "4",
                         "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().split("\n")[1:]
        ghz_row = [float(v) for v in rows[1].split(",")]  # theta = pi/6
        assert ghz_row[0] == pytest.approx(np.pi / 6)
        assert ghz_row[1] == pytest.approx(1.0, abs=1e-9)

    def test_row_values_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "c.csv"
        run(capsys, "sweep", "--theta-min", "0.3", "--theta-max", "0.9",
            "--steps", "3", "--out", str(out_path))
        row = out_path.read_text().strip().split("\n")[1].split(",")
        assert float(row[0]) == 0.3

    @pytest.mark.parametrize("phi", ["0", "1.3"])
    def test_rows_equal_solo_full_report(self, tmp_path, capsys, phi):
        # the README sweep grid; each row is the report of its state alone
        out_path = tmp_path / "c.csv"
        code, _, _ = run(capsys, "sweep", "--theta-min", "0", "--theta-max", "3.14159",
                         "--steps", "121", "--phi", phi, "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().split("\n")[1:]
        thetas = np.linspace(0.0, 3.14159, 121)
        assert len(rows) == len(thetas)
        for row, theta in zip(rows, thetas.tolist()):
            ket = states.apply_r(yangbaxter.RParams(theta, float(phi)),
                                 states.basis_state("000"))
            rep = entanglement.full_report(ket)
            closed = (entanglement.tangle_closed_form(theta),
                      entanglement.pair_concurrence_closed_form(theta),
                      entanglement.one_vs_rest_sq_closed_form(theta))
            measured = (rep.tau_abc, rep.c_ab, rep.c2_a_bc)
            worst = max(abs(m - c) for m, c in zip(measured, closed))
            values = (theta, measured[0], closed[0], measured[1], closed[1],
                      measured[2], closed[2], worst)
            assert row == ",".join("%.17g" % v for v in values)

    def test_largest_finite_angle_has_finite_closed_forms(self, tmp_path, capsys):
        # 2 * 1e308 overflows; a NaN closed form would drop out of the row max
        out_path = tmp_path / "c.csv"
        code, _, err = run(capsys, "sweep", "--theta-min", "0", "--theta-max", "1e308",
                           "--steps", "3", "--out", str(out_path))
        assert code == 0 and err == ""
        text = out_path.read_text()
        assert "nan" not in text
        rows = [[float(v) for v in row.split(",")] for row in text.strip().split("\n")[1:]]
        assert np.isfinite(rows).all()

    def test_nan_closed_form_in_a_later_row_fails(self, tmp_path, capsys, monkeypatch):
        # a NaN residual outside the first row and column reaches the gate
        # (Python's max would drop it) and the report is refused as non-JSON
        exact = entanglement.pair_concurrence_closed_form
        monkeypatch.setattr(entanglement, "pair_concurrence_closed_form",
                            lambda theta: float("nan") if theta == 0.5 else exact(theta))
        code, out, err = run(capsys, "sweep", "--theta-min", "0", "--theta-max", "1",
                             "--steps", "3", "--out", str(tmp_path / "c.csv"))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    def test_requires_out(self, capsys):
        code, _, err = run(capsys, "sweep", "--theta-min", "0",
                           "--theta-max", "1", "--steps", "2")
        assert code == 2 and "out" in err

    def test_bad_grid_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--theta-min", "1", "--theta-max", "0",
                         "--steps", "2", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        code, _, _ = run(capsys, "sweep", "--theta-min", "0", "--theta-max", "1",
                         "--steps", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2


class TestSpectrum:
    def test_closed_form_eigenvalues(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--theta", "1.0471975511965976")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        eigs = payload["results"]["eigenvalues"]
        assert np.allclose(eigs, [-0.5, -0.5, 0, 0, 0, 0, 0.5, 0.5], atol=1e-10)
        assert payload["results"]["degeneracy_pattern"] == [2, 4, 2]

    def test_flat_point(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--theta", str(np.pi / 2))
        assert code == 0
        assert json.loads(out)["results"]["degeneracy_pattern"] == [8]

    @pytest.mark.parametrize("phidot", ["1e-200", "1e-300"])
    def test_tiny_drive_scale_keeps_the_split(self, capsys, phidot):
        # levels are grouped relative to hbar * phidot, not by an absolute gap
        code, out, _ = run(capsys, "spectrum", "--theta", "1", "--phidot", phidot)
        assert code == 0
        assert json.loads(out)["results"]["degeneracy_pattern"] == [2, 4, 2]

    @pytest.mark.parametrize("phidot", ["1e-200", "-1e-200", "1e-300", "0", "1e200",
                                        "-1e200", "-3"])
    def test_honest_run_passes_at_any_drive_scale(self, capsys, phidot):
        # the energy residuals are gated at tol * hbar * |phidot|
        code, out, _ = run(capsys, "spectrum", "--theta", "1", f"--phidot={phidot}")
        assert code == 0 and json.loads(out)["passed"]

    @pytest.mark.parametrize("drive", [
        ("--phidot", "1e200", "--hbar", "1e200"),  # hbar * phidot overflows
        ("--phidot", "1e308"),                     # only 2 * hbar * phidot does
        ("--hbar", "1e-320", "--phidot", "1e-10"),  # H would round to zeros
        ("--hbar", "1e-300", "--phidot", "1e-15"),  # H would be subnormal
    ])
    def test_drive_scale_outside_the_float_range_is_a_usage_error(self, capsys, drive):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow may reach numpy
            code, out, err = run(capsys, "spectrum", "--theta", "1", *drive)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "drive scale" in err

    def test_flipped_fixture_energy_fails_at_tiny_scale(self, capsys, monkeypatch):
        exact = dynamics.fixture_energy
        monkeypatch.setattr(dynamics, "fixture_energy",
                            lambda i, d: -exact(i, d) if i == 5 else exact(i, d))
        code, out, _ = run(capsys, "spectrum", "--theta", "1", "--phidot", "1e-200")
        assert code == 1
        passes = json.loads(out)["passes"]
        assert not passes["closed_form_match"] and not passes["fixture_eigen_equation_max"]


class TestBerry:
    def test_analytic_equator(self, capsys):
        code, out, _ = run(capsys, "berry", "--theta", "1.5707963267948966",
                           "--steps", "2000", "--method", "analytic")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        by_level = {r["level"]: r for r in payload["results"]["reports"]}
        assert by_level["minus"]["phases"][0] == pytest.approx(np.pi, abs=1e-5)
        assert by_level["plus"]["phases"][0] == pytest.approx(-np.pi, abs=1e-5)
        assert by_level["zero"]["phases"] == [0.0, 0.0, 0.0, 0.0]

    def test_wilson_single_level(self, capsys):
        code, out, _ = run(capsys, "berry", "--theta", "1.0471975511965976",
                           "--steps", "250", "--method", "wilson", "--level", "minus")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        (rep,) = payload["results"]["reports"]
        for p in rep["phases"]:
            assert abs(p - np.pi / 2) <= 1e-3

    @pytest.mark.parametrize("argv", [
        ("--level", "zero", "--steps", "5"),
        ("--level", "zero", "--steps", "-3"),
        ("--method", "wilson", "--level", "minus", "--steps", "99"),
    ])
    def test_too_few_steps_is_usage_error(self, capsys, argv):
        # the flat zero level integrates nothing, yet its --steps is checked
        code, out, err = run(capsys, "berry", "--theta", "1", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and ">= 100" in err

    def test_wilson_all_is_one_solve(self, capsys, monkeypatch):
        # both doublets come from one decomposition of the 2 x 2 blocks of H
        # on each parity sector's doublet range
        shapes = []
        original = linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "eigh", counting)
        code, out, _ = run(capsys, "berry", "--theta", "0.9", "--steps", "200",
                           "--method", "wilson", "--level", "all")
        assert code == 0
        assert shapes == [(400, 2, 2)]
        levels = [r["level"] for r in json.loads(out)["results"]["reports"]]
        assert levels == ["minus", "plus"]

    def test_wilson_zero_level_is_usage_error(self, capsys):
        code, out, err = run(capsys, "berry", "--theta", "0.9", "--method", "wilson",
                             "--level", "zero")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "split doublets" in err

    def test_wilson_at_crossing_is_numerical_failure(self, capsys):
        code, _, err = run(capsys, "berry", "--theta", str(np.pi / 2),
                           "--steps", "150", "--method", "wilson", "--level", "minus")
        assert code == 3 and "numerical" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "entangle")[0] == 2

    def test_csv_format_outside_sweep(self, capsys):
        code, _, err = run(capsys, "entangle", "--theta", "0.5", "--format", "csv")
        assert code == 2 and "csv" in err


class TestCounts:
    @pytest.mark.parametrize("argv", [
        ("verify-algebra", "--phi-samples", "0"),
        ("verify-algebra", "--phi-samples", "-1"),
        ("ybe", "--samples", "0"),
        ("ybe", "--samples", "-1"),
        ("ybe", "--phi-samples", "0"),
        ("ybe", "--phi-samples=-1"),
        ("ybe", "--samples", "2.5"),
    ])
    def test_bad_count_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and ">= 1" in err


class TestStrictJson:
    @pytest.mark.parametrize("argv", [
        ("berry", "--theta", "inf"),
        ("berry", "--theta", "nan", "--method", "wilson"),
        ("entangle", "--theta", "0.5", "--phi=-inf"),
        ("sweep", "--theta-min", "0", "--theta-max", "1e999", "--steps", "3"),
        ("spectrum", "--theta", "zero"),
    ])
    def test_non_finite_angle_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "finite" in err

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--theta", "1", "--phidot", "1e200"),
        ("entangle", "--theta", "1e308", "--phi", "1e308"),  # 2 * theta overflows
    ])
    def test_extreme_finite_input_gives_strict_report(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow may reach numpy
            code, out, err = run(capsys, *argv)
        payload = json.loads(out, parse_constant=reject)
        validate(payload)
        assert code == 0 and payload["passed"] and err == ""

    def test_nan_in_report_is_usage_error(self, capsys, monkeypatch):
        original = cli.cmd_entangle

        def nan_report(**kwargs):
            report = original(**kwargs)
            report.results["tau_abc"] = float("nan")
            return report

        nan_report.__name__ = original.__name__
        monkeypatch.setattr(cli, "cmd_entangle", nan_report)
        code, out, err = run(capsys, "entangle", "--theta", "0.5")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("verify-algebra",),
        ("ybe",),
        ("entangle", "--theta", "0.5"),
        ("sweep", "--theta-min", "0", "--theta-max", "1", "--steps", "3"),
        ("spectrum", "--theta", "1"),
        ("berry", "--theta", "0.9"),
    ])
    def test_bad_tolerance_is_usage_error(self, capsys, argv, tol):
        code, out, err = run(capsys, *argv, "--tol", tol)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and repr(tol) in err

    def test_to_json_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            report = cli.RunReport(command="spectrum", parameters={"theta": bad},
                                   results={}, residual_summary={}, passes={})
            with pytest.raises(ValueError):
                report.to_json()


class TestOutFile:
    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "spectrum", "--theta", "0.9",
                           "--out", str(target))
        assert code == 0 and out == ""
        validate(json.loads(target.read_text()))


class TestParserReuse:
    """main() parses with one parser per process; reusing it across commands,
    usage errors included, must give the bytes of a fresh parser per call."""

    @staticmethod
    def argvs(tmp_path):
        return [
            ("verify-algebra", "--phi-samples", "2", "--seed", "5"),
            ("ybe", "--samples", "3", "--phi-samples", "1", "--seed", "5"),
            ("entangle", "--theta", "30", "--degrees", "--input", "011"),
            ("sweep", "--theta-min", "0", "--theta-max", "1", "--steps", "4",
             "--out", str(tmp_path / "curves.csv")),
            ("spectrum", "--theta", "0.9", "--phi", "0.4"),
            ("berry", "--theta", "0.7", "--steps", "200", "--level", "minus"),  # exit 1
            ("ybe", "--samples", "0"),
            ("berry", "--theta", "0.7", "--method", "quadrature"),
            ("entangle",),
            ("frobnicate",),
            ("sweep", "--theta-min", "0", "--theta-max", "1", "--steps", "4",
             "--format", "json"),
            ("spectrum", "--theta", "inf"),
        ]

    def outputs(self, capsys, tmp_path):
        return [run(capsys, *argv) for argv in self.argvs(tmp_path)]

    def test_cached_parser_matches_fresh_parsers(self, capsys, tmp_path, monkeypatch):
        cached = self.outputs(capsys, tmp_path) + self.outputs(capsys, tmp_path)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outputs(capsys, tmp_path) + self.outputs(capsys, tmp_path)
        assert cached == fresh
        codes = [code for code, _, _ in cached[:len(cached) // 2]]
        assert codes == [0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 0, 2]
        assert all(out == "" for code, out, _ in cached if code == 2)

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_handler_replaced_after_parse_runs(self, capsys, monkeypatch):
        # a wrapper put in place of a handler (as a tracer does) runs even
        # though the cached parser was built with the original
        cli._parser()
        calls = []
        original = cli.cmd_spectrum

        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        wrapper.__name__ = original.__name__
        monkeypatch.setattr(cli, "cmd_spectrum", wrapper)
        assert run(capsys, "spectrum", "--theta", "0.9")[0] == 0
        assert calls == [{"theta": 0.9, "phi": 0.0, "phidot": 1.0, "hbar": 1.0,
                          "tol": 1e-10}]


class TestHelp:
    @pytest.mark.parametrize("command, shown", [
        ("verify-algebra", "1e-10"), ("ybe", "1e-10"), ("spectrum", "1e-10"),
        ("entangle", "1e-09"), ("sweep", "1e-09"),
        ("berry", "1e-5 analytic, 1e-4 wilson"),
    ])
    def test_tol_default_shown(self, capsys, command, shown):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert f"(default: {shown})" in " ".join(out.split())

    @pytest.mark.parametrize("argv, tol", [
        (("verify-algebra", "--phi-samples", "1"), 1e-10),
        (("ybe", "--samples", "1", "--phi-samples", "1"), 1e-10),
        (("spectrum", "--theta", "0.9"), 1e-10),
        (("entangle", "--theta", "0.9"), 1e-9),
    ])
    def test_tol_default_echoed(self, capsys, argv, tol):
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["parameters"]["tol"] == tol

    @pytest.mark.parametrize("method, steps, tol", [
        ("analytic", 10_000, 1e-5), ("wilson", 800, 1e-4),
    ])
    def test_berry_defaults_follow_method(self, capsys, method, steps, tol):
        _, out, _ = run(capsys, "berry", "--theta", "0.9", "--method", method,
                        "--level", "zero" if method == "analytic" else "minus")
        parameters = json.loads(out)["parameters"]
        assert (parameters["steps"], parameters["tol"]) == (steps, tol)


# argv values: any float, the extremes, non-finite and non-numeric text
NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e300", "-1e300", "1e-300", "-1e-300", "1e308", "nan", "-inf", "x"]))


def option(name, values):
    return st.one_of(st.just(()), values.map(lambda value: (name, value)))


def counts(low, high):
    return st.integers(low, high).map(str)


SWITCH = st.sampled_from([(), ("--degrees",)])
TOL = option("--tol", NUMBERS)
ARGV_PARTS = {
    "verify-algebra": (option("--phi-samples", counts(-1, 4)), option("--seed", counts(-2, 99)),
                       TOL),
    "ybe": (option("--samples", counts(-1, 5)), option("--phi-samples", counts(-1, 3)),
            option("--seed", counts(-2, 99)), TOL),
    "entangle": (option("--theta", NUMBERS), option("--phi", NUMBERS),
                 option("--input", st.sampled_from(["000", "110", "2"])), TOL, SWITCH),
    "sweep": (option("--theta-min", NUMBERS), option("--theta-max", NUMBERS),
              option("--steps", counts(-1, 30)), option("--phi", NUMBERS),
              option("--format", st.sampled_from(["json", "csv"])),
              st.sampled_from([(), ("--out", "OUT")]), TOL, SWITCH),
    "spectrum": (option("--theta", NUMBERS), option("--phi", NUMBERS),
                 option("--phidot", NUMBERS), option("--hbar", NUMBERS), TOL, SWITCH),
    "berry": (option("--theta", NUMBERS), option("--steps", counts(90, 250)),
              option("--method", st.sampled_from(["analytic", "wilson"])),
              option("--level", st.sampled_from(["plus", "minus", "zero", "all"])), TOL, SWITCH),
}
ARGVS = st.sampled_from(sorted(ARGV_PARTS)).flatmap(lambda command: st.tuples(
    *ARGV_PARTS[command]).map(lambda parts: [command, *(a for part in parts for a in part)]))


class TestArgvFuzz:
    @settings(max_examples=150)
    @given(ARGVS)
    @example(["spectrum", "--theta", "1", "--phidot", "1e200", "--hbar", "1e200"])
    @example(["spectrum", "--theta", "1", "--phidot", "1e308"])
    @example(["spectrum", "--theta", "1", "--hbar", "1e-320", "--phidot", "1e-10"])
    @example(["spectrum", "--theta", "1", "--hbar", "1e-300", "--phidot", "1e-15"])
    def test_every_run_ends_in_a_report_or_one_error_line(self, argv):
        # exit 0/1 with a strict, schema-valid report and nothing on stderr,
        # or exit 2/3 with one stderr line; no warning may reach numpy
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [os.path.join(tmp, "curves.csv") if a == "OUT" else a for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
        if code in (0, 1):
            payload = json.loads(out.getvalue(), parse_constant=reject)
            validate(payload)
            assert payload["passed"] is (code == 0) and err.getvalue() == ""
        else:
            assert code in (2, 3) and out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
