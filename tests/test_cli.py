import contextlib
import io
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidphase import berry, braid, cli, dynamics, entanglement, linalg, states, yangbaxter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
import golden  # noqa: E402

GOLDEN_SPECTRUM = [command for command in golden.README_COMMANDS + golden.EXTRA_COMMANDS
                   if command.startswith("spectrum")]
# the golden analytic berry commands with a split level, "all" included
GOLDEN_ANALYTIC_SPLIT = [command for command in golden.README_COMMANDS + golden.EXTRA_COMMANDS
                         if command.startswith("berry") and "--method analytic" in command
                         and "--level zero" not in command]


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
                rep = rep._replace(residuals={**rep.residuals, name: values})
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
        # the all-pairs loop is the oracle: its (theta_k, phi_k) pairs give the
        # reported maximum bitwise, and no pair exceeds the all-theta bound
        _, out, _ = run(capsys, "verify-algebra", "--phi-samples", "6", "--seed", "2")
        results = json.loads(out)["results"]
        phis, thetas = results["phi_values"], results["theta_values"]
        for system, dim in (("two_qubit", 4), ("three_qubit", 8)):
            residual = {}
            for j, theta in enumerate(thetas):
                for k, phi in enumerate(phis):
                    r = yangbaxter.r_matrix(system, yangbaxter.RParams(theta, phi))
                    residual[j, k] = linalg.frobenius_norms(
                        [r.conj().T @ r - np.eye(dim, dtype=complex)])[0]
            paired = max(residual[k, k] for k in range(len(phis)))
            assert results["unitarity_max"][system] == paired
            bound = results["unitarity_all_theta_max"][system]
            assert max(residual.values()) <= bound + 1e-14

    def test_non_unitary_similar_generator_fails_both_unitarity_gates(self, capsys, monkeypatch):
        # M -> S M S^-1 with a non-unitary S keeps M^2 = -I (S and S^-1 are
        # exact) and breaks M^dag = -M: the paired samples and the all-theta
        # bound both fail, the three-qubit system (built apart) does not
        s = np.eye(4)
        s[0, 1] = 0.5
        s_inv = np.eye(4)
        s_inv[0, 1] = -0.5
        build_m4 = braid.build_m4
        monkeypatch.setattr(braid, "build_m4", lambda phi: s @ build_m4(phi) @ s_inv)
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "17", "--seed", "0")
        passes = json.loads(out)["passes"]
        assert code == 1 and passes["m4_square"]
        assert not passes["unitarity_two_qubit"] and not passes["unitarity_all_theta_two_qubit"]
        assert passes["unitarity_three_qubit"] and passes["unitarity_all_theta_three_qubit"]

    def test_rescaled_composite_fails_the_square_gate(self, capsys, monkeypatch):
        # mcal / (1 + 1e-9) keeps mbb^2 = (1 - 2e-9) I a multiple of I: the
        # gate reads ||mbb^2 - I|| = sqrt(8) 2e-9, not a fit of that multiple
        monkeypatch.setattr(braid, "SQRT3", braid.SQRT3 * (1 + 1e-9))
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "17", "--seed", "0")
        payload = json.loads(out)
        assert code == 1 and not payload["passes"]["mbb_square"]
        assert payload["residual_summary"]["mbb_square"] == pytest.approx(
            np.sqrt(8) * 2e-9, rel=1e-6)

    def test_flipped_lift_part_fails_the_transcription_gate(self, capsys, monkeypatch):
        # B = I otimes M built with -M0: mcal leaves its entrywise transcription
        parts = list(braid._LIFT_23)
        parts[2] = -parts[2]
        monkeypatch.setattr(braid, "_LIFT_23", tuple(parts))
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "17", "--seed", "0")
        payload = json.loads(out)
        assert code == 1 and not payload["passes"]["mcal_transcription"]
        assert payload["residual_summary"]["mcal_transcription"] > 0.1

    def test_mislifted_chain_fails_the_kappa_gate(self, capsys, monkeypatch):
        # both lifts on sites 1-3: {A, A} = -2 I, so ||3 {A, A} + 2 I|| = 4 ||I_16|| = 16;
        # no other gate reads the chain
        lifts = braid._chain_lifts
        monkeypatch.setattr(braid, "_chain_lifts", lambda gens: (lifts(gens)[0],) * 2)
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "17", "--seed", "0")
        payload = json.loads(out)
        assert code == 1
        assert [gate for gate, ok in payload["passes"].items() if not ok] == [
            "chain_anticommutation"]
        assert payload["residual_summary"]["chain_anticommutation"] == pytest.approx(16.0)

    def test_ladder_block(self, capsys):
        # the brackets that hold are gated; the unit misreadings are reported only
        code, out, _ = run(capsys, "verify-algebra", "--phi-samples", "3")
        payload = json.loads(out)
        ladder = payload["results"]["ladder"]
        assert code == 0 and ladder == dynamics.ladder_residuals()
        assert all(payload["passes"][name] for name in ladder["residuals"])
        assert ladder["misreadings"]["ladder_plus_unit"] == pytest.approx(2 * np.sqrt(6))
        assert not set(ladder["misreadings"]) & set(payload["passes"])


class TestYbe:
    def test_one_call_for_every_system_and_family(self, capsys, monkeypatch):
        # one call covers both systems, every sampled pair and
        # a whole phi grid of up to 64 angles
        calls = []
        original = yangbaxter.ybe_residual

        def counting(xs, ys, phis):
            calls.append((len(xs), len(phis)))
            return original(xs, ys, phis)

        monkeypatch.setattr(yangbaxter, "ybe_residual", counting)
        assert run(capsys, "ybe", "--samples", "3", "--phi-samples", "4")[0] == 0
        assert calls == [(3, 4)]

    def test_report(self, capsys):
        code, out, _ = run(capsys, "ybe", "--samples", "3", "--phi-samples", "2",
                           "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["residual_summary"]["two_qubit_rational_max"] <= 1e-10
        # measured, reported, never gated
        assert payload["results"]["max_residuals"]["three_qubit_rational_max"] > 0.0
        assert list(payload["passes"]) == list(payload["residual_summary"]) == [
            "two_qubit_rational_max"]

    def test_gated_and_reported_only_name_every_residual(self):
        # the report's residual names come from its maxima alone
        for seed in (0, 6, 11):
            results = cli.cmd_ybe(1e-10, 3, 2, seed).results
            names = [results["gated"], *results["reported_only"]]
            assert [f"{name}_max" for name in names] == list(results["max_residuals"])

    def test_phi_blocks_give_the_whole_grid_maxima(self, monkeypatch):
        # 130 phi go in blocks of 64, 64 and 2; each maximum is bitwise the
        # one over a single call on the whole grid
        rng = random.Random(4)
        xs, ys = cli._sample_spectral_pairs(rng, 7)
        whole = yangbaxter.ybe_residual(xs, ys, cli._uniform(rng, 0.0, 2 * np.pi, 130))
        calls = []
        original = yangbaxter.ybe_residual
        monkeypatch.setattr(yangbaxter, "ybe_residual", lambda xs, ys, phis: calls.append(
            len(phis)) or original(xs, ys, phis))
        maxima = cli.cmd_ybe(1e-10, 7, 130, 4).results["max_residuals"]
        assert calls == [64, 64, 2]
        assert maxima == {f"{key}_max": float(np.max(res)) for key, res in whole.items()}

    def test_nan_residual_in_a_later_block_fails(self, capsys, monkeypatch):
        # np.maximum keeps the NaN of the second block, so the report is refused
        original = yangbaxter.ybe_residual

        def nan_in_second_block(xs, ys, phis):
            out = original(xs, ys, phis)
            if len(phis) < 64:
                out["three_qubit_rational"][0, 0] = np.nan
            return out

        monkeypatch.setattr(yangbaxter, "ybe_residual", nan_in_second_block)
        code, out, err = run(capsys, "ybe", "--samples", "2", "--phi-samples", "70")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    def test_memory_is_flat_in_phi_samples(self):
        # each block's residual grids are folded into two maxima and dropped
        def peak(phi_samples):
            tracemalloc.start()
            cli.cmd_ybe(1e-10, 100, phi_samples, 0)
            used = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return used

        peak(64)  # first call outside the measurement
        assert peak(256) <= 1.5 * peak(64)


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
        monkeypatch.setattr(entanglement, "full_report", lambda state: exact(state)._replace(
            **{pair: float("nan"), rest: float("nan")}))
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

    def test_each_closed_form_is_one_call_on_the_grid(self, tmp_path, capsys, monkeypatch):
        # the README sweep evaluates each closed form once, on the whole grid
        calls = []
        names = ("tangle_closed_form", "pair_concurrence_closed_form",
                 "one_vs_rest_sq_closed_form")
        for name in names:
            def recording(theta, name=name, form=getattr(entanglement, name)):
                calls.append((name, np.array(theta)))
                return form(theta)
            monkeypatch.setattr(entanglement, name, recording)
        code, _, _ = run(capsys, "sweep", "--theta-min", "0", "--theta-max", "3.14159",
                         "--steps", "121", "--out", str(tmp_path / "c.csv"))
        assert code == 0
        assert sorted(name for name, _ in calls) == sorted(names)
        for _, theta in calls:
            assert np.array_equal(theta, np.linspace(0.0, 3.14159, 121))

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
                            lambda theta: np.where(np.equal(theta, 0.5), np.nan, exact(theta)))
        code, out, err = run(capsys, "sweep", "--theta-min", "0", "--theta-max", "1",
                             "--steps", "3", "--out", str(tmp_path / "c.csv"))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    @pytest.mark.parametrize("low, high, steps", [("-1e308", "1e308", "3"),
                                                  ("-1.7e308", "1.7e308", "2")])
    def test_range_wider_than_the_largest_float_is_a_usage_error(self, capsys, low, high, steps):
        # both angles are finite, but np.linspace would overflow on their width
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sweep", "--theta-min", low, "--theta-max", high,
                                 "--steps", steps, "--format", "json")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "theta range" in err

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

    def test_projector_gate_reads_tol(self, capsys):
        # a residual of about 4e-16 here, above a --tol of 1e-16; the projectors
        # are dimensionless, so the bound is tol itself, with no floor
        code, out, _ = run(capsys, "spectrum", "--theta", "1.0472", "--phi", "0.3",
                           "--tol", "1e-16")
        payload = json.loads(out)
        assert code == 1 and payload["residual_summary"]["projector_match_max"] > 1e-16
        assert not payload["passes"]["projector_match_max"]

    @pytest.mark.parametrize("field, gate", [
        ("fixture_residuals", "fixture_eigen_equation_max"),
        ("projector_residuals", "projector_match_max")])
    def test_nan_at_a_later_residual_fails_its_gate(self, capsys, monkeypatch, field, gate):
        # Python's max would drop a NaN residual that does not come first
        exact = dynamics.spectrum

        def nan_second(d):
            rep = exact(d)
            values = list(getattr(rep, field))
            values[1] = float("nan")
            return rep._replace(**{field: tuple(values)})

        monkeypatch.setattr(dynamics, "spectrum", nan_second)
        report = cli.cmd_spectrum(1.0, 0.3, 1.0, 1.0, 1e-10)
        assert np.isnan(report.residual_summary[gate])
        assert not report.passes[gate] and not report.passed
        code, out, err = run(capsys, "spectrum", "--theta", "1", "--phi", "0.3")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    def test_builds_h_once(self, capsys, monkeypatch):
        # the ladder gate reads the H that the fixture residuals were taken on
        built, hamiltonian = [], dynamics.hamiltonian
        monkeypatch.setattr(dynamics, "hamiltonian", lambda d: built.append(d) or hamiltonian(d))
        code, _, _ = run(capsys, "spectrum", "--theta", "1.0472", "--phi", "0.3")
        assert code == 0 and len(built) == 1

    def test_calls_no_bracket_code(self, capsys, monkeypatch):
        # the ladder brackets are constants, checked by verify-algebra
        monkeypatch.setattr(dynamics, "ladder_residuals",
                            lambda: pytest.fail("spectrum checked the brackets"))
        code, out, _ = run(capsys, "spectrum", "--theta", "1.0472", "--phi", "0.3")
        assert code == 0 and "bracket_residuals" not in json.loads(out)["results"]


class TestGoldenCommands:
    def test_no_eigh_above_two_by_two(self, monkeypatch):
        # every golden command in-process, with the shape of each matrix or
        # stack linalg.eigh is given recorded
        shapes = []
        original = linalg.eigh

        def recording(a):
            shapes.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(linalg, "eigh", recording)
        for command, code, _, _ in golden.outputs():
            assert code in (0, 1), command
            assert all(shape[-1] <= 2 for shape in shapes), (command, shapes)
            if command.startswith("spectrum"):
                assert shapes == [(2, 2, 2)], command
            shapes.clear()

    @staticmethod
    def swap_levels(monkeypatch):
        # the members of the minus and plus levels swapped in the level table
        (minus, fives), (plus, sixes) = dynamics.LEVELS["minus"], dynamics.LEVELS["plus"]
        monkeypatch.setitem(dynamics.LEVELS, "minus", (minus, sixes))
        monkeypatch.setitem(dynamics.LEVELS, "plus", (plus, fives))

    @pytest.mark.parametrize("command", GOLDEN_SPECTRUM)
    def test_fixture_swap_mutant_fails(self, capsys, monkeypatch, command):
        self.swap_levels(monkeypatch)
        code, out, _ = run(capsys, *shlex.split(command))
        assert code == 1
        passes = json.loads(out)["passes"]
        assert not passes["fixture_eigen_equation_max"]
        assert not passes["projector_match_max"]

    @pytest.mark.parametrize("command", GOLDEN_ANALYTIC_SPLIT)
    def test_fixture_swap_mutant_fails_analytic_berry(self, capsys, monkeypatch, command):
        # each fixture carries its own phase, so a swapped member reads the
        # other level's sign; the zero level's gate is not a split one
        self.swap_levels(monkeypatch)
        code, out, _ = run(capsys, *shlex.split(command))
        assert code == 1
        passes = json.loads(out)["passes"]
        split = {gate: ok for gate, ok in passes.items() if not gate.startswith("zero")}
        assert split and not any(split.values()), passes


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

    @pytest.mark.parametrize("argv", [
        ("entangle", "--theta", "-1e-3"),
        ("spectrum", "--theta", "1", "--phidot", "-2.5e0"),
        ("berry", "--theta", "-1E-1"),
    ])
    def test_negative_number_with_an_exponent_is_a_value(self, capsys, argv):
        # argparse alone reads these as options ("expected one argument")
        code, out, err = run(capsys, *argv)
        joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
        assert code == 0 and err == ""
        assert run(capsys, *joined) == (code, out, err)

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

    @pytest.mark.parametrize("method", ["analytic", "wilson"])
    def test_nan_at_a_later_residual_fails_its_gate(self, capsys, monkeypatch, method):
        # Python's max would drop the NaN of the level's second phase
        exact, calls = berry.phase_residual, []

        def nan_second(phase, reference):
            calls.append(phase)
            return float("nan") if len(calls) == 2 else exact(phase, reference)

        monkeypatch.setattr(berry, "phase_residual", nan_second)
        report = cli.cmd_berry(0.9, 100, method, "minus", None)
        assert len(calls) == 2 and np.isnan(report.residual_summary["minus_residual_max"])
        assert not report.passes["minus_residual_max"] and not report.passed
        calls.clear()
        code, out, err = run(capsys, "berry", "--theta", "0.9", "--steps", "100",
                             "--method", method, "--level", "minus")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "JSON" in err

    def test_wilson_zero_level_is_usage_error(self, capsys):
        code, out, err = run(capsys, "berry", "--theta", "0.9", "--method", "wilson",
                             "--level", "zero")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "split doublets" in err

    @pytest.mark.parametrize("method, level, choices", [
        ("analytic", "bogus", "'zero', 'minus', 'plus' or 'all'"),
        ("wilson", "bogus", "'zero', 'minus', 'plus' or 'all'"),
        ("quadrature", "all", "'analytic' or 'wilson'"),
    ])
    def test_unknown_choice_rejected(self, method, level, choices):
        # a level that selects nothing would leave no gate, and no KeyError
        # may escape the wilson route
        with pytest.raises(ValueError, match=f"; expected {choices}$"):
            cli.cmd_berry(0.7, None, method, level, None)

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

    @pytest.mark.parametrize("argv", [
        ("verify-algebra", "--phi-samples", "100000000000000000000"),
        ("verify-algebra", "--phi-samples", "100001"),
        ("ybe", "--samples", "100000000000000000000"),
        ("ybe", "--phi-samples", "100001"),
    ])
    def test_count_above_the_bound_exits_before_any_draw(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_uniform", lambda *args: pytest.fail("samples drawn"))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"braidphase {argv[0]}: error: argument {argv[1]}: count must be "
                       f"an integer >= 1 and <= 100000, got {argv[2]!r}\n")

    @pytest.mark.parametrize("handler,counts,name", [
        (cli.cmd_verify_algebra, {"phi_samples": 0}, "phi_samples"),
        (cli.cmd_verify_algebra, {"phi_samples": -3}, "phi_samples"),
        (cli.cmd_verify_algebra, {"phi_samples": cli._MAX_SAMPLES + 1}, "phi_samples"),
        (cli.cmd_ybe, {"samples": 0, "phi_samples": 5}, "samples"),
        (cli.cmd_ybe, {"samples": 5, "phi_samples": 0}, "phi_samples"),
        (cli.cmd_ybe, {"samples": cli._MAX_SAMPLES + 1, "phi_samples": 5}, "samples"),
        (cli.cmd_ybe, {"samples": 5, "phi_samples": cli._MAX_SAMPLES + 1}, "phi_samples"),
    ])
    def test_handler_checks_its_own_counts(self, handler, counts, name):
        # called directly, without the parser's check
        message = f"^{name} must be an integer >= 1 and <= 100000, got {counts[name]}$"
        with pytest.raises(ValueError, match=message):
            handler(tol=1e-10, seed=1, **counts)

    @pytest.mark.parametrize("steps", ["100001", "100000000000000000000"])
    def test_sweep_steps_above_the_bound_is_usage_error(self, capsys, tmp_path, steps):
        code, out, err = run(capsys, "sweep", "--theta-min", "0", "--theta-max", "1",
                             "--steps", steps, "--out", str(tmp_path / "c.csv"))
        assert code == 2 and out == "" and not (tmp_path / "c.csv").exists()
        assert err == (f"braidphase sweep: error: argument --steps: steps must be "
                       f"an integer >= 2 and <= 100000, got {steps!r}\n")

    @pytest.mark.parametrize("steps", [1, cli._MAX_SAMPLES + 1])
    def test_sweep_checks_its_own_steps(self, steps):
        # the parser's wording, without the parser's check
        message = f"^steps must be an integer >= 2 and <= 100000, got {steps}$"
        with pytest.raises(ValueError, match=message):
            cli.cmd_sweep(0.0, 1.0, steps, 0.0, 1e-9)

    @pytest.mark.parametrize("steps", ["100001", "100000000000000000000"])
    def test_berry_steps_above_the_bound_is_usage_error(self, capsys, steps):
        code, out, err = run(capsys, "berry", "--theta", "1", "--steps", steps)
        assert code == 2 and out == ""
        assert err == (f"braidphase berry: error: argument --steps: steps must be "
                       f"an integer >= 100 and <= 100000, got {steps!r}\n")

    @pytest.mark.parametrize("method", ["analytic", "wilson"])
    def test_berry_checks_its_own_steps(self, monkeypatch, method):
        # the parser's wording, without the parser's check, before any loop
        for route in ("berry_analytic", "berry_wilson"):
            monkeypatch.setattr(berry, route, lambda *args: pytest.fail("loop built"))
        with pytest.raises(ValueError, match="^steps must be an integer >= 100 and <= 100000, "
                                             "got 100001$"):
            cli.cmd_berry(1.0, 100001, method, "minus", None)

    def test_count_of_one_runs(self):
        assert cli.cmd_verify_algebra(1e-10, 1, 1).passed
        assert cli.cmd_ybe(1e-10, 1, 1, 1).passed

    @pytest.mark.parametrize("argv", [
        ("verify-algebra", "--seed", "-1"),
        ("ybe", "--seed=-1"),
        ("ybe", "--seed", "1.5"),
    ])
    def test_bad_seed_is_usage_error(self, capsys, argv):
        # random.Random(-1) would seed as random.Random(1)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and ">= 0" in err


class TestColdStart:
    def test_seeded_commands_do_not_import_numpy_random(self, tmp_path):
        # their samples come from Python's random, which a fresh interpreter
        # has loaded already; numpy.random would be a one-time import
        code = ("import os, sys; from braidphase import cli; "
                "codes = [cli.main([command, '--out', os.devnull]) "
                "for command in ('verify-algebra', 'ybe')]; "
                "print(codes, 'numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.stdout, done.stderr) == ("[0, 0] False\n", "")

    def test_a_run_builds_its_own_command_parser_alone(self, tmp_path):
        # the import builds no parser, so that setup time cannot absorb the
        # work; a run builds the top-level parser and its command's subparser
        code = textwrap.dedent("""
            import argparse, os
            built, init = [], argparse.ArgumentParser.__init__
            def record(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = record
            from braidphase import cli
            print(built)
            print(cli.main(["entangle", "--theta", "0.5", "--out", os.devnull]), built)
            """)
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.stdout, done.stderr) == (
            "[]\n0 ['braidphase', 'braidphase entangle']\n", "")

    def test_import_loads_no_dataclasses(self, tmp_path):
        # the records are named tuples: importing the CLI creates no dataclass,
        # and is not what imports the dataclasses module
        code = ("import sys, numpy, argparse, json; "
                "before = 'dataclasses' in sys.modules; import braidphase.cli; "
                "print(before, 'dataclasses' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        before, after = done.stdout.split()
        assert done.stderr == "" and after == before


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


class TestRunReport:
    # a report with no gate does not pass: a vacuous pass would hide a check
    # that selected nothing
    @pytest.mark.parametrize("passes, passed", [
        ({}, False), ({"a": True}, True), ({"a": True, "b": np.False_}, False),
    ])
    def test_passes_when_it_has_gates_and_every_gate_does(self, passes, passed):
        report = cli.RunReport(command="berry", parameters={}, results={},
                               residual_summary={}, passes=passes)
        assert report.passed is passed
        assert json.loads(report.to_json())["passed"] is passed


class TestOutFile:
    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "spectrum", "--theta", "0.9",
                           "--out", str(target))
        assert code == 0 and out == ""
        validate(json.loads(target.read_text()))


class TestParserReuse:
    """main() parses with one cached parser per command, which holds that
    command alone, and one of every command for any other argv; reusing them
    across commands, usage errors included, must give the bytes of a fresh
    parser of every command, cli._build(cli._COMMANDS), per call."""

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
        monkeypatch.setattr(cli, "_parser", lambda command: cli._build(cli._COMMANDS))
        fresh = self.outputs(capsys, tmp_path) + self.outputs(capsys, tmp_path)
        assert cached == fresh
        codes = [code for code, _, _ in cached[:len(cached) // 2]]
        assert codes == [0, 0, 0, 0, 0, 1, 2, 2, 2, 2, 0, 2]
        assert all(out == "" for code, out, _ in cached if code == 2)

    # help and usage errors: no command, an unknown one, top-level --help,
    # each command's --help, a missing required option, an unrecognized
    # trailing argument and a negative seed
    HELP_AND_USAGE = [
        (), ("frobnicate",), ("--help",), *((command, "--help") for command in cli._COMMANDS),
        ("spectrum",), ("berry", "--theta", "0.7", "extra"), ("verify-algebra", "--seed", "-1"),
    ]

    def test_command_parser_matches_full_parser(self, capsys, tmp_path, monkeypatch):
        argvs = [shlex.split(command) for command in golden.README_COMMANDS
                 + golden.EXTRA_COMMANDS]
        argvs = [[str(tmp_path / a) if a == "curves.csv" else a for a in argv]
                 for argv in argvs] + [list(argv) for argv in self.HELP_AND_USAGE]
        own = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(cli, "_parser", lambda command: cli._build(cli._COMMANDS))
        full = [run(capsys, *argv) for argv in argvs]
        assert own == full
        usage = len(self.HELP_AND_USAGE)
        assert all(code in (0, 1) and err == "" for code, _, err in own[:-usage])
        assert [code for code, _, _ in own[-usage:]] == [2, 2] + 7 * [0] + 3 * [2]
        assert all(out == "" and len(err.splitlines()) == 1
                   for code, out, err in own if code == 2)

    def test_parser_built_once(self):
        assert cli._parser(None) is cli._parser(None)
        for command in cli._COMMANDS:
            parser = cli._parser(command)
            assert parser is cli._parser(command) and parser is not cli._parser(None)
            (commands,) = parser._subparsers._group_actions
            assert list(commands.choices) == [command]

    def test_handler_replaced_after_parse_runs(self, capsys, monkeypatch):
        # a wrapper put in place of a handler (as a tracer does) runs even
        # though the cached parser was built with the original
        cli._parser("spectrum")
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
    @example(["sweep", "--theta-min", "0.0", "--theta-max", "0.0", "--steps", "2",
              "--format", "json", "--out", "OUT"])
    # counts whose arrays numpy refuses to allocate, before it allocates anything
    @example(["sweep", "--theta-min", "0", "--theta-max", "1", "--steps", "1000000000000",
              "--out", "OUT"])
    @example(["berry", "--theta", "0.5", "--steps", "1000000000000"])
    @example(["berry", "--theta", "0.5", "--steps", "1000000000000", "--method", "wilson"])
    def test_every_run_ends_in_a_report_or_one_error_line(self, argv):
        # exit 0/1 with a strict, schema-valid report and nothing on stderr,
        # or exit 2/3 with one stderr line; no warning may reach numpy. The
        # report goes to --out, and stdout stays empty, unless --out takes
        # the sweep's CSV rows (its default format)
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        to_out = "--out" in argv and not (argv[0] == "sweep" and fmt == "csv")
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "curves.csv")
            argv = [path if a == "OUT" else a for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main(argv)
            if code in (0, 1) and to_out:
                assert out.getvalue() == ""
                with open(path, encoding="utf-8") as fh:
                    report = fh.read()
            else:
                report = out.getvalue()
        if code in (0, 1):
            payload = json.loads(report, parse_constant=reject)
            validate(payload)
            assert payload["passed"] is (code == 0) and err.getvalue() == ""
        else:
            assert code in (2, 3) and out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
