"""Acceptance suite: every gated claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
all). The ladder operators dynamics.I_PLUS, I_MINUS, I_3 are
x3-normalized: [I3, I+-] = +-3 I+- and [I+, I-] = 2 I3 hold exactly. The
unit normalization J+- = I+-/sqrt(3), J3 = I3/3, with fields sqrt(3) B+- and
3 B3, closes [J3, J+-] = +-J+-, [J+, J-] = 2 J3; test_c08b gates that
unit-normalized split, on which the spin-1/2 Berry phase of test_c09 rests.
See the README's findings section.
"""

import numpy as np
import pytest

from braidphase import berry, braid, dynamics, entanglement, states, yangbaxter
from braidphase.dynamics import DriveParams
from braidphase.yangbaxter import RParams, SpectralParam
from oracles import concurrence, hamiltonian_from_r


def report_line(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def sample_unit_circle_pairs(rng, count):
    pairs = []
    while len(pairs) < count:
        a, b = rng.uniform(-np.pi, np.pi, 2)
        if min(abs(np.cos(a)), abs(np.cos(b)), abs(np.cos(a + b))) < 1e-3:
            continue
        pairs.append((np.exp(1j * a), np.exp(1j * b)))
    return pairs


def test_c01_generator_algebra():
    """Every gate of check_es2_relations: M^2 = -I4 (m4_square), both sandwich
    relations (aba_sandwich, bab_sandwich), anticommutation, mbb^2 = I8 itself
    (mbb_square), mbb Hermitian (mcal_antihermitian), mcal against its entrywise
    transcription (mcal_transcription) and 3 {mcal x I2, I2 x mcal} = -2 I16 on the
    4-site chain (chain_anticommutation)."""
    tol = 1e-10
    phis = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    rep = braid.check_es2_relations(braid.build_braidset(phis))
    worst = np.max(list(rep.residuals.values()))
    ok = worst <= tol
    report_line("1 generator algebra", ok, f"max residual {worst:.3e} <= {tol}")
    assert ok


def test_c02_unitarity():
    """R^dag R = I within 1e-12 on an 11x11 angle grid, both system sizes."""
    tol = 1e-12
    worst = 0.0
    for system, dim in ((yangbaxter.TWO_QUBIT, 4), (yangbaxter.THREE_QUBIT, 8)):
        eye = np.eye(dim)
        for theta in np.linspace(0, 2 * np.pi, 11, endpoint=False):
            for phi in np.linspace(0, 2 * np.pi, 11, endpoint=False):
                r = yangbaxter.r_matrix(system, RParams(theta, phi))
                worst = np.maximum(worst, np.linalg.norm(r.conj().T @ r - eye))
    ok = worst <= tol
    report_line("2 unitarity", ok, f"max ||R+R - I|| {worst:.3e} <= {tol}")
    assert ok


def test_c03_yang_baxter():
    """4x4 equation gated at 1e-10; the 8x8 residual measured and reported only."""
    tol = 1e-10
    rng = np.random.default_rng(2026)
    pairs = sample_unit_circle_pairs(rng, 50)
    phis = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    res = yangbaxter.ybe_residual([SpectralParam(x) for x, _ in pairs],
                                  [SpectralParam(y) for _, y in pairs], phis)
    worst4 = np.max(res["two_qubit_rational"])
    worst8 = np.max(res["three_qubit_rational"])
    ok = worst4 <= tol
    report_line("3 yang-baxter", ok,
                f"4x4 max {worst4:.3e} <= {tol}; 8x8 reported (no gate): "
                f"max {worst8:.3e} under the overlapping-triple lift")
    assert ok
    assert np.isfinite(worst8)


def test_c04_entanglement_curves():
    """Measured tangle / pair / one-vs-rest match closed forms; phase-independent."""
    tol_curve, tol_phase = 1e-9, 1e-10
    thetas = np.linspace(0, np.pi, 25)
    phis = np.linspace(0, 2 * np.pi, 5, endpoint=False)
    worst_curve = 0.0
    worst_spread = 0.0
    for theta in thetas:
        tau_c = entanglement.tangle_closed_form(theta)
        pair_c = entanglement.pair_concurrence_closed_form(theta)
        rest_c = entanglement.one_vs_rest_sq_closed_form(theta)
        for label in states.BASIS_LABELS:
            seen = []
            for phi in phis:
                out = states.apply_r(RParams(theta, phi), states.basis_state(label))
                rep = entanglement.full_report(out)
                worst_curve = np.max([
                    worst_curve,
                    abs(rep.tau_abc - tau_c),
                    abs(rep.c_ab - pair_c), abs(rep.c_bc - pair_c),
                    abs(rep.c_ac - pair_c),
                    abs(rep.c2_a_bc - rest_c), abs(rep.c2_b_ac - rest_c),
                    abs(rep.c2_c_ab - rest_c)])
                seen.append((rep.tau_abc, rep.c_ab, rep.c_bc, rep.c_ac,
                             rep.c2_a_bc, rep.c2_b_ac, rep.c2_c_ab))
            spread = np.ptp(np.array(seen), axis=0).max()
            worst_spread = np.maximum(worst_spread, spread)
    ok = worst_curve <= tol_curve and worst_spread <= tol_phase
    report_line("4 entanglement curves", ok,
                f"curve residual {worst_curve:.3e} <= {tol_curve}; "
                f"phase spread {worst_spread:.3e} <= {tol_phase}")
    assert worst_curve <= tol_curve
    assert worst_spread <= tol_phase


def test_c05_landmark_points():
    """GHZ point, separable point, and W-type point at 1e-9."""
    tol = 1e-9
    out = states.apply_r(RParams(np.pi / 6, 0.7), states.basis_state("000"))
    rep = entanglement.full_report(out)
    ghz_ok = (abs(rep.tau_abc - 1.0) <= tol
              and np.max([rep.c_ab, rep.c_bc, rep.c_ac]) <= tol)

    out = states.apply_r(RParams(np.pi / 2, 0.7), states.basis_state("101"))
    rep2 = entanglement.full_report(out)
    sep_ok = (rep2.tau_abc <= tol and np.max([rep2.c_ab, rep2.c_bc, rep2.c_ac]) <= tol
              and np.max([rep2.c2_a_bc, rep2.c2_b_ac, rep2.c2_c_ab]) <= tol)

    out = states.apply_r(RParams(0.0, 0.7), states.basis_state("000"))
    rep3 = entanglement.full_report(out)
    w_ok = (rep3.tau_abc <= tol and abs(rep3.c_ab - 2 / 3) <= tol
            and abs(rep3.c2_a_bc - 8 / 9) <= tol)

    ok = ghz_ok and sep_ok and w_ok
    report_line("5 landmark points", ok,
                f"GHZ {ghz_ok}, separable {sep_ok}, W-type {w_ok}")
    assert ok


def test_c06_two_qubit_closure():
    """4x4 matrix on two-qubit basis states: concurrence |sin 2 theta| at 1e-10."""
    tol = 1e-10
    worst = 0.0
    for theta in np.linspace(0, np.pi, 25):
        r = yangbaxter.r_matrix(yangbaxter.TWO_QUBIT, RParams(theta, 1.3))
        for k in range(4):
            col = r[:, k]
            c = concurrence(np.outer(col, col.conj()))
            worst = np.maximum(worst, abs(c - abs(np.sin(2 * theta))))
    ok = worst <= tol
    report_line("6 two-qubit closure", ok, f"max residual {worst:.3e} <= {tol}")
    assert ok


def test_c07_hamiltonian():
    """Definition matches the finite-difference generator; spectrum and fixtures hold."""
    tol_fd, tol_spec = 1e-6, 1e-10
    worst_fd = 0.0
    for theta in np.linspace(0.1, 3.0, 5):
        for phi in np.linspace(0, 2 * np.pi, 5, endpoint=False):
            for phi_dot in (0.5, 1.0, 1.7):
                d = DriveParams(theta=theta, phi=phi, phi_dot=phi_dot)
                worst_fd = np.maximum(worst_fd, np.linalg.norm(
                    dynamics.hamiltonian(d) - hamiltonian_from_r(d, dt=1e-5)))

    worst_closed = 0.0
    worst_fixture = 0.0
    for d in (DriveParams(theta=np.pi / 3, phi=0.2),
              DriveParams(theta=0.9, phi=1.1, phi_dot=1.3),
              DriveParams(theta=2.2, phi=4.0, phi_dot=0.7, hbar=2.0)):
        rep = dynamics.spectrum(d)
        worst_closed = np.maximum(worst_closed, rep.closed_form_match)
        worst_fixture = np.max([worst_fixture, *rep.fixture_residuals])

    ok = worst_fd <= tol_fd and worst_closed <= tol_spec and worst_fixture <= tol_spec
    report_line("7 hamiltonian", ok,
                f"fd {worst_fd:.3e} <= {tol_fd}; spectrum {worst_closed:.3e} "
                f"and fixtures {worst_fixture:.3e} <= {tol_spec}")
    assert worst_fd <= tol_fd
    assert worst_closed <= tol_spec
    assert worst_fixture <= tol_spec


def test_c08a_ladder_structure_and_decomposition():
    """Nilpotency, the Cartan bracket, the field decomposition, and findings."""
    tol_exact, tol_decomp = 1e-12, 1e-10
    d = DriveParams(theta=0.9, phi=1.1, phi_dot=1.3)
    ladder = dynamics.ladder_residuals()
    res, misread = ladder["residuals"], ladder["misreadings"]
    # the paper's fields of H = B+ I+ + B- I- + B3 I3
    b_plus = (d.hbar * d.phi_dot * np.sin(d.theta) * np.cos(d.theta)
              * np.exp(-1j * d.phi) / np.sqrt(3))
    b_3 = 2 / 3 * d.hbar * d.phi_dot * np.cos(d.theta) ** 2
    decomposition = np.linalg.norm(dynamics.hamiltonian(d) - (
        b_plus * dynamics.I_PLUS + np.conj(b_plus) * dynamics.I_MINUS + b_3 * dynamics.I_3))
    ok = (res["i_plus_squared"] <= tol_exact
          and res["i_minus_squared"] <= tol_exact
          and res["cartan_commutator"] <= tol_exact
          and decomposition <= tol_decomp)
    report_line(
        "8a ladder structure", ok,
        f"(I+-)^2 {res['i_plus_squared']:.1e}, [I+,I-]-2I3 "
        f"{res['cartan_commutator']:.1e}, H-B.J {decomposition:.1e}; "
        f"findings: ||I3^2 - I/4|| = {misread['i3_squared_quarter_global']:.3f} globally, "
        f"{misread['i3_squared_quarter_span']:.3f} on the doublet span; "
        f"I3^2 = (9/4) P_span holds at {res['i3_squared_projector_identity']:.1e}")
    assert ok


def test_c08b_ladder_unit_normalization():
    """Unit-normalized split J+- = I+-/sqrt(3), J3 = I3/3: brackets, H, level at 1e-12."""
    tol, tol_decomp = 1e-12, 1e-10
    d = DriveParams(theta=0.9, phi=1.1)
    # the paper's fields of H = B+ I+ + B- I- + B3 I3
    b_plus = (d.hbar * d.phi_dot * np.sin(d.theta) * np.cos(d.theta)
              * np.exp(-1j * d.phi) / np.sqrt(3))
    b_minus, b_3 = np.conj(b_plus), 2 / 3 * d.hbar * d.phi_dot * np.cos(d.theta) ** 2
    ip, im, i3 = dynamics.I_PLUS, dynamics.I_MINUS, dynamics.I_3
    h = dynamics.hamiltonian(d)
    level = d.hbar * d.phi_dot * abs(np.cos(d.theta))

    def split_residuals(jp, jm, j3, bp, bm, b3):
        bracket = lambda a, b: a @ b - b @ a
        return {
            "ladder": np.maximum(np.linalg.norm(bracket(j3, jp) - jp),
                                 np.linalg.norm(bracket(j3, jm) + jm)),
            "cartan": np.linalg.norm(bracket(jp, jm) - 2 * j3),
            "decomposition": np.linalg.norm(h - (bp * jp + bm * jm + b3 * j3)),
            # spin-1/2 levels of [[b3/2, bp], [bm, -b3/2]]
            "level": abs(0.5 * np.sqrt(b3 ** 2 + 4 * abs(bp) ** 2) - level),
        }

    raw = split_residuals(ip, im, i3, b_plus, b_minus, b_3)
    s3 = np.sqrt(3.0)
    unit = split_residuals(ip / s3, im / s3, i3 / 3, s3 * b_plus, s3 * b_minus, 3 * b_3)
    ok = (unit["ladder"] <= tol and unit["cartan"] <= tol
          and unit["decomposition"] <= tol_decomp and unit["level"] <= tol)
    report_line(
        "8b ladder unit normalization", ok,
        f"J+- = I+-/sqrt3, J3 = I3/3: [J3, J+-] -+ J+- {unit['ladder']:.1e}, "
        f"[J+, J-] - 2J3 {unit['cartan']:.1e}, H - B'.J {unit['decomposition']:.1e}, "
        f"spin-1/2 level {unit['level']:.1e}; raw x3-normalized I: "
        f"[I3, I+-] -+ I+- {raw['ladder']:.6f}, level {raw['level']:.6f}")
    assert unit["ladder"] <= tol and unit["cartan"] <= tol, (
        f"unit-normalized brackets fail: [J3, J+-] = +-J+- at {unit['ladder']:.3e}, "
        f"[J+, J-] = 2 J3 at {unit['cartan']:.3e} (gate {tol}); the raw I+-, I3 "
        f"are x3-normalized ([I3, I+-] = +-I+- misses by {raw['ladder']:.6f}) and "
        f"J+- = I+-/sqrt(3), J3 = I3/3 is the unit normalization gated here")
    assert unit["decomposition"] <= tol_decomp
    assert unit["level"] <= tol


def test_c09_berry_phases():
    """Analytic line integral and Wilson doublet eigenphases vs half solid angle."""
    tol_analytic, tol_wilson = 1e-5, 1e-4
    worst_analytic = 0.0
    for theta in np.linspace(0, np.pi, 25):
        expected = np.pi * (1 - np.cos(theta))
        for i, sign in ((5, 1), (6, -1), (7, 1), (8, -1)):
            got = berry.berry_analytic(i, theta, 10 ** 4)
            worst_analytic = np.maximum(worst_analytic, abs(got - sign * expected))

    worst_wilson = 0.0
    for theta in (np.pi / 6, np.pi / 3, 1.2, 2.0, 2.8):
        for level, phases in berry.berry_wilson(theta, 800).items():
            closed = berry.closed_form_phase(level, theta)
            for phase in phases:
                worst_wilson = np.maximum(worst_wilson, berry.phase_residual(phase, closed))

    zeros = [berry.zero_level_phase(theta) for theta in (0.3, 1.0, 2.4)]
    ok = (worst_analytic <= tol_analytic and worst_wilson <= tol_wilson
          and all(z == 0.0 for z in zeros))
    report_line("9 berry phases", ok,
                f"analytic {worst_analytic:.3e} <= {tol_analytic}; "
                f"wilson {worst_wilson:.3e} <= {tol_wilson}; zero level exact 0")
    assert worst_analytic <= tol_analytic
    assert worst_wilson <= tol_wilson
    assert all(z == 0.0 for z in zeros)


def test_c10_monogamy():
    """Monogamy identity and the cross-route tangle equivalence on 200 random states."""
    tol = 1e-8
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        label = states.BASIS_LABELS[rng.integers(0, 8)]
        out = states.apply_r(RParams(theta, phi), states.basis_state(label))
        rep = entanglement.full_report(out)
        worst = np.maximum(worst, rep.monogamy_residual)
    ok = worst <= tol
    report_line("10 monogamy", ok, f"max residual {worst:.3e} <= {tol}")
    assert ok
