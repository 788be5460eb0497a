import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidphase import braid, cli, dynamics, linalg, yangbaxter
from braidphase.yangbaxter import (
    RParams,
    SpectralParam,
    r_matrix,
    ybe_residual,
)
from oracles import (
    abs_det,
    kron_route_residual,
    r_from_spectral,
    rational_r,
    theta_from_spectral,
    ybe_grid_per_phi,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
import golden  # noqa: E402

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestRParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RParams(np.inf, 0.0)
        with pytest.raises(ValueError):
            RParams([0.1, np.nan], 0.0)

    def test_theta_grid(self):
        p = RParams([0.5, 7.0], -1.0)
        assert isinstance(p.theta, np.ndarray) and p.theta.dtype == float
        for theta, phi in ((np.zeros((2, 2)), 0.0), (0.1, np.zeros(2))):
            with pytest.raises(ValueError):
                RParams(theta, phi)
        with pytest.raises(ValueError):  # the held grid is read-only
            p.theta[0] = 1.0
        # compared and hashed by identity, so a grid never raises there
        assert p != RParams([0.5, 7.0], -1.0) and len({p, p}) == 1


class TestSpectralParam:
    def test_accepts_unit_circle(self):
        SpectralParam(np.exp(0.3j))

    def test_rejects_off_circle(self):
        with pytest.raises(ValueError):
            SpectralParam(1.5 + 0j)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_rejects_non_finite_parts(self, part, bad):
        x = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        for value in (x, np.complex128(x)):
            with pytest.raises(ValueError, match="x must be finite"):
                SpectralParam(value)

    def test_branch(self):
        assert theta_from_spectral(SpectralParam(1.0 + 0j)) == pytest.approx(np.pi / 2)
        assert theta_from_spectral(SpectralParam(np.exp(1j * np.pi / 4))) == pytest.approx(
            np.pi / 4)


class TestRMatrix:
    def test_identity_at_half_pi(self):
        for phi in (0.0, 1.2):
            r = r_matrix(yangbaxter.THREE_QUBIT, RParams(np.pi / 2, phi))
            assert np.linalg.norm(r - np.eye(8)) < 1e-15

    def test_pure_generator_at_zero(self):
        r = r_matrix(yangbaxter.THREE_QUBIT, RParams(0.0, 0.0))
        assert np.linalg.norm(r - braid.build_braidset(0.0).mcal) < 1e-15

    @pytest.mark.parametrize("system,dim", [("two_qubit", 4), ("three_qubit", 8)])
    def test_unitarity_grid(self, system, dim):
        eye = np.eye(dim)
        worst = 0.0
        for theta in np.linspace(0, 2 * np.pi, 11, endpoint=False):
            for phi in np.linspace(0, 2 * np.pi, 11, endpoint=False):
                r = r_matrix(system, RParams(theta, phi))
                worst = max(worst, np.linalg.norm(r.conj().T @ r - eye))
        assert worst <= 1e-12

    @given(angles, angles, angles)
    def test_composition_identity(self, theta, theta2, phi):
        # products stay in span{I, mcal}: R(t) R(t') =
        # (sin t sin t' - cos t cos t') I + sin(t + t') mcal
        mcal = braid.build_braidset(phi).mcal
        lhs = (r_matrix("three_qubit", RParams(theta, phi))
               @ r_matrix("three_qubit", RParams(theta2, phi)))
        rhs = ((np.sin(theta) * np.sin(theta2) - np.cos(theta) * np.cos(theta2))
               * np.eye(8)
               + (np.sin(theta) * np.cos(theta2) + np.cos(theta) * np.sin(theta2))
               * mcal)
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    def test_theta_grid_slices_bitwise_equal_to_solo(self, system):
        thetas = np.random.default_rng(3).uniform(-np.pi, np.pi, 121)
        for phi in (0.0, 1.3):
            stack = r_matrix(system, RParams(thetas, phi))
            assert stack.shape == (121,) + r_matrix(system, RParams(0.0, phi)).shape
            for theta, r in zip(thetas, stack):
                assert np.array_equal(r, r_matrix(system, RParams(float(theta), phi)))

    def test_determinant_modulus(self):
        for system in yangbaxter.SYSTEMS:
            for theta, phi in ((0.3, 0.7), (2.2, 4.1)):
                r = r_matrix(system, RParams(theta, phi))
                assert abs(abs_det(r) - 1.0) <= 1e-10

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            r_matrix("four_qubit", RParams(0.1, 0.1))


class TestRFromSpectral:
    def test_identity_point(self):
        r = r_from_spectral("three_qubit", SpectralParam(1.0 + 0j), 0.4)
        assert np.linalg.norm(r - np.eye(8)) < 1e-15

    def test_matches_angle_route(self):
        x = SpectralParam(np.exp(1j * np.pi / 4))
        r1 = r_from_spectral("three_qubit", x, 0.9)
        r2 = r_matrix("three_qubit", RParams(np.pi / 4, 0.9))
        assert np.linalg.norm(r1 - r2) <= 1e-12

    def test_agreement_on_random_parameters(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 50:
            a = rng.uniform(-np.pi, np.pi)
            if abs(np.cos(a)) < 1e-3:
                continue
            count += 1
            x = SpectralParam(np.exp(1j * a))
            r1 = r_from_spectral("two_qubit", x, 1.3)
            r2 = r_matrix("two_qubit", RParams(np.pi / 2 - a, 1.3))
            assert np.linalg.norm(r1 - r2) <= 1e-12

    def test_imaginary_unit_is_plus_or_minus_the_generator(self):
        # x = +-i maps to theta = 0 or pi, where R is +-mcal(phi)
        mcal = braid.build_braidset(0.9).mcal
        for x, theta, sign in ((1j, 0.0, 1), (-1j, np.pi, -1)):
            r = r_from_spectral("three_qubit", SpectralParam(x), 0.9)
            assert np.array_equal(r, r_matrix("three_qubit", RParams(theta, 0.9)))
            assert np.linalg.norm(r - sign * mcal) < 1e-15


class TestYbeResidual:
    def test_identity_point_trivial(self):
        one = SpectralParam(1.0 + 0j)
        res = ybe_residual(one, one, 0.3)
        assert list(res) == [f"{s}_rational" for s in yangbaxter.SYSTEMS]
        assert all(isinstance(r, float) and r < 1e-15 for r in res.values())

    def test_two_qubit_rational_closes(self):
        x = SpectralParam(np.exp(1j * np.pi / 6))
        y = SpectralParam(np.exp(1j * np.pi / 8))
        assert ybe_residual(x, y, 0.7)["two_qubit_rational"] <= 1e-10

    def test_two_qubit_rational_closes_for_random_parameters(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            a, b = rng.uniform(-np.pi, np.pi, 2)
            if min(abs(np.cos(a)), abs(np.cos(b)), abs(np.cos(a + b))) < 1e-3:
                continue
            checked += 1
            res = ybe_residual(SpectralParam(np.exp(1j * a)),
                               SpectralParam(np.exp(1j * b)), 1.9)
            assert res["two_qubit_rational"] <= 1e-10

    def test_three_qubit_residual_is_reported_not_asserted(self):
        # the overlapping-triple lifts break the closure; record, don't gate
        x = SpectralParam(np.exp(1j * np.pi / 6))
        y = SpectralParam(np.exp(1j * np.pi / 8))
        res = ybe_residual(x, y, 0.7)["three_qubit_rational"]
        assert np.isfinite(res) and res >= 0.0
        lifted = np.kron(braid.build_braidset(0.7).mcal, np.eye(2))
        shifted = np.kron(np.eye(2), braid.build_braidset(0.7).mcal)
        sandwich = np.linalg.norm(lifted @ shifted @ lifted - shifted)
        assert sandwich > 1.0  # the algebra deficit behind the nonzero residual

    def test_unitary_family_violates_multiplicative_form(self):
        # through the unit-circle map theta = pi/2 - arg(x) the unitary family
        # fails the multiplicative equation on both systems: the map fails,
        # not the family, which satisfies it under the velocity-addition rule
        x = SpectralParam(np.exp(1j * np.pi / 6))
        y = SpectralParam(np.exp(1j * np.pi / 8))
        for system in yangbaxter.SYSTEMS:
            assert kron_route_residual(system, x, y, 0.7, "unitary") > 1.0

    def test_imaginary_points_match_the_product_route(self):
        # x, y or xy at +-i, where the rational family is a multiple of the generator:
        # every residual is the product route's, alone and in a stack
        quarter = np.exp(1j * np.pi / 4)
        pairs = [(1j, np.exp(0.7j)), (-1j, np.exp(-2.1j)), (np.exp(0.4j), 1j), (1j, 1j),
                 (-1j, -1j), (1j, -1j), (1.0, 1j), (-1.0, 1j), (quarter, quarter),
                 (np.exp(0.3j), 1j * np.exp(-0.3j)), (np.exp(-0.9j), -1j * np.exp(0.9j))]
        xs = [SpectralParam(x) for x, _ in pairs]
        ys = [SpectralParam(y) for _, y in pairs]
        phis = [0.0, 1.3]
        stacked = ybe_residual(xs, ys, phis)
        for k, (x, y) in enumerate(zip(xs, ys)):
            for key, grid in stacked.items():
                system, family = key.rsplit("_", 1)
                assert np.array_equal(grid[:, k], ybe_residual(x, y, phis)[key])
                assert within_oracle(
                    grid[:, k], [kron_route_residual(system, x, y, phi, family) for phi in phis])
        assert np.max(stacked["two_qubit_rational"]) <= 1e-15

    def test_rational_r_rejects_zero(self):
        with pytest.raises(ValueError):
            rational_r("two_qubit", 0.0, 0.0)



def sampled_pairs(count, seed=23):
    """Spectral pairs as the ybe command samples them, drawn pair by pair: a,
    then b; ``seed`` may be a random.Random, which is then used."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    xs, ys = [], []
    for _ in range(count):
        a = -math.pi + 2 * math.pi * rng.random()
        b = -math.pi + 2 * math.pi * rng.random()
        xs.append(SpectralParam(np.exp(1j * a)))
        ys.append(SpectralParam(np.exp(1j * b)))
    return xs, ys


def ybe_peak(count, phi_count):
    """tracemalloc peak of a ybe_residual call beyond the two returned grids,
    which hold pairs x phis floats each by their nature."""
    xs, ys = sampled_pairs(count)
    phis = np.linspace(0.0, 6.0, phi_count)
    tracemalloc.start()
    res = ybe_residual(xs, ys, phis)
    used = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert all(r.shape == (phi_count, count) for r in res.values())
    return used - sum(r.nbytes for r in res.values())


SYSTEM_FAMILIES = [(s, "rational") for s in yangbaxter.SYSTEMS]


def within_oracle(residuals, oracle):
    """The word expansion matches the product route to 1e-14 of max(1, r)."""
    residuals, oracle = np.asarray(residuals), np.asarray(oracle)
    return bool(np.all(np.abs(residuals - oracle) <= 1e-14 * np.maximum(1.0, oracle)))


def parity_conserving(rng, dim):
    """A random complex dim x dim matrix, zero wherever the basis indices of its
    row and column differ in parity."""
    parity = np.array([bin(k).count("1") % 2 for k in range(dim)])
    gen = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.where(parity[:, None] == parity[None, :], gen, 0.0)


class TestStackedYbeResidual:
    @pytest.mark.parametrize("system,family", SYSTEM_FAMILIES)
    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_stack_matches_per_pair_calls(self, system, family, count):
        key = f"{system}_{family}"
        xs, ys = sampled_pairs(count)
        stacked = ybe_residual(xs, ys, 0.9)[key]
        assert stacked.shape == (count,)
        single = [ybe_residual(x, y, 0.9)[key] for x, y in zip(xs, ys)]
        kron = [kron_route_residual(system, x, y, 0.9, family) for x, y in zip(xs, ys)]
        assert all(isinstance(r, float) for r in single)
        assert stacked.tolist() == single
        assert within_oracle(stacked, kron)

    @pytest.mark.parametrize("system,family", SYSTEM_FAMILIES)
    def test_phi_grid_slices_bitwise_equal_to_scalar_calls(self, system, family):
        key = f"{system}_{family}"
        xs, ys = sampled_pairs(65)
        phis = np.array([0.0, 0.9, -2.5, 1e3])
        grid = ybe_residual(xs, ys, phis)[key]
        assert grid.shape == (4, 65)
        for phi, row in zip(phis, grid):
            assert np.array_equal(row, ybe_residual(xs, ys, phi)[key])
        # one pair over the grid is the column of that pair
        one = ybe_residual(xs[64], ys[64], phis)[key]
        assert one.shape == (4,) and np.array_equal(one, grid[:, 64])

    @staticmethod
    def word_grid(count):
        """``count`` angles: 0, pi, -2.5 and 1e3 first, then seeded draws."""
        drawn = np.random.default_rng(count).uniform(-10.0, 10.0, max(0, count - 4))
        return np.concatenate([[0.0, np.pi, -2.5, 1e3], drawn])[:count]

    @pytest.mark.parametrize("count", [1, 4, 5, 6, 11, 64])
    def test_chunked_words_bitwise_equal_to_the_per_phi_route(self, count):
        # words built per chunk of _WORD_BLOCK phi from one stacked generator,
        # against a generator and words built one phi at a time
        xs, ys = sampled_pairs(70)
        phis = self.word_grid(count)
        grids = ybe_residual(xs, ys, phis)
        for system in yangbaxter.SYSTEMS:
            reference = ybe_grid_per_phi(system, xs, ys, phis)
            assert grids[f"{system}_rational"].tobytes() == reference.tobytes()

    @pytest.mark.parametrize("size", [1, 64])
    def test_word_block_does_not_change_a_bit(self, monkeypatch, size):
        xs, ys = sampled_pairs(65)
        phis = self.word_grid(11)
        default = ybe_residual(xs, ys, phis)
        monkeypatch.setattr(yangbaxter, "_WORD_BLOCK", size)
        resized = ybe_residual(xs, ys, phis)
        assert all(resized[key].tobytes() == grid.tobytes() for key, grid in default.items())

    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    def test_mixing_words_in_a_later_chunk_name_their_first_phi(self, monkeypatch, system):
        # generators that join the parities at the 2nd and last angles of the
        # 2nd chunk: the error names the 2nd, and no later chunk is built
        generator, size = yangbaxter._generator, yangbaxter._WORD_BLOCK
        phis = self.word_grid(3 * size)
        first, later = phis[size + 1], phis[2 * size - 1]
        seen = []

        def mutated(sys_, chunk):
            gens = generator(sys_, chunk)
            seen.append((sys_, len(chunk)))
            if sys_ == system:
                gens = gens.copy()
                gens[(chunk == first) | (chunk == later), 0, 1] = 1e-300
            return gens

        monkeypatch.setattr(yangbaxter, "_generator", mutated)
        xs, ys = sampled_pairs(3)
        with pytest.raises(linalg.NumericalError, match=f"phi = {re.escape(repr(float(first)))} "):
            ybe_residual(xs, ys, phis)
        before = [(yangbaxter.TWO_QUBIT, size)] * 3 if system == yangbaxter.THREE_QUBIT else []
        assert seen == before + [(system, size)] * 2

    def test_generator_built_once_per_phi(self, monkeypatch):
        # 130 pairs span three blocks of 64; each (system, phi) generator is
        # built once, in one stacked build per chunk of _WORD_BLOCK phi, and
        # the coefficients of every pair in one pass
        built, generator = [], yangbaxter._generator
        formed, coefficients = [], yangbaxter._pair_coefficients
        monkeypatch.setattr(yangbaxter, "_generator", lambda system, phis: built.append(
            (system, phis.tolist())) or generator(system, phis))
        monkeypatch.setattr(yangbaxter, "_pair_coefficients", lambda xs, ys: formed.append(
            len(xs)) or coefficients(xs, ys))
        xs, ys = sampled_pairs(130)
        phis = [0.0, 0.9, -2.5, 1e3, 3.1, 6.0, 0.2]
        ybe_residual(xs, ys, phis)
        size = yangbaxter._WORD_BLOCK
        chunks = [phis[at:at + size] for at in range(0, len(phis), size)]
        assert len(chunks) > 1
        assert built == [(s, chunk) for s in yangbaxter.SYSTEMS for chunk in chunks]
        assert formed == [130]

    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("family", ["rational"])
    def test_random_generator_matches_product_route(self, monkeypatch, dim, family):
        # no braid relation is assumed: any complex G that conserves parity
        # gives the product route's value
        gen = parity_conserving(np.random.default_rng(dim), dim)
        # the stack of one for a chunk of one phi, and gen alone for the
        # product route's scalar phi
        monkeypatch.setattr(yangbaxter, "_generator",
                            lambda system, phi: np.broadcast_to(gen, np.shape(phi) + gen.shape))
        xs, ys = sampled_pairs(65)
        words = ybe_residual(xs, ys, 0.0)[f"two_qubit_{family}"]
        kron = [kron_route_residual("two_qubit", x, y, 0.0, family) for x, y in zip(xs, ys)]
        assert np.median(kron) > 1.0  # far from a closing equation: nothing cancels
        assert within_oracle(words, kron)

    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    @pytest.mark.parametrize("mutant", ["random", "one_entry"])
    def test_parity_mixing_generator_raises(self, monkeypatch, system, mutant):
        # a generator that joins the parities, at one phi of the grid: a random
        # complex G, or the true one with one entry off its parity blocks set
        generator = yangbaxter._generator
        dim = len(generator(system, 0.0))
        rng = np.random.default_rng(dim)

        def mutated(sys_, phis):
            gens = generator(sys_, phis)
            hit = np.flatnonzero(phis == 0.9)
            if sys_ != system or not hit.size:
                return gens
            gens = gens.copy()
            if mutant == "random":
                gens[hit] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            else:
                gens[hit, 0, 1] = 1e-300  # indices 0 and 1 differ in parity
            return gens

        monkeypatch.setattr(yangbaxter, "_generator", mutated)
        xs, ys = sampled_pairs(3)
        with pytest.raises(linalg.NumericalError, match=r"phi = 0\.9 "):
            ybe_residual(xs, ys, [0.0, 0.9, 1.7])
        assert all(np.isfinite(r).all() for r in ybe_residual(xs, ys, [0.0, 1.7]).values())

    def test_mutant_generator_fails_the_two_qubit_gate(self, monkeypatch, capsys):
        minus, plus, zero = braid._M_PARTS
        monkeypatch.setattr(braid, "_M_PARTS", (minus, 2 * plus, zero))
        assert cli.main(["ybe", "--samples", "50", "--phi-samples", "5", "--seed", "0"]) == 1
        worst = json.loads(capsys.readouterr().out)["residual_summary"]["two_qubit_rational_max"]
        rng = random.Random(0)  # the command's samples, drawn as it draws them
        xs, ys = cli._sample_spectral_pairs(rng, 50)
        kron = max(kron_route_residual("two_qubit", x, y, phi, "rational")
                   for phi in cli._uniform(rng, 0.0, 2 * np.pi, 5) for x, y in zip(xs, ys))
        assert worst > 1.0 and within_oracle(worst, kron)

    def test_memory_does_not_grow_with_pairs_times_phis(self):
        # the baseline fills one whole block of 64 pairs
        ybe_peak(64, 5)  # first call outside the measurement
        assert ybe_peak(1000, 20) <= 1.5 * ybe_peak(64, 5)

    def test_stack_matches_per_pair_calls_on_the_haswell_blas_core(self):
        # OpenBLAS's Haswell core rounds a row of a (B, 3) @ (3, E) product
        # by where its tiles put it; each row's own product does not depend
        # on the batch. The words of a chunk of phi come from stacked
        # (P, 16, 16) products, and a 6-phi grid spans two chunks: each row is
        # bitwise the call at its phi alone. A core the CPU lacks would crash
        # the interpreter
        if not {"X86_V3", "AVX2"} & set(golden.simd_found()):
            pytest.skip("the Haswell core needs AVX2")
        code = ("import random, sys; sys.path.insert(0, sys.argv[1]); import golden; "
                "from braidphase import cli, yangbaxter as yb; "
                "xs, ys = cli._sample_spectral_pairs(random.Random(3), 65); "
                "stacked = yb.ybe_residual(xs, ys, 0.9); "
                "solo = [yb.ybe_residual(x, y, 0.9) for x, y in zip(xs, ys)]; "
                "phis = [0.0, 0.9, -2.5, 1e3, 3.1, 6.0]; "
                "grid = yb.ybe_residual(xs, ys, phis); "
                "per_phi = [yb.ybe_residual(xs, ys, phi) for phi in phis]; "
                "print(golden.fingerprint()); "
                "print(all(stacked[key].tolist() == [s[key] for s in solo] for key in stacked)); "
                "print(all(grid[key].tolist() == [p[key].tolist() for p in per_phi] "
                "for key in grid))")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["OPENBLAS_CORETYPE"] = "Haswell"
        done = subprocess.run([sys.executable, "-c", code, str(SCRIPTS)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        fingerprint, *same = done.stdout.splitlines()
        if not fingerprint.endswith("openblas Haswell"):
            pytest.skip(f"OpenBLAS did not switch cores: {fingerprint}")
        assert same == ["True", "True"]

    def test_memory_of_the_readme_call(self):
        # one stacked complex product per block, and no broadcast multiply
        # with numpy's buffered iterator (a 263 KB buffer per multiply)
        ybe_peak(50, 5)  # first call outside the measurement
        assert ybe_peak(50, 5) <= 300 * 1024

    def test_mismatched_lengths_rejected(self):
        xs, ys = sampled_pairs(3)
        with pytest.raises(ValueError):
            ybe_residual(xs, ys[:2], 0.0)

    def test_bad_member_rejected(self):
        xs, ys = sampled_pairs(3)
        with pytest.raises(TypeError):
            ybe_residual(xs, ys[:2] + [0.5], 0.0)

    def test_non_finite_phi_rejected(self):
        one = SpectralParam(1.0 + 0j)
        for phi in (np.nan, [0.1, np.inf], np.zeros((2, 2))):
            with pytest.raises(ValueError):
                ybe_residual(one, one, phi)


class TestUnitarityResiduals:
    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    @pytest.mark.parametrize("count", [1, 64, 65, 130])
    def test_stack_matches_per_angle_loop(self, system, count):
        # phi_k paired with theta_k, against the whole R of each pair alone
        rng = np.random.default_rng(count)
        phis, thetas = rng.uniform(0.0, 2 * np.pi, (2, count))
        eye = np.eye(4 if system == "two_qubit" else 8, dtype=complex)
        loop = []
        for theta, phi in zip(thetas, phis):
            r = r_matrix(system, RParams(theta, phi))
            loop.append(linalg.frobenius_norms([r.conj().T @ r - eye])[0])
        paired, bound = yangbaxter.unitarity_residuals(yangbaxter._generator(system, phis), thetas)
        assert paired.tolist() == loop
        assert max(paired) == max(loop) <= 1e-12
        assert max(bound) <= 1e-12

    @pytest.mark.parametrize("system", yangbaxter.SYSTEMS)
    @pytest.mark.parametrize("count, angles", [(5, 13), (3, 30), (70, 1)])
    def test_generator_stack_bitwise_equal_to_solo(self, system, count, angles):
        # count phi, each paired with angles thetas: more than 64 pairs, each
        # pair's residuals bitwise those of the pair as a stack of one
        rng = np.random.default_rng(count)
        phis = np.repeat(rng.uniform(0.0, 2 * np.pi, count), angles)
        thetas = rng.uniform(0.0, 2 * np.pi, count * angles)
        stacked = yangbaxter.unitarity_residuals(yangbaxter._generator(system, phis), thetas)
        assert [r.shape for r in stacked] == [(count * angles,)] * 2
        for k, (phi, theta) in enumerate(zip(phis, thetas)):
            solo = yangbaxter.unitarity_residuals(
                yangbaxter._generator(system, np.array([phi])), [theta])
            assert [r[k] for r in stacked] == [r[0] for r in solo]

    @pytest.mark.parametrize("system, builder", [
        ("two_qubit", "build_m4"), ("three_qubit", "build_braidset")])
    def test_generator_built_once(self, monkeypatch, capsys, system, builder):
        # verify-algebra builds each phi once; its unitarity check runs on each
        # block of 64 phi as one stack of those builds, paired with the block's
        # theta, so R is formed once per sample; the ladder check runs once
        built, checked, rows, ladders = [], [], [], []
        original, unitarity = getattr(braid, builder), yangbaxter.unitarity_residuals
        unitary, ladder = yangbaxter._unitary, dynamics.ladder_residuals

        def counting(phi):
            built.append(original(phi))
            return built[-1]

        def recording(gen, thetas):
            checked.append((gen, thetas))
            return unitarity(gen, thetas)

        monkeypatch.setattr(braid, builder, counting)
        monkeypatch.setattr(yangbaxter, "unitarity_residuals", recording)
        monkeypatch.setattr(yangbaxter, "_unitary",
                            lambda gen, theta: rows.append(len(gen)) or unitary(gen, theta))
        monkeypatch.setattr(dynamics, "ladder_residuals", lambda: ladders.append(1) or ladder())
        assert cli.main(["verify-algebra", "--phi-samples", "70", "--seed", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        # two blocks, 64 and 6 angles; per block: two_qubit, three_qubit
        gens = [b if builder == "build_m4" else b.mcal for b in built]
        stacks = [gen for gen, _ in checked[yangbaxter.SYSTEMS.index(system)::2]]
        assert len(gens) == 70 and len(checked) == 4 and [len(s) for s in stacks] == [64, 6]
        assert np.concatenate(stacks).tobytes() == np.array(gens).tobytes()
        assert rows == [64, 64, 6, 6] and ladders == [1]
        for gen, thetas in checked:
            assert len(thetas) == len(gen)
        assert [t for _, thetas in checked[::2] for t in thetas] == report["results"]["theta_values"]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            yangbaxter.unitarity_residuals(braid.build_m4(np.zeros(2)), [0.1, np.inf])
        with pytest.raises(ValueError):
            yangbaxter.unitarity_residuals(braid.build_m4(np.zeros(1)), [np.nan])

    @pytest.mark.parametrize("gen, thetas", [
        (braid.build_m4(np.zeros(2)), [0.1]), (braid.build_m4(np.zeros(2)), [[0.1, 0.2]]),
        (braid.build_m4(0.0), 0.1), (braid.build_m4(0.0), [0.1])])
    def test_unpaired_shapes_rejected(self, gen, thetas):
        with pytest.raises(ValueError, match="pair with"):
            yangbaxter.unitarity_residuals(gen, thetas)

    def test_bound_covers_every_theta_of_a_non_unitary_generator(self):
        # a generator that is neither unitary nor anti-Hermitian: both parts of
        # the bound are nonzero, and no theta of a fine grid exceeds it
        rng = np.random.default_rng(3)
        gen = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
        thetas = np.linspace(0.0, 2 * np.pi, 2001)
        paired, _ = yangbaxter.unitarity_residuals(np.repeat(gen, len(thetas), 0), thetas)
        _, bound = yangbaxter.unitarity_residuals(gen, [0.0])
        assert 0.5 * bound[0] < max(paired) <= bound[0]


class TestSpectralPairDraw:
    def test_draw_consumes_the_stream_pair_by_pair(self):
        # the same pairs as an independent pair-by-pair loop, and the stream
        # exactly 2 * count draws on, at every seed: 18 of the README-sized
        # draws of seeds 0..199 hold a pair with x, y or xy within 1e-3 of +-i
        near = 0
        draws = [(seed, 1 + seed % 40) for seed in range(1000)]
        for seed, count in draws + [(seed, 50) for seed in range(200)]:
            rng, ref = random.Random(seed), random.Random(seed)
            xs, ys = cli._sample_spectral_pairs(rng, count)
            ref_xs, ref_ys = sampled_pairs(count, ref)
            assert [p.x for p in xs] == [p.x for p in ref_xs]
            assert [p.x for p in ys] == [p.x for p in ref_ys]
            plain = random.Random(seed)
            for _ in range(2 * count):
                plain.random()
            assert rng.getstate() == ref.getstate() == plain.getstate()
            near += count == 50 and any(
                min(abs(p + 1 / p) for p in (x.x, x.x * y.x, y.x)) < 2e-3 for x, y in zip(xs, ys))
        assert near == 18
