import numpy as np
import pytest

from braidphase import braid
from oracles import m4_transcribed

PHI_GRID = np.linspace(0.0, 2 * np.pi, 17, endpoint=False)


class TestBuildM4:
    def test_corner_entry_at_zero_phase(self):
        assert braid.build_m4(0.0)[0, 3] == pytest.approx(1.0)

    def test_nonzero_pattern(self):
        phi = 1.37
        m = braid.build_m4(phi)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = np.exp(-1j * phi)
        expected[1, 2] = 1.0
        expected[2, 1] = -1.0
        expected[3, 0] = -np.exp(1j * phi)
        assert np.allclose(m, expected, atol=0)

    @pytest.mark.parametrize("phi", [0.0, np.pi / 4, 1.3])
    def test_squares_to_minus_identity(self, phi):
        m = braid.build_m4(phi)
        assert np.linalg.norm(m @ m + np.eye(4)) < 1e-15

    @pytest.mark.parametrize("phi", [0.0, 0.9, 4.2])
    def test_anti_hermitian(self, phi):
        m = braid.build_m4(phi)
        assert np.linalg.norm(m.conj().T + m) < 1e-15

    def test_spin_ops_algebra(self):
        s = braid.SPIN
        assert np.array_equal(s.s_minus.conj().T, s.s_plus)
        assert np.array_equal(s.s3.conj().T, s.s3)
        comm = s.s3 @ s.s_plus - s.s_plus @ s.s3
        assert np.array_equal(comm, s.s_plus)


class TestBuildBraidset:
    def test_first_row_entry(self):
        phi = 0.47
        bs = braid.build_braidset(phi)
        assert bs.mcal[0, 3] == pytest.approx(np.exp(-1j * phi) / np.sqrt(3))

    def test_last_row_entry(self):
        phi = 0.47
        bs = braid.build_braidset(phi)
        assert bs.mcal[7, 1] == pytest.approx(-np.exp(1j * phi) / np.sqrt(3))

    def test_hermitian_square_and_alpha(self):
        # mbb^2 = I itself, with no fitted scalar alpha in mbb^2 = alpha I
        bs = braid.build_braidset(2.3)
        assert np.linalg.norm(bs.mbb @ bs.mbb - np.eye(8)) < 1e-14
        assert np.linalg.norm(bs.mbb - bs.mbb.conj().T) < 1e-15

    def test_composition_definition(self):
        bs = braid.build_braidset(1.1)
        rebuilt = (bs.a8 + bs.b8 + bs.b8 @ bs.a8) / np.sqrt(3)
        assert np.array_equal(bs.mcal, rebuilt)

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_relation_grid(self, phi):
        bs = braid.build_braidset(phi)
        rep = braid.check_es2_relations(bs)
        assert max(rep.residuals.values()) <= 1e-10

    def test_phase_smoothness(self):
        # d(mcal)/dphi has Frobenius norm 2, so a slope bound of 4 holds easily
        delta = 1e-3
        for phi in (0.0, 1.0, 5.5):
            d = np.linalg.norm(
                braid.build_braidset(phi + delta).mcal - braid.build_braidset(phi).mcal)
            assert d <= 4 * delta


class TestEs2Relations:
    def test_sandwich_at_zero_phase(self):
        rep = braid.check_es2_relations(braid.build_braidset(0.0))
        assert rep.residuals["aba_sandwich"] <= 1e-12
        assert rep.residuals["bab_sandwich"] <= 1e-12

    def test_anticommutation(self):
        rep = braid.check_es2_relations(braid.build_braidset(1.1))
        assert rep.residuals["anticommutation"] <= 1e-12

    def test_measured_alpha_is_one(self):
        # the gate reads ||mbb^2 - I||: a rescaled mbb, whose square is still a
        # multiple of I, misses it by sqrt(8) |alpha - 1|
        bs = braid.build_braidset(0.33)
        assert braid.check_es2_relations(bs).residuals["mbb_square"] <= 1e-14
        scaled = braid.check_es2_relations(bs._replace(mbb=(1 + 1e-9) * bs.mbb))
        assert scaled.residuals["mbb_square"] == pytest.approx(np.sqrt(8) * 2e-9, rel=1e-6)

    def test_ambiguous_triple_readings(self):
        # the scaled operators flip the sandwich sign: the two printed readings
        # stay O(1); the negated right-hand side, which closes, is aba_sandwich
        rep = braid.check_es2_relations(braid.build_braidset(0.8))
        assert set(rep.ambiguous) == {"triple_as_printed", "triple_swapped"}
        assert rep.ambiguous["triple_as_printed"] == pytest.approx(4.0, abs=1e-12)
        assert rep.ambiguous["triple_swapped"] == pytest.approx(
            4 * np.sqrt(2), abs=1e-12)

    def test_no_reading_repeats_a_gated_residual(self):
        # a reported reading equal to a gate at every phi reports nothing new
        phis = np.random.default_rng(40).uniform(-20.0, 20.0, 512)
        rep = braid.check_es2_relations(braid.build_braidset(phis))
        assert [(reading, gate) for reading, values in rep.ambiguous.items()
                for gate, gated in rep.residuals.items() if np.array_equal(values, gated)] == []

    def test_readings_match_the_product_route(self):
        # the printed relation's own product mm12 mm23 mm12, of the np.kron-built
        # family, is a route to both readings that does not go through A B A
        for phi in BITWISE_PHIS[:200]:
            _, a8, b8, _, _ = kron_braidset(phi)
            mm12, mm23 = -1j * a8, -1j * b8
            triple = mm12 @ mm23 @ mm12
            rep = braid.check_es2_relations(braid.build_braidset(phi))
            assert rep.ambiguous["triple_as_printed"] == pytest.approx(
                np.linalg.norm(triple - mm12), rel=0, abs=1e-15)
            assert rep.ambiguous["triple_swapped"] == pytest.approx(
                np.linalg.norm(triple - mm23), rel=0, abs=1e-15)


class TestTranscriptions:
    def test_composite_matches_transcription(self):
        for phi in (0.0, 0.7, 3.9):
            bs = braid.build_braidset(phi)
            residual = braid.check_es2_relations(bs).residuals["mcal_transcription"]
            assert residual < 1e-14
            assert residual == pytest.approx(
                np.linalg.norm(bs.mcal - braid.mcal_transcribed(phi)), abs=1e-16)

    def test_four_by_four_transcription_contradiction(self):
        # two contradictory entries, differing by 2 and 1 -> sqrt(5)
        for phi in (0.0, 0.7):
            distance = np.linalg.norm(braid.build_m4(phi) - m4_transcribed(phi))
            assert distance == pytest.approx(np.sqrt(5), abs=1e-12)


# 1,000 random angles plus the landmarks 0, pi, 2 pi and |phi| = 1e3
BITWISE_PHIS = np.concatenate([
    [0.0, np.pi, 2 * np.pi, 1e3, -1e3],
    np.random.default_rng(11).uniform(-20.0, 20.0, 1000),
])
EYE2 = np.eye(2, dtype=complex)


def kron_braidset(phi):
    """The generator family built by np.kron from the spin operators, per call."""
    sp, sm = braid.SPIN.s_plus, braid.SPIN.s_minus
    m4 = (np.exp(-1j * phi) * np.kron(sp, sp) - np.exp(1j * phi) * np.kron(sm, sm)
          + np.kron(sp, sm) - np.kron(sm, sp))
    a8, b8 = np.kron(m4, EYE2), np.kron(EYE2, m4)
    mcal = (a8 + b8 + b8 @ a8) / np.sqrt(3.0)
    return m4, a8, b8, mcal, -1j * mcal


class TestPrecomputedParts:
    def test_bitwise_equal_to_kron_construction(self):
        for phi in BITWISE_PHIS:
            bs = braid.build_braidset(phi)
            m4, a8, b8, mcal, mbb = kron_braidset(phi)
            assert braid.build_m4(phi).tobytes() == m4.tobytes()
            assert bs.m4.tobytes() == m4.tobytes()
            # the lifts may differ from np.kron in the sign of a zero entry only
            assert np.array_equal(bs.a8, a8) and np.array_equal(bs.b8, b8)
            assert bs.mcal.tobytes() == mcal.tobytes()
            assert bs.mbb.tobytes() == mbb.tobytes()

    def test_parts_are_read_only(self):
        with pytest.raises(ValueError):
            braid._M_PARTS[0][0, 0] = 1.0


class TestGrid:
    FIELDS = ("m4", "a8", "b8", "mcal", "mbb")

    @pytest.mark.parametrize("count", [1, 64, 65, len(BITWISE_PHIS)])
    def test_build_slices_bitwise_equal_to_solo(self, count):
        phis = BITWISE_PHIS[:count]
        grid = braid.build_braidset(phis)
        assert grid.phi.tolist() == phis.tolist() and not grid.phi.flags.writeable
        for k, phi in enumerate(phis.tolist()):
            solo = braid.build_braidset(phi)
            for name in self.FIELDS:
                assert getattr(grid, name)[k].tobytes() == getattr(solo, name).tobytes()

    def test_relation_slices_bitwise_equal_to_solo(self):
        phis = BITWISE_PHIS[:200]
        grid = braid.check_es2_relations(braid.build_braidset(phis))
        solos = [braid.check_es2_relations(braid.build_braidset(phi)) for phi in phis.tolist()]
        for kind in ("residuals", "ambiguous"):
            for name, values in getattr(grid, kind).items():
                assert values.shape == (200,)
                assert values.tolist() == [getattr(rep, kind)[name] for rep in solos]


def harmonic_parts():
    """P, C, Q with mcal(phi) = (e^{-i phi} P + C + e^{i phi} Q)/sqrt(3).

    With M(phi) = e^{-i phi} M- - e^{i phi} M+ + M0 and its lifts
    A = M otimes I, B = I otimes M, the product B A expands into nine terms;
    the two of phase e^{-2 i phi} (B- A-) and e^{2 i phi} (B+ A+) vanish.
    Also returns those two products.
    """
    sp, sm = braid.SPIN.s_plus, braid.SPIN.s_minus
    m_minus, m_plus = np.kron(sp, sp), np.kron(sm, sm)
    m_zero = np.kron(sp, sm) - np.kron(sm, sp)
    a_m, a_p, a_0 = (np.kron(m, EYE2) for m in (m_minus, m_plus, m_zero))
    b_m, b_p, b_0 = (np.kron(EYE2, m) for m in (m_minus, m_plus, m_zero))
    p = a_m + b_m + b_m @ a_0 + b_0 @ a_m
    c = a_0 + b_0 + b_0 @ a_0 - b_m @ a_p - b_p @ a_m
    q = -(a_p + b_p + b_p @ a_0 + b_0 @ a_p)
    return p, c, q, b_m @ a_m, b_p @ a_p


def harmonic_deviation(mcal_of, phis) -> float:
    p, c, q, _, _ = harmonic_parts()
    return max(np.linalg.norm(
        mcal_of(phi) - (np.exp(-1j * phi) * p + c + np.exp(1j * phi) * q) / np.sqrt(3.0))
        for phi in phis)


class TestHarmonicStructure:
    def test_mcal_has_harmonics_zero_and_one_only(self):
        assert harmonic_deviation(lambda phi: braid.build_braidset(phi).mcal,
                                  BITWISE_PHIS) <= 1e-15

    def test_double_phase_products_vanish(self):
        *_, minus_minus, plus_plus = harmonic_parts()
        assert not np.any(minus_minus) and not np.any(plus_plus)

    def test_check_fails_on_double_phase_mutant(self):
        # a generator carrying e^{-+2 i phi} where M carries e^{-+i phi}
        mutant = lambda phi: braid.build_braidset(2 * phi).mcal
        assert harmonic_deviation(mutant, BITWISE_PHIS[:50]) > 1.0
