"""One code path for a single input and a stack.

as_state, apply_r and full_report, the three_tangle and one_vs_rest_sq
oracles over the package's kernels, and the partial-trace oracle the
reductions are checked against, take one state (or density matrix) or a
stack of them. Every slice of a stacked call must be
bitwise equal to the call on that slice alone, and a bad slice must be
rejected by its index.
"""

import numpy as np
import pytest

from braidphase import entanglement, states
from braidphase.yangbaxter import RParams
from oracles import one_vs_rest_sq, partial_trace, three_tangle

PHIS = (0.0, 1.3)
COUNTS = (1, 7, 121)
KEEPS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 2))
FIELDS = ("tau_abc", "c_ab", "c_bc", "c_ac", "c2_a_bc", "c2_b_ac", "c2_c_ab",
          "monogamy_residual")


def basis_inputs(count, offset):
    """(count, 8) basis states whose labels cycle through all 8 from ``offset``."""
    return np.stack([states.basis_state(states.BASIS_LABELS[(offset + k) % 8])
                     for k in range(count)])


@pytest.fixture(params=[(phi, count) for phi in PHIS for count in COUNTS],
                ids=lambda p: f"phi{p[0]}-B{p[1]}")
def cases(request):
    """(phi, thetas, inputs, images): B generated states R(theta_k, phi)|input_k>.

    A stack shorter than 8 is drawn once per starting label, so that every
    size B covers all 8 inputs.
    """
    phi, count = request.param
    thetas = np.random.default_rng(count).uniform(-np.pi, np.pi, count)
    out = []
    for offset in range(8 if count < 8 else 1):
        inputs = basis_inputs(count, offset)
        out.append((phi, thetas, inputs, states.apply_r(RParams(thetas, phi), inputs)))
    return out


class TestStates:
    def test_as_state(self, cases):
        for _, _, _, kets in cases:
            out = states.as_state(kets)
            assert out.shape == kets.shape and out is not kets
            for k, v in enumerate(kets):
                assert np.array_equal(out[k], states.as_state(v))

    def test_apply_r(self, cases):
        for phi, thetas, inputs, kets in cases:
            assert kets.shape == (len(thetas), 8)
            # each state at its own angle, one state on the whole theta grid,
            # and every state at one angle
            grid = states.apply_r(RParams(thetas, phi), inputs[0])
            at_one = states.apply_r(RParams(thetas[0], phi), inputs)
            for k, theta in enumerate(thetas):
                at_k = RParams(float(theta), phi)
                assert np.array_equal(kets[k], states.apply_r(at_k, inputs[k]))
                assert np.array_equal(grid[k], states.apply_r(at_k, inputs[0]))
                assert np.array_equal(
                    at_one[k], states.apply_r(RParams(thetas[0], phi), inputs[k]))

    def test_bad_slice_named(self):
        wrong_norm = basis_inputs(5, 0)
        wrong_norm[3] *= 1.5
        with pytest.raises(ValueError, match="state 3 is not finite with unit norm"):
            states.as_state(wrong_norm)
        with pytest.raises(ValueError, match="state 3 is not finite with unit norm"):
            states.apply_r(RParams(0.4, 1.3), wrong_norm)
        with pytest.raises(ValueError, match="^state is not finite with unit norm"):
            states.as_state(wrong_norm[3])
        non_finite = basis_inputs(5, 0)
        non_finite[2, 4] = np.nan
        with pytest.raises(ValueError, match="state 2 is not finite"):
            states.as_state(non_finite)

    def test_bad_shapes_rejected(self):
        for shape in ((4,), (2, 4), (2, 2, 8)):
            with pytest.raises(ValueError):
                states.as_state(np.ones(shape) / np.sqrt(shape[-1]))
        with pytest.raises(ValueError):  # 3 angles for 4 states
            states.apply_r(RParams(np.zeros(3), 0.0), basis_inputs(4, 0))


class TestPartialTrace:
    def test_slices_bitwise_equal_to_solo(self, cases):
        # the reductions full_report takes from the state tensor are the
        # partial trace of the projector, bitwise, stacked and solo
        for _, _, _, kets in cases:
            rho = kets[:, :, None] * kets.conj()[:, None, :]
            for keep in KEEPS:
                reduced = partial_trace(rho, keep, 3)
                d = 2 ** len(keep)
                assert reduced.shape == (len(kets), d, d)
                assert np.array_equal(entanglement._reduced(kets, keep), reduced)
                for k, rho_k in enumerate(rho):
                    assert np.array_equal(reduced[k], partial_trace(rho_k, keep, 3))
                    assert np.array_equal(entanglement._reduced(kets[k:k + 1], keep)[0],
                                          reduced[k])

    def test_bad_slice_named(self):
        rho = np.stack([np.eye(8, dtype=complex) / 8] * 4)
        rho[2] *= 2
        with pytest.raises(ValueError, match="density matrix 2 does not have unit trace"):
            partial_trace(rho, (0,), 3)
        rho[2] /= 2
        rho[1, 0, 5] = np.inf
        with pytest.raises(ValueError, match="density matrix 1 contains non-finite"):
            partial_trace(rho, (0,), 3)
        rho[1, 0, 5] = 0.3
        with pytest.raises(ValueError, match="density matrix 1 is not Hermitian"):
            partial_trace(rho, (0,), 3)


class TestMeasures:
    def test_three_tangle(self, cases):
        for _, _, _, kets in cases:
            stacked = three_tangle(kets)
            assert stacked.shape == (len(kets),)
            assert stacked.tolist() == [three_tangle(v) for v in kets]

    def test_one_vs_rest_sq(self, cases):
        for _, _, _, kets in cases:
            for which in ("A", "B", "C"):
                stacked = one_vs_rest_sq(kets, which)
                assert stacked.shape == (len(kets),)
                assert stacked.tolist() == [one_vs_rest_sq(v, which)
                                            for v in kets]

    def test_full_report(self, cases):
        for _, _, _, kets in cases:
            stacked = entanglement.full_report(kets)
            solos = [entanglement.full_report(v) for v in kets]
            for field in FIELDS:
                values = getattr(stacked, field)
                assert isinstance(values, np.ndarray) and values.shape == (len(kets),)
                assert all(type(getattr(r, field)) is float for r in solos)
                assert values.tolist() == [getattr(r, field) for r in solos]

    def test_bad_slice_named(self):
        kets = basis_inputs(4, 0)
        kets[1] *= 1.1
        for measure in (three_tangle, entanglement.full_report,
                        lambda v: one_vs_rest_sq(v, "B")):
            with pytest.raises(ValueError, match="state 1 is not finite with unit norm"):
                measure(kets)
        kets[1] = np.inf
        with pytest.raises(ValueError, match="state 1 is not finite"):
            entanglement.full_report(kets)
