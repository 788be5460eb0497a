"""Entanglement measures for the generated three-qubit states.

three_tangle uses the hyperdeterminant combination 4|d1 - 2 d2 + 4 d3| over
the state coefficients; concurrence is the Wootters spin-flip measure
computed through Hermitian eigenproblems only; one_vs_rest_sq is the
pure-state identity 2 (1 - tr rho_q^2), which doubles as an independent
oracle for the monogamy identity

    C^2_{A(BC)} = C^2_AB + C^2_AC + tau.

Closed forms for the states produced by apply_r on basis inputs:

    tau(theta)   = 16 sqrt(3) |sin(theta) cos^3(theta)| / 9
    C_pair(theta) = | |sin(2 theta)|/sqrt(3) - (2/3) cos^2(theta) |
    C^2_one_rest(theta) = (8/9) cos^2(theta) (1 + 2 sin^2(theta))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, states

__all__ = [
    "EntanglementReport",
    "three_tangle",
    "tangle_closed_form",
    "concurrence",
    "pair_concurrence_closed_form",
    "one_vs_rest_sq",
    "one_vs_rest_sq_closed_form",
    "full_report",
]

QUBITS = {"A": 0, "B": 1, "C": 2}
PAIRS = ((0, 1), (1, 2), (0, 2))  # AB, BC, AC

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
FLIP_4 = np.kron(SIGMA_Y, SIGMA_Y)

# Relative floor under which an eigenvalue of rho is treated as an exact zero;
# keeping the noise there would give rho a spurious rank.
RANK_CLAMP = 1e-13


@dataclass(frozen=True)
class EntanglementReport:
    """All measures of one pure three-qubit state.

    monogamy_residual = |c2_a_bc - c_ab^2 - c_ac^2 - tau_abc|.
    """

    tau_abc: float
    c_ab: float
    c_bc: float
    c_ac: float
    c2_a_bc: float
    c2_b_ac: float
    c2_c_ab: float
    monogamy_residual: float


def three_tangle(state) -> float:
    """Residual tangle 4|d1 - 2 d2 + 4 d3| of a pure three-qubit state."""
    a = states.as_state(state).reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
          + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
          + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
          + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4 * abs(d1 - 2 * d2 + 4 * d3))


def tangle_closed_form(theta: float) -> float:
    return float(16 * np.sqrt(3) * abs(np.sin(theta) * np.cos(theta) ** 3) / 9)


def pair_concurrence_closed_form(theta: float) -> float:
    return float(abs(abs(np.sin(2 * theta)) / np.sqrt(3)
                     - 2 * np.cos(theta) ** 2 / 3))


def one_vs_rest_sq_closed_form(theta: float) -> float:
    return float(8 / 9 * np.cos(theta) ** 2 * (1 + 2 * np.sin(theta) ** 2))


def _clamped_sqrt_eigvals(lam: np.ndarray, tol: float) -> np.ndarray:
    """Square roots of each ascending row of eigenvalues, after the rank clamp."""
    low = lam[:, 0] < -tol
    if low.any():
        raise ValueError(f"matrix has eigenvalue {lam[low][0, 0]} below -{tol}")
    floor = RANK_CLAMP * np.maximum(lam[:, -1:], 0.0)
    return np.sqrt(np.where(lam < floor, 0.0, lam))


def concurrence(rho2, tol: float = 1e-10):
    """Wootters concurrence of a two-qubit density matrix or a stack of them.

    Computed as max{0, l1 - l2 - l3 - l4} with l_i the descending singular
    values of sqrt(rho) F sqrt(rho)*, F = sigma_y x sigma_y: the square roots
    of eig(sqrt(rho) rho_tilde sqrt(rho)), rho_tilde = F rho* F. With
    rho = W W^dag over its r nonzero eigenpairs they are the singular values
    of the r x r matrix K = W^dag F W*, taken as ||K u_i|| over the
    eigenvectors u_i of the Hermitian K^dag K. A small l_i then carries an
    error of ~1e-16 l_1, where the square root of a small eigenvalue of
    K^dag K would carry ~1e-8 l_1, and an eigenvalue clamped to zero would
    lose the three-tangle 4 l_1 l_2 of a pure-state pair.

    A 4x4 input gives a float. A (B, 4, 4) stack gives an array of B floats,
    each bitwise equal to the concurrence of its slice alone: rho takes one
    stacked eigh, and K^dag K one per distinct rank r.
    """
    rho = np.asarray(rho2, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError(f"expected a 4x4 density matrix or a stack of them, "
                         f"got shape {rho.shape}")
    stack = rho.reshape(-1, 4, 4)

    def reject(mask, problem):
        bad = np.flatnonzero(mask)
        if bad.size:
            name = "density matrix" if rho.ndim == 2 else f"density matrix {bad[0]}"
            raise ValueError(f"{name} {problem} within tolerance")

    scale = linalg.frobenius_norms(stack)
    skew = linalg.frobenius_norms(stack - stack.conj().transpose(0, 2, 1))
    reject(skew > tol * np.maximum(scale, 1.0), "is not Hermitian")
    trace = np.trace(stack, axis1=1, axis2=2)
    reject((np.abs(trace.real - 1.0) > tol) | (np.abs(trace.imag) > tol),
           "does not have unit trace")

    dec = linalg.eigh(stack, tol)
    roots = _clamped_sqrt_eigvals(dec.eigenvalues, tol)  # also validates positivity
    rank = np.count_nonzero(roots > 0.0, axis=1)  # the support is a suffix
    out = np.empty(len(stack))
    for r in np.unique(rank):
        idx = np.flatnonzero(rank == r)
        w = dec.eigenvectors[idx, :, 4 - r:] * roots[idx, None, 4 - r:]
        k = np.ascontiguousarray(w.conj().transpose(0, 2, 1)) @ FLIP_4 @ w.conj()
        kk = np.ascontiguousarray(k.conj().transpose(0, 2, 1)) @ k
        u = linalg.eigh(kk, tol).eigenvectors
        lam = np.sort(np.sqrt(np.sum(np.abs(k @ u) ** 2, axis=1)), axis=1)[:, ::-1]
        c = lam[:, 0] - np.sum(lam[:, 1:], axis=1)
        out[idx] = np.where(c > 0.0, c, 0.0)
    return float(out[0]) if rho.ndim == 2 else out


def one_vs_rest_sq(state, which: str) -> float:
    """Squared concurrence between one qubit and the remaining pair.

    For a pure three-qubit state this is 2 (1 - tr rho_which^2).
    """
    if which not in QUBITS:
        raise ValueError(f"which must be one of {tuple(QUBITS)}, got {which!r}")
    v = states.as_state(state)
    rho = np.outer(v, v.conj())
    reduced = linalg.partial_trace(rho, [QUBITS[which]], 3)
    purity = float(np.trace(reduced @ reduced).real)
    return 2.0 * (1.0 - purity)


def full_report(state, tol: float = 1e-10) -> EntanglementReport:
    """Every measure of one pure state plus the monogamy residual."""
    v = states.as_state(state)
    rho = np.outer(v, v.conj())
    tau = three_tangle(v)
    reduced = np.stack([linalg.partial_trace(rho, pair, 3, tol) for pair in PAIRS])
    c_ab, c_bc, c_ac = (float(c) for c in concurrence(reduced, tol))
    c2_a = one_vs_rest_sq(v, "A")
    c2_b = one_vs_rest_sq(v, "B")
    c2_c = one_vs_rest_sq(v, "C")
    monogamy = abs(c2_a - c_ab ** 2 - c_ac ** 2 - tau)
    return EntanglementReport(
        tau_abc=tau, c_ab=c_ab, c_bc=c_bc, c_ac=c_ac,
        c2_a_bc=c2_a, c2_b_ac=c2_b, c2_c_ab=c2_c,
        monogamy_residual=monogamy)
