"""Entanglement measures for the generated three-qubit states.

full_report validates its pure states once and computes every measure from
them: the three-tangle as the hyperdeterminant combination
4|d1 - 2 d2 + 4 d3| over the state coefficients; each pair concurrence as the
Wootters spin-flip measure of the pair's reduction m m^dag, computed from the
4 x 2 slice m of the state tensor through two invariants of a 2 x 2 matrix,
with no eigenproblem and no density matrix formed; and each one-vs-rest
concurrence squared as the pure-state identity 2 (1 - tr rho_q^2), which
doubles as an independent oracle for the monogamy identity

    C^2_{A(BC)} = C^2_AB + C^2_AC + tau.

One state gives a report of floats, and a (B, 8) stack gives a report of
arrays of B floats by the same code, each bitwise equal to the value of its
slice alone. The private kernels take stacks that are already valid.

Closed forms for the states produced by apply_r on basis inputs, each
evaluated on a float or a whole array of theta by one expression:

    tau(theta)   = 16 sqrt(3) |sin(theta) cos^3(theta)| / 9
    C_pair(theta) = | |sin(2 theta)|/sqrt(3) - (2/3) cos^2(theta) |
    C^2_one_rest(theta) = (8/9) cos^2(theta) (1 + 2 sin^2(theta))
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from . import states

__all__ = [
    "EntanglementReport",
    "tangle_closed_form",
    "pair_concurrence_closed_form",
    "one_vs_rest_sq_closed_form",
    "full_report",
]

QUBITS = {"A": 0, "B": 1, "C": 2}
PAIRS = ((0, 1), (1, 2), (0, 2))  # AB, BC, AC


class EntanglementReport(namedtuple("EntanglementReport", "tau_abc c_ab c_bc c_ac "
                                    "c2_a_bc c2_b_ac c2_c_ab monogamy_residual")):
    """All measures of one pure three-qubit state, or of a stack of them.

    monogamy_residual = |c2_a_bc - c_ab^2 - c_ac^2 - tau_abc|. Each field is
    a float for one state and an np.ndarray of B floats for a (B, 8) stack.
    """

    __slots__ = ()


def _three_tangle(w: np.ndarray) -> np.ndarray:
    a = w.reshape(-1, 2, 2, 2).transpose(1, 2, 3, 0)  # a[k, l, m]: <klm|w> of each w
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
    return 4 * np.abs(d1 - 2 * d2 + 4 * d3)


def _closed_form(expression):
    """The closed form ``expression`` of theta, taking a float or an array of
    angles: an array gives the array of values, and a float the Python float
    of the same expression on a one-element array, so the value at an angle
    is bitwise its value in any grid."""
    @functools.wraps(expression)
    def form(theta):
        values = expression(np.atleast_1d(np.asarray(theta, dtype=float)))
        return values if np.ndim(theta) else float(values[0])
    return form


@_closed_form
def tangle_closed_form(theta):
    return 16 * np.sqrt(3) * np.abs(np.sin(theta) * np.cos(theta) ** 3) / 9


@_closed_form
def pair_concurrence_closed_form(theta):
    s, c = np.sin(theta), np.cos(theta)  # 2 |s c|, as 2 theta overflows near 1e308
    return np.abs(2 * np.abs(s * c) / np.sqrt(3) - 2 * c ** 2 / 3)


@_closed_form
def one_vs_rest_sq_closed_form(theta):
    return 8 / 9 * np.cos(theta) ** 2 * (1 + 2 * np.sin(theta) ** 2)


def _concurrence(w: np.ndarray) -> np.ndarray:
    """Wootters concurrence l_1 - l_2 of each two-qubit state rho = w w^dag of
    a (B, 4, 2) stack of factors: rho has rank at most 2, so l_1 >= l_2 are
    the singular values of the 2 x 2 K = w^dag F w*, F = sigma_y x sigma_y,
    and two invariants of K fix them. With K^dag K = [[p, r], [r*, q]],

        l_1^2 - l_2^2 = sqrt((p - q)^2 + 4 |r|^2),
        l_1 + l_2     = sqrt(p + q + 2 |det K|),

    and C is their quotient, exactly 0 where K = 0. The numerator carries an
    error of ~1e-16 l_1^2 and the denominator is at least l_1, so a small l_2
    keeps an error of ~1e-16 l_1, where the square root of a small eigenvalue
    of K^dag K would carry ~1e-8 l_1 and lose the three-tangle 4 l_1 l_2 of a
    pure-state pair. The invariants are read from G = w^T F w = K*, which
    has K's; every product is taken on real planes and every modulus from
    real squares, so no complex multiply or abs rounds them."""
    # real planes with the batch last, so that each entry of every w is one
    # contiguous run; F is the antidiagonal (-1, 1, 1, -1), so
    # G_ab = m_1ab + m_1ba - m_0ab - m_0ba with m_iab = w_{3-i, a} w_{i, b}
    t = w.transpose(1, 2, 0)
    wr, wi = np.ascontiguousarray(t.real), np.ascontiguousarray(t.imag)
    top_r, top_i = wr[[0, 1], None], wi[[0, 1], None]
    bot_r, bot_i = wr[[3, 2], :, None], wi[[3, 2], :, None]
    mr = top_r * bot_r - top_i * bot_i
    mi = top_r * bot_i + top_i * bot_r
    gr, gi = mr[1] - mr[0], mi[1] - mi[0]
    (ar, br), (_, cr) = gr + gr.transpose(1, 0, 2)
    (ai, bi), (_, ci) = gi + gi.transpose(1, 0, 2)
    pa, pb, pc = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci
    rr = ar * br + ai * bi + br * cr + bi * ci  # r = a* b + b* c
    ri = ar * bi - ai * br + br * ci - bi * cr
    dr = ar * cr - ai * ci - (br * br - bi * bi)  # det G = a c - b^2
    di = ar * ci + ai * cr - 2 * br * bi
    diff = np.sqrt((pa - pc) ** 2 + 4 * (rr * rr + ri * ri))
    total = np.sqrt(pa + 2 * pb + pc + 2 * np.sqrt(dr * dr + di * di))
    return np.divide(diff, total, out=np.zeros_like(diff), where=total > 0.0)


def _one_vs_rest_sq(w: np.ndarray, qubit: int) -> np.ndarray:
    rho = _reduced(w, (qubit,))
    return 2.0 * (1.0 - np.trace(rho @ rho, axis1=1, axis2=2).real)


def _factor(w: np.ndarray, keep: tuple) -> np.ndarray:
    """Each of (B, 8) pure states as the contiguous (kept, traced) matrix m over
    the sorted ``keep`` qubits: m m^dag is its reduction onto them."""
    rest = [q for q in range(3) if q not in keep]
    t = w.reshape(-1, 2, 2, 2).transpose([0] + [1 + q for q in (*keep, *rest)])
    return np.ascontiguousarray(t).reshape(len(w), 2 ** len(keep), -1)


def _reduced(w: np.ndarray, keep: tuple) -> np.ndarray:
    """Reductions m m^dag of (B, 8) pure states onto the sorted ``keep`` qubits.
    A contiguous m makes numpy sum the traced index pairwise, as the partial
    trace of w w^dag does, bit for bit."""
    m = _factor(w, keep)
    return (m[:, :, None, :] * m.conj()[:, None, :, :]).sum(-1)


def full_report(state) -> EntanglementReport:
    """Every measure of one pure state, or of a stack, plus the monogamy residual."""
    v = states.as_state(state)
    w = v.reshape(-1, 8)
    pairs = np.stack([_factor(w, pair) for pair in PAIRS], axis=1)
    c_ab, c_bc, c_ac = _concurrence(pairs.reshape(-1, 4, 2)).reshape(-1, 3).T
    tau = _three_tangle(w)
    c2_a, c2_b, c2_c = (_one_vs_rest_sq(w, q) for q in QUBITS.values())
    fields = dict(tau_abc=tau, c_ab=c_ab, c_bc=c_bc, c_ac=c_ac,
                  c2_a_bc=c2_a, c2_b_ac=c2_b, c2_c_ab=c2_c,
                  monogamy_residual=np.abs(c2_a - c_ab ** 2 - c_ac ** 2 - tau))
    return EntanglementReport(**{k: f if v.ndim == 2 else float(f[0])
                                 for k, f in fields.items()})
