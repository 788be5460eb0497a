"""Braid generators for two and three qubits and their algebra checks.

The 4x4 generator M(phi) is built from spin raising/lowering operators with
the convention S+ = |0><1| (|0> is the S3 = +1/2 state, most significant
qubit first). The 8x8 composite is

    mcal = (M otimes I + I otimes M + (I otimes M)(M otimes I)) / sqrt(3)

and mbb = -i * mcal is its Hermitian partner. The family satisfies the
extraspecial 2-group relations: M^2 = -I, mbb^2 = +I, neighboring lifts
anticommute and obey the sandwich relations A B A = B, B A B = A; on a 4-site
chain the lifts of mcal anticommute to -(2/3) I. mcal also equals its entrywise
transcription, mcal_transcribed. build_m4, build_braidset, check_es2_relations
and mcal_transcribed take one angle or a 1-D grid.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import linalg

__all__ = [
    "SpinOps",
    "SPIN",
    "BraidSet",
    "Es2Report",
    "build_m4",
    "build_braidset",
    "check_es2_relations",
    "mcal_transcribed",
]

SQRT3 = np.sqrt(3.0)


class SpinOps(namedtuple("SpinOps", "s_plus s_minus s3")):
    """Single-qubit spin operators, 2x2 np.ndarray each: s_plus = |0><1|,
    s_minus = |1><0|, s3 = diag(1/2, -1/2)."""

    __slots__ = ()


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    a.setflags(write=False)
    return a


SPIN = SpinOps(
    s_plus=_frozen([[0, 1], [0, 0]]),
    s_minus=_frozen([[0, 0], [1, 0]]),
    s3=_frozen([[0.5, 0], [0, -0.5]]),
)

IDENTITY_2 = _frozen(np.eye(2))

# M(phi) = e^{-i phi} M- - e^{i phi} M+ + M0, with M- = S+ S+, M+ = S- S-,
# M0 = S+ S- - S- S+ (tensor products); these parts and their lifts onto
# qubits (1,2) and (2,3) of three are built once, here.
_M_PARTS = tuple(_frozen(m) for m in (
    np.kron(SPIN.s_plus, SPIN.s_plus),
    np.kron(SPIN.s_minus, SPIN.s_minus),
    np.kron(SPIN.s_plus, SPIN.s_minus) - np.kron(SPIN.s_minus, SPIN.s_plus),
))
_LIFT_12 = tuple(_frozen(np.kron(m, IDENTITY_2)) for m in _M_PARTS)
_LIFT_23 = tuple(_frozen(np.kron(IDENTITY_2, m)) for m in _M_PARTS)

# the (2, dim/2) even and odd basis indices (1-bits mod 2), which every generator, its
# lifts and H conserve, and the (dim, dim) mask of the entries joining them; dims 8, 16
_PARITY_BLOCKS = {
    len(p): (np.stack([np.flatnonzero(p == 0), np.flatnonzero(p == 1)]), p[:, None] != p[None, :])
    for p in (np.array([bin(k).count("1") % 2 for k in range(dim)]) for dim in (8, 16))}


def _combine(phi, parts: tuple) -> np.ndarray:
    minus, plus, zero = parts
    phi = phi[..., None, None] if isinstance(phi, np.ndarray) else phi
    return np.exp(-1j * phi) * minus - np.exp(1j * phi) * plus + zero


class BraidSet(namedtuple("BraidSet", "phi m4 a8 b8 mcal mbb")):
    """Generator family at a fixed phase angle, or over a 1-D grid of them:
    ``phi`` is then the read-only grid, and every other field has its axis.

    phi   -- float | np.ndarray, the phase angle
    m4    -- np.ndarray, 4x4 generator M(phi)
    a8    -- np.ndarray, M otimes I (acts on qubits 1,2 of three)
    b8    -- np.ndarray, I otimes M (acts on qubits 2,3)
    mcal  -- np.ndarray, (a8 + b8 + b8 a8)/sqrt(3), anti-Hermitian
    mbb   -- np.ndarray, -i mcal, Hermitian
    """

    __slots__ = ()


class Es2Report(namedtuple("Es2Report", "phi residuals ambiguous")):
    """Named Frobenius residuals of the generator-algebra relations.

    phi        -- float | np.ndarray, as in the BraidSet checked
    residuals  -- dict, the asserted relations
    ambiguous  -- dict, triple_as_printed and triple_swapped: the two readings
                  of the printed triple relation that fail, reported but never
                  gated; the sign-flipped one, which holds, is aba_sandwich
    """

    __slots__ = ()


def build_m4(phi) -> np.ndarray:
    """4x4 braid generator from spin operators, or their stack over an array of angles.

    Nonzero entries (row, col, 0-indexed): (0,3)=e^{-i phi}, (1,2)=1,
    (2,1)=-1, (3,0)=-e^{i phi}. Squares to -I and is anti-Hermitian.
    """
    return _combine(phi, _M_PARTS)


def _lifts_and_mcal(phi) -> tuple:
    """a8, b8 and mcal at ``phi``, a float or an array of angles; the
    composite generator without the rest of the family."""
    a8 = _combine(phi, _LIFT_12)
    b8 = _combine(phi, _LIFT_23)
    return a8, b8, (a8 + b8 + b8 @ a8) / SQRT3


def _chain_lifts(gens: np.ndarray) -> tuple:
    """G otimes I_2 and I_2 otimes G, slice by slice, for G of shape (..., h, h):
    G on the first and on the last sites of a chain one qubit longer."""
    lead, h = gens.shape[:-2], gens.shape[-1]
    a, b = np.zeros((2,) + lead + (2 * h, 2 * h), dtype=complex)
    a[..., ::2, ::2] = a[..., 1::2, 1::2] = gens
    b[..., :h, :h] = b[..., h:, h:] = gens
    return a, b


def build_braidset(phi) -> BraidSet:
    """The family at ``phi``, a float or a 1-D array of angles; each slice of
    an array's build is bitwise the build at that angle alone."""
    grid = isinstance(phi, np.ndarray)
    if grid:  # held as a read-only float copy
        phi = np.array(phi, dtype=float)
        phi.setflags(write=False)
    a8, b8, mcal = _lifts_and_mcal(phi)
    return BraidSet(phi=phi if grid else float(phi), m4=build_m4(phi), a8=a8, b8=b8,
                    mcal=mcal, mbb=-1j * mcal)


def check_es2_relations(bs: BraidSet) -> Es2Report:
    """Every extraspecial-relation residual of a BraidSet: a float, or over a grid
    an array whose every entry is bitwise the residual at that angle alone.

    Asserted residuals (the caller gates on them):
      m4_square          ||M^2 + I||
      aba_sandwich       ||A B A - B||          with A = a8, B = b8
      bab_sandwich       ||B A B - A||
      anticommutation    ||A B + B A||
      mbb_square         ||mbb^2 - I||
      mcal_antihermitian ||mcal + mcal^dag||    (so mbb is Hermitian)
      mcal_transcription ||mcal - mcal_transcribed(phi)||
      chain_anticommutation ||3 {mcal otimes I_2, I_2 otimes mcal} + 2 I||  (16x16)

    Ambiguous (reported only): the printed mm12 mm23 mm12 = mm12, with mm12 = -i a8,
    mm23 = -i b8, and its swap. Scaling by -i is exact, so mm12 mm23 mm12 = i A B A,
    and the sign-flipped mm12 mm23 mm12 = -mm23, which holds, is aba_sandwich:
      triple_as_printed ||A B A + A||  (= ||mm12 mm23 mm12 - mm12||)
      triple_swapped    ||A B A + B||  (= ||mm12 mm23 mm12 - mm23||)
    """
    a, b = bs.a8, bs.b8
    ab, ba = a @ b, b @ a
    aba = ab @ a
    chain_a, chain_b = _chain_lifts(bs.mcal)
    eight = {
        "aba_sandwich": aba - b,
        "bab_sandwich": ba @ b - a,
        "anticommutation": ab + ba,
        "mbb_square": bs.mbb @ bs.mbb - np.eye(8, dtype=complex),
        "mcal_antihermitian": bs.mcal + bs.mcal.conj().swapaxes(-1, -2),
        "mcal_transcription": bs.mcal - mcal_transcribed(bs.phi),
        "triple_as_printed": aba + a,
        "triple_swapped": aba + b,
    }
    shape, residuals = np.shape(bs.phi), {}
    for terms in ({"m4_square": bs.m4 @ bs.m4 + np.eye(4, dtype=complex)}, eight,
                  {"chain_anticommutation": 3 * (chain_a @ chain_b + chain_b @ chain_a)
                   + 2 * np.eye(16, dtype=complex)}):  # one norm call per matrix size
        stack = np.stack(list(terms.values()))
        norms = linalg.frobenius_norms(stack.reshape((-1,) + stack.shape[-2:]))
        norms = norms.reshape((len(terms),) + shape)
        residuals.update(zip(terms, norms if shape else norms.tolist()))
    ambiguous = {name: residuals.pop(name) for name in ("triple_as_printed", "triple_swapped")}
    return Es2Report(phi=bs.phi, residuals=residuals, ambiguous=ambiguous)


def mcal_transcribed(phi) -> np.ndarray:
    """Direct entrywise 8x8 transcription of the composite generator, or its
    stack over an array of angles, each slice bitwise its value alone."""
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    z, o = np.zeros_like(em), np.ones_like(em)  # 0 and 1, shaped as the grid
    m = np.array([
        [z, z, z, em, z, em, em, z],
        [z, z, o, z, o, z, z, em],
        [z, -o, z, z, o, z, z, -em],
        [-ep, z, z, z, z, o, -o, z],
        [z, -o, -o, z, z, z, z, em],
        [-ep, z, z, -o, z, z, o, z],
        [-ep, z, z, o, z, -o, z, z],
        [z, -ep, ep, z, -ep, z, z, z],
    ])
    # its own sqrt(3), not SQRT3, which mcal is built with: a mis-scaled mcal shows
    return np.moveaxis(m, (0, 1), (-2, -1)) / np.sqrt(3.0)
