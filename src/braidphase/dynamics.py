"""Driven three-qubit Hamiltonian, its spectrum, and its ladder operators.

With theta held fixed and phi(t) advancing at rate phi_dot, the braid matrix
drives the evolution and the generator of that evolution is

    H = (hbar phidot sin(theta) cos(theta) / sqrt(3)) *
            [2 S2_3 (e^{-i phi} S1+ S3+ + e^{i phi} S1- S3-)
             + e^{-i phi} (S1+ S2+ + S2+ S3+) + e^{i phi} (S1- S2- + S2- S3-)]
      + (hbar phidot cos^2(theta) / 3) *
            [2 (S1_3 + S2_3 + S3_3) + 2 S2_3 (S1+ S3- + S1- S3+)
             - (S1+ S2- + S2+ S3- + S1- S2+ + S2- S3+)]

hamiltonian() transcribes exactly that expression; the tests check it against
the finite-difference generator i hbar (dR/dt) R^dag of the braid matrix, and
spectrum checks it against that braid matrix exactly: R(theta, phi) =
D(phi) R(theta, 0) D(phi)^dag, with D generated by S_z = S1_3 + S2_3 + S3_3,
so H = (hbar phidot / 2)(S_z - R S_z R^dag) with no derivative. The
spectrum is {0 x4, -hbar phidot cos(theta) x2, +hbar phidot cos(theta) x2} and
the eight closed-form eigenstates are available as fixtures. LEVELS, the one table of
level membership, is checked exactly by the eigen-equations. H conserves the
parity of the basis index; each split doublet has one member in each sector, and
spectrum and the Wilson loop solve H's 2x2 blocks on the sectors' doublet ranges,
built from the ladder operators after one exact check of them.

H = B+ I+ + B- I- + B3 I3 splits over the read-only constants I_PLUS, I_MINUS
and I_3. Their brackets depend on no drive, and ladder_residuals checks them:
(I+-)^2 = 0 and [I+, I-] = 2 I3 hold exactly, but [I3, I+-] = +-3 I+- (not
+-I+-), and I3^2 is (9/4) times the projector onto the doublet range (not
I/4). So they are x3-normalized; J+- = I+-/sqrt(3), J3 = I3/3 close an exact
su(2), with the fields sqrt(3) B+- and 3 B3. Each bracket of the J is a fixed
multiple of one of the I, so only the I are checked.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from . import braid, linalg, yangbaxter

__all__ = [
    "DriveParams",
    "SpectrumReport",
    "FIXTURE_INDICES",
    "LEVELS",
    "I_PLUS",
    "I_MINUS",
    "I_3",
    "hamiltonian",
    "ladder_residuals",
    "spectrum",
    "eigenstate_fixture",
    "fixture_batch",
    "fixture_energy",
]

SQRT3 = np.sqrt(3.0)

FIXTURE_INDICES = (1, 2, 3, 4, 5, 6, 7, 8)
# level: (energy in units of hbar phidot cos(theta), its closed-form fixtures)
LEVELS = {"zero": (0, (1, 2, 3, 4)), "minus": (-1, (5, 7)), "plus": (1, (6, 8))}


def _lift(op, site: int) -> np.ndarray:
    ops = [braid.IDENTITY_2] * 3
    ops[site] = op
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


S1P, S2P, S3P = (_lift(braid.SPIN.s_plus, k) for k in range(3))
S1M, S2M, S3M = (_lift(braid.SPIN.s_minus, k) for k in range(3))
S1_3, S2_3, S3_3 = (_lift(braid.SPIN.s3, k) for k in range(3))

# the phi-independent ladder operators, x3-normalized ([I3, I+-] = +-3 I+-)
I_PLUS = S1P @ S2P + S2P @ S3P + 2 * S2_3 @ S1P @ S3P
I_MINUS = S1M @ S2M + S2M @ S3M + 2 * S2_3 @ S1M @ S3M
I_3 = (S1_3 + S2_3 + S3_3 + S2_3 @ (S1P @ S3M + S1M @ S3P)
       - 0.5 * (S1P @ S2M + S1M @ S2P + S2P @ S3M + S2M @ S3P))
for _m in (I_PLUS, I_MINUS, I_3):
    _m.setflags(write=False)
# the diagonal of S_z, which generates the gauge rotation D(phi) of the braid matrix
_S_Z = np.diag(S1_3 + S2_3 + S3_3)

# In each parity sector H acts on a fixed orthonormal pair, its doublet range: even
# |000>, (|011> + |101> + |110>)/sqrt(3); odd (|001> - |010> + |100>)/sqrt(3), |111>,
# held in _LIFT (sector, index, member). For each (copy, source, sign) in _SAME, column
# and row copy of H are sign times column and row source, exactly, so H (e_copy - sign
# e_source) = 0, and a sector's 2x2 block is H on its _SOURCES times _WEIGHTS,
# sqrt(m_i m_j) of their _MULTIPLICITY m: each source and its copies, counted once.
_SAME = ((5, 3, 1.0), (6, 3, 1.0), (2, 1, -1.0), (4, 1, 1.0))
_SOURCES = np.array([[0, 3], [1, 7]])
_BLOCK_ENTRIES = (8 * _SOURCES[:, :, None] + _SOURCES[:, None, :]).ravel()
_LIFT = np.eye(8)[:, _SOURCES]
for _copy, _source, _sign in _SAME:
    _LIFT[_copy] = _sign * _LIFT[_source]
_MULTIPLICITY = np.count_nonzero(_LIFT, axis=0)  # [[1, 3], [3, 1]]
_WEIGHTS = np.sqrt(_MULTIPLICITY[:, :, None] * _MULTIPLICITY[:, None, :])
_LIFT = (_LIFT / np.sqrt(_MULTIPLICITY)).transpose(1, 0, 2)


class DriveParams(namedtuple("DriveParams", "theta phi phi_dot hbar")):
    """Drive configuration, floats: fixed theta, instantaneous phi, rate
    phi_dot (default 1) and scale hbar (default 1)."""

    __slots__ = ()

    def __new__(cls, theta, phi, phi_dot=1.0, hbar=1.0):
        _check_drive(theta, phi, phi_dot, hbar)
        return super().__new__(cls, theta, phi, phi_dot, hbar)

    @classmethod
    def _make(cls, iterable):  # _replace builds through __new__, so it validates
        return cls(*iterable)


def _check_drive(theta, phis, phi_dot, hbar) -> None:
    if not (np.all(np.isfinite(phis))
            and all(np.isfinite(v) for v in (theta, phi_dot, hbar))):
        raise ValueError("all drive parameters must be finite")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    # H carries 2 hbar phidot, and a scale below the normal range would round
    # H to subnormals or zeros and gate it against zeros
    if not np.isfinite(2 * hbar * abs(phi_dot)):
        raise ValueError("drive scale 2*hbar*|phidot| overflows")
    if phi_dot != 0 and hbar * abs(phi_dot) < np.finfo(float).tiny:
        raise ValueError("drive scale hbar*|phidot| is below the normal float range")


class SpectrumReport(namedtuple("SpectrumReport", "eigenvalues degeneracy_pattern "
                                "closed_form_match fixture_residuals projector_residuals "
                                "hamiltonian_covariance")):
    """H's eigenvalues, ascending, plus closed-form and fixture comparisons.

    eigenvalues -- np.ndarray
    degeneracy_pattern -- tuple of cluster sizes in ascending-eigenvalue order
        (clusters split at gaps above 1e-8 * hbar * |phidot|)
    closed_form_match -- float, the max deviation from the sorted multiset
        {0 x4, +-hbar phidot cos(theta) x2}
    fixture_residuals -- tuple of ||H v - E v||, one per fixture v of energy E
    projector_residuals -- tuple comparing, per cluster, the numerical
        eigenprojector with the one spanned by the fixtures assigned to that cluster
    hamiltonian_covariance -- float, ||H - (hbar phidot / 2)(S_z - R S_z R^dag)||
        on the H the fixture residuals were taken on, R the braid matrix
        r_matrix(THREE_QUBIT, RParams(theta, phi))
    """

    __slots__ = ()


def hamiltonian(d: DriveParams) -> np.ndarray:
    """The 8x8 Hermitian drive generator at the given parameters."""
    # d was validated when it was made; H is +0 off the operators' support
    support = np.flatnonzero((I_PLUS != 0) | (I_MINUS != 0) | (I_3 != 0))
    out = np.zeros(64, dtype=complex)
    phis = np.array([d.phi], dtype=float)
    out[support] = _generator(support, d.theta, phis, d.phi_dot, d.hbar)[:, 0]
    return out.reshape(8, 8)


def _generator(entries, theta, phis, phi_dot, hbar) -> np.ndarray:
    """f1 (e^{-i phi} I+ + e^{i phi} I-) + f2 I3 on the flat 8x8 ``entries``
    at each phi, shape (len(entries), len(phis)), with the operators read at
    call time: each entry bitwise the whole-matrix expression's."""
    i_plus, i_minus, i_3 = (op.reshape(64)[entries, None] for op in (I_PLUS, I_MINUS, I_3))
    em = np.exp(-1j * phis)
    f1 = hbar * phi_dot * np.sin(theta) * np.cos(theta) / SQRT3
    f2 = 2 * hbar * phi_dot * np.cos(theta) ** 2 / 3
    # in place, in the order of the expression: each step rounds as it does
    h = em * i_plus
    h += np.conj(em) * i_minus
    h *= f1
    h += f2 * i_3
    return h


def _doublet_blocks(theta, phis, phi_dot, hbar) -> np.ndarray:
    """The (B, 2, 2, 2) blocks (drive angle, sector, row, column) of H on the
    doublet range at each angle of the 1-D ``phis``, evaluated on the 8 source
    entries only: each bitwise the block of the whole 8x8 H.

    The operators are checked first, with !=: NumericalError names one with a
    parity-mixing entry or a broken copy rule of _SAME. Negation is exact, so
    every H built from operators that pass keeps both."""
    _check_drive(theta, phis, phi_dot, hbar)
    ops = np.stack([I_PLUS, I_MINUS, I_3])
    copies, sources, signs = (np.array(v) for v in zip(*_SAME))
    mixed = np.any(ops[:, braid._PARITY_BLOCKS[8][1]] != 0, axis=1)
    off = {"column": np.any(ops[:, :, copies] != signs * ops[:, :, sources], axis=1),
           "row": np.any(ops[:, copies] != signs[:, None] * ops[:, sources], axis=2)}
    for k, name in enumerate(("I_PLUS", "I_MINUS", "I_3")):
        if mixed[k]:
            raise linalg.NumericalError(f"{name} mixes even and odd parity; cannot split H")
        for j, (copy, source, sign) in enumerate(_SAME):
            for kind, broken in off.items():
                if broken[k, j]:
                    raise linalg.NumericalError(f"{name} {kind} {copy} is not {sign:+.0f} times "
                                                f"{kind} {source}; H leaves the doublet range")
    h = _generator(_BLOCK_ENTRIES, theta, phis, phi_dot, hbar)
    h *= _WEIGHTS.reshape(8, 1)
    return h.T.reshape(len(phis), 2, 2, 2)


def _span_projector(vectors) -> np.ndarray:
    basis: list = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).copy()
        for b in basis:
            w -= np.vdot(b, w) * b
        norm = linalg.frobenius_norms([w])[0]
        if norm > 1e-12:
            basis.append(w / norm)
    return sum((np.outer(b, b.conj()) for b in basis), np.zeros((8, 8), dtype=complex))


@functools.cache
def _kernel() -> np.ndarray:
    """The projector on H's exact kernel, spanned by e_copy - sign e_source for
    each rule of _SAME: spectrum's zero level, built on first use, read-only."""
    kernel = _span_projector([np.eye(8)[c] - sign * np.eye(8)[s] for c, s, sign in _SAME])
    kernel.setflags(write=False)
    return kernel


def ladder_residuals() -> dict:
    """Frobenius residuals of the brackets of I_PLUS, I_MINUS and I_3, which
    depend on no drive: {"residuals": the identities that hold, "misreadings":
    the unit readings that do not}. *_triple is [I3, I+-] = +-3 I+-, *_unit
    [I3, I+-] = +-I+-; i3_squared_* compare I3^2 with (9/4) P and with I/4,
    globally and on the doublet range, whose projector P comes from _LIFT.
    With cartan_commutator, the *_triple pair and i3_squared_nine_quarters_span,
    J+- = I+-/sqrt(3), J3 = I3/3 close an exact su(2) with J3^2 = 1/4 on P."""
    ip, im, i3, eye = I_PLUS, I_MINUS, I_3, np.eye(8)
    span = np.einsum("sim,sjm->ij", _LIFT, _LIFT)  # the sectors' ranges together
    i3sq = i3 @ i3
    quarter = i3sq - eye / 4  # the unit reading of I3^2
    plus, minus = i3 @ ip - ip @ i3, i3 @ im - im @ i3  # [I3, I+-]
    holds = {
        "i_plus_squared": ip @ ip,
        "i_minus_squared": im @ im,
        "cartan_commutator": ip @ im - im @ ip - 2 * i3,
        "ladder_plus_triple": plus - 3 * ip,
        "ladder_minus_triple": minus + 3 * im,
        "i3_squared_nine_quarters_span": span @ (i3sq - 9 * eye / 4) @ span,
        "i3_squared_projector_identity": i3sq - 9 / 4 * span,
    }
    misreadings = {
        "ladder_plus_unit": plus - ip,
        "ladder_minus_unit": minus + im,
        "i3_squared_quarter_global": quarter,
        "i3_squared_quarter_span": span @ quarter @ span,
    }
    norms = iter(linalg.frobenius_norms([*holds.values(), *misreadings.values()]).tolist())
    return {"residuals": dict(zip(holds, norms)), "misreadings": dict(zip(misreadings, norms))}


def fixture_energy(i: int, d: DriveParams) -> float:
    """Energy of the i-th closed-form eigenstate (level membership as measured)."""
    if i not in FIXTURE_INDICES:
        raise ValueError(f"fixture index must be 1..8, got {i}")
    sign = next(sign for sign, members in LEVELS.values() if i in members)
    return float(sign * (d.hbar * d.phi_dot * np.cos(d.theta)))


def fixture_batch(i: int, theta: float, z: np.ndarray) -> np.ndarray:
    """Fixture states at the drive angles whose phase factors are z = e^{-i phi},
    shape (len(z), 8), column-major so that each basis index's amplitudes are
    contiguous: 5 and 7 carry z, 6 and 8 carry its conjugate, 1..4 no phase."""
    if i not in FIXTURE_INDICES:
        raise ValueError(f"fixture index must be 1..8, got {i}")
    z = np.asarray(z, dtype=complex)
    out = np.zeros((z.shape[0], 8), dtype=complex, order="F")
    s, c = np.sin(theta / 2), np.cos(theta / 2)
    r2, r3 = 1 / np.sqrt(2), 1 / SQRT3
    if i == 1:
        out[:, 0b011], out[:, 0b110] = -r2, r2
    elif i == 2:
        out[:, 0b001], out[:, 0b100] = -r2, r2
    elif i == 3:
        out[:, 0b011], out[:, 0b101] = -r2, r2
    elif i == 4:
        out[:, 0b001], out[:, 0b010] = r2, r2
    elif i == 5:
        out[:, 0b001] = -r3 * z * s
        out[:, 0b010] = r3 * z * s
        out[:, 0b100] = -r3 * z * s
        out[:, 0b111] = c
    elif i == 6:
        out[:, 0b001] = r3 * c
        out[:, 0b010] = -r3 * c
        out[:, 0b100] = r3 * c
        out[:, 0b111] = z.conj() * s
    elif i == 7:
        out[:, 0b000] = -z * s
        out[:, 0b011] = r3 * c
        out[:, 0b101] = r3 * c
        out[:, 0b110] = r3 * c
    else:
        out[:, 0b000] = c
        out[:, 0b011] = r3 * z.conj() * s
        out[:, 0b101] = r3 * z.conj() * s
        out[:, 0b110] = r3 * z.conj() * s
    return out


def eigenstate_fixture(i: int, theta: float, phi: float) -> np.ndarray:
    """The i-th closed-form eigenstate, normalized by construction."""
    v = fixture_batch(i, theta, np.exp(-1j * np.array([phi])))
    norm = linalg.frobenius_norms(v)[0]
    if abs(norm - 1.0) > 1e-12:
        raise linalg.NumericalError(f"fixture {i} norm drifted to {norm}")
    return v[0]


def spectrum(d: DriveParams) -> SpectrumReport:
    """H's spectrum from one eigh of its (2, 2, 2) _doublet_blocks, whose
    eigenvectors are lifted through the doublet range, and from its exact
    kernel, spanned by e_copy - sign e_source, as the zero level (eigenvalues
    exactly 0); then checked against the closed-form fixtures on the 8x8 H,
    and that H against the braid matrix it is the generator of."""
    h = hamiltonian(d)
    dec = linalg.eigh(_doublet_blocks(d.theta, np.array([d.phi]), d.phi_dot, d.hbar)[0])
    # H is linear in hbar * phidot, so the grouping gap scales with it
    gap = 1e-8 * d.hbar * abs(d.phi_dot)

    # states 0..3 span the kernel; 4..7 are the lifted block eigenvectors
    values = np.concatenate([np.zeros(4), dec.eigenvalues.reshape(4)])
    order = np.argsort(values, kind="stable")
    lam = values[order]
    clusters = np.split(order, np.flatnonzero(np.diff(lam) > gap) + 1)
    lifted = np.swapaxes(_LIFT @ dec.eigenvectors, 1, 2).reshape(4, 8)

    fixtures = [eigenstate_fixture(i, d.theta, d.phi) for i in FIXTURE_INDICES]
    energies = [fixture_energy(i, d) for i in FIXTURE_INDICES]
    closed_match = float(np.max(np.abs(lam - np.sort(energies))))
    fixture_residuals = tuple(linalg.frobenius_norms(
        [h @ v - en * v for v, en in zip(fixtures, energies)]).tolist())

    projector_diffs = []
    for states in clusters:
        vecs = lifted[states[states >= 4] - 4]
        p_num = vecs.T @ vecs.conj() + (_kernel() if states.min() < 4 else 0)
        mean = float(np.mean(values[states]))
        members = [v for v, en in zip(fixtures, energies)
                   if abs(en - mean) <= gap]
        projector_diffs.append(p_num - _span_projector(members))

    r = yangbaxter.r_matrix(yangbaxter.THREE_QUBIT, yangbaxter.RParams(d.theta, d.phi))
    rotated = np.diag(_S_Z) - (r * _S_Z) @ r.conj().T  # S_z - R S_z R^dag

    return SpectrumReport(
        eigenvalues=lam,
        degeneracy_pattern=tuple(len(states) for states in clusters),
        closed_form_match=closed_match,
        fixture_residuals=fixture_residuals,
        projector_residuals=tuple(linalg.frobenius_norms(projector_diffs).tolist()),
        hamiltonian_covariance=float(linalg.frobenius_norms(
            [h - d.hbar * d.phi_dot / 2 * rotated])[0]),
    )
