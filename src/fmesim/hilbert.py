"""Truncated three-mode Fock space for the write stage.

The write stage involves exactly three bosonic modes: the Stokes photon
mode and one collective spin-wave mode per atomic species.  States are
complex amplitude vectors over occupation triples (n_photon, n_spin_I,
n_spin_II) with a hard per-mode cutoff.  The flat amplitude layout is
row-major with the photon occupation slowest, i.e.

    index(n_s, n_i, n_ii) = n_s * (cutoff+1)**2 + n_i * (cutoff+1) + n_ii

and is fixed so that serialized states are bit-comparable across runs.

Truncation is hard: raising an occupation past the cutoff drops that
component instead of renormalizing, which keeps operators linear and makes
truncation error visible as a norm deficit.  Renormalization is always an
explicit, separate call.

All states are treated as immutable values and all operations are pure
functions, so they are safe to share across concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

N_MODES = 3


class Mode(IntEnum):
    """The three write-stage modes (also the tensor axis of each mode)."""

    STOKES = 0
    SPIN_I = 1
    SPIN_II = 2


class OperatorKind(Enum):
    LOWERING = "lowering"
    RAISING = "raising"
    NUMBER = "number"


@dataclass(frozen=True)
class ModeOperator:
    """A single-mode ladder or number operator, applied matrix-free."""

    kind: OperatorKind
    mode: Mode


@dataclass(frozen=True)
class TruncatedState:
    """Pure state on the truncated three-mode space.

    amplitudes has length (cutoff+1)**3 in the fixed index order above.
    """

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.dim,):
            raise ValueError(
                f"amplitude vector must have length {self.dim}, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** N_MODES

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to (d, d, d) with axes (photon, spin I, spin II)."""
        d = self.cutoff + 1
        return self.amplitudes.reshape(d, d, d)

    def amplitude(self, n_s: int, n_i: int, n_ii: int) -> complex:
        return self.grid()[n_s, n_i, n_ii]


def basis_index(cutoff: int, n_s: int, n_i: int, n_ii: int) -> int:
    d = cutoff + 1
    for n in (n_s, n_i, n_ii):
        if not 0 <= n <= cutoff:
            raise ValueError(f"occupation {n} outside [0, {cutoff}]")
    return (n_s * d + n_i) * d + n_ii


def vacuum_state(cutoff: int) -> TruncatedState:
    """All modes unoccupied; amplitude 1 at (0, 0, 0)."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    amps = np.zeros((cutoff + 1) ** N_MODES, dtype=complex)
    amps[0] = 1.0
    return TruncatedState(cutoff, amps)


def basis_state(cutoff: int, n_s: int, n_i: int, n_ii: int) -> TruncatedState:
    amps = np.zeros((cutoff + 1) ** N_MODES, dtype=complex)
    amps[basis_index(cutoff, n_s, n_i, n_ii)] = 1.0
    return TruncatedState(cutoff, amps)


def apply_operator(op: ModeOperator, psi: TruncatedState) -> TruncatedState:
    """Apply a ladder or number operator without building its matrix.

    lowering: |n> -> sqrt(n) |n-1>;  raising: |n> -> sqrt(n+1) |n+1>,
    with the component at n = cutoff dropped (hard truncation);
    number: |n> -> n |n>.
    """
    d = psi.cutoff + 1
    axis = int(op.mode)
    grid = psi.grid()
    out = np.zeros_like(grid)
    shape = [1, 1, 1]
    shape[axis] = d - 1
    w = np.sqrt(np.arange(1, d)).reshape(shape)
    src = [slice(None)] * N_MODES
    dst = [slice(None)] * N_MODES
    if op.kind is OperatorKind.LOWERING:
        src[axis] = slice(1, d)
        dst[axis] = slice(0, d - 1)
        out[tuple(dst)] = w * grid[tuple(src)]
    elif op.kind is OperatorKind.RAISING:
        src[axis] = slice(0, d - 1)
        dst[axis] = slice(1, d)
        out[tuple(dst)] = w * grid[tuple(src)]
    elif op.kind is OperatorKind.NUMBER:
        shape[axis] = d
        out = grid * np.arange(d).reshape(shape)
    else:
        raise ValueError(f"unknown operator kind {op.kind!r}")
    return TruncatedState(psi.cutoff, out.reshape(-1))


def lower(psi: TruncatedState, mode: Mode) -> TruncatedState:
    return apply_operator(ModeOperator(OperatorKind.LOWERING, mode), psi)


def raise_(psi: TruncatedState, mode: Mode) -> TruncatedState:
    return apply_operator(ModeOperator(OperatorKind.RAISING, mode), psi)


def _check_same_cutoff(psi: TruncatedState, phi: TruncatedState):
    if psi.cutoff != phi.cutoff:
        raise ValueError(f"cutoff mismatch: {psi.cutoff} != {phi.cutoff}")


def inner_product(psi: TruncatedState, phi: TruncatedState) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    _check_same_cutoff(psi, phi)
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def norm(psi: TruncatedState) -> float:
    return float(np.linalg.norm(psi.amplitudes))


def normalize(psi: TruncatedState) -> TruncatedState:
    n = norm(psi)
    if not np.isfinite(n):
        raise FloatingPointError(f"cannot normalize a state of norm {n!r}")
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return TruncatedState(psi.cutoff, psi.amplitudes / n)


def expected_occupation(psi: TruncatedState, mode: Mode) -> float:
    """<psi| n_mode |psi> for a normalized (or not) state; always real >= 0."""
    d = psi.cutoff + 1
    shape = [1, 1, 1]
    shape[int(mode)] = d
    weights = np.arange(d).reshape(shape)
    return float(np.sum(weights * np.abs(psi.grid()) ** 2))


def occupation_distribution(psi: TruncatedState, mode: Mode) -> np.ndarray:
    """Probability of each occupation 0..cutoff of one mode (marginal)."""
    axes = tuple(a for a in range(N_MODES) if a != int(mode))
    return np.sum(np.abs(psi.grid()) ** 2, axis=axes)


def project_photon_number(psi: TruncatedState, n: int) -> TruncatedState:
    """Unnormalized component of psi with exactly n Stokes photons.

    The photon mode is collapsed to vacuum (the detected photon is absorbed),
    leaving the spin content of the selected component.
    """
    d = psi.cutoff + 1
    if not 0 <= n <= psi.cutoff:
        raise ValueError(f"photon number {n} outside [0, {psi.cutoff}]")
    out = np.zeros((d, d, d), dtype=complex)
    out[0] = psi.grid()[n]
    return TruncatedState(psi.cutoff, out.reshape(-1))


def operator_matrix(op: ModeOperator, cutoff: int) -> np.ndarray:
    """Dense matrix of a mode operator, built column-by-column from the
    matrix-free application (single source of truth for the action)."""
    dim = (cutoff + 1) ** N_MODES
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        mat[:, col] = apply_operator(op, TruncatedState(cutoff, amps)).amplitudes
    return mat


def to_json(psi: TruncatedState) -> str:
    """Serialize as {"cutoff": int, "amplitudes": [[re, im], ...]}."""
    pairs = [[float(a.real), float(a.imag)] for a in psi.amplitudes]
    return json.dumps({"cutoff": psi.cutoff, "amplitudes": pairs})


def from_json(text: str) -> TruncatedState:
    data = json.loads(text)
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return TruncatedState(int(data["cutoff"]), amps)
