"""Truncated three-mode Fock space: the test oracle for the write engine.

The write stage involves exactly three bosonic modes: the Stokes photon
mode and one collective spin-wave mode per atomic species.  States here are
complex amplitude vectors over occupation triples (n_photon, n_spin_I,
n_spin_II) with a hard per-mode cutoff.  fmesim itself works on the pair
shell (chain amplitudes plus one bright spin mode); this generic grid code
is the independent check: the engine's states expand onto the grid
(pair_shell_state), and photon-number projection there gives the click
branches that the closed form must reproduce.  The flat amplitude layout is
row-major with the photon occupation slowest, i.e.

    index(n_s, n_i, n_ii) = n_s * (cutoff+1)**2 + n_i * (cutoff+1) + n_ii

which is also the layout of the grids that write-sim and herald printed
before they printed the pair shell itself.

Truncation is hard: raising an occupation past the cutoff drops that
component instead of renormalizing, which keeps operators linear and makes
truncation error visible as a norm deficit.  Renormalization is always an
explicit, separate call.
"""

from __future__ import annotations

import json
import math
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


def pair_shell_state(chain, u_I: complex, u_II: complex) -> TruncatedState:
    """The pair-shell state sum_n c_n |n>_photon (b^dag)^n |0> / sqrt(n!),
    b^dag = u_I S_I^dag + u_II S_II^dag, on the grid of cutoff len(chain) - 1:
    c_n sqrt(C(n, k)) u_I^k u_II^(n-k) at (n, k, n - k), 0 elsewhere."""
    d = len(chain)
    amps = np.zeros((d, d, d), dtype=complex)
    for n, c_n in enumerate(chain):
        for k in range(n + 1):
            amps[n, k, n - k] = c_n * math.sqrt(math.comb(n, k)) * u_I**k * u_II ** (n - k)
    return TruncatedState(d - 1, amps.reshape(-1))


def from_pair_state(state) -> TruncatedState:
    """An fmesim PairState (its listed chain) expanded onto the grid."""
    return pair_shell_state(state.chain, state.u_I, state.u_II)


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


def to_json(psi: TruncatedState) -> str:
    """Serialize as {"cutoff": int, "amplitudes": [[re, im], ...]}."""
    pairs = [[float(a.real), float(a.imag)] for a in psi.amplitudes]
    return json.dumps({"cutoff": psi.cutoff, "amplitudes": pairs})


def from_json(text: str) -> TruncatedState:
    data = json.loads(text)
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return TruncatedState(int(data["cutoff"]), amps)
