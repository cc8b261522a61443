"""Read-out: heralded spin waves mapped to a dual-rail frequency qubit.

A true herald leaves one collective excitation shared between the species.
Each species' read field converts its spin wave into a polariton that leaves
the medium as a photon at that species' output frequency, so the retrieved
photon is a dual-rail qubit over the two frequencies with amplitudes
inherited from the heralded spin state:

    c1 = P_I / sqrt(|P_I|^2 + |P_II|^2)
    c2 = -P_II / sqrt(|P_I|^2 + |P_II|^2)

The minus sign is the heralded state's sign convention carried through
ideal retrieval; the natural output is therefore the singlet-like Bell
state, and a read-field phase knob (phase_II) is provided to rotate c2 onto
the + Bell state.  A false herald leaves (dominantly) the unexcited
ensemble, which has nothing to retrieve: the output records
retrieval_efficiency 0 and no photon.

The polariton picture: the read field mixes the photon and spin components
with angle theta, tan^2(theta) = g'^2 N / |Omega_R|^2, and the excitation
propagates out at the group velocity v_g = c cos^2(theta) (the standard
slow-light result consistent with that mixing angle).  Propagation is the
exact advection of the polariton envelope with an outflow boundary; each
species' polariton propagates independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import hilbert
from .hilbert import TruncatedState

C_LIGHT = 299_792_458.0  # m/s

NORM_TOLERANCE = 1e-9
GRID_ALIGNMENT_TOL = 1e-9


@dataclass(frozen=True)
class ReadParams:
    """Per-species read-out settings (frequencies in rad/s).

    omega_out_I/II are the two output photon frequencies (distinct by
    construction); efficiency_I/II are single multiplicative retrieval
    efficiencies (1.0 = ideal); phase_II rotates the species-II amplitude.
    The read pulse itself is not modeled here: the retrieved amplitudes are
    the heralded ones scaled by these efficiencies (dsp_angle and
    propagate_dsp model the polariton transport from explicit arguments).
    """

    omega_out_I: float
    omega_out_II: float
    efficiency_I: float = 1.0
    efficiency_II: float = 1.0
    phase_II: float = 0.0

    def __post_init__(self):
        if self.omega_out_I == self.omega_out_II:
            raise ValueError("output frequencies must differ")
        for name in ("efficiency_I", "efficiency_II"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FmeQubitState:
    """Dual-rail single-photon state over the two output frequencies.

    (c1, c2) are the amplitudes on |1>_I |0>_II and |0>_I |1>_II and satisfy
    |c1|^2 + |c2|^2 = 1 whenever a photon was retrieved at all
    (retrieval_efficiency > 0).  retrieval_efficiency = 0 marks a no-photon
    record (false herald or fully lossy read-out); its amplitudes are zero.
    """

    c1: complex
    c2: complex
    omega_I: float
    omega_II: float
    retrieval_efficiency: float

    def __post_init__(self):
        if self.omega_I == self.omega_II:
            raise ValueError("output frequencies must differ")
        if not 0.0 <= self.retrieval_efficiency <= 1.0:
            raise ValueError("retrieval_efficiency must be in [0, 1]")
        total = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if self.retrieval_efficiency > 0.0 and abs(total - 1.0) > 1e-12:
            raise ValueError(f"|c1|^2 + |c2|^2 = {total!r}, expected 1")

    @property
    def has_photon(self) -> bool:
        return self.retrieval_efficiency > 0.0


def _single_excitation_amplitudes(state: TruncatedState) -> tuple[complex, complex]:
    alpha = state.amplitude(0, 1, 0)
    beta = state.amplitude(0, 0, 1)
    return complex(alpha), complex(beta)


def retrieve_fme(state: TruncatedState, read: ReadParams) -> FmeQubitState:
    """Map a heralded (post-click, normalized) spin state to the output
    frequency qubit.

    Amplitudes come from the single-excitation content of the state;
    components outside the single-excitation manifold cannot emit the
    one-photon pulse and only reduce retrieval_efficiency.
    """
    if abs(hilbert.norm(state) - 1.0) > NORM_TOLERANCE:
        raise ValueError("conditional state is not normalized")
    alpha, beta = _single_excitation_amplitudes(state)
    w1 = abs(alpha) ** 2 * read.efficiency_I
    w2 = abs(beta) ** 2 * read.efficiency_II
    efficiency = min(w1 + w2, 1.0)  # guard fp overshoot of a unit-norm state
    if efficiency <= 0.0:
        return FmeQubitState(
            c1=0.0,
            c2=0.0,
            omega_I=read.omega_out_I,
            omega_II=read.omega_out_II,
            retrieval_efficiency=0.0,
        )
    c1 = alpha * math.sqrt(read.efficiency_I)
    c2 = beta * math.sqrt(read.efficiency_II) * np.exp(1j * read.phase_II)
    scale = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    return FmeQubitState(
        c1=complex(c1 / scale),
        c2=complex(c2 / scale),
        omega_I=read.omega_out_I,
        omega_II=read.omega_out_II,
        retrieval_efficiency=float(efficiency),
    )


def concurrence(q: FmeQubitState) -> float:
    """2 |c1 c2|: the entanglement of the dual-rail qubit (phase-free)."""
    _require_photon(q)
    return min(2.0 * abs(q.c1) * abs(q.c2), 1.0)


def fidelity_to_bell(q: FmeQubitState) -> float:
    """|<Bell+|q>|^2 = |c1 + c2|^2 / 2; unlike concurrence, phase-sensitive."""
    _require_photon(q)
    return min(abs(q.c1 + q.c2) ** 2 / 2.0, 1.0)


def _require_photon(q: FmeQubitState):
    if not q.has_photon:
        raise ValueError("no-photon record: entanglement metrics are undefined")


# ---------------------------------------------------------------------------
# Dark-state polariton transport
# ---------------------------------------------------------------------------


def dsp_angle(g_prime: float, n_atoms: float, omega_R: complex) -> float:
    """Polariton mixing angle theta = arctan(g' sqrt(N) / |Omega_R|).

    Omega_R -> infinity gives theta -> 0 (pure photon); Omega_R = 0 is
    singular (the polariton is fully atomic and nothing is retrieved).
    """
    if omega_R == 0:
        raise ValueError("Omega_R must be nonzero (no retrieval otherwise)")
    if n_atoms < 1:
        raise ValueError("atom number must be >= 1")
    return math.atan(g_prime * math.sqrt(n_atoms) / abs(omega_R))


def group_velocity(theta: float) -> float:
    """v_g = c cos^2(theta)."""
    return C_LIGHT * math.cos(theta) ** 2


@dataclass(frozen=True)
class DspField:
    """Polariton envelope on a uniform grid z in [0, L).

    values[i] samples the envelope at z = i * dz with dz = length / size.
    outflow accumulates the integral of |envelope|^2 that has left through
    the z = L boundary (retrieved output flux).
    """

    values: np.ndarray
    dz: float
    theta: float
    v_g: float
    outflow: float = 0.0

    def __post_init__(self):
        if self.dz <= 0:
            raise ValueError("dz must be > 0")
        if not 0.0 < self.v_g <= C_LIGHT:
            raise ValueError("group velocity must be in (0, c]")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dz

    @property
    def length(self) -> float:
        return self.values.size * self.dz

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dz)


def dsp_field(values, dz: float, theta: float) -> DspField:
    return DspField(values=np.asarray(values, dtype=complex), dz=dz, theta=theta,
                    v_g=group_velocity(theta))


def propagate_dsp(field: DspField, t: float) -> DspField:
    """Advect the envelope by v_g * t with an outflow boundary at z = L.

    Grid-aligned shifts are exact index moves.  Other shifts use band-limited
    (FFT sinc) interpolation on a zero-padded copy of the grid, which is
    unitary, so envelope norm plus accumulated outflow is conserved either
    way; the padding is sized so the shifted envelope cannot wrap back into
    the domain.

    Interpolated steps are meant for in-domain transport: truncating a pulse
    that straddles the boundary leaves band-limited ringing behind, so drain
    a pulse through the boundary with grid-aligned steps (or one step large
    enough to clear it).  Conservation holds regardless.
    """
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    shift = field.v_g * t / field.dz
    n = field.values.size
    if abs(shift - round(shift)) < GRID_ALIGNMENT_TOL:
        cells = int(round(shift))
        new_values = np.zeros_like(field.values)
        if cells == 0:
            new_values[:] = field.values
            leaving = 0.0
        elif cells < n:
            new_values[cells:] = field.values[: n - cells]
            leaving = float(np.sum(np.abs(field.values[n - cells:]) ** 2) * field.dz)
        else:
            leaving = field.norm_squared()
        return replace(field, values=new_values, outflow=field.outflow + leaving)

    pad = n + int(np.ceil(shift)) + n
    padded = np.zeros(pad, dtype=complex)
    padded[:n] = field.values
    freqs = np.fft.fftfreq(pad)
    shifted = np.fft.ifft(np.fft.fft(padded) * np.exp(-2j * np.pi * freqs * shift))
    new_values = shifted[:n]
    leaving = float(np.sum(np.abs(shifted[n:]) ** 2) * field.dz)
    return replace(field, values=new_values, outflow=field.outflow + leaving)
