"""Dark-state-polariton transport: a test oracle for the read-out physics.

fmesim's retrieval maps the heralded spin amplitudes to the output frequency
qubit through per-species efficiencies and reports nothing about how the
excitation leaves the medium, so no command reads the transport below.  It
is kept as a checked model of the slow-light picture behind that read-out
(Fleischhauer & Lukin, PRL 84, 5094 (2000)).

The read field mixes the photon and spin components with angle theta,
tan^2(theta) = g'^2 N / |Omega_R|^2, and the excitation propagates out at the
group velocity v_g = c cos^2(theta) (the standard slow-light result
consistent with that mixing angle).  Propagation is the exact advection of
the polariton envelope with an outflow boundary; each species' polariton
propagates independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

C_LIGHT = 299_792_458.0  # m/s

GRID_ALIGNMENT_TOL = 1e-9


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
