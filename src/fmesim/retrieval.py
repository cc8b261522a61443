"""Read-out: heralded spin waves mapped to a dual-rail frequency qubit.

A true herald leaves one collective excitation shared between the species.
Each species' read field converts its spin wave into a polariton that leaves
the medium as a photon at that species' read sideband, -delta_omega_read for
species I and +delta_omega_read for species II, so the retrieved photon is a
dual-rail qubit over the two frequencies with amplitudes inherited from the
heralded spin state:

    c1 = P_I / sqrt(|P_I|^2 + |P_II|^2)
    c2 = -P_II / sqrt(|P_I|^2 + |P_II|^2)

The minus sign is the heralded state's sign convention carried through
ideal retrieval; the natural output is therefore the singlet-like Bell
state, and a read-field phase knob (phase_II) is provided to rotate c2 onto
the + Bell state.  Every click that leaves one pair, the true herald and
the dark click on the one-pair component alike, leaves the same spin state,
so the read-out is one qubit per configuration.  Any other click leaves
either the unexcited ensemble or several excitations, neither of which
emits the one-photon pulse: it is recorded as no photon.

ReadParams is a plain record whose efficiencies the config schema has
checked; FmeQubitState checks its own computed invariant, the unit norm.
How the excitation leaves the medium (dark-state-polariton transport) moves
no reported number, so it is not modeled here; tests/polariton.py keeps it
as a test oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class ReadParams(NamedTuple):
    """Per-species read-out settings.

    efficiency_I/II are single multiplicative retrieval efficiencies
    (1.0 = ideal); phase_II rotates the species-II amplitude.  The read pulse
    itself is not modeled: the retrieved amplitudes are the heralded ones
    scaled by these efficiencies.  No retrieval formula reads the output
    frequencies, so they are not fields here: the rails are -/+ the
    configured delta_omega_read.
    """

    efficiency_I: float = 1.0
    efficiency_II: float = 1.0
    phase_II: float = 0.0


class _QubitFields(NamedTuple):  # checked in FmeQubitState.__new__, which _replace skips
    c1: complex
    c2: complex
    retrieval_efficiency: float


class FmeQubitState(_QubitFields):
    """Dual-rail single-photon state over the two output frequencies.

    (c1, c2) are the amplitudes on |1>_I |0>_II and |0>_I |1>_II and satisfy
    |c1|^2 + |c2|^2 = 1 whenever a photon was retrieved at all
    (retrieval_efficiency > 0).  retrieval_efficiency = 0 marks a no-photon
    record (no single excitation, or a fully lossy read-out); its amplitudes
    are zero.  The two frequencies are -/+ the read half-splitting,
    delta_omega_read.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.retrieval_efficiency <= 1.0:
            raise ValueError("retrieval_efficiency must be in [0, 1]")
        total = abs(self.c1) ** 2 + abs(self.c2) ** 2
        if self.retrieval_efficiency > 0.0 and abs(total - 1.0) > 1e-12:
            raise ValueError(f"|c1|^2 + |c2|^2 = {total!r}, expected 1")
        return self

    @property
    def has_photon(self) -> bool:
        return self.retrieval_efficiency > 0.0


def retrieve_fme(spin: tuple[complex, complex], read: ReadParams) -> FmeQubitState:
    """Map the heralded spin amplitudes (on |1,0> and |0,1>) to the output
    frequency qubit.

    The amplitudes are scaled by the per-species read-out; a zero spin pair
    (no single excitation) retrieves no photon.
    """
    alpha, beta = spin
    p1, p2 = abs(alpha) ** 2, abs(beta) ** 2  # sum to 1 on a single excitation, else 0
    retrieved = p1 * read.efficiency_I + p2 * read.efficiency_II
    if retrieved <= 0.0:
        return FmeQubitState(c1=0.0, c2=0.0, retrieval_efficiency=0.0)
    c1 = alpha * math.sqrt(read.efficiency_I)
    rotation = complex(math.cos(read.phase_II), math.sin(read.phase_II))
    c2 = beta * math.sqrt(read.efficiency_II) * rotation
    scale = math.sqrt(abs(c1) ** 2 + abs(c2) ** 2)
    return FmeQubitState(
        c1=complex(c1 / scale),
        c2=complex(c2 / scale),
        retrieval_efficiency=float(retrieved / (p1 + p2)),  # exactly 1 when ideal
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

