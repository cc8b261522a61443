"""Click/no-click detection of the Stokes photon and conditional projection.

The detector is a non-photon-number-resolving threshold device (SPAD-like):
per gate it fires on a real photon with probability 1-(1-eta)^n for n
incident photons, and independently fires on a dark event with probability
p_dark = 1 - exp(-dark_rate * gate).  DetectorModel holds eta, dark_rate and
gate as the config schema checked them.  The corresponding POVM elements are

    E_click   = 1 - (1 - p_dark) (1 - eta)^n_hat
    E_noclick = (1 - p_dark) (1 - eta)^n_hat.

Because both elements are diagonal in the photon number, the conditional
state after a click is an exact mixture over photon-number branches; the
Monte Carlo driver keeps pure states by sampling one branch per trajectory
with the correct weight (an exact unraveling, checked in the tests against
the three-mode density matrix).

On the pair-shell write state sum_n c_n |n>_a |n>_b the branch table has a
closed form: photon branch n weighs |c_n|^2 (1 - (1 - eta)^n), dark branch n
weighs |c_n|^2 (1 - eta)^n p_dark, and either leaves the spins in |n>_b.
The weight lam^(N+1) above the cutoff N, where the chain continues as
|c_n|^2 = |c_0|^2 lam^n, adds one photon and one dark branch, both listed
with n_photons = N + 1 ("above the cutoff").
A click branch is a false herald when it is attributable to the dark event
or taken on a multi-photon component (which leaves a wrong spin state).
Every branch with n = 1, the true herald and the dark click on the one-pair
component, leaves the same spin state |1>_b = u_I |1,0> + u_II |0,1>, which
on the short-time write state is
(P_I |1,0> - P_II |0,1>) / sqrt(|P_I|^2 + |P_II|^2); the relative minus
sign is preserved end to end so it reaches the output photon's amplitudes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .write_dynamics import PairState


class DetectorModel(NamedTuple):
    """Threshold click detector.

    eta        detection efficiency in [0, 1]
    dark_rate  dark events per second (plain rate, not angular)
    gate       detection gate duration in seconds
    """

    eta: float
    dark_rate: float
    gate: float

    @property
    def p_dark(self) -> float:
        return 1.0 - math.exp(-self.dark_rate * self.gate)


class HeraldBranch(NamedTuple):
    """One pure-state branch of the click POVM.

    kind is "photon" (a real photon was detected; n_photons is the photon
    number of the component, or cutoff + 1 for all components above the
    cutoff) or "dark" (the click came from the dark event; any photons in
    the component went undetected).  The branch leaves the spins in |n>_b.
    """

    kind: str
    n_photons: int
    probability: float

    @property
    def false_herald(self) -> bool:
        return self.kind == "dark" or self.n_photons >= 2


def heralded_spin(state: PairState) -> tuple[complex, complex]:
    """The spin state |1>_b left by every n = 1 branch, as its amplitudes on
    |1,0> and |0,1>: (i c_1/|c_1|) (u_I, u_II), zero when c_1 = 0.

    The factor i strips the -i of the write evolution (a pure reporting
    gauge), so a single click on the short-time write state reads
    (P_I, -P_II) / |P|.
    """
    c_1 = state.chain[1]
    phase = 1j * c_1 / abs(c_1) if c_1 else 0.0
    return complex(phase * state.u_I), complex(phase * state.u_II)


def click_branches(state: PairState, det: DetectorModel) -> list[HeraldBranch]:
    """All click branches with their unconditional probabilities.

    Branch order is fixed (photon branches by ascending n, then dark
    branches by ascending n, then the photon and the dark tail) so that
    outcome selection is deterministic.
    """
    p_n, top = [abs(c) ** 2 for c in state.chain], len(state.chain)
    miss = [(1.0 - det.eta) ** n for n in range(top + 1)]
    weights = [("photon", n, p_n[n] * (1.0 - miss[n])) for n in range(1, top)]
    weights += [("dark", n, p_n[n] * miss[n] * det.p_dark) for n in range(top)]
    # Above the cutoff N the chain continues as |c_n|^2 = s lam^n, where
    # s = |c_0|^2 = 1 - lam stays exact where lam rounds to 1: the tail
    # weighs lam^(N+1) and the detector misses it with probability s m / den,
    # m = (1-eta)^(N+1) and den = 1 - lam (1-eta) = s + lam eta, which is 0
    # only at eta = 0 and lam = 1, where nothing is detected.
    lam = state.tail_ratio
    s, lam_eta = p_n[0], lam * det.eta
    den = s + lam_eta
    seen = (s * (1.0 - miss[top]) + lam_eta) / den if den else 0.0
    missed = s * miss[top] / den if den else 1.0
    weights += [("photon", top, lam**top * seen), ("dark", top, lam**top * missed * det.p_dark)]
    return [HeraldBranch(kind, n, float(w)) for kind, n, w in weights if w > 0.0]
