"""Click/no-click detection of the Stokes photon and conditional projection.

The detector is a non-photon-number-resolving threshold device (SPAD-like):
per gate it fires on a real photon with probability 1-(1-eta)^n for n
incident photons, and independently fires on a dark event with probability
p_dark = 1 - exp(-dark_rate * gate).  The corresponding POVM elements are

    E_click   = 1 - (1 - p_dark) (1 - eta)^n_hat
    E_noclick = (1 - p_dark) (1 - eta)^n_hat.

Because both elements are diagonal in the photon number, the conditional
state after a click is an exact mixture over photon-number branches; the
Monte Carlo driver keeps pure states by sampling one branch per trajectory
with the correct weight (an exact unraveling, verified against the dense
density-matrix computation in the tests).

A click branch is a false herald when it is attributable to the dark event
or taken on a multi-photon component (which leaves a wrong spin state).
On the short-time write state with a single click the surviving spin state
is (P_I |1,0> - P_II |0,1>) / sqrt(|P_I|^2 + |P_II|^2); the relative minus
sign is preserved end to end so it reaches the output photon's amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import Mode, TruncatedState

NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class DetectorModel:
    """Threshold click detector.

    eta        detection efficiency in [0, 1]
    dark_rate  dark events per second (plain rate, not angular)
    gate       detection gate duration in seconds
    """

    eta: float
    dark_rate: float
    gate: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be >= 0")
        if self.gate <= 0:
            raise ValueError("gate must be > 0")

    @property
    def p_dark(self) -> float:
        return 1.0 - math.exp(-self.dark_rate * self.gate)


@dataclass(frozen=True)
class HeraldBranch:
    """One pure-state branch of the click POVM.

    kind is "photon" (a real photon was detected; n_photons is the photon
    number of the component) or "dark" (the click came from the dark event;
    any photons in the component went undetected).
    """

    kind: str
    n_photons: int
    probability: float
    state: TruncatedState

    @property
    def false_herald(self) -> bool:
        return self.kind == "dark" or self.n_photons >= 2


def _check_normalized(psi: TruncatedState):
    if abs(hilbert.norm(psi) - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"state is not normalized (norm = {hilbert.norm(psi)!r})")


def herald_probability(psi: TruncatedState, det: DetectorModel) -> float:
    """Click probability of the threshold detector on the given state."""
    _check_normalized(psi)
    p_n = hilbert.occupation_distribution(psi, Mode.STOKES)
    miss = np.sum(p_n * (1.0 - det.eta) ** np.arange(p_n.size))
    return float(1.0 - (1.0 - det.p_dark) * miss)


def click_branches(psi: TruncatedState, det: DetectorModel) -> list[HeraldBranch]:
    """All click branches with their unconditional probabilities.

    Branch order is fixed (photon branches by ascending n, then dark
    branches by ascending n) so that outcome selection is deterministic.
    """
    _check_normalized(psi)
    p_n = hilbert.occupation_distribution(psi, Mode.STOKES)
    p_dark = det.p_dark
    branches = []
    for n in range(1, p_n.size):
        weight = p_n[n] * (1.0 - (1.0 - det.eta) ** n)
        if weight > 0.0:
            branches.append(HeraldBranch("photon", n, float(weight), _collapse(psi, n)))
    if p_dark > 0.0:
        for n in range(p_n.size):
            weight = p_n[n] * (1.0 - det.eta) ** n * p_dark
            if weight > 0.0:
                branches.append(HeraldBranch("dark", n, float(weight), _collapse(psi, n)))
    return branches


def _collapse(psi: TruncatedState, n: int) -> TruncatedState:
    """Normalized spin state of the n-photon component, in the standard
    sign convention: the global (-i)^n phase the write evolution puts on the
    n-quantum amplitude is stripped (a pure reporting gauge), so a single
    click on the short-time write state reads (P_I, -P_II) / sqrt(...)."""
    state = hilbert.normalize(hilbert.project_photon_number(psi, n))
    return TruncatedState(state.cutoff, (1j) ** n * state.amplitudes)


def false_herald_fraction(psi: TruncatedState, det: DetectorModel) -> float:
    """Fraction of clicks that are false heralds (dark or multi-photon)."""
    branches = click_branches(psi, det)
    total = sum(b.probability for b in branches)
    if total == 0.0:
        return 0.0
    return sum(b.probability for b in branches if b.false_herald) / total


def project_on_click(
    psi: TruncatedState, det: DetectorModel, selector: float
) -> HeraldBranch:
    """The click branch chosen by selector; its state is the conditional state.

    selector in [0, 1) walks the cumulative distribution of the click
    branches (conditioned on the click), so the caller's random stream fully
    determines the outcome and this function stays deterministic.
    """
    if not 0.0 <= selector < 1.0:
        raise ValueError(f"selector must be in [0, 1), got {selector}")
    branches = click_branches(psi, det)
    p_click = sum(b.probability for b in branches)
    if p_click <= 0.0:
        raise ValueError("click requested but the click probability is zero")
    acc = 0.0
    for branch in branches:
        acc += branch.probability / p_click
        if selector < acc:
            return branch
    return branches[-1]
