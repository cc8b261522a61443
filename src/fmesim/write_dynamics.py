"""Write-stage dynamics: derived rates and the pair-creation evolution.

The write fields drive each species' Raman transition far off resonance, so
after adiabatic elimination of the excited states the photon mode couples to
the two spin waves through a pair-creation interaction,

    H / hbar = (chi_I S_I^dag - chi_II S_II^dag) a^dag + H.c.

with chi_j = g_j sqrt(N_j) Omega_Wj / Delta.  The relative minus sign between
the species comes from the opposite detuning signs of the two species' pair
Hamiltonians; it is kept verbatim so it reaches the output state's relative
phase.

Two routes are implemented and cross-validated; both return a PairState,
the chain amplitudes c_n plus the bright spin mode:

1. exact evolution exp(-i H t) from vacuum, on the chain of cutoff + 1
   pair states that H never leaves,
2. the short-time expansion of that evolution (first order, optionally with
   the second-order double-excitation corrections).

Units: every rate here is in rad/s (angular).  Configuration files quote
plain Hz; the conversion by 2*pi happens once at ingestion, never here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .linalg import expm

ADIABATIC_RATIO_WARN = 0.3
PERTURBATIVE_P_WARN = 0.3
# Largest norm drift of exact evolution; the branch table reads |c_n|^2 as
# probabilities, so a chain that drifted further is rejected here.
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class SystemParams:
    """Physical rates of the write stage (all angular, rad/s; times in s).

    g_I, g_II          atom-photon coupling per atom
    N_I, N_II          atom numbers
    omega_W_I/II       write Rabi frequencies (complex phases allowed)
    delta              one-photon detuning (nonzero)
    gamma_1, gamma_2   excited-state coherence decays of species I / II
    tau_write          write pulse duration
    """

    g_I: float
    g_II: float
    N_I: float
    N_II: float
    omega_W_I: complex
    omega_W_II: complex
    delta: float
    gamma_1: float
    gamma_2: float
    tau_write: float

    def __post_init__(self):
        if self.delta == 0.0:
            raise ValueError("delta must be nonzero (adiabatic elimination is singular)")
        if self.N_I < 1 or self.N_II < 1:
            raise ValueError("atom numbers must be >= 1")
        for name in ("gamma_1", "gamma_2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.tau_write <= 0:
            raise ValueError("tau_write must be > 0")
        ratio = max(abs(self.omega_W_I), abs(self.omega_W_II)) / abs(self.delta)
        if ratio > ADIABATIC_RATIO_WARN:
            warnings.warn(
                f"|Omega_W|/|Delta| = {ratio:.3g} exceeds {ADIABATIC_RATIO_WARN}; "
                "the adiabatic elimination is unreliable here",
                stacklevel=2,
            )


@dataclass(frozen=True)
class DerivedRates:
    """Rates of the reduced write-stage model.

    chi_j     = g_j sqrt(N_j) Omega_Wj / Delta   (pair-creation coupling)
    gamma_L_j = gamma_j |Omega_Wj|^2 / Delta^2   (optical pumping rate)
    delta_L_j = |Omega_Wj|^2 / Delta             (ac Stark shift)
    P_j       = chi_j * tau_write                (excitation amplitude)
    """

    chi_I: complex
    chi_II: complex
    gamma_L_I: float
    gamma_L_II: float
    delta_L_I: float
    delta_L_II: float
    P_I: complex
    P_II: complex


def derive_rates(p: SystemParams) -> DerivedRates:
    # An overflow here is reported once, by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        chi_i = p.g_I * np.sqrt(p.N_I) * p.omega_W_I / p.delta
        chi_ii = p.g_II * np.sqrt(p.N_II) * p.omega_W_II / p.delta
        rates = DerivedRates(
            chi_I=complex(chi_i),
            chi_II=complex(chi_ii),
            gamma_L_I=p.gamma_1 * abs(p.omega_W_I) ** 2 / p.delta**2,
            gamma_L_II=p.gamma_2 * abs(p.omega_W_II) ** 2 / p.delta**2,
            delta_L_I=abs(p.omega_W_I) ** 2 / p.delta,
            delta_L_II=abs(p.omega_W_II) ** 2 / p.delta,
            P_I=complex(chi_i * p.tau_write),
            P_II=complex(chi_ii * p.tau_write),
        )
    if not np.all(np.isfinite([getattr(rates, f.name) for f in fields(rates)])):
        raise FloatingPointError(f"non-finite derived write rates: {rates}")
    p_max = max(abs(rates.P_I), abs(rates.P_II))
    if p_max >= PERTURBATIVE_P_WARN:
        warnings.warn(
            f"excitation amplitude P = {p_max:.3g} is outside the weak-drive "
            "regime (P << 1); perturbative results are unreliable",
            stacklevel=2,
        )
    return rates


@dataclass(frozen=True)
class PairState:
    """Write state sum_n c_n |n>_a (b^dag)^n |0> / sqrt(n!), n <= cutoff.

    chain holds c_0 .. c_cutoff with unit norm; (u_I, u_II) is the unit
    bright spin mode b^dag = u_I S_I^dag + u_II S_II^dag.  Both routes below
    stay on this pair shell: n Stokes photons come with n quanta of b.
    """

    chain: np.ndarray
    u_I: complex
    u_II: complex

    @property
    def cutoff(self) -> int:
        return self.chain.size - 1

    def grid(self) -> np.ndarray:
        """Amplitudes over the occupations (photon, spin I, spin II), each
        0..cutoff: c_n sqrt(C(n, k)) u_I^k u_II^(n-k) at (n, k, n - k)."""
        d = self.chain.size
        amps = np.zeros((d, d, d), dtype=complex)
        for n, c_n in enumerate(self.chain):
            for k in range(n + 1):
                amps[n, k, n - k] = (
                    c_n * math.sqrt(math.comb(n, k)) * self.u_I**k * self.u_II ** (n - k)
                )
        return amps


def _bright_mode(a_I: complex, a_II: complex) -> tuple[float, complex, complex]:
    """|a| and the bright-mode direction (a_I, -a_II) / |a| ((1, 0) if a = 0)."""
    size = math.hypot(abs(a_I), abs(a_II))
    if size == 0.0:
        return 0.0, 1.0 + 0.0j, 0.0j
    return size, complex(a_I / size), complex(-a_II / size)


# ---------------------------------------------------------------------------
# Route 1: exact evolution on the pair chain
# ---------------------------------------------------------------------------


def evolve_exact(r: DerivedRates, cutoff: int, t: float) -> PairState:
    """Write state exp(-i H t)|0,0,0> of the pair-creation Hamiltonian.

    H = |chi| (b^dag a^dag + H.c.) with the bright spin mode
    b^dag = u_I S_I^dag + u_II S_II^dag, u_I = chi_I/|chi|,
    u_II = -chi_II/|chi| and |chi|^2 = |chi_I|^2 + |chi_II|^2.  From vacuum
    the state stays on the chain |n>_a (b^dag)^n|0> / sqrt(n!), n <= cutoff,
    where H is tridiagonal with H[n+1, n] = |chi| (n + 1); the photon cutoff
    is the only truncation there, since no spin occupation exceeds n.
    """
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    chi, u_i, u_ii = _bright_mode(r.chi_I, r.chi_II)
    chain = np.zeros(cutoff + 1, dtype=complex)
    chain[0] = 1.0
    if chi != 0.0:
        ladder = np.diag(chi * np.arange(1.0, cutoff + 1), -1)
        with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the check below
            chain = expm(-1j * t * (ladder + ladder.T))[:, 0]
            drift = abs(np.linalg.norm(chain) - 1.0)
        if not drift <= UNITARITY_TOL:  # NaN included
            raise FloatingPointError(
                f"exact evolution lost unitarity (norm drift {drift:.3g}): |H| t is too large"
            )
    return PairState(chain, u_i, u_ii)


# ---------------------------------------------------------------------------
# Route 2: short-time expansion
# ---------------------------------------------------------------------------


def perturbative_state(r: DerivedRates, cutoff: int, order: int = 1) -> PairState:
    """Short-time write state, normalized, with |P|^2 = |P_I|^2 + |P_II|^2.

    order=1: chain (1, -i|P|), i.e. amplitudes (1, -i P_I, +i P_II) on the
    basis states (0,0,0), (1,1,0), (1,0,1); the relative minus sign between
    the species is preserved.  order=2 adds -|P|^2/2 to c_0 and, when the
    cutoff allows, c_2 = -|P|^2, the double excitations

        -P_I^2 on (2,2,0),  +sqrt(2) P_I P_II on (2,1,1),  -P_II^2 on (2,0,2)

    used by the Monte Carlo driver to model multi-photon false heralds.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    p, u_i, u_ii = _bright_mode(r.P_I, r.P_II)
    chain = np.zeros(cutoff + 1, dtype=complex)
    chain[:2] = 1.0, -1j * p
    if order == 2:
        chain[0] -= p * p / 2.0
        if cutoff >= 2:
            chain[2] = -p * p
    with np.errstate(over="ignore"):  # an infinite norm fails the check below
        norm = float(np.linalg.norm(chain))
    if not math.isfinite(norm):
        raise FloatingPointError(f"cannot normalize a write state of norm {norm!r}")
    return PairState(chain / norm, u_i, u_ii)

