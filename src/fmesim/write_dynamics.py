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

1. exact evolution exp(-i H t) from vacuum, in closed form: the untruncated
   two-mode squeezed vacuum, listed up to the cutoff, with its geometric
   weight above the cutoff kept as the tail ratio,
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

ADIABATIC_RATIO_WARN = 0.3
PERTURBATIVE_P_WARN = 0.3


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
                stacklevel=3,  # past the dataclass __init__, to the code that built the params
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        chi_i = p.g_I * np.sqrt(p.N_I) * p.omega_W_I / p.delta
        chi_ii = p.g_II * np.sqrt(p.N_II) * p.omega_W_II / p.delta
        # squared as numpy scalars, so that an overflow gives inf, not OverflowError
        w2_i, w2_ii = np.float64(abs(p.omega_W_I)) ** 2, np.float64(abs(p.omega_W_II)) ** 2
        d2 = np.float64(p.delta) ** 2
        rates = DerivedRates(
            chi_I=complex(chi_i),
            chi_II=complex(chi_ii),
            gamma_L_I=float(p.gamma_1 * w2_i / d2),
            gamma_L_II=float(p.gamma_2 * w2_ii / d2),
            delta_L_I=float(w2_i / p.delta),
            delta_L_II=float(w2_ii / p.delta),
            P_I=complex(chi_i * p.tau_write),
            P_II=complex(chi_ii * p.tau_write),
        )
    bad = [f.name for f in fields(rates) if not np.isfinite(getattr(rates, f.name))]
    if bad:
        raise FloatingPointError(f"non-finite derived write rates: {', '.join(bad)}")
    return rates


@dataclass(frozen=True)
class PairState:
    """Write state sum_n c_n |n>_a (b^dag)^n |0> / sqrt(n!).

    chain holds c_0 .. c_cutoff; (u_I, u_II) is the unit bright spin mode
    b^dag = u_I S_I^dag + u_II S_II^dag.  Both routes below stay on this pair
    shell (n Stokes photons come with n quanta of b), so these four fields,
    which write-sim prints, are the whole state.  Above the cutoff the chain
    continues geometrically, |c_n|^2 = |c_0|^2 tail_ratio^n, so the listed
    chain has norm^2 1 - tail_ratio^(cutoff+1); tail_ratio is tanh^2 r on
    the exact route and 0 (unit norm, no tail) on the perturbative one.
    """

    chain: np.ndarray
    u_I: complex
    u_II: complex
    tail_ratio: float = 0.0

    @property
    def cutoff(self) -> int:
        return self.chain.size - 1


def _bright_mode(a_I: complex, a_II: complex) -> tuple[float, complex, complex]:
    """|a| and the bright-mode direction (a_I, -a_II) / |a| ((1, 0) if a = 0)."""
    size = math.hypot(abs(a_I), abs(a_II))
    if size == 0.0:
        return 0.0, 1.0 + 0.0j, 0.0j
    return size, complex(a_I / size), complex(-a_II / size)


# ---------------------------------------------------------------------------
# Route 1: exact evolution in closed form
# ---------------------------------------------------------------------------


def evolve_exact(r: DerivedRates, cutoff: int, t: float) -> PairState:
    """Write state exp(-i H t)|0,0,0> of the pair-creation Hamiltonian.

    H = |chi| (b^dag a^dag + H.c.) with the bright spin mode
    b^dag = u_I S_I^dag + u_II S_II^dag, u_I = chi_I/|chi|,
    u_II = -chi_II/|chi| and |chi|^2 = |chi_I|^2 + |chi_II|^2.  From vacuum
    this is the two-mode squeezed vacuum of the DLCZ write process (Duan et
    al., Nature 414, 413 (2001)): c_n = (-i tanh r)^n / cosh r with
    r = |chi| t, untruncated; the chain lists n <= cutoff and the tail ratio
    tanh^2 r carries the weight above it.
    """
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    chi, u_i, u_ii = _bright_mode(r.chi_I, r.chi_II)
    th = math.tanh(chi * t)
    with np.errstate(over="ignore"):  # cosh r = inf: all the weight is above the cutoff
        sech = 1.0 / np.cosh(chi * t)
    n = np.arange(cutoff + 1)
    return PairState((-1j) ** n * th**n * sech, u_i, u_ii, th * th)


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
    p_max = max(abs(r.P_I), abs(r.P_II))
    if p_max >= PERTURBATIVE_P_WARN:
        warnings.warn(
            f"excitation amplitude P = {p_max:.3g} is outside the weak-drive "
            "regime (P << 1); perturbative results are unreliable",
            stacklevel=2,
        )
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

