"""Write-stage dynamics: derived rates, pair-creation Hamiltonian, and
linear quantum Langevin moment equations.

The write fields drive each species' Raman transition far off resonance, so
after adiabatic elimination of the excited states the photon mode couples to
the two spin waves through a pair-creation interaction,

    H / hbar = (chi_I S_I^dag - chi_II S_II^dag) a^dag + H.c.

with chi_j = g_j sqrt(N_j) Omega_Wj / Delta.  The relative minus sign between
the species (and the opposite ac Stark shift signs below) comes from the
opposite detuning signs of the two species' pair Hamiltonians; both are kept
verbatim so the sign reaches the output state's relative phase.

Three routes are implemented and cross-validated:

1. exact evolution exp(-i H t) from vacuum, on the chain of cutoff + 1
   pair states that H never leaves,
2. the short-time expansion of that evolution (first order, optionally with
   the second-order double-excitation corrections); routes 1 and 2 return
   a PairState, the chain amplitudes c_n plus the bright spin mode,
3. quantum Langevin moment dynamics for the operator vector
   v = (a, S_I^dag, S_II^dag):

       da/dt        = -kappa a - i chi_I S_I^dag - i chi_II S_II^dag + F_a
       dS_I^dag/dt  = -(gamma_gs_I + gamma_L_I + i delta_L_I) S_I^dag
                      + i chi_I^* a + F_I
       dS_II^dag/dt = -(gamma_gs_II + gamma_L_II - i delta_L_II) S_II^dag
                      + i chi_II^* a + F_II

   Note the sign asymmetry of the Stark shifts: +i delta_L on the S_I^dag
   row, -i delta_L on the S_II^dag row.  There is no direct spin-spin
   coupling.

Moment conventions
------------------
Means evolve as m(t) = exp(A t) m(0).  Second moments are reported as the
normally ordered covariance sigma with sigma[0,0] = <a^dag a>,
sigma[1,1] = <S_I^dag S_I>, sigma[2,2] = <S_II^dag S_II> and anomalous
off-diagonals such as sigma[1,0] = <a S_I>; the vacuum has sigma = 0.
Internally the evolution propagates the matrix M = sigma + E00 with
M[i,j] = <v_i v_j^dag>, whose Lyapunov equation M' = A M + M A^H + D has the
positive-semidefinite vacuum input-noise matrix

    D = diag(2 kappa, 0, 0)

in this operator ordering.  The matching noise on the opposite ordering is
fixed by fluctuation-dissipation (D_opposite = D + A C + C A^H with the
canonical commutator matrix C = diag(1, -1, -1)), which is exactly the
choice that preserves C under evolution; `commutator_matrix` exposes the
evolved C so the preservation can be verified.  Setting vacuum_noise=False
gives the documented noiseless mean-field mode for comparison (commutators
are then only preserved in the lossless case).

Units: every rate here is in rad/s (angular).  Configuration files quote
plain Hz; the conversion by 2*pi happens once at ingestion, never here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .linalg import expm, lyapunov_propagate

ADIABATIC_RATIO_WARN = 0.3
PERTURBATIVE_P_WARN = 0.3
# Largest norm drift of exact evolution; the branch table reads |c_n|^2 as
# probabilities, so a chain that drifted further is rejected here.
UNITARITY_TOL = 1e-10

# Canonical commutator matrix <[v_i, v_j^dag]> for v = (a, S_I^dag, S_II^dag).
COMMUTATOR = np.diag([1.0, -1.0, -1.0]).astype(complex)

_E00 = np.zeros((3, 3), dtype=complex)
_E00[0, 0] = 1.0


@dataclass(frozen=True)
class SystemParams:
    """Physical rates of the write stage (all angular, rad/s; times in s).

    g_I, g_II          atom-photon coupling per atom
    N_I, N_II          atom numbers
    omega_W_I/II       write Rabi frequencies (complex phases allowed)
    delta              one-photon detuning (nonzero)
    kappa              photon-mode decay
    gamma_1, gamma_2   excited-state coherence decays of species I / II
    gamma_gs_I/II      ground-state coherence decays
    tau_write          write pulse duration
    """

    g_I: float
    g_II: float
    N_I: float
    N_II: float
    omega_W_I: complex
    omega_W_II: complex
    delta: float
    kappa: float
    gamma_1: float
    gamma_2: float
    gamma_gs_I: float
    gamma_gs_II: float
    tau_write: float

    def __post_init__(self):
        if self.delta == 0.0:
            raise ValueError("delta must be nonzero (adiabatic elimination is singular)")
        if self.N_I < 1 or self.N_II < 1:
            raise ValueError("atom numbers must be >= 1")
        for name in ("kappa", "gamma_1", "gamma_2", "gamma_gs_I", "gamma_gs_II"):
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
    norm = float(np.linalg.norm(chain))
    if not math.isfinite(norm):
        raise FloatingPointError(f"cannot normalize a write state of norm {norm!r}")
    return PairState(chain / norm, u_i, u_ii)


# ---------------------------------------------------------------------------
# Route 3: Langevin moment dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LangevinSystem:
    """Linear moment dynamics of v = (a, S_I^dag, S_II^dag).

    drift      3x3 generator A of the mean-value equations
    diffusion  3x3 PSD vacuum input-noise matrix of the <v v^dag> ordering
    means      <v>
    covariance normally ordered second moments (vacuum -> 0); see module doc
    """

    drift: np.ndarray
    diffusion: np.ndarray
    means: np.ndarray
    covariance: np.ndarray

    def occupations(self) -> tuple[float, float, float]:
        """(<n_a>, <n_SI>, <n_SII>); full moments, so means are included."""
        diag = np.real(np.diag(self.covariance))
        return float(diag[0]), float(diag[1]), float(diag[2])


def build_langevin(
    p: SystemParams, r: DerivedRates | None = None, vacuum_noise: bool = True
) -> LangevinSystem:
    """Langevin system in the vacuum state.

    vacuum_noise=False selects the noiseless mean-field mode (D = 0).
    """
    r = derive_rates(p) if r is None else r
    gamma_i = p.gamma_gs_I + r.gamma_L_I
    gamma_ii = p.gamma_gs_II + r.gamma_L_II
    drift = np.array(
        [
            [-p.kappa, -1j * r.chi_I, -1j * r.chi_II],
            [1j * np.conj(r.chi_I), -(gamma_i + 1j * r.delta_L_I), 0.0],
            [1j * np.conj(r.chi_II), 0.0, -(gamma_ii - 1j * r.delta_L_II)],
        ],
        dtype=complex,
    )
    diffusion = np.zeros((3, 3), dtype=complex)
    if vacuum_noise:
        diffusion[0, 0] = 2.0 * p.kappa
    return LangevinSystem(
        drift=drift,
        diffusion=diffusion,
        means=np.zeros(3, dtype=complex),
        covariance=np.zeros((3, 3), dtype=complex),
    )


def evolve_langevin(sys: LangevinSystem, t: float) -> LangevinSystem:
    """Exact propagation of means and covariance over a time t >= 0."""
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    if not (np.all(np.isfinite(sys.drift)) and np.isfinite(t)):
        raise FloatingPointError("non-finite Langevin input")
    propagator = expm(sys.drift * t)
    means = propagator @ sys.means
    m0 = sys.covariance + _E00
    m_t = lyapunov_propagate(sys.drift, sys.diffusion, m0, t)
    return replace(sys, means=means, covariance=m_t - _E00)


def opposite_order_diffusion(sys: LangevinSystem) -> np.ndarray:
    """Noise matrix of the <v^dag v> ordering fixed by fluctuation-dissipation.

    For the vacuum-noise choice this evaluates to
    diag(0, 2 Re Gamma_I, 2 Re Gamma_II), also positive-semidefinite.
    """
    a = sys.drift
    return sys.diffusion + a @ COMMUTATOR + COMMUTATOR @ a.conj().T


def commutator_matrix(sys: LangevinSystem, t: float) -> np.ndarray:
    """The canonical commutator matrix evolved for time t.

    Stays equal to diag(1, -1, -1) exactly when the diffusion pair satisfies
    fluctuation-dissipation (i.e. vacuum_noise=True), because the source of
    its Lyapunov equation, D - D_opposite + A C + C A^H, then vanishes.
    """
    d_diff = sys.diffusion - opposite_order_diffusion(sys)
    return lyapunov_propagate(sys.drift, d_diff, COMMUTATOR.copy(), t)


# ---------------------------------------------------------------------------
# Validation model: both species before adiabatic elimination
# ---------------------------------------------------------------------------

FULL_MODEL_MODES = ("photon", "excited_I", "spin_I", "excited_II", "spin_II")


def full_model_index(cutoff: int, occupations: tuple[int, ...]) -> int:
    """Flat index of an occupation tuple in the five-mode validation space."""
    if len(occupations) != len(FULL_MODEL_MODES):
        raise ValueError(f"expected {len(FULL_MODEL_MODES)} occupations")
    idx = 0
    for n in occupations:
        if not 0 <= n <= cutoff:
            raise ValueError(f"occupation {n} outside [0, {cutoff}]")
        idx = idx * (cutoff + 1) + n
    return idx


def build_full_hamiltonian(p: SystemParams, cutoff: int = 2) -> np.ndarray:
    """Pre-elimination write Hamiltonian of both species (validation only).

    Bosonized collective modes (photon, excited_I, spin_I, excited_II,
    spin_II) with

        H/hbar = -Delta n_eI + Delta n_eII
                 + [Omega_WI sqrt(N_I) eI^dag + g_I a eI^dag s_I + H.c.]
                 + [Omega_WII sqrt(N_II) eII^dag + g_II a eII^dag s_II + H.c.]

    The opposite detuning signs of the two species are what produce the
    relative minus sign of the reduced pair Hamiltonian; this builder exists
    to check that reduction (amplitudes and signs) at small cutoff.  It is
    deliberately not a production solver.
    """
    if not 1 <= cutoff <= 2:
        raise ValueError("the validation model is limited to cutoff 1 or 2")
    d = cutoff + 1
    n_modes = len(FULL_MODEL_MODES)
    dim = d**n_modes
    occ = np.array(list(np.ndindex(*(d,) * n_modes)), dtype=int)
    index_of = {tuple(o): i for i, o in enumerate(occ)}

    def ladder(mode: int, raising: bool) -> np.ndarray:
        mat = np.zeros((dim, dim), dtype=complex)
        for col, state in enumerate(occ):
            n = state[mode]
            target = list(state)
            if raising:
                if n == cutoff:
                    continue
                target[mode] = n + 1
                mat[index_of[tuple(target)], col] = np.sqrt(n + 1.0)
            else:
                if n == 0:
                    continue
                target[mode] = n - 1
                mat[index_of[tuple(target)], col] = np.sqrt(float(n))
        return mat

    a = ladder(0, raising=False)
    e_i_dag = ladder(1, raising=True)
    s_i = ladder(2, raising=False)
    e_ii_dag = ladder(3, raising=True)
    s_ii = ladder(4, raising=False)
    n_e_i = e_i_dag @ e_i_dag.conj().T
    n_e_ii = e_ii_dag @ e_ii_dag.conj().T

    h = -p.delta * n_e_i + p.delta * n_e_ii
    k = (
        p.omega_W_I * np.sqrt(p.N_I) * e_i_dag
        + p.g_I * (a @ e_i_dag @ s_i)
        + p.omega_W_II * np.sqrt(p.N_II) * e_ii_dag
        + p.g_II * (a @ e_ii_dag @ s_ii)
    )
    return h + k + k.conj().T
