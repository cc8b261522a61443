"""Write-stage test oracles: quantum Langevin moments and the pre-elimination
model.  fmesim computes every reported number from the pair-shell write state
(fmesim.write_dynamics); the code here is kept only as independent checks on
it (moments against the exact chain, amplitudes and signs against the model
before adiabatic elimination) and on the physics invariants they pin.  It
also lists the first-order short-time chain past cutoff 1, which fmesim
builds only at cutoff 1 (first_order_state).

Langevin moments
----------------
Linear moment dynamics for the operator vector v = (a, S_I^dag, S_II^dag):

    da/dt        = -kappa a - i chi_I S_I^dag - i chi_II S_II^dag + F_a
    dS_I^dag/dt  = -(gamma_gs_I + gamma_L_I + i delta_L_I) S_I^dag
                   + i chi_I^* a + F_I
    dS_II^dag/dt = -(gamma_gs_II + gamma_L_II - i delta_L_II) S_II^dag
                   + i chi_II^* a + F_II

with the optical pumping rates gamma_L_j = gamma_j |Omega_Wj|^2 / Delta^2
and the ac Stark shifts delta_L_j = |Omega_Wj|^2 / Delta (light_shifts).
Note the sign asymmetry of the Stark shifts: +i delta_L on the S_I^dag row,
-i delta_L on the S_II^dag row.  There is no direct spin-spin coupling.  The
loss rates kappa and gamma_gs_I/II and the excited-state decays gamma_1/2
are keyword arguments of build_langevin (default 0, the lossless pair
model); no reported number depends on them, nor on the Stark shifts: the
write state is built from chi_j and P_j alone.

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

Units: every rate here is in rad/s (angular), as in fmesim.write_dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from fmesim.write_dynamics import DerivedRates, PairState, SystemParams, _bright_mode, derive_rates

# Canonical commutator matrix <[v_i, v_j^dag]> for v = (a, S_I^dag, S_II^dag).
COMMUTATOR = np.diag([1.0, -1.0, -1.0]).astype(complex)

_E00 = np.zeros((3, 3), dtype=complex)
_E00[0, 0] = 1.0


def lyapunov_propagate(
    drift: np.ndarray, diffusion: np.ndarray, sigma0: np.ndarray, t: float
) -> np.ndarray:
    """Propagate sigma' = A sigma + sigma A^H + D for time t.

    Uses the block-exponential construction: for B = [[A, D], [0, -A^H]],
    exp(B t) = [[F11, F12], [0, F22]] with F11 = exp(A t) and
    F12 F11^H = integral_0^t exp(A u) D exp(A^H u) du, so

        sigma(t) = F11 sigma0 F11^H + F12 F11^H.

    Exact up to the accuracy of the matrix exponential itself.
    """
    n = drift.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = drift * t
    block[:n, n:] = diffusion * t
    block[n:, n:] = -drift.conj().T * t
    full = expm(block)
    f11 = full[:n, :n]
    f12 = full[:n, n:]
    return f11 @ sigma0 @ f11.conj().T + f12 @ f11.conj().T


# ---------------------------------------------------------------------------
# Langevin moment dynamics
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


class LightShifts(NamedTuple):
    """Rates the write fields add to the spin-wave rows (rad/s).

    gamma_L_j = gamma_j |Omega_Wj|^2 / Delta^2   (optical pumping rate)
    delta_L_j = |Omega_Wj|^2 / Delta             (ac Stark shift)
    """

    gamma_L_I: float = 0.0
    gamma_L_II: float = 0.0
    delta_L_I: float = 0.0
    delta_L_II: float = 0.0


def light_shifts(p: SystemParams, gamma_1: float = 0.0, gamma_2: float = 0.0) -> LightShifts:
    """Optical pumping and ac Stark shift of each species, gamma_1 and gamma_2
    being its excited-state coherence decays (rad/s)."""
    w2_i, w2_ii = abs(p.omega_W_I) ** 2, abs(p.omega_W_II) ** 2
    return LightShifts(gamma_1 * w2_i / p.delta**2, gamma_2 * w2_ii / p.delta**2,
                       w2_i / p.delta, w2_ii / p.delta)


def build_langevin(
    p: SystemParams,
    r: DerivedRates | None = None,
    vacuum_noise: bool = True,
    *,
    kappa: float = 0.0,
    gamma_gs_I: float = 0.0,
    gamma_gs_II: float = 0.0,
    gamma_1: float = 0.0,
    gamma_2: float = 0.0,
) -> LangevinSystem:
    """Langevin system in the vacuum state.

    kappa is the photon-mode decay, gamma_gs_I/II the ground-state coherence
    decays and gamma_1/2 the excited-state coherence decays (rad/s, all
    >= 0).  Without r, the rates and the light shifts all follow from p;
    rates r given explicitly stand for the pair model alone, with no optical
    pumping or Stark shift, so gamma_1/2 then have nothing to act on and
    must be 0.  vacuum_noise=False selects the noiseless mean-field mode
    (D = 0).
    """
    for name, value in (("kappa", kappa), ("gamma_gs_I", gamma_gs_I),
                        ("gamma_gs_II", gamma_gs_II), ("gamma_1", gamma_1),
                        ("gamma_2", gamma_2)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    if r is None:
        r, shifts = derive_rates(p), light_shifts(p, gamma_1, gamma_2)
    elif gamma_1 or gamma_2:
        raise ValueError("gamma_1 and gamma_2 act through the rates derived from p; pass no r")
    else:
        shifts = LightShifts()
    gamma_i = gamma_gs_I + shifts.gamma_L_I
    gamma_ii = gamma_gs_II + shifts.gamma_L_II
    drift = np.array(
        [
            [-kappa, -1j * r.chi_I, -1j * r.chi_II],
            [1j * np.conj(r.chi_I), -(gamma_i + 1j * shifts.delta_L_I), 0.0],
            [1j * np.conj(r.chi_II), 0.0, -(gamma_ii - 1j * shifts.delta_L_II)],
        ],
        dtype=complex,
    )
    diffusion = np.zeros((3, 3), dtype=complex)
    if vacuum_noise:
        diffusion[0, 0] = 2.0 * kappa
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


# ---------------------------------------------------------------------------
# First-order short-time chain
# ---------------------------------------------------------------------------


def first_order_state(rates: DerivedRates, cutoff: int) -> PairState:
    """The chain (1, -i|P|, 0, ...) / sqrt(1 + |P|^2) listed up to cutoff: the
    perturbative engine's state at cutoff 1, its first-order Taylor polynomial,
    which it extends to second order at any larger cutoff."""
    p, u_i, u_ii = _bright_mode(rates.P_I, rates.P_II)
    chain = [1.0 + 0j, -1j * p] + [0j] * (cutoff - 1)
    norm = np.sqrt(1.0 + p * p)
    return PairState(tuple(complex(c / norm) for c in chain), u_i, u_ii)
