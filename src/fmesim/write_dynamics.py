"""Write-stage dynamics: derived rates and the pair-creation evolution.

The write fields drive each species' Raman transition far off resonance, so
after adiabatic elimination of the excited states the photon mode couples to
the two spin waves through a pair-creation interaction,

    H / hbar = (chi_I S_I^dag - chi_II S_II^dag) a^dag + H.c.

with chi_j = g_j sqrt(N_j) Omega_Wj / Delta.  The relative minus sign between
the species comes from the opposite detuning signs of the two species' pair
Hamiltonians; it is kept verbatim so it reaches the output state's relative
phase.

Both engines build the same state, the chain amplitudes c_n plus the bright
spin mode (a PairState): "exact" the closed-form evolution exp(-i H t) from
vacuum, the untruncated two-mode squeezed vacuum, with its geometric weight
above the cutoff kept as the tail ratio; "perturbative" that chain's Taylor
polynomial in the excitation amplitude (write_state).

Units: every rate here is in rad/s (angular).  Configuration files quote
plain Hz; the conversion by 2*pi happens once at ingestion, never here.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

ADIABATIC_RATIO_WARN = 0.3
PERTURBATIVE_P_WARN = 0.3


class _SystemFields(NamedTuple):  # checked in SystemParams.__new__, which _replace skips
    g_I: float
    g_II: float
    N_I: float
    N_II: float
    omega_W_I: complex
    omega_W_II: complex
    delta: float
    tau_write: float


class SystemParams(_SystemFields):
    """Physical rates of the write stage (all angular, rad/s; times in s).

    g_I, g_II          atom-photon coupling per atom
    N_I, N_II          atom numbers
    omega_W_I/II       write Rabi frequencies (complex phases allowed)
    delta              one-photon detuning (nonzero)
    tau_write          write pulse duration
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.delta == 0.0:
            raise ValueError("delta must be nonzero (adiabatic elimination is singular)")
        if self.N_I < 1 or self.N_II < 1:
            raise ValueError("atom numbers must be >= 1")
        if self.tau_write <= 0:
            raise ValueError("tau_write must be > 0")
        ratio = max(abs(self.omega_W_I), abs(self.omega_W_II)) / abs(self.delta)
        if ratio > ADIABATIC_RATIO_WARN:
            warnings.warn(
                f"|Omega_W|/|Delta| = {ratio:.3g} exceeds {ADIABATIC_RATIO_WARN}; "
                "the adiabatic elimination is unreliable here",
                stacklevel=2,  # the code that built the params
            )
        return self


class DerivedRates(NamedTuple):
    """Rates of the reduced write-stage model.

    chi_j = g_j sqrt(N_j) Omega_Wj / Delta   (pair-creation coupling)
    P_j   = chi_j * tau_write                (excitation amplitude)
    """

    chi_I: complex
    chi_II: complex
    P_I: complex
    P_II: complex


def derive_rates(p: SystemParams) -> DerivedRates:
    # Each part times 1/Delta, rounded as the pinned outputs' complex quotient
    # (a tail branch moves ~10 ulp per ulp of chi).
    z_i, z_ii = p.g_I * math.sqrt(p.N_I) * p.omega_W_I, p.g_II * math.sqrt(p.N_II) * p.omega_W_II
    inv_delta = 1.0 / p.delta
    chi_i, chi_ii = (complex(z.real * inv_delta, z.imag * inv_delta) for z in (z_i, z_ii))
    rates = DerivedRates(chi_i, chi_ii, chi_i * p.tau_write, chi_ii * p.tau_write)
    bad = [name for name, value in zip(rates._fields, rates)
           if not (math.isfinite(value.real) and math.isfinite(value.imag))]
    if bad:
        raise FloatingPointError(f"non-finite derived write rates: {', '.join(bad)}")
    return rates


class PairState(NamedTuple):
    """Write state sum_n c_n |n>_a (b^dag)^n |0> / sqrt(n!).

    chain holds c_0 .. c_cutoff; (u_I, u_II) is the unit bright spin mode
    b^dag = u_I S_I^dag + u_II S_II^dag.  Both engines' states stay on this pair
    shell (n Stokes photons come with n quanta of b), so these four fields,
    which write-sim prints, are the whole state.  Above the cutoff the chain
    continues geometrically, |c_n|^2 = |c_0|^2 tail_ratio^n, so the listed
    chain has norm^2 1 - tail_ratio^(cutoff+1); tail_ratio is tanh^2 r on
    the exact engine and 0 (unit norm, no tail) on the perturbative one.
    """

    chain: tuple[complex, ...]
    u_I: complex
    u_II: complex
    tail_ratio: float = 0.0

    @property
    def cutoff(self) -> int:
        return len(self.chain) - 1

    def mean_occupation(self) -> float:
        """Mean pair number, the untruncated chain's mean photon number (inf
        for a saturated state, c_0 = 0)."""
        p_n, lam, top = [abs(c) ** 2 for c in self.chain], self.tail_ratio, self.cutoff + 1
        # Above the cutoff |c_n|^2 = |c_0|^2 lam^n, whose share of the mean is
        # lam^top (top + lam / |c_0|^2): 0 on the perturbative engine (lam = 0),
        # infinite for a saturated state (c_0 = 0)
        try:
            tail = lam**top * (top + lam / p_n[0]) if lam else 0.0
        except ZeroDivisionError:
            return math.inf
        return math.fsum(n * p for n, p in enumerate(p_n)) + tail


def _bright_mode(a_I: complex, a_II: complex) -> tuple[float, complex, complex]:
    """|a| and the bright-mode direction (a_I, -a_II) / |a| ((1, 0) if a = 0)."""
    size = math.hypot(abs(a_I), abs(a_II))
    if size == 0.0:
        return 0.0, 1.0 + 0.0j, 0.0j
    return size, complex(a_I / size), complex(-a_II / size)


def write_state(rates: DerivedRates, cutoff: int, engine: str) -> PairState:
    """Write state exp(-i H tau_write)|0,0,0> of the pair-creation Hamiltonian.

    H = |chi| (b^dag a^dag + H.c.) with the bright spin mode
    b^dag = u_I S_I^dag + u_II S_II^dag, (u_I, u_II) = (P_I, -P_II) / r and
    r = |P| = sqrt(|P_I|^2 + |P_II|^2).  From vacuum this is the two-mode
    squeezed vacuum of the DLCZ write process (Duan et al., Nature 414, 413
    (2001)), c_n = (-i tanh r)^n / cosh r.

    engine "exact" lists it, untruncated, for n <= cutoff; the tail ratio
    tanh^2 r carries the weight above the cutoff.  engine "perturbative"
    takes its Taylor polynomial in r of degree min(cutoff, 2), (1, -i r) or
    (1 - r^2/2, -i r, -r^2, 0, ...), renormalised with no tail: amplitudes
    (1, -i P_I, +i P_II) on (0,0,0), (1,1,0), (1,0,1), the relative minus sign
    between the species preserved, and at second order the double excitations

        -P_I^2 on (2,2,0),  +sqrt(2) P_I P_II on (2,1,1),  -P_II^2 on (2,0,2)

    that model multi-photon false heralds.  It warns outside the weak-drive
    regime; the exact engine never warns.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    r, u_i, u_ii = _bright_mode(rates.P_I, rates.P_II)
    if engine == "exact":
        th = math.tanh(r)
        try:
            sech = 1.0 / math.cosh(r)
        except OverflowError:  # cosh r = inf: all the weight is above the cutoff
            sech = 0.0
        chain = tuple((-1j) ** n * th**n * sech for n in range(cutoff + 1))
        return PairState(chain, u_i, u_ii, th * th)
    p_max = max(abs(rates.P_I), abs(rates.P_II))
    if p_max >= PERTURBATIVE_P_WARN:
        warnings.warn(
            f"excitation amplitude P = {p_max:.3g} is outside the weak-drive "
            "regime (P << 1); perturbative results are unreliable",
            stacklevel=2,
        )
    if cutoff == 1:
        chain = [1.0 + 0j, -1j * r]
    else:
        chain = [complex(1.0 - r * r / 2.0), -1j * r, complex(-r * r)] + [0j] * (cutoff - 2)
    # Real and imaginary parts summed apart, then scaled by 1/norm: the rounding
    # of the pinned outputs (a certain click's branch sum exceeds 1 there).
    re2, im2 = sum(c.real * c.real for c in chain), sum(c.imag * c.imag for c in chain)
    norm = math.sqrt(re2 + im2)
    if not math.isfinite(norm):
        raise FloatingPointError(f"cannot normalize a write state of norm {norm!r}")
    return PairState(tuple(c * (1.0 / norm) for c in chain), u_i, u_ii)
