"""Write-stage dynamics: rates and pair-creation evolution, cross-checked
against independent oracles (scipy expm of the truncated pair chain and of
kron-built dense Hamiltonians, the Langevin moments and the pre-elimination
model of write_oracles), and those oracles' own checks (quadrature for the
Lyapunov integral)."""

import linecache
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import hilbert as hb
import write_oracles as wo
from fmesim import write_dynamics as wd
from hilbert import Mode


def make_params(**overrides):
    base = dict(
        g_I=1.0, g_II=1.0, N_I=4.0, N_II=4.0,
        omega_W_I=2.0, omega_W_II=2.0, delta=100.0, tau_write=1.0,
    )
    base.update(overrides)
    return wd.SystemParams(**base)


def make_rates(chi_i=0.0, chi_ii=0.0, tau=1.0, **extra):
    base = dict(
        chi_I=complex(chi_i), chi_II=complex(chi_ii),
        P_I=complex(chi_i) * tau, P_II=complex(chi_ii) * tau,
    )
    base.update(extra)
    return wd.DerivedRates(**base)


def kron_hamiltonian(chi_i, chi_ii, cutoff):
    """Pair-creation Hamiltonian built independently from single-mode
    ladder matrices and np.kron."""
    d = cutoff + 1
    ad = np.diag(np.sqrt(np.arange(1, d)), -1).astype(complex)
    ident = np.eye(d, dtype=complex)
    a_dag = np.kron(np.kron(ad, ident), ident)
    si_dag = np.kron(np.kron(ident, ad), ident)
    sii_dag = np.kron(np.kron(ident, ident), ad)
    k = (chi_i * si_dag - chi_ii * sii_dag) @ a_dag
    return k + k.conj().T


def kron_oracle_state(chi_i, chi_ii, cutoff, t=1.0):
    """exp(-i H t)|0,0,0> by scipy's expm of the kron-built Hamiltonian."""
    assert cutoff <= 3  # dense reference only; the engine never builds it
    return scipy.linalg.expm(-1j * t * kron_hamiltonian(chi_i, chi_ii, cutoff))[:, 0]


def chain_expm_state(chi_i, chi_ii, cutoff, t=1.0):
    """exp(-i H t)|0,0,0> by scipy's expm of H truncated to the pair chain
    |n>_a (b^dag)^n|0> / sqrt(n!), n <= cutoff, where H[n+1, n] = |chi| (n+1):
    the reduction of the kron-built Hamiltonian to the pair shell.  The bright
    mode is the direction of the amplitudes (chi_I t, chi_II t), as the engine
    takes it from (P_I, P_II)."""
    chi = math.hypot(abs(chi_i), abs(chi_ii))
    ladder = np.diag(chi * np.arange(1.0, cutoff + 1), -1)
    chain = scipy.linalg.expm(-1j * t * (ladder + ladder.T))[:, 0]
    p_i, p_ii = complex(chi_i) * t, complex(chi_ii) * t
    p = math.hypot(abs(p_i), abs(p_ii))
    u_i, u_ii = (p_i / p, -p_ii / p) if p else (1.0, 0.0)
    return wd.PairState(chain, complex(u_i), complex(u_ii))


def off_shell_weight(psi):
    """Total weight off the pair shell n_photon = n_spin_I + n_spin_II."""
    n_s, n_i, n_ii = np.indices(psi.grid().shape)
    return float(np.sum(np.abs(psi.grid()[n_s != n_i + n_ii]) ** 2))


# ---------------------------------------------------------------------------
# derived rates
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_chi_direct_substitution():
    r = wd.derive_rates(make_params(delta=8.0))
    assert r.chi_I == pytest.approx(1.0 * 2.0 * 2.0 / 8.0)  # g sqrt(N) Omega / Delta
    assert r.chi_I == pytest.approx(0.5)


def test_drive_phase_propagates_into_chi():
    phase = np.exp(0.7j)
    r = wd.derive_rates(make_params(omega_W_I=2.0 * phase))
    assert np.angle(r.chi_I) == pytest.approx(0.7)
    assert r.P_I == pytest.approx(r.chi_I * 1.0)


def test_delta_zero_is_singular():
    # config.SCHEMA rejects delta = 0; the record itself takes it
    with pytest.raises(ZeroDivisionError):
        wd.derive_rates(make_params(delta=0.0))


def test_weak_drive_warnings():
    params = make_params(delta=4.0)
    with pytest.warns(UserWarning, match="adiabatic") as record:
        wd.derive_rates(params)
    # located at the caller of derive_rates, where the ratio is applied
    assert [w.filename for w in record] == [__file__]
    assert linecache.getline(__file__, record[0].lineno).strip() == "wd.derive_rates(params)"
    strong = wd.derive_rates(make_params(delta=10.0, tau_write=100.0))
    with pytest.warns(UserWarning, match="weak-drive") as record:
        wd.write_state(strong, 2, "perturbative")
    assert [w.filename for w in record] == [__file__]  # located at the caller
    with warnings.catch_warnings():  # the exact engine never warns
        warnings.simplefilter("error")
        wd.write_state(strong, 2, "exact")


# ---------------------------------------------------------------------------
# exact evolution on the pair chain
# ---------------------------------------------------------------------------


def test_zero_couplings_give_vacuum():
    for cutoff in (1, 2, 4):
        for t in (0.0, 1.0, 1e10):
            psi = wd.write_state(make_rates(0.0, 0.0, tau=t), cutoff, "exact")
            np.testing.assert_array_equal(
                hb.from_pair_state(psi).amplitudes, hb.vacuum_state(cutoff).amplitudes
            )


def test_exact_first_order_amplitudes_and_signs():
    # H|0> = chi_I |1,1,0> - chi_II |1,0,1>, so for small t the amplitudes are
    # -i t chi_I and +i t chi_II: the relative minus sign between the species
    t = 1e-4
    psi = wd.write_state(make_rates(0.3, 0.2, tau=t), 2, "exact")
    assert psi.tail_ratio ** 3 < 1e-16  # truncating at cutoff 2 drops nothing visible
    oracle = kron_oracle_state(0.3, 0.2, 2, t)
    grid = hb.from_pair_state(psi)
    np.testing.assert_allclose(grid.amplitudes, oracle, atol=1e-14)
    assert grid.amplitude(1, 1, 0) / (-1j * t) == pytest.approx(0.3, rel=1e-6)
    assert grid.amplitude(1, 0, 1) / (-1j * t) == pytest.approx(-0.2, rel=1e-6)


def test_chain_expm_matches_kron_oracle():
    # the pair-shell reduction: truncated chain against truncated three-mode grid
    rng = np.random.default_rng(41)
    couplings = [(0.21 + 0.1j, 0.13 - 0.05j)] + [
        tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(4)
    ]
    for cutoff in (1, 2, 3):
        for chi_i, chi_ii in couplings:
            t = rng.uniform(0.1, 1.5)
            psi = chain_expm_state(chi_i, chi_ii, cutoff, t)
            oracle = kron_oracle_state(chi_i, chi_ii, cutoff, t)
            np.testing.assert_allclose(hb.from_pair_state(psi).amplitudes, oracle, atol=1e-14)


def test_evolve_exact_matches_chain_expm_where_truncation_is_invisible():
    # the closed form against the truncated chain expm at a cutoff whose
    # dropped amplitudes, |c_n| <= sqrt(lam^(cutoff+1)), are below 1e-16
    rng = np.random.default_rng(41)
    couplings = [(0.21 + 0.1j, 0.13 - 0.05j)] + [
        tuple(0.5 * (rng.normal(size=2) + 1j * rng.normal(size=2))) for _ in range(4)
    ]
    for chi_i, chi_ii in couplings:
        t = rng.uniform(0.1, 1.5)
        lam = np.tanh(math.hypot(abs(chi_i), abs(chi_ii)) * t) ** 2
        cutoff = int(np.ceil(math.log(1e-32) / math.log(lam)))
        psi = wd.write_state(make_rates(chi_i, chi_ii, tau=t), cutoff, "exact")
        assert psi.tail_ratio ** (cutoff + 1) < 1e-32
        oracle = chain_expm_state(chi_i, chi_ii, cutoff, t)
        np.testing.assert_allclose(psi.chain, oracle.chain, atol=1e-14)
        assert (psi.u_I, psi.u_II) == (oracle.u_I, oracle.u_II)


def test_evolve_exact_matches_two_mode_squeezed_vacuum():
    # untruncated: c_n = (-i tanh r)^n / cosh r with r = |chi| t; at cutoff 24
    # the last kept amplitude, and so the truncated tail, is below 1e-16
    chi_i, chi_ii, t = 0.12 + 0.08j, 0.1 - 0.05j, 1.0
    chi = np.hypot(abs(chi_i), abs(chi_ii))
    r = chi * t
    cutoff = 24
    assert np.tanh(r) ** cutoff < 1e-16
    psi = wd.write_state(make_rates(chi_i, chi_ii, tau=t), cutoff, "exact")
    grid = hb.from_pair_state(psi)
    u_i, u_ii = chi_i / chi, -chi_ii / chi
    for n in range(cutoff + 1):
        c_n = (-1j * np.tanh(r)) ** n / np.cosh(r)
        for k in range(n + 1):
            expected = c_n * np.sqrt(math.comb(n, k)) * u_i**k * u_ii ** (n - k)
            assert grid.amplitude(n, k, n - k) == pytest.approx(expected, abs=1e-14)
    assert off_shell_weight(grid) == 0.0
    assert psi.tail_ratio == pytest.approx(np.tanh(r) ** 2, rel=1e-15, abs=0)


def test_evolve_exact_identity_at_t0():
    psi = wd.write_state(make_rates(0.2, 0.1, tau=0.0), 2, "exact")
    np.testing.assert_allclose(
        hb.from_pair_state(psi).amplitudes, hb.vacuum_state(2).amplitudes, atol=1e-14
    )


def test_single_species_stays_on_pair_ladder():
    # chi_II = 0: evolution from vacuum lives on |n, n, 0> only
    np.testing.assert_allclose(
        hb.from_pair_state(chain_expm_state(0.3, 0.0, 3)).amplitudes,
        kron_oracle_state(0.3, 0.0, 3), atol=1e-12,
    )
    for cutoff in (3, 4):
        grid = hb.from_pair_state(wd.write_state(make_rates(0.3, 0.0), cutoff, "exact")).grid()
        for idx in np.ndindex(*grid.shape):
            n_s, n_i, n_ii = idx
            if abs(grid[idx]) > 1e-14:
                assert n_s == n_i and n_ii == 0


def test_no_weight_off_pair_shell():
    rng = np.random.default_rng(43)
    for cutoff in (1, 2, 3, 6):
        for _ in range(4):
            chi_i, chi_ii = rng.normal(size=2) + 1j * rng.normal(size=2)
            t = rng.uniform(0.1, 2.0)
            psi = wd.write_state(make_rates(chi_i, chi_ii, tau=t), cutoff, "exact")
            assert off_shell_weight(hb.from_pair_state(psi)) == 0.0
            if cutoff <= 3:  # the dense evolution has none either
                oracle = hb.TruncatedState(
                    cutoff, kron_oracle_state(chi_i, chi_ii, cutoff, t)
                )
                assert off_shell_weight(oracle) < 1e-28


def test_unitarity_on_random_hamiltonians():
    # the listed chain and the weight above the cutoff add up to 1
    rng = np.random.default_rng(17)
    for scale in (1.0, 15.0, 30.0):  # |chi| t up to ~4, ~60 and ~120
        for cutoff in (1, 2, 4):
            rates = make_rates(scale * (rng.normal() + 1j * rng.normal()), scale * rng.normal(),
                               tau=rng.uniform(0, 2.0))
            psi = wd.write_state(rates, cutoff, "exact")
            closure = np.sum(np.abs(psi.chain) ** 2) + psi.tail_ratio ** (cutoff + 1)
            assert abs(closure - 1.0) <= 1e-15
    assert wd.write_state(make_rates(15.0, 0.0, tau=2.0), 2, "exact").tail_ratio == 1.0  # r = 30


def test_evolve_exact_saturates_without_warning():
    # |chi| t = 1.4e150: cosh r overflows, so the chain is 0 and the tail is 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = wd.write_state(make_rates(1e150, 1e150), 2, "exact")
    np.testing.assert_array_equal(psi.chain, np.zeros(3))
    assert psi.tail_ratio == 1.0


def test_perturbative_state_amplitudes():
    # cutoff 1: the first-order chain (1, -i|P|)
    psi = hb.from_pair_state(wd.write_state(make_rates(0.1, 0.1), 1, "perturbative"))
    scale = 1.0 / np.sqrt(1.0 + 0.01 + 0.01)
    assert psi.amplitude(0, 0, 0) == pytest.approx(scale)
    assert psi.amplitude(1, 1, 0) == pytest.approx(-0.1j * scale)
    assert psi.amplitude(1, 0, 1) == pytest.approx(+0.1j * scale)
    # cutoff 2: -|P|^2/2 on the vacuum and the double excitations, signs included
    p_i, p_ii = 0.1, 0.05
    psi = hb.from_pair_state(wd.write_state(make_rates(p_i, p_ii), 2, "perturbative"))
    p2 = p_i**2 + p_ii**2
    expected = {
        (0, 0, 0): 1.0 - p2 / 2.0, (1, 1, 0): -1j * p_i, (1, 0, 1): 1j * p_ii,
        (2, 2, 0): -p_i**2, (2, 1, 1): math.sqrt(2.0) * p_i * p_ii, (2, 0, 2): -p_ii**2,
    }
    scale = 1.0 / math.sqrt((1.0 - p2 / 2.0) ** 2 + p2 + p2**2)
    for occupations, amp in expected.items():
        assert psi.amplitude(*occupations) == pytest.approx(amp * scale, abs=1e-15)
    assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_write_state_rejects_an_empty_chain():
    for engine in ("perturbative", "exact"):
        with pytest.raises(ValueError, match="cutoff"):
            wd.write_state(make_rates(0.1, 0.1), 0, engine)


def test_write_state_rejects_an_unknown_engine():
    # a misspelt engine used to fall through to the perturbative chain
    with pytest.raises(ValueError, match="engine must be one of .*, got 'exakt'"):
        wd.write_state(make_rates(0.1, 0.1), 2, "exakt")


def test_perturbative_state_vacuum_limit():
    psi = wd.write_state(make_rates(0.0, 0.0), 2, "perturbative")
    np.testing.assert_array_equal(
        hb.from_pair_state(psi).amplitudes, hb.vacuum_state(2).amplitudes
    )


@pytest.mark.parametrize("p", [0.02, 0.05, 0.1])
def test_perturbative_close_to_exact(p):
    cutoff = 3
    rates = make_rates(p, p)
    exact = kron_oracle_state(p, p, cutoff)
    approx = hb.from_pair_state(wd.write_state(rates, cutoff, "perturbative")).amplitudes
    assert np.linalg.norm(exact - approx) <= 3.0 * p**2


@pytest.mark.parametrize("cutoff", [1, 2, 3, 8])
def test_perturbative_chain_is_taylor_polynomial_of_exact(cutoff):
    # The perturbative chain is the Taylor polynomial in r = |P| of degree
    # d = min(cutoff, 2) of c_n = (-i tanh r)^n / cosh r, renormalised, so each
    # listed amplitude is off by O(r^(d+1)): halving r shrinks every error by
    # 2^-(d+1) or more.  The largest error, the r^3 term of c_1, falls by 2^-3
    # at every cutoff (at cutoff 1 the renormalisation 1/sqrt(1 + r^2) matches
    # the r^2 term of 1/cosh r as well).
    d = min(cutoff, 2)

    def error(scale):
        rates = make_rates(scale * (0.03 + 0.02j), scale * -0.04)
        pert, exact = (wd.write_state(rates, cutoff, engine).chain
                       for engine in ("perturbative", "exact"))
        return np.abs(np.subtract(pert, exact))

    ratio = error(0.5) / error(1.0)
    assert np.all(ratio <= 1.05 * 2.0 ** -(d + 1)), ratio
    assert np.max(ratio) == pytest.approx(2.0**-3, rel=0.05)


def test_second_order_state_improves_on_first_order():
    p = 0.1
    cutoff = 3
    rates = make_rates(p, p)
    exact = kron_oracle_state(p, p, cutoff)
    # the engine's chain at cutoff 1, listed up to this cutoff
    engine, oracle = wd.write_state(rates, 1, "perturbative"), wo.first_order_state(rates, 1)
    np.testing.assert_allclose(oracle.chain, engine.chain, rtol=1e-15, atol=0)
    assert oracle[1:] == engine[1:]  # bright mode and tail ratio
    first = hb.from_pair_state(wo.first_order_state(rates, cutoff)).amplitudes
    second = hb.from_pair_state(wd.write_state(rates, cutoff, "perturbative")).amplitudes
    err1 = np.linalg.norm(exact - first)
    err2 = np.linalg.norm(exact - second)
    assert err2 < err1 / 3.0
    assert err2 <= 10.0 * p**3


def test_mean_photon_number_perturbative_consistency():
    # <n_S> = P_I^2 + P_II^2 + O(P^4)
    for p in (0.05, 0.1):
        rates = make_rates(p, p)
        psi = wd.write_state(rates, 4, "exact")
        n_s = hb.expected_occupation(hb.from_pair_state(psi), Mode.STOKES)
        assert abs(n_s - 2.0 * p**2) <= 10.0 * (2.0 * p**2) ** 2


def test_photon_spin_correlation():
    # a detected photon implies exactly one spin excitation
    rates = make_rates(0.1, 0.08)
    psi_pert = wo.first_order_state(rates, 2)
    grid = hb.from_pair_state(psi_pert).grid()
    for (n_s, n_i, n_ii), amp in np.ndenumerate(grid):
        if n_s == 1 and abs(amp) > 0:
            assert n_i + n_ii == 1
    psi = wd.write_state(rates, 3, "exact")
    p_one_spin = 0.0
    p_photon = 0.0
    for (n_s, n_i, n_ii), amp in np.ndenumerate(hb.from_pair_state(psi).grid()):
        if n_s == 1:
            p_photon += abs(amp) ** 2
            if n_i + n_ii == 1:
                p_one_spin += abs(amp) ** 2
    assert p_one_spin / p_photon >= 1.0 - 5.0 * 0.1**2


# ---------------------------------------------------------------------------
# Langevin moments
# ---------------------------------------------------------------------------


def test_no_drive_no_coupling():
    p = make_params(omega_W_I=0.0, omega_W_II=0.0)
    r, s = wd.derive_rates(p), wo.light_shifts(p, gamma_1=1.0, gamma_2=1.0)
    assert r.chi_I == 0 and r.chi_II == 0
    assert s.gamma_L_I == 0 and s.gamma_L_II == 0
    assert s.delta_L_I == 0 and s.delta_L_II == 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pumping_and_stark_substitution():
    s = wo.light_shifts(make_params(omega_W_I=2.0, delta=4.0), gamma_1=2.0)
    assert s.gamma_L_I == pytest.approx(2.0 * 4.0 / 16.0)
    assert s.delta_L_I == pytest.approx(4.0 / 4.0)


def test_rate_homogeneity_in_drive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = rng.uniform(0.1, 1.5)
        base = make_params(delta=300.0)
        scaled = base._replace(omega_W_I=base.omega_W_I * s, omega_W_II=base.omega_W_II * s)
        r0, r1 = wd.derive_rates(base), wd.derive_rates(scaled)
        l0, l1 = (wo.light_shifts(p, gamma_1=1.0, gamma_2=0.5) for p in (base, scaled))
        assert r1.chi_I == pytest.approx(s * r0.chi_I)
        assert l1.delta_L_I == pytest.approx(s**2 * l0.delta_L_I)
        assert l1.gamma_L_II == pytest.approx(s**2 * l0.gamma_L_II)


def test_drift_matrix_structure():
    p = make_params(delta=100.0)
    r, s = wd.derive_rates(p), wo.light_shifts(p, gamma_1=1.0, gamma_2=2.0)
    sys = wo.build_langevin(p, kappa=0.4, gamma_gs_I=0.02, gamma_gs_II=0.03,
                            gamma_1=1.0, gamma_2=2.0)
    a = sys.drift
    assert a[0, 0] == pytest.approx(-0.4)
    assert a[0, 1] == pytest.approx(-1j * r.chi_I)
    assert a[0, 2] == pytest.approx(-1j * r.chi_II)
    assert a[1, 0] == pytest.approx(1j * np.conj(r.chi_I))
    assert a[1, 1] == pytest.approx(-(0.02 + s.gamma_L_I + 1j * s.delta_L_I))
    assert a[1, 2] == 0.0  # no spin-spin coupling
    assert a[2, 0] == pytest.approx(1j * np.conj(r.chi_II))
    assert a[2, 1] == 0.0  # no spin-spin coupling
    assert a[2, 2] == pytest.approx(-(0.03 + s.gamma_L_II - 1j * s.delta_L_II))


def test_explicit_rates_carry_no_light_shifts():
    # explicit rates are the pair model alone: the drive in p adds no Stark shift
    p = make_params(delta=50.0)
    a = wo.build_langevin(p, make_rates(0.3, 0.2)).drift
    assert a[1, 1] == 0.0 and a[2, 2] == 0.0
    with pytest.raises(ValueError, match="gamma_1 and gamma_2"):
        wo.build_langevin(p, make_rates(0.3, 0.2), gamma_1=1.0)


@pytest.mark.parametrize("rate", ["kappa", "gamma_gs_I", "gamma_gs_II", "gamma_1", "gamma_2"])
def test_langevin_loss_rates_must_be_nonnegative(rate):
    with pytest.raises(ValueError, match=rate):
        wo.build_langevin(make_params(), **{rate: -0.1})


def test_stark_shift_signs_are_opposite():
    p = make_params(delta=50.0)
    sys = wo.build_langevin(p)
    assert np.imag(sys.drift[1, 1]) < 0  # -i delta_L from +i delta_L in the rate
    assert np.imag(sys.drift[2, 2]) > 0


def test_decoupled_cavity_mean_decay():
    p = make_params(omega_W_I=0.0, omega_W_II=0.0)
    sys = wo.build_langevin(p, kappa=1.0)
    sys = wo.LangevinSystem(sys.drift, sys.diffusion,
                            np.array([2.0 + 1.0j, 0, 0]), sys.covariance)
    out = wo.evolve_langevin(sys, 0.8)
    assert out.means[0] == pytest.approx((2.0 + 1.0j) * np.exp(-0.8), rel=1e-9)


def test_two_mode_squeezing_photon_number():
    # chi_I only, lossless: <n_a>(t) = sinh^2(chi t), against the dense
    # 2x2 subsystem matrix-exponential oracle
    p = make_params()
    r = make_rates(1.0, 0.0)
    sys = wo.build_langevin(p, r, kappa=0.0)
    for t in (0.3, 0.7, 1.2):
        out = wo.evolve_langevin(sys, t)
        n_a = out.occupations()[0]
        assert n_a == pytest.approx(np.sinh(t) ** 2, abs=1e-6)
        # oracle: M(t) = e^{At} M0 e^{A^H t} on the (a, S_I^dag) subsystem
        a2 = np.array([[0.0, -1j], [1j, 0.0]])
        m0 = np.diag([1.0, 0.0]).astype(complex)
        f = scipy.linalg.expm(a2 * t)
        m_t = f @ m0 @ f.conj().T
        assert n_a == pytest.approx(float(np.real(m_t[0, 0])) - 1.0, abs=1e-9)


def test_evolve_langevin_identity_at_t0():
    p = make_params()
    sys = wo.build_langevin(p, kappa=0.5)
    out = wo.evolve_langevin(sys, 0.0)
    np.testing.assert_allclose(out.covariance, sys.covariance, atol=1e-12)
    np.testing.assert_allclose(out.means, sys.means, atol=1e-12)


def test_noiseless_antihermitian_drift_is_isometric():
    # D = 0 with an anti-Hermitian drift (beam-splitter-like coupling):
    # unitary propagator, so second moments evolve isometrically and the
    # commutator-matrix trace is preserved.
    herm = np.array(
        [[0.0, 0.4 + 0.1j, 0.0], [0.4 - 0.1j, 0.2, 0.3], [0.0, 0.3, -0.1]],
        dtype=complex,
    )
    drift = 1j * herm
    assert np.max(np.abs(drift + drift.conj().T)) < 1e-14
    cov0 = np.diag([0.5, 0.2, 0.0]).astype(complex)
    sys = wo.LangevinSystem(drift, np.zeros((3, 3), dtype=complex),
                            np.zeros(3, dtype=complex), cov0)
    out = wo.evolve_langevin(sys, 1.3)
    m0 = cov0 + np.diag([1.0, 0.0, 0.0])
    m_t = out.covariance + np.diag([1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        sorted(np.linalg.eigvalsh(m_t)), sorted(np.linalg.eigvalsh(m0)), atol=1e-10
    )
    c = wo.commutator_matrix(sys, 1.3)
    assert np.trace(c) == pytest.approx(np.trace(wo.COMMUTATOR), abs=1e-10)


def test_cavity_covariance_fixed_point():
    # kappa only: n_a(t) = n_a(0) e^{-2 kappa t} -> 0; in the <v v^dag>
    # ordering the fixed point is D / (2 kappa) = 1 (hand-computed).
    kappa = 1.0
    p = make_params(omega_W_I=0.0, omega_W_II=0.0)
    sys = wo.build_langevin(p, kappa=kappa)
    cov0 = np.zeros((3, 3), dtype=complex)
    cov0[0, 0] = 2.0  # thermal-like initial photon occupation
    sys = wo.LangevinSystem(sys.drift, sys.diffusion, sys.means, cov0)
    for t in (0.5, 2.0, 12.0):
        out = wo.evolve_langevin(sys, t)
        assert out.occupations()[0] == pytest.approx(
            2.0 * np.exp(-2.0 * kappa * t), abs=1e-9
        )
    # anti-normal fixed point: M = sigma + E00 -> 1 = diffusion / (2 kappa)
    late = wo.evolve_langevin(sys, 12.0)
    m_00 = late.covariance[0, 0] + 1.0
    assert m_00 == pytest.approx(sys.diffusion[0, 0] / (2.0 * kappa), abs=1e-9)


def test_commutators_preserved_with_vacuum_noise():
    p = make_params(delta=40.0, omega_W_I=2.0, omega_W_II=1.0)
    sys = wo.build_langevin(p, kappa=0.8, gamma_gs_I=0.05, gamma_gs_II=0.02,
                            gamma_1=1.0, gamma_2=0.5)
    for t in (0.2, 1.0, 4.0):
        c = wo.commutator_matrix(sys, t)
        assert np.max(np.abs(c - wo.COMMUTATOR)) < 1e-9


def test_opposite_order_diffusion_is_psd_spin_noise():
    p = make_params(delta=40.0)
    s = wo.light_shifts(p, gamma_1=1.0, gamma_2=0.5)
    sys = wo.build_langevin(p, kappa=0.8, gamma_gs_I=0.05, gamma_gs_II=0.02,
                            gamma_1=1.0, gamma_2=0.5)
    d_n = wo.opposite_order_diffusion(sys)
    expected = np.diag([0.0, 2 * (0.05 + s.gamma_L_I), 2 * (0.02 + s.gamma_L_II)])
    np.testing.assert_allclose(d_n, expected, atol=1e-12)
    assert np.min(np.linalg.eigvalsh((d_n + d_n.conj().T) / 2)) >= -1e-12


def test_lyapunov_propagator_against_quadrature_oracle():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = a - 1.5 * np.eye(3)  # push spectrum left for a tame integral
    d_half = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = d_half @ d_half.conj().T
    sigma0 = np.eye(3, dtype=complex)
    t = 0.9
    result = wo.lyapunov_propagate(a, d, sigma0, t)
    # quadrature oracle on sigma(t) = F sigma0 F^H + int_0^t e^{Au} D e^{A^H u} du
    us, h = np.linspace(0.0, t, 4001, retstep=True)
    acc = np.zeros((3, 3), dtype=complex)
    for i, u in enumerate(us):
        f_u = scipy.linalg.expm(a * u)
        wgt = 0.5 if i in (0, len(us) - 1) else 1.0
        acc += wgt * f_u @ d @ f_u.conj().T
    f_t = scipy.linalg.expm(a * t)
    oracle = f_t @ sigma0 @ f_t.conj().T + acc * h
    np.testing.assert_allclose(result, oracle, atol=5e-6)


def test_exact_moments_match_langevin_when_lossless():
    chi_i, chi_ii, t = 0.12, 0.16, 1.0  # chi_eff * t = 0.2
    rates = make_rates(chi_i, chi_ii, tau=t)
    psi = hb.from_pair_state(wd.write_state(rates, 4, "exact"))
    p = make_params()
    sys = wo.evolve_langevin(wo.build_langevin(p, rates, kappa=0.0), t)
    n_a, n_i, n_ii = sys.occupations()
    assert hb.expected_occupation(psi, Mode.STOKES) == pytest.approx(n_a, abs=1e-3)
    assert hb.expected_occupation(psi, Mode.SPIN_I) == pytest.approx(n_i, abs=1e-3)
    assert hb.expected_occupation(psi, Mode.SPIN_II) == pytest.approx(n_ii, abs=1e-3)


# ---------------------------------------------------------------------------
# validation against the pre-elimination model
# ---------------------------------------------------------------------------


def test_full_model_reproduces_reduced_amplitudes_and_signs():
    p = make_params(N_I=25.0, N_II=25.0, omega_W_I=2.0, omega_W_II=2.0,
                    delta=200.0)
    r = wd.derive_rates(p)
    assert r.P_I == pytest.approx(0.05)
    h = wo.build_full_hamiltonian(p, cutoff=1)
    dim = 2 ** len(wo.FULL_MODEL_MODES)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = 1.0
    psi_t = scipy.linalg.expm(-1j * h * p.tau_write) @ psi0
    amp_i = psi_t[wo.full_model_index(1, (1, 0, 1, 0, 0))]
    amp_ii = psi_t[wo.full_model_index(1, (1, 0, 0, 0, 1))]
    # reduced model predicts -i P_I and +i P_II
    assert abs(amp_i - (-1j * r.P_I)) <= 0.05 * abs(r.P_I)
    assert abs(amp_ii - (+1j * r.P_II)) <= 0.05 * abs(r.P_II)
    # the relative minus sign between the species is reproduced
    assert np.real(amp_i / amp_ii) == pytest.approx(-1.0, abs=0.05)


def test_full_model_rejects_large_cutoff():
    with pytest.raises(ValueError):
        wo.build_full_hamiltonian(make_params(), cutoff=3)
