"""Threshold detection: the closed-form click branch table against
brute-force POVM oracles and the grid collapse of the three-mode Fock
oracle, and the conditional states against a dense density-matrix
computation."""

import bisect
import math
import warnings

import numpy as np
import pytest

import hilbert as hb
import write_oracles as wo
from fmesim import config as cfg_mod
from fmesim import herald as hd
from fmesim import protocol as pr
from fmesim import retrieval as rt
from fmesim import write_dynamics as wd
from fmesim.herald import DetectorModel
from fmesim.retrieval import ReadParams
from test_protocol import branch_cdf, branch_yield


def fixture_state(p_i=0.1, p_ii=0.1, cutoff=2, order=1):
    rates = wd.DerivedRates(chi_I=p_i, chi_II=p_ii, P_I=p_i, P_II=p_ii)
    if order == 1:  # the engine's chain at cutoff 1, listed up to this cutoff
        return wo.first_order_state(rates, cutoff)
    return wd.write_state(rates, cutoff, "perturbative")


FIXTURE_DETECTOR = DetectorModel(eta=0.6, dark_rate=400.0, gate=1e-6)


def fixture_engine(p_i=0.1, p_ii=0.1, det=FIXTURE_DETECTOR, cutoff=1):
    """ProtocolEngine on the fixture drive (P = p with tau_write = 1); the
    perturbative engine is first order at cutoff 1 and second order above."""
    system = wd.SystemParams(
        g_I=1.0, g_II=1.0, N_I=1.0, N_II=1.0,
        omega_W_I=p_i * 100.0, omega_W_II=p_ii * 100.0, delta=100.0,
        tau_write=1.0,
    )
    read = ReadParams()
    return pr.ProtocolEngine(system, det, read, max_trials=1, engine="perturbative",
                             cutoff=cutoff)


def brute_force_click_probability(psi, det):
    """Sum the no-detection weight over every amplitude by explicit loops."""
    p_dark = 1.0 - math.exp(-det.dark_rate * det.gate)
    miss = 0.0
    grid = psi.grid()
    for (n_s, n_i, n_ii), amp in np.ndenumerate(grid):
        miss += abs(amp) ** 2 * (1.0 - det.eta) ** n_s
    return 1.0 - (1.0 - p_dark) * miss


def brute_force_false_fraction(psi, det):
    p_dark = 1.0 - math.exp(-det.dark_rate * det.gate)
    false_w = 0.0
    click_w = 0.0
    grid = psi.grid()
    for (n_s, n_i, n_ii), amp in np.ndenumerate(grid):
        w = abs(amp) ** 2
        photon_click = w * (1.0 - (1.0 - det.eta) ** n_s)
        dark_click = w * (1.0 - det.eta) ** n_s * p_dark
        click_w += photon_click + dark_click
        false_w += dark_click
        if n_s >= 2:
            false_w += photon_click
    return false_w / click_w


def test_detector_validation():
    # eta, dark_rate_hz and gate_s are checked by the config schema
    # (test_config_cli.test_out_of_range_override_rejected)
    det = DetectorModel(eta=0.5, dark_rate=400.0, gate=1e-6)
    assert det.p_dark == pytest.approx(1.0 - math.exp(-4e-4))
    assert 0.0 <= det.p_dark < 1.0


def test_vacuum_ideal_detector_never_clicks():
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    assert hd.click_branches(fixture_state(0.0, 0.0), det) == []
    assert fixture_engine(0.0, 0.0, det, cutoff=2).p_click == 0.0


def test_single_photon_bernoulli():
    det = DetectorModel(eta=0.6, dark_rate=0.0, gate=1e-6)
    one = wd.PairState(np.array([0.0, 1.0, 0.0], dtype=complex), 1.0 + 0.0j, 0.0j)
    (branch,) = hd.click_branches(one, det)
    assert branch.probability == pytest.approx(0.6)


def test_fixture_click_probability_against_oracle():
    engine = fixture_engine()
    p = engine.p_click
    psi = hb.from_pair_state(engine.write_state)
    oracle = brute_force_click_probability(psi, FIXTURE_DETECTOR)
    assert p == pytest.approx(oracle, abs=1e-12)
    # frozen oracle value for the standard fixture
    assert p == pytest.approx(0.0121599210, abs=1e-9)


def test_projection_symmetric_drive_is_maximally_entangled():
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    state = fixture_state(0.1, 0.1)
    out = hd.click_branches(state, det)[0]
    assert (out.kind, out.n_photons) == ("photon", 1)
    alpha, beta = hd.heralded_spin(state)
    assert alpha == pytest.approx(1 / math.sqrt(2))
    assert beta == pytest.approx(-1 / math.sqrt(2))
    # equal-weight superposition with a relative minus sign: concurrence 1
    rho = np.outer([alpha, beta], np.conj([alpha, beta]))
    assert 2.0 * abs(rho[0, 1]) == pytest.approx(1.0, abs=1e-10)


def test_projection_single_branch_product_state():
    spin = hd.heralded_spin(fixture_state(0.1, 0.0))
    assert spin[0] == pytest.approx(1.0)
    assert spin[1] == 0.0


def test_projection_asymmetric_amplitudes():
    spin = hd.heralded_spin(fixture_state(0.1, 0.05))
    assert spin[0] == pytest.approx(0.894427191)
    assert spin[1] == pytest.approx(-0.4472135955)


def test_heralded_spin_zero_without_one_pair_component():
    # c_1 = 0: no branch leaves a single excitation, and the pair is zero
    det = DetectorModel(eta=0.6, dark_rate=400.0, gate=1e-6)
    two = wd.PairState(np.array([0.6, 0.0, 0.8], dtype=complex), 1.0 + 0.0j, 0.0j)
    assert hd.heralded_spin(two) == (0j, 0j)
    assert [b.n_photons for b in hd.click_branches(two, det)] == [2, 0, 2]


def test_projection_impossible_click_rejected():
    # nothing to click on: no branch, and no run ever reports a click
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    engine = fixture_engine(0.0, 0.0, det, cutoff=2)
    assert engine.branches == []
    assert next(pr.run_rows([engine], 1, [10])).counts == (10,)


def test_false_fraction_trivial_cases():
    ideal = DetectorModel(eta=0.7, dark_rate=0.0, gate=1e-6)
    assert fixture_engine(0.1, 0.1, ideal, cutoff=1).false_fraction == 0.0
    dark_only = DetectorModel(eta=0.7, dark_rate=1000.0, gate=1e-6)
    assert fixture_engine(0.0, 0.0, dark_only, cutoff=2).false_fraction == 1.0


@pytest.mark.parametrize("engine", ["perturbative", "exact"])
def test_analytic_sums_do_not_depend_on_the_interpreter(engine):
    # math.fsum rounds the branch sums once; the builtin sum is compensated
    # from Python 3.12 on, so herald printed different last bits under 3.11
    cfg = cfg_mod.load_config(preset="rb85-87", overrides=[f"engine={engine}"])
    built = cfg_mod.build_setup(cfg)
    total = math.fsum(b.probability for b in built.branches)
    false = math.fsum(b.probability for b in built.branches if b.false_herald)
    assert built.p_click == min(total, 1.0)
    assert built.false_fraction == false / total


def test_false_fraction_fixture_against_oracle():
    engine = fixture_engine()
    frac = engine.false_fraction
    psi = hb.from_pair_state(engine.write_state)
    oracle = brute_force_false_fraction(psi, FIXTURE_DETECTOR)
    assert frac == pytest.approx(oracle, abs=1e-12)
    assert frac == pytest.approx(0.0325014505, abs=1e-9)


def test_false_fraction_includes_multiphoton_components():
    det = DetectorModel(eta=0.6, dark_rate=0.0, gate=1e-6)
    engine = fixture_engine(0.1, 0.1, det, cutoff=2)
    frac = engine.false_fraction
    assert frac > 0.0
    assert frac == pytest.approx(
        brute_force_false_fraction(hb.from_pair_state(engine.write_state), det), abs=1e-12
    )


def test_herald_probability_monotone_in_eta_dark_and_drive():
    probs_eta = [
        fixture_engine(det=DetectorModel(eta=e, dark_rate=400.0, gate=1e-6)).p_click
        for e in (0.0, 0.3, 0.6, 0.9, 1.0)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(probs_eta, probs_eta[1:]))
    probs_dark = [
        fixture_engine(det=DetectorModel(eta=0.6, dark_rate=d, gate=1e-6)).p_click
        for d in (0.0, 5.0, 50.0, 400.0, 4000.0)
    ]
    assert all(a < b for a, b in zip(probs_dark, probs_dark[1:]))
    probs_p = [fixture_engine(p, p).p_click for p in (0.0, 0.05, 0.1, 0.2)]
    assert all(a < b for a, b in zip(probs_p, probs_p[1:]))


def test_click_probability_affine_in_eta_without_multiphoton():
    # with only 0- and 1-photon components, p_click is affine in eta
    etas = np.linspace(0.0, 1.0, 9)
    probs = np.array([
        fixture_engine(det=DetectorModel(eta=e, dark_rate=400.0, gate=1e-6)).p_click
        for e in etas
    ])
    second_differences = np.diff(probs, n=2)
    assert np.max(np.abs(second_differences)) < 1e-15


def test_povm_completeness_against_density_matrix():
    # every outcome branch recombined reproduces the unconditional reduced
    # spin density matrix (computed independently by partial trace)
    state = fixture_state(0.12, 0.07, cutoff=2, order=2)
    det = FIXTURE_DETECTOR
    d = state.cutoff + 1
    grid_amps = hb.from_pair_state(state).grid()

    rho_oracle = np.zeros((d * d, d * d), dtype=complex)
    for n_s in range(d):
        block = grid_amps[n_s].reshape(-1)
        rho_oracle += np.outer(block, block.conj())

    p_dark = det.p_dark
    p_n = np.array([np.sum(np.abs(grid_amps[n]) ** 2) for n in range(d)])
    rho_sum = np.zeros_like(rho_oracle)
    for branch in hd.click_branches(state, det):
        n = branch.n_photons
        if n == 1:  # the branch leaves the heralded spin state
            spins = np.zeros((d, d), dtype=complex)
            spins[1, 0], spins[0, 1] = hd.heralded_spin(state)
            spins = spins.reshape(-1)
        else:  # no single excitation: the state is the n-photon collapse
            spins = grid_amps[n].reshape(-1) / np.sqrt(p_n[n])
        rho_sum += branch.probability * np.outer(spins, spins.conj())
    for n in range(d):  # no-click branches share the same collapse states
        weight = p_n[n] * (1.0 - det.eta) ** n * (1.0 - p_dark)
        if weight > 0.0 and p_n[n] > 0.0:
            spins = grid_amps[n].reshape(-1) / np.sqrt(p_n[n])
            rho_sum += weight * np.outer(spins, spins.conj())
    np.testing.assert_allclose(rho_sum, rho_oracle, atol=1e-12)


def test_species_swap_equivariance():
    det = DetectorModel(eta=0.8, dark_rate=50.0, gate=1e-6)
    a, b = hd.heralded_spin(fixture_state(0.1, 0.05))
    a_s, b_s = hd.heralded_spin(fixture_state(0.05, 0.1))
    assert hd.click_branches(fixture_state(0.1, 0.05), det)[0].n_photons == 1
    # swapping species labels exchanges the amplitudes up to the global
    # minus sign of the heralded-state convention
    assert a_s == pytest.approx(-b, abs=1e-12)
    assert b_s == pytest.approx(-a, abs=1e-12)


def test_click_probability_equals_branch_sum():
    state = fixture_state(0.1, 0.07, cutoff=2, order=2)
    branches = hd.click_branches(state, FIXTURE_DETECTOR)
    assert sum(b.probability for b in branches) == pytest.approx(
        brute_force_click_probability(hb.from_pair_state(state), FIXTURE_DETECTOR), abs=1e-12
    )


def test_branch_selector_walks_cdf():
    # the midpoint of each branch's share of the CDF, as a uniform and as the
    # 53-bit word below it, picks that branch from the CDF and from the
    # engine's thresholds ceil(cdf_j 2^53)
    engine = fixture_engine(0.1, 0.1, FIXTURE_DETECTOR, cutoff=2)
    cdf = branch_cdf(engine.branches)
    assert engine.thresholds == tuple(math.ceil(c * 2.0**53) for c in cdf[:-1])
    acc = 0.0
    for i, branch in enumerate(engine.branches):
        mid = acc + branch.probability / engine.p_click / 2.0
        assert np.searchsorted(cdf, mid, side="right") == i
        assert bisect.bisect_right(engine.thresholds, math.floor(mid * 2.0**53)) == i
        acc += branch.probability / engine.p_click


DRIVES = {
    "rb85-87": [],
    "chi_II=0": ["omega_rabi_write_II=0"],
    "rotated-chain": ["tau_write=1e-4"],
}


@pytest.mark.parametrize("cutoff", [1, 2, 3, 6, 10, 32])
@pytest.mark.parametrize("engine_name", ["perturbative", "exact"])
@pytest.mark.parametrize("drive", sorted(DRIVES))
def test_closed_form_branches_match_grid_collapse(drive, engine_name, cutoff):
    overrides = DRIVES[drive] + [f"engine={engine_name}", f"cutoff={cutoff}"]
    cfg = cfg_mod.load_config(preset="rb85-87", overrides=overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine = cfg_mod.build_setup(cfg)
    det = engine.detector
    psi = hb.from_pair_state(engine.write_state)
    p_n = hb.occupation_distribution(psi, hb.Mode.STOKES)  # unnormalized
    tails = []
    if engine_name == "exact":  # the untruncated chain, summed term by term
        r = math.hypot(abs(engine.rates.chi_I), abs(engine.rates.chi_II)) * cfg.values["tau_write"]
        n = np.arange(cutoff + 1, 20001)  # lam^20000 < 1e-50 on these drives
        p_above = np.tanh(r) ** (2 * n) / np.cosh(r) ** 2
        miss = (1.0 - det.eta) ** n
        tails = [("photon", cutoff + 1, np.sum(p_above * (1.0 - miss))),
                 ("dark", cutoff + 1, np.sum(p_above * miss) * det.p_dark)]
    oracle = []  # (kind, n, weight, single-excitation amplitudes of the collapse)
    for kind, n, weight in (
        [("photon", n, p_n[n] * (1.0 - (1.0 - det.eta) ** n)) for n in range(1, cutoff + 1)]
        + [("dark", n, p_n[n] * (1.0 - det.eta) ** n * det.p_dark) for n in range(cutoff + 1)]
    ):
        if weight > 0.0:
            collapsed = (1j) ** n * hb.normalize(hb.project_photon_number(psi, n)).amplitudes
            state = hb.TruncatedState(cutoff, collapsed)
            oracle.append((kind, n, weight, (state.amplitude(0, 1, 0), state.amplitude(0, 0, 1))))
    # above the cutoff every component holds at least two excitations
    oracle += [(kind, n, w, (0j, 0j)) for kind, n, w in tails if w > 0.0]

    assert [(b.kind, b.n_photons) for b in engine.branches] == [(k, n) for k, n, _, _ in oracle]
    for i, (branch, (kind, n, weight, spin)) in enumerate(zip(engine.branches, oracle)):
        assert branch.probability == pytest.approx(weight, rel=1e-13, abs=0)
        if n == 1:  # every one-pair click leaves the one heralded pair ...
            assert abs(spin[0] - engine.spin[0]) <= 1e-15
            assert abs(spin[1] - engine.spin[1]) <= 1e-15
            q = rt.retrieve_fme(spin, engine.read)
            assert abs(engine.qubit.c1 - q.c1) <= 1e-15
            assert abs(engine.qubit.c2 - q.c2) <= 1e-15
            assert abs(branch_yield(engine.branches, engine.qubit, i)
                       - q.retrieval_efficiency) <= 1e-15
        else:  # ... and every other click no single excitation, so no photon
            assert spin == (0j, 0j)
            assert branch_yield(engine.branches, engine.qubit, i) == 0.0


@pytest.mark.parametrize("drive", sorted(DRIVES))
def test_exact_engine_does_not_depend_on_cutoff(drive):
    engines = []
    for cutoff in (1, 2, 4, 10, 32):
        overrides = DRIVES[drive] + ["engine=exact", f"cutoff={cutoff}"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            engines.append(cfg_mod.build_setup(
                cfg_mod.load_config(preset="rb85-87", overrides=overrides)))
    for engine in engines:
        assert engine.p_click == pytest.approx(engines[0].p_click, rel=1e-14, abs=0)
        assert engine.false_fraction == pytest.approx(engines[0].false_fraction, rel=1e-14, abs=0)
        if drive == "rotated-chain":  # the two-mode squeezed vacuum at r = 3.25
            assert abs(engine.write_state.chain[1]) ** 2 == pytest.approx(0.00598674, abs=5e-9)
            assert engine.p_click == pytest.approx(0.990005781927038, rel=1e-14, abs=0)
