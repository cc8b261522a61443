"""Threshold detection: click statistics against brute-force POVM oracles
and conditional projection against a dense density-matrix computation."""

import math

import numpy as np
import pytest

from fmesim import herald as hd
from fmesim import hilbert as hb
from fmesim import write_dynamics as wd
from fmesim.herald import DetectorModel


def fixture_state(p_i=0.1, p_ii=0.1, cutoff=2, order=1):
    rates = wd.DerivedRates(
        chi_I=p_i, chi_II=p_ii, gamma_L_I=0.0, gamma_L_II=0.0,
        delta_L_I=0.0, delta_L_II=0.0, P_I=p_i, P_II=p_ii,
    )
    return wd.perturbative_state(rates, cutoff, order=order)


FIXTURE_DETECTOR = DetectorModel(eta=0.6, dark_rate=400.0, gate=1e-6)


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
    with pytest.raises(ValueError):
        DetectorModel(eta=1.5, dark_rate=0.0, gate=1e-6)
    with pytest.raises(ValueError):
        DetectorModel(eta=0.5, dark_rate=-1.0, gate=1e-6)
    with pytest.raises(ValueError):
        DetectorModel(eta=0.5, dark_rate=0.0, gate=0.0)
    det = DetectorModel(eta=0.5, dark_rate=400.0, gate=1e-6)
    assert det.p_dark == pytest.approx(1.0 - math.exp(-4e-4))
    assert 0.0 <= det.p_dark < 1.0


def test_vacuum_ideal_detector_never_clicks():
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    assert hd.herald_probability(hb.vacuum_state(2), det) == 0.0


def test_single_photon_bernoulli():
    det = DetectorModel(eta=0.6, dark_rate=0.0, gate=1e-6)
    one = hb.basis_state(2, 1, 0, 0)
    assert hd.herald_probability(one, det) == pytest.approx(0.6)


def test_fixture_click_probability_against_oracle():
    psi = fixture_state()
    p = hd.herald_probability(psi, FIXTURE_DETECTOR)
    assert p == pytest.approx(brute_force_click_probability(psi, FIXTURE_DETECTOR),
                              abs=1e-12)
    # frozen oracle value for the standard fixture
    assert p == pytest.approx(0.0121599210, abs=1e-9)


def test_unnormalized_state_rejected():
    amps = np.zeros(27, dtype=complex)
    amps[0] = 0.5
    with pytest.raises(ValueError):
        hd.herald_probability(hb.TruncatedState(2, amps), FIXTURE_DETECTOR)


def test_projection_symmetric_drive_is_maximally_entangled():
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    out = hd.project_on_click(fixture_state(0.1, 0.1), det, 0.0)
    state = out.state
    assert state.amplitude(0, 1, 0) == pytest.approx(1 / math.sqrt(2))
    assert state.amplitude(0, 0, 1) == pytest.approx(-1 / math.sqrt(2))
    # equal-weight superposition with a relative minus sign: concurrence 1
    rho = np.outer(
        [state.amplitude(0, 1, 0), state.amplitude(0, 0, 1)],
        np.conj([state.amplitude(0, 1, 0), state.amplitude(0, 0, 1)]),
    )
    assert 2.0 * abs(rho[0, 1]) == pytest.approx(1.0, abs=1e-10)


def test_projection_single_branch_product_state():
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    out = hd.project_on_click(fixture_state(0.1, 0.0), det, 0.0)
    assert out.state.amplitude(0, 1, 0) == pytest.approx(1.0)
    assert out.state.amplitude(0, 0, 1) == 0.0


def test_projection_asymmetric_amplitudes():
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    out = hd.project_on_click(fixture_state(0.1, 0.05), det, 0.0)
    assert out.state.amplitude(0, 1, 0) == pytest.approx(0.894427191)
    assert out.state.amplitude(0, 0, 1) == pytest.approx(-0.4472135955)


def test_projection_impossible_click_rejected():
    det = DetectorModel(eta=1.0, dark_rate=0.0, gate=1e-6)
    with pytest.raises(ValueError):
        hd.project_on_click(hb.vacuum_state(2), det, 0.0)


def test_false_fraction_trivial_cases():
    ideal = DetectorModel(eta=0.7, dark_rate=0.0, gate=1e-6)
    assert hd.false_herald_fraction(fixture_state(0.1, 0.1, cutoff=1), ideal) == 0.0
    dark_only = DetectorModel(eta=0.7, dark_rate=1000.0, gate=1e-6)
    assert hd.false_herald_fraction(hb.vacuum_state(2), dark_only) == 1.0


def test_false_fraction_fixture_against_oracle():
    psi = fixture_state()
    frac = hd.false_herald_fraction(psi, FIXTURE_DETECTOR)
    assert frac == pytest.approx(brute_force_false_fraction(psi, FIXTURE_DETECTOR),
                                 abs=1e-12)
    assert frac == pytest.approx(0.0325014505, abs=1e-9)


def test_false_fraction_includes_multiphoton_components():
    psi = fixture_state(0.1, 0.1, cutoff=2, order=2)
    det = DetectorModel(eta=0.6, dark_rate=0.0, gate=1e-6)
    frac = hd.false_herald_fraction(psi, det)
    assert frac > 0.0
    assert frac == pytest.approx(brute_force_false_fraction(psi, det), abs=1e-12)


def test_herald_probability_monotone_in_eta_dark_and_drive():
    psi = fixture_state()
    probs_eta = [
        hd.herald_probability(psi, DetectorModel(eta=e, dark_rate=400.0, gate=1e-6))
        for e in (0.0, 0.3, 0.6, 0.9, 1.0)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(probs_eta, probs_eta[1:]))
    probs_dark = [
        hd.herald_probability(psi, DetectorModel(eta=0.6, dark_rate=d, gate=1e-6))
        for d in (0.0, 5.0, 50.0, 400.0, 4000.0)
    ]
    assert all(a < b for a, b in zip(probs_dark, probs_dark[1:]))
    probs_p = [
        hd.herald_probability(fixture_state(p, p), FIXTURE_DETECTOR)
        for p in (0.0, 0.05, 0.1, 0.2)
    ]
    assert all(a < b for a, b in zip(probs_p, probs_p[1:]))


def test_click_probability_affine_in_eta_without_multiphoton():
    # with only 0- and 1-photon components, p_click is affine in eta
    psi = fixture_state(0.1, 0.1, cutoff=1)
    etas = np.linspace(0.0, 1.0, 9)
    probs = np.array([
        hd.herald_probability(psi, DetectorModel(eta=e, dark_rate=400.0, gate=1e-6))
        for e in etas
    ])
    second_differences = np.diff(probs, n=2)
    assert np.max(np.abs(second_differences)) < 1e-15


def test_povm_completeness_against_density_matrix():
    # every outcome branch recombined reproduces the unconditional reduced
    # spin density matrix (computed independently by partial trace)
    psi = fixture_state(0.12, 0.07, cutoff=2, order=2)
    det = FIXTURE_DETECTOR
    d = psi.cutoff + 1
    grid = psi.grid()

    rho_oracle = np.zeros((d * d, d * d), dtype=complex)
    for n_s in range(d):
        block = grid[n_s].reshape(-1)
        rho_oracle += np.outer(block, block.conj())

    p_dark = det.p_dark
    p_n = np.array([np.sum(np.abs(grid[n]) ** 2) for n in range(d)])
    rho_sum = np.zeros_like(rho_oracle)
    for branch in hd.click_branches(psi, det):
        spins = branch.state.grid()[0].reshape(-1)
        rho_sum += branch.probability * np.outer(spins, spins.conj())
    for n in range(d):  # no-click branches share the same collapse states
        weight = p_n[n] * (1.0 - det.eta) ** n * (1.0 - p_dark)
        if weight > 0.0 and p_n[n] > 0.0:
            spins = grid[n].reshape(-1) / np.sqrt(p_n[n])
            rho_sum += weight * np.outer(spins, spins.conj())
    np.testing.assert_allclose(rho_sum, rho_oracle, atol=1e-12)


def test_species_swap_equivariance():
    det = DetectorModel(eta=0.8, dark_rate=50.0, gate=1e-6)
    out = hd.project_on_click(fixture_state(0.1, 0.05), det, 0.0)
    swapped = hd.project_on_click(fixture_state(0.05, 0.1), det, 0.0)
    a, b = (out.state.amplitude(0, 1, 0),
            out.state.amplitude(0, 0, 1))
    a_s, b_s = (swapped.state.amplitude(0, 1, 0),
                swapped.state.amplitude(0, 0, 1))
    # swapping species labels exchanges the amplitudes up to the global
    # minus sign of the heralded-state convention
    assert a_s == pytest.approx(-b, abs=1e-12)
    assert b_s == pytest.approx(-a, abs=1e-12)


def test_click_probability_equals_branch_sum():
    psi = fixture_state(0.1, 0.07, cutoff=2, order=2)
    branches = hd.click_branches(psi, FIXTURE_DETECTOR)
    assert sum(b.probability for b in branches) == pytest.approx(
        hd.herald_probability(psi, FIXTURE_DETECTOR), abs=1e-12
    )


def test_branch_selector_walks_cdf():
    psi = fixture_state(0.1, 0.1, cutoff=2, order=2)
    det = FIXTURE_DETECTOR
    branches = hd.click_branches(psi, det)
    p_click = sum(b.probability for b in branches)
    acc = 0.0
    for branch in branches:
        mid = (acc + branch.probability / p_click / 2.0)
        out = hd.project_on_click(psi, det, mid)
        assert out.kind == branch.kind
        assert out.n_photons == branch.n_photons
        acc += branch.probability / p_click
