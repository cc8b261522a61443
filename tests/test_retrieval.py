"""Read-out mapping, entanglement metrics, and the polariton-transport
oracle's advection against analytic shift and quadrature oracles."""

import math

import numpy as np
import pytest

import polariton as pl
from fmesim import herald as hd
from fmesim import retrieval as rt
from fmesim import write_dynamics as wd
from fmesim.herald import DetectorModel
from test_protocol import branch_yield


def heralded_state(p_i, p_ii):
    rates = wd.DerivedRates(chi_I=p_i, chi_II=p_ii, P_I=p_i, P_II=p_ii)
    return hd.heralded_spin(wd.write_state(rates, 2, "perturbative"))


def gaussian(z, center, width):
    return np.exp(-((z - center) ** 2) / (2.0 * width**2)).astype(complex)


# ---------------------------------------------------------------------------
# frequency-qubit mapping
# ---------------------------------------------------------------------------


def test_balanced_drive_gives_bell_state():
    q = rt.retrieve_fme(heralded_state(0.1, 0.1), rt.ReadParams())
    assert abs(q.c1) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(q.c2) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert rt.concurrence(q) == pytest.approx(1.0, abs=1e-10)
    assert q.retrieval_efficiency == pytest.approx(1.0)


def test_single_species_product_state():
    q = rt.retrieve_fme(heralded_state(0.1, 0.0), rt.ReadParams())
    assert q.c1 == pytest.approx(1.0)
    assert q.c2 == 0.0
    assert rt.concurrence(q) == 0.0


def test_three_four_five_normalization():
    q = rt.retrieve_fme(heralded_state(0.06, 0.08), rt.ReadParams())
    assert abs(q.c1) == pytest.approx(0.6, abs=1e-12)
    assert abs(q.c2) == pytest.approx(0.8, abs=1e-12)
    assert np.real(q.c2) < 0  # the heralded minus sign survives


def test_false_herald_dark_branch_gives_no_photon():
    # the dark click on the vacuum component, where 0.999 of the branch CDF falls
    rates = wd.DerivedRates(chi_I=0.1, chi_II=0.1, P_I=0.1, P_II=0.1)
    psi = wd.write_state(rates, 2, "perturbative")
    det = DetectorModel(eta=0.6, dark_rate=400.0, gate=1e-6)
    branches = hd.click_branches(psi, det)
    cdf = np.cumsum([b.probability for b in branches])
    idx = np.searchsorted(cdf / cdf[-1], 0.999, side="right")
    assert (branches[idx].kind, branches[idx].n_photons) == ("dark", 0)
    qubit = rt.retrieve_fme(hd.heralded_spin(psi), rt.ReadParams())
    assert branch_yield(branches, qubit, idx) == 0.0
    # no single excitation: a zero spin pair retrieves no photon
    q = rt.retrieve_fme((0j, 0j), rt.ReadParams())
    assert q.retrieval_efficiency == 0.0
    assert not q.has_photon
    with pytest.raises(ValueError):
        rt.concurrence(q)


def test_partial_efficiencies_reweight_amplitudes():
    q = rt.retrieve_fme(
        heralded_state(0.1, 0.1),
        rt.ReadParams(efficiency_I=0.5, efficiency_II=1.0),
    )
    assert q.retrieval_efficiency == pytest.approx(0.25 + 0.5)
    assert abs(q.c1) ** 2 == pytest.approx(0.25 / 0.75)
    assert abs(q.c2) ** 2 == pytest.approx(0.50 / 0.75)


def test_read_phase_rotates_minus_to_plus_bell():
    q_minus = rt.retrieve_fme(heralded_state(0.1, 0.1), rt.ReadParams())
    assert rt.fidelity_to_bell(q_minus) == pytest.approx(0.0, abs=1e-12)
    q_plus = rt.retrieve_fme(
        heralded_state(0.1, 0.1), rt.ReadParams(phase_II=math.pi)
    )
    assert rt.fidelity_to_bell(q_plus) == pytest.approx(1.0, abs=1e-12)
    assert rt.concurrence(q_plus) == pytest.approx(rt.concurrence(q_minus))


def test_concurrence_and_fidelity_examples():
    s = 1 / math.sqrt(2)
    bell = rt.FmeQubitState(s, s, 1.0)
    assert rt.concurrence(bell) == pytest.approx(1.0)
    assert rt.fidelity_to_bell(bell) == pytest.approx(1.0)
    singlet = rt.FmeQubitState(s, -s, 1.0)
    assert rt.fidelity_to_bell(singlet) == pytest.approx(0.0)
    product = rt.FmeQubitState(1.0, 0.0, 1.0)
    assert rt.concurrence(product) == 0.0
    assert rt.fidelity_to_bell(product) == pytest.approx(0.5)
    pair = rt.FmeQubitState(0.6, 0.8, 1.0)
    assert rt.concurrence(pair) == pytest.approx(0.96)


def test_concurrence_phase_invariant_fidelity_not():
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi1, phi2 = rng.uniform(0, 2 * math.pi, 2)
        base = rt.FmeQubitState(0.6, 0.8, 1.0)
        rotated = rt.FmeQubitState(0.6 * np.exp(1j * phi1), 0.8 * np.exp(1j * phi2), 1.0)
        assert rt.concurrence(rotated) == pytest.approx(rt.concurrence(base))
    flipped = rt.FmeQubitState(0.6, -0.8, 1.0)
    base = rt.FmeQubitState(0.6, 0.8, 1.0)
    assert rt.fidelity_to_bell(flipped) != pytest.approx(rt.fidelity_to_bell(base))


def test_state_validation():
    with pytest.raises(ValueError):
        rt.FmeQubitState(1.0, 1.0, 1.0)  # not normalized
    with pytest.raises(ValueError):
        rt.FmeQubitState(1.0, 0.0, 1.5)  # efficiency above 1


def test_concurrence_peaks_at_balanced_drive():
    ratios = [0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0]
    conc = [
        rt.concurrence(rt.retrieve_fme(heralded_state(0.05 * r, 0.05), rt.ReadParams()))
        for r in ratios
    ]
    best = ratios[int(np.argmax(conc))]
    assert best == 1.0
    assert conc[ratios.index(1.0)] == pytest.approx(1.0, abs=1e-12)
    # strictly worse away from the balance point
    for r, c in zip(ratios, conc):
        if r != 1.0:
            assert c < 1.0


# ---------------------------------------------------------------------------
# polariton mixing angle and advection
# ---------------------------------------------------------------------------


def test_dsp_angle_substitutions():
    assert pl.dsp_angle(1.0, 4.0, 2.0) == pytest.approx(math.pi / 4)
    assert math.tan(pl.dsp_angle(1.0, 4.0, 2.0)) ** 2 == pytest.approx(1.0)
    assert pl.dsp_angle(2.0, 100.0, 5.0) == pytest.approx(math.atan(4.0))
    assert pl.dsp_angle(1.0, 4.0, 1e9) == pytest.approx(0.0, abs=1e-8)


def test_dsp_angle_singular_at_zero_drive():
    with pytest.raises(ValueError):
        pl.dsp_angle(1.0, 4.0, 0.0)


def test_dsp_angle_strictly_decreasing_in_drive():
    drives = [0.5, 1.0, 2.0, 5.0, 20.0]
    angles = [pl.dsp_angle(1.0, 9.0, om) for om in drives]
    assert all(a > b for a, b in zip(angles, angles[1:]))


def test_group_velocity_convention():
    theta = pl.dsp_angle(1.0, 4.0, 2.0)
    assert pl.group_velocity(theta) == pytest.approx(pl.C_LIGHT * 0.5)
    assert 0.0 < pl.group_velocity(theta) <= pl.C_LIGHT


def _field(n=512, length=1.0, center=0.3, width=0.02, theta=math.pi / 4):
    dz = length / n
    z = np.arange(n) * dz
    return pl.dsp_field(gaussian(z, center, width), dz, theta)


def test_propagate_zero_time_unchanged():
    field = _field()
    out = pl.propagate_dsp(field, 0.0)
    np.testing.assert_array_equal(out.values, field.values)
    assert out.outflow == 0.0


def test_grid_aligned_shift_is_exact():
    field = _field()
    cells = 37
    t = cells * field.dz / field.v_g
    out = pl.propagate_dsp(field, t)
    expected = gaussian(field.grid, 0.3 + cells * field.dz, 0.02)
    assert np.linalg.norm(out.values - expected) * math.sqrt(field.dz) <= 1e-12
    assert out.norm_squared() == pytest.approx(field.norm_squared(), abs=1e-12)


def test_interpolated_shift_matches_analytic():
    field = _field()
    shift = 21.37  # cells, deliberately off-grid
    t = shift * field.dz / field.v_g
    out = pl.propagate_dsp(field, t)
    expected = gaussian(field.grid, 0.3 + shift * field.dz, 0.02)
    err = np.linalg.norm(out.values - expected) * math.sqrt(field.dz)
    assert err <= 1e-4


def test_conservation_for_arbitrary_pulse_and_steps():
    rng = np.random.default_rng(13)
    n = 256
    dz = 1.0 / n
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    field = pl.dsp_field(values, dz, math.pi / 3)
    total0 = field.norm_squared() + field.outflow
    for _ in range(12):
        t = rng.uniform(0.0, 30.0) * dz / field.v_g
        field = pl.propagate_dsp(field, t)
        assert field.norm_squared() + field.outflow == pytest.approx(
            total0, abs=1e-9
        )


def test_outflow_after_full_exit_matches_quadrature():
    field = _field(n=1024, length=1.0, center=0.35, width=0.015)
    # quadrature oracle over the full line for the analytic pulse
    z_fine = np.linspace(-2.0, 3.0, 200001)
    oracle = np.trapezoid(np.abs(gaussian(z_fine, 0.35, 0.015)) ** 2, z_fine)
    t_exit = 3.0 / field.v_g  # shift by 3 domain lengths
    out = pl.propagate_dsp(field, t_exit)
    assert out.norm_squared() == pytest.approx(0.0, abs=1e-12)
    assert out.outflow == pytest.approx(oracle, abs=1e-6)


def test_multi_step_exit_telescopes():
    # interpolated steps while the pulse is interior, then grid-aligned
    # steps to drain it through the boundary
    field = _field(n=512, length=1.0, center=0.2, width=0.03)
    initial = field.norm_squared()
    for _ in range(4):
        field = pl.propagate_dsp(field, 13.37 * field.dz / field.v_g)
    for _ in range(20):
        field = pl.propagate_dsp(field, 96 * field.dz / field.v_g)
    assert field.norm_squared() == pytest.approx(0.0, abs=1e-10)
    assert field.outflow == pytest.approx(initial, abs=1e-9)


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        pl.propagate_dsp(_field(), -1.0)
