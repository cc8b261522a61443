"""Truncated Fock kernel: matrix-free application against an independent
dense-matrix oracle, adjointness, and the flat index order."""

import numpy as np
import pytest

import hilbert as hb
from hilbert import Mode, ModeOperator, OperatorKind


def dense_oracle(kind: str, mode: int, cutoff: int) -> np.ndarray:
    """Dense single-mode-operator matrix on the three-mode space, built by
    explicit iteration over occupation tuples (independent of the package's
    slicing implementation)."""
    d = cutoff + 1
    dim = d**3
    occ = list(np.ndindex(d, d, d))
    index = {t: i for i, t in enumerate(occ)}
    mat = np.zeros((dim, dim), dtype=complex)
    for col, state in enumerate(occ):
        n = state[mode]
        if kind == "lowering" and n > 0:
            target = list(state)
            target[mode] = n - 1
            mat[index[tuple(target)], col] = np.sqrt(n)
        elif kind == "raising" and n < cutoff:
            target = list(state)
            target[mode] = n + 1
            mat[index[tuple(target)], col] = np.sqrt(n + 1)
        elif kind == "number":
            mat[col, col] = n
    return mat


def random_state(cutoff: int, rng) -> hb.TruncatedState:
    amps = rng.standard_normal((cutoff + 1) ** 3) + 1j * rng.standard_normal(
        (cutoff + 1) ** 3
    )
    return hb.normalize(hb.TruncatedState(cutoff, amps))


def test_vacuum_definition():
    vac = hb.vacuum_state(2)
    assert vac.amplitudes[0] == 1.0
    assert np.all(vac.amplitudes[1:] == 0.0)


def test_vacuum_norm_and_occupation():
    assert hb.norm(hb.vacuum_state(3)) == 1.0
    assert hb.expected_occupation(hb.vacuum_state(3), Mode.STOKES) == 0.0


def test_vacuum_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        hb.vacuum_state(0)


def test_raising_on_vacuum():
    psi = hb.raise_(hb.vacuum_state(2), Mode.STOKES)
    assert psi.amplitude(1, 0, 0) == 1.0
    assert hb.norm(psi) == pytest.approx(1.0)


def test_lowering_annihilates_vacuum():
    psi = hb.lower(hb.vacuum_state(2), Mode.SPIN_I)
    assert np.all(psi.amplitudes == 0.0)


def test_raising_past_cutoff_drops_component():
    cutoff = 2
    psi = hb.basis_state(cutoff, cutoff - 1, 0, 0)
    once = hb.raise_(psi, Mode.STOKES)
    twice = hb.raise_(once, Mode.STOKES)
    # oracle: dense raising matrix applied twice
    mat = dense_oracle("raising", 0, cutoff)
    expected = mat @ (mat @ psi.amplitudes)
    np.testing.assert_allclose(twice.amplitudes, expected, atol=1e-14)
    assert np.all(twice.amplitudes == 0.0)
    assert hb.norm(twice) < hb.norm(once)


def test_inner_product_trivials():
    vac = hb.vacuum_state(2)
    one = hb.raise_(vac, Mode.STOKES)
    assert hb.inner_product(vac, vac) == 1.0
    assert hb.inner_product(vac, one) == 0.0
    amps = np.zeros(27, dtype=complex)
    amps[0] = 0.6
    amps[1] = 0.8j
    psi = hb.TruncatedState(2, amps)
    assert hb.inner_product(psi, psi) == pytest.approx(1.0)


def test_inner_product_conjugate_linear_first_argument():
    rng = np.random.default_rng(7)
    psi, phi = random_state(2, rng), random_state(2, rng)
    scaled = hb.TruncatedState(2, (0.3 + 0.4j) * psi.amplitudes)
    assert hb.inner_product(scaled, phi) == pytest.approx(
        np.conj(0.3 + 0.4j) * hb.inner_product(psi, phi)
    )


def test_cutoff_mismatch_rejected():
    with pytest.raises(ValueError):
        hb.inner_product(hb.vacuum_state(2), hb.vacuum_state(3))


@pytest.mark.parametrize("cutoff", [1, 2, 3])
@pytest.mark.parametrize("kind", ["lowering", "raising", "number"])
@pytest.mark.parametrize("mode", [Mode.STOKES, Mode.SPIN_I, Mode.SPIN_II])
def test_matrix_free_equals_dense_oracle(cutoff, kind, mode):
    op = ModeOperator(OperatorKind(kind), mode)
    oracle = dense_oracle(kind, int(mode), cutoff)
    dim = (cutoff + 1) ** 3
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        out = hb.apply_operator(op, hb.TruncatedState(cutoff, amps))
        np.testing.assert_allclose(out.amplitudes, oracle[:, col], atol=1e-14)


def test_adjointness_on_random_states():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        psi, phi = random_state(2, rng), random_state(2, rng)
        mode = Mode(rng.integers(0, 3))
        lhs = hb.inner_product(phi, hb.lower(psi, mode))
        rhs = hb.inner_product(hb.raise_(phi, mode), psi)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_number_equals_raising_after_lowering():
    for mode in Mode:
        for idx in np.ndindex(3, 3, 3):
            psi = hb.basis_state(2, *idx)
            via_ladder = hb.raise_(hb.lower(psi, mode), mode)
            direct = hb.apply_operator(
                ModeOperator(OperatorKind.NUMBER, mode), psi
            )
            np.testing.assert_allclose(
                via_ladder.amplitudes, direct.amplitudes, atol=1e-14
            )


def test_expectation_nonnegative_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = random_state(2, rng)
        for mode in Mode:
            assert hb.expected_occupation(psi, mode) >= 0.0


def test_basis_index_order():
    # fixed index order: entry for (1, 0, 0) sits at flat position 9 for d=3
    assert hb.basis_state(2, 1, 0, 0).amplitudes[9] == 1.0
    assert hb.basis_index(2, 1, 0, 0) == 9


def test_normalize_restores_unit_norm():
    amps = np.zeros(8, dtype=complex)
    amps[1] = 3.0
    amps[2] = 4.0j
    psi = hb.TruncatedState(1, amps)
    assert abs(hb.norm(hb.normalize(psi)) - 1.0) < 1e-12
