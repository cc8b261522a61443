"""Monte Carlo driver: counter-based streams against a pure-Python Philox,
the batched run loop against a per-run loop, worker-count independence, and
aggregate statistics."""

import bisect
import math

import numpy as np
import pytest

from fmesim import protocol as pr
from fmesim import rng as rng_mod
from fmesim import write_dynamics as wd
from fmesim.herald import DetectorModel
from fmesim.retrieval import FmeQubitState, ReadParams


def make_setup(p=0.1, eta=0.6, dark=400.0, max_trials=10_000, engine="perturbative",
               cutoff=2, p_ii=None):
    p_ii = p if p_ii is None else p_ii
    tau = 1.0
    system = wd.SystemParams(
        g_I=1.0, g_II=1.0, N_I=1.0, N_II=1.0,
        omega_W_I=p / tau * 100.0, omega_W_II=p_ii / tau * 100.0,
        delta=100.0, kappa=0.0, gamma_1=0.0, gamma_2=0.0,
        gamma_gs_I=0.0, gamma_gs_II=0.0, tau_write=tau,
    )
    detector = DetectorModel(eta=eta, dark_rate=dark, gate=1e-6)
    read = ReadParams(
        omega_out_I=-1.0e9, omega_out_II=1.0e9,
    )
    return pr.ProtocolSetup(system=system, detector=detector, read=read,
                            max_trials=max_trials, engine=engine, cutoff=cutoff)


def sweep_rows(setups, seed, n_runs):
    """ProtocolStats of each setup, with row i keying its random streams as
    in the CLI sweep."""
    rows = []
    for i, setup in enumerate(setups):
        engine = pr.ProtocolEngine(setup)
        rows.append(pr.aggregate(*pr.run_protocol(engine, seed, n_runs, row=i), engine.table))
    return rows


# ---------------------------------------------------------------------------
# counter-based streams
# ---------------------------------------------------------------------------

KNOWN_ANSWERS = [  # published test vectors for philox4x32-10: counter, key, output
    ([0, 0, 0, 0], [0, 0], [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]),
    ([0xFFFFFFFF] * 4, [0xFFFFFFFF] * 2, [0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]),
    (
        [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344],
        [0xA4093822, 0x299F31D0],
        [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1],
    ),
]


def philox_reference(counter, key):
    """Philox4x32-10 on Python integers, one block."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0 = 0xD2511F53 * c0
        p1 = 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & 0xFFFFFFFF, (p0 >> 32) ^ c3 ^ k1, p0 & 0xFFFFFFFF
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return [c0, c1, c2, c3]


def uniforms_reference(seed, row, run):
    """(trials, branch) uniforms of one run from the pure-Python block."""
    words = philox_reference([0, run, row, 0x464D4531], [seed & 0xFFFFFFFF, seed >> 32])
    return tuple(((hi << 32 | lo) >> 11) * 2.0**-53 for hi, lo in (words[:2], words[2:]))


def test_philox_known_answer_vectors():
    for counter, key, expected in KNOWN_ANSWERS:
        out = rng_mod.philox4x32(np.array([counter], dtype=np.uint32), key)
        np.testing.assert_array_equal(out[0], expected)
        assert philox_reference(counter, key) == expected


def test_philox_chunks_match_reference():
    # more blocks than one kernel pass, with counters in every word
    n = rng_mod._CHUNK + 7
    counters = np.random.default_rng(4).integers(0, 2**32, size=(n, 4), dtype=np.uint64)
    key = [0xA4093822, 0x299F31D0]
    out = rng_mod.philox4x32(counters.astype(np.uint32), key)
    for i in (0, 1, rng_mod._CHUNK - 1, rng_mod._CHUNK, n - 1):
        assert out[i].tolist() == philox_reference(counters[i].tolist(), key)


def test_trial_uniforms_deterministic_and_distinct():
    runs = np.arange(100)
    u1 = rng_mod.run_uniforms(42, 0, runs)
    u2 = rng_mod.run_uniforms(42, 0, runs)
    np.testing.assert_array_equal(u1, u2)
    u3 = rng_mod.run_uniforms(43, 0, runs)
    assert np.all(u1 != u3)
    u4 = rng_mod.run_uniforms(42, 1, runs)
    assert np.all(u1 != u4)
    assert np.all((u1 >= 0.0) & (u1 < 1.0))


def test_run_uniforms_match_reference_streams():
    seed = 2**64 - 3  # both key words in use
    u = rng_mod.run_uniforms(seed, 2, np.array([3, 5, 9]))
    assert u.shape == (3, 2)
    for i, run in enumerate((3, 5, 9)):
        assert tuple(u[i]) == uniforms_reference(seed, 2, run)
    # more runs than one kernel pass, up to the last 32-bit run index
    runs = np.arange(2**32 - rng_mod._CHUNK - 5, 2**32)
    wide = rng_mod.run_uniforms(7, 0, runs)
    for i in (0, rng_mod._CHUNK - 1, rng_mod._CHUNK, runs.size - 1):
        assert tuple(wide[i]) == uniforms_reference(7, 0, int(runs[i]))


def test_counter_and_seed_widths_enforced():
    with pytest.raises(ValueError, match="seed"):
        rng_mod.run_uniforms(2**64, 0, [0])
    with pytest.raises(ValueError, match="seed"):
        rng_mod.run_uniforms(-1, 0, [0])
    with pytest.raises(ValueError, match="run"):
        rng_mod.run_uniforms(1, 0, [2**32])


def test_uniform_moments_sane():
    u = rng_mod.run_uniforms(123, 0, np.arange(200_000)).ravel()
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.var() - 1.0 / 12.0) < 2e-3


# ---------------------------------------------------------------------------
# trials and runs
# ---------------------------------------------------------------------------


def per_run_oracle(engine, seed, row, n_runs):
    """Repeat-until-success as a plain loop: each run inverts the geometric
    tail (1 - p)^t at its first uniform and walks the branch CDF with its
    second."""
    max_trials = engine.setup.max_trials
    p = engine.p_click
    cdf = engine.branch_cdf.tolist()
    trials_used, branch = [], []
    for run in range(n_runs):
        u_trials, u_branch = uniforms_reference(seed, row, run)
        if p == 0.0:
            t = math.inf
        elif p >= 1.0:
            t = 1
        else:
            t = math.floor(math.log1p(-u_trials) / math.log1p(-p)) + 1
        if t > max_trials:
            trials_used.append(max_trials)
            branch.append(-1)
        else:
            trials_used.append(t)
            branch.append(min(bisect.bisect_right(cdf, u_branch), len(cdf) - 1))
    return trials_used, branch


@pytest.mark.parametrize(
    "label, setup, n_runs",
    [
        pytest.param(label, setup, n, id=label.replace(" ", "-"))
        for label, setup, n in (
            ("blind detector", make_setup(eta=0.0, dark=0.0, max_trials=40), 6),
            ("p_click near 1", make_setup(eta=1.0, dark=3.0e6, max_trials=40), 50),
            ("many trials", make_setup(eta=0.9, dark=1e5, max_trials=60), 60),
            ("budget exhausted", make_setup(eta=0.9, dark=1e5, max_trials=7), 80),
            ("certain click", make_setup(p=0.05, eta=1.0, dark=4.0e7, max_trials=40), 50),
            ("largest budget", make_setup(p=1.5e-5, eta=0.5, dark=0.0, max_trials=2**32), 400),
        )
    ],
)
def test_batch_matches_per_run_oracle(label, setup, n_runs):
    engine = pr.ProtocolEngine(setup)
    max_trials = setup.max_trials
    trials_used, branch = pr._run_batch(engine, 13, 2, 0, n_runs)
    assert trials_used.dtype == np.int64 and branch.dtype == np.int16
    expected = per_run_oracle(engine, 13, 2, n_runs)
    assert trials_used.tolist() == expected[0]
    assert branch.tolist() == expected[1]
    if label == "blind detector":
        assert engine.p_click == 0.0
        assert branch.tolist() == [-1] * n_runs
        assert trials_used.tolist() == [max_trials] * n_runs
    elif label == "p_click near 1":
        assert 0.9 < engine.p_click < 1.0
    elif label == "many trials":
        assert max(trials_used) > 1 and np.all(branch >= 0)
    elif label == "certain click":
        assert sum(b.probability for b in engine.branches) > 1.0
        assert engine.p_click == 1.0
        assert trials_used.tolist() == [1] * n_runs
    else:  # some runs exhaust the budget, others click within it
        assert np.count_nonzero(branch < 0) > 0 and np.count_nonzero(branch >= 0) > 0


def test_blind_detector_never_clicks():
    setup = make_setup(eta=0.0, dark=0.0, max_trials=50)
    engine = pr.ProtocolEngine(setup)
    assert engine.p_click == 0.0
    trials_used, branch = pr.run_protocol(engine, seed=1, n_runs=3)
    assert branch.tolist() == [-1, -1, -1]
    assert trials_used.tolist() == [50, 50, 50]


def test_dark_clicks_on_empty_write_are_false_heralds():
    engine = pr.ProtocolEngine(make_setup(p=0.0, eta=0.6, dark=5e4, max_trials=5_000))
    trials_used, branch = pr.run_protocol(engine, seed=3, n_runs=64)
    assert np.all(branch >= 0)
    assert np.all(engine.table.false_herald[branch])
    stats = pr.aggregate(trials_used, branch, engine.table)
    assert stats.false_herald_fraction == 1.0
    assert stats.photon_yield == 0.0


def test_run_arrays_invariant():
    # a run without a click used the whole budget; a click picks a real branch
    setup = make_setup(p=0.1, max_trials=12)
    engine = pr.ProtocolEngine(setup)
    trials_used, branch = pr.run_protocol(engine, seed=8, n_runs=400)
    assert np.all(trials_used[branch < 0] == 12)
    assert np.all((trials_used >= 1) & (trials_used <= 12))
    assert np.all(branch < len(engine.branches))
    assert np.any(branch < 0) and np.any((branch >= 0) & (trials_used < 12))


def test_protocol_setup_rejects_zero_max_trials():
    with pytest.raises(ValueError, match="max_trials"):
        make_setup(max_trials=0)


def test_scalar_and_batch_paths_agree():
    # a batch of one run is the single-run path; chunk boundaries change nothing
    engine = pr.ProtocolEngine(make_setup(max_trials=500))
    trials_used, branch = pr.run_protocol(engine, seed=11, n_runs=40)
    for run in range(40):
        one = pr._run_batch(engine, 11, 0, run, run + 1)
        assert (one[0][0], one[1][0]) == (trials_used[run], branch[run])


def test_worker_count_does_not_change_results():
    engine = pr.ProtocolEngine(make_setup(max_trials=2_000))
    n_runs = pr._RUN_CHUNK + 300  # two chunks
    serial = pr.run_protocol(engine, seed=5, n_runs=n_runs, workers=1)
    parallel = pr.run_protocol(engine, seed=5, n_runs=n_runs, workers=3)
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a, b)
    assert pr.aggregate(*serial, engine.table) == pr.aggregate(*parallel, engine.table)


def test_progress_reports_each_chunk():
    engine = pr.ProtocolEngine(make_setup())
    seen = []
    pr.run_protocol(engine, 2, pr._RUN_CHUNK + 1, progress=lambda d, t: seen.append((d, t)))
    assert seen == [(pr._RUN_CHUNK, pr._RUN_CHUNK + 1), (pr._RUN_CHUNK + 1, pr._RUN_CHUNK + 1)]


def test_trials_to_success_geometric_mean():
    engine = pr.ProtocolEngine(make_setup())
    stats = pr.aggregate(*pr.run_protocol(engine, seed=21, n_runs=20_000), engine.table)
    expected_mean = 1.0 / engine.p_click
    assert stats.mean_trials_to_success == pytest.approx(
        expected_mean, abs=3.0 * stats.mean_trials_stderr
    )
    assert stats.p_click_per_trial == pytest.approx(
        engine.p_click, abs=3.0 * stats.p_click_stderr
    )


def test_no_success_fraction_matches_geometric_tail():
    engine = pr.ProtocolEngine(make_setup(max_trials=60))
    n_runs = 20_000
    _, branch = pr.run_protocol(engine, seed=19, n_runs=n_runs)
    tail = (1.0 - engine.p_click) ** 60
    sigma = math.sqrt(tail * (1.0 - tail) / n_runs)
    assert abs(np.count_nonzero(branch < 0) / n_runs - tail) <= 3.0 * sigma


def test_no_success_within_budget_is_explicit():
    engine = pr.ProtocolEngine(make_setup(eta=0.0, dark=0.0, max_trials=5))
    trials_used, branch = pr.run_protocol(engine, seed=9, n_runs=4)
    assert np.all(branch == -1)
    assert np.all(trials_used == 5)
    stats = pr.aggregate(trials_used, branch, engine.table)
    assert stats.n_success == 0
    assert math.isnan(stats.mean_trials_to_success)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _qubit(c1, c2, efficiency=1.0):
    return FmeQubitState(c1, c2, -1.0, 1.0, efficiency)


def test_aggregate_all_maximal_entanglement():
    s = 1 / math.sqrt(2)
    table = pr.branch_table([False], [_qubit(s, -s)])
    stats = pr.aggregate(np.full(10, 3), np.zeros(10, dtype=np.int16), table)
    assert stats.mean_concurrence == pytest.approx(1.0)
    assert stats.concurrence_stderr == 0.0
    assert stats.photon_yield == pytest.approx(1.0)
    assert stats.mean_trials_to_success == 3.0


def test_aggregate_half_false_heralds():
    s = 1 / math.sqrt(2)
    table = pr.branch_table([False, True], [_qubit(s, -s), _qubit(0.0, 0.0, 0.0)])
    stats = pr.aggregate(np.ones(10), np.array([0, 1] * 5, dtype=np.int16), table)
    assert stats.false_herald_fraction == pytest.approx(0.5)
    assert stats.photon_yield == pytest.approx(0.5)
    assert stats.mean_concurrence == pytest.approx(1.0)  # true heralds only


def test_aggregate_requires_runs():
    with pytest.raises(ValueError):
        pr.aggregate(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int16),
                     pr.branch_table([], []))


def test_aggregate_sums_in_run_order():
    # per-run values summed left to right, as a loop over the runs adds them
    rs = np.random.default_rng(3)
    outputs = [_qubit(math.cos(a), math.sin(a)) for a in rs.uniform(0.1, 1.4, 5)]
    flags = [False, False, True, False, False]
    table = pr.branch_table(flags, outputs)
    branch = rs.integers(-1, 5, 3001).astype(np.int16)
    trials_used = rs.integers(1, 400, 3001)
    trials_used[branch < 0] = 400
    stats = pr.aggregate(trials_used, branch, table)
    won = [(int(t), int(b)) for t, b in zip(trials_used, branch) if b >= 0]
    mean_t = sum(t for t, _ in won) / len(won)
    var_t = sum((t - mean_t) ** 2 for t, _ in won) / (len(won) - 1)
    assert stats.mean_trials_to_success == mean_t
    assert stats.mean_trials_stderr == math.sqrt(var_t / len(won))
    assert stats.photon_yield == sum(outputs[b].retrieval_efficiency for _, b in won) / len(won)
    conc = [2 * abs(outputs[b].c1) * abs(outputs[b].c2) for _, b in won if not flags[b]]
    mean_c = sum(conc) / len(conc)
    assert stats.mean_concurrence == mean_c
    var_c = sum((c - mean_c) ** 2 for c in conc) / (len(conc) - 1)
    assert stats.concurrence_stderr == math.sqrt(var_c / len(conc))


def test_aggregate_rejects_true_herald_without_photon():
    table = pr.branch_table([False], [_qubit(0.0, 0.0, 0.0)])
    with pytest.raises(ValueError, match="no-photon"):
        pr.aggregate(np.ones(3), np.zeros(3, dtype=np.int16), table)


# ---------------------------------------------------------------------------
# sweeps and symmetry
# ---------------------------------------------------------------------------


def test_sweep_concurrence_peaks_at_balanced_drive():
    setups = [make_setup(p=0.1 * r, p_ii=0.1) for r in (0.5, 1.0, 2.0)]
    rows = sweep_rows(setups, seed=17, n_runs=400)
    conc = [r.mean_concurrence for r in rows]
    assert conc[1] == pytest.approx(1.0, abs=1e-12)
    assert conc[1] > conc[0] and conc[1] > conc[2]


def test_species_swap_leaves_statistics_invariant():
    a, b = sweep_rows([make_setup(p=0.12, p_ii=0.06)], 23, 500) + sweep_rows(
        [make_setup(p=0.06, p_ii=0.12)], 23, 500
    )
    assert a.p_click_per_trial == b.p_click_per_trial
    assert a.mean_concurrence == pytest.approx(b.mean_concurrence, abs=1e-12)
    assert a.false_herald_fraction == b.false_herald_fraction


def test_exact_engine_close_to_perturbative():
    # order-2 expansion differs from the exact evolution at relative O(P^2)
    pert = pr.ProtocolEngine(make_setup(engine="perturbative", cutoff=3))
    exact = pr.ProtocolEngine(make_setup(engine="exact", cutoff=3))
    assert exact.p_click == pytest.approx(pert.p_click, rel=5e-2)
    assert exact.false_fraction == pytest.approx(pert.false_fraction, rel=1e-1)


def test_dark_count_zero_cutoff_one_every_click_true():
    engine = pr.ProtocolEngine(make_setup(dark=0.0, cutoff=1, max_trials=2_000))
    _, branch = pr.run_protocol(engine, seed=31, n_runs=200)
    clicked = branch[branch >= 0]
    assert clicked.size
    assert not engine.table.false_herald[clicked].any()
    for b in np.unique(clicked):
        q = engine.outputs[b]
        assert abs(q.c1) ** 2 + abs(q.c2) ** 2 == pytest.approx(1.0, abs=1e-12)
