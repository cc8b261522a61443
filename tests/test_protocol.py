"""Monte Carlo driver: counter-based streams against a pure-Python SplitMix64,
the batched run loop against a per-run loop, chunking independence, and
aggregate statistics against exact rational arithmetic."""

import bisect
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fmesim import config as cfg_mod
from fmesim import protocol as pr
from fmesim import rng as rng_mod
from fmesim import write_dynamics as wd
from fmesim.herald import DetectorModel, HeraldBranch
from fmesim.retrieval import FmeQubitState, ReadParams, concurrence, fidelity_to_bell


def make_setup(p=0.1, eta=0.6, dark=400.0, max_trials=10_000, engine="perturbative",
               cutoff=2, p_ii=None):
    p_ii = p if p_ii is None else p_ii
    tau = 1.0
    system = wd.SystemParams(
        g_I=1.0, g_II=1.0, N_I=1.0, N_II=1.0,
        omega_W_I=p / tau * 100.0, omega_W_II=p_ii / tau * 100.0,
        delta=100.0, tau_write=tau,
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
        tally = pr.run_protocol(engine, seed, n_runs, row=i)
        rows.append(pr.aggregate(tally, engine.branches, engine.qubit))
    return rows


def branch_yield(branches, qubit, i):
    """The photon yield aggregate gives one run that clicked on branch i."""
    counts = [0] * (len(branches) + 1)
    counts[1 + i] = 1
    return pr.aggregate(pr.RunTally(tuple(counts), 1, 1, 1), branches, qubit).photon_yield


# ---------------------------------------------------------------------------
# counter-based streams
# ---------------------------------------------------------------------------

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    """The SplitMix64 finalizer on Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def word_reference(seed, row, run, word):
    """One 64-bit word of the stream: mix(mix(seed) + GAMMA * i) with the
    index i = row * 2**33 + 2 run + word."""
    index = (row << 33) | (run << 1) | word
    return splitmix64_mix((splitmix64_mix(seed) + GAMMA * index) & MASK64)


def uniforms_reference(seed, row, run):
    """(trials, branch) uniforms of one run from the pure-Python words."""
    return tuple((word_reference(seed, row, run, w) >> 11) * 2.0**-53 for w in (0, 1))


# The first outputs of SplitMix64 seeded with 0, from the reference C code
# (Vigna, splitmix64.c): mix(k GAMMA) for k = 1, 2, 3, 4.
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_stream_of_seed_zero_is_the_published_splitmix64_sequence():
    # mix(0) = 0, so seed 0 keys row 0 at 0 and index i reads mix(i GAMMA)
    assert splitmix64_mix(0) == 0
    assert [word_reference(0, 0, k // 2, k % 2) for k in range(1, 5)] == SPLITMIX64_SEED0
    words = [0, *SPLITMIX64_SEED0]  # index 0 reads mix(0) = 0
    u = rng_mod.run_uniforms(0, 0, np.arange(3)).ravel()  # index order
    assert u[:5].tolist() == [(w >> 11) * 2.0**-53 for w in words]


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
    # the chunk edges, the last run index, the last row and the last seed,
    # both words of each run
    edges = np.array([0, 1, 4095, 4096, 8191, 8192, 2**32 - 1])
    for seed in (0, 7, 2**63, 2**64 - 1):
        for row in (0, 1, 2, cfg_mod.ROW_LIMIT - 1):
            u = rng_mod.run_uniforms(seed, row, edges)
            assert u.shape == (edges.size, 2)
            for i, run in enumerate(edges.tolist()):
                assert tuple(u[i]) == uniforms_reference(seed, row, run)
    # one call over more runs than two chunks, up to the last run index
    runs = np.arange(2**32 - 16384 - 5, 2**32)
    wide = rng_mod.run_uniforms(2**64 - 1, cfg_mod.ROW_LIMIT - 1, runs)
    for i in (0, 4095, 4096, 8191, 8192, 16384 - 1, 16384, runs.size - 1):
        assert tuple(wide[i]) == uniforms_reference(2**64 - 1, cfg_mod.ROW_LIMIT - 1, int(runs[i]))


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


def test_row_and_negative_run_enforced():
    assert rng_mod.run_uniforms(1, cfg_mod.ROW_LIMIT - 1, [0]).shape == (1, 2)
    for row in (-1, cfg_mod.ROW_LIMIT, 2**33):
        with pytest.raises(ValueError, match="row"):
            rng_mod.run_uniforms(1, row, [0])
    for runs in ([-1], np.array([5, -1]), [2**64]):
        with pytest.raises(ValueError, match="run"):
            rng_mod.run_uniforms(1, 0, runs)


def test_neighbouring_streams_uncorrelated():
    # neighbouring runs, the two words of one run, and the same runs in
    # neighbouring rows and under neighbouring seeds
    n = 200_000
    bound = 5.0 / math.sqrt(n)
    base = rng_mod.run_uniforms(99, 4, np.arange(n + 1))
    pairs = {
        "next run, word 0": (base[:-1, 0], base[1:, 0]),
        "next run, word 1": (base[:-1, 1], base[1:, 1]),
        "word 0 of the next run after word 1": (base[:-1, 1], base[1:, 0]),
        "the two words of a run": (base[:, 0], base[:, 1]),
    }
    for label, other in (("next row", rng_mod.run_uniforms(99, 5, np.arange(n + 1))),
                         ("next seed", rng_mod.run_uniforms(100, 4, np.arange(n + 1)))):
        for w in (0, 1):
            pairs[f"{label}, word {w}"] = (base[:, w], other[:, w])
    for label, (a, b) in pairs.items():
        assert abs(np.corrcoef(a, b)[0, 1]) < bound, label


# ---------------------------------------------------------------------------
# trials and runs
# ---------------------------------------------------------------------------


def per_run_oracle(engine, seed, row, n_runs):
    """Repeat-until-success as a plain loop: each run inverts the geometric
    tail (1 - p)^t at its first uniform and walks the branch CDF with its
    second."""
    max_trials = engine.setup.max_trials
    p = engine.p_click
    cdf = list(engine.branch_cdf)
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
            ("certain click", make_setup(p=0.03, eta=1.0, dark=4.0e7, max_trials=40), 50),
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
    tally = pr.run_protocol(engine, seed=1, n_runs=3)
    assert tally == pr.RunTally((3,) + (0,) * len(engine.branches), 150, 0, 0)


def test_dark_clicks_on_empty_write_are_false_heralds():
    engine = pr.ProtocolEngine(make_setup(p=0.0, eta=0.6, dark=5e4, max_trials=5_000))
    tally = pr.run_protocol(engine, seed=3, n_runs=64)
    clicks = np.array(tally.counts[1:])
    assert tally.counts[0] == 0 and clicks.sum() == 64
    assert not clicks[~np.array([b.false_herald for b in engine.branches])].any()
    stats = pr.aggregate(tally, engine.branches, engine.qubit)
    assert stats.false_herald_fraction == 1.0
    assert stats.photon_yield == 0.0


def test_run_arrays_invariant():
    # a run without a click used the whole budget; a click picks a real branch
    setup = make_setup(p=0.1, max_trials=12)
    engine = pr.ProtocolEngine(setup)
    trials_used, branch = pr._run_batch(engine, 8, 0, 0, 400)
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
    trials_used, branch = pr._run_batch(engine, 11, 0, 0, 40)
    for run in range(40):
        one = pr._run_batch(engine, 11, 0, run, run + 1)
        assert (one[0][0], one[1][0]) == (trials_used[run], branch[run])


def test_chunking_does_not_change_results():
    engine = pr.ProtocolEngine(make_setup(max_trials=2_000))
    n_runs = pr._RUN_CHUNK + 300  # two chunks
    chunked = pr.run_protocol(engine, seed=5, n_runs=n_runs)
    whole = reference_tally(*pr._run_batch(engine, 5, 0, 0, n_runs), len(engine.branches))
    assert chunked == whole
    assert sum(whole.counts) == n_runs


def test_progress_reports_each_chunk():
    engine = pr.ProtocolEngine(make_setup())
    seen = []
    pr.run_protocol(engine, 2, pr._RUN_CHUNK + 1, progress=lambda d, t: seen.append((d, t)))
    assert seen == [(pr._RUN_CHUNK, pr._RUN_CHUNK + 1), (pr._RUN_CHUNK + 1, pr._RUN_CHUNK + 1)]


def test_trials_to_success_geometric_mean():
    engine = pr.ProtocolEngine(make_setup())
    tally = pr.run_protocol(engine, seed=21, n_runs=20_000)
    stats = pr.aggregate(tally, engine.branches, engine.qubit)
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
    failures = pr.run_protocol(engine, seed=19, n_runs=n_runs).counts[0]
    tail = (1.0 - engine.p_click) ** 60
    sigma = math.sqrt(tail * (1.0 - tail) / n_runs)
    assert abs(failures / n_runs - tail) <= 3.0 * sigma


def test_no_success_within_budget_is_explicit():
    engine = pr.ProtocolEngine(make_setup(eta=0.0, dark=0.0, max_trials=5))
    tally = pr.run_protocol(engine, seed=9, n_runs=4)
    assert tally.counts[0] == 4 and tally.n_trials == 20
    stats = pr.aggregate(tally, engine.branches, engine.qubit)
    assert stats.n_success == 0
    assert math.isnan(stats.mean_trials_to_success)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _qubit(c1, c2, efficiency=1.0):
    return FmeQubitState(c1, c2, efficiency)


def _branches(*kinds):
    """Click branches ("photon", 1), ("dark", 0), ... with dummy weights."""
    return [HeraldBranch(kind, n, 0.1) for kind, n in kinds]


TRUE = ("photon", 1)


def reference_tally(trials_used, branch, n_branches):
    """RunTally of per-run arrays, counted and summed in Python integers."""
    runs = list(zip(trials_used.tolist(), branch.tolist()))
    counts = [0] * (n_branches + 1)
    for _, b in runs:
        counts[b + 1] += 1
    won = [t for t, b in runs if b >= 0]
    return pr.RunTally(tuple(counts), sum(t for t, _ in runs), sum(won), sum(t * t for t in won))


@pytest.fixture
def tally(monkeypatch):
    """tally(trials_used, branch, branches): run_protocol's tally of the given
    per-run arrays, fed to it chunk by chunk in place of the random draws."""

    def streamed(trials_used, branch, branches):
        trials_used = np.asarray(trials_used, dtype=np.int64)
        branch = np.asarray(branch, dtype=np.int16)
        monkeypatch.setattr(pr, "_run_batch",
                            lambda engine, seed, row, lo, hi: (trials_used[lo:hi], branch[lo:hi]))
        engine = SimpleNamespace(branches=branches)
        result = pr.run_protocol(engine, 0, len(branch))
        assert result == reference_tally(trials_used, branch, len(branches))
        return result

    return streamed


def exact_mean_stderr(values):
    """Mean (a Fraction) and standard error (within 1 ulp) of the values, in
    rational arithmetic."""
    xs = [Fraction(v) for v in values]
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def test_aggregate_all_maximal_entanglement(tally):
    s = 1 / math.sqrt(2)
    branches = _branches(TRUE)
    stats = pr.aggregate(tally(np.full(10, 3), np.zeros(10), branches), branches, _qubit(s, -s))
    assert stats.mean_concurrence == pytest.approx(1.0)
    assert stats.concurrence_stderr == 0.0
    assert stats.photon_yield == pytest.approx(1.0)
    assert stats.mean_trials_to_success == 3.0


def test_aggregate_half_false_heralds(tally):
    s = 1 / math.sqrt(2)
    branches = _branches(TRUE, ("dark", 0))
    stats = pr.aggregate(tally(np.ones(10), [0, 1] * 5, branches), branches, _qubit(s, -s))
    assert stats.false_herald_fraction == pytest.approx(0.5)
    assert stats.photon_yield == pytest.approx(0.5)
    assert stats.mean_concurrence == pytest.approx(1.0)  # true heralds only


def test_aggregate_requires_runs():
    with pytest.raises(ValueError):
        pr.aggregate(pr.RunTally((0,), 0, 0, 0), [], _qubit(1.0, 0.0))


def test_aggregate_matches_exact_oracle(tally):
    # the count-based statistics against the same runs in rational arithmetic
    rs = np.random.default_rng(3)
    a = rs.uniform(0.1, 1.4)
    branches = _branches(TRUE, ("photon", 2), ("dark", 0), ("dark", 1), ("photon", 3))
    q = _qubit(math.cos(a), math.sin(a), 0.7)
    flags = [b.false_herald for b in branches]
    efficiency = [0.7, 0.0, 0.0, 0.7, 0.0]  # the qubit's on n = 1, else no photon
    branch = rs.integers(-1, 5, 3001).astype(np.int16)
    trials_used = rs.integers(1, 400, 3001)
    trials_used[branch < 0] = 400
    run_tally = tally(trials_used, branch, branches)
    stats = pr.aggregate(run_tally, branches, q)
    won = [(int(t), int(b)) for t, b in zip(trials_used, branch) if b >= 0]
    assert run_tally.counts == tuple(int(np.count_nonzero(branch == b)) for b in range(-1, 5))
    assert stats.n_success == len(won)
    assert stats.false_herald_fraction == sum(flags[b] for _, b in won) / len(won)
    mean_t, stderr_t = exact_mean_stderr([t for t, _ in won])
    assert stats.mean_trials_to_success == float(mean_t)
    assert abs(stats.mean_trials_stderr - stderr_t) <= 2 * math.ulp(stderr_t)
    photon_yield, _ = exact_mean_stderr([efficiency[b] for _, b in won])
    assert stats.photon_yield == pytest.approx(float(photon_yield), rel=1e-15, abs=0)
    true = [b for _, b in won if not flags[b]]
    for mean, stderr, value in (
        (stats.mean_concurrence, stats.concurrence_stderr, concurrence(q)),
        (stats.mean_fidelity_bell, stats.fidelity_stderr, fidelity_to_bell(q)),
    ):
        exact_mean, exact_stderr = exact_mean_stderr([value] * len(true))
        assert (mean, stderr) == (float(exact_mean), exact_stderr) == (value, 0.0)


def test_aggregate_trial_sums_exact_at_max_trials(tally):
    # T within a few units of max_trials = 2^32, where T^2 overflows int64;
    # more runs than one chunk
    rs = np.random.default_rng(5)
    n_runs = pr._RUN_CHUNK + 3001
    trials_used = 2**32 - rs.integers(0, 8, n_runs)
    branch = np.where(rs.uniform(size=n_runs) < 0.1, -1, 0)
    trials_used[branch < 0] = 2**32
    branches = _branches(TRUE)
    stats = pr.aggregate(tally(trials_used, branch, branches), branches, _qubit(0.6, 0.8))
    assert stats.n_trials == sum(trials_used.tolist())
    mean, stderr = exact_mean_stderr(trials_used[branch >= 0].tolist())
    assert stats.mean_trials_to_success == float(mean)
    assert abs(stats.mean_trials_stderr - stderr) <= 2 * math.ulp(stderr)


def test_aggregate_exact_when_true_heralds_agree(tally):
    # every true herald retrieves the one qubit: the means are its values and
    # the standard errors 0.0, however often it was drawn among false heralds
    q = _qubit(math.cos(0.4), math.sin(0.4))
    branches = _branches(TRUE, ("dark", 0), ("photon", 2))
    branch = np.repeat([0, 1, 2, -1], [1234, 50, 777, 9])
    stats = pr.aggregate(tally(np.full(branch.size, 7), branch, branches), branches, q)
    assert stats.mean_concurrence == concurrence(q) == 2.0 * math.cos(0.4) * math.sin(0.4)
    assert stats.concurrence_stderr == 0.0
    assert stats.mean_fidelity_bell == fidelity_to_bell(q)
    assert stats.fidelity_stderr == 0.0


def test_dark_one_pair_click_yields_the_qubit_outside_the_metrics(tally):
    # a dark click on the one-pair component leaves the heralded spin pair: it
    # retrieves the qubit (photon_yield) but is a false herald (no metrics)
    engine = pr.ProtocolEngine(make_setup(p=0.1, eta=0.6, dark=5e4, p_ii=0.05))
    kinds = [(b.kind, b.n_photons) for b in engine.branches]
    true, dark = kinds.index(TRUE), kinds.index(("dark", 1))
    branches, q = engine.branches, engine.qubit
    assert branches[dark].false_herald and not branches[true].false_herald
    assert (branch_yield(branches, q, dark) == branch_yield(branches, q, true)
            == q.retrieval_efficiency == 1.0)
    assert concurrence(q) < 1.0
    only_dark = pr.aggregate(tally(np.full(5, 2), np.array([dark] * 4 + [-1]), branches),
                             branches, q)
    assert only_dark.photon_yield == q.retrieval_efficiency
    assert only_dark.false_herald_fraction == 1.0
    assert math.isnan(only_dark.mean_concurrence) and math.isnan(only_dark.concurrence_stderr)
    both = pr.aggregate(tally(np.ones(4), np.array([dark, true, dark, true]), branches),
                        branches, q)
    assert both.photon_yield == q.retrieval_efficiency
    assert (both.mean_concurrence, both.concurrence_stderr) == (concurrence(q), 0.0)
    assert (both.mean_fidelity_bell, both.fidelity_stderr) == (fidelity_to_bell(q), 0.0)


def test_aggregate_rejects_true_herald_without_photon(tally):
    branches = _branches(TRUE)
    with pytest.raises(ValueError, match="no-photon"):
        pr.aggregate(tally(np.ones(3), np.zeros(3), branches), branches, _qubit(0.0, 0.0, 0.0))


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
    _, branch = pr._run_batch(engine, 31, 0, 0, 200)
    clicked = branch[branch >= 0]
    assert clicked.size
    assert not np.array([b.false_herald for b in engine.branches])[clicked].any()
    yields = [branch_yield(engine.branches, engine.qubit, i) for i in range(len(engine.branches))]
    assert (np.array(yields)[clicked] == 1.0).all()
    q = engine.qubit
    assert abs(q.c1) ** 2 + abs(q.c2) ** 2 == pytest.approx(1.0, abs=1e-12)
