"""Monte Carlo driver: counter-based streams against a pure-Python SplitMix64,
the batched run loop against a per-run loop, chunking independence, and
aggregate statistics against exact rational arithmetic."""

import bisect
import itertools
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmesim import config as cfg_mod
from fmesim import protocol as pr
from fmesim import rng as rng_mod
from fmesim import write_dynamics as wd
from fmesim.cli import main
from fmesim.herald import DetectorModel, HeraldBranch
from fmesim.retrieval import FmeQubitState, ReadParams, concurrence, fidelity_to_bell


def make_engine(p=0.1, eta=0.6, dark=400.0, max_trials=10_000, engine="perturbative",
                cutoff=2, p_ii=None):
    p_ii = p if p_ii is None else p_ii
    tau = 1.0
    system = wd.SystemParams(
        g_I=1.0, g_II=1.0, N_I=1.0, N_II=1.0,
        omega_W_I=p / tau * 100.0, omega_W_II=p_ii / tau * 100.0,
        delta=100.0, tau_write=tau,
    )
    detector = DetectorModel(eta=eta, dark_rate=dark, gate=1e-6)
    read = ReadParams()
    return pr.ProtocolEngine(system, detector, read, max_trials, engine, cutoff)


def sweep_rows(engines, seed, n_runs):
    """ProtocolStats of each engine, with row i keying its random streams as
    in the CLI sweep."""
    return [pr.aggregate(tally, engine)
            for engine, tally in zip(engines, pr.run_rows(engines, seed, [n_runs] * len(engines)))]


def table(branches, qubit, max_trials=math.nan):
    """An engine stand-in holding what aggregate reads of an engine: a
    branch table, its qubit and max_trials (the analytic numbers are not
    tested here, and n_trials and p_click read NaN unless max_trials is
    given)."""
    return SimpleNamespace(branches=branches, qubit=qubit, max_trials=max_trials,
                           p_click=math.nan, false_fraction=math.nan)


def branch_cdf(branches):
    """The CDF of the click branches, derived here from their weights as
    ProtocolEngine sums them (fsum), so it checks the engine's thresholds."""
    total = math.fsum(b.probability for b in branches)
    return list(itertools.accumulate(b.probability / total for b in branches))


def fake_engine(branches, p_click, max_trials):
    """An engine stand-in holding what the kernels read: the thresholds
    ceil(cdf_j 2^53) of every branch but the last and log_q = log1p(-p_click),
    -inf at p_click = 1."""
    return SimpleNamespace(
        branches=branches, p_click=p_click, max_trials=max_trials,
        thresholds=tuple(math.ceil(c * 2.0**53) for c in branch_cdf(branches)[:-1]),
        log_q=math.log1p(-p_click) if p_click < 1.0 else -math.inf)


def branch_yield(branches, qubit, i):
    """The photon yield aggregate gives one run that clicked on branch i."""
    counts = [0] * (len(branches) + 1)
    counts[1 + i] = 1
    return pr.aggregate(pr.RunTally(tuple(counts), 1, 1), table(branches, qubit)).photon_yield


# ---------------------------------------------------------------------------
# counter-based streams
# ---------------------------------------------------------------------------

MASK64 = (1 << 64) - 1
WORD_MASK = MASK64 ^ 0x7FF  # a generator's word: z with its low 11 bits cleared
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


def reference_words(seed, row, lo, hi):
    """The words of runs lo .. hi - 1 from word_reference, with their low 11
    bits cleared, one list per word."""
    return tuple([word_reference(seed, row, run, w) & WORD_MASK for run in range(lo, hi)]
                 for w in (0, 1))


def array_words(seed, row, lo, hi):
    """rng.run_word_array's words of runs lo .. hi - 1, one list per word; the
    array must be uint64 of shape (2, hi - lo)."""
    words = rng_mod.run_word_array(seed, row, lo, hi)
    assert words.dtype == np.uint64 and words.shape == (2, hi - lo)
    return tuple(words.tolist())


def lane_words(seed, row, lo, hi):
    """rng.run_words' words of runs lo .. hi - 1, one list per word; there
    must be four 64-bit halves per run, and each lane's high half must be 0."""
    lanes = memoryview(rng_mod.run_words(seed, row, lo, hi)).cast("Q")
    assert len(lanes) == 4 * (hi - lo) and not any(lanes[1::2])
    return lanes[0::4].tolist(), lanes[2::4].tolist()


GENERATORS = [pytest.param(array_words, id="run_word_array"),
              pytest.param(lane_words, id="run_words")]


# The first outputs of SplitMix64 seeded with 0, from the reference C code
# (Vigna, splitmix64.c): mix(k GAMMA) for k = 1, 2, 3, 4.
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]


def test_stream_of_seed_zero_is_the_published_splitmix64_sequence():
    # mix(0) = 0, so seed 0 keys row 0 at 0 and index i reads mix(i GAMMA)
    assert splitmix64_mix(0) == 0
    assert [word_reference(0, 0, k // 2, k % 2) for k in range(1, 5)] == SPLITMIX64_SEED0
    words = [w & WORD_MASK for w in [0, *SPLITMIX64_SEED0]]  # index 0 reads mix(0) = 0
    first, second = array_words(0, 0, 0, 3)
    assert [w for pair in zip(first, second) for w in pair][:5] == words  # index order
    assert lane_words(0, 0, 0, 3) == (first, second)


def test_words_deterministic_and_distinct():
    w1 = rng_mod.run_word_array(42, 0, 0, 100)
    np.testing.assert_array_equal(w1, rng_mod.run_word_array(42, 0, 0, 100))
    assert np.all(w1 != rng_mod.run_word_array(43, 0, 0, 100))
    assert np.all(w1 != rng_mod.run_word_array(42, 1, 0, 100))
    assert not np.any(w1 & np.uint64(0x7FF))


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_generators_give_equal_integer_words(seed):
    # the chunk edges, the last run index and the last row, both words of
    # each run
    edges = [0, 1, 2047, 2048, 4095, 4096, 8191, 8192, 2**32 - 1]
    for row in (0, 1, 2, cfg_mod.ROW_LIMIT - 1):
        for run in edges:
            args = (seed, row, run, run + 1)
            assert array_words(*args) == lane_words(*args) == reference_words(*args)
    # one call over more runs than two chunks of either kernel, up to the
    # last run index of the last row
    args = (seed, cfg_mod.ROW_LIMIT - 1, 2**32 - 16384 - 5, 2**32)
    assert array_words(*args) == lane_words(*args) == reference_words(*args)


def test_stdlib_chunk_stays_below_the_mmap_threshold():
    # glibc malloc serves a block of 128 KiB or more by mmap, which a
    # short-lived process faults in afresh for every chunk: each int of a
    # chunk's lanes, the largest product run_words takes (the lane mask times
    # a multiplier, before masking) and the chunk's bytes stay below that
    chunk = pr._STDLIB_CHUNK
    lanes = rng_mod._lanes(2 * chunk)
    words = rng_mod.run_words(2**64 - 1, cfg_mod.ROW_LIMIT - 1, 0, chunk)
    sizes = [*map(sys.getsizeof, lanes), sys.getsizeof(lanes[1] * rng_mod._M1),
             sys.getsizeof(words)]
    assert len(words) == 32 * chunk and max(sizes) < 128 * 1024, sizes


def test_uniform_moments_sane():
    u = rng_mod.run_word_array(123, 0, 0, 200_000).ravel() * 2.0**-64
    assert abs(u.mean() - 0.5) < 2e-3
    assert abs(u.var() - 1.0 / 12.0) < 2e-3


@pytest.mark.parametrize("words", GENERATORS)
def test_generators_share_one_run_range_contract(words):
    # neither generator checks its arguments; the command line keeps the
    # seed, row and runs in range (test_config_cli).  An empty range has no
    # words
    for lo in (0, 17, 2**32):
        assert words(1, 0, lo, lo) == ([], [])
    # the last run of the last row at the last seed, and two chunks of either
    # kernel and a part
    for args in ((2**64 - 1, cfg_mod.ROW_LIMIT - 1, 2**32 - 1, 2**32),
                 (3, 9, 2**32 - 2 * pr._NUMPY_CHUNK - 7, 2**32)):
        assert words(*args) == reference_words(*args)


def test_neighbouring_streams_uncorrelated():
    # neighbouring runs, the two words of one run, and the same runs in
    # neighbouring rows and under neighbouring seeds
    n = 200_000
    bound = 5.0 / math.sqrt(n)
    base = rng_mod.run_word_array(99, 4, 0, n + 1)
    pairs = {
        "next run, word 0": (base[0, :-1], base[0, 1:]),
        "next run, word 1": (base[1, :-1], base[1, 1:]),
        "word 0 of the next run after word 1": (base[1, :-1], base[0, 1:]),
        "the two words of a run": (base[0], base[1]),
    }
    for label, other in (("next row", rng_mod.run_word_array(99, 5, 0, n + 1)),
                         ("next seed", rng_mod.run_word_array(100, 4, 0, n + 1))):
        for w in (0, 1):
            pairs[f"{label}, word {w}"] = (base[w], other[w])
    for label, (a, b) in pairs.items():
        assert abs(np.corrcoef(a, b)[0, 1]) < bound, label


# ---------------------------------------------------------------------------
# trials and runs
# ---------------------------------------------------------------------------


def per_run_oracle(engine, seed, row, n_runs):
    """Repeat-until-success as a plain loop: each run inverts the geometric
    tail (1 - p)^t at its first uniform u = w 2^-64 and walks the branch CDF
    with its second."""
    max_trials = engine.max_trials
    p = engine.p_click
    cdf = branch_cdf(engine.branches)
    trials_used, branch = [], []
    for run in range(n_runs):
        u_trials, u_branch = ((word_reference(seed, row, run, w) & WORD_MASK) * 2.0**-64
                              for w in (0, 1))
        if p >= 1.0:
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
    "label, engine, n_runs",
    [
        pytest.param(label, engine, n, id=label.replace(" ", "-"))
        for label, engine, n in (
            ("p_click near 1", make_engine(eta=1.0, dark=3.0e6, max_trials=40), 50),
            ("many trials", make_engine(eta=0.9, dark=1e5, max_trials=60), 60),
            ("budget exhausted", make_engine(eta=0.9, dark=1e5, max_trials=7), 80),
            ("certain click", make_engine(p=0.03, eta=1.0, dark=4.0e7, max_trials=40), 50),
            ("largest budget", make_engine(p=1.5e-5, eta=0.5, dark=0.0, max_trials=2**32), 400),
        )
    ],
)
def test_batch_matches_per_run_oracle(label, engine, n_runs):
    max_trials = engine.max_trials
    trials_used, branch = pr._run_batch(engine, 13, 2, 0, n_runs)
    assert trials_used.dtype == np.int64 and branch.dtype == np.int16
    expected = per_run_oracle(engine, 13, 2, n_runs)
    assert trials_used.tolist() == expected[0]
    assert branch.tolist() == expected[1]
    if label == "p_click near 1":
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
    engine = make_engine(eta=0.0, dark=0.0, max_trials=50)
    assert engine.p_click == 0.0
    tally = next(pr.run_rows([engine], 1, [3]))
    assert tally == pr.RunTally((3,) + (0,) * len(engine.branches), 0, 0)
    assert pr.aggregate(tally, engine).n_trials == 150  # each run used max_trials


def test_dark_clicks_on_empty_write_are_false_heralds():
    engine = make_engine(p=0.0, eta=0.6, dark=5e4, max_trials=5_000)
    tally = next(pr.run_rows([engine], 3, [64]))
    clicks = np.array(tally.counts[1:])
    assert tally.counts[0] == 0 and clicks.sum() == 64
    assert not clicks[~np.array([b.false_herald for b in engine.branches])].any()
    stats = pr.aggregate(tally, engine)
    assert stats.false_herald_fraction == 1.0
    assert stats.photon_yield == 0.0


def test_run_arrays_invariant():
    # a run without a click used the whole budget; a click picks a real branch
    engine = make_engine(p=0.1, max_trials=12)
    trials_used, branch = pr._run_batch(engine, 8, 0, 0, 400)
    assert np.all(trials_used[branch < 0] == 12)
    assert np.all((trials_used >= 1) & (trials_used <= 12))
    assert np.all(branch < len(engine.branches))
    assert np.any(branch < 0) and np.any((branch >= 0) & (trials_used < 12))


def test_scalar_and_batch_paths_agree():
    # a batch of one run is the single-run path; chunk boundaries change nothing
    engine = make_engine(max_trials=500)
    trials_used, branch = pr._run_batch(engine, 11, 0, 0, 40)
    for run in range(40):
        one = pr._run_batch(engine, 11, 0, run, run + 1)
        assert (one[0][0], one[1][0]) == (trials_used[run], branch[run])


def test_chunking_does_not_change_results():
    engine = make_engine(max_trials=2_000)
    n_runs = pr._STDLIB_CHUNK + 300  # two chunks
    chunked = pr.run_protocol(pr._stdlib_kernel, engine, seed=5, row=0, runs=n_runs,
                              chunk=pr._STDLIB_CHUNK)
    whole = reference_tally(*pr._run_batch(engine, 5, 0, 0, n_runs), len(engine.branches))
    assert chunked == whole
    assert sum(whole.counts) == n_runs


def test_progress_reports_each_chunk():
    engine = make_engine()
    seen = []
    chunk = pr._STDLIB_CHUNK
    pr.run_protocol(pr._stdlib_kernel, engine, 2, 3, chunk + 1, chunk,
                    report=lambda row, done: seen.append((row, done)))
    assert seen == [(3, chunk), (3, chunk + 1)]


# A row size that forces the standard-library kernel's trial table on
# wherever it can be built, whatever the runs drawn.
FORCE_TABLE = cfg_mod.COUNTER_LIMIT


def table_kernel(engine, runs, chunk):
    """The standard-library kernel with its trial table forced on."""
    return pr._stdlib_kernel(engine, FORCE_TABLE, chunk)


def trial_table(engine):
    """The forced trial table of the engine and its packing shift, as the
    standard-library kernel builds them."""
    shift = (pr._STDLIB_CHUNK * engine.max_trials).bit_length()
    return pr._trial_table(engine, FORCE_TABLE, shift), shift


def kernel_tallies(engine, seed, n_runs, row=0):
    """run_protocol's tally of runs 0 .. n_runs - 1 of row from the
    standard-library kernel, from it with its trial table forced on and from
    the numpy kernel, each in the chunks run_rows gives it."""
    return tuple(pr.run_protocol(kernel, engine, seed, row, n_runs, chunk)
                 for kernel, chunk in ((pr._stdlib_kernel, pr._STDLIB_CHUNK),
                                       (table_kernel, pr._STDLIB_CHUNK),
                                       (pr._numpy_kernel, pr._NUMPY_CHUNK)))


PRESET_ENGINE = cfg_mod.build_setup(cfg_mod.load_config(preset="rb85-87"))
EXACT_ENGINE = cfg_mod.build_setup(cfg_mod.load_config(
    preset="rb85-87", overrides=["engine=exact", "cutoff=10"]))


KERNEL_CASES = [
    ("preset", PRESET_ENGINE),
    ("exact cutoff 10", EXACT_ENGINE),
    ("p = 0", make_engine(eta=0.0, dark=0.0, max_trials=40)),
    ("p = 1", cfg_mod.build_setup(cfg_mod.load_config(
        preset="rb85-87", overrides=["dark_rate_hz=1e12"]))),
    ("max_trials 1", make_engine(p=0.1, eta=0.1, dark=0.0, max_trials=1)),  # p_click 0.002
    ("max_trials 50", make_engine(p=0.1, eta=0.1, dark=0.0, max_trials=50)),
    ("largest budget", make_engine(p=1.5e-5, eta=0.5, dark=0.0, max_trials=2**32)),
]


@pytest.mark.parametrize("label, engine", [
    pytest.param(label, engine, id=label.replace(" ", "")) for label, engine in KERNEL_CASES])
@pytest.mark.parametrize("n_runs", [1, 2047, 2048, 2049, 4095, 4096, 4097, 8193])
def test_kernels_give_equal_tallies(label, engine, n_runs):
    if label == "p = 0":
        assert engine.p_click == 0.0
    elif label == "p = 1":
        assert engine.p_click == 1.0
    for seed in (0, 1, 2**64 - 1):
        for row in (0, cfg_mod.ROW_LIMIT - 1):
            stdlib, table, numpy_ = kernel_tallies(engine, seed, n_runs, row)
            assert stdlib == table == numpy_, (seed, row)
            assert sum(stdlib.counts) == n_runs
    if label.startswith("max_trials"):  # the budget cuts some runs, not all
        stdlib, _, _ = kernel_tallies(engine, 1, 8193)
        assert 0 < stdlib.counts[0] < 8193


def test_kernels_agree_on_a_branch_edge():
    # A uniform lands on a given CDF entry with probability 2^-53 per run, so
    # the entries are placed on drawn words instead: a word equal to an entry
    # takes the next branch, and entries below 1/2 need not be multiples of
    # 2^-53, so the words' integer thresholds round up.
    words = [w >> 11 for w in lane_words(3, 0, 0, 64)[1]]
    k = next(w for w in words if w < 2**52)
    for edge in (k * 2.0**-53, (k + 0.5) * 2.0**-53, (k - 0.5) * 2.0**-53):
        branches = [HeraldBranch("photon", 1, edge), HeraldBranch("photon", 1, 1.0 - edge)]
        assert branch_cdf(branches) == [edge, 1.0]
        engine = fake_engine(branches, 1.0, 10)
        stdlib, table, numpy_ = kernel_tallies(engine, 3, 64)
        assert stdlib == table == numpy_
        assert stdlib.counts == (0, sum(w * 2.0**-53 < edge for w in words),
                                 sum(w * 2.0**-53 >= edge for w in words))


def feed_words(monkeypatch, first, second):
    """Make run r of every seed and row draw the words first[r] 2^11 and
    second[r] 2^11 (first and second hold 53-bit k) from one buffer of
    lanes, in rng.run_word_array (the numpy kernel's draw) and in
    rng.run_words (the standard-library kernel's)."""
    lanes = np.zeros((len(first), 4), dtype="<u8")
    lanes[:, 0], lanes[:, 2] = first, second
    lanes <<= np.uint64(11)
    monkeypatch.setattr(rng_mod, "run_words", lambda seed, row, lo, hi: lanes[lo:hi].tobytes())
    monkeypatch.setattr(rng_mod, "run_word_array",
                        lambda seed, row, lo, hi: lanes[lo:hi, 0::2].T.copy())


def near_integer_words(p, max_trials):
    """First words k = round(2^53 (1 - (1 - p)^t)) + d for d in -2 .. 2, whose
    quotients log1p(-k 2^-53) / log1p(-p) lie next to t, for t in 1, 2, 17,
    max_trials - 1, max_trials and max_trials + 1.  (1 - p)^t is taken as
    exp(t log1p(-p)): rounding 1 - p first would move k by up to
    t (1 - p)^t / 2, past the five words."""
    ts = (1, 2, 17, max_trials - 1, max_trials, max_trials + 1)
    return {t: [round(-2.0**53 * math.expm1(t * math.log1p(-p))) + d for d in range(-2, 3)]
            for t in ts}


# Two branches, so that each run's second word picks one of them.
TWO_BRANCHES = [HeraldBranch("photon", 1, 0.25), HeraldBranch("dark", 0, 0.75)]


@pytest.mark.parametrize("p, max_trials", [
    (0.01, 50), (0.3, 20), (0.5, 20), (PRESET_ENGINE.p_click, 100), (1e-4, 3000)])
def test_kernels_take_trials_from_math_log1p_next_to_an_integer(monkeypatch, p, max_trials):
    # T = floor(math.log1p(-u) / math.log1p(-p)) + 1 for every run, from
    # either kernel, at first words whose quotients straddle each t,
    # max_trials included, one run per tally
    words = near_integer_words(p, max_trials)
    first = [k for ks in words.values() for k in ks]
    second = [k * 7919 % 2**53 for k in first]
    assert all(0 < k < 2**53 for k in first)
    feed_words(monkeypatch, first, second)
    engine = fake_engine(TWO_BRANCHES, p, max_trials)
    kernels = {"stdlib": pr._stdlib_kernel(engine, 1, pr._STDLIB_CHUNK),
               "table": table_kernel(engine, 1, pr._STDLIB_CHUNK),
               "numpy": pr._numpy_kernel(engine, 1, pr._NUMPY_CHUNK)}
    table, _ = trial_table(engine)
    for t, ks in words.items():  # the words straddle t
        trials = {math.floor(math.log1p(-k * 2.0**-53) / math.log1p(-p)) + 1 for k in ks}
        assert trials == {t, t + 1}, t
        # within max_trials the table path takes them from their own quotient
        entries = {table[k >> 37] for k in ks}
        assert entries == {pr._PER_RUN} if t <= max_trials else entries <= {pr._PER_RUN, pr._MISS}
    for run, (k1, k2) in enumerate(zip(first, second)):
        t = math.floor(math.log1p(-k1 * 2.0**-53) / math.log1p(-p)) + 1
        expected = word_tally(engine, [k1], [k2])
        assert expected.counts[0] == (t > max_trials)
        assert expected.trials_sum == (t if t <= max_trials else 0)
        for name, tally in kernels.items():
            assert tally(0, 0, run, run + 1) == expected, (name, t, k1)


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_numpy_kernel_does_not_depend_on_the_last_bit_of_log1p(monkeypatch, direction):
    # np.log1p one ulp off changes no T: a quotient that the nudge moves
    # across an integer lies within max_trials 2^-40 of it, where _run_batch
    # takes math.log1p instead
    p, max_trials = PRESET_ENGINE.p_click, 100
    first = [k for ks in near_integer_words(p, max_trials).values() for k in ks]
    second = [k * 7919 % 2**53 for k in first]
    feed_words(monkeypatch, first, second)
    engine = fake_engine(TWO_BRANCHES, p, max_trials)
    stdlib = pr._stdlib_kernel(engine, len(first), pr._STDLIB_CHUNK)
    log1p = np.log1p

    def nudged(x):
        return np.nextafter(log1p(x), direction)

    u = np.array(first) * 2.0**-53
    moved = np.floor(nudged(-u) / engine.log_q) != [math.floor(math.log1p(-x) / engine.log_q)
                                                   for x in u.tolist()]
    assert moved.any()  # the nudge moves a quotient across an integer
    monkeypatch.setattr(np, "log1p", nudged)
    numpy_ = pr._numpy_kernel(engine, len(first), pr._NUMPY_CHUNK)
    assert numpy_(0, 0, 0, len(first)) == stdlib(0, 0, 0, len(first))
    for run in range(len(first)):
        assert numpy_(0, 0, run, run + 1) == stdlib(0, 0, run, run + 1), run


def drive_grid_engines():
    """The eight rows of the drive-grid benchmark workload, p_click 0.00125 .. 0.105."""
    return {f"eta {eta} drives {a:g} {b:g}": cfg_mod.build_setup(cfg_mod.load_config(
        preset="rb85-87", overrides=[f"eta={eta}", f"omega_rabi_write_I={a}",
                                     f"omega_rabi_write_II={b}"]))
        for eta, a, b in itertools.product((0.2, 0.9), (5e6, 2.5e7), (5e6, 2.5e7))}


# A word whose quotient is 1 lies 1000 words above the first word of bucket
# 655, so the window of quotients within max_trials 2^-40 = 100 2^-40 of 1
# (about 8,000 words to each side here) reaches into bucket 654.
STRADDLE_P = (655 * 2**37 + 1000) * 2.0**-53

TABLE_CASES = {
    **{label: engine for label, engine in KERNEL_CASES if label != "p = 0"},  # p = 0 draws nothing
    **drive_grid_engines(),
    "eta 1e-9": cfg_mod.build_setup(cfg_mod.load_config(preset="rb85-87", overrides=["eta=1e-9"])),
    "window across a bucket edge": fake_engine(TWO_BRANCHES, STRADDLE_P, 100),
}


@pytest.mark.parametrize("label", TABLE_CASES)
def test_trial_table_entries_hold_at_both_edges_of_their_bucket(label):
    # Bucket b holds the words b 2^37 .. (b + 1) 2^37 - 1.  An entry T holds
    # for both edges, and the quotients between them stay clear of every
    # window of quotients within tol of an integer in [1, max_trials]; a miss
    # lies past the max_trials window; a per-run bucket meets a window or
    # lies where the windows are at most a bucket apart, before the max_trials one.
    engine = TABLE_CASES[label]
    table, shift = trial_table(engine)
    if label == "largest budget":  # p_click 2.25e-10: almost every bucket would be per run
        assert table is None
        return
    assert len(table) == 2**16
    max_trials, tol = engine.max_trials, engine.max_trials * 2.0**-40
    buckets = np.arange(2**16, dtype=np.int64)
    with np.errstate(divide="ignore"):  # log_q = -inf at p_click = 1
        q_lo, q_hi = (np.log1p(-(k * 2.0**-53)) / engine.log_q
                      for k in (buckets << 37, (buckets + 1 << 37) - 1))
    integer = np.maximum(np.ceil(q_lo - tol), 1)
    meets = (integer <= q_hi + tol) & (integer <= max_trials)
    entries = np.array(table)
    per_run, miss = entries == pr._PER_RUN, entries == pr._MISS
    packed = ~per_run & ~miss
    t = entries[packed] & (1 << shift) - 1
    assert np.array_equal(entries[packed] >> shift, t * t) and t.max() <= max_trials
    assert not meets[packed].any()
    assert np.array_equal(np.floor(q_lo[packed]) + 1, t)
    assert np.array_equal(np.floor(q_hi[packed]) + 1, t)
    assert (q_lo[miss] >= max_trials + tol).all()
    last_t = np.flatnonzero(packed)[-1]
    stretch = np.flatnonzero(per_run & ~meets)  # from the stop to the max_trials window
    assert (stretch > last_t).all() and not miss[last_t:stretch.max(initial=last_t)].any()
    assert np.count_nonzero(per_run) <= 2**14
    if label == "window across a bucket edge":
        assert meets[654] and per_run[654] and np.floor(q_hi[654]) == 0


def transitions(engine):
    """The forced trial table of the engine, its packing shift and the
    largest T it packs, one build step per T."""
    table, shift = trial_table(engine)
    return table, shift, max(e & (1 << shift) - 1 for e in table if e > 0)


@pytest.mark.parametrize("label", ["eta 0.2 drives 5e+06 5e+06", "preset"])
def test_trial_table_caps_its_transitions_by_the_runs(label):
    # each T costs a build step and the fill _TABLE_FILL more: a row of runs
    # runs builds at most runs // 16 - _TABLE_FILL of them (p_click 0.00125
    # and the preset's 0.0108)
    engine = TABLE_CASES[label]
    table, shift, steps = transitions(engine)
    assert 500 < steps < engine.max_trials
    runs = 16 * (steps + pr._TABLE_FILL)
    assert pr._trial_table(engine, runs, shift) == table
    assert pr._trial_table(engine, runs - 1, shift) is None


@pytest.mark.parametrize("label, runs", [("preset", 2000), ("eta 0.2 drives 5e+06 5e+06", 40000)])
def test_trial_table_refuses_a_row_before_it_builds(monkeypatch, label, runs):
    # a refused row pays for at most the two window edges at the cap, not
    # for building T up to it (2,500 T, two expm1 calls each, in the second)
    engine = TABLE_CASES[label]
    _, shift = trial_table(engine)
    expm1, calls = math.expm1, []
    monkeypatch.setattr(math, "expm1", lambda x: calls.append(x) or expm1(x))
    assert pr._trial_table(engine, runs, shift) is None
    assert len(calls) <= 2


def test_stdlib_kernel_asks_trial_table_for_every_row(monkeypatch):
    # _trial_table alone decides whether a row pays for its table
    built = []
    monkeypatch.setattr(pr, "_trial_table", lambda engine, runs, shift: built.append(runs))
    for runs in (1, 2000, 40000, FORCE_TABLE):
        pr._stdlib_kernel(PRESET_ENGINE, runs, pr._STDLIB_CHUNK)
    assert built == [1, 2000, 40000, FORCE_TABLE]


BUCKET = 2**45  # the words sharing a top byte: k >> 45, k < 2^53


def word_tally(engine, trials, branches):
    """RunTally of runs given by their 53-bit words, run by run in floats:
    T = floor(log1p(-u1) / log1p(-p)) + 1, and the branch the number of CDF
    entries at or below u2, clipped to the last branch (np.searchsorted with
    side="right", as in _run_batch)."""
    p, max_trials = engine.p_click, engine.max_trials
    cdf = branch_cdf(engine.branches)
    counts = [0] * (len(engine.branches) + 1)
    trials_sum = trials_sq_sum = 0
    for k1, k2 in zip(trials, branches):
        t = math.floor(math.log1p(-k1 * 2.0**-53) / math.log1p(-p)) + 1 if p < 1.0 else 1
        if t > max_trials:
            counts[0] += 1
            continue
        b = min(bisect.bisect_right(cdf, k2 * 2.0**-53), len(engine.branches) - 1)
        counts[1 + b] += 1
        trials_sum, trials_sq_sum = trials_sum + t, trials_sq_sum + t * t
    return pr.RunTally(tuple(counts), trials_sum, trials_sq_sum)


def edge_words(thresholds):
    """Words next to each threshold t (t - 1, t, t + 1) and on the edges of
    its top-byte bucket and of the neighbouring buckets, below 2^53."""
    words = set()
    for t in thresholds:
        b = t >> 45
        for edge in ((b - 1) * BUCKET, b * BUCKET, (b + 1) * BUCKET, (b + 2) * BUCKET):
            words.update((edge - 1, edge))
        words.update((t - 1, t, t + 1))
    return sorted(w for w in words if 0 <= w < 2**53)


# Trial words whose runs click within max_trials = 50 at p = 0.01 (u < 0.39)
# and whose runs do not (u > 0.40).
HIT_WORDS = [0, 1, 2**52 // 3, 2**53 // 3]
MISS_WORDS = [2**53 - 1, 2**53 - 2**40, 2**52 + 2**51]


def check_chunks(monkeypatch, click_branches):
    """Each kernel's tally of three chunks that hold the edge words of the
    branches' thresholds as branch words, against word_tally: in the first
    chunk every run clicks within max_trials, in the second some runs do
    not, whose words the kernels leave out of the branch count, and in the
    third none does."""
    engine = fake_engine(click_branches, 0.01, 50)
    thresholds = engine.thresholds
    branches = edge_words(thresholds)
    n = len(branches)
    chunks = [[words[i % len(words)] for i in range(n)]
              for words in (HIT_WORDS, HIT_WORDS + MISS_WORDS, MISS_WORDS)]
    feed_words(monkeypatch, [k for trials in chunks for k in trials], branches * len(chunks))
    tallies = (pr._stdlib_kernel(engine, n, pr._STDLIB_CHUNK),
               table_kernel(engine, n, pr._STDLIB_CHUNK),
               pr._numpy_kernel(engine, n, pr._NUMPY_CHUNK))
    assert trial_table(engine)[0] is not None
    for i, trials in enumerate(chunks):
        expected = word_tally(engine, trials, branches)
        for tally in tallies:
            assert tally(0, 0, i * n, (i + 1) * n) == expected, i
        assert [expected.counts[0] == 0, 0 < expected.counts[0] < n, expected.counts[0] == n][i]
        if i == 0:  # a branch between two distinct thresholds holds words
            edges = zip([0, *thresholds], [*thresholds, 2**53])
            assert all(c for c, (lo, hi) in zip(expected.counts[1:], edges) if lo < hi)


@pytest.mark.parametrize("bucket", [0, 1, 100, 127, 128, 254, 255])
def test_kernels_count_words_on_bucket_edges(monkeypatch, bucket):
    # Thresholds at a bucket's first word, inside it (one that is a multiple
    # of 2^-53 and, below 1/2, one halfway between two words) and at the next
    # bucket's first word; words on every edge of those buckets and next to
    # every threshold, so an off-by-one bucket or threshold moves a count.
    lo = bucket * BUCKET
    entries = [lo * 2.0**-53, (lo + 12345) * 2.0**-53, (lo + BUCKET // 2 - 0.5) * 2.0**-53,
               (lo + BUCKET) * 2.0**-53, 1.0]
    cdf = sorted({c for c in entries if 0.0 < c <= 1.0})
    branches = [HeraldBranch("photon", 1, b - a) for a, b in zip([0.0, *cdf], cdf)]
    assert branch_cdf(branches) == cdf  # the weights' CDF is the entries, exactly
    check_chunks(monkeypatch, branches)


def test_kernels_count_words_at_the_exact_engine_thresholds(monkeypatch):
    # The 23 branches of the exact engine at cutoff 10: nine thresholds share
    # the top byte 246 and six share 255, and seven CDF entries are 1.0, a
    # threshold of 2^53 that no word reaches.
    cdf = branch_cdf(EXACT_ENGINE.branches)
    assert len(cdf) == 23
    thresholds = EXACT_ENGINE.thresholds
    assert thresholds == tuple(math.ceil(c * 2.0**53) for c in cdf[:-1])
    assert 2**53 in thresholds and len({t >> 45 for t in thresholds}) < len(thresholds)
    check_chunks(monkeypatch, EXACT_ENGINE.branches)


@pytest.mark.parametrize("engine", [pytest.param(PRESET_ENGINE, id="preset"),
                                    pytest.param(EXACT_ENGINE, id="exactcutoff10")])
@pytest.mark.parametrize("n_runs", [2**17 - 1, 2**17])
def test_kernels_give_equal_tallies_at_the_numpy_threshold(engine, n_runs):
    stdlib, table, numpy_ = kernel_tallies(engine, 20111105, n_runs, row=7)
    assert stdlib == table == numpy_
    assert sum(stdlib.counts) == n_runs


def test_kernels_give_equal_tallies_over_a_million_runs():
    stdlib, table, numpy_ = kernel_tallies(PRESET_ENGINE, 20111105, 10**6 + 3)
    assert stdlib == table == numpy_
    assert sum(stdlib.counts) == 10**6 + 3 and all(stdlib.counts[1:5])


def test_small_invocations_draw_without_the_numpy_kernel(monkeypatch):
    # the invocation's runs in all pick the kernel, not one row's: row 0's
    # 300 runs draw with numpy beside a row that brings the total to 2^17
    engine = make_engine()
    expected = pr.run_protocol(pr._numpy_kernel, engine, 4, 0, 300, pr._NUMPY_CHUNK)

    def refuse(*args):
        raise AssertionError("numpy kernel called")

    monkeypatch.setattr(pr, "_run_batch", refuse)
    assert next(pr.run_rows([engine], 4, [300])) == expected
    assert next(pr.run_rows([engine] * 2, 4, [300, pr._NUMPY_RUNS - 301])) == expected
    with pytest.raises(AssertionError, match="numpy kernel"):
        next(pr.run_rows([engine] * 2, 4, [300, pr._NUMPY_RUNS - 300]))
    with pytest.raises(AssertionError, match="numpy kernel"):
        next(pr.run_rows([engine], 4, [pr._NUMPY_RUNS]))


def test_trials_to_success_geometric_mean():
    engine = make_engine()
    tally = next(pr.run_rows([engine], 21, [20_000]))
    stats = pr.aggregate(tally, engine)
    expected_mean = 1.0 / engine.p_click
    assert stats.mean_trials == pytest.approx(
        expected_mean, abs=3.0 * stats.mean_trials_stderr
    )
    assert stats.p_click == pytest.approx(
        engine.p_click, abs=3.0 * stats.p_click_stderr
    )


def test_no_success_fraction_matches_geometric_tail():
    engine = make_engine(max_trials=60)
    n_runs = 20_000
    failures = next(pr.run_rows([engine], 19, [n_runs])).counts[0]
    tail = (1.0 - engine.p_click) ** 60
    sigma = math.sqrt(tail * (1.0 - tail) / n_runs)
    assert abs(failures / n_runs - tail) <= 3.0 * sigma


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    p=st.floats(0.02, 0.25), p_ii=st.floats(0.0, 0.25), eta=st.floats(0.05, 1.0),
    dark=st.floats(0.0, 1e5), max_trials=st.integers(1, 10_000),
    engine=st.sampled_from(cfg_mod.ENGINES), seed=st.integers(0, 2**64 - 1),
)
def test_repeat_until_success_estimates_match_the_engine(p, p_ii, eta, dark, max_trials,
                                                         engine, seed):
    # the Monte Carlo check of the repeat-until-success statistics: each
    # estimate lies within 5 standard errors of the engine's analytic value
    table = make_engine(p=p, p_ii=p_ii, eta=eta, dark=dark, max_trials=max_trials,
                        engine=engine)
    run_success = -math.expm1(max_trials * math.log1p(-table.p_click))
    n_runs = min(2**15, math.ceil(2000 / run_success))
    assume(n_runs * run_success >= 500)  # enough successes for the normal tails
    stats = pr.aggregate(next(pr.run_rows([table], seed, [n_runs])), table)
    assert abs(stats.p_click - stats.p_click_analytic) <= 5 * stats.p_click_stderr
    f = stats.false_herald_analytic
    if stats.n_success:
        bound = 5 * math.sqrt(f * (1 - f) / stats.n_success)
        assert abs(stats.false_herald_fraction - f) <= bound


def test_no_success_within_budget_is_explicit():
    engine = make_engine(eta=0.0, dark=0.0, max_trials=5)
    tally = next(pr.run_rows([engine], 9, [4]))
    assert tally.counts[0] == 4
    stats = pr.aggregate(tally, engine)
    assert stats.n_success == 0 and stats.n_trials == 20
    assert math.isnan(stats.mean_trials)
    assert stats.p_click == 0.0 and math.isnan(stats.p_click_stderr)
    # a click could have been drawn, but none was: p_click 0 is no exact estimate
    rare = cfg_mod.build_setup(cfg_mod.load_config(
        preset="rb85-87", overrides=["eta=0.01", "max_trials=2"]))
    stats = pr.aggregate(next(pr.run_rows([rare], 1, [20])), rare)
    assert stats.p_click_analytic > 0.0 and stats.n_success == 0
    assert stats.p_click == 0.0 and math.isnan(stats.p_click_stderr)


@pytest.mark.filterwarnings("ignore:excitation amplitude:UserWarning")
@pytest.mark.parametrize("sets", [[], ["--set", "eta=1", "--set", "tau_write=4e-5"]],
                         ids=["one-success", "every-trial-clicked"])
def test_no_stderr_from_a_sample_that_cannot_give_one(tmp_path, sets):
    # one run: one success, whose trials give no variance, and with a click
    # almost certain, p_click 1 from one trial, where the Wald form reads 0
    out = tmp_path / "row.json"
    argv = ["protocol", "--preset", "rb85-87", "--runs", "1", "--seed", "1", "--format", "json"]
    assert main([*argv, *sets, "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())["results"]
    assert row["n_success"] == 1 and row["mean_trials_stderr"] is None
    if sets:
        assert row["p_click"] == 1.0 and row["p_click_stderr"] is None
        assert row["p_click_analytic"] == pytest.approx(0.99465, abs=5e-6)
    else:
        assert 0.0 < row["p_click"] < 1.0 and row["p_click_stderr"] > 0.0


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
    return pr.RunTally(tuple(counts), sum(won), sum(t * t for t in won))


@pytest.fixture
def tally(monkeypatch):
    """tally(trials_used, branch, branches): run_protocol's tally of the given
    per-run arrays, fed to its numpy kernel chunk by chunk in place of the
    random draws."""

    def streamed(trials_used, branch, branches):
        trials_used = np.asarray(trials_used, dtype=np.int64)
        branch = np.asarray(branch, dtype=np.int16)
        monkeypatch.setattr(pr, "_run_batch", lambda engine, seed, row, lo, hi:
                            (trials_used[lo:hi], branch[lo:hi]))
        engine = fake_engine(branches, 0.5, int(trials_used.max()))
        result = pr.run_protocol(pr._numpy_kernel, engine, 0, 0, len(branch), pr._NUMPY_CHUNK)
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
    stats = pr.aggregate(tally(np.full(10, 3), np.zeros(10), branches),
                         table(branches, _qubit(s, -s)))
    assert stats.mean_concurrence == pytest.approx(1.0)
    assert stats.photon_yield == pytest.approx(1.0)
    assert stats.mean_trials == 3.0


def test_aggregate_half_false_heralds(tally):
    s = 1 / math.sqrt(2)
    branches = _branches(TRUE, ("dark", 0))
    stats = pr.aggregate(tally(np.ones(10), [0, 1] * 5, branches), table(branches, _qubit(s, -s)))
    assert stats.false_herald_fraction == pytest.approx(0.5)
    assert stats.photon_yield == pytest.approx(0.5)
    assert stats.mean_concurrence == pytest.approx(1.0)  # true heralds only


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
    stats = pr.aggregate(run_tally, table(branches, q, max_trials=400))
    won = [(int(t), int(b)) for t, b in zip(trials_used, branch) if b >= 0]
    assert run_tally.counts == tuple(int(np.count_nonzero(branch == b)) for b in range(-1, 5))
    assert stats.n_success == len(won) and stats.n_trials == sum(trials_used.tolist())
    assert stats.false_herald_fraction == sum(flags[b] for _, b in won) / len(won)
    mean_t, stderr_t = exact_mean_stderr([t for t, _ in won])
    assert stats.mean_trials == float(mean_t)
    assert abs(stats.mean_trials_stderr - stderr_t) <= 2 * math.ulp(stderr_t)
    photon_yield, _ = exact_mean_stderr([efficiency[b] for _, b in won])
    assert stats.photon_yield == pytest.approx(float(photon_yield), rel=1e-15, abs=0)
    true = [b for _, b in won if not flags[b]]
    for mean, value in ((stats.mean_concurrence, concurrence(q)),
                        (stats.mean_fidelity_bell, fidelity_to_bell(q))):
        exact_mean, _ = exact_mean_stderr([value] * len(true))
        assert mean == float(exact_mean) == value


def test_aggregate_trial_sums_exact_at_max_trials(tally):
    # T within a few units of max_trials = 2^32, where T^2 overflows int64;
    # more runs than one chunk
    rs = np.random.default_rng(5)
    n_runs = pr._NUMPY_CHUNK + 3001
    trials_used = 2**32 - rs.integers(0, 8, n_runs)
    branch = np.where(rs.uniform(size=n_runs) < 0.1, -1, 0)
    trials_used[branch < 0] = 2**32
    branches = _branches(TRUE)
    stats = pr.aggregate(tally(trials_used, branch, branches),
                         table(branches, _qubit(0.6, 0.8), max_trials=2**32))
    assert stats.n_trials == sum(trials_used.tolist())
    mean, stderr = exact_mean_stderr(trials_used[branch >= 0].tolist())
    assert stats.mean_trials == float(mean)
    assert abs(stats.mean_trials_stderr - stderr) <= 2 * math.ulp(stderr)


def test_aggregate_exact_when_true_heralds_agree(tally):
    # every true herald retrieves the one qubit: the means are its values,
    # however often it was drawn among false heralds
    q = _qubit(math.cos(0.4), math.sin(0.4))
    branches = _branches(TRUE, ("dark", 0), ("photon", 2))
    branch = np.repeat([0, 1, 2, -1], [1234, 50, 777, 9])
    stats = pr.aggregate(tally(np.full(branch.size, 7), branch, branches), table(branches, q))
    assert stats.mean_concurrence == concurrence(q) == 2.0 * math.cos(0.4) * math.sin(0.4)
    assert stats.mean_fidelity_bell == fidelity_to_bell(q)


def test_photon_yield_counts_the_one_pair_clicks(tally):
    # efficiency x (one-pair hits / successes): the efficiency itself when
    # every success clicked on an n = 1 branch, whatever the branch's kind
    branches = _branches(TRUE, ("dark", 1), ("dark", 0), ("photon", 2))
    q = _qubit(0.6, 0.8, 0.7)
    only_one_pair = np.repeat([0, 1, -1], [123, 45, 6])
    stats = pr.aggregate(tally(np.full(only_one_pair.size, 5), only_one_pair, branches),
                         table(branches, q))
    assert stats.photon_yield == 0.7
    mixed = np.repeat([0, 1, 2, 3], [300, 11, 29, 7])
    stats = pr.aggregate(tally(np.ones(mixed.size), mixed, branches), table(branches, q))
    assert stats.photon_yield == 0.7 * (311 / 347)
    none = np.repeat([2, 3, -1], [5, 8, 2])
    stats = pr.aggregate(tally(np.full(none.size, 9), none, branches), table(branches, q))
    assert stats.photon_yield == 0.0
    assert math.isnan(stats.mean_concurrence) and math.isnan(stats.mean_fidelity_bell)
    dark_one_pair = np.ones(10, dtype=int)  # a qubit that retrieves nothing yields 0
    stats = pr.aggregate(tally(np.ones(10), dark_one_pair, branches),
                         table(branches, _qubit(0.0, 0.0, 0.0)))
    assert stats.photon_yield == 0.0


def test_dark_one_pair_click_yields_the_qubit_outside_the_metrics(tally):
    # a dark click on the one-pair component leaves the heralded spin pair: it
    # retrieves the qubit (photon_yield) but is a false herald (no metrics)
    engine = make_engine(p=0.1, eta=0.6, dark=5e4, p_ii=0.05)
    kinds = [(b.kind, b.n_photons) for b in engine.branches]
    true, dark = kinds.index(TRUE), kinds.index(("dark", 1))
    branches, q = engine.branches, engine.qubit
    assert branches[dark].false_herald and not branches[true].false_herald
    assert (branch_yield(branches, q, dark) == branch_yield(branches, q, true)
            == q.retrieval_efficiency == 1.0)
    assert concurrence(q) < 1.0
    only_dark = pr.aggregate(tally(np.full(5, 2), np.array([dark] * 4 + [-1]), branches), engine)
    assert only_dark.photon_yield == q.retrieval_efficiency
    assert only_dark.false_herald_fraction == 1.0
    assert math.isnan(only_dark.mean_concurrence) and math.isnan(only_dark.mean_fidelity_bell)
    both = pr.aggregate(tally(np.ones(4), np.array([dark, true, dark, true]), branches), engine)
    assert both.photon_yield == q.retrieval_efficiency
    assert both.mean_concurrence == concurrence(q)
    assert both.mean_fidelity_bell == fidelity_to_bell(q)


# ---------------------------------------------------------------------------
# sweeps and symmetry
# ---------------------------------------------------------------------------


def test_sweep_concurrence_peaks_at_balanced_drive():
    engines = [make_engine(p=0.1 * r, p_ii=0.1) for r in (0.5, 1.0, 2.0)]
    rows = sweep_rows(engines, seed=17, n_runs=400)
    conc = [r.mean_concurrence for r in rows]
    assert conc[1] == pytest.approx(1.0, abs=1e-12)
    assert conc[1] > conc[0] and conc[1] > conc[2]


def test_species_swap_leaves_statistics_invariant():
    a, b = sweep_rows([make_engine(p=0.12, p_ii=0.06)], 23, 500) + sweep_rows(
        [make_engine(p=0.06, p_ii=0.12)], 23, 500
    )
    assert a.p_click == b.p_click
    assert a.mean_concurrence == pytest.approx(b.mean_concurrence, abs=1e-12)
    assert a.false_herald_fraction == b.false_herald_fraction


def test_exact_engine_close_to_perturbative():
    # order-2 expansion differs from the exact evolution at relative O(P^2)
    pert = make_engine(engine="perturbative", cutoff=3)
    exact = make_engine(engine="exact", cutoff=3)
    assert exact.p_click == pytest.approx(pert.p_click, rel=5e-2)
    assert exact.false_fraction == pytest.approx(pert.false_fraction, rel=1e-1)


def test_dark_count_zero_cutoff_one_every_click_true():
    engine = make_engine(dark=0.0, cutoff=1, max_trials=2_000)
    _, branch = pr._run_batch(engine, 31, 0, 0, 200)
    clicked = branch[branch >= 0]
    assert clicked.size
    assert not np.array([b.false_herald for b in engine.branches])[clicked].any()
    yields = [branch_yield(engine.branches, engine.qubit, i) for i in range(len(engine.branches))]
    assert (np.array(yields)[clicked] == 1.0).all()
    q = engine.qubit
    assert abs(q.c1) ** 2 + abs(q.c2) ** 2 == pytest.approx(1.0, abs=1e-12)
