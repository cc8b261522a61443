"""Repeat-until-success Monte Carlo over write / detect trials.

A trial is one write pulse (tau_write) and one detection gate.  On a click
the heralded spin state is read out into the output photon qubit; on no
click the ensemble is reset (modeled as perfect) and the next trial starts
fresh.  Trials repeat until a click or until max_trials is exhausted (an
explicit no-success result, not an error).  The read pulse and the cycle
period take no part: no reported number depends on them.

The write stage is the same on every trial, so it is computed once per
configuration (ProtocolEngine) as a table of at most 2 cutoff + 3 click
branches, two of them for the exact state's weight above the cutoff, and
one output qubit: every branch with n = 1 leaves the same heralded spin
state, and no other branch holds a single excitation.  A run then reduces
to two numbers: the trials it used and the branch it clicked on (-1 when
max_trials passed without a click).
run_protocol tallies each chunk of runs as it is drawn (runs per outcome
and sums of T and T^2 over successful runs), so memory does not grow with
the run count, and aggregate computes one output row from that tally, the
trials drawn (a run without a click used max_trials), the per-branch
false-herald flags and photon numbers, the qubit's concurrence, fidelity
and retrieval efficiency, and the engine's analytic click probability and
false fraction.  The engine and aggregate are standard library.

The ensemble reset is perfect, so trials are independent and a run's trials
to its first click are Geometric(p_click).  Each run draws two words w1 and
w2, 53-bit integers times 2^11 (u = w 2^-64), from a SplitMix64 counter hash
of (master seed, sweep row, run index) (fmesim.rng), and the engine holds
the one rule that maps them to its result: T = floor(math.log1p(-u1) /
log_q) + 1, no success when T > max_trials, and the branch is the number of
integer thresholds at or below w2 >> 11.  Two kernels apply it to a chunk of
these words, to the same RunTally: a standard-library one and the numpy one
(_run_batch).  For a row whose runs repay the table's build (_trial_table),
the standard-library kernel looks T up in a trial table keyed by the top 16
bits of w1, and takes the quotient only for the runs of buckets where the
table cannot tell T by construction.  A run's draws depend on nothing else,
so any partitioning of runs into batches produces the same tally.  run_rows
holds an invocation's one draw plan, read from its runs in all: below
_NUMPY_RUNS = 2^17 the standard-library kernel draws, so numpy is never
imported, and from there on the numpy kernel, each in chunks of its own
size.  Every run is drawn in this process, which forks nothing.
run_protocol draws one row's runs with the kernel and the chunk it is
given.  The write engine, "exact" or "perturbative", is chosen by
write_dynamics.write_state, whose module docstring describes both.
"""

from __future__ import annotations

import itertools
import math
from operator import mul, sub, truediv
from typing import NamedTuple

from . import herald as herald_mod
from . import retrieval as retrieval_mod
from . import rng as rng_mod
from . import write_dynamics as wd
from .herald import DetectorModel, HeraldBranch
from .retrieval import FmeQubitState, ReadParams
from .write_dynamics import SystemParams

# Runs per chunk, picked with the kernel by run_rows.  The standard-library
# kernel's chunk is one Python int of 128-bit lanes and its bytes, 32 B per
# run: at 2048 runs each stays below glibc malloc's 128 KiB mmap threshold,
# where at 4096 every chunk faulted fresh pages into the short-lived CLI
# (rb-protocol: 4,130 minor faults against 7,738, BENCH_34.json).  The numpy
# kernel's arrays are 64 KB at 4096 runs; at 2048 it took 21% more CPU over
# 10^7 runs, and 8192 peaked higher (BENCH_16.json).
_STDLIB_CHUNK = 2048
_NUMPY_CHUNK = 4096

# Invocations of at least this many runs in all draw them with numpy, and
# smaller ones with the standard library, which saves importing numpy (15.9
# against 29.7 MB peak).  In one process the standard library took 0.150 s
# to numpy's 0.196 s at 2^17 runs, 0.166 to 0.188 s at 2^18, 0.209 to
# 0.160 s at 2^19 and 0.547 to 0.274 s at 2^20 (medians of 10 alternating
# pairs, numpy on integer words, CHANGES.md, "One word format"); they meet
# between 2^18 and 2^19, but moving the threshold would re-point the numpy
# kernel's golden hash.
_NUMPY_RUNS = 1 << 17

# The trial table's fill of 2^16 entries, in builds of one T (_trial_table).
_TABLE_FILL = 192


class ProtocolStats(NamedTuple):
    """One output row: aggregates over completed runs, with the engine's
    analytic click probability and false-herald fraction beside their
    estimates; uncertainties are 1-sigma standard errors from the run count.
    The mean concurrence and fidelity are the one retrieved qubit's, so they
    have no standard error."""

    n_runs: int
    n_trials: int
    n_success: int
    p_click: float
    p_click_stderr: float
    p_click_analytic: float
    mean_trials: float
    mean_trials_stderr: float
    false_herald_fraction: float
    false_herald_analytic: float
    mean_concurrence: float
    mean_fidelity_bell: float
    photon_yield: float


class ProtocolEngine:
    """Trial-invariant write/herald/retrieve tables for one configuration.

    Keeps the SystemParams, DetectorModel and ReadParams it was built from.
    Holds the write-stage pair state (chain amplitudes and bright spin mode)
    and from it the click probability, the closed-form click branch table,
    the heralded spin pair and the one output qubit retrieved from it, so a
    run reduces to two words (trials to the first click, branch selection)
    and its result to (trials used, branch).

    p_click is the branch sum capped at 1, which rounding can exceed when
    the detector is certain to click; log_q = log1p(-p_click), -inf at
    p_click = 1, where every run clicks on its first trial.  thresholds are
    ceil(cdf_j 2^53) for every branch but the last: u = w 2^-64 >= cdf_j
    exactly when w >> 11 >= ceil(cdf_j 2^53); a word at or above the last
    threshold takes the last branch.  true_herald says whether any click
    branch is a true herald, a click that is not a false herald: a detected
    single photon, the one click that heralds the spin pair.
    """

    def __init__(self, system: SystemParams, detector: DetectorModel, read: ReadParams,
                 max_trials: int, engine: str, cutoff: int):
        self.system, self.detector, self.read, self.max_trials = system, detector, read, max_trials
        self.rates = rates = wd.derive_rates(system)
        self.write_state = wd.write_state(rates, cutoff, engine)
        self.branches: list[HeraldBranch] = herald_mod.click_branches(self.write_state, detector)
        # fsum, not sum: the builtin is compensated from Python 3.12 on, so its
        # last bit would depend on the interpreter
        total = math.fsum(b.probability for b in self.branches)
        self.p_click = p = min(total, 1.0)
        self.log_q = math.log1p(-p) if p < 1.0 else -math.inf
        # every listed branch has a positive weight, so total > 0 unless there are none
        cdf = itertools.accumulate(b.probability / total for b in self.branches)
        self.thresholds = tuple(math.ceil(c * 2.0**53) for c in cdf)[:-1]
        false = math.fsum(b.probability for b in self.branches if b.false_herald)
        self.false_fraction = false / total if total > 0.0 else 0.0
        self.true_herald = not all(b.false_herald for b in self.branches)
        self.spin = herald_mod.heralded_spin(self.write_state)
        self.qubit: FmeQubitState = retrieval_mod.retrieve_fme(self.spin, read)


def _run_batch(engine: ProtocolEngine, seed: int, row: int, run_lo: int, run_hi: int):
    """Repeat-until-success for the runs run_lo .. run_hi - 1, by the engine's
    rule (module docstring).  Returns two numpy arrays: trials_used (int64)
    and branch (int16, -1 for no click within max_trials).

    u = w 2^-64 is (w >> 1) 2^-63 exactly, taken through an int64 view, which
    converts to float faster than uint64.  numpy's log1p can differ from
    math.log1p in the last bit, which moves T only if the quotient lies within
    a few ulp of an integer, so quotients within max_trials 2^-40 of an
    integer in [1, max_trials] are taken again as math.log1p(-2^-64 w) /
    log_q.  The branch compares w >> 11 with the integer thresholds.
    """
    import numpy as np

    max_trials, log_q = engine.max_trials, engine.log_q
    first, second = rng_mod.run_word_array(seed, row, run_lo, run_hi)
    q = np.log1p((first >> np.uint64(1)).view(np.int64) * -2.0**-63) / log_q
    near = np.abs(q - np.rint(q)) <= max_trials * 2.0**-40
    if near.any():  # the integer is in [1, max_trials] when q is in [0.5, max_trials + 0.5)
        near = np.flatnonzero(near & (q >= 0.5) & (q < max_trials + 0.5))
        q[near] = [math.log1p(-2.0**-64 * w) / log_q for w in first[near].tolist()]
    trials_used = np.minimum(np.floor(q) + 1.0, max_trials)
    k = (second >> np.uint64(11)).view(np.int64)
    thresholds = np.array(engine.thresholds, dtype=np.int64)
    branch = np.where(q < max_trials, np.searchsorted(thresholds, k, side="right"), -1)
    return trials_used.astype(np.int64), branch.astype(np.int16)


class RunTally(NamedTuple):
    """The counts every statistic depends on: counts[0] runs without a click
    within max_trials and counts[1 + b] runs that clicked on branch b, and
    the exact sums of T and T^2 over the successful runs.  Each run without
    a click used max_trials trials, so aggregate derives the trials drawn."""

    counts: tuple[int, ...]
    trials_sum: int
    trials_sq_sum: int


def _numpy_kernel(engine: ProtocolEngine, runs: int, chunk: int):
    """The tally of runs lo .. hi - 1 from _run_batch's arrays, as a function
    of (seed, row, lo, hi); neither the row's size runs nor the chunk
    changes its code."""
    import numpy as np

    size = len(engine.branches) + 1

    def tally(seed: int, row: int, lo: int, hi: int) -> RunTally:
        trials_used, branch = _run_batch(engine, seed, row, lo, hi)
        won = trials_used[branch >= 0]
        # T <= 2^32, so T^2 overflows int64: square T = t1 2^16 + t0 by parts
        t1, t0 = won >> 16, won & 0xFFFF
        return RunTally(tuple(np.bincount(branch + 1, minlength=size).tolist()), int(won.sum()),
                        (int(t1 @ t1) << 32) + (int(t1 @ t0) << 17) + int(t0 @ t0))

    return tally


# Trial-table entries besides a packed T: a bucket whose runs take T from
# their own quotient, and one in which every run misses max_trials.
_PER_RUN, _MISS = -1, 0


def _trial_table(engine: ProtocolEngine, runs: int, shift: int):
    """The standard-library kernel's trial table for a row of runs runs, or
    None where it would not pay.

    Entry b covers the 2^37 words whose top 16 bits (k >> 37) are b.  The
    real quotient ln(1 - u) / log_q of a word lies within max_trials 2^-40
    of an integer t only in t's window, u from -expm1((t - tol) log_q) to
    -expm1((t + tol) log_q), widened by 2^-50 (8 words, far more than the
    rounding of expm1 and of its argument); there math.log1p's few-ulp
    error could move floor, and nowhere else.  So entry
    b is (T^2 << shift) + T where every word of the bucket has the same T,
    _MISS beyond the max_trials window and _PER_RUN where b meets a window.
    Building stops once consecutive windows are at most one bucket apart;
    every bucket from there to the max_trials window is _PER_RUN.

    Each T costs about 1.7 microseconds to build, the fill of its 2^16
    entries about 0.34 ms (_TABLE_FILL = 192 T), and the table saves about
    0.15 microsecond per run (medians, CHANGES.md, "decides before it
    builds"), so a row of runs runs pays for cap = runs // 16 - _TABLE_FILL
    T.  Unless the windows are at most one bucket apart by T = cap + 1,
    where the build then stops, it is refused before any build.  A _PER_RUN
    bucket's run costs more than one of the quotient path, so the table is
    also left out where more than 2^14 buckets are _PER_RUN."""
    max_trials, log_q = engine.max_trials, engine.log_q
    tol = max_trials * 2.0**-40

    def bucket(x: float, widen: float) -> int:  # of u = -expm1(x log_q) + widen
        return min(max(math.floor((widen - math.expm1(x * log_q)) * 2.0**16), 0), 0xFFFF)

    cap = runs // 16 - _TABLE_FILL  # the loop's stop test at t = cap + 1, before it runs
    if cap < 1 or cap < max_trials and (
            bucket(cap + 1 - tol, -2.0**-50) - bucket(cap + tol, 2.0**-50) > 2):
        return None
    table = []  # entries 0 .. len(table) - 1, built in order
    per_run = 0
    for t in range(1, max_trials + 1):
        first = bucket(t - tol, -2.0**-50)
        if first - len(table) <= 1:
            break
        table += itertools.repeat(t * t << shift | t, first - len(table))
        end = bucket(t + tol, 2.0**-50) + 1
        per_run += end - first
        table += itertools.repeat(_PER_RUN, end - first)
    miss = bucket(max_trials + tol, 2.0**-50) + 1
    if per_run + miss - len(table) > 2**14:
        return None
    table += itertools.repeat(_PER_RUN, miss - len(table))
    table += itertools.repeat(_MISS, 2**16 - miss)
    return table


def _stdlib_kernel(engine: ProtocolEngine, runs: int, chunk: int):
    """The numpy kernel's tally, from the words of rng.run_words with math and
    C-level map, sum and bytes methods, for a row of runs runs, one chunk of
    at most chunk runs (_STDLIB_CHUNK from run_rows) at a time.
    A word w gives u = w 2^-64 exactly, so its quotient math.log1p(-u) /
    log_q is the one that defines T, and T <= max_trials exactly when it is
    below max_trials.

    A row whose trial table pays (_trial_table) looks each run's T up in
    it by the top 16 bits of its first word, and only the runs of _PER_RUN
    buckets take their quotient; any other row takes every run's
    quotient.  The quotient is >= 0, so truncation gives its floor.  Sums
    over the successful runs are Python ints, which do not overflow: a table
    entry packs T^2 << shift with T, and the sum of T over a chunk is below
    2^shift, so one sum gives both.

    A branch counts the successful runs' words between two thresholds.  The
    words at or above a threshold t are counted without a sort: those whose
    top byte (k >> 45) is above t's, by deleting the lower bytes from a bytes
    object of the words' top bytes, plus those that share t's top byte and
    are >= t 2^11, compared one by one (8 words per threshold in a chunk of
    2048 runs, on average)."""
    max_trials, log_q = engine.max_trials, engine.log_q
    # (threshold as a word, its top byte, the bytes 0 .. that top byte); a
    # threshold at or above 2^53, which no word reaches, takes the top byte
    # 255 and deletes every byte.
    thresholds = []
    for t in engine.thresholds:
        top = min(t >> 45, 255)
        thresholds.append((t << 11, top, bytes(range(top + 1))))
    below_budget = float(max_trials).__gt__
    shift = (chunk * max_trials).bit_length()
    table = _trial_table(engine, runs, shift)

    def tally(seed: int, row: int, lo: int, hi: int) -> RunTally:
        n = hi - lo
        lanes = rng_mod.run_words(seed, row, lo, hi)
        words = memoryview(lanes).cast("Q")  # word w of run j is item 4 j + 2 w
        first, branch_words, tops = words[0::4], words[2::4], lanes[23::32]  # tops: top bytes
        hit = None  # each run's flag, true if it clicked in time, unless every run did
        if table is None:
            u = map(mul, itertools.repeat(-2.0**-64), first.tolist())  # -u, exactly
            quotients = list(map(truediv, map(math.log1p, u), itertools.repeat(log_q)))
            if max(quotients) >= max_trials:  # keep the runs that click in time
                hit = list(map(below_budget, quotients))
                quotients = itertools.compress(quotients, hit)
            floors = list(map(math.trunc, quotients))  # T - 1
            trials_sum = sum(floors) + len(floors)
            trials_sq_sum = sum(map(mul, floors, floors)) + 2 * trials_sum - len(floors)
        else:
            packed = list(map(table.__getitem__, memoryview(lanes).cast("H")[3::16]))
            i = 0
            for _ in range(packed.count(_PER_RUN)):
                i = packed.index(_PER_RUN, i)
                q = math.log1p(-2.0**-64 * first[i]) / log_q
                t = math.trunc(q) + 1
                packed[i] = t * t << shift | t if q < max_trials else _MISS
            total = sum(packed)
            trials_sum, trials_sq_sum = total & (1 << shift) - 1, total >> shift
            if _MISS in packed:
                hit = packed
        if hit is not None:
            branch_words = list(itertools.compress(branch_words, hit))
            tops = bytes(itertools.compress(tops, hit))
        n_hit = len(tops)
        below = []
        for word, top, lower in thresholds:
            above = len(tops.translate(None, lower))
            i = tops.find(top)
            while i >= 0:
                above += branch_words[i] >= word
                i = tops.find(top, i + 1)
            below.append(n_hit - above)
        return RunTally((n - n_hit, *map(sub, [*below, n_hit], [0, *below])),
                        trials_sum, trials_sq_sum)

    return tally


def _sum(tallies) -> RunTally:
    """The tally of the runs of all the given tallies."""
    counts, trials_sum, trials_sq_sum = zip(*tallies)
    return RunTally(tuple(map(sum, zip(*counts))), sum(trials_sum), sum(trials_sq_sum))


def run_protocol(kernel, engine: ProtocolEngine, seed: int, row: int, runs: int, chunk: int,
                 report=None) -> RunTally:
    """The tally of runs 0 .. runs - 1 of row, drawn by kernel(engine, runs,
    chunk) (_stdlib_kernel or _numpy_kernel, which give the same tally) one
    chunk of chunk runs at a time; report(row, stop), if given, is called
    after each chunk, with the run it stopped before (reporting only)."""
    # p_click = 0 (log_q = -0.0) only when there is no branch: no run clicks
    tally_runs = kernel(engine, runs, chunk) if engine.p_click else (
        lambda seed, row, lo, hi: RunTally((hi - lo,), 0, 0))
    tally = RunTally((0,) * (len(engine.branches) + 1), 0, 0)
    for start in range(0, runs, chunk):
        stop = min(start + chunk, runs)
        tally = _sum((tally, tally_runs(seed, row, start, stop)))
        if report is not None:
            report(row, stop)
    return tally


def run_rows(engines: list[ProtocolEngine], seed: int, runs: list[int], progress=None):
    """Yield the tally of each row i, runs[i] runs of engines[i] keyed by
    row i, in row order, as it is drawn.

    This is the invocation's one draw plan, from its runs in all: the
    kernel and its chunk, _stdlib_kernel in chunks of _STDLIB_CHUNK runs,
    or _numpy_kernel in chunks of _NUMPY_CHUNK from _NUMPY_RUNS on.  Every
    run is drawn in this process, which forks nothing.  progress(i, done),
    if given, is called after each chunk of row i.  A run's draws depend
    only on (seed, row, run), so the tallies do not depend on the kernel or
    the chunk."""
    kernel, chunk = _stdlib_kernel, _STDLIB_CHUNK
    if sum(runs) >= _NUMPY_RUNS:
        kernel, chunk = _numpy_kernel, _NUMPY_CHUNK
    for row, n_runs in enumerate(runs):
        yield run_protocol(kernel, engines[row], seed, row, n_runs, chunk, progress)


def aggregate(tally: RunTally, engine: ProtocolEngine) -> ProtocolStats:
    """Unbiased sample means and standard errors of the runs tallied over the
    engine's click branches, beside its analytic p_click and false fraction.

    Every true herald retrieves the one output qubit, so the mean
    concurrence and fidelity are the qubit's whenever a true herald was
    drawn (NaN otherwise), and the photon yield is the qubit's retrieval
    efficiency times the fraction of successes that clicked on an n = 1
    branch: every other branch retrieves no photon.
    """
    n_runs = sum(tally.counts)
    branches, qubit = engine.branches, engine.qubit
    hits = tally.counts[1:]
    n_success = n_runs - tally.counts[0]
    n_trials = tally.trials_sum + tally.counts[0] * engine.max_trials
    p_click = n_success / n_trials  # one click ends each successful run
    p_click_stderr = mean_trials = mean_trials_stderr = false_fraction = photon_yield = math.nan
    mean_conc = mean_fid = math.nan

    if 0.0 < p_click < 1.0:  # at p_click 0 or 1 the Wald form would read 0
        p_click_stderr = math.sqrt(p_click * (1.0 - p_click) / n_trials)
    if n_success:
        n, s1, s2 = n_success, tally.trials_sum, tally.trials_sq_sum
        mean_trials = s1 / n  # Python int / int rounds once
        if n > 1:  # stderr^2 = var / n, and n (n - 1) var = n s2 - s1^2 exactly in ints
            mean_trials_stderr = math.sqrt((n * s2 - s1 * s1) / (n * n * (n - 1)))
        false_fraction = sum(h for h, b in zip(hits, branches) if b.false_herald) / n_success
        one_pair_hits = sum(h for h, b in zip(hits, branches) if b.n_photons == 1)
        # the ratio first: the efficiency itself when every success is a one-pair click
        photon_yield = qubit.retrieval_efficiency * (one_pair_hits / n_success)

    if any(h for h, b in zip(hits, branches) if not b.false_herald):
        mean_conc = retrieval_mod.concurrence(qubit)  # raises on a no-photon record
        mean_fid = retrieval_mod.fidelity_to_bell(qubit)

    return ProtocolStats(
        n_runs=n_runs,
        n_trials=n_trials,
        n_success=n_success,
        p_click=p_click,
        p_click_stderr=p_click_stderr,
        p_click_analytic=engine.p_click,
        mean_trials=mean_trials,
        mean_trials_stderr=mean_trials_stderr,
        false_herald_fraction=false_fraction,
        false_herald_analytic=engine.false_fraction,
        mean_concurrence=mean_conc,
        mean_fidelity_bell=mean_fid,
        photon_yield=photon_yield,
    )
