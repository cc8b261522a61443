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
run_protocol tallies each chunk of runs as it is drawn (runs per outcome,
trials, and sums of T and T^2 over successful runs), so memory does not
grow with the run count, and aggregate computes one output row from that
tally, the per-branch false-herald flags and photon numbers, the qubit's
concurrence, fidelity and retrieval efficiency, and the engine's analytic
click probability and false fraction.  The engine and aggregate are
standard library.

The ensemble reset is perfect, so trials are independent and a run's trials
to its first click are Geometric(p_click).  Each run draws two 53-bit words
k1 and k2 (u = k 2^-53) from a SplitMix64 counter hash of (master seed,
sweep row, run index) (fmesim.rng), and the engine holds the one rule that
maps them to its result: T = floor(math.log1p(-u1) / log_q) + 1, no success
when T > max_trials, and the branch is the number of thresholds at or below
k2.  Two kernels apply it to a chunk, to the same RunTally: a
standard-library one and the numpy one (_run_batch).  A run's draws depend
on nothing else, so any partitioning of runs into batches produces the same
tally.  run_rows holds an invocation's one draw plan, read from its runs in
all: below _NUMPY_RUNS = 2^17 the standard-library kernel draws, so numpy is
never imported, and from there on the numpy kernel; either draws in one
process per 2^15 runs, at most one per CPU, forked from this one, and the
parts' tallies are added.  run_protocol draws one row's run range with the
kernel it is given.  The write engine, "exact" or "perturbative", is chosen
by write_dynamics.write_state, whose module docstring describes both.
"""

from __future__ import annotations

import gc
import itertools
import marshal
import math
import os
from operator import itemgetter, mul, sub, truediv
from typing import NamedTuple

from . import herald as herald_mod
from . import retrieval as retrieval_mod
from . import rng as rng_mod
from . import write_dynamics as wd
from .herald import DetectorModel, HeraldBranch
from .retrieval import FmeQubitState, ReadParams
from .write_dynamics import SystemParams

# Runs per batch: every per-chunk array is at most 64 KB (4096 runs x 2 words
# x 8 B).  Against 8192 with the same code, rb-protocol peaked 0.14 MB lower
# at the held-out seed (0.01 MB at seed 1) and drive-grid 0.02-0.05 MB lower,
# while in-process run_protocol over 2e6 runs took 4-17% longer; 2048 and
# 16384 were slower than both (BENCH_16.json).
_RUN_CHUNK = 4096

# Invocations of at least this many runs in all draw them with numpy, and
# smaller ones with the standard library, which saves importing numpy (80 ms
# and 14 MB).  Both forked on 2 CPUs, the standard library took 0.060 s to
# numpy's 0.080 s at 131,071 runs, 0.079 to 0.081 s at 262,144 and 0.118 to
# 0.085 s at 524,288; on one CPU the crossover is 2^17 (README), and moving
# it would re-point the kernels' golden hashes.
_NUMPY_RUNS = 1 << 17

# Runs per drawing process: 10^5 runs split in two took
# 15-17 ms in process against 27-29 ms in one, so a child costs about 2 ms of
# wall time, which a part of 2^15 runs (about 9 ms to draw) repays.
_FORK_RUNS = 1 << 15


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

    Holds the write-stage pair state (chain amplitudes and bright spin mode)
    and from it the click probability, the closed-form click branch table,
    the heralded spin pair and the one output qubit retrieved from it, so a
    run reduces to two uniforms (trials to the first click, branch
    selection) and its result to (trials used, branch).

    p_click is the branch sum capped at 1, which rounding can exceed when
    the detector is certain to click; log_q = log1p(-p_click), -inf at
    p_click = 1, where every run clicks on its first trial.  thresholds are
    ceil(cdf_j 2^53) for every branch but the last: u = k 2^-53 >= cdf_j
    exactly when k >= ceil(cdf_j 2^53), and a word at or above the last
    threshold takes the last branch.
    """

    def __init__(self, system: SystemParams, detector: DetectorModel, read: ReadParams,
                 max_trials: int, engine: str = "perturbative", cutoff: int = 2):
        if max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        self.detector, self.read, self.max_trials = detector, read, max_trials
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
        self.spin = herald_mod.heralded_spin(self.write_state)
        self.qubit: FmeQubitState = retrieval_mod.retrieve_fme(self.spin, read)


def _run_batch(engine: ProtocolEngine, seed: int, row: int, run_lo: int, run_hi: int):
    """Repeat-until-success for the runs run_lo .. run_hi - 1, by the engine's
    rule (module docstring).  Returns two numpy arrays: trials_used (int64)
    and branch (int16, -1 for no click within max_trials).

    numpy's log1p can differ from math.log1p in the last bit, which moves T
    only if the quotient lies within a few ulp of an integer, so quotients
    within max_trials 2^-40 of an integer in [1, max_trials] are taken again
    with math.log1p.  u = k 2^-53 is compared with thresholds 2^-53, exactly.
    """
    import numpy as np

    max_trials, log_q = engine.max_trials, engine.log_q
    u = rng_mod.run_uniforms(seed, row, run_lo, run_hi)
    # p_click = 0: log_q = -0.0 makes every quotient +inf (NaN at u = 0), no click
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.log1p(-u[:, 0]) / log_q
        near = np.abs(q - np.rint(q)) <= max_trials * 2.0**-40
    if near.any():  # the integer is in [1, max_trials] when q is in [0.5, max_trials + 0.5)
        near = np.flatnonzero(near & (q >= 0.5) & (q < max_trials + 0.5))
        q[near] = [math.log1p(-x) / log_q for x in u[near, 0].tolist()]
    trials_used = np.fmin(np.floor(q) + 1.0, max_trials)  # fmin takes max_trials over NaN
    thresholds = np.array(engine.thresholds, dtype=float) * 2.0**-53
    branch = np.where(q < max_trials, np.searchsorted(thresholds, u[:, 1], side="right"), -1)
    return trials_used.astype(np.int64), branch.astype(np.int16)


class RunTally(NamedTuple):
    """The counts every statistic depends on: counts[0] runs without a click
    within max_trials and counts[1 + b] runs that clicked on branch b, every
    trial drawn, and the exact sums of T and T^2 over the successful runs."""

    counts: tuple[int, ...]
    n_trials: int
    trials_sum: int
    trials_sq_sum: int


def _numpy_kernel(engine: ProtocolEngine):
    """The tally of runs lo .. hi - 1 from _run_batch's arrays, as a function
    of (seed, row, lo, hi)."""
    import numpy as np

    size = len(engine.branches) + 1

    def tally(seed: int, row: int, lo: int, hi: int) -> RunTally:
        trials_used, branch = _run_batch(engine, seed, row, lo, hi)
        won = trials_used[branch >= 0]
        # T <= 2^32, so T^2 overflows int64: square T = t1 2^16 + t0 by parts
        t1, t0 = won >> 16, won & 0xFFFF
        return RunTally(tuple(np.bincount(branch + 1, minlength=size).tolist()),
                        int(trials_used.sum()), int(won.sum()),
                        (int(t1 @ t1) << 32) + (int(t1 @ t0) << 17) + int(t0 @ t0))

    return tally


def _stdlib_kernel(engine: ProtocolEngine):
    """The numpy kernel's tally, from the words of rng.run_words with math and
    C-level map, sum and bytes methods.  A word y = k 2^11 is the uniform
    u = y 2^-64 exactly, so its quotient math.log1p(-u) / log_q is the one
    that defines T, and T <= max_trials exactly when it is below max_trials.
    The quotient is >= 0, so truncation gives its floor f, and the sums over
    the successful runs are sum T = sum f + n and sum T^2 = sum f^2 +
    2 sum f + n in Python ints, which do not overflow.

    A branch counts the successful runs' words between two thresholds.  The
    words at or above a threshold t are counted without a sort: those whose
    top byte (k >> 45) is above t's, by deleting the lower bytes from a bytes
    object of the words' top bytes, plus those that share t's top byte and
    are >= t 2^11, compared one by one (16 words per threshold in a chunk of
    4096 runs, on average)."""
    max_trials, log_q = engine.max_trials, engine.log_q
    # (threshold as a word, its top byte, the bytes 0 .. that top byte); a
    # threshold at or above 2^53, which no word reaches, takes the top byte
    # 255 and deletes every byte.
    thresholds = []
    for t in engine.thresholds:
        top = min(t >> 45, 255)
        thresholds.append((t << 11, top, bytes(range(top + 1))))
    below_budget = float(max_trials).__gt__

    def tally(seed: int, row: int, lo: int, hi: int) -> RunTally:
        n = hi - lo
        lanes = rng_mod.run_words(seed, row, lo, hi)
        words = memoryview(lanes).cast("Q")  # word w of run j is item 4 j + 2 w
        branch_words, tops = words[2::4], lanes[23::32]  # tops: each word's top byte
        u = map(mul, itertools.repeat(-2.0**-64), words[0::4].tolist())  # -u, exactly
        quotients = list(map(truediv, map(math.log1p, u), itertools.repeat(log_q)))
        if max(quotients) >= max_trials:  # keep the runs that click in time
            hit = list(map(below_budget, quotients))
            quotients = itertools.compress(quotients, hit)
            branch_words = list(itertools.compress(branch_words, hit))
            tops = bytes(itertools.compress(tops, hit))
        floors = list(map(math.trunc, quotients))
        n_hit = len(tops)
        below = []
        for word, top, lower in thresholds:
            above = len(tops.translate(None, lower))
            i = tops.find(top)
            while i >= 0:
                above += branch_words[i] >= word
                i = tops.find(top, i + 1)
            below.append(n_hit - above)
        f_sum = sum(floors)
        trials_sum = f_sum + n_hit
        return RunTally((n - n_hit, *map(sub, [*below, n_hit], [0, *below])),
                        trials_sum + (n - n_hit) * max_trials, trials_sum,
                        sum(map(mul, floors, floors)) + 2 * f_sum + n_hit)

    return tally


def _sum(tallies) -> RunTally:
    """The tally of the runs of all the given tallies, which may be plain tuples."""
    counts, n_trials, trials_sum, trials_sq_sum = zip(*tallies)
    return RunTally(tuple(map(sum, zip(*counts))), sum(n_trials), sum(trials_sum),
                    sum(trials_sq_sum))


def run_protocol(kernel, engine: ProtocolEngine, seed: int, row: int, lo: int, hi: int,
                 report=None) -> RunTally:
    """The tally of runs lo .. hi - 1 of row, drawn by kernel(engine)
    (_stdlib_kernel or _numpy_kernel, which give the same tally) one chunk
    of _RUN_CHUNK runs at a time; report(row, stop), if given, is called
    after each chunk, with the run it stopped before (reporting only)."""
    # p_click = 0 (log_q = -0.0) only when there is no branch: no run clicks
    tally_runs = kernel(engine) if engine.p_click else (
        lambda seed, row, lo, hi: RunTally((hi - lo,), (hi - lo) * engine.max_trials, 0, 0))
    tally = RunTally((0,) * (len(engine.branches) + 1), 0, 0, 0)
    for start in range(lo, hi, _RUN_CHUNK):
        stop = min(start + _RUN_CHUNK, hi)
        tally = _sum((tally, tally_runs(seed, row, start, stop)))
        if report is not None:
            report(row, stop)
    return tally


def _process_count(total_runs: int) -> int:
    """How many processes draw an invocation of total_runs runs, with either
    kernel: one per _FORK_RUNS runs, at most one per CPU this process may
    run on, and one where the CPU set cannot be read."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, total_runs // _FORK_RUNS))


def _part(runs: list[int], start: int, stop: int):
    """(row, lo, hi) for each row's runs lo .. hi - 1 among chunks start ..
    stop - 1, the rows' chunks of _RUN_CHUNK runs counted in row order."""
    first = 0  # the row's first chunk
    for row, n_runs in enumerate(runs):
        end = first - (-n_runs // _RUN_CHUNK)
        lo, hi = max(start, first), min(stop, end)
        if lo < hi:
            yield row, (lo - first) * _RUN_CHUNK, min((hi - first) * _RUN_CHUNK, n_runs)
        first = end


def _send(write_fd: int, partials) -> None:
    """In a forked child: write the (row, tally) pairs of partials, as plain
    ints, or the exception drawing them raised, to write_fd, then exit."""
    try:
        try:
            # tuple(t): marshal takes no NamedTuple
            message = marshal.dumps(([(row, tuple(t)) for row, t in partials], None))
        except BaseException as exc:
            import pickle

            message = marshal.dumps((None, pickle.dumps(exc)))
        with open(write_fd, "wb") as out:
            out.write(message)
    finally:
        os._exit(0)


def _draw_forked(draw, n: int):
    """The (row, tally) pairs of draw(k) for parts k = 0 .. n - 1, in part
    order: draw(0) itself if n == 1, else a list of part 0 drawn here and
    each other part by a forked child, which sends them over a pipe.  A
    child's exception is raised here, and the part of a child that ended
    without sending anything is drawn here; on any exception here the
    children are killed.  Every child is reaped before this returns or
    raises."""
    if n == 1:
        return draw(0)
    gc.freeze()  # the children's collections then skip, and leave shared, the inherited objects
    children = []
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if not pid:
                _send(write_fd, draw(k))
            children.append((pid, read_fd))
            os.close(write_fd)
        partials = list(draw(0))
        for k, (_, read_fd) in enumerate(children, 1):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:  # the child was killed before it sent anything
                partials += draw(k)
                continue
            result, error = marshal.loads(data)
            if error is not None:
                import pickle

                raise pickle.loads(error)
            partials += result
        return partials
    except BaseException:
        import signal

        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
        gc.unfreeze()


def run_rows(engines: list[ProtocolEngine], seed: int, runs: list[int], progress=None):
    """Yield the tally of each row i, runs[i] runs of engines[i] keyed by
    row i, in row order.

    This is the invocation's one draw plan, from its runs in all: the
    kernel (_numpy_kernel from _NUMPY_RUNS on) and _process_count(sum(runs))
    processes.  The rows' chunks of _RUN_CHUNK runs, in row order, are cut
    into that many contiguous parts of near-equal size; this process draws
    the first, a forked child each other (_draw_forked), and each row's
    partial tallies are added.  progress(i, done), if given, is called after
    each chunk of row i drawn here and once row i's tally is complete, at
    done = runs[i].  A run's draws depend only on (seed, row, run), so the
    tallies do not depend on the kernel or the process count."""
    total = sum(runs)
    kernel = _stdlib_kernel
    if total >= _NUMPY_RUNS:
        import numpy  # noqa: F401  # once, before any fork, not in each child
        kernel = _numpy_kernel
    n = _process_count(total)
    n_chunks = sum(-(-n_runs // _RUN_CHUNK) for n_runs in runs)
    bounds = [k * n_chunks // n for k in range(n + 1)]

    def draw(k: int):  # part 0 reports, and each of its rows starts at run 0
        for row, lo, hi in _part(runs, bounds[k], bounds[k + 1]):
            yield row, run_protocol(kernel, engines[row], seed, row, lo, hi,
                                    None if k else progress)

    for row, partials in itertools.groupby(_draw_forked(draw, n), itemgetter(0)):
        if progress is not None:
            progress(row, runs[row])
        yield _sum(tally for _, tally in partials)


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
    if not n_runs:
        raise ValueError("aggregate requires at least one completed run")
    branches, qubit = engine.branches, engine.qubit
    hits = tally.counts[1:]
    n_success = n_runs - tally.counts[0]
    p_click = n_success / tally.n_trials  # one click ends each successful run
    p_click_stderr = mean_trials = mean_trials_stderr = false_fraction = photon_yield = math.nan
    mean_conc = mean_fid = math.nan

    if 0.0 < p_click < 1.0:  # at p_click 0 or 1 the Wald form would read 0
        p_click_stderr = math.sqrt(p_click * (1.0 - p_click) / tally.n_trials)
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
        n_trials=tally.n_trials,
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
