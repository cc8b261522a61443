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
tally, the per-branch false-herald flags and efficiencies, the qubit's
concurrence and fidelity, and the engine's analytic click probability and
false fraction.  Only the draw and the tally use numpy, which
loads with the first run; the engine and aggregate are standard library.

The ensemble reset is perfect, so trials are independent and a run's trials
to its first click are Geometric(p_click): each run draws them with one
uniform, and its branch with a second, from the two words of a SplitMix64
counter hash of (master seed, sweep row, run index) (fmesim.rng).  A run's
draws depend on nothing else, so any partitioning of runs into batches
produces the same tally; a batch of one run is the single-run path.  The
write engine is selectable (write_dynamics.write_state): "exact" is the
closed-form, untruncated evolution of the pair-creation Hamiltonian, whose
statistics do not depend on the cutoff, and "perturbative" its Taylor
polynomial, with double excitations when the cutoff allows, so multi-photon
false heralds are represented.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from . import herald as herald_mod
from . import retrieval as retrieval_mod
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


class ProtocolStats(NamedTuple):
    """One output row: aggregates over completed runs, with the engine's
    analytic click probability and false-herald fraction beside their
    estimates; uncertainties are 1-sigma standard errors from the run count."""

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
    concurrence_stderr: float
    mean_fidelity_bell: float
    fidelity_stderr: float
    photon_yield: float


class ProtocolEngine:
    """Trial-invariant write/herald/retrieve tables for one configuration.

    Holds the write-stage pair state (chain amplitudes and bright spin mode)
    and from it the click probability, the closed-form click branch table,
    the heralded spin pair and the one output qubit retrieved from it, so a
    run reduces to two uniforms (trials to the first click, branch
    selection) and its result to (trials used, branch).

    p_click is the branch sum capped at 1, which rounding can exceed when
    the detector is certain to click.
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
        self.p_click = min(total, 1.0)
        # every listed branch has a positive weight, so total > 0 unless there are none
        self.branch_cdf = tuple(itertools.accumulate(b.probability / total for b in self.branches))
        false = math.fsum(b.probability for b in self.branches if b.false_herald)
        self.false_fraction = false / total if total > 0.0 else 0.0
        self.spin = herald_mod.heralded_spin(self.write_state)
        self.qubit: FmeQubitState = retrieval_mod.retrieve_fme(self.spin, read)


def _run_batch(engine: ProtocolEngine, seed: int, row: int, run_lo: int, run_hi: int):
    """Repeat-until-success for the runs run_lo .. run_hi - 1.

    Returns two numpy arrays: trials_used (int64) and branch (int16, -1 for
    no click within max_trials).  A run's trials to its first click, T, come
    from its first uniform u by inverting P(T > t) = (1 - p_click)^t; a run
    with T above max_trials has no success.  Its second uniform picks the
    branch from the branch CDF.
    """
    import numpy as np

    from .rng import run_uniforms

    max_trials = engine.max_trials
    p = engine.p_click
    trials_used = np.full(run_hi - run_lo, max_trials, dtype=np.int64)
    branch = np.full(run_hi - run_lo, -1, dtype=np.int16)
    if p == 0.0:  # never clicks
        return trials_used, branch
    u = run_uniforms(seed, row, np.arange(run_lo, run_hi, dtype=np.uint64))
    if p < 1.0:
        t = np.floor(np.log1p(-u[:, 0]) / math.log1p(-p)) + 1.0
    else:  # clicks on the first trial
        t = np.ones(run_hi - run_lo)
    hit = t <= max_trials
    trials_used[hit] = t[hit]
    picked = np.searchsorted(engine.branch_cdf, u[:, 1][hit], side="right")
    branch[hit] = np.minimum(picked, len(engine.branches) - 1)
    return trials_used, branch


class RunTally(NamedTuple):
    """The counts every statistic depends on: counts[0] runs without a click
    within max_trials and counts[1 + b] runs that clicked on branch b, every
    trial drawn, and the exact sums of T and T^2 over the successful runs."""

    counts: tuple[int, ...]
    n_trials: int
    trials_sum: int
    trials_sq_sum: int


def run_protocol(engine: ProtocolEngine, seed: int, n_runs: int, row: int = 0,
                 progress=None) -> RunTally:
    """The tally of all runs for one configuration, drawn serially and tallied
    one chunk of _RUN_CHUNK runs at a time; progress(runs_done, n_runs), if
    given, is called after each chunk (reporting only)."""
    import numpy as np  # loads with the first run drawn; the engine does not use it

    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    counts = np.zeros(len(engine.branches) + 1, dtype=np.int64)
    n_trials = trials_sum = trials_sq_sum = 0
    for lo in range(0, n_runs, _RUN_CHUNK):
        hi = min(lo + _RUN_CHUNK, n_runs)
        trials_used, branch = _run_batch(engine, seed, row, lo, hi)
        won = trials_used[branch >= 0]
        counts += np.bincount(branch + 1, minlength=counts.size)
        n_trials += int(trials_used.sum())
        trials_sum += int(won.sum())
        # T <= 2^32, so T^2 overflows int64: square T = t1 2^16 + t0 by parts
        t1, t0 = won >> 16, won & 0xFFFF
        trials_sq_sum += (int(t1 @ t1) << 32) + (int(t1 @ t0) << 17) + int(t0 @ t0)
        if progress is not None:
            progress(hi, n_runs)
    return RunTally(tuple(counts.tolist()), n_trials, trials_sum, trials_sq_sum)


def _weighted_mean(counts: tuple[int, ...], values: tuple[float, ...]) -> float:
    """Mean of values[b] taken counts[b] times each, summed as deviations
    about the most frequent value (shifted data: Chan, Golub & LeVeque,
    Am. Stat. 37, 242 (1983)); exact when all counted values agree."""
    ref = values[counts.index(max(counts))]
    shift = math.fsum(c * (v - ref) for c, v in zip(counts, values) if c)
    return ref + shift / sum(counts)


def aggregate(tally: RunTally, engine: ProtocolEngine) -> ProtocolStats:
    """Unbiased sample means and standard errors of the runs tallied over the
    engine's click branches, beside its analytic p_click and false fraction.

    Every true herald retrieves the one output qubit, so the mean
    concurrence and fidelity are the qubit's and their standard errors are
    exactly 0.0 whenever a true herald was drawn (NaN otherwise); the
    retrieval efficiency is the qubit's on n = 1 branches and 0 elsewhere.
    """
    n_runs = sum(tally.counts)
    if not n_runs:
        raise ValueError("aggregate requires at least one completed run")
    branches, qubit = engine.branches, engine.qubit
    hits = tally.counts[1:]
    n_success = n_runs - tally.counts[0]
    p_click = n_success / tally.n_trials  # one click ends each successful run
    p_click_stderr = math.sqrt(p_click * (1.0 - p_click) / tally.n_trials)
    mean_trials = mean_trials_stderr = false_fraction = photon_yield = math.nan
    mean_conc = conc_stderr = mean_fid = fid_stderr = math.nan

    if n_success:
        n, s1, s2 = n_success, tally.trials_sum, tally.trials_sq_sum
        mean_trials = s1 / n  # Python int / int rounds once
        # stderr^2 = var / n, and n (n - 1) var = n s2 - s1^2 exactly in ints
        mean_trials_stderr = math.sqrt((n * s2 - s1 * s1) / (n * n * max(n - 1, 1)))
        false_fraction = sum(h for h, b in zip(hits, branches) if b.false_herald) / n_success
        efficiency = tuple(qubit.retrieval_efficiency if b.n_photons == 1 else 0.0
                           for b in branches)
        photon_yield = _weighted_mean(hits, efficiency)

    if any(h for h, b in zip(hits, branches) if not b.false_herald):
        mean_conc = retrieval_mod.concurrence(qubit)  # raises on a no-photon record
        mean_fid = retrieval_mod.fidelity_to_bell(qubit)
        conc_stderr = fid_stderr = 0.0

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
        concurrence_stderr=conc_stderr,
        mean_fidelity_bell=mean_fid,
        fidelity_stderr=fid_stderr,
        photon_yield=photon_yield,
    )
