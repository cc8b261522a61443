"""Repeat-until-success Monte Carlo over write / detect trials.

A trial is one write pulse (tau_write) and one detection gate.  On a click
the heralded spin state is read out into the output photon qubit; on no
click the ensemble is reset (modeled as perfect) and the next trial starts
fresh.  Trials repeat until a click or until max_trials is exhausted (an
explicit no-success result, not an error).  The read pulse and the cycle
period take no part: no reported number depends on them.

The write stage is the same on every trial, so it is computed once per
configuration (ProtocolEngine) as a table of click branches.  A run then
reduces to two numbers: the trials it used and the branch it clicked on
(-1 when max_trials passed without a click).  run_protocol returns these as
two arrays in run order, and aggregate reduces them through per-branch
tables of concurrence, fidelity, efficiency and the false-herald flag.

The ensemble reset is perfect, so trials are independent and a run's trials
to its first click are Geometric(p_click): each run draws them with one
uniform, and its branch with a second, from a counter-based stream keyed by
(master seed, sweep row, run index).  Any partitioning of runs over workers
therefore produces bit-identical statistics; a batch of one run is the
single-run path.  The write engine is selectable: "perturbative" uses the
short-time expansion (with double-excitation corrections when the cutoff
allows, so multi-photon false heralds are represented), "exact" evolves the
pair-creation Hamiltonian on its chain of cutoff + 1 pair states.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import herald as herald_mod
from . import retrieval as retrieval_mod
from . import write_dynamics as wd
from .herald import DetectorModel, HeraldBranch
from .retrieval import FmeQubitState, ReadParams
from .rng import run_uniforms
from .write_dynamics import SystemParams

ENGINES = ("perturbative", "exact")

_RUN_CHUNK = 8192  # runs per batch (the unit handed to a pool worker)


@dataclass(frozen=True)
class ProtocolSetup:
    system: SystemParams
    detector: DetectorModel
    read: ReadParams
    max_trials: int
    engine: str = "perturbative"
    cutoff: int = 2

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")


@dataclass(frozen=True)
class ProtocolStats:
    """Aggregates over completed runs; uncertainties are 1-sigma standard
    errors from the run count."""

    n_runs: int
    n_trials: int
    n_success: int
    p_click_per_trial: float
    p_click_stderr: float
    mean_trials_to_success: float
    mean_trials_stderr: float
    false_herald_fraction: float
    mean_concurrence: float
    concurrence_stderr: float
    mean_fidelity_bell: float
    fidelity_stderr: float
    photon_yield: float


class ProtocolEngine:
    """Trial-invariant write/herald/retrieve tables for one setup.

    Precomputes the write-stage state, the click probability, the click
    branch distribution, the retrieved output per branch and the branch
    table aggregate reads, so a run reduces to two uniforms (trials to the
    first click, branch selection) and its result to (trials used, branch).

    p_click is the branch sum capped at 1, which rounding can exceed when
    the detector is certain to click.
    """

    def __init__(self, setup: ProtocolSetup):
        self.setup = setup
        self.rates = rates = wd.derive_rates(setup.system)
        if setup.engine == "perturbative":
            order = 2 if setup.cutoff >= 2 else 1
            self.write_state = wd.perturbative_state(rates, setup.cutoff, order=order)
        else:
            self.write_state = wd.evolve_exact(rates, setup.cutoff, setup.system.tau_write)
        det = setup.detector
        self.branches: list[HeraldBranch] = herald_mod.click_branches(self.write_state, det)
        total = float(sum(b.probability for b in self.branches))
        self.p_click = min(total, 1.0)
        if total > 0.0:
            self.branch_cdf = np.cumsum([b.probability / total for b in self.branches])
        else:
            self.branch_cdf = np.array([])
        self.false_fraction = (
            sum(b.probability for b in self.branches if b.false_herald) / total
            if total > 0.0
            else 0.0
        )
        self.outputs: list[FmeQubitState] = [
            retrieval_mod.retrieve_fme(b.state, setup.read) for b in self.branches
        ]
        self.table = branch_table([b.false_herald for b in self.branches], self.outputs)


@dataclass(frozen=True)
class BranchTable:
    """Per-branch values that aggregate reads, indexed by branch number.

    concurrence and fidelity are NaN for outputs that hold no photon.
    """

    false_herald: np.ndarray
    efficiency: np.ndarray
    concurrence: np.ndarray
    fidelity: np.ndarray


def branch_table(false_herald: list[bool], outputs: list[FmeQubitState]) -> BranchTable:
    def metric(fn):
        return np.array([fn(q) if q.has_photon else math.nan for q in outputs], dtype=float)

    return BranchTable(
        false_herald=np.array(false_herald, dtype=bool),
        efficiency=np.array([q.retrieval_efficiency for q in outputs], dtype=float),
        concurrence=metric(retrieval_mod.concurrence),
        fidelity=metric(retrieval_mod.fidelity_to_bell),
    )


def _run_batch(
    engine: ProtocolEngine, seed: int, row: int, run_lo: int, run_hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Repeat-until-success for the runs run_lo .. run_hi - 1.

    Returns trials_used (int64) and branch (int16, -1 for no click within
    max_trials).  A run's trials to its first click, T, come from its first
    uniform u by inverting P(T > t) = (1 - p_click)^t; a run with T above
    max_trials has no success.  Its second uniform picks the branch from the
    branch CDF.
    """
    max_trials = engine.setup.max_trials
    p = engine.p_click
    trials_used = np.full(run_hi - run_lo, max_trials, dtype=np.int64)
    branch = np.full(run_hi - run_lo, -1, dtype=np.int16)
    if p == 0.0:  # never clicks
        return trials_used, branch
    u = run_uniforms(seed, row, np.arange(run_lo, run_hi))
    if p < 1.0:
        t = np.floor(np.log1p(-u[:, 0]) / math.log1p(-p)) + 1.0
    else:  # clicks on the first trial
        t = np.ones(run_hi - run_lo)
    hit = t <= max_trials
    trials_used[hit] = t[hit]
    picked = np.searchsorted(engine.branch_cdf, u[hit, 1], side="right")
    branch[hit] = np.minimum(picked, len(engine.branches) - 1)
    return trials_used, branch


def _batch_worker(args) -> tuple[np.ndarray, np.ndarray]:
    setup, seed, row, run_lo, run_hi = args
    return _run_batch(ProtocolEngine(setup), seed, row, run_lo, run_hi)


def run_protocol(
    engine: ProtocolEngine,
    seed: int,
    n_runs: int,
    row: int = 0,
    workers: int = 1,
    progress=None,
) -> tuple[np.ndarray, np.ndarray]:
    """All runs for one configuration as (trials_used, branch) arrays in run
    order; the worker count never changes them.

    The serial path uses the given engine; pool workers rebuild it from
    engine.setup.  progress, if given, is called as progress(runs_done,
    n_runs) after each completed chunk (reporting only).
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    bounds = [(lo, min(lo + _RUN_CHUNK, n_runs)) for lo in range(0, n_runs, _RUN_CHUNK)]
    if workers <= 1 or len(bounds) == 1:
        parts = (_run_batch(engine, seed, row, lo, hi) for lo, hi in bounds)
        return _gather(parts, n_runs, progress)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        jobs = [(engine.setup, seed, row, lo, hi) for lo, hi in bounds]
        return _gather(pool.map(_batch_worker, jobs), n_runs, progress)


def _gather(parts, n_runs: int, progress) -> tuple[np.ndarray, np.ndarray]:
    trials, branches = [], []
    for t, b in parts:
        trials.append(t)
        branches.append(b)
        if progress is not None:
            progress(sum(map(len, trials)), n_runs)
    return np.concatenate(trials), np.concatenate(branches)


def _run_order_sum(values: np.ndarray) -> float:
    """values[0] + values[1] + ... added left to right, as a loop over the
    runs adds them (np.sum would add pairwise and round differently)."""
    return float(np.add.accumulate(values)[-1])


def _mean_stderr(values: np.ndarray, index: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of values[i] for i in index, in index order.

    Each squared deviation is computed once per distinct value.
    """
    n = len(index)
    mean = _run_order_sum(values[index]) / n
    deviations = np.array([(v - mean) ** 2 for v in values.tolist()])
    var = _run_order_sum(deviations[index]) / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def aggregate(trials_used: np.ndarray, branch: np.ndarray, table: BranchTable) -> ProtocolStats:
    """Unbiased sample means and standard errors, reduced in run order."""
    n_runs = len(trials_used)
    if not n_runs:
        raise ValueError("aggregate requires at least one completed run")
    n_trials = int(trials_used.sum())
    won = branch >= 0
    n_success = int(np.count_nonzero(won))
    p_click = n_success / n_trials  # one click ends each successful run
    p_click_stderr = math.sqrt(p_click * (1.0 - p_click) / n_trials)
    nan = math.nan
    mean_trials = mean_trials_stderr = false_fraction = photon_yield = nan
    mean_conc = conc_stderr = mean_fid = fid_stderr = nan

    hits = branch[won]
    if n_success:
        values, order = np.unique(trials_used[won], return_inverse=True)
        mean_trials, mean_trials_stderr = _mean_stderr(values, order)
        false_fraction = int(np.count_nonzero(table.false_herald[hits])) / n_success
        photon_yield = _run_order_sum(table.efficiency[hits]) / n_success

    true = hits[~table.false_herald[hits]]
    if true.size:
        if np.isnan(table.concurrence[true]).any():
            raise ValueError("no-photon record: entanglement metrics are undefined")
        mean_conc, conc_stderr = _mean_stderr(table.concurrence, true)
        mean_fid, fid_stderr = _mean_stderr(table.fidelity, true)

    return ProtocolStats(
        n_runs=n_runs,
        n_trials=n_trials,
        n_success=n_success,
        p_click_per_trial=p_click,
        p_click_stderr=p_click_stderr,
        mean_trials_to_success=mean_trials,
        mean_trials_stderr=mean_trials_stderr,
        false_herald_fraction=false_fraction,
        mean_concurrence=mean_conc,
        concurrence_stderr=conc_stderr,
        mean_fidelity_bell=mean_fid,
        fidelity_stderr=fid_stderr,
        photon_yield=photon_yield,
    )

