"""Pinned output bytes of the CLI.

The sha256 below is the output of

    fmesim protocol --preset rb85-87 --runs 2000 --seed 1

as written by the driver that draws each run's trials to its first click as
one Geometric(p_click) variate and its click branch from the two words of a
SplitMix64 counter hash of (seed, row, run), and aggregates from per-chunk
tallies: runs per click branch and exact integer sums of T and T^2.  Both
hashes were taken again when aggregation moved from float sums over every
run in run order to those counts.  The integer columns and the
configuration lines kept their bytes; the standard error of the trials to
success and the photon yield moved in the last one or two ulps, to within
one ulp of exact rational arithmetic on the same runs.
Both were taken again when the write engine moved from the three-mode
amplitude grid to the pair shell (chain amplitudes plus one bright spin mode)
with the closed-form branch table.  Integer columns, configuration lines and
the Monte Carlo statistics kept their bytes; p_click_analytic and
false_herald_analytic moved in the last ulp (at most 6.9e-16 relative), and
the exact engine's photon_yield became exactly 1.0, since ideal retrieval now
returns efficiency 1 by construction rather than 1 - 2^-52.
Both were taken again when the config keys kappa and gamma_gs left the
schema: they were read only by the Langevin moments, which no command
reports, so the output lost their entries in the config and provenance
lines and their two CSV columns, and every other byte stayed the same.
Both were taken again when the random streams moved from Philox4x32-10
(one block per run) to the SplitMix64 counter hash (two words per run): the
hash costs about a tenth of the numpy calls.  Every Monte Carlo column moved
(n_trials, p_click and its stderr, mean_trials and its stderr, the
false-herald fraction and the photon yield), because every run draws new
uniforms; the configuration lines, n_runs, n_success and the analytic
columns kept their bytes, and the new tallies stay within sampling error of
the analytic values.
Both were taken again when the analytic branch sums moved from the builtin
sum, which Python compensates from 3.12 on, to math.fsum, so that the
analytic columns no longer depend on the interpreter.  Only those columns
moved, each by one ulp, to what Python 3.13 printed before: the protocol's
false_herald_analytic 0.05902432814717675 -> 0.05902432814717676, and the
exact sweep's cutoff-2 row p_click_analytic 0.0104761200805338 ->
0.010476120080533799 and false_herald_analytic 0.06016307693500852 ->
0.060163076935008525.  Every integer, Monte Carlo and configuration byte
stayed the same.
Both were taken again when the config keys gamma_1 and gamma_2 left the
schema: the excited-state decays entered only the optical pumping rates
gamma_L, and with the Stark shifts delta_L they were read only by the
Langevin moments, which no command reports, so the output lost their
entries in the config and provenance lines and their two CSV columns, and
every other byte stayed the same.
Any change to the random streams, the run loop or the statistics shows here.

The second sha256 pins the exact write engine under the same driver:

    fmesim sweep --preset rb85-87 --set engine=exact --runs 300 --sweep cutoff=2,3 --seed 1

It was taken again when the exact engine moved from a matrix exponential of
the chain truncated at the cutoff to the closed-form, untruncated two-mode
squeezed vacuum, with its weight above the cutoff as two tail branches.
The random draws and the integer columns kept their bytes; p_click_analytic
and false_herald_analytic lost their dependence on the cutoff (cutoffs 2 and
3 now agree to one ulp), and with them the photon yield of cutoff 2 moved.
"""

import hashlib

from fmesim import protocol as pr
from fmesim.cli import main

GOLDEN_PROTOCOL_SHA256 = "88041c29d1b3ca0ada411108e42f5ef2dd1e4d22062182979fea0090b0948d60"
GOLDEN_EXACT_SWEEP_SHA256 = "0081f3d365ad652a661500dda0485e3ed80913549eefd43cb2c9b72587280484"


def test_golden_protocol_bytes(tmp_path):
    out = tmp_path / "golden.csv"
    args = ["protocol", "--preset", "rb85-87", "--runs", "2000", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PROTOCOL_SHA256


def test_golden_exact_sweep_bytes(tmp_path):
    out = tmp_path / "exact.csv"
    args = [
        "sweep", "--preset", "rb85-87", "--set", "engine=exact", "--runs", "300",
        "--sweep", "cutoff=2,3", "--seed", "1",
    ]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EXACT_SWEEP_SHA256


def test_sweep_two_workers_match_one(tmp_path):
    # 8200 runs make three chunks per row; --workers changes nothing
    args = [
        "sweep", "--preset", "rb85-87", "--format", "json", "--runs", "8200",
        "--seed", "3", "--sweep", "omega_rabi_write_II=1e7,2.5e7",
    ]
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        assert main(args + ["--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_output_does_not_depend_on_chunk_size(tmp_path, monkeypatch):
    # 20000 runs per row: five chunks of 4096 or three of 8192
    args = [
        "sweep", "--preset", "rb85-87", "--format", "json", "--runs", "20000",
        "--seed", "4", "--sweep", "eta=0.5,0.9",
    ]
    blobs = []
    for chunk in (4096, 8192):
        monkeypatch.setattr(pr, "_RUN_CHUNK", chunk)
        out = tmp_path / f"chunk{chunk}.json"
        assert main(args + ["--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
